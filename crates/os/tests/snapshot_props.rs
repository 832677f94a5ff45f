//! Property tests for checkpoint/restore: after `snapshot()`, any
//! sequence of further steps and memory pokes followed by `restore()`
//! leaves the machine (and the whole process) observably identical to
//! one that never deviated — same registers, flags, memory, icount and
//! subsequent execution. A forked (cloned) process runs like the
//! original and rewinds like it.

use fisec_net::{ClientDriver, ClientStatus};
use fisec_os::{Process, Stop};
use proptest::prelude::*;

/// Scripted client: feeds each input line on demand, records replies.
#[derive(Clone)]
struct ScriptClient {
    inputs: Vec<Vec<u8>>,
    next: usize,
}

impl ClientDriver for ScriptClient {
    fn on_server_data(&mut self, _data: &[u8], _out: &mut dyn FnMut(Vec<u8>)) {}

    fn on_server_read_idle(&mut self, out: &mut dyn FnMut(Vec<u8>)) {
        if self.next < self.inputs.len() {
            out(self.inputs[self.next].clone());
            self.next += 1;
        }
    }

    fn status(&self) -> ClientStatus {
        ClientStatus::InProgress
    }
}

/// An echo server with enough control flow that arbitrary step counts
/// land in interesting places (loop, syscalls, arithmetic).
fn image() -> &'static fisec_asm::Image {
    static IMG: std::sync::OnceLock<fisec_asm::Image> = std::sync::OnceLock::new();
    IMG.get_or_init(|| {
        fisec_cc::build_image(&[r#"
            int main() {
                char buf[64];
                int n;
                int total;
                total = 0;
                write_str(1, "220 ready\r\n");
                n = read(0, buf, 63);
                while (n > 0) {
                    buf[n] = 0;
                    write(1, buf, n);
                    total = total + n;
                    n = read(0, buf, 63);
                }
                return total;
            }
        "#])
        .expect("test program builds")
    })
}

fn load(inputs: &[Vec<u8>], budget: u64) -> Process {
    let mut p = Process::load(
        image(),
        Box::new(ScriptClient {
            inputs: inputs.to_vec(),
            next: 0,
        }),
    )
    .expect("image loads");
    p.set_budget(budget);
    p
}

/// First difference between two machines' observable state — registers,
/// icount, executable generation, and every byte of every region — or
/// `None` when they are identical.
fn state_diff(a: &fisec_x86::Machine, b: &fisec_x86::Machine) -> Option<String> {
    if a.cpu != b.cpu || a.icount != b.icount || a.mem.exec_gen() != b.mem.exec_gen() {
        return Some(format!(
            "cpu/icount/exec_gen: {:?} {} {} vs {:?} {} {}",
            a.cpu,
            a.icount,
            a.mem.exec_gen(),
            b.cpu,
            b.icount,
            b.mem.exec_gen()
        ));
    }
    let (ra, rb): (Vec<_>, Vec<_>) = (a.mem.regions().collect(), b.mem.regions().collect());
    if ra.len() != rb.len() {
        return Some(format!("{} regions vs {}", ra.len(), rb.len()));
    }
    for (x, y) in ra.iter().zip(&rb) {
        if (x.start(), x.len()) != (y.start(), y.len()) {
            return Some(format!("region {} layout differs", x.name()));
        }
        if x.bytes() == y.bytes() {
            continue;
        }
        if let Some(i) = (0..x.bytes().len()).find(|&i| x.bytes()[i] != y.bytes()[i]) {
            return Some(format!(
                "byte {:#x}: {:#04x} vs {:#04x}",
                x.start() + i as u32,
                x.bytes()[i],
                y.bytes()[i]
            ));
        }
    }
    None
}

/// One deviation step: `(kind, where, value)`.
type Deviation = (u8, u32, u32);

fn deviation_strategy() -> impl Strategy<Value = Vec<Deviation>> {
    proptest::collection::vec((0u8..7, any::<u32>(), any::<u32>()), 0..12)
}

/// Drive the machine away from its snapshot: extra steps, text and
/// stack pokes, and 32-bit and bulk writes into data and stack —
/// including writes that straddle a 4 KiB page boundary of the stack and
/// writes that run off the end of the data region (partial write, then
/// fault).
fn deviate(m: &mut fisec_x86::Machine, deviation: &[Deviation]) {
    let img = image();
    let stack_base = fisec_os::STACK_TOP - fisec_os::STACK_SIZE;
    let data_len = img.data.len().max(1) as u32;
    for &(kind, at, val) in deviation {
        match kind {
            0 => {
                for _ in 0..(at % 64) {
                    let _ = m.step();
                }
            }
            1 => {
                let addr = img.text_base + (at % img.text.len() as u32);
                let _ = m.mem.poke8(addr, val as u8);
            }
            2 => {
                let addr = fisec_os::STACK_TOP - 1 - (at % 4096);
                let _ = m.mem.poke8(addr, val as u8);
            }
            3 => {
                // Straddle a page boundary: 1-3 bytes below it.
                let page = stack_base + 0x1000 * (1 + at % (fisec_os::STACK_SIZE / 0x1000 - 1));
                let _ = m.mem.write32(page - 1 - (val % 3), val);
            }
            4 => {
                let addr = stack_base + at % fisec_os::STACK_SIZE;
                let _ = m.mem.write32(addr, val);
            }
            5 => {
                let addr = img.data_base + at % data_len;
                let _ = m.mem.write32(addr, val);
            }
            _ => {
                let addr = if at % 2 == 0 {
                    img.data_base + at % data_len
                } else {
                    stack_base + 0x1000 - 8 + at % 16
                };
                let len = 1 + (val % 24) as usize;
                let _ = m
                    .mem
                    .write_bytes(addr, &val.to_le_bytes().repeat(len.div_ceil(4))[..len]);
            }
        }
    }
}

fn lines_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(97u8..=122, 1..8).prop_map(|mut l| {
            l.push(b'\n');
            l
        }),
        0..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Machine level: snapshot → arbitrary steps, pokes and writes →
    /// restore leaves every observable identical to a twin that never
    /// deviated, including the next stretch of execution. Several rounds
    /// rewind to the same snapshot, so all but the first copy back only
    /// dirty pages; a second snapshot of the same lineage in between
    /// forces the full-copy fallback on the way to it and back.
    #[test]
    fn restore_rewinds_machine_exactly(
        lines in lines_strategy(),
        pre_steps in 0u64..600,
        rounds in proptest::collection::vec(deviation_strategy(), 1..4),
        second in deviation_strategy(),
        post_steps in 1u64..200,
    ) {
        let mut p = load(&lines, 100_000);
        for _ in 0..pre_steps {
            let _ = p.machine.step();
        }
        let snap = p.machine.snapshot();
        let twin = p.machine.clone();

        for deviation in &rounds {
            deviate(&mut p.machine, deviation);
            p.machine.restore(&snap);
            let diff = state_diff(&p.machine, &twin);
            prop_assert!(diff.is_none(), "after a rewind to the first snapshot: {:?}", diff);
        }

        deviate(&mut p.machine, &second);
        let snap2 = p.machine.snapshot();
        let twin2 = p.machine.clone();
        deviate(&mut p.machine, &rounds[0]);
        p.machine.restore(&snap2);
        let diff = state_diff(&p.machine, &twin2);
        prop_assert!(diff.is_none(), "after a rewind to the second snapshot: {:?}", diff);
        // Straight back: no page is dirty, yet the bytes `second` wrote
        // must go, so this rewind has to copy everything.
        p.machine.restore(&snap);
        let diff = state_diff(&p.machine, &twin);
        prop_assert!(diff.is_none(), "after a rewind back to the first snapshot: {:?}", diff);

        // Subsequent execution must be step-for-step identical.
        let mut twin = twin;
        for _ in 0..post_steps {
            let ea = p.machine.step();
            let eb = twin.step();
            prop_assert_eq!(ea, eb);
            prop_assert_eq!(&p.machine.cpu, &twin.cpu);
            prop_assert_eq!(p.machine.icount, twin.icount);
        }
    }

    /// Process level: a run after restore reproduces the original run
    /// exactly — stop reason, icount, client verdict and traffic.
    #[test]
    fn restored_process_reruns_identically(
        lines in lines_strategy(),
        budget in 1_000u64..40_000,
        pre_steps in 0u64..400,
    ) {
        let mut p = load(&lines, budget);
        for _ in 0..pre_steps {
            let _ = p.machine.step();
        }
        let snap = p.snapshot();

        let stop1 = p.run();
        let icount1 = p.icount();
        let client1 = p.client_status();
        let trace1 = p.trace();

        p.restore(&snap);
        let stop2 = p.run();
        prop_assert_eq!(stop1, stop2);
        prop_assert_eq!(icount1, p.icount());
        prop_assert_eq!(client1, p.client_status());
        prop_assert_eq!(trace1, p.trace());
    }

    /// Fork: a clone of a process parked at a random icount (a budget
    /// stop, on either engine, after the original has already been
    /// rewound once) runs to the same end as the original — stop,
    /// icount, client verdict, traffic and every region byte — and stays
    /// in the original's lineage: a snapshot taken on the fork, or on the
    /// original before the fork or before its rewind, rewinds the fork
    /// exactly, after which it reruns to the same end.
    #[test]
    fn fork_runs_and_rewinds_like_the_original(
        lines in lines_strategy(),
        fork_permille in 0u64..1000,
        block_engine in any::<bool>(),
        deviation in deviation_strategy(),
    ) {
        const BUDGET: u64 = 40_000;
        let mut p = load(&lines, BUDGET);
        p.machine.set_block_engine(block_engine);
        let origin = p.snapshot();
        let origin_state = p.machine.clone();
        let _ = p.run();
        let fork_at = p.icount() * fork_permille / 1000;
        // Rewound, the original copies back only the pages it dirties
        // from here on; the fork must not inherit that shortcut.
        p.restore(&origin);
        p.set_budget(fork_at);
        let _ = p.run();
        p.set_budget(BUDGET);
        let before_fork = p.snapshot();
        let parked = p.machine.clone();
        let mut fork = p.clone();
        let fork_snap = fork.snapshot();
        // A fork rewound at once has dirtied nothing itself, yet must
        // copy back everything the original wrote since `origin`.
        let mut early = p.clone();
        early.restore(&origin);
        let diff = state_diff(&early.machine, &origin_state);
        prop_assert!(diff.is_none(), "fork rewound at once: {:?}", diff);

        let stop = p.run();
        prop_assert_eq!(&fork.run(), &stop);
        prop_assert_eq!(fork.icount(), p.icount());
        prop_assert_eq!(fork.client_status(), p.client_status());
        prop_assert_eq!(fork.trace(), p.trace());
        let diff = state_diff(&fork.machine, &p.machine);
        prop_assert!(diff.is_none(), "fork vs original at the end: {:?}", diff);

        for (snap, state) in [(&fork_snap, &parked), (&before_fork, &parked), (&origin, &origin_state)] {
            deviate(&mut fork.machine, &deviation);
            fork.restore(snap);
            let diff = state_diff(&fork.machine, state);
            prop_assert!(diff.is_none(), "rewound fork: {:?}", diff);
            prop_assert_eq!(&fork.run(), &stop);
            prop_assert_eq!(fork.icount(), p.icount());
            prop_assert_eq!(fork.client_status(), p.client_status());
            prop_assert_eq!(fork.trace(), p.trace());
        }
    }
}

/// Injection-shaped group replay: restore to a boot snapshot, flip one
/// text byte, run — repeated across a whole group of errors. The
/// journal-based invalidation must retain the overwhelming majority of
/// the block cache across the group (the injector only ever touches one
/// byte per run), and every stop must match a step-engine reference.
#[test]
fn group_replay_retains_block_cache() {
    let img = image();
    let lines: Vec<Vec<u8>> = vec![b"hello\n".to_vec(), b"world\n".to_vec()];
    let text_len = img.text.len() as u32;
    let addr_of = |i: u32| img.text_base + (i * 37) % text_len;
    const RUNS: u32 = 40;

    let mut p = load(&lines, 100_000);
    let snap = p.snapshot();
    let _ = p.run(); // golden run primes the cache
    let primed = p.machine.block_stats();
    assert!(
        primed.cached > 10,
        "golden run populates the cache: {primed:?}"
    );

    let mut stops = Vec::new();
    let inv0 = p.machine.block_stats().invalidated;
    for i in 0..RUNS {
        p.restore(&snap);
        let orig = p.machine.mem.peek8(addr_of(i)).unwrap();
        p.machine.mem.poke8(addr_of(i), orig ^ 0x04).unwrap();
        stops.push(p.run());
    }
    let s = p.machine.block_stats();
    // Wholesale invalidation would drop the full cache every replay
    // (RUNS * cached blocks). Targeted invalidation drops only the
    // blocks covering the flipped byte, at the poke and at the
    // restore that reverts it — >95% of the cache survives each run.
    let dropped = s.invalidated - inv0;
    let wholesale = u64::from(RUNS) * primed.cached as u64;
    assert!(
        dropped * 20 <= wholesale,
        ">95% of the block cache must survive each replay: dropped {dropped} \
         of a wholesale {wholesale}: {s:?}"
    );
    assert!(s.hits > s.built, "replays are served from cache: {s:?}");

    // Step-engine reference: identical stops, run for run.
    let mut r = load(&lines, 100_000);
    r.machine.set_block_engine(false);
    let rsnap = r.snapshot();
    let _ = r.run();
    for i in 0..RUNS {
        r.restore(&rsnap);
        let orig = r.machine.mem.peek8(addr_of(i)).unwrap();
        r.machine.mem.poke8(addr_of(i), orig ^ 0x04).unwrap();
        assert_eq!(
            r.run(),
            stops[i as usize],
            "run {i} diverged from step engine"
        );
    }
}

/// The tier-2 companion to the retention test above: across an
/// injection-shaped restore/poke/run group, superblock traces built on
/// earlier replays must keep serving later ones (the journal drops only
/// traces covering the flipped byte), and every stop must match a
/// trace-cache-off reference.
#[test]
fn group_replay_retains_trace_cache() {
    let img = image();
    let lines: Vec<Vec<u8>> = vec![b"hello\n".to_vec(), b"world\n".to_vec()];
    let text_len = img.text.len() as u32;
    let addr_of = |i: u32| img.text_base + (i * 37) % text_len;
    const RUNS: u32 = 40;

    let mut p = load(&lines, 100_000);
    p.machine.set_trace_threshold(1);
    let snap = p.snapshot();
    let _ = p.run(); // golden run promotes the hot loops
    let primed = p.machine.trace_stats();
    assert!(primed.built > 0, "golden run builds traces: {primed:?}");

    let mut stops = Vec::new();
    for i in 0..RUNS {
        p.restore(&snap);
        let orig = p.machine.mem.peek8(addr_of(i)).unwrap();
        p.machine.mem.poke8(addr_of(i), orig ^ 0x04).unwrap();
        stops.push(p.run());
    }
    let s = p.machine.trace_stats();
    assert!(
        s.hits > primed.hits,
        "replays must be served from retained traces: {primed:?} -> {s:?}"
    );

    // Tier-1 reference: identical stops, run for run.
    let mut r = load(&lines, 100_000);
    r.machine.set_trace_cache(false);
    let rsnap = r.snapshot();
    let _ = r.run();
    for i in 0..RUNS {
        r.restore(&rsnap);
        let orig = r.machine.mem.peek8(addr_of(i)).unwrap();
        r.machine.mem.poke8(addr_of(i), orig ^ 0x04).unwrap();
        assert_eq!(
            r.run(),
            stops[i as usize],
            "run {i} diverged from the tier-1 engine"
        );
    }
}

/// Deterministic (non-property) check that no stale decode survives a
/// restore, in the block engine and in the step engine: corrupt an
/// executed instruction's bytes after the snapshot, run a little (so the
/// block engine caches a block decoded from the corrupted bytes),
/// restore, and verify execution proceeds with the pristine decode.
#[test]
fn restore_discards_stale_decodes() {
    let img = image();
    let entry = img.func("_start").expect("entry").start;
    for block_engine in [true, false] {
        let mut p = load(&[], 100_000);
        p.machine.set_block_engine(block_engine);
        let snap = p.snapshot();
        // Corrupt the first instruction into something else and execute it.
        let orig = p.machine.mem.peek8(entry).unwrap();
        p.machine.mem.poke8(entry, orig ^ 0x01).unwrap();
        let _ = p.machine.run_until_event(1);
        p.restore(&snap);
        assert_eq!(p.machine.mem.peek8(entry).unwrap(), orig);
        // The pristine program deadlocks waiting for a client (no inputs)
        // after its banner write — it must not fault.
        assert_eq!(p.run(), Stop::Deadlock, "block engine: {block_engine}");
    }
}
