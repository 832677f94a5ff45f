//! The traced pass: one pass re-executed by calling each layer's public
//! functions in the order `run_campaign_cached` (with
//! `inject::run_injection_group_recorded`) and `run_random_streaming`
//! (with `LatentRunner::run`) call them, with a [`Ledger`] span around
//! every call. Its output must
//! digest equal to the untraced pass's, so both measured the same work.

use crate::ledger::{Ledger, SHORT_REPLAY_INSTS};
use crate::{
    dir_bytes, Bench, ColumnTally, PassOutput, RandomTally, Workload, RANDOM_DRAWS, SCHEMES,
};
use fisec_apps::{AppSpec, ClientSpec};
use fisec_core::cache::{CacheLookup, CampaignCache};
use fisec_encoding::{remap_flip, ByteCtx, EncodingScheme};
use fisec_inject::{
    classify_run, enumerate_targets, GoldenRun, InjectionRun, InjectionTarget, OutcomeClass,
    BUDGET_FLOOR, BUDGET_MULTIPLIER,
};
use fisec_os::{Process, Stop};
use std::collections::HashSet;

/// Instruction budget of a golden run, as `inject::golden_run_opts`
/// sets it.
const GOLDEN_BUDGET: u64 = 50_000_000;

/// Run pass `index` of `bench`'s workload under `ledger` as one `pass`
/// root span.
pub fn pass(bench: &Bench, index: u64, ledger: &mut Ledger) -> PassOutput {
    let root = ledger.begin_pass();
    let out = match bench.workload {
        Workload::Exhaustive | Workload::WarmRerun => campaign_pass(bench, ledger),
        Workload::Random => random_pass(bench, index, ledger),
    };
    ledger.end_pass(root);
    out
}

fn campaign_pass(bench: &Bench, ledger: &mut Ledger) -> PassOutput {
    let cache = CampaignCache::at(bench.store.clone());
    let mut cols = Vec::new();
    for scheme in SCHEMES {
        for app in &bench.apps {
            let set = ledger.time("inject.enumerate", || {
                enumerate_targets(&app.image, &app.auth_funcs, false)
            });
            for spec in &app.clients {
                cols.push(client_column(
                    app,
                    spec,
                    &set.targets,
                    scheme,
                    &cache,
                    ledger,
                ));
            }
        }
    }
    ledger.counters.store_bytes += dir_bytes(&bench.store);
    PassOutput::Campaign(cols)
}

/// One (app, client, scheme) column, as `run_campaign_cached` and its
/// snapshot-mode target loop compute it.
fn client_column(
    app: &AppSpec,
    spec: &ClientSpec,
    targets: &[InjectionTarget],
    scheme: EncodingScheme,
    cache: &CampaignCache,
    ledger: &mut Ledger,
) -> ColumnTally {
    let (golden, _) = golden_run(app, spec, false, ledger);
    // The NA pre-filter is sound only when golden exits or deadlocks.
    let coverage = matches!(golden.stop, Stop::Exited(_) | Stop::Deadlock)
        .then(|| golden_run(app, spec, true, ledger).1)
        .flatten();
    let store = ledger.time("core.cache.open", || {
        cache.open_client(app, spec, scheme, false, &golden)
    });
    let mut col = ColumnTally::new(app.name, scheme, &spec.name);
    for group in targets.chunk_by(|a, b| a.addr == b.addr) {
        ledger.counters.groups += 1;
        ledger.counters.experiments += group.len() as u64;
        if coverage
            .as_ref()
            .is_some_and(|c| !c.contains(&group[0].addr))
        {
            for t in group {
                col.add(t, OutcomeClass::NotActivated, None);
            }
            continue;
        }
        let runs = match ledger.time("core.cache.lookup", || store.lookup(&app.image, group)) {
            CacheLookup::Hit(runs) => {
                ledger.counters.cache_hits += 1;
                runs.into_iter().map(|(run, _)| run).collect()
            }
            CacheLookup::Stale | CacheLookup::Miss => {
                ledger.counters.cache_misses += 1;
                let (runs, foot) = injection_group(app, spec, &golden, group, scheme, ledger);
                let cached: Vec<_> = runs.iter().map(|r| (r.clone(), None)).collect();
                ledger.time("core.cache.record", || {
                    store.record(&app.image, group, &cached, foot)
                });
                runs
            }
        };
        for (t, run) in group.iter().zip(&runs) {
            col.add(t, run.outcome, run.crash_latency);
        }
    }
    if store.fresh_count() > 0 || store.context_invalidated {
        ledger
            .time("core.cache.save", || store.save())
            .expect("the benchmark's cache store is writable");
    }
    col
}

/// A golden session (`inject::golden_run_opts`, or with `coverage` its
/// coverage-recording twin).
fn golden_run(
    app: &AppSpec,
    spec: &ClientSpec,
    coverage: bool,
    ledger: &mut Ledger,
) -> (GoldenRun, Option<HashSet<u32>>) {
    let span = ledger.open("inject.golden");
    let mut p = load(app, spec, ledger);
    p.set_budget(GOLDEN_BUDGET);
    if coverage {
        p.machine.enable_coverage();
    }
    let stop = ledger.run("os.run", &mut p);
    let client = p.client_status();
    let trace = ledger.time("net.trace", || p.trace());
    let golden = GoldenRun {
        stop,
        client,
        trace,
        icount: p.icount(),
    };
    let cov = coverage.then(|| p.machine.coverage().expect("coverage was enabled"));
    ledger.note_process(&p);
    ledger.close(span);
    (golden, cov)
}

/// `Process::load`; a fresh machine already runs the default engine
/// (block cache and tier-2 traces on).
fn load(app: &AppSpec, spec: &ClientSpec, ledger: &mut Ledger) -> Process {
    ledger
        .time("os.load", || Process::load(&app.image, spec.make()))
        .expect("bundled image loads")
}

/// One checkpoint group, as `inject::run_injection_group_recorded`
/// executes it with footprint recording on: boot to the breakpoint,
/// snapshot, then restore → flip → replay → classify per target.
/// Returns the runs and the executed-code footprint.
fn injection_group(
    app: &AppSpec,
    spec: &ClientSpec,
    golden: &GoldenRun,
    group: &[InjectionTarget],
    scheme: EncodingScheme,
    ledger: &mut Ledger,
) -> (Vec<InjectionRun>, Vec<(u32, u32)>) {
    let span = ledger.open("inject.group");
    let addr = group[0].addr;
    let mut p = load(app, spec, ledger);
    p.machine.enable_footprint();
    p.set_budget((golden.icount * BUDGET_MULTIPLIER).max(BUDGET_FLOOR));
    p.machine.add_breakpoint(addr);
    let first = ledger.run("os.boot", &mut p);
    ledger.counters.boot_insts += p.icount();
    let runs = if let Stop::Breakpoint(_) = first {
        let checkpoint = ledger.time("os.snapshot", || p.snapshot());
        let activation = p.icount();
        group
            .iter()
            .map(|t| {
                ledger.time("os.restore", || p.restore(&checkpoint));
                ledger.time("inject.flip", || flip(&mut p, t, scheme));
                let stop = ledger.run("os.replay", &mut p);
                let insts = p.icount() - activation;
                ledger.counters.replay_insts += insts;
                ledger.counters.short_replays += u64::from(insts <= SHORT_REPLAY_INSTS);
                let trace = ledger.time("net.trace", || p.trace());
                let latency = matches!(stop, Stop::Crashed(_)).then_some(insts);
                let client = p.client_status();
                ledger.time("inject.classify", || {
                    classify_run(golden, stop, client, trace, latency)
                })
            })
            .collect()
    } else {
        // Never reached: every run of the group stops as the boot did.
        let na = InjectionRun {
            outcome: OutcomeClass::NotActivated,
            activated: false,
            stop: first,
            client: p.client_status(),
            crash_latency: None,
            transient_deviation: false,
            divergence: None,
        };
        vec![na; group.len()]
    };
    let foot = p
        .machine
        .take_footprint()
        .map(|f| f.ranges())
        .unwrap_or_default();
    ledger.note_process(&p);
    ledger.close(span);
    (runs, foot)
}

/// Plant the target's bit flip (through the scheme's §6.2 remap) and
/// disarm its breakpoint.
fn flip(p: &mut Process, t: &InjectionTarget, scheme: EncodingScheme) {
    let byte_addr = t.addr.wrapping_add(u32::from(t.byte_index));
    let orig = p
        .machine
        .mem
        .peek8(byte_addr)
        .expect("target byte is mapped");
    let ctx = if t.byte_index == 0 {
        ByteCtx::OneByteOpcode
    } else if t.byte_index == 1 && t.first_byte == 0x0F {
        ByteCtx::SecondOpcodeByte
    } else {
        ByteCtx::Other
    };
    p.machine
        .mem
        .poke8(byte_addr, remap_flip(orig, t.bit, ctx, scheme))
        .expect("target byte is mapped");
    p.machine.remove_breakpoint(t.addr);
}

/// `random` pass `index`, as `run_random_streaming` executes it per
/// app: a golden run, `LatentRunner::snapshot`, then restore → plant →
/// replay → classify per draw.
fn random_pass(bench: &Bench, index: u64, ledger: &mut Ledger) -> PassOutput {
    let seed = bench.pass_seed(index);
    PassOutput::Random(Box::new([0, 1].map(|ai| {
        let app = &bench.apps[ai];
        let spec = &app.clients[0];
        let (golden, _) = golden_run(app, spec, false, ledger);
        let mut p = load(app, spec, ledger);
        p.set_budget((golden.icount * BUDGET_MULTIPLIER).max(BUDGET_FLOOR));
        let checkpoint = ledger.time("os.snapshot", || p.snapshot());
        let mut tally = RandomTally::default();
        for idx in 0..RANDOM_DRAWS as u64 {
            let err = bench.latent_error(ai, seed, idx);
            ledger.counters.experiments += 1;
            ledger.time("os.restore", || p.restore(&checkpoint));
            ledger.time("inject.flip", || {
                let addr = app.image.text_base.wrapping_add(err.offset as u32);
                p.machine
                    .mem
                    .poke8(addr, err.corrupted)
                    .expect("text byte is mapped")
            });
            let stop = ledger.run("os.replay", &mut p);
            let insts = p.icount();
            ledger.counters.replay_insts += insts;
            ledger.counters.short_replays += u64::from(insts <= SHORT_REPLAY_INSTS);
            let client = p.client_status();
            let trace = ledger.time("net.trace", || p.trace());
            let run = ledger.time("inject.classify", || {
                classify_run(&golden, stop, client, trace, None)
            });
            tally.add(run.outcome, insts);
        }
        ledger.note_process(&p);
        tally
    })))
}
