//! Harvest equivalence: one boot forked at every checkpoint must hand
//! each checkpoint group exactly the process a fresh boot to its
//! breakpoint would have produced.
//!
//! Over every live checkpoint group of ftpd and sshd (every client; a
//! group is live when the golden run's coverage does not prove it NA):
//!   * each harvested checkpoint equals a fresh boot (`load`, then
//!     `add_breakpoint`, then `run`) in full state — registers, EIP,
//!     flags, icount, every region byte, client verdict, channel trace —
//!     its executed-code footprint is range-for-range identical, and
//!     with the checkpoint's breakpoint disarmed both run on to the same
//!     stop;
//!   * a group the harvester never reaches gets the fresh boot's stop,
//!     client verdict, icount and footprint;
//!   * under both encodings, every group's runs and footprint from one
//!     shared harvest equal those of the group harvested on its own.

use fisec_apps::{AppSpec, ClientSpec};
use fisec_encoding::EncodingScheme;
use fisec_inject::{
    enumerate_targets, golden_run_with_coverage, harvest_checkpoints, harvest_groups,
    run_injection_group_recorded, Checkpoint, EngineOpts, GoldenRun, InjectionTarget, BUDGET_FLOOR,
    BUDGET_MULTIPLIER,
};
use fisec_os::{Process, Stop};

/// Live groups of every client of ftpd and sshd.
const LIVE_GROUPS: usize = 123;

/// Contiguous same-address slices of an address-major target list.
fn by_addr(targets: &[InjectionTarget]) -> Vec<&[InjectionTarget]> {
    let mut groups = Vec::new();
    let mut start = 0;
    for i in 1..=targets.len() {
        if i == targets.len() || targets[i].addr != targets[start].addr {
            groups.push(&targets[start..i]);
            start = i;
        }
    }
    groups
}

/// A client's golden run plus its live and (up to three) pre-filtered
/// groups.
struct Client<'a> {
    spec: &'a ClientSpec,
    golden: GoldenRun,
    live: Vec<&'a [InjectionTarget]>,
    dead: Vec<&'a [InjectionTarget]>,
}

fn clients<'a>(app: &'a AppSpec, targets: &'a [InjectionTarget]) -> Vec<Client<'a>> {
    app.clients
        .iter()
        .map(|spec| {
            let (golden, cov) = golden_run_with_coverage(&app.image, spec).unwrap();
            let sound = matches!(golden.stop, Stop::Exited(_) | Stop::Deadlock);
            let (live, dead): (Vec<_>, Vec<_>) = by_addr(targets)
                .into_iter()
                .partition(|g| !sound || cov.contains(&g[0].addr));
            Client {
                spec,
                golden,
                live,
                dead: dead.into_iter().take(3).collect(),
            }
        })
        .collect()
}

/// A fresh boot to `addr` with the engine options the campaign cache
/// runs under (`EngineOpts::default().with_footprint()`).
fn fresh_boot(app: &AppSpec, spec: &ClientSpec, golden: &GoldenRun, addr: u32) -> (Process, Stop) {
    let mut p = Process::load(&app.image, spec.make()).unwrap();
    p.machine.enable_footprint();
    p.set_budget((golden.icount * BUDGET_MULTIPLIER).max(BUDGET_FLOOR));
    p.machine.add_breakpoint(addr);
    let stop = p.run();
    (p, stop)
}

/// First difference in full process state, footprint included, or
/// `None`. Takes both footprints.
fn process_diff(a: &mut Process, b: &mut Process) -> Option<String> {
    let (ma, mb) = (&a.machine, &b.machine);
    if ma.cpu != mb.cpu || ma.icount != mb.icount || ma.mem.exec_gen() != mb.mem.exec_gen() {
        return Some(format!(
            "cpu/icount: {:?} {} vs {:?} {}",
            ma.cpu, ma.icount, mb.cpu, mb.icount
        ));
    }
    let (ra, rb): (Vec<_>, Vec<_>) = (ma.mem.regions().collect(), mb.mem.regions().collect());
    if ra.len() != rb.len() {
        return Some(format!("{} regions vs {}", ra.len(), rb.len()));
    }
    for (x, y) in ra.iter().zip(&rb) {
        if (x.start(), x.bytes()) != (y.start(), y.bytes()) {
            return Some(format!("region {} differs", x.name()));
        }
    }
    if a.client_status() != b.client_status() {
        return Some("client verdict differs".to_string());
    }
    if a.trace() != b.trace() {
        return Some("channel trace differs".to_string());
    }
    let fa = a.machine.take_footprint().map(|f| f.ranges());
    let fb = b.machine.take_footprint().map(|f| f.ranges());
    if fa != fb {
        return Some(format!("footprint {fa:?} vs {fb:?}"));
    }
    None
}

#[test]
fn harvested_checkpoints_equal_fresh_boots() {
    let engine = EngineOpts::default().with_footprint();
    let mut reached = 0;
    let mut unreached = 0;
    for app in [AppSpec::ftpd(), AppSpec::sshd()] {
        let set = enumerate_targets(&app.image, &app.auth_funcs, false);
        for c in clients(&app, &set.targets) {
            let addrs: Vec<u32> = c.live.iter().chain(&c.dead).map(|g| g[0].addr).collect();
            let mut visited = vec![false; addrs.len()];
            harvest_checkpoints(
                &app.image,
                c.spec,
                &c.golden,
                &addrs,
                engine,
                |cp, _| match cp {
                    Checkpoint::Reached { index, process } => {
                        let addr = addrs[index];
                        let (mut fresh, stop) = fresh_boot(&app, c.spec, &c.golden, addr);
                        assert_eq!(stop, Stop::Breakpoint(addr), "{} @ {addr:#x}", c.spec.name);
                        if let Some(d) = process_diff(process, &mut fresh) {
                            panic!("{} {} @ {addr:#x}: {d}", app.name, c.spec.name);
                        }
                        // The armed set is not inspectable, so run both on
                        // without the checkpoint's own breakpoint: any
                        // other one left armed would stop the harvested
                        // process early.
                        assert!(process.machine.remove_breakpoint(addr));
                        assert!(fresh.machine.remove_breakpoint(addr));
                        let end = process.run();
                        assert_eq!(end, fresh.run(), "{} @ {addr:#x}", c.spec.name);
                        assert_eq!(process.icount(), fresh.icount());
                        assert!(index < c.live.len(), "a pre-filtered group was reached");
                        assert!(!std::mem::replace(&mut visited[index], true));
                        reached += 1;
                    }
                    Checkpoint::Unreached {
                        indices,
                        stop,
                        process,
                    } => {
                        for index in indices {
                            let addr = addrs[index];
                            let (mut fresh, fresh_stop) = fresh_boot(&app, c.spec, &c.golden, addr);
                            assert_eq!(stop, fresh_stop, "{} @ {addr:#x}", c.spec.name);
                            let mut parked = process.clone();
                            if let Some(d) = process_diff(&mut parked, &mut fresh) {
                                panic!("{} {} unreached @ {addr:#x}: {d}", app.name, c.spec.name);
                            }
                            assert!(!std::mem::replace(&mut visited[index], true));
                            unreached += 1;
                        }
                    }
                },
            )
            .unwrap();
            assert!(
                visited.iter().all(|&v| v),
                "every checkpoint is visited once"
            );
        }
    }
    assert_eq!(reached, LIVE_GROUPS, "every live group is reached");
    assert!(unreached > 0, "the unreached path must be exercised");
}

#[test]
fn shared_harvest_matches_per_group_harvests_under_both_encodings() {
    let engine = EngineOpts::default().with_footprint();
    let mut groups = 0;
    for scheme in [EncodingScheme::Baseline, EncodingScheme::NewEncoding] {
        for app in [AppSpec::ftpd(), AppSpec::sshd()] {
            let set = enumerate_targets(&app.image, &app.auth_funcs, false);
            for c in clients(&app, &set.targets) {
                let batch: Vec<&[InjectionTarget]> =
                    c.live.iter().chain(&c.dead).copied().collect();
                let mut seen = vec![false; batch.len()];
                harvest_groups(
                    &app.image,
                    c.spec,
                    &c.golden,
                    &batch,
                    scheme,
                    engine,
                    |i, (runs, meta, _, foot)| {
                        let (solo_runs, solo_meta, _, solo_foot) = run_injection_group_recorded(
                            &app.image, c.spec, &c.golden, batch[i], scheme, engine,
                        )
                        .unwrap();
                        let what = format!("{scheme} {} @ {:#x}", c.spec.name, batch[i][0].addr);
                        assert_eq!(runs.len(), solo_runs.len(), "{what}");
                        for ((run, m, _, _), (solo, sm, _, _)) in runs.iter().zip(&solo_runs) {
                            assert_eq!(run, solo, "{what}");
                            assert_eq!(m.icount, sm.icount, "{what}");
                        }
                        assert_eq!(meta.activated, solo_meta.activated, "{what}");
                        assert_eq!(meta.restores, solo_meta.restores, "{what}");
                        assert_eq!(
                            foot.map(|f| f.ranges()),
                            solo_foot.map(|f| f.ranges()),
                            "{what}: footprint"
                        );
                        assert!(!std::mem::replace(&mut seen[i], true));
                        groups += usize::from(meta.activated);
                    },
                )
                .unwrap();
                assert!(seen.iter().all(|&s| s), "every group is reported once");
            }
        }
    }
    assert_eq!(groups, 2 * LIVE_GROUPS);
}
