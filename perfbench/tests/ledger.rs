//! The traced run's own checks: its deterministic counters repeat
//! exactly between runs, its ledger balances, and it measures the same
//! work as the untraced pass.

use fisec_perfbench::ledger::{Counters, Ledger};
use fisec_perfbench::{pass_digest, traced, Bench, Workload, RANDOM_DRAWS};
use std::path::PathBuf;

struct TracedRun {
    ledger: Ledger,
    untraced_digest: u64,
    traced_digest: u64,
}

/// Set up under a ledger, then run one untraced and one traced pass,
/// checking both outputs.
fn traced_run(workload: Workload, tag: &str) -> TracedRun {
    let store = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{}-{tag}", workload.name()));
    let mut ledger = Ledger::enabled();
    let bench = Bench::setup(workload, 7, store, &mut ledger).expect("set-up succeeds");
    bench.prepare_pass().expect("store resets");
    let untraced = bench.pass(0);
    bench.check(0, &untraced).expect("untraced pass is correct");
    bench.prepare_pass().expect("store resets");
    let out = traced::pass(&bench, 0, &mut ledger);
    bench.check(0, &out).expect("traced pass is correct");
    bench.reset_store().expect("store removed");
    TracedRun {
        ledger,
        untraced_digest: pass_digest(&untraced),
        traced_digest: pass_digest(&out),
    }
}

fn counters(run: &TracedRun) -> Counters {
    run.ledger.passes()[0].counters
}

#[test]
fn deterministic_counters_repeat_across_traced_runs() {
    for w in Workload::ALL {
        let a = traced_run(w, "repeat-a");
        let b = traced_run(w, "repeat-b");
        assert_eq!(counters(&a), counters(&b), "{}", w.name());
        assert_eq!(a.traced_digest, b.traced_digest, "{}", w.name());
        let c = counters(&a);
        assert!(
            c.experiments > 0 && c.guest_insts > 0,
            "{}: {c:?}",
            w.name()
        );
        match w {
            Workload::Exhaustive => {
                assert_eq!(c.experiments, 13_216);
                assert_eq!(c.cache_hits, 0);
                assert!(c.restores > 0 && c.cache_misses > 0 && c.short_replays > 0);
            }
            Workload::WarmRerun => {
                assert_eq!(c.experiments, 13_216);
                assert_eq!((c.cache_misses, c.restores), (0, 0));
                assert!(c.cache_hits > 0);
            }
            Workload::Random => {
                assert_eq!(c.experiments, 2 * RANDOM_DRAWS as u64);
                assert_eq!(c.restores, 2 * RANDOM_DRAWS as u64);
                assert_eq!(c.cache_hits + c.cache_misses, 0);
            }
        }
    }
}

#[test]
fn ledger_balances_and_traced_pass_matches_untraced() {
    for w in Workload::ALL {
        let run = traced_run(w, "ledger");
        assert_eq!(run.traced_digest, run.untraced_digest, "{}", w.name());
        let spans = run.ledger.spans();
        for p in run.ledger.passes() {
            let (layers, unattributed) = run.ledger.self_times(p.root);
            let total: u64 = layers.values().sum::<u64>() + unattributed;
            assert_eq!(total, spans[p.root].dur_ns(), "{}: {layers:?}", w.name());
            for layer in layers.keys() {
                assert!(
                    ["inject", "os", "net", "core.cache"].contains(layer),
                    "{}: unexpected layer {layer:?}",
                    w.name()
                );
            }
        }
        // Children lie inside their parents, so no self time is negative
        // (an underflow would have panicked in `self_times`).
        for s in spans {
            if let Some(parent) = s.parent {
                let p = spans[parent];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{s:?} in {p:?}"
                );
            }
        }
    }
}
