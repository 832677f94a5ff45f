//! Counters and log₂-scale histograms, sharded per worker.
//!
//! The injection hot path must never contend a lock, so workers record
//! into a private [`MetricsShard`] and fold it into the shared
//! [`MetricsRegistry`] exactly once, when they finish. The registry's
//! mutex is therefore taken O(workers) times per campaign, not O(runs).

use crate::hotspot::ProfileData;
use crate::profile::{Phase, PhaseTimes};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Canonical metric names used by the campaign engine.
pub mod metric {
    /// Counter: total injection runs executed or synthesized.
    pub const RUNS: &str = "runs";
    /// Counter: checkpoint groups executed.
    pub const GROUPS: &str = "groups";
    /// Counter: runs classified NA by the golden-coverage pre-filter.
    pub const NA_PREFILTER_RUNS: &str = "na_prefilter_runs";
    /// Counter: fresh process boots (golden, checkpoint harvester or
    /// from-scratch).
    pub const FRESH_BOOTS: &str = "fresh_boots";
    /// Counter: checkpoint restores.
    pub const RESTORES: &str = "restores";
    /// Counter: checkpoint groups folded in from the incremental
    /// campaign cache without executing.
    pub const CACHE_HIT_GROUPS: &str = "cache_hit_groups";
    /// Counter: groups executed because the cache had no usable entry.
    pub const CACHE_MISS_GROUPS: &str = "cache_miss_groups";
    /// Counter: the subset of misses where a cached entry existed but
    /// was invalidated by a key/footprint change.
    pub const CACHE_STALE_GROUPS: &str = "cache_stale_groups";
    /// Counter: runs synthesized from cache hits (also counted in
    /// [`RUNS`]).
    pub const CACHE_SYNTH_RUNS: &str = "cache_synth_runs";
    /// Counter: fresh group results written back to the cache store.
    pub const CACHE_STORES: &str = "cache_stores";
    /// Histogram: host microseconds per run replay.
    pub const REPLAY_MICROS: &str = "replay_micros_per_run";
    /// Histogram: guest instructions retired per run.
    pub const ICOUNT: &str = "icount_per_run";
    /// Histogram: targets per checkpoint group.
    pub const GROUP_SIZE: &str = "group_size";
    /// Histogram: microseconds a worker waited to obtain its next group.
    pub const QUEUE_WAIT: &str = "queue_wait_micros";
    /// Histogram: checkpoint restores per group.
    pub const RESTORES_PER_GROUP: &str = "restores_per_group";
    /// Histogram: instructions from activation to the first divergent
    /// control-flow edge, for runs classified NM (recorder campaigns).
    pub const DIVERGENCE_DEPTH_NM: &str = "divergence_depth_nm";
    /// Histogram: divergence depth of runs classified SD.
    pub const DIVERGENCE_DEPTH_SD: &str = "divergence_depth_sd";
    /// Histogram: divergence depth of runs classified FSV.
    pub const DIVERGENCE_DEPTH_FSV: &str = "divergence_depth_fsv";
    /// Histogram: divergence depth of runs classified BRK.
    pub const DIVERGENCE_DEPTH_BRK: &str = "divergence_depth_brk";
    /// Histogram: instructions from the taint seed to the first tainted
    /// compare or branch, for runs classified NM (propagation
    /// campaigns).
    pub const TAINT_TO_BRANCH_NM: &str = "taint_to_branch_nm";
    /// Histogram: taint-to-branch latency of runs classified SD.
    pub const TAINT_TO_BRANCH_SD: &str = "taint_to_branch_sd";
    /// Histogram: taint-to-branch latency of runs classified FSV.
    pub const TAINT_TO_BRANCH_FSV: &str = "taint_to_branch_fsv";
    /// Histogram: taint-to-branch latency of runs classified BRK.
    pub const TAINT_TO_BRANCH_BRK: &str = "taint_to_branch_brk";
    /// Histogram: peak tainted width in bytes of runs classified NM.
    pub const TAINT_WIDTH_NM: &str = "taint_width_nm";
    /// Histogram: peak tainted width of runs classified SD.
    pub const TAINT_WIDTH_SD: &str = "taint_width_sd";
    /// Histogram: peak tainted width of runs classified FSV.
    pub const TAINT_WIDTH_FSV: &str = "taint_width_fsv";
    /// Histogram: peak tainted width of runs classified BRK.
    pub const TAINT_WIDTH_BRK: &str = "taint_width_brk";
    /// Counter: runs whose injected instruction retired under the taint
    /// tracer (taint was seeded).
    pub const TAINT_SEEDED_RUNS: &str = "taint_seeded_runs";
    /// Counter: seeded runs whose corruption reached a tainted compare
    /// or branch decision.
    pub const TAINT_DECISION_RUNS: &str = "taint_decision_runs";
    /// Counter: seeded runs where a tainted compare preceded any
    /// tainted store.
    pub const TAINT_CMP_FIRST_RUNS: &str = "taint_cmp_first_runs";
    /// Counter: seeded runs whose taint died before the run stopped.
    pub const TAINT_DEATH_RUNS: &str = "taint_death_runs";
    /// Counter: seeded runs frozen by the observation horizon.
    pub const TAINT_FROZEN_RUNS: &str = "taint_frozen_runs";
}

/// Number of log₂ buckets; bucket `i` covers `(2^(i-1), 2^i]`, with 0
/// and 1 in bucket 0 and everything above `2^62` folded into the last.
pub const HIST_BUCKETS: usize = 64;

/// A fixed-size log₂ histogram of `u64` samples. Recording is two adds
/// and a bucket increment — cheap enough for the per-run path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Bucket frequencies.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

/// Bucket index for a sample: smallest `x` with `v <= 2^x`.
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    let x = 64 - (v - 1).leading_zeros() as usize;
    x.min(HIST_BUCKETS - 1)
}

impl LogHistogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.sum += v;
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0..=1.0`), clamped to the observed max; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (1u64 << i).min(self.max);
            }
        }
        self.max
    }

    /// Interpolated `q`-quantile estimate (`0.0..=1.0`); 0 when empty.
    ///
    /// Log₂ buckets only bound a quantile, so the estimate interpolates
    /// *geometrically* within the bucket holding the rank: the rank's
    /// position maps to `lo·(hi/lo)^frac`, which lands on the bucket's
    /// geometric midpoint `2^(i-1/2)` at `frac = 1/2`. The result is
    /// clamped to the observed `[min, max]`, so a single-sample
    /// histogram reports the sample itself.
    pub fn quantile_est(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let below = seen as f64;
            seen += n;
            if seen as f64 >= rank {
                let frac = (rank - below) / n as f64;
                let hi = (1u64 << i) as f64;
                let lo = if i == 0 { 0.5 } else { hi / 2.0 };
                let est = lo * (hi / lo).powf(frac);
                return est.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// The standard p50/p95/p99 summary triple (interpolated).
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (
            self.quantile_est(0.50),
            self.quantile_est(0.95),
            self.quantile_est(0.99),
        )
    }
}

/// Per-outcome log₂ histograms of guest instructions retired per run,
/// as folded by the random-injection tier (streaming aggregation: one
/// `record` per run, never per-run state). The four slots follow the
/// random campaign's tally classes — runs indistinguishable from golden
/// land in `no_effect` whether they were classified NA or NM.
///
/// Serializable so ledger checkpoints can carry the exact aggregation
/// state: a resumed campaign restores these and keeps folding, ending
/// bit-identical to an uninterrupted run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeHists {
    /// Runs indistinguishable from golden (NA/NM).
    pub no_effect: LogHistogram,
    /// Crashes (system detection).
    pub sd: LogHistogram,
    /// Fail-silence violations.
    pub fsv: LogHistogram,
    /// Security break-ins.
    pub brk: LogHistogram,
}

impl OutcomeHists {
    /// Fold another set of histograms into this one (order-independent,
    /// so sharded workers merge to the same state as a sequential run).
    pub fn merge(&mut self, other: &OutcomeHists) {
        self.no_effect.merge(&other.no_effect);
        self.sd.merge(&other.sd);
        self.fsv.merge(&other.fsv);
        self.brk.merge(&other.brk);
    }

    /// Total samples across the four classes.
    pub fn total(&self) -> u64 {
        self.no_effect.count + self.sd.count + self.fsv.count + self.brk.count
    }
}

/// A worker-private accumulation of counters, histograms and phase
/// timings. No interior locking: exactly one thread writes a shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsShard {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
    phases: PhaseTimes,
    profile: ProfileData,
}

impl MetricsShard {
    /// New empty shard.
    pub fn new() -> MetricsShard {
        MetricsShard::default()
    }

    /// Add `by` to the counter `name`.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Record `v` into the histogram `name`.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// Attribute `micros` to `phase`.
    pub fn phase_add(&mut self, phase: Phase, micros: u64) {
        self.phases.add(phase, micros);
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram, if anything was observed under `name`.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// The phase timings accumulated in this shard.
    pub fn phases(&self) -> &PhaseTimes {
        &self.phases
    }

    /// The hot-spot profile accumulated in this shard (empty when the
    /// profiler was off).
    pub fn profile(&self) -> &ProfileData {
        &self.profile
    }

    /// Fold a worker's hot-spot profile into this shard.
    pub fn profile_merge(&mut self, p: &ProfileData) {
        self.profile.merge(p);
    }

    /// Fold another shard into this one.
    pub fn merge(&mut self, other: &MetricsShard) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
        self.phases.merge(&other.phases);
        self.profile.merge(&other.profile);
    }

    /// Render counters and histogram summaries as an aligned table,
    /// with interpolated p50/p95/p99 per histogram.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:<24} {v:>12}\n"));
        }
        for (name, h) in &self.histograms {
            let (p50, p95, p99) = h.percentiles();
            out.push_str(&format!(
                "{name:<24} n={:<9} mean={:<11.1} p50={:<9.1} p95={:<9.1} p99={:<11.1} max={}\n",
                h.count,
                h.mean(),
                p50,
                p95,
                p99,
                h.max
            ));
        }
        out
    }
}

/// The shared sink worker shards merge into at join time.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    merged: Mutex<MetricsShard>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Fold a finished worker's shard into the registry. Called once
    /// per worker per campaign — never on the per-run path.
    ///
    /// # Panics
    /// If another thread panicked while merging (poisoned lock).
    pub fn absorb(&self, shard: &MetricsShard) {
        self.merged.lock().expect("no merger panicked").merge(shard);
    }

    /// A copy of everything merged so far.
    ///
    /// # Panics
    /// If another thread panicked while merging (poisoned lock).
    pub fn snapshot(&self) -> MetricsShard {
        self.merged.lock().expect("no merger panicked").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = LogHistogram::default();
        for v in [1, 2, 50, 99, 100, 20_000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 20_000);
        assert_eq!(h.sum, 20_252);
        assert!((h.mean() - 20_252.0 / 6.0).abs() < 1e-9);
        // p50 falls in the bucket holding the 3rd sample (50 -> 2^6).
        assert_eq!(h.quantile(0.5), 64);
        assert_eq!(h.quantile(1.0), 20_000);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn histogram_merge_matches_sequential() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        let mut all = LogHistogram::default();
        for (i, v) in [3u64, 7, 900, 12, 0, 44_000].iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.record(*v);
            all.record(*v);
        }
        let mut merged = LogHistogram::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, all);
        // Merging an empty histogram is a no-op.
        merged.merge(&LogHistogram::default());
        assert_eq!(merged, all);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LogHistogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile_est(0.5), 0.0);
    }

    #[test]
    fn interpolated_quantiles_land_inside_the_bucket() {
        let mut h = LogHistogram::default();
        for v in [1u64, 2, 50, 99, 100, 20_000] {
            h.record(v);
        }
        // The p50 rank (3rd of 6) falls in bucket 6, values (32, 64];
        // the geometric interpolation must stay inside those bounds
        // while the bucket-bound quantile reports the upper edge.
        let p50 = h.quantile_est(0.5);
        assert!(p50 > 32.0 && p50 <= 64.0, "{p50}");
        assert_eq!(h.quantile(0.5), 64);
        // Estimates are clamped to the observed extrema.
        assert!(h.quantile_est(0.0) >= 1.0);
        assert!(h.quantile_est(1.0) <= 20_000.0);
        let (p50t, p95, p99) = h.percentiles();
        assert_eq!(p50t, p50);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    }

    #[test]
    fn single_sample_estimate_is_the_sample() {
        let mut h = LogHistogram::default();
        h.record(57);
        // Clamping to [min, max] pins every quantile to the only value.
        assert_eq!(h.quantile_est(0.5), 57.0);
        assert_eq!(h.quantile_est(0.99), 57.0);
    }

    #[test]
    fn shard_roundtrip_and_merge() {
        let mut a = MetricsShard::new();
        a.inc(metric::RUNS, 10);
        a.observe(metric::GROUP_SIZE, 48);
        a.phase_add(Phase::Replay, 500);
        let mut b = MetricsShard::new();
        b.inc(metric::RUNS, 5);
        b.inc(metric::GROUPS, 1);
        b.observe(metric::GROUP_SIZE, 16);
        a.merge(&b);
        assert_eq!(a.counter(metric::RUNS), 15);
        assert_eq!(a.counter(metric::GROUPS), 1);
        assert_eq!(a.counter("never"), 0);
        assert_eq!(a.histogram(metric::GROUP_SIZE).unwrap().count, 2);
        assert!(a.histogram("never").is_none());
        assert_eq!(a.phases().get(Phase::Replay), 500);
    }

    #[test]
    fn registry_absorbs_from_threads() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut shard = MetricsShard::new();
                    for i in 0..100 {
                        shard.inc(metric::RUNS, 1);
                        shard.observe(metric::REPLAY_MICROS, i);
                    }
                    reg.absorb(&shard);
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter(metric::RUNS), 400);
        assert_eq!(snap.histogram(metric::REPLAY_MICROS).unwrap().count, 400);
    }

    #[test]
    fn render_mentions_every_metric() {
        let mut shard = MetricsShard::new();
        shard.inc(metric::RUNS, 7);
        shard.observe(metric::ICOUNT, 1000);
        let s = shard.render();
        assert!(s.contains("runs"), "{s}");
        assert!(s.contains("icount_per_run"), "{s}");
        assert!(s.contains("n=1"), "{s}");
    }
}
