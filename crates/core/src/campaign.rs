//! Selective exhaustive injection campaigns (paper §4/§5).

use crate::cache::{CacheLookup, CachedDigestedRun, CampaignCache, ClientStore, DivTuple};
use crate::counts::{LocationCounts, OutcomeCounts};
use fisec_apps::AppSpec;
use fisec_encoding::EncodingScheme;
use fisec_inject::{
    enumerate_targets, golden_run_opts, golden_run_with_coverage_opts, harvest_groups,
    run_injection_recorded, DivergenceReport, EngineOpts, GoldenRun, GroupMeta, GroupResult,
    InjectionRun, InjectionTarget, OutcomeClass, PropagationReport, RunMeta,
};
use fisec_os::Stop;
use fisec_telemetry::{
    metric, CacheEvent, CampaignEndEvent, CampaignEvent, HotBlock, MetricsShard, Phase,
    ProfileData, ProfileEvent, PropagationEvent, RunEvent, SlowShape, SpanEvent, Telemetry,
    TraceEvent,
};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How the engine executes the per-target experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Checkpoint-based: boot each client once with every instruction
    /// address's breakpoint armed, fork the parked process at each first
    /// hit, snapshot the fork, and replay only the post-flip suffix for
    /// every byte×bit of that instruction. Targets at
    /// addresses the golden run never executes are classified NA from
    /// the golden coverage set without spawning a run. Produces results
    /// bit-identical to [`ExecutionMode::FromScratch`] (enforced by the
    /// differential tests) at a fraction of the wall-clock.
    #[default]
    Snapshot,
    /// Reference oracle: every experiment boots the server from scratch,
    /// exactly the paper's §4 procedure.
    FromScratch,
}

impl ExecutionMode {
    /// Stable label used in trace headers and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionMode::Snapshot => "snapshot",
            ExecutionMode::FromScratch => "from-scratch",
        }
    }
}

/// Campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Restrict to conditional branches only (`true` drops the MISC
    /// control-transfer instructions from the target set).
    pub cond_branches_only: bool,
    /// Encoding under test.
    pub scheme: EncodingScheme,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Checkpoint-based fast path (default) or from-scratch oracle.
    pub mode: ExecutionMode,
    /// Execute guests through the interpreter's basic-block cache
    /// (default). `false` — the `--no-block-cache` escape hatch — forces
    /// the reference per-step engine; results are bit-identical.
    pub block_cache: bool,
    /// Promote hot blocks into tier-2 superblock traces (default).
    /// `false` — the `--no-trace-cache` escape hatch — caps the engine
    /// at tier 1; results are bit-identical (differential tests).
    pub trace_cache: bool,
    /// Record a control-flow flight trace for every activated run and
    /// diff it against the golden continuation (`--recorder`). A pure
    /// observer: classification results are bit-identical either way
    /// (enforced by the differential tests); run events gain divergence
    /// depth and trace-derived latency, and the metrics registry gains
    /// per-outcome divergence-depth histograms.
    pub flight_recorder: bool,
    /// Collect the hot-spot execution profile (`fisec profile`): per-
    /// block dispatch/retire tallies, slow-path op shapes and block-
    /// cache traffic, accumulated in the metrics shards and emitted as
    /// one `profile` trace event per campaign. A pure observer —
    /// results are bit-identical either way (differential tests).
    pub profiler: bool,
    /// Emit hierarchical span events (campaign → client → checkpoint
    /// group → run → phase) into the trace stream (`--chrome-trace`).
    /// Off by default so existing traces stay byte-compatible.
    pub spans: bool,
    /// Trace how each activated injection's corrupted data propagates
    /// (`--propagation`): the taint tracer is armed per run at the flip,
    /// run events gain taint-to-decision latency / peak width /
    /// compare-vs-store ordering, the metrics registry gains per-outcome
    /// taint histograms, and one `propagation` aggregate trace event is
    /// emitted per campaign. A pure observer: classification results
    /// are bit-identical either way (differential tests).
    pub propagation: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            cond_branches_only: false,
            scheme: EncodingScheme::Baseline,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            mode: ExecutionMode::default(),
            block_cache: true,
            trace_cache: true,
            flight_recorder: false,
            profiler: false,
            spans: false,
            propagation: false,
        }
    }
}

impl CampaignConfig {
    /// The engine options every process of this campaign boots with.
    fn engine(&self) -> EngineOpts {
        EngineOpts {
            block_cache: self.block_cache,
            trace_cache: self.trace_cache,
            flight_recorder: self.flight_recorder,
            profiler: self.profiler,
            propagation: self.propagation,
            // The execution footprint is a per-group opt-in: the cached
            // paths enable it per process via `with_footprint()`.
            footprint: false,
        }
    }
}

/// Wire form of an [`fisec_x86::ExecProfile`]: hash maps down to
/// address-sorted vectors, block-cache deltas onto named counters.
fn profile_data(p: &fisec_x86::ExecProfile) -> ProfileData {
    let mut blocks: Vec<HotBlock> = p
        .blocks
        .iter()
        .map(|(addr, t)| HotBlock {
            addr: *addr,
            dispatches: t.dispatches,
            retired: t.retired,
        })
        .collect();
    blocks.sort_by_key(|b| b.addr);
    let mut slow: Vec<SlowShape> = p
        .slow
        .iter()
        .map(|(addr, s)| SlowShape {
            addr: *addr,
            shape: s.shape.clone(),
            count: s.count,
        })
        .collect();
    slow.sort_by_key(|s| s.addr);
    let mut hot_traces: Vec<HotBlock> = p
        .traces
        .iter()
        .map(|(addr, t)| HotBlock {
            addr: *addr,
            dispatches: t.dispatches,
            retired: t.retired,
        })
        .collect();
    hot_traces.sort_by_key(|b| b.addr);
    ProfileData {
        blocks,
        hot_traces,
        slow,
        stepwise_retired: p.stepwise_retired,
        cache_built: p.cache.built,
        cache_hits: p.cache.hits,
        cache_invalidated: p.cache.invalidated,
        cache_conflict_evictions: p.cache.conflict_evictions,
        trace_built: p.trace_cache.built,
        trace_hits: p.trace_cache.hits,
        trace_side_exits: p.trace_cache.side_exits,
        trace_invalidated: p.trace_cache.invalidated,
    }
}

/// Compact per-run digest of a [`DivergenceReport`]: everything the
/// campaign keeps after the (trace-heavy) report is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunDivergence {
    /// Instructions from activation to the first divergent edge.
    depth: Option<u64>,
    /// Crash latency re-derived from the trace (crashed runs only).
    trace_latency: Option<u64>,
}

/// Compact per-run digest of a [`PropagationReport`]: everything the
/// campaign keeps after the (event-heavy) timeline is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunPropagation {
    /// Whether the injected instruction retired (taint was seeded).
    seeded: bool,
    /// Instructions from the seed to the first tainted compare/branch.
    taint_to_decision: Option<u64>,
    /// Whether a tainted compare preceded every tainted store.
    compare_first: bool,
    /// Peak tainted width in bytes over the run.
    peak_width: u32,
    /// Whether every corrupted location was overwritten clean.
    died: bool,
    /// Whether the observation horizon froze the tracer.
    frozen: bool,
}

/// What the engine hands back per run once traces are digested away.
type DigestedRun = (InjectionRun, Option<RunDivergence>, Option<RunPropagation>);

/// Digested runs in the campaign cache's wire shape. The store memoizes
/// only the (run, divergence) pair — propagation campaigns bypass it
/// entirely, so a taint digest never needs to survive a round-trip.
fn to_cached(runs: &[DigestedRun]) -> Vec<CachedDigestedRun> {
    runs.iter()
        .map(|(run, div, _)| (run.clone(), div.map(|d| (d.depth, d.trace_latency))))
        .collect()
}

/// Cached digested runs back into the campaign's shape.
fn from_cached(runs: Vec<CachedDigestedRun>) -> Vec<DigestedRun> {
    runs.into_iter()
        .map(|(run, div)| {
            (
                run,
                div.map(|(depth, trace_latency): DivTuple| RunDivergence {
                    depth,
                    trace_latency,
                }),
                None,
            )
        })
        .collect()
}

/// Digest a report against its run; `None` when the recorder was off or
/// the run never activated.
fn digest(run: &InjectionRun, rep: Option<&DivergenceReport>) -> Option<RunDivergence> {
    rep.map(|rep| RunDivergence {
        depth: rep.divergence_depth,
        trace_latency: run.crash_latency.map(|_| rep.faulty.retired()),
    })
}

/// Digest a propagation report down to the per-run numbers the campaign
/// keeps; `None` when the tracer was off.
fn digest_prop(rep: Option<&PropagationReport>) -> Option<RunPropagation> {
    rep.map(|rep| RunPropagation {
        seeded: rep.seeded(),
        taint_to_decision: rep.taint_to_decision(),
        compare_first: rep.compare_before_store(),
        peak_width: rep.log.peak_width,
        died: rep.log.death.is_some(),
        frozen: rep.log.frozen,
    })
}

/// Metrics histogram a run's divergence depth lands in, by outcome.
fn depth_metric(outcome: OutcomeClass) -> Option<&'static str> {
    match outcome {
        OutcomeClass::NotActivated => None,
        OutcomeClass::NotManifested => Some(metric::DIVERGENCE_DEPTH_NM),
        OutcomeClass::SystemDetection => Some(metric::DIVERGENCE_DEPTH_SD),
        OutcomeClass::FailSilenceViolation => Some(metric::DIVERGENCE_DEPTH_FSV),
        OutcomeClass::Breakin => Some(metric::DIVERGENCE_DEPTH_BRK),
    }
}

/// Metrics histograms a seeded run's taint-to-branch latency and peak
/// width land in, by outcome.
fn taint_metrics(outcome: OutcomeClass) -> Option<(&'static str, &'static str)> {
    match outcome {
        OutcomeClass::NotActivated => None,
        OutcomeClass::NotManifested => Some((metric::TAINT_TO_BRANCH_NM, metric::TAINT_WIDTH_NM)),
        OutcomeClass::SystemDetection => Some((metric::TAINT_TO_BRANCH_SD, metric::TAINT_WIDTH_SD)),
        OutcomeClass::FailSilenceViolation => {
            Some((metric::TAINT_TO_BRANCH_FSV, metric::TAINT_WIDTH_FSV))
        }
        OutcomeClass::Breakin => Some((metric::TAINT_TO_BRANCH_BRK, metric::TAINT_WIDTH_BRK)),
    }
}

/// Campaign-wide propagation aggregate: how far corrupted data
/// travelled across every seeded run, per client or summed per app.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropagationStats {
    /// Runs whose injected instruction retired (taint was seeded).
    pub seeded: u64,
    /// Seeded runs whose corruption reached a compare/branch decision.
    pub reached_decision: u64,
    /// Seeded runs where a tainted compare preceded any tainted store.
    pub compare_first: u64,
    /// Seeded runs whose taint died before the run stopped.
    pub deaths: u64,
    /// Seeded runs frozen by the observation horizon.
    pub frozen: u64,
    /// Fail-silence violations among the seeded runs.
    pub fsv_seeded: u64,
    /// FSV runs whose corruption reached a tainted decision.
    pub fsv_reached_decision: u64,
    /// FSV runs where a tainted compare preceded any tainted store.
    pub fsv_compare_first: u64,
}

impl PropagationStats {
    fn add(&mut self, outcome: OutcomeClass, p: RunPropagation) {
        if !p.seeded {
            return;
        }
        self.seeded += 1;
        self.reached_decision += u64::from(p.taint_to_decision.is_some());
        self.compare_first += u64::from(p.compare_first);
        self.deaths += u64::from(p.died);
        self.frozen += u64::from(p.frozen);
        if outcome == OutcomeClass::FailSilenceViolation {
            self.fsv_seeded += 1;
            self.fsv_reached_decision += u64::from(p.taint_to_decision.is_some());
            self.fsv_compare_first += u64::from(p.compare_first);
        }
    }

    /// Fold another aggregate into this one.
    pub fn merge(&mut self, other: &PropagationStats) {
        self.seeded += other.seeded;
        self.reached_decision += other.reached_decision;
        self.compare_first += other.compare_first;
        self.deaths += other.deaths;
        self.frozen += other.frozen;
        self.fsv_seeded += other.fsv_seeded;
        self.fsv_reached_decision += other.fsv_reached_decision;
        self.fsv_compare_first += other.fsv_compare_first;
    }

    /// Share of seeded FSV runs whose corruption reached a tainted
    /// compare or branch before the run stopped (0.0 when no FSV run
    /// seeded).
    pub fn fsv_decision_rate(&self) -> f64 {
        if self.fsv_seeded == 0 {
            0.0
        } else {
            self.fsv_reached_decision as f64 / self.fsv_seeded as f64
        }
    }
}

/// One injection run's record (kept for breakdowns and Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Target instruction address.
    pub addr: u32,
    /// Byte within the instruction.
    pub byte_index: u8,
    /// Bit within the byte.
    pub bit: u8,
    /// Classified outcome.
    pub outcome_abbrev: char,
    /// Location class abbreviation index (Table 2 order).
    pub location_index: u8,
    /// Crash latency in instructions, when the run crashed.
    pub crash_latency: Option<u64>,
    /// Crash runs whose pre-crash traffic deviated from golden.
    pub transient_deviation: bool,
}

/// Per-client campaign result (one column of Tables 1/3/5).
#[derive(Debug, Clone)]
pub struct ClientCampaign {
    /// Client name ("Client1"...).
    pub client: String,
    /// Whether the golden run denies this client.
    pub golden_denied: bool,
    /// Golden run.
    pub golden: GoldenRun,
    /// Outcome tallies.
    pub counts: OutcomeCounts,
    /// Location tallies over the BRK∪FSV runs (Table 3).
    pub brkfsv_by_location: LocationCounts,
    /// Crash latencies (instructions between activation and crash).
    pub crash_latencies: Vec<u64>,
    /// Crash latencies re-derived from recorded flight traces, in the
    /// same order as `crash_latencies`. Empty when the campaign ran
    /// without the flight recorder; equal to `crash_latencies`
    /// element-for-element when it ran with it (the Figure 4
    /// cross-check).
    pub trace_crash_latencies: Vec<u64>,
    /// Crash runs with pre-crash traffic deviation (transient window).
    pub transient_deviations: usize,
    /// Propagation aggregate over this client's runs; `None` when the
    /// campaign ran without the taint tracer.
    pub propagation: Option<PropagationStats>,
    /// Full per-run records.
    pub records: Vec<RunRecord>,
}

/// Campaign result for one application under one encoding.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Application name ("ftpd"/"sshd").
    pub app: String,
    /// Encoding under test.
    pub scheme: EncodingScheme,
    /// Number of targeted instructions.
    pub instructions: usize,
    /// Conditional branches among them.
    pub cond_branches: usize,
    /// Runs per client (= target bits).
    pub runs_per_client: usize,
    /// Per-client results in paper order.
    pub clients: Vec<ClientCampaign>,
}

impl CampaignResult {
    /// Sum of BRK over all clients.
    pub fn total_brk(&self) -> usize {
        self.clients.iter().map(|c| c.counts.brk).sum()
    }

    /// Sum of FSV over all clients.
    pub fn total_fsv(&self) -> usize {
        self.clients.iter().map(|c| c.counts.fsv).sum()
    }

    /// Propagation aggregate summed over all clients; `None` when the
    /// campaign ran without the taint tracer.
    pub fn propagation_totals(&self) -> Option<PropagationStats> {
        let mut total = PropagationStats::default();
        let mut any = false;
        for cc in &self.clients {
            if let Some(p) = &cc.propagation {
                total.merge(p);
                any = true;
            }
        }
        any.then_some(total)
    }
}

/// Table-2-order index of an error location (shared by [`RunRecord`]
/// and the run-event stream).
fn location_index(loc: fisec_inject::ErrorLocation) -> u8 {
    fisec_inject::ErrorLocation::ALL
        .iter()
        .position(|l| *l == loc)
        .expect("every ErrorLocation variant appears in ErrorLocation::ALL") as u8
}

/// Table-1-order index of an outcome (progress-tally slot).
fn outcome_index(outcome: OutcomeClass) -> usize {
    OutcomeClass::ALL
        .iter()
        .position(|o| *o == outcome)
        .expect("every OutcomeClass variant appears in OutcomeClass::ALL")
}

fn micros_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Events buffered per worker before one batched sink emission.
const EVENT_BATCH: usize = 256;

/// Per-worker telemetry accumulator: a private metrics shard plus an
/// event batch, folded into the shared [`Telemetry`] exactly once when
/// the worker finishes. When telemetry is disabled every method is one
/// branch.
struct WorkerTel<'a> {
    tel: &'a Telemetry,
    client: usize,
    worker: usize,
    shard: MetricsShard,
    batch: Vec<TraceEvent>,
    /// Campaign epoch when span tracing is on (`cfg.spans` and an
    /// enabled event sink); `None` keeps the span sites one branch.
    span_epoch: Option<Instant>,
}

impl<'a> WorkerTel<'a> {
    fn new(
        tel: &'a Telemetry,
        client: usize,
        worker: usize,
        span_epoch: Option<Instant>,
    ) -> WorkerTel<'a> {
        WorkerTel {
            tel,
            client,
            worker,
            shard: MetricsShard::new(),
            batch: Vec::new(),
            span_epoch,
        }
    }

    /// Fold a group's interpreter-side profile into this worker's shard.
    fn note_exec_profile(&mut self, profile: Option<&fisec_x86::ExecProfile>) {
        if let Some(p) = profile.filter(|_| self.tel.enabled()) {
            self.shard.profile_merge(&profile_data(p));
        }
    }

    fn push_span(&mut self, name: &str, cat: &str, ts: u64, dur: u64, addr: Option<u32>) {
        self.batch.push(TraceEvent::Span(SpanEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            tid: self.worker as u32,
            ts,
            dur,
            addr,
        }));
    }

    #[allow(clippy::too_many_arguments)]
    fn push_event(
        &mut self,
        target: &InjectionTarget,
        run: &InjectionRun,
        div: Option<RunDivergence>,
        prop: Option<RunPropagation>,
        icount: u64,
        micros: u64,
        snapshot_replay: bool,
        cache_hit: bool,
    ) {
        let seeded = prop.filter(|p| p.seeded);
        self.batch.push(TraceEvent::Run(RunEvent {
            client: self.client,
            addr: target.addr,
            byte_index: target.byte_index,
            bit: target.bit,
            outcome: run.outcome.abbrev().to_string(),
            location: location_index(target.location),
            worker: self.worker,
            snapshot_replay,
            na_prefilter: false,
            cache_hit,
            icount,
            micros,
            crash_latency: run.crash_latency,
            transient_deviation: run.transient_deviation,
            divergence_depth: div.and_then(|d| d.depth),
            trace_latency: div.and_then(|d| d.trace_latency),
            taint_decision: seeded.and_then(|p| p.taint_to_decision),
            taint_width: seeded.map(|p| u64::from(p.peak_width)),
            taint_compare_first: seeded.map(|p| p.compare_first),
        }));
    }

    /// Land a run's divergence depth in the per-outcome histogram.
    fn observe_divergence(&mut self, run: &InjectionRun, div: Option<RunDivergence>) {
        if let (Some(depth), Some(name)) = (div.and_then(|d| d.depth), depth_metric(run.outcome)) {
            self.shard.observe(name, depth);
        }
    }

    /// Land a seeded run's taint counters and per-outcome histograms.
    fn observe_propagation(&mut self, run: &InjectionRun, prop: Option<RunPropagation>) {
        let Some(p) = prop.filter(|p| p.seeded) else {
            return;
        };
        self.shard.inc(metric::TAINT_SEEDED_RUNS, 1);
        if p.died {
            self.shard.inc(metric::TAINT_DEATH_RUNS, 1);
        }
        if p.frozen {
            self.shard.inc(metric::TAINT_FROZEN_RUNS, 1);
        }
        if p.compare_first {
            self.shard.inc(metric::TAINT_CMP_FIRST_RUNS, 1);
        }
        if let Some(lat) = p.taint_to_decision {
            self.shard.inc(metric::TAINT_DECISION_RUNS, 1);
            if let Some((lat_metric, _)) = taint_metrics(run.outcome) {
                self.shard.observe(lat_metric, lat);
            }
        }
        if let Some((_, width_metric)) = taint_metrics(run.outcome) {
            self.shard.observe(width_metric, u64::from(p.peak_width));
        }
    }

    fn flush_if_full(&mut self) {
        if self.batch.len() >= EVENT_BATCH {
            self.tel.sink.emit_batch(&self.batch);
            self.batch.clear();
        }
    }

    /// One from-scratch experiment: the boot belongs to the run.
    #[allow(clippy::too_many_arguments)]
    fn note_fresh(
        &mut self,
        target: &InjectionTarget,
        run: &InjectionRun,
        div: Option<RunDivergence>,
        prop: Option<RunPropagation>,
        meta: RunMeta,
        gmeta: GroupMeta,
    ) {
        if !self.tel.enabled() {
            return;
        }
        let micros = gmeta.boot_micros + meta.run_micros;
        self.shard.inc(metric::RUNS, 1);
        self.shard.inc(metric::FRESH_BOOTS, 1);
        self.shard.observe(metric::REPLAY_MICROS, micros);
        self.shard.observe(metric::ICOUNT, meta.icount);
        self.shard.phase_add(Phase::Boot, gmeta.boot_micros);
        self.shard.phase_add(Phase::Replay, meta.run_micros);
        self.shard.phase_add(Phase::Classify, meta.classify_micros);
        self.observe_divergence(run, div);
        self.observe_propagation(run, prop);
        if self.tel.events_enabled() {
            self.push_event(target, run, div, prop, meta.icount, micros, false, false);
            if let Some(epoch) = self.span_epoch {
                // The phases were just measured, so the span is laid out
                // backwards from "now": boot → replay → classify.
                let end = micros_since(epoch);
                let total = gmeta.boot_micros + meta.run_micros + meta.classify_micros;
                let start = end.saturating_sub(total);
                self.push_span("run", "run", start, total, Some(target.addr));
                self.push_span("boot", "phase", start, gmeta.boot_micros, None);
                let cursor = start + gmeta.boot_micros;
                self.push_span("replay", "phase", cursor, meta.run_micros, None);
                self.push_span(
                    "classify",
                    "phase",
                    cursor + meta.run_micros,
                    meta.classify_micros,
                    None,
                );
            }
            self.flush_if_full();
        }
        let mut tally = [0u64; 5];
        tally[outcome_index(run.outcome)] = 1;
        self.tel.progress.add(tally, 1);
    }

    /// One harvester boot, shared by the checkpoint groups it executes.
    fn note_boot(&mut self) {
        if self.tel.enabled() {
            self.shard.inc(metric::FRESH_BOOTS, 1);
        }
    }

    /// One executed checkpoint group (activated or not). Its boot is
    /// counted by [`WorkerTel::note_boot`]; `gmeta.boot_micros` is its
    /// share of that boot's time.
    fn note_group(
        &mut self,
        targets: &[InjectionTarget],
        runs: &[(
            InjectionRun,
            RunMeta,
            Option<RunDivergence>,
            Option<RunPropagation>,
        )],
        gmeta: GroupMeta,
    ) {
        if !self.tel.enabled() {
            return;
        }
        self.shard.inc(metric::RUNS, runs.len() as u64);
        self.shard.inc(metric::GROUPS, 1);
        self.shard.inc(metric::RESTORES, gmeta.restores);
        self.shard.observe(metric::GROUP_SIZE, runs.len() as u64);
        self.shard
            .observe(metric::RESTORES_PER_GROUP, gmeta.restores);
        self.shard.phase_add(Phase::Boot, gmeta.boot_micros);
        self.shard.phase_add(Phase::Snapshot, gmeta.snapshot_micros);
        let mut tally = [0u64; 5];
        for ((run, meta, div, prop), target) in runs.iter().zip(targets) {
            self.shard.observe(metric::REPLAY_MICROS, meta.run_micros);
            self.shard.observe(metric::ICOUNT, meta.icount);
            self.shard.phase_add(Phase::Replay, meta.run_micros);
            self.shard.phase_add(Phase::Classify, meta.classify_micros);
            self.observe_divergence(run, *div);
            self.observe_propagation(run, *prop);
            tally[outcome_index(run.outcome)] += 1;
            if self.tel.events_enabled() {
                self.push_event(
                    target,
                    run,
                    *div,
                    *prop,
                    meta.icount,
                    meta.run_micros,
                    gmeta.activated,
                    false,
                );
            }
        }
        if self.tel.events_enabled() {
            if let Some(epoch) = self.span_epoch {
                self.push_group_spans(targets, runs, gmeta, epoch);
            }
            self.flush_if_full();
        }
        self.tel.progress.add(tally, 1);
    }

    /// The checkpoint-group span hierarchy: group ⊃ {boot, snapshot,
    /// run ⊃ {replay, classify}…}, laid out backwards from "now" using
    /// the measured phase durations, so children nest strictly.
    fn push_group_spans(
        &mut self,
        targets: &[InjectionTarget],
        runs: &[(
            InjectionRun,
            RunMeta,
            Option<RunDivergence>,
            Option<RunPropagation>,
        )],
        gmeta: GroupMeta,
        epoch: Instant,
    ) {
        let end = micros_since(epoch);
        let total = gmeta.boot_micros
            + gmeta.snapshot_micros
            + runs
                .iter()
                .map(|(_, m, _, _)| m.run_micros + m.classify_micros)
                .sum::<u64>();
        let start = end.saturating_sub(total);
        let addr = targets.first().map(|t| t.addr);
        self.push_span("group", "group", start, total, addr);
        let mut cursor = start;
        self.push_span("boot", "phase", cursor, gmeta.boot_micros, None);
        cursor += gmeta.boot_micros;
        if gmeta.snapshot_micros > 0 {
            self.push_span("snapshot", "phase", cursor, gmeta.snapshot_micros, None);
            cursor += gmeta.snapshot_micros;
        }
        for (_, m, _, _) in runs {
            let dur = m.run_micros + m.classify_micros;
            self.push_span("run", "run", cursor, dur, addr);
            self.push_span("replay", "phase", cursor, m.run_micros, None);
            self.push_span(
                "classify",
                "phase",
                cursor + m.run_micros,
                m.classify_micros,
                None,
            );
            cursor += dur;
        }
    }

    /// A group classified NA wholesale by the golden-coverage
    /// pre-filter: no process ever ran, so icount/micros are zero.
    fn note_prefilter(&mut self, targets: &[InjectionTarget]) {
        if !self.tel.enabled() {
            return;
        }
        let n = targets.len() as u64;
        self.shard.inc(metric::RUNS, n);
        self.shard.inc(metric::NA_PREFILTER_RUNS, n);
        if self.tel.events_enabled() {
            for target in targets {
                self.batch.push(TraceEvent::Run(RunEvent {
                    client: self.client,
                    addr: target.addr,
                    byte_index: target.byte_index,
                    bit: target.bit,
                    outcome: OutcomeClass::NotActivated.abbrev().to_string(),
                    location: location_index(target.location),
                    worker: self.worker,
                    snapshot_replay: false,
                    na_prefilter: true,
                    cache_hit: false,
                    icount: 0,
                    micros: 0,
                    crash_latency: None,
                    transient_deviation: false,
                    divergence_depth: None,
                    trace_latency: None,
                    taint_decision: None,
                    taint_width: None,
                    taint_compare_first: None,
                }));
            }
            self.flush_if_full();
        }
        self.tel.progress.add([n, 0, 0, 0, 0], 1);
    }

    /// A checkpoint group folded from the campaign cache: no process
    /// ran, so icount/micros are zero and the runs are flagged
    /// `cache_hit` (distinct from the NA pre-filter — those groups are
    /// *derived*, these are *memoized*). Divergence depths still land
    /// in the per-outcome histograms so `fisec stats` reads the same
    /// warm or cold.
    fn note_cache_group(&mut self, targets: &[InjectionTarget], runs: &[DigestedRun]) {
        if !self.tel.enabled() {
            return;
        }
        let n = targets.len() as u64;
        self.shard.inc(metric::RUNS, n);
        self.shard.inc(metric::CACHE_HIT_GROUPS, 1);
        self.shard.inc(metric::CACHE_SYNTH_RUNS, n);
        let mut tally = [0u64; 5];
        for ((run, div, prop), target) in runs.iter().zip(targets) {
            self.observe_divergence(run, *div);
            tally[outcome_index(run.outcome)] += 1;
            if self.tel.events_enabled() {
                self.push_event(target, run, *div, *prop, 0, 0, false, true);
            }
        }
        if self.tel.events_enabled() {
            self.flush_if_full();
        }
        self.tel.progress.add(tally, 1);
    }

    /// One cache consultation or write-back: a counter bump plus a
    /// `cache` trace event.
    fn note_cache(&mut self, app: &str, client: &str, action: &str, addr: Option<u32>, runs: u64) {
        if !self.tel.enabled() {
            return;
        }
        match action {
            "miss" => self.shard.inc(metric::CACHE_MISS_GROUPS, 1),
            "stale" => self.shard.inc(metric::CACHE_STALE_GROUPS, 1),
            "store" => self.shard.inc(metric::CACHE_STORES, 1),
            _ => {}
        }
        if self.tel.events_enabled() {
            self.batch.push(TraceEvent::Cache(CacheEvent {
                app: app.to_string(),
                client: client.to_string(),
                action: action.to_string(),
                addr,
                runs,
            }));
            self.flush_if_full();
        }
    }

    fn observe_queue_wait(&mut self, micros: u64) {
        if self.tel.enabled() {
            self.shard.observe(metric::QUEUE_WAIT, micros);
        }
    }

    /// Flush remaining events and fold the shard into the registry.
    fn finish(self) {
        if !self.tel.enabled() {
            return;
        }
        if !self.batch.is_empty() {
            self.tel.sink.emit_batch(&self.batch);
        }
        self.tel.metrics.absorb(&self.shard);
    }
}

/// Run the full selective-exhaustive campaign for `app` without
/// telemetry (the instrumentation reduces to one branch per site).
///
/// # Panics
/// Panics if the image cannot be loaded (a programming error: the same
/// image already ran its golden sessions).
pub fn run_campaign(app: &AppSpec, cfg: &CampaignConfig) -> CampaignResult {
    run_campaign_traced(app, cfg, &Telemetry::disabled())
}

/// [`run_campaign`] with observability: emits a campaign header, one
/// [`RunEvent`] per injection run and a closing [`CampaignEndEvent`]
/// into `tel`'s sink, accumulates counters/histograms/phase timings in
/// its metrics registry, and drives its progress meter. Results are
/// bit-identical to the untraced path.
///
/// # Panics
/// Panics if the image cannot be loaded (a programming error: the same
/// image already ran its golden sessions).
pub fn run_campaign_traced(app: &AppSpec, cfg: &CampaignConfig, tel: &Telemetry) -> CampaignResult {
    run_campaign_cached(app, cfg, tel, None)
}

/// [`run_campaign_traced`] with an incremental campaign cache: each
/// client's checkpoint groups are looked up in the persistent store
/// first — a hit folds the memoized runs without booting a process, a
/// miss executes the group with footprint recording on and writes the
/// entry back. Results are bit-identical to the uncached path in both
/// execution modes (pinned by the differential tests); only the
/// wall-clock and the telemetry cache counters change.
///
/// # Panics
/// Panics if the image cannot be loaded (a programming error: the same
/// image already ran its golden sessions).
pub fn run_campaign_cached(
    app: &AppSpec,
    cfg: &CampaignConfig,
    tel: &Telemetry,
    cache: Option<&CampaignCache>,
) -> CampaignResult {
    let wall_start = Instant::now();
    let before = tel.enabled().then(|| tel.metrics.snapshot());
    let set = enumerate_targets(&app.image, &app.auth_funcs, cfg.cond_branches_only);
    if tel.events_enabled() {
        tel.sink.emit(&TraceEvent::Campaign(CampaignEvent {
            app: app.name.to_string(),
            scheme: cfg.scheme.to_string(),
            mode: cfg.mode.name().to_string(),
            instructions: set.instructions,
            cond_branches: set.cond_branches,
            runs_per_client: set.targets.len(),
            clients: app.clients.iter().map(|c| c.name.clone()).collect(),
            golden_denied: app.clients.iter().map(|c| c.golden_denied).collect(),
        }));
    }
    tel.progress.begin(
        &format!("{} [{}]", app.name, cfg.scheme),
        (set.targets.len() * app.clients.len()) as u64,
    );
    // The span clock: every span's `ts` is microseconds since this
    // instant. `None` (the default) keeps the trace stream byte-
    // compatible with span-free campaigns.
    let span_epoch = (cfg.spans && tel.events_enabled()).then_some(wall_start);
    let mut client_spans: Vec<(String, u64, u64)> = Vec::new();

    let mut main = MetricsShard::new();
    let mut clients = Vec::with_capacity(app.clients.len());
    for (ci, spec) in app.clients.iter().enumerate() {
        let client_start = micros_since(wall_start);
        let boot_start = Instant::now();
        let (golden, coverage) = match cfg.mode {
            // One golden boot serves the NA pre-filter too. The filter is
            // sound only when the golden run's stop proves the replayed
            // prefix cannot reach the breakpoint: an Exited or Deadlock
            // golden run stops at the same point under the (larger)
            // injection budget, while a Budget golden would keep running
            // and a fetch-faulted golden stops *before* its final address
            // enters the coverage set. Outside the safe cases every group
            // runs for real.
            ExecutionMode::Snapshot => {
                let (golden, cov) = golden_run_with_coverage_opts(&app.image, spec, cfg.engine())
                    .expect("image loads");
                let safe = matches!(golden.stop, Stop::Exited(_) | Stop::Deadlock);
                (golden, safe.then_some(cov))
            }
            ExecutionMode::FromScratch => (
                golden_run_opts(&app.image, spec, cfg.engine()).expect("image loads"),
                None,
            ),
        };
        if tel.enabled() {
            main.inc(metric::FRESH_BOOTS, 1);
            main.phase_add(Phase::Boot, micros_since(boot_start));
        }
        // Propagation campaigns bypass the incremental store: its wire
        // schema memoizes (run, divergence) pairs only, and folding a
        // memoized group would silently drop its taint timelines.
        let store = if cfg.propagation {
            None
        } else {
            cache.map(|c| c.open_client(app, spec, cfg.scheme, cfg.flight_recorder, &golden))
        };
        if let Some(s) = &store {
            if s.context_invalidated {
                if tel.enabled() {
                    main.inc(metric::CACHE_STALE_GROUPS, s.dropped_groups as u64);
                }
                if tel.events_enabled() {
                    tel.sink.emit(&TraceEvent::Cache(CacheEvent {
                        app: app.name.to_string(),
                        client: spec.name.clone(),
                        action: "context-miss".to_string(),
                        addr: None,
                        runs: s.dropped_groups as u64,
                    }));
                }
            }
        }
        let records = run_targets(
            app,
            spec,
            &golden,
            coverage.as_ref(),
            &set.targets,
            cfg,
            tel,
            ci,
            span_epoch,
            store.as_ref(),
        );
        if let Some(s) = &store {
            if s.fresh_count() > 0 || s.context_invalidated {
                if let Err(e) = s.save() {
                    eprintln!(
                        "warning: campaign cache write failed for {}/{}: {e}",
                        app.name, spec.name
                    );
                }
            }
        }
        let tally_start = Instant::now();
        let mut cc = ClientCampaign {
            client: spec.name.clone(),
            golden_denied: spec.golden_denied,
            golden,
            counts: OutcomeCounts::default(),
            brkfsv_by_location: LocationCounts::default(),
            crash_latencies: Vec::new(),
            trace_crash_latencies: Vec::new(),
            transient_deviations: 0,
            propagation: cfg.propagation.then(PropagationStats::default),
            records: Vec::new(),
        };
        for (target, (run, div, prop)) in set.targets.iter().zip(&records) {
            if let (Some(stats), Some(p)) = (&mut cc.propagation, prop) {
                stats.add(run.outcome, *p);
            }
            cc.counts.add(run.outcome);
            if matches!(
                run.outcome,
                OutcomeClass::Breakin | OutcomeClass::FailSilenceViolation
            ) {
                cc.brkfsv_by_location.add(target.location);
            }
            if let Some(lat) = run.crash_latency {
                cc.crash_latencies.push(lat);
            }
            if let Some(lat) = div.and_then(|d| d.trace_latency) {
                cc.trace_crash_latencies.push(lat);
            }
            if run.transient_deviation {
                cc.transient_deviations += 1;
            }
            cc.records.push(RunRecord {
                addr: target.addr,
                byte_index: target.byte_index,
                bit: target.bit,
                outcome_abbrev: match run.outcome {
                    OutcomeClass::NotActivated => 'N',
                    OutcomeClass::NotManifested => 'M',
                    OutcomeClass::SystemDetection => 'S',
                    OutcomeClass::FailSilenceViolation => 'F',
                    OutcomeClass::Breakin => 'B',
                },
                location_index: location_index(target.location),
                crash_latency: run.crash_latency,
                transient_deviation: run.transient_deviation,
            });
        }
        if tel.enabled() {
            main.phase_add(Phase::Reassemble, micros_since(tally_start));
        }
        if span_epoch.is_some() {
            client_spans.push((
                spec.name.clone(),
                client_start,
                micros_since(wall_start) - client_start,
            ));
        }
        clients.push(cc);
    }
    tel.progress.finish();

    let result = CampaignResult {
        app: app.name.to_string(),
        scheme: cfg.scheme,
        instructions: set.instructions,
        cond_branches: set.cond_branches,
        runs_per_client: set.targets.len(),
        clients,
    };

    if tel.enabled() {
        tel.metrics.absorb(&main);
        // The registry may span several campaigns (the report generator
        // reuses one bundle), so the trailer is the delta over this one.
        let after = tel.metrics.snapshot();
        let before = before.expect("snapshot taken when telemetry is enabled");
        let phase = |p| after.phases().get(p).saturating_sub(before.phases().get(p));
        let ctr = |n| after.counter(n).saturating_sub(before.counter(n));
        if tel.events_enabled() {
            // Client and campaign spans live on the campaign thread's
            // lane (tid 0); the campaign span closes over everything.
            if span_epoch.is_some() {
                for (name, ts, dur) in &client_spans {
                    tel.sink.emit(&TraceEvent::Span(SpanEvent {
                        name: name.clone(),
                        cat: "client".to_string(),
                        tid: 0,
                        ts: *ts,
                        dur: *dur,
                        addr: None,
                    }));
                }
                tel.sink.emit(&TraceEvent::Span(SpanEvent {
                    name: format!("{} [{}]", app.name, cfg.scheme),
                    cat: "campaign".to_string(),
                    tid: 0,
                    ts: 0,
                    dur: micros_since(wall_start),
                    addr: None,
                }));
            }
            if cfg.profiler {
                // The registry may span several campaigns, so the
                // profile event carries exactly this campaign's delta.
                let data = after.profile().diff(before.profile());
                if !data.is_empty() {
                    tel.sink.emit(&TraceEvent::Profile(Box::new(ProfileEvent {
                        app: app.name.to_string(),
                        mode: cfg.mode.name().to_string(),
                        data,
                    })));
                }
            }
            if let Some(p) = result.propagation_totals() {
                // The aggregate is rebuilt from the result's per-client
                // stats, so it is exact regardless of how many
                // campaigns share the registry.
                tel.sink.emit(&TraceEvent::Propagation(PropagationEvent {
                    app: app.name.to_string(),
                    mode: cfg.mode.name().to_string(),
                    seeded: p.seeded,
                    reached_decision: p.reached_decision,
                    compare_first: p.compare_first,
                    deaths: p.deaths,
                    frozen: p.frozen,
                    fsv_seeded: p.fsv_seeded,
                    fsv_reached_decision: p.fsv_reached_decision,
                    fsv_compare_first: p.fsv_compare_first,
                }));
            }
            tel.sink.emit(&TraceEvent::CampaignEnd(CampaignEndEvent {
                wall_micros: micros_since(wall_start),
                boot_micros: phase(Phase::Boot),
                snapshot_micros: phase(Phase::Snapshot),
                replay_micros: phase(Phase::Replay),
                classify_micros: phase(Phase::Classify),
                reassemble_micros: phase(Phase::Reassemble),
                runs: ctr(metric::RUNS),
                na_prefilter_runs: ctr(metric::NA_PREFILTER_RUNS),
                restores: ctr(metric::RESTORES),
                fresh_boots: ctr(metric::FRESH_BOOTS),
                cache_hit_groups: ctr(metric::CACHE_HIT_GROUPS),
                cache_miss_groups: ctr(metric::CACHE_MISS_GROUPS),
                cache_stale_groups: ctr(metric::CACHE_STALE_GROUPS),
                cache_synth_runs: ctr(metric::CACHE_SYNTH_RUNS),
            }));
        }
        tel.sink.flush();
    }
    result
}

/// Execute all targets for one client, dispatching on the configured
/// [`ExecutionMode`], optionally sharded over threads. Results are in
/// target order regardless of mode or thread count.
#[allow(clippy::too_many_arguments)]
fn run_targets(
    app: &AppSpec,
    spec: &fisec_apps::ClientSpec,
    golden: &GoldenRun,
    coverage: Option<&HashSet<u32>>,
    targets: &[InjectionTarget],
    cfg: &CampaignConfig,
    tel: &Telemetry,
    client_idx: usize,
    span_epoch: Option<Instant>,
    store: Option<&ClientStore>,
) -> Vec<DigestedRun> {
    match (cfg.mode, store) {
        (ExecutionMode::FromScratch, None) => {
            run_targets_from_scratch(app, spec, golden, targets, cfg, tel, client_idx, span_epoch)
        }
        (ExecutionMode::FromScratch, Some(store)) => run_targets_from_scratch_cached(
            app, spec, golden, targets, cfg, tel, client_idx, span_epoch, store,
        ),
        (ExecutionMode::Snapshot, store) => run_targets_snapshot(
            app, spec, golden, coverage, targets, cfg, tel, client_idx, span_epoch, store,
        ),
    }
}

/// Contiguous same-address slices of an address-major target list, each
/// with its offset into `targets` (checkpoint groups; also the cache's
/// memoization unit).
fn group_targets(targets: &[InjectionTarget]) -> Vec<(usize, &[InjectionTarget])> {
    let mut groups: Vec<(usize, &[InjectionTarget])> = Vec::new();
    let mut start = 0;
    for i in 1..=targets.len() {
        if i == targets.len() || targets[i].addr != targets[start].addr {
            groups.push((start, &targets[start..i]));
            start = i;
        }
    }
    groups
}

/// The reference oracle: one full boot per experiment (paper §4).
#[allow(clippy::too_many_arguments)]
fn run_targets_from_scratch(
    app: &AppSpec,
    spec: &fisec_apps::ClientSpec,
    golden: &GoldenRun,
    targets: &[InjectionTarget],
    cfg: &CampaignConfig,
    tel: &Telemetry,
    client_idx: usize,
    span_epoch: Option<Instant>,
) -> Vec<DigestedRun> {
    let engine = cfg.engine();
    let threads = cfg.threads.max(1);
    if threads == 1 || targets.len() < 64 {
        let mut wt = WorkerTel::new(tel, client_idx, 0, span_epoch);
        let out = targets
            .iter()
            .map(|t| {
                let (run, meta, gmeta, rep, prof, _fp, preport) =
                    run_injection_recorded(&app.image, spec, golden, t, cfg.scheme, engine)
                        .expect("image loads");
                let div = digest(&run, rep.as_ref());
                let prop = digest_prop(preport.as_ref());
                wt.note_fresh(t, &run, div, prop, meta, gmeta);
                wt.note_exec_profile(prof.as_ref());
                (run, div, prop)
            })
            .collect();
        wt.finish();
        return out;
    }
    let chunk = targets.len().div_ceil(threads);
    let mut out: Vec<Vec<DigestedRun>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (w, shard) in targets.chunks(chunk).enumerate() {
            handles.push(s.spawn(move || {
                let mut wt = WorkerTel::new(tel, client_idx, w + 1, span_epoch);
                let runs = shard
                    .iter()
                    .map(|t| {
                        let (run, meta, gmeta, rep, prof, _fp, preport) =
                            run_injection_recorded(&app.image, spec, golden, t, cfg.scheme, engine)
                                .expect("image loads");
                        let div = digest(&run, rep.as_ref());
                        let prop = digest_prop(preport.as_ref());
                        wt.note_fresh(t, &run, div, prop, meta, gmeta);
                        wt.note_exec_profile(prof.as_ref());
                        (run, div, prop)
                    })
                    .collect::<Vec<_>>();
                wt.finish();
                runs
            }));
        }
        for h in handles {
            out.push(h.join().expect("worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

/// Consult the cache for one checkpoint group: `Some(runs)` on a hit
/// (already folded into `wt`'s telemetry), `None` on a miss or stale
/// entry (the group must execute).
fn consult(
    store: &ClientStore,
    app: &AppSpec,
    spec: &fisec_apps::ClientSpec,
    group: &[InjectionTarget],
    wt: &mut WorkerTel<'_>,
) -> Option<Vec<DigestedRun>> {
    let addr = group.first().map(|t| t.addr);
    let n = group.len() as u64;
    match store.lookup(&app.image, group) {
        CacheLookup::Hit(runs) => {
            let runs = from_cached(runs);
            wt.note_cache_group(group, &runs);
            wt.note_cache(app.name, &spec.name, "hit", addr, n);
            Some(runs)
        }
        CacheLookup::Stale => {
            wt.note_cache(app.name, &spec.name, "stale", addr, n);
            None
        }
        CacheLookup::Miss => {
            wt.note_cache(app.name, &spec.name, "miss", addr, n);
            None
        }
    }
}

/// The reference oracle with the campaign cache attached: targets are
/// grouped by address (the cache's memoization unit is the checkpoint
/// group in either mode), hits fold without booting a process, misses
/// run one full boot per experiment with footprint recording on and
/// write the group's entry back. Outcomes are bit-identical to the
/// uncached oracle, and the entries interoperate with snapshot-mode
/// campaigns — each entry self-describes the footprint it was recorded
/// under.
#[allow(clippy::too_many_arguments)]
fn run_targets_from_scratch_cached(
    app: &AppSpec,
    spec: &fisec_apps::ClientSpec,
    golden: &GoldenRun,
    targets: &[InjectionTarget],
    cfg: &CampaignConfig,
    tel: &Telemetry,
    client_idx: usize,
    span_epoch: Option<Instant>,
    store: &ClientStore,
) -> Vec<DigestedRun> {
    let groups = group_targets(targets);
    let engine = cfg.engine().with_footprint();
    let mut wt0 = WorkerTel::new(tel, client_idx, 0, span_epoch);

    let mut slots: Vec<Option<Vec<DigestedRun>>> = vec![None; groups.len()];
    let live: Vec<usize> = groups
        .iter()
        .enumerate()
        .filter_map(
            |(gi, (_, group))| match consult(store, app, spec, group, &mut wt0) {
                Some(runs) => {
                    slots[gi] = Some(runs);
                    None
                }
                None => Some(gi),
            },
        )
        .collect();

    let run_group = |group: &[InjectionTarget], wt: &mut WorkerTel<'_>| -> Vec<DigestedRun> {
        let mut foot: Vec<(u32, u32)> = Vec::new();
        let runs: Vec<DigestedRun> = group
            .iter()
            .map(|t| {
                let (run, meta, gmeta, rep, prof, fp, preport) =
                    run_injection_recorded(&app.image, spec, golden, t, cfg.scheme, engine)
                        .expect("image loads");
                let div = digest(&run, rep.as_ref());
                let prop = digest_prop(preport.as_ref());
                wt.note_fresh(t, &run, div, prop, meta, gmeta);
                wt.note_exec_profile(prof.as_ref());
                if let Some(fp) = fp {
                    foot.extend(fp.ranges());
                }
                (run, div, prop)
            })
            .collect();
        store.record(
            &app.image,
            group,
            &to_cached(&runs),
            crate::cache::merge_ranges(foot),
        );
        wt.note_cache(
            app.name,
            &spec.name,
            "store",
            group.first().map(|t| t.addr),
            group.len() as u64,
        );
        runs
    };

    let threads = cfg.threads.max(1).min(live.len().max(1));
    if threads <= 1 {
        for &gi in &live {
            let (_, group) = groups[gi];
            let runs = run_group(group, &mut wt0);
            slots[gi] = Some(runs);
        }
    } else {
        let slots_mx = Mutex::new(&mut slots);
        run_work_queue(threads, live.len(), |w, pull| {
            let mut wt = WorkerTel::new(tel, client_idx, w + 1, span_epoch);
            while let Some(i) = pull() {
                let gi = live[i];
                let (_, group) = groups[gi];
                let runs = run_group(group, &mut wt);
                let wait_start = Instant::now();
                let mut guard = slots_mx.lock().expect("no worker panicked");
                let wait = micros_since(wait_start);
                guard[gi] = Some(runs);
                drop(guard);
                wt.observe_queue_wait(wait);
            }
            wt.finish();
        });
    }

    let mut out = Vec::with_capacity(targets.len());
    for done in slots {
        out.extend(done.expect("every group ran or was folded from cache"));
    }
    wt0.finish();
    out
}

/// Shared work-queue threading: spawn `threads` scoped workers, each
/// pulling item indices `0..items` from one atomic counter until the
/// queue drains. The campaign engine feeds it checkpoint groups and the
/// random tier feeds it run batches — both have wildly uneven item
/// costs, which is exactly when a shared queue beats static chunking.
///
/// `worker` is called once per thread with the worker id and a `pull`
/// closure; it owns its loop so per-worker state (telemetry shards,
/// snapshot processes) lives across items.
pub fn run_work_queue<W>(threads: usize, items: usize, worker: W)
where
    W: Fn(usize, &dyn Fn() -> Option<usize>) + Sync,
{
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..threads {
            let next = &next;
            let worker = &worker;
            s.spawn(move || {
                let pull = || {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    (i < items).then_some(i)
                };
                worker(w, &pull);
            });
        }
    });
}

/// The checkpointed fast path.
///
/// Targets are grouped by instruction address (enumeration emits them
/// address-major, so groups are contiguous slices). Groups at addresses
/// the golden run never executes (`coverage`, when the pre-filter is
/// sound) are synthesized as NA wholesale — the injected run's
/// pre-activation execution is identical to golden, so its breakpoint
/// can never be hit and it must stop exactly as golden did. Groups the
/// cache answers fold without running. The remaining live groups are
/// executed by [`harvest_groups`]: one boot with every live group's
/// breakpoint armed, forked at each first hit into that group's
/// snapshot-and-replay process. With `threads = T` worker `w` harvests
/// live groups `w, w + T, …` from its own boot, so a client costs at
/// most `T` boots, and none when no group is live.
#[allow(clippy::too_many_arguments)]
fn run_targets_snapshot(
    app: &AppSpec,
    spec: &fisec_apps::ClientSpec,
    golden: &GoldenRun,
    coverage: Option<&HashSet<u32>>,
    targets: &[InjectionTarget],
    cfg: &CampaignConfig,
    tel: &Telemetry,
    client_idx: usize,
    span_epoch: Option<Instant>,
    store: Option<&ClientStore>,
) -> Vec<DigestedRun> {
    let groups = group_targets(targets);
    // With a cache attached the group processes record their execution
    // footprint (a pure observer; results stay bit-identical) so the
    // written entries carry their invalidation ranges.
    let engine = match store {
        Some(_) => cfg.engine().with_footprint(),
        None => cfg.engine(),
    };

    // Worker 0 is the campaign thread: it owns the pre-filter, the
    // sequential path and the final reassembly.
    let mut wt0 = WorkerTel::new(tel, client_idx, 0, span_epoch);
    let synth_na = |n: usize| -> Vec<DigestedRun> {
        let na = InjectionRun {
            outcome: OutcomeClass::NotActivated,
            activated: false,
            stop: golden.stop.clone(),
            client: golden.client,
            crash_latency: None,
            transient_deviation: false,
            divergence: None,
        };
        vec![(na, None, None); n]
    };

    // One executed checkpoint group: digest each report down to the
    // per-run numbers the campaign keeps, drop the traces, and — with a
    // cache attached — write the memoized entry back.
    let finish_group = |group: &[InjectionTarget],
                        result: GroupResult,
                        wt: &mut WorkerTel<'_>|
     -> Vec<DigestedRun> {
        let (runs, gmeta, prof, fp) = result;
        let runs: Vec<(
            InjectionRun,
            RunMeta,
            Option<RunDivergence>,
            Option<RunPropagation>,
        )> = runs
            .into_iter()
            .map(|(run, meta, rep, preport)| {
                let div = digest(&run, rep.as_ref());
                let prop = digest_prop(preport.as_ref());
                (run, meta, div, prop)
            })
            .collect();
        wt.note_group(group, &runs, gmeta);
        wt.note_exec_profile(prof.as_ref());
        let digested: Vec<DigestedRun> = runs
            .into_iter()
            .map(|(run, _, div, prop)| (run, div, prop))
            .collect();
        if let Some(store) = store {
            let foot = fp.map(|f| f.ranges()).unwrap_or_default();
            store.record(&app.image, group, &to_cached(&digested), foot);
            wt.note_cache(
                app.name,
                &spec.name,
                "store",
                group.first().map(|t| t.addr),
                group.len() as u64,
            );
        }
        digested
    };

    // Harvest `live` groups (indices into `groups`) from one boot.
    let harvest = |live: &[usize], wt: &mut WorkerTel<'_>| -> Vec<(usize, Vec<DigestedRun>)> {
        let mut done = Vec::with_capacity(live.len());
        if live.is_empty() {
            return done;
        }
        wt.note_boot();
        let batch: Vec<&[InjectionTarget]> = live.iter().map(|&gi| groups[gi].1).collect();
        harvest_groups(
            &app.image,
            spec,
            golden,
            &batch,
            cfg.scheme,
            engine,
            |k, result| done.push((live[k], finish_group(batch[k], result, wt))),
        )
        .expect("image loads");
        done
    };

    // Prefilter first, cache second: a group the golden coverage proves
    // NA is synthesized for free and never touches (or populates) the
    // store; the survivors consult the cache before executing.
    let mut slots: Vec<Option<Vec<DigestedRun>>> = vec![None; groups.len()];
    let live: Vec<usize> = groups
        .iter()
        .enumerate()
        .filter_map(|(gi, (_, group))| {
            if let Some(cov) = coverage {
                if !cov.contains(&group[0].addr) {
                    slots[gi] = Some(synth_na(group.len()));
                    wt0.note_prefilter(group);
                    return None;
                }
            }
            if let Some(store) = store {
                match consult(store, app, spec, group, &mut wt0) {
                    Some(runs) => {
                        slots[gi] = Some(runs);
                        return None;
                    }
                    None => return Some(gi),
                }
            }
            Some(gi)
        })
        .collect();

    let threads = cfg.threads.max(1).min(live.len().max(1));
    let done = if threads <= 1 {
        harvest(&live, &mut wt0)
    } else {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    let stripe: Vec<usize> =
                        live.iter().copied().skip(w).step_by(threads).collect();
                    let harvest = &harvest;
                    s.spawn(move || {
                        let mut wt = WorkerTel::new(tel, client_idx, w + 1, span_epoch);
                        let done = harvest(&stripe, &mut wt);
                        wt.finish();
                        done
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    for (gi, runs) in done {
        slots[gi] = Some(runs);
    }

    let reassemble_start = Instant::now();
    let mut out = Vec::with_capacity(targets.len());
    for done in slots {
        out.extend(done.expect("every group ran or was synthesized"));
    }
    if tel.enabled() {
        wt0.shard
            .phase_add(Phase::Reassemble, micros_since(reassemble_start));
    }
    wt0.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_apps::AppSpec;
    use fisec_inject::golden_run;

    /// A cut-down campaign over a few targets to keep test time sane;
    /// the full campaigns run in the bench harness.
    #[test]
    fn mini_campaign_classifies_and_tallies() {
        let app = AppSpec::ftpd();
        let set = enumerate_targets(&app.image, &["pass"], true);
        // Take the first 3 instructions' worth of opcode bits only.
        let targets: Vec<_> = set
            .targets
            .iter()
            .filter(|t| t.byte_index == 0)
            .take(24)
            .copied()
            .collect();
        let spec = &app.clients[0]; // Client1 (attack)
        let golden = golden_run(&app.image, spec).unwrap();
        let cfg = CampaignConfig::default();
        let runs = run_targets(
            &app,
            spec,
            &golden,
            None,
            &targets,
            &cfg,
            &Telemetry::disabled(),
            0,
            None,
            None,
        );
        assert_eq!(runs.len(), 24);
        let mut counts = OutcomeCounts::default();
        for (r, div, prop) in &runs {
            counts.add(r.outcome);
            assert!(div.is_none(), "recorder off must not produce digests");
            assert!(prop.is_none(), "tracer off must not produce digests");
        }
        assert_eq!(counts.total(), 24);
        // Opcode-bit flips on a hot path must manifest somehow.
        assert!(counts.activated() > 0);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let app = AppSpec::ftpd();
        let set = enumerate_targets(&app.image, &["pass"], true);
        let targets: Vec<_> = set.targets.iter().take(80).copied().collect();
        let spec = &app.clients[0];
        let golden = golden_run(&app.image, spec).unwrap();
        let seq_cfg = CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        };
        let par_cfg = CampaignConfig {
            threads: 4,
            ..CampaignConfig::default()
        };
        let tel = Telemetry::disabled();
        let a = run_targets(
            &app, spec, &golden, None, &targets, &seq_cfg, &tel, 0, None, None,
        );
        let b = run_targets(
            &app, spec, &golden, None, &targets, &par_cfg, &tel, 0, None, None,
        );
        let oa: Vec<_> = a.iter().map(|r| r.0.outcome).collect();
        let ob: Vec<_> = b.iter().map(|r| r.0.outcome).collect();
        assert_eq!(oa, ob);
    }

    #[test]
    fn traced_campaign_emits_one_event_per_run() {
        let app = AppSpec::ftpd();
        let sink = std::sync::Arc::new(fisec_telemetry::MemorySink::new());
        let tel = Telemetry::new(sink.clone(), false);
        let cfg = CampaignConfig {
            cond_branches_only: true,
            ..CampaignConfig::default()
        };
        let result = run_campaign_traced(&app, &cfg, &tel);
        let events = sink.events();
        let runs = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Run(_)))
            .count();
        assert_eq!(runs, result.runs_per_client * result.clients.len());
        assert!(matches!(events.first(), Some(TraceEvent::Campaign(_))));
        assert!(matches!(events.last(), Some(TraceEvent::CampaignEnd(_))));
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter(metric::RUNS), runs as u64);
    }

    #[test]
    fn profiler_campaign_emits_profile_event_matching_registry() {
        let app = AppSpec::ftpd();
        let sink = std::sync::Arc::new(fisec_telemetry::MemorySink::new());
        let tel = Telemetry::new(sink.clone(), false);
        let cfg = CampaignConfig {
            cond_branches_only: true,
            profiler: true,
            ..CampaignConfig::default()
        };
        run_campaign_traced(&app, &cfg, &tel);
        let events = sink.events();
        // The profile event sits immediately before the trailer, so
        // `fisec profile trace.jsonl` can attribute it to the campaign.
        let n = events.len();
        assert!(matches!(&events[n - 1], TraceEvent::CampaignEnd(_)));
        let TraceEvent::Profile(p) = &events[n - 2] else {
            panic!(
                "expected a profile event before the trailer: {:?}",
                events[n - 2]
            );
        };
        assert_eq!(p.app, "ftpd");
        assert_eq!(p.mode, "snapshot");
        assert!(!p.data.is_empty());
        assert!(p.data.blocks.iter().any(|b| b.retired > 0));
        assert!(
            p.data.cache_hits > 0,
            "snapshot campaigns reuse cached blocks"
        );
        // The wire event is exactly what the registry aggregated.
        let snap = tel.metrics.snapshot();
        assert_eq!(&p.data, snap.profile());
        // And it survives a JSONL round-trip bit-for-bit.
        let line = events[n - 2].to_json_line();
        let back = TraceEvent::parse_line(&line).unwrap();
        assert_eq!(back, events[n - 2]);
    }

    #[test]
    fn span_campaign_nests_strictly_and_default_campaign_emits_no_spans() {
        let app = AppSpec::ftpd();
        let cfg = CampaignConfig {
            cond_branches_only: true,
            ..CampaignConfig::default()
        };

        // Byte-compat: a span-free campaign emits zero span events.
        let sink = std::sync::Arc::new(fisec_telemetry::MemorySink::new());
        let tel = Telemetry::new(sink.clone(), false);
        run_campaign_traced(&app, &cfg, &tel);
        assert!(
            !sink
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Span(_))),
            "cfg.spans=false must keep the stream span-free"
        );

        // Spans on: the hierarchy is strictly nested per lane and covers
        // campaign -> client -> group -> phase.
        let sink = std::sync::Arc::new(fisec_telemetry::MemorySink::new());
        let tel = Telemetry::new(sink.clone(), false);
        let cfg = CampaignConfig { spans: true, ..cfg };
        run_campaign_traced(&app, &cfg, &tel);
        let events = sink.events();
        let cats: std::collections::HashSet<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(s) => Some(s.cat.as_str()),
                _ => None,
            })
            .collect();
        for cat in ["campaign", "client", "group", "phase"] {
            assert!(cats.contains(cat), "missing span category {cat}: {cats:?}");
        }
        fisec_telemetry::check_span_nesting(&events).unwrap();
    }

    #[test]
    fn profiler_is_invisible_to_campaign_outcomes_in_both_modes() {
        let app = AppSpec::ftpd();
        let set = enumerate_targets(&app.image, &["pass"], true);
        let targets: Vec<_> = set.targets.iter().take(80).copied().collect();
        let spec = &app.clients[0];
        let tel = Telemetry::disabled();
        for mode in [ExecutionMode::Snapshot, ExecutionMode::FromScratch] {
            let plain = CampaignConfig {
                mode,
                ..CampaignConfig::default()
            };
            let profiled = CampaignConfig {
                profiler: true,
                ..plain
            };
            let golden = golden_run_opts(&app.image, spec, plain.engine()).unwrap();
            let a = run_targets(
                &app, spec, &golden, None, &targets, &plain, &tel, 0, None, None,
            );
            let golden = golden_run_opts(&app.image, spec, profiled.engine()).unwrap();
            let b = run_targets(
                &app, spec, &golden, None, &targets, &profiled, &tel, 0, None, None,
            );
            let oa: Vec<_> = a.iter().map(|r| (r.0.outcome, r.0.crash_latency)).collect();
            let ob: Vec<_> = b.iter().map(|r| (r.0.outcome, r.0.crash_latency)).collect();
            assert_eq!(oa, ob, "profiler changed outcomes in {} mode", mode.name());
        }
    }

    #[test]
    fn propagation_is_invisible_to_outcomes_in_all_four_engine_configs() {
        // The taint tracer is a pure observer: outcomes and crash
        // latencies must be bit-identical tracer on/off in both
        // execution modes and across all four {block cache} x {trace
        // cache} engine configurations.
        let app = AppSpec::ftpd();
        let set = enumerate_targets(&app.image, &["pass"], true);
        let targets: Vec<_> = set.targets.iter().take(60).copied().collect();
        let spec = &app.clients[0];
        let tel = Telemetry::disabled();
        for mode in [ExecutionMode::Snapshot, ExecutionMode::FromScratch] {
            for (block_cache, trace_cache) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                let plain = CampaignConfig {
                    mode,
                    block_cache,
                    trace_cache,
                    ..CampaignConfig::default()
                };
                let traced = CampaignConfig {
                    propagation: true,
                    ..plain
                };
                let golden = golden_run_opts(&app.image, spec, plain.engine()).unwrap();
                let a = run_targets(
                    &app, spec, &golden, None, &targets, &plain, &tel, 0, None, None,
                );
                let golden = golden_run_opts(&app.image, spec, traced.engine()).unwrap();
                let b = run_targets(
                    &app, spec, &golden, None, &targets, &traced, &tel, 0, None, None,
                );
                let oa: Vec<_> = a.iter().map(|r| (r.0.outcome, r.0.crash_latency)).collect();
                let ob: Vec<_> = b.iter().map(|r| (r.0.outcome, r.0.crash_latency)).collect();
                assert_eq!(
                    oa,
                    ob,
                    "tracer changed outcomes in {} mode (block_cache={block_cache}, \
                     trace_cache={trace_cache})",
                    mode.name()
                );
                // And the traced runs actually produced digests.
                assert!(
                    b.iter().any(|r| r.2.is_some_and(|p| p.seeded)),
                    "no run seeded taint in {} mode",
                    mode.name()
                );
                assert!(
                    a.iter().all(|r| r.2.is_none()),
                    "tracer off must not produce digests"
                );
            }
        }
    }

    #[test]
    fn propagation_campaign_emits_taint_metrics_and_aggregate_event() {
        let app = AppSpec::ftpd();
        let sink = std::sync::Arc::new(fisec_telemetry::MemorySink::new());
        let tel = Telemetry::new(sink.clone(), false);
        let cfg = CampaignConfig {
            cond_branches_only: true,
            propagation: true,
            ..CampaignConfig::default()
        };
        let result = run_campaign_traced(&app, &cfg, &tel);
        let totals = result
            .propagation_totals()
            .expect("propagation campaign aggregates stats");
        assert!(totals.seeded > 0, "no run seeded taint");
        assert!(totals.reached_decision > 0, "no taint reached a decision");
        // The aggregate event sits immediately before the trailer and
        // mirrors the per-client stats exactly.
        let events = sink.events();
        let n = events.len();
        assert!(matches!(&events[n - 1], TraceEvent::CampaignEnd(_)));
        let TraceEvent::Propagation(p) = &events[n - 2] else {
            panic!(
                "expected a propagation event before the trailer: {:?}",
                events[n - 2]
            );
        };
        assert_eq!(p.app, "ftpd");
        assert_eq!(p.seeded, totals.seeded);
        assert_eq!(p.reached_decision, totals.reached_decision);
        assert_eq!(p.fsv_seeded, totals.fsv_seeded);
        // Seeded run events carry the taint fields; unseeded ones don't.
        let mut decisions = 0u64;
        let mut widths = 0u64;
        for ev in &events {
            if let TraceEvent::Run(r) = ev {
                if r.outcome == "NA" {
                    assert_eq!(r.taint_width, None, "NA runs never seed taint");
                }
                if r.taint_decision.is_some() {
                    decisions += 1;
                }
                if r.taint_width.is_some() {
                    widths += 1;
                }
            }
        }
        assert_eq!(widths, totals.seeded);
        assert_eq!(decisions, totals.reached_decision);
        // The latency/width histograms observed the same populations.
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter(metric::TAINT_SEEDED_RUNS), totals.seeded);
        let lat: u64 = [
            metric::TAINT_TO_BRANCH_NM,
            metric::TAINT_TO_BRANCH_SD,
            metric::TAINT_TO_BRANCH_FSV,
            metric::TAINT_TO_BRANCH_BRK,
        ]
        .iter()
        .filter_map(|m| snap.histogram(m))
        .map(|h| h.count)
        .sum();
        assert_eq!(lat, decisions);
        // And the event round-trips through the JSONL wire format.
        let line = events[n - 2].to_json_line();
        assert_eq!(TraceEvent::parse_line(&line).unwrap(), events[n - 2]);
    }

    #[test]
    fn propagation_campaign_bypasses_the_cache_store() {
        // The PR 9 store memoizes only (run, divergence): a propagation
        // campaign must not open it at all — neither writing taint-less
        // entries nor serving memoized runs without taint digests.
        let dir = std::env::temp_dir().join(format!("fisec_prop_cache_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = CampaignCache::at(dir.clone());
        let mut app = AppSpec::ftpd();
        app.clients.truncate(1);
        let cfg = CampaignConfig {
            cond_branches_only: true,
            propagation: true,
            ..CampaignConfig::default()
        };
        let tel = Telemetry::disabled();
        let a = run_campaign_cached(&app, &cfg, &tel, Some(&cache));
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "propagation campaign must not create store files"
        );
        // A second run reproduces the same outcomes from scratch.
        let b = run_campaign_cached(&app, &cfg, &tel, Some(&cache));
        assert_eq!(a.clients[0].counts, b.clients[0].counts);
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorder_campaign_cross_checks_latencies_and_observes_depths() {
        let app = AppSpec::ftpd();
        let sink = std::sync::Arc::new(fisec_telemetry::MemorySink::new());
        let tel = Telemetry::new(sink.clone(), false);
        let cfg = CampaignConfig {
            cond_branches_only: true,
            flight_recorder: true,
            ..CampaignConfig::default()
        };
        let result = run_campaign_traced(&app, &cfg, &tel);
        // The trace-derived latencies must reproduce the live Figure 4
        // input exactly, element for element.
        for cc in &result.clients {
            assert!(!cc.crash_latencies.is_empty());
            assert_eq!(cc.trace_crash_latencies, cc.crash_latencies);
        }
        // Every run event agrees between the live and trace-derived
        // latency, and activated non-NA runs carry a divergence depth
        // whenever their control flow left the golden path.
        let mut depths = 0;
        for ev in sink.events() {
            if let TraceEvent::Run(r) = ev {
                assert_eq!(r.trace_latency, r.crash_latency);
                if r.divergence_depth.is_some() {
                    assert_ne!(r.outcome, "NA");
                    depths += 1;
                }
            }
        }
        assert!(depths > 0, "no run diverged from golden");
        // Depths land in the per-outcome histograms.
        let snap = tel.metrics.snapshot();
        let observed: u64 = [
            metric::DIVERGENCE_DEPTH_NM,
            metric::DIVERGENCE_DEPTH_SD,
            metric::DIVERGENCE_DEPTH_FSV,
            metric::DIVERGENCE_DEPTH_BRK,
        ]
        .iter()
        .filter_map(|m| snap.histogram(m))
        .map(|h| h.count)
        .sum();
        assert_eq!(observed, depths);
    }
}
