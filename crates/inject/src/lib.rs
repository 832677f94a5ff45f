//! # fisec-inject — the NFTAPE-style breakpoint fault injector
//!
//! Reproduces the paper's §4 experimental procedure:
//!
//! 1. load the server executable;
//! 2. set a breakpoint at the instruction picked for injection;
//! 3. start the server with a scripted client logging in;
//! 4. if the breakpoint is hit, the error is **activated**: flip the
//!    chosen bit in the chosen byte (optionally through the §6.2
//!    old→new→flip→new→old mapping) and continue;
//! 5. monitor the run to completion and classify the outcome against the
//!    golden (error-free) run: **NA**, **NM**, **SD**, **FSV** or
//!    **BRK**, plus the crash latency used by Figure 4 and the error
//!    location taxonomy of Tables 2/3.

pub mod classify;
pub mod divergence;
pub mod forensics;
pub mod latent;
pub mod location;
pub mod persist;
pub mod propagation;
pub mod target;

pub use classify::{classify_run, GoldenRun, InjectionRun, OutcomeClass};
pub use divergence::{DivergenceReport, GoldenContinuation, RECORDER_EDGES};
pub use forensics::{crash_forensics, CrashReport, PathSegment};
pub use latent::{LatentError, LatentRunner};
pub use location::ErrorLocation;
pub use propagation::{kind_label, PropagationReport};
pub use target::{enumerate_targets, InjectionTarget, TargetSet};

use fisec_apps::ClientSpec;
use fisec_asm::Image;
use fisec_encoding::{remap_flip, ByteCtx, EncodingScheme};
use fisec_os::{Process, Stop};
use fisec_x86::{ExecProfile, Footprint, DEFAULT_TAINT_HORIZON};
use std::time::Instant;

/// Default multiplier on the golden run's instruction count used as the
/// per-run budget (runaway/hang detection).
pub const BUDGET_MULTIPLIER: u64 = 8;
/// Floor for the per-run budget.
pub const BUDGET_FLOOR: u64 = 400_000;

/// Execution-engine options threaded from the campaign configuration
/// into every process an injection entry point boots. Orthogonal to
/// [`EncodingScheme`]: the scheme changes *what* is injected, the engine
/// options only change *how* execution is simulated — outcomes are
/// bit-identical either way (pinned by differential tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOpts {
    /// Execute through the basic-block cache (the default). `false` is
    /// the `--no-block-cache` escape hatch: the reference per-step
    /// interpreter.
    pub block_cache: bool,
    /// Arm the flight recorder on every activated run and diff it
    /// against a golden continuation of the same checkpoint (see
    /// [`divergence`]). Off by default; outcomes are bit-identical
    /// either way (pinned by differential tests) — the flag only adds
    /// the recorded traces and [`DivergenceReport`]s.
    pub flight_recorder: bool,
    /// Collect the hot-spot execution profile (per-block dispatch and
    /// retire counters, slow-path sites, block-cache traffic) for every
    /// process the entry points boot. Off by default; outcomes are
    /// bit-identical either way (pinned by differential tests) — the
    /// recorded-entry-point returns gain an [`ExecProfile`], nothing
    /// else changes.
    pub profiler: bool,
    /// Record the executed-code [`Footprint`] of every process the
    /// entry points boot (dispatch-granularity byte ranges fetched for
    /// execution, accumulated across checkpoint restores). Off by
    /// default; outcomes are bit-identical either way — the flag only
    /// adds the [`Footprint`] to the recorded-entry-point returns. The
    /// campaign cache uses it to key a group's memoized results on the
    /// image bytes the group actually executed.
    pub footprint: bool,
    /// Arm the propagation tracer (see [`fisec_x86::taint`]) on every
    /// activated run, seeded at the injected instruction. Off by
    /// default; outcomes are bit-identical either way (pinned by
    /// differential tests) — the flag only adds a [`PropagationReport`]
    /// per activated run to the recorded-entry-point returns.
    pub propagation: bool,
}

impl Default for EngineOpts {
    fn default() -> EngineOpts {
        EngineOpts {
            block_cache: true,
            flight_recorder: false,
            profiler: false,
            footprint: false,
            propagation: false,
        }
    }
}

impl EngineOpts {
    /// This configuration with footprint recording switched on.
    #[must_use]
    pub fn with_footprint(mut self) -> EngineOpts {
        self.footprint = true;
        self
    }

    fn apply(self, p: &mut Process) {
        p.machine.set_block_engine(self.block_cache);
        if self.profiler {
            p.machine.enable_profiler();
        }
        if self.footprint {
            p.machine.enable_footprint();
        }
    }
}

/// Record the golden (error-free) run for a client pattern.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn golden_run(image: &Image, client: &ClientSpec) -> Result<GoldenRun, fisec_os::LoadError> {
    golden_run_opts(image, client, EngineOpts::default())
}

/// [`golden_run`] with explicit engine options.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn golden_run_opts(
    image: &Image,
    client: &ClientSpec,
    engine: EngineOpts,
) -> Result<GoldenRun, fisec_os::LoadError> {
    let mut p = Process::load(image, client.make())?;
    engine.apply(&mut p);
    p.set_budget(50_000_000);
    let stop = p.run();
    Ok(GoldenRun {
        stop,
        client: p.client_status(),
        trace: p.trace(),
        icount: p.icount(),
    })
}

/// Record the golden run *and* the set of instruction addresses it
/// executes. The campaign engine uses the coverage set to classify
/// targets at never-executed addresses as NA without spawning a run:
/// execution before activation is identical to golden, so a breakpoint
/// at an uncovered address can never be hit.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn golden_run_with_coverage(
    image: &Image,
    client: &ClientSpec,
) -> Result<(GoldenRun, std::collections::HashSet<u32>), fisec_os::LoadError> {
    golden_run_with_coverage_opts(image, client, EngineOpts::default())
}

/// [`golden_run_with_coverage`] with explicit engine options.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn golden_run_with_coverage_opts(
    image: &Image,
    client: &ClientSpec,
    engine: EngineOpts,
) -> Result<(GoldenRun, std::collections::HashSet<u32>), fisec_os::LoadError> {
    let mut p = Process::load(image, client.make())?;
    engine.apply(&mut p);
    p.set_budget(50_000_000);
    p.machine.enable_coverage();
    let stop = p.run();
    let golden = GoldenRun {
        stop,
        client: p.client_status(),
        trace: p.trace(),
        icount: p.icount(),
    };
    let coverage = p
        .machine
        .coverage()
        .expect("coverage was enabled before the run");
    Ok((golden, coverage))
}

/// Per-run execution metadata reported by the metered entry points, for
/// the telemetry layer: what the run cost, not what it concluded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Guest instructions retired for this run: since the restore point
    /// for a snapshot replay, since boot for a fresh run. For a group
    /// whose breakpoint was never reached, every synthesized NA run
    /// reports the shared prefix's icount (the work a from-scratch run
    /// would have retired).
    pub icount: u64,
    /// Host microseconds executing the post-activation suffix (0 for
    /// runs that never activated).
    pub run_micros: u64,
    /// Host microseconds classifying the outcome against golden.
    pub classify_micros: u64,
}

/// Per-boot metadata shared by every run of a metered call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupMeta {
    /// Host microseconds booting to the breakpoint (or to the natural
    /// stop when the breakpoint was never reached). For a group of a
    /// [`harvest_groups`] boot, its share of the shared boot: the
    /// harvester time since the previous group was handed over, fork
    /// included.
    pub boot_micros: u64,
    /// Host microseconds capturing the checkpoint (0 when no checkpoint
    /// was taken).
    pub snapshot_micros: u64,
    /// Checkpoint restores performed.
    pub restores: u64,
    /// Whether the breakpoint was reached (the error could activate).
    pub activated: bool,
}

fn micros_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Execute one injection experiment.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn run_injection(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    target: &InjectionTarget,
    scheme: EncodingScheme,
) -> Result<InjectionRun, fisec_os::LoadError> {
    run_injection_recorded(image, client, golden, target, scheme, EngineOpts::default())
        .map(|(run, ..)| run)
}

/// [`run_injection`] with explicit engine options, plus the run's
/// execution metadata (icount, host time split by phase), plus the
/// [`DivergenceReport`] of the run when `engine.flight_recorder` is on
/// and the error activated, plus the run's [`ExecProfile`] when
/// `engine.profiler` is on, plus the run's executed-code [`Footprint`]
/// when `engine.footprint` is on, plus the run's [`PropagationReport`]
/// when `engine.propagation` is on and the error activated. With the recorder on, the process is
/// checkpointed at the breakpoint and resumed once *without* the flip
/// (recorder armed) to capture the golden continuation, then restored
/// and injected as usual — the injected run's outcome is bit-identical
/// to the recorder-off path.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
#[allow(clippy::type_complexity)]
pub fn run_injection_recorded(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    target: &InjectionTarget,
    scheme: EncodingScheme,
    engine: EngineOpts,
) -> Result<
    (
        InjectionRun,
        RunMeta,
        GroupMeta,
        Option<DivergenceReport>,
        Option<ExecProfile>,
        Option<Footprint>,
        Option<PropagationReport>,
    ),
    fisec_os::LoadError,
> {
    let boot_start = Instant::now();
    let mut p = Process::load(image, client.make())?;
    engine.apply(&mut p);
    let budget = (golden.icount * BUDGET_MULTIPLIER).max(BUDGET_FLOOR);
    p.set_budget(budget);
    p.machine.add_breakpoint(target.addr);

    let first = p.run();
    let boot_micros = micros_since(boot_start);
    let Stop::Breakpoint(_) = first else {
        // Instruction never executed: error not activated.
        let run = InjectionRun {
            outcome: OutcomeClass::NotActivated,
            activated: false,
            stop: first,
            client: p.client_status(),
            crash_latency: None,
            transient_deviation: false,
            divergence: None,
        };
        let meta = RunMeta {
            icount: p.icount(),
            run_micros: 0,
            classify_micros: 0,
        };
        let group = GroupMeta {
            boot_micros,
            ..GroupMeta::default()
        };
        let profile = p.machine.take_exec_profile();
        let footprint = p.machine.take_footprint();
        return Ok((run, meta, group, None, profile, footprint, None));
    };

    // With the recorder on, capture the golden continuation first: the
    // checkpoint makes the detour invisible to the injected run (the
    // restore rewinds registers, memory, icount, breakpoints and the
    // client channel — the same machinery the group engine relies on).
    let mut snapshot_micros = 0;
    let golden_ref = if engine.flight_recorder {
        let snapshot_start = Instant::now();
        let checkpoint = p.snapshot();
        snapshot_micros = micros_since(snapshot_start);
        let gc = golden_continuation(&mut p, target.addr);
        p.restore(&checkpoint);
        Some(gc)
    } else {
        None
    };

    // Activated: corrupt the byte and continue.
    let byte_addr = target.addr.wrapping_add(target.byte_index as u32);
    let orig = p
        .machine
        .mem
        .peek8(byte_addr)
        .expect("target byte is mapped: it was decoded from the image");
    let ctx = byte_ctx(target);
    let corrupted = remap_flip(orig, target.bit, ctx, scheme);
    p.machine
        .mem
        .poke8(byte_addr, corrupted)
        .expect("target byte is mapped");
    p.machine.remove_breakpoint(target.addr);
    let activation_icount = p.icount();
    if engine.flight_recorder {
        p.machine.enable_flight_recorder(RECORDER_EDGES);
    }
    if engine.propagation {
        p.machine
            .enable_taint(Some(target.addr), DEFAULT_TAINT_HORIZON);
    }

    let run_start = Instant::now();
    let stop = p.run();
    let run_micros = micros_since(run_start);
    let report = golden_ref.map(|gc| {
        let faulty = p
            .machine
            .take_flight_trace()
            .expect("recorder was armed before the run");
        divergence::diff_run(&gc, faulty, &p.machine.mem)
    });
    let prop = p.machine.take_propagation_log().map(|log| {
        let mut rep = PropagationReport::new(log, activation_icount);
        if decision_site(image, target.addr) {
            rep.mark_corrupted_decision(target.addr);
        }
        rep
    });
    let final_trace = p.trace();
    let crash_latency = match stop {
        Stop::Crashed(_) => Some(p.icount() - activation_icount),
        _ => None,
    };
    let classify_start = Instant::now();
    let run = classify_run(golden, stop, p.client_status(), final_trace, crash_latency);
    let meta = RunMeta {
        icount: p.icount(),
        run_micros,
        classify_micros: micros_since(classify_start),
    };
    let group = GroupMeta {
        boot_micros,
        snapshot_micros,
        restores: 0,
        activated: true,
    };
    let profile = p.machine.take_exec_profile();
    let footprint = p.machine.take_footprint();
    Ok((run, meta, group, report, profile, footprint, prop))
}

/// Resume a process checkpointed at its (disarmed) breakpoint with the
/// recorder on and no fault planted, capturing the reference the faulty
/// runs are diffed against. The caller restores the checkpoint after.
fn golden_continuation(p: &mut Process, addr: u32) -> GoldenContinuation {
    p.machine.remove_breakpoint(addr);
    p.machine.enable_flight_recorder(RECORDER_EDGES);
    let stop = p.run();
    let trace = p
        .machine
        .take_flight_trace()
        .expect("recorder was armed before the run");
    GoldenContinuation {
        trace: std::sync::Arc::new(trace),
        stop,
        mem: p.machine.mem.clone(),
    }
}

/// Execute every experiment in a group of targets sharing one
/// instruction address, replaying the boot-to-breakpoint prefix only
/// once.
///
/// The process boots with a breakpoint at the shared address exactly as
/// [`run_injection`] does. If the breakpoint is never hit, every target
/// in the group is NA with the same record the from-scratch path would
/// produce (pre-activation execution is deterministic). Otherwise the
/// process is checkpointed at the breakpoint and each target replays
/// only the post-flip suffix from the restored checkpoint: peek the
/// pristine byte, flip, disarm, run, classify — observably identical to
/// a from-scratch run because [`fisec_os::Process::restore`] rewinds
/// registers, memory, icount, breakpoints and the client channel.
///
/// This is the one-group case of [`harvest_groups`], which shares one
/// boot among many groups.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
///
/// # Panics
/// If the targets do not all share one instruction address.
pub fn run_injection_group(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    targets: &[InjectionTarget],
    scheme: EncodingScheme,
) -> Result<Vec<InjectionRun>, fisec_os::LoadError> {
    run_injection_group_recorded(
        image,
        client,
        golden,
        targets,
        scheme,
        EngineOpts::default(),
    )
    .map(|(runs, ..)| runs.into_iter().map(|(run, ..)| run).collect())
}

/// [`run_injection_group`] with explicit engine options, plus per-run
/// and per-boot execution metadata for the telemetry layer.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
///
/// # Panics
/// If the targets do not all share one instruction address.
pub fn run_injection_group_metered_opts(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    targets: &[InjectionTarget],
    scheme: EncodingScheme,
    engine: EngineOpts,
) -> Result<(Vec<(InjectionRun, RunMeta)>, GroupMeta), fisec_os::LoadError> {
    run_injection_group_recorded(image, client, golden, targets, scheme, engine).map(
        |(runs, group, _, _)| {
            (
                runs.into_iter()
                    .map(|(run, meta, _, _)| (run, meta))
                    .collect(),
                group,
            )
        },
    )
}

/// One run of an executed checkpoint group: the classified run, its
/// metadata, and the divergence and propagation reports when those
/// observers are on.
pub type GroupRun = (
    InjectionRun,
    RunMeta,
    Option<DivergenceReport>,
    Option<PropagationReport>,
);

/// One executed checkpoint group: its runs in target order, the group's
/// metadata, and the group's [`ExecProfile`] and [`Footprint`] when
/// those observers are on.
pub type GroupResult = (
    Vec<GroupRun>,
    GroupMeta,
    Option<ExecProfile>,
    Option<Footprint>,
);

/// [`run_injection_group_metered_opts`] plus a [`DivergenceReport`] per
/// activated run when `engine.flight_recorder` is on: the checkpoint is
/// resumed once without the flip (recorder armed) as the group's golden
/// continuation, then every target's replay records its own trace and
/// is diffed against it. Outcomes are bit-identical to the recorder-off
/// path. When `engine.profiler` is on, one [`ExecProfile`] covering the
/// boot and every replay of the group is returned as well (the profile
/// deliberately survives checkpoint restores, so it accounts for all
/// instructions the group retired). When `engine.footprint` is on, one
/// [`Footprint`] unioning the boot and every replay is returned — the
/// byte ranges whose contents the campaign cache must key the group's
/// memoized results on. When `engine.propagation` is on, each replay
/// arms the taint tracer seeded at the group's address and its sealed
/// [`PropagationReport`] rides along per run — the tracer is per-run
/// state, so the restore at the top of the next replay would drop it
/// anyway; the explicit take seals it first.
///
/// This is [`harvest_groups`] over the one group.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
///
/// # Panics
/// If the targets do not all share one instruction address.
pub fn run_injection_group_recorded(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    targets: &[InjectionTarget],
    scheme: EncodingScheme,
    engine: EngineOpts,
) -> Result<GroupResult, fisec_os::LoadError> {
    if targets.is_empty() {
        return Ok((Vec::new(), GroupMeta::default(), None, None));
    }
    let mut out = None;
    harvest_groups(image, client, golden, &[targets], scheme, engine, |_, r| {
        out = Some(r);
    })?;
    Ok(out.expect("a harvest reports every group"))
}

/// Where [`harvest_checkpoints`] stopped for some of the requested
/// addresses.
#[derive(Debug)]
pub enum Checkpoint<'a> {
    /// The breakpoint at `addrs[index]` was reached. `process` is parked
    /// there with it as its only armed breakpoint: the state a fresh
    /// `load` + `add_breakpoint` + `run` boot to the address reaches.
    Reached {
        /// Index into the harvested addresses.
        index: usize,
        /// The parked process (a fork, or the harvester itself for the
        /// address reached last). Dropped when the visit returns.
        process: &'a mut Process,
    },
    /// The harvester stopped with `stop` before reaching any of the
    /// addresses at `indices` (ascending). `process` holds its final
    /// state, which is where a fresh boot to any of them ends too.
    Unreached {
        /// Indices into the harvested addresses.
        indices: Vec<usize>,
        /// Why the harvester stopped.
        stop: Stop,
        /// The stopped harvester.
        process: &'a mut Process,
    },
}

/// Boot `client` once with a breakpoint at every address in `addrs` and
/// hand out the process parked at each one.
///
/// Pre-activation execution is the golden run, so every checkpoint's
/// boot-to-breakpoint prefix is a prefix of the same execution. At each
/// first hit the *harvester* forks (clones) the parked process, reduces
/// the fork's breakpoint set to the hit address, visits it as
/// [`Checkpoint::Reached`] and drops it, then disarms the address and
/// continues. The address reached last is visited on the harvester
/// itself, so a one-address harvest never forks. When the harvester
/// stops for any other reason, the addresses not yet reached are
/// visited once, together, as [`Checkpoint::Unreached`].
///
/// A fork keeps the harvester's decoded caches and footprint, so the
/// footprint covers the boot prefix as a fresh boot's would (the
/// campaign cache keys on it). A fork's profile, when profiling is on,
/// restarts empty: the harvester's own profile counts the shared prefix
/// once, and reaches the visit for the last address or the unreached
/// ones. `visit` also receives the harvester time since the
/// previous visit returned, fork included: each checkpoint's share of
/// the boot.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn harvest_checkpoints(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    addrs: &[u32],
    engine: EngineOpts,
    mut visit: impl FnMut(Checkpoint<'_>, u64),
) -> Result<(), fisec_os::LoadError> {
    // (address, index) of every checkpoint not yet reached, sorted.
    let mut pending: Vec<(u32, usize)> = addrs.iter().copied().zip(0..).collect();
    if pending.is_empty() {
        return Ok(());
    }
    pending.sort_unstable();

    let mut seg_start = Instant::now();
    let mut p = Process::load(image, client.make())?;
    engine.apply(&mut p);
    p.set_budget((golden.icount * BUDGET_MULTIPLIER).max(BUDGET_FLOOR));
    for &(addr, _) in &pending {
        p.machine.add_breakpoint(addr);
    }
    loop {
        let stop = p.run();
        let Stop::Breakpoint(addr) = stop else {
            let mut indices: Vec<usize> = pending.into_iter().map(|(_, i)| i).collect();
            indices.sort_unstable();
            let checkpoint = Checkpoint::Unreached {
                indices,
                stop,
                process: &mut p,
            };
            visit(checkpoint, micros_since(seg_start));
            return Ok(());
        };
        let at = pending.partition_point(|&(a, _)| a < addr);
        let (_, index) = pending.remove(at);
        if pending.is_empty() {
            // Every other breakpoint is disarmed: the harvester is in
            // the fresh-boot state.
            let checkpoint = Checkpoint::Reached {
                index,
                process: &mut p,
            };
            visit(checkpoint, micros_since(seg_start));
            return Ok(());
        }
        let mut fork = p.clone();
        fork.machine.clear_breakpoints();
        fork.machine.add_breakpoint(addr);
        if fork.machine.profiler_enabled() {
            fork.machine.enable_profiler();
        }
        let checkpoint = Checkpoint::Reached {
            index,
            process: &mut fork,
        };
        visit(checkpoint, micros_since(seg_start));
        drop(fork);
        // Another checkpoint at the same address keeps it armed: the
        // next run stops there again at once.
        if pending.get(at).map(|&(a, _)| a) != Some(addr) {
            p.machine.remove_breakpoint(addr);
        }
        seg_start = Instant::now();
    }
}

/// Execute many checkpoint groups of one client from a single boot.
///
/// [`harvest_checkpoints`] boots once with every group's breakpoint
/// armed, and each group replays on the process parked at its
/// breakpoint: checkpoint, then per target restore, peek the pristine
/// byte, flip, disarm, run, classify — observably identical to a
/// from-scratch run because [`fisec_os::Process::restore`] rewinds
/// registers, memory, icount, breakpoints and the client channel. A
/// group the harvester never reaches is not activated, and
/// (determinism) a fresh boot to its address would have stopped the
/// same way: each of its runs gets the harvester's stop, client verdict
/// and icount — the work a from-scratch run would have retired — and
/// the group gets the harvester's final footprint. The harvester's
/// profile goes to the first unreached group only, so that summed over
/// all groups the profiles count every retired instruction once.
///
/// `on_group(i, result)` is called once per group `groups[i]`: in the
/// order the breakpoints are reached, then the unreached groups in
/// index order. A group's [`GroupMeta::boot_micros`] is its share of
/// the boot (see [`harvest_checkpoints`]).
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
///
/// # Panics
/// If a group is empty or its targets do not all share one address.
pub fn harvest_groups(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    groups: &[&[InjectionTarget]],
    scheme: EncodingScheme,
    engine: EngineOpts,
    mut on_group: impl FnMut(usize, GroupResult),
) -> Result<(), fisec_os::LoadError> {
    let addrs: Vec<u32> = groups
        .iter()
        .map(|group| {
            let addr = group.first().expect("checkpoint groups are non-empty").addr;
            assert!(
                group.iter().all(|t| t.addr == addr),
                "a checkpoint group's targets share one address"
            );
            addr
        })
        .collect();
    harvest_checkpoints(
        image,
        client,
        golden,
        &addrs,
        engine,
        |checkpoint, boot_micros| match checkpoint {
            Checkpoint::Reached { index, process } => {
                let targets = groups[index];
                let result =
                    replay_group(process, image, golden, targets, scheme, engine, boot_micros);
                on_group(index, result);
            }
            Checkpoint::Unreached {
                indices,
                stop,
                process,
            } => {
                let na = InjectionRun {
                    outcome: OutcomeClass::NotActivated,
                    activated: false,
                    stop,
                    client: process.client_status(),
                    crash_latency: None,
                    transient_deviation: false,
                    divergence: None,
                };
                let meta = RunMeta {
                    icount: process.icount(),
                    run_micros: 0,
                    classify_micros: 0,
                };
                let mut profile = process.machine.take_exec_profile();
                let footprint = process.machine.take_footprint();
                let mut boot_micros = boot_micros;
                for index in indices {
                    let group = GroupMeta {
                        boot_micros: std::mem::take(&mut boot_micros),
                        ..GroupMeta::default()
                    };
                    let runs = vec![(na.clone(), meta, None, None); groups[index].len()];
                    on_group(index, (runs, group, profile.take(), footprint.clone()));
                }
            }
        },
    )
}

/// Replay one checkpoint group on a process parked at the group's
/// breakpoint, its only armed one: checkpoint, then restore, flip,
/// disarm, run and classify per target.
fn replay_group(
    p: &mut Process,
    image: &Image,
    golden: &GoldenRun,
    targets: &[InjectionTarget],
    scheme: EncodingScheme,
    engine: EngineOpts,
    boot_micros: u64,
) -> GroupResult {
    let addr = targets[0].addr;
    let snapshot_start = Instant::now();
    let checkpoint = p.snapshot();
    let snapshot_micros = micros_since(snapshot_start);
    let activation_icount = p.icount();
    // One golden continuation serves the whole group; the restore at
    // the top of every replay rewinds the detour.
    let golden_ref = engine.flight_recorder.then(|| golden_continuation(p, addr));
    let mut runs = Vec::with_capacity(targets.len());
    for target in targets {
        let replay_start = Instant::now();
        p.restore(&checkpoint);
        let byte_addr = target.addr.wrapping_add(target.byte_index as u32);
        let orig = p
            .machine
            .mem
            .peek8(byte_addr)
            .expect("target byte is mapped: it was decoded from the image");
        let ctx = byte_ctx(target);
        let corrupted = remap_flip(orig, target.bit, ctx, scheme);
        p.machine
            .mem
            .poke8(byte_addr, corrupted)
            .expect("target byte is mapped");
        p.machine.remove_breakpoint(target.addr);
        if engine.flight_recorder {
            p.machine.enable_flight_recorder(RECORDER_EDGES);
        }
        if engine.propagation {
            p.machine
                .enable_taint(Some(target.addr), DEFAULT_TAINT_HORIZON);
        }

        let stop = p.run();
        let run_micros = micros_since(replay_start);
        let report = golden_ref.as_ref().map(|gc| {
            let faulty = p
                .machine
                .take_flight_trace()
                .expect("recorder was armed before the replay");
            divergence::diff_run(gc, faulty, &p.machine.mem)
        });
        let prop = p.machine.take_propagation_log().map(|log| {
            let mut rep = PropagationReport::new(log, activation_icount);
            if decision_site(image, target.addr) {
                rep.mark_corrupted_decision(target.addr);
            }
            rep
        });
        let final_trace = p.trace();
        let crash_latency = match stop {
            Stop::Crashed(_) => Some(p.icount() - activation_icount),
            _ => None,
        };
        let classify_start = Instant::now();
        let run = classify_run(golden, stop, p.client_status(), final_trace, crash_latency);
        let meta = RunMeta {
            icount: p.icount().saturating_sub(activation_icount),
            run_micros,
            classify_micros: micros_since(classify_start),
        };
        runs.push((run, meta, report, prop));
    }
    let group = GroupMeta {
        boot_micros,
        snapshot_micros,
        restores: p.restore_count(),
        activated: true,
    };
    let profile = p.machine.take_exec_profile();
    let footprint = p.machine.take_footprint();
    (runs, group, profile, footprint)
}

/// Determine the §6.2 mapping context for the corrupted byte.
fn byte_ctx(target: &InjectionTarget) -> ByteCtx {
    if target.byte_index == 0 {
        ByteCtx::OneByteOpcode
    } else if target.byte_index == 1 && target.first_byte == 0x0F {
        ByteCtx::SecondOpcodeByte
    } else {
        ByteCtx::Other
    }
}

/// Whether the *original* instruction at `addr` is a control transfer.
/// A flip there corrupts a control-flow decision directly, which the
/// taint tracer (seeing only the corrupted text) cannot know.
fn decision_site(image: &Image, addr: u32) -> bool {
    let Some(off) = addr
        .checked_sub(image.text_base)
        .map(|o| o as usize)
        .filter(|&o| o < image.text.len())
    else {
        return false;
    };
    let end = (off + 16).min(image.text.len());
    fisec_x86::decode(&image.text[off..end]).is_control_transfer()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_apps::AppSpec;

    #[test]
    fn byte_ctx_selection() {
        let mk = |first_byte, byte_index| InjectionTarget {
            addr: 0x1000,
            inst_len: 6,
            byte_index,
            bit: 0,
            first_byte,
            location: ErrorLocation::SixByteCond2,
            is_cond_branch: true,
        };
        assert_eq!(byte_ctx(&mk(0x74, 0)), ByteCtx::OneByteOpcode);
        assert_eq!(byte_ctx(&mk(0x0F, 1)), ByteCtx::SecondOpcodeByte);
        assert_eq!(byte_ctx(&mk(0x74, 1)), ByteCtx::Other);
        assert_eq!(byte_ctx(&mk(0x0F, 3)), ByteCtx::Other);
    }

    #[test]
    fn harvest_serves_same_address_groups_alike() {
        // Two groups at one address: the harvester stays parked there
        // until both are served, and each matches the group run alone.
        let app = AppSpec::ftpd();
        let client = &app.clients[0];
        let golden = golden_run(&app.image, client).unwrap();
        let set = enumerate_targets(&app.image, &app.auth_funcs, false);
        let addr = set.targets[0].addr;
        let group: Vec<InjectionTarget> = set
            .targets
            .iter()
            .copied()
            .filter(|t| t.addr == addr)
            .collect();
        let later = set.targets.last().unwrap().addr;
        let tail: Vec<InjectionTarget> = set
            .targets
            .iter()
            .copied()
            .filter(|t| t.addr == later)
            .collect();
        let (engine, scheme) = (EngineOpts::default(), EncodingScheme::Baseline);
        let alone =
            run_injection_group_recorded(&app.image, client, &golden, &group, scheme, engine)
                .unwrap();
        assert!(alone.1.activated, "the first target address is executed");
        let key = |runs: &[GroupRun]| -> Vec<(InjectionRun, u64)> {
            runs.iter()
                .map(|(run, m, _, _)| (run.clone(), m.icount))
                .collect()
        };
        let mut served = Vec::new();
        let batch = [&group[..], &tail[..], &group[..]];
        harvest_groups(
            &app.image,
            client,
            &golden,
            &batch,
            scheme,
            engine,
            |i, r| {
                if i != 1 {
                    assert_eq!(key(&r.0), key(&alone.0), "group {i}");
                }
                served.push(i);
            },
        )
        .unwrap();
        served.sort_unstable();
        assert_eq!(served, [0, 1, 2]);
    }

    #[test]
    fn not_activated_when_breakpoint_unreached() {
        let app = AppSpec::ftpd();
        let client = &app.clients[0];
        let golden = golden_run(&app.image, client).unwrap();
        // Target an address in `pass` that Client3-style flows wouldn't
        // reach — simplest: an address in the *anonymous* arm while
        // logging in as a named user. Instead, inject into a function
        // the flow never calls: use `retr`'s body with Client1 (denied,
        // never retrieves). Find a branch inside `retr`.
        let f = app.image.func("retr").unwrap().clone();
        let insts = app.image.decode_func(&f);
        let (addr, inst) = insts
            .iter()
            .find(|(_, i)| i.is_cond_branch())
            .expect("retr has branches");
        let t = InjectionTarget {
            addr: *addr,
            inst_len: inst.len,
            byte_index: 0,
            bit: 0,
            first_byte: 0x74,
            location: ErrorLocation::TwoByteCondOpcode,
            is_cond_branch: true,
        };
        let r = run_injection(&app.image, client, &golden, &t, EncodingScheme::Baseline).unwrap();
        assert_eq!(r.outcome, OutcomeClass::NotActivated);
        assert!(!r.activated);
    }
}
