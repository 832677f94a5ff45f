//! `fisec-perfbench --workload <exhaustive|random|warm_rerun> --seed N
//! --seconds S --trace <0|1>`
//!
//! With `--trace 0` it sets up several times, then runs untraced passes
//! for `S` seconds and reports the end-to-end metrics, set-up time and
//! throughput scaled to a reference host speed (see `hostref`). With
//! `--trace 1`
//! it sets up once under the span ledger, then for `S` seconds runs one
//! pass three ways back to back — through the program, through the
//! traced copy of its code path with the ledger off, and with it on —
//! and reports the per-layer metrics. Every pass's output is checked. The last line of
//! standard output is one JSON object; the lines before it print every
//! metric by name and unit.

use fisec_perfbench::hostref::{HostRef, NOMINAL_CHUNK_S};
use fisec_perfbench::ledger::{Ledger, PassRecord, Span, SHORT_REPLAY_INSTS};
use fisec_perfbench::{pass_digest, traced, Bench, PassOutput, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Share of an untraced run's pass time spent repeating the set-up;
/// `setup_s` is the median of the repeats.
const SETUP_SHARE: f64 = 0.2;
/// Share of an untraced run's pass time spent timing the host reference.
const REF_SHARE: f64 = 0.1;
/// Shortest timed block of the host reference.
const REF_BLOCK_S: f64 = 0.05;
/// Bytes in a MB as `peak_rss_mb` counts them.
const MB: f64 = 1024.0 * 1024.0;
/// Fewest passes a run makes, so `pass_s_tail` has ten passes beyond it.
const MIN_PASSES: usize = 11;
/// Fewest pass triples a traced run makes.
const MIN_TRIPLES: usize = 3;
/// Where runs keep their cache stores and span files, relative to the
/// repository root the benchmark runs from.
const WORK_DIR: &str = "perfbench/work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?);
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => match val.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {val}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Pass bookkeeping shared by both modes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Traced passes disagreed on their deterministic counters.
    counters_differ: bool,
}

impl Tally {
    fn record(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("{label}: {e}");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fisec-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = run(&args, &dir);
    // The per-run directory only holds cache stores.
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fisec-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let store = dir.join("store");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host nproc={} cpu={:?}", nproc(), cpu_model());
    let (tally, metrics) = if args.trace {
        traced_run(args, store)?
    } else {
        untraced_run(args, store)?
    };
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "passes {} failed {} failed_frac {failed_frac}",
        tally.attempted, tally.failed
    );
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && !tally.counters_differ,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn untraced_run(args: &Args, store: PathBuf) -> Result<(Tally, Vec<Metric>), String> {
    let setup = || {
        let t0 = Instant::now();
        let b = Bench::setup(
            args.workload,
            args.seed,
            store.clone(),
            &mut Ledger::disabled(),
        )?;
        Ok::<_, String>((b, t0.elapsed().as_secs_f64()))
    };
    let (mut bench, first_setup) = setup()?;
    let mut setup_times = vec![first_setup];
    let experiments = bench.experiments_per_pass();
    println!("experiments_per_pass {experiments}");

    let mut tally = Tally::default();
    let mut times = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut index = 0u64;
    let mut host = HostRef::default();
    while times.len() < MIN_PASSES || Instant::now() < deadline {
        // Like the set-ups, the reference blocks are spread over the run.
        if host.secs() <= REF_SHARE * times.iter().sum::<f64>() {
            host.run_block(REF_BLOCK_S);
        }
        bench.prepare_pass()?;
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| bench.pass(index)));
        times.push(t0.elapsed().as_secs_f64());
        let verdict = out
            .map_err(|_| "pass panicked".to_string())
            .and_then(|o| bench.check(index, &o));
        tally.record(&format!("pass {index}"), verdict);
        index += 1;
        // Host speed drifts over seconds, so set-ups are spread over the
        // run like the passes rather than bunched before them.
        if setup_times.iter().sum::<f64>() < SETUP_SHARE * times.iter().sum::<f64>() {
            let (b, t) = setup()?;
            bench = b;
            setup_times.push(t);
        }
    }
    println!("setup_s is the median of {} set-ups", setup_times.len());

    // Throughput over every timed second. The pass median is printed but
    // not reported: it jumps with the share of a run's passes that land
    // in the host's slower spells, where the mean moves smoothly.
    let runs_per_s = experiments as f64 * times.len() as f64 / times.iter().sum::<f64>();
    let setup_s = median_of(setup_times);
    times.sort_by(f64::total_cmp);
    // The highest percentile with ten passes beyond it.
    let tail_idx = times.len() - 11;
    let tail = times[tail_idx];
    println!(
        "pass_s p10 {} p25 {} p50 {} p75 {} p90 {}",
        quantile(&times, 0.1),
        quantile(&times, 0.25),
        median(&times),
        quantile(&times, 0.75),
        quantile(&times, 0.9)
    );
    println!(
        "pass_s_tail is p{:.1} of {} passes (10 beyond it)",
        100.0 * (tail_idx + 1) as f64 / times.len() as f64,
        times.len()
    );
    // Set-up and throughput are scaled to the reference host speed. The
    // tail is not: its passes are those that met the host's slow spells,
    // which the run's mean slowdown does not describe, and scaling it
    // widened its spread between runs.
    let slowdown = host.slowdown();
    println!(
        "host reference: {} chunks, {} s each, slowdown {slowdown} against {NOMINAL_CHUNK_S} s",
        host.chunks(),
        host.chunk_s()
    );
    println!("wall clock: setup_s {setup_s} s, runs_per_s {runs_per_s} 1/s, pass_s_tail {tail} s");
    let metrics = vec![
        metric("setup_s", "s", setup_s / slowdown),
        metric("runs_per_s", "1/s", runs_per_s * slowdown),
        metric("pass_s_tail", "s", tail),
        // The reference's buffers are the benchmark's, not the program's.
        metric(
            "peak_rss_mb",
            "MB",
            peak_rss_mb() - host.bytes() as f64 / MB,
        ),
    ];
    Ok((tally, metrics))
}

/// How a traced run executes a pass.
#[derive(Debug, Clone, Copy)]
enum Side {
    /// The program's own entry points (`Bench::pass`).
    Program,
    /// `traced::pass` with a disabled ledger: the copy of the program's
    /// code path without span recording.
    Copy,
    /// `traced::pass` recording spans.
    Traced,
}

const SIDES: [Side; 3] = [Side::Program, Side::Copy, Side::Traced];

fn traced_run(args: &Args, store: PathBuf) -> Result<(Tally, Vec<Metric>), String> {
    let mut ledger = Ledger::enabled();
    let bench = Bench::setup(args.workload, args.seed, store, &mut ledger)?;
    let mut tally = Tally::default();
    // Pass seconds of each triple, indexed like `SIDES`.
    let mut triples: Vec<[f64; 3]> = Vec::new();
    let mut digest = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    'triples: while triples.len() < MIN_TRIPLES || Instant::now() < deadline {
        // Rotate which side goes first so drift hits all three equally.
        let first = triples.len() % SIDES.len();
        let mut triple = [0.0; 3];
        for k in 0..SIDES.len() {
            let at = (first + k) % SIDES.len();
            let side = SIDES[at];
            bench.prepare_pass()?;
            let t0 = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| match side {
                Side::Program => bench.pass(0),
                Side::Copy => traced::pass(&bench, 0, &mut Ledger::disabled()),
                Side::Traced => traced::pass(&bench, 0, &mut ledger),
            }));
            triple[at] = t0.elapsed().as_secs_f64();
            let label = format!("{side:?} pass");
            let verdict = match out {
                Ok(o) => check_same(&bench, &o, &mut digest),
                // A panic mid-pass leaves spans open: stop tracing.
                Err(_) => {
                    tally.record(&label, Err("pass panicked".to_string()));
                    break 'triples;
                }
            };
            tally.record(&label, verdict);
        }
        triples.push(triple);
    }
    let passes = ledger.passes();
    if passes.iter().any(|p| p.counters != passes[0].counters) {
        eprintln!("traced passes disagree on their counters");
        tally.counters_differ = true;
    }
    let spans_path = PathBuf::from(WORK_DIR).join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    ledger
        .write_tsv(&spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    println!("spans written to {}", spans_path.display());
    let side_p50 = |at: usize| median_of(triples.iter().map(|t| t[at]).collect());
    println!(
        "pass_s_p50 program {} copy {} traced {} peak_rss_mb {}",
        side_p50(0),
        side_p50(1),
        side_p50(2),
        peak_rss_mb()
    );
    let metrics = if passes.is_empty() {
        Vec::new()
    } else {
        // The passes of a triple run back to back under the same host
        // conditions, so their ratios cancel the host's speed drift.
        let ratio_p50 = |num: usize, den: usize| {
            median_of(triples.iter().map(|t| t[num] / t[den]).collect()) - 1.0
        };
        let mut m = layer_metrics(&ledger);
        m.push(metric("trace_overhead_frac", "ratio", ratio_p50(2, 1)));
        m.push(metric("copy_vs_program_frac", "ratio", ratio_p50(1, 0)));
        m
    };
    Ok((tally, metrics))
}

/// A pass output must pass its workload's check and digest equal to
/// every other pass of the traced run (all re-execute the same pass).
fn check_same(bench: &Bench, out: &PassOutput, digest: &mut Option<u64>) -> Result<(), String> {
    bench.check(0, out)?;
    let d = pass_digest(out);
    match *digest {
        None => *digest = Some(d),
        Some(want) if want != d => {
            return Err(format!("digest {d:#018x}, other passes {want:#018x}"));
        }
        Some(_) => {}
    }
    Ok(())
}

/// Per-layer metrics of a traced run. Counts and sums are those of the
/// traced pass with the median duration, plus the set-up for the
/// set-up layers (`apps.build`, `inject.enumerate`, `inject.golden`);
/// p50 and p99 pool the spans of every traced pass.
fn layer_metrics(ledger: &Ledger) -> Vec<Metric> {
    let spans = ledger.spans();
    let mut passes: Vec<PassRecord> = ledger.passes().to_vec();
    passes.sort_by_key(|p| spans[p.root].dur_ns());
    let mid = passes[passes.len() / 2];
    let mid_pass = spans[mid.root].pass;
    let c = mid.counters;

    let in_mid = |s: &Span, setup: bool| s.pass == mid_pass || (setup && s.pass == 0);
    let count = |name: &str, setup: bool| {
        spans
            .iter()
            .filter(|s| s.name == name && in_mid(s, setup))
            .count() as f64
    };
    let sum_ns = |name: &str, setup: bool| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name && in_mid(s, setup))
            .map(Span::dur_ns)
            .sum()
    };
    let pooled_us = |name: &str, setup: bool, keep: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        let mut v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && (s.pass > 0 || setup) && keep(s))
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let all = |_: &Span| true;
    let us = |ns: u64| ns as f64 / 1e3;
    let s = |ns: u64| ns as f64 / 1e9;

    let mut m = vec![
        metric("apps.build_s", "s", s(sum_ns("apps.build", true))),
        metric(
            "inject.enumerate_s",
            "s",
            s(sum_ns("inject.enumerate", true)),
        ),
    ];
    for (name, setup) in [
        ("inject.golden", true),
        ("os.load", false),
        ("os.boot", false),
        ("os.snapshot", false),
        ("os.restore", false),
        ("inject.flip", false),
        ("os.replay", false),
        ("net.trace", false),
        ("inject.classify", false),
        ("inject.group", false),
        ("core.cache.open", false),
        ("core.cache.lookup", false),
    ] {
        m.push(metric(format!("{name}_count"), "count", count(name, setup)));
        let p50 = median(&pooled_us(name, setup, &all));
        m.push(metric(format!("{name}_us_p50"), "us", p50));
        m.push(metric(
            format!("{name}_us_sum"),
            "us",
            us(sum_ns(name, setup)),
        ));
    }
    m.push(metric("os.boot_insts", "count", c.boot_insts as f64));
    let replays = pooled_us("os.replay", false, &all);
    m.push(metric("os.replay_us_p99", "us", quantile(&replays, 0.99)));
    let mut replay_insts: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "os.replay" && s.pass == mid_pass)
        .map(|s| s.insts as f64)
        .collect();
    replay_insts.sort_by(f64::total_cmp);
    m.push(metric(
        "os.replay_insts_sum",
        "count",
        c.replay_insts as f64,
    ));
    m.push(metric(
        "os.replay_insts_p50",
        "count",
        median(&replay_insts),
    ));
    m.push(metric(
        "os.replay_short_frac",
        "ratio",
        ratio(c.short_replays, replay_insts.len() as u64),
    ));
    let short = pooled_us("os.replay", false, &|s| s.insts <= SHORT_REPLAY_INSTS);
    m.push(metric("os.replay_short_us_p50", "us", median(&short)));
    let run_ns = sum_ns("os.run", false) + sum_ns("os.boot", false) + sum_ns("os.replay", false);
    m.push(metric("x86.guest_insts", "count", c.guest_insts as f64));
    m.push(metric(
        "x86.minst_per_s",
        "Minst/s",
        ratio(c.guest_insts, run_ns) * 1e3,
    ));
    m.push(metric("x86.blocks_built", "count", c.blocks_built as f64));
    m.push(metric("x86.block_hits", "count", c.block_hits as f64));
    m.push(metric(
        "x86.block_hit_ratio",
        "ratio",
        ratio(c.block_hits, c.block_hits + c.blocks_built),
    ));
    m.push(metric(
        "x86.blocks_invalidated",
        "count",
        c.blocks_invalidated as f64,
    ));
    m.push(metric("x86.traces_built", "count", c.traces_built as f64));
    m.push(metric("x86.trace_hits", "count", c.trace_hits as f64));
    m.push(metric(
        "x86.trace_side_exits",
        "count",
        c.trace_side_exits as f64,
    ));
    m.push(metric("core.cache.hits", "count", c.cache_hits as f64));
    m.push(metric("core.cache.misses", "count", c.cache_misses as f64));
    m.push(metric(
        "core.cache.record_us",
        "us",
        us(sum_ns("core.cache.record", false)),
    ));
    m.push(metric(
        "core.cache.save_us",
        "us",
        us(sum_ns("core.cache.save", false)),
    ));
    m.push(metric(
        "core.cache.store_bytes",
        "bytes",
        c.store_bytes as f64,
    ));
    m.push(metric("pass.experiments", "count", c.experiments as f64));
    m.push(metric("pass.groups", "count", c.groups as f64));
    m.push(metric("pass.restores", "count", c.restores as f64));

    let (layers, unattributed) = ledger.self_times(mid.root);
    let pass_ns = spans[mid.root].dur_ns();
    for (layer, name) in [
        ("inject", "ledger.inject_self_s"),
        ("os", "ledger.os_self_s"),
        ("net", "ledger.net_self_s"),
        ("core.cache", "ledger.core.cache_self_s"),
    ] {
        m.push(metric(
            name,
            "s",
            s(layers.get(layer).copied().unwrap_or(0)),
        ));
    }
    m.push(metric("ledger.unattributed_s", "s", s(unattributed)));
    m.push(metric("ledger.pass_s", "s", s(pass_ns)));
    m.push(metric(
        "unattributed_frac",
        "ratio",
        ratio(unattributed, pass_ns),
    ));
    m
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Median of sorted values (0 for none).
fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

fn median_of(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// Nearest-rank quantile of sorted values (0 for none).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / MB)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
