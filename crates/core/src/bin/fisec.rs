//! `fisec` — command-line driver for the DSN'01 reproduction.
//!
//! ```text
//! fisec table1  [--app ftpd|sshd|both] [--threads N] [--json]
//! fisec table3  [--app ...]
//! fisec table5  [--app ...]
//! fisec figure4 [--app ftpd] [--client N]
//! fisec random  [--runs N] [--seed S] [--new-encoding]
//! fisec load    [--samples N] [--seed S]
//! fisec targets [--app ...]
//! fisec disasm  --app ftpd [--func pass]
//! fisec breakins [--app ...]
//! fisec ablation [--seed S]
//! fisec forensics [--app ftpd] [--top K] [--stride N]
//! fisec explain --app ftpd --addr 0xADDR [--byte N] [--bit N]
//! fisec propagate --app ftpd --addr 0xADDR [--byte N] [--bit N]
//! fisec stats TRACE.jsonl [--json]
//! fisec profile [--app ftpd|sshd] [--json] | fisec profile TRACE.jsonl
//! fisec report TRACE.jsonl [--out report.html]
//! fisec bench-diff BENCH_campaign.json [--factor F]
//! fisec help
//! ```
//!
//! The campaign commands (`table1`/`table3`/`table5`/`figure4`) accept
//! `--trace-out PATH` to stream one JSONL event per injection run and
//! `--progress` for a live runs/s meter plus a phase-profile breakdown
//! on stderr; `fisec stats` replays a saved trace back into the tables.
//! `--recorder` turns on the flight recorder campaign-wide (divergence
//! depths in events and metrics); `fisec figure4 --from-trace` rebuilds
//! the histogram purely from recorded traces and hard-checks it against
//! the live one. `fisec explain` renders one injection's annotated
//! divergence timeline against the golden run; `fisec propagate`
//! renders the same injection's *data-flow* story — the taint tracer's
//! corruption timeline from the flipped destination to the first
//! tainted compare/branch. `--propagation` arms the tracer
//! campaign-wide (taint metrics in events, a propagation aggregate in
//! the trace and report).

use fisec_apps::AppSpec;
use fisec_core::{
    cache, figure4, load, random, run_campaign, run_campaign_cached, run_campaign_traced, tables,
    trace, CampaignCache, CampaignConfig, CampaignSummary, EncodingScheme,
};
use fisec_inject::{crash_forensics, enumerate_targets, golden_run, run_injection, OutcomeClass};
use fisec_telemetry::{JsonlSink, MemorySink, NullSink, Telemetry};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
struct Args {
    cmd: String,
    app: String,
    func: Option<String>,
    client: usize,
    runs: usize,
    samples: usize,
    seed: u64,
    threads: Option<usize>,
    top: Option<usize>,
    stride: usize,
    json: bool,
    new_encoding: bool,
    no_block_cache: bool,
    trace_out: Option<String>,
    progress: bool,
    path: Option<String>,
    addr: Option<u32>,
    byte: u8,
    bit: u8,
    recorder: bool,
    propagation: bool,
    from_trace: bool,
    batch: usize,
    target_ci: Option<f64>,
    resume: Option<String>,
    from_scratch: bool,
    chrome_trace: Option<String>,
    profile: bool,
    factor: f64,
    out: Option<String>,
    baseline: Option<String>,
    cache: Option<String>,
    no_cache: bool,
    max_size: Option<u64>,
    max_age: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    parse_args_from(std::env::args().skip(1))
}

fn parse_args_from(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut argv = argv.into_iter();
    let cmd = argv.next().ok_or_else(usage)?;
    let mut a = Args {
        cmd,
        app: "both".into(),
        func: None,
        client: 1,
        runs: 3000,
        samples: 200,
        seed: 2001,
        threads: None,
        top: None,
        stride: 4,
        json: false,
        new_encoding: false,
        no_block_cache: false,
        trace_out: None,
        progress: false,
        path: None,
        addr: None,
        byte: 0,
        bit: 0,
        recorder: false,
        propagation: false,
        from_trace: false,
        batch: 500,
        target_ci: None,
        resume: None,
        from_scratch: false,
        chrome_trace: None,
        profile: false,
        factor: 1.0,
        out: None,
        baseline: None,
        cache: None,
        no_cache: false,
        max_size: None,
        max_age: None,
    };
    if matches!(a.cmd.as_str(), "--help" | "-h") {
        a.cmd = "help".to_string();
        return Ok(a);
    }
    while let Some(flag) = argv.next() {
        let mut val = |name: &str| -> Result<String, String> {
            argv.next().ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--app" => a.app = val("--app")?,
            "--func" => a.func = Some(val("--func")?),
            "--client" => a.client = val("--client")?.parse().map_err(|e| format!("{e}"))?,
            "--runs" => a.runs = val("--runs")?.parse().map_err(|e| format!("{e}"))?,
            "--samples" => a.samples = val("--samples")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => a.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => a.threads = Some(val("--threads")?.parse().map_err(|e| format!("{e}"))?),
            "--top" => a.top = Some(val("--top")?.parse().map_err(|e| format!("{e}"))?),
            "--stride" => {
                a.stride = val("--stride")?.parse().map_err(|e| format!("{e}"))?;
                if a.stride == 0 {
                    return Err("--stride must be at least 1".to_string());
                }
            }
            "--json" => a.json = true,
            "--new-encoding" => a.new_encoding = true,
            "--no-block-cache" => a.no_block_cache = true,
            "--trace-out" => a.trace_out = Some(val("--trace-out")?),
            "--progress" => a.progress = true,
            "--addr" => {
                let v = val("--addr")?;
                let hex = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X"));
                a.addr = Some(
                    match hex {
                        Some(h) => u32::from_str_radix(h, 16),
                        None => v.parse(),
                    }
                    .map_err(|e| format!("--addr {v}: {e}"))?,
                );
            }
            "--byte" => a.byte = val("--byte")?.parse().map_err(|e| format!("{e}"))?,
            "--bit" => {
                a.bit = val("--bit")?.parse().map_err(|e| format!("{e}"))?;
                if a.bit > 7 {
                    return Err(format!("--bit {} out of range (bits are 0..=7)", a.bit));
                }
            }
            "--recorder" => a.recorder = true,
            "--propagation" => a.propagation = true,
            "--from-trace" => a.from_trace = true,
            "--batch" => {
                a.batch = val("--batch")?.parse().map_err(|e| format!("{e}"))?;
                if a.batch == 0 {
                    return Err("--batch must be at least 1".to_string());
                }
            }
            "--target-ci" => {
                let w: f64 = val("--target-ci")?.parse().map_err(|e| format!("{e}"))?;
                if !(w > 0.0 && w < 1.0) {
                    return Err(format!("--target-ci {w} must be in (0, 1)"));
                }
                a.target_ci = Some(w);
            }
            "--resume" => a.resume = Some(val("--resume")?),
            "--from-scratch" => a.from_scratch = true,
            "--chrome-trace" => a.chrome_trace = Some(val("--chrome-trace")?),
            "--profile" => a.profile = true,
            "--factor" => {
                let f: f64 = val("--factor")?.parse().map_err(|e| format!("{e}"))?;
                if f <= 0.0 || f.is_nan() {
                    return Err(format!("--factor {f} must be positive"));
                }
                a.factor = f;
            }
            "--out" => a.out = Some(val("--out")?),
            "--baseline" => a.baseline = Some(val("--baseline")?),
            "--cache" => a.cache = Some(val("--cache")?),
            "--no-cache" => a.no_cache = true,
            "--max-size" => a.max_size = Some(parse_size(&val("--max-size")?)?),
            "--max-age" => a.max_age = Some(parse_age(&val("--max-age")?)?),
            "--help" | "-h" => {
                a.cmd = "help".to_string();
                return Ok(a);
            }
            other if !other.starts_with('-') && a.path.is_none() => a.path = Some(flag),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(a)
}

fn usage() -> String {
    "usage: fisec <table1|table3|table5|figure4|random|load|targets|disasm|breakins|ablation|forensics|explain|propagate|stats|profile|report|bench-diff|cache|help> [flags]\n\
     flags: --app ftpd|sshd|both  --func NAME  --client N  --runs N  --samples N\n\
            --seed S  --threads N  --top K  --stride N  --json  --new-encoding\n\
            --no-block-cache  --trace-out PATH  --progress  --recorder\n\
            --propagation  --addr 0xADDR  --byte N  --bit N  --from-trace\n\
            --batch N  --target-ci WIDTH  --resume LEDGER  --from-scratch\n\
            --profile  --chrome-trace OUT.json  --out PATH  --factor F\n\
            --cache DIR  --no-cache  --max-size BYTES[k|m|g]  --max-age SECS[h|d]\n\
     stats takes the trace file as a positional argument: fisec stats run.jsonl\n\
     explain renders one injection's divergence timeline: fisec explain --app ftpd --addr 0xADDR --byte N --bit N\n\
     propagate renders the same injection's corruption (taint) timeline; --propagation arms the tracer campaign-wide\n\
     random streams a sharded campaign; --trace-out doubles as its resumable ledger\n\
     profile runs a profiled campaign (or replays one: fisec profile run.jsonl) and ranks hot blocks; --json emits the tables as JSON\n\
     profile --baseline OLD.jsonl adds the residual slow-path delta vs an earlier saved trace\n\
     report renders a saved trace as one self-contained HTML file: fisec report run.jsonl --out report.html\n\
     bench-diff measures a fresh campaign against the recorded baseline: fisec bench-diff BENCH_campaign.json\n\
     campaign commands accept --profile (hot-spot profiler) and --chrome-trace OUT.json (Perfetto span export)\n\
     campaign commands memoize checkpoint groups in ~/.fisec-cache (override: --cache DIR, disable: --no-cache)\n\
     cache ls|verify|gc inspects the store: ls lists entries, verify re-executes a sampled group per store\n\
     and diffs it against the memoized runs (nonzero exit on drift), gc evicts by --max-size / --max-age"
        .to_string()
}

/// Parse a byte size with an optional k/m/g suffix (powers of 1024).
fn parse_size(s: &str) -> Result<u64, String> {
    let num = s.trim_end_matches(|c: char| c.is_ascii_alphabetic());
    let mult = match s[num.len()..].to_ascii_lowercase().as_str() {
        "" | "b" => 1u64,
        "k" | "kb" => 1 << 10,
        "m" | "mb" => 1 << 20,
        "g" | "gb" => 1 << 30,
        other => return Err(format!("--max-size: unknown suffix `{other}`")),
    };
    let v: u64 = num.parse().map_err(|e| format!("--max-size {s}: {e}"))?;
    Ok(v.saturating_mul(mult))
}

/// Parse an age with an optional s/m/h/d suffix (plain number = seconds).
fn parse_age(s: &str) -> Result<u64, String> {
    let num = s.trim_end_matches(|c: char| c.is_ascii_alphabetic());
    let mult = match s[num.len()..].to_ascii_lowercase().as_str() {
        "" | "s" => 1u64,
        "m" => 60,
        "h" => 3600,
        "d" => 86_400,
        other => return Err(format!("--max-age: unknown suffix `{other}`")),
    };
    let v: u64 = num.parse().map_err(|e| format!("--max-age {s}: {e}"))?;
    Ok(v.saturating_mul(mult))
}

/// The campaign cache the run commands use: `--no-cache` disables,
/// `--cache DIR` overrides the default `~/.fisec-cache` (which is
/// silently off when `HOME` is unset).
fn cache_for(args: &Args) -> Option<CampaignCache> {
    if args.no_cache {
        return None;
    }
    match &args.cache {
        Some(dir) => Some(CampaignCache::at(std::path::PathBuf::from(dir))),
        None => CampaignCache::default_root().map(CampaignCache::at),
    }
}

fn apps_for(name: &str) -> Result<Vec<AppSpec>, String> {
    match name {
        "ftpd" => Ok(vec![AppSpec::ftpd()]),
        "sshd" => Ok(vec![AppSpec::sshd()]),
        "both" => Ok(vec![AppSpec::ftpd(), AppSpec::sshd()]),
        other => Err(format!("unknown app `{other}` (use ftpd, sshd or both)")),
    }
}

fn cfg_of(a: &Args, scheme: EncodingScheme) -> CampaignConfig {
    let mut cfg = CampaignConfig {
        scheme,
        block_cache: !a.no_block_cache,
        flight_recorder: a.recorder || a.from_trace,
        propagation: a.propagation,
        profiler: a.profile,
        spans: a.chrome_trace.is_some(),
        ..CampaignConfig::default()
    };
    if let Some(t) = a.threads {
        cfg.threads = t;
    }
    cfg
}

/// Build the telemetry bundle the campaign commands run under:
/// `--trace-out` streams JSONL events, `--progress` adds the live meter
/// (and, on its own, still collects metrics for the stderr breakdown).
/// `--chrome-trace` without `--trace-out` retains the events in memory
/// (the second tuple slot) so the span exporter has something to read.
fn telemetry_for(args: &Args) -> Result<(Telemetry, Option<Arc<MemorySink>>), String> {
    match &args.trace_out {
        Some(path) => {
            let sink = JsonlSink::create(path).map_err(|e| format!("{path}: {e}"))?;
            Ok((Telemetry::new(Arc::new(sink), args.progress), None))
        }
        None if args.chrome_trace.is_some() => {
            let mem = Arc::new(MemorySink::new());
            Ok((
                Telemetry::new(Arc::<MemorySink>::clone(&mem), args.progress),
                Some(mem),
            ))
        }
        None if args.progress => Ok((Telemetry::new(Arc::new(NullSink), true), None)),
        None => Ok((Telemetry::disabled(), None)),
    }
}

/// Export the campaign's span events as Chrome trace-event JSON
/// (`--chrome-trace OUT.json`, loadable in Perfetto / `chrome://tracing`).
/// Spans are re-read from the `--trace-out` file when one was written,
/// otherwise from the retained in-memory sink; strict per-lane nesting
/// is verified before anything is written.
fn export_chrome_trace(args: &Args, mem: Option<&MemorySink>) -> Result<(), String> {
    let Some(out) = &args.chrome_trace else {
        return Ok(());
    };
    let events = match (&args.trace_out, mem) {
        (Some(path), _) => fisec_telemetry::read_jsonl_path(path)?,
        (None, Some(m)) => m.events(),
        (None, None) => return Err("--chrome-trace needs an event stream".to_string()),
    };
    let spans = events
        .iter()
        .filter(|e| matches!(e, fisec_telemetry::TraceEvent::Span(_)))
        .count();
    if spans == 0 {
        return Err("no span events were recorded (is span tracing on?)".to_string());
    }
    fisec_telemetry::check_span_nesting(&events)?;
    let json = fisec_telemetry::chrome_trace_json(&events);
    std::fs::write(out, &json).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("chrome trace: {out} ({spans} spans)");
    Ok(())
}

/// After the campaigns: print the phase breakdown and engine metrics to
/// stderr when the user asked to watch (`--progress`).
fn report_telemetry(args: &Args, tel: &Telemetry, wall_start: Instant) {
    tel.sink.flush();
    if !args.progress {
        return;
    }
    let snap = tel.metrics.snapshot();
    let wall = u64::try_from(wall_start.elapsed().as_micros()).unwrap_or(u64::MAX);
    eprint!(
        "{}",
        fisec_telemetry::render_phase_table(snap.phases(), wall)
    );
    eprint!("{}", snap.render());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run(args: &Args) -> Result<(), String> {
    if !matches!(
        args.cmd.as_str(),
        "stats" | "profile" | "report" | "bench-diff" | "cache"
    ) {
        if let Some(p) = &args.path {
            return Err(format!(
                "unexpected argument `{p}` (only stats/profile/report/bench-diff/cache take a positional)"
            ));
        }
    }
    match args.cmd.as_str() {
        "help" => {
            println!("{}", usage());
        }
        "table1" | "table3" => {
            let apps = apps_for(&args.app)?;
            let scheme = if args.new_encoding {
                EncodingScheme::NewEncoding
            } else {
                EncodingScheme::Baseline
            };
            let cfg = cfg_of(args, scheme);
            let cache = cache_for(args);
            let (tel, mem) = telemetry_for(args)?;
            let wall_start = Instant::now();
            let results: Vec<_> = apps
                .iter()
                .map(|a| run_campaign_cached(a, &cfg, &tel, cache.as_ref()))
                .collect();
            report_telemetry(args, &tel, wall_start);
            export_chrome_trace(args, mem.as_deref())?;
            let refs: Vec<_> = results.iter().collect();
            if args.json {
                for r in &results {
                    println!("{}", CampaignSummary::from(r).to_json());
                }
            } else if args.cmd == "table1" {
                println!("{}", tables::render_table1(&refs));
            } else {
                println!("{}", tables::render_table2());
                println!("{}", tables::render_table3(&refs));
            }
        }
        "table5" => {
            let apps = apps_for(&args.app)?;
            let base_cfg = cfg_of(args, EncodingScheme::Baseline);
            let new_cfg = cfg_of(args, EncodingScheme::NewEncoding);
            let cache = cache_for(args);
            let (tel, mem) = telemetry_for(args)?;
            let wall_start = Instant::now();
            let base: Vec<_> = apps
                .iter()
                .map(|a| run_campaign_cached(a, &base_cfg, &tel, cache.as_ref()))
                .collect();
            let new: Vec<_> = apps
                .iter()
                .map(|a| run_campaign_cached(a, &new_cfg, &tel, cache.as_ref()))
                .collect();
            report_telemetry(args, &tel, wall_start);
            export_chrome_trace(args, mem.as_deref())?;
            if args.json {
                for r in base.iter().chain(&new) {
                    println!("{}", CampaignSummary::from(r).to_json());
                }
            } else {
                println!("{}", fisec_encoding::render_table4());
                let b: Vec<_> = base.iter().collect();
                let n: Vec<_> = new.iter().collect();
                println!("{}", tables::render_table5(&b, &n));
            }
        }
        "figure4" => {
            let apps = apps_for(if args.app == "both" {
                "ftpd"
            } else {
                &args.app
            })?;
            let app = &apps[0];
            if args.client == 0 || args.client > app.clients.len() {
                return Err(format!(
                    "--client {} out of range for {} (valid: 1..={})",
                    args.client,
                    app.name,
                    app.clients.len()
                ));
            }
            let cfg = cfg_of(args, EncodingScheme::Baseline);
            let cache = cache_for(args);
            let (tel, mem) = telemetry_for(args)?;
            let wall_start = Instant::now();
            let result = run_campaign_cached(app, &cfg, &tel, cache.as_ref());
            report_telemetry(args, &tel, wall_start);
            export_chrome_trace(args, mem.as_deref())?;
            let c = &result.clients[args.client - 1];
            let h = if args.from_trace {
                // Rebuild Figure 4 purely from the recorded flight
                // traces and hard-check it against the live histogram:
                // any difference is an engine bug, not a rendering one.
                let live = figure4::histogram(&c.crash_latencies);
                let traced = figure4::histogram(&c.trace_crash_latencies);
                if traced != live {
                    return Err(format!(
                        "trace-derived Figure 4 diverges from the live histogram:\n\
                         trace-derived:\n{}\nlive:\n{}",
                        figure4::render(&traced),
                        figure4::render(&live)
                    ));
                }
                eprintln!(
                    "figure4: rebuilt from {} recorded traces; matches the live histogram",
                    traced.samples
                );
                traced
            } else {
                figure4::histogram(&c.crash_latencies)
            };
            if args.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&h).map_err(|e| e.to_string())?
                );
            } else {
                println!("{}", figure4::render(&h));
                println!(
                    "transient deviations before crash: {} of {}",
                    c.transient_deviations,
                    c.crash_latencies.len()
                );
            }
        }
        "explain" | "propagate" => {
            let apps = apps_for(if args.app == "both" {
                "ftpd"
            } else {
                &args.app
            })?;
            let app = &apps[0];
            let addr = args.addr.ok_or_else(|| {
                format!(
                    "{} needs --addr 0xADDR (see `fisec breakins` for candidates)",
                    args.cmd
                )
            })?;
            check_flip_byte(app, addr, args.byte)?;
            let scheme = if args.new_encoding {
                EncodingScheme::NewEncoding
            } else {
                EncodingScheme::Baseline
            };
            let text = if args.cmd == "explain" {
                fisec_core::explain::explain(app, args.client, addr, args.byte, args.bit, scheme)?
            } else {
                fisec_core::propagate::propagate(
                    app,
                    args.client,
                    addr,
                    args.byte,
                    args.bit,
                    scheme,
                )?
            };
            print!("{text}");
        }
        "stats" => {
            let path = args
                .path
                .as_ref()
                .ok_or("stats needs a trace file: fisec stats run.jsonl")?;
            let replay = trace::read_trace(path)?;
            if replay.campaigns.is_empty() && replay.random.is_empty() {
                return Err(format!("{path}: no campaigns in trace"));
            }
            if args.json {
                for c in &replay.campaigns {
                    println!("{}", CampaignSummary::from(&c.result).to_json());
                }
                for r in &replay.random {
                    let summary = r.stats.json_summary();
                    println!(
                        "{}",
                        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
                    );
                }
            } else {
                print!("{}", trace::render_stats(&replay));
            }
        }
        "random" => {
            let apps = apps_for(if args.app == "both" {
                "ftpd"
            } else {
                &args.app
            })?;
            let app = &apps[0];
            let engine = fisec_inject::EngineOpts {
                block_cache: !args.no_block_cache,
                ..fisec_inject::EngineOpts::default()
            };
            let threads = args.threads.unwrap_or(1).max(1);
            let wall_start = Instant::now();
            let (stats, prior_runs) = if let Some(ledger_path) = &args.resume {
                // Resume: the ledger header is the configuration; only
                // execution knobs (threads, engine) come from flags.
                let ledger = random::read_ledger(ledger_path)?;
                if ledger.header.app != app.name {
                    return Err(format!(
                        "{ledger_path} records a campaign for {} but --app selects {} \
                         (rerun with --app {})",
                        ledger.header.app, app.name, ledger.header.app
                    ));
                }
                let mut cfg = random::RandomConfig::from_header(&ledger.header, threads, engine)?;
                cfg.client = app
                    .clients
                    .iter()
                    .position(|c| c.name == ledger.header.client)
                    .ok_or_else(|| {
                        format!(
                            "ledger client `{}` is not a client of {}",
                            ledger.header.client, app.name
                        )
                    })?;
                random::truncate_torn_tail(ledger_path, &ledger)?;
                let sink =
                    JsonlSink::append(ledger_path).map_err(|e| format!("{ledger_path}: {e}"))?;
                let tel = Telemetry::new(Arc::new(sink), args.progress);
                let stats = random::resume_random_streaming(app, &cfg, &ledger, &tel)?;
                report_telemetry(args, &tel, wall_start);
                (stats, ledger.committed as usize)
            } else {
                if args.client == 0 || args.client > app.clients.len() {
                    return Err(format!(
                        "--client {} out of range for {} (valid: 1..={})",
                        args.client,
                        app.name,
                        app.clients.len()
                    ));
                }
                let cfg = random::RandomConfig {
                    runs: args.runs,
                    seed: args.seed,
                    scheme: if args.new_encoding {
                        EncodingScheme::NewEncoding
                    } else {
                        EncodingScheme::Baseline
                    },
                    mode: if args.from_scratch {
                        fisec_core::ExecutionMode::FromScratch
                    } else {
                        fisec_core::ExecutionMode::Snapshot
                    },
                    client: args.client - 1,
                    threads,
                    batch: args.batch,
                    target_ci: args.target_ci,
                    engine,
                };
                let (tel, _) = telemetry_for(args)?;
                let stats = random::run_random_streaming(app, &cfg, &tel)?;
                report_telemetry(args, &tel, wall_start);
                (stats, 0)
            };
            if args.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&stats.json_summary())
                        .map_err(|e| e.to_string())?
                );
            } else {
                print!("{}", random::render_report(&stats));
                let secs = wall_start.elapsed().as_secs_f64();
                let executed = stats.result.runs.saturating_sub(prior_runs);
                eprintln!(
                    "wall {secs:.1}s ({:.0} runs/s this invocation)",
                    if secs > 0.0 {
                        executed as f64 / secs
                    } else {
                        0.0
                    }
                );
            }
        }
        "profile" => {
            let top = args.top.unwrap_or(fisec_core::hotblocks::DEFAULT_TOP);
            if let Some(path) = &args.path {
                // Replay: render the profile events a saved trace carries.
                let replay = trace::read_trace(path)?;
                let profiled: Vec<_> = replay
                    .campaigns
                    .iter()
                    .filter_map(|c| c.profile.as_ref())
                    .collect();
                if profiled.is_empty() {
                    return Err(format!(
                        "{path}: no profile events (record the trace with --profile)"
                    ));
                }
                for p in &profiled {
                    if args.json {
                        // Machine-readable mirror of the hot-block and
                        // slow-path tables: one ProfileEvent JSON doc
                        // per profiled campaign (schema in README.md).
                        println!(
                            "{}",
                            serde_json::to_string_pretty(*p).map_err(|e| e.to_string())?
                        );
                        continue;
                    }
                    println!("== {} — {} engine ==", p.app, p.mode);
                    let app = match p.app.as_str() {
                        "ftpd" => Some(AppSpec::ftpd()),
                        "sshd" => Some(AppSpec::sshd()),
                        _ => None,
                    };
                    print!(
                        "{}",
                        fisec_core::hotblocks::render_hot_blocks(
                            &p.data,
                            app.as_ref().map(|a| &a.image),
                            top
                        )
                    );
                }
                if let Some(base_path) = &args.baseline {
                    // Burn-down view: this trace's residual slow path
                    // against an earlier saved trace of the same
                    // workload, tagging shapes lowered since then.
                    let base = trace::read_trace(base_path)?;
                    let mut before = fisec_telemetry::ProfileData::default();
                    for c in &base.campaigns {
                        if let Some(p) = &c.profile {
                            before.merge(&p.data);
                        }
                    }
                    if before.is_empty() {
                        return Err(format!(
                            "{base_path}: no profile events (record the baseline with --profile)"
                        ));
                    }
                    let mut now = fisec_telemetry::ProfileData::default();
                    for p in &profiled {
                        now.merge(&p.data);
                    }
                    print!(
                        "{}",
                        fisec_core::hotblocks::render_slow_delta(&now, &before)
                    );
                }
            } else {
                // Live: run each selected app's campaign with the
                // profiler on (results are bit-identical either way —
                // the differential tests pin it) and rank its blocks.
                let apps = apps_for(if args.app == "both" {
                    "ftpd"
                } else {
                    &args.app
                })?;
                let scheme = if args.new_encoding {
                    EncodingScheme::NewEncoding
                } else {
                    EncodingScheme::Baseline
                };
                let mut now = fisec_telemetry::ProfileData::default();
                for app in &apps {
                    let mut cfg = cfg_of(args, scheme);
                    cfg.profiler = true;
                    let tel = Telemetry::new(Arc::new(NullSink), args.progress);
                    run_campaign_traced(app, &cfg, &tel);
                    let snap = tel.metrics.snapshot();
                    if args.json {
                        let ev = fisec_telemetry::ProfileEvent {
                            app: app.name.to_string(),
                            mode: cfg.mode.name().to_string(),
                            data: snap.profile().clone(),
                        };
                        println!(
                            "{}",
                            serde_json::to_string_pretty(&ev).map_err(|e| e.to_string())?
                        );
                    } else {
                        println!(
                            "== {} [{}] — {} engine ==",
                            app.name,
                            scheme,
                            cfg.mode.name()
                        );
                        print!(
                            "{}",
                            fisec_core::hotblocks::render_hot_blocks(
                                snap.profile(),
                                Some(&app.image),
                                top
                            )
                        );
                    }
                    now.merge(snap.profile());
                }
                if let Some(base_path) = &args.baseline {
                    let base = trace::read_trace(base_path)?;
                    let mut before = fisec_telemetry::ProfileData::default();
                    for c in &base.campaigns {
                        if let Some(p) = &c.profile {
                            before.merge(&p.data);
                        }
                    }
                    if before.is_empty() {
                        return Err(format!(
                            "{base_path}: no profile events (record the baseline with --profile)"
                        ));
                    }
                    print!(
                        "{}",
                        fisec_core::hotblocks::render_slow_delta(&now, &before)
                    );
                }
            }
        }
        "report" => {
            let path = args
                .path
                .as_ref()
                .ok_or("report needs a trace file: fisec report run.jsonl [--out report.html]")?;
            let replay = trace::read_trace(path)?;
            if replay.campaigns.is_empty() && replay.random.is_empty() {
                return Err(format!("{path}: no campaigns in trace"));
            }
            let html = fisec_core::report::render_html(&replay);
            let out = args.out.clone().unwrap_or_else(|| {
                let stem = path.strip_suffix(".jsonl").unwrap_or(path);
                format!("{stem}.html")
            });
            std::fs::write(&out, &html).map_err(|e| format!("{out}: {e}"))?;
            println!("report: {out} ({} bytes)", html.len());
        }
        "bench-diff" => {
            let path = args.path.as_ref().ok_or(
                "bench-diff needs the baseline file: fisec bench-diff BENCH_campaign.json [--factor F]",
            )?;
            let baseline = fisec_core::benchdiff::read_baseline(path)?;
            eprintln!(
                "bench-diff: measuring one full ftpd baseline campaign, plain, profiled and taint-traced ..."
            );
            let measured = fisec_core::benchdiff::measure();
            let rows = fisec_core::benchdiff::compare(&baseline, &measured, args.factor);
            print!("{}", fisec_core::benchdiff::render(&rows, args.factor));
            if fisec_core::benchdiff::regressed(&rows) {
                let n = rows.iter().filter(|r| !r.ok).count();
                return Err(format!(
                    "{n} metric(s) regressed past their thresholds (baseline {path})"
                ));
            }
        }
        "load" => {
            let apps = apps_for(if args.app == "both" {
                "ftpd"
            } else {
                &args.app
            })?;
            let r = load::run_load_study(&apps[0], args.samples, args.seed);
            if args.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&r).map_err(|e| e.to_string())?
                );
            } else {
                println!("{}", load::render(&r));
            }
        }
        "targets" => {
            for app in apps_for(&args.app)? {
                let set = enumerate_targets(&app.image, &app.auth_funcs, false);
                println!(
                    "{}: {} branch instructions ({} conditional), {} injection runs per client, auth = {:.1}% of text",
                    app.name,
                    set.instructions,
                    set.cond_branches,
                    set.runs(),
                    app.image.text_fraction(&app.auth_funcs) * 100.0
                );
            }
        }
        "disasm" => {
            let apps = apps_for(if args.app == "both" {
                "ftpd"
            } else {
                &args.app
            })?;
            let app = &apps[0];
            let funcs: Vec<String> = match &args.func {
                Some(f) => vec![f.clone()],
                None => app.auth_funcs.iter().map(|s| s.to_string()).collect(),
            };
            for name in funcs {
                let f = app
                    .image
                    .func(&name)
                    .ok_or(format!("no function `{name}` in {}", app.name))?
                    .clone();
                println!("{:08x} <{}>:", f.start, f.name);
                let start = (f.start - app.image.text_base) as usize;
                let end = (f.end - app.image.text_base) as usize;
                for line in fisec_x86::disassemble(&app.image.text[start..end], f.start) {
                    println!("{line}");
                }
                println!();
            }
        }
        "breakins" => {
            for app in apps_for(&args.app)? {
                let client = &app.clients[0];
                let golden = golden_run(&app.image, client).map_err(|e| e.to_string())?;
                let set = enumerate_targets(&app.image, &app.auth_funcs, true);
                println!("{} ({}):", app.name, client.name);
                for t in set
                    .targets
                    .iter()
                    .filter(|t| t.byte_index == 0 || (t.first_byte == 0x0F && t.byte_index == 1))
                {
                    let r = run_injection(&app.image, client, &golden, t, EncodingScheme::Baseline)
                        .map_err(|e| e.to_string())?;
                    if r.outcome == OutcomeClass::Breakin {
                        let off = (t.addr - app.image.text_base) as usize;
                        let before = fisec_x86::decode(&app.image.text[off..off + 8]);
                        let mut bytes = app.image.text[off..off + 8].to_vec();
                        bytes[t.byte_index as usize] ^= 1 << t.bit;
                        let after = fisec_x86::decode(&bytes);
                        println!(
                            "  {:08x}: {}  ->  {}  (bit {} of byte {})",
                            t.addr,
                            fisec_x86::fmt_att(&before, t.addr),
                            fisec_x86::fmt_att(&after, t.addr),
                            t.bit,
                            t.byte_index
                        );
                    }
                }
            }
        }
        "ablation" => {
            let cfg = cfg_of(args, EncodingScheme::Baseline);
            println!("== entry points (sshd, Client1) ==");
            let ep = fisec_core::ablation::entry_points_study(&cfg);
            println!("{}", fisec_core::ablation::render_entry_points(&ep));
            println!("== sampling vs exhaustive (ftpd, Client1) ==");
            let mut ftpd = AppSpec::ftpd();
            ftpd.clients.truncate(1);
            let result = run_campaign(&ftpd, &cfg);
            let (truth, rows) = fisec_core::ablation::sampling_study(
                &result,
                0,
                &[50, 200, 500, result.runs_per_client],
                500,
                args.seed,
            );
            println!("{}", fisec_core::ablation::render_sampling(truth, &rows));
        }
        "forensics" => {
            let apps = apps_for(if args.app == "both" {
                "ftpd"
            } else {
                &args.app
            })?;
            let app = &apps[0];
            let client = &app.clients[0];
            let set = enumerate_targets(&app.image, &app.auth_funcs, false);
            // Collect crash reports and show the longest transient
            // windows, sampling every `--stride`th bit for speed
            // (stride 1 = exhaustive).
            let mut reports = Vec::new();
            for t in &set.targets {
                if !(t.bit as usize).is_multiple_of(args.stride) {
                    continue;
                }
                if let Some(r) = crash_forensics(&app.image, client, t, EncodingScheme::Baseline)
                    .map_err(|e| e.to_string())?
                {
                    reports.push((t.addr, r));
                }
            }
            reports.sort_by_key(|(_, r)| std::cmp::Reverse(r.latency));
            let top = args.top.unwrap_or(3);
            println!(
                "{} crashes sampled; {} longest transient windows:",
                reports.len(),
                top
            );
            for (addr, r) in reports.iter().take(top) {
                println!("\ninjected at {addr:#010x}:");
                print!("{r}");
            }
        }
        "cache" => {
            let op = args
                .path
                .as_deref()
                .ok_or("cache needs an operation: fisec cache <ls|verify|gc>")?;
            let root = match &args.cache {
                Some(dir) => std::path::PathBuf::from(dir),
                None => CampaignCache::default_root()
                    .ok_or("no cache root: HOME is unset (use --cache DIR)")?,
            };
            match op {
                "ls" => cache_ls(&root),
                "verify" => cache_verify(&root, args.seed)?,
                "gc" => {
                    if args.max_size.is_none() && args.max_age.is_none() {
                        return Err(
                            "cache gc needs an eviction bound: --max-size and/or --max-age"
                                .to_string(),
                        );
                    }
                    let report = cache::gc(&root, args.max_size, args.max_age);
                    for (file, bytes) in &report.evicted {
                        println!("evicted {file} ({bytes} bytes)");
                    }
                    println!(
                        "{} evicted, {} kept ({} bytes)",
                        report.evicted.len(),
                        report.kept,
                        report.kept_bytes
                    );
                }
                other => {
                    return Err(format!(
                        "unknown cache operation `{other}` (use ls/verify/gc)"
                    ))
                }
            }
        }
        other => return Err(format!("unknown command `{other}`\n{}", usage())),
    }
    Ok(())
}

/// Hard-check `--byte` against the decoded instruction at `--addr`:
/// a byte index past the instruction's encoded length would flip the
/// *next* instruction, so it is an argument error, not a silent
/// enumeration miss. Addresses outside the text section fall through
/// to the target lookup's own diagnostic.
fn check_flip_byte(app: &AppSpec, addr: u32, byte: u8) -> Result<(), String> {
    let Some(off) = addr
        .checked_sub(app.image.text_base)
        .map(|o| o as usize)
        .filter(|&o| o < app.image.text.len())
    else {
        return Ok(());
    };
    let end = (off + 16).min(app.image.text.len());
    let len = fisec_x86::decode(&app.image.text[off..end]).len;
    if byte >= len {
        return Err(format!(
            "--byte {byte} out of range: the instruction at {addr:#010x} is {len} byte(s) \
             long (valid bytes: 0..={})",
            len - 1
        ));
    }
    Ok(())
}

/// `fisec cache ls`: one row per store file.
fn cache_ls(root: &std::path::Path) {
    let rows = cache::ls(root);
    if rows.is_empty() {
        println!("no cache stores under {}", root.display());
        return;
    }
    println!(
        "{:<34} {:>8} {:>7} {:>8}  contents",
        "store", "bytes", "age", "groups"
    );
    let mut total = 0u64;
    for r in &rows {
        total += r.bytes;
        let contents = match &r.store {
            Some(s) => format!(
                "{}/{} [{}]{}  {} memoized runs",
                s.app,
                s.client,
                s.scheme,
                if s.recorder { " +recorder" } else { "" },
                s.groups.iter().map(|g| g.runs.len()).sum::<usize>()
            ),
            None => "invalid or stale-schema (cold miss)".to_string(),
        };
        println!(
            "{:<34} {:>8} {:>6}s {:>8}  {}",
            r.file,
            r.bytes,
            r.age_secs,
            r.store.as_ref().map_or(0, |s| s.groups.len()),
            contents
        );
    }
    println!("{} stores, {total} bytes", rows.len());
}

/// `fisec cache verify`: for every valid store, re-execute one
/// deterministically sampled group and diff the fresh outcomes against
/// the memoized entry. Catches the one documented soundness gap (code
/// bytes read as *data* are not in any footprint) and any store
/// corruption the shape checks cannot see.
///
/// # Errors
/// A drift report (nonzero exit) when any sampled group's re-execution
/// disagrees with its memoized runs.
fn cache_verify(root: &std::path::Path, seed: u64) -> Result<(), String> {
    let mut checked = 0usize;
    let mut drifted: Vec<String> = Vec::new();
    for summary in cache::ls(root) {
        let Some(store) = &summary.store else {
            println!(
                "{}: invalid or stale schema — skipped (cold miss)",
                summary.file
            );
            continue;
        };
        let app = match store.app.as_str() {
            "ftpd" => AppSpec::ftpd(),
            "sshd" => AppSpec::sshd(),
            "sshd-single-entry" => AppSpec::sshd_single_entry(),
            other => {
                println!("{}: unknown app `{other}` — skipped", summary.file);
                continue;
            }
        };
        let Some(spec) = app.clients.iter().find(|c| c.name == store.client) else {
            println!(
                "{}: unknown client `{}` — skipped",
                summary.file, store.client
            );
            continue;
        };
        let scheme = match store.scheme.as_str() {
            "base" => EncodingScheme::Baseline,
            "newenc" => EncodingScheme::NewEncoding,
            other => {
                println!("{}: unknown scheme `{other}` — skipped", summary.file);
                continue;
            }
        };
        let engine = fisec_inject::EngineOpts {
            flight_recorder: store.recorder,
            ..fisec_inject::EngineOpts::default()
        };
        let golden =
            fisec_inject::golden_run_opts(&app.image, spec, engine).map_err(|e| e.to_string())?;
        if cache::context_key(&app, spec, scheme, store.recorder, &golden) != store.context {
            println!(
                "{}: context key differs from the current build — entries will cold-miss",
                summary.file
            );
            continue;
        }
        if store.groups.is_empty() {
            continue;
        }
        let idx = (seed as usize) % store.groups.len();
        let entry = &store.groups[idx];
        let Some(targets) = cache::entry_targets(entry) else {
            drifted.push(format!(
                "{}: group @ {:#010x} has malformed targets",
                summary.file, entry.addr
            ));
            continue;
        };
        let (runs, _, _, _) = fisec_inject::run_injection_group_recorded(
            &app.image, spec, &golden, &targets, scheme, engine,
        )
        .map_err(|e| e.to_string())?;
        checked += 1;
        let mut mismatches = 0usize;
        for ((run, _meta, rep, _prop), cached) in runs.iter().zip(&entry.runs) {
            let div = rep.as_ref().map(|r| {
                (
                    r.divergence_depth,
                    run.crash_latency.map(|_| r.faulty.retired()),
                )
            });
            if fisec_inject::persist::encode_run(run, div) != *cached {
                mismatches += 1;
            }
        }
        if mismatches > 0 || runs.len() != entry.runs.len() {
            drifted.push(format!(
                "{}: group @ {:#010x}: {mismatches} of {} memoized runs drifted",
                summary.file,
                entry.addr,
                entry.runs.len()
            ));
        } else {
            println!(
                "{}: group @ {:#010x} ({} runs) verified",
                summary.file,
                entry.addr,
                entry.runs.len()
            );
        }
    }
    if drifted.is_empty() {
        println!("cache verify: {checked} sampled groups verified, no drift");
        Ok(())
    } else {
        Err(format!(
            "cache verify: drift detected:\n{}",
            drifted.join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_round_trip() {
        let a = parse(&["table1"]).unwrap();
        assert_eq!(a.cmd, "table1");
        assert_eq!(a.app, "both");
        assert_eq!(a.client, 1);
        assert_eq!(a.stride, 4);
        assert_eq!(a.threads, None);
        assert!(!a.json && !a.new_encoding && !a.progress);
        assert!(a.trace_out.is_none() && a.path.is_none() && a.func.is_none());
    }

    #[test]
    fn flags_round_trip() {
        let a = parse(&[
            "table1",
            "--app",
            "ftpd",
            "--threads",
            "2",
            "--json",
            "--new-encoding",
            "--trace-out",
            "t.jsonl",
            "--progress",
            "--stride",
            "1",
            "--client",
            "3",
        ])
        .unwrap();
        assert_eq!(a.app, "ftpd");
        assert_eq!(a.threads, Some(2));
        assert!(a.json && a.new_encoding && a.progress);
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(a.stride, 1);
        assert_eq!(a.client, 3);
    }

    #[test]
    fn explain_flags_round_trip() {
        let a = parse(&[
            "explain",
            "--app",
            "ftpd",
            "--addr",
            "0x08048123",
            "--byte",
            "1",
            "--bit",
            "5",
        ])
        .unwrap();
        assert_eq!(a.addr, Some(0x0804_8123));
        assert_eq!(a.byte, 1);
        assert_eq!(a.bit, 5);
        // Decimal addresses parse too; garbage is rejected.
        assert_eq!(parse(&["explain", "--addr", "64"]).unwrap().addr, Some(64));
        assert!(parse(&["explain", "--addr", "0xzz"]).is_err());
        // Without --addr the command itself errors out.
        let e = run(&parse(&["explain", "--app", "ftpd"]).unwrap()).unwrap_err();
        assert!(e.contains("--addr"), "{e}");
    }

    #[test]
    fn propagate_flags_round_trip() {
        let a = parse(&[
            "propagate",
            "--app",
            "sshd",
            "--addr",
            "0x08049100",
            "--byte",
            "2",
            "--bit",
            "6",
        ])
        .unwrap();
        assert_eq!(a.cmd, "propagate");
        assert_eq!(a.addr, Some(0x0804_9100));
        assert_eq!(a.byte, 2);
        assert_eq!(a.bit, 6);
        // Without --addr the command itself errors out, naming itself.
        let e = run(&parse(&["propagate", "--app", "ftpd"]).unwrap()).unwrap_err();
        assert!(e.contains("propagate needs --addr"), "{e}");
    }

    #[test]
    fn bit_out_of_range_is_a_parse_error() {
        // Bits above 7 are rejected at argument parse, not silently
        // wrapped into an enumeration miss.
        let e = parse(&["explain", "--bit", "8"]).unwrap_err();
        assert!(e.contains("0..=7"), "{e}");
        let e = parse(&["propagate", "--bit", "200"]).unwrap_err();
        assert!(e.contains("0..=7"), "{e}");
        // Values past u8 still fail (as a parse error).
        assert!(parse(&["explain", "--bit", "300"]).is_err());
        // The full valid range parses.
        for bit in 0..=7u8 {
            assert_eq!(
                parse(&["explain", "--bit", &bit.to_string()]).unwrap().bit,
                bit
            );
        }
    }

    #[test]
    fn byte_past_instruction_length_is_rejected() {
        // x86 instructions are at most 15 bytes, so --byte 15 is out of
        // range for any real instruction: both explain and propagate
        // must hard-error instead of reporting a missing target.
        let app = AppSpec::ftpd();
        let addr = enumerate_targets(&app.image, &app.auth_funcs, false).targets[0].addr;
        for cmd in ["explain", "propagate"] {
            let a = Args {
                byte: 15,
                addr: Some(addr),
                app: "ftpd".into(),
                ..parse(&[cmd]).unwrap()
            };
            let e = run(&a).unwrap_err();
            assert!(e.contains("--byte 15 out of range"), "{cmd}: {e}");
            assert!(e.contains("byte(s)"), "{cmd}: {e}");
        }
    }

    #[test]
    fn propagation_flag_arms_the_tracer_campaign_wide() {
        let a = parse(&["table1", "--propagation"]).unwrap();
        assert!(a.propagation);
        assert!(cfg_of(&a, EncodingScheme::Baseline).propagation);
        let plain = parse(&["table1"]).unwrap();
        assert!(!cfg_of(&plain, EncodingScheme::Baseline).propagation);
        assert!(usage().contains("--propagation"), "{}", usage());
    }

    #[test]
    fn recorder_flags_enable_the_flight_recorder() {
        let a = parse(&["table1"]).unwrap();
        assert!(!cfg_of(&a, EncodingScheme::Baseline).flight_recorder);
        let a = parse(&["table1", "--recorder"]).unwrap();
        assert!(cfg_of(&a, EncodingScheme::Baseline).flight_recorder);
        // --from-trace implies the recorder: the histogram cannot be
        // rebuilt from traces nobody recorded.
        let a = parse(&["figure4", "--from-trace"]).unwrap();
        assert!(a.from_trace);
        assert!(cfg_of(&a, EncodingScheme::Baseline).flight_recorder);
    }

    #[test]
    fn no_block_cache_flag_disables_engine() {
        let a = parse(&["table1"]).unwrap();
        assert!(!a.no_block_cache);
        assert!(cfg_of(&a, EncodingScheme::Baseline).block_cache);
        let a = parse(&["table1", "--no-block-cache"]).unwrap();
        assert!(a.no_block_cache);
        assert!(!cfg_of(&a, EncodingScheme::Baseline).block_cache);
    }

    #[test]
    fn profile_baseline_flag_parses_and_requires_profile_events() {
        let a = parse(&["profile", "run.jsonl", "--baseline", "old.jsonl"]).unwrap();
        assert_eq!(a.path.as_deref(), Some("run.jsonl"));
        assert_eq!(a.baseline.as_deref(), Some("old.jsonl"));
        assert!(usage().contains("--baseline"), "{}", usage());
    }

    #[test]
    fn unknown_flag_is_rejected_with_usage() {
        let e = parse(&["table1", "--martian"]).unwrap_err();
        assert!(e.contains("unknown flag `--martian`"), "{e}");
        assert!(e.contains("usage:"), "{e}");
    }

    #[test]
    fn missing_flag_value_is_rejected() {
        let e = parse(&["table1", "--threads"]).unwrap_err();
        assert!(e.contains("--threads needs a value"), "{e}");
        let e = parse(&["figure4", "--trace-out"]).unwrap_err();
        assert!(e.contains("--trace-out needs a value"), "{e}");
    }

    #[test]
    fn non_numeric_values_are_rejected() {
        assert!(parse(&["table1", "--threads", "many"]).is_err());
        assert!(parse(&["figure4", "--client", "first"]).is_err());
        assert!(parse(&["forensics", "--stride", "-1"]).is_err());
    }

    #[test]
    fn zero_stride_is_rejected() {
        let e = parse(&["forensics", "--stride", "0"]).unwrap_err();
        assert!(e.contains("--stride must be at least 1"), "{e}");
    }

    #[test]
    fn positional_path_lands_in_path() {
        let a = parse(&["stats", "run.jsonl", "--json"]).unwrap();
        assert_eq!(a.path.as_deref(), Some("run.jsonl"));
        assert!(a.json);
        // A second positional is an error, not a silent overwrite.
        assert!(parse(&["stats", "a.jsonl", "b.jsonl"]).is_err());
    }

    #[test]
    fn no_command_shows_usage() {
        let e = parse(&[]).unwrap_err();
        assert!(e.contains("usage:"), "{e}");
    }

    #[test]
    fn figure4_client_range_is_checked() {
        for bad in [0, 99] {
            let a = Args {
                client: bad,
                ..parse(&["figure4", "--app", "ftpd"]).unwrap()
            };
            let e = run(&a).unwrap_err();
            assert!(e.contains("out of range"), "client {bad}: {e}");
            assert!(e.contains("1..="), "client {bad}: {e}");
        }
    }

    #[test]
    fn positional_rejected_outside_stats() {
        let a = parse(&["table1", "run.jsonl"]).unwrap();
        let e = run(&a).unwrap_err();
        assert!(e.contains("unexpected argument"), "{e}");
    }

    #[test]
    fn help_is_a_first_class_command() {
        // `fisec help`, `fisec --help` and `fisec -h` all parse into
        // the help command, which run() serves on stdout with exit 0.
        for argv in [&["help"][..], &["--help"], &["-h"], &["table1", "--help"]] {
            let a = parse(argv).unwrap();
            assert_eq!(a.cmd, "help", "{argv:?}");
            run(&a).unwrap();
        }
        // The usage text names every observatory command and flag.
        let u = usage();
        for needle in [
            "profile",
            "report",
            "bench-diff",
            "--chrome-trace",
            "--factor",
        ] {
            assert!(u.contains(needle), "usage lacks {needle}:\n{u}");
        }
    }

    #[test]
    fn observatory_flags_round_trip() {
        let a = parse(&[
            "table1",
            "--profile",
            "--chrome-trace",
            "spans.json",
            "--out",
            "r.html",
            "--factor",
            "2.5",
            "--top",
            "7",
        ])
        .unwrap();
        assert!(a.profile);
        assert_eq!(a.chrome_trace.as_deref(), Some("spans.json"));
        assert_eq!(a.out.as_deref(), Some("r.html"));
        assert!((a.factor - 2.5).abs() < 1e-9);
        assert_eq!(a.top, Some(7));
        // The campaign config mirrors them: --profile turns the
        // profiler on, --chrome-trace turns span tracing on.
        let cfg = cfg_of(&a, EncodingScheme::Baseline);
        assert!(cfg.profiler && cfg.spans);
        let plain = cfg_of(&parse(&["table1"]).unwrap(), EncodingScheme::Baseline);
        assert!(!plain.profiler && !plain.spans);
    }

    #[test]
    fn factor_must_be_positive() {
        for bad in ["0", "-1", "nope"] {
            assert!(parse(&["bench-diff", "--factor", bad]).is_err(), "{bad}");
        }
    }

    #[test]
    fn report_and_bench_diff_take_a_positional() {
        let a = parse(&["report", "run.jsonl"]).unwrap();
        assert_eq!(a.path.as_deref(), Some("run.jsonl"));
        let a = parse(&["bench-diff", "BENCH_campaign.json"]).unwrap();
        assert_eq!(a.path.as_deref(), Some("BENCH_campaign.json"));
        // Without one, both error out with a pointer to the usage.
        let e = run(&parse(&["report"]).unwrap()).unwrap_err();
        assert!(e.contains("report needs a trace file"), "{e}");
        let e = run(&parse(&["bench-diff"]).unwrap()).unwrap_err();
        assert!(e.contains("bench-diff needs the baseline file"), "{e}");
    }

    #[test]
    fn profile_replay_requires_profile_events() {
        // A trace recorded without --profile is a user error, not an
        // empty table.
        let dir = std::env::temp_dir().join("fisec_profile_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plain.jsonl");
        let sink = fisec_telemetry::JsonlSink::create(&path).unwrap();
        let tel = Telemetry::new(Arc::new(sink), false);
        let cfg = fisec_core::CampaignConfig {
            cond_branches_only: true,
            ..fisec_core::CampaignConfig::default()
        };
        run_campaign_traced(&AppSpec::ftpd(), &cfg, &tel);
        let a = parse(&["profile", path.to_str().unwrap()]).unwrap();
        let e = run(&a).unwrap_err();
        assert!(e.contains("no profile events"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_replays_traces_saved_with_tier2_fields() {
        // Traces saved while the engine had a trace tier carry
        // `hot_traces` and `trace_*` in their profile events. They must
        // still parse, and render as a profile and as a baseline.
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/report_trace.jsonl"
        );
        let text = std::fs::read_to_string(fixture).unwrap();
        let old = text
            .replace(
                "\"hot_traces\":[]",
                "\"hot_traces\":[{\"addr\":134516992,\"dispatches\":30,\"retired\":3900}]",
            )
            .replace("\"trace_built\":0", "\"trace_built\":2")
            .replace("\"trace_hits\":0", "\"trace_hits\":30")
            .replace("\"trace_side_exits\":0", "\"trace_side_exits\":1")
            .replace("\"trace_invalidated\":0", "\"trace_invalidated\":3");
        assert!(old.contains("\"trace_hits\":30") && old.contains("\"retired\":3900}]"));
        let dir = std::env::temp_dir().join("fisec_profile_tier2_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.jsonl");
        std::fs::write(&path, old).unwrap();
        let path = path.to_str().unwrap();

        let replay = trace::read_trace(path).unwrap();
        let data = &replay.campaigns[0].profile.as_ref().unwrap().data;
        assert_eq!(data.total_retired(), 5200 + 64 + 36);
        run(&parse(&["profile", path]).unwrap()).unwrap();
        run(&parse(&["profile", path, "--baseline", path]).unwrap()).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cache_flags_round_trip() {
        let a = parse(&["table1", "--cache", "/tmp/store"]).unwrap();
        assert_eq!(a.cache.as_deref(), Some("/tmp/store"));
        assert!(!a.no_cache);
        let c = cache_for(&a).expect("--cache DIR must enable the cache");
        assert_eq!(c.root(), std::path::Path::new("/tmp/store"));
        // --no-cache wins even when a directory is named.
        let a = parse(&["table1", "--cache", "/tmp/store", "--no-cache"]).unwrap();
        assert!(a.no_cache);
        assert!(cache_for(&a).is_none());
    }

    #[test]
    fn cache_subcommand_takes_the_op_as_positional() {
        for op in ["ls", "verify", "gc"] {
            let a = parse(&["cache", op]).unwrap();
            assert_eq!(a.cmd, "cache");
            assert_eq!(a.path.as_deref(), Some(op));
        }
        // gc without a bound is a user error, not a full wipe.
        let e =
            run(&parse(&["cache", "gc", "--cache", "/nonexistent-fisec"]).unwrap()).unwrap_err();
        assert!(e.contains("--max-size"), "{e}");
    }

    #[test]
    fn size_and_age_suffixes_parse() {
        assert_eq!(parse_size("4096").unwrap(), 4096);
        assert_eq!(parse_size("64k").unwrap(), 64 << 10);
        assert_eq!(parse_size("2M").unwrap(), 2 << 20);
        assert_eq!(parse_size("1gb").unwrap(), 1 << 30);
        assert!(parse_size("7x").is_err());
        assert_eq!(parse_age("90").unwrap(), 90);
        assert_eq!(parse_age("5m").unwrap(), 300);
        assert_eq!(parse_age("2h").unwrap(), 7200);
        assert_eq!(parse_age("7d").unwrap(), 7 * 86_400);
        assert!(parse_age("1w").is_err());
        let a = parse(&["cache", "gc", "--max-size", "64m", "--max-age", "30d"]).unwrap();
        assert_eq!(a.max_size, Some(64 << 20));
        assert_eq!(a.max_age, Some(30 * 86_400));
    }
}
