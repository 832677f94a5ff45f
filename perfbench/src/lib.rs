//! Campaign benchmark for fisec.
//!
//! Three closed-loop batch workloads, each run in-process on one worker
//! thread through the public APIs of `fisec-core`, `fisec-inject`,
//! `fisec-os` and the interpreter behind them:
//!
//! * [`Workload::Exhaustive`] — the selective-exhaustive campaign
//!   (ftpd's four clients and sshd's two, under the baseline encoding
//!   then the new one) into a fresh, empty campaign-cache store.
//! * [`Workload::Random`] — the §7 latent-error campaign:
//!   `run_random_streaming` for ftpd and sshd Client1, one fresh seed
//!   per pass.
//! * [`Workload::WarmRerun`] — the exhaustive campaign again, served
//!   from a store filled during set-up.
//!
//! A *pass* is one unit of user-visible work; the untraced passes are
//! the measurement of record. [`traced`] re-executes a pass by calling
//! each layer's public functions itself, recording a [`ledger`] span
//! around every call. [`hostref`] gauges the host's speed for the
//! untraced runs.

pub mod hostref;
pub mod ledger;
pub mod traced;

use fisec_apps::AppSpec;
use fisec_core::random::{draw, run_random_streaming, RandomCampaignResult, RandomConfig};
use fisec_core::{run_campaign_cached, CampaignCache, CampaignConfig, CampaignResult};
use fisec_encoding::EncodingScheme;
use fisec_inject::{
    enumerate_targets, golden_run, EngineOpts, ErrorLocation, GoldenRun, InjectionTarget,
    LatentError, LatentRunner, OutcomeClass, TargetSet,
};
use fisec_telemetry::{OutcomeHists, Telemetry};
use ledger::Ledger;
use std::path::{Path, PathBuf};

/// The benchmark's workloads; the names are fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full campaign, both encodings, fresh empty cache store per pass.
    Exhaustive,
    /// §7 latent-error draws for ftpd and sshd Client1.
    Random,
    /// Full campaign served from a warm cache store.
    WarmRerun,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Exhaustive, Workload::Random, Workload::WarmRerun];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Exhaustive => "exhaustive",
            Workload::Random => "random",
            Workload::WarmRerun => "warm_rerun",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Encodings of one campaign pass, in order; each covers ftpd then sshd.
pub const SCHEMES: [EncodingScheme; 2] = [EncodingScheme::Baseline, EncodingScheme::NewEncoding];

/// Latent-error draws per client per `random` pass.
pub const RANDOM_DRAWS: usize = 1000;

/// Draws per client and pass re-executed by the from-scratch oracle.
const ORACLE_SAMPLE: usize = 8;

/// Digest of Tables 1/3/5 counts and Figure 4 latencies of the full
/// campaign (see [`pass_digest`]), pinned at the commit that added
/// the benchmark. A change to any outcome changes it.
pub const REFERENCE_DIGEST: u64 = 0x0008_5b22_e83f_5e29;

/// Headline break-in pins: (app, scheme, client, BRK runs).
const HEADLINE_BRK: [(&str, EncodingScheme, &str, u64); 5] = [
    ("ftpd", EncodingScheme::Baseline, "Client1", 4),
    ("ftpd", EncodingScheme::NewEncoding, "Client1", 1),
    ("ftpd", EncodingScheme::Baseline, "Client3", 3),
    ("sshd", EncodingScheme::Baseline, "Client1", 20),
    ("sshd", EncodingScheme::NewEncoding, "Client1", 7),
];

/// Everything a pass needs, built by [`Bench::setup`].
pub struct Bench {
    /// The workload this set-up serves.
    pub workload: Workload,
    /// Seed the `random` passes' draw streams derive from.
    pub seed: u64,
    /// ftpd and sshd, in that order.
    pub apps: [AppSpec; 2],
    /// Each app's injection targets.
    pub targets: [TargetSet; 2],
    /// Each app's golden runs, in client order.
    pub goldens: [Vec<GoldenRun>; 2],
    /// Campaign-cache root: emptied before every `exhaustive` pass,
    /// filled once for `warm_rerun`.
    pub store: PathBuf,
}

/// What one pass produced, digested for the correctness checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassOutput {
    /// Per (scheme, app, client) column tallies of a campaign pass.
    Campaign(Vec<ColumnTally>),
    /// Per app, the random campaign's tallies and histograms.
    Random(Box<[RandomTally; 2]>),
}

/// What `run_random_streaming` reports for one app: outcome tallies and
/// per-outcome histograms of guest instructions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RandomTally {
    /// Runs per outcome class.
    pub tallies: RandomCampaignResult,
    /// Guest instructions per run, per outcome class.
    pub hists: OutcomeHists,
}

impl RandomTally {
    /// Count one run as `run_random_streaming` does.
    pub fn add(&mut self, outcome: OutcomeClass, icount: u64) {
        let t = &mut self.tallies;
        t.runs += 1;
        let (count, hist) = match outcome {
            OutcomeClass::Breakin => (&mut t.brk, &mut self.hists.brk),
            OutcomeClass::SystemDetection => (&mut t.sd, &mut self.hists.sd),
            OutcomeClass::FailSilenceViolation => (&mut t.fsv, &mut self.hists.fsv),
            _ => (&mut t.no_effect, &mut self.hists.no_effect),
        };
        *count += 1;
        hist.record(icount);
    }
}

/// One column of Tables 1/3/5 plus its Figure 4 latencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnTally {
    /// Application name.
    pub app: String,
    /// Encoding under test.
    pub scheme: EncodingScheme,
    /// Client name.
    pub client: String,
    /// Runs per outcome, in `OutcomeClass::ALL` order (Tables 1/5).
    pub outcomes: [u64; 5],
    /// BRK∪FSV runs per location, in `ErrorLocation::ALL` order (Table 3).
    pub brkfsv_by_location: [u64; 6],
    /// Crash latencies in target order (Figure 4).
    pub crash_latencies: Vec<u64>,
}

impl ColumnTally {
    /// An empty column.
    pub(crate) fn new(app: &str, scheme: EncodingScheme, client: &str) -> ColumnTally {
        ColumnTally {
            app: app.to_string(),
            scheme,
            client: client.to_string(),
            outcomes: [0; 5],
            brkfsv_by_location: [0; 6],
            crash_latencies: Vec::new(),
        }
    }

    /// Count one classified run of `target`.
    pub(crate) fn add(
        &mut self,
        target: &InjectionTarget,
        outcome: OutcomeClass,
        latency: Option<u64>,
    ) {
        self.outcomes[outcome_index(outcome)] += 1;
        if matches!(
            outcome,
            OutcomeClass::Breakin | OutcomeClass::FailSilenceViolation
        ) {
            self.brkfsv_by_location[location_index(target.location)] += 1;
        }
        if let Some(l) = latency {
            self.crash_latencies.push(l);
        }
    }

    fn from_result(r: &CampaignResult) -> Vec<ColumnTally> {
        r.clients
            .iter()
            .map(|c| ColumnTally {
                app: r.app.clone(),
                scheme: r.scheme,
                client: c.client.clone(),
                outcomes: OutcomeClass::ALL.map(|o| c.counts.get(o) as u64),
                brkfsv_by_location: ErrorLocation::ALL.map(|l| c.brkfsv_by_location.get(l) as u64),
                crash_latencies: c.crash_latencies.clone(),
            })
            .collect()
    }
}

fn outcome_index(o: OutcomeClass) -> usize {
    OutcomeClass::ALL
        .iter()
        .position(|x| *x == o)
        .expect("OutcomeClass::ALL lists every outcome")
}

fn location_index(l: ErrorLocation) -> usize {
    ErrorLocation::ALL
        .iter()
        .position(|x| *x == l)
        .expect("ErrorLocation::ALL lists every location")
}

/// FNV-1a over little-endian words: a stable digest, not a security
/// boundary.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a pass's output: column tallies for campaigns, tallies
/// and instruction-count histograms for `random`.
pub fn pass_digest(out: &PassOutput) -> u64 {
    let mut h = Fnv::default();
    match out {
        PassOutput::Campaign(cols) => {
            for c in cols {
                h.str(&c.app);
                h.str(c.scheme.cache_tag());
                h.str(&c.client);
                c.outcomes.iter().for_each(|&v| h.word(v));
                c.brkfsv_by_location.iter().for_each(|&v| h.word(v));
                h.word(c.crash_latencies.len() as u64);
                c.crash_latencies.iter().for_each(|&v| h.word(v));
            }
        }
        PassOutput::Random(per_app) => {
            for r in per_app.iter() {
                let t = &r.tallies;
                [t.runs, t.no_effect, t.sd, t.fsv, t.brk]
                    .into_iter()
                    .for_each(|v| h.word(v as u64));
                let hs = &r.hists;
                for hist in [&hs.no_effect, &hs.sd, &hs.fsv, &hs.brk] {
                    [hist.count, hist.sum, hist.min, hist.max]
                        .into_iter()
                        .chain(hist.buckets)
                        .for_each(|v| h.word(v));
                }
            }
        }
    }
    h.finish()
}

/// Check a campaign pass against the pinned digest and headline pins.
fn check_campaign(cols: &[ColumnTally]) -> Result<(), String> {
    for &(app, scheme, client, brk) in &HEADLINE_BRK {
        let col = cols
            .iter()
            .find(|c| c.app == app && c.scheme == scheme && c.client == client)
            .ok_or_else(|| format!("no column {app}/{scheme}/{client}"))?;
        let got = col.outcomes[outcome_index(OutcomeClass::Breakin)];
        if got != brk {
            return Err(format!("{app} {scheme} {client}: BRK {got}, pinned {brk}"));
        }
    }
    let digest = pass_digest(&PassOutput::Campaign(cols.to_vec()));
    if digest != REFERENCE_DIGEST {
        return Err(format!(
            "campaign digest {digest:#018x}, pinned {REFERENCE_DIGEST:#018x}"
        ));
    }
    Ok(())
}

impl Bench {
    /// Build both images, enumerate their targets and record every
    /// client's golden run; for `warm_rerun`, also fill the store with
    /// one checked campaign pass. Set-up calls are recorded as spans
    /// when `ledger` is enabled.
    ///
    /// # Errors
    /// When the store cannot be reset or the filling pass is wrong.
    pub fn setup(
        workload: Workload,
        seed: u64,
        store: PathBuf,
        ledger: &mut Ledger,
    ) -> Result<Bench, String> {
        let root = ledger.begin_setup();
        let apps = [
            ledger.time("apps.build", AppSpec::ftpd),
            ledger.time("apps.build", AppSpec::sshd),
        ];
        let targets = [0, 1].map(|i| {
            let app = &apps[i];
            ledger.time("inject.enumerate", || {
                enumerate_targets(&app.image, &app.auth_funcs, false)
            })
        });
        let goldens = [0, 1].map(|i| {
            let app = &apps[i];
            app.clients
                .iter()
                .map(|c| {
                    ledger.time("inject.golden", || {
                        golden_run(&app.image, c).expect("bundled image loads")
                    })
                })
                .collect()
        });
        let bench = Bench {
            workload,
            seed,
            apps,
            targets,
            goldens,
            store,
        };
        if workload == Workload::WarmRerun {
            bench.reset_store()?;
            match bench.pass(0) {
                PassOutput::Campaign(cols) => check_campaign(&cols)
                    .map_err(|e| format!("cold fill of the warm store: {e}"))?,
                PassOutput::Random(_) => unreachable!("warm_rerun runs campaign passes"),
            }
        }
        ledger.close(root);
        Ok(bench)
    }

    /// Empty the campaign-cache store.
    ///
    /// # Errors
    /// When the directory cannot be removed.
    pub fn reset_store(&self) -> Result<(), String> {
        match std::fs::remove_dir_all(&self.store) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(format!("emptying {}: {e}", self.store.display())),
        }
    }

    /// Work done before a pass that the pass does not time: a fresh
    /// store for `exhaustive`.
    ///
    /// # Errors
    /// When the store cannot be reset.
    pub fn prepare_pass(&self) -> Result<(), String> {
        match self.workload {
            Workload::Exhaustive => self.reset_store(),
            Workload::Random | Workload::WarmRerun => Ok(()),
        }
    }

    /// Injection experiments one pass classifies.
    pub fn experiments_per_pass(&self) -> u64 {
        match self.workload {
            Workload::Random => 2 * RANDOM_DRAWS as u64,
            Workload::Exhaustive | Workload::WarmRerun => {
                let per_scheme: usize = (0..2)
                    .map(|i| self.targets[i].targets.len() * self.apps[i].clients.len())
                    .sum();
                (SCHEMES.len() * per_scheme) as u64
            }
        }
    }

    /// One untraced pass through the public entry points: pass `index`
    /// selects the `random` seed, campaign passes ignore it.
    pub fn pass(&self, index: u64) -> PassOutput {
        match self.workload {
            Workload::Exhaustive | Workload::WarmRerun => self.campaign_pass(),
            Workload::Random => self.random_pass(index),
        }
    }

    fn campaign_pass(&self) -> PassOutput {
        let cache = CampaignCache::at(self.store.clone());
        let tel = Telemetry::disabled();
        let mut cols = Vec::new();
        for scheme in SCHEMES {
            for app in &self.apps {
                let cfg = CampaignConfig {
                    scheme,
                    threads: 1,
                    ..CampaignConfig::default()
                };
                let result = run_campaign_cached(app, &cfg, &tel, Some(&cache));
                cols.extend(ColumnTally::from_result(&result));
            }
        }
        PassOutput::Campaign(cols)
    }

    /// Seed of `random` pass `index`, derived from the workload seed.
    pub fn pass_seed(&self, index: u64) -> u64 {
        let mut h = Fnv::default();
        h.word(self.seed);
        h.word(index);
        h.finish()
    }

    /// The latent error of draw `idx` of app `ai` under the baseline
    /// encoding (a plain bit flip of the drawn text byte), as
    /// `run_random_streaming` plants it for `seed`.
    pub fn latent_error(&self, ai: usize, seed: u64, idx: u64) -> LatentError {
        let text = &self.apps[ai].image.text;
        let (offset, bit) = draw(seed, idx, text.len());
        LatentError {
            offset,
            corrupted: text[offset] ^ (1 << bit),
        }
    }

    fn random_pass(&self, index: u64) -> PassOutput {
        let tel = Telemetry::disabled();
        let cfg = RandomConfig {
            runs: RANDOM_DRAWS,
            seed: self.pass_seed(index),
            client: 0,
            threads: 1,
            ..RandomConfig::default()
        };
        PassOutput::Random(Box::new(self.apps.each_ref().map(|app| {
            let stats = run_random_streaming(app, &cfg, &tel).expect("bundled image runs");
            RandomTally {
                tallies: stats.result,
                hists: stats.hists,
            }
        })))
    }

    /// Check a pass's output: campaign passes against the pinned digest
    /// and headline pins, `random` passes against [`Bench::check_random`].
    ///
    /// # Errors
    /// A description of the first mismatch.
    pub fn check(&self, index: u64, out: &PassOutput) -> Result<(), String> {
        match out {
            PassOutput::Campaign(cols) => check_campaign(cols),
            PassOutput::Random(per_app) => per_app
                .iter()
                .enumerate()
                .try_for_each(|(ai, got)| self.check_random(ai, index, got)),
        }
    }

    /// Re-run every draw of app `ai` in `random` pass `index` through a
    /// snapshot `LatentRunner`, which must reproduce `got` exactly, and
    /// [`ORACLE_SAMPLE`] of those draws through the from-scratch
    /// `LatentRunner`, which must agree draw by draw.
    fn check_random(&self, ai: usize, index: u64, got: &RandomTally) -> Result<(), String> {
        let app = &self.apps[ai];
        let golden = &self.goldens[ai][0];
        let seed = self.pass_seed(index);
        let mut runner =
            LatentRunner::snapshot(&app.image, &app.clients[0], golden, EngineOpts::default())
                .map_err(|e| format!("{}: image load: {e:?}", app.name))?;
        let mut want = RandomTally::default();
        let mut draws = Vec::with_capacity(RANDOM_DRAWS);
        for idx in 0..RANDOM_DRAWS as u64 {
            let (run, meta) = runner.run(golden, self.latent_error(ai, seed, idx))?;
            want.add(run.outcome, meta.icount);
            draws.push((run.outcome, meta.icount));
        }
        if *got != want {
            return Err(format!(
                "{} seed {seed:#x}: run_random_streaming {:?}, LatentRunner {:?}",
                app.name, got.tallies, want.tallies
            ));
        }
        let mut oracle =
            LatentRunner::from_scratch(&app.image, &app.clients[0], golden, EngineOpts::default());
        for k in 0..ORACLE_SAMPLE {
            let j = k * RANDOM_DRAWS / ORACLE_SAMPLE;
            let (run, meta) = oracle.run(golden, self.latent_error(ai, seed, j as u64))?;
            if (run.outcome, meta.icount) != draws[j] {
                return Err(format!(
                    "{} seed {seed:#x} draw {j}: snapshot {:?}, from scratch {:?}",
                    app.name,
                    draws[j],
                    (run.outcome, meta.icount)
                ));
            }
        }
        Ok(())
    }
}

/// Total size of the files directly under `dir` (0 when it is absent).
pub(crate) fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
