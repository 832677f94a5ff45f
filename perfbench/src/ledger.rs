//! In-memory span ledger for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! (`apps`, `inject`, `os`, `net`, `core.cache`) plus deterministic work
//! counters read at the same boundaries. Spans nest strictly — one
//! thread, calls made one after another — so a span's self time is its
//! duration minus its direct children's, and the self times of every
//! span under a root sum exactly (in integer nanoseconds) to the root's
//! duration. The root's own self time is the unattributed remainder.

use fisec_os::{Process, Stop};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `os.restore` or `core.cache.lookup`; the two
    /// roots are `setup` and `pass`.
    pub name: &'static str,
    /// Nanoseconds since the ledger's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the ledger's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Root the span belongs to: 0 for the set-up, 1.. for traced passes.
    pub pass: u32,
    /// Guest instructions retired inside the span (run spans only).
    pub insts: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span name belongs to: everything before the last dot
    /// (`core.cache.lookup` → `core.cache`), empty for a root.
    pub fn layer(&self) -> &'static str {
        self.name.rfind('.').map_or("", |i| &self.name[..i])
    }
}

/// Deterministic work counters of one traced pass. Two traced runs of
/// the same workload and seed must produce equal counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Injection experiments classified (synthesized, cached or run).
    pub experiments: u64,
    /// Checkpoint groups considered.
    pub groups: u64,
    /// Replays whose guest retired at most [`SHORT_REPLAY_INSTS`].
    pub short_replays: u64,
    /// Checkpoint restores, read from `Process::restore_count`.
    pub restores: u64,
    /// Guest instructions retired by every `Process::run`.
    pub guest_insts: u64,
    /// Guest instructions retired booting to the breakpoint.
    pub boot_insts: u64,
    /// Guest instructions retired by replays.
    pub replay_insts: u64,
    /// Blocks decoded and inserted (`Machine::block_stats`).
    pub blocks_built: u64,
    /// Block dispatches served from the cache.
    pub block_hits: u64,
    /// Blocks dropped by invalidation.
    pub blocks_invalidated: u64,
    /// Tier-2 traces built (`Machine::trace_stats`).
    pub traces_built: u64,
    /// Dispatches served from the trace cache.
    pub trace_hits: u64,
    /// Trace guard mispredictions and self-modification exits.
    pub trace_side_exits: u64,
    /// Groups served from the campaign cache.
    pub cache_hits: u64,
    /// Groups the campaign cache could not serve.
    pub cache_misses: u64,
    /// Bytes of campaign-cache store files the pass read or wrote.
    pub store_bytes: u64,
}

/// A replay retiring at most this many guest instructions is "short":
/// its cost is almost all per-replay fixed cost.
pub const SHORT_REPLAY_INSTS: u64 = 2;

/// Span recorder plus the counters of the pass in progress. A disabled
/// ledger records nothing and costs one branch per call site.
pub struct Ledger {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
    /// Counters of the pass in progress.
    pub counters: Counters,
    passes: Vec<PassRecord>,
}

/// One finished traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PassRecord {
    /// Index of the pass's root span.
    pub root: usize,
    /// The pass's counters.
    pub counters: Counters,
}

impl Ledger {
    /// A ledger that records spans and counters.
    pub fn enabled() -> Ledger {
        Ledger {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
            counters: Counters::default(),
            passes: Vec::new(),
        }
    }

    /// A ledger that records nothing (untraced runs).
    pub fn disabled() -> Ledger {
        Ledger {
            enabled: false,
            ..Ledger::enabled()
        }
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.pass,
            insts: 0,
        });
        self.stack.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans close in LIFO order");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Record `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.open(name);
        let r = f();
        self.close(s);
        r
    }

    /// `Process::run` as a span carrying the guest instructions it
    /// retired, which also land in [`Counters::guest_insts`].
    pub fn run(&mut self, name: &'static str, p: &mut Process) -> Stop {
        let before = p.icount();
        let s = self.open(name);
        let stop = p.run();
        self.close(s);
        let insts = p.icount() - before;
        if self.enabled {
            self.spans[s].insts = insts;
        }
        self.counters.guest_insts += insts;
        stop
    }

    /// Fold a finished process's cumulative interpreter counters (a
    /// freshly loaded machine starts them at zero) and restore count.
    pub fn note_process(&mut self, p: &Process) {
        let b = p.machine.block_stats();
        let t = p.machine.trace_stats();
        let c = &mut self.counters;
        c.blocks_built += b.built;
        c.block_hits += b.hits;
        c.blocks_invalidated += b.invalidated;
        c.traces_built += t.built;
        c.trace_hits += t.hits;
        c.trace_side_exits += t.side_exits;
        c.restores += p.restore_count();
    }

    /// Open the root span of the set-up.
    pub fn begin_setup(&mut self) -> usize {
        self.pass = 0;
        self.open("setup")
    }

    /// Open the root span of the next traced pass with fresh counters.
    pub fn begin_pass(&mut self) -> usize {
        self.pass = self.passes.len() as u32 + 1;
        self.counters = Counters::default();
        self.open("pass")
    }

    /// Close a pass root and keep its counters.
    pub fn end_pass(&mut self, root: usize) {
        self.close(root);
        if self.enabled {
            self.passes.push(PassRecord {
                root,
                counters: self.counters,
            });
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every finished traced pass.
    pub fn passes(&self) -> &[PassRecord] {
        &self.passes
    }

    /// Self time per layer of the spans under `root`, and the root's own
    /// self time (the unattributed remainder). The values sum exactly to
    /// the root's duration.
    pub fn self_times(&self, root: usize) -> (BTreeMap<&'static str, u64>, u64) {
        let pass = self.spans[root].pass;
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut layers = BTreeMap::new();
        let mut unattributed = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.pass != pass {
                continue;
            }
            let own = s.dur_ns() - child[i];
            if i == root {
                unattributed = own;
            } else {
                *layers.entry(s.layer()).or_insert(0) += own;
            }
        }
        (layers, unattributed)
    }

    /// Write every span as tab-separated `pass id parent name start_ns
    /// end_ns insts` lines.
    ///
    /// # Errors
    /// I/O errors creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "pass\tid\tparent\tname\tstart_ns\tend_ns\tinsts")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.pass, s.name, s.start_ns, s.end_ns, s.insts
            )?;
        }
        w.flush()
    }
}
