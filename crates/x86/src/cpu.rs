//! The IA-32 interpreter.
//!
//! [`Machine`] couples a [`Cpu`] register file with a [`Memory`] address
//! space and executes decoded instructions one at a time. It surfaces three
//! kinds of events to its embedder (the simulated OS / the fault injector):
//! software interrupts (syscalls), faults (mapped to POSIX signal names),
//! and breakpoint hits. The instruction counter is architecturally precise —
//! the paper's Figure 4 (instructions between error activation and crash)
//! is measured with it.

use crate::block::{AluK, Block, BlockCache, BlockStats, LInst, UOp, MAX_BLOCK_INSTS};
use crate::decode::decode;
use crate::eflags::{AF, CF, DF, OF, PF, RESERVED1, SF, ZF};
use crate::flags;
use crate::inst::{
    Cond, Fault, Inst, InvalidKind, MemOperand, Op, OpSize, Operand, Reg8, RepKind, StrOp,
};
use crate::mem::Memory;
use crate::profiler::ExecProfile;
use crate::recorder::{edge_kind, Edge, EdgeKind, FlightRecorder, FlightTrace};
use crate::taint::{PropagationLog, TaintTracer};
use crate::trace::{SuperTrace, TraceCache, TraceRec, TraceStats, MAX_TRACE_BLOCKS};
use std::collections::HashSet;
use std::sync::Arc;

/// Register file and flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    /// EAX..EDI in IA-32 encoding order (index with [`crate::Reg32`]).
    pub regs: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// Flags register.
    pub eflags: u32,
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu {
            regs: [0; 8],
            eip: 0,
            eflags: RESERVED1,
        }
    }
}

impl Cpu {
    /// Fresh CPU with zeroed registers.
    pub fn new() -> Cpu {
        Cpu::default()
    }

    /// Read an 8-bit register.
    pub fn get8(&self, r: Reg8) -> u8 {
        let n = r as usize;
        if n < 4 {
            self.regs[n] as u8
        } else {
            (self.regs[n - 4] >> 8) as u8
        }
    }

    /// Write an 8-bit register.
    pub fn set8(&mut self, r: Reg8, v: u8) {
        let n = r as usize;
        if n < 4 {
            self.regs[n] = (self.regs[n] & !0xFF) | v as u32;
        } else {
            self.regs[n - 4] = (self.regs[n - 4] & !0xFF00) | ((v as u32) << 8);
        }
    }

    /// Evaluate a condition against the current flags.
    pub fn cond(&self, c: Cond) -> bool {
        let f = self.eflags;
        let cf = f & CF != 0;
        let zf = f & ZF != 0;
        let sf = f & SF != 0;
        let of = f & OF != 0;
        let pf = f & PF != 0;
        match c {
            Cond::O => of,
            Cond::No => !of,
            Cond::B => cf,
            Cond::Nb => !cf,
            Cond::E => zf,
            Cond::Ne => !zf,
            Cond::Be => cf || zf,
            Cond::A => !cf && !zf,
            Cond::S => sf,
            Cond::Ns => !sf,
            Cond::P => pf,
            Cond::Np => !pf,
            Cond::L => sf != of,
            Cond::Ge => sf == of,
            Cond::Le => zf || (sf != of),
            Cond::G => !zf && (sf == of),
        }
    }
}

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Instruction executed normally.
    Executed,
    /// `int n` executed (EIP already points past it). `int 0x80` is the
    /// Linux syscall gate; the embedder services it and resumes.
    Syscall(u8),
    /// The instruction faulted; EIP still points at it.
    Fault(Fault),
}

/// Result of [`Machine::run_until_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Execution reached a breakpoint (before executing the instruction
    /// at this address).
    Breakpoint(u32),
    /// A software interrupt needs servicing.
    Syscall(u8),
    /// The program faulted (crash).
    Fault(Fault),
    /// The step budget was exhausted (runaway/hang detection).
    Budget,
}

/// Retired-EIP coverage recorder: a dense bitmap — one bit per byte
/// address — spanning the executable regions, plus a spill set for EIPs
/// executed anywhere else (reachable only through rwx data regions or
/// wild jumps, both rare). The bitmap makes the per-instruction mark a
/// shift and an OR instead of a hash insert.
#[derive(Debug, Clone)]
struct Coverage {
    base: u32,
    bits: Vec<u64>,
    spill: HashSet<u32>,
}

impl Coverage {
    /// Size the bitmap over the span of `mem`'s executable regions as
    /// mapped right now (regions never move; later rwx byte writes don't
    /// change the map).
    fn new(mem: &Memory) -> Coverage {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for r in mem.regions().filter(|r| r.perms().exec) {
            lo = lo.min(r.start() as u64);
            hi = hi.max(r.end());
        }
        let span = hi.saturating_sub(lo) as usize;
        Coverage {
            base: if span == 0 { 0 } else { lo as u32 },
            bits: vec![0u64; span.div_ceil(64)],
            spill: HashSet::new(),
        }
    }

    #[inline]
    fn insert(&mut self, eip: u32) {
        if let Some(off) = eip.checked_sub(self.base).map(|o| o as usize) {
            if let Some(word) = self.bits.get_mut(off / 64) {
                *word |= 1u64 << (off % 64);
                return;
            }
        }
        self.spill.insert(eip);
    }

    /// Materialize as the address set the public coverage API exposes.
    fn to_set(&self) -> HashSet<u32> {
        let mut set = self.spill.clone();
        for (w, &bits) in self.bits.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                set.insert(self.base + (w * 64 + b) as u32);
                bits &= bits - 1;
            }
        }
        set
    }
}

/// Executed-code footprint recorder: the byte ranges of the address
/// space that were fetched for execution. Unlike [`Coverage`] (which
/// marks every retired EIP and is rewound by [`Machine::restore`]), the
/// footprint is marked at *block-build* granularity — one range-OR when
/// a basic block is decoded into the cache (the build is the first
/// dispatch; `enable_footprint` flushes both tiers so nothing escapes),
/// one per instruction on the per-step engine — and deliberately
/// survives restores, so one footprint accumulates the
/// union over every replay of a checkpoint group. The campaign cache
/// keys a group's memoized results on the image bytes inside this
/// footprint: anything a run fetched can affect its outcome, anything
/// outside provably cannot (code bytes read as *data* are the documented
/// exception; `fisec cache verify` exists to audit it).
///
/// Marking is a conservative over-approximation: a built block is marked
/// whole even when execution faults mid-block, so the block
/// and per-step engines may record slightly different (both valid)
/// supersets of the bytes actually fetched.
#[derive(Debug, Clone)]
pub struct Footprint {
    base: u32,
    bits: Vec<u64>,
    /// Ranges outside the executable-region bitmap (wild execution in
    /// data/stack regions — rare).
    spill: Vec<(u32, u32)>,
    /// The last range marked. Dispatch loops re-mark the same block on
    /// every iteration; this one-entry memo makes the re-mark a compare
    /// instead of a bitmap walk.
    last: (u32, u32),
}

impl Footprint {
    /// Size the bitmap over the span of `mem`'s executable regions, like
    /// [`Coverage::new`].
    fn new(mem: &Memory) -> Footprint {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for r in mem.regions().filter(|r| r.perms().exec) {
            lo = lo.min(r.start() as u64);
            hi = hi.max(r.end());
        }
        let span = hi.saturating_sub(lo) as usize;
        Footprint {
            base: if span == 0 { 0 } else { lo as u32 },
            bits: vec![0u64; span.div_ceil(64)],
            spill: Vec::new(),
            last: (u32::MAX, 0),
        }
    }

    /// Mark `[addr, addr + len)` as fetched.
    #[inline]
    pub fn mark_range(&mut self, addr: u32, len: u32) {
        if len == 0 || (addr, len) == self.last {
            return;
        }
        self.last = (addr, len);
        let off = addr.wrapping_sub(self.base) as usize;
        let end = off + len as usize;
        if addr >= self.base && end <= self.bits.len() * 64 {
            let (mut w, first_bit) = (off / 64, off % 64);
            let (last_w, last_bits) = ((end - 1) / 64, end - (end / 64) * 64);
            if w == last_w {
                let mask = (u64::MAX >> (64 - (end - off))) << first_bit;
                self.bits[w] |= mask;
                return;
            }
            self.bits[w] |= u64::MAX << first_bit;
            w += 1;
            while w < last_w {
                self.bits[w] = u64::MAX;
                w += 1;
            }
            if last_bits == 0 {
                self.bits[last_w] = u64::MAX;
            } else {
                self.bits[last_w] |= u64::MAX >> (64 - last_bits);
            }
            return;
        }
        // Outside the bitmap: coalesce with the previous spill range when
        // contiguous (tight loops outside text would otherwise grow it).
        if let Some((s, l)) = self.spill.last_mut() {
            let e = u64::from(*s) + u64::from(*l);
            let new_end = u64::from(addr) + u64::from(len);
            if u64::from(addr) <= e && new_end >= u64::from(*s) {
                let start = (*s).min(addr);
                let end = e.max(new_end);
                *s = start;
                *l = (end - u64::from(start)).min(u64::from(u32::MAX)) as u32;
                return;
            }
        }
        self.spill.push((addr, len));
    }

    /// The marked ranges as a sorted, coalesced `(start, len)` list.
    pub fn ranges(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        let mut i = 0usize;
        let total = self.bits.len() * 64;
        while i < total {
            let word = self.bits[i / 64];
            if word == 0 {
                i = (i / 64 + 1) * 64;
                continue;
            }
            if word >> (i % 64) & 1 == 0 {
                i += 1;
                continue;
            }
            let start = i;
            while i < total && self.bits[i / 64] >> (i % 64) & 1 == 1 {
                i += 1;
            }
            out.push((self.base + start as u32, (i - start) as u32));
        }
        out.extend(self.spill.iter().copied());
        out.sort_unstable();
        // Coalesce overlapping/adjacent ranges.
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(out.len());
        for (s, l) in out {
            if let Some((ps, pl)) = merged.last_mut() {
                let pe = u64::from(*ps) + u64::from(*pl);
                if u64::from(s) <= pe {
                    let e = pe.max(u64::from(s) + u64::from(l));
                    *pl = (e - u64::from(*ps)).min(u64::from(u32::MAX)) as u32;
                    continue;
                }
            }
            merged.push((s, l));
        }
        merged
    }

    /// Does the footprint contain the byte at `addr`?
    pub fn contains(&self, addr: u32) -> bool {
        let off = addr.wrapping_sub(self.base) as usize;
        if addr >= self.base
            && off < self.bits.len() * 64
            && self.bits[off / 64] >> (off % 64) & 1 == 1
        {
            return true;
        }
        self.spill
            .iter()
            .any(|(s, l)| addr >= *s && u64::from(addr) < u64::from(*s) + u64::from(*l))
    }
}

/// A CPU bound to an address space.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Architectural registers.
    pub cpu: Cpu,
    /// Address space.
    pub mem: Memory,
    /// Instructions retired since construction.
    pub icount: u64,
    /// Armed breakpoint addresses, kept sorted for binary search.
    breakpoints: Vec<u32>,
    /// Basic-block cache (see [`crate::block`]) and the executable
    /// generation its contents were last synchronized against.
    blocks: BlockCache,
    blocks_gen: u64,
    /// Dispatch through cached basic blocks (default). When false,
    /// [`Machine::run_until_event`] takes the reference per-step path.
    block_engine: bool,
    /// Tier-2 superblock cache (see [`crate::trace`]): hot blocks
    /// linked across taken branches, dispatched as one unit.
    traces: TraceCache,
    /// Promote hot blocks into tier-2 traces (default). Only meaningful
    /// while the block engine is on.
    trace_cache: bool,
    /// Rolling branch-history signature mixed into trace keys. Purely a
    /// cache-key ingredient — never observable in outcomes — so it is
    /// not snapshot state (restore just resets it).
    hist: u8,
    /// In-progress trace recording, when a promotion is underway.
    trace_rec: Option<TraceRec>,
    trace_buf: Vec<u32>,
    trace_cap: usize,
    trace_next: usize,
    coverage: Option<Coverage>,
    /// Executed-code footprint, marked when a block is built (see
    /// [`Footprint`]). Not snapshot state: it survives restores so one
    /// footprint accumulates across every replay of a checkpoint group,
    /// and a clone (a forked process) carries it on.
    footprint: Option<Box<Footprint>>,
    recorder: Option<FlightRecorder>,
    /// Propagation tracer (see [`crate::taint`]). Like the flight
    /// recorder it is per-run instrumentation: enabled by the injector
    /// after the flip is planted, dropped by [`Machine::restore`],
    /// excluded from snapshots. Boxed so the untraced machine carries
    /// only a pointer.
    taint: Option<Box<TaintTracer>>,
    profile: Option<Box<ExecProfile>>,
    decoder: fn(&[u8]) -> Inst,
    restores: u64,
}

/// Architectural state captured by [`Machine::snapshot`].
///
/// Holds everything needed to rewind a machine to an earlier point of
/// the same execution: registers, a copy of the address space, the
/// retired instruction count, armed breakpoints, the EIP trace ring, and
/// the coverage set when enabled. The decoded caches (basic blocks and
/// traces) are *not* part of the snapshot — they are pure performance
/// artifacts; [`Machine::restore`] uses the executable-write journal to
/// drop exactly the entries covering bytes that changed since the
/// snapshot was taken.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    cpu: Cpu,
    mem: Memory,
    icount: u64,
    breakpoints: Vec<u32>,
    trace_buf: Vec<u32>,
    trace_cap: usize,
    trace_next: usize,
    coverage: Option<Coverage>,
}

impl Machine {
    /// New machine over the given memory, with a zeroed CPU.
    pub fn new(mem: Memory) -> Machine {
        Machine {
            cpu: Cpu::new(),
            mem,
            icount: 0,
            breakpoints: Vec::new(),
            blocks: BlockCache::default(),
            blocks_gen: 0,
            block_engine: true,
            traces: TraceCache::default(),
            trace_cache: true,
            hist: 0,
            trace_rec: None,
            trace_buf: Vec::new(),
            trace_cap: 0,
            trace_next: 0,
            coverage: None,
            footprint: None,
            recorder: None,
            taint: None,
            profile: None,
            decoder: decode,
            restores: 0,
        }
    }

    /// Capture the architectural state (registers, memory, icount,
    /// breakpoints, trace ring, coverage) for a later [`Machine::restore`].
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            cpu: self.cpu.clone(),
            mem: self.mem.clone(),
            icount: self.icount,
            breakpoints: self.breakpoints.clone(),
            trace_buf: self.trace_buf.clone(),
            trace_cap: self.trace_cap,
            trace_next: self.trace_next,
            coverage: self.coverage.clone(),
        }
    }

    /// Rewind to a previously captured snapshot of *this* execution.
    ///
    /// Memory is rewound by `Memory::restore_from`: when the previous
    /// restore used the same snapshot (the common case: checkpoint, poke
    /// one byte, run, restore, repeat), only the pages written since are
    /// copied back; otherwise the whole address space is.
    ///
    /// The decoded caches survive the rewind wherever the executable-
    /// write journal can prove they are still exact. When the snapshot
    /// is an ancestor of the current state, the journal names every
    /// byte written since it, and only blocks and traces covering those
    /// bytes are dropped. A snapshot from an unrelated lineage drops
    /// everything. The decoder function itself is not snapshot state and
    /// is left untouched.
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        let snap_gen = snap.mem.exec_gen();
        if self.mem.exec_log_extends(&snap.mem) {
            // Invalidate from the oldest generation either cache could
            // still reflect: blocks were last synced at `blocks_gen`, and
            // the restore reverts every write after `snap_gen`.
            let from = self.blocks_gen.min(snap_gen);
            let dirty = self.mem.exec_writes_since(from);
            if !dirty.is_empty() {
                self.blocks.invalidate_writes(dirty);
                self.traces.invalidate_writes(dirty);
            }
        } else {
            // Restoring across lineages (or forward past unseen writes):
            // the byte diff cannot be attributed, drop everything.
            self.blocks.clear();
            self.traces.clear();
        }
        self.blocks_gen = snap_gen;
        // A recording in progress would stitch pre-rewind blocks onto
        // whatever executes next; abort it. The branch-history signature
        // restarts too, so every replay of a checkpoint group sees the
        // same trace-key sequence.
        self.trace_rec = None;
        self.hist = 0;
        self.cpu = snap.cpu.clone();
        self.mem.restore_from(&snap.mem);
        self.icount = snap.icount;
        self.breakpoints = snap.breakpoints.clone();
        self.trace_buf = snap.trace_buf.clone();
        self.trace_cap = snap.trace_cap;
        self.trace_next = snap.trace_next;
        self.coverage = snap.coverage.clone();
        // The flight recorder is per-run instrumentation, not snapshot
        // state: rewinding drops any active recording. The injector
        // enables it after each restore, once the fault is planted.
        // The hot-spot profile and the executed-code footprint (also not
        // snapshot state) deliberately survive the rewind: one of each
        // accumulates across every replay of a checkpoint group.
        self.recorder = None;
        // The propagation tracer has the same per-run lifecycle.
        self.taint = None;
        self.restores += 1;
    }

    /// How many times [`Machine::restore`] has rewound this machine.
    /// Monotonic across restores (deliberately *not* snapshot state) —
    /// the telemetry layer reports it as replay work performed.
    pub fn restore_count(&self) -> u64 {
        self.restores
    }

    /// Record the set of distinct EIPs executed from now on. The
    /// campaign engine uses the golden run's coverage to skip injection
    /// targets at never-executed addresses. Internally a dense bitmap
    /// over the executable regions (with a spill set for EIPs outside
    /// them), so enable it after the image is mapped.
    pub fn enable_coverage(&mut self) {
        self.coverage = Some(Coverage::new(&self.mem));
    }

    /// Distinct executed EIPs since [`Machine::enable_coverage`], if
    /// recording is on (materialized from the internal bitmap).
    pub fn coverage(&self) -> Option<HashSet<u32>> {
        self.coverage.as_ref().map(Coverage::to_set)
    }

    /// Record the byte ranges fetched for execution from now on, marked
    /// when a block is built (see [`Footprint`]). Unlike coverage this is
    /// not snapshot state: [`Machine::restore`] leaves it accumulating,
    /// so one footprint unions every replay of a checkpoint group.
    /// Enable it after the image is mapped (the bitmap spans the
    /// executable regions mapped at this point).
    pub fn enable_footprint(&mut self) {
        // Marking happens when a block is *built* (see `build_block`):
        // flush both tiers so everything dispatched from here on is
        // (re)built — and therefore marked — while recording.
        self.blocks.clear();
        self.traces.clear();
        self.trace_rec = None;
        self.footprint = Some(Box::new(Footprint::new(&self.mem)));
    }

    /// Whether the executed-code footprint is recording.
    pub fn footprint_enabled(&self) -> bool {
        self.footprint.is_some()
    }

    /// Stop footprint recording and take the accumulated [`Footprint`].
    /// `None` when it was never enabled.
    pub fn take_footprint(&mut self) -> Option<Footprint> {
        self.footprint.take().map(|b| *b)
    }

    /// Replace the instruction decoder — e.g. with a decoder for the
    /// paper's re-encoded instruction set, turning this machine into the
    /// "hypothetical processor" of §6.2. Clears the block and trace
    /// caches.
    pub fn set_decoder(&mut self, decoder: fn(&[u8]) -> Inst) {
        self.decoder = decoder;
        self.blocks.clear();
        self.traces.clear();
        self.trace_rec = None;
    }

    /// Choose the execution engine for [`Machine::run_until_event`]:
    /// `true` (the default) dispatches cached basic blocks, `false`
    /// forces the reference per-step interpreter. Outcomes are
    /// bit-identical either way; the flag exists as an escape hatch and
    /// for differential testing.
    pub fn set_block_engine(&mut self, enabled: bool) {
        if !enabled {
            self.blocks.clear();
            self.traces.clear();
            self.trace_rec = None;
        }
        self.block_engine = enabled;
    }

    /// Whether block dispatch is enabled (see
    /// [`Machine::set_block_engine`]).
    pub fn block_engine(&self) -> bool {
        self.block_engine
    }

    /// Cumulative basic-block cache counters.
    pub fn block_stats(&self) -> BlockStats {
        self.blocks.stats()
    }

    /// Choose whether hot blocks are promoted into tier-2 superblock
    /// traces (see [`crate::trace`]); on by default. Turning it off
    /// drops every cached trace. Outcomes are bit-identical either way —
    /// the flag exists as an escape hatch and for differential testing.
    pub fn set_trace_cache(&mut self, enabled: bool) {
        if !enabled {
            self.traces.clear();
            self.trace_rec = None;
        }
        self.trace_cache = enabled;
    }

    /// Whether tier-2 trace dispatch is enabled (see
    /// [`Machine::set_trace_cache`]).
    pub fn trace_cache(&self) -> bool {
        self.trace_cache
    }

    /// Cumulative trace-cache counters.
    pub fn trace_stats(&self) -> TraceStats {
        self.traces.stats()
    }

    /// Lower (or raise) the tier-2 promotion threshold — tests use `1`
    /// to form traces on the second dispatch of a block.
    pub fn set_trace_threshold(&mut self, threshold: u16) {
        self.traces.set_threshold(threshold);
    }

    /// Record the EIP of every retired instruction into a ring buffer of
    /// `capacity` entries (crash forensics). Zero disables tracing.
    pub fn enable_eip_trace(&mut self, capacity: usize) {
        self.trace_buf.clear();
        self.trace_cap = capacity;
        self.trace_next = 0;
    }

    /// The most recent EIPs, oldest first (at most the configured
    /// capacity).
    pub fn eip_trace(&self) -> Vec<u32> {
        if self.trace_buf.len() < self.trace_cap {
            self.trace_buf.clone()
        } else {
            let mut v = Vec::with_capacity(self.trace_cap);
            v.extend_from_slice(&self.trace_buf[self.trace_next..]);
            v.extend_from_slice(&self.trace_buf[..self.trace_next]);
            v
        }
    }

    /// Start the flight recorder: from now on every retired control
    /// transfer appends one [`Edge`] until `capacity` edges are held
    /// (further edges are counted but dropped — see
    /// [`crate::recorder`]). The current register file and instruction
    /// count are captured as the trace start. Recording survives
    /// [`Machine::snapshot`]-free execution only; [`Machine::restore`]
    /// drops it.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        self.recorder = Some(FlightRecorder::new(capacity, self.cpu.clone(), self.icount));
    }

    /// Whether a flight recording is active.
    pub fn flight_recorder_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Stop the flight recorder and take the completed trace, stamping
    /// the current register file and instruction count as the stop
    /// state. `None` when no recording is active.
    pub fn take_flight_trace(&mut self) -> Option<FlightTrace> {
        self.recorder
            .take()
            .map(|r| r.into_trace(self.cpu.clone(), self.icount))
    }

    /// Start the propagation tracer (see [`crate::taint`]): shadow state
    /// is seeded when the instruction at `seed` executes (its output is
    /// the corruption) and propagated through every retired instruction
    /// while taint is live, up to `horizon` observed instructions.
    /// `seed: None` selects observe-all mode — every instruction runs
    /// the transfer function, nothing is ever seeded — which the
    /// clean-run property tests use. Pure observation: architectural
    /// state, outcomes, icounts, coverage and traces are bit-identical
    /// with it on or off. Like the flight recorder it is per-run:
    /// [`Machine::restore`] drops it.
    pub fn enable_taint(&mut self, seed: Option<u32>, horizon: u64) {
        self.taint = Some(Box::new(TaintTracer::new(seed, horizon)));
    }

    /// Whether a propagation tracer is active.
    pub fn taint_enabled(&self) -> bool {
        self.taint.is_some()
    }

    /// Current shadow width (tainted bytes + flags bit), when tracing.
    pub fn taint_width(&self) -> Option<u32> {
        self.taint.as_ref().map(|t| t.width())
    }

    /// Stop the propagation tracer and take its sealed
    /// [`PropagationLog`]. `None` when no tracer is active.
    pub fn take_propagation_log(&mut self) -> Option<PropagationLog> {
        self.taint.take().map(|t| t.into_log())
    }

    /// Does the propagation tracer need the instrumented path for the
    /// code range `[lo, hi)`? False whenever the shadow is empty and the
    /// seed lies outside the range — those blocks/traces cannot touch
    /// taint and stay on the fast path.
    #[inline]
    fn taint_wants(&self, lo: u32, hi: u64) -> bool {
        match &self.taint {
            Some(t) => t.wants_range(lo, hi),
            None => false,
        }
    }

    /// Run the taint transfer function over one about-to-execute
    /// instruction (no-op when not tracing). `cpu` must be the
    /// pre-execution register file and `icount` the instruction's
    /// retirement count.
    #[inline]
    fn taint_hook(&mut self, inst: &Inst, addr: u32, icount: u64) {
        if let Some(t) = &mut self.taint {
            t.observe(&self.cpu, inst, addr, icount);
        }
    }

    /// Start the hot-spot profiler (see [`crate::profiler`]): from now
    /// on every block dispatch, slow-path execution and single-stepped
    /// instruction is tallied, and block-cache counters are measured as
    /// a delta from this point. Pure observation — architectural state,
    /// outcomes, icounts and traces are bit-identical with it on or off.
    /// Unlike the flight recorder it survives [`Machine::restore`].
    pub fn enable_profiler(&mut self) {
        self.profile = Some(Box::new(ExecProfile::begin(
            self.blocks.stats(),
            self.traces.stats(),
        )));
    }

    /// Whether the hot-spot profiler is collecting.
    pub fn profiler_enabled(&self) -> bool {
        self.profile.is_some()
    }

    /// Stop the profiler and take the collected [`ExecProfile`], with
    /// its cache counters sealed against the current [`BlockStats`].
    /// `None` when profiling was never enabled.
    pub fn take_exec_profile(&mut self) -> Option<ExecProfile> {
        let stats = self.blocks.stats();
        let tstats = self.traces.stats();
        self.profile.take().map(|mut p| {
            p.seal(stats, tstats);
            *p
        })
    }

    /// Append a control-transfer edge when recording (no-op otherwise).
    #[inline]
    fn record_edge(&mut self, kind: EdgeKind, from: u32, to: u32, icount: u64) {
        if let Some(rec) = &mut self.recorder {
            rec.push(Edge {
                from,
                to,
                icount,
                kind,
            });
        }
    }

    /// Record a retired instruction's control flow: `taken` carries the
    /// jump target when EIP moved, `None` for fall-through (which emits
    /// an edge only for not-taken conditional branches).
    #[inline]
    fn record_flow(&mut self, inst: &Inst, from: u32, taken: Option<u32>, icount: u64) {
        if let Some(kind) = edge_kind(inst, taken.is_some()) {
            let to = taken.unwrap_or_else(|| from.wrapping_add(inst.len as u32));
            self.record_edge(kind, from, to, icount);
        }
    }

    /// Arm a breakpoint. Hitting it pauses execution *before* the
    /// instruction at `addr` runs.
    pub fn add_breakpoint(&mut self, addr: u32) {
        if let Err(i) = self.breakpoints.binary_search(&addr) {
            self.breakpoints.insert(i, addr);
        }
    }

    /// Disarm every breakpoint.
    pub fn clear_breakpoints(&mut self) {
        self.breakpoints.clear();
    }

    /// Disarm a breakpoint. Returns true if it was armed.
    pub fn remove_breakpoint(&mut self, addr: u32) -> bool {
        let before = self.breakpoints.len();
        self.breakpoints.retain(|a| *a != addr);
        self.breakpoints.len() != before
    }

    /// Is a breakpoint armed at `eip`? Cheap min/max range pre-check,
    /// then binary search over the sorted list.
    #[inline]
    fn at_breakpoint(&self, eip: u32) -> bool {
        match (self.breakpoints.first(), self.breakpoints.last()) {
            (Some(&lo), Some(&hi)) if lo <= eip && eip <= hi => {
                self.breakpoints.binary_search(&eip).is_ok()
            }
            _ => false,
        }
    }

    /// Is a breakpoint armed strictly inside `(entry, end)`? A hit at
    /// `entry` itself is handled by the dispatch loop's pre-check.
    fn breakpoint_inside(&self, entry: u32, end: u64) -> bool {
        let i = self.breakpoints.partition_point(|&b| b <= entry);
        self.breakpoints.get(i).is_some_and(|&b| (b as u64) < end)
    }

    /// Is a breakpoint armed anywhere in `[lo, hi)`? Unlike
    /// [`Machine::breakpoint_inside`] this includes `lo` itself: only
    /// the trace's first block had its entry cleared by the dispatch
    /// loop's pre-check, and a linked successor may start *below* that
    /// entry, so the whole footprint is screened inclusively.
    fn breakpoint_in_range(&self, lo: u32, hi: u64) -> bool {
        let i = self.breakpoints.partition_point(|&b| b < lo);
        self.breakpoints.get(i).is_some_and(|&b| (b as u64) < hi)
    }

    /// Run until a breakpoint, syscall, fault, or `max_steps` instructions.
    ///
    /// Dispatches cached basic blocks (see [`crate::block`]) unless the
    /// per-step engine was selected via [`Machine::set_block_engine`];
    /// both produce bit-identical outcomes, icounts, coverage and traces.
    pub fn run_until_event(&mut self, max_steps: u64) -> RunOutcome {
        if self.block_engine {
            self.run_blocks(max_steps)
        } else {
            self.run_stepwise(max_steps)
        }
    }

    /// Reference engine: one [`Machine::step`] per loop iteration.
    fn run_stepwise(&mut self, max_steps: u64) -> RunOutcome {
        let mut steps = 0u64;
        loop {
            if self.at_breakpoint(self.cpu.eip) {
                return RunOutcome::Breakpoint(self.cpu.eip);
            }
            if steps >= max_steps {
                return RunOutcome::Budget;
            }
            steps += 1;
            match self.step() {
                StepEvent::Executed => {}
                StepEvent::Syscall(n) => return RunOutcome::Syscall(n),
                StepEvent::Fault(f) => return RunOutcome::Fault(f),
            }
        }
    }

    /// Block-dispatch engine: look up (or build) the basic block at EIP
    /// and retire it whole, with one budget/breakpoint check and one
    /// icount add per block. Falls back to a precise single step whenever
    /// whole-block retirement could be observed — a breakpoint inside the
    /// block, the budget expiring mid-block, or an instruction that reads
    /// the live icount (`rdtsc`) — so every outcome matches
    /// [`Machine::run_stepwise`] exactly.
    ///
    /// On top of that sits tier 2 (see [`crate::trace`]): re-dispatched
    /// blocks heat up and get recorded, together with their observed
    /// successors across taken branches, into superblock traces replayed
    /// as one dispatch. A trace is taken only when its full retirement
    /// fits the remaining budget and no breakpoint lies anywhere in its
    /// footprint, so every precise-stop obligation is met by declining
    /// the trace, not by stopping inside one.
    fn run_blocks(&mut self, max_steps: u64) -> RunOutcome {
        self.sync_blocks();
        let mut steps = 0u64;
        loop {
            let eip = self.cpu.eip;
            if self.at_breakpoint(eip) {
                self.finish_trace_rec();
                return RunOutcome::Breakpoint(eip);
            }
            if steps >= max_steps {
                self.finish_trace_rec();
                return RunOutcome::Budget;
            }
            // Tier-2 dispatch. Heat only accumulates on a genuine miss:
            // a resident trace declined for budget/breakpoint reasons
            // must not re-record, and record mode itself runs tier 1.
            let mut trace_missed = self.trace_cache && self.trace_rec.is_none();
            if trace_missed {
                if let Some(t) = self.traces.get(eip, self.hist) {
                    trace_missed = false;
                    // Like breakpoints, live taint declines the trace
                    // rather than observing inside one: a taken trace is
                    // thereby provably taint-free (shadow empty, seed
                    // outside its footprint), so tier-2 replay needs no
                    // hooks at all.
                    if t.total_insts <= max_steps - steps
                        && !self.breakpoint_in_range(t.lo, t.hi)
                        && !self.taint_wants(t.lo, t.hi)
                    {
                        if let Some(out) = self.exec_trace(&t, &mut steps) {
                            return out;
                        }
                        continue;
                    }
                }
            }
            let block = match self.blocks.get(eip) {
                Some(b) => b,
                None => match self.build_block(eip) {
                    Ok(b) => b,
                    // Entry fetch fault: same as step()'s fetch_decode
                    // failure (no icount, no coverage mark).
                    Err(f) => {
                        self.finish_trace_rec();
                        if self.recorder.is_some() {
                            self.record_edge(EdgeKind::Fault, eip, 0, self.icount);
                        }
                        return RunOutcome::Fault(f);
                    }
                },
            };
            if block.reads_icount
                || (block.insts.len() as u64) > max_steps - steps
                || self.breakpoint_inside(block.entry, block.end)
            {
                // Single-step fallback breaks the block-at-a-time shape
                // a trace replays; end any recording at this seam.
                self.finish_trace_rec();
                steps += 1;
                match self.step() {
                    StepEvent::Executed => continue,
                    StepEvent::Syscall(n) => return RunOutcome::Syscall(n),
                    StepEvent::Fault(f) => return RunOutcome::Fault(f),
                }
            }
            if trace_missed && self.traces.heat_up(eip, self.hist) {
                // Promoted: record this dispatch and its successors.
                self.trace_rec = Some(TraceRec {
                    entry: eip,
                    hist: self.hist,
                    blocks: Vec::new(),
                    total: 0,
                });
            }
            let fast = !block.writes
                && self.coverage.is_none()
                && self.trace_cap == 0
                && self.recorder.is_none()
                && self.profile.is_none()
                && !self.taint_wants(block.entry, block.end);
            let mut resident = false;
            loop {
                let gen = self.mem.exec_gen();
                let (executed, event) = if fast {
                    self.exec_block_fast(&block)
                } else {
                    self.exec_block(&block)
                };
                steps += executed;
                if let Some(p) = &mut self.profile {
                    p.note_block(block.entry, executed);
                }
                match event {
                    StepEvent::Executed => {
                        // Resident-loop fast path: a block whose
                        // terminator jumps back to its own entry (tight
                        // spin/poll loops — the dominant shape of
                        // budget-bounded hang runs) re-executes without
                        // paying the dispatch costs again. Sound because
                        // breakpoints cannot change while we run (entry
                        // and interior were already cleared above) and a
                        // self-modification would have changed the
                        // generation.
                        if self.cpu.eip == block.entry
                            && steps + block.insts.len() as u64 <= max_steps
                            && self.mem.exec_gen() == gen
                        {
                            resident = true;
                            self.blocks.note_resident_hit();
                            continue;
                        }
                        let clean =
                            executed == block.insts.len() as u64 && self.mem.exec_gen() == gen;
                        self.trace_append(&block, clean, resident);
                        self.hist = hist_step(self.hist, self.cpu.eip);
                        break;
                    }
                    StepEvent::Syscall(n) => {
                        // A syscall terminator retires the whole block
                        // cleanly, so the recording stays alive: traces
                        // span syscalls, resuming at the return address
                        // on the next run. (Staleness across the pause
                        // is covered by sync_blocks aborting recordings
                        // on any generation change.)
                        let clean = executed == block.insts.len() as u64;
                        self.trace_append(&block, clean, resident);
                        self.hist = hist_step(self.hist, self.cpu.eip);
                        return RunOutcome::Syscall(n);
                    }
                    StepEvent::Fault(f) => {
                        self.finish_trace_rec();
                        return RunOutcome::Fault(f);
                    }
                }
            }
        }
    }

    /// Replay a tier-2 trace: execute its linked blocks back-to-back,
    /// guarding each edge by comparing the live EIP against the next
    /// block's recorded entry. Returns the terminal outcome, or `None`
    /// when the dispatch loop should continue (full completion, a
    /// mispredicted guard, or a self-modification boundary — in each
    /// case everything retired so far is exactly what tier 1 would have
    /// retired).
    fn exec_trace(&mut self, t: &SuperTrace, steps: &mut u64) -> Option<RunOutcome> {
        let fast = self.coverage.is_none()
            && self.trace_cap == 0
            && self.recorder.is_none()
            && self.profile.is_none();
        let mut retired = 0u64;
        for (i, block) in t.blocks.iter().enumerate() {
            if i > 0 && self.cpu.eip != block.entry {
                // Guard mispredicted: side-exit to tier 1. The previous
                // block already stepped the history with the divergent
                // target, so re-dispatch sees a coherent key.
                self.traces.note_side_exit();
                return None;
            }
            let gen = self.mem.exec_gen();
            let (executed, event) = if fast && !block.writes {
                self.exec_block_fast(block)
            } else {
                self.exec_block(block)
            };
            *steps += executed;
            retired += executed;
            if let Some(p) = &mut self.profile {
                p.note_block(block.entry, executed);
            }
            match event {
                StepEvent::Executed => {
                    self.hist = hist_step(self.hist, self.cpu.eip);
                    if executed != block.insts.len() as u64 || self.mem.exec_gen() != gen {
                        // The block self-modified: exec_block already
                        // stopped at the write boundary and resynced the
                        // caches (dropping stale traces); side-exit.
                        self.traces.note_side_exit();
                        return None;
                    }
                }
                StepEvent::Syscall(n) => {
                    self.hist = hist_step(self.hist, self.cpu.eip);
                    if let Some(p) = &mut self.profile {
                        p.note_trace(t.entry, retired);
                    }
                    return Some(RunOutcome::Syscall(n));
                }
                StepEvent::Fault(f) => return Some(RunOutcome::Fault(f)),
            }
        }
        if let Some(p) = &mut self.profile {
            p.note_trace(t.entry, retired);
        }
        None
    }

    /// Append a cleanly completed block to the in-progress trace
    /// recording (if any), finalizing at the length bound. Non-clean
    /// completions (a mid-block self-modification stop) and
    /// resident-looped blocks end the recording instead: neither shape
    /// replays under a trace's one-pass-per-block guards.
    fn trace_append(&mut self, block: &Arc<Block>, clean: bool, resident: bool) {
        let Some(rec) = &mut self.trace_rec else {
            return;
        };
        if !clean || resident {
            self.finish_trace_rec();
            return;
        }
        rec.total += block.insts.len() as u64;
        rec.blocks.push(Arc::clone(block));
        if rec.blocks.len() >= MAX_TRACE_BLOCKS {
            self.finish_trace_rec();
        }
    }

    /// End any in-progress trace recording: recordings that linked at
    /// least two blocks are inserted, shorter ones are dropped (tier 1
    /// already dispatches single blocks, and its resident-loop path
    /// covers the self-looping ones).
    fn finish_trace_rec(&mut self) {
        if let Some(rec) = self.trace_rec.take() {
            if rec.blocks.len() >= 2 {
                self.traces.insert(rec);
            }
        }
    }

    /// Bring the block cache in line with the current executable bytes:
    /// drop exactly the blocks covering bytes written since the last
    /// sync, as named by the memory journal.
    fn sync_blocks(&mut self) {
        let gen = self.mem.exec_gen();
        if gen == self.blocks_gen {
            return;
        }
        if gen > self.blocks_gen {
            let dirty = self.mem.exec_writes_since(self.blocks_gen);
            self.blocks.invalidate_writes(dirty);
            self.traces.invalidate_writes(dirty);
        } else {
            // Generation moved backwards outside restore(): the diff
            // cannot be attributed, drop everything.
            self.blocks.clear();
            self.traces.clear();
        }
        // Any recording in progress may hold a just-staled block; the
        // write seam ends it.
        self.trace_rec = None;
        self.blocks_gen = gen;
    }

    /// Decode the basic block entered at `eip` and cache it.
    ///
    /// # Errors
    /// [`Fault::FetchFault`] when `eip` itself is unfetchable. A fetch
    /// fault *past* the first instruction instead ends the block early:
    /// execution re-dispatches at the unfetchable address and the fault
    /// surfaces there, exactly as in per-step order.
    fn build_block(&mut self, eip: u32) -> Result<Arc<Block>, Fault> {
        let mut insts = Vec::new();
        let mut reads_icount = false;
        let mut addr = eip;
        let mut end = eip as u64;
        loop {
            let inst = match self.fetch_decode(addr) {
                Ok(i) => i,
                Err(f) => {
                    if insts.is_empty() {
                        return Err(f);
                    }
                    break;
                }
            };
            let next = addr.wrapping_add(inst.len as u32);
            insts.push(LInst::new(addr, next, inst));
            end = addr as u64 + u64::from(inst.len.max(1));
            reads_icount |= matches!(inst.op, Op::Rdtsc);
            // Control transfers, software interrupts and invalid
            // instructions all end a block: they are the only ops whose
            // exec can leave EIP somewhere other than the next address.
            if inst.is_control_transfer()
                || matches!(inst.op, Op::Int(_) | Op::Int3 | Op::Into | Op::Invalid(_))
                || insts.len() >= MAX_BLOCK_INSTS
            {
                break;
            }
            if next <= addr {
                break; // zero-length decode or address-space wrap
            }
            addr = next;
        }
        let writes = insts.iter().any(|li| li.uop.may_write());
        let block = Arc::new(Block {
            entry: eip,
            end,
            insts,
            reads_icount,
            writes,
        });
        if let Some(fp) = &mut self.footprint {
            // One range-OR per block *build* covers every later dispatch
            // of it: `enable_footprint` flushed both tiers, so anything
            // dispatched while recording was built while recording
            // (invalidation and LRU eviction only cause idempotent
            // re-marks). The whole block is marked even when execution
            // stops inside it — a valid superset.
            fp.mark_range(block.entry, (block.end - u64::from(block.entry)) as u32);
        }
        self.blocks.insert(Arc::clone(&block));
        Ok(block)
    }

    /// Execute every instruction of `block`, batching the bookkeeping:
    /// the icount is added once on exit, and the coverage/trace marks are
    /// skipped entirely when neither is enabled. Returns the number of
    /// instructions retired and the terminating event
    /// ([`StepEvent::Executed`] when the block ran to completion or
    /// stopped at a self-modification boundary).
    fn exec_block(&mut self, block: &Block) -> (u64, StepEvent) {
        let gen0 = self.mem.exec_gen();
        let marking = self.coverage.is_some() || self.trace_cap > 0;
        let recording = self.recorder.is_some();
        let profiling = self.profile.is_some();
        // Hook only when the tracer can observe something in this block:
        // taint is born only at the seed address and propagates only
        // while the shadow is live, so a dead-shadow block without the
        // seed skips the per-instruction hook entirely (the common case
        // for a flipped branch that taints nothing). Liveness cannot
        // appear mid-block outside the seed's range, so the predicate is
        // loop-invariant.
        let tainting = self
            .taint
            .as_ref()
            .is_some_and(|t| t.wants_range(block.entry, block.end));
        let mut executed = 0u64;
        for li in &block.insts {
            if marking {
                self.mark_retired(li.addr);
            }
            if profiling && matches!(li.uop, UOp::Slow) {
                if let Some(p) = &mut self.profile {
                    p.note_slow(li.addr, &li.inst);
                }
            }
            executed += 1;
            if tainting {
                // Before the handler runs: the transfer function needs
                // the pre-execution register file to resolve effective
                // addresses and string counts. The icount convention
                // matches the recorder's (count *of* this instruction).
                self.taint_hook(&li.inst, li.addr, self.icount + executed);
            }
            match (li.handler)(self, li) {
                Ok(Flow::Next) => {
                    self.cpu.eip = li.next;
                    if recording {
                        // Only a not-taken conditional branch emits an
                        // edge here; classification is by decoded
                        // instruction, identical to the per-step engine.
                        self.record_flow(&li.inst, li.addr, None, self.icount + executed);
                    }
                }
                Ok(Flow::Jump(t)) => {
                    self.cpu.eip = t;
                    if recording {
                        self.record_flow(&li.inst, li.addr, Some(t), self.icount + executed);
                    }
                }
                Ok(Flow::Syscall(v)) => {
                    self.cpu.eip = li.next;
                    self.icount += executed;
                    if recording {
                        let nr = self.cpu.regs[0];
                        self.record_edge(EdgeKind::Syscall, li.addr, nr, self.icount);
                    }
                    return (executed, StepEvent::Syscall(v));
                }
                Err(f) => {
                    // EIP stays at the faulting instruction, as in step().
                    self.cpu.eip = li.addr;
                    self.icount += executed;
                    if recording {
                        self.record_edge(EdgeKind::Fault, li.addr, 0, self.icount);
                    }
                    return (executed, StepEvent::Fault(f));
                }
            }
            if li.uop.may_write() && self.mem.exec_gen() != gen0 {
                // The instruction wrote executable bytes; stop at this
                // boundary so the rest of the block is re-decoded from
                // the new bytes, exactly as the per-step engine would.
                self.icount += executed;
                self.sync_blocks();
                return (executed, StepEvent::Executed);
            }
        }
        self.icount += executed;
        (executed, StepEvent::Executed)
    }

    /// Instrumentation-free block executor. The dispatch loop selects it
    /// when no coverage bitmap, EIP trace ring, flight recorder or
    /// profiler is attached *and* the block contains no memory writes
    /// (so no self-modification re-check is needed either). With every
    /// observation channel absent, the only architecturally visible EIP
    /// values are the ones a fault, syscall, taken jump or block exit
    /// leaves behind — so the per-instruction EIP stores on
    /// straight-line flow are skipped entirely.
    fn exec_block_fast(&mut self, block: &Block) -> (u64, StepEvent) {
        let n = block.insts.len() as u64;
        let mut executed = 0u64;
        for li in &block.insts {
            executed += 1;
            match (li.handler)(self, li) {
                Ok(Flow::Next) => {
                    // Only the block's last instruction can fall through
                    // off the end (interior instructions are never
                    // control transfers), and only there does the
                    // fall-through EIP become observable.
                    if executed == n {
                        self.cpu.eip = li.next;
                    }
                }
                Ok(Flow::Jump(t)) => self.cpu.eip = t,
                Ok(Flow::Syscall(v)) => {
                    self.cpu.eip = li.next;
                    self.icount += executed;
                    return (executed, StepEvent::Syscall(v));
                }
                Err(f) => {
                    // EIP stays at the faulting instruction, as in step().
                    self.cpu.eip = li.addr;
                    self.icount += executed;
                    return (executed, StepEvent::Fault(f));
                }
            }
        }
        self.icount += executed;
        (executed, StepEvent::Executed)
    }

    /// Resolve a lowered effective address.
    #[inline]
    fn ea_lowered(&self, ea: crate::block::Ea) -> u32 {
        let base = if ea.base < 8 {
            self.cpu.regs[ea.base as usize]
        } else {
            0
        };
        base.wrapping_add(ea.disp)
    }

    /// Per-retired-instruction coverage and trace bookkeeping.
    #[inline]
    fn mark_retired(&mut self, eip: u32) {
        if let Some(cov) = &mut self.coverage {
            cov.insert(eip);
        }
        if self.trace_cap > 0 {
            if self.trace_buf.len() < self.trace_cap {
                self.trace_buf.push(eip);
            } else {
                self.trace_buf[self.trace_next] = eip;
                self.trace_next = (self.trace_next + 1) % self.trace_cap;
            }
        }
    }

    /// Fetch, decode and execute one instruction.
    pub fn step(&mut self) -> StepEvent {
        let eip = self.cpu.eip;
        let inst = match self.fetch_decode(eip) {
            Ok(i) => i,
            Err(f) => {
                // Fetch fault: nothing retired, matching the block
                // engine's entry-fault path.
                if self.recorder.is_some() {
                    self.record_edge(EdgeKind::Fault, eip, 0, self.icount);
                }
                return StepEvent::Fault(f);
            }
        };
        self.icount += 1;
        self.mark_retired(eip);
        if let Some(fp) = &mut self.footprint {
            fp.mark_range(eip, u32::from(inst.len.max(1)));
        }
        if let Some(p) = &mut self.profile {
            p.stepwise_retired += 1;
        }
        let recording = self.recorder.is_some();
        let next = eip.wrapping_add(inst.len as u32);
        if self.taint.is_some() {
            self.taint_hook(&inst, eip, self.icount);
        }
        match self.exec(&inst, eip, next) {
            Ok(Flow::Next) => {
                self.cpu.eip = next;
                if recording {
                    self.record_flow(&inst, eip, None, self.icount);
                }
                StepEvent::Executed
            }
            Ok(Flow::Jump(t)) => {
                self.cpu.eip = t;
                if recording {
                    self.record_flow(&inst, eip, Some(t), self.icount);
                }
                StepEvent::Executed
            }
            Ok(Flow::Syscall(v)) => {
                self.cpu.eip = next;
                if recording {
                    let nr = self.cpu.regs[0];
                    self.record_edge(EdgeKind::Syscall, eip, nr, self.icount);
                }
                StepEvent::Syscall(v)
            }
            Err(f) => {
                if recording {
                    self.record_edge(EdgeKind::Fault, eip, 0, self.icount);
                }
                StepEvent::Fault(f)
            }
        }
    }

    /// Fetch and decode the instruction at `eip` from the current bytes.
    /// Uncached: the block and trace caches are the decode caches.
    fn fetch_decode(&self, eip: u32) -> Result<Inst, Fault> {
        let (window, n) = self.mem.fetch_window(eip)?;
        Ok((self.decoder)(&window[..n]))
    }

    /// Effective address of a memory operand.
    pub fn ea(&self, m: &MemOperand) -> u32 {
        let mut a = m.disp as u32;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.cpu.regs[b as usize]);
        }
        if let Some((i, s)) = m.index {
            a = a.wrapping_add(self.cpu.regs[i as usize].wrapping_mul(s as u32));
        }
        a
    }

    fn read_val(&self, op: &Operand, size: OpSize) -> Result<u32, Fault> {
        Ok(match op {
            Operand::Reg(r) => self.cpu.regs[*r as usize],
            Operand::Reg16(r) => self.cpu.regs[*r as usize] & 0xFFFF,
            Operand::Reg8(r) => self.cpu.get8(*r) as u32,
            Operand::Imm(v) => (*v as u32) & size.mask(),
            Operand::Mem(m) => {
                let a = self.ea(m);
                match size {
                    OpSize::Byte => self.mem.read8(a)? as u32,
                    OpSize::Word => self.mem.read16(a)? as u32,
                    OpSize::Dword => self.mem.read32(a)?,
                }
            }
            Operand::Rel(_) => 0,
        })
    }

    fn write_val(&mut self, op: &Operand, size: OpSize, v: u32) -> Result<(), Fault> {
        match op {
            Operand::Reg(r) => self.cpu.regs[*r as usize] = v,
            Operand::Reg16(r) => {
                let n = *r as usize;
                self.cpu.regs[n] = (self.cpu.regs[n] & !0xFFFF) | (v & 0xFFFF);
            }
            Operand::Reg8(r) => self.cpu.set8(*r, v as u8),
            Operand::Mem(m) => {
                let a = self.ea(m);
                match size {
                    OpSize::Byte => self.mem.write8(a, v as u8)?,
                    OpSize::Word => self.mem.write16(a, v as u16)?,
                    OpSize::Dword => self.mem.write32(a, v)?,
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn push(&mut self, v: u32, size: OpSize) -> Result<(), Fault> {
        let esp = self.cpu.regs[4].wrapping_sub(size.bytes().max(2));
        match size {
            OpSize::Word => self.mem.write16(esp, v as u16)?,
            _ => self.mem.write32(esp, v)?,
        }
        self.cpu.regs[4] = esp;
        Ok(())
    }

    fn pop(&mut self, size: OpSize) -> Result<u32, Fault> {
        let esp = self.cpu.regs[4];
        let v = match size {
            OpSize::Word => self.mem.read16(esp)? as u32,
            _ => self.mem.read32(esp)?,
        };
        self.cpu.regs[4] = esp.wrapping_add(size.bytes().max(2));
        Ok(v)
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, i: &Inst, eip: u32, next: u32) -> Result<Flow, Fault> {
        let size = i.size;
        let f = &mut self.cpu.eflags;
        match i.op {
            Op::Invalid(kind) => {
                return Err(match kind {
                    InvalidKind::Undefined => Fault::InvalidOpcode(eip),
                    InvalidKind::Privileged | InvalidKind::TooLong => Fault::GeneralProtection(eip),
                    InvalidKind::Truncated => Fault::FetchFault(eip),
                })
            }
            Op::Nop | Op::Fpu | Op::Fwait => {}
            Op::Mov => {
                let v = self.read_val(&i.src.unwrap(), size)?;
                self.write_val(&i.dst.unwrap(), size, v)?;
            }
            Op::Movzx => {
                let v = self.read_val(&i.src.unwrap(), i.size2)?;
                self.write_val(&i.dst.unwrap(), size, v & i.size2.mask())?;
            }
            Op::Movsx => {
                let v = self.read_val(&i.src.unwrap(), i.size2)?;
                let s = match i.size2 {
                    OpSize::Byte => v as u8 as i8 as i32 as u32,
                    OpSize::Word => v as u16 as i16 as i32 as u32,
                    OpSize::Dword => v,
                };
                self.write_val(&i.dst.unwrap(), size, s & size.mask())?;
            }
            Op::Lea => {
                let Operand::Mem(m) = i.src.unwrap() else {
                    return Err(Fault::InvalidOpcode(eip));
                };
                let a = self.ea(&m);
                self.write_val(&i.dst.unwrap(), OpSize::Dword, a)?;
            }
            Op::Xchg => {
                let a = self.read_val(&i.dst.unwrap(), size)?;
                let b = self.read_val(&i.src.unwrap(), size)?;
                self.write_val(&i.dst.unwrap(), size, b)?;
                self.write_val(&i.src.unwrap(), size, a)?;
            }
            Op::Add
            | Op::Or
            | Op::Adc
            | Op::Sbb
            | Op::And
            | Op::Sub
            | Op::Xor
            | Op::Cmp
            | Op::Test => {
                let a = self.read_val(&i.dst.unwrap(), size)?;
                let b = self.read_val(&i.src.unwrap(), size)?;
                let f = &mut self.cpu.eflags;
                let carry = *f & CF != 0;
                let (r, write) = match i.op {
                    Op::Add => (flags::add(f, a, b, size, true), true),
                    Op::Adc => (flags::adc(f, a, b, carry, size), true),
                    Op::Sub => (flags::sub(f, a, b, size, true), true),
                    Op::Sbb => (flags::sbb(f, a, b, carry, size), true),
                    Op::Cmp => (flags::sub(f, a, b, size, true), false),
                    Op::And => (flags::logic(f, a & b, size), true),
                    Op::Test => (flags::logic(f, a & b, size), false),
                    Op::Or => (flags::logic(f, a | b, size), true),
                    Op::Xor => (flags::logic(f, a ^ b, size), true),
                    _ => unreachable!(),
                };
                if write {
                    self.write_val(&i.dst.unwrap(), size, r)?;
                }
            }
            Op::Inc | Op::Dec => {
                let a = self.read_val(&i.dst.unwrap(), size)?;
                let f = &mut self.cpu.eflags;
                let r = if i.op == Op::Inc {
                    flags::add(f, a, 1, size, false)
                } else {
                    flags::sub(f, a, 1, size, false)
                };
                self.write_val(&i.dst.unwrap(), size, r)?;
            }
            Op::Neg => {
                let a = self.read_val(&i.dst.unwrap(), size)?;
                let f = &mut self.cpu.eflags;
                let r = flags::sub(f, 0, a, size, true);
                self.write_val(&i.dst.unwrap(), size, r)?;
            }
            Op::Not => {
                let a = self.read_val(&i.dst.unwrap(), size)?;
                self.write_val(&i.dst.unwrap(), size, !a & size.mask())?;
            }
            Op::Mul => {
                let src = self.read_val(&i.dst.unwrap(), size)?;
                self.mul_impl(src, size, false);
            }
            Op::Imul1 => {
                let src = self.read_val(&i.dst.unwrap(), size)?;
                self.mul_impl(src, size, true);
            }
            Op::Imul2 | Op::Imul3 => {
                let lhs = if i.op == Op::Imul2 {
                    self.read_val(&i.dst.unwrap(), size)?
                } else {
                    self.read_val(&i.src.unwrap(), size)?
                };
                let rhs = if i.op == Op::Imul2 {
                    self.read_val(&i.src.unwrap(), size)?
                } else {
                    self.read_val(&i.src2.unwrap(), size)?
                };
                let full = (lhs as i32 as i64) * (rhs as i32 as i64);
                let r = full as u32 & size.mask();
                let f = &mut self.cpu.eflags;
                flags::zsp(f, r, size);
                let overflow = full != (r as i32 as i64);
                flags::set_bits(f, CF | OF, if overflow { CF | OF } else { 0 });
                self.write_val(&i.dst.unwrap(), size, r)?;
            }
            Op::Div => {
                let d = self.read_val(&i.dst.unwrap(), size)?;
                self.div_impl(d, size, false, eip)?;
            }
            Op::Idiv => {
                let d = self.read_val(&i.dst.unwrap(), size)?;
                self.div_impl(d, size, true, eip)?;
            }
            Op::Shl | Op::Shr | Op::Sar | Op::Rol | Op::Ror | Op::Rcl | Op::Rcr => {
                let a = self.read_val(&i.dst.unwrap(), size)?;
                let cnt = self.read_val(&i.src.unwrap(), OpSize::Byte)? & 31;
                let r = self.shift_impl(i.op, a, cnt, size);
                self.write_val(&i.dst.unwrap(), size, r)?;
            }
            Op::Shld | Op::Shrd => {
                let a = self.read_val(&i.dst.unwrap(), size)?;
                let b = self.read_val(&i.src.unwrap(), size)?;
                let cnt = self.read_val(&i.src2.unwrap(), OpSize::Byte)? & 31;
                if cnt != 0 {
                    let bits = size.bytes() * 8;
                    let r = if cnt >= bits {
                        a // undefined on hardware; keep deterministic
                    } else if i.op == Op::Shld {
                        ((a << cnt) | (b >> (bits - cnt))) & size.mask()
                    } else {
                        ((a >> cnt) | (b << (bits - cnt))) & size.mask()
                    };
                    let f = &mut self.cpu.eflags;
                    flags::zsp(f, r, size);
                    self.write_val(&i.dst.unwrap(), size, r)?;
                }
            }
            Op::Bt | Op::Bts | Op::Btr | Op::Btc => {
                let idx = self.read_val(&i.src.unwrap(), size)?;
                let (val, loc): (u32, Option<(u32, OpSize)>) = match i.dst.unwrap() {
                    Operand::Mem(m) if matches!(i.src, Some(Operand::Reg(_))) => {
                        // Register bit offsets address adjacent memory.
                        let byte_off = ((idx as i32) >> 5).wrapping_mul(4);
                        let a = self.ea(&m).wrapping_add(byte_off as u32);
                        (self.mem.read32(a)?, Some((a, OpSize::Dword)))
                    }
                    d => (self.read_val(&d, size)?, None),
                };
                let bit = idx & 31;
                let cf = (val >> bit) & 1 != 0;
                let newv = match i.op {
                    Op::Bts => val | (1 << bit),
                    Op::Btr => val & !(1 << bit),
                    Op::Btc => val ^ (1 << bit),
                    _ => val,
                };
                flags::set_bits(&mut self.cpu.eflags, CF, if cf { CF } else { 0 });
                if i.op != Op::Bt {
                    match loc {
                        Some((a, _)) => self.mem.write32(a, newv)?,
                        None => self.write_val(&i.dst.unwrap(), size, newv)?,
                    }
                }
            }
            Op::Xadd => {
                let a = self.read_val(&i.dst.unwrap(), size)?;
                let b = self.read_val(&i.src.unwrap(), size)?;
                let f = &mut self.cpu.eflags;
                let r = flags::add(f, a, b, size, true);
                self.write_val(&i.src.unwrap(), size, a)?;
                self.write_val(&i.dst.unwrap(), size, r)?;
            }
            Op::Cmpxchg => {
                let acc = match size {
                    OpSize::Byte => self.cpu.get8(Reg8::Al) as u32,
                    _ => self.cpu.regs[0] & size.mask(),
                };
                let d = self.read_val(&i.dst.unwrap(), size)?;
                let f = &mut self.cpu.eflags;
                flags::sub(f, acc, d, size, true);
                if acc == d {
                    let s = self.read_val(&i.src.unwrap(), size)?;
                    self.write_val(&i.dst.unwrap(), size, s)?;
                } else {
                    match size {
                        OpSize::Byte => self.cpu.set8(Reg8::Al, d as u8),
                        OpSize::Word => {
                            self.cpu.regs[0] = (self.cpu.regs[0] & !0xFFFF) | d;
                        }
                        OpSize::Dword => self.cpu.regs[0] = d,
                    }
                }
            }
            Op::Bswap => {
                if let Some(Operand::Reg(r)) = i.dst {
                    self.cpu.regs[r as usize] = self.cpu.regs[r as usize].swap_bytes();
                }
            }
            Op::Arpl => {
                flags::set_bits(&mut self.cpu.eflags, ZF, 0);
            }
            Op::Push => {
                let v = self.read_val(&i.dst.unwrap(), size)?;
                self.push(v, size)?;
            }
            Op::Pop => {
                let v = self.pop(size)?;
                self.write_val(&i.dst.unwrap(), size, v)?;
            }
            Op::Pusha => {
                let esp0 = self.cpu.regs[4];
                for n in 0..8 {
                    let v = if n == 4 { esp0 } else { self.cpu.regs[n] };
                    self.push(v, OpSize::Dword)?;
                }
            }
            Op::Popa => {
                for n in (0..8).rev() {
                    let v = self.pop(OpSize::Dword)?;
                    if n != 4 {
                        self.cpu.regs[n] = v;
                    }
                }
            }
            Op::Pushf => {
                let v = self.cpu.eflags | RESERVED1;
                self.push(v, OpSize::Dword)?;
            }
            Op::Popf => {
                let v = self.pop(OpSize::Dword)?;
                let settable = CF | PF | AF | ZF | SF | DF | OF;
                self.cpu.eflags = (v & settable) | RESERVED1;
            }
            Op::Sahf => {
                let ah = self.cpu.get8(Reg8::Ah) as u32;
                let mask = CF | PF | AF | ZF | SF;
                flags::set_bits(&mut self.cpu.eflags, mask, ah);
            }
            Op::Lahf => {
                let v = (self.cpu.eflags & (CF | PF | AF | ZF | SF)) | RESERVED1;
                self.cpu.set8(Reg8::Ah, v as u8);
            }
            Op::Cwde => match size {
                OpSize::Word => {
                    let al = self.cpu.get8(Reg8::Al) as i8 as i16 as u16;
                    self.cpu.regs[0] = (self.cpu.regs[0] & !0xFFFF) | al as u32;
                }
                _ => {
                    let ax = self.cpu.regs[0] as u16 as i16 as i32 as u32;
                    self.cpu.regs[0] = ax;
                }
            },
            Op::Cdq => match size {
                OpSize::Word => {
                    let sign = if self.cpu.regs[0] & 0x8000 != 0 {
                        0xFFFF
                    } else {
                        0
                    };
                    self.cpu.regs[2] = (self.cpu.regs[2] & !0xFFFF) | sign;
                }
                _ => {
                    self.cpu.regs[2] = if self.cpu.regs[0] & 0x8000_0000 != 0 {
                        0xFFFF_FFFF
                    } else {
                        0
                    };
                }
            },
            Op::Clc => flags::set_bits(f, CF, 0),
            Op::Stc => flags::set_bits(f, CF, CF),
            Op::Cmc => *f ^= CF,
            Op::Cld => flags::set_bits(f, DF, 0),
            Op::Std => flags::set_bits(f, DF, DF),
            Op::Salc => {
                let v = if self.cpu.eflags & CF != 0 { 0xFF } else { 0 };
                self.cpu.set8(Reg8::Al, v);
            }
            Op::Xlat => {
                let a = self.cpu.regs[3].wrapping_add(self.cpu.get8(Reg8::Al) as u32);
                let v = self.mem.read8(a)?;
                self.cpu.set8(Reg8::Al, v);
            }
            Op::Aaa | Op::Aas => {
                let al = self.cpu.get8(Reg8::Al);
                let ah = self.cpu.get8(Reg8::Ah);
                let adjust = (al & 0xF) > 9 || self.cpu.eflags & AF != 0;
                if adjust {
                    if i.op == Op::Aaa {
                        self.cpu.set8(Reg8::Al, al.wrapping_add(6) & 0xF);
                        self.cpu.set8(Reg8::Ah, ah.wrapping_add(1));
                    } else {
                        self.cpu.set8(Reg8::Al, al.wrapping_sub(6) & 0xF);
                        self.cpu.set8(Reg8::Ah, ah.wrapping_sub(1));
                    }
                } else {
                    self.cpu.set8(Reg8::Al, al & 0xF);
                }
                let bits = if adjust { AF | CF } else { 0 };
                flags::set_bits(&mut self.cpu.eflags, AF | CF, bits);
            }
            Op::Daa | Op::Das => {
                let al = self.cpu.get8(Reg8::Al);
                let mut v = al;
                let mut cf = self.cpu.eflags & CF != 0;
                let af = self.cpu.eflags & AF != 0;
                let mut new_af = false;
                if (al & 0xF) > 9 || af {
                    v = if i.op == Op::Daa {
                        v.wrapping_add(6)
                    } else {
                        v.wrapping_sub(6)
                    };
                    new_af = true;
                }
                if al > 0x99 || cf {
                    v = if i.op == Op::Daa {
                        v.wrapping_add(0x60)
                    } else {
                        v.wrapping_sub(0x60)
                    };
                    cf = true;
                } else {
                    cf = false;
                }
                self.cpu.set8(Reg8::Al, v);
                let f = &mut self.cpu.eflags;
                flags::zsp(f, v as u32, OpSize::Byte);
                let mut bits = 0;
                if cf {
                    bits |= CF;
                }
                if new_af {
                    bits |= AF;
                }
                flags::set_bits(f, CF | AF, bits);
            }
            Op::Aam(n) => {
                if n == 0 {
                    return Err(Fault::DivideError(eip));
                }
                let al = self.cpu.get8(Reg8::Al);
                self.cpu.set8(Reg8::Ah, al / n);
                self.cpu.set8(Reg8::Al, al % n);
                let v = self.cpu.get8(Reg8::Al) as u32;
                flags::zsp(&mut self.cpu.eflags, v, OpSize::Byte);
            }
            Op::Aad(n) => {
                let al = self.cpu.get8(Reg8::Al);
                let ah = self.cpu.get8(Reg8::Ah);
                let v = al.wrapping_add(ah.wrapping_mul(n));
                self.cpu.set8(Reg8::Al, v);
                self.cpu.set8(Reg8::Ah, 0);
                flags::zsp(&mut self.cpu.eflags, v as u32, OpSize::Byte);
            }
            Op::Cpuid => {
                // Deterministic pseudo-identification.
                let leaf = self.cpu.regs[0];
                if leaf == 0 {
                    self.cpu.regs[0] = 1;
                    self.cpu.regs[3] = u32::from_le_bytes(*b"Fisc"); // EBX
                    self.cpu.regs[2] = u32::from_le_bytes(*b"-x86"); // EDX... (toy)
                    self.cpu.regs[1] = u32::from_le_bytes(*b"Sim "); // ECX
                } else {
                    self.cpu.regs[0] = 0;
                    self.cpu.regs[1] = 0;
                    self.cpu.regs[2] = 0;
                    self.cpu.regs[3] = 0;
                }
            }
            Op::Rdtsc => {
                self.cpu.regs[0] = self.icount as u32;
                self.cpu.regs[2] = (self.icount >> 32) as u32;
            }
            Op::Bound => {
                let v = self.read_val(&i.dst.unwrap(), size)? as i32;
                let Operand::Mem(m) = i.src.unwrap() else {
                    return Err(Fault::InvalidOpcode(eip));
                };
                let a = self.ea(&m);
                let lo = self.mem.read32(a)? as i32;
                let hi = self.mem.read32(a.wrapping_add(4))? as i32;
                if v < lo || v > hi {
                    return Err(Fault::Trap(eip));
                }
            }
            Op::Str(s) => {
                return self.string_op(s, i.rep, size, next).map(|_| Flow::Next);
            }
            // ── control transfer ─────────────────────────────────────
            Op::Jcc(c) => {
                if self.cpu.cond(c) {
                    let Some(Operand::Rel(d)) = i.dst else {
                        return Err(Fault::InvalidOpcode(eip));
                    };
                    let mut t = next.wrapping_add(d as u32);
                    if size == OpSize::Word {
                        t &= 0xFFFF;
                    }
                    return Ok(Flow::Jump(t));
                }
            }
            Op::Setcc(c) => {
                let v = self.cpu.cond(c) as u32;
                self.write_val(&i.dst.unwrap(), OpSize::Byte, v)?;
            }
            Op::Jmp => {
                let Some(Operand::Rel(d)) = i.dst else {
                    return Err(Fault::InvalidOpcode(eip));
                };
                let mut t = next.wrapping_add(d as u32);
                if size == OpSize::Word {
                    t &= 0xFFFF;
                }
                return Ok(Flow::Jump(t));
            }
            Op::JmpInd => {
                let t = self.read_val(&i.dst.unwrap(), OpSize::Dword)?;
                return Ok(Flow::Jump(t));
            }
            Op::Call => {
                let Some(Operand::Rel(d)) = i.dst else {
                    return Err(Fault::InvalidOpcode(eip));
                };
                self.push(next, OpSize::Dword)?;
                let mut t = next.wrapping_add(d as u32);
                if size == OpSize::Word {
                    t &= 0xFFFF;
                }
                return Ok(Flow::Jump(t));
            }
            Op::CallInd => {
                let t = self.read_val(&i.dst.unwrap(), OpSize::Dword)?;
                self.push(next, OpSize::Dword)?;
                return Ok(Flow::Jump(t));
            }
            Op::Ret(extra) => {
                let t = self.pop(OpSize::Dword)?;
                self.cpu.regs[4] = self.cpu.regs[4].wrapping_add(extra as u32);
                return Ok(Flow::Jump(t));
            }
            Op::Leave => {
                self.cpu.regs[4] = self.cpu.regs[5];
                let v = self.pop(OpSize::Dword)?;
                self.cpu.regs[5] = v;
            }
            Op::Enter(frame, nest) => {
                self.push(self.cpu.regs[5], OpSize::Dword)?;
                let ft = self.cpu.regs[4];
                let level = nest % 32;
                if level > 0 {
                    for _ in 1..level {
                        self.cpu.regs[5] = self.cpu.regs[5].wrapping_sub(4);
                        let v = self.mem.read32(self.cpu.regs[5])?;
                        self.push(v, OpSize::Dword)?;
                    }
                    self.push(ft, OpSize::Dword)?;
                }
                self.cpu.regs[5] = ft;
                self.cpu.regs[4] = self.cpu.regs[4].wrapping_sub(frame as u32);
            }
            Op::Loop | Op::Loope | Op::Loopne => {
                let ecx = self.cpu.regs[1].wrapping_sub(1);
                self.cpu.regs[1] = ecx;
                let zf = self.cpu.eflags & ZF != 0;
                let take = ecx != 0
                    && match i.op {
                        Op::Loope => zf,
                        Op::Loopne => !zf,
                        _ => true,
                    };
                if take {
                    let Some(Operand::Rel(d)) = i.dst else {
                        return Err(Fault::InvalidOpcode(eip));
                    };
                    return Ok(Flow::Jump(next.wrapping_add(d as u32)));
                }
            }
            Op::Jecxz => {
                if self.cpu.regs[1] == 0 {
                    let Some(Operand::Rel(d)) = i.dst else {
                        return Err(Fault::InvalidOpcode(eip));
                    };
                    return Ok(Flow::Jump(next.wrapping_add(d as u32)));
                }
            }
            Op::Int(n) => {
                if n == 0x80 {
                    return Ok(Flow::Syscall(n));
                }
                return Err(Fault::Trap(eip));
            }
            Op::Int3 => return Err(Fault::Trap(eip)),
            Op::Into => {
                if self.cpu.eflags & OF != 0 {
                    return Err(Fault::Trap(eip));
                }
            }
        }
        Ok(Flow::Next)
    }

    fn mul_impl(&mut self, src: u32, size: OpSize, signed: bool) {
        match size {
            OpSize::Byte => {
                let al = self.cpu.get8(Reg8::Al);
                let r: u16 = if signed {
                    ((al as i8 as i16) * (src as u8 as i8 as i16)) as u16
                } else {
                    (al as u16) * (src as u8 as u16)
                };
                self.cpu.regs[0] = (self.cpu.regs[0] & !0xFFFF) | r as u32;
                let over = if signed {
                    (r as i16) != (r as u8 as i8 as i16)
                } else {
                    r > 0xFF
                };
                flags::set_bits(
                    &mut self.cpu.eflags,
                    CF | OF,
                    if over { CF | OF } else { 0 },
                );
            }
            OpSize::Word => {
                let ax = self.cpu.regs[0] as u16;
                let r: u32 = if signed {
                    ((ax as i16 as i32) * (src as u16 as i16 as i32)) as u32
                } else {
                    (ax as u32) * (src as u16 as u32)
                };
                self.cpu.regs[0] = (self.cpu.regs[0] & !0xFFFF) | (r & 0xFFFF);
                self.cpu.regs[2] = (self.cpu.regs[2] & !0xFFFF) | (r >> 16);
                let over = if signed {
                    (r as i32) != (r as u16 as i16 as i32)
                } else {
                    r > 0xFFFF
                };
                flags::set_bits(
                    &mut self.cpu.eflags,
                    CF | OF,
                    if over { CF | OF } else { 0 },
                );
            }
            OpSize::Dword => {
                let eax = self.cpu.regs[0];
                let r: u64 = if signed {
                    ((eax as i32 as i64) * (src as i32 as i64)) as u64
                } else {
                    (eax as u64) * (src as u64)
                };
                self.cpu.regs[0] = r as u32;
                self.cpu.regs[2] = (r >> 32) as u32;
                let over = if signed {
                    (r as i64) != (r as u32 as i32 as i64)
                } else {
                    r > 0xFFFF_FFFF
                };
                flags::set_bits(
                    &mut self.cpu.eflags,
                    CF | OF,
                    if over { CF | OF } else { 0 },
                );
            }
        }
    }

    fn div_impl(&mut self, src: u32, size: OpSize, signed: bool, eip: u32) -> Result<(), Fault> {
        match size {
            OpSize::Byte => {
                let dividend = self.cpu.regs[0] as u16;
                let divisor = src as u8;
                if divisor == 0 {
                    return Err(Fault::DivideError(eip));
                }
                if signed {
                    let dd = dividend as i16;
                    let dv = divisor as i8 as i16;
                    let q = dd.wrapping_div(dv);
                    let r = dd.wrapping_rem(dv);
                    if q > i8::MAX as i16 || q < i8::MIN as i16 {
                        return Err(Fault::DivideError(eip));
                    }
                    self.cpu.set8(Reg8::Al, q as u8);
                    self.cpu.set8(Reg8::Ah, r as u8);
                } else {
                    let q = dividend / divisor as u16;
                    let r = dividend % divisor as u16;
                    if q > 0xFF {
                        return Err(Fault::DivideError(eip));
                    }
                    self.cpu.set8(Reg8::Al, q as u8);
                    self.cpu.set8(Reg8::Ah, r as u8);
                }
            }
            OpSize::Word => {
                let dividend =
                    ((self.cpu.regs[2] as u16 as u32) << 16) | (self.cpu.regs[0] as u16 as u32);
                let divisor = src as u16;
                if divisor == 0 {
                    return Err(Fault::DivideError(eip));
                }
                if signed {
                    let dd = dividend as i32;
                    let dv = divisor as i16 as i32;
                    let q = dd.wrapping_div(dv);
                    let r = dd.wrapping_rem(dv);
                    if q > i16::MAX as i32 || q < i16::MIN as i32 {
                        return Err(Fault::DivideError(eip));
                    }
                    self.cpu.regs[0] = (self.cpu.regs[0] & !0xFFFF) | (q as u16 as u32);
                    self.cpu.regs[2] = (self.cpu.regs[2] & !0xFFFF) | (r as u16 as u32);
                } else {
                    let q = dividend / divisor as u32;
                    let r = dividend % divisor as u32;
                    if q > 0xFFFF {
                        return Err(Fault::DivideError(eip));
                    }
                    self.cpu.regs[0] = (self.cpu.regs[0] & !0xFFFF) | q;
                    self.cpu.regs[2] = (self.cpu.regs[2] & !0xFFFF) | r;
                }
            }
            OpSize::Dword => {
                let dividend = ((self.cpu.regs[2] as u64) << 32) | self.cpu.regs[0] as u64;
                if src == 0 {
                    return Err(Fault::DivideError(eip));
                }
                if signed {
                    let dd = dividend as i64;
                    let dv = src as i32 as i64;
                    if dd == i64::MIN && dv == -1 {
                        return Err(Fault::DivideError(eip));
                    }
                    let q = dd.wrapping_div(dv);
                    let r = dd.wrapping_rem(dv);
                    if q > i32::MAX as i64 || q < i32::MIN as i64 {
                        return Err(Fault::DivideError(eip));
                    }
                    self.cpu.regs[0] = q as u32;
                    self.cpu.regs[2] = r as u32;
                } else {
                    let q = dividend / src as u64;
                    let r = dividend % src as u64;
                    if q > u32::MAX as u64 {
                        return Err(Fault::DivideError(eip));
                    }
                    self.cpu.regs[0] = q as u32;
                    self.cpu.regs[2] = r as u32;
                }
            }
        }
        Ok(())
    }

    fn shift_impl(&mut self, op: Op, a: u32, cnt: u32, size: OpSize) -> u32 {
        let bits = size.bytes() * 8;
        if cnt == 0 {
            return a & size.mask();
        }
        let a = a & size.mask();
        let f = &mut self.cpu.eflags;
        match op {
            Op::Shl => {
                let r = if cnt >= bits {
                    0
                } else {
                    (a << cnt) & size.mask()
                };
                let cf = if cnt <= bits {
                    (a >> (bits - cnt)) & 1 != 0
                } else {
                    false
                };
                flags::zsp(f, r, size);
                let of = ((r & size.sign_bit()) != 0) != cf;
                let mut b = 0;
                if cf {
                    b |= CF;
                }
                if of {
                    b |= OF;
                }
                flags::set_bits(f, CF | OF, b);
                r
            }
            Op::Shr => {
                let r = if cnt >= bits { 0 } else { a >> cnt };
                let cf = if cnt <= bits {
                    (a >> (cnt - 1)) & 1 != 0
                } else {
                    false
                };
                flags::zsp(f, r, size);
                let of = a & size.sign_bit() != 0;
                let mut b = 0;
                if cf {
                    b |= CF;
                }
                if of {
                    b |= OF;
                }
                flags::set_bits(f, CF | OF, b);
                r
            }
            Op::Sar => {
                let sa = ((a << (32 - bits)) as i32) >> (32 - bits); // sign-extend to i32
                let r = if cnt >= bits {
                    ((sa >> 31) as u32) & size.mask()
                } else {
                    ((sa >> cnt) as u32) & size.mask()
                };
                let cf = if cnt <= bits {
                    ((sa >> (cnt - 1)) & 1) != 0
                } else {
                    sa < 0
                };
                flags::zsp(f, r, size);
                flags::set_bits(f, CF | OF, if cf { CF } else { 0 });
                r
            }
            Op::Rol => {
                let c = cnt % bits;
                let r = if c == 0 {
                    a
                } else {
                    ((a << c) | (a >> (bits - c))) & size.mask()
                };
                let cf = r & 1 != 0;
                flags::set_bits(f, CF, if cf { CF } else { 0 });
                r
            }
            Op::Ror => {
                let c = cnt % bits;
                let r = if c == 0 {
                    a
                } else {
                    ((a >> c) | (a << (bits - c))) & size.mask()
                };
                let cf = r & size.sign_bit() != 0;
                flags::set_bits(f, CF, if cf { CF } else { 0 });
                r
            }
            Op::Rcl | Op::Rcr => {
                let mut v = a;
                let mut cf = (*f & CF) != 0;
                for _ in 0..cnt {
                    if op == Op::Rcl {
                        let new_cf = v & size.sign_bit() != 0;
                        v = ((v << 1) | cf as u32) & size.mask();
                        cf = new_cf;
                    } else {
                        let new_cf = v & 1 != 0;
                        v = (v >> 1) | ((cf as u32) * size.sign_bit());
                        cf = new_cf;
                    }
                }
                flags::set_bits(f, CF, if cf { CF } else { 0 });
                v
            }
            _ => unreachable!(),
        }
    }

    fn string_op(
        &mut self,
        s: StrOp,
        rep: Option<RepKind>,
        size: OpSize,
        _next: u32,
    ) -> Result<(), Fault> {
        let step = size.bytes();
        let delta = |f: u32| -> u32 {
            if f & DF != 0 {
                0u32.wrapping_sub(step)
            } else {
                step
            }
        };
        loop {
            if rep.is_some() && self.cpu.regs[1] == 0 {
                break;
            }
            let esi = self.cpu.regs[6];
            let edi = self.cpu.regs[7];
            let d = delta(self.cpu.eflags);
            match s {
                StrOp::Movs => {
                    let v = match size {
                        OpSize::Byte => self.mem.read8(esi)? as u32,
                        OpSize::Word => self.mem.read16(esi)? as u32,
                        OpSize::Dword => self.mem.read32(esi)?,
                    };
                    match size {
                        OpSize::Byte => self.mem.write8(edi, v as u8)?,
                        OpSize::Word => self.mem.write16(edi, v as u16)?,
                        OpSize::Dword => self.mem.write32(edi, v)?,
                    }
                    self.cpu.regs[6] = esi.wrapping_add(d);
                    self.cpu.regs[7] = edi.wrapping_add(d);
                }
                StrOp::Stos => {
                    let v = self.cpu.regs[0];
                    match size {
                        OpSize::Byte => self.mem.write8(edi, v as u8)?,
                        OpSize::Word => self.mem.write16(edi, v as u16)?,
                        OpSize::Dword => self.mem.write32(edi, v)?,
                    }
                    self.cpu.regs[7] = edi.wrapping_add(d);
                }
                StrOp::Lods => {
                    let v = match size {
                        OpSize::Byte => self.mem.read8(esi)? as u32,
                        OpSize::Word => self.mem.read16(esi)? as u32,
                        OpSize::Dword => self.mem.read32(esi)?,
                    };
                    match size {
                        OpSize::Byte => self.cpu.set8(Reg8::Al, v as u8),
                        OpSize::Word => {
                            self.cpu.regs[0] = (self.cpu.regs[0] & !0xFFFF) | v;
                        }
                        OpSize::Dword => self.cpu.regs[0] = v,
                    }
                    self.cpu.regs[6] = esi.wrapping_add(d);
                }
                StrOp::Scas => {
                    let m = match size {
                        OpSize::Byte => self.mem.read8(edi)? as u32,
                        OpSize::Word => self.mem.read16(edi)? as u32,
                        OpSize::Dword => self.mem.read32(edi)?,
                    };
                    let acc = self.cpu.regs[0] & size.mask();
                    flags::sub(&mut self.cpu.eflags, acc, m, size, true);
                    self.cpu.regs[7] = edi.wrapping_add(d);
                }
                StrOp::Cmps => {
                    let a = match size {
                        OpSize::Byte => self.mem.read8(esi)? as u32,
                        OpSize::Word => self.mem.read16(esi)? as u32,
                        OpSize::Dword => self.mem.read32(esi)?,
                    };
                    let b = match size {
                        OpSize::Byte => self.mem.read8(edi)? as u32,
                        OpSize::Word => self.mem.read16(edi)? as u32,
                        OpSize::Dword => self.mem.read32(edi)?,
                    };
                    flags::sub(&mut self.cpu.eflags, a, b, size, true);
                    self.cpu.regs[6] = esi.wrapping_add(d);
                    self.cpu.regs[7] = edi.wrapping_add(d);
                }
            }
            match rep {
                None => break,
                Some(k) => {
                    self.cpu.regs[1] = self.cpu.regs[1].wrapping_sub(1);
                    if self.cpu.regs[1] == 0 {
                        break;
                    }
                    let zf = self.cpu.eflags & ZF != 0;
                    let term = match (k, s) {
                        (RepKind::RepE, StrOp::Scas | StrOp::Cmps) => !zf,
                        (RepKind::RepNe, StrOp::Scas | StrOp::Cmps) => zf,
                        _ => false,
                    };
                    if term {
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

pub(crate) enum Flow {
    Next,
    Jump(u32),
    Syscall(u8),
}

/// Advance the rolling branch-history signature with the next dispatch
/// address (a cheap shift-xor — only trace-key quality depends on it,
/// never an outcome).
#[inline]
fn hist_step(h: u8, eip: u32) -> u8 {
    (h << 1) ^ ((eip >> 2) as u8)
}

/// 32-bit ALU step shared by the lowered `AluRR`/`AluRI`/`AluMI` forms:
/// updates the flags exactly as the generic [`Machine::exec`] path does
/// and returns the result to write back, or `None` for the flag-only
/// operations (`cmp`, `test`). Always inlined so the per-kind handlers
/// below constant-fold the `match` away.
#[inline(always)]
fn alu32(k: AluK, f: &mut u32, a: u32, b: u32) -> Option<u32> {
    match k {
        AluK::Add => Some(flags::add(f, a, b, OpSize::Dword, true)),
        AluK::Sub => Some(flags::sub(f, a, b, OpSize::Dword, true)),
        AluK::And => Some(flags::logic(f, a & b, OpSize::Dword)),
        AluK::Or => Some(flags::logic(f, a | b, OpSize::Dword)),
        AluK::Xor => Some(flags::logic(f, a ^ b, OpSize::Dword)),
        AluK::Cmp => {
            flags::sub(f, a, b, OpSize::Dword, true);
            None
        }
        AluK::Test => {
            flags::logic(f, a & b, OpSize::Dword);
            None
        }
    }
}

/// 32-bit two/three-operand `imul` step: exactly the `Imul2`/`Imul3`
/// flag behaviour of the generic [`Machine::exec`] path.
#[inline]
fn imul32(f: &mut u32, lhs: u32, rhs: u32) -> u32 {
    let full = (lhs as i32 as i64) * (rhs as i32 as i64);
    let r = full as u32;
    flags::zsp(f, r, OpSize::Dword);
    let overflow = full != (r as i32 as i64);
    flags::set_bits(f, CF | OF, if overflow { CF | OF } else { 0 });
    r
}

/// A µop executor. Each lowered shape resolves to one of these at block
/// build time ([`LInst::new`]), so the block executors dispatch through
/// a direct function-pointer call instead of matching over every
/// [`UOp`] variant per retired instruction (threaded dispatch). Every
/// handler is an exact specialization of the corresponding
/// [`Machine::exec`] path — same flag helpers, same memory-access
/// order, same faults — so block execution stays bit-identical to the
/// per-step engine (the `block_engine_matches_stepwise` property pins
/// this).
pub(crate) type Handler = fn(&mut Machine, &LInst) -> Result<Flow, Fault>;

/// Resolve the execution handler for a lowered shape. ALU kinds get
/// per-kind handlers so the flag computation is a straight-line
/// specialization rather than a runtime dispatch on [`AluK`].
pub(crate) fn handler_of(uop: UOp) -> Handler {
    match uop {
        UOp::MovRR { .. } => h_mov_rr,
        UOp::MovRI { .. } => h_mov_ri,
        UOp::MovRM { .. } => h_mov_rm,
        UOp::MovMR { .. } => h_mov_mr,
        UOp::MovM8R8 { .. } => h_mov_m8r8,
        UOp::MovsxR32M8 { .. } => h_movsx_r32m8,
        UOp::MovzxR32M8 { .. } => h_movzx_r32m8,
        UOp::Lea { .. } => h_lea,
        UOp::PushR { .. } => h_push_r,
        UOp::PushI { .. } => h_push_i,
        UOp::PopR { .. } => h_pop_r,
        UOp::IncR { .. } => h_inc_r,
        UOp::DecR { .. } => h_dec_r,
        UOp::AluRR { k, .. } => match k {
            AluK::Add => h_add_rr,
            AluK::Sub => h_sub_rr,
            AluK::And => h_and_rr,
            AluK::Or => h_or_rr,
            AluK::Xor => h_xor_rr,
            AluK::Cmp => h_cmp_rr,
            AluK::Test => h_test_rr,
        },
        UOp::AluRI { k, .. } => match k {
            AluK::Add => h_add_ri,
            AluK::Sub => h_sub_ri,
            AluK::And => h_and_ri,
            AluK::Or => h_or_ri,
            AluK::Xor => h_xor_ri,
            AluK::Cmp => h_cmp_ri,
            AluK::Test => h_test_ri,
        },
        UOp::AluMI { .. } => h_alu_mi,
        UOp::JmpRel { .. } => h_jmp_rel,
        UOp::JccRel { .. } => h_jcc_rel,
        UOp::CallRel { .. } => h_call_rel,
        UOp::Ret { .. } => h_ret,
        UOp::Leave => h_leave,
        UOp::Nop => h_nop,
        UOp::Cdq => h_cdq,
        UOp::DivR { .. } => h_div_r,
        UOp::DivM { .. } => h_div_m,
        UOp::MulR { .. } => h_mul_r,
        UOp::ImulRR { .. } => h_imul_rr,
        UOp::ImulRM { .. } => h_imul_rm,
        UOp::ImulRRI { .. } => h_imul_rri,
        UOp::Int80 => h_int80,
        UOp::Slow => h_slow,
    }
}

fn h_mov_rr(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::MovRR { d, s } = li.uop else {
        unreachable!()
    };
    m.cpu.regs[d as usize] = m.cpu.regs[s as usize];
    Ok(Flow::Next)
}

fn h_mov_ri(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::MovRI { d, v } = li.uop else {
        unreachable!()
    };
    m.cpu.regs[d as usize] = v;
    Ok(Flow::Next)
}

fn h_mov_rm(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::MovRM { d, ea } = li.uop else {
        unreachable!()
    };
    let v = m.mem.read32(m.ea_lowered(ea))?;
    m.cpu.regs[d as usize] = v;
    Ok(Flow::Next)
}

fn h_mov_mr(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::MovMR { ea, s } = li.uop else {
        unreachable!()
    };
    m.mem.write32(m.ea_lowered(ea), m.cpu.regs[s as usize])?;
    Ok(Flow::Next)
}

fn h_mov_m8r8(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::MovM8R8 { ea, s } = li.uop else {
        unreachable!()
    };
    let v = m.cpu.get8(s);
    m.mem.write8(m.ea_lowered(ea), v)?;
    Ok(Flow::Next)
}

fn h_movsx_r32m8(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::MovsxR32M8 { d, ea } = li.uop else {
        unreachable!()
    };
    let v = m.mem.read8(m.ea_lowered(ea))?;
    m.cpu.regs[d as usize] = v as i8 as i32 as u32;
    Ok(Flow::Next)
}

fn h_movzx_r32m8(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::MovzxR32M8 { d, ea } = li.uop else {
        unreachable!()
    };
    let v = m.mem.read8(m.ea_lowered(ea))?;
    m.cpu.regs[d as usize] = v as u32;
    Ok(Flow::Next)
}

fn h_lea(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::Lea { d, ea } = li.uop else {
        unreachable!()
    };
    m.cpu.regs[d as usize] = m.ea_lowered(ea);
    Ok(Flow::Next)
}

fn h_push_r(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::PushR { s } = li.uop else {
        unreachable!()
    };
    m.push(m.cpu.regs[s as usize], OpSize::Dword)?;
    Ok(Flow::Next)
}

fn h_push_i(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::PushI { v } = li.uop else {
        unreachable!()
    };
    m.push(v, OpSize::Dword)?;
    Ok(Flow::Next)
}

fn h_pop_r(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::PopR { d } = li.uop else {
        unreachable!()
    };
    let v = m.pop(OpSize::Dword)?;
    m.cpu.regs[d as usize] = v;
    Ok(Flow::Next)
}

fn h_inc_r(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::IncR { d } = li.uop else {
        unreachable!()
    };
    let a = m.cpu.regs[d as usize];
    let r = flags::add(&mut m.cpu.eflags, a, 1, OpSize::Dword, false);
    m.cpu.regs[d as usize] = r;
    Ok(Flow::Next)
}

fn h_dec_r(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::DecR { d } = li.uop else {
        unreachable!()
    };
    let a = m.cpu.regs[d as usize];
    let r = flags::sub(&mut m.cpu.eflags, a, 1, OpSize::Dword, false);
    m.cpu.regs[d as usize] = r;
    Ok(Flow::Next)
}

// One RR and one RI handler per ALU kind: `alu32` is `inline(always)`,
// so each expansion folds to that kind's straight-line flag code.
macro_rules! alu_handlers {
    ($($rr:ident $ri:ident $k:ident),* $(,)?) => {$(
        fn $rr(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
            let UOp::AluRR { d, s, .. } = li.uop else {
                unreachable!()
            };
            let a = m.cpu.regs[d as usize];
            let b = m.cpu.regs[s as usize];
            if let Some(r) = alu32(AluK::$k, &mut m.cpu.eflags, a, b) {
                m.cpu.regs[d as usize] = r;
            }
            Ok(Flow::Next)
        }
        fn $ri(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
            let UOp::AluRI { d, v, .. } = li.uop else {
                unreachable!()
            };
            let a = m.cpu.regs[d as usize];
            if let Some(r) = alu32(AluK::$k, &mut m.cpu.eflags, a, v) {
                m.cpu.regs[d as usize] = r;
            }
            Ok(Flow::Next)
        }
    )*};
}

alu_handlers!(
    h_add_rr h_add_ri Add,
    h_sub_rr h_sub_ri Sub,
    h_and_rr h_and_ri And,
    h_or_rr h_or_ri Or,
    h_xor_rr h_xor_ri Xor,
    h_cmp_rr h_cmp_ri Cmp,
    h_test_rr h_test_ri Test,
);

fn h_alu_mi(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::AluMI { k, ea, v } = li.uop else {
        unreachable!()
    };
    let addr = m.ea_lowered(ea);
    let a = m.mem.read32(addr)?;
    // Flags are computed before the writeback attempt, as in the
    // generic path.
    if let Some(r) = alu32(k, &mut m.cpu.eflags, a, v) {
        m.mem.write32(addr, r)?;
    }
    Ok(Flow::Next)
}

fn h_jmp_rel(_m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::JmpRel { t } = li.uop else {
        unreachable!()
    };
    Ok(Flow::Jump(t))
}

fn h_jcc_rel(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::JccRel { c, t } = li.uop else {
        unreachable!()
    };
    Ok(if m.cpu.cond(c) {
        Flow::Jump(t)
    } else {
        Flow::Next
    })
}

fn h_call_rel(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::CallRel { t } = li.uop else {
        unreachable!()
    };
    m.push(li.next, OpSize::Dword)?;
    Ok(Flow::Jump(t))
}

fn h_ret(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::Ret { extra } = li.uop else {
        unreachable!()
    };
    let t = m.pop(OpSize::Dword)?;
    m.cpu.regs[4] = m.cpu.regs[4].wrapping_add(extra as u32);
    Ok(Flow::Jump(t))
}

fn h_leave(m: &mut Machine, _li: &LInst) -> Result<Flow, Fault> {
    m.cpu.regs[4] = m.cpu.regs[5];
    let v = m.pop(OpSize::Dword)?;
    m.cpu.regs[5] = v;
    Ok(Flow::Next)
}

fn h_nop(_m: &mut Machine, _li: &LInst) -> Result<Flow, Fault> {
    Ok(Flow::Next)
}

fn h_cdq(m: &mut Machine, _li: &LInst) -> Result<Flow, Fault> {
    m.cpu.regs[2] = if m.cpu.regs[0] & 0x8000_0000 != 0 {
        0xFFFF_FFFF
    } else {
        0
    };
    Ok(Flow::Next)
}

fn h_div_r(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::DivR { s, signed } = li.uop else {
        unreachable!()
    };
    let src = m.cpu.regs[s as usize];
    m.div_impl(src, OpSize::Dword, signed, li.addr)?;
    Ok(Flow::Next)
}

fn h_div_m(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::DivM { ea, signed } = li.uop else {
        unreachable!()
    };
    let src = m.mem.read32(m.ea_lowered(ea))?;
    m.div_impl(src, OpSize::Dword, signed, li.addr)?;
    Ok(Flow::Next)
}

fn h_mul_r(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::MulR { s, signed } = li.uop else {
        unreachable!()
    };
    let src = m.cpu.regs[s as usize];
    m.mul_impl(src, OpSize::Dword, signed);
    Ok(Flow::Next)
}

fn h_imul_rr(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::ImulRR { d, s } = li.uop else {
        unreachable!()
    };
    let (lhs, rhs) = (m.cpu.regs[d as usize], m.cpu.regs[s as usize]);
    m.cpu.regs[d as usize] = imul32(&mut m.cpu.eflags, lhs, rhs);
    Ok(Flow::Next)
}

fn h_imul_rm(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::ImulRM { d, ea } = li.uop else {
        unreachable!()
    };
    // Memory read (the only faulting step) before any flag write, as in
    // the generic path's operand-read order.
    let rhs = m.mem.read32(m.ea_lowered(ea))?;
    let lhs = m.cpu.regs[d as usize];
    m.cpu.regs[d as usize] = imul32(&mut m.cpu.eflags, lhs, rhs);
    Ok(Flow::Next)
}

fn h_imul_rri(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    let UOp::ImulRRI { d, s, v } = li.uop else {
        unreachable!()
    };
    let lhs = m.cpu.regs[s as usize];
    m.cpu.regs[d as usize] = imul32(&mut m.cpu.eflags, lhs, v);
    Ok(Flow::Next)
}

fn h_int80(_m: &mut Machine, _li: &LInst) -> Result<Flow, Fault> {
    Ok(Flow::Syscall(0x80))
}

fn h_slow(m: &mut Machine, li: &LInst) -> Result<Flow, Fault> {
    m.exec(&li.inst, li.addr, li.next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{Perms, Region};

    /// Build a machine with the given text at 0x1000, a stack at
    /// 0x8000..0x9000 (ESP=0x9000) and data at 0x2000.
    fn machine(text: Vec<u8>) -> Machine {
        let mut mem = Memory::new();
        mem.map(Region::with_data("text", 0x1000, text, Perms::RX))
            .unwrap();
        mem.map(Region::zeroed("data", 0x2000, 0x1000, Perms::RW))
            .unwrap();
        mem.map(Region::zeroed("stack", 0x8000, 0x1000, Perms::RW))
            .unwrap();
        let mut m = Machine::new(mem);
        m.cpu.eip = 0x1000;
        m.cpu.regs[4] = 0x9000;
        m
    }

    fn run_steps(m: &mut Machine, n: usize) {
        for _ in 0..n {
            assert_eq!(m.step(), StepEvent::Executed, "at eip={:#x}", m.cpu.eip);
        }
    }

    #[test]
    fn restore_count_is_monotonic_across_rewinds() {
        // mov eax, 5; inc eax
        let mut m = machine(vec![0xB8, 5, 0, 0, 0, 0x40]);
        assert_eq!(m.restore_count(), 0);
        run_steps(&mut m, 1);
        let snap = m.snapshot();
        for expected in 1..=3 {
            run_steps(&mut m, 1);
            m.restore(&snap);
            assert_eq!(m.restore_count(), expected);
            // The counter is replay work performed, not snapshot state:
            // rewinding must not rewind it.
            assert_eq!(m.icount, 1);
        }
    }

    #[test]
    fn footprint_marks_fetched_bytes_on_both_engines() {
        // mov eax, 5; mov ebx, 7; add eax, ebx  (12 bytes at 0x1000)
        let text = vec![0xB8, 5, 0, 0, 0, 0xBB, 7, 0, 0, 0, 0x01, 0xD8];
        for block_engine in [false, true] {
            let mut m = machine(text.clone());
            m.set_block_engine(block_engine);
            m.enable_footprint();
            assert!(m.footprint_enabled());
            m.add_breakpoint(0x100C);
            assert_eq!(m.run_until_event(100), RunOutcome::Breakpoint(0x100C));
            let fp = m.take_footprint().expect("footprint was enabled");
            assert!(!m.footprint_enabled());
            assert!(fp.contains(0x1000) && fp.contains(0x100B));
            assert!(!fp.contains(0x100C));
            assert_eq!(fp.ranges(), vec![(0x1000, 12)]);
        }
    }

    #[test]
    fn footprint_survives_restore_and_unions_replays() {
        // Two disjoint paths from a common prefix:
        //   0x1000: test eax,eax; je +2; inc ebx; inc ecx
        // EAX=0 takes the jump (skips inc ebx); EAX=1 falls through.
        let text = vec![0x85, 0xC0, 0x74, 0x01, 0x43, 0x41];
        let mut m = machine(text);
        m.enable_footprint();
        let snap = m.snapshot();
        // Replay 1: jump taken — byte 0x1004 (inc ebx) never fetched
        // on the per-step engine.
        m.cpu.regs[0] = 0;
        run_steps(&mut m, 3);
        m.restore(&snap);
        // Replay 2: falls through — fetches 0x1004 too.
        m.cpu.regs[0] = 1;
        run_steps(&mut m, 4);
        let fp = m.take_footprint().unwrap();
        // The union of both replays covers the whole sequence even
        // though neither single replay did, and restore() did not
        // rewind the marks from replay 1.
        assert_eq!(fp.ranges(), vec![(0x1000, 6)]);
    }

    #[test]
    fn footprint_ranges_coalesce_and_spill_merges() {
        let mut m = machine(vec![0x90]);
        m.enable_footprint();
        let mut fp = m.take_footprint().unwrap();
        // Disjoint marks stay separate; adjacent/overlapping merge.
        fp.mark_range(0x1000, 4);
        fp.mark_range(0x1004, 4); // adjacent → coalesces
        fp.mark_range(0x1010, 2); // gap → separate
        fp.mark_range(0x1011, 5); // overlap → extends
        assert_eq!(fp.ranges(), vec![(0x1000, 8), (0x1010, 6)]);
        // Word-boundary straddle: a range crossing a 64-bit word
        // boundary of the bitmap is marked contiguously.
        fp.mark_range(0x1000 + 60, 10);
        assert_eq!(fp.ranges(), vec![(0x1000, 8), (0x1010, 6), (0x103C, 10)]);
        assert!(fp.contains(0x103F) && fp.contains(0x1040) && fp.contains(0x1045));
        assert!(!fp.contains(0x1046));
        // Out-of-bitmap addresses land in the spill list; contiguous
        // marks coalesce there too.
        fp.mark_range(0x8000, 2);
        fp.mark_range(0x8002, 2);
        assert!(fp.contains(0x8003));
        assert!(!fp.contains(0x8004));
        assert!(fp.ranges().contains(&(0x8000, 4)));
        // Zero-length marks are ignored.
        fp.mark_range(0x9000, 0);
        assert!(!fp.contains(0x9000));
    }

    #[test]
    fn mov_add_sequence() {
        // mov eax, 5; mov ebx, 7; add eax, ebx
        let mut m = machine(vec![0xB8, 5, 0, 0, 0, 0xBB, 7, 0, 0, 0, 0x01, 0xD8]);
        run_steps(&mut m, 3);
        assert_eq!(m.cpu.regs[0], 12);
        assert_eq!(m.icount, 3);
    }

    #[test]
    fn push_pop_stack_discipline() {
        // push 0x2000; pop eax
        let mut m = machine(vec![0x68, 0x00, 0x20, 0x00, 0x00, 0x58]);
        run_steps(&mut m, 1);
        assert_eq!(m.cpu.regs[4], 0x8FFC);
        run_steps(&mut m, 1);
        assert_eq!(m.cpu.regs[0], 0x2000);
        assert_eq!(m.cpu.regs[4], 0x9000);
    }

    #[test]
    fn je_taken_and_not_taken() {
        // xor eax, eax; test eax, eax; je +2; inc ebx; inc ecx
        let text = vec![0x31, 0xC0, 0x85, 0xC0, 0x74, 0x01, 0x43, 0x41];
        let mut m = machine(text);
        run_steps(&mut m, 4);
        // je taken: skipped inc ebx, executed inc ecx.
        assert_eq!(m.cpu.regs[3], 0);
        assert_eq!(m.cpu.regs[1], 1);

        // mov eax,1; test eax,eax; je +2; inc ebx; inc ecx
        let text = vec![0xB8, 1, 0, 0, 0, 0x85, 0xC0, 0x74, 0x01, 0x43, 0x41];
        let mut m = machine(text);
        run_steps(&mut m, 5);
        assert_eq!(m.cpu.regs[3], 1);
        assert_eq!(m.cpu.regs[1], 1);
    }

    #[test]
    fn call_and_ret() {
        // call +3; inc ebx; (jmp to end); [target]: mov eax, 9; ret
        // layout: 0x1000: E8 04 00 00 00 (call 0x1009)
        //         0x1005: 43 (inc ebx)
        //         0x1006: EB 06 (jmp 0x100E)
        //         0x1008: 90
        //         0x1009: B8 09 00 00 00? overlaps; use simpler layout:
        let text = vec![
            0xE8, 0x02, 0x00, 0x00, 0x00, // call 0x1007
            0x43, // inc ebx
            0xF4, // hlt (should not execute)
            0xB8, 0x09, 0x00, 0x00, 0x00, // 0x1007: mov eax,9
            0xC3, // ret
        ];
        let mut m = machine(text);
        run_steps(&mut m, 3); // call, mov, ret
        assert_eq!(m.cpu.regs[0], 9);
        assert_eq!(m.cpu.eip, 0x1005);
        run_steps(&mut m, 1); // inc ebx
        assert_eq!(m.cpu.regs[3], 1);
    }

    #[test]
    fn syscall_event() {
        // mov eax, 1; int 0x80
        let mut m = machine(vec![0xB8, 1, 0, 0, 0, 0xCD, 0x80]);
        run_steps(&mut m, 1);
        assert_eq!(m.step(), StepEvent::Syscall(0x80));
        assert_eq!(m.cpu.eip, 0x1007); // advanced past int
    }

    #[test]
    fn invalid_opcode_faults_sigill() {
        // 0x0F 0x0B = ud2
        let mut m = machine(vec![0x0F, 0x0B]);
        let StepEvent::Fault(f) = m.step() else {
            panic!("expected fault")
        };
        assert_eq!(f.signal_name(), "SIGILL");
        assert_eq!(m.cpu.eip, 0x1000); // eip not advanced
    }

    #[test]
    fn wild_store_faults_sigsegv() {
        // mov [0x5000], eax — unmapped
        let mut m = machine(vec![0xA3, 0x00, 0x50, 0x00, 0x00]);
        let StepEvent::Fault(f) = m.step() else {
            panic!("expected fault")
        };
        assert_eq!(f.signal_name(), "SIGSEGV");
    }

    #[test]
    fn wild_jump_faults_fetch() {
        // jmp -0x1000 (to unmapped 0x5)
        let mut m = machine(vec![0xE9, 0x00, 0xF0, 0xFF, 0xFF]);
        assert_eq!(m.step(), StepEvent::Executed);
        let StepEvent::Fault(f) = m.step() else {
            panic!("expected fault")
        };
        assert!(matches!(f, Fault::FetchFault(_)));
    }

    #[test]
    fn divide_by_zero_faults_sigfpe() {
        // xor ecx, ecx; mov eax, 5; div ecx
        let mut m = machine(vec![0x31, 0xC9, 0xB8, 5, 0, 0, 0, 0xF7, 0xF1]);
        run_steps(&mut m, 2);
        let StepEvent::Fault(f) = m.step() else {
            panic!("expected fault")
        };
        assert_eq!(f.signal_name(), "SIGFPE");
    }

    #[test]
    fn div_and_idiv_results() {
        // mov edx,0; mov eax,100; mov ecx,7; div ecx
        let mut m = machine(vec![
            0xBA, 0, 0, 0, 0, 0xB8, 100, 0, 0, 0, 0xB9, 7, 0, 0, 0, 0xF7, 0xF1,
        ]);
        run_steps(&mut m, 4);
        assert_eq!(m.cpu.regs[0], 14);
        assert_eq!(m.cpu.regs[2], 2);
        // idiv: -100 / 7 = -14 rem -2
        let mut m = machine(vec![
            0xB8, 0x9C, 0xFF, 0xFF, 0xFF, // mov eax, -100
            0x99, // cdq
            0xB9, 7, 0, 0, 0, // mov ecx, 7
            0xF7, 0xF9, // idiv ecx
        ]);
        run_steps(&mut m, 4);
        assert_eq!(m.cpu.regs[0] as i32, -14);
        assert_eq!(m.cpu.regs[2] as i32, -2);
    }

    #[test]
    fn breakpoint_pauses_before_instruction() {
        let mut m = machine(vec![0x40, 0x40, 0x40]); // inc eax x3
        m.add_breakpoint(0x1001);
        let out = m.run_until_event(100);
        assert_eq!(out, RunOutcome::Breakpoint(0x1001));
        assert_eq!(m.cpu.regs[0], 1); // only first inc ran
        assert!(m.remove_breakpoint(0x1001));
        assert!(!m.remove_breakpoint(0x1001));
    }

    #[test]
    fn budget_exhaustion() {
        // jmp self
        let mut m = machine(vec![0xEB, 0xFE]);
        assert_eq!(m.run_until_event(1000), RunOutcome::Budget);
        assert_eq!(m.icount, 1000);
    }

    #[test]
    fn rep_movsb_copies() {
        // esi=0x2000, edi=0x2010, ecx=4; rep movsb
        let mut m = machine(vec![0xF3, 0xA4]);
        m.mem.write_bytes(0x2000, b"abcd").unwrap();
        m.cpu.regs[6] = 0x2000;
        m.cpu.regs[7] = 0x2010;
        m.cpu.regs[1] = 4;
        run_steps(&mut m, 1);
        assert_eq!(m.mem.read_bytes(0x2010, 4).unwrap(), b"abcd");
        assert_eq!(m.cpu.regs[1], 0);
        assert_eq!(m.cpu.regs[6], 0x2004);
    }

    #[test]
    fn repe_cmpsb_compares() {
        let mut m = machine(vec![0xF3, 0xA6]);
        m.mem.write_bytes(0x2000, b"abcX").unwrap();
        m.mem.write_bytes(0x2010, b"abcY").unwrap();
        m.cpu.regs[6] = 0x2000;
        m.cpu.regs[7] = 0x2010;
        m.cpu.regs[1] = 4;
        run_steps(&mut m, 1);
        // Stops on the mismatch at offset 3; ZF clear.
        assert_eq!(m.cpu.eflags & ZF, 0);
        assert_eq!(m.cpu.regs[1], 0);
    }

    #[test]
    fn string_op_faults_propagate() {
        // rep stosb into unmapped memory
        let mut m = machine(vec![0xF3, 0xAA]);
        m.cpu.regs[7] = 0x5000;
        m.cpu.regs[1] = 10;
        let StepEvent::Fault(f) = m.step() else {
            panic!("expected fault")
        };
        assert_eq!(f.signal_name(), "SIGSEGV");
    }

    #[test]
    fn leave_restores_frame() {
        // push ebp; mov ebp, esp; sub esp, 0x10; leave; ret would need stack
        let mut m = machine(vec![0x55, 0x89, 0xE5, 0x83, 0xEC, 0x10, 0xC9]);
        m.cpu.regs[5] = 0xAAAA;
        run_steps(&mut m, 4);
        assert_eq!(m.cpu.regs[5], 0xAAAA);
        assert_eq!(m.cpu.regs[4], 0x9000);
    }

    #[test]
    fn setcc_materializes_flag() {
        // cmp eax, 0 ; sete al
        let mut m = machine(vec![0x83, 0xF8, 0x00, 0x0F, 0x94, 0xC0]);
        run_steps(&mut m, 2);
        assert_eq!(m.cpu.regs[0] & 0xFF, 1);
    }

    #[test]
    fn movzx_movsx() {
        // mov al, 0x80; movzx ebx, al; movsx ecx, al
        let mut m = machine(vec![0xB0, 0x80, 0x0F, 0xB6, 0xD8, 0x0F, 0xBE, 0xC8]);
        run_steps(&mut m, 3);
        assert_eq!(m.cpu.regs[3], 0x80);
        assert_eq!(m.cpu.regs[1], 0xFFFF_FF80);
    }

    #[test]
    fn int3_faults_trap() {
        let mut m = machine(vec![0xCC]);
        let StepEvent::Fault(f) = m.step() else {
            panic!("expected fault")
        };
        assert_eq!(f, Fault::Trap(0x1000));
    }

    #[test]
    fn conditions_cover_both_polarities() {
        let mut cpu = Cpu::new();
        cpu.eflags = ZF;
        assert!(cpu.cond(Cond::E));
        assert!(!cpu.cond(Cond::Ne));
        assert!(cpu.cond(Cond::Be));
        assert!(!cpu.cond(Cond::A));
        assert!(cpu.cond(Cond::Le));
        cpu.eflags = SF;
        assert!(cpu.cond(Cond::S));
        assert!(cpu.cond(Cond::L)); // SF != OF
        assert!(!cpu.cond(Cond::Ge));
        cpu.eflags = SF | OF;
        assert!(cpu.cond(Cond::Ge));
        cpu.eflags = CF;
        assert!(cpu.cond(Cond::B));
        assert!(!cpu.cond(Cond::Nb));
    }

    #[test]
    fn pusha_popa_roundtrip() {
        let mut m = machine(vec![0x60, 0x61]);
        for n in 0..8 {
            if n != 4 {
                m.cpu.regs[n] = 0x100 + n as u32;
            }
        }
        let before = m.cpu.regs;
        run_steps(&mut m, 2);
        assert_eq!(m.cpu.regs, before);
    }

    #[test]
    fn xchg_reg_mem() {
        // mov [0x2000], eax via xchg
        let mut m = machine(vec![0x87, 0x05, 0x00, 0x20, 0x00, 0x00]);
        m.cpu.regs[0] = 42;
        m.mem.write32(0x2000, 7).unwrap();
        run_steps(&mut m, 1);
        assert_eq!(m.cpu.regs[0], 7);
        assert_eq!(m.mem.read32(0x2000).unwrap(), 42);
    }

    #[test]
    fn shifts_behave() {
        // mov eax, 3; shl eax, 4 => 48
        let mut m = machine(vec![0xB8, 3, 0, 0, 0, 0xC1, 0xE0, 0x04]);
        run_steps(&mut m, 2);
        assert_eq!(m.cpu.regs[0], 48);
        // sar of negative keeps sign: mov eax,-8; sar eax,1 => -4
        let mut m = machine(vec![0xB8, 0xF8, 0xFF, 0xFF, 0xFF, 0xD1, 0xF8]);
        run_steps(&mut m, 2);
        assert_eq!(m.cpu.regs[0] as i32, -4);
    }

    #[test]
    fn imul3_sets_result() {
        // imul eax, ecx, 10
        let mut m = machine(vec![0x6B, 0xC1, 0x0A]);
        m.cpu.regs[1] = 7;
        run_steps(&mut m, 1);
        assert_eq!(m.cpu.regs[0], 70);
    }

    #[test]
    fn indirect_call_through_register() {
        // mov eax, 0x1008; call eax; hlt; [0x1008]: ret
        let mut m = machine(vec![
            0xB8, 0x08, 0x10, 0x00, 0x00, // mov eax, 0x1008
            0xFF, 0xD0, // call eax
            0xF4, // 0x1007: hlt (skipped by ret to here? no: ret to 0x1007)
            0xC3, // 0x1008: ret
        ]);
        run_steps(&mut m, 3);
        assert_eq!(m.cpu.eip, 0x1007);
    }

    #[test]
    fn loop_decrements_ecx() {
        // mov ecx, 3; [l]: inc eax; loop l
        let mut m = machine(vec![0xB9, 3, 0, 0, 0, 0x40, 0xE2, 0xFD]);
        run_steps(&mut m, 1 + 3 * 2);
        assert_eq!(m.cpu.regs[0], 3);
        assert_eq!(m.cpu.regs[1], 0);
    }

    #[test]
    fn rel16_branch_truncates_eip_and_faults() {
        // 66 E9 00 00: jmp rel16 0 -> eip &= 0xFFFF -> unmapped, fetch fault
        let mut m = machine(vec![0x66, 0xE9, 0x00, 0x00]);
        assert_eq!(m.step(), StepEvent::Executed);
        let StepEvent::Fault(f) = m.step() else {
            panic!("expected fetch fault")
        };
        assert!(matches!(f, Fault::FetchFault(_)));
    }

    #[test]
    fn flipped_je_to_jne_takes_other_path() {
        // The core phenomenon of the paper, at machine level:
        //   xor eax,eax; test eax,eax; J? +1; inc ebx; inc ecx
        let good = vec![0x31, 0xC0, 0x85, 0xC0, 0x74, 0x01, 0x43, 0x41];
        let mut flipped = good.clone();
        flipped[4] ^= 0x01; // je -> jne
        let mut m1 = machine(good);
        run_steps(&mut m1, 4);
        let mut m2 = machine(flipped);
        run_steps(&mut m2, 5);
        assert_eq!(m1.cpu.regs[3], 0); // je skipped inc ebx
        assert_eq!(m2.cpu.regs[3], 1); // jne fell through into it
    }
}
