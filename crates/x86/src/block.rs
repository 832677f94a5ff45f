//! Basic-block cache for the interpreter.
//!
//! The campaign engine replays the same few hundred bytes of server text
//! thousands of times, so paying fetch + decode + bookkeeping per retired
//! instruction is the dominant cost (EXPERIMENTS.md phase profile). A
//! [`Block`] is a straight-line run of instructions decoded once; the
//! [`Machine`](crate::Machine) dispatch loop then executes a whole block
//! per iteration with a single budget/breakpoint check and one batched
//! icount add — the classic dynamic-translation move, minus the
//! translation (execution still goes through the interpreter's `exec`).
//!
//! Soundness rests on one invariant, maintained by
//! [`Memory`](crate::Memory)'s executable-write journal: *every cached
//! block decodes to exactly the bytes currently in memory*. Each write
//! that bumps the executable generation logs its address, and the machine
//! invalidates exactly the blocks covering logged bytes — on entry to the
//! run loop, between instructions of a self-modifying block, and across
//! snapshot restores (where the journal also proves the snapshot is an
//! ancestor state, so a rewind only needs to drop blocks over the bytes
//! poked since it was taken).

use crate::cpu::{handler_of, Handler};
use crate::inst::{Cond, Inst, MemOperand, Op, OpSize, Operand, Reg8};
use std::sync::Arc;

/// Number of sets in the block cache (power of two), indexed by a hash
/// of the entry EIP. Conflicts only cost a rebuild, never correctness.
const CACHE_SETS: usize = 4096;

/// Associativity: each set holds this many blocks with one LRU bit, so
/// two hot entries that hash to the same set no longer thrash each
/// other (the conflict pattern the direct-mapped PR 3 cache paid for
/// with rebuild storms — evictions under pressure are now counted in
/// [`BlockStats::conflict_evictions`]).
const CACHE_WAYS: usize = 2;

/// Longest block, in instructions. Bounds the work a single dispatch
/// commits to before budget and breakpoints are re-checked.
pub(crate) const MAX_BLOCK_INSTS: usize = 64;

/// A decoded straight-line run of instructions starting at `entry`,
/// terminated by a control transfer, a software interrupt, an invalid
/// instruction, the end of fetchable memory, or the length cap.
#[derive(Debug)]
pub struct Block {
    /// Entry EIP — the cache key.
    pub entry: u32,
    /// One past the last byte of the last instruction (`u64` because a
    /// block may end exactly at the 4 GiB boundary).
    pub end: u64,
    /// The lowered instructions with their addresses.
    pub insts: Vec<LInst>,
    /// Whether any instruction observes the live instruction counter
    /// (`rdtsc`). Such blocks are executed through the precise
    /// single-step path so the counter they read is exact.
    pub reads_icount: bool,
    /// Whether any lowered instruction may write memory (and therefore
    /// bump the executable generation). Blocks without writes take the
    /// instrumentation-free fast executor: no per-instruction
    /// self-modification re-check is ever needed.
    pub writes: bool,
}

/// One instruction of a block: the decoded form (kept for the `Slow`
/// fallback), the successor address, the pre-resolved fast form, and
/// its execution handler (threaded dispatch: one indirect call per
/// µop instead of a match over every variant).
#[derive(Debug, Clone, Copy)]
pub struct LInst {
    pub(crate) addr: u32,
    pub(crate) next: u32,
    pub(crate) inst: Inst,
    pub(crate) uop: UOp,
    pub(crate) handler: Handler,
}

impl LInst {
    /// Lower one decoded instruction at `addr` (whose successor is
    /// `next`) and resolve its dispatch handler.
    pub(crate) fn new(addr: u32, next: u32, inst: Inst) -> LInst {
        let uop = lower(&inst, next);
        LInst {
            addr,
            next,
            inst,
            uop,
            handler: handler_of(uop),
        }
    }
}

/// Pre-resolved `base + disp` effective address (no SIB index). `base`
/// is a register number, or [`Ea::NO_BASE`] for absolute addressing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ea {
    pub base: u8,
    pub disp: u32,
}

impl Ea {
    pub const NO_BASE: u8 = 8;
}

/// Two-operand 32-bit ALU kinds sharing one lowered fast path. `Cmp`
/// and `Test` compute flags without a writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AluK {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Cmp,
    Test,
}

/// A lowered instruction. The handful of operand shapes that dominate
/// the compiled servers' dynamic mix (lea/push/pop/mov through
/// `[base+disp]`, register ALU, relative branches — ~95% of retired
/// instructions, see EXPERIMENTS.md) get direct variants the block
/// executor dispatches without the general `exec` operand machinery;
/// everything else is `Slow` and falls back to `exec` verbatim. Every
/// fast variant preserves `exec`'s semantics exactly: same flag
/// helpers, same access order, same fault addresses and partial-write
/// behaviour.
#[derive(Debug, Clone, Copy)]
pub(crate) enum UOp {
    MovRR { d: u8, s: u8 },
    MovRI { d: u8, v: u32 },
    MovRM { d: u8, ea: Ea },
    MovMR { ea: Ea, s: u8 },
    MovM8R8 { ea: Ea, s: Reg8 },
    MovsxR32M8 { d: u8, ea: Ea },
    MovzxR32M8 { d: u8, ea: Ea },
    Lea { d: u8, ea: Ea },
    PushR { s: u8 },
    PushI { v: u32 },
    PopR { d: u8 },
    IncR { d: u8 },
    DecR { d: u8 },
    AluRR { k: AluK, d: u8, s: u8 },
    AluRI { k: AluK, d: u8, v: u32 },
    AluMI { k: AluK, ea: Ea, v: u32 },
    JmpRel { t: u32 },
    JccRel { c: Cond, t: u32 },
    CallRel { t: u32 },
    Ret { extra: u16 },
    Leave,
    Nop,
    // Residual slow-path shapes measured by the PR 7 profiler (the
    // itoa idiv/cdq cluster, crypt_hash's imul, the int80 syscall
    // gate) get dedicated µops so hot code stays out of generic exec.
    Cdq,
    DivR { s: u8, signed: bool },
    DivM { ea: Ea, signed: bool },
    MulR { s: u8, signed: bool },
    ImulRR { d: u8, s: u8 },
    ImulRM { d: u8, ea: Ea },
    ImulRRI { d: u8, s: u8, v: u32 },
    Int80,
    Slow,
}

impl UOp {
    /// Can this form write memory (and therefore bump the executable
    /// generation)? The block executor only re-checks the generation
    /// after instructions for which this holds; the rest cannot
    /// self-modify. `Slow` is conservatively `true`.
    #[inline]
    pub(crate) fn may_write(self) -> bool {
        matches!(
            self,
            UOp::MovMR { .. }
                | UOp::MovM8R8 { .. }
                | UOp::AluMI { .. }
                | UOp::PushR { .. }
                | UOp::PushI { .. }
                | UOp::CallRel { .. }
                | UOp::Slow
        )
    }
}

/// Lower one decoded instruction (whose successor is `next`) to its
/// fast form, or `Slow` when no specialized variant applies.
pub(crate) fn lower(i: &Inst, next: u32) -> UOp {
    let ea_of = |m: &MemOperand| {
        if m.index.is_some() {
            return None;
        }
        Some(Ea {
            base: m.base.map_or(Ea::NO_BASE, |r| r as u8),
            disp: m.disp as u32,
        })
    };
    let d32 = i.size == OpSize::Dword;
    let alu = match i.op {
        Op::Add => Some(AluK::Add),
        Op::Sub => Some(AluK::Sub),
        Op::And => Some(AluK::And),
        Op::Or => Some(AluK::Or),
        Op::Xor => Some(AluK::Xor),
        Op::Cmp => Some(AluK::Cmp),
        Op::Test => Some(AluK::Test),
        _ => None,
    };
    match (i.op, &i.dst, &i.src) {
        (Op::Nop, _, _) => UOp::Nop,
        (Op::Mov, Some(Operand::Reg(d)), Some(Operand::Reg(s))) if d32 => UOp::MovRR {
            d: *d as u8,
            s: *s as u8,
        },
        (Op::Mov, Some(Operand::Reg(d)), Some(Operand::Imm(v))) if d32 => UOp::MovRI {
            d: *d as u8,
            v: *v as u32,
        },
        (Op::Mov, Some(Operand::Reg(d)), Some(Operand::Mem(m))) if d32 => match ea_of(m) {
            Some(ea) => UOp::MovRM { d: *d as u8, ea },
            None => UOp::Slow,
        },
        (Op::Mov, Some(Operand::Mem(m)), Some(Operand::Reg(s))) if d32 => match ea_of(m) {
            Some(ea) => UOp::MovMR { ea, s: *s as u8 },
            None => UOp::Slow,
        },
        (Op::Mov, Some(Operand::Mem(m)), Some(Operand::Reg8(s))) if i.size == OpSize::Byte => {
            match ea_of(m) {
                Some(ea) => UOp::MovM8R8 { ea, s: *s },
                None => UOp::Slow,
            }
        }
        (Op::Movsx, Some(Operand::Reg(d)), Some(Operand::Mem(m)))
            if d32 && i.size2 == OpSize::Byte =>
        {
            match ea_of(m) {
                Some(ea) => UOp::MovsxR32M8 { d: *d as u8, ea },
                None => UOp::Slow,
            }
        }
        (Op::Movzx, Some(Operand::Reg(d)), Some(Operand::Mem(m)))
            if d32 && i.size2 == OpSize::Byte =>
        {
            match ea_of(m) {
                Some(ea) => UOp::MovzxR32M8 { d: *d as u8, ea },
                None => UOp::Slow,
            }
        }
        // `lea` ignores the operand size in exec (always a 32-bit write).
        (Op::Lea, Some(Operand::Reg(d)), Some(Operand::Mem(m))) => match ea_of(m) {
            Some(ea) => UOp::Lea { d: *d as u8, ea },
            None => UOp::Slow,
        },
        (Op::Push, Some(Operand::Reg(s)), _) if d32 => UOp::PushR { s: *s as u8 },
        (Op::Push, Some(Operand::Imm(v)), _) if d32 => UOp::PushI { v: *v as u32 },
        (Op::Pop, Some(Operand::Reg(d)), _) if d32 => UOp::PopR { d: *d as u8 },
        (Op::Inc, Some(Operand::Reg(d)), _) if d32 => UOp::IncR { d: *d as u8 },
        (Op::Dec, Some(Operand::Reg(d)), _) if d32 => UOp::DecR { d: *d as u8 },
        (_, Some(Operand::Reg(d)), Some(Operand::Reg(s))) if d32 && alu.is_some() => UOp::AluRR {
            k: alu.unwrap(),
            d: *d as u8,
            s: *s as u8,
        },
        (_, Some(Operand::Reg(d)), Some(Operand::Imm(v))) if d32 && alu.is_some() => UOp::AluRI {
            k: alu.unwrap(),
            d: *d as u8,
            v: *v as u32,
        },
        (_, Some(Operand::Mem(m)), Some(Operand::Imm(v))) if d32 && alu.is_some() => {
            match ea_of(m) {
                Some(ea) => UOp::AluMI {
                    k: alu.unwrap(),
                    ea,
                    v: *v as u32,
                },
                None => UOp::Slow,
            }
        }
        (Op::Jmp, Some(Operand::Rel(d)), _) if d32 => UOp::JmpRel {
            t: next.wrapping_add(*d as u32),
        },
        (Op::Jcc(c), Some(Operand::Rel(d)), _) if d32 => UOp::JccRel {
            c,
            t: next.wrapping_add(*d as u32),
        },
        (Op::Call, Some(Operand::Rel(d)), _) if d32 => UOp::CallRel {
            t: next.wrapping_add(*d as u32),
        },
        (Op::Ret(extra), _, _) => UOp::Ret { extra },
        (Op::Leave, _, _) => UOp::Leave,
        (Op::Cdq, _, _) if d32 => UOp::Cdq,
        (Op::Div | Op::Idiv, Some(Operand::Reg(s)), _) if d32 => UOp::DivR {
            s: *s as u8,
            signed: i.op == Op::Idiv,
        },
        (Op::Div | Op::Idiv, Some(Operand::Mem(m)), _) if d32 => match ea_of(m) {
            Some(ea) => UOp::DivM {
                ea,
                signed: i.op == Op::Idiv,
            },
            None => UOp::Slow,
        },
        (Op::Mul | Op::Imul1, Some(Operand::Reg(s)), _) if d32 => UOp::MulR {
            s: *s as u8,
            signed: i.op == Op::Imul1,
        },
        (Op::Imul2, Some(Operand::Reg(d)), Some(Operand::Reg(s))) if d32 => UOp::ImulRR {
            d: *d as u8,
            s: *s as u8,
        },
        (Op::Imul2, Some(Operand::Reg(d)), Some(Operand::Mem(m))) if d32 => match ea_of(m) {
            Some(ea) => UOp::ImulRM { d: *d as u8, ea },
            None => UOp::Slow,
        },
        (Op::Imul3, Some(Operand::Reg(d)), Some(Operand::Reg(s)))
            if d32 && matches!(i.src2, Some(Operand::Imm(_))) =>
        {
            let Some(Operand::Imm(v)) = i.src2 else {
                unreachable!()
            };
            UOp::ImulRRI {
                d: *d as u8,
                s: *s as u8,
                v: v as u32,
            }
        }
        (Op::Int(0x80), _, _) => UOp::Int80,
        _ => UOp::Slow,
    }
}

impl Block {
    /// Does the block's byte range cover `addr`?
    #[inline]
    pub fn covers(&self, addr: u32) -> bool {
        (self.entry as u64) <= (addr as u64) && (addr as u64) < self.end
    }
}

/// Cumulative block-cache counters, exposed for tests and the bench
/// crate's cache-retention measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Blocks decoded and inserted.
    pub built: u64,
    /// Dispatches served from the cache.
    pub hits: u64,
    /// Blocks dropped by invalidation (targeted or full clears).
    pub invalidated: u64,
    /// Resident blocks displaced by an insert into a full set (set
    /// pressure, not staleness — each one is a future rebuild).
    pub conflict_evictions: u64,
    /// Blocks currently resident.
    pub cached: usize,
}

/// Two-way set-associative `entry → Arc<Block>` cache with per-set LRU.
/// Blocks are immutable and reference-counted so a dispatched block
/// stays valid even if executing it invalidates its own slot
/// (self-modifying code).
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockCache {
    /// `CACHE_SETS * CACHE_WAYS` entries, set-major: the ways of set
    /// `s` live at `s * CACHE_WAYS ..`.
    slots: Vec<Option<Arc<Block>>>,
    /// Per-set LRU: the way index to victimize next.
    lru: Vec<u8>,
    /// Indices of occupied slots, unordered. Keeps journal-driven
    /// invalidation proportional to the resident population instead of
    /// the full slot array — restore-heavy campaigns flush the journal
    /// several times per run.
    occupied: Vec<u32>,
    built: u64,
    hits: u64,
    invalidated: u64,
    conflict_evictions: u64,
}

impl BlockCache {
    #[inline]
    fn set_of(entry: u32) -> usize {
        (entry as usize ^ (entry as usize >> 12)) & (CACHE_SETS - 1)
    }

    /// Count a resident-loop re-execution: the dispatcher re-ran the
    /// block it already holds without consulting the cache, which is a
    /// hit for accounting purposes (same decoded bytes reused).
    #[inline]
    pub fn note_resident_hit(&mut self) {
        self.hits += 1;
    }

    /// The cached block entered at `entry`, if resident.
    #[inline]
    pub fn get(&mut self, entry: u32) -> Option<Arc<Block>> {
        let base = Self::set_of(entry) * CACHE_WAYS;
        for way in 0..CACHE_WAYS {
            if let Some(Some(b)) = self.slots.get(base + way) {
                if b.entry == entry {
                    self.hits += 1;
                    self.lru[base / CACHE_WAYS] = (way ^ 1) as u8;
                    return Some(Arc::clone(b));
                }
            }
        }
        None
    }

    /// Insert a freshly built block into its set: an empty way if one
    /// exists, else the LRU way (a conflict eviction).
    pub fn insert(&mut self, block: Arc<Block>) {
        if self.slots.is_empty() {
            self.slots.resize(CACHE_SETS * CACHE_WAYS, None);
            self.lru.resize(CACHE_SETS, 0);
        }
        self.built += 1;
        let set = Self::set_of(block.entry);
        let base = set * CACHE_WAYS;
        let way = match (0..CACHE_WAYS).find(|&w| self.slots[base + w].is_none()) {
            Some(w) => w,
            None => {
                self.conflict_evictions += 1;
                self.lru[set] as usize
            }
        };
        if self.slots[base + way].is_none() {
            self.occupied.push((base + way) as u32);
        }
        self.slots[base + way] = Some(block);
        self.lru[set] = (way ^ 1) as u8;
    }

    /// Drop every block whose byte range covers any of `addrs` (the
    /// executable bytes just written, straight from the memory journal).
    pub fn invalidate_writes(&mut self, addrs: &[u32]) {
        if self.occupied.is_empty() || addrs.is_empty() {
            return;
        }
        let slots = &mut self.slots;
        let invalidated = &mut self.invalidated;
        self.occupied.retain(|&i| {
            let slot = &mut slots[i as usize];
            match slot {
                Some(b) if addrs.iter().any(|&a| b.covers(a)) => {
                    *invalidated += 1;
                    *slot = None;
                    false
                }
                other => other.is_some(),
            }
        });
    }

    /// Drop everything (lineage breaks, decoder swaps, engine toggles).
    pub fn clear(&mut self) {
        self.invalidated += self.resident() as u64;
        self.slots.clear();
        self.lru.clear();
        self.occupied.clear();
    }

    fn resident(&self) -> usize {
        self.occupied.len()
    }

    pub fn stats(&self) -> BlockStats {
        BlockStats {
            built: self.built,
            hits: self.hits,
            invalidated: self.invalidated,
            conflict_evictions: self.conflict_evictions,
            cached: self.resident(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Op;

    fn block(entry: u32, nbytes: u32) -> Arc<Block> {
        let inst = Inst::new(Op::Nop);
        Arc::new(Block {
            entry,
            end: entry as u64 + nbytes as u64,
            insts: vec![LInst::new(entry, entry.wrapping_add(1), inst)],
            reads_icount: false,
            writes: false,
        })
    }

    #[test]
    fn covers_is_half_open() {
        let b = block(0x1000, 4);
        assert!(!b.covers(0xFFF));
        assert!(b.covers(0x1000));
        assert!(b.covers(0x1003));
        assert!(!b.covers(0x1004));
    }

    #[test]
    fn invalidation_is_targeted() {
        let mut c = BlockCache::default();
        c.insert(block(0x1000, 8));
        c.insert(block(0x1100, 8));
        assert_eq!(c.stats().cached, 2);
        c.invalidate_writes(&[0x1004]);
        assert!(c.get(0x1000).is_none());
        assert!(c.get(0x1100).is_some());
        let s = c.stats();
        assert_eq!((s.cached, s.invalidated, s.hits), (1, 1, 1));
        // A write outside every block is free.
        c.invalidate_writes(&[0x9000]);
        assert_eq!(c.stats().cached, 1);
    }

    #[test]
    fn two_way_sets_hold_a_pair_and_evict_lru_on_the_third() {
        let mut c = BlockCache::default();
        // All three hash to set 1: set(e) = (e ^ e>>12) & 4095.
        let (a, b, d) = (0x0001u32, 0x1000u32, 0x2003u32);
        assert_eq!(BlockCache::set_of(a), BlockCache::set_of(b));
        assert_eq!(BlockCache::set_of(a), BlockCache::set_of(d));
        c.insert(block(a, 4));
        c.insert(block(b, 4));
        // Two conflicting entries coexist — the direct-mapped cache
        // would have thrashed here.
        assert!(c.get(a).is_some());
        assert!(c.get(b).is_some());
        assert_eq!(c.stats().conflict_evictions, 0);
        // A third entry displaces the least recently used way (`a` was
        // touched before `b`), and the displacement is counted.
        c.insert(block(d, 4));
        assert!(c.get(a).is_none(), "LRU way must be the victim");
        assert!(c.get(b).is_some());
        assert!(c.get(d).is_some());
        assert_eq!(c.stats().conflict_evictions, 1);
    }
}
