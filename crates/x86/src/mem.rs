//! Flat 32-bit memory with per-region permissions.
//!
//! The process image is a small set of non-overlapping regions (text, data,
//! stack, ...). Any access outside a region, or violating a region's
//! permissions, raises a [`Fault`] — the analogue of `SIGSEGV` that produces
//! the paper's *system detection* (crash) outcomes.
//!
//! Each region's bytes are one flat `Vec<u8>`, so a guest access is a
//! region lookup and an index. Writes also set a bit per 4 KiB page in
//! the region's dirty bitmap, so a snapshot restore rewinds a
//! checkpoint replay by copying back only the pages it wrote.

use crate::inst::Fault;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Dirty-tracking granularity: a region is tracked in 4 KiB pages,
/// numbered from the region's start.
const PAGE_SHIFT: u32 = 12;

/// Source of [`Memory`] epochs; 0 is reserved for "never restored".
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Region permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl Perms {
    /// Read-only.
    pub const R: Perms = Perms {
        read: true,
        write: false,
        exec: false,
    };
    /// Read-write.
    pub const RW: Perms = Perms {
        read: true,
        write: true,
        exec: false,
    };
    /// Read-execute (text segments).
    pub const RX: Perms = Perms {
        read: true,
        write: false,
        exec: true,
    };
    /// Read-write-execute (used by tests only).
    pub const RWX: Perms = Perms {
        read: true,
        write: true,
        exec: true,
    };
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.exec { 'x' } else { '-' }
        )
    }
}

/// A contiguous mapped region.
#[derive(Debug, Clone)]
pub struct Region {
    name: String,
    start: u32,
    data: Vec<u8>,
    perms: Perms,
    /// One bit per 4 KiB page (the last may be partial): set when the
    /// page was written since the owning [`Memory`] last took a new
    /// epoch. [`Memory::restore_from`] copies only these pages back.
    dirty: Vec<u64>,
}

impl Region {
    /// A zero-filled region of `len` bytes.
    ///
    /// # Panics
    /// Panics if the region would wrap past the end of the address space or
    /// is empty.
    pub fn zeroed(name: &str, start: u32, len: u32, perms: Perms) -> Region {
        Self::with_data(name, start, vec![0; len as usize], perms)
    }

    /// A region initialized with `data`.
    ///
    /// # Panics
    /// Panics if the region would wrap past the end of the address space or
    /// is empty.
    pub fn with_data(name: &str, start: u32, data: Vec<u8>, perms: Perms) -> Region {
        assert!(!data.is_empty(), "region {name} must not be empty");
        assert!(
            (start as u64) + (data.len() as u64) <= (u32::MAX as u64) + 1,
            "region {name} wraps the address space"
        );
        let pages = data.len().div_ceil(1 << PAGE_SHIFT);
        Region {
            name: name.to_string(),
            start,
            data,
            perms,
            dirty: vec![0; pages.div_ceil(64)],
        }
    }

    /// Region name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First mapped address.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// One past the last mapped address (may be 2^32, reported as u64).
    pub fn end(&self) -> u64 {
        self.start as u64 + self.data.len() as u64
    }

    /// Length in bytes.
    pub fn len(&self) -> u32 {
        self.data.len() as u32
    }

    /// Always false (regions are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Permissions.
    pub fn perms(&self) -> Perms {
        self.perms
    }

    /// The backing bytes, `start()`-based. Read-only view — all writes
    /// go through [`Memory`] so the executable-write journal stays
    /// sound. The flight recorder's corrupted-state diff compares two
    /// address spaces through this without a per-byte permission check.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    fn contains(&self, addr: u32) -> bool {
        (addr as u64) >= (self.start as u64) && (addr as u64) < self.end()
    }

    /// Mark the page holding byte offset `off` as written.
    #[inline]
    fn mark_dirty(&mut self, off: usize) {
        let page = off >> PAGE_SHIFT;
        self.dirty[page / 64] |= 1u64 << (page % 64);
    }

    fn is_clean(&self) -> bool {
        self.dirty.iter().all(|&w| w == 0)
    }

    /// Copy every dirty page back from `src` (same start and length)
    /// and clear the dirty bits.
    fn copy_dirty_from(&mut self, src: &Region) {
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let page = w * 64 + bits.trailing_zeros() as usize;
                let lo = page << PAGE_SHIFT;
                let hi = (lo + (1 << PAGE_SHIFT)).min(self.data.len());
                self.data[lo..hi].copy_from_slice(&src.data[lo..hi]);
                bits &= bits - 1;
            }
        }
    }
}

/// The process address space: a sorted set of disjoint regions.
#[derive(Debug)]
pub struct Memory {
    regions: Vec<Region>,
    /// Index of the most recently resolved region — a pure performance
    /// hint exploiting the strong locality of guest accesses (runs of
    /// stack or data traffic hit the same region back to back). Any
    /// stale value is safe: a miss falls through to the binary search.
    /// Relaxed atomic so `&self` lookups can refresh it.
    hint: AtomicU32,
    /// Bumped whenever executable bytes may have changed (injector pokes,
    /// writes into rwx regions); lets the CPU invalidate its decoded
    /// blocks and traces.
    exec_gen: u64,
    /// Journal of the addresses behind each generation bump: entry `k` is
    /// the write that moved `exec_gen` from `k` to `k + 1` (invariant:
    /// `exec_log.len() == exec_gen`). Lets the CPU invalidate exactly the
    /// decoded blocks covering changed bytes instead of dropping its whole
    /// cache, and lets snapshot restore prove lineage (see
    /// [`Memory::exec_log_extends`]).
    exec_log: Vec<u32>,
    /// Identity of this memory's contents as a restore source. Fresh on
    /// creation, on every clone, on [`Memory::map`] and on every
    /// [`Memory::restore_from`]; between two of those events the bytes
    /// change only through writes that set region dirty bits. So a memory
    /// with no dirty bits still holds exactly what it held when it took
    /// its epoch.
    epoch: u64,
    /// Epoch of the memory this one was last rewound to by
    /// [`Memory::restore_from`] (0: none since its own epoch began). While
    /// it matches, this memory equals that source except in dirty pages.
    restored_from: u64,
}

/// Error mapping a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapError {
    /// Name of the region that failed to map.
    pub name: String,
    /// Name of the overlapping existing region.
    pub overlaps: String,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region {} overlaps existing region {}",
            self.name, self.overlaps
        )
    }
}

impl std::error::Error for MapError {}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            regions: Vec::new(),
            hint: AtomicU32::new(0),
            exec_gen: 0,
            exec_log: Vec::new(),
            epoch: fresh_epoch(),
            restored_from: 0,
        }
    }
}

/// A clone is a new restore source: it takes a fresh epoch and starts
/// with no dirty pages.
impl Clone for Memory {
    fn clone(&self) -> Memory {
        let mut regions = self.regions.clone();
        for r in &mut regions {
            r.dirty.fill(0);
        }
        Memory {
            regions,
            hint: AtomicU32::new(self.hint.load(Ordering::Relaxed)),
            exec_gen: self.exec_gen,
            exec_log: self.exec_log.clone(),
            epoch: fresh_epoch(),
            restored_from: 0,
        }
    }
}

impl Memory {
    /// An empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Rewind to `snap`'s contents: bytes, executable generation and
    /// write journal. When this memory was last rewound to `snap` itself
    /// and `snap` is unchanged since (same epoch, so the same region
    /// layout, and no dirty pages), only the pages written since that
    /// rewind are copied; otherwise every region is copied.
    pub(crate) fn restore_from(&mut self, snap: &Memory) {
        if self.restored_from == snap.epoch && snap.regions.iter().all(Region::is_clean) {
            for (r, src) in self.regions.iter_mut().zip(&snap.regions) {
                r.copy_dirty_from(src);
            }
        } else {
            self.regions.clone_from(&snap.regions);
            for r in &mut self.regions {
                r.dirty.fill(0);
            }
        }
        self.exec_gen = snap.exec_gen;
        self.exec_log.clone_from(&snap.exec_log);
        self.epoch = fresh_epoch();
        self.restored_from = snap.epoch;
    }

    /// Map a region.
    ///
    /// # Errors
    /// Returns [`MapError`] if it overlaps an existing region.
    pub fn map(&mut self, region: Region) -> Result<(), MapError> {
        for r in &self.regions {
            let disjoint = region.end() <= r.start as u64 || (region.start as u64) >= r.end();
            if !disjoint {
                return Err(MapError {
                    name: region.name.clone(),
                    overlaps: r.name.clone(),
                });
            }
        }
        self.regions.push(region);
        self.regions.sort_by_key(|r| r.start);
        // New bytes without dirty bits: this is a new restore source.
        self.epoch = fresh_epoch();
        self.restored_from = 0;
        Ok(())
    }

    /// Iterate over mapped regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter()
    }

    /// Index of the region containing `addr`, if any. Checks the
    /// last-hit hint before falling back to binary search; guest
    /// accesses are heavily clustered (stack, then a data run, ...), so
    /// the hint hits far more often than not.
    #[inline]
    fn region_index(&self, addr: u32) -> Option<usize> {
        let h = self.hint.load(Ordering::Relaxed) as usize;
        if let Some(r) = self.regions.get(h) {
            if r.contains(addr) {
                return Some(h);
            }
        }
        let idx = match self.regions.binary_search_by_key(&addr, |r| r.start) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        if self.regions[idx].contains(addr) {
            self.hint.store(idx as u32, Ordering::Relaxed);
            Some(idx)
        } else {
            None
        }
    }

    /// The region containing `addr`, if any.
    #[inline]
    pub fn region_at(&self, addr: u32) -> Option<&Region> {
        self.region_index(addr).map(|i| &self.regions[i])
    }

    #[inline]
    fn region_at_mut(&mut self, addr: u32) -> Option<&mut Region> {
        self.region_index(addr).map(|i| &mut self.regions[i])
    }

    /// Read one byte for data access.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if unmapped or not readable.
    pub fn read8(&self, addr: u32) -> Result<u8, Fault> {
        let r = self
            .region_at(addr)
            .filter(|r| r.perms.read)
            .ok_or(Fault::MemAccess { addr, write: false })?;
        Ok(r.data[(addr - r.start) as usize])
    }

    /// Read a little-endian 16-bit value.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if any byte is unmapped or not readable.
    pub fn read16(&self, addr: u32) -> Result<u16, Fault> {
        // Fast path: both bytes in one readable region (one region lookup
        // instead of two).
        if let Some(b) = self.read_slice(addr, 2) {
            return Ok(u16::from_le_bytes([b[0], b[1]]));
        }
        let lo = self.read8(addr)? as u16;
        let hi = self.read8(addr.wrapping_add(1))? as u16;
        Ok(lo | (hi << 8))
    }

    /// Read a little-endian 32-bit value.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if any byte is unmapped or not readable.
    pub fn read32(&self, addr: u32) -> Result<u32, Fault> {
        // Fast path: all four bytes in one readable region (one region
        // lookup instead of four).
        if let Some(b) = self.read_slice(addr, 4) {
            return Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
        let mut v = 0u32;
        for i in 0..4 {
            v |= (self.read8(addr.wrapping_add(i))? as u32) << (8 * i);
        }
        Ok(v)
    }

    /// `len` readable bytes starting at `addr` when they all fall inside a
    /// single readable region; `None` sends the caller to the byte-wise
    /// path (which also produces the precise fault).
    #[inline]
    fn read_slice(&self, addr: u32, len: usize) -> Option<&[u8]> {
        let r = self.region_at(addr).filter(|r| r.perms.read)?;
        let off = (addr - r.start) as usize;
        r.data.get(off..off + len)
    }

    /// Current generation of executable bytes (see [`Memory::poke8`]).
    /// Inlined: the block and trace executors re-check it on every
    /// dispatch and after every potentially writing µop.
    #[inline]
    pub fn exec_gen(&self) -> u64 {
        self.exec_gen
    }

    /// Addresses written by every generation bump after `gen` (oldest
    /// first). `exec_writes_since(exec_gen())` is empty; passing a `gen`
    /// from the future is clamped to empty.
    #[inline]
    pub fn exec_writes_since(&self, gen: u64) -> &[u32] {
        let from = (gen.min(self.exec_log.len() as u64)) as usize;
        &self.exec_log[from..]
    }

    /// True when `earlier`'s write journal is a prefix of this memory's —
    /// i.e. `earlier` is an ancestor state of the same execution, and the
    /// bytes that differ between the two are exactly
    /// `self.exec_writes_since(earlier.exec_gen())`.
    pub fn exec_log_extends(&self, earlier: &Memory) -> bool {
        self.exec_log.len() >= earlier.exec_log.len()
            && self.exec_log[..earlier.exec_log.len()] == earlier.exec_log[..]
    }

    /// Record one generation bump caused by a write to `addr`.
    #[inline]
    fn note_exec_write(&mut self, addr: u32) {
        self.exec_gen += 1;
        self.exec_log.push(addr);
    }

    /// Write one byte.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if unmapped or not writable.
    pub fn write8(&mut self, addr: u32, val: u8) -> Result<(), Fault> {
        let r = self
            .region_at_mut(addr)
            .filter(|r| r.perms.write)
            .ok_or(Fault::MemAccess { addr, write: true })?;
        let exec = r.perms.exec;
        let off = (addr - r.start) as usize;
        r.data[off] = val;
        r.mark_dirty(off);
        if exec {
            self.note_exec_write(addr);
        }
        Ok(())
    }

    /// Write a little-endian 16-bit value.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if any byte is unmapped or not writable.
    pub fn write16(&mut self, addr: u32, val: u16) -> Result<(), Fault> {
        if self.write_slice(addr, &val.to_le_bytes()) {
            return Ok(());
        }
        self.write8(addr, val as u8)?;
        self.write8(addr.wrapping_add(1), (val >> 8) as u8)
    }

    /// Write a little-endian 32-bit value.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if any byte is unmapped or not writable.
    pub fn write32(&mut self, addr: u32, val: u32) -> Result<(), Fault> {
        if self.write_slice(addr, &val.to_le_bytes()) {
            return Ok(());
        }
        for i in 0..4 {
            self.write8(addr.wrapping_add(i), (val >> (8 * i)) as u8)?;
        }
        Ok(())
    }

    /// Store `bytes` when they all fall inside a single writable region
    /// (one region lookup instead of one per byte). Returns false — having
    /// written nothing — when they don't, sending the caller to the
    /// byte-wise path for the partial-write-then-fault semantics. At most
    /// 4 bytes, so marking both end pages dirty covers every page touched.
    #[inline]
    fn write_slice(&mut self, addr: u32, bytes: &[u8]) -> bool {
        assert!(bytes.len() <= 4);
        let Some(i) = self.region_index(addr) else {
            return false;
        };
        let r = &mut self.regions[i];
        if !r.perms.write {
            return false;
        }
        let off = (addr - r.start) as usize;
        let Some(dst) = r.data.get_mut(off..off + bytes.len()) else {
            return false;
        };
        dst.copy_from_slice(bytes);
        r.mark_dirty(off);
        r.mark_dirty(off + bytes.len() - 1);
        if r.perms.exec {
            // Same per-byte generation accounting as the byte-wise path.
            for k in 0..bytes.len() as u32 {
                self.note_exec_write(addr.wrapping_add(k));
            }
        }
        true
    }

    /// Fetch up to 15 instruction bytes starting at `addr` from executable
    /// memory. Returns the bytes actually available (stops at a region
    /// boundary unless the next region is also executable and contiguous).
    ///
    /// # Errors
    /// [`Fault::FetchFault`] if `addr` itself is unmapped or not executable.
    pub fn fetch_window(&self, addr: u32) -> Result<([u8; 15], usize), Fault> {
        let mut buf = [0u8; 15];
        let first = self
            .region_at(addr)
            .filter(|r| r.perms.exec)
            .ok_or(Fault::FetchFault(addr))?;
        let mut n = 0usize;
        let mut r = first;
        let mut a = addr;
        while n < 15 {
            if !r.contains(a) {
                match self.region_at(a).filter(|r| r.perms.exec) {
                    Some(next) => r = next,
                    None => break,
                }
            }
            buf[n] = r.data[(a - r.start) as usize];
            n += 1;
            a = a.wrapping_add(1);
            if a == 0 {
                break; // wrapped the address space
            }
        }
        Ok((buf, n))
    }

    /// Bulk-read `len` bytes (for the OS and the injector; same permission
    /// rules as [`Memory::read8`]).
    ///
    /// # Errors
    /// [`Fault::MemAccess`] on the first inaccessible byte.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, Fault> {
        if let Some(b) = self.read_slice(addr, len as usize) {
            return Ok(b.to_vec());
        }
        let mut v = Vec::with_capacity(len as usize);
        for i in 0..len {
            v.push(self.read8(addr.wrapping_add(i))?);
        }
        Ok(v)
    }

    /// Read a NUL-terminated string of at most `max` bytes.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if the string runs into inaccessible memory
    /// before a NUL or `max` is reached.
    pub fn read_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, Fault> {
        let mut v = Vec::new();
        for i in 0..max {
            let b = self.read8(addr.wrapping_add(i))?;
            if b == 0 {
                break;
            }
            v.push(b);
        }
        Ok(v)
    }

    /// Bulk-write bytes (same permission rules as [`Memory::write8`]).
    ///
    /// # Errors
    /// [`Fault::MemAccess`] on the first inaccessible byte; earlier bytes
    /// will already have been written.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Fault> {
        for (i, b) in bytes.iter().enumerate() {
            self.write8(addr.wrapping_add(i as u32), *b)?;
        }
        Ok(())
    }

    /// Write one byte *ignoring write permissions* (still requires the byte
    /// to be mapped). This is the injector's interface for corrupting the
    /// text segment — the analogue of a debugger poking a read-only page.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if unmapped.
    pub fn poke8(&mut self, addr: u32, val: u8) -> Result<(), Fault> {
        let r = self
            .region_at_mut(addr)
            .ok_or(Fault::MemAccess { addr, write: true })?;
        let off = (addr - r.start) as usize;
        r.data[off] = val;
        r.mark_dirty(off);
        self.note_exec_write(addr);
        Ok(())
    }

    /// Read one byte ignoring read permissions (injector/debugger view).
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if unmapped.
    pub fn peek8(&self, addr: u32) -> Result<u8, Fault> {
        let r = self
            .region_at(addr)
            .ok_or(Fault::MemAccess { addr, write: false })?;
        Ok(r.data[(addr - r.start) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_region_mem() -> Memory {
        let mut m = Memory::new();
        m.map(Region::with_data("text", 0x1000, vec![0x90; 16], Perms::RX))
            .unwrap();
        m.map(Region::zeroed("data", 0x2000, 32, Perms::RW))
            .unwrap();
        m
    }

    #[test]
    fn map_rejects_overlap() {
        let mut m = two_region_mem();
        let err = m
            .map(Region::zeroed("bad", 0x1008, 16, Perms::RW))
            .unwrap_err();
        assert_eq!(err.overlaps, "text");
        // Adjacent is fine.
        m.map(Region::zeroed("ok", 0x1010, 16, Perms::RW)).unwrap();
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = two_region_mem();
        m.write32(0x2000, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read32(0x2000).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.read8(0x2000).unwrap(), 0xEF);
        assert_eq!(m.read16(0x2002).unwrap(), 0xDEAD);
    }

    #[test]
    fn write_to_text_faults() {
        let mut m = two_region_mem();
        assert_eq!(
            m.write8(0x1000, 0).unwrap_err(),
            Fault::MemAccess {
                addr: 0x1000,
                write: true
            }
        );
        // But the injector's poke works.
        m.poke8(0x1000, 0xCC).unwrap();
        assert_eq!(m.peek8(0x1000).unwrap(), 0xCC);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = two_region_mem();
        assert!(m.read8(0x0).is_err());
        assert!(m.read8(0x1FFF).is_err());
        assert!(m.read32(0x200E).is_ok());
        assert!(m.read32(0x201D).is_err()); // crosses the end
    }

    #[test]
    fn fetch_requires_exec() {
        let m = two_region_mem();
        let (_, n) = m.fetch_window(0x1000).unwrap();
        assert_eq!(n, 15);
        let (_, n) = m.fetch_window(0x100E).unwrap();
        assert_eq!(n, 2); // only 2 bytes left in text
        assert_eq!(
            m.fetch_window(0x2000).unwrap_err(),
            Fault::FetchFault(0x2000)
        );
        assert_eq!(
            m.fetch_window(0x5000).unwrap_err(),
            Fault::FetchFault(0x5000)
        );
    }

    #[test]
    fn fetch_crosses_contiguous_exec_regions() {
        let mut m = Memory::new();
        m.map(Region::with_data("a", 0x1000, vec![1; 16], Perms::RX))
            .unwrap();
        m.map(Region::with_data("b", 0x1010, vec![2; 16], Perms::RX))
            .unwrap();
        let (buf, n) = m.fetch_window(0x100C).unwrap();
        assert_eq!(n, 15);
        assert_eq!(&buf[..4], &[1, 1, 1, 1]);
        assert_eq!(buf[4], 2);
    }

    #[test]
    fn cstr_reading() {
        let mut m = two_region_mem();
        m.write_bytes(0x2000, b"hello\0world").unwrap();
        assert_eq!(m.read_cstr(0x2000, 64).unwrap(), b"hello");
        assert_eq!(m.read_cstr(0x2006, 3).unwrap(), b"wor"); // max reached
    }

    #[test]
    fn region_accessors() {
        let m = two_region_mem();
        let r = m.region_at(0x1005).unwrap();
        assert_eq!(r.name(), "text");
        assert_eq!(r.start(), 0x1000);
        assert_eq!(r.len(), 16);
        assert_eq!(r.end(), 0x1010);
        assert!(!r.is_empty());
        assert_eq!(format!("{}", r.perms()), "r-x");
        assert!(m.region_at(0x0FFF).is_none());
    }

    #[test]
    fn high_memory_region_end_does_not_overflow() {
        let mut m = Memory::new();
        m.map(Region::zeroed("top", 0xFFFF_FFF0, 16, Perms::RW))
            .unwrap();
        assert_eq!(m.region_at(0xFFFF_FFFF).unwrap().name(), "top");
        assert!(m.read8(0xFFFF_FFFF).is_ok());
    }

    #[test]
    #[should_panic(expected = "wraps the address space")]
    fn wrapping_region_panics() {
        Region::zeroed("bad", 0xFFFF_FFF0, 17, Perms::RW);
    }

    #[test]
    fn exec_journal_tracks_every_generation_bump() {
        let mut m = two_region_mem();
        assert_eq!(m.exec_gen(), 0);
        assert!(m.exec_writes_since(0).is_empty());
        m.poke8(0x1003, 0xCC).unwrap(); // text poke: logged
        m.write8(0x2000, 1).unwrap(); // plain data write: no bump
        m.poke8(0x2001, 2).unwrap(); // poke always bumps, even non-exec
        assert_eq!(m.exec_gen(), 2);
        assert_eq!(m.exec_writes_since(0), &[0x1003, 0x2001]);
        assert_eq!(m.exec_writes_since(1), &[0x2001]);
        assert!(m.exec_writes_since(2).is_empty());
        assert!(m.exec_writes_since(99).is_empty());
    }

    #[test]
    fn exec_journal_logs_rwx_multibyte_writes_per_byte() {
        let mut m = Memory::new();
        m.map(Region::zeroed("rwx", 0x1000, 16, Perms::RWX))
            .unwrap();
        m.write32(0x1004, 0xAABB_CCDD).unwrap();
        assert_eq!(m.exec_gen(), 4);
        assert_eq!(m.exec_writes_since(0), &[0x1004, 0x1005, 0x1006, 0x1007]);
        m.write16(0x100E, 0x1234).unwrap();
        assert_eq!(m.exec_gen(), 6);
        assert_eq!(m.exec_writes_since(4), &[0x100E, 0x100F]);
    }

    #[test]
    fn exec_log_extends_detects_lineage() {
        let mut m = two_region_mem();
        m.poke8(0x1000, 1).unwrap();
        let snap = m.clone();
        assert!(m.exec_log_extends(&snap));
        assert!(snap.exec_log_extends(&m)); // equal states extend each other
        m.poke8(0x1001, 2).unwrap();
        assert!(m.exec_log_extends(&snap));
        assert!(!snap.exec_log_extends(&m));
        // A divergent history (same gen, different address) is not a prefix.
        let mut other = snap.clone();
        other.poke8(0x1002, 3).unwrap();
        assert!(!other.exec_log_extends(&m));
        assert!(!m.exec_log_extends(&other));
    }

    #[test]
    fn multibyte_fastpaths_match_bytewise_semantics() {
        let mut m = two_region_mem();
        // Straddling the end of a region still faults without a partial
        // read, and partial writes still land before the fault.
        assert!(m.read16(0x201F).is_err());
        assert!(m.write32(0x201E, 0xFFFF_FFFF).is_err());
        assert_eq!(m.read8(0x201F).unwrap(), 0xFF); // partial write landed
                                                    // Reads spanning adjacent regions take the byte-wise path.
        m.map(Region::zeroed("more", 0x2020, 4, Perms::RW)).unwrap();
        m.write8(0x2021, 0xAB).unwrap();
        assert_eq!(m.read32(0x201E).unwrap(), 0xAB00_FFFF);
    }

    /// Every byte of every region, in address order.
    fn contents(m: &Memory) -> Vec<(u32, Vec<u8>)> {
        m.regions()
            .map(|r| (r.start(), r.bytes().to_vec()))
            .collect()
    }

    fn dirty_pages(m: &Memory, addr: u32) -> Vec<u64> {
        m.region_at(addr).unwrap().dirty.clone()
    }

    /// A memory rewound once to a snapshot, so its next rewind to that
    /// snapshot copies only dirty pages.
    fn rewound(m: &mut Memory, snap: &Memory) {
        m.restore_from(snap);
        assert_eq!(m.restored_from, snap.epoch);
    }

    #[test]
    fn straddling_write_is_undone_on_both_pages() {
        let mut m = Memory::new();
        m.map(Region::zeroed("data", 0x10000, 0x3000, Perms::RW))
            .unwrap();
        m.write32(0x10800, 0x1111_1111).unwrap();
        let snap = m.clone();
        rewound(&mut m, &snap);
        m.write32(0x10FFE, 0xAABB_CCDD).unwrap();
        assert_eq!(dirty_pages(&m, 0x10000), vec![0b011]);
        m.restore_from(&snap);
        assert_eq!(m.read32(0x10FFE).unwrap(), 0);
        assert_eq!(m.read32(0x10800).unwrap(), 0x1111_1111);
        assert_eq!(dirty_pages(&m, 0x10000), vec![0]);
        assert_eq!(contents(&m), contents(&snap));
    }

    #[test]
    fn partial_last_page_restores() {
        let mut m = Memory::new();
        m.map(Region::zeroed("data", 0x10000, 0x1000 + 5, Perms::RW))
            .unwrap();
        let snap = m.clone();
        rewound(&mut m, &snap);
        m.write8(0x11004, 0xEE).unwrap();
        m.write16(0x11002, 0xBEEF).unwrap();
        assert_eq!(dirty_pages(&m, 0x10000), vec![0b10]);
        m.restore_from(&snap);
        assert_eq!(contents(&m), contents(&snap));
    }

    #[test]
    fn faulting_write_leaves_written_bytes_dirty() {
        let mut m = Memory::new();
        // Two pages, the second only 2 bytes long.
        m.map(Region::zeroed("data", 0x2000, 0x1002, Perms::RW))
            .unwrap();
        let snap = m.clone();
        rewound(&mut m, &snap);
        // 0x2FFF..=0x3001 land on both pages, then 0x3002 faults.
        assert!(m.write32(0x2FFF, 0xFFFF_FFFF).is_err());
        assert_eq!(m.read8(0x3001).unwrap(), 0xFF);
        assert_eq!(dirty_pages(&m, 0x2000), vec![0b11]);
        m.restore_from(&snap);
        assert_eq!(contents(&m), contents(&snap));
    }

    #[test]
    fn restore_rewinds_pokes_and_the_exec_journal() {
        let mut m = two_region_mem();
        let snap = m.clone();
        rewound(&mut m, &snap);
        m.poke8(0x1003, 0xCC).unwrap();
        assert_eq!(m.exec_gen(), 1);
        m.restore_from(&snap);
        assert_eq!(m.peek8(0x1003).unwrap(), 0x90);
        assert_eq!(m.exec_gen(), 0);
        assert!(m.exec_writes_since(0).is_empty());
    }

    #[test]
    fn restore_copies_everything_when_the_source_changed() {
        let mut m = two_region_mem();
        let mut snap = m.clone();
        rewound(&mut m, &snap);
        // The source itself is written after the rewind: its dirty page
        // is not in `m`'s bitmap, so only a full copy is exact.
        snap.write8(0x2004, 7).unwrap();
        m.restore_from(&snap);
        assert_eq!(m.read8(0x2004).unwrap(), 7);
        // A clone is a different source even with equal bytes.
        let other = snap.clone();
        assert_ne!(other.epoch, snap.epoch);
        m.write8(0x2005, 9).unwrap();
        m.restore_from(&other);
        assert_eq!(contents(&m), contents(&other));
        // Mapping a region into the source changes its layout.
        let mut grown = other.clone();
        rewound(&mut m, &grown);
        grown
            .map(Region::zeroed("more", 0x3000, 16, Perms::RW))
            .unwrap();
        m.restore_from(&grown);
        assert_eq!(contents(&m), contents(&grown));
    }
}
