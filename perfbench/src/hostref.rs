//! A fixed reference workload that gauges the host's speed.
//!
//! On a shared host the speed of one core drifts with the load of other
//! tenants, over seconds to minutes, by more than a program change the
//! benchmark should catch. The untraced run therefore times this
//! reference in blocks spread between its passes. It is the benchmark's
//! own code and does not call the program, so a change to the program
//! does not move it: each block first sweeps both buffers untimed, so
//! what the preceding pass left in the caches does not matter either.
//! Its timings follow the host alone, and the run reports set-up time
//! and throughput scaled to the host speed at which one chunk takes
//! [`NOMINAL_CHUNK_S`].
//!
//! One chunk is two kinds of work. The first is xorshift-indexed
//! read-modify-write steps with a data-dependent branch over two
//! buffers: a 4 MiB one, which does not fit the private caches, and a
//! 32 KiB one, which stays in L1. The second formats, allocates and
//! sorts short strings; it shares the process's allocator with the
//! program. Across runs whose host speed differed, the first
//! tracked `exhaustive`'s throughput best and the second `warm_rerun`'s;
//! a single large buffer or a register-only loop tracked neither.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one chunk takes at the reference host speed: about its median
/// on an Intel Xeon at 2.1 GHz (2-vCPU VM).
pub const NOMINAL_CHUNK_S: f64 = 0.0042;

/// Word-index mask of the large buffer (4 MiB of `u32`).
const LARGE_MASK: usize = (1 << 20) - 1;
/// Word-index mask of the small buffer (32 KiB of `u32`).
const SMALL_MASK: usize = (1 << 13) - 1;
/// Steps per chunk over the large buffer.
const LARGE_STEPS: u32 = 100_000;
/// Steps per chunk over the small buffer.
const SMALL_STEPS: u32 = 400_000;
/// Strings per chunk.
const STRINGS: u32 = 10_000;

/// The reference workload and the time its chunks took.
pub struct HostRef {
    large: Vec<u32>,
    small: Vec<u32>,
    chunks: u64,
    secs: f64,
}

impl Default for HostRef {
    fn default() -> HostRef {
        HostRef {
            large: vec![1; LARGE_MASK + 1],
            small: vec![1; SMALL_MASK + 1],
            chunks: 0,
            secs: 0.0,
        }
    }
}

impl HostRef {
    /// Sweep both buffers untimed, then run chunks until they have taken
    /// at least `secs` (at least one).
    pub fn run_block(&mut self, secs: f64) {
        black_box(
            self.large
                .iter()
                .chain(&self.small)
                .fold(0u32, |a, &v| a ^ v),
        );
        let t0 = Instant::now();
        loop {
            black_box(steps(&mut self.large, LARGE_MASK, LARGE_STEPS));
            black_box(steps(&mut self.small, SMALL_MASK, SMALL_STEPS));
            black_box(strings(STRINGS));
            self.chunks += 1;
            if t0.elapsed().as_secs_f64() >= secs {
                break;
            }
        }
        self.secs += t0.elapsed().as_secs_f64();
    }

    /// Seconds the timed chunks took so far.
    pub fn secs(&self) -> f64 {
        self.secs
    }

    /// Chunks run so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Mean seconds per chunk so far.
    pub fn chunk_s(&self) -> f64 {
        self.secs / self.chunks.max(1) as f64
    }

    /// How much slower than the reference speed the host ran: a time
    /// measured over the run, divided by this, is the time at the
    /// reference speed; a rate, multiplied by it.
    pub fn slowdown(&self) -> f64 {
        self.chunk_s() / NOMINAL_CHUNK_S
    }

    /// Bytes of the two buffers, resident for the whole run.
    pub fn bytes(&self) -> usize {
        (self.large.len() + self.small.len()) * std::mem::size_of::<u32>()
    }
}

/// `n` xorshift-indexed read-modify-write steps over `buf`.
fn steps(buf: &mut [u32], mask: usize, n: u32) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0u64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize & mask;
        let v = buf[j];
        acc = acc.wrapping_add(if v & 1 == 0 {
            u64::from(v) * 3
        } else {
            u64::from(v >> 1)
        });
        buf[j] = v.wrapping_mul(0x0100_0193) ^ i;
    }
    acc
}

/// Format `n` short strings, sort them, and sum their lengths.
fn strings(n: u32) -> usize {
    let mut v: Vec<String> = (0..n)
        .map(|i| format!("{i:08x}-{}", i.wrapping_mul(2_654_435_761)))
        .collect();
    v.sort();
    v.iter().map(String::len).sum()
}
