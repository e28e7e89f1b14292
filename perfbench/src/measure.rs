//! Host-side measurement helpers: the process clock, quantiles, the
//! output digest and peak resident memory.

use std::fmt::{self, Write as _};
use std::sync::OnceLock;
use std::time::Instant;

static START: OnceLock<Instant> = OnceLock::new();

/// Pin the process clock's origin; call first thing in `main`.
pub fn start_clock() {
    START.get_or_init(Instant::now);
}

/// Host nanoseconds since [`start_clock`].
pub fn now_ns() -> u64 {
    let ns = START.get_or_init(Instant::now).elapsed().as_nanos();
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Nanoseconds to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `v` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// FNV-1a over the `Debug` text of each value folded in, in order. Two
/// runs digest equal exactly when every output prints identically
/// (`f64`'s `Debug` round-trips, so that means bit-identical floats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

impl Digest {
    pub fn add(&mut self, v: &impl fmt::Debug) {
        // writing into the hasher cannot fail
        let _ = writeln!(self, "{v:?}");
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then fourteen `long`s, of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    let mut u = Rusage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value with the layout of
    // `struct rusage`, and RUSAGE_SELF (0) is a valid `who`; getrusage
    // writes only within that struct.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc != 0 {
        return 0.0;
    }
    u.maxrss_kib as f64 / 1024.0
}
