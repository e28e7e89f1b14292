//! A fixed multiplicative hasher for maps that are only ever looked up by
//! key.
//!
//! std's default `SipHash` is keyed per process and built to resist
//! hash-flooding, which a simulator fed by its own sequential ids does not
//! need; on the per-event request/connection lookups it costs more than
//! the rest of the lookup. [`FxHasher`] is the rustc-style one-multiply
//! hash: unkeyed, so it is also the same on every run.
//!
//! Use it only for maps that are looked up by key and never iterated in
//! an order that reaches an output: iteration order still follows the
//! hash, not the key.
//!
//! ```
//! use edison_simcore::FxBuildHasher;
//! use std::collections::HashMap;
//!
//! let mut m: HashMap<u64, &str, FxBuildHasher> = HashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier of rustc's `FxHasher` (64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-multiply-per-word hasher. See module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add(u64::from_le_bytes(word));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]: `HashMap<K, V, FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn same_key_same_hash_across_builders() {
        let a = FxBuildHasher::default().hash_one(42u64);
        let b = FxBuildHasher::default().hash_one(42u64);
        assert_eq!(a, b);
        assert_ne!(a, FxBuildHasher::default().hash_one(43u64));
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let h = |s: &[u8]| {
            let mut f = FxHasher::default();
            f.write(s);
            f.finish()
        };
        assert_ne!(h(b"abcdefghi"), h(b"abcdefghj"));
        assert_ne!(h(b"abcdefgh"), h(b"bbcdefgh"));
    }
}
