//! Fast deterministic hashing for the engine's internal tables.
//!
//! Every hot map in the manager — the per-variable unique subtables and the
//! computed table every operator shares — is keyed by two or three 32-bit
//! words (node handles, variable indices, var-set ids), plus a small
//! operator tag in the computed table. `std`'s default SipHash-1-3 is
//! designed to resist collision flooding from untrusted keys, a property
//! these tables do not need (the keys are the engine's own handles) and
//! pay for on every lookup: on keys this short the siphash rounds cost
//! several times the arithmetic of a multiplicative mix, and the
//! computed-table lookup is the single most executed operation in the
//! engine. [`FxMap`] swaps in the rustc-style Fibonacci-multiply hasher:
//! one rotate, one xor, one multiply per word.
//!
//! The hasher is also *deterministic by construction* (no per-process
//! random state), which keeps everything downstream of table iteration —
//! where it exists — reproducible across runs and machines.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fibonacci multiplier (`2^64 / φ` rounded to odd), the classic
/// multiplicative-hash constant.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// One-word-at-a-time multiplicative hasher (rustc's `FxHasher` recipe):
/// `hash = (hash <<< 5 ^ word) * K` per written word.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` over the engine's fast deterministic hasher.
pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spreading() {
        let mut m: FxMap<(u32, u32, u32), u32> = FxMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(3), i ^ 0xaaaa), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i.wrapping_mul(3), i ^ 0xaaaa)), Some(&i));
        }
        // Same inputs, fresh hasher: identical digests (no random state).
        let digest = |n: u32| {
            let mut h = FxHasher::default();
            h.write_u32(n);
            h.finish()
        };
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(43));
    }
}
