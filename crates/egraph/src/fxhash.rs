//! A fast, dependency-free hasher for the e-graph's hot maps (rustc's
//! `FxHasher` algorithm: rotate-xor-multiply per word).
//!
//! The default `SipHash` is DoS-resistant but costs real time on the small
//! keys the engine hashes millions of times per saturation run: operators
//! and e-node forms (op number plus child ids) in the arena's interning
//! tables, substitutions in the apply-phase dedup set, and the code
//! generator's name and term tables. The fixed seed makes every iteration
//! order deterministic, but it also gives no protection against crafted
//! collisions. Some of these keys are outside input: `accsat serve`
//! accepts kernels, and their symbol names and constants become arena
//! operators. Whether crafted names or constants can degrade these tables
//! is open and unmeasured (ROADMAP item 8, "Hardening residue").

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Rustc's Fx hash: one rotate + xor + multiply per 8-byte word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `HashMap` keyed with `FxHasher`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spreads() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&421], 842);
        let mut h1 = FxHasher::default();
        let mut h2 = FxHasher::default();
        h1.write(b"hello world");
        h2.write(b"hello world");
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = FxHasher::default();
        h3.write(b"hello worle");
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn mixed_width_writes() {
        let mut h = FxHasher::default();
        h.write_u8(1);
        h.write_u32(2);
        h.write_usize(3);
        let a = h.finish();
        let mut h = FxHasher::default();
        h.write_u8(1);
        h.write_u32(2);
        h.write_usize(4);
        assert_ne!(a, h.finish());
    }
}
