//! A fast, non-cryptographic hasher for the synthesis mid-end.
//!
//! Every hot map in the workspace — the AIG/XMG structural-hash tables, the
//! BDD unique/operation caches, cut-enumeration memos, the PSDKRO memo, and
//! the exorcism cube index — is keyed by small fixed-width values (node ids,
//! packed `u64` masks, pairs of handles). `std`'s default SipHash spends
//! most of its time on HashDoS resistance these internal tables do not need,
//! so this module provides an FxHash-style multiply-xor hasher (the scheme
//! rustc uses for its interners) as a drop-in [`BuildHasher`].
//!
//! # Example
//!
//! ```
//! use qda_logic::hash::FxHashMap;
//!
//! let mut unique: FxHashMap<(u32, u32), u32> = FxHashMap::default();
//! unique.insert((3, 7), 42);
//! assert_eq!(unique[&(3, 7)], 42);
//! ```

use std::hash::{BuildHasher, Hasher};

/// `HashMap` keyed with [`FxBuildHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxBuildHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Multiplier from the golden-ratio family (same constant as rustc's
/// FxHash); spreads low-entropy keys across the high bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The multiply-xor streaming hasher. One `rotate ⊕ mul` round per word.
#[derive(Clone, Copy, Debug, Default)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// [`BuildHasher`] producing [`FxHasher`]s; no per-map random state, so
/// iteration order is deterministic run-over-run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(&(1u64, 2u64)), hash_of(&(1u64, 2u64)));
        assert_ne!(hash_of(&(1u64, 2u64)), hash_of(&(2u64, 1u64)));
    }

    #[test]
    fn small_keys_spread() {
        // Consecutive integers must not collide and must differ in the high
        // bits the hashbrown control bytes are derived from.
        let mut tops = FxHashSet::default();
        for i in 0..1024u64 {
            tops.insert(hash_of(&i) >> 57);
        }
        assert!(tops.len() > 32, "only {} distinct top-7s", tops.len());
    }

    #[test]
    fn byte_streams_include_length() {
        // Same prefix, different tails (and lengths) must hash apart even
        // when the tail is all zeros.
        assert_ne!(hash_of(&[0u8; 3].as_slice()), hash_of(&[0u8; 4].as_slice()));
        assert_ne!(hash_of(b"abc".as_slice()), hash_of(b"abcd".as_slice()));
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::with_capacity_and_hasher(64, FxBuildHasher);
        for i in 0..256 {
            m.insert(i, i * 3);
        }
        for i in 0..256 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
        assert_eq!(m.len(), 256);
    }
}
