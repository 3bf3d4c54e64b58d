//! The hasher behind every per-key map in this crate.
//!
//! Stream keys, segment ids and validator keys are single words (or a
//! source index and a word), looked up several times per tuple on the
//! suppressed path. SipHash spends most of a lookup on them; this hasher
//! spends one folded multiply per word written: `x ^ state`, multiplied
//! by an odd 64-bit constant into a 128-bit product, whose high half is
//! XORed into its low half. The finished hash is that word rotated right
//! by 23 bits. A table takes its bucket from the low bits, and the low
//! bits of a fold vary little between nearby keys: over 100k sequential
//! keys in 1024 buckets they spread up to four times worse than random,
//! against a tenth of random for the rotated word.
//!
//! The starting state is a seed drawn once per process from
//! [`RandomState`], so keys from outside the program cannot be chosen in
//! advance to collide. It is not a keyed cryptographic hash: it defends
//! against fixed collision sets, not against an attacker who can observe
//! the process's timing and adapt.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A per-key map hashed by [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, KeyHasher>;
/// A per-key set hashed by [`KeyHasher`].
pub type KeySet<K> = HashSet<K, KeyHasher>;

/// `⌊2⁶⁴/φ⌋`, odd.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Builds [`FoldHasher`]s from the process seed.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher {
    seed: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        KeyHasher { seed: *SEED.get_or_init(|| RandomState::new().hash_one(MUL)) }
    }
}

impl BuildHasher for KeyHasher {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.seed)
    }
}

/// One folded multiply per 64-bit word written.
#[derive(Debug, Clone, Copy)]
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let p = u128::from(x ^ self.0) * u128::from(MUL);
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Byte strings go in as little-endian words, the last one
    /// zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_right(23)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::VKey;
    use std::hash::Hash;

    fn hash_with(seed: u64, v: impl Hash) -> u64 {
        KeyHasher { seed }.hash_one(v)
    }

    const SEEDS: [u64; 3] = [0, 0x0123_4567_89ab_cdef, u64::MAX];

    #[test]
    fn the_seed_is_drawn_once_per_process() {
        assert_eq!(KeyHasher::default().seed, KeyHasher::default().seed);
    }

    #[test]
    fn keys_differing_only_in_source_or_high_key_bits_hash_apart() {
        for seed in SEEDS {
            for key in [0, 1, 0xdead_beef, 1 << 48, u64::MAX] {
                let (vkey, pair) =
                    (hash_with(seed, VKey::new(0, key)), hash_with(seed, (0usize, key)));
                for source in 1..4 {
                    assert_ne!(vkey, hash_with(seed, VKey::new(source, key)), "{seed} {key}");
                    assert_ne!(pair, hash_with(seed, (source, key)), "{seed} {key}");
                }
                for bit in 48..64 {
                    let high = key ^ (1 << bit);
                    assert_ne!(vkey, hash_with(seed, VKey::new(0, high)), "{seed} {key} {bit}");
                    assert_ne!(pair, hash_with(seed, (0usize, high)), "{seed} {key} {bit}");
                }
            }
        }
    }

    #[test]
    fn sequential_keys_spread_evenly_over_buckets() {
        const KEYS: u64 = 100_000;
        const BUCKETS: usize = 1024;
        for seed in SEEDS {
            let mut counts = [0u32; BUCKETS];
            for key in 0..KEYS {
                counts[hash_with(seed, key) as usize % BUCKETS] += 1;
            }
            // χ² with 1023 degrees of freedom: mean 1023, sd ≈ 45.
            let expected = KEYS as f64 / BUCKETS as f64;
            let chi2: f64 = counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum();
            assert!(chi2 < 1300.0, "seed {seed}: χ² {chi2}");
            assert!(counts.iter().all(|&c| c > 0), "seed {seed}: an empty bucket");
        }
    }
}
