//! The one hasher behind the crate's structural memo keys: the
//! composition cache's request key and class buckets, and the graph
//! store's build-input key.
//!
//! Those keys are hashed on every cache probe, so SipHash's per-word
//! rounds were a measurable share of a probe. None of them faces an
//! adversary — a collision costs an `==` (class buckets) or is trusted
//! like any 64-bit key (request and graph keys) — so a folded-multiply
//! hash does: each word is xored into the state, which is multiplied
//! by an odd constant to 128 bits and folded back to 64 by xoring the
//! halves. The high half carries every input bit down into the low
//! bits, which pick cache shards. There is no per-process seed, so a
//! key is the same in every run.

use std::hash::Hasher;

/// Odd multiplier (the PCG-64 one); any odd constant with well-mixed
/// bits works.
const MULTIPLIER: u64 = 0x5851_f42d_4c95_7f2d;
/// Initial state, and the finishing multiplier: the first 64 bits of
/// π's fraction.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The low and high halves of the 128-bit product, xored.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Deterministic folded-multiply [`Hasher`] (module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyHasher {
    state: u64,
}

impl Default for KeyHasher {
    fn default() -> KeyHasher {
        KeyHasher { state: SEED }
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, MULTIPLIER);
    }

    /// The length first, so that zero padding of the last word cannot
    /// make `"ab"` and `"ab\0"` alike; then little-endian words.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    #[inline]
    fn write_i8(&mut self, value: i8) {
        self.write_u64(value as u64);
    }

    #[inline]
    fn write_i16(&mut self, value: i16) {
        self.write_u64(value as u64);
    }

    #[inline]
    fn write_i32(&mut self, value: i32) {
        self.write_u64(value as u64);
    }

    #[inline]
    fn write_i64(&mut self, value: i64) {
        self.write_u64(value as u64);
    }

    #[inline]
    fn write_isize(&mut self, value: isize) {
        self.write_u64(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.state, SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn key_of(value: impl Hash) -> u64 {
        let mut hasher = KeyHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn equal_values_key_alike_and_without_a_seed() {
        assert_eq!(key_of(("clip", 7u32, 2.5f64.to_bits())), {
            let mut hasher = KeyHasher::default();
            "clip".hash(&mut hasher);
            7u32.hash(&mut hasher);
            2.5f64.to_bits().hash(&mut hasher);
            hasher.finish()
        });
        // Pinned: a key must not depend on the process.
        assert_eq!(key_of((7u64, 2.5f64.to_bits())), 0x4e24_9097_dfcb_cd00);
    }

    #[test]
    fn padding_order_and_width_separate_keys() {
        let keys = [
            key_of(b"ab".as_slice()),
            key_of(b"ab\0".as_slice()),
            key_of(b"abcdefgh".as_slice()),
            key_of(b"abcdefgh\0".as_slice()),
            key_of((1u64, 2u64)),
            key_of((2u64, 1u64)),
            key_of(("a", "bc")),
            key_of(("ab", "c")),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
