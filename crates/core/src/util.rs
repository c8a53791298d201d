//! Small utilities: a fast integer hasher for page-id maps and a CRC-32 implementation
//! used to checksum on-device segment images.
//!
//! Both are implemented locally rather than pulled in as dependencies: the hasher is a
//! dozen lines (the FxHash mixing function used by rustc), and CRC-32C keeps the on-device
//! format free of external-crate version coupling.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, non-cryptographic hasher suitable for integer keys (page ids, segment ids).
///
/// HashDoS resistance is irrelevant here — keys are internal identifiers, not attacker
/// controlled strings — so the default SipHash would only cost throughput on the hottest
/// map in the store (the page table).
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
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
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// CRC-32C (Castagnoli) over a byte slice, used to checksum segment headers and entry
/// tables on the device.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continue a CRC-32C: `crc32c_append(crc32c(a), b)` is `crc32c` of `a` followed by
/// `b`, so a checksum over parts that are not contiguous in memory (a frame's header
/// and its payload) needs no copy to join them.
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    // Table-driven byte-at-a-time CRC-32C. The table is built once lazily.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let poly: u32 = 0x82F6_3B78; // reflected CRC-32C polynomial
        for (i, entry) in t.iter_mut().enumerate() {
            let mut v = i as u32;
            for _ in 0..8 {
                v = if v & 1 != 0 { (v >> 1) ^ poly } else { v >> 1 };
            }
            *entry = v;
        }
        t
    });
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Deterministic 64-bit mix, used where a cheap pseudo-random permutation of an id is
/// needed (e.g. scrambling hash-partitioned identifiers in tests).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        let bh = BuildHasherDefault::<FxHasher>::default();
        let h1 = bh.hash_one(42u64);
        let h2 = bh.hash_one(42u64);
        let h3 = bh.hash_one(43u64);
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
    }

    #[test]
    fn fx_hash_map_basic_usage() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn crc32c_known_vector() {
        // RFC 3720 test vector: CRC-32C of "123456789" is 0xE3069283.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        // Empty input.
        assert_eq!(crc32c(b""), 0);
        // Continued over any split, including empty parts.
        for cut in 0..=9 {
            let (a, b) = b"123456789".split_at(cut);
            assert_eq!(crc32c_append(crc32c(a), b), 0xE306_9283, "cut {cut}");
        }
    }

    #[test]
    fn crc32c_detects_corruption() {
        let a = crc32c(b"hello world");
        let b = crc32c(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn mix64_is_a_bijection_on_samples() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn fx_hasher_handles_unaligned_writes() {
        let mut h = FxHasher::default();
        h.write(b"abcdefghijk"); // 11 bytes: one full chunk + remainder
        let v1 = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(b"abcdefghijl");
        assert_ne!(v1, h2.finish());
    }
}
