//! Small utilities: a fast integer hasher for page-id maps and the CRC-32C checksum.
//!
//! CRC-32C ([`crc32c`], [`crc32c_append`]) guards each wire frame of the server
//! protocol (docs/PROTOCOL.md §4, computed by the sender and again by the receiver),
//! each extent header and entry table of a segment (every seal, persist point, victim
//! decode and recovery scan) and both KV superblock slots. Payload bytes are not
//! checksummed, and the checkpoint journal is JSON lines checked by parsing, not by CRC.
//! On an x86_64 CPU with SSE4.2 (detected at run time, once per process) the checksum
//! runs the `crc32` instruction over 8-byte words; every other CPU runs the table loop
//! [`crc32c_append_portable`], which the tests also use as the reference for the
//! instruction path. The value is the same either way.
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

/// A value on cache lines of its own: aligned to 64 bytes and padded out to a multiple
/// of them, so an atomic one thread bumps shares no line with one another thread
/// bumps (false sharing makes every bump of either a cross-core line transfer).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// CRC-32C (Castagnoli, RFC 3720) over a byte slice: wire frames, segment extent
/// headers and entry tables, KV superblocks (see the module docs).
///
/// On an x86_64 CPU with SSE4.2 it runs the `crc32` instruction, eight bytes at a time;
/// on any other CPU, [`crc32c_append_portable`]. Both give the same value for every
/// input, so which one ran is invisible on the wire and on the device.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continue a CRC-32C: `crc32c_append(crc32c(a), b)` is `crc32c` of `a` followed by
/// `b`, so a checksum over parts that are not contiguous in memory (a frame's header
/// and its payload) needs no copy to join them. Runs the same kernel as [`crc32c`].
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    match Crc32cKernel::detect() {
        #[cfg(target_arch = "x86_64")]
        Crc32cKernel::Sse42 => {
            // SAFETY: `detect` returns `Sse42` only when `is_x86_feature_detected!`
            // has found SSE4.2 on this CPU, the one feature `crc32c_append_sse42`
            // enables; it has no other precondition.
            unsafe { crc32c_append_sse42(crc, data) }
        }
        Crc32cKernel::Portable => crc32c_append_portable(crc, data),
    }
}

/// The CRC-32C implementations [`crc32c_append`] chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Crc32cKernel {
    /// The SSE4.2 `crc32` instruction ([`crc32c_append_sse42`]).
    #[cfg(target_arch = "x86_64")]
    Sse42,
    /// The table loop ([`crc32c_append_portable`]).
    Portable,
}

impl Crc32cKernel {
    /// The fastest kernel this CPU runs. `is_x86_feature_detected!` asks the CPU once
    /// per process and caches the answer, so this is a load and a bit test per call.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            return Self::Sse42;
        }
        Self::Portable
    }
}

/// [`crc32c_append`] on the SSE4.2 `crc32` instruction, which computes CRC-32C (the
/// reflected polynomial `0x82F63B78`, no pre- or post-inversion) over 8 bytes per
/// instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_append_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = data.as_chunks::<8>();
    let mut state = u64::from(!crc);
    for word in words {
        state = _mm_crc32_u64(state, u64::from_le_bytes(*word));
    }
    // The instruction's 64-bit form zero-extends its 32-bit result.
    let mut state = state as u32;
    for &b in tail {
        state = _mm_crc32_u8(state, b);
    }
    !state
}

/// The reflected CRC-32C polynomial.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// `CRC32C_TABLE[b]` is the CRC-32C register update for byte `b`, built at compile time.
static CRC32C_TABLE: [u32; 256] = crc32c_table();

const fn crc32c_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut v = i as u32;
        let mut bit = 0;
        while bit < 8 {
            v = if v & 1 != 0 {
                (v >> 1) ^ CRC32C_POLY
            } else {
                v >> 1
            };
            bit += 1;
        }
        table[i] = v;
        i += 1;
    }
    table
}

/// [`crc32c_append`] as a byte-at-a-time table loop, which every CPU runs: it is what
/// [`crc32c_append`] uses where the CPU has no CRC-32C instruction it knows (anything
/// but x86_64 with SSE4.2), and the reference the tests hold the instruction path to.
/// It is about 20× slower than the instruction on long inputs.
pub fn crc32c_append_portable(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in data {
        crc = CRC32C_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
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
    fn crc32c_matches_the_rfc_3720_vectors() {
        // RFC 3720 §B.4.
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        let descending: Vec<u8> = (0x00..=0x1F).rev().collect();
        let vectors: [(&[u8], u32); 4] = [
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want, "{data:02x?}");
            assert_eq!(crc32c_append_portable(0, data), want, "{data:02x?}");
        }
    }

    /// `len` pseudo-random bytes for seed `seed`.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| mix64(seed ^ (i << 20)) as u8)
            .collect()
    }

    #[test]
    fn crc32c_equals_the_portable_reference_on_every_length_and_alignment() {
        // Every length up to 1 KiB at every start offset within an 8-byte word covers
        // each word/tail split the instruction path makes; a page and a segment image
        // cover the long loop.
        let buf = seeded_bytes(7, 1024 + 8);
        for start in 0..8 {
            for len in 0..=1024 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32c(data),
                    crc32c_append_portable(0, data),
                    "start {start}, len {len}"
                );
            }
        }
        for len in [4096, 2 << 20] {
            let data = seeded_bytes(len as u64, len + 3);
            for start in [0, 3] {
                let data = &data[start..start + len];
                assert_eq!(crc32c(data), crc32c_append_portable(0, data), "len {len}");
            }
        }
    }

    #[test]
    fn crc32c_append_continues_across_every_split() {
        // What `protocol::write_frame` does: the header, then the payload it points at.
        let data = seeded_bytes(11, 300);
        let whole = crc32c(&data);
        assert_eq!(whole, crc32c_append_portable(0, &data));
        for cut in 0..=data.len() {
            let (head, tail) = data.split_at(cut);
            assert_eq!(crc32c_append(crc32c(head), tail), whole, "cut {cut}");
            let portable = crc32c_append_portable(crc32c_append_portable(0, head), tail);
            assert_eq!(portable, whole, "cut {cut}");
        }
    }

    /// A `cfg` slip (say `target_feature = "sse4.2"`, which the default x86_64 target
    /// does not set) would keep every value right and quietly fall back to the table.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc32c_runs_the_instruction_on_a_cpu_with_sse42() {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            assert_eq!(Crc32cKernel::detect(), Crc32cKernel::Sse42);
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
