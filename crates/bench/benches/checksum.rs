//! Criterion micro-benchmark: the CRC-32C kernel under every wire frame and segment
//! checksum — `crc32c_append` (the SSE4.2 `crc32` instruction on a CPU that has it, what
//! `crc32c` runs) against `crc32c_append_portable` (the table loop every other CPU runs)
//! at 40 B and 146 B (a `srv-get` request and reply body), 4 KiB (a page) and 2 MiB (a
//! segment image).
//!
//! The vendored harness times one closure call per sample, far too coarse for a 40-byte
//! checksum, so each call checksums its buffer `reps` times (about 1 MiB of input in
//! all), each checksum continuing the previous one so that none can overlap the next:
//! divide the printed time by `reps` for the time of one checksum; the MiB/s figure is
//! already per byte. Run with `cargo bench -p lss-bench --bench checksum`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lss_core::util::{crc32c_append, crc32c_append_portable, mix64};

fn bench_checksum(c: &mut Criterion) {
    for len in [40usize, 146, 4096, 2 << 20] {
        let data: Vec<u8> = (0..len).map(|i| mix64(i as u64) as u8).collect();
        let reps = ((1 << 20) / len).max(1);
        let mut group = c.benchmark_group(format!("crc32c/{len}B/x{reps}"));
        group
            .sample_size(50)
            .throughput(Throughput::Bytes((len * reps) as u64));
        for (name, kernel) in [
            ("dispatch", crc32c_append as fn(u32, &[u8]) -> u32),
            ("portable", crc32c_append_portable),
        ] {
            group.bench_function(name, |b| {
                b.iter(|| (0..reps).fold(0, |crc, _| kernel(crc, black_box(&data))))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_checksum);
criterion_main!(benches);
