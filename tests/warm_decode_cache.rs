//! Warm-cache decode: decoding the corpus a second time builds no
//! decode structure.
//!
//! The wire decoder interns canonical Huffman tables (coding), DEFLATE
//! dynamic tables (flate) and decoded `$patterns` tables (wire) behind
//! process-wide caches. A decode that stops consulting a cache still
//! round-trips, so `tests/cache_differential.rs` cannot see it; it only
//! gets slower. This test counts instead of timing: once every table of
//! the corpus is interned, a repeat decode must hit on every lookup.
//!
//! The test owns its binary because it installs the process-global
//! collector and reads cache counters that a concurrent test clearing
//! or bumping the caches would disturb.

use code_compression::core::telemetry::{self, Collector};
use code_compression::corpus::benchmarks;
use code_compression::ir::Module;
use code_compression::wire::{compress, decompress, WireOptions};

const CACHES: [&str; 3] = [
    "coding.huffman.table_cache",
    "flate.inflate.table_cache",
    "wire.patterns.table_cache",
];

/// `(hits, misses)` published so far by each of [`CACHES`].
fn cache_counts() -> [(u64, u64); 3] {
    let snap = telemetry::collector()
        .expect("collector installed")
        .metrics
        .snapshot();
    let count = |name: String| snap.counter(&name).unwrap_or(0);
    CACHES.map(|c| (count(format!("{c}.hits")), count(format!("{c}.misses"))))
}

/// Decodes every image and checks it reproduces its source module.
fn decode_all(pass: &str, images: &[(&str, Module, Vec<u8>)]) {
    for (name, module, image) in images {
        let got = decompress(image).expect("corpus image decodes");
        assert_eq!(&got, module, "{pass} decode of {name} differs from its source");
    }
}

#[test]
fn warm_corpus_decode_builds_no_table() {
    assert!(
        telemetry::install(Collector::metrics_only()),
        "this binary must be the only installer"
    );
    let images: Vec<(&str, Module, Vec<u8>)> = benchmarks()
        .iter()
        .map(|b| {
            let module = b.compile().expect("corpus programs compile");
            let image = compress(&module, WireOptions::default())
                .expect("corpus wire-compresses")
                .bytes;
            (b.name, module, image)
        })
        .collect();

    decode_all("cold", &images);
    let cold = cache_counts();
    decode_all("warm", &images);
    let warm = cache_counts();

    for ((name, (cold_hits, cold_misses)), (warm_hits, warm_misses)) in
        CACHES.iter().zip(cold).zip(warm)
    {
        assert!(cold_misses > 0, "{name}: the cold pass built no table");
        assert_eq!(
            warm_misses,
            cold_misses,
            "{name}: the warm pass rebuilt {} tables",
            warm_misses - cold_misses
        );
        assert!(warm_hits > cold_hits, "{name}: the warm pass never hit");
    }
}
