//! Differential fuzzing of the table-driven inflate against the naive
//! in-tree reference decoder.
//!
//! `codecomp_flate::inflate` (two-level lookup tables, 64-bit bit
//! reservoir) and `codecomp_flate::reference_inflate` (bit-at-a-time,
//! table-free canonical-code walker) share no decoding machinery, so
//! agreement between them is strong evidence both implement RFC 1951.
//! The oracle rules, for every input:
//!
//! - if either accepts, both must accept with **byte-identical** output;
//! - if both reject, the error **category** (truncated / corrupt /
//!   limit-exceeded) must match;
//! - any accept/reject divergence is a bug.
//!
//! Inputs come from three sources: round-trips of the full corpus crate
//! through our own `deflate`, hand-authored RFC 1951 edge-case vectors,
//! and ≥ 2,000 seeded mutations from the shared fault-injection
//! schedule. Everything is deterministic in the seeds.
//!
//! `CODECOMP_DIFF_MUTATIONS` overrides the per-payload mutation count
//! (the CI smoke step sets it low for a quick deterministic pass).

use code_compression::core::fault::mutation_schedule;
use code_compression::corpus::{benchmarks, synthetic, SynthConfig};
use code_compression::flate::deflate::deflate_compress_fixed;
use code_compression::flate::{
    deflate_compress, inflate, inflate_with_limit, reference_inflate,
    reference_inflate_with_limit, CompressionLevel, FlateError,
};
use code_compression::wire::{compress as wire_compress, WireOptions};
use codecomp_coding::bits::LsbBitWriter;
use codecomp_coding::huffman::{build_code_lengths, canonical_codes};

/// Error category for oracle comparison: both decoders must agree on
/// it whenever both reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Category {
    Truncated,
    Corrupt,
    Limit,
    Other,
}

fn category(e: &FlateError) -> Category {
    match e {
        FlateError::Truncated => Category::Truncated,
        FlateError::Corrupt(_) => Category::Corrupt,
        FlateError::LimitExceeded { .. } => Category::Limit,
        _ => Category::Other,
    }
}

/// Runs both decoders and applies the oracle rules.
fn check(what: &str, data: &[u8], limit: usize) {
    let fast = inflate_with_limit(data, limit);
    let slow = reference_inflate_with_limit(data, limit);
    match (&fast, &slow) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: decoders accept with different output"),
        (Err(ea), Err(eb)) => assert_eq!(
            category(ea),
            category(eb),
            "{what}: reject categories diverge (fast {ea:?}, reference {eb:?})"
        ),
        _ => panic!(
            "{what}: accept/reject divergence (fast {:?}, reference {:?})",
            fast.as_ref().map(|v| v.len()),
            slow.as_ref().map(|v| v.len()),
        ),
    }
}

/// Mutations per base payload. Two payload families × four encoder
/// paths × 350 = 2,800 ≥ the 2,000-mutation floor;
/// `CODECOMP_DIFF_MUTATIONS` overrides for the CI smoke run.
fn mutations_per_payload() -> usize {
    std::env::var("CODECOMP_DIFF_MUTATIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(350)
}

/// Mutated streams can inflate to huge outputs (corrupted stored
/// lengths, runaway matches); a 1 MiB ceiling bounds runtime and
/// simultaneously fuzzes the `LimitExceeded` path of both decoders.
const FUZZ_LIMIT: usize = 1 << 20;

/// Compresses `data` through every encoder path: greedy fast, lazy
/// default, lazy dynamic-Huffman best, and forced fixed-Huffman.
fn all_encodings(name: &str, data: &[u8]) -> Vec<(String, Vec<u8>)> {
    vec![
        (
            format!("{name}/best"),
            deflate_compress(data, CompressionLevel::Best),
        ),
        (
            format!("{name}/default"),
            deflate_compress(data, CompressionLevel::Default),
        ),
        (
            format!("{name}/fast"),
            deflate_compress(data, CompressionLevel::Fast),
        ),
        (
            format!("{name}/fixed"),
            deflate_compress_fixed(data, CompressionLevel::Best),
        ),
    ]
}

/// Drives the seeded mutation schedule for one payload family. The
/// reference decoder is deliberately slow (a linear scan per stream
/// bit), so callers keep `data` to a few KiB.
fn fuzz_payload_family(name: &str, data: &[u8], seed_base: u64) {
    let per_payload = mutations_per_payload();
    for (pi, (pname, payload)) in all_encodings(name, data).iter().enumerate() {
        check(&format!("{pname}/unmutated"), payload, FUZZ_LIMIT);
        let schedule = mutation_schedule(seed_base + pi as u64, payload.len(), per_payload);
        for (i, m) in schedule.iter().enumerate() {
            let mutated = m.apply(payload);
            check(&format!("{pname}/mutation-{i} ({m:?})"), &mutated, FUZZ_LIMIT);
        }
    }
}

/// Wire images of the three smallest corpus programs: high-entropy
/// DEFLATE input (arithmetic-coded streams inside), exercising stored
/// and poorly-matching dynamic blocks.
#[test]
fn seeded_mutations_agree_on_wire_images() {
    let mut suite = benchmarks();
    suite.sort_by_key(|b| b.source.len());
    let mut wire_bytes = Vec::new();
    for b in suite.iter().take(3) {
        let module = b.compile().expect("corpus compiles");
        wire_bytes.extend(
            wire_compress(&module, WireOptions::default())
                .expect("wire compress")
                .bytes,
        );
    }
    fuzz_payload_family("wire", &wire_bytes, 0xD1FF_0000);
}

/// Corpus program text: match-rich DEFLATE input, exercising dynamic
/// and fixed Huffman blocks with long back-references.
#[test]
fn seeded_mutations_agree_on_program_text() {
    let mut text: Vec<u8> = benchmarks()
        .iter()
        .flat_map(|b| b.source.as_bytes())
        .copied()
        .collect();
    // A few KiB keeps the naive reference decoder affordable across
    // thousands of mutated decodes in debug builds.
    text.truncate(4096);
    fuzz_payload_family("text", &text, 0xD1FF_1000);
}

#[test]
fn corpus_roundtrips_agree() {
    let mut inputs: Vec<(String, Vec<u8>)> = benchmarks()
        .iter()
        .map(|b| {
            let module = b.compile().expect("corpus compiles");
            let bytes = wire_compress(&module, WireOptions::default())
                .expect("wire compress")
                .bytes;
            (b.name.to_string(), bytes)
        })
        .collect();
    // Program sources and a couple of synthetic translation units widen
    // the byte distribution beyond wire images.
    for b in benchmarks() {
        inputs.push((format!("{}-src", b.name), b.source.as_bytes().to_vec()));
    }
    for seed in [11u64, 23] {
        inputs.push((
            format!("synthetic-{seed}"),
            synthetic(seed, SynthConfig::default()).into_bytes(),
        ));
    }
    for (name, data) in &inputs {
        for (what, packed) in all_encodings(name, data) {
            // Valid streams must decode to the original in both.
            assert_eq!(
                &inflate(&packed).expect("fast decoder accepts valid stream"),
                data,
                "roundtrip/{what}: fast decoder output differs from input"
            );
            assert_eq!(
                &reference_inflate(&packed).expect("reference accepts valid stream"),
                data,
                "roundtrip/{what}: reference output differs from input"
            );
        }
    }
}

/// The level matrix: every corpus program × every compression level
/// must round-trip bit-exactly through both the table-driven fast
/// inflate and the naive reference oracle, and the thorough levels
/// must never produce a larger stream than Fast.
#[test]
fn level_matrix_roundtrips_and_orders_sizes() {
    let levels = [
        ("fast", CompressionLevel::Fast),
        ("default", CompressionLevel::Default),
        ("best", CompressionLevel::Best),
    ];
    for b in benchmarks() {
        let data = b.source.as_bytes();
        let mut sizes = std::collections::HashMap::new();
        for (lname, level) in levels {
            let packed = deflate_compress(data, level);
            assert_eq!(
                inflate(&packed).expect("fast decoder accepts valid stream"),
                data,
                "{}/{lname}: fast inflate output differs from input",
                b.name
            );
            assert_eq!(
                reference_inflate(&packed).expect("reference accepts valid stream"),
                data,
                "{}/{lname}: reference output differs from input",
                b.name
            );
            sizes.insert(lname, packed.len());
        }
        assert!(
            sizes["best"] <= sizes["fast"],
            "{}: best ({}) compressed larger than fast ({})",
            b.name,
            sizes["best"],
            sizes["fast"]
        );
    }
}

/// Exact compressed size per level on a 1 MiB corpus-derived payload:
/// the corpus sources followed by distinct synthetic translation units
/// (seeds 1, 2, …), truncated. Pins the match finder's ratio: a change
/// that alters a size on purpose updates the pin in the same commit.
#[test]
fn level_sizes_on_the_corpus_payload_are_pinned() {
    const PAYLOAD_LEN: usize = 1 << 20;
    let mut data = Vec::with_capacity(PAYLOAD_LEN + 4096);
    for b in benchmarks() {
        data.extend_from_slice(b.source.as_bytes());
    }
    let mut seed = 1u64;
    while data.len() < PAYLOAD_LEN {
        data.extend_from_slice(synthetic(seed, SynthConfig::default()).as_bytes());
        seed += 1;
    }
    data.truncate(PAYLOAD_LEN);

    let pins = [
        ("fast", CompressionLevel::Fast, 177_651),
        ("default", CompressionLevel::Default, 161_241),
        ("best", CompressionLevel::Best, 147_879),
    ];
    for (lname, level, want) in pins {
        let packed = deflate_compress(&data, level);
        assert_eq!(
            inflate(&packed).expect("fast decoder accepts valid stream"),
            data,
            "{lname}: inflate output differs from input"
        );
        assert_eq!(packed.len(), want, "{lname}: compressed size moved");
    }
}

/// Hand-authored valid and invalid vectors targeting RFC 1951 corners.
#[test]
fn edge_case_vectors_agree() {
    let fixed_lit = {
        let mut l = vec![8u8; 288];
        for x in &mut l[144..256] {
            *x = 9;
        }
        for x in &mut l[256..280] {
            *x = 7;
        }
        l
    };
    let lit_codes = canonical_codes(&fixed_lit).unwrap();
    let write_lit = |w: &mut LsbBitWriter, sym: usize| {
        w.write_huffman_code(lit_codes[sym], fixed_lit[sym]);
    };

    let mut vectors: Vec<(String, Vec<u8>)> = Vec::new();

    // Empty stored block, then a final stored block.
    vectors.push((
        "stored/two-blocks".into(),
        vec![
            0x00, 0x00, 0x00, 0xFF, 0xFF, // BFINAL=0 stored, LEN=0
            0x01, 0x02, 0x00, 0xFD, 0xFF, b'h', b'i', // final stored "hi"
        ],
    ));
    // Stored block with maximal LEN field.
    {
        let mut v = vec![0x01, 0xFF, 0xFF, 0x00, 0x00];
        v.extend(std::iter::repeat_n(0x5Au8, 65_535));
        vectors.push(("stored/max-len".into(), v));
    }
    // Fixed block: 258-byte match (code 285) at distance 1.
    {
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        write_lit(&mut w, b'x' as usize);
        write_lit(&mut w, 285); // len 258, no extra bits
        w.write_huffman_code(0, 5); // dist code 0 = distance 1
        write_lit(&mut w, 256);
        vectors.push(("fixed/258-byte-match".into(), w.finish()));
    }
    // Fixed block: maximal-family back-reference (dist code 29 + extra).
    {
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        // 24,600 literals so a distance in code 29's range is reachable.
        for i in 0..24_600usize {
            write_lit(&mut w, (i * 131) % 256);
        }
        write_lit(&mut w, 285); // match len 258
        w.write_huffman_code(29, 5); // dist code 29: base 24,577, 13 extra
        w.write_bits(23, 13); // distance 24,600 exactly: the block start
        write_lit(&mut w, 256);
        vectors.push(("fixed/max-distance".into(), w.finish()));
    }
    // Fixed block: overlapping match (dist 1 < len 7) — RLE semantics.
    {
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        write_lit(&mut w, b'r' as usize);
        write_lit(&mut w, 261); // len 7
        w.write_huffman_code(0, 5); // dist 1
        write_lit(&mut w, 256);
        vectors.push(("fixed/overlap-rle".into(), w.finish()));
    }
    // Dynamic block with a degenerate one-code distance table, used.
    {
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        // Literal/length lengths: 'a'=1, 256=2, 257(len 3)=2 → complete.
        // Distance lengths: one code of length 1 (dist 1) → degenerate.
        let mut lit = vec![0u8; 258];
        lit[b'a' as usize] = 1;
        lit[256] = 2;
        lit[257] = 2;
        let dist = vec![1u8];
        write_dynamic_header(&mut w, &lit, &dist);
        let lcodes = canonical_codes(&lit).unwrap();
        let dcodes = canonical_codes(&dist).unwrap();
        // "a" then match len 3 dist 1 then EOB → "aaaa".
        w.write_huffman_code(lcodes[b'a' as usize], lit[b'a' as usize]);
        w.write_huffman_code(lcodes[257], lit[257]);
        w.write_huffman_code(dcodes[0], dist[0]);
        w.write_huffman_code(lcodes[256], lit[256]);
        vectors.push(("dynamic/degenerate-dist-used".into(), w.finish()));
    }
    // Dynamic block with an all-zero distance table and no matches.
    {
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        let mut lit = vec![0u8; 258];
        lit[b'z' as usize] = 1;
        lit[256] = 1;
        let dist = vec![0u8];
        write_dynamic_header(&mut w, &lit, &dist);
        let lcodes = canonical_codes(&lit).unwrap();
        w.write_huffman_code(lcodes[b'z' as usize], lit[b'z' as usize]);
        w.write_huffman_code(lcodes[256], lit[256]);
        vectors.push(("dynamic/no-dist-table".into(), w.finish()));
    }

    // Invalid vectors: categories must agree.
    vectors.push(("invalid/empty".into(), Vec::new()));
    vectors.push(("invalid/reserved-btype".into(), vec![0b0000_0111]));
    vectors.push((
        "invalid/bad-nlen".into(),
        vec![0x01, 0x01, 0x00, 0x00, 0x00, 0xAA],
    ));
    {
        // Dynamic header whose code-length code is oversubscribed:
        // HCLEN=4, all four transmitted CLC lengths = 1 (Kraft sum 2).
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        w.write_bits(0, 5); // HLIT = 257
        w.write_bits(0, 5); // HDIST = 1
        w.write_bits(0, 4); // HCLEN = 4
        for _ in 0..4 {
            w.write_bits(1, 3);
        }
        vectors.push(("invalid/oversubscribed-clc".into(), w.finish()));
    }
    {
        // First code-length symbol is a 16-repeat with nothing before
        // it. CLC: symbols 16 and 17 get length 1 (a complete
        // two-symbol code); symbol 16 canonically takes code 0.
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        w.write_bits(0, 5); // HLIT = 257
        w.write_bits(0, 5); // HDIST = 1
        w.write_bits(15, 4); // HCLEN = 19
        w.write_bits(1, 3); // length of CLC symbol 16
        w.write_bits(1, 3); // length of CLC symbol 17
        for _ in 2..19 {
            w.write_bits(0, 3);
        }
        w.write_bits(0, 1); // symbol 16: repeat with no previous length
        vectors.push(("invalid/repeat-first".into(), w.finish()));
    }
    {
        // Undersubscribed literal table: two codes of length 3 leave
        // most of the code space unreachable.
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        let mut lit = vec![0u8; 258];
        lit[b'q' as usize] = 3;
        lit[256] = 3;
        let dist = vec![0u8];
        write_dynamic_header(&mut w, &lit, &dist);
        vectors.push(("invalid/undersubscribed-litlen".into(), w.finish()));
    }
    {
        // Distance before output start: a match as the very first token.
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        write_lit(&mut w, 257); // len 3
        w.write_huffman_code(0, 5); // dist 1, but output is empty
        write_lit(&mut w, 256);
        vectors.push(("invalid/distance-before-start".into(), w.finish()));
    }
    {
        // Reserved fixed-tree symbols: distance codes 30/31 and
        // literal/length codes 286/287 participate in code construction
        // but must be rejected when decoded.
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        write_lit(&mut w, b'k' as usize);
        write_lit(&mut w, 257);
        w.write_huffman_code(30, 5); // reserved distance code
        write_lit(&mut w, 256);
        vectors.push(("invalid/reserved-dist-30".into(), w.finish()));

        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        write_lit(&mut w, 286); // reserved literal/length code
        write_lit(&mut w, 256);
        vectors.push(("invalid/reserved-litlen-286".into(), w.finish()));
    }

    for (what, v) in &vectors {
        check(what, v, code_compression::flate::inflate::MAX_OUTPUT);
        // Every prefix of the vector head: truncation classification
        // must agree at all cut points, including mid-header ones.
        for cut in 0..v.len().min(64) {
            check(&format!("{what}/prefix-{cut}"), &v[..cut], FUZZ_LIMIT);
        }
    }
}

/// Writes an RFC 1951 dynamic-block header encoding exactly `lit` and
/// `dist` code lengths, with every length sent literally (no 16/17/18
/// repeat codes) through a freshly built code-length code.
fn write_dynamic_header(w: &mut LsbBitWriter, lit: &[u8], dist: &[u8]) {
    assert!(lit.len() >= 257);
    w.write_bits(lit.len() as u32 - 257, 5);
    w.write_bits(dist.len() as u32 - 1, 5);
    w.write_bits(19 - 4, 4); // HCLEN = 19: transmit all CLC lengths
    let mut freq = [0u64; 19];
    for &l in lit.iter().chain(dist) {
        freq[l as usize] += 1;
    }
    let clc_lengths = build_code_lengths(&freq, 7).expect("clc code builds");
    const ORDER: [usize; 19] = [
        16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
    ];
    for &o in &ORDER {
        w.write_bits(u32::from(clc_lengths[o]), 3);
    }
    let clc_codes = canonical_codes(&clc_lengths).expect("valid clc");
    for &l in lit.iter().chain(dist) {
        w.write_huffman_code(clc_codes[l as usize], clc_lengths[l as usize]);
    }
}
