//! Golden outputs of the BRISC compressor.
//!
//! Every corpus program and one reduced synthetic program are compressed
//! under the paper's default options and under each ablation variant of
//! `table_ablation`. The FNV-1a of the serialized image, the pass count,
//! the candidates tested and the dictionary size are pinned. Any change
//! to the greedy passes that is meant to be a pure speed-up must leave
//! this table untouched; a change that alters the output must update it
//! on purpose.
//!
//! On a mismatch the test prints the whole actual table for its variant
//! in the same syntax as `GOLDEN`.

use codecomp_brisc::compress::{compress, BriscOptions};
use codecomp_core::dict::MemoryRegime;
use codecomp_corpus::{benchmarks, synthetic, SynthConfig};
use codecomp_front::compile;
use codecomp_vm::codegen::compile_module;
use codecomp_vm::isa::IsaConfig;
use codecomp_vm::program::VmProgram;

/// The reduced synth-gcc subject: synth-gcc's shape at 200 functions.
const SYNTH_SEED: u64 = 0xC0DE;
const SYNTH: SynthConfig = SynthConfig {
    functions: 200,
    statements_per_function: 10,
    globals: 12,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn subjects() -> Vec<(String, VmProgram)> {
    let vm = |src: &str| compile_module(&compile(src).unwrap(), IsaConfig::full()).unwrap();
    let mut out: Vec<(String, VmProgram)> = benchmarks()
        .into_iter()
        .map(|b| (b.name.to_string(), vm(b.source)))
        .collect();
    out.push(("synth200".to_string(), vm(&synthetic(SYNTH_SEED, SYNTH))));
    out
}

/// The option sets of `table_ablation`, by the names used in `GOLDEN`.
fn variant(name: &str) -> BriscOptions {
    let d = BriscOptions::default();
    match name {
        "default" => d,
        "no-spec" => BriscOptions {
            specialization: false,
            ..d
        },
        "no-comb" => BriscOptions {
            combination: false,
            ..d
        },
        "no-x4" => BriscOptions { x4: false, ..d },
        "no-epi" => BriscOptions { epi: false, ..d },
        "order0" => BriscOptions { order0: true, ..d },
        "abundant" => BriscOptions {
            regime: MemoryRegime::Abundant,
            ..d
        },
        "k5" => BriscOptions { k: 5, ..d },
        "charge6" => BriscOptions {
            table_charge: 6,
            ..d
        },
        other => panic!("unknown variant {other}"),
    }
}

/// `(variant, subject, fnv1a(image.to_bytes()), passes, candidates_tested, dictionary_entries)`.
type Row = (&'static str, &'static str, u64, usize, usize, usize);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("default", "vmsim", 0xb071881963b08ce7, 4, 3859, 84),
    ("default", "dsp", 0xdcd89ccc913aa697, 2, 4257, 47),
    ("default", "pack", 0x0d538ba475e288d7, 2, 3402, 47),
    ("default", "sortlib", 0x08b6073314648c6d, 2, 4431, 63),
    ("default", "calc", 0xb13d1fab8280ac24, 2, 3419, 61),
    ("default", "life", 0x8eb8c958abe85b82, 3, 2799, 63),
    ("default", "hash", 0x1fde1ebf14cb708f, 1, 1529, 42),
    ("default", "regex", 0x5937ef909ef8a96b, 2, 2496, 43),
    ("default", "bignum", 0x9c31615f87527687, 2, 2886, 45),
    ("default", "queens", 0xf628b941ba2fdaa3, 2, 1966, 39),
    ("default", "synth200", 0x0974a2165e3a276e, 6, 67852, 142),
    ("no-spec", "vmsim", 0x39c988f2758c06f1, 2, 199, 48),
    ("no-spec", "dsp", 0xf27e8e5b81f9af80, 1, 122, 42),
    ("no-spec", "pack", 0x134b0c947e2d245d, 1, 131, 37),
    ("no-spec", "sortlib", 0x564021229d83cddd, 2, 240, 51),
    ("no-spec", "calc", 0x608d7fffdd16adc7, 1, 163, 44),
    ("no-spec", "life", 0x2c256118122d17fb, 2, 172, 43),
    ("no-spec", "hash", 0x66f56f84ce8cd8b6, 1, 111, 36),
    ("no-spec", "regex", 0xde93ac8d1217104e, 1, 129, 34),
    ("no-spec", "bignum", 0xe6c27dfbc626a88a, 2, 202, 45),
    ("no-spec", "queens", 0x3b2b436a3faa9fea, 1, 91, 28),
    ("no-spec", "synth200", 0x5568d24f91d36b4d, 4, 1207, 118),
    ("no-comb", "vmsim", 0xed8bc17559b829cc, 1, 173, 43),
    ("no-comb", "dsp", 0x1b27f39fbe9f8da1, 1, 121, 35),
    ("no-comb", "pack", 0x27880a83a2f5e64e, 1, 93, 32),
    ("no-comb", "sortlib", 0xab316818e9023f86, 2, 107, 51),
    ("no-comb", "calc", 0x4fa349f4cbf4f4a5, 1, 142, 45),
    ("no-comb", "life", 0xa5fb90291711936a, 1, 109, 36),
    ("no-comb", "hash", 0x4773924696dd692a, 1, 88, 32),
    ("no-comb", "regex", 0x0c61be17c06b865a, 1, 94, 31),
    ("no-comb", "bignum", 0xa1364dae04231949, 1, 86, 43),
    ("no-comb", "queens", 0x7f51db60647f8a86, 1, 59, 32),
    ("no-comb", "synth200", 0xba0666288acf758d, 3, 690, 80),
    ("no-x4", "vmsim", 0x88bc9448aa39a6d0, 4, 3931, 85),
    ("no-x4", "dsp", 0x6baf8cecb2187e43, 2, 3856, 47),
    ("no-x4", "pack", 0xb9ebfaecae17c32f, 1, 1608, 42),
    ("no-x4", "sortlib", 0x78b0c91f30ce483c, 2, 3965, 51),
    ("no-x4", "calc", 0xe3650a8142c66f89, 2, 3134, 57),
    ("no-x4", "life", 0x33c26760049e53d5, 2, 2132, 62),
    ("no-x4", "hash", 0x407d0ed5e31534e2, 1, 1309, 34),
    ("no-x4", "regex", 0xef7ee1aef45295cc, 2, 2525, 42),
    ("no-x4", "bignum", 0x12a93114e24dc04a, 2, 2397, 45),
    ("no-x4", "queens", 0xc4c72144fa781723, 2, 1524, 39),
    ("no-x4", "synth200", 0x03aed58776819ba5, 6, 85263, 150),
    ("no-epi", "vmsim", 0x7ae5ee69f2d74acd, 4, 4227, 88),
    ("no-epi", "dsp", 0x061d7963948a7a71, 2, 4537, 49),
    ("no-epi", "pack", 0x0f025b792ee3bc17, 2, 4001, 49),
    ("no-epi", "sortlib", 0xe8e58723a1b29ed1, 2, 4849, 65),
    ("no-epi", "calc", 0x1af4383c20ef5379, 2, 3668, 51),
    ("no-epi", "life", 0xe38a2686a00788bc, 3, 3412, 65),
    ("no-epi", "hash", 0x14b357d2a7afc479, 2, 2872, 49),
    ("no-epi", "regex", 0xa96d090088a85759, 2, 2947, 45),
    ("no-epi", "bignum", 0x9e654b83892fa34b, 2, 3102, 49),
    ("no-epi", "queens", 0x25eb7e1ac45d2250, 2, 2253, 41),
    ("no-epi", "synth200", 0xd5f7cb7f5121c7e0, 9, 100124, 210),
    ("order0", "vmsim", 0x5a9fe6c3a05a5b04, 4, 3859, 84),
    ("order0", "dsp", 0x74db512376cce298, 2, 4257, 47),
    ("order0", "pack", 0x78c6aef453432386, 2, 3402, 47),
    ("order0", "sortlib", 0x341e8324bdba52f8, 2, 4431, 63),
    ("order0", "calc", 0xe6047fd574791e72, 2, 3419, 61),
    ("order0", "life", 0x7b700db828ace7ff, 3, 2799, 63),
    ("order0", "hash", 0xfc61042201ded30a, 1, 1529, 42),
    ("order0", "regex", 0xf004cdf51c13456b, 2, 2496, 43),
    ("order0", "bignum", 0xc240e84ab593e2ec, 2, 2886, 45),
    ("order0", "queens", 0x4c4784ae2582ad12, 2, 1966, 39),
    ("order0", "synth200", 0xa2d2ea2fb4126f34, 6, 67852, 142),
    ("abundant", "vmsim", 0xcc169dfd1d295b85, 5, 5660, 106),
    ("abundant", "dsp", 0x8595e66b6b8ffef0, 2, 4201, 53),
    ("abundant", "pack", 0xe7dc4ea3eb2e08d8, 2, 3393, 47),
    ("abundant", "sortlib", 0xe3c668c2fea098da, 3, 5106, 83),
    ("abundant", "calc", 0x3e4cd9ec84e03945, 3, 3310, 83),
    ("abundant", "life", 0xcb35773c53bfaca1, 3, 2779, 74),
    ("abundant", "hash", 0xce80f884c28ce295, 2, 2645, 47),
    ("abundant", "regex", 0xed1cacb6188aa47e, 3, 2810, 62),
    ("abundant", "bignum", 0x7998bddaead2c427, 2, 2742, 56),
    ("abundant", "queens", 0xfbaea974be378b6a, 2, 1925, 39),
    ("abundant", "synth200", 0xde7a9cbf57638d9b, 7, 68960, 160),
    ("k5", "vmsim", 0x66a41eff013fefb8, 4, 4345, 39),
    ("k5", "dsp", 0x57605c964a31e113, 2, 2696, 32),
    ("k5", "pack", 0x6979e9cb72ca47dd, 2, 2266, 32),
    ("k5", "sortlib", 0x06558e630d493e74, 3, 4198, 42),
    ("k5", "calc", 0x19d38a2fb229fe2a, 2, 2951, 34),
    ("k5", "life", 0xdf08863772038736, 4, 2584, 38),
    ("k5", "hash", 0x969593f79b760bf1, 2, 1778, 32),
    ("k5", "regex", 0x7c9fbc8224ebf41a, 2, 2080, 27),
    ("k5", "bignum", 0xc78aedcb25b3f279, 2, 2122, 30),
    ("k5", "queens", 0xce0e46b6e7e8ea6d, 2, 1570, 24),
    ("k5", "synth200", 0xcbd6c02b21839cbe, 8, 46495, 75),
    ("charge6", "vmsim", 0xb071881963b08ce7, 4, 3859, 84),
    ("charge6", "dsp", 0xacbc71956830cb81, 1, 2366, 42),
    ("charge6", "pack", 0xc3e8af339a75a0b8, 1, 1904, 36),
    ("charge6", "sortlib", 0xdbfc4580e2bb642b, 2, 4431, 51),
    ("charge6", "calc", 0x80d998b78222eeaa, 2, 3419, 49),
    ("charge6", "life", 0xeec1db48720859b4, 2, 2581, 62),
    ("charge6", "hash", 0x3fd2457efc81bc7f, 1, 1529, 35),
    ("charge6", "regex", 0x268c27a0d0fedb16, 2, 2496, 42),
    ("charge6", "bignum", 0x9c31615f87527687, 2, 2886, 45),
    ("charge6", "queens", 0x64cb0a9f3eddf2d0, 1, 1076, 29),
    ("charge6", "synth200", 0x0974a2165e3a276e, 6, 67852, 142),
];

fn check(variant_name: &str) {
    let options = variant(variant_name);
    let mut actual = Vec::new();
    for (name, vm) in subjects() {
        let report = compress(&vm, options).expect("compress");
        actual.push((
            name,
            fnv1a(&report.image.to_bytes()),
            report.passes,
            report.candidates_tested,
            report.dictionary_entries,
        ));
    }
    let expected: Vec<_> = GOLDEN
        .iter()
        .filter(|r| r.0 == variant_name)
        .map(|&(_, s, h, p, c, d)| (s.to_string(), h, p, c, d))
        .collect();
    if actual != expected {
        for (s, h, p, c, d) in &actual {
            println!("    (\"{variant_name}\", \"{s}\", {h:#018x}, {p}, {c}, {d}),");
        }
        panic!("golden outputs of variant {variant_name} changed (actual table above)");
    }
}

#[test]
fn golden_default() {
    check("default");
}

#[test]
fn golden_no_specialization() {
    check("no-spec");
}

#[test]
fn golden_no_combination() {
    check("no-comb");
}

#[test]
fn golden_no_x4() {
    check("no-x4");
}

#[test]
fn golden_no_epi() {
    check("no-epi");
}

#[test]
fn golden_order0() {
    check("order0");
}

#[test]
fn golden_abundant_memory() {
    check("abundant");
}

#[test]
fn golden_k5() {
    check("k5");
}

#[test]
fn golden_table_charge() {
    check("charge6");
}
