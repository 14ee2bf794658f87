//! Integration tests spanning every crate: the full corpus runs through
//! every execution tier and both compressors round-trip.

use code_compression::brisc::interp::BriscMachine;
use code_compression::brisc::translate::{emit_x86, translate};
use code_compression::brisc::{compress as brisc_compress, BriscImage, BriscOptions};
use code_compression::corpus::{benchmarks, synthetic, SynthConfig};
use code_compression::front::compile;
use code_compression::ir::eval::Evaluator;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::interp::Machine;
use code_compression::vm::isa::IsaConfig;
use code_compression::wire::{compress as wire_compress, decompress, WireOptions};

const MEM: u32 = 1 << 22;
const FUEL: u64 = 1 << 28;

/// The work one program does on the compressed tiers: what E3's
/// working-set inputs and the translator's output are computed from.
#[derive(Debug, PartialEq, Eq)]
struct TierWork {
    brisc_instructions: u64,
    brisc_items_decoded: u64,
    brisc_calls: u64,
    touched_bytes: usize,
    touched_runs: usize,
    touched_runs_fnv: u64,
    fast_instructions: u64,
    fast_calls: u64,
    x86_len: usize,
    x86_fnv: u64,
}

/// Per-program work of the compressed tiers over the bundled corpus,
/// under the default compressor options. Interpreter speed-ups and
/// translator changes must leave every figure where it is: E3's
/// working-set inputs (touched bytes and runs) and the emitted x86
/// bytes are computed from exactly these.
const CORPUS_TIER_WORK: [(&str, TierWork); 10] = [
    (
        "vmsim",
        TierWork {
            brisc_instructions: 19336,
            brisc_items_decoded: 17820,
            brisc_calls: 562,
            touched_bytes: 1687,
            touched_runs: 4,
            touched_runs_fnv: 0x93c229e25f1aa878,
            fast_instructions: 19336,
            fast_calls: 562,
            x86_len: 2930,
            x86_fnv: 0x9890fcbe3007406a,
        },
    ),
    (
        "dsp",
        TierWork {
            brisc_instructions: 151976,
            brisc_items_decoded: 116071,
            brisc_calls: 264,
            touched_bytes: 796,
            touched_runs: 3,
            touched_runs_fnv: 0x8f7762913b049384,
            fast_instructions: 151976,
            fast_calls: 264,
            x86_len: 1309,
            x86_fnv: 0x1abab9337d635699,
        },
    ),
    (
        "pack",
        TierWork {
            brisc_instructions: 41552,
            brisc_items_decoded: 30204,
            brisc_calls: 8,
            touched_bytes: 684,
            touched_runs: 5,
            touched_runs_fnv: 0x1584e8e60e3d6998,
            fast_instructions: 41552,
            fast_calls: 8,
            x86_len: 1185,
            x86_fnv: 0xe6ae2015552733a8,
        },
    ),
    (
        "sortlib",
        TierWork {
            brisc_instructions: 403310,
            brisc_items_decoded: 296095,
            brisc_calls: 556,
            touched_bytes: 1194,
            touched_runs: 4,
            touched_runs_fnv: 0x690192141a88ce0e,
            fast_instructions: 403310,
            fast_calls: 556,
            x86_len: 1846,
            x86_fnv: 0x9bce763e4c07624d,
        },
    ),
    (
        "calc",
        TierWork {
            brisc_instructions: 41876,
            brisc_items_decoded: 34257,
            brisc_calls: 1297,
            touched_bytes: 922,
            touched_runs: 2,
            touched_runs_fnv: 0x14494dc0c6966c2a,
            fast_instructions: 41876,
            fast_calls: 1297,
            x86_len: 1602,
            x86_fnv: 0x0e1206ab342e6fb5,
        },
    ),
    (
        "life",
        TierWork {
            brisc_instructions: 11653406,
            brisc_items_decoded: 10063385,
            brisc_calls: 466655,
            touched_bytes: 1097,
            touched_runs: 1,
            touched_runs_fnv: 0xe751be56e28342d0,
            fast_instructions: 11653406,
            fast_calls: 466655,
            x86_len: 1687,
            x86_fnv: 0xff59aacc8f44ce1e,
        },
    ),
    (
        "hash",
        TierWork {
            brisc_instructions: 448036,
            brisc_items_decoded: 387051,
            brisc_calls: 5182,
            touched_bytes: 503,
            touched_runs: 1,
            touched_runs_fnv: 0xd680274858003acd,
            fast_instructions: 448036,
            fast_calls: 5182,
            x86_len: 792,
            x86_fnv: 0xe65ac2a1e53c1f8a,
        },
    ),
    (
        "regex",
        TierWork {
            brisc_instructions: 1865382,
            brisc_items_decoded: 1621146,
            brisc_calls: 42370,
            touched_bytes: 809,
            touched_runs: 2,
            touched_runs_fnv: 0x320d2d669b670979,
            fast_instructions: 1865382,
            fast_calls: 42370,
            x86_len: 1275,
            x86_fnv: 0xf022adc85fed293b,
        },
    ),
    (
        "bignum",
        TierWork {
            brisc_instructions: 579023,
            brisc_items_decoded: 576201,
            brisc_calls: 862,
            touched_bytes: 944,
            touched_runs: 2,
            touched_runs_fnv: 0x9c7c61f893866d6f,
            fast_instructions: 579023,
            fast_calls: 862,
            x86_len: 1421,
            x86_fnv: 0x4219f66250ec0db9,
        },
    ),
    (
        "queens",
        TierWork {
            brisc_instructions: 628188,
            brisc_items_decoded: 487465,
            brisc_calls: 2840,
            touched_bytes: 400,
            touched_runs: 1,
            touched_runs_fnv: 0xa31db881a4f8298a,
            fast_instructions: 628188,
            fast_calls: 2840,
            x86_len: 750,
            x86_fnv: 0xfa84e773961100cc,
        },
    ),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs one module through all four tiers and asserts exact agreement.
fn all_tiers_agree(name: &str, ir: &code_compression::ir::Module) -> TierWork {
    let reference = Evaluator::new(ir, MEM, FUEL)
        .unwrap()
        .run("main", &[])
        .unwrap_or_else(|e| panic!("{name}: reference eval failed: {e}"));

    let vm = compile_module(ir, IsaConfig::full()).unwrap();
    let vm_out = Machine::new(&vm, MEM, FUEL)
        .unwrap()
        .run("main", &[])
        .unwrap();
    assert_eq!(vm_out.value, reference.value, "{name}: vm value");
    assert_eq!(vm_out.output, reference.output, "{name}: vm output");

    let report = brisc_compress(&vm, BriscOptions::default()).unwrap();
    let mut machine = BriscMachine::new(&report.image, MEM, FUEL).unwrap();
    let brisc_out = machine.run("main", &[]).unwrap();
    assert_eq!(brisc_out.value, reference.value, "{name}: brisc value");
    assert_eq!(brisc_out.output, reference.output, "{name}: brisc output");
    let runs = machine.touched_runs();

    let translated = translate(&report.image).unwrap();
    let fast_out = Machine::new(&translated, MEM, FUEL)
        .unwrap()
        .run("main", &[])
        .unwrap();
    assert_eq!(fast_out.value, reference.value, "{name}: translated value");
    assert_eq!(
        fast_out.output, reference.output,
        "{name}: translated output"
    );
    let (_, x86) = emit_x86(&report.image).unwrap();
    TierWork {
        brisc_instructions: brisc_out.instructions,
        brisc_items_decoded: brisc_out.items_decoded,
        brisc_calls: brisc_out.calls,
        touched_bytes: machine.touched_code_bytes(),
        touched_runs: runs.len(),
        touched_runs_fnv: fnv1a(
            runs.iter()
                .flat_map(|&(off, len)| off.to_le_bytes().into_iter().chain(len.to_le_bytes())),
        ),
        fast_instructions: fast_out.instructions,
        fast_calls: fast_out.calls,
        x86_len: x86.len(),
        x86_fnv: fnv1a(x86),
    }
}

#[test]
fn corpus_runs_identically_on_all_tiers() {
    let corpus = benchmarks();
    assert_eq!(corpus.len(), CORPUS_TIER_WORK.len());
    for (b, (name, pinned)) in corpus.iter().zip(&CORPUS_TIER_WORK) {
        assert_eq!(b.name, *name);
        let ir = b.compile().unwrap();
        assert_eq!(
            &all_tiers_agree(b.name, &ir),
            pinned,
            "{name}: tier work moved"
        );
    }
}

#[test]
fn corpus_wire_roundtrips() {
    for b in benchmarks() {
        let ir = b.compile().unwrap();
        let packed = wire_compress(&ir, WireOptions::default()).unwrap();
        assert_eq!(decompress(&packed.bytes).unwrap(), ir, "{}", b.name);
    }
}

#[test]
fn corpus_brisc_images_serialize() {
    for b in benchmarks() {
        let ir = b.compile().unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = brisc_compress(&vm, BriscOptions::default()).unwrap();
        let bytes = report.image.to_bytes();
        let back = BriscImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, report.image, "{}", b.name);
        // The reloaded image still runs.
        let out = BriscMachine::new(&back, MEM, FUEL)
            .unwrap()
            .run("main", &[])
            .unwrap();
        let reference = Evaluator::new(&ir, MEM, FUEL)
            .unwrap()
            .run("main", &[])
            .unwrap();
        assert_eq!(out.value, reference.value, "{}", b.name);
    }
}

#[test]
fn corpus_compiles_under_all_isa_variants() {
    for b in benchmarks() {
        let ir = b.compile().unwrap();
        let reference = Evaluator::new(&ir, MEM, FUEL)
            .unwrap()
            .run("main", &[])
            .unwrap();
        for (vname, isa) in IsaConfig::variants() {
            let vm = compile_module(&ir, isa).unwrap();
            let out = Machine::new(&vm, MEM, FUEL)
                .unwrap()
                .run("main", &[])
                .unwrap();
            assert_eq!(out.value, reference.value, "{} under {vname}", b.name);
        }
    }
}

#[test]
fn synthetic_programs_survive_the_whole_pipeline() {
    for seed in [11u64, 222, 3333] {
        let src = synthetic(
            seed,
            SynthConfig {
                functions: 25,
                statements_per_function: 8,
                globals: 5,
            },
        );
        let ir = compile(&src).unwrap();
        all_tiers_agree(&format!("synthetic-{seed}"), &ir);
        let packed = wire_compress(&ir, WireOptions::default()).unwrap();
        assert_eq!(decompress(&packed.bytes).unwrap(), ir, "synthetic-{seed}");
    }
}

#[test]
fn wire_and_brisc_both_compress_large_programs() {
    let src = synthetic(
        7,
        SynthConfig {
            functions: 120,
            statements_per_function: 10,
            globals: 8,
        },
    );
    let ir = compile(&src).unwrap();
    let raw = code_compression::ir::binary::encode_module(&ir)
        .unwrap()
        .len();
    let wire = wire_compress(&ir, WireOptions::default()).unwrap().total();
    assert!(wire * 2 < raw, "wire {wire} should be well under raw {raw}");

    let vm = compile_module(&ir, IsaConfig::full()).unwrap();
    let report = brisc_compress(&vm, BriscOptions::default()).unwrap();
    assert!(
        report.image.code_size() < report.input_bytes,
        "brisc code {} should be under the base encoding {}",
        report.image.code_size(),
        report.input_bytes
    );
    // The paper's ordering: wire (with its LZ stage) is denser than
    // BRISC, which must stay byte-aligned and randomly addressable.
    assert!(
        wire < report.image.total_bytes(),
        "wire {wire} should beat brisc {}",
        report.image.total_bytes()
    );
}

#[test]
fn translation_emits_native_code_for_the_corpus() {
    for b in benchmarks() {
        let ir = b.compile().unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = brisc_compress(&vm, BriscOptions::default()).unwrap();
        let (program, bytes) = emit_x86(&report.image).unwrap();
        assert!(!bytes.is_empty(), "{}", b.name);
        assert!(program.validate().is_ok(), "{}", b.name);
    }
}

#[test]
fn interpretation_touches_fewer_bytes_than_the_whole_image() {
    // Partial execution only touches what it decodes.
    let src = "
        int used() { return 12; }
        int unused1(int x) { int i; int s = 0; for (i = 0; i < x; i++) s += i * i; return s; }
        int unused2(int x) { return unused1(x) + unused1(x + 1); }
        int main() { return used(); }
    ";
    let ir = compile(src).unwrap();
    let vm = compile_module(&ir, IsaConfig::full()).unwrap();
    let report = brisc_compress(&vm, BriscOptions::default()).unwrap();
    let mut m = BriscMachine::new(&report.image, MEM, FUEL).unwrap();
    m.run("main", &[]).unwrap();
    assert!(m.touched_code_bytes() < report.image.code_size() / 2);
}
