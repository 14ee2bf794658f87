//! Whole-pipeline telemetry integration tests.
//!
//! This binary owns the process-global collector: the big sequential
//! test installs a ring-buffer trace sink once and then drives every
//! stage — front, wire, flate, vm, brisc, demand loading, limits,
//! fault injection — asserting that the metrics registry and the trace
//! stream describe exactly what happened. The remaining tests are pure
//! (they build `TraceEvent`s by hand and never touch global state), so
//! the exact-count assertions in the big test cannot race.

use code_compression::brisc::interp::BriscMachine;
use code_compression::brisc::{compress as brisc_compress, BriscOptions};
use code_compression::core::fault::Mutation;
use code_compression::core::telemetry::{
    self, validate_trace_line, Collector, FieldValue, RingSink, TraceEvent, TraceKind,
};
use code_compression::core::{Budget, DecodeLimits};
use code_compression::corpus::benchmarks;
use code_compression::flate::{deflate_compress, inflate, CompressionLevel};
use code_compression::vm::codegen::compile_module;
use code_compression::vm::isa::IsaConfig;
use code_compression::wire::{
    compress as wire_compress, decompress_budgeted, DemandError, DemandImage, DemandLoader,
    WireOptions,
};
use std::sync::Arc;

const MEM: u32 = 1 << 22;
const FUEL: u64 = 1 << 32;

#[test]
fn whole_pipeline_populates_metrics_and_trace() {
    let ring = Arc::new(RingSink::new(65_536));
    assert!(
        telemetry::install(Collector::with_trace(ring.clone())),
        "this binary must be the only installer"
    );
    assert!(telemetry::enabled());
    let metrics = || {
        telemetry::collector()
            .expect("collector installed above")
            .metrics
            .snapshot()
    };

    // Front + wire encode + budgeted decode over the whole corpus.
    let mut last_total = 0u64;
    let budget = Budget::default();
    for b in benchmarks() {
        let module = b.compile().expect("corpus compiles");
        let packed = wire_compress(&module, WireOptions::default()).expect("wire pack");
        last_total = packed.total() as u64;
        let back = decompress_budgeted(&packed.bytes, &budget).expect("budgeted decode");
        assert_eq!(back, module);
    }
    let snap = metrics();
    assert!(snap.counter("front.tokens").unwrap() > 0);
    assert_eq!(
        snap.counter("front.modules").unwrap(),
        benchmarks().len() as u64
    );
    assert_eq!(
        snap.counter("wire.encode.modules").unwrap(),
        benchmarks().len() as u64
    );
    let ir_nodes: u64 = snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("ir.nodes."))
        .map(|&(_, v)| v)
        .sum();
    assert!(ir_nodes > 0, "operator-class node counts must accumulate");
    assert!(snap.counter("coding.huffman.bits_emitted").unwrap() > 0);
    assert!(snap.counter("coding.mtf.hits").unwrap() > 0);
    assert!(snap.counter("coding.mtf.misses").unwrap() > 0);
    assert!(snap.histogram("coding.mtf.hit_distance").unwrap().count > 0);

    // The --stats contract: per-section byte gauges plus the container
    // gauge sum exactly to the encoded module size (last encode wins
    // the gauges, so compare against the last module packed).
    assert_eq!(snap.gauge("wire.encode.total_bytes").unwrap(), last_total);
    let section_sum: u64 = snap
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with("wire.encode.section_bytes."))
        .map(|&(_, v)| v)
        .sum::<u64>()
        + snap.gauge("wire.encode.container_bytes").unwrap();
    assert_eq!(
        section_sum, last_total,
        "section byte gauges must sum exactly to the wire-module size"
    );

    // Stage self times: the stages under `wire.decompress` split each
    // root's total exactly. Both come from the same clock reads, so
    // there is no tolerance.
    let images: Vec<Vec<u8>> = benchmarks()
        .iter()
        .map(|b| {
            let module = b.compile().expect("corpus compiles");
            wire_compress(&module, WireOptions::default())
                .expect("wire pack")
                .bytes
        })
        .collect();
    let before = metrics();
    for bytes in &images {
        decompress_budgeted(bytes, &Budget::default()).expect("decodes");
    }
    let after = metrics();
    let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap_or(0);
    assert_eq!(delta("stage.wire.decompress.calls"), images.len() as u64);
    let self_sum: u64 = after
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("stage.") && n.ends_with(".self_ns"))
        .map(|(n, _)| delta(n))
        .sum();
    assert_eq!(self_sum, delta("stage.wire.decompress.total_ns"));
    for child in [
        "frame",
        "inflate",
        "tables",
        "huffman",
        "table_build",
        "mtf",
        "literals",
        "join",
        "slice",
    ] {
        let name = format!("stage.wire.decode.{child}.calls");
        assert!(delta(&name) > 0, "{name} never closed");
    }
    assert!(delta("stage.flate.inflate.calls") > 0);

    // Budget gauges mirror the shared meter exactly.
    budget.publish_telemetry();
    let snap = metrics();
    let usage = budget.usage();
    assert_eq!(snap.gauge("limits.fuel_spent").unwrap(), usage.fuel_spent);
    assert_eq!(
        snap.gauge("limits.peak_output_bytes").unwrap(),
        usage.peak_output_bytes
    );

    // Flate: an instrumented deflate/inflate round-trip attributes
    // every output byte.
    let payload: Vec<u8> = benchmarks()
        .iter()
        .flat_map(|b| b.source.as_bytes().iter().copied())
        .collect();
    let before = metrics();
    let compressed = deflate_compress(&payload, CompressionLevel::Best);
    let back = inflate(&compressed).expect("inflates");
    assert_eq!(back, payload);
    let after = metrics();
    assert_eq!(
        after.counter("flate.inflate.output_bytes").unwrap()
            - before.counter("flate.inflate.output_bytes").unwrap_or(0),
        payload.len() as u64
    );
    assert!(after.counter("flate.deflate.match_tokens").unwrap() > 0);
    assert!(after.histogram("flate.deflate.probe_depth").unwrap().count > 0);
    assert!(after.histogram("flate.inflate.match_len").unwrap().count > 0);

    // VM codegen + brisc: dispatch counters match the machine's own
    // instruction accounting exactly.
    let module = benchmarks()[0].compile().expect("compiles");
    let vm = compile_module(&module, IsaConfig::full()).expect("codegen");
    let snap = metrics();
    assert!(snap.counter("vm.codegen.instrs").unwrap() > 0);
    let report = brisc_compress(&vm, BriscOptions::default()).expect("brisc pack");
    let before = metrics();
    let mut machine = BriscMachine::new(&report.image, MEM, FUEL).expect("machine");
    let outcome = machine.run("main", &[]).expect("runs");
    let after = metrics();
    assert_eq!(
        after.counter("brisc.interp.dispatches").unwrap()
            - before.counter("brisc.interp.dispatches").unwrap_or(0),
        outcome.instructions
    );
    assert!(
        after.counter("brisc.interp.fuel_consumed").unwrap()
            > before.counter("brisc.interp.fuel_consumed").unwrap_or(0)
    );
    assert_eq!(
        after.counter("brisc.interp.items_decoded").unwrap()
            - before.counter("brisc.interp.items_decoded").unwrap_or(0),
        outcome.items_decoded
    );
    assert_eq!(
        after.counter("brisc.interp.code_bytes_touched").unwrap()
            - before.counter("brisc.interp.code_bytes_touched").unwrap_or(0),
        machine.touched_code_bytes() as u64
    );
    assert!(after.gauge("brisc.dictionary_entries").unwrap() > 0);

    // Limit trips and fault mutations land in the trace.
    let packed = wire_compress(&module, WireOptions::default()).expect("wire pack");
    let starved = Budget::new(DecodeLimits {
        decode_fuel: 0,
        ..DecodeLimits::default()
    });
    assert!(decompress_budgeted(&packed.bytes, &starved).is_err());
    let _ = Mutation::BitFlip { offset: 0, bit: 3 }.apply(&packed.bytes);

    // Demand-side quarantine events.
    let image = DemandImage::build(&module, WireOptions::default()).expect("demand build");
    let mut loader = DemandLoader::new(
        &image,
        DecodeLimits {
            decode_fuel: 0,
            ..DecodeLimits::default()
        },
    );
    match loader.demand("main") {
        Err(DemandError::Quarantined { .. }) => {}
        other => panic!("starved demand must quarantine, got {other:?}"),
    }

    // Every recorded trace line is schema-valid, and the span/event
    // taxonomy contains what the run just did.
    let events = ring.dump();
    assert!(!events.is_empty());
    for e in &events {
        let line = e.to_json_line();
        validate_trace_line(&line).unwrap_or_else(|err| panic!("bad trace line {line:?}: {err}"));
    }
    let has = |kind: TraceKind, name: &str| {
        events.iter().any(|e| e.kind == kind && e.name == name)
    };
    assert!(has(TraceKind::SpanBegin, "front.compile"));
    assert!(has(TraceKind::SpanEnd, "front.compile"));
    assert!(has(TraceKind::SpanBegin, "wire.compress"));
    assert!(has(TraceKind::SpanEnd, "wire.compress"));
    assert!(has(TraceKind::SpanBegin, "wire.decompress"));
    assert!(has(TraceKind::SpanBegin, "brisc.compress"));
    assert!(has(TraceKind::SpanBegin, "brisc.run"));
    assert!(has(TraceKind::Event, "limit.trip"));
    assert!(has(TraceKind::Event, "fault.mutation"));
    assert!(has(TraceKind::Event, "demand.quarantine"));

    // The limit.trip event names the knob that refused.
    let trip = events
        .iter()
        .find(|e| e.name == "limit.trip")
        .expect("trip recorded");
    assert!(trip
        .fields
        .iter()
        .any(|(k, v)| *k == "what" && *v == FieldValue::Str("decode fuel".into())));

    // Span ends carry durations; begins never do.
    for e in &events {
        match e.kind {
            TraceKind::SpanEnd => assert!(e.dur_nanos.is_some(), "{}", e.name),
            _ => assert!(e.dur_nanos.is_none(), "{}", e.name),
        }
    }
}

/// Golden JSON-lines schema: the exact serialized bytes are pinned so
/// external consumers can rely on them PR over PR.
#[test]
fn trace_schema_golden_lines() {
    let span_begin = TraceEvent {
        t_nanos: 12,
        kind: TraceKind::SpanBegin,
        name: "wire.compress".into(),
        dur_nanos: None,
        fields: Vec::new(),
    };
    assert_eq!(
        span_begin.to_json_line(),
        r#"{"t":12,"kind":"span_begin","name":"wire.compress"}"#
    );
    let span_end = TraceEvent {
        t_nanos: 99,
        kind: TraceKind::SpanEnd,
        name: "wire.compress".into(),
        dur_nanos: Some(87),
        fields: Vec::new(),
    };
    assert_eq!(
        span_end.to_json_line(),
        r#"{"t":99,"kind":"span_end","name":"wire.compress","dur":87}"#
    );
    let event = TraceEvent {
        t_nanos: 7,
        kind: TraceKind::Event,
        name: "demand.quarantine".into(),
        dur_nanos: None,
        fields: vec![
            ("function", FieldValue::Str("salt".into())),
            ("fatal", FieldValue::Bool(false)),
            ("bytes", FieldValue::U64(41)),
        ],
    };
    assert_eq!(
        event.to_json_line(),
        r#"{"t":7,"kind":"event","name":"demand.quarantine","fields":{"function":"salt","fatal":false,"bytes":41}}"#
    );
    for e in [&span_begin, &span_end, &event] {
        validate_trace_line(&e.to_json_line()).expect("golden lines validate");
    }
}

#[test]
fn validator_rejects_foreign_lines() {
    for bad in [
        "",
        "not json",
        r#"{"kind":"event","name":"x"}"#,                      // missing t
        r#"{"t":1,"kind":"event"}"#,                           // missing name
        r#"{"t":1,"kind":"event","name":""}"#,                 // empty name
        r#"{"t":1,"kind":"weird","name":"x"}"#,                // bad kind
        r#"{"t":1,"kind":"event","name":"x","dur":5}"#,        // dur on non-end
        r#"{"t":1,"kind":"span_end","name":"x"}"#,             // end without dur
        r#"{"t":1,"kind":"event","name":"x","extra":true}"#,   // unknown key
        r#"{"t":1,"kind":"event","name":"x","fields":[1,2]}"#, // fields not object
    ] {
        assert!(
            validate_trace_line(bad).is_err(),
            "line must be rejected: {bad:?}"
        );
    }
}
