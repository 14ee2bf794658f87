//! Demand-loading under fault: corrupt one function per corpus program
//! and report what survives — the table behind EXPERIMENTS.md's
//! "Partial-module recovery" section.
//!
//! For each corpus program this builds a [`DemandImage`], clobbers the
//! first byte of one non-`main` unit (the unit's wire magic), and then:
//! salvage-scans the image, demand-loads everything salvageable, runs
//! `main` on the partial module, and retries the poisoned function with
//! a raised budget to show the quarantine is permanent for corruption
//! (unlike limit trips, which are recoverable).
//!
//! The run is flight-recorded: a ring-buffer trace sink captures the
//! structured quarantine/salvage events the demand loader emits, and
//! they are replayed as JSON lines at the end.
//!
//! Run with `cargo run --release --example demand_salvage`.

use code_compression::core::telemetry::{self, Collector, RingSink, TraceKind};
use code_compression::core::DecodeLimits;
use code_compression::corpus::benchmarks;
use code_compression::wire::{DemandError, DemandImage, DemandLoader, WireOptions};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Room for every stage span of the run, so no demand event is evicted.
    let ring = Arc::new(RingSink::new(65_536));
    telemetry::install(Collector::with_trace(ring.clone()));
    println!(
        "| program | fns | image B | poisoned | resident B (run main) | main outcome |"
    );
    println!("|---|---|---|---|---|---|");
    for b in benchmarks() {
        let module = b.compile()?;
        let image = DemandImage::build(&module, WireOptions::default())?;
        let names: Vec<String> = image.names().map(str::to_string).collect();
        let Some(victim) = names.iter().rev().find(|n| *n != "main") else {
            continue;
        };

        // Corrupt the victim's unit inside the serialized image.
        let unit = image.unit_bytes(victim).expect("unit exists").to_vec();
        let mut bytes = image.to_bytes();
        let pos = bytes
            .windows(unit.len())
            .position(|w| w == unit)
            .expect("unit appears in image");
        bytes[pos] ^= 0xFF;
        let total = bytes.len();
        let image = DemandImage::from_bytes(&bytes)?;

        let scan = image.salvage_scan(DecodeLimits::default());
        let mut loader = DemandLoader::new(&image, DecodeLimits::default());
        let outcome = match loader.run("main", &[], 1 << 22, 1 << 28) {
            Ok(out) => format!("ran, => {}", out.value),
            Err(DemandError::Quarantined { name, .. }) => {
                format!("trapped at `{name}`")
            }
            Err(e) => format!("error: {e}"),
        };
        let report = loader.report();
        println!(
            "| {} | {} | {} | {} ({}) | {} | {} |",
            b.name,
            names.len(),
            total,
            scan.poisoned.len(),
            victim,
            report.resident_bytes,
            outcome,
        );

        // Corruption is not recoverable by raising the budget.
        assert!(
            loader.retry_with(victim, DecodeLimits::default()).is_err(),
            "corrupt unit must stay poisoned"
        );
    }

    // Replay the flight recording: every quarantine and salvage event
    // the loaders emitted, straight from the trace ring.
    println!("\nquarantine events from the trace ring:");
    for e in ring.dump() {
        if e.kind == TraceKind::Event && e.name.starts_with("demand.") {
            println!("  {}", e.to_json_line());
        }
    }
    Ok(())
}
