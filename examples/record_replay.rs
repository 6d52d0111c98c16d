//! Record → replay → bisect, end to end.
//!
//! Records a 512-city ILS run into a flight recording, round-trips it
//! through the JSONL codec, replays it on a freshly built solver and
//! checks the reproduction is bit-identical, then injects a flipped
//! acceptance decision into the recording and shows the bisector
//! pinning the fault to exactly the tampered event.
//!
//! Run with: `cargo run --release --example record_replay`
//!
//! The example is self-validating: every stage asserts, and the final
//! line prints `RECORD REPLAY OK` only if all of them held.

use tsp::prelude::*;
use tsp::tsplib::{generate, Style};
use tsp_replay::{parse_recording, ReplayEvent};

fn solver(flight: FlightRecorder) -> Solver {
    Solver::builder()
        .construction(Construction::NearestNeighbor)
        .ils(
            IlsOptions::default()
                .with_max_iterations(8u64)
                .with_seed(2026),
        )
        .observe(Observer::none().with_flight(flight))
        .build()
}

fn main() {
    // Generated exactly as `tsp-inspect --gen clustered:512:42` would
    // regenerate it, so a saved recording can be inspected offline.
    let inst = generate("gen", 512, Style::Clustered { clusters: 8 }, 42);

    // ---- record ---------------------------------------------------
    let flight = FlightRecorder::attached();
    let recorder = solver(flight.clone());
    let solution = recorder.run(&inst).expect("recorded run");
    let recording = recorder.recording(&inst).expect("package recording");
    println!(
        "recorded: {} cities, length {}, {} events, {:.3} ms modeled",
        inst.len(),
        solution.length,
        recording.len(),
        solution.modeled_seconds() * 1e3,
    );

    // ---- serialize round trip ------------------------------------
    let jsonl = recording.to_jsonl();
    let parsed = parse_recording(&jsonl).expect("recording parses back");
    assert_eq!(parsed, recording, "JSONL round trip must be lossless");
    println!(
        "serialized: {} lines, {} bytes, round-trips losslessly",
        jsonl.lines().count(),
        jsonl.len()
    );
    // An optional argument saves the recording for offline inspection
    // (`tsp-inspect <cmd> --recording <path> --gen clustered:512:42`).
    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &jsonl).expect("save recording");
        println!("saved recording to {path}");
    }

    // ---- replay ---------------------------------------------------
    let fresh = solver(FlightRecorder::detached());
    let (replayed, report) = fresh.replay(&inst, &parsed).expect("replay accepted");
    assert!(report.is_clean(), "replay must be clean, got:\n{report}");
    assert_eq!(replayed.tour.as_slice(), solution.tour.as_slice());
    assert_eq!(
        replayed.modeled_seconds().to_bits(),
        solution.modeled_seconds().to_bits(),
        "modeled seconds must reproduce bit-for-bit"
    );
    println!("replay: {report}");

    // ---- inject a fault and bisect to it -------------------------
    // Flip the verdict of the third acceptance decision, the kind of
    // single-bit history corruption the bisector exists to localize.
    let mut tampered = parsed.clone();
    let fault_entry = tampered
        .entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.chain == 0 && matches!(e.event, ReplayEvent::Acceptance { .. }))
        .map(|(idx, _)| idx)
        .nth(2)
        .expect("run has at least three acceptance decisions");
    let chain_index = tampered.entries[..fault_entry]
        .iter()
        .filter(|e| e.chain == 0)
        .count();
    if let ReplayEvent::Acceptance { accepted, .. } = &mut tampered.entries[fault_entry].event {
        *accepted = !*accepted;
    }
    println!("injected: flipped acceptance at entry {fault_entry} (chain 0, event {chain_index})");

    let (_, fault_report) = fresh.replay(&inst, &tampered).expect("replay runs");
    let divergence = fault_report
        .divergence
        .as_ref()
        .expect("tampered recording must diverge");
    println!("bisected: {divergence}");
    assert_eq!(divergence.chain, 0);
    assert_eq!(
        divergence.index, chain_index,
        "bisector must localize the fault to exactly the tampered event"
    );

    println!("RECORD REPLAY OK");
}
