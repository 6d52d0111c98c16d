//! Differential suite for the flight-recorder subsystem, mirroring
//! `telemetry_differential.rs`: an attached [`FlightRecorder`] must
//! never change what a run computes, and a packaged recording must
//! replay bit-for-bit — identical tours, bit-identical modeled seconds,
//! a clean event-stream comparison — on every kernel strategy, for both
//! plain descents and ILS, and across sharded multistart chains. The
//! divergence bisector must pin an injected fault to exactly its event.

use tsp::prelude::*;
use tsp_replay::ReplayEvent;
use tsp_tsplib::{generate, Style};

/// Every strategy (including the inexact candidate family — replay
/// demands bit-identical re-execution, not dense-equal answers), from
/// the facade helper so new strategies cannot be silently skipped.
fn strategies() -> Vec<Strategy> {
    all_strategies(64, 12)
}

fn builder(strategy: Strategy) -> SolverBuilder {
    Solver::builder()
        .strategy(strategy)
        .construction(Construction::Random(5))
}

/// The solver with `flight` attached as its only sink.
fn recorded(builder: SolverBuilder, flight: FlightRecorder) -> Solver {
    builder
        .observe(Observer::none().with_flight(flight))
        .build()
}

fn ils_opts() -> IlsOptions {
    IlsOptions::default()
        .with_max_iterations(4u64)
        .with_seed(13)
}

#[test]
fn descent_replays_bit_identically_on_every_strategy() {
    let inst = generate("rep-descent", 128, Style::Uniform, 3);
    for strategy in strategies() {
        let flight = FlightRecorder::attached();
        let solver = recorded(builder(strategy), flight);
        let ran = solver.run(&inst).unwrap();
        let recording = solver.recording(&inst).unwrap();
        // A plain descent records Start, the applied moves, DescentEnd,
        // Final.
        assert!(recording.len() >= 3, "{strategy:?}");

        let fresh = builder(strategy).build();
        let (solution, report) = fresh.replay(&inst, &recording).unwrap();
        assert!(report.is_clean(), "{strategy:?}:\n{report}");
        assert_eq!(report.events_checked, recording.len(), "{strategy:?}");
        assert_eq!(
            solution.tour.as_slice(),
            ran.tour.as_slice(),
            "{strategy:?}"
        );
        assert_eq!(
            solution.modeled_seconds().to_bits(),
            ran.modeled_seconds().to_bits(),
            "{strategy:?}"
        );
    }
}

#[test]
fn ils_replays_bit_identically_on_every_strategy() {
    let inst = generate("rep-ils", 96, Style::Clustered { clusters: 4 }, 7);
    for strategy in strategies() {
        let flight = FlightRecorder::attached();
        let solver = recorded(builder(strategy).ils(ils_opts()), flight);
        let ran = solver.run(&inst).unwrap();
        let recording = solver.recording(&inst).unwrap();
        // Every iteration logged its kick and its acceptance verdict.
        let events = recording.chain_events(0);
        let kicks = events
            .iter()
            .filter(|e| matches!(e, ReplayEvent::Kick { .. }))
            .count();
        let verdicts = events
            .iter()
            .filter(|e| matches!(e, ReplayEvent::Acceptance { .. }))
            .count();
        assert_eq!(kicks as u64, ran.iterations, "{strategy:?}");
        assert_eq!(verdicts as u64, ran.iterations, "{strategy:?}");

        let fresh = builder(strategy).ils(ils_opts()).build();
        let (solution, report) = fresh.replay(&inst, &recording).unwrap();
        assert!(report.is_clean(), "{strategy:?}:\n{report}");
        assert_eq!(
            solution.tour.as_slice(),
            ran.tour.as_slice(),
            "{strategy:?}"
        );
        assert_eq!(solution.length, ran.length, "{strategy:?}");
        assert_eq!(
            solution.modeled_seconds().to_bits(),
            ran.modeled_seconds().to_bits(),
            "{strategy:?}"
        );
    }
}

#[test]
fn recording_is_invisible_to_the_run() {
    // Attached vs detached flight recorder: identical tour, length,
    // iterations, and bit-identical modeled seconds.
    let inst = generate("rep-inv", 144, Style::Uniform, 8);
    for strategy in [
        Strategy::Auto,
        Strategy::DeviceResident,
        Strategy::Candidate { k: 12 },
    ] {
        let plain = builder(strategy)
            .ils(ils_opts())
            .build()
            .run(&inst)
            .unwrap();
        let watched = recorded(
            builder(strategy).ils(ils_opts()),
            FlightRecorder::attached(),
        )
        .run(&inst)
        .unwrap();
        assert_eq!(
            plain.tour.as_slice(),
            watched.tour.as_slice(),
            "{strategy:?}"
        );
        assert_eq!(plain.length, watched.length, "{strategy:?}");
        assert_eq!(plain.iterations, watched.iterations, "{strategy:?}");
        assert_eq!(
            plain.modeled_seconds().to_bits(),
            watched.modeled_seconds().to_bits(),
            "{strategy:?}"
        );
    }
}

#[test]
fn sharded_multistart_replays_chain_stamped_sublogs() {
    let inst = generate("rep-shard", 80, Style::Uniform, 12);
    let build = || {
        Solver::builder()
            .construction(Construction::Random(2))
            .devices(2)
            .streams(2)
            .restarts(4)
            .ils(ils_opts())
    };
    let flight = FlightRecorder::attached();
    let solver = recorded(build(), flight);
    let ran = solver.run(&inst).unwrap();
    assert_eq!(ran.chains, 4);
    let recording = solver.recording(&inst).unwrap();

    // Every chain owns a complete, chain-stamped sub-log.
    assert_eq!(recording.chains(), vec![0, 1, 2, 3]);
    for chain in recording.chains() {
        let events = recording.chain_events(chain);
        assert!(
            matches!(events.first(), Some(ReplayEvent::Start { .. })),
            "chain {chain} missing Start"
        );
        assert!(
            matches!(events.last(), Some(ReplayEvent::Final { .. })),
            "chain {chain} missing Final"
        );
    }

    let fresh = build().build();
    let (solution, report) = fresh.replay(&inst, &recording).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.chains, 4);
    assert_eq!(solution.tour.as_slice(), ran.tour.as_slice());
    assert_eq!(
        solution.modeled_seconds().to_bits(),
        ran.modeled_seconds().to_bits()
    );
}

#[test]
fn bisector_localizes_a_flipped_acceptance_to_its_event() {
    let inst = generate("rep-bisect", 96, Style::Uniform, 19);
    let build = || {
        builder(Strategy::Auto).ils(
            IlsOptions::default()
                .with_max_iterations(6u64)
                .with_seed(23),
        )
    };
    let flight = FlightRecorder::attached();
    let solver = recorded(build(), flight);
    solver.run(&inst).unwrap();
    let recording = solver.recording(&inst).unwrap();
    let fresh = build().build();

    // Flip each acceptance verdict in turn; the bisector must land on
    // exactly that event every time.
    let faults: Vec<usize> = recording
        .entries
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.event, ReplayEvent::Acceptance { .. }))
        .map(|(idx, _)| idx)
        .collect();
    assert!(faults.len() >= 2, "need several acceptance decisions");
    for fault in faults {
        let mut tampered = recording.clone();
        if let ReplayEvent::Acceptance { accepted, .. } = &mut tampered.entries[fault].event {
            *accepted = !*accepted;
        }
        let chain_index = tampered.entries[..fault]
            .iter()
            .filter(|e| e.chain == tampered.entries[fault].chain)
            .count();

        let (_, report) = fresh.replay(&inst, &tampered).unwrap();
        let divergence = report.divergence.expect("tampering must diverge");
        assert_eq!(divergence.chain, tampered.entries[fault].chain);
        assert_eq!(
            divergence.index, chain_index,
            "fault injected at entry {fault}"
        );
        // The diagnosis carries both sides of the disagreement.
        assert!(matches!(
            divergence.expected,
            Some(ReplayEvent::Acceptance { .. })
        ));
        assert!(matches!(
            divergence.actual,
            Some(ReplayEvent::Acceptance { .. })
        ));
    }
}
