//! Live metrics and a convergence journal on a 1000-city ILS run.
//!
//! ```text
//! cargo run --release -p tsp-apps --example live_metrics -- [n] [iterations] [journal.jsonl]
//! ```
//!
//! The run attaches a [`Telemetry`] registry and a [`Journal`] through
//! the `tsp::Solver` facade, prints the Prometheus exposition at the
//! end, writes the journal as JSONL, and self-validates both along the
//! way: the acceptance-rate gauge must stay in `[0, 1]`, the journal
//! must be monotone in iteration and modeled time, and the journal's
//! final record must agree with the solution the facade returned.
//! (For a *live* scrape of a run in flight, see `traced_ils`, which
//! serves `/metrics` over HTTP and scrapes itself.)

use tsp::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(1000);
    let iterations: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
    let out = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| "journal.jsonl".into());

    let inst = tsp::tsplib::generate(
        "live-metrics",
        n,
        tsp::tsplib::Style::Clustered { clusters: 25 },
        0x2013,
    );
    let solution = Solver::builder()
        .construction(Construction::Random(0x2013))
        .ils(
            IlsOptions::default()
                .with_max_iterations(iterations)
                .with_seed(0x2013),
        )
        .observe(
            Observer::none()
                .with_telemetry(Telemetry::attached())
                .with_journal(Journal::attached()),
        )
        .build()
        .run(&inst)
        .expect("generated instances are coordinate-based");
    println!(
        "best length after {} iterations on n = {n}: {} (initial {})",
        solution.iterations, solution.length, solution.initial_length
    );

    // --- Registry self-validation ------------------------------------
    let registry = solution
        .observer
        .telemetry
        .registry()
        .expect("telemetry attached");
    let rate = registry
        .gauge_value("tsp_ils_acceptance_rate")
        .expect("acceptance-rate gauge present");
    assert!(
        (0.0..=1.0).contains(&rate),
        "acceptance rate {rate} outside [0, 1]"
    );
    assert_eq!(
        registry.counter_value("tsp_ils_iterations_total"),
        Some(solution.iterations as f64),
        "iterations counter must match the outcome"
    );
    assert_eq!(
        registry.gauge_value("tsp_ils_best_length"),
        Some(solution.length as f64),
        "best-length gauge must match the outcome"
    );
    let sweeps = registry
        .counter_value("tsp_search_sweeps_total")
        .expect("sweep counter present");
    assert!(sweeps > 0.0, "descents must have swept");

    // --- Journal self-validation -------------------------------------
    let records = solution.observer.journal.records();
    assert!(!records.is_empty(), "journal must not be empty");
    for w in records.windows(2) {
        assert!(
            w[0].iteration <= w[1].iteration,
            "journal iterations must be monotone"
        );
        assert!(
            w[0].modeled_seconds <= w[1].modeled_seconds,
            "journal modeled time must be monotone"
        );
    }
    let last = records.last().unwrap();
    assert_eq!(last.event, tsp::telemetry::JournalEvent::Final);
    assert_eq!(
        last.tour_length, solution.length,
        "journal's final record must carry the solution length"
    );

    std::fs::write(&out, solution.observer.journal.to_jsonl())
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "wrote {out} ({} records); acceptance rate {rate:.2}, {sweeps} sweeps",
        records.len()
    );

    // Full exposition, ready for any Prometheus scraper.
    print!("\n{}", solution.observer.telemetry.expose());
}
