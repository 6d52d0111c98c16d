//! Run a traced, sharded GPU ILS through the `tsp::Solver` facade and
//! write the Chrome-trace JSON — the CI smoke proving the end-to-end
//! pipeline (facade → device pool → stream scheduler → trace exporter)
//! produces a valid, non-empty trace with per-device×stream tracks.
//! The run also attaches live telemetry, serves it on an embedded
//! `/metrics` endpoint, scrapes itself once over HTTP, and validates
//! the Prometheus payload — the telemetry half of the CI smoke.
//!
//! ```text
//! cargo run --release -p tsp-apps --example traced_ils -- [n] [iterations] [out.trace.json]
//! ```
//!
//! Load the output in <https://ui.perfetto.dev> (or `chrome://tracing`):
//! kernels and PCIe transfers appear as duration slices on their own
//! tracks, sweeps and ILS iterations as nested spans, the best tour
//! length as a counter track, and each simulated device contributes one
//! "device N (streams)" process with one track per stream showing the
//! overlapped schedule.

use tsp::prelude::*;
use tsp_trace::{chrome_trace, json, MetricsSnapshot, RooflineReport};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(512);
    let iterations: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let out = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| "ils.trace.json".into());

    let inst = tsp::tsplib::generate(
        "traced-ils",
        n,
        tsp::tsplib::Style::Clustered { clusters: 16 },
        0x2013,
    );
    let recorder = Recorder::enabled();
    let solution = Solver::builder()
        .construction(Construction::Random(0x2013))
        .ils(
            IlsOptions::default()
                .with_max_iterations(iterations)
                .with_seed(0x2013),
        )
        .devices(2)
        .streams(2)
        .restarts(4)
        .observe(
            Observer::none()
                .with_recorder(recorder.clone())
                .with_telemetry(Telemetry::attached())
                .with_journal(Journal::attached()),
        )
        .build()
        .run(&inst)
        .expect("generated instances are coordinate-based");
    println!(
        "best length after {iterations} iterations x {} chains on n = {n}: {}",
        solution.chains, solution.length
    );
    println!(
        "modeled wall {:.3} ms over {} devices, stream overlap {:.1}%",
        solution.modeled_makespan_seconds() * 1e3,
        solution.reports.len(),
        solution.overlap() * 100.0
    );

    // Self-check before writing: the document must re-parse, carry a
    // non-empty traceEvents array whose entries all have ph and pid,
    // and include at least one per-stream track (pid >= 10).
    let events = recorder.events();
    let text = chrome_trace(&events);
    let parsed = json::parse(&text).expect("exporter emits valid JSON");
    let trace_events = parsed
        .get("traceEvents")
        .and_then(json::Json::as_array)
        .expect("traceEvents array");
    assert!(!trace_events.is_empty(), "trace must be non-empty");
    let mut stream_tracks = 0usize;
    for e in trace_events {
        assert!(
            e.get("ph").is_some() && e.get("pid").is_some(),
            "malformed event"
        );
        if e.get("pid").and_then(json::Json::as_f64).unwrap_or(0.0) >= 10.0 {
            stream_tracks += 1;
        }
    }
    assert!(stream_tracks > 0, "no per-stream events in the trace");
    std::fs::write(&out, &text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "wrote {out} ({} events, {} on stream tracks; load in https://ui.perfetto.dev)",
        trace_events.len(),
        stream_tracks
    );

    let snapshot = MetricsSnapshot::from_events(&events);
    print!("\n{}", snapshot.to_text());
    if let Some(roofline) = RooflineReport::from_events(&events) {
        print!("\n{}", roofline.to_text());
    }

    // Telemetry smoke: serve the run's registry on a loopback port,
    // scrape it once over real HTTP, and validate the payload as
    // Prometheus text format 0.0.4.
    let server = MetricsServer::spawn(solution.observer.telemetry.clone(), "127.0.0.1:0")
        .expect("bind a loopback metrics port");
    let (status, body) = tsp::telemetry::http_get(server.addr(), "/metrics").expect("self-scrape");
    assert_eq!(status, 200, "metrics endpoint must answer 200");
    let families = tsp::telemetry::parse_text(&body).expect("payload is valid Prometheus text");
    for required in [
        "tsp_gpu_kernel_launches_total",
        "tsp_pool_lane_jobs_total",
        "tsp_search_sweeps_total",
        "tsp_ils_iterations_total",
        "tsp_ils_best_length",
    ] {
        assert!(
            families.iter().any(|f| f.name == required),
            "scrape is missing {required}"
        );
    }
    println!(
        "telemetry: scraped {} metric families from http://{}/metrics",
        families.len(),
        server.addr()
    );
    server.shutdown();
}
