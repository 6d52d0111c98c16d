//! Tracing support for the bench binaries: run an experiment with a
//! [`Recorder`] attached, export the Chrome-trace JSON (loadable in
//! <https://ui.perfetto.dev>), and print the metrics and roofline
//! summaries derived from the same event stream.
//!
//! Binaries accept `--trace-out <path>` (or `--trace-out=<path>`); the
//! one-shot `report` binary writes `ils.trace.json` and
//! `BENCH_trace.json` unconditionally.

use std::fs;

use gpu_sim::spec;
use tsp_2opt::TwoOptEngine;
use tsp_2opt::{GpuTwoOpt, Observer};
use tsp_core::Tour;
use tsp_ils::{iterated_local_search, IlsOptions, IlsOutcome};
use tsp_trace::{chrome_trace, MetricsSnapshot, Recorder, RooflineReport};
use tsp_tsplib::{generate, Style};

/// Extract `--trace-out <path>` / `--trace-out=<path>` from `args`,
/// returning the path (if any) and the remaining arguments so the
/// binaries' positional parsing never sees the flag.
pub fn split_trace_out(args: &[String]) -> (Option<String>, Vec<String>) {
    let mut path = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--trace-out" {
            path = it.next().cloned();
        } else if let Some(p) = a.strip_prefix("--trace-out=") {
            path = Some(p.to_string());
        } else {
            rest.push(a.clone());
        }
    }
    (path, rest)
}

/// A recorder that is enabled exactly when a `--trace-out` path was
/// requested (a disabled recorder keeps the run on the zero-cost path).
pub fn recorder_for(trace_out: &Option<String>) -> Recorder {
    if trace_out.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    }
}

/// Write the recorder's events as Chrome-trace JSON to `path` and print
/// the metrics snapshot plus the roofline report to stderr.
pub fn write_trace(path: &str, recorder: &Recorder) {
    let events = recorder.events();
    fs::write(path, chrome_trace(&events)).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!(
        "wrote {path} ({} events; load in https://ui.perfetto.dev)",
        events.len()
    );
    let snapshot = MetricsSnapshot::from_events(&events);
    eprint!("\n{}", snapshot.to_text());
    if let Some(roofline) = RooflineReport::from_events(&events) {
        eprint!("\n{}", roofline.to_text());
    }
}

/// Run one GPU ILS chain on a clustered instance with the recorder
/// attached to both the engine (kernel/transfer events) and the search
/// loop (sweep/iteration telemetry).
pub fn traced_ils(n: usize, iterations: u64, seed: u64, recorder: &Recorder) -> IlsOutcome {
    let inst = generate("traced-ils", n, Style::Clustered { clusters: 16 }, seed);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
    let start = Tour::random(n, &mut rng);
    let observer = Observer::none().with_recorder(recorder.clone());
    let mut engine = GpuTwoOpt::new(spec::gtx_680_cuda()).with_observer(&observer);
    let opts = IlsOptions::new()
        .with_max_iterations(iterations)
        .with_seed(seed)
        .with_observer(observer);
    iterated_local_search(&mut engine, &inst, start, opts)
        .expect("generated instances are coordinate-based")
}

/// One real sweep per size on the simulator (the fig9 figure itself is
/// model-priced, so its `--trace-out` path records a functional sample
/// of the kernels the model prices).
pub fn traced_sweep_sample(sizes: &[usize], recorder: &Recorder) {
    let observer = Observer::none().with_recorder(recorder.clone());
    for &n in sizes {
        let inst = generate("traced-sweep", n, Style::Uniform, 9);
        let tour = Tour::identity(n);
        let mut engine = GpuTwoOpt::new(spec::gtx_680_cuda()).with_observer(&observer);
        engine
            .best_move(&inst, &tour)
            .expect("generated instances are coordinate-based");
    }
}

/// Chrome-trace JSON of a small traced ILS run (the `report` binary's
/// `ils.trace.json`).
pub fn ils_trace_json(n: usize, iterations: u64, seed: u64) -> String {
    let recorder = Recorder::enabled();
    traced_ils(n, iterations, seed, &recorder);
    chrome_trace(&recorder.events())
}

/// Chrome-trace JSON of a traced mini-run across the bench suite
/// (functional Table II rows up to `cap`, the kernel memory variants,
/// and a short Fig. 11 convergence run) — the `report` binary's
/// `BENCH_trace.json`.
pub fn bench_trace_json(cap: usize, seed: u64) -> String {
    let recorder = Recorder::enabled();
    crate::table2::compute_traced(cap, &recorder);
    crate::ablation::memory_variants_traced(512, &recorder);
    crate::fig11::compute_traced(200, 5, seed, &recorder);
    chrome_trace(&recorder.events())
}

/// Metrics snapshot of the same mini-run as [`bench_trace_json`], as
/// compact JSON — the `report` binary's `BENCH_metrics.json` and the
/// regression baseline `crates/bench/baselines/BENCH_metrics.json`
/// (aggregates only, so the committed file stays small while still
/// pinning per-kernel seconds, GFLOP/s and transfer volumes).
pub fn bench_metrics_json(cap: usize, seed: u64) -> String {
    let recorder = Recorder::enabled();
    crate::table2::compute_traced(cap, &recorder);
    crate::ablation::memory_variants_traced(512, &recorder);
    crate::fig11::compute_traced(200, 5, seed, &recorder);
    MetricsSnapshot::from_events(&recorder.events())
        .to_json()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_trace::TraceEvent;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn split_trace_out_handles_both_forms_and_preserves_the_rest() {
        let (path, rest) = split_trace_out(&strings(&["300", "--trace-out", "t.json", "--csv"]));
        assert_eq!(path.as_deref(), Some("t.json"));
        assert_eq!(rest, strings(&["300", "--csv"]));

        let (path, rest) = split_trace_out(&strings(&["--trace-out=run.json", "150"]));
        assert_eq!(path.as_deref(), Some("run.json"));
        assert_eq!(rest, strings(&["150"]));

        let (path, rest) = split_trace_out(&strings(&["--csv"]));
        assert_eq!(path, None);
        assert_eq!(rest, strings(&["--csv"]));
        assert!(!recorder_for(&path).is_enabled());
    }

    #[test]
    fn traced_ils_records_kernels_transfers_and_iterations() {
        let recorder = Recorder::enabled();
        let out = traced_ils(64, 2, 7, &recorder);
        assert!(out.best_length > 0);
        let events = recorder.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Device { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Kernel { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::H2d { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::IterationEnd { .. })));
    }

    #[test]
    fn trace_jsons_are_parseable_and_non_empty() {
        let json = ils_trace_json(48, 1, 3);
        let parsed = tsp_trace::json::parse(&json).expect("valid JSON");
        let n_events = parsed
            .get("traceEvents")
            .and_then(tsp_trace::json::Json::as_array)
            .map(<[tsp_trace::json::Json]>::len)
            .unwrap_or(0);
        assert!(n_events > 4, "only {n_events} events");
    }
}
