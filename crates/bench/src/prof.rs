//! Profiler snapshot per kernel strategy: peak device memory, ledger
//! traffic and span counts of one full descent through the facade —
//! the `BENCH_prof.json` regression surface (DESIGN.md §13).
//!
//! Everything in the snapshot is modeled, so it is bit-deterministic:
//! a drift in peak bytes means a buffer was added, resized or
//! relabeled; a drift in span counts means the instrumentation moved.
//! Wall-clock span timings are real time and deliberately excluded.

use crate::common::render_table;
use tsp::prelude::*;
use tsp_trace::json::Json;

/// One strategy's profiler snapshot.
#[derive(Debug, Clone)]
pub struct Row {
    /// `Strategy` debug name (e.g. `Tiled { tile: 32 }`).
    pub strategy: String,
    /// Final tour length of the descent.
    pub final_length: i64,
    /// Device 0 peak live bytes.
    pub peak_bytes: u64,
    /// Device 0 allocation count.
    pub allocs: u64,
    /// Device 0 H2D bytes uploaded.
    pub upload_bytes: u64,
    /// Folded span paths in the profile.
    pub span_paths: usize,
    /// Total closed spans (structural spans + device leaves).
    pub spans: u64,
    /// Closed `kernel:*` leaves.
    pub kernel_spans: u64,
    /// Inclusive modeled seconds of the root `solve` span.
    pub modeled_seconds: f64,
}

/// Profile one plain descent per strategy on an `n`-city uniform
/// instance (identity start, so the workload is a pure function of
/// `n` and `seed`).
pub fn compute(n: usize, seed: u64) -> Vec<Row> {
    let inst = tsp::tsplib::generate("bench-prof", n, tsp::tsplib::Style::Uniform, seed);
    tsp::all_strategies(32, 8)
        .into_iter()
        .map(|strategy| {
            let prof = Profiler::attached();
            let solution = Solver::builder()
                .construction(Construction::Identity)
                .strategy(strategy)
                .observe(Observer::none().with_prof(prof.clone()))
                .build()
                .run(&inst)
                .expect("generated instances are coordinate-based");
            // The engine (and its device) dropped with `run`, so the
            // ledger must balance here — a leak is a harness bug.
            let report = prof.report();
            assert!(
                report.memory.balanced(),
                "unbalanced ledger for {strategy:?}"
            );
            let dev = report
                .memory
                .devices
                .first()
                .expect("the descent allocates");
            let spans: u64 = report.spans.iter().map(|s| s.count).sum();
            let kernel_spans: u64 = report
                .spans
                .iter()
                .filter(|s| s.path.contains("kernel:"))
                .map(|s| s.count)
                .sum();
            Row {
                strategy: format!("{strategy:?}"),
                final_length: solution.length,
                peak_bytes: dev.peak_bytes,
                allocs: dev.allocs,
                upload_bytes: report
                    .memory
                    .labels
                    .iter()
                    .filter(|l| l.device == dev.device)
                    .map(|l| l.upload_bytes)
                    .sum(),
                span_paths: report.spans.len(),
                spans,
                kernel_spans,
                modeled_seconds: report
                    .spans
                    .iter()
                    .find(|s| s.path == "solve")
                    .map(|s| s.modeled_seconds)
                    .unwrap_or_default(),
            }
        })
        .collect()
}

/// Fixed-width text table.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                r.final_length.to_string(),
                r.peak_bytes.to_string(),
                r.allocs.to_string(),
                r.upload_bytes.to_string(),
                r.spans.to_string(),
                r.kernel_spans.to_string(),
                crate::common::fmt_time(r.modeled_seconds),
            ]
        })
        .collect();
    render_table(
        &[
            "strategy", "length", "peak B", "allocs", "H2D B", "spans", "kernels", "modeled",
        ],
        &body,
    )
}

/// The `BENCH_prof.json` document: experiment header plus one object
/// per strategy.
pub fn to_json(rows: &[Row]) -> String {
    let entries: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut o = Json::obj();
            o.set("strategy", Json::from(r.strategy.as_str()))
                .set("final_length", Json::from(r.final_length as f64))
                .set("peak_bytes", Json::from(r.peak_bytes as f64))
                .set("allocs", Json::from(r.allocs as f64))
                .set("upload_bytes", Json::from(r.upload_bytes as f64))
                .set("span_paths", Json::from(r.span_paths as f64))
                .set("spans", Json::from(r.spans as f64))
                .set("kernel_spans", Json::from(r.kernel_spans as f64))
                .set("modeled_seconds", Json::from(r.modeled_seconds));
            o
        })
        .collect();
    let mut doc = Json::obj();
    doc.set("experiment", Json::from("profiler snapshot per strategy"))
        .set("device", Json::from("GeForce GTX 680 (CUDA)"))
        .set("rows", Json::Arr(entries));
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_strategy_profiles_and_balances() {
        let rows = compute(72, 0x2013);
        assert_eq!(rows.len(), tsp::all_strategies(32, 8).len());
        for r in &rows {
            assert!(r.peak_bytes > 0, "{}: no allocations?", r.strategy);
            assert!(r.spans >= r.kernel_spans);
            assert!(r.kernel_spans > 0, "{}: no kernels?", r.strategy);
            assert!(r.modeled_seconds > 0.0);
        }
        // Resident strategies upload the coordinates once; dense
        // re-upload per sweep, so they move strictly more H2D bytes.
        let by_name = |pat: &str| {
            rows.iter()
                .find(|r| r.strategy.starts_with(pat))
                .unwrap_or_else(|| panic!("no strategy {pat}"))
        };
        assert!(by_name("Shared").upload_bytes > by_name("DeviceResident").upload_bytes);
    }

    #[test]
    fn json_document_parses_and_carries_every_row() {
        let rows = compute(64, 3);
        let doc = tsp_trace::json::parse(&to_json(&rows)).expect("valid JSON");
        let arr = doc
            .get("rows")
            .and_then(Json::as_array)
            .expect("rows array");
        assert_eq!(arr.len(), rows.len());
        for e in arr {
            assert!(e.get("peak_bytes").and_then(Json::as_f64).unwrap() > 0.0);
        }
    }
}
