//! One run's result: the end-to-end metrics (untraced runs), the
//! per-layer metrics (traced runs), and the final JSON line.

use crate::stats;

/// Every per-layer metric, in output order. A traced run prints all of
/// them; a layer the workload never calls reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("construction.wall_s", "s"),
    ("construction.share", "ratio"),
    ("neighbors.knn_build_s", "s"),
    ("engine.calls", "count"),
    ("engine.best_move_us_p50", "us"),
    ("engine.pairs", "count"),
    ("engine.host_ns_per_pair", "ns"),
    ("engine.share", "ratio"),
    ("engine.modeled_checks_per_s", "1/modeled-s"),
    ("search.sweeps", "count"),
    ("search.moves", "count"),
    ("search.improving_ratio", "ratio"),
    ("search.self_s", "s"),
    ("ils.iterations", "count"),
    ("ils.accepted_ratio", "ratio"),
    ("ils.self_s", "s"),
    ("facade.self_s", "s"),
    ("solver.host_checks_per_s", "1/s"),
    ("solver.ils_iters_per_s", "1/s"),
    ("http.submit_ms_p50", "ms"),
    ("http.poll_ms_p50", "ms"),
    ("http.polls_per_job", "count"),
    ("admission.rejected", "count"),
    ("queue.wait_ms_p50", "ms"),
    ("queue.wait_ms_tail", "ms"),
    ("pool.lease_wait_ms_p50", "ms"),
    ("pool.occupancy", "ratio"),
    ("serve.solve_ms_p50", "ms"),
    ("serve.artifacts_ms_p50", "ms"),
    ("observe.sinks_overhead_pct", "%"),
    ("loadgen.late_ms_tail", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_s", "s"),
    ("host.calib_s", "s"),
    ("host.nproc", "count"),
];

/// The result of one run of one workload.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// First failed output check, if any.
    pub error: Option<String>,
    pub setup_s: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is.
    pub tail_label: String,
    pub jobs_per_s: f64,
    pub slo_ratio: f64,
    pub tour_length_sum: f64,
    pub modeled_s: f64,
    layers: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            error: None,
            setup_s: 0.0,
            p50_ms: 0.0,
            tail_ms: 0.0,
            tail_label: String::new(),
            jobs_per_s: 0.0,
            slo_ratio: 0.0,
            tour_length_sum: 0.0,
            modeled_s: 0.0,
            layers: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Mark the run as having produced a wrong or missing output.
    pub fn fail(mut self, error: impl Into<String>) -> Report {
        self.failed = self.failed.max(1);
        self.attempted = self.attempted.max(1);
        self.error = Some(error.into());
        self
    }

    /// Record a per-layer metric (must be listed in [`LAYER_METRICS`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.push((name, value));
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn layer_value(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Print the notes, the host stamp and, as the last line, the JSON
    /// result. Returns whether every output check passed.
    pub fn print(mut self, seed: u64, trace: bool, calib_s: f64) -> bool {
        let correct = self.error.is_none() && self.failed == 0;
        self.layer("host.calib_s", calib_s);
        self.layer("host.nproc", stats::nproc() as f64);
        for line in &self.notes {
            println!("# {line}");
        }
        if let Some(e) = &self.error {
            println!("# FAILED: {e}");
        }
        println!(
            "# workload={} seed={seed} trace={} rev={} nproc={} calib_s={calib_s:.4} tail={}",
            self.workload,
            u8::from(trace),
            stats::git_revision(),
            stats::nproc(),
            if self.tail_label.is_empty() {
                "-"
            } else {
                &self.tail_label
            },
        );
        let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
        if trace {
            for &(name, unit) in LAYER_METRICS {
                metrics.push((name, self.layer_value(name), unit));
            }
        } else {
            let done_ratio = if self.attempted == 0 {
                0.0
            } else {
                (self.attempted - self.failed) as f64 / self.attempted as f64
            };
            metrics.extend([
                ("setup_s", self.setup_s, "s"),
                ("p50_ms", self.p50_ms, "ms"),
                ("tail_ms", self.tail_ms, "ms"),
                ("jobs_per_s", self.jobs_per_s, "1/s"),
                ("slo_ratio", self.slo_ratio, "ratio"),
                ("tour_length_sum", self.tour_length_sum, "length"),
                ("modeled_s", self.modeled_s, "modeled-s"),
                ("done_ratio", done_ratio, "ratio"),
                ("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
            ]);
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        correct
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives; non-finite values (which JSON cannot carry) print as 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}
