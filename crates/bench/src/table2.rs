//! Table II — "2-opt: time needed for a single run" on the GTX 680.
//!
//! Columns: kernel time, host→device copy, device→host copy, total,
//! checks/s, time to first local minimum from a Multiple Fragment start,
//! initial (MF) length, optimized length.
//!
//! Rows up to a configurable size cap are run **functionally** (real
//! kernels on the simulator, real MF construction, real descent to the
//! local minimum). Larger rows — the paper's six-digit instances — are
//! priced through the exact analytic sweep model; their time-to-minimum
//! is an extrapolation (sweeps ≈ the sweeps/n ratio fitted on the
//! functional rows) and is marked `~` in the rendering.

use crate::common::{fmt_time, render_table};
use gpu_sim::spec;
use tsp_2opt::gpu::model::{model_auto_sweep, model_device_resident_sweep};
use tsp_2opt::{optimize, GpuTwoOpt, Observer, SearchOptions, TwoOptEngine};
use tsp_construction::multiple_fragment;
use tsp_trace::Recorder;
use tsp_tsplib::catalog::TABLE2_INSTANCES;

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Row {
    /// Paper instance name this stand-in mirrors.
    pub name: String,
    /// Cities.
    pub n: usize,
    /// Modeled kernel time for one sweep, seconds.
    pub kernel_s: f64,
    /// Modeled H2D copy, seconds.
    pub h2d_s: f64,
    /// Modeled D2H copy, seconds.
    pub d2h_s: f64,
    /// Modeled total sweep time, seconds.
    pub total_s: f64,
    /// Modeled steady-state sweep of the device-resident pipeline
    /// (on-device reversal of a worst-case n/2 segment, no H2D), seconds.
    pub resident_total_s: f64,
    /// Candidate checks per second (millions).
    pub mchecks_per_s: f64,
    /// Modeled time from the MF tour to the first 2-opt local minimum.
    pub time_to_min_s: f64,
    /// Sweeps to the local minimum (measured or extrapolated).
    pub sweeps: u64,
    /// MF tour length (functional rows only).
    pub initial_len: Option<i64>,
    /// 2-opt local-minimum length (functional rows only).
    pub final_len: Option<i64>,
    /// `true` when the row was functionally executed.
    pub functional: bool,
}

/// Compute Table II. Rows with `n <= max_functional_n` run functionally;
/// the rest are model-priced.
pub fn compute(max_functional_n: usize) -> Vec<Row> {
    compute_traced(max_functional_n, &Recorder::disabled())
}

/// [`compute`] with a [`Recorder`] attached to every functional row's
/// engine and descent (the `--trace-out` path of the `table2` binary).
pub fn compute_traced(max_functional_n: usize, recorder: &Recorder) -> Vec<Row> {
    let dev_spec = spec::gtx_680_cuda();
    let mut rows = Vec::new();
    // Sweeps-per-city ratio observed on functional rows, used to
    // extrapolate time-to-minimum for model-only rows.
    let mut sweep_ratio: f64 = 0.25;
    let observer = Observer::none().with_recorder(recorder.clone());

    for entry in TABLE2_INSTANCES {
        let n = entry.n;
        if n <= max_functional_n {
            let inst = entry.instance();
            let mut tour = multiple_fragment(&inst);
            let initial_len = tour.length(&inst);
            let mut engine = GpuTwoOpt::new(dev_spec.clone()).with_observer(&observer);
            // One sweep for the single-run columns.
            let (_, sweep) = engine
                .best_move(&inst, &tour)
                .expect("catalog instances are coordinate-based");
            // Full descent for the time-to-minimum columns.
            let search = SearchOptions::new().with_observer(observer.clone());
            let stats = optimize(&mut engine, &inst, &mut tour, search)
                .expect("descent cannot fail on a valid instance");
            sweep_ratio = stats.sweeps as f64 / n as f64;
            rows.push(Row {
                name: entry.name(),
                n,
                kernel_s: sweep.kernel_seconds,
                h2d_s: sweep.h2d_seconds,
                d2h_s: sweep.d2h_seconds,
                total_s: sweep.modeled_seconds(),
                resident_total_s: model_device_resident_sweep(&dev_spec, n, n / 2).total_seconds(),
                mchecks_per_s: sweep.checks_per_second() / 1e6,
                time_to_min_s: stats.modeled_seconds(),
                sweeps: stats.sweeps,
                initial_len: Some(initial_len),
                final_len: Some(stats.final_length),
                functional: true,
            });
        } else {
            let m = model_auto_sweep(&dev_spec, n);
            let sweeps = (sweep_ratio * n as f64).round() as u64;
            rows.push(Row {
                name: entry.name(),
                n,
                kernel_s: m.kernel_seconds,
                h2d_s: m.h2d_seconds,
                d2h_s: m.d2h_seconds,
                total_s: m.total_seconds(),
                resident_total_s: model_device_resident_sweep(&dev_spec, n, n / 2).total_seconds(),
                mchecks_per_s: m.checks_per_second() / 1e6,
                time_to_min_s: sweeps as f64 * m.total_seconds(),
                sweeps,
                initial_len: None,
                final_len: None,
                functional: false,
            });
        }
    }
    rows
}

/// Render as CSV for external processing.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from(
        "problem,cities,kernel_s,h2d_s,d2h_s,total_s,resident_total_s,mchecks_per_s,time_to_min_s,sweeps,mf_len,twoopt_len,functional\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.9},{:.9},{:.9},{:.9},{:.9},{:.1},{:.6},{},{},{},{}\n",
            r.name,
            r.n,
            r.kernel_s,
            r.h2d_s,
            r.d2h_s,
            r.total_s,
            r.resident_total_s,
            r.mchecks_per_s,
            r.time_to_min_s,
            r.sweeps,
            r.initial_len.map_or(String::from(""), |v| v.to_string()),
            r.final_len.map_or(String::from(""), |v| v.to_string()),
            r.functional,
        ));
    }
    out
}

/// Render in the paper's column layout.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let tilde = if r.functional { "" } else { "~" };
            vec![
                r.name.clone(),
                r.n.to_string(),
                fmt_time(r.kernel_s),
                fmt_time(r.h2d_s),
                fmt_time(r.d2h_s),
                fmt_time(r.total_s),
                fmt_time(r.resident_total_s),
                format!("{:.0}", r.mchecks_per_s),
                format!("{tilde}{}", fmt_time(r.time_to_min_s)),
                r.initial_len.map_or("-".into(), |v| v.to_string()),
                r.final_len.map_or("-".into(), |v| v.to_string()),
            ]
        })
        .collect();
    render_table(
        &[
            "Problem",
            "Cities",
            "Kernel",
            "H2D",
            "D2H",
            "Total",
            "Resident",
            "Mchecks/s",
            "To 1st min",
            "MF len",
            "2-opt len",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_paper() {
        let rows = compute(300); // functional up to kroA200/ts225/pr299
        assert_eq!(rows.len(), 27);

        // Transfer share shrinks as n grows (the paper's §V observation).
        let small = &rows[0]; // berlin52
        let big = rows.last().unwrap(); // lrb744710
        let small_share = (small.h2d_s + small.d2h_s) / small.total_s;
        let big_share = (big.h2d_s + big.d2h_s) / big.total_s;
        assert!(small_share > 0.5, "berlin52 transfer share {small_share}");
        assert!(big_share < 0.01, "lrb744710 transfer share {big_share}");

        // berlin52's total is latency-dominated: order 100 us like the
        // paper's 81 us.
        assert!(
            (40e-6..200e-6).contains(&small.total_s),
            "berlin52 total = {}",
            small.total_s
        );

        // lrb744710 kernel lands near the paper's ~13.4 s row.
        assert!(
            (5.0..30.0).contains(&big.kernel_s),
            "lrb744710 kernel = {}",
            big.kernel_s
        );

        // checks/s grows monotonically-ish and saturates in the tens of
        // thousands of millions (paper: 21,652 Mchecks/s at the top).
        assert!(big.mchecks_per_s > 10_000.0, "{}", big.mchecks_per_s);
        assert!(small.mchecks_per_s < big.mchecks_per_s);
    }

    #[test]
    fn functional_rows_really_descend() {
        let rows = compute(150);
        for r in rows.iter().filter(|r| r.functional) {
            assert!(r.final_len.unwrap() <= r.initial_len.unwrap(), "{}", r.name);
            assert!(r.sweeps > 0);
            assert!(r.time_to_min_s > 0.0);
        }
        // Functional rows: berlin52, kroE100, ch130, ch150.
        assert_eq!(rows.iter().filter(|r| r.functional).count(), 4);
    }

    #[test]
    fn csv_has_27_data_rows() {
        let csv = to_csv(&compute(60));
        assert_eq!(csv.lines().count(), 28);
        assert!(csv.starts_with("problem,cities"));
    }

    #[test]
    fn render_marks_model_rows_with_tilde() {
        let rows = compute(60);
        let s = render(&rows);
        assert!(s.contains("syn-berlin52"));
        assert!(s.contains('~'));
        assert!(s.contains("Mchecks/s"));
        assert!(s.contains("Resident"));
    }

    #[test]
    fn resident_column_beats_serial_for_large_rows() {
        let rows = compute(60);
        for r in &rows {
            assert!(r.resident_total_s > 0.0, "{}", r.name);
            // From ~1000 cities the per-sweep upload exceeds the
            // worst-case on-device reversal.
            if r.n >= 1000 {
                assert!(
                    r.resident_total_s < r.total_s,
                    "{}: resident {} vs serial {}",
                    r.name,
                    r.resident_total_s,
                    r.total_s
                );
            }
        }
    }
}
