//! Ablation studies for the design choices called out in DESIGN.md §5.
//!
//! 1. shared-memory staging on/off (the paper's Optimization 1);
//! 2. coordinate pre-ordering on/off (Optimization 2);
//! 3. thread striding vs. one-thread-per-pair (§IV.A's launch shape);
//! 4. tile size of the §IV.B division scheme;
//! 5. best- vs. first-improvement pivoting;
//! 6. neighbourhood pruning depth (§VII future work).

use crate::common::{fmt_time, render_table};
use gpu_sim::{spec, LaunchConfig};
use tsp_2opt::gpu::model::{model_small_sweep, model_tiled_sweep};
use tsp_2opt::pruned::PrunedTwoOpt;
use tsp_2opt::{
    optimize, GpuTwoOpt, PivotRule, SearchOptions, SequentialTwoOpt, Strategy, TwoOptEngine,
};
use tsp_core::Tour;
use tsp_tsplib::{generate, Style};

/// A generic (label, value-columns) result row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration label.
    pub label: String,
    /// Column values, pre-formatted.
    pub values: Vec<String>,
    /// The raw figure of merit (for tests).
    pub metric: f64,
}

/// Ablation 1 + 2: kernel variants at one size (modeled sweep time).
pub fn memory_variants(n: usize) -> Vec<Row> {
    memory_variants_traced(n, &tsp_trace::Recorder::disabled())
}

/// [`memory_variants`] with a [`tsp_trace::Recorder`] attached, so the
/// trace shows the three kernel variants side by side.
pub fn memory_variants_traced(n: usize, recorder: &tsp_trace::Recorder) -> Vec<Row> {
    let dev = spec::gtx_680_cuda();
    let inst = generate("abl-mem", n, Style::Uniform, 1);
    let tour = Tour::identity(n);
    let observer = tsp_2opt::Observer::none().with_recorder(recorder.clone());
    [
        ("ordered + shared (paper)", Strategy::Shared),
        ("unordered + shared (Fig. 5)", Strategy::Unordered),
        ("ordered, global only", Strategy::GlobalOnly),
    ]
    .into_iter()
    .map(|(label, strategy)| {
        let mut eng = GpuTwoOpt::new(dev.clone())
            .with_strategy(strategy)
            .with_observer(&observer);
        let (_, p) = eng.best_move(&inst, &tour).expect("kernel runs");
        Row {
            label: label.into(),
            values: vec![
                fmt_time(p.kernel_seconds),
                fmt_time(p.modeled_seconds()),
                format!("{:.0} M/s", p.checks_per_second() / 1e6),
            ],
            metric: p.kernel_seconds,
        }
    })
    .collect()
}

/// Ablation 3: striding vs. one-thread-per-pair launch shapes (modeled).
pub fn striding_variants(n: usize) -> Vec<Row> {
    let dev = spec::gtx_680_cuda();
    let pairs = tsp_2opt::indexing::pair_count(n);
    let block = 1024u32;
    let strided = model_small_sweep(&dev, n, LaunchConfig::new(dev.compute_units * 4, block));
    let one_per_pair_grid = pairs.div_ceil(block as u64) as u32;
    let flat = model_small_sweep(&dev, n, LaunchConfig::new(one_per_pair_grid, block));
    vec![
        Row {
            label: format!("strided, {} blocks (paper)", dev.compute_units * 4),
            values: vec![
                fmt_time(strided.kernel_seconds),
                format!("{:.0}", strided.gflops()),
            ],
            metric: strided.kernel_seconds,
        },
        Row {
            label: format!("one thread per pair, {one_per_pair_grid} blocks"),
            values: vec![
                fmt_time(flat.kernel_seconds),
                format!("{:.0}", flat.gflops()),
            ],
            metric: flat.kernel_seconds,
        },
    ]
}

/// Ablation 4: tile-size sweep for the division scheme (modeled).
pub fn tile_sizes(n: usize) -> Vec<Row> {
    let dev = spec::gtx_680_cuda();
    [128usize, 256, 512, 1024, 2048, 3071]
        .into_iter()
        .map(|tile| {
            let m = model_tiled_sweep(&dev, n, 256, tile);
            Row {
                label: format!("tile = {tile}"),
                values: vec![fmt_time(m.kernel_seconds), format!("{:.0}", m.gflops())],
                metric: m.kernel_seconds,
            }
        })
        .collect()
}

/// Ablation 5: pivot rule (functional descent).
pub fn pivot_rules(n: usize) -> Vec<Row> {
    let inst = generate("abl-pivot", n, Style::Uniform, 2);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(3);
    let start = Tour::random(n, &mut rng);
    [
        ("best improvement (paper)", PivotRule::BestImprovement),
        ("first improvement", PivotRule::FirstImprovement),
    ]
    .into_iter()
    .map(|(label, rule)| {
        let mut tour = start.clone();
        let mut eng = SequentialTwoOpt::new().with_pivot(rule);
        let stats = optimize(&mut eng, &inst, &mut tour, SearchOptions::default())
            .expect("descent succeeds");
        Row {
            label: label.into(),
            values: vec![
                stats.sweeps.to_string(),
                stats.profile.pairs_checked.to_string(),
                stats.final_length.to_string(),
            ],
            metric: stats.profile.pairs_checked as f64 / stats.sweeps.max(1) as f64,
        }
    })
    .collect()
}

/// Ablation 6: pruning depth (functional descent; quality vs. work).
pub fn pruning_depths(n: usize) -> Vec<Row> {
    let inst = generate("abl-prune", n, Style::Uniform, 4);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(5);
    let start = Tour::random(n, &mut rng);

    let mut rows = Vec::new();
    {
        let mut tour = start.clone();
        let mut eng = SequentialTwoOpt::new();
        let stats =
            optimize(&mut eng, &inst, &mut tour, SearchOptions::default()).expect("descent");
        rows.push(Row {
            label: "full neighbourhood (paper)".into(),
            values: vec![
                stats.profile.pairs_checked.to_string(),
                stats.final_length.to_string(),
            ],
            metric: stats.final_length as f64,
        });
    }
    for k in [4usize, 8, 16] {
        let mut tour = start.clone();
        let mut eng = PrunedTwoOpt::new(&inst, k);
        let stats =
            optimize(&mut eng, &inst, &mut tour, SearchOptions::default()).expect("descent");
        rows.push(Row {
            label: format!("pruned, k = {k}"),
            values: vec![
                stats.profile.pairs_checked.to_string(),
                stats.final_length.to_string(),
            ],
            metric: stats.final_length as f64,
        });
    }
    rows
}

/// §VI future work: multi-device scaling (modeled concurrent makespan).
pub fn multi_device_scaling(n: usize) -> Vec<Row> {
    let inst = generate("abl-multi", n, Style::Uniform, 6);
    let tour = Tour::identity(n);
    (1..=4usize)
        .map(|count| {
            let mut eng = tsp_2opt::MultiGpuTwoOpt::homogeneous(spec::gtx_680_cuda(), count);
            let (_, p) = eng.best_move(&inst, &tour).expect("kernel runs");
            Row {
                label: format!("{count} x GTX 680"),
                values: vec![
                    fmt_time(p.kernel_seconds),
                    fmt_time(p.modeled_seconds()),
                    format!("{:.0} M/s", p.checks_per_second() / 1e6),
                ],
                metric: p.modeled_seconds(),
            }
        })
        .collect()
}

/// Serial Algorithm 2 vs. double-buffered streams (overlapped H2D).
pub fn transfer_overlap(sizes: &[usize]) -> Vec<Row> {
    let dev = spec::gtx_680_cuda();
    sizes
        .iter()
        .flat_map(|&n| {
            let inst = generate("abl-overlap", n, Style::Uniform, 11);
            let tour = Tour::identity(n);
            let mut serial = GpuTwoOpt::new(dev.clone());
            let (_, ps) = serial.best_move(&inst, &tour).expect("kernel runs");
            let mut piped = GpuTwoOpt::new(dev.clone()).with_overlapped_transfers();
            let (_, pp) = piped.best_move(&inst, &tour).expect("kernel runs");
            [
                Row {
                    label: format!("n = {n}, serial (paper)"),
                    values: vec![fmt_time(ps.modeled_seconds())],
                    metric: ps.modeled_seconds(),
                },
                Row {
                    label: format!("n = {n}, overlapped"),
                    values: vec![fmt_time(pp.modeled_seconds())],
                    metric: pp.modeled_seconds(),
                },
            ]
        })
        .collect()
}

/// Device-resident descent vs. the serial Algorithm-2 pipeline: same
/// random start, capped descents, modeled per-descent totals. The
/// resident pipeline replaces the per-sweep coordinate upload with an
/// on-device segment reversal, so its advantage grows with `n` (the
/// upload costs `latency + 8n bytes` per sweep; the reversal only moves
/// the reversed segment through global memory).
pub fn device_resident(sizes: &[usize]) -> Vec<Row> {
    let dev = spec::gtx_680_cuda();
    let opts = SearchOptions::new().with_max_sweeps(5u64);
    sizes
        .iter()
        .flat_map(|&n| {
            let inst = generate("abl-resident", n, Style::Uniform, 13);
            let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(14);
            let start = Tour::random(n, &mut rng);

            let mut t_serial = start.clone();
            let mut serial = GpuTwoOpt::new(dev.clone());
            let a = optimize(&mut serial, &inst, &mut t_serial, opts.clone()).expect("descent");

            let mut t_resident = start.clone();
            let mut resident = GpuTwoOpt::new(dev.clone()).with_strategy(Strategy::DeviceResident);
            let b = optimize(&mut resident, &inst, &mut t_resident, opts.clone()).expect("descent");
            assert_eq!(
                t_serial.as_slice(),
                t_resident.as_slice(),
                "pipelines must walk the same descent"
            );

            [
                Row {
                    label: format!("n = {n}, serial Algorithm 2 (paper)"),
                    values: vec![
                        fmt_time(a.profile.modeled_seconds()),
                        fmt_time(a.profile.h2d_seconds),
                        fmt_time(a.profile.reversal_seconds),
                    ],
                    metric: a.profile.modeled_seconds(),
                },
                Row {
                    label: format!("n = {n}, device-resident"),
                    values: vec![
                        fmt_time(b.profile.modeled_seconds()),
                        fmt_time(b.profile.h2d_seconds),
                        fmt_time(b.profile.reversal_seconds),
                    ],
                    metric: b.profile.modeled_seconds(),
                },
            ]
        })
        .collect()
}

/// DLB + candidate lists vs. the dense sweep (the "complex pruning
/// schemes and specialized data structures" the paper contrasts its
/// brute-force kernel against).
pub fn dlb_vs_sweep(n: usize) -> Vec<Row> {
    let inst = generate("abl-dlb", n, Style::Uniform, 7);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(8);
    let start = Tour::random(n, &mut rng);

    let mut rows = Vec::new();
    {
        let mut tour = start.clone();
        let mut eng = SequentialTwoOpt::new();
        let stats =
            optimize(&mut eng, &inst, &mut tour, SearchOptions::default()).expect("descent");
        rows.push(Row {
            label: "dense best-improvement sweeps".into(),
            values: vec![
                stats.profile.pairs_checked.to_string(),
                stats.final_length.to_string(),
            ],
            metric: stats.profile.pairs_checked as f64,
        });
    }
    {
        let mut tour = start.clone();
        let stats = tsp_2opt::dlb::optimize(&inst, &mut tour, 12);
        rows.push(Row {
            label: "don't-look bits + 12-NN lists".into(),
            values: vec![stats.checks.to_string(), tour.length(&inst).to_string()],
            metric: stats.checks as f64,
        });
    }
    rows
}

/// Render one ablation block.
pub fn render(title: &str, header: &[&str], rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut v = vec![r.label.clone()];
            v.extend(r.values.iter().cloned());
            v
        })
        .collect();
    format!("## {title}\n\n{}\n", render_table(header, &body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_and_ordering_pay_off() {
        let rows = memory_variants(2048);
        // ordered+shared <= unordered+shared < global-only.
        assert!(rows[0].metric <= rows[1].metric * 1.001);
        assert!(rows[1].metric < rows[2].metric);
    }

    #[test]
    fn striding_beats_one_thread_per_pair() {
        let rows = striding_variants(4096);
        // One-per-pair re-stages the coordinates in every one of its many
        // blocks; striding amortizes the staging ("reuse 99 times").
        assert!(rows[0].metric < rows[1].metric, "{rows:?}");
    }

    #[test]
    fn bigger_tiles_are_cheaper_at_scale() {
        let rows = tile_sizes(20_000);
        // Staging overhead shrinks with tile size: the largest tile must
        // beat the smallest clearly.
        assert!(rows.last().unwrap().metric < rows[0].metric, "{rows:?}");
    }

    #[test]
    fn first_improvement_sweeps_are_cheaper_but_more_numerous() {
        let rows = pivot_rules(150);
        // Fewer checks per sweep...
        assert!(rows[1].metric < rows[0].metric, "{rows:?}");
        // ...but more sweeps to reach the local minimum (why the paper's
        // GPU reduction is a best-improvement pivot).
        let sweeps_best: u64 = rows[0].values[0].parse().unwrap();
        let sweeps_first: u64 = rows[1].values[0].parse().unwrap();
        assert!(sweeps_first > sweeps_best, "{rows:?}");
    }

    #[test]
    fn multi_device_scales_near_linearly_at_size() {
        let rows = multi_device_scaling(4000);
        // 4 devices at n=4000 must cut the end-to-end time well below a
        // single device (transfers replicate, kernels split).
        assert!(
            rows[3].metric < rows[0].metric * 0.45,
            "1 dev {} vs 4 dev {}",
            rows[0].metric,
            rows[3].metric
        );
    }

    #[test]
    fn overlap_helps_most_where_transfers_dominate() {
        let rows = transfer_overlap(&[200, 4000]);
        // Small n: transfers dominate, overlap nearly halves the sweep.
        let small_gain = rows[0].metric / rows[1].metric;
        // Large n: kernel dominates, overlap gains little.
        let large_gain = rows[2].metric / rows[3].metric;
        assert!(small_gain > large_gain, "{small_gain} vs {large_gain}");
        assert!(small_gain > 1.25, "small-instance gain {small_gain}");
        assert!(large_gain < 1.25, "large-instance gain {large_gain}");
    }

    #[test]
    fn device_resident_wins_from_a_thousand_cities() {
        // ISSUE acceptance: the modeled per-descent total of the
        // resident pipeline is strictly below serial Algorithm 2 for
        // n >= 1000 (1536 here); at 512 the rows exist for the report
        // but no ordering is asserted (upload latency is small there).
        let rows = device_resident(&[512, 1536]);
        assert_eq!(rows.len(), 4);
        let serial_1536 = rows[2].metric;
        let resident_1536 = rows[3].metric;
        assert!(
            resident_1536 < serial_1536,
            "resident {resident_1536} vs serial {serial_1536}"
        );
        // The steady state really dropped the upload: the resident
        // descent's accumulated H2D is one refresh, far below serial's
        // five sweeps' worth.
        let serial_h2d = &rows[2].values[1];
        let resident_h2d = &rows[3].values[1];
        assert_ne!(serial_h2d, resident_h2d);
    }

    #[test]
    fn dlb_does_orders_of_magnitude_less_work() {
        let rows = dlb_vs_sweep(250);
        assert!(rows[1].metric * 20.0 < rows[0].metric, "{rows:?}");
    }

    #[test]
    fn pruning_trades_quality_for_work() {
        let rows = pruning_depths(200);
        let full = rows[0].metric;
        for r in &rows[1..] {
            // Within 15% of the full-neighbourhood quality.
            assert!(
                (r.metric - full) / full < 0.15,
                "{}: {} vs {}",
                r.label,
                r.metric,
                full
            );
        }
    }
}
