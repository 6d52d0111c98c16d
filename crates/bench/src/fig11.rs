//! Fig. 11 — Iterated Local Search convergence speed with the GPU 2-opt
//! versus the CPU implementations (the paper plots sw24978; the harness
//! defaults to a scaled-down clustered stand-in so the functional run
//! finishes in seconds, `--n 24978` reproduces the full size).
//!
//! The paper's setup: "the initial solution s0 is a random tour. We used
//! a simple double-bridge move as a perturbation technique."

use crate::common::{fmt_time, render_table};
use gpu_sim::spec;
use tsp_2opt::{GpuTwoOpt, Observer, SequentialTwoOpt};
use tsp_core::Tour;
use tsp_ils::{iterated_local_search, IlsOptions, TracePoint};
use tsp_trace::Recorder;
use tsp_tsplib::{generate, Style};

/// Result of the convergence experiment.
#[derive(Debug)]
pub struct Convergence {
    /// Instance size.
    pub n: usize,
    /// GPU trace (modeled seconds, best length).
    pub gpu: Vec<TracePoint>,
    /// Sequential-CPU trace.
    pub cpu: Vec<TracePoint>,
    /// Convergence-speed ratio: modeled CPU time to reach the GPU's
    /// final quality, divided by the GPU's modeled time to reach it.
    pub speedup_to_quality: f64,
}

/// Modeled time at which `trace` first reaches `target` length
/// (`None` if it never does).
pub fn time_to_reach(trace: &[TracePoint], target: i64) -> Option<f64> {
    trace
        .iter()
        .find(|p| p.best_length <= target)
        .map(|p| p.modeled_seconds)
}

/// Run the experiment: same instance, same seed, same iteration budget,
/// GPU engine vs. sequential CPU engine.
pub fn compute(n: usize, iterations: u64, seed: u64) -> Convergence {
    compute_traced(n, iterations, seed, &Recorder::disabled())
}

/// [`compute`] with a [`Recorder`] attached to the GPU run (kernel,
/// transfer and ILS telemetry); the CPU baseline stays untraced so the
/// trace shows exactly one engine's timeline.
pub fn compute_traced(n: usize, iterations: u64, seed: u64, recorder: &Recorder) -> Convergence {
    // Clustered points mirror the sw (Sweden) road-network instance.
    let inst = generate("fig11", n, Style::Clustered { clusters: 24 }, seed);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
    let start = Tour::random(n, &mut rng);

    let opts = IlsOptions::new()
        .with_max_iterations(iterations)
        .with_seed(seed);
    let observer = Observer::none().with_recorder(recorder.clone());
    let gpu_opts = opts.clone().with_observer(observer.clone());
    let mut gpu_engine = GpuTwoOpt::new(spec::gtx_680_cuda()).with_observer(&observer);
    let gpu = iterated_local_search(&mut gpu_engine, &inst, start.clone(), gpu_opts)
        .expect("generated instances are coordinate-based");
    let mut cpu_engine = SequentialTwoOpt::new();
    let cpu = iterated_local_search(&mut cpu_engine, &inst, start, opts)
        .expect("generated instances are coordinate-based");

    // Both runs apply identical move sequences (engines agree
    // bit-for-bit and share the perturbation seed), so quality curves
    // coincide and only the time axis differs.
    let target = gpu.best_length.max(cpu.best_length);
    let t_gpu = time_to_reach(&gpu.trace, target).unwrap_or(f64::INFINITY);
    let t_cpu = time_to_reach(&cpu.trace, target).unwrap_or(f64::INFINITY);
    Convergence {
        n,
        gpu: gpu.trace,
        cpu: cpu.trace,
        speedup_to_quality: t_cpu / t_gpu,
    }
}

/// Render both traces as CSV (engine, iteration, modeled seconds, length).
pub fn to_csv(c: &Convergence) -> String {
    let mut out = String::from("engine,iteration,modeled_seconds,best_length\n");
    for (name, trace) in [("gpu", &c.gpu), ("cpu_sequential", &c.cpu)] {
        for p in trace {
            out.push_str(&format!(
                "{},{},{:.9},{}\n",
                name, p.iteration, p.modeled_seconds, p.best_length
            ));
        }
    }
    out
}

/// Render both traces side by side.
pub fn render(c: &Convergence) -> String {
    let mut out = format!(
        "ILS convergence, n = {} (random start, double-bridge perturbation)\n\n",
        c.n
    );
    let rows: Vec<Vec<String>> = c
        .gpu
        .iter()
        .map(|p| {
            vec![
                p.iteration.to_string(),
                fmt_time(p.modeled_seconds),
                p.best_length.to_string(),
            ]
        })
        .collect();
    out.push_str("GPU (GTX 680 CUDA):\n");
    out.push_str(&render_table(
        &["iter", "modeled time", "best length"],
        &rows,
    ));
    let rows: Vec<Vec<String>> = c
        .cpu
        .iter()
        .map(|p| {
            vec![
                p.iteration.to_string(),
                fmt_time(p.modeled_seconds),
                p.best_length.to_string(),
            ]
        })
        .collect();
    out.push_str("\nSequential CPU:\n");
    out.push_str(&render_table(
        &["iter", "modeled time", "best length"],
        &rows,
    ));
    out.push_str(&format!(
        "\nConvergence speedup to final quality: {:.0}x (paper: up to 300x at n = 24978)\n",
        c.speedup_to_quality
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_converges_much_faster_at_mid_size() {
        let c = compute(400, 15, 42);
        assert!(!c.gpu.is_empty() && !c.cpu.is_empty());
        // Identical quality curves (same engines' moves, same seed).
        assert_eq!(
            c.gpu.last().unwrap().best_length,
            c.cpu.last().unwrap().best_length
        );
        // Modeled GPU time is well below modeled sequential-CPU time;
        // the advantage grows with n (the paper's 300x is at n = 24978).
        assert!(
            c.speedup_to_quality > 5.0,
            "speedup {}",
            c.speedup_to_quality
        );
        let small = compute(80, 5, 42);
        assert!(
            small.speedup_to_quality < c.speedup_to_quality,
            "advantage must grow with n: {} vs {}",
            small.speedup_to_quality,
            c.speedup_to_quality
        );
    }

    #[test]
    fn small_instances_show_little_advantage() {
        // §V: "the GPU ILS version does not give any substantial speedup
        // over the CPU implementation in case of small problems (smaller
        // than 200)".
        let c = compute(60, 10, 7);
        assert!(
            c.speedup_to_quality < 10.0,
            "speedup {} should be modest at n=60",
            c.speedup_to_quality
        );
    }

    #[test]
    fn csv_covers_both_traces() {
        let c = compute(120, 5, 1);
        let csv = to_csv(&c);
        assert_eq!(csv.lines().count(), 1 + c.gpu.len() + c.cpu.len());
        assert!(csv.contains("cpu_sequential"));
    }

    #[test]
    fn traces_improve_monotonically() {
        let c = compute(200, 10, 3);
        for trace in [&c.gpu, &c.cpu] {
            for w in trace.windows(2) {
                assert!(w[0].best_length > w[1].best_length);
                assert!(w[0].modeled_seconds <= w[1].modeled_seconds);
            }
        }
    }
}
