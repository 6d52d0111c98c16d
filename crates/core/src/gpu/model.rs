//! Analytic sweep model: the modeled cost of one 2-opt sweep *without*
//! functionally executing it.
//!
//! The simulator's timing is a pure function of per-block work counters,
//! and for these kernels the counters are themselves a closed-form
//! function of `(n, launch geometry, strategy)`. This module computes
//! them directly, which lets the Table II harness price the paper's
//! six-digit instances (up to lrb744710, 2.8·10¹¹ pair checks per sweep)
//! in microseconds of host time. The model is **exact**: a unit test
//! asserts bit-equal profiles against the functional executor.

use crate::cpu_model::BYTES_PER_CHECK;
use crate::delta::FLOPS_PER_CHECK;
use crate::gpu::tiled::auto_tile;
use crate::indexing::{index_to_tile_pair, pair_count, tile_pair_count};
use gpu_sim::{timing, DeviceSpec, KernelProfile, LaunchConfig, PerfCounters};
use tsp_core::Point;

/// Modeled cost of one full sweep (kernel + transfers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeledSweep {
    /// Candidate pairs the sweep checks.
    pub pairs: u64,
    /// FLOPs performed.
    pub flops: u64,
    /// Modeled kernel time, seconds.
    pub kernel_seconds: f64,
    /// Modeled on-device segment reversal applying the previous sweep's
    /// move (device-resident pipeline; zero for the re-upload pipelines).
    pub reversal_seconds: f64,
    /// Modeled host→device copy (ordered coordinates), seconds.
    pub h2d_seconds: f64,
    /// Modeled device→host copy (one result word), seconds.
    pub d2h_seconds: f64,
}

impl ModeledSweep {
    /// Kernel + reversal + transfer time — the "GPU total time" column.
    pub fn total_seconds(&self) -> f64 {
        self.kernel_seconds + self.reversal_seconds + self.h2d_seconds + self.d2h_seconds
    }

    /// Achieved GFLOP/s over the kernel time (Fig. 9's metric).
    pub fn gflops(&self) -> f64 {
        if self.kernel_seconds <= 0.0 {
            return 0.0;
        }
        self.flops as f64 / self.kernel_seconds / 1e9
    }

    /// Candidate checks per second over the total time (Table II).
    pub fn checks_per_second(&self) -> f64 {
        let t = self.total_seconds();
        if t <= 0.0 {
            return 0.0;
        }
        self.pairs as f64 / t
    }
}

/// Sum of `ceil((work - t) / stride)` over `t` in `[t0, t1)` — the number
/// of strided-loop iterations executed by threads `t0..t1`.
fn strided_iterations(work: u64, stride: u64, t0: u64, t1: u64) -> u64 {
    let mut total = 0;
    for t in t0..t1.min(work.max(t0)) {
        if t < work {
            total += (work - t).div_ceil(stride);
        }
    }
    total
}

/// Model the §IV.A shared-memory kernel (auto-selected when the ordered
/// coordinates fit on chip).
pub fn model_small_sweep(spec: &DeviceSpec, n: usize, cfg: LaunchConfig) -> ModeledSweep {
    finish(spec, n, &small_kernel_profile(spec, n, cfg))
}

/// Modeled profile of one [`crate::gpu::small::OrderedSharedKernel`]
/// launch, summing the strided loop thread by thread — the reference the
/// kernel's closed-form block accounting is tested against.
pub(crate) fn small_kernel_profile(
    spec: &DeviceSpec,
    n: usize,
    cfg: LaunchConfig,
) -> KernelProfile {
    let pairs = pair_count(n);
    let total_threads = cfg.total_threads();
    let blocks: Vec<PerfCounters> = (0..cfg.grid_dim as u64)
        .map(|b| {
            let t0 = b * cfg.block_dim as u64;
            let t1 = t0 + cfg.block_dim as u64;
            let evals = strided_iterations(pairs, total_threads, t0, t1);
            // Threads in this block with at least one pair to evaluate.
            let active = t1.min(pairs).saturating_sub(t0).min(cfg.block_dim as u64);
            PerfCounters {
                flops: evals * FLOPS_PER_CHECK,
                // staging + evaluation loads + scratch writes + the
                // thread-0 reduction scan over the whole scratch.
                shared_bytes: n as u64 * Point::DEVICE_BYTES as u64
                    + evals * BYTES_PER_CHECK
                    + active * 8
                    + 8 * cfg.block_dim as u64,
                global_read_bytes: n as u64 * Point::DEVICE_BYTES as u64,
                global_write_bytes: 0,
                atomic_ops: u64::from(active > 0),
            }
        })
        .collect();
    kernel_profile(spec, cfg, 3, &blocks)
}

/// Model the §IV.B tiled kernel (one block per tile pair).
pub fn model_tiled_sweep(spec: &DeviceSpec, n: usize, block_dim: u32, tile: usize) -> ModeledSweep {
    finish(spec, n, &tiled_kernel_profile(spec, n, block_dim, tile))
}

/// Modeled profile of one [`crate::gpu::tiled::TiledKernel`] launch
/// (one block per tile pair), summed thread by thread.
pub(crate) fn tiled_kernel_profile(
    spec: &DeviceSpec,
    n: usize,
    block_dim: u32,
    tile: usize,
) -> KernelProfile {
    let positions = (n - 1) as u64;
    let tiles = positions.div_ceil(tile as u64);
    let grid = tile_pair_count(tiles);
    let blocks: Vec<PerfCounters> = (0..grid)
        .map(|k| {
            let (a, b) = index_to_tile_pair(k);
            let a_len = ((a + 1) * tile as u64).min(positions) - a * tile as u64;
            let b_len = ((b + 1) * tile as u64).min(positions) - b * tile as u64;
            let local_pairs = if a == b {
                a_len * (a_len - 1) / 2
            } else {
                a_len * b_len
            };
            let evals = strided_iterations(local_pairs, block_dim as u64, 0, block_dim as u64);
            let staged = (a_len + 1) + (b_len + 1);
            let active = local_pairs.min(block_dim as u64);
            PerfCounters {
                flops: evals * FLOPS_PER_CHECK,
                shared_bytes: staged * Point::DEVICE_BYTES as u64
                    + evals * BYTES_PER_CHECK
                    + active * 8
                    + 8 * block_dim as u64,
                global_read_bytes: staged * Point::DEVICE_BYTES as u64,
                global_write_bytes: 0,
                atomic_ops: u64::from(active > 0),
            }
        })
        .collect();
    kernel_profile(spec, LaunchConfig::new(grid as u32, block_dim), 3, &blocks)
}

/// Model a sweep with the engine's automatic strategy selection and
/// default launch geometry — the harness entry point.
pub fn model_auto_sweep(spec: &DeviceSpec, n: usize) -> ModeledSweep {
    let block_dim = spec.max_threads_per_block.min(1024);
    let grid_dim = spec.compute_units * 4;
    if n * Point::DEVICE_BYTES <= spec.shared_mem_per_block {
        model_small_sweep(spec, n, LaunchConfig::new(grid_dim, block_dim))
    } else {
        model_tiled_sweep(
            spec,
            n,
            block_dim,
            auto_tile(n, spec.shared_mem_per_block, grid_dim),
        )
    }
}

/// Model the segment-reversal kernel applying a 2-opt move that reverses
/// `seg_len` positions, with the engine's reversal launch (one block per
/// compute unit, maximum block size). Returns the kernel time in seconds.
pub fn model_reversal(spec: &DeviceSpec, seg_len: usize) -> f64 {
    let cfg = LaunchConfig::new(spec.compute_units, spec.max_threads_per_block.min(1024));
    let swaps = (seg_len / 2) as u64;
    let total_threads = cfg.total_threads();
    let mut block_times = Vec::with_capacity(cfg.grid_dim as usize);
    for b in 0..cfg.grid_dim as u64 {
        let t0 = b * cfg.block_dim as u64;
        let t1 = t0 + cfg.block_dim as u64;
        let done = strided_iterations(swaps, total_threads, t0, t1);
        let c = PerfCounters {
            global_read_bytes: done * 16,
            global_write_bytes: done * 16,
            ..Default::default()
        };
        block_times.push(timing::block_time(spec, &c, 1));
    }
    timing::kernel_time(spec, &block_times)
}

/// Model one steady-state sweep of the device-resident pipeline: the
/// auto-selected evaluation kernel reading the resident array, preceded
/// by an on-device reversal of `seg_len` positions, with **no** H2D
/// upload — only the one-word result readback crosses PCIe.
pub fn model_device_resident_sweep(spec: &DeviceSpec, n: usize, seg_len: usize) -> ModeledSweep {
    let mut m = model_auto_sweep(spec, n);
    m.h2d_seconds = 0.0;
    m.reversal_seconds = model_reversal(spec, seg_len);
    m
}

/// Model one sweep of the candidate-list kernel with `active` cities
/// still awake (don't-look bits clear) and `k` neighbours per city, at
/// the engine's default launch geometry.
///
/// The serial candidate pipeline re-uploads everything each sweep: the
/// ordered coordinates, the position array, the flattened `n × k`
/// candidate lists and the `active`-city work list — four transfers,
/// each paying the PCIe latency. The readback is one packed word per
/// active city (the host settles don't-look bits from the slots).
pub fn model_candidate_sweep(spec: &DeviceSpec, n: usize, k: usize, active: usize) -> ModeledSweep {
    let mut m = candidate_kernel_model(spec, k, active);
    m.h2d_seconds = timing::h2d_time(spec, (n * Point::DEVICE_BYTES) as u64)
        + timing::h2d_time(spec, 4 * n as u64)
        + timing::h2d_time(spec, 4 * (n * k) as u64)
        + timing::h2d_time(spec, 4 * active as u64);
    m
}

/// Model one sweep of the candidate pipeline with the lists resident on
/// device: the `n × k` upload drops out, everything else is as
/// [`model_candidate_sweep`].
pub fn model_candidate_resident_sweep(
    spec: &DeviceSpec,
    n: usize,
    k: usize,
    active: usize,
) -> ModeledSweep {
    let mut m = candidate_kernel_model(spec, k, active);
    m.h2d_seconds = timing::h2d_time(spec, (n * Point::DEVICE_BYTES) as u64)
        + timing::h2d_time(spec, 4 * n as u64)
        + timing::h2d_time(spec, 4 * active as u64);
    m
}

/// Kernel + D2H cost shared by the two candidate variants, at the
/// engine's default launch geometry.
fn candidate_kernel_model(spec: &DeviceSpec, k: usize, active: usize) -> ModeledSweep {
    let cfg = LaunchConfig::new(spec.compute_units * 4, spec.max_threads_per_block.min(1024));
    let kernel = candidate_kernel_profile(spec, k, active, cfg);
    ModeledSweep {
        pairs: active as u64 * k as u64,
        flops: kernel.counters.flops,
        kernel_seconds: kernel.seconds,
        reversal_seconds: 0.0,
        h2d_seconds: 0.0,
        d2h_seconds: timing::d2h_time(spec, 8 * active as u64),
    }
}

/// Modeled profile of one [`crate::gpu::candidate::CandidateSweepKernel`]
/// launch over `active` cities with `k` neighbours each. The counters
/// mirror the kernel exactly: per handled city one work-list gather and
/// one slot write, per check the gather-loads of
/// [`crate::gpu::candidate::CANDIDATE_BYTES_PER_CHECK`] — skipped pairs
/// charged like evaluated ones (SIMT lockstep).
pub(crate) fn candidate_kernel_profile(
    spec: &DeviceSpec,
    k: usize,
    active: usize,
    cfg: LaunchConfig,
) -> KernelProfile {
    use crate::gpu::candidate::{
        CANDIDATE_BYTES_PER_CHECK, CANDIDATE_CITY_READ_BYTES, CANDIDATE_CITY_WRITE_BYTES,
    };
    let total_threads = cfg.total_threads();
    let blocks: Vec<PerfCounters> = (0..cfg.grid_dim as u64)
        .map(|b| {
            let t0 = b * cfg.block_dim as u64;
            let t1 = t0 + cfg.block_dim as u64;
            let cities = strided_iterations(active as u64, total_threads, t0, t1);
            let checks = cities * k as u64;
            PerfCounters {
                flops: checks * FLOPS_PER_CHECK,
                shared_bytes: 0,
                global_read_bytes: cities * CANDIDATE_CITY_READ_BYTES
                    + checks * CANDIDATE_BYTES_PER_CHECK,
                global_write_bytes: cities * CANDIDATE_CITY_WRITE_BYTES,
                atomic_ops: 0,
            }
        })
        .collect();
    kernel_profile(spec, cfg, 1, &blocks)
}

/// Price per-block counters the way the executor does: each block's
/// roofline time, scheduled in waves over the compute units.
fn kernel_profile(
    spec: &DeviceSpec,
    cfg: LaunchConfig,
    phases: u32,
    blocks: &[PerfCounters],
) -> KernelProfile {
    let block_times: Vec<f64> = blocks
        .iter()
        .map(|c| timing::block_time(spec, c, phases))
        .collect();
    let mut counters = PerfCounters::new();
    for c in blocks {
        counters += *c;
    }
    KernelProfile {
        seconds: timing::kernel_time(spec, &block_times),
        counters,
        config: cfg,
    }
}

fn finish(spec: &DeviceSpec, n: usize, kernel: &KernelProfile) -> ModeledSweep {
    ModeledSweep {
        pairs: pair_count(n),
        flops: kernel.counters.flops,
        kernel_seconds: kernel.seconds,
        reversal_seconds: 0.0,
        h2d_seconds: timing::h2d_time(spec, (n * Point::DEVICE_BYTES) as u64),
        d2h_seconds: timing::d2h_time(spec, 8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bestmove::{pack, unpack, BestMove, EMPTY_KEY};
    use crate::delta::delta_ordered;
    use crate::gpu::candidate::CandidateSweepKernel;
    use crate::gpu::small::{OrderedSharedKernel, RESULT_SLOT};
    use crate::gpu::tiled::TiledKernel;
    use crate::gpu::{GpuTwoOpt, ResidentCoords, Strategy};
    use crate::search::{StepProfile, TwoOptEngine};
    use crate::sequential::SequentialTwoOpt;
    use gpu_sim::{spec, Device};
    use proptest::prelude::*;
    use tsp_core::{Instance, Metric, Tour};

    fn instance(n: usize) -> Instance {
        let pts = (0..n)
            .map(|i| {
                let a = i as f32 * 2.399963;
                Point::new(500.0 + 400.0 * a.cos(), 500.0 + 400.0 * a.sin())
            })
            .collect();
        Instance::new(format!("model{n}"), Metric::Euc2d, pts).unwrap()
    }

    /// A seeded uniform instance and a random tour over it.
    fn scattered(n: usize, seed: u64) -> (Instance, Tour) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let inst = Instance::new("scattered", Metric::Euc2d, pts).unwrap();
        let tour = Tour::random(n, &mut rng);
        (inst, tour)
    }

    /// The launch geometries the exactness properties draw from: the
    /// degenerate 1 × 1, a small 4 × 32, the paper's 28 × 1024, the
    /// engine default, an arbitrary `g × b`, and one whose stride leaves
    /// `pair_count(n) mod S` on a block boundary.
    fn geometry(pick: usize, n: usize, g: u32, b: u32) -> LaunchConfig {
        let s = spec::gtx_680_cuda();
        match pick {
            0 => LaunchConfig::new(1, 1),
            1 => LaunchConfig::new(4, 32),
            2 => LaunchConfig::new(28, 1024),
            3 => LaunchConfig::new(s.compute_units * 4, 1024),
            4 => LaunchConfig::new(g, b),
            // m(m-1)/2 is a multiple of ⌊m/2⌋, so every stride g·⌊m/2⌋
            // leaves a remainder that is a whole number of blocks.
            _ => LaunchConfig::new(g, ((n as u32 - 1) / 2).max(1)),
        }
    }

    /// One engine sweep's profile against the sweep model: pairs, flops,
    /// and the kernel and both transfer times to the bit.
    fn same_sweep(got: &StepProfile, want: &ModeledSweep, label: &str) {
        assert_eq!(got.pairs_checked, want.pairs, "{label}: pairs");
        assert_eq!(got.flops, want.flops, "{label}: flops");
        for (what, g, w) in [
            ("kernel", got.kernel_seconds, want.kernel_seconds),
            ("h2d", got.h2d_seconds, want.h2d_seconds),
            ("d2h", got.d2h_seconds, want.d2h_seconds),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: {what} {g} vs model {w}");
        }
    }

    /// `GpuTwoOpt::best_move` with the default launch (the shared kernel
    /// below the on-chip limit) against [`model_small_sweep`].
    fn check_small_engine(inst: &Instance, tour: &Tour, label: &str) {
        let s = spec::gtx_680_cuda();
        let mut eng = GpuTwoOpt::new(s.clone());
        let (mv, prof) = eng.best_move(inst, tour).unwrap();
        let cfg = LaunchConfig::new(s.compute_units * 4, 1024);
        same_sweep(&prof, &model_small_sweep(&s, inst.len(), cfg), label);
        let (want, _) = SequentialTwoOpt::new().best_move(inst, tour).unwrap();
        assert_eq!(mv, want, "{label}: engine move");
    }

    /// `GpuTwoOpt::best_move` forced onto the tiled kernel against
    /// [`model_tiled_sweep`]; the grid is the tiled kernel's own.
    fn check_tiled_engine(inst: &Instance, tour: &Tour, tile: usize, block_dim: u32, label: &str) {
        let s = spec::gtx_680_cuda();
        let mut eng = GpuTwoOpt::new(s.clone())
            .with_strategy(Strategy::Tiled { tile })
            .with_launch(1, block_dim);
        let (mv, prof) = eng.best_move(inst, tour).unwrap();
        same_sweep(
            &prof,
            &model_tiled_sweep(&s, inst.len(), block_dim, tile),
            label,
        );
        let (want, _) = SequentialTwoOpt::new().best_move(inst, tour).unwrap();
        assert_eq!(mv, want, "{label}: engine move");
    }

    fn same_profile(got: &KernelProfile, want: &KernelProfile, label: &str) {
        assert_eq!(got.counters, want.counters, "{label}: counters");
        assert_eq!(got.config, want.config, "{label}: geometry");
        assert_eq!(
            got.seconds.to_bits(),
            want.seconds.to_bits(),
            "{label}: seconds {} vs model {}",
            got.seconds,
            want.seconds
        );
    }

    /// The dense answer: the minimum packed key over every pair, and the
    /// sequential reference's best improving move.
    fn dense_answer(inst: &Instance, tour: &Tour) -> (u64, Option<BestMove>) {
        let pts = ordered(inst, tour);
        let n = pts.len();
        let mut best = EMPTY_KEY;
        for j in 1..n - 1 {
            for i in 0..j {
                best = best.min(pack(delta_ordered(&pts, i, j), i as u32, j as u32));
            }
        }
        let (mv, _) = SequentialTwoOpt::new().best_move(inst, tour).unwrap();
        (best, mv)
    }

    fn ordered(inst: &Instance, tour: &Tour) -> Vec<Point> {
        tour.as_slice()
            .iter()
            .map(|&c| inst.point(c as usize))
            .collect()
    }

    /// Launch the shared kernel from both coordinate sources at `cfg` and
    /// check each launch against the model and the dense answer.
    fn check_small(n: usize, cfg: LaunchConfig, seed: u64) {
        let label = format!("n={n} {}x{} seed={seed}", cfg.grid_dim, cfg.block_dim);
        let dev_spec = spec::gtx_680_cuda();
        let dev = Device::new(dev_spec.clone());
        let (inst, tour) = scattered(n, seed);
        let (word, mv) = dense_answer(&inst, &tour);
        assert_eq!(unpack(word).filter(BestMove::improves), mv, "{label}");
        let model = small_kernel_profile(&dev_spec, n, cfg);
        let pts = ordered(&inst, &tour);

        let (plain, _) = dev.copy_to_device(&pts).unwrap();
        let out = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
        let kernel = OrderedSharedKernel {
            coords: &plain,
            out: &out,
        };
        same_profile(&dev.launch(cfg, &kernel).unwrap(), &model, &label);
        assert_eq!(out.load(RESULT_SLOT), word, "{label}: plain answer");

        let words: Vec<u64> = pts.iter().map(|p| p.to_device_word()).collect();
        let resident = dev.alloc_atomic(n, 0).unwrap();
        dev.upload_atomic(&resident, &words).unwrap();
        let out = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
        let kernel = OrderedSharedKernel {
            coords: ResidentCoords(&resident),
            out: &out,
        };
        same_profile(&dev.launch(cfg, &kernel).unwrap(), &model, &label);
        assert_eq!(out.load(RESULT_SLOT), word, "{label}: resident answer");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn small_model_matches_functional_executor_exactly(
            n in 4usize..=1500,
            pick in 0usize..6,
            g in 1u32..64,
            b in 1u32..=1024,
            seed in any::<u64>(),
        ) {
            check_small(n, geometry(pick, n, g, b), seed);
            let (inst, tour) = scattered(n, seed);
            check_small_engine(&inst, &tour, &format!("engine n={n} seed={seed}"));
        }

        #[test]
        fn tiled_model_matches_functional_executor_exactly(
            n in 4usize..=1500,
            tiles in 1usize..=40,
            pick in 0usize..4,
            b in 1u32..=1024,
            seed in any::<u64>(),
        ) {
            let tile = (n - 1).div_ceil(tiles);
            let block_dim = [1, 32, 1024, b][pick];
            let label = format!("n={n} tile={tile} block={block_dim} seed={seed}");
            let dev_spec = spec::gtx_680_cuda();
            let dev = Device::new(dev_spec.clone());
            let (inst, tour) = scattered(n, seed);
            let (word, mv) = dense_answer(&inst, &tour);
            prop_assert_eq!(unpack(word).filter(BestMove::improves), mv);
            let model = tiled_kernel_profile(&dev_spec, n, block_dim, tile);
            let pts = ordered(&inst, &tour);
            let words: Vec<u64> = pts.iter().map(|p| p.to_device_word()).collect();
            let (plain, _) = dev.copy_to_device(&pts).unwrap();
            let resident = dev.alloc_atomic(n, 0).unwrap();
            dev.upload_atomic(&resident, &words).unwrap();

            let out = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
            let kernel = TiledKernel { coords: &plain, out: &out, tile };
            let cfg = LaunchConfig::new(kernel.grid_dim(), block_dim);
            same_profile(&dev.launch(cfg, &kernel).unwrap(), &model, &label);
            prop_assert_eq!(out.load(RESULT_SLOT), word);

            let out = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
            let kernel = TiledKernel { coords: ResidentCoords(&resident), out: &out, tile };
            same_profile(&dev.launch(cfg, &kernel).unwrap(), &model, &label);
            prop_assert_eq!(out.load(RESULT_SLOT), word);

            check_tiled_engine(&inst, &tour, tile, block_dim, &format!("engine {label}"));
        }

        #[test]
        fn candidate_kernel_matches_model_at_any_geometry(
            n in 4usize..=1500,
            k in 1usize..=16,
            awake in 0.0f64..=1.0,
            pick in 0usize..5,
            g in 1u32..64,
            b in 1u32..=1024,
            seed in any::<u64>(),
        ) {
            use crate::neighbors::CandidateLists;
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let cfg = geometry(pick, n, g, b);
            let label = format!("n={n} k={k} {}x{} seed={seed}", cfg.grid_dim, cfg.block_dim);
            let dev_spec = spec::gtx_680_cuda();
            let dev = Device::new(dev_spec.clone());
            let (inst, tour) = scattered(n, seed);
            let cl = CandidateLists::build(&inst, k);
            let mut pos = vec![0u32; n];
            for (p, &c) in tour.as_slice().iter().enumerate() {
                pos[c as usize] = p as u32;
            }
            let (coords, _) = dev.copy_to_device(&ordered(&inst, &tour)).unwrap();
            let (pos, _) = dev.copy_to_device(&pos).unwrap();
            let (lists, _) = dev.copy_to_device(cl.flat()).unwrap();
            let launch = |active: &[u32]| {
                let (active, _) = dev.copy_to_device(active).unwrap();
                let out = dev.alloc_atomic(active.len().max(1), EMPTY_KEY).unwrap();
                let kernel = CandidateSweepKernel {
                    coords: &coords,
                    pos: &pos,
                    lists: &lists,
                    k: cl.k(),
                    active: &active,
                    out: &out,
                };
                let prof = dev.launch(cfg, &kernel).unwrap();
                (prof, out.to_vec())
            };

            // A random work list: counters and seconds follow the model.
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5);
            let active: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(awake)).collect();
            let (prof, _) = launch(&active);
            same_profile(
                &prof,
                &candidate_kernel_profile(&dev_spec, cl.k(), active.len(), cfg),
                &label,
            );

            // Every city awake: the slots reduce to the host mirror's move.
            let all: Vec<u32> = (0..n as u32).collect();
            let (_, words) = launch(&all);
            let best = words.into_iter().min().unwrap();
            prop_assert_eq!(
                unpack(best).filter(BestMove::improves),
                cl.best_candidate_move(&inst, &tour)
            );
        }
    }

    #[test]
    fn engine_sweeps_match_the_model_on_the_golden_spiral() {
        for n in [10usize, 100, 700] {
            let inst = instance(n);
            check_small_engine(&inst, &Tour::identity(n), &format!("n={n}"));
        }
        let inst = instance(400);
        check_tiled_engine(&inst, &Tour::identity(400), 57, 256, "n=400 tile=57");
    }

    #[test]
    fn executor_matches_model_at_the_edge_geometries() {
        // P < S: 4851 pairs under the 28 672 threads of 28 × 1024, and
        // the single pair of n = 4 on every geometry.
        check_small(100, LaunchConfig::new(28, 1024), 1);
        for pick in 0..4 {
            check_small(4, geometry(pick, 4, 1, 1), 2);
        }
        // P mod S exactly on a block boundary: n = 101 has 4950 pairs;
        // 3 × 50 leaves 0, 7 × 50 leaves 4950 mod 350 = 50 (one block).
        check_small(101, LaunchConfig::new(3, 50), 3);
        check_small(101, LaunchConfig::new(7, 50), 4);
        // And one past / one short of a boundary.
        check_small(101, LaunchConfig::new(7, 49), 5);
        check_small(101, LaunchConfig::new(7, 51), 6);
    }

    #[test]
    fn model_prices_the_largest_paper_instance_instantly() {
        // lrb744710: 2.77e11 checks per sweep — modeled, not executed.
        let start = std::time::Instant::now();
        let m = model_auto_sweep(&spec::gtx_680_cuda(), 744_710);
        assert!(start.elapsed().as_secs_f64() < 5.0);
        assert_eq!(m.pairs, pair_count(744_710));
        // The paper's Table II reports ~13 s kernel time for this row.
        assert!(
            (1.0..60.0).contains(&m.kernel_seconds),
            "lrb744710 kernel = {} s",
            m.kernel_seconds
        );
        // GFLOP/s saturates near the calibrated 680.
        assert!(
            (500.0..760.0).contains(&m.gflops()),
            "gflops = {}",
            m.gflops()
        );
    }

    #[test]
    fn resident_model_matches_functional_steady_state_exactly() {
        use crate::search::{optimize, SearchOptions};
        let n = 300;
        let inst = instance(n);
        let mut tour = Tour::identity(n);
        let dev_spec = spec::gtx_680_cuda();
        let mut eng = GpuTwoOpt::new(dev_spec.clone()).with_strategy(Strategy::DeviceResident);

        // Sweep 1 (cold): pays the upload and announces a move.
        let (mv, _) = eng.best_move(&inst, &tour).unwrap();
        let m1 = mv.expect("identity tour improves");
        tour.apply_two_opt(m1.i as usize, m1.j as usize);
        // Sweep 2 (steady state): reversal + eval + d2h only.
        let (_, prof) = eng.best_move(&inst, &tour).unwrap();

        let seg_len = (m1.j - m1.i) as usize;
        let m = model_device_resident_sweep(&dev_spec, n, seg_len);
        assert_eq!(m.flops, prof.flops);
        assert_eq!(prof.h2d_seconds, 0.0);
        assert_eq!(m.h2d_seconds, 0.0);
        assert!((m.kernel_seconds - prof.kernel_seconds).abs() < 1e-12);
        assert!((m.reversal_seconds - prof.reversal_seconds).abs() < 1e-12);
        assert!((m.d2h_seconds - prof.d2h_seconds).abs() < 1e-15);

        // And the full descent's accumulated profile stays consistent:
        // reversal time only ever comes from the resident pipeline.
        let stats = optimize(&mut eng, &inst, &mut tour, SearchOptions::default()).unwrap();
        assert!(stats.profile.reversal_seconds >= 0.0);
    }

    #[test]
    fn resident_sweep_beats_serial_sweep_from_a_thousand_cities() {
        // The economics the pipeline exists for: the per-sweep H2D upload
        // (latency + n·8 bytes over PCIe) costs more than an on-device
        // reversal of even the worst-case n/2 segment once n >= 1000.
        let dev_spec = spec::gtx_680_cuda();
        for n in [1000usize, 2000, 6144, 10_000, 100_000] {
            let serial = model_auto_sweep(&dev_spec, n);
            let resident = model_device_resident_sweep(&dev_spec, n, n / 2);
            assert!(
                resident.total_seconds() < serial.total_seconds(),
                "n={n}: resident {} vs serial {}",
                resident.total_seconds(),
                serial.total_seconds()
            );
        }
    }

    #[test]
    fn reversal_scales_with_segment_length_but_stays_cheap() {
        let dev_spec = spec::gtx_680_cuda();
        let short = model_reversal(&dev_spec, 10);
        let long = model_reversal(&dev_spec, 100_000);
        assert!(short <= long);
        // Even a 100k-position reversal (800 kB of traffic on a 192 GB/s
        // pipe) stays well under the 46 us upload latency it replaces.
        assert!(long < 46e-6, "reversal of 100k positions = {long} s");
    }

    #[test]
    fn serial_model_golden_values_are_unchanged() {
        // Regression pin: the device-resident machinery must not perturb
        // the serial Algorithm-2 model by a single bit. These literals
        // were captured from `model_auto_sweep` before the resident
        // pipeline landed; a drift here means the eval kernels' counter
        // accounting changed.
        let dev_spec = spec::gtx_680_cuda();
        let golden: [(usize, f64, f64, f64, u64); 5] = [
            (
                52,
                1.896_318_501_407_977_2e-5,
                4.616_64e-5,
                1.050_32e-5,
                40_800,
            ),
            (
                512,
                2.468_990_879_670_491e-5,
                4.763_84e-5,
                1.050_32e-5,
                4_169_760,
            ),
            (
                1000,
                4.204_277_728_743_747e-5,
                4.92e-5,
                1.050_32e-5,
                15_952_032,
            ),
            (
                6144,
                9.066_012_474_257_135e-4,
                6.566_08e-5,
                1.050_32e-5,
                603_684_896,
            ),
            (
                33_810,
                2.844_794_654_015_886_7e-2,
                1.541_92e-4,
                1.050_32e-5,
                18_288_234_752,
            ),
        ];
        for (n, kernel, h2d, d2h, flops) in golden {
            let m = model_auto_sweep(&dev_spec, n);
            assert_eq!(m.flops, flops, "n={n}");
            assert!(
                (m.kernel_seconds - kernel).abs() <= kernel * 1e-12,
                "n={n}: kernel {} vs golden {kernel}",
                m.kernel_seconds
            );
            assert!((m.h2d_seconds - h2d).abs() <= h2d * 1e-12, "n={n}");
            assert!((m.d2h_seconds - d2h).abs() <= d2h * 1e-12, "n={n}");
            assert_eq!(m.reversal_seconds, 0.0, "serial sweeps never reverse");
        }
    }

    #[test]
    fn candidate_model_matches_functional_executor_exactly() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let dev_spec = spec::gtx_680_cuda();
        let (n, k) = (300usize, 9usize);
        let mut rng = SmallRng::seed_from_u64(77);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let inst = Instance::new("cand-model", Metric::Euc2d, pts).unwrap();
        let mut tour = Tour::random(n, &mut rng);
        let mut eng =
            GpuTwoOpt::new(dev_spec.clone()).with_strategy(Strategy::CandidateResident { k });

        let close = |m: &ModeledSweep, p: &StepProfile, label: &str| {
            assert_eq!(m.pairs, p.pairs_checked, "{label}");
            assert_eq!(m.flops, p.flops, "{label}");
            assert!(
                (m.kernel_seconds - p.kernel_seconds).abs() < 1e-12,
                "{label}: kernel {} vs functional {}",
                m.kernel_seconds,
                p.kernel_seconds
            );
            assert!((m.h2d_seconds - p.h2d_seconds).abs() < 1e-15, "{label}");
            assert!((m.d2h_seconds - p.d2h_seconds).abs() < 1e-15, "{label}");
        };

        // Cold sweep: every city awake, lists uploaded — exactly the
        // serial candidate model at active = n.
        let (mv, p1) = eng.best_move(&inst, &tour).unwrap();
        close(
            &model_candidate_sweep(&dev_spec, n, k, n),
            &p1,
            "cold sweep",
        );

        // Steady state: predict the next work list on the host (cities
        // that kept an improving slot stay awake, the applied move wakes
        // its four endpoints), then check the resident model at that
        // active count — the n·k list upload must have dropped out.
        let m1 = mv.expect("random tour improves");
        let mut awake: Vec<bool> = eng
            .candidate_dont_look()
            .unwrap()
            .iter()
            .map(|&b| !b)
            .collect();
        tour.apply_two_opt(m1.i as usize, m1.j as usize);
        for p in [m1.i, m1.i + 1, m1.j, m1.j + 1] {
            awake[tour.city(p as usize) as usize] = true;
        }
        let active = awake.iter().filter(|&&a| a).count();
        let (_, p2) = eng.best_move(&inst, &tour).unwrap();
        assert_eq!(
            p2.pairs_checked,
            (active * k) as u64,
            "sweep 2 must be a single launch over the predicted work list"
        );
        close(
            &model_candidate_resident_sweep(&dev_spec, n, k, active),
            &p2,
            "steady state",
        );
    }

    #[test]
    fn candidate_model_golden_values_are_unchanged() {
        // Regression pin for the sparse-sweep cost model: FLOP counts
        // are closed-form (active·k·32), and the seconds encode the
        // gather-load byte accounting (40 B per check, 8 B per city in
        // and out) plus the four-transfer upload. Captured at the
        // engine's default gtx_680 geometry; a drift means the candidate
        // kernel's counter accounting changed.
        let dev_spec = spec::gtx_680_cuda();
        // (n, k, active, flops, kernel_s, h2d_s, d2h_s, resident_h2d_s)
        type Golden = (usize, usize, usize, u64, f64, f64, f64, f64);
        let golden: [Golden; 3] = [
            (
                512,
                16,
                512,
                262_144,
                1.919_466_666_666_666_8e-5,
                2.003_84e-4,
                1.213_84e-5,
                1.412_768_000_000_000_2e-4,
            ),
            (
                512,
                16,
                37,
                18_944,
                9.811_333_333_333_332e-6,
                1.996_240_000_000_000_3e-4,
                1.061_84e-5,
                1.405_168e-4,
            ),
            (
                10_000,
                16,
                10_000,
                5_120_000,
                6.237_866_666_666_666e-5,
                5.04e-4,
                4.249_999_999_999_999_6e-5,
                2.019_999_999_999_999_8e-4,
            ),
        ];
        for (n, k, active, flops, kernel, h2d, d2h, resident_h2d) in golden {
            let m = model_candidate_sweep(&dev_spec, n, k, active);
            assert_eq!(m.pairs, (active * k) as u64, "n={n} active={active}");
            assert_eq!(m.flops, flops, "n={n} active={active}");
            assert!(
                (m.kernel_seconds - kernel).abs() <= kernel * 1e-12,
                "n={n} active={active}: kernel {} vs golden {kernel}",
                m.kernel_seconds
            );
            assert!((m.h2d_seconds - h2d).abs() <= h2d * 1e-12, "n={n}");
            assert!((m.d2h_seconds - d2h).abs() <= d2h * 1e-12, "n={n}");
            assert_eq!(m.reversal_seconds, 0.0);
            let r = model_candidate_resident_sweep(&dev_spec, n, k, active);
            assert!(
                (r.h2d_seconds - resident_h2d).abs() <= resident_h2d * 1e-12,
                "n={n} resident h2d {} vs golden {resident_h2d}",
                r.h2d_seconds
            );
            // The two variants differ in upload cost only.
            assert_eq!(r.flops, m.flops);
            assert_eq!(r.kernel_seconds, m.kernel_seconds);
            assert_eq!(r.d2h_seconds, m.d2h_seconds);
        }
    }

    #[test]
    fn candidate_sweep_beats_dense_from_ten_thousand_cities() {
        // The economics the candidate family exists for, pinned at the
        // worst case for the sparse path (every city awake): cheaper
        // than the dense sweep from n = 10⁴ at k = 16, and ≥ 10× faster
        // than the best dense strategy at the paper-scale n = 10⁵.
        let dev_spec = spec::gtx_680_cuda();
        for n in [10_000usize, 31_623, 100_000] {
            let cand = model_candidate_sweep(&dev_spec, n, 16, n).total_seconds();
            let dense = model_auto_sweep(&dev_spec, n).total_seconds();
            let resident = model_device_resident_sweep(&dev_spec, n, n / 2).total_seconds();
            assert!(cand < dense, "n={n}: candidate {cand} vs dense {dense}");
            assert!(
                cand < resident,
                "n={n}: candidate {cand} vs resident {resident}"
            );
        }
        let cand = model_candidate_sweep(&dev_spec, 100_000, 16, 100_000).total_seconds();
        let best_dense = model_device_resident_sweep(&dev_spec, 100_000, 50_000)
            .total_seconds()
            .min(model_auto_sweep(&dev_spec, 100_000).total_seconds());
        assert!(
            cand * 10.0 < best_dense,
            "n=1e5 candidate sweep {cand} not 10x faster than best dense {best_dense}"
        );
    }

    #[test]
    fn gflops_rise_with_problem_size_then_plateau() {
        let spec = spec::gtx_680_cuda();
        let g100 = model_auto_sweep(&spec, 100).gflops();
        let g1000 = model_auto_sweep(&spec, 1000).gflops();
        let g10000 = model_auto_sweep(&spec, 10_000).gflops();
        let g50k = model_auto_sweep(&spec, 50_000).gflops();
        let g100k = model_auto_sweep(&spec, 100_000).gflops();
        assert!(g100 < g1000 && g1000 < g10000, "{g100} {g1000} {g10000}");
        let plateau = (g100k - g50k).abs() / g50k;
        assert!(plateau < 0.05, "plateau drift {plateau}");
    }
}
