//! The multi-core CPU engine — the stand-in for the paper's parallel
//! OpenCL CPU implementation ("The CPU parallel implementation based on
//! OpenCL", 6–16 cores).
//!
//! The linear pair-index space of the triangular scheme is split into
//! contiguous chunks; each worker takes its chunk's packed-key minimum
//! with the GPU kernels' row walk ([`crate::delta::best_key_in_cells`]),
//! and the chunk keys reduce with `u64::min` — the packed-atomic GPU
//! reduction's order, lowest `(delta, i, j)` — so all engines agree
//! bit-for-bit, ties included.

use crate::bestmove::{unpack, BestMove, EMPTY_KEY};
use crate::cpu_model::{flops_for_pairs, model_cpu_sweep_seconds};
use crate::delta::best_key_in_cells;
use crate::indexing::pair_count;
use crate::search::{EngineError, StepProfile, TwoOptEngine};
use gpu_sim::DeviceSpec;
use rayon::prelude::*;
use tsp_core::{Instance, Point, Tour};

/// Multi-threaded exact 2-opt engine (rayon).
pub struct CpuParallelTwoOpt {
    spec: DeviceSpec,
    /// Number of chunks to split the pair space into (default:
    /// 8 × available parallelism, for load balance).
    chunks: usize,
    ordered: Vec<Point>,
}

impl CpuParallelTwoOpt {
    /// Engine modeled as the paper's 6-core host CPU (i7-3960X).
    pub fn new() -> Self {
        Self::with_spec(gpu_sim::spec::core_i7_3960x())
    }

    /// Engine with an explicit CPU spec (e.g. the dual Xeon of Fig. 10).
    pub fn with_spec(spec: DeviceSpec) -> Self {
        let chunks = rayon::current_num_threads().max(1) * 8;
        CpuParallelTwoOpt {
            spec,
            chunks,
            ordered: Vec::new(),
        }
    }

    /// Override the chunk count (ablation / tests).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks.max(1);
        self
    }
}

impl Default for CpuParallelTwoOpt {
    fn default() -> Self {
        Self::new()
    }
}

impl TwoOptEngine for CpuParallelTwoOpt {
    fn name(&self) -> String {
        format!("cpu-parallel[{}]", self.spec.name)
    }

    fn best_move(
        &mut self,
        inst: &Instance,
        tour: &Tour,
    ) -> Result<(Option<BestMove>, StepProfile), EngineError> {
        if !inst.is_coordinate_based() {
            return Err(EngineError::Unsupported(
                "the parallel CPU engine mirrors the coordinate kernels; \
                 explicit-matrix instances are served by SequentialTwoOpt"
                    .into(),
            ));
        }
        let n = tour.len();
        let pairs = pair_count(n);
        if pairs == 0 {
            return Ok((None, StepProfile::default()));
        }

        self.ordered.clear();
        self.ordered
            .extend(tour.as_slice().iter().map(|&c| inst.point(c as usize)));
        let pts = &self.ordered;

        let chunks = (self.chunks as u64).min(pairs);
        let per = pairs.div_ceil(chunks);
        let best = (0..chunks)
            .into_par_iter()
            .map(|c| best_key_in_cells(pts, c * per..((c + 1) * per).min(pairs)))
            .reduce(|| EMPTY_KEY, u64::min);

        let profile = StepProfile {
            pairs_checked: pairs,
            flops: flops_for_pairs(pairs),
            kernel_seconds: model_cpu_sweep_seconds(&self.spec, pairs),
            reversal_seconds: 0.0,
            h2d_seconds: 0.0,
            d2h_seconds: 0.0,
        };
        Ok((unpack(best).filter(BestMove::improves), profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialTwoOpt;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tsp_core::Metric;

    fn random_instance(n: usize, seed: u64) -> Instance {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1000.0f32), rng.gen_range(0.0..1000.0f32)))
            .collect();
        Instance::new(format!("rand{n}"), Metric::Euc2d, pts).unwrap()
    }

    #[test]
    fn agrees_with_sequential_on_random_instances() {
        for seed in 0..5 {
            let inst = random_instance(60, seed);
            let mut rng = SmallRng::seed_from_u64(seed + 1000);
            let tour = Tour::random(60, &mut rng);
            let mut seq = SequentialTwoOpt::new();
            let mut par = CpuParallelTwoOpt::new().with_chunks(13);
            let (ms, ps) = seq.best_move(&inst, &tour).unwrap();
            let (mp, pp) = par.best_move(&inst, &tour).unwrap();
            assert_eq!(ms, mp, "seed {seed}");
            assert_eq!(ps.pairs_checked, pp.pairs_checked);
        }
    }

    #[test]
    fn chunk_walk_covers_whole_space() {
        // Any split of the pair space, down to one pair per chunk,
        // reduces to the single-chunk move.
        let inst = random_instance(30, 9);
        let tour = Tour::identity(30);
        let whole = CpuParallelTwoOpt::new()
            .with_chunks(1)
            .best_move(&inst, &tour);
        let whole = whole.unwrap().0;
        assert!(whole.is_some());
        for chunks in [2, 7, 64, pair_count(30) as usize + 5] {
            let mut par = CpuParallelTwoOpt::new().with_chunks(chunks);
            assert_eq!(par.best_move(&inst, &tour).unwrap().0, whole, "{chunks}");
        }
    }

    #[test]
    fn rejects_explicit_instances() {
        use tsp_core::ExplicitMatrix;
        let m = ExplicitMatrix::from_upper_row(4, &[1, 2, 3, 4, 5, 6]).unwrap();
        let inst = Instance::from_matrix("em", m, None).unwrap();
        let tour = Tour::identity(4);
        let mut par = CpuParallelTwoOpt::new();
        assert!(matches!(
            par.best_move(&inst, &tour),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn modeled_time_positive_and_scales() {
        let inst = random_instance(100, 3);
        let tour = Tour::identity(100);
        let mut par = CpuParallelTwoOpt::new();
        let (_, p100) = par.best_move(&inst, &tour).unwrap();
        let inst2 = random_instance(400, 3);
        let tour2 = Tour::identity(400);
        let (_, p400) = par.best_move(&inst2, &tour2).unwrap();
        assert!(p400.kernel_seconds > p100.kernel_seconds);
        assert!(p100.kernel_seconds > 0.0);
    }
}
