//! Sub-quadratic candidate-list 2-opt sweep (the §VII "neighborhood
//! pruning" future-work item, on the device).
//!
//! Instead of the dense O(n²) pair scan, each *active* city `a` (one
//! whose don't-look bit is clear) evaluates only the moves that remove
//! its tour edge together with the edge of one of its `k` nearest
//! neighbours: `O(active · k)` checks per sweep. The access pattern is
//! gather-heavy — a neighbour id from the candidate list, that city's
//! tour position, then the four route-ordered points — so the modeled
//! per-check traffic is [`CANDIDATE_BYTES_PER_CHECK`], larger per check
//! than the dense kernels' staged loads but vastly fewer checks.
//!
//! Divergence note: skipped pairs (adjacent positions, or `hi` past the
//! last movable edge) are charged like evaluated ones. SIMT lanes run
//! the candidate loop in lockstep, so a skipped lane saves no time; the
//! uniform accounting also keeps the analytic
//! [`crate::gpu::model_candidate_sweep`] bit-exact against this
//! executor from `(n, k, active)` alone.
//!
//! Each active city writes its thread-local best as one packed word to
//! its own output slot — no atomics, no shared memory. The host reduces
//! the `active`-sized result vector (u64 min, identical tie-break to the
//! dense kernels' `fetch_min`) and uses the per-slot words to settle
//! don't-look bits: a city whose slot came back non-improving is put to
//! sleep until an applied move touches one of its tour neighbours.

use crate::bestmove::{pack, EMPTY_KEY};
use crate::cpu_model::BYTES_PER_CHECK;
use crate::delta::FLOPS_PER_CHECK;
use gpu_sim::{AtomicDeviceBuffer, BlockCtx, DeviceBuffer, Kernel};
use tsp_core::Point;

/// Modeled global-memory bytes gathered per candidate check: the
/// neighbour id (4 B), its position (4 B) and the four route-ordered
/// points (32 B, as in the dense kernels).
pub const CANDIDATE_BYTES_PER_CHECK: u64 = BYTES_PER_CHECK + 8;

/// Modeled global-memory bytes read once per handled active city: its
/// work-list entry (4 B) and its own position (4 B).
pub const CANDIDATE_CITY_READ_BYTES: u64 = 8;

/// Modeled global-memory bytes written once per handled active city:
/// the packed best-move word of its slot.
pub const CANDIDATE_CITY_WRITE_BYTES: u64 = 8;

/// The candidate-list evaluation kernel.
///
/// One output slot per entry of `active`; slot `s` receives the packed
/// best move among the candidate pairs of city `active[s]`, or
/// [`EMPTY_KEY`] when none improves.
pub struct CandidateSweepKernel<'a> {
    /// Route-ordered coordinates (position-indexed, Optimization 2).
    pub coords: &'a DeviceBuffer<Point>,
    /// City → tour position.
    pub pos: &'a DeviceBuffer<u32>,
    /// Flattened `n × k` candidate lists (city ids).
    pub lists: &'a DeviceBuffer<u32>,
    /// Neighbours per city.
    pub k: usize,
    /// Work list: the cities whose don't-look bits are clear.
    pub active: &'a DeviceBuffer<u32>,
    /// Per-active-city packed best-move slots.
    pub out: &'a AtomicDeviceBuffer,
}

impl Kernel for CandidateSweepKernel<'_> {
    fn shared_bytes(&self) -> usize {
        0
    }

    fn num_phases(&self) -> usize {
        1
    }

    fn label(&self) -> &str {
        "2opt-eval-candidate"
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let n = self.coords.len();
        let pts = self.coords.as_slice();
        let pos = self.pos.as_slice();
        let lists = self.lists.as_slice();
        let active = self.active.as_slice();
        let stride = blk.total_threads() as usize;
        let base = blk.first_thread_id() as usize;
        let mut cities = 0u64;
        // Every thread's strided slots: thread `base + t` takes slots
        // `base + t, base + t + stride, …`.
        for first in base..base + blk.block_dim as usize {
            for (slot, &a) in active.iter().enumerate().skip(first).step_by(stride) {
                let a = a as usize;
                let i = pos[a] as usize;
                let mut best = EMPTY_KEY;
                for &b in &lists[a * self.k..(a + 1) * self.k] {
                    let p = pos[b as usize] as usize;
                    let (lo, hi) = if i < p { (i, p) } else { (p, i) };
                    // Same pair space as the dense sweep: 0 ≤ lo < hi ≤ n-2.
                    if lo == hi || hi + 2 > n {
                        continue;
                    }
                    let (pi, pi1, pj, pj1) = (pts[lo], pts[lo + 1], pts[hi], pts[hi + 1]);
                    let d =
                        (pi.euc_2d(&pj) + pi1.euc_2d(&pj1)) - (pi.euc_2d(&pi1) + pj.euc_2d(&pj1));
                    let key = pack(d, lo as u32, hi as u32);
                    if key < best {
                        best = key;
                    }
                }
                self.out.store(slot, best);
                cities += 1;
            }
        }
        // Uniform accounting: all k lanes pay, evaluated or skipped.
        let checks = cities * self.k as u64;
        blk.flops(checks * FLOPS_PER_CHECK);
        blk.global_read(cities * CANDIDATE_CITY_READ_BYTES + checks * CANDIDATE_BYTES_PER_CHECK);
        blk.global_write(cities * CANDIDATE_CITY_WRITE_BYTES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bestmove::{unpack, BestMove};
    use crate::gpu::small::{GlobalOnlyKernel, RESULT_SLOT};
    use crate::neighbors::CandidateLists;
    use gpu_sim::{spec, Device, LaunchConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tsp_core::{Instance, Metric, Tour};

    fn scatter(n: usize, seed: u64) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        Instance::new("scatter", Metric::Euc2d, pts).unwrap()
    }

    /// Launch the kernel with every city active; return the host-reduced
    /// best key and the per-slot words.
    fn sweep(inst: &Instance, tour: &Tour, k: usize, cfg: LaunchConfig) -> (u64, Vec<u64>) {
        let n = tour.len();
        let dev = Device::new(spec::gtx_680_cuda());
        let cl = CandidateLists::build(inst, k);
        let ordered: Vec<Point> = tour
            .as_slice()
            .iter()
            .map(|&c| inst.point(c as usize))
            .collect();
        let mut pos = vec![0u32; n];
        for (p, &c) in tour.as_slice().iter().enumerate() {
            pos[c as usize] = p as u32;
        }
        let active: Vec<u32> = (0..n as u32).collect();
        let (coords, _) = dev.copy_to_device(&ordered).unwrap();
        let (pos, _) = dev.copy_to_device(&pos).unwrap();
        let (lists, _) = dev.copy_to_device(cl.flat()).unwrap();
        let (active, _) = dev.copy_to_device(&active).unwrap();
        let out = dev.alloc_atomic(n, EMPTY_KEY).unwrap();
        let kernel = CandidateSweepKernel {
            coords: &coords,
            pos: &pos,
            lists: &lists,
            k: cl.k(),
            active: &active,
            out: &out,
        };
        dev.launch(cfg, &kernel).unwrap();
        let words = out.to_vec();
        (words.iter().copied().min().unwrap(), words)
    }

    #[test]
    fn kernel_matches_the_host_mirror() {
        let inst = scatter(120, 8);
        let mut rng = SmallRng::seed_from_u64(3);
        let tour = Tour::random(120, &mut rng);
        let cl = CandidateLists::build(&inst, 6);
        let expected = cl.best_candidate_move(&inst, &tour);
        let (key, words) = sweep(&inst, &tour, 6, LaunchConfig::new(4, 32));
        assert_eq!(unpack(key).filter(BestMove::improves), expected);
        // Slot s belongs to city s here (identity active list): each
        // word must be the city's own best candidate move.
        for (city, &w) in words.iter().enumerate() {
            if let Some(m) = unpack(w) {
                assert!(
                    cl.neighbors(city)
                        .iter()
                        .any(|&b| tour.city(m.i as usize) == b
                            || tour.city(m.j as usize) == b
                            || tour.city(m.i as usize) == city as u32
                            || tour.city(m.j as usize) == city as u32),
                    "city {city} produced a move not touching its list"
                );
            }
        }
    }

    #[test]
    fn complete_lists_reproduce_the_dense_best_move() {
        let n = 64;
        let inst = scatter(n, 5);
        let mut rng = SmallRng::seed_from_u64(11);
        let tour = Tour::random(n, &mut rng);
        let (key, _) = sweep(&inst, &tour, n - 1, LaunchConfig::new(4, 64));

        let dev = Device::new(spec::gtx_680_cuda());
        let ordered: Vec<Point> = tour
            .as_slice()
            .iter()
            .map(|&c| inst.point(c as usize))
            .collect();
        let (coords, _) = dev.copy_to_device(&ordered).unwrap();
        let out = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
        dev.launch(
            LaunchConfig::new(4, 64),
            &GlobalOnlyKernel {
                coords: &coords,
                out: &out,
            },
        )
        .unwrap();
        assert_eq!(key, out.load(RESULT_SLOT));
    }

    #[test]
    fn counters_are_a_function_of_active_and_k_alone() {
        // Same n/k/active sizes, different geometry: the per-launch
        // totals must agree (this is what lets the analytic model pin
        // them without running the kernel).
        let inst = scatter(90, 2);
        let tour = Tour::identity(90);
        let dev = Device::new(spec::gtx_680_cuda());
        let cl = CandidateLists::build(&inst, 5);
        let ordered: Vec<Point> = tour
            .as_slice()
            .iter()
            .map(|&c| inst.point(c as usize))
            .collect();
        let pos: Vec<u32> = (0..90u32).collect();
        let active: Vec<u32> = (0..90u32).collect();
        let (coords, _) = dev.copy_to_device(&ordered).unwrap();
        let (pos, _) = dev.copy_to_device(&pos).unwrap();
        let (lists, _) = dev.copy_to_device(cl.flat()).unwrap();
        let (active, _) = dev.copy_to_device(&active).unwrap();
        let mut totals = Vec::new();
        for cfg in [LaunchConfig::new(2, 32), LaunchConfig::new(7, 19)] {
            let out = dev.alloc_atomic(90, EMPTY_KEY).unwrap();
            let k = CandidateSweepKernel {
                coords: &coords,
                pos: &pos,
                lists: &lists,
                k: cl.k(),
                active: &active,
                out: &out,
            };
            let p = dev.launch(cfg, &k).unwrap();
            totals.push((
                p.counters.flops,
                p.counters.global_read_bytes,
                p.counters.global_write_bytes,
                p.counters.atomic_ops,
            ));
        }
        assert_eq!(totals[0], totals[1]);
        let checks = 90 * 5u64;
        assert_eq!(totals[0].0, checks * FLOPS_PER_CHECK);
        assert_eq!(
            totals[0].1,
            90 * CANDIDATE_CITY_READ_BYTES + checks * CANDIDATE_BYTES_PER_CHECK
        );
        assert_eq!(totals[0].2, 90 * CANDIDATE_CITY_WRITE_BYTES);
        assert_eq!(totals[0].3, 0);
    }
}
