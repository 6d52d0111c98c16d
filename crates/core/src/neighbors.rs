//! k-nearest-neighbour candidate lists for the sub-quadratic 2-opt sweep.
//!
//! The paper's §VII names neighbourhood pruning as the main raw-speed
//! lever left once the dense O(n²) sweep is saturated: restrict the
//! move search to pairs whose removed-edge endpoints are geometrically
//! close, dropping a sweep to O(n·k). This module packages the per-city
//! lists the [`crate::gpu`] candidate kernels consume:
//!
//! * [`CandidateLists::build`] — exact k-nearest-neighbour lists from
//!   [`tsp_core::neighbor::NeighborLists`], the workspace's one k-NN
//!   builder (a bucket grid with an O(n²) fallback, bit-identical; ties
//!   break by city index).
//! * [`CandidateLists::closure`] — the symmetric closure `a ∈ cl(b) ⇔
//!   b ∈ cl(a)`, as CSR. The *pair* neighbourhood the sweep explores is
//!   exactly the closure: pair {a, b} is evaluated when either endpoint
//!   lists the other, because the sweep scans every city's own list.
//! * [`CandidateLists::best_candidate_move`] — the host mirror of the
//!   candidate kernel's move search (same f32 delta arithmetic, same
//!   packed-key minimum). `None` means the tour is a 2-opt local
//!   minimum *within the candidate neighbourhood* — the termination
//!   contract the differential tests pin.

use tsp_core::neighbor::NeighborLists;
use tsp_core::{Instance, Point, Tour};

use crate::bestmove::{pack, unpack, BestMove, EMPTY_KEY};
use crate::delta::delta_ordered;

/// Per-city lists of the `k` nearest other cities plus their symmetric
/// closure, in the flattened layouts the device kernels gather from.
#[derive(Debug, Clone)]
pub struct CandidateLists {
    /// Each row sorted by `(distance, index)`.
    lists: NeighborLists,
    /// CSR offsets (`n + 1` entries) into `closure`.
    closure_offsets: Vec<u32>,
    /// Symmetric-closure adjacency, each row sorted by city index.
    closure: Vec<u32>,
}

impl CandidateLists {
    /// Build lists of the `k` nearest neighbours for every city (`k` is
    /// clamped to `n - 1`) and their symmetric closure.
    pub fn build(inst: &Instance, k: usize) -> Self {
        let lists = NeighborLists::build(inst, k);
        let (closure_offsets, closure) = symmetric_closure(inst.len(), &lists);
        CandidateLists {
            lists,
            closure_offsets,
            closure,
        }
    }

    /// Neighbours per city.
    #[inline]
    pub fn k(&self) -> usize {
        self.lists.k()
    }

    /// Number of cities the lists were built over.
    #[inline]
    pub fn len(&self) -> usize {
        self.closure_offsets.len().saturating_sub(1)
    }

    /// `true` when no lists were built.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` nearest neighbours of city `c`, nearest first.
    #[inline]
    pub fn neighbors(&self, c: usize) -> &[u32] {
        self.lists.neighbors(c)
    }

    /// The flattened `n × k` lists, the layout uploaded to the device.
    #[inline]
    pub fn flat(&self) -> &[u32] {
        self.lists.flat()
    }

    /// The symmetric closure of city `c`: every `b` with `b ∈ knn(c)` or
    /// `c ∈ knn(b)`, sorted by index.
    #[inline]
    pub fn closure(&self, c: usize) -> &[u32] {
        let lo = self.closure_offsets[c] as usize;
        let hi = self.closure_offsets[c + 1] as usize;
        &self.closure[lo..hi]
    }

    /// Bytes held by the lists and closure (memory-budget reporting).
    pub fn bytes(&self) -> usize {
        self.lists.bytes()
            + core::mem::size_of_val(&self.closure_offsets[..])
            + core::mem::size_of_val(&self.closure[..])
    }

    /// The best improving candidate move on `tour`, as the packed-key
    /// minimum over every (city, listed neighbour) pair — the exact
    /// host mirror of the candidate sweep kernel with all don't-look
    /// bits clear. `None` certifies a candidate-local minimum.
    pub fn best_candidate_move(&self, inst: &Instance, tour: &Tour) -> Option<BestMove> {
        let n = tour.len();
        let ordered: Vec<Point> = (0..n).map(|p| inst.point(tour.city(p) as usize)).collect();
        let mut pos = vec![0u32; n];
        for p in 0..n {
            pos[tour.city(p) as usize] = p as u32;
        }
        let mut best = EMPTY_KEY;
        for a in 0..n {
            let i = pos[a] as usize;
            for &b in self.neighbors(a) {
                let p = pos[b as usize] as usize;
                let (lo, hi) = if i < p { (i, p) } else { (p, i) };
                if lo == hi || hi > n - 2 {
                    continue;
                }
                let delta = delta_ordered(&ordered, lo, hi);
                best = best.min(pack(delta, lo as u32, hi as u32));
            }
        }
        unpack(best).filter(BestMove::improves)
    }
}

/// Union the directed k-NN lists into the symmetric closure, as CSR
/// with each row sorted and deduplicated.
fn symmetric_closure(n: usize, lists: &NeighborLists) -> (Vec<u32>, Vec<u32>) {
    let k = lists.k();
    let mut adj: Vec<Vec<u32>> = vec![Vec::with_capacity(k); n];
    for a in 0..n {
        for &b in lists.neighbors(a) {
            adj[a].push(b);
            adj[b as usize].push(a as u32);
        }
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut closure = Vec::with_capacity(2 * n * k);
    offsets.push(0u32);
    for row in &mut adj {
        row.sort_unstable();
        row.dedup();
        closure.extend_from_slice(row);
        offsets.push(closure.len() as u32);
    }
    (offsets, closure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tsp_core::Metric;

    fn scatter(n: usize, seed: u64) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        Instance::new("scatter", Metric::Euc2d, pts).unwrap()
    }

    #[test]
    fn grid_and_brute_paths_agree_bit_for_bit() {
        // n and k chosen so `build` takes the grid path; the same
        // distances as an explicit matrix take the dense path.
        let inst = scatter(400, 3);
        let n = inst.len();
        let full = (0..n * n).map(|x| inst.dist(x / n, x % n)).collect();
        let m = tsp_core::ExplicitMatrix::from_full(n, full).unwrap();
        let dense = Instance::from_matrix("dense", m, None).unwrap();
        let built = CandidateLists::build(&inst, 8);
        assert_eq!(built.flat(), CandidateLists::build(&dense, 8).flat());
    }

    #[test]
    fn rows_are_the_true_k_nearest_sorted() {
        let inst = scatter(120, 9);
        let cl = CandidateLists::build(&inst, 6);
        for c in 0..inst.len() {
            let mut all: Vec<(i32, u32)> = (0..inst.len())
                .filter(|&j| j != c)
                .map(|j| (inst.dist(c, j), j as u32))
                .collect();
            all.sort_unstable();
            let expected: Vec<u32> = all.into_iter().take(6).map(|(_, j)| j).collect();
            assert_eq!(cl.neighbors(c), &expected[..], "city {c}");
        }
    }

    #[test]
    fn closure_is_symmetric_and_covers_the_lists() {
        let inst = scatter(200, 5);
        let cl = CandidateLists::build(&inst, 5);
        for a in 0..inst.len() {
            for &b in cl.neighbors(a) {
                assert!(cl.closure(a).contains(&b));
                assert!(cl.closure(b as usize).contains(&(a as u32)));
            }
            for &b in cl.closure(a) {
                assert!(
                    cl.neighbors(a).contains(&b) || cl.neighbors(b as usize).contains(&(a as u32))
                );
            }
            assert!(cl.closure(a).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn k_clamps_to_n_minus_1_and_degenerate_inputs_build() {
        // n ≤ k.
        let small = scatter(4, 1);
        let cl = CandidateLists::build(&small, 100);
        assert_eq!(cl.k(), 3);
        assert_eq!(cl.neighbors(0).len(), 3);
        // All points coincident.
        let dup = Instance::new("dup", Metric::Euc2d, vec![Point::new(7.0, 7.0); 12]).unwrap();
        let cl = CandidateLists::build(&dup, 4);
        for c in 0..12 {
            assert_eq!(cl.neighbors(c).len(), 4);
            assert!(!cl.neighbors(c).contains(&(c as u32)));
        }
        // Collinear points.
        let line = Instance::new(
            "line",
            Metric::Euc2d,
            (0..30).map(|i| Point::new(i as f32, 0.0)).collect(),
        )
        .unwrap();
        let cl = CandidateLists::build(&line, 3);
        assert_eq!(cl.neighbors(0), &[1, 2, 3]);
        // k = 0 is an empty but well-formed structure.
        let cl = CandidateLists::build(&line, 0);
        assert_eq!(cl.k(), 0);
        assert_eq!(cl.len(), 30);
        assert!(cl.closure(7).is_empty());
    }

    #[test]
    fn best_candidate_move_finds_a_crossing_and_certifies_the_optimum() {
        let inst = Instance::new(
            "square",
            Metric::Euc2d,
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 10.0),
                Point::new(10.0, 10.0),
                Point::new(10.0, 0.0),
            ],
        )
        .unwrap();
        let cl = CandidateLists::build(&inst, 2);
        let crossing = Tour::new(vec![0, 2, 1, 3]).unwrap();
        let mv = cl.best_candidate_move(&inst, &crossing).unwrap();
        assert!(mv.improves());
        let mut fixed = crossing.clone();
        fixed.apply_two_opt(mv.i as usize, mv.j as usize);
        assert!(cl.best_candidate_move(&inst, &fixed).is_none());
    }

    #[test]
    fn matrix_instances_take_the_dense_path() {
        // No coordinates: `build` must still work via `inst.dist`.
        let m = tsp_core::ExplicitMatrix::from_full(
            4,
            vec![0, 2, 9, 4, 2, 0, 3, 8, 9, 3, 0, 1, 4, 8, 1, 0],
        )
        .unwrap();
        let inst = Instance::from_matrix("m", m, None).unwrap();
        let cl = CandidateLists::build(&inst, 2);
        assert_eq!(cl.neighbors(0), &[1, 3]);
        assert_eq!(cl.neighbors(2), &[3, 1]);
    }
}
