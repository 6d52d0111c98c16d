//! The Multiple Fragment (greedy edge) heuristic — the paper's starting
//! point for Table II: "The last 3 columns show the time needed from an
//! initial solution based on the Multiple Fragment (Greedy) heuristic
//! \[Bentley\] to the local minimum found by the algorithm".
//!
//! Edges are taken in increasing `(d, a, b)` order (`a < b`, so ties
//! break by index); an edge is accepted when neither endpoint has degree
//! 2 yet and it would not close a sub-cycle. The accepted edges form
//! fragments that end as one Hamiltonian path, closed into a tour.
//!
//! Two modes share one linker:
//! * exact (n ≤ 3000, or an explicit matrix): no candidate edges, the
//!   linker builds the whole tour — Bentley's greedy over all
//!   `n(n-1)/2` edges without materialising them;
//! * k-NN (larger coordinate instances): the k-nearest-neighbour edges
//!   from [`NeighborLists`] are sorted and scanned first, and the linker
//!   joins the fragments they leave.
//!
//! The linker keeps a min-heap holding, for each live endpoint `a`
//! (degree < 2), its best feasible partner `b`, keyed
//! `(d, min(a,b), max(a,b))`. Feasibility only shrinks — degrees rise and
//! fragments merge — so a stored key is a lower bound on its endpoint's
//! current best, and a popped entry that is still feasible is the global
//! minimum: exactly the edge a sorted scan over all pairs would accept
//! next. A stale pop rescans the live endpoints for its owner's new best
//! partner and pushes that back. Memory is O(n); time is O(pops × live
//! endpoints), O(n²) in exact mode. Fragment identity is one `other_end`
//! array: endpoints `a` and `b` share a fragment iff `b == other_end[a]`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tsp_core::neighbor::NeighborLists;
use tsp_core::{Instance, Tour};

/// Above this size, scan k-NN candidate edges before linking.
const ALL_PAIRS_LIMIT: usize = 3000;
/// Neighbours per city for the candidate generator.
const KNN: usize = 12;

/// Build a tour with the Multiple Fragment heuristic.
pub fn multiple_fragment(inst: &Instance) -> Tour {
    let n = inst.len();
    if n <= ALL_PAIRS_LIMIT || !inst.is_coordinate_based() {
        multiple_fragment_exact(inst)
    } else {
        multiple_fragment_knn(inst, KNN)
    }
}

/// Exact greedy over all edges (O(n²) time, O(n) memory).
pub fn multiple_fragment_exact(inst: &Instance) -> Tour {
    Fragments::new(inst.len()).link(inst)
}

/// Greedy over k-NN candidate edges (O(n·k log(n·k))); the fragments
/// they leave are joined by the exact linker.
pub fn multiple_fragment_knn(inst: &Instance, k: usize) -> Tour {
    let mut frags = Fragments::new(inst.len());
    for (_, a, b) in candidate_edges(inst, k) {
        frags.join(a, b);
    }
    frags.link(inst)
}

/// The k-NN candidate edges `(d, a, b)`, `a < b`, sorted and deduplicated.
fn candidate_edges(inst: &Instance, k: usize) -> Vec<(i32, u32, u32)> {
    let lists = NeighborLists::build(inst, k);
    let mut edges: Vec<(i32, u32, u32)> = Vec::with_capacity(inst.len() * k);
    for i in 0..inst.len() as u32 {
        for &j in lists.neighbors(i as usize) {
            let (a, b) = (i.min(j), i.max(j));
            edges.push((inst.dist(a as usize, b as usize), a, b));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Path fragments over `0..n`: degrees, adjacency, and for every endpoint
/// the far end of its fragment (itself while isolated).
struct Fragments {
    degree: Vec<u8>,
    adj: Vec<[u32; 2]>,
    other_end: Vec<u32>,
    edges: usize,
}

impl Fragments {
    fn new(n: usize) -> Self {
        Fragments {
            degree: vec![0; n],
            adj: vec![[u32::MAX; 2]; n],
            other_end: (0..n as u32).collect(),
            edges: 0,
        }
    }

    /// Accept edge `a`–`b` unless it would raise a degree past 2 or close
    /// a cycle; `false` when rejected.
    fn join(&mut self, a: u32, b: u32) -> bool {
        let (ea, eb) = (self.other_end[a as usize], self.other_end[b as usize]);
        if a == b || self.degree[a as usize] >= 2 || self.degree[b as usize] >= 2 || ea == b {
            return false;
        }
        self.other_end[ea as usize] = eb;
        self.other_end[eb as usize] = ea;
        for (u, v) in [(a, b), (b, a)] {
            let d = &mut self.degree[u as usize];
            self.adj[u as usize][*d as usize] = v;
            *d += 1;
        }
        self.edges += 1;
        true
    }

    /// Join the remaining fragments greedily (the lazy-heap linker of the
    /// module doc), then walk the Hamiltonian path into a tour.
    fn link(mut self, inst: &Instance) -> Tour {
        let n = inst.len();
        let mut live: Vec<u32> = (0..n as u32)
            .filter(|&v| self.degree[v as usize] < 2)
            .collect();
        // `a`'s best joinable partner, as a heap entry. `live` is exactly
        // the cities of degree < 2, so only `a`'s own fragment is excluded.
        let best = |frags: &Self, live: &[u32], a: u32| {
            let other = frags.other_end[a as usize];
            let key = live
                .iter()
                .filter(|&&b| b != a && b != other)
                .map(|&b| {
                    let (lo, hi) = (a.min(b), a.max(b));
                    (inst.dist(lo as usize, hi as usize), lo, hi)
                })
                .min()?;
            Some(Reverse((key, a)))
        };
        let mut heap: BinaryHeap<_> = live.iter().filter_map(|&a| best(&self, &live, a)).collect();
        while self.edges + 1 < n {
            let Reverse(((_, lo, hi), a)) = heap
                .pop()
                .expect("two fragments always leave a joinable pair");
            if self.join(lo, hi) {
                live.retain(|&v| self.degree[v as usize] < 2);
            }
            if self.degree[a as usize] < 2 {
                heap.extend(best(&self, &live, a));
            }
        }
        self.walk()
    }

    /// Walk the Hamiltonian path from one of its two ends.
    fn walk(&self) -> Tour {
        let n = self.degree.len();
        let start = (0..n).find(|&v| self.degree[v] <= 1).unwrap_or(0);
        let mut order = Vec::with_capacity(n);
        let mut prev = u32::MAX;
        let mut cur = start as u32;
        for _ in 0..n {
            order.push(cur);
            let [x, y] = self.adj[cur as usize];
            let next = if x != prev && x != u32::MAX { x } else { y };
            prev = cur;
            cur = next;
            if cur == u32::MAX {
                break;
            }
        }
        debug_assert_eq!(order.len(), n);
        Tour::new(order).expect("multiple fragment produces a permutation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tsp_core::{ExplicitMatrix, Metric, Point};
    use tsp_tsplib::{generate, Style};

    /// The oracle the linker must reproduce bit for bit: scan `edges` in
    /// order, then link the nearest endpoint pair of distinct fragments one
    /// at a time, rescanning every endpoint pair per link.
    fn reference(inst: &Instance, edges: &[(i32, u32, u32)]) -> Tour {
        let n = inst.len();
        let mut degree = vec![0u8; n];
        let mut comp: Vec<usize> = (0..n).collect();
        let mut frags = Fragments::new(n);
        let mut edges = edges.iter().map(|&(_, a, b)| (a as usize, b as usize));
        while frags.edges < n - 1 {
            let (a, b) = edges.next().unwrap_or_else(|| {
                let ends: Vec<usize> = (0..n).filter(|&v| degree[v] < 2).collect();
                let mut best: Option<(i32, usize, usize)> = None;
                for (idx, &a) in ends.iter().enumerate() {
                    for &b in &ends[idx + 1..] {
                        let d = inst.dist(a, b);
                        if comp[a] != comp[b] && best.is_none_or(|(bd, _, _)| d < bd) {
                            best = Some((d, a, b));
                        }
                    }
                }
                let (_, a, b) = best.expect("two fragments leave a joinable pair");
                (a, b)
            });
            if degree[a] < 2 && degree[b] < 2 && comp[a] != comp[b] {
                let (from, to) = (comp[b], comp[a]);
                comp.iter_mut()
                    .filter(|c| **c == from)
                    .for_each(|c| *c = to);
                degree[a] += 1;
                degree[b] += 1;
                assert!(frags.join(a as u32, b as u32));
            }
        }
        frags.walk()
    }

    /// All `n(n-1)/2` edges `(d, a, b)`, `a < b`, sorted.
    fn all_pairs(inst: &Instance) -> Vec<(i32, u32, u32)> {
        let n = inst.len() as u32;
        let mut edges: Vec<_> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (inst.dist(a as usize, b as usize), a, b)))
            .collect();
        edges.sort_unstable();
        edges
    }

    /// An instance rich in distance ties: integer lattice points (with
    /// duplicates), collinear points, uniform points, or an explicit
    /// symmetric matrix with repeated entries.
    fn tie_heavy_instance(n: usize, family: u8, seed: u64) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let points: Vec<Point> = match family {
            0 => {
                let side = rng.gen_range(1..=30);
                (0..n)
                    .map(|_| {
                        Point::new(
                            rng.gen_range(0..=side) as f32,
                            rng.gen_range(0..=side) as f32,
                        )
                    })
                    .collect()
            }
            1 => (0..n)
                .map(|_| {
                    let t = rng.gen_range(0..=n as i32 / 2) as f32;
                    Point::new(3.0 * t, 2.0 * t)
                })
                .collect(),
            2 => (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect(),
            _ => {
                let mut w = vec![0i32; n * n];
                for i in 0..n {
                    for j in i + 1..n {
                        let d = rng.gen_range(0..=5);
                        w[i * n + j] = d;
                        w[j * n + i] = d;
                    }
                }
                let m = ExplicitMatrix::from_full(n, w).unwrap();
                return Instance::from_matrix("mf-matrix", m, None).unwrap();
            }
        };
        Instance::new("mf-points", Metric::Euc2d, points).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn linker_tours_equal_the_sorted_scan_oracle(
            n in 3usize..400,
            family in 0u8..4,
            seed in any::<u64>(),
        ) {
            let inst = tie_heavy_instance(n, family, seed);
            let oracle = reference(&inst, &all_pairs(&inst));
            let exact = multiple_fragment_exact(&inst);
            prop_assert_eq!(exact.as_slice(), oracle.as_slice());
            if inst.is_coordinate_based() {
                for k in [1, 2, 3, 12] {
                    let oracle = reference(&inst, &candidate_edges(&inst, k));
                    let knn = multiple_fragment_knn(&inst, k);
                    prop_assert_eq!(knn.as_slice(), oracle.as_slice(), "k = {}", k);
                }
            }
        }
    }

    #[test]
    fn production_size_knn_tour_is_pinned() {
        // Length and FNV-1a digest of the visiting order, recorded with the
        // sorted-scan and min-scan-linking implementation `reference` keeps.
        let inst = generate("mf-pin", 20_000, Style::Clustered { clusters: 200 }, 911);
        let t = multiple_fragment(&inst);
        let digest = t
            .as_slice()
            .iter()
            .flat_map(|c| c.to_le_bytes())
            .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
            });
        assert_eq!(
            (t.length(&inst), digest),
            (1_107_648, 0xaa3c_f1cd_a4f4_b3d9)
        );
    }

    #[test]
    fn square_greedy_is_the_perimeter() {
        let inst = Instance::new(
            "square4",
            Metric::Euc2d,
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 10.0),
                Point::new(10.0, 10.0),
                Point::new(10.0, 0.0),
            ],
        )
        .unwrap();
        let t = multiple_fragment(&inst);
        assert_eq!(t.length(&inst), 40);
    }

    #[test]
    fn greedy_beats_identity_on_random_fields() {
        for seed in 0..3 {
            let inst = generate("mf", 200, Style::Uniform, seed);
            let t = multiple_fragment(&inst);
            t.validate().unwrap();
            assert!(t.length(&inst) < Tour::identity(200).length(&inst) / 2);
        }
    }

    #[test]
    fn knn_variant_close_to_exact() {
        let inst = generate("mfk", 400, Style::Clustered { clusters: 8 }, 3);
        let exact = multiple_fragment_exact(&inst);
        let knn = multiple_fragment_knn(&inst, 10);
        knn.validate().unwrap();
        let gap = (knn.length(&inst) - exact.length(&inst)) as f64 / exact.length(&inst) as f64;
        assert!(gap.abs() < 0.10, "k-NN MF gap vs exact = {gap:.3}");
    }

    #[test]
    fn handles_collinear_points() {
        let pts = (0..20).map(|i| Point::new(i as f32 * 7.0, 0.0)).collect();
        let inst = Instance::new("line", Metric::Euc2d, pts).unwrap();
        let t = multiple_fragment(&inst);
        t.validate().unwrap();
        // Optimal line tour: down and back = 2 * 19 * 7.
        assert_eq!(t.length(&inst), 2 * 19 * 7);
    }

    #[test]
    fn works_on_explicit_matrices() {
        use tsp_core::ExplicitMatrix;
        // A 4-cycle where 0-1,1-2,2-3,3-0 are cheap.
        let m = ExplicitMatrix::from_full(4, vec![0, 1, 9, 1, 1, 0, 1, 9, 9, 1, 0, 1, 1, 9, 1, 0])
            .unwrap();
        let inst = Instance::from_matrix("cyc", m, None).unwrap();
        let t = multiple_fragment(&inst);
        assert_eq!(t.length(&inst), 4);
    }
}
