//! Property tests for the k-nearest-neighbour builder
//! ([`tsp_core::neighbor`]) through [`CandidateLists`] and the per-city
//! [`KnnGrid`] query: list shape, true-nearest contents against an
//! independent brute force, symmetric-closure consistency, and
//! no-panic behaviour on degenerate geometry (duplicate coordinates,
//! collinear fields, n ≤ k).

use proptest::prelude::*;
use tsp_2opt::CandidateLists;
use tsp_core::neighbor::KnnGrid;
use tsp_core::{Instance, Metric, Point, Tour};

fn instance_from(coords: Vec<(i32, i32)>) -> Instance {
    let pts: Vec<Point> = coords
        .into_iter()
        .map(|(x, y)| Point::new(x as f32, y as f32))
        .collect();
    Instance::new("prop", Metric::Euc2d, pts).unwrap()
}

/// n in [4, 80) points on a `max`×`max` integer grid — small grids
/// force duplicate coordinates and massive distance ties.
fn arb_coords(max: i32) -> impl Strategy<Value = Vec<(i32, i32)>> {
    (4usize..80).prop_flat_map(move |n| proptest::collection::vec((0i32..max, 0i32..max), n))
}

/// n in [130, 600) points on a `side`×`side` lattice with spacing
/// `step`, so the grid path runs at Multiple Fragment's k = 12 and the
/// candidate kernels' k = 16, over ties and duplicate points.
fn arb_lattice() -> impl Strategy<Value = Vec<(i32, i32)>> {
    (130usize..600, 5i32..40, 1i32..20).prop_flat_map(|(n, side, step)| {
        proptest::collection::vec((0..side, 0..side), n)
            .prop_map(move |c| c.into_iter().map(|(x, y)| (x * step, y * step)).collect())
    })
}

/// The builder's documented ordering, recomputed from scratch: rounded
/// distance ascending, city id as the tie-break, self excluded.
fn brute_neighbors(inst: &Instance, c: usize, k: usize) -> Vec<u32> {
    let mut d: Vec<(i32, u32)> = (0..inst.len())
        .filter(|&o| o != c)
        .map(|o| (inst.dist(c, o), o as u32))
        .collect();
    d.sort_unstable();
    d.truncate(k);
    d.into_iter().map(|(_, o)| o).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_city_gets_exactly_the_true_k_nearest(
        coords in arb_coords(1000),
        k in 1usize..=20,
    ) {
        let inst = instance_from(coords);
        let n = inst.len();
        let cl = CandidateLists::build(&inst, k);
        let kk = k.min(n - 1);
        prop_assert_eq!(cl.k(), kk);
        prop_assert_eq!(cl.len(), n);
        prop_assert_eq!(cl.flat().len(), n * kk);
        for c in 0..n {
            let got = cl.neighbors(c);
            prop_assert_eq!(got.len(), kk, "city {}", c);
            // Bit-exact against the independent brute force, ties and
            // all — this is what pins the grid path's ring-termination
            // margin.
            let want = brute_neighbors(&inst, c, kk);
            prop_assert_eq!(got, want.as_slice(), "city {}", c);
        }
    }

    #[test]
    fn the_closure_is_symmetric_sorted_and_covers_the_lists(
        coords in arb_coords(300),
        k in 1usize..=12,
    ) {
        let inst = instance_from(coords);
        let n = inst.len();
        let cl = CandidateLists::build(&inst, k);
        for a in 0..n {
            let row = cl.closure(a);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} not strictly sorted", a);
            prop_assert!(!row.contains(&(a as u32)), "row {} contains itself", a);
            // Every k-NN entry appears, and membership is mutual.
            for &b in cl.neighbors(a) {
                prop_assert!(row.contains(&b), "{} missing neighbour {}", a, b);
            }
            for &b in row {
                prop_assert!(
                    cl.closure(b as usize).contains(&(a as u32)),
                    "{} in closure({}) but not vice versa", b, a
                );
            }
        }
    }

    #[test]
    fn degenerate_geometry_never_panics(
        coords in arb_coords(3),
        k in 1usize..=30,
    ) {
        // A 3×3 palette guarantees duplicate points (n ≥ 10 forces
        // them by pigeonhole) and k regularly exceeds n - 1.
        let inst = instance_from(coords);
        let n = inst.len();
        let cl = CandidateLists::build(&inst, k);
        prop_assert_eq!(cl.k(), k.min(n - 1));
        // The sweep mirror stays well-defined on the degenerate field.
        let mv = cl.best_candidate_move(&inst, &Tour::identity(n));
        if let Some(m) = mv {
            prop_assert!(m.improves());
        }
    }

    #[test]
    fn collinear_fields_never_panic(
        xs in proptest::collection::vec(0i32..500, 4..60),
        k in 1usize..=10,
    ) {
        // All points on y = 0: every grid cell in one row, maximal ties.
        let inst = instance_from(xs.into_iter().map(|x| (x, 0)).collect());
        let n = inst.len();
        let cl = CandidateLists::build(&inst, k);
        let kk = k.min(n - 1);
        for c in 0..n {
            let want = brute_neighbors(&inst, c, kk);
            prop_assert_eq!(cl.neighbors(c), want.as_slice());
        }
    }
}

proptest! {
    // n up to 600 with brute-force oracles: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lattices_get_exactly_the_true_k_nearest(
        coords in arb_lattice(),
        k_idx in 0usize..4,
    ) {
        let k = [1, 5, 12, 16][k_idx];
        let inst = instance_from(coords);
        let cl = CandidateLists::build(&inst, k);
        for c in 0..inst.len() {
            let want = brute_neighbors(&inst, c, k);
            prop_assert_eq!(cl.neighbors(c), want.as_slice(), "city {}", c);
        }
    }

    #[test]
    fn the_grid_query_is_exact_at_the_nearest_neighbour_growth_steps(
        lattice in arb_lattice(),
        scatter in arb_coords(1000),
    ) {
        // Nearest-neighbour construction asks for k = 8, 32, 128, ...
        // until an unvisited city shows up; k may pass n - 1.
        for inst in [instance_from(lattice), instance_from(scatter)] {
            let grid = KnnGrid::new(&inst).unwrap();
            let mut found = Vec::new();
            for c in 0..inst.len() {
                let all = brute_neighbors(&inst, c, inst.len());
                for k in [8, 32, 128] {
                    grid.knn(c, k, &mut found);
                    let got: Vec<u32> = found.iter().map(|&(_, j)| j).collect();
                    prop_assert_eq!(&got[..], &all[..k.min(all.len())], "city {} k {}", c, k);
                }
            }
        }
    }
}
