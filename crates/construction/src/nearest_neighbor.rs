//! Nearest-neighbour construction — the simplest reasonable initial tour
//! and a baseline for the construction-quality comparisons.

use tsp_core::neighbor::KnnGrid;
use tsp_core::{Instance, Tour};

/// Above this size, query the k-NN grid instead of scanning every city.
const SCAN_LIMIT: usize = 3000;

/// Build a tour by always visiting the nearest unvisited city (lowest
/// index on ties), starting from `start`.
pub fn nearest_neighbor(inst: &Instance, start: usize) -> Tour {
    let n = inst.len();
    assert!(start < n, "start city out of range");
    let grid = if n > SCAN_LIMIT {
        KnnGrid::new(inst)
    } else {
        None
    };
    match grid {
        Some(grid) => nearest_neighbor_grid(inst, &grid, start),
        None => nearest_neighbor_scan(inst, start),
    }
}

fn nearest_neighbor_scan(inst: &Instance, start: usize) -> Tour {
    let n = inst.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut cur = start;
    visited[cur] = true;
    order.push(cur as u32);
    for _ in 1..n {
        let mut best = usize::MAX;
        let mut best_d = i32::MAX;
        for (j, &seen) in visited.iter().enumerate() {
            if !seen {
                let d = inst.dist(cur, j);
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
        }
        cur = best;
        visited[cur] = true;
        order.push(cur as u32);
    }
    Tour::new(order).expect("nearest neighbour visits each city once")
}

fn nearest_neighbor_grid(inst: &Instance, grid: &KnnGrid, start: usize) -> Tour {
    let n = inst.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut found = Vec::new();
    let mut cur = start;
    visited[cur] = true;
    order.push(cur as u32);
    for _ in 1..n {
        // Expand k until an unvisited neighbour appears; fall back to a
        // full scan in the pathological endgame.
        let mut next = None;
        let mut k = 8;
        while next.is_none() && k <= 4096 {
            grid.knn(cur, k, &mut found);
            next = found
                .iter()
                .map(|&(_, j)| j as usize)
                .find(|&j| !visited[j]);
            k *= 4;
        }
        let next = next.unwrap_or_else(|| {
            (0..n)
                .filter(|&j| !visited[j])
                .min_by_key(|&j| inst.dist(cur, j))
                .expect("an unvisited city remains")
        });
        cur = next;
        visited[cur] = true;
        order.push(cur as u32);
    }
    Tour::new(order).expect("nearest neighbour visits each city once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::{Metric, Point};
    use tsp_tsplib::{generate, Style};

    #[test]
    fn follows_a_line() {
        let pts = (0..10).map(|i| Point::new(i as f32 * 5.0, 0.0)).collect();
        let inst = Instance::new("line", Metric::Euc2d, pts).unwrap();
        let t = nearest_neighbor(&inst, 0);
        assert_eq!(t.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn different_starts_are_valid() {
        let inst = generate("nn", 150, Style::Uniform, 5);
        for start in [0usize, 1, 74, 149] {
            let t = nearest_neighbor(&inst, start);
            t.validate().unwrap();
            assert_eq!(t.city(0), start as u32);
        }
    }

    #[test]
    fn grid_variant_matches_scan_variant_length_roughly() {
        // The grid query is exact, so both variants build the same tour,
        // on distance ties (the lattice) too.
        let lattice = (0..900)
            .map(|i| Point::new((i % 30) as f32 * 3.0, (i / 30) as f32 * 4.0))
            .collect();
        let lattice = Instance::new("lattice", Metric::Euc2d, lattice).unwrap();
        for inst in [generate("nng", 500, Style::Uniform, 9), lattice] {
            let grid = KnnGrid::new(&inst).unwrap();
            for start in [0, 137, inst.len() - 1] {
                let scan = nearest_neighbor_scan(&inst, start);
                assert_eq!(nearest_neighbor_grid(&inst, &grid, start), scan);
            }
        }
    }

    #[test]
    #[should_panic(expected = "start city out of range")]
    fn start_out_of_range_panics() {
        let inst = generate("nn", 10, Style::Uniform, 1);
        let _ = nearest_neighbor(&inst, 10);
    }
}
