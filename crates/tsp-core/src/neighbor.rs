//! k-nearest-neighbour lists — the workspace's one k-NN builder.
//!
//! The paper's §VI/§VII name **neighbourhood pruning** as the natural next
//! step ("simple ideas such as neighborhood pruning can be applied at the
//! cost of the quality of the solution"). Candidate lists restrict the
//! 2-opt neighbourhood to pairs whose first removed edge endpoint is near
//! the second, dropping the sweep from O(n²) to O(n·k). Every list in the
//! workspace comes from here: Multiple Fragment's k-NN mode and
//! nearest-neighbour construction (`tsp-construction`), and the candidate
//! lists, `PrunedTwoOpt` and the don't-look-bit descent (`tsp-2opt`).
//!
//! Neighbours are ordered by `(distance, index)` under the instance's
//! rounded metric, so ties break by city index everywhere.
//! [`NeighborLists::build`] answers every city from a [`KnnGrid`] when one
//! exists and `8k < n`, and by an O(n) selection scan per city otherwise;
//! both give the same lists.

use crate::instance::Instance;
use crate::metric::Metric;
use crate::point::Point;

/// Per-city lists of the `k` nearest other cities, sorted by distance.
#[derive(Debug, Clone)]
pub struct NeighborLists {
    k: usize,
    /// Flattened `n × k` city indices.
    lists: Vec<u32>,
}

impl NeighborLists {
    /// Build lists of the `k` nearest neighbours for every city.
    ///
    /// `k` is clamped to `n - 1`. Sub-quadratic on planar instances with
    /// `8k < n` (the grid), O(n²) otherwise.
    pub fn build(inst: &Instance, k: usize) -> Self {
        let n = inst.len();
        let k = k.min(n.saturating_sub(1));
        let grid = if 8 * k < n { KnnGrid::new(inst) } else { None };
        let mut lists = Vec::with_capacity(n * k);
        let mut found = Vec::new();
        for i in 0..n {
            match &grid {
                Some(grid) => grid.knn(i, k, &mut found),
                None => brute_knn(inst, i, k, &mut found),
            }
            lists.extend(found.iter().map(|&(_, j)| j));
        }
        NeighborLists { k, lists }
    }

    /// Number of neighbours per city.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of cities.
    #[inline]
    pub fn len(&self) -> usize {
        self.lists.len().checked_div(self.k).unwrap_or(0)
    }

    /// `true` when no lists were built.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The neighbours of city `c`, nearest first.
    #[inline]
    pub fn neighbors(&self, c: usize) -> &[u32] {
        &self.lists[c * self.k..(c + 1) * self.k]
    }

    /// The flattened `n × k` lists, row `c` holding city `c`'s neighbours.
    #[inline]
    pub fn flat(&self) -> &[u32] {
        &self.lists
    }

    /// Bytes held by the lists (for memory-budget reporting).
    pub fn bytes(&self) -> usize {
        self.lists.len() * core::mem::size_of::<u32>()
    }
}

/// Leave in `found` the `k` smallest `(distance, city)` pairs of city `i`
/// over every other city, sorted.
fn brute_knn(inst: &Instance, i: usize, k: usize, found: &mut Vec<(i32, u32)>) {
    found.clear();
    found.extend(
        (0..inst.len())
            .filter(|&j| j != i)
            .map(|j| (inst.dist(i, j), j as u32)),
    );
    if k < found.len() {
        found.select_nth_unstable(k);
        found.truncate(k);
    }
    found.sort_unstable();
}

/// A bucket grid over the instance's bounding box, sized for ≈1 city per
/// cell, answering exact k-nearest-neighbour queries.
#[derive(Debug)]
pub struct KnnGrid<'a> {
    inst: &'a Instance,
    min_x: f32,
    min_y: f32,
    cell: f32,
    cols: usize,
    rows: usize,
    /// City indices per cell, row-major.
    buckets: Vec<Vec<u32>>,
}

impl<'a> KnnGrid<'a> {
    /// Bucket the cities (O(n)). `None` unless the coordinates span a
    /// finite extent under a metric that is never below the coordinate
    /// gap minus ½ (`EUC_2D`, `CEIL_2D`, `MAN_2D`, `MAX_2D`), which is
    /// what the query's stop rule needs.
    pub fn new(inst: &'a Instance) -> Option<Self> {
        use Metric::*;
        if !matches!(inst.metric(), Euc2d | Ceil2d | Man2d | Max2d) {
            return None;
        }
        let pts = inst.points();
        let (mut min_x, mut min_y) = (f32::INFINITY, f32::INFINITY);
        let (mut max_x, mut max_y) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
        for p in pts {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let side = ((max_x - min_x).max(max_y - min_y)).max(1e-6);
        if !side.is_finite() {
            return None;
        }
        let cells_per_side = (pts.len() as f64).sqrt().ceil().max(1.0) as usize;
        let cell = side / cells_per_side as f32;
        let cols = ((max_x - min_x) / cell).floor() as usize + 1;
        let rows = ((max_y - min_y) / cell).floor() as usize + 1;
        let mut grid = KnnGrid {
            inst,
            min_x,
            min_y,
            cell,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
        };
        for (i, p) in pts.iter().enumerate() {
            let (cx, cy) = grid.cell_of(p);
            grid.buckets[cy * cols + cx].push(i as u32);
        }
        Some(grid)
    }

    fn cell_of(&self, p: &Point) -> (usize, usize) {
        let cx = (((p.x - self.min_x) / self.cell) as usize).min(self.cols - 1);
        let cy = (((p.y - self.min_y) / self.cell) as usize).min(self.rows - 1);
        (cx, cy)
    }

    /// Leave in `found` the `k` nearest other cities of city `i` as
    /// `(distance, city)`, sorted: exactly the first `k` of a sort over
    /// all of them (all of them when `k ≥ n - 1`).
    ///
    /// Scans square rings of cells outward from `i`'s cell. A city
    /// outside the scanned rings is more than `ring·cell` away along one
    /// axis, so its rounded distance is at least `ring·cell − ½`; the
    /// scan stops once the kth distance + 1 is below `ring·cell`, which
    /// leaves every unscanned city strictly after the kth, rounding and
    /// ties included.
    pub fn knn(&self, i: usize, k: usize, found: &mut Vec<(i32, u32)>) {
        found.clear();
        if k == 0 {
            return;
        }
        let (cx, cy) = self.cell_of(&self.inst.point(i));
        for ring in 0..=self.cols.max(self.rows) as isize {
            for dy in -ring..=ring {
                for dx in -ring..=ring {
                    let (x, y) = (cx as isize + dx, cy as isize + dy);
                    if dx.abs().max(dy.abs()) != ring
                        || x < 0
                        || y < 0
                        || x >= self.cols as isize
                        || y >= self.rows as isize
                    {
                        continue;
                    }
                    for &j in &self.buckets[y as usize * self.cols + x as usize] {
                        if j as usize != i {
                            found.push((self.inst.dist(i, j as usize), j));
                        }
                    }
                }
            }
            if found.len() >= k {
                found.sort_unstable();
                found.truncate(4 * k);
                if (found[k - 1].0 as f32) + 1.0 < ring as f32 * self.cell {
                    break;
                }
            }
        }
        found.sort_unstable();
        found.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ExplicitMatrix;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn line_instance(n: usize) -> Instance {
        // Cities on a line at x = 0, 1, 2, ... so nearest neighbours are
        // trivially the adjacent indices.
        let pts = (0..n).map(|i| Point::new(i as f32, 0.0)).collect();
        Instance::new("line", Metric::Euc2d, pts).unwrap()
    }

    fn scatter(n: usize, seed: u64) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0)))
            .collect();
        Instance::new("scatter", Metric::Euc2d, pts).unwrap()
    }

    /// Every city's grid query against the selection scan, for each `k`.
    fn assert_grid_matches_brute(inst: &Instance, ks: &[usize]) {
        let grid = KnnGrid::new(inst).expect("planar instance");
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for &k in ks {
            for i in 0..inst.len() {
                grid.knn(i, k, &mut got);
                brute_knn(inst, i, k, &mut want);
                assert_eq!(got, want, "{} city {i} k {k}", inst.name());
            }
        }
    }

    #[test]
    fn nearest_on_a_line() {
        let inst = line_instance(10);
        let nl = NeighborLists::build(&inst, 3);
        assert_eq!(nl.k(), 3);
        assert_eq!(nl.len(), 10);
        // City 0's nearest are 1, 2, 3.
        assert_eq!(nl.neighbors(0), &[1, 2, 3]);
        // City 5's nearest are 4 and 6 (tie broken by index), then 3 or 7.
        let nb5 = nl.neighbors(5);
        assert!(nb5.contains(&4) && nb5.contains(&6));
    }

    #[test]
    fn k_clamped_to_n_minus_1() {
        let inst = line_instance(4);
        let nl = NeighborLists::build(&inst, 100);
        assert_eq!(nl.k(), 3);
        assert_eq!(nl.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn lists_never_contain_self() {
        let inst = line_instance(12);
        let nl = NeighborLists::build(&inst, 5);
        for c in 0..12 {
            assert!(!nl.neighbors(c).contains(&(c as u32)));
        }
    }

    #[test]
    fn lists_are_sorted_by_distance() {
        let inst = line_instance(20);
        let nl = NeighborLists::build(&inst, 7);
        for c in 0..20 {
            let ds: Vec<i32> = nl
                .neighbors(c)
                .iter()
                .map(|&j| inst.dist(c, j as usize))
                .collect();
            let mut sorted = ds.clone();
            sorted.sort_unstable();
            assert_eq!(ds, sorted);
        }
    }

    #[test]
    fn bytes_accounting() {
        let inst = line_instance(8);
        let nl = NeighborLists::build(&inst, 2);
        assert_eq!(nl.bytes(), 8 * 2 * 4);
    }

    #[test]
    fn knn_on_a_line_matches_brute_force() {
        // Spacing 10 with ties on both sides of every inner city.
        let pts = (0..50).map(|i| Point::new(i as f32 * 10.0, 0.0)).collect();
        let inst = Instance::new("line", Metric::Euc2d, pts).unwrap();
        assert_grid_matches_brute(&inst, &[1, 4, 6, 49, 60]);
    }

    #[test]
    fn knn_matches_brute_force_on_scattered_points() {
        assert_grid_matches_brute(&scatter(300, 12), &[1, 6, 12, 37]);
        // `build` takes the grid here and must give the scan's lists.
        let inst = scatter(400, 3);
        let nl = NeighborLists::build(&inst, 8);
        let mut want = Vec::new();
        for i in 0..inst.len() {
            brute_knn(&inst, i, 8, &mut want);
            let ids: Vec<u32> = want.iter().map(|&(_, j)| j).collect();
            assert_eq!(nl.neighbors(i), &ids[..]);
        }
    }

    #[test]
    fn degenerate_all_same_point() {
        let pts = vec![Point::new(5.0, 5.0); 10];
        let inst = Instance::new("same", Metric::Euc2d, pts).unwrap();
        assert_grid_matches_brute(&inst, &[1, 3, 9, 20]);
        let grid = KnnGrid::new(&inst).unwrap();
        let mut nb = Vec::new();
        grid.knn(0, 3, &mut nb);
        assert_eq!(nb, [(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn grid_only_where_its_stop_rule_holds() {
        let pts: Vec<Point> = (0..20).map(|i| Point::new(i as f32, 1.0)).collect();
        for metric in [Metric::Ceil2d, Metric::Man2d, Metric::Max2d] {
            let inst = Instance::new("planar", metric, pts.clone()).unwrap();
            assert_grid_matches_brute(&inst, &[1, 2, 5]);
        }
        for metric in [Metric::Att, Metric::Geo] {
            let inst = Instance::new("scaled", metric, pts.clone()).unwrap();
            assert!(KnnGrid::new(&inst).is_none());
        }
        // Finite coordinates whose extent overflows `f32`.
        let mut far = pts.clone();
        far[3] = Point::new(f32::MAX, 0.0);
        far[4] = Point::new(-f32::MAX, 0.0);
        let inst = Instance::new("far", Metric::Euc2d, far).unwrap();
        assert!(KnnGrid::new(&inst).is_none());
        let m = ExplicitMatrix::from_upper_row(4, &[1, 2, 3, 4, 5, 6]).unwrap();
        let inst = Instance::from_matrix("m", m, None).unwrap();
        assert!(KnnGrid::new(&inst).is_none());
        assert_eq!(NeighborLists::build(&inst, 2).neighbors(0), &[1, 2]);
    }
}
