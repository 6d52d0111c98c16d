//! 2-opt move evaluation.
//!
//! A candidate pair of tour positions `(i, j)` (with `i < j <= n - 2`)
//! proposes removing edges `(i, i+1)` and `(j, j+1)` and reconnecting as
//! `(i, j)` and `(i+1, j+1)` — the paper's Fig. 1. The *delta* is the
//! length change; the move improves the tour iff the paper's §I condition
//! holds:
//!
//! ```text
//! d(i, i+1) + d(j, j+1) > d(i, j+1) + d(j, i+1)
//! ```
//!
//! (the paper writes the reconnection as `[i, j+1]` / `[j, i+1]` — with
//! the segment between reversed, this is the same single legal
//! reconnection; in position terms the new edges join `i` with `j` and
//! `i+1` with `j+1`).
//!
//! [`best_key_in_cells`] is the shared evaluator of the parallel engines:
//! the packed-key minimum over any contiguous range of pair cells, so
//! splitting the pair space any way and reducing with `u64::min` gives
//! the same move as one sweep.

use crate::bestmove::{pack, saturate_delta, EMPTY_KEY};
use crate::flops::FLOPS_PER_DISTANCE;
use crate::indexing::{index_to_pair, pair_to_index};
use std::ops::Range;
use tsp_core::{Instance, Point, Tour};

/// Number of distance evaluations one candidate-pair check performs.
pub const DISTS_PER_CHECK: u64 = 4;

/// FLOPs one candidate-pair check performs (4 distances).
pub const FLOPS_PER_CHECK: u64 = DISTS_PER_CHECK * FLOPS_PER_DISTANCE;

/// Delta of the 2-opt move `(i, j)` in *tour-position* space, evaluated
/// through the instance's metric (works for explicit matrices too).
///
/// Negative means the move shortens the tour.
#[inline]
pub fn delta_positions(inst: &Instance, tour: &Tour, i: usize, j: usize) -> i64 {
    debug_assert!(i < j && j + 1 < tour.len());
    let a = tour.city(i) as usize;
    let b = tour.city(i + 1) as usize;
    let c = tour.city(j) as usize;
    let d = tour.city(j + 1) as usize;
    (inst.dist(a, c) as i64 + inst.dist(b, d) as i64)
        - (inst.dist(a, b) as i64 + inst.dist(c, d) as i64)
}

/// Delta of the 2-opt move `(i, j)` over **route-ordered coordinates**
/// (the paper's Optimization 2 layout): `pts[k]` is the coordinate of the
/// city at tour position `k`. Exactly the arithmetic of the paper's
/// Listing 1, in `f32`.
#[inline(always)]
pub fn delta_ordered(pts: &[Point], i: usize, j: usize) -> i32 {
    debug_assert!(i < j && j + 1 < pts.len());
    let pi = pts[i];
    let pi1 = pts[i + 1];
    let pj = pts[j];
    let pj1 = pts[j + 1];
    (pi.euc_2d(&pj) + pi1.euc_2d(&pj1)) - (pi.euc_2d(&pi1) + pj.euc_2d(&pj1))
}

/// Minimum packed key over a contiguous range of pair-cell indices
/// (the [`crate::indexing`] enumeration) of the route-ordered `pts`.
pub(crate) fn best_key_in_cells(pts: &[Point], cells: Range<u64>) -> u64 {
    if cells.is_empty() {
        return EMPTY_KEY;
    }
    let first = index_to_pair(cells.start).1 as usize;
    let last = index_to_pair(cells.end - 1).1 as usize;
    best_key_in_rows(pts, 0, pts, 0, first..last + 1, |j| {
        let row = pair_to_index(0, j as u64);
        cells.start.saturating_sub(row) as usize..(cells.end - row).min(j as u64) as usize
    })
}

/// Minimum packed key over the pairs `(i, j)` of `rows`, row `j`
/// covering `i ∈ span(j)`, walking the pair triangle one row at a time.
///
/// `a` holds the points at positions `a_off ..` (every `i` and `i + 1`),
/// `b` those at `b_off ..` (every `j` and `j + 1`). Each distance is
/// computed once: the tour-edge lengths up front, and per row the
/// distances from `j + 1` back to `a`, which serve this row's
/// `(i + 1, j + 1)` terms and the next row's `(i, j)` terms. The deltas
/// are the bit-exact integers of [`crate::delta::delta_ordered`].
pub(crate) fn best_key_in_rows(
    a: &[Point],
    a_off: usize,
    b: &[Point],
    b_off: usize,
    rows: Range<usize>,
    span: impl Fn(usize) -> Range<usize>,
) -> u64 {
    let mut best = EMPTY_KEY;
    if rows.is_empty() {
        return best;
    }
    // Coordinates split by axis, so the distance rows vectorize.
    let (xs, ys): (Vec<f32>, Vec<f32>) = a.iter().map(|p| (p.x, p.y)).unzip();
    let edge: Vec<i32> = a.windows(2).map(|w| w[0].euc_2d(&w[1])).collect();
    // `cur[x]`: distance from position `a_off + x` to the row's `j`.
    let mut cur = vec![0i32; a.len()];
    let mut next = vec![0i32; a.len()];
    let local = |r: Range<usize>| r.start - a_off..r.end - a_off;
    let pj = b[rows.start - b_off];
    fill_distances(&mut cur, &xs, &ys, local(span(rows.start)), pj);
    for j in rows.clone() {
        let s = span(j);
        let (pj, pj1) = (b[j - b_off], b[j + 1 - b_off]);
        let ej = pj.euc_2d(&pj1);
        let mut fill = s.start + 1..s.end + 1;
        if j + 1 < rows.end {
            let t = span(j + 1);
            fill = fill.start.min(t.start)..fill.end.max(t.end);
        }
        fill_distances(&mut next, &xs, &ys, local(fill), pj1);
        let (lo, hi) = (s.start - a_off, s.end - a_off);
        let deltas = cur[lo..hi]
            .iter()
            .zip(&next[lo + 1..hi + 1])
            .zip(&edge[lo..hi])
            .map(|((&dij, &di1j1), &ei)| saturate_delta((dij + di1j1) - (ei + ej)));
        // Keys of one row order like (saturated delta, i): the row's best
        // is its minimum delta at the first i that reaches it.
        let row_min = deltas.clone().fold(i32::MAX, i32::min);
        if lo < hi && pack(row_min, s.start as u32, j as u32) < best {
            let first_i = s.start + deltas.take_while(|&d| d != row_min).count();
            best = best.min(pack(row_min, first_i as u32, j as u32));
        }
        std::mem::swap(&mut cur, &mut next);
    }
    best
}

/// `dist[x] = euc_2d((xs[x], ys[x]), p)` for every `x` in `range`.
///
/// `euc_2d` ends in a saturating `as i32`, which does not vectorize.
/// Below 2^23 adding 2^23 rounds a non-negative `f32` to an integer
/// exactly, so the loop truncates with that instead, bit-exact with the
/// cast; a row holding a larger distance (or a NaN) is redone with
/// `euc_2d` itself. Against a fill that calls `euc_2d` per element this
/// takes ≈28 % off a `dense-descent` pass (2-vCPU x86-64 VM).
#[inline]
pub(crate) fn fill_distances(
    dist: &mut [i32],
    xs: &[f32],
    ys: &[f32],
    range: Range<usize>,
    p: Point,
) {
    const EXACT: f32 = 8_388_608.0;
    let dist = &mut dist[range.clone()];
    let (xs, ys) = (&xs[range.clone()], &ys[range]);
    let mut in_range = true;
    for ((d, &x), &y) in dist.iter_mut().zip(xs).zip(ys) {
        let v = Point::new(x, y).dist2(&p).sqrt() + 0.5;
        let t = v + EXACT;
        let rounded = t.to_bits() as i32 - EXACT.to_bits() as i32;
        *d = rounded - i32::from(t - EXACT > v);
        in_range &= v < EXACT;
    }
    if !in_range {
        for ((d, &x), &y) in dist.iter_mut().zip(xs).zip(ys) {
            *d = Point::new(x, y).euc_2d(&p);
        }
    }
}

/// Verify a delta the slow way: apply the move to a scratch tour and
/// recompute the full length. Test helper, exact by construction.
pub fn delta_by_recompute(inst: &Instance, tour: &Tour, i: usize, j: usize) -> i64 {
    let before = tour.length(inst);
    let mut t = tour.clone();
    t.apply_two_opt(i, j);
    t.length(inst) - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::Metric;

    fn square() -> Instance {
        Instance::new(
            "square4",
            Metric::Euc2d,
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 10.0),
                Point::new(10.0, 10.0),
                Point::new(10.0, 0.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn delta_matches_recompute_on_square() {
        let inst = square();
        let tour = Tour::new(vec![0, 2, 1, 3]).unwrap();
        for i in 0..2 {
            for j in (i + 1)..3 {
                assert_eq!(
                    delta_positions(&inst, &tour, i, j),
                    delta_by_recompute(&inst, &tour, i, j),
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn crossing_square_improves_by_eight() {
        let inst = square();
        // 0 -> 2 -> 1 -> 3: length 48; uncrossing saves 8.
        let tour = Tour::new(vec![0, 2, 1, 3]).unwrap();
        assert_eq!(delta_positions(&inst, &tour, 0, 2), -8);
    }

    #[test]
    fn ordered_delta_agrees_with_position_delta() {
        let inst = square();
        let tour = Tour::new(vec![0, 2, 1, 3]).unwrap();
        let pts = tour.ordered_points(&inst).unwrap();
        for i in 0..2 {
            for j in (i + 1)..3 {
                assert_eq!(
                    delta_ordered(&pts, i, j) as i64,
                    delta_positions(&inst, &tour, i, j)
                );
            }
        }
    }

    #[test]
    fn adjacent_pair_has_zero_delta() {
        let inst = square();
        let tour = Tour::identity(4);
        assert_eq!(delta_positions(&inst, &tour, 1, 2), 0);
    }

    #[test]
    fn flop_accounting_constants() {
        assert_eq!(DISTS_PER_CHECK, 4);
        assert_eq!(FLOPS_PER_CHECK, 32);
    }
}
