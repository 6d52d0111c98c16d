//! The paper's triangular parallelization scheme (Fig. 3).
//!
//! Every candidate pair of tour positions `(i, j)` with
//! `0 <= i < j <= n - 2` is mapped to one cell of a triangular matrix and
//! flattened to a linear index, so that "each pair corresponds to one GPU
//! job". A thread with global id `t` in a launch of `T` total threads
//! evaluates cells `t, t + T, t + 2T, …` — the §IV.A striding scheme that
//! lets a fixed-size launch cover any number of pairs while re-using the
//! coordinates staged in shared memory
//! (`iter = ceil(pairs / (blocks × threads))`).
//!
//! The enumeration is row-major by `j`: row `j` (starting at `j = 1`)
//! holds the `j` cells `(0, j) … (j-1, j)`, so
//! `index(i, j) = j(j-1)/2 + i` — exactly the numbering drawn in the
//! paper's Fig. 3 (`0,1 → 0; 0,2 → 1; 1,2 → 2; 0,3 → 3; …`).

/// Total number of cells for an instance of `n` cities:
/// pairs `(i, j)`, `0 <= i < j <= n - 2`.
#[inline]
pub fn pair_count(n: usize) -> u64 {
    if n < 3 {
        return 0;
    }
    let m = (n - 1) as u64;
    m * (m - 1) / 2
}

/// Linear cell index of pair `(i, j)` (requires `i < j`).
#[inline]
pub fn pair_to_index(i: u64, j: u64) -> u64 {
    debug_assert!(i < j);
    j * (j - 1) / 2 + i
}

/// Inverse of [`pair_to_index`]: recover `(i, j)` from a cell index.
///
/// Uses the integer-corrected triangular root, so it is exact for every
/// index representable in a `u64`'s safe f64 range and beyond (the float
/// estimate is corrected by ±1 steps).
#[inline]
pub fn index_to_pair(k: u64) -> (u64, u64) {
    // Solve j(j-1)/2 <= k  <  j(j+1)/2 for j >= 1.
    // Float estimate of the triangular root, then exact correction.
    let mut j = ((1.0 + (1.0 + 8.0 * k as f64).sqrt()) / 2.0) as u64;
    // Correct downward while the row start exceeds k.
    while j > 1 && j * (j - 1) / 2 > k {
        j -= 1;
    }
    // Correct upward while k falls past this row.
    while j * (j + 1) / 2 <= k {
        j += 1;
    }
    let i = k - j * (j - 1) / 2;
    (i, j)
}

/// Number of tile pairs `(a, b)` with `0 <= a <= b < t` — the diagonal-
/// inclusive triangular count used by the §IV.B division scheme (every
/// tile pairs with itself and with every later tile).
#[inline]
pub fn tile_pair_count(tiles: u64) -> u64 {
    tiles * (tiles + 1) / 2
}

/// Map a linear tile-pair index to `(a, b)` with `a <= b`
/// (enumeration `k = b(b+1)/2 + a`).
#[inline]
pub fn index_to_tile_pair(k: u64) -> (u64, u64) {
    // Solve b(b+1)/2 <= k < (b+1)(b+2)/2.
    let mut b = ((-1.0 + (1.0 + 8.0 * k as f64).sqrt()) / 2.0) as u64;
    while b * (b + 1) / 2 > k {
        b -= 1;
    }
    while (b + 1) * (b + 2) / 2 <= k {
        b += 1;
    }
    (k - b * (b + 1) / 2, b)
}

/// Number of striding iterations each thread performs —
/// `ceil(pairs / total_threads)`, the quantity the paper works out as 100
/// for pr2392 under a 28 × 1024 launch.
#[inline]
pub fn iterations_per_thread(pairs: u64, total_threads: u64) -> u64 {
    if total_threads == 0 {
        return 0;
    }
    pairs.div_ceil(total_threads)
}

/// The strided assignment seen from one block: threads
/// `base .. base + threads` of a launch with `stride` threads in total,
/// each taking cells `t, t + stride, t + 2·stride, …` below `work`.
/// Returns `(cells, live)` — the cells those threads evaluate together
/// and how many of the threads get at least one — in closed form.
#[inline]
pub(crate) fn strided_share(work: u64, stride: u64, base: u64, threads: u64) -> (u64, u64) {
    debug_assert!(base + threads <= stride);
    let cells = work / stride * threads + (work % stride).saturating_sub(base).min(threads);
    let live = work.saturating_sub(base).min(threads);
    (cells, live)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fig3_enumeration() {
        // Fig. 3 numbers the cells 0,1->0; 0,2->1; 1,2->2; 0,3->3;
        // 1,3->4; 2,3->5; 0,4->6 ...
        assert_eq!(pair_to_index(0, 1), 0);
        assert_eq!(pair_to_index(0, 2), 1);
        assert_eq!(pair_to_index(1, 2), 2);
        assert_eq!(pair_to_index(0, 3), 3);
        assert_eq!(pair_to_index(1, 3), 4);
        assert_eq!(pair_to_index(2, 3), 5);
        assert_eq!(pair_to_index(0, 4), 6);
    }

    #[test]
    fn bijection_small_exhaustive() {
        for n in 3usize..40 {
            let total = pair_count(n);
            let mut k_expected = 0u64;
            for j in 1..=(n as u64 - 2) {
                for i in 0..j {
                    let k = pair_to_index(i, j);
                    assert_eq!(k, k_expected);
                    assert_eq!(index_to_pair(k), (i, j));
                    k_expected += 1;
                }
            }
            assert_eq!(k_expected, total);
        }
    }

    #[test]
    fn strided_share_sums_the_per_thread_loops() {
        for (work, grid, block) in [
            (0u64, 3u64, 4u64),
            (5, 2, 4),
            (8, 2, 4),
            (37, 3, 5),
            (100, 4, 8),
        ] {
            let stride = grid * block;
            for b in 0..grid {
                let base = b * block;
                let mut cells = 0;
                let mut live = 0;
                for t in base..base + block {
                    let mine = (t..work).step_by(stride as usize).count() as u64;
                    cells += mine;
                    live += u64::from(mine > 0);
                }
                assert_eq!(
                    strided_share(work, stride, base, block),
                    (cells, live),
                    "work={work} grid={grid} block={block} b={b}"
                );
            }
        }
    }

    #[test]
    fn bijection_large_spot_checks() {
        for &k in &[
            0u64,
            1,
            1_000_000,
            4_294_967_295,
            1_000_000_000_000,
            u64::from(u32::MAX) * 1000,
        ] {
            let (i, j) = index_to_pair(k);
            assert!(i < j);
            assert_eq!(pair_to_index(i, j), k);
        }
    }

    #[test]
    fn pair_count_examples() {
        assert_eq!(pair_count(100), 4851);
        assert_eq!(pair_count(4), 3);
        assert_eq!(pair_count(2), 0);
    }

    #[test]
    fn paper_iteration_example_pr2392() {
        // §IV.A: 28 blocks x 1024 threads on pr2392 -> 100 iterations.
        let iters = iterations_per_thread(pair_count(2392), 28 * 1024);
        assert_eq!(iters, 100);
    }

    #[test]
    fn tile_pair_bijection() {
        for t in 1u64..30 {
            let mut k = 0;
            for b in 0..t {
                for a in 0..=b {
                    assert_eq!(index_to_tile_pair(k), (a, b));
                    k += 1;
                }
            }
            assert_eq!(k, tile_pair_count(t));
        }
    }

    #[test]
    fn iterations_edge_cases() {
        assert_eq!(iterations_per_thread(0, 128), 0);
        assert_eq!(iterations_per_thread(1, 128), 1);
        assert_eq!(iterations_per_thread(128, 128), 1);
        assert_eq!(iterations_per_thread(129, 128), 2);
        assert_eq!(iterations_per_thread(10, 0), 0);
    }
}
