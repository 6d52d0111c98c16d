//! # tsp-core
//!
//! Fundamental data structures for the Travelling Salesman Problem used by
//! the GPU-accelerated 2-opt reproduction of Rocki & Suda (IPDPSW 2013):
//!
//! * [`Point`] — 2-D coordinates, the `float2` of the paper's kernels.
//! * [`Metric`] — every TSPLIB95 edge-weight function the library supports
//!   (`EUC_2D`, `CEIL_2D`, `ATT`, `GEO`, `MAN_2D`, `MAX_2D`, explicit
//!   matrices).
//! * [`Instance`] — a named problem: points plus a metric (or an explicit
//!   distance matrix).
//! * [`Tour`] — a permutation of the cities with length bookkeeping
//!   helpers, segment reversal (the 2-opt move) and the double-bridge
//!   perturbation used by Iterated Local Search.
//! * [`lut::DistanceLut`] — the O(n²) look-up table the paper's Table I
//!   argues *against*, with exact memory accounting so the table can be
//!   regenerated.
//! * [`neighbor::NeighborLists`] — exact k-nearest-neighbour lists (the
//!   paper's future work §VII, neighbourhood pruning), from the
//!   [`neighbor::KnnGrid`] bucket grid or a brute-force scan: the one
//!   k-NN builder behind construction, candidate lists and pruned search.
//!
//! All distances are integral (`i64` accumulators over `i32` edge weights),
//! following the TSPLIB95 convention the paper uses (`(int)(sqrtf(...)+0.5f)`).

pub mod cancel;
pub mod error;
pub mod instance;
pub mod lut;
pub mod matrix;
pub mod metric;
pub mod neighbor;
pub mod point;
pub mod tour;

pub use cancel::CancelToken;
pub use error::CoreError;
pub use instance::Instance;
pub use matrix::ExplicitMatrix;
pub use metric::Metric;
pub use point::Point;
pub use tour::{KickMove, Tour};

/// Number of distinct 2-opt candidate pairs `(i, j)` enumerated by the
/// paper's triangular scheme (Fig. 3): tour positions `0 <= i < j <= n - 2`,
/// where pair `(i, j)` examines the tour edges `(i, i+1)` and `(j, j+1)`.
///
/// The count is `(n-1)(n-2)/2`, which reproduces the paper's §IV quote of
/// **4851** candidate swaps for a 100-city problem, and its worked example
/// `ceil(pairs / (28 × 1024)) = 100` striding iterations for pr2392.
///
/// Pairs with `j == i + 1` share a city; their move is the identity and
/// evaluates to a zero delta, so enumerating them is harmless (the paper
/// does the same). Returns 0 for `n < 3`.
#[inline]
pub fn num_candidate_pairs(n: usize) -> u64 {
    if n < 3 {
        return 0;
    }
    let m = (n - 1) as u64;
    m * (m - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_count_matches_paper_quotes() {
        // §IV: "in case of kroE100 ... there are 4851 swaps to be checked".
        assert_eq!(num_candidate_pairs(100), 4851);
        // §IV.A worked example: pr2392 with a 28x1024 launch needs 100
        // striding iterations per thread.
        let pairs = num_candidate_pairs(2392);
        let launch = 28u64 * 1024;
        assert_eq!(pairs.div_ceil(launch), 100);
    }

    #[test]
    fn small_n_has_no_pairs() {
        assert_eq!(num_candidate_pairs(0), 0);
        assert_eq!(num_candidate_pairs(1), 0);
        assert_eq!(num_candidate_pairs(2), 0);
        assert_eq!(num_candidate_pairs(3), 1);
        assert_eq!(num_candidate_pairs(4), 3);
    }
}
