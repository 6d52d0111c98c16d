//! Best-move representation and the packed atomic-min encoding.
//!
//! The paper's kernel publishes its result with atomic operations:
//! "Using atomic operations the best candidates for swapping are stored
//! in the global memory". To make a *single* `atomicMin` both select the
//! best delta and deterministically break ties, the move is packed into
//! one 64-bit key:
//!
//! ```text
//! bits 63..40 : delta + 2^23   (biased so smaller delta => smaller key)
//! bits 39..20 : i              (tour position, < 2^20)
//! bits 19..0  : j              (tour position, < 2^20)
//! ```
//!
//! `fetch_min` over keys therefore yields the most-improving move, with
//! ties broken toward the lexicographically smallest `(i, j)` — the same
//! move a sequential best-improvement scan (i ascending, then j) finds,
//! which is what makes GPU and CPU engines bit-for-bit comparable.
//!
//! The 24-bit biased delta covers ±8.3 M, far beyond any single-move
//! delta on instances whose coordinates fit the generator's field (and
//! on all TSPLIB instances the paper uses); the packer saturates rather
//! than wraps if ever exceeded. The 20-bit positions cover n ≤ 1 048 575,
//! beyond the largest instance in the paper (lrb744710).

/// A 2-opt move in tour-position space with its length delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestMove {
    /// Length change (negative = improvement).
    pub delta: i32,
    /// First removed edge is `(i, i+1)`.
    pub i: u32,
    /// Second removed edge is `(j, j+1)`.
    pub j: u32,
}

/// Bias added to deltas before packing (2^23).
const DELTA_BIAS: i64 = 1 << 23;
/// Maximum biased delta (24 bits).
const DELTA_MASK: u64 = (1 << 24) - 1;
/// Position field width.
const POS_BITS: u32 = 20;
/// Maximum encodable tour position.
pub const MAX_POSITION: u32 = (1 << POS_BITS) - 1;

/// Key representing "no move found" — larger than any real packed key
/// with an improving (or even zero) delta.
pub const EMPTY_KEY: u64 = u64::MAX;

/// `delta` clamped to the range a key can encode: `pack(d, i, j) ==
/// pack(saturate_delta(d), i, j)` for every `d`, so keys sharing a `j`
/// order exactly like `(saturate_delta(d), i)` — which lets a scan find
/// a row's best key with a plain `i32` minimum.
#[inline(always)]
pub(crate) fn saturate_delta(delta: i32) -> i32 {
    delta.clamp(
        -(DELTA_BIAS as i32),
        (DELTA_MASK as i64 - DELTA_BIAS) as i32,
    )
}

/// Pack a move into its atomic-min key.
#[inline(always)]
pub fn pack(delta: i32, i: u32, j: u32) -> u64 {
    debug_assert!(i <= MAX_POSITION && j <= MAX_POSITION);
    let biased = (delta as i64 + DELTA_BIAS).clamp(0, DELTA_MASK as i64) as u64;
    (biased << (2 * POS_BITS)) | ((i as u64) << POS_BITS) | j as u64
}

/// Unpack an atomic-min key; `None` for [`EMPTY_KEY`].
#[inline]
pub fn unpack(key: u64) -> Option<BestMove> {
    if key == EMPTY_KEY {
        return None;
    }
    let j = (key & MAX_POSITION as u64) as u32;
    let i = ((key >> POS_BITS) & MAX_POSITION as u64) as u32;
    let delta = ((key >> (2 * POS_BITS)) & DELTA_MASK) as i64 - DELTA_BIAS;
    Some(BestMove {
        delta: delta as i32,
        i,
        j,
    })
}

impl BestMove {
    /// `true` when applying the move shortens the tour.
    #[inline]
    pub fn improves(&self) -> bool {
        self.delta < 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        for &(d, i, j) in &[
            (0i32, 0u32, 1u32),
            (-1, 5, 9),
            (-500_000, 123_456, 654_321),
            (500_000, MAX_POSITION, MAX_POSITION),
            (i32::MIN / 2_000, 0, 2),
        ] {
            let m = unpack(pack(d, i, j)).unwrap();
            assert_eq!(m, BestMove { delta: d, i, j });
        }
    }

    #[test]
    fn ordering_prefers_smaller_delta() {
        assert!(pack(-10, 9, 10) < pack(-9, 0, 1));
        assert!(pack(-1, 0, 1) < pack(0, 0, 1));
    }

    #[test]
    fn ordering_breaks_ties_lexicographically() {
        assert!(pack(-5, 1, 2) < pack(-5, 1, 3));
        assert!(pack(-5, 1, 9) < pack(-5, 2, 3));
    }

    #[test]
    fn empty_key_unpacks_to_none() {
        assert_eq!(unpack(EMPTY_KEY), None);
    }

    #[test]
    fn empty_key_loses_to_any_real_move() {
        assert!(pack(8_000_000 - 1, MAX_POSITION, MAX_POSITION) < EMPTY_KEY);
    }

    #[test]
    fn saturation_instead_of_wrap() {
        // A delta past the 24-bit budget saturates; ordering vs. a sane
        // delta is still correct.
        let huge = pack(i32::MAX, 0, 1);
        let sane = pack(100, 0, 1);
        assert!(sane < huge);
        let tiny = pack(i32::MIN, 0, 1);
        assert!(tiny < sane);
        // Saturated unpack yields the clamp boundary, not garbage.
        assert_eq!(unpack(tiny).unwrap().delta, -(1 << 23));
    }

    #[test]
    fn improves_is_strictly_negative() {
        assert!(BestMove {
            delta: -1,
            i: 0,
            j: 1
        }
        .improves());
        assert!(!BestMove {
            delta: 0,
            i: 0,
            j: 1
        }
        .improves());
    }
}
