//! The §IV.B division scheme: 2-opt for instances of **any** size.
//!
//! With `n` beyond shared-memory capacity the ordered coordinate array is
//! cut into tiles of `m` positions. Any candidate pair `(i, j)` falls in
//! exactly one *tile pair* `(a, b) = (i / m, j / m)` with `a <= b`, so a
//! grid with one (or more) block(s) per tile pair covers the whole
//! triangular space. Each block stages **two coordinate sub-ranges** into
//! shared memory — the paper's Fig. 7: "a kernel reads coordinates of the
//! cities from tour ranges [am, (a+1)m] and [bm, (b+1)m] at one time.
//! Therefore 2 coordinates ranges are needed, which implies that the
//! maximum subproblem size cannot be larger than 3072"
//! (for 48 kB: `48·1024 / (2 · 2 · sizeof(float))`, minus the one-point
//! overlap each range carries so that `i+1`/`j+1` stay on-chip).
//!
//! Diagonal blocks (`a == b`) sweep the triangle of their tile; off-
//! diagonal blocks sweep the full `|A| × |B|` rectangle. Blocks are
//! independent — the paper's observation that the sub-problems "can be
//! executed independently in a parallel manner" — and the wave scheduler
//! of the simulator naturally overlaps the small diagonal blocks with the
//! big rectangular ones.

use crate::cpu_model::BYTES_PER_CHECK;
use crate::delta::{best_key_in_rows, FLOPS_PER_CHECK};
use crate::gpu::coords::CoordSource;
use crate::gpu::small::{charge_block_reduce, publish};
use crate::indexing::{index_to_tile_pair, strided_share, tile_pair_count};
use gpu_sim::{AtomicDeviceBuffer, BlockCtx, Kernel};
use tsp_core::Point;

/// Largest tile (in positions) usable with `shared_bytes` of on-chip
/// memory: two ranges of `m + 1` points each must fit.
pub fn max_tile_for_shared(shared_bytes: usize) -> usize {
    (shared_bytes / (2 * Point::DEVICE_BYTES)).saturating_sub(1)
}

/// Pick a tile size for an instance of `n` cities: as large as shared
/// memory allows, but small enough that the grid of tile pairs keeps
/// every compute unit busy (`tile_pair_count(tiles) >= min_grid`).
/// Without this, instances just past the shared-memory capacity run a
/// handful of blocks and the device sits mostly idle — the utilization
/// dip the ablation bench `ablation_tile_size` quantifies.
pub fn auto_tile(n: usize, shared_bytes: usize, min_grid: u32) -> usize {
    let cap = max_tile_for_shared(shared_bytes).max(1);
    let positions = (n.saturating_sub(1)).max(1) as u64;
    // Smallest tile count t with t(t+1)/2 >= min_grid.
    let g = min_grid.max(1) as f64;
    let t_needed = (((8.0 * g + 1.0).sqrt() - 1.0) / 2.0).ceil() as u64;
    let tile_for_occupancy = positions.div_ceil(t_needed.max(1)) as usize;
    tile_for_occupancy.clamp(1, cap)
}

/// The tiled kernel. One block per tile pair. Generic over where the
/// ordered coordinates live ([`CoordSource`]), like the shared kernel.
pub struct TiledKernel<'a, C: CoordSource> {
    /// Route-ordered coordinates (full array, global memory).
    pub coords: C,
    /// One-word output: packed best move.
    pub out: &'a AtomicDeviceBuffer,
    /// Tile size in positions.
    pub tile: usize,
}

impl<C: CoordSource> TiledKernel<'_, C> {
    /// Number of *positions* in the pair space (`i, j ∈ [0, n-1)`).
    #[inline]
    fn positions(&self) -> usize {
        self.coords.len() - 1
    }

    /// Number of tiles.
    pub fn tiles(&self) -> u64 {
        (self.positions() as u64).div_ceil(self.tile as u64)
    }

    /// Required grid size: one block per tile pair.
    pub fn grid_dim(&self) -> u32 {
        tile_pair_count(self.tiles()) as u32
    }

    /// Position range covered by tile `t`: `[start, end)`.
    fn tile_range(&self, t: u64) -> (usize, usize) {
        let start = t as usize * self.tile;
        let end = (start + self.tile).min(self.positions());
        (start, end)
    }
}

impl<C: CoordSource> Kernel for TiledKernel<'_, C> {
    fn shared_bytes(&self) -> usize {
        2 * (self.tile + 1) * Point::DEVICE_BYTES
    }

    fn num_phases(&self) -> usize {
        3
    }

    fn label(&self) -> &str {
        "2opt-eval-tiled"
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        self.run_tile_pair(blk, blk.block_idx as u64);
    }
}

impl<C: CoordSource> TiledKernel<'_, C> {
    /// Run `blk` on tile pair `k`: charge it in closed form (its threads
    /// stride the block-local pair space by `block_dim`) and walk the
    /// tile pair's pairs row by row for the functional result.
    pub(crate) fn run_tile_pair(&self, blk: &mut BlockCtx<'_>, k: u64) {
        let (ta, tb) = index_to_tile_pair(k);
        let (a_start, a_end) = self.tile_range(ta);
        let (b_start, b_end) = self.tile_range(tb);
        // Phase 0: cooperative load of both ranges. Each range carries
        // one extra point so i+1 / j+1 stay on-chip (pair positions go
        // up to n-2; position + 1 <= n - 1 < n).
        let a: Vec<Point> = (a_start..=a_end).map(|k| self.coords.get(k)).collect();
        let b: Vec<Point> = (b_start..=b_end).map(|k| self.coords.get(k)).collect();
        let staged = (a.len() + b.len()) as u64 * Point::DEVICE_BYTES as u64;
        blk.global_read(staged);
        blk.shared_bytes(staged);
        // Phase 1: this block's local pair space, strided by block_dim.
        let na = (a_end - a_start) as u64;
        let nb = (b_end - b_start) as u64;
        let local_pairs = if ta == tb { na * (na - 1) / 2 } else { na * nb };
        let bd = blk.block_dim as u64;
        let (evals, live) = strided_share(local_pairs, bd, 0, bd);
        blk.flops(evals * FLOPS_PER_CHECK);
        blk.shared_bytes(evals * BYTES_PER_CHECK + 8 * live);
        // Phase 2: block reduction + one global atomic.
        charge_block_reduce(blk, live);
        // Listing 2: two coordinate sets, A for i and B for j. A diagonal
        // block sweeps its tile's triangle, any other its rectangle.
        let best = if ta == tb {
            best_key_in_rows(&a, a_start, &b, b_start, a_start + 1..a_end, |j| a_start..j)
        } else {
            best_key_in_rows(&a, a_start, &b, b_start, b_start..b_end, |_| a_start..a_end)
        };
        publish(self.out, best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bestmove::{unpack, EMPTY_KEY};
    use crate::gpu::small::OrderedSharedKernel;
    use gpu_sim::{spec, Device, LaunchConfig};

    fn wavy_points(n: usize) -> Vec<Point> {
        // A deterministic, decidedly non-optimal ordered tour.
        (0..n)
            .map(|i| {
                let a = i as f32 * 2.399963; // golden-angle scatter
                Point::new(
                    500.0 + 400.0 * a.cos(),
                    500.0 + 400.0 * a.sin() * (i % 7) as f32 / 7.0,
                )
            })
            .collect()
    }

    #[test]
    fn tile_capacity_matches_paper_bound() {
        // 48 kB / (2 ranges x 8 B) = 3072; one-point overlap -> 3071.
        assert_eq!(max_tile_for_shared(48 * 1024), 3071);
        assert_eq!(max_tile_for_shared(32 * 1024), 2047);
    }

    #[test]
    fn tiled_equals_untiled_small() {
        let dev = Device::new(spec::gtx_680_cuda());
        for n in [8usize, 33, 100, 257] {
            let pts = wavy_points(n);
            let (coords, _) = dev.copy_to_device(&pts).unwrap();
            let o_ref = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
            dev.launch(
                LaunchConfig::new(4, 64),
                &OrderedSharedKernel {
                    coords: &coords,
                    out: &o_ref,
                },
            )
            .unwrap();
            for tile in [3usize, 7, 50, 64] {
                let o_tiled = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
                let k = TiledKernel {
                    coords: &coords,
                    out: &o_tiled,
                    tile,
                };
                dev.launch(LaunchConfig::new(k.grid_dim(), 32), &k).unwrap();
                assert_eq!(
                    unpack(o_tiled.load(0)),
                    unpack(o_ref.load(0)),
                    "n={n} tile={tile}"
                );
            }
        }
    }

    #[test]
    fn grid_covers_all_tile_pairs() {
        let dev = Device::new(spec::gtx_680_cuda());
        let pts = wavy_points(100);
        let (coords, _) = dev.copy_to_device(&pts).unwrap();
        let out = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
        let k = TiledKernel {
            coords: &coords,
            out: &out,
            tile: 30,
        };
        // positions = 99 -> ceil(99/30) = 4 tiles -> 10 tile pairs.
        assert_eq!(k.tiles(), 4);
        assert_eq!(k.grid_dim(), 10);
    }

    #[test]
    fn handles_instance_larger_than_shared_capacity() {
        // A device with a tiny 1 kB shared memory: capacity 64 points for
        // the ordered kernel, tile = 1024/16 - 1 = 63.
        let mut s = spec::gtx_680_cuda();
        s.shared_mem_per_block = 1024;
        let dev = Device::new(s);
        let n = 500; // ordered kernel would need 4000 B
        let pts = wavy_points(n);
        let (coords, _) = dev.copy_to_device(&pts).unwrap();
        let out = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
        // The untiled kernel must refuse...
        let err = dev.launch(
            LaunchConfig::new(1, 32),
            &OrderedSharedKernel {
                coords: &coords,
                out: &out,
            },
        );
        assert!(err.is_err());
        // ...while the tiled kernel fits and agrees with a big-shared
        // reference device.
        let tile = max_tile_for_shared(1024);
        let k = TiledKernel {
            coords: &coords,
            out: &out,
            tile,
        };
        dev.launch(LaunchConfig::new(k.grid_dim(), 64), &k).unwrap();
        let big = Device::new(spec::gtx_680_cuda());
        let (coords2, _) = big.copy_to_device(&pts).unwrap();
        let o2 = big.alloc_atomic(1, EMPTY_KEY).unwrap();
        big.launch(
            LaunchConfig::new(8, 128),
            &OrderedSharedKernel {
                coords: &coords2,
                out: &o2,
            },
        )
        .unwrap();
        assert_eq!(unpack(out.load(0)), unpack(o2.load(0)));
    }
}
