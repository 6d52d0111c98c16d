//! Shared-memory 2-opt kernels for instances that fit on chip (§IV.A).
//!
//! Three variants share the evaluation loop but differ in where the
//! coordinates live — exactly the paper's optimization narrative:
//!
//! * [`OrderedSharedKernel`] — Optimizations 1 **and** 2: route-ordered
//!   coordinates staged once into shared memory, then re-used across all
//!   striding iterations ("each thread will reuse previously stored data
//!   in the shared memory 99 times without having to access the slow
//!   global memory").
//! * [`UnorderedSharedKernel`] — Optimization 1 only (the Fig. 5
//!   baseline): city-indexed coordinates *and* the route array staged in
//!   shared memory; every point access pays the route indirection and the
//!   extra footprint limits capacity.
//! * [`GlobalOnlyKernel`] — neither optimization: ordered coordinates
//!   read from global memory on every access; the modeled time shows why
//!   the paper calls this "not a good idea".

use crate::bestmove::{pack, EMPTY_KEY};
use crate::cpu_model::BYTES_PER_CHECK;
use crate::delta::{best_key_in_cells, delta_ordered, FLOPS_PER_CHECK};
use crate::gpu::coords::CoordSource;
use crate::indexing::{index_to_pair, pair_count, strided_share};
use gpu_sim::{AtomicDeviceBuffer, BlockCtx, DeviceBuffer, Kernel, ThreadCtx};
use std::ops::Range;
use tsp_core::Point;

/// Slot in the result buffer that receives the packed best move.
pub const RESULT_SLOT: usize = 0;

/// The paper's main kernel: staged, route-ordered coordinates.
///
/// Generic over where the ordered coordinates live ([`CoordSource`]):
/// a plain [`DeviceBuffer`] for the serial re-upload pipeline, or the
/// resident atomic buffer for the device-resident one. Both run the
/// same staging/evaluation loops and account identical work.
pub struct OrderedSharedKernel<'a, C: CoordSource> {
    /// Route-ordered coordinates (`ordered_coordinates` of Fig. 6).
    pub coords: C,
    /// One-word output: packed best move.
    pub out: &'a AtomicDeviceBuffer,
}

impl<C: CoordSource> Kernel for OrderedSharedKernel<'_, C> {
    fn shared_bytes(&self) -> usize {
        self.coords.len() * Point::DEVICE_BYTES
    }

    fn num_phases(&self) -> usize {
        3
    }

    fn label(&self) -> &str {
        "2opt-eval-shared"
    }

    /// Charges the block's share of the paper's strided assignment in
    /// closed form, and computes the functional result over a contiguous
    /// slice of the pair triangle instead (see [`gpu_sim::kernel`] for
    /// why any exact cover of the pairs publishes the same word).
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let n = self.coords.len();
        let coords: Vec<Point> = (0..n).map(|k| self.coords.get(k)).collect();
        shared_block_over_cells(blk, &coords, 0..pair_count(n), self.out);
    }
}

/// One block of a shared-memory kernel whose grid sweeps the pair cells
/// `cells` (the [`crate::indexing`] enumeration) of the staged, ordered
/// `coords`: the whole triangle for [`OrderedSharedKernel`], one
/// device's range for the multi-device kernel.
pub(crate) fn shared_block_over_cells(
    blk: &mut BlockCtx<'_>,
    coords: &[Point],
    cells: Range<u64>,
    out: &AtomicDeviceBuffer,
) {
    // Phase 0: cooperative load, global -> shared, once per block.
    let staged = coords.len() as u64 * Point::DEVICE_BYTES as u64;
    blk.global_read(staged);
    blk.shared_bytes(staged);
    // Phase 1: each thread's strided cells, then its scratch write.
    let work = cells.end - cells.start;
    let (evals, live) = strided_share(
        work,
        blk.total_threads(),
        blk.first_thread_id(),
        blk.block_dim as u64,
    );
    blk.flops(evals * FLOPS_PER_CHECK);
    blk.shared_bytes(evals * BYTES_PER_CHECK + 8 * live);
    // Phase 2: block reduction + one global atomic.
    charge_block_reduce(blk, live);
    let chunk = work.div_ceil(blk.grid_dim as u64);
    let start = cells.start + (blk.block_idx as u64 * chunk).min(work);
    publish(
        out,
        best_key_in_cells(coords, start..(start + chunk).min(cells.end)),
    );
}

/// Phase-2 work of a block that reduced its threads' bests in closed
/// form: [`block_reduce`]'s scan over the whole scratch, plus its atomic
/// when any of the block's `live` threads evaluated a pair.
pub(crate) fn charge_block_reduce(blk: &mut BlockCtx<'_>, live: u64) {
    blk.shared_bytes(8 * blk.block_dim as u64);
    if live > 0 {
        blk.atomics(1);
    }
}

/// Atomic-min `key` into the result slot unless the block found nothing.
pub(crate) fn publish(out: &AtomicDeviceBuffer, key: u64) {
    if key != EMPTY_KEY {
        out.fetch_min(RESULT_SLOT, key);
    }
}

/// Thread 0 reduces the block's per-thread bests and publishes one
/// atomic-min — the "Get best global pair" step of Fig. 4. (A real
/// kernel uses a log2(block) tree; the traffic and the single atomic are
/// what the cost model sees either way.)
pub(crate) fn block_reduce(ctx: &mut ThreadCtx<'_>, scratch: &[u64], out: &AtomicDeviceBuffer) {
    if ctx.thread_idx != 0 {
        return;
    }
    let mut best = EMPTY_KEY;
    for &k in scratch {
        if k < best {
            best = k;
        }
    }
    ctx.shared_bytes(8 * scratch.len() as u64);
    if best != EMPTY_KEY {
        out.fetch_min(RESULT_SLOT, best);
        ctx.atomics(1);
    }
}

/// Ablation: Optimization 1 without Optimization 2 (Fig. 5 layout).
///
/// Shared memory holds the *city-indexed* coordinates plus the route
/// array; every point access goes through `coords[route[pos]]`.
pub struct UnorderedSharedKernel<'a> {
    /// City-indexed coordinates.
    pub coords: &'a DeviceBuffer<Point>,
    /// The route (tour order).
    pub route: &'a DeviceBuffer<u32>,
    /// One-word output: packed best move.
    pub out: &'a AtomicDeviceBuffer,
}

impl Kernel for UnorderedSharedKernel<'_> {
    fn shared_bytes(&self) -> usize {
        // Fig. 5: n * sizeof(route entry) + n * sizeof(float2).
        self.coords.len() * (Point::DEVICE_BYTES + core::mem::size_of::<u32>())
    }

    fn num_phases(&self) -> usize {
        3
    }

    fn label(&self) -> &str {
        "2opt-eval-unordered"
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let n = self.coords.len();
        let mut coords = vec![Point::default(); n];
        let mut route = vec![0u32; n];
        let mut scratch = vec![EMPTY_KEY; blk.block_dim as usize];
        blk.for_each_thread(|ctx| {
            let src_c = self.coords.as_slice();
            let src_r = self.route.as_slice();
            let mut k = ctx.thread_idx as usize;
            let mut loads = 0u64;
            while k < n {
                coords[k] = src_c[k];
                route[k] = src_r[k];
                loads += 1;
                k += ctx.block_dim as usize;
            }
            ctx.global_read(loads * (Point::DEVICE_BYTES as u64 + 4));
            ctx.shared_bytes(loads * (Point::DEVICE_BYTES as u64 + 4));
        });
        blk.for_each_thread(|ctx| {
            let pairs = pair_count(n);
            let stride = ctx.total_threads();
            let mut k = ctx.global_thread_id();
            let mut best = EMPTY_KEY;
            let mut evals = 0u64;
            // Point accessor with the route indirection of Fig. 5.
            let at = |pos: usize| coords[route[pos] as usize];
            while k < pairs {
                let (iu, ju) = index_to_pair(k);
                let (i, j) = (iu as usize, ju as usize);
                let (pi, pi1, pj, pj1) = (at(i), at(i + 1), at(j), at(j + 1));
                let d = (pi.euc_2d(&pj) + pi1.euc_2d(&pj1)) - (pi.euc_2d(&pi1) + pj.euc_2d(&pj1));
                let key = pack(d, iu as u32, ju as u32);
                if key < best {
                    best = key;
                }
                evals += 1;
                k += stride;
            }
            ctx.flops(evals * FLOPS_PER_CHECK);
            // 4 route reads (4 B) + 4 point reads (8 B) per check: the
            // extra traffic and address arithmetic Optimization 2
            // removes.
            ctx.shared_bytes(evals * (BYTES_PER_CHECK + 4 * 4));
            scratch[ctx.thread_idx as usize] = best;
            if evals > 0 {
                ctx.shared_bytes(8);
            }
        });
        blk.for_each_thread(|ctx| block_reduce(ctx, &scratch, self.out));
    }
}

/// Ablation: no staging at all — every access hits global memory.
pub struct GlobalOnlyKernel<'a> {
    /// Route-ordered coordinates in global memory.
    pub coords: &'a DeviceBuffer<Point>,
    /// One-word output: packed best move.
    pub out: &'a AtomicDeviceBuffer,
}

impl Kernel for GlobalOnlyKernel<'_> {
    fn shared_bytes(&self) -> usize {
        0
    }

    fn num_phases(&self) -> usize {
        2
    }

    fn label(&self) -> &str {
        "2opt-eval-global"
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let mut scratch = vec![EMPTY_KEY; blk.block_dim as usize];
        blk.for_each_thread(|ctx| {
            let pts = self.coords.as_slice();
            let pairs = pair_count(pts.len());
            let stride = ctx.total_threads();
            let mut k = ctx.global_thread_id();
            let mut best = EMPTY_KEY;
            let mut evals = 0u64;
            while k < pairs {
                let (i, j) = index_to_pair(k);
                let d = delta_ordered(pts, i as usize, j as usize);
                let key = pack(d, i as u32, j as u32);
                if key < best {
                    best = key;
                }
                evals += 1;
                k += stride;
            }
            ctx.flops(evals * FLOPS_PER_CHECK);
            // All four point loads per check travel on the global-memory
            // pipe.
            ctx.global_read(evals * BYTES_PER_CHECK);
            scratch[ctx.thread_idx as usize] = best;
            if evals > 0 {
                ctx.shared_bytes(8);
            }
        });
        blk.for_each_thread(|ctx| block_reduce(ctx, &scratch, self.out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bestmove::unpack;
    use crate::delta::fill_distances;
    use gpu_sim::{spec, Device, LaunchConfig};

    fn ordered_square_bad() -> Vec<Point> {
        // Tour 0 -> 2 -> 1 -> 3 over the unit-10 square: crossing.
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 0.0),
        ]
    }

    #[test]
    fn distance_rows_match_euc_2d_at_every_magnitude() {
        let p = Point::new(3.25, -7.5);
        let around = |scales: std::ops::Range<i32>| -> Vec<Point> {
            (0..200)
                .map(|k| {
                    let s = 10f32.powi(scales.start + k % scales.len() as i32);
                    Point::new(
                        p.x + s * (k as f32 * 0.37).sin(),
                        p.y + s * (k as f32).cos(),
                    )
                })
                .collect()
        };
        // Distances below 2^23 take the vectorized truncation; rows with
        // larger distances, infinities or NaN take the fallback.
        let small = around(-2..6);
        let mut large = around(-2..21);
        large.extend([Point::new(f32::INFINITY, 0.0), Point::new(f32::NAN, 1.0)]);
        for pts in [small, large] {
            let (xs, ys): (Vec<f32>, Vec<f32>) = pts.iter().map(|q| (q.x, q.y)).unzip();
            let mut got = vec![0; pts.len()];
            fill_distances(&mut got, &xs, &ys, 0..pts.len(), p);
            for (k, q) in pts.iter().enumerate() {
                assert_eq!(got[k], q.euc_2d(&p), "point {k}: {q:?}");
            }
        }
    }

    #[test]
    fn row_walk_equals_the_pairwise_minimum_on_any_cell_range() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        // Spreads up to 1e7 push deltas past the 24-bit key range, where
        // saturated deltas tie and the lowest i must still win.
        for spread in [10.0f32, 1000.0, 1e7] {
            let n = rng.gen_range(4..120);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..spread), rng.gen_range(0.0..spread)))
                .collect();
            let pairs = pair_count(n);
            for _ in 0..50 {
                let start = rng.gen_range(0..pairs);
                let end = rng.gen_range(start..=pairs);
                let want = (start..end)
                    .map(|k| {
                        let (i, j) = index_to_pair(k);
                        pack(
                            delta_ordered(&pts, i as usize, j as usize),
                            i as u32,
                            j as u32,
                        )
                    })
                    .min()
                    .unwrap_or(EMPTY_KEY);
                assert_eq!(
                    best_key_in_cells(&pts, start..end),
                    want,
                    "n={n} spread={spread} cells {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn ordered_kernel_finds_uncross_move() {
        let dev = Device::new(spec::gtx_680_cuda());
        let (coords, _) = dev.copy_to_device(&ordered_square_bad()).unwrap();
        let out = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
        let k = OrderedSharedKernel {
            coords: &coords,
            out: &out,
        };
        dev.launch(LaunchConfig::new(2, 32), &k).unwrap();
        let m = unpack(out.load(RESULT_SLOT)).unwrap();
        assert_eq!((m.delta, m.i, m.j), (-8, 0, 2));
    }

    #[test]
    fn all_variants_agree() {
        let dev = Device::new(spec::gtx_680_cuda());
        let pts = ordered_square_bad();
        // Ordered layout for ordered/global kernels.
        let (ordered, _) = dev.copy_to_device(&pts).unwrap();
        // City layout + route for the unordered kernel: choose city ids
        // equal to position ids of a different permutation to make the
        // indirection non-trivial.
        let city_coords = vec![pts[2], pts[0], pts[1], pts[3]];
        let route = vec![1u32, 2, 0, 3]; // city_coords[route[k]] == pts[k]
        let (cbuf, _) = dev.copy_to_device(&city_coords).unwrap();
        let (rbuf, _) = dev.copy_to_device(&route).unwrap();

        let o1 = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
        let o2 = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
        let o3 = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
        dev.launch(
            LaunchConfig::new(2, 16),
            &OrderedSharedKernel {
                coords: &ordered,
                out: &o1,
            },
        )
        .unwrap();
        dev.launch(
            LaunchConfig::new(2, 16),
            &UnorderedSharedKernel {
                coords: &cbuf,
                route: &rbuf,
                out: &o2,
            },
        )
        .unwrap();
        dev.launch(
            LaunchConfig::new(2, 16),
            &GlobalOnlyKernel {
                coords: &ordered,
                out: &o3,
            },
        )
        .unwrap();
        assert_eq!(o1.load(0), o2.load(0));
        assert_eq!(o1.load(0), o3.load(0));
    }

    #[test]
    fn modeled_cost_ordering_matches_paper_narrative() {
        // global-only slower than unordered-shared slower than ordered.
        let dev = Device::new(spec::gtx_680_cuda());
        let n = 512;
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new((i % 23) as f32 * 17.0, (i % 41) as f32 * 13.0))
            .collect();
        let route: Vec<u32> = (0..n as u32).collect();
        let (ordered, _) = dev.copy_to_device(&pts).unwrap();
        let (rbuf, _) = dev.copy_to_device(&route).unwrap();
        let cfg = LaunchConfig::new(8, 128);

        let out = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
        let t_ordered = dev
            .launch(
                cfg,
                &OrderedSharedKernel {
                    coords: &ordered,
                    out: &out,
                },
            )
            .unwrap()
            .seconds;
        out.fill(EMPTY_KEY);
        let t_unordered = dev
            .launch(
                cfg,
                &UnorderedSharedKernel {
                    coords: &ordered,
                    route: &rbuf,
                    out: &out,
                },
            )
            .unwrap()
            .seconds;
        out.fill(EMPTY_KEY);
        let t_global = dev
            .launch(
                cfg,
                &GlobalOnlyKernel {
                    coords: &ordered,
                    out: &out,
                },
            )
            .unwrap()
            .seconds;
        assert!(
            t_ordered <= t_unordered,
            "ordered {t_ordered} vs unordered {t_unordered}"
        );
        assert!(
            t_unordered < t_global,
            "unordered {t_unordered} vs global {t_global}"
        );
    }

    #[test]
    fn unordered_kernel_needs_more_shared_memory() {
        let dev = Device::new(spec::gtx_680_cuda());
        // 6144 points fit the ordered kernel exactly (48 kB), but the
        // unordered kernel's route array pushes it over the limit.
        let n = 6144;
        let pts = vec![Point::default(); n];
        let route: Vec<u32> = (0..n as u32).collect();
        let (cbuf, _) = dev.copy_to_device(&pts).unwrap();
        let (rbuf, _) = dev.copy_to_device(&route).unwrap();
        let out = dev.alloc_atomic(1, EMPTY_KEY).unwrap();
        let ok = OrderedSharedKernel {
            coords: &cbuf,
            out: &out,
        };
        assert_eq!(ok.shared_bytes(), 48 * 1024);
        let uk = UnorderedSharedKernel {
            coords: &cbuf,
            route: &rbuf,
            out: &out,
        };
        assert!(uk.shared_bytes() > 48 * 1024);
        assert!(dev.launch(LaunchConfig::new(1, 32), &uk).is_err());
    }
}
