//! Multi-device 2-opt — the paper's §VI outlook implemented: "we will
//! try to parallelize it even further by using more CPUs and GPUs and
//! possibly dividing the 2-opt task between multiple devices in order to
//! effectively solve larger instances".
//!
//! The triangular pair space is already linear (Fig. 3), so device-level
//! decomposition is a one-liner on top of the striding scheme: device
//! `d` of `D` sweeps the contiguous index range
//! `[d·P/D, (d+1)·P/D)`. Each device stages the same ordered coordinate
//! array (or its tile ranges) and publishes its range's best move; the
//! host reduces the `D` packed keys. Devices are independent, so the
//! modeled end-to-end time is the **maximum** over the devices'
//! (H2D + kernel + D2H) — the same independence argument the paper makes
//! for its tiled kernel launches.

use crate::bestmove::{unpack, BestMove, EMPTY_KEY, MAX_POSITION};
use crate::gpu::small::{shared_block_over_cells, RESULT_SLOT};
use crate::gpu::tiled::{auto_tile, TiledKernel};
use crate::indexing::{pair_count, tile_pair_count};
use crate::search::{EngineError, StepProfile, TwoOptEngine};
use gpu_sim::{
    AtomicDeviceBuffer, BlockCtx, Device, DeviceBuffer, DeviceSpec, Kernel, LaunchConfig,
};
use tsp_core::{Instance, Point, Tour};

/// The shared-memory kernel restricted to a contiguous pair-index range.
struct RangeKernel<'a> {
    coords: &'a DeviceBuffer<Point>,
    out: &'a AtomicDeviceBuffer,
    /// First pair index this device owns.
    start: u64,
    /// One past the last pair index this device owns.
    end: u64,
}

impl Kernel for RangeKernel<'_> {
    fn shared_bytes(&self) -> usize {
        self.coords.len() * Point::DEVICE_BYTES
    }

    fn num_phases(&self) -> usize {
        3
    }

    fn label(&self) -> &str {
        "2opt-eval-range"
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        shared_block_over_cells(blk, self.coords.as_slice(), self.start..self.end, self.out);
    }
}

/// The tiled kernel restricted to a contiguous range of tile pairs.
struct TiledRangeKernel<'a> {
    tiled: TiledKernel<'a, &'a DeviceBuffer<Point>>,
    /// First tile-pair index this device owns (block 0 maps here).
    first_tile_pair: u64,
}

impl Kernel for TiledRangeKernel<'_> {
    fn shared_bytes(&self) -> usize {
        self.tiled.shared_bytes()
    }

    fn num_phases(&self) -> usize {
        self.tiled.num_phases()
    }

    fn label(&self) -> &str {
        "2opt-eval-tiled-range"
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        self.tiled
            .run_tile_pair(blk, self.first_tile_pair + blk.block_idx as u64);
    }
}

/// 2-opt engine across a fleet of (simulated) devices.
///
/// Every device holds the full ordered coordinate array; the candidate
/// space is split evenly by pair count (small kernel) or by tile pairs
/// (tiled kernel). Modeled time assumes the devices run concurrently on
/// independent PCIe links: `max_d (h2d_d + kernel_d + d2h_d)`.
pub struct MultiGpuTwoOpt {
    devices: Vec<Device>,
    block_dim: u32,
    grid_dim: u32,
    ordered: Vec<Point>,
}

impl MultiGpuTwoOpt {
    /// Engine over the given device specs (identical or heterogeneous).
    ///
    /// # Panics
    /// Panics when `specs` is empty.
    pub fn new(specs: Vec<DeviceSpec>) -> Self {
        assert!(!specs.is_empty(), "at least one device is required");
        let block_dim = specs
            .iter()
            .map(|s| s.max_threads_per_block)
            .min()
            .expect("nonempty")
            .min(1024);
        let grid_dim = specs
            .iter()
            .map(|s| s.compute_units)
            .min()
            .expect("nonempty")
            * 4;
        MultiGpuTwoOpt {
            devices: specs.into_iter().map(Device::new).collect(),
            block_dim,
            grid_dim,
            ordered: Vec::new(),
        }
    }

    /// `count` identical devices of one spec.
    pub fn homogeneous(spec: DeviceSpec, count: usize) -> Self {
        Self::new(vec![spec; count.max(1)])
    }

    /// Number of devices in the fleet.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }
}

impl TwoOptEngine for MultiGpuTwoOpt {
    fn name(&self) -> String {
        format!(
            "multi-gpu[{}x {}]",
            self.devices.len(),
            self.devices[0].spec().name
        )
    }

    fn best_move(
        &mut self,
        inst: &Instance,
        tour: &Tour,
    ) -> Result<(Option<BestMove>, StepProfile), EngineError> {
        if !inst.is_coordinate_based() {
            return Err(EngineError::Unsupported(
                "multi-GPU kernels require coordinates".into(),
            ));
        }
        let n = tour.len();
        if n < 4 {
            return Ok((None, StepProfile::default()));
        }
        if n - 1 > MAX_POSITION as usize {
            return Err(EngineError::Unsupported(format!(
                "instance of {n} cities exceeds the packed-key position budget"
            )));
        }
        self.ordered.clear();
        self.ordered
            .extend(tour.as_slice().iter().map(|&c| inst.point(c as usize)));

        let d = self.devices.len() as u64;
        let fits_shared = self
            .devices
            .iter()
            .all(|dev| n * Point::DEVICE_BYTES <= dev.spec().shared_mem_per_block);

        let mut best_key = EMPTY_KEY;
        let mut per_device_seconds: f64 = 0.0;
        let mut profile = StepProfile {
            pairs_checked: pair_count(n),
            ..Default::default()
        };

        if fits_shared {
            let pairs = pair_count(n);
            for (idx, dev) in self.devices.iter().enumerate() {
                let start = pairs * idx as u64 / d;
                let end = pairs * (idx as u64 + 1) / d;
                let (coords, h2d) = dev.copy_to_device(&self.ordered)?;
                let out = dev.alloc_atomic(1, EMPTY_KEY)?;
                let kernel = RangeKernel {
                    coords: &coords,
                    out: &out,
                    start,
                    end,
                };
                let p = dev.launch(LaunchConfig::new(self.grid_dim, self.block_dim), &kernel)?;
                let (words, d2h) = dev.copy_from_device(&out);
                best_key = best_key.min(words[RESULT_SLOT]);
                profile.flops += p.counters.flops;
                per_device_seconds = per_device_seconds.max(h2d.seconds + p.seconds + d2h.seconds);
                // Attribute the device's own split for reporting.
                profile.kernel_seconds = profile.kernel_seconds.max(p.seconds);
                profile.h2d_seconds = profile.h2d_seconds.max(h2d.seconds);
                profile.d2h_seconds = profile.d2h_seconds.max(d2h.seconds);
            }
        } else {
            // Tiled decomposition: split tile pairs contiguously.
            let shared = self
                .devices
                .iter()
                .map(|dev| dev.spec().shared_mem_per_block)
                .min()
                .expect("nonempty");
            let tile = auto_tile(n, shared, self.grid_dim * self.devices.len() as u32);
            let tiles = ((n - 1) as u64).div_ceil(tile as u64);
            let total_tp = tile_pair_count(tiles);
            for (idx, dev) in self.devices.iter().enumerate() {
                let first = total_tp * idx as u64 / d;
                let last = total_tp * (idx as u64 + 1) / d;
                if first == last {
                    continue;
                }
                let (coords, h2d) = dev.copy_to_device(&self.ordered)?;
                let out = dev.alloc_atomic(1, EMPTY_KEY)?;
                let kernel = TiledRangeKernel {
                    tiled: TiledKernel {
                        coords: &coords,
                        out: &out,
                        tile,
                    },
                    first_tile_pair: first,
                };
                let p = dev.launch(
                    LaunchConfig::new((last - first) as u32, self.block_dim),
                    &kernel,
                )?;
                let (words, d2h) = dev.copy_from_device(&out);
                best_key = best_key.min(words[RESULT_SLOT]);
                profile.flops += p.counters.flops;
                per_device_seconds = per_device_seconds.max(h2d.seconds + p.seconds + d2h.seconds);
                profile.kernel_seconds = profile.kernel_seconds.max(p.seconds);
                profile.h2d_seconds = profile.h2d_seconds.max(h2d.seconds);
                profile.d2h_seconds = profile.d2h_seconds.max(d2h.seconds);
            }
        }

        // Report the concurrent makespan as the kernel time so that
        // modeled_seconds() == max over devices (transfers are already
        // folded into the per-device maxima above; avoid double count).
        profile.kernel_seconds = per_device_seconds - profile.h2d_seconds - profile.d2h_seconds;
        Ok((unpack(best_key).filter(BestMove::improves), profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuTwoOpt;
    use crate::sequential::SequentialTwoOpt;
    use gpu_sim::spec;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tsp_core::Metric;

    fn random_instance(n: usize, seed: u64) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1000.0f32), rng.gen_range(0.0..1000.0f32)))
            .collect();
        Instance::new(format!("rand{n}"), Metric::Euc2d, pts).unwrap()
    }

    #[test]
    fn multi_device_agrees_with_single_small_kernel() {
        let inst = random_instance(120, 3);
        let mut rng = SmallRng::seed_from_u64(9);
        let tour = Tour::random(120, &mut rng);
        let mut seq = SequentialTwoOpt::new();
        let (expected, _) = seq.best_move(&inst, &tour).unwrap();
        for count in [1usize, 2, 3, 4] {
            let mut multi = MultiGpuTwoOpt::homogeneous(spec::gtx_680_cuda(), count);
            let (got, prof) = multi.best_move(&inst, &tour).unwrap();
            assert_eq!(got, expected, "{count} devices");
            assert_eq!(prof.pairs_checked, pair_count(120));
        }
    }

    #[test]
    fn multi_device_agrees_with_single_tiled_kernel() {
        // Shrink shared memory so the tiled path is exercised at n=200.
        let mut s = spec::gtx_680_cuda();
        s.shared_mem_per_block = 1024;
        let inst = random_instance(200, 5);
        let tour = Tour::identity(200);
        let mut seq = SequentialTwoOpt::new();
        let (expected, _) = seq.best_move(&inst, &tour).unwrap();
        for count in [2usize, 3] {
            let mut multi = MultiGpuTwoOpt::homogeneous(s.clone(), count);
            let (got, _) = multi.best_move(&inst, &tour).unwrap();
            assert_eq!(got, expected, "{count} devices, tiled");
        }
    }

    #[test]
    fn two_devices_roughly_halve_the_kernel_time_at_scale() {
        let inst = random_instance(4000, 7);
        let tour = Tour::identity(4000);
        let mut single = GpuTwoOpt::new(spec::gtx_680_cuda());
        let (_, p1) = single.best_move(&inst, &tour).unwrap();
        let mut dual = MultiGpuTwoOpt::homogeneous(spec::gtx_680_cuda(), 2);
        let (_, p2) = dual.best_move(&inst, &tour).unwrap();
        let ratio = p1.kernel_seconds / p2.kernel_seconds;
        assert!(
            (1.6..2.4).contains(&ratio),
            "dual-device kernel speedup = {ratio:.2}"
        );
    }

    #[test]
    fn heterogeneous_fleet_works() {
        let inst = random_instance(90, 2);
        let tour = Tour::identity(90);
        let mut seq = SequentialTwoOpt::new();
        let (expected, _) = seq.best_move(&inst, &tour).unwrap();
        let mut fleet = MultiGpuTwoOpt::new(vec![
            spec::gtx_680_cuda(),
            spec::radeon_7970(),
            spec::radeon_6990_single(),
        ]);
        assert_eq!(fleet.device_count(), 3);
        let (got, _) = fleet.best_move(&inst, &tour).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_fleet_panics() {
        let _ = MultiGpuTwoOpt::new(Vec::new());
    }
}
