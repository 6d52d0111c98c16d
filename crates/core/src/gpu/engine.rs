//! The GPU engine: Algorithm 2 end-to-end on the simulated device.
//!
//! Per sweep (the paper's Algorithm 2):
//!
//! 1. order the coordinates on the host (Optimization 2, O(n) — "it
//!    brings some performance degradation caused by the additional time
//!    spent on host, however saves much more time by avoiding scattered
//!    read on GPU");
//! 2. copy them to device global memory (modeled H2D);
//! 3. launch the kernel (staged shared memory, strided evaluation,
//!    packed atomic-min reduction);
//! 4. read the one-word result back (modeled D2H);
//! 5. the caller applies the move on the host and repeats.
//!
//! The [`Strategy::DeviceResident`] variant breaks with step 1/2: the
//! coordinates are uploaded **once**, a [`SegmentReversalKernel`] applies
//! the previous sweep's move in place between evaluations, and the packed
//! best-move word is the only steady-state PCIe traffic. The serial path
//! above stays untouched as the faithful Algorithm-2 baseline.

use crate::bestmove::{unpack, BestMove, EMPTY_KEY, MAX_POSITION};
use crate::gpu::candidate::CandidateSweepKernel;
use crate::gpu::coords::ResidentCoords;
use crate::gpu::reverse::SegmentReversalKernel;
use crate::gpu::small::{GlobalOnlyKernel, OrderedSharedKernel, UnorderedSharedKernel};
use crate::gpu::tiled::{auto_tile, TiledKernel};
use crate::indexing::{pair_count, tile_pair_count};
use crate::neighbors::CandidateLists;
use crate::observer::Observer;
use crate::search::{EngineError, StepProfile, TwoOptEngine};
use gpu_sim::{
    AtomicDeviceBuffer, Device, DeviceBuffer, DeviceSpec, Kernel, KernelProfile, LaunchConfig,
    SimError, StreamId, TransferProfile,
};
use std::sync::Arc;
use tsp_core::{Instance, Point, Tour};

/// Route a launch to the engine's stream when it has one, to the serial
/// device path otherwise. Free functions (not methods) so call sites can
/// hold disjoint borrows of the engine's other fields.
fn dev_launch<K: Kernel>(
    device: &Device,
    stream: Option<StreamId>,
    cfg: LaunchConfig,
    kernel: &K,
) -> Result<KernelProfile, SimError> {
    match stream {
        Some(s) => device.launch_on(s, cfg, kernel),
        None => device.launch(cfg, kernel),
    }
}

fn dev_copy_to_device<T: Copy>(
    device: &Device,
    stream: Option<StreamId>,
    data: &[T],
    label: &'static str,
) -> Result<(DeviceBuffer<T>, TransferProfile), SimError> {
    match stream {
        Some(s) => device.copy_to_device_on_labeled(s, data, label),
        None => device.copy_to_device_labeled(data, label),
    }
}

fn dev_upload_atomic(
    device: &Device,
    stream: Option<StreamId>,
    buf: &AtomicDeviceBuffer,
    words: &[u64],
) -> Result<TransferProfile, SimError> {
    match stream {
        Some(s) => device.upload_atomic_on(s, buf, words),
        None => device.upload_atomic(buf, words),
    }
}

fn dev_copy_from_device(
    device: &Device,
    stream: Option<StreamId>,
    buf: &AtomicDeviceBuffer,
) -> Result<(Vec<u64>, TransferProfile), SimError> {
    match stream {
        Some(s) => device.copy_from_device_on(s, buf),
        None => Ok(device.copy_from_device(buf)),
    }
}

/// Kernel selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Pick automatically: the shared-memory kernel when the instance
    /// fits on chip, the tiled division scheme otherwise (the paper's
    /// "solving any instance" mode).
    Auto,
    /// Force the §IV.A shared-memory kernel (errors when too large).
    Shared,
    /// Force the §IV.B tiled kernel with the given tile size.
    Tiled {
        /// Tile size in tour positions.
        tile: usize,
    },
    /// Ablation: no shared-memory staging (Optimization 1 off).
    GlobalOnly,
    /// Ablation: route-indirected coordinates (Optimization 2 off).
    Unordered,
    /// Device-resident descent: coordinates uploaded once, the previous
    /// sweep's move applied on device by the segment-reversal kernel;
    /// the evaluation kernel (shared or tiled, same thresholds as
    /// [`Strategy::Auto`]) reads the resident array. The steady-state
    /// sweep cost is `reversal + kernel + d2h` — no per-sweep upload.
    DeviceResident,
    /// Sub-quadratic candidate-list sweep (the §VII "neighborhood
    /// pruning" future work): k-nearest-neighbour lists restrict the
    /// move search to `O(active · k)` checks and don't-look bits shrink
    /// the active set as cities settle. **Inexact** with respect to the
    /// dense best move — every applied move still improves, but descent
    /// terminates at a 2-opt local minimum *within the candidate
    /// neighbourhood* (certified by a final all-awake sweep). This
    /// serial variant re-uploads the lists every sweep.
    Candidate {
        /// Neighbours per city (clamped to `n - 1`).
        k: usize,
    },
    /// [`Strategy::Candidate`] with the candidate lists uploaded once
    /// and kept on device: the steady-state upload is coordinates,
    /// positions and the active-city work list only.
    CandidateResident {
        /// Neighbours per city (clamped to `n - 1`).
        k: usize,
    },
}

/// Which evaluation kernel the resident pipeline runs — resolved once
/// per instance size with the same thresholds as [`Strategy::Auto`].
#[derive(Debug, Clone, Copy)]
enum ResidentEval {
    Shared,
    Tiled { tile: usize },
}

/// Per-instance state of the device-resident pipeline: the resident
/// coordinate words, a host mirror of the route they encode (to detect
/// external tour edits, e.g. an ILS perturbation), the move announced
/// last sweep but not yet applied on device, and the cached launch
/// plans — geometry is recomputed only when the instance size changes.
struct ResidentState {
    coords: AtomicDeviceBuffer,
    mirror: Vec<u32>,
    pending: Option<BestMove>,
    eval: ResidentEval,
    eval_cfg: LaunchConfig,
    reverse_cfg: LaunchConfig,
}

/// Per-instance state of the candidate pipeline: the host-built k-NN
/// lists (plus, for [`Strategy::CandidateResident`], their one-time
/// device upload), the don't-look bits, a host mirror of the route the
/// bits were settled against, the move announced last sweep, and the
/// cached launch geometry. Rebuilt only when the instance or `k`
/// changes.
struct CandidateState {
    /// Requested (pre-clamp) `k` — part of the cache key.
    requested_k: usize,
    /// Cheap instance identity so a swapped instance of the same size
    /// can't reuse stale lists.
    fingerprint: (usize, u64, u64),
    lists: crate::neighbors::CandidateLists,
    /// Resident variant: the flattened lists, uploaded once.
    lists_dev: Option<DeviceBuffer<u32>>,
    dont_look: Vec<bool>,
    mirror: Vec<u32>,
    pending: Option<BestMove>,
    eval_cfg: LaunchConfig,
}

/// How to bring the resident coordinates in sync with the caller's tour
/// before evaluating a sweep.
enum SyncAction {
    /// Already in sync (repeated query without an applied move).
    InSync,
    /// The pending move explains the tour exactly: reverse on device.
    Reverse { from: usize, len: usize },
    /// Anything else (first sweep, size change, external edit): re-upload.
    Refresh,
}

/// GPU 2-opt engine over a simulated device.
pub struct GpuTwoOpt {
    // Declared (and therefore dropped) before `device`: the resident
    // buffers must release back into the pool before the device runs
    // its drop-time leak check.
    resident: Option<ResidentState>,
    candidate: Option<CandidateState>,
    device: Arc<Device>,
    stream: Option<StreamId>,
    strategy: Strategy,
    block_dim: u32,
    grid_dim: u32,
    overlap_transfers: bool,
    ordered: Vec<Point>,
    /// Raw packed word read back by the last sweep (flight recording).
    last_key: Option<u64>,
}

impl GpuTwoOpt {
    /// Engine on the given device spec with automatic kernel selection
    /// and the default launch geometry (4 blocks per compute unit, the
    /// device's maximum block size).
    pub fn new(spec: DeviceSpec) -> Self {
        Self::from_device(Arc::new(Device::new(spec)))
    }

    /// Engine over an existing (possibly shared) device, submitting on
    /// the device's implicit serial path. Use [`GpuTwoOpt::on_stream`] to
    /// share the device across concurrent engines.
    pub fn from_device(device: Arc<Device>) -> Self {
        let spec = device.spec();
        let block_dim = spec.max_threads_per_block.min(1024);
        let grid_dim = spec.compute_units * 4;
        GpuTwoOpt {
            resident: None,
            candidate: None,
            device,
            stream: None,
            strategy: Strategy::Auto,
            block_dim,
            grid_dim,
            overlap_transfers: false,
            ordered: Vec::new(),
            last_key: None,
        }
    }

    /// Engine over a shared device, submitting every transfer and launch
    /// on `stream`. Results are bit-identical to the serial path; modeled
    /// time is resolved by `Device::synchronize`, which lays the queued
    /// ops of all streams onto the device's engines with overlap.
    pub fn on_stream(device: Arc<Device>, stream: StreamId) -> Self {
        let mut engine = Self::from_device(device);
        engine.stream = Some(stream);
        engine
    }

    /// Model double-buffered streams: inside the descent loop the next
    /// sweep's H2D copy overlaps the current kernel, so a sweep costs
    /// `max(kernel, h2d) + d2h` instead of their sum. (The paper's
    /// Algorithm 2 is fully serial; this is the standard follow-up
    /// optimization, quantified by the `ablation_overlap` study.)
    pub fn with_overlapped_transfers(mut self) -> Self {
        self.overlap_transfers = true;
        self
    }

    /// Select a kernel strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Override the launch geometry (e.g. the paper's 28 × 1024).
    pub fn with_launch(mut self, grid_dim: u32, block_dim: u32) -> Self {
        self.grid_dim = grid_dim;
        self.block_dim = block_dim;
        self
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Attach `observer`'s device-side sinks to the underlying device
    /// (`gpu_sim::Device::attach`): every transfer and launch is
    /// recorded, counted and profiled, and the memory ledger sees this
    /// engine's buffer labels (`"coords"`, `"positions"`,
    /// `"candidate_lists"`, `"active_set"`, `"best_out"`,
    /// `"resident_coords"`). Pass the same observer to the descent
    /// ([`crate::SearchOptions::observer`]) to nest the device events in
    /// the sweeps.
    ///
    /// # Panics
    /// When the device is already shared (another engine holds it):
    /// attach before handing the device out, or through
    /// `DevicePool::attach` for pooled devices.
    pub fn with_observer(mut self, observer: &Observer) -> Self {
        Arc::get_mut(&mut self.device)
            .expect("attach the observer before the device is shared")
            .attach(&observer.recorder, &observer.telemetry, &observer.prof);
        self
    }

    /// Resolve `Auto` for an instance of `n` cities.
    fn resolve(&self, n: usize) -> Strategy {
        match self.strategy {
            Strategy::Auto => {
                let shared = self.device.spec().shared_mem_per_block;
                if n * Point::DEVICE_BYTES <= shared {
                    Strategy::Shared
                } else {
                    Strategy::Tiled {
                        tile: auto_tile(n, shared, self.grid_dim),
                    }
                }
            }
            s => s,
        }
    }

    /// (Re)build the resident pipeline state for an instance of `n`
    /// cities, caching the evaluation plan and launch geometries. A
    /// fresh state starts with an empty mirror, which forces the first
    /// sweep down the [`SyncAction::Refresh`] (upload) path.
    fn ensure_resident_state(&mut self, n: usize) -> Result<(), EngineError> {
        if self
            .resident
            .as_ref()
            .is_some_and(|st| st.coords.len() == n)
        {
            return Ok(());
        }
        let spec = self.device.spec();
        let shared = spec.shared_mem_per_block;
        let (eval, eval_cfg) = if n * Point::DEVICE_BYTES <= shared {
            (
                ResidentEval::Shared,
                LaunchConfig::new(self.grid_dim, self.block_dim),
            )
        } else {
            let tile = auto_tile(n, shared, self.grid_dim);
            let tiles = ((n - 1) as u64).div_ceil(tile as u64);
            let grid = tile_pair_count(tiles) as u32;
            (
                ResidentEval::Tiled { tile },
                LaunchConfig::new(grid, self.block_dim),
            )
        };
        // The reversal moves at most n/2 words; one block per compute
        // unit saturates the modeled global pipe without wave overhead.
        let reverse_cfg = LaunchConfig::new(spec.compute_units, self.block_dim);
        self.resident = Some(ResidentState {
            coords: self.device.alloc_atomic_labeled(n, 0, "resident_coords")?,
            mirror: Vec::new(),
            pending: None,
            eval,
            eval_cfg,
            reverse_cfg,
        });
        Ok(())
    }

    /// Decide how to sync the resident coordinates with `tour`. When the
    /// move announced last sweep explains the tour exactly, the mirror is
    /// updated in place and the device gets a reversal; any divergence
    /// (first sweep, external tour edit) falls back to a full upload.
    fn resident_sync_action(&mut self, tour: &Tour) -> SyncAction {
        let st = self.resident.as_mut().expect("state built by caller");
        match st.pending.take() {
            Some(m) => {
                let from = m.i as usize + 1;
                let len = (m.j - m.i) as usize;
                st.mirror[from..from + len].reverse();
                if st.mirror == tour.as_slice() {
                    SyncAction::Reverse { from, len }
                } else {
                    SyncAction::Refresh
                }
            }
            None if st.mirror == tour.as_slice() => SyncAction::InSync,
            None => SyncAction::Refresh,
        }
    }

    /// The candidate pipeline's don't-look bits, `None` until a
    /// candidate sweep has run — exposed so the differential suites can
    /// pin don't-look-bit state across runs and replays.
    pub fn candidate_dont_look(&self) -> Option<&[bool]> {
        self.candidate.as_ref().map(|st| st.dont_look.as_slice())
    }

    /// (Re)build the candidate pipeline state — k-NN lists, don't-look
    /// bits, cached launch geometry — when the instance or the requested
    /// `k` changes. A fresh state starts with an empty mirror, which
    /// wakes every city for the first sweep.
    fn ensure_candidate_state(&mut self, inst: &Instance, n: usize, k: usize) {
        // Cheap identity: size plus first/last coordinate words. Enough
        // to catch an instance swap without hashing every point.
        let fingerprint = (
            n,
            inst.point(0).to_device_word(),
            inst.point(n - 1).to_device_word(),
        );
        if self.candidate.as_ref().is_some_and(|st| {
            st.requested_k == k && st.fingerprint == fingerprint && st.dont_look.len() == n
        }) {
            return;
        }
        self.candidate = Some(CandidateState {
            requested_k: k,
            fingerprint,
            lists: CandidateLists::build(inst, k),
            lists_dev: None,
            dont_look: vec![false; n],
            mirror: Vec::new(),
            pending: None,
            eval_cfg: LaunchConfig::new(self.grid_dim, self.block_dim),
        });
    }

    /// One `best_move` query of the candidate pipeline.
    ///
    /// Settles the don't-look bits against what happened since the last
    /// sweep (our own applied move wakes its four endpoint cities; any
    /// external edit wakes everyone), evaluates the active set, and —
    /// when the active sweep finds nothing while some cities are asleep
    /// — wakes everyone and runs one certifying sweep, so a `None`
    /// answer always means a candidate-neighbourhood local minimum.
    fn candidate_best_move(
        &mut self,
        tour: &Tour,
        resident_lists: bool,
    ) -> Result<(Option<BestMove>, StepProfile), EngineError> {
        let n = tour.len();
        let mut st = self.candidate.take().expect("state built by caller");
        let k = st.lists.k();
        if k == 0 {
            self.candidate = Some(st);
            return Err(EngineError::Unsupported(
                "candidate strategies need k >= 1 neighbours per city".into(),
            ));
        }

        // --- settle don't-look bits against the caller's tour --------
        match st.pending.take() {
            Some(m) => {
                let from = m.i as usize + 1;
                let len = (m.j - m.i) as usize;
                st.mirror[from..from + len].reverse();
                if st.mirror == tour.as_slice() {
                    // Our announced move was applied verbatim: only its
                    // four endpoint cities gained or lost an edge.
                    for p in [m.i, m.i + 1, m.j, m.j + 1] {
                        st.dont_look[st.mirror[p as usize] as usize] = false;
                    }
                } else {
                    st.mirror.clear();
                    st.mirror.extend_from_slice(tour.as_slice());
                    st.dont_look.fill(false);
                }
            }
            None if st.mirror == tour.as_slice() => {}
            None => {
                st.mirror.clear();
                st.mirror.extend_from_slice(tour.as_slice());
                st.dont_look.fill(false);
            }
        }

        // City → position, shared by every sweep of this query.
        let mut pos_host = vec![0u32; n];
        for (p, &c) in tour.as_slice().iter().enumerate() {
            pos_host[c as usize] = p as u32;
        }

        let mut profile = StepProfile::default();
        let mut key = EMPTY_KEY;
        let mut all_awake = st.dont_look.iter().all(|b| !b);
        let result = loop {
            if !all_awake && st.dont_look.iter().all(|b| *b) {
                // Everyone settled since the last query: go straight to
                // the certifying all-awake sweep.
                st.dont_look.fill(false);
                all_awake = true;
            }
            let sweep = self.candidate_sweep(&mut st, resident_lists, &pos_host);
            let (sweep_key, sweep_profile) = match sweep {
                Ok(r) => r,
                Err(e) => break Err(e),
            };
            profile.accumulate(&sweep_profile);
            key = sweep_key;
            if unpack(key).filter(BestMove::improves).is_some() || all_awake {
                break Ok(());
            }
            // Active-set local minimum with cities asleep: certify it
            // against the full candidate neighbourhood.
            st.dont_look.fill(false);
            all_awake = true;
        };
        result?;

        self.last_key = Some(key);
        let best = unpack(key).filter(BestMove::improves);
        st.pending = best;
        self.candidate = Some(st);
        Ok((best, profile))
    }

    /// Evaluate one candidate sweep over the currently active cities and
    /// settle their don't-look bits from the per-slot results. Returns
    /// the host-reduced packed best key (same u64-min tie-break as the
    /// dense kernels' `fetch_min`) and the sweep's profile.
    fn candidate_sweep(
        &self,
        st: &mut CandidateState,
        resident_lists: bool,
        pos_host: &[u32],
    ) -> Result<(u64, StepProfile), EngineError> {
        let active_cities: Vec<u32> = (0..pos_host.len() as u32)
            .filter(|&c| !st.dont_look[c as usize])
            .collect();
        let m = active_cities.len();
        let k = st.lists.k();

        let (coords, h2d_a) =
            dev_copy_to_device(&self.device, self.stream, &self.ordered, "coords")?;
        let (pos, h2d_b) = dev_copy_to_device(&self.device, self.stream, pos_host, "positions")?;
        let mut h2d_seconds = h2d_a.seconds + h2d_b.seconds;
        // The serial variant re-uploads the lists every sweep; the
        // resident variant pays that upload exactly once.
        let serial_lists;
        let lists = if resident_lists {
            if st.lists_dev.is_none() {
                let (buf, t) = dev_copy_to_device(
                    &self.device,
                    self.stream,
                    st.lists.flat(),
                    "candidate_lists",
                )?;
                h2d_seconds += t.seconds;
                st.lists_dev = Some(buf);
            }
            st.lists_dev.as_ref().expect("uploaded above")
        } else {
            let (buf, t) = dev_copy_to_device(
                &self.device,
                self.stream,
                st.lists.flat(),
                "candidate_lists",
            )?;
            h2d_seconds += t.seconds;
            serial_lists = buf;
            &serial_lists
        };
        let (active, h2d_d) =
            dev_copy_to_device(&self.device, self.stream, &active_cities, "active_set")?;
        h2d_seconds += h2d_d.seconds;

        let out = self.device.alloc_atomic_labeled(m, EMPTY_KEY, "best_out")?;
        let kernel = CandidateSweepKernel {
            coords: &coords,
            pos: &pos,
            lists,
            k,
            active: &active,
            out: &out,
        };
        let kernel_profile = dev_launch(&self.device, self.stream, st.eval_cfg, &kernel)?;
        let (words, d2h) = dev_copy_from_device(&self.device, self.stream, &out)?;

        let mut key = EMPTY_KEY;
        for (slot, &word) in words.iter().enumerate() {
            if unpack(word).filter(BestMove::improves).is_none() {
                st.dont_look[active_cities[slot] as usize] = true;
            }
            key = key.min(word);
        }

        let (kernel_seconds, h2d_seconds) = if self.overlap_transfers {
            (kernel_profile.seconds.max(h2d_seconds), 0.0)
        } else {
            (kernel_profile.seconds, h2d_seconds)
        };
        Ok((
            key,
            StepProfile {
                pairs_checked: (m * k) as u64,
                flops: kernel_profile.counters.flops,
                kernel_seconds,
                reversal_seconds: 0.0,
                h2d_seconds,
                d2h_seconds: d2h.seconds,
            },
        ))
    }
}

impl TwoOptEngine for GpuTwoOpt {
    fn name(&self) -> String {
        format!("gpu[{}, {:?}]", self.device.spec().name, self.strategy)
    }

    fn last_best_key(&self) -> Option<u64> {
        self.last_key
    }

    fn best_move(
        &mut self,
        inst: &Instance,
        tour: &Tour,
    ) -> Result<(Option<BestMove>, StepProfile), EngineError> {
        if !inst.is_coordinate_based() {
            return Err(EngineError::Unsupported(
                "the GPU kernels compute distances from coordinates; \
                 explicit-matrix instances would need the O(n^2) LUT the \
                 paper's approach exists to avoid"
                    .into(),
            ));
        }
        let n = tour.len();
        if n < 4 {
            return Ok((None, StepProfile::default()));
        }
        if n - 1 > MAX_POSITION as usize {
            return Err(EngineError::Unsupported(format!(
                "instance of {n} cities exceeds the packed-key position \
                 budget ({MAX_POSITION} positions)"
            )));
        }

        let resolved = self.resolve(n);

        // Host-side ordering (Optimization 2) — skipped by the resident
        // pipeline, which keeps the ordered array on the device.
        if !matches!(resolved, Strategy::DeviceResident) {
            self.ordered.clear();
            self.ordered
                .extend(tour.as_slice().iter().map(|&c| inst.point(c as usize)));
        }

        // The candidate pipeline has its own work-list/don't-look flow
        // (possibly two launches per query) — branch off before the
        // single-slot dense result buffer is allocated.
        if let Strategy::Candidate { k } | Strategy::CandidateResident { k } = resolved {
            self.ensure_candidate_state(inst, n, k);
            return self
                .candidate_best_move(tour, matches!(resolved, Strategy::CandidateResident { .. }));
        }

        let out = self.device.alloc_atomic_labeled(1, EMPTY_KEY, "best_out")?;
        let (kernel_profile, h2d_seconds, reversal_seconds) = match resolved {
            Strategy::Shared => {
                let (coords, h2d) =
                    dev_copy_to_device(&self.device, self.stream, &self.ordered, "coords")?;
                let k = OrderedSharedKernel {
                    coords: &coords,
                    out: &out,
                };
                let p = dev_launch(
                    &self.device,
                    self.stream,
                    LaunchConfig::new(self.grid_dim, self.block_dim),
                    &k,
                )?;
                (p, h2d.seconds, 0.0)
            }
            Strategy::GlobalOnly => {
                let (coords, h2d) =
                    dev_copy_to_device(&self.device, self.stream, &self.ordered, "coords")?;
                let k = GlobalOnlyKernel {
                    coords: &coords,
                    out: &out,
                };
                let p = dev_launch(
                    &self.device,
                    self.stream,
                    LaunchConfig::new(self.grid_dim, self.block_dim),
                    &k,
                )?;
                (p, h2d.seconds, 0.0)
            }
            Strategy::Unordered => {
                // Fig. 5 layout: city-indexed coordinates + the route.
                let (coords, h2d_a) =
                    dev_copy_to_device(&self.device, self.stream, inst.points(), "coords")?;
                let (route, h2d_b) =
                    dev_copy_to_device(&self.device, self.stream, tour.as_slice(), "positions")?;
                let k = UnorderedSharedKernel {
                    coords: &coords,
                    route: &route,
                    out: &out,
                };
                let p = dev_launch(
                    &self.device,
                    self.stream,
                    LaunchConfig::new(self.grid_dim, self.block_dim),
                    &k,
                )?;
                (p, h2d_a.seconds + h2d_b.seconds, 0.0)
            }
            Strategy::Tiled { tile } => {
                if tile == 0 {
                    return Err(EngineError::Unsupported("tile size must be nonzero".into()));
                }
                let (coords, h2d) =
                    dev_copy_to_device(&self.device, self.stream, &self.ordered, "coords")?;
                let k = TiledKernel {
                    coords: &coords,
                    out: &out,
                    tile,
                };
                let grid = k.grid_dim();
                let p = dev_launch(
                    &self.device,
                    self.stream,
                    LaunchConfig::new(grid, self.block_dim),
                    &k,
                )?;
                (p, h2d.seconds, 0.0)
            }
            Strategy::DeviceResident => {
                self.ensure_resident_state(n)?;
                let (h2d, reversal) = match self.resident_sync_action(tour) {
                    SyncAction::InSync => (0.0, 0.0),
                    SyncAction::Reverse { from, len } => {
                        let st = self.resident.as_ref().expect("state built above");
                        let k = SegmentReversalKernel {
                            coords: &st.coords,
                            from,
                            len,
                        };
                        let p = dev_launch(&self.device, self.stream, st.reverse_cfg, &k)?;
                        (0.0, p.seconds)
                    }
                    SyncAction::Refresh => {
                        let words: Vec<u64> = tour
                            .as_slice()
                            .iter()
                            .map(|&c| inst.point(c as usize).to_device_word())
                            .collect();
                        let st = self.resident.as_mut().expect("state built above");
                        st.mirror.clear();
                        st.mirror.extend_from_slice(tour.as_slice());
                        let t = dev_upload_atomic(&self.device, self.stream, &st.coords, &words)?;
                        (t.seconds, 0.0)
                    }
                };
                let st = self.resident.as_ref().expect("state built above");
                let p = match st.eval {
                    ResidentEval::Shared => dev_launch(
                        &self.device,
                        self.stream,
                        st.eval_cfg,
                        &OrderedSharedKernel {
                            coords: ResidentCoords(&st.coords),
                            out: &out,
                        },
                    )?,
                    ResidentEval::Tiled { tile } => dev_launch(
                        &self.device,
                        self.stream,
                        st.eval_cfg,
                        &TiledKernel {
                            coords: ResidentCoords(&st.coords),
                            out: &out,
                            tile,
                        },
                    )?,
                };
                (p, h2d, reversal)
            }
            Strategy::Auto => unreachable!("resolved above"),
            Strategy::Candidate { .. } | Strategy::CandidateResident { .. } => {
                unreachable!("candidate strategies branch off above")
            }
        };

        let (words, d2h) = dev_copy_from_device(&self.device, self.stream, &out)?;
        self.last_key = Some(words[0]);
        let best = unpack(words[0]).filter(BestMove::improves);

        // Remember the move we just announced so the next sweep can apply
        // it on device instead of re-uploading.
        if matches!(resolved, Strategy::DeviceResident) {
            if let Some(st) = self.resident.as_mut() {
                st.pending = best;
            }
        }

        // Under overlapped streams the H2D copy hides behind the kernel;
        // report the hidden portion as zero so modeled_seconds() reflects
        // the pipelined cost.
        let (kernel_seconds, h2d_seconds) = if self.overlap_transfers {
            (kernel_profile.seconds.max(h2d_seconds), 0.0)
        } else {
            (kernel_profile.seconds, h2d_seconds)
        };
        let profile = StepProfile {
            pairs_checked: pair_count(n),
            flops: kernel_profile.counters.flops,
            kernel_seconds,
            reversal_seconds,
            h2d_seconds,
            d2h_seconds: d2h.seconds,
        };
        Ok((best, profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_parallel::CpuParallelTwoOpt;
    use crate::search::{optimize, SearchOptions};
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
    fn gpu_agrees_with_sequential_every_strategy() {
        let inst = random_instance(80, 5);
        let mut rng = SmallRng::seed_from_u64(99);
        let tour = Tour::random(80, &mut rng);
        let mut seq = SequentialTwoOpt::new();
        let (expected, _) = seq.best_move(&inst, &tour).unwrap();
        for strategy in [
            Strategy::Auto,
            Strategy::Shared,
            Strategy::Tiled { tile: 17 },
            Strategy::GlobalOnly,
            Strategy::Unordered,
            Strategy::DeviceResident,
        ] {
            let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
            let (got, prof) = gpu.best_move(&inst, &tour).unwrap();
            assert_eq!(got, expected, "{strategy:?}");
            assert_eq!(prof.pairs_checked, pair_count(80));
            assert!(prof.kernel_seconds > 0.0);
            // Every pipeline pays an upload on its first sweep — the
            // resident one included.
            assert!(prof.h2d_seconds > 0.0);
            assert!(prof.d2h_seconds > 0.0);
        }
    }

    #[test]
    fn device_resident_descent_matches_serial_pipeline() {
        let inst = random_instance(60, 21);
        let mut rng = SmallRng::seed_from_u64(7);
        let start = Tour::random(60, &mut rng);

        let mut t_serial = start.clone();
        let mut t_resident = start.clone();
        let mut serial = GpuTwoOpt::new(spec::gtx_680_cuda());
        let mut resident =
            GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(Strategy::DeviceResident);
        let a = optimize(&mut serial, &inst, &mut t_serial, SearchOptions::default()).unwrap();
        let b = optimize(
            &mut resident,
            &inst,
            &mut t_resident,
            SearchOptions::default(),
        )
        .unwrap();

        assert_eq!(t_serial.as_slice(), t_resident.as_slice());
        assert_eq!(a.final_length, b.final_length);
        assert_eq!(a.sweeps, b.sweeps);
        assert!(b.reached_local_minimum);
        // Only the first sweep uploads: the accumulated H2D equals one
        // refresh, and the on-device reversals carry the rest.
        assert!(b.profile.h2d_seconds < a.profile.h2d_seconds);
        assert!(b.profile.reversal_seconds > 0.0);
        assert_eq!(a.profile.reversal_seconds, 0.0);
    }

    #[test]
    fn device_resident_steady_state_has_no_upload() {
        let inst = random_instance(120, 3);
        let mut rng = SmallRng::seed_from_u64(15);
        let mut tour = Tour::random(120, &mut rng);
        let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(Strategy::DeviceResident);

        // Sweep 1: cold start — the refresh upload is paid here.
        let (mv, p1) = gpu.best_move(&inst, &tour).unwrap();
        assert!(p1.h2d_seconds > 0.0);
        assert_eq!(p1.reversal_seconds, 0.0);
        let m = mv.expect("a random 120-city tour has an improving move");
        tour.apply_two_opt(m.i as usize, m.j as usize);

        // Sweep 2: steady state — reversal replaces the upload, and the
        // move still matches the serial reference.
        let (mv2, p2) = gpu.best_move(&inst, &tour).unwrap();
        assert_eq!(p2.h2d_seconds, 0.0);
        assert!(p2.reversal_seconds > 0.0);
        assert!(
            (p2.modeled_seconds() - (p2.kernel_seconds + p2.reversal_seconds + p2.d2h_seconds))
                .abs()
                < 1e-18
        );
        let mut seq = SequentialTwoOpt::new();
        let (expected, _) = seq.best_move(&inst, &tour).unwrap();
        assert_eq!(mv2, expected);
    }

    #[test]
    fn device_resident_recovers_from_external_tour_edits() {
        // An ILS-style perturbation between sweeps invalidates the
        // resident coordinates; the engine must fall back to a refresh
        // and still answer correctly.
        let inst = random_instance(90, 33);
        let mut tour = Tour::identity(90);
        let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(Strategy::DeviceResident);
        let (mv, _) = gpu.best_move(&inst, &tour).unwrap();
        let m = mv.expect("identity tour of a random instance improves");
        tour.apply_two_opt(m.i as usize, m.j as usize);
        // External edit the engine was never told about.
        tour.apply_two_opt(10, 60);

        let (got, p) = gpu.best_move(&inst, &tour).unwrap();
        assert!(p.h2d_seconds > 0.0, "divergence must force a re-upload");
        assert_eq!(p.reversal_seconds, 0.0);
        let mut seq = SequentialTwoOpt::new();
        let (expected, _) = seq.best_move(&inst, &tour).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn device_resident_uses_tiled_eval_past_shared_capacity() {
        let mut s = spec::gtx_680_cuda();
        s.shared_mem_per_block = 512; // 64 points max -> 65 needs tiles
        let inst = random_instance(65, 44);
        let mut tour = Tour::identity(65);
        let mut gpu = GpuTwoOpt::new(s).with_strategy(Strategy::DeviceResident);
        let (mv, _) = gpu.best_move(&inst, &tour).unwrap();
        let mut seq = SequentialTwoOpt::new();
        let (expected, _) = seq.best_move(&inst, &tour).unwrap();
        assert_eq!(mv, expected);
        // And the reversal path works on the tiled eval too.
        let m = mv.unwrap();
        tour.apply_two_opt(m.i as usize, m.j as usize);
        let (mv2, p2) = gpu.best_move(&inst, &tour).unwrap();
        let (expected2, _) = seq.best_move(&inst, &tour).unwrap();
        assert_eq!(mv2, expected2);
        assert_eq!(p2.h2d_seconds, 0.0);
        assert!(p2.reversal_seconds > 0.0);
    }

    #[test]
    fn descent_to_local_minimum_matches_cpu_engines() {
        let inst = random_instance(50, 11);
        let mut rng = SmallRng::seed_from_u64(4);
        let start = Tour::random(50, &mut rng);

        let mut t_seq = start.clone();
        let mut t_par = start.clone();
        let mut t_gpu = start.clone();
        let mut seq = SequentialTwoOpt::new();
        let mut par = CpuParallelTwoOpt::new();
        let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda());
        let s1 = optimize(&mut seq, &inst, &mut t_seq, SearchOptions::default()).unwrap();
        let s2 = optimize(&mut par, &inst, &mut t_par, SearchOptions::default()).unwrap();
        let s3 = optimize(&mut gpu, &inst, &mut t_gpu, SearchOptions::default()).unwrap();

        // Identical move sequences -> identical tours and stats.
        assert_eq!(t_seq.as_slice(), t_par.as_slice());
        assert_eq!(t_seq.as_slice(), t_gpu.as_slice());
        assert_eq!(s1.final_length, s3.final_length);
        assert_eq!(s1.sweeps, s3.sweeps);
        assert_eq!(s2.improving_moves, s3.improving_moves);
        assert!(s3.reached_local_minimum);
        // 2-opt must actually improve a random tour of 50 cities.
        assert!(s3.final_length < s3.initial_length);
    }

    #[test]
    fn auto_switches_to_tiled_when_too_big_for_shared() {
        let mut s = spec::gtx_680_cuda();
        s.shared_mem_per_block = 512; // 64 points max, tile = 31
        let gpu = GpuTwoOpt::new(s);
        assert_eq!(gpu.resolve(60), Strategy::Shared);
        // auto_tile shrinks below the 31-position capacity so the grid
        // (default 4 blocks/CU = 32) stays occupied: 64 positions over
        // >= 8 tiles -> tile 8.
        assert_eq!(gpu.resolve(65), Strategy::Tiled { tile: 8 });
        // And the tiled path really runs + agrees.
        let inst = random_instance(65, 2);
        let tour = Tour::identity(65);
        let mut gpu = gpu;
        let (got, _) = gpu.best_move(&inst, &tour).unwrap();
        let mut seq = SequentialTwoOpt::new();
        let (expected, _) = seq.best_move(&inst, &tour).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn rejects_explicit_instances() {
        use tsp_core::ExplicitMatrix;
        let m = ExplicitMatrix::from_upper_row(4, &[1, 2, 3, 4, 5, 6]).unwrap();
        let inst = Instance::from_matrix("em", m, None).unwrap();
        let tour = Tour::identity(4);
        let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda());
        assert!(matches!(
            gpu.best_move(&inst, &tour),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn forced_shared_strategy_errors_past_capacity() {
        let mut s = spec::gtx_680_cuda();
        s.shared_mem_per_block = 256; // 32 points
        let mut gpu = GpuTwoOpt::new(s).with_strategy(Strategy::Shared);
        let inst = random_instance(100, 1);
        let tour = Tour::identity(100);
        assert!(matches!(
            gpu.best_move(&inst, &tour),
            Err(EngineError::Sim(
                gpu_sim::SimError::SharedMemExceeded { .. }
            ))
        ));
    }

    #[test]
    fn overlapped_transfers_hide_the_h2d_copy() {
        let inst = random_instance(600, 12);
        let tour = Tour::identity(600);
        let mut plain = GpuTwoOpt::new(spec::gtx_680_cuda());
        let (mv_a, pa) = plain.best_move(&inst, &tour).unwrap();
        let mut piped = GpuTwoOpt::new(spec::gtx_680_cuda()).with_overlapped_transfers();
        let (mv_b, pb) = piped.best_move(&inst, &tour).unwrap();
        assert_eq!(mv_a, mv_b);
        assert!(pb.modeled_seconds() < pa.modeled_seconds());
        assert_eq!(pb.h2d_seconds, 0.0);
        // Never better than the ideal max(kernel, h2d) + d2h bound.
        let ideal = pa.kernel_seconds.max(pa.h2d_seconds) + pa.d2h_seconds;
        assert!((pb.modeled_seconds() - ideal).abs() < 1e-12);
    }

    #[test]
    fn streamed_engines_share_a_device_and_match_serial_bit_for_bit() {
        let inst = random_instance(70, 9);
        let mut rng = SmallRng::seed_from_u64(41);
        let start_a = Tour::random(70, &mut rng);
        let start_b = Tour::random(70, &mut rng);

        // Serial reference descents, one private device each.
        let run_serial = |start: &Tour| {
            let mut t = start.clone();
            let mut e = GpuTwoOpt::new(spec::gtx_680_cuda());
            let s = optimize(&mut e, &inst, &mut t, SearchOptions::default()).unwrap();
            (t, s)
        };
        let (ta, sa) = run_serial(&start_a);
        let (tb, sb) = run_serial(&start_b);

        // Two streamed engines sharing one device.
        let device = Arc::new(Device::new(spec::gtx_680_cuda()));
        let s0 = device.create_stream();
        let s1 = device.create_stream();
        let mut ea = GpuTwoOpt::on_stream(device.clone(), s0);
        let mut eb = GpuTwoOpt::on_stream(device.clone(), s1);
        let mut ta2 = start_a.clone();
        let mut tb2 = start_b.clone();
        let sa2 = optimize(&mut ea, &inst, &mut ta2, SearchOptions::default()).unwrap();
        let sb2 = optimize(&mut eb, &inst, &mut tb2, SearchOptions::default()).unwrap();

        // Identical tours and identical per-sweep modeled durations.
        assert_eq!(ta.as_slice(), ta2.as_slice());
        assert_eq!(tb.as_slice(), tb2.as_slice());
        assert_eq!(sa.final_length, sa2.final_length);
        assert_eq!(sb.final_length, sb2.final_length);
        assert_eq!(sa.profile, sa2.profile);
        assert_eq!(sb.profile, sb2.profile);

        // The shared device's schedule overlaps the two descents.
        let report = device.synchronize();
        assert_eq!(report.streams, 2);
        assert!(report.overlap() > 0.0);
        assert!(report.wall_seconds < report.busy_seconds);
    }

    #[test]
    fn candidate_with_complete_lists_matches_the_dense_best_move() {
        // With k >= n-1 the candidate neighbourhood is the full pair
        // space, so the inexact strategy becomes exact: the host-reduced
        // slot minimum must equal the dense kernels' fetch_min word.
        let inst = random_instance(80, 5);
        let mut rng = SmallRng::seed_from_u64(99);
        let tour = Tour::random(80, &mut rng);
        let mut seq = SequentialTwoOpt::new();
        let (expected, _) = seq.best_move(&inst, &tour).unwrap();
        for strategy in [
            Strategy::Candidate { k: 79 },
            Strategy::CandidateResident { k: 500 }, // clamped to 79
        ] {
            let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
            let (got, prof) = gpu.best_move(&inst, &tour).unwrap();
            assert_eq!(got, expected, "{strategy:?}");
            assert_eq!(prof.pairs_checked, 80 * 79, "{strategy:?}");
            assert!(prof.h2d_seconds > 0.0 && prof.d2h_seconds > 0.0);
            assert_eq!(prof.reversal_seconds, 0.0);
        }
    }

    #[test]
    fn candidate_descent_reaches_a_candidate_local_minimum() {
        use crate::neighbors::CandidateLists;
        let inst = random_instance(120, 3);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut tour = Tour::random(120, &mut rng);
        let mut gpu =
            GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(Strategy::Candidate { k: 8 });
        let stats = optimize(&mut gpu, &inst, &mut tour, SearchOptions::default()).unwrap();
        assert!(stats.reached_local_minimum);
        assert!(stats.final_length < stats.initial_length);
        tour.validate().unwrap();
        // The termination contract: no improving move is left anywhere
        // in the candidate neighbourhood (host-mirror certification).
        let cl = CandidateLists::build(&inst, 8);
        assert!(cl.best_candidate_move(&inst, &tour).is_none());
    }

    #[test]
    fn dont_look_bits_shrink_the_active_set() {
        let n = 150;
        let inst = random_instance(n, 23);
        let mut rng = SmallRng::seed_from_u64(31);
        let mut tour = Tour::random(n, &mut rng);
        let mut gpu =
            GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(Strategy::Candidate { k: 10 });

        // Sweep 1: every city awake.
        let (mv, p1) = gpu.best_move(&inst, &tour).unwrap();
        assert_eq!(p1.pairs_checked, (n * 10) as u64);
        let m = mv.expect("a random tour has improving candidate moves");
        tour.apply_two_opt(m.i as usize, m.j as usize);

        // Sweep 2: most cities settled; only the woken endpoints and the
        // cities that still had improving slots stay on the work list.
        let (_, p2) = gpu.best_move(&inst, &tour).unwrap();
        assert!(
            p2.pairs_checked < p1.pairs_checked,
            "sweep 2 checked {} pairs, sweep 1 {}",
            p2.pairs_checked,
            p1.pairs_checked
        );
        let asleep = gpu
            .candidate_dont_look()
            .unwrap()
            .iter()
            .filter(|&&b| b)
            .count();
        assert!(asleep > 0, "some cities must have settled");
    }

    #[test]
    fn candidate_resident_uploads_lists_once() {
        let n = 200;
        let inst = random_instance(n, 41);
        let mut rng = SmallRng::seed_from_u64(8);
        let start = Tour::random(n, &mut rng);

        let run = |strategy: Strategy| {
            let mut tour = start.clone();
            let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
            let (mv, p1) = gpu.best_move(&inst, &tour).unwrap();
            let m = mv.expect("improving move");
            tour.apply_two_opt(m.i as usize, m.j as usize);
            let (_, p2) = gpu.best_move(&inst, &tour).unwrap();
            (p1, p2)
        };
        let (s1, s2) = run(Strategy::Candidate { k: 12 });
        let (r1, r2) = run(Strategy::CandidateResident { k: 12 });
        // Identical first-sweep uploads (the resident variant pays the
        // list upload on its cold sweep too)...
        assert!((s1.h2d_seconds - r1.h2d_seconds).abs() < 1e-15);
        // ...but the steady state drops the n·k list transfer.
        assert!(
            r2.h2d_seconds < s2.h2d_seconds,
            "resident steady-state h2d {} vs serial {}",
            r2.h2d_seconds,
            s2.h2d_seconds
        );
        // Same moves either way: the lists' home doesn't change results.
        assert_eq!(s2.pairs_checked, r2.pairs_checked);
    }

    #[test]
    fn candidate_recovers_from_external_tour_edits() {
        use crate::neighbors::CandidateLists;
        let n = 90;
        let inst = random_instance(n, 33);
        let mut tour = Tour::identity(n);
        let mut gpu =
            GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(Strategy::Candidate { k: 6 });
        let (mv, _) = gpu.best_move(&inst, &tour).unwrap();
        let m = mv.expect("identity tour of a random instance improves");
        tour.apply_two_opt(m.i as usize, m.j as usize);
        // External edit the engine was never told about: every
        // don't-look bit must be discarded, so the answer equals the
        // all-awake host mirror.
        tour.apply_two_opt(10, 60);
        let (got, p) = gpu.best_move(&inst, &tour).unwrap();
        assert_eq!(
            p.pairs_checked,
            (n * 6) as u64,
            "external edit must wake every city"
        );
        let cl = CandidateLists::build(&inst, 6);
        assert_eq!(got, cl.best_candidate_move(&inst, &tour));
    }

    #[test]
    fn candidate_with_zero_k_is_rejected() {
        let inst = random_instance(30, 2);
        let tour = Tour::identity(30);
        let mut gpu =
            GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(Strategy::Candidate { k: 0 });
        assert!(matches!(
            gpu.best_move(&inst, &tour),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn paper_launch_geometry_works() {
        // The paper's 28 blocks x 1024 threads on a mid-size instance.
        let inst = random_instance(300, 8);
        let tour = Tour::identity(300);
        let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda()).with_launch(28, 1024);
        let (mv, prof) = gpu.best_move(&inst, &tour).unwrap();
        let mut seq = SequentialTwoOpt::new();
        let (expected, _) = seq.best_move(&inst, &tour).unwrap();
        assert_eq!(mv, expected);
        assert!(prof.flops > 0);
    }
}
