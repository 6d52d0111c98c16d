//! GPU Or-opt: the paper's §VII outlook ("more complex local search
//! algorithms such as 2.5-opt") implemented with the *same* machinery as
//! the 2-opt kernel — route-ordered coordinates staged in shared memory,
//! a flattened candidate space swept by strided threads, and a packed
//! atomic-min reduction.
//!
//! The candidate space is `(combo, s, j)` where `combo` encodes the
//! segment length `L ∈ {1, 2, 3}` and the orientation (forward /
//! reversed), `s` the segment start position and `j` the insertion edge
//! `(j, j+1)`. Flattened size is `6 · n · n`, decoded per index with
//! invalid cells (segment out of bounds, insertion touching the segment)
//! skipped at zero FLOP cost — the same "skip unnecessary computation
//! inside a kernel" shape as the paper's Fig. 8.
//!
//! ## Key packing
//!
//! ```text
//! bits 63..43 : delta + 2^20   (21 bits, saturating)
//! bits 42..23 : s              (20 bits)
//! bits 22..20 : combo          ((L-1)*2 + reversed)
//! bits 19..0  : j              (20 bits)
//! ```
//!
//! `fetch_min` therefore selects the most-improving move with ties
//! broken by `(s, L, reversed, j)` — exactly the CPU
//! [`crate::oropt::best_move`] tie-break, so both agree bit-for-bit.

use crate::bestmove::EMPTY_KEY;
use crate::cpu_model::BYTES_PER_CHECK;
use crate::delta::FLOPS_PER_CHECK;
use crate::gpu::small::{block_reduce, RESULT_SLOT};
use crate::oropt::OrOptMove;
use crate::search::{EngineError, StepProfile};
use gpu_sim::{
    AtomicDeviceBuffer, BlockCtx, Device, DeviceBuffer, DeviceSpec, Kernel, LaunchConfig,
};
use tsp_core::{Instance, Point, Tour};

/// Maximum relocated-segment length (the classic Or-opt choice).
pub const MAX_SEG_LEN: usize = 3;
/// Number of (length, orientation) combos.
pub const COMBOS: u64 = (MAX_SEG_LEN as u64) * 2;

const DELTA_BITS: u32 = 21;
const DELTA_BIAS: i64 = 1 << (DELTA_BITS - 1);
const DELTA_MASK: u64 = (1 << DELTA_BITS) - 1;
const POS_BITS: u32 = 20;
const POS_MASK: u64 = (1 << POS_BITS) - 1;

/// Pack an Or-opt move into its atomic-min key.
#[inline(always)]
pub fn pack_oropt(delta: i32, s: u32, combo: u32, j: u32) -> u64 {
    debug_assert!(combo < COMBOS as u32);
    let biased = (delta as i64 + DELTA_BIAS).clamp(0, DELTA_MASK as i64) as u64;
    (biased << (2 * POS_BITS + 3))
        | ((s as u64) << (POS_BITS + 3))
        | ((combo as u64) << POS_BITS)
        | j as u64
}

/// Unpack an Or-opt key; `None` for [`EMPTY_KEY`].
pub fn unpack_oropt(key: u64) -> Option<OrOptMove> {
    if key == EMPTY_KEY {
        return None;
    }
    let j = (key & POS_MASK) as usize;
    let combo = ((key >> POS_BITS) & 0b111) as usize;
    let s = ((key >> (POS_BITS + 3)) & POS_MASK) as usize;
    let delta = ((key >> (2 * POS_BITS + 3)) & DELTA_MASK) as i64 - DELTA_BIAS;
    let len = combo / 2 + 1;
    Some(OrOptMove {
        s,
        e: s + len - 1,
        j,
        reversed: combo % 2 == 1,
        delta,
    })
}

/// Decode a flattened candidate index into `(combo, s, j)`.
#[inline(always)]
fn decode(k: u64, n: u64) -> (u64, u64, u64) {
    let combo = k / (n * n);
    let rem = k % (n * n);
    (combo, rem / n, rem % n)
}

/// Evaluate the relocation delta over route-ordered coordinates.
#[inline(always)]
fn oropt_delta_ordered(pts: &[Point], s: usize, e: usize, j: usize, reversed: bool) -> i32 {
    let prev = pts[s - 1];
    let next = pts[e + 1];
    let seg_s = pts[s];
    let seg_e = pts[e];
    let ja = pts[j];
    let jb = pts[j + 1];
    let (head, tail) = if reversed {
        (seg_e, seg_s)
    } else {
        (seg_s, seg_e)
    };
    (prev.euc_2d(&next) + ja.euc_2d(&head) + tail.euc_2d(&jb))
        - (prev.euc_2d(&seg_s) + seg_e.euc_2d(&next) + ja.euc_2d(&jb))
}

/// The Or-opt kernel (shared-memory staged, strided, block-reduced).
pub struct OrOptKernel<'a> {
    /// Route-ordered coordinates.
    pub coords: &'a DeviceBuffer<Point>,
    /// One-word output: packed best Or-opt move.
    pub out: &'a AtomicDeviceBuffer,
}

impl Kernel for OrOptKernel<'_> {
    fn shared_bytes(&self) -> usize {
        self.coords.len() * Point::DEVICE_BYTES
    }

    fn num_phases(&self) -> usize {
        3
    }

    fn label(&self) -> &str {
        "oropt-eval"
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let n = self.coords.len();
        let mut coords = vec![Point::default(); n];
        let mut scratch = vec![EMPTY_KEY; blk.block_dim as usize];
        blk.for_each_thread(|ctx| {
            let src = self.coords.as_slice();
            let mut k = ctx.thread_idx as usize;
            let mut loads = 0u64;
            while k < n {
                coords[k] = src[k];
                loads += 1;
                k += ctx.block_dim as usize;
            }
            ctx.global_read(loads * Point::DEVICE_BYTES as u64);
            ctx.shared_bytes(loads * Point::DEVICE_BYTES as u64);
        });
        blk.for_each_thread(|ctx| {
            let n64 = n as u64;
            let space = COMBOS * n64 * n64;
            let stride = ctx.total_threads();
            let mut k = ctx.global_thread_id();
            let mut best = EMPTY_KEY;
            let mut evals = 0u64;
            while k < space {
                let (combo, s, j) = decode(k, n64);
                k += stride;
                let len = (combo / 2 + 1) as usize;
                let s = s as usize;
                let j = j as usize;
                let e = s + len - 1;
                // Validity: interior segment, interior insertion edge not
                // touching the segment or its stubs.
                if s < 1 || e > n - 2 || j > n - 2 || (j + 1 >= s && j <= e) {
                    continue;
                }
                let reversed = combo % 2 == 1;
                let d = oropt_delta_ordered(&coords, s, e, j, reversed);
                let key = pack_oropt(d, s as u32, combo as u32, j as u32);
                if key < best {
                    best = key;
                }
                evals += 1;
            }
            // 6 distance evaluations per candidate; count at the 2-opt
            // granularity (4 per check) times 1.5.
            ctx.flops(evals * FLOPS_PER_CHECK * 3 / 2);
            ctx.shared_bytes(evals * BYTES_PER_CHECK * 3 / 2);
            scratch[ctx.thread_idx as usize] = best;
            if evals > 0 {
                ctx.shared_bytes(8);
            }
        });
        blk.for_each_thread(|ctx| block_reduce(ctx, &scratch, self.out));
    }
}

/// GPU Or-opt engine: evaluates the full Or-opt neighbourhood on the
/// device and returns the best improving relocation.
pub struct GpuOrOpt {
    device: Device,
    block_dim: u32,
    grid_dim: u32,
    ordered: Vec<Point>,
}

impl GpuOrOpt {
    /// Engine on the given device spec.
    pub fn new(spec: DeviceSpec) -> Self {
        let block_dim = spec.max_threads_per_block.min(1024);
        let grid_dim = spec.compute_units * 4;
        GpuOrOpt {
            device: Device::new(spec),
            block_dim,
            grid_dim,
            ordered: Vec::new(),
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Find the best Or-opt move (segment length ≤ 3, both orientations)
    /// or `None` at an Or-opt local minimum.
    pub fn best_move(
        &mut self,
        inst: &Instance,
        tour: &Tour,
    ) -> Result<(Option<OrOptMove>, StepProfile), EngineError> {
        if !inst.is_coordinate_based() {
            return Err(EngineError::Unsupported(
                "the Or-opt kernel requires coordinates".into(),
            ));
        }
        let n = tour.len();
        if n < 5 {
            return Ok((None, StepProfile::default()));
        }
        if n * Point::DEVICE_BYTES > self.device.spec().shared_mem_per_block {
            return Err(EngineError::Unsupported(format!(
                "GpuOrOpt currently implements the shared-memory kernel only \
                 (n = {n} exceeds on-chip capacity; tile it like the 2-opt \
                 kernel to lift this)"
            )));
        }
        self.ordered.clear();
        self.ordered
            .extend(tour.as_slice().iter().map(|&c| inst.point(c as usize)));
        let (coords, h2d) = self.device.copy_to_device(&self.ordered)?;
        let out = self.device.alloc_atomic(1, EMPTY_KEY)?;
        let kernel = OrOptKernel {
            coords: &coords,
            out: &out,
        };
        let p = self
            .device
            .launch(LaunchConfig::new(self.grid_dim, self.block_dim), &kernel)?;
        let (words, d2h) = self.device.copy_from_device(&out);
        let best = unpack_oropt(words[RESULT_SLOT]).filter(|m| m.delta < 0);
        let profile = StepProfile {
            pairs_checked: COMBOS * (n as u64) * (n as u64),
            flops: p.counters.flops,
            kernel_seconds: p.seconds,
            reversal_seconds: 0.0,
            h2d_seconds: h2d.seconds,
            d2h_seconds: d2h.seconds,
        };
        Ok((best, profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oropt;
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
    fn pack_unpack_round_trip() {
        for &(d, s, combo, j) in &[
            (0i32, 1u32, 0u32, 5u32),
            (-500_000, 100, 5, 99),
            (400_000, 1_000_000 - 1, 3, 7),
        ] {
            let m = unpack_oropt(pack_oropt(d, s, combo, j)).unwrap();
            assert_eq!(m.delta, d as i64);
            assert_eq!(m.s, s as usize);
            assert_eq!(m.j, j as usize);
            assert_eq!(m.e, s as usize + combo as usize / 2);
            assert_eq!(m.reversed, combo % 2 == 1);
        }
        assert_eq!(unpack_oropt(EMPTY_KEY), None);
    }

    #[test]
    fn key_order_matches_cpu_tie_break() {
        // (delta, s, len, reversed, j) lexicographic.
        assert!(pack_oropt(-5, 1, 0, 9) < pack_oropt(-4, 1, 0, 0));
        assert!(pack_oropt(-5, 1, 0, 9) < pack_oropt(-5, 2, 0, 0));
        assert!(pack_oropt(-5, 1, 0, 9) < pack_oropt(-5, 1, 1, 0));
        assert!(pack_oropt(-5, 1, 2, 9) < pack_oropt(-5, 1, 3, 0));
        assert!(pack_oropt(-5, 1, 0, 3) < pack_oropt(-5, 1, 0, 4));
    }

    #[test]
    fn gpu_oropt_agrees_with_cpu_oropt() {
        for seed in 0..4 {
            let inst = random_instance(60, seed);
            let mut rng = SmallRng::seed_from_u64(seed + 30);
            let tour = Tour::random(60, &mut rng);
            let (expected, _) = oropt::best_move(&inst, &tour, MAX_SEG_LEN);
            let mut gpu = GpuOrOpt::new(spec::gtx_680_cuda());
            let (got, prof) = gpu.best_move(&inst, &tour).unwrap();
            match (expected, got) {
                (Some(e), Some(g)) => {
                    assert_eq!(
                        (g.delta, g.s, g.e, g.reversed, g.j),
                        (e.delta, e.s, e.e, e.reversed, e.j),
                        "seed {seed}"
                    );
                }
                (None, None) => {}
                other => panic!("seed {seed}: mismatch {other:?}"),
            }
            assert!(prof.kernel_seconds > 0.0);
        }
    }

    #[test]
    fn gpu_oropt_descent_reaches_cpu_oropt_minimum() {
        let inst = random_instance(40, 9);
        let mut rng = SmallRng::seed_from_u64(10);
        let mut tour = Tour::random(40, &mut rng);
        let mut gpu = GpuOrOpt::new(spec::gtx_680_cuda());
        let mut applied = 0;
        while let (Some(m), _) = gpu.best_move(&inst, &tour).unwrap() {
            let before = tour.length(&inst);
            oropt::apply(&mut tour, &m);
            assert_eq!(tour.length(&inst) - before, m.delta);
            applied += 1;
            assert!(applied < 10_000, "descent must terminate");
        }
        // At the GPU's local minimum, the CPU sweep finds nothing either.
        let (mv, _) = oropt::best_move(&inst, &tour, MAX_SEG_LEN);
        assert!(mv.is_none());
        tour.validate().unwrap();
    }

    #[test]
    fn rejects_oversized_instances_for_now() {
        let inst = random_instance(7000, 1);
        let tour = Tour::identity(7000);
        let mut gpu = GpuOrOpt::new(spec::gtx_680_cuda());
        assert!(matches!(
            gpu.best_move(&inst, &tour),
            Err(EngineError::Unsupported(_))
        ));
    }
}
