//! The kernel programming model: one host call per simulated block.
//!
//! A simulated kernel implements [`Kernel`]. The executor calls
//! [`Kernel::run_block`] once per block of the grid, in block order on
//! the launching thread. A device is shared between host threads, so
//! other launches may run at the same time and anything global must be
//! atomic — which the memory model enforces by construction. A block
//! body owns its block's shared memory as ordinary local state.
//!
//! The timing model in [`crate::timing`] is a closed-form function of
//! each block's work counters and phase count. Nothing in it depends on
//! which host thread ran which simulated thread, so a block body is free
//! to choose how it produces its result, provided it charges the same
//! counters. Kernels use one of two shapes:
//!
//! * **Closed-form blocks.** The hot 2-opt kernels compute each block's
//!   counters directly from the launch geometry — how many pairs the
//!   paper's strided assignment (`k = tid, tid + T, tid + 2T, …`) gives
//!   the block's threads — and then compute the block's functional
//!   result however is fastest on the host. Their result is a `u64`
//!   atomic-min over packed move keys that are unique per pair, so the
//!   minimum over all pairs does not depend on how the pairs are split
//!   between blocks and threads: any partition that covers each pair
//!   exactly once publishes the same answer word.
//! * **Per-thread blocks.** Kernels whose per-thread form is the point
//!   (the ablation kernels, segment reversal, Or-opt) run their threads
//!   with [`BlockCtx::for_each_thread`]. Each call of it is one phase:
//!   every thread of the block runs it before the next call starts, so
//!   the boundary between two calls is a `__syncthreads()` barrier. This
//!   is the paper's Algorithm 2 shape:
//!
//!   * **phase 0** — cooperative load: each thread stages a strided
//!     slice of the coordinate array into shared memory;
//!   * *(barrier)*
//!   * **phase 1** — evaluation: each thread sweeps its strided subset
//!     of candidate pairs, keeping a thread-local best;
//!   * *(barrier)*
//!   * **phase 2** — reduction: the block publishes its best with one
//!     global atomic min.

use crate::counters::PerfCounters;
use std::ops::{Deref, DerefMut};

/// Launch geometry (1-D grids and blocks; the paper's kernels are 1-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks in the grid.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
}

impl LaunchConfig {
    /// Convenience constructor.
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
        }
    }

    /// Total threads in the launch.
    #[inline]
    pub fn total_threads(&self) -> u64 {
        self.grid_dim as u64 * self.block_dim as u64
    }
}

/// Per-thread execution context handed out by
/// [`BlockCtx::for_each_thread`]: the thread's index plus its block's
/// context, whose geometry fields and counter methods it exposes through
/// `Deref`.
pub struct ThreadCtx<'a> {
    /// Thread index within the block (`threadIdx.x`).
    pub thread_idx: u32,
    block: BlockCtx<'a>,
}

impl ThreadCtx<'_> {
    /// The flattened global thread id (`blockIdx.x * blockDim.x +
    /// threadIdx.x`).
    #[inline]
    pub fn global_thread_id(&self) -> u64 {
        self.block.first_thread_id() + self.thread_idx as u64
    }
}

impl<'a> Deref for ThreadCtx<'a> {
    type Target = BlockCtx<'a>;

    fn deref(&self) -> &BlockCtx<'a> {
        &self.block
    }
}

impl DerefMut for ThreadCtx<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.block
    }
}

/// Per-block execution context handed to [`Kernel::run_block`].
///
/// Carries the block's SIMT coordinates and the block's counter sink.
/// Kernels account their own work — `flops`, `shared_*`, `global_*` —
/// the way one would annotate a kernel for a roofline model, either for
/// the whole block in closed form or thread by thread through
/// [`BlockCtx::for_each_thread`]; the executor turns the per-block
/// counts into modeled time.
pub struct BlockCtx<'a> {
    /// Block index within the grid (`blockIdx.x`).
    pub block_idx: u32,
    /// Threads per block (`blockDim.x`).
    pub block_dim: u32,
    /// Blocks in the grid (`gridDim.x`).
    pub grid_dim: u32,
    pub(crate) counters: &'a mut PerfCounters,
}

impl BlockCtx<'_> {
    /// Global id of the block's thread 0 (`blockIdx.x * blockDim.x`).
    #[inline]
    pub fn first_thread_id(&self) -> u64 {
        self.block_idx as u64 * self.block_dim as u64
    }

    /// Total threads in the launch — the paper's striding distance
    /// (`blocks × threads`).
    #[inline]
    pub fn total_threads(&self) -> u64 {
        self.grid_dim as u64 * self.block_dim as u64
    }

    /// Run `body` once per thread of the block, in thread order. Each
    /// call is one barrier-separated phase: every thread finishes the
    /// phase before the next `for_each_thread` starts, exactly like a
    /// `__syncthreads()` between them. State the body captures by
    /// mutable reference plays the role of the block's shared memory.
    pub fn for_each_thread(&mut self, mut body: impl FnMut(&mut ThreadCtx<'_>)) {
        for thread_idx in 0..self.block_dim {
            body(&mut ThreadCtx {
                thread_idx,
                block: BlockCtx {
                    counters: &mut *self.counters,
                    ..*self
                },
            });
        }
    }

    /// Account `n` floating-point operations.
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.counters.flops += n;
    }

    /// Account `bytes` of shared-memory traffic.
    #[inline]
    pub fn shared_bytes(&mut self, bytes: u64) {
        self.counters.shared_bytes += bytes;
    }

    /// Account `bytes` read from global memory.
    #[inline]
    pub fn global_read(&mut self, bytes: u64) {
        self.counters.global_read_bytes += bytes;
    }

    /// Account `bytes` written to global memory.
    #[inline]
    pub fn global_write(&mut self, bytes: u64) {
        self.counters.global_write_bytes += bytes;
    }

    /// Account `n` global atomic operations.
    #[inline]
    pub fn atomics(&mut self, n: u64) {
        self.counters.atomic_ops += n;
    }
}

/// A SIMT kernel, executed one block at a time.
pub trait Kernel: Sync {
    /// Bytes of shared memory this kernel needs per block. Checked
    /// against [`crate::spec::DeviceSpec::shared_mem_per_block`] at
    /// launch — exceeding it is the error that motivates the paper's
    /// §IV.B division scheme.
    fn shared_bytes(&self) -> usize;

    /// Number of barrier-separated phases a block runs. The timing
    /// model charges one global-memory latency per phase.
    fn num_phases(&self) -> usize;

    /// Run one whole block: produce its functional results and charge
    /// its work to `blk`'s counters.
    fn run_block(&self, blk: &mut BlockCtx<'_>);

    /// Profiler label for launches of this kernel (the name a real
    /// profiler would show). Override per kernel; a per-launch override
    /// is available through [`crate::Device::launch_labeled`].
    fn label(&self) -> &str {
        "kernel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ids_flatten_like_cuda() {
        let mut c = PerfCounters::new();
        let mut blk = BlockCtx {
            block_idx: 3,
            block_dim: 128,
            grid_dim: 28,
            counters: &mut c,
        };
        let mut ids = Vec::new();
        blk.for_each_thread(|ctx| {
            assert_eq!(ctx.total_threads(), 28 * 128);
            ids.push(ctx.global_thread_id());
        });
        assert_eq!(ids, (3 * 128..4 * 128).collect::<Vec<u64>>());
        assert_eq!(blk.first_thread_id(), 3 * 128);
    }

    #[test]
    fn counters_flow_through_ctx() {
        let mut c = PerfCounters::new();
        {
            let mut blk = BlockCtx {
                block_idx: 0,
                block_dim: 2,
                grid_dim: 1,
                counters: &mut c,
            };
            blk.for_each_thread(|ctx| {
                ctx.flops(4);
                ctx.shared_bytes(8);
                ctx.global_read(2);
                ctx.global_write(1);
            });
            blk.atomics(1);
        }
        assert_eq!(c.flops, 8);
        assert_eq!(c.shared_bytes, 16);
        assert_eq!(c.global_read_bytes, 4);
        assert_eq!(c.global_write_bytes, 2);
        assert_eq!(c.atomic_ops, 1);
    }

    #[test]
    fn launch_config_totals() {
        assert_eq!(LaunchConfig::new(28, 1024).total_threads(), 28_672);
    }
}
