//! # gpu-sim
//!
//! A SIMT GPU **simulator** substrate, built so that the GPU 2-opt kernels
//! of Rocki & Suda (IPDPSW 2013) can be reproduced on machines without
//! CUDA/OpenCL hardware or toolchains.
//!
//! Two concerns are deliberately separated:
//!
//! 1. **Functional execution** — kernels are ordinary Rust implementing
//!    the [`kernel::Kernel`] trait. They really run: a launch produces
//!    the exact values a GPU would produce (the 2-opt kernels are verified
//!    bit-for-bit against a sequential CPU search). Each block is one
//!    host call, made in block order on the launching thread; a block
//!    may run its threads one phase at a time or compute its whole
//!    result at once (see [`kernel`]).
//! 2. **Timing** — kernels account their work (FLOPs, shared-memory
//!    bytes, global bytes, atomics) through [`kernel::BlockCtx`]; the
//!    roofline-style model in [`timing`] plus the per-device parameters
//!    in [`spec`] turn those counters into deterministic modeled times,
//!    calibrated against the paper's published measurements.
//!
//! Observation is one seam: [`Device::attach`] (and [`DevicePool::attach`]
//! for every device of a pool) takes the trace [`Recorder`], the live
//! [`Telemetry`] registry and the span/memory [`Profiler`]; launches and
//! transfers report into each of them, and detached handles cost one
//! branch per site.
//!
//! The device model covers what the paper's algorithm exercises: a
//! capacity-limited global memory ([`memory`]), a per-block shared memory
//! *limit* that forces the paper's §IV.B division scheme, atomic-min
//! reductions for publishing the best move, PCIe transfer costs, launch
//! overheads and wave-quantized block scheduling.
//!
//! ```
//! use gpu_sim::{BlockCtx, Device, LaunchConfig, Kernel, spec};
//!
//! struct Doubler<'a> {
//!     input: &'a gpu_sim::DeviceBuffer<u32>,
//!     output: &'a gpu_sim::AtomicDeviceBuffer,
//! }
//!
//! impl Kernel for Doubler<'_> {
//!     fn shared_bytes(&self) -> usize { 0 }
//!     fn num_phases(&self) -> usize { 1 }
//!     fn run_block(&self, blk: &mut BlockCtx<'_>) {
//!         let n = self.input.len() as u64;
//!         blk.for_each_thread(|ctx| {
//!             let mut k = ctx.global_thread_id();
//!             while k < n {
//!                 let v = self.input.as_slice()[k as usize];
//!                 self.output.store(k as usize, (v as u64) * 2);
//!                 ctx.global_read(4);
//!                 ctx.global_write(8);
//!                 k += ctx.total_threads();
//!             }
//!         });
//!     }
//! }
//!
//! let dev = Device::new(spec::gtx_680_cuda());
//! let (input, _h2d) = dev.copy_to_device(&[1u32, 2, 3, 4]).unwrap();
//! let output = dev.alloc_atomic(4, 0).unwrap();
//! let profile = dev
//!     .launch(LaunchConfig::new(2, 32), &Doubler { input: &input, output: &output })
//!     .unwrap();
//! assert_eq!(output.to_vec(), vec![2, 4, 6, 8]);
//! assert!(profile.seconds > 0.0);
//! ```

pub mod counters;
pub mod device;
pub mod error;
pub mod kernel;
pub mod memory;
mod metrics;
pub mod pool;
pub mod profile;
pub mod spec;
pub mod stream;
pub mod timing;

pub use counters::PerfCounters;
pub use device::Device;
pub use error::SimError;
pub use kernel::{BlockCtx, Kernel, LaunchConfig, ThreadCtx};
pub use memory::{AtomicDeviceBuffer, DeviceBuffer, MemoryPool, DEFAULT_BUFFER_LABEL};
pub use pool::DevicePool;
pub use profile::{KernelProfile, TransferProfile};
pub use spec::{Api, DeviceKind, DeviceSpec};
pub use stream::{EngineClass, EventId, ScheduledOp, StreamId, StreamReport};
pub use tsp_prof::Profiler;
pub use tsp_telemetry::Telemetry;
pub use tsp_trace::{Recorder, TraceEvent};
