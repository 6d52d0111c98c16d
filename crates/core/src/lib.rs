//! # tsp-2opt
//!
//! The primary contribution of Rocki & Suda, *High Performance GPU
//! Accelerated Local Optimization in TSP* (IPDPSW 2013), reproduced as a
//! Rust library: massively parallel **2-opt best-improvement local
//! search** with the paper's data-locality optimizations and its
//! problem-division scheme for arbitrarily large instances.
//!
//! ## Engines
//!
//! All engines implement [`search::TwoOptEngine`] and return bit-for-bit
//! identical best moves (verified against each other in the test suite):
//!
//! * [`sequential::SequentialTwoOpt`] — the single-core reference loop;
//! * [`cpu_parallel::CpuParallelTwoOpt`] — the multi-core baseline
//!   (the paper's parallel OpenCL CPU implementation);
//! * [`gpu::GpuTwoOpt`] — the paper's kernels on the simulated device
//!   (`gpu-sim`): shared-memory staging (Optimization 1), route-ordered
//!   coordinates (Optimization 2), thread striding over the triangular
//!   pair space (Fig. 3/4), and the §IV.B two-range tiling scheme that
//!   removes the shared-memory size limit.
//!
//! ## Extensions (the paper's §VII future work)
//!
//! * [`pruned::PrunedTwoOpt`] — neighbourhood pruning via k-nearest-
//!   neighbour candidate lists;
//! * [`dlb`] — don't-look-bits 2-opt, the classic fast CPU descent;
//! * [`twohopt`] — 2.5-opt (2-opt + node insertion);
//! * [`oropt`] — Or-opt segment-relocation moves;
//! * [`threeopt`] — a sequential 3-opt for quality comparisons;
//! * [`gpu::MultiGpuTwoOpt`] — the §VI multi-device decomposition.
//!
//! ## Observation
//!
//! [`optimize`] is the one descent entry point. It reports into the
//! [`Observer`] carried by [`SearchOptions::observer`] — one handle over
//! the trace recorder, telemetry registry, convergence journal, flight
//! recorder and profiler, all detached by default. Attach the same
//! observer to a GPU engine's device with [`GpuTwoOpt::with_observer`]
//! to nest the kernel and transfer events inside the sweeps. No sink
//! ever changes a move or a modeled time.
//!
//! ## Quick start
//!
//! ```
//! use tsp_2opt::prelude::*;
//! use tsp_core::{Instance, Metric, Point, Tour};
//!
//! let inst = Instance::new(
//!     "square",
//!     Metric::Euc2d,
//!     vec![
//!         Point::new(0.0, 0.0),
//!         Point::new(0.0, 10.0),
//!         Point::new(10.0, 10.0),
//!         Point::new(10.0, 0.0),
//!     ],
//! )
//! .unwrap();
//! let mut tour = Tour::new(vec![0, 2, 1, 3]).unwrap(); // crossing
//! let mut engine = GpuTwoOpt::new(gpu_sim::spec::gtx_680_cuda());
//! let stats = optimize(&mut engine, &inst, &mut tour, SearchOptions::default()).unwrap();
//! assert_eq!(stats.final_length, 40); // the square's perimeter
//! assert!(stats.reached_local_minimum);
//! ```

pub mod bestmove;
pub mod cpu_model;
pub mod cpu_parallel;
pub mod delta;
pub mod dlb;
pub mod flops;
pub mod gpu;
pub mod indexing;
pub mod neighbors;
pub mod observer;
pub mod oropt;
pub mod pruned;
pub mod search;
pub mod sequential;
pub mod threeopt;
pub mod twohopt;
pub mod verify;
pub mod vnd;

pub use bestmove::BestMove;
pub use cpu_parallel::CpuParallelTwoOpt;
pub use gpu::{GpuOrOpt, GpuTwoOpt, MultiGpuTwoOpt, Strategy};
pub use neighbors::CandidateLists;
pub use observer::Observer;
pub use search::{optimize, EngineError, SearchOptions, SearchStats, StepProfile, TwoOptEngine};
pub use sequential::{PivotRule, SequentialTwoOpt};

/// Convenient glob imports for applications.
pub mod prelude {
    pub use crate::cpu_parallel::CpuParallelTwoOpt;
    pub use crate::gpu::{GpuTwoOpt, Strategy};
    pub use crate::neighbors::CandidateLists;
    pub use crate::observer::Observer;
    pub use crate::search::{
        optimize, EngineError, SearchOptions, SearchStats, StepProfile, TwoOptEngine,
    };
    pub use crate::sequential::{PivotRule, SequentialTwoOpt};
}
