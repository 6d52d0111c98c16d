//! # tsp
//!
//! The facade crate: one import, one builder, one error type over the
//! whole stack — instance loading ([`tsplib`]), construction
//! heuristics, the simulated-GPU 2-opt engines ([`twoopt`]), ILS and
//! sharded multistart ([`ils`]), and the observation sinks (tracing,
//! telemetry, flight recording, profiling), all attached through one
//! [`twoopt::Observer`] handle ([`SolverBuilder::observe`]).
//!
//! ```
//! use tsp::prelude::*;
//!
//! let inst = tsp::tsplib::generate("quick", 48, tsp::tsplib::Style::Uniform, 1);
//! let solution = Solver::builder()
//!     .ils(IlsOptions::default().with_max_iterations(3u64))
//!     .build()
//!     .run(&inst)
//!     .unwrap();
//! assert!(solution.length <= solution.initial_length);
//! ```
//!
//! The pre-facade entry points live on in the layer crates
//! (`tsp::twoopt`, `tsp::ils`, …); new code should go through
//! [`Solver`].

pub mod error;
pub mod replay;
pub mod solver;

pub use error::TspError;
pub use solver::{Construction, EngineKind, Solution, Solver, SolverBuilder};

/// Every kernel strategy, in one place, so the differential suites
/// iterate a single list and a freshly added strategy cannot be
/// silently skipped. `tile` parameterizes [`Strategy::Tiled`], `k` the
/// candidate family (clamped to `n - 1` by the engine).
///
/// [`Strategy::Tiled`]: tsp_2opt::Strategy::Tiled
pub fn all_strategies(tile: usize, k: usize) -> Vec<tsp_2opt::Strategy> {
    use tsp_2opt::Strategy;
    vec![
        Strategy::Auto,
        Strategy::Shared,
        Strategy::Tiled { tile },
        Strategy::GlobalOnly,
        Strategy::Unordered,
        Strategy::DeviceResident,
        Strategy::Candidate { k },
        Strategy::CandidateResident { k },
    ]
}

// The layer crates, under stable facade names.
pub use gpu_sim as sim;
pub use tsp_2opt as twoopt;
pub use tsp_construction as construction;
pub use tsp_core as core;
pub use tsp_ils as ils;
pub use tsp_prof as prof;
pub use tsp_replay as flight;
pub use tsp_telemetry as telemetry;
pub use tsp_trace as trace;
pub use tsp_tsplib as tsplib;

/// Everything a typical solve needs, one `use` away.
pub mod prelude {
    pub use crate::all_strategies;
    pub use crate::error::TspError;
    pub use crate::solver::{Construction, EngineKind, Solution, Solver, SolverBuilder};
    pub use gpu_sim::{spec, DevicePool, DeviceSpec, StreamId, StreamReport};
    pub use tsp_2opt::{Observer, SearchOptions, Strategy, TwoOptEngine};
    pub use tsp_core::{Instance, Metric, Point, Tour};
    pub use tsp_ils::{Acceptance, IlsOptions, Perturbation, ShardedMultistart, ShardedOutcome};
    pub use tsp_prof::{Manifest, MemoryReport, ProfileReport, Profiler};
    pub use tsp_replay::{Divergence, FlightRecorder, Recording, ReplayReport};
    pub use tsp_telemetry::{Journal, JournalRecord, MetricsServer, Telemetry};
    pub use tsp_trace::Recorder;
}

#[cfg(test)]
mod facade_tests {
    use super::*;
    use tsp_core::Tour;
    use tsp_tsplib::{generate, Style};

    #[test]
    fn all_strategies_is_exhaustive() {
        use tsp_2opt::Strategy;
        // Compile-time canary: a new Strategy variant breaks this match,
        // pointing at the helper that must grow with it.
        let list = all_strategies(8, 4);
        for s in &list {
            match s {
                Strategy::Auto
                | Strategy::Shared
                | Strategy::Tiled { .. }
                | Strategy::GlobalOnly
                | Strategy::Unordered
                | Strategy::DeviceResident
                | Strategy::Candidate { .. }
                | Strategy::CandidateResident { .. } => {}
            }
        }
        assert_eq!(list.len(), 8);
        assert!(list.contains(&Strategy::Tiled { tile: 8 }));
        assert!(list.contains(&Strategy::Candidate { k: 4 }));
    }

    // The facade's single-chain and multistart paths agree with the
    // layer-crate entry points they wrap (this replaced the deprecated
    // shim test when the shims were removed).
    #[test]
    fn facade_agrees_with_the_layer_crate_paths() {
        let inst = generate("shim", 50, Style::Uniform, 2);
        let opts = tsp_ils::IlsOptions::default()
            .with_max_iterations(4u64)
            .with_seed(17);

        // Layer style: engine + free function.
        let mut engine = tsp_2opt::GpuTwoOpt::new(gpu_sim::spec::gtx_680_cuda());
        let old =
            tsp_ils::iterated_local_search(&mut engine, &inst, Tour::identity(50), opts.clone())
                .unwrap();

        // Facade style.
        let new = Solver::builder()
            .construction(Construction::Identity)
            .ils(opts.clone())
            .build()
            .run(&inst)
            .unwrap();
        assert_eq!(old.best_length, new.length);
        assert_eq!(old.best.as_slice(), new.tour.as_slice());

        // Facade restarts reduce exactly like parallel_multistart.
        let starts = vec![Tour::identity(50), Tour::identity(50)];
        let (best, all) = tsp_ils::parallel_multistart(
            || tsp_2opt::GpuTwoOpt::new(gpu_sim::spec::gtx_680_cuda()),
            &inst,
            starts,
            opts.clone(),
        )
        .unwrap();
        let sharded = Solver::builder()
            .construction(Construction::Identity)
            .ils(opts)
            .restarts(2)
            .build()
            .run(&inst)
            .unwrap();
        assert_eq!(all.len(), sharded.chains);
        assert_eq!(best.best_length, sharded.length);
        assert_eq!(best.best.as_slice(), sharded.tour.as_slice());
    }
}
