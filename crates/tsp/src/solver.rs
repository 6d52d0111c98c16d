//! The [`Solver`] facade.
//!
//! One builder configures the whole stack — device spec, pool shape,
//! kernel strategy, construction heuristic, descent/ILS knobs,
//! tracing sinks — and [`Solver::run`] drives construction → local
//! search (→ ILS → sharded multistart) end to end, returning a single
//! [`Solution`] and a single error type ([`TspError`]).

use crate::TspError;
use gpu_sim::{Device, StreamId};
use gpu_sim::{DevicePool, DeviceSpec, StreamReport};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use tsp_2opt::{
    optimize, CpuParallelTwoOpt, GpuTwoOpt, Observer, SearchOptions, SequentialTwoOpt, StepProfile,
    Strategy, TwoOptEngine,
};
use tsp_construction::{multiple_fragment, nearest_neighbor, space_filling};
use tsp_core::{CancelToken, Instance, Tour};
use tsp_ils::{iterated_local_search, IlsOptions, IlsOutcome, ShardedMultistart, TracePoint};
use tsp_prof::MemoryReport;
use tsp_replay::{hash_tour, ReplayEvent};

/// Which local-search engine executes the sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum EngineKind {
    /// The simulated-GPU engine (the paper's kernels). Default.
    #[default]
    Gpu,
    /// Multi-threaded host engine.
    CpuParallel,
    /// Single-threaded reference engine.
    Sequential,
}

/// Construction heuristic for the initial tour(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Construction {
    /// Greedy multiple-fragment (Bentley). Default.
    #[default]
    MultipleFragment,
    /// Nearest neighbour from city 0.
    NearestNeighbor,
    /// Hilbert space-filling curve order.
    SpaceFilling,
    /// Uniform random permutation from the given seed. Under restarts,
    /// chain `i` draws from `seed + i`, so every chain gets a distinct
    /// start (the deterministic heuristics give all chains the same
    /// start and rely on ILS seeds for diversity).
    Random(u64),
    /// The identity permutation `0, 1, …, n-1`.
    Identity,
}

/// Configures and builds a [`Solver`].
///
/// ```
/// use tsp::prelude::*;
///
/// let inst = tsp_tsplib::generate("demo", 64, tsp_tsplib::Style::Uniform, 1);
/// let solution = Solver::builder()
///     .engine(EngineKind::Gpu)
///     .device(spec::gtx_680_cuda())
///     .strategy(Strategy::Auto)
///     .ils(IlsOptions::default().with_max_iterations(5u64))
///     .build()
///     .run(&inst)
///     .unwrap();
/// assert!(solution.length <= solution.initial_length);
/// ```
#[derive(Clone)]
pub struct SolverBuilder {
    pub(crate) engine: EngineKind,
    pub(crate) spec: DeviceSpec,
    pub(crate) devices: usize,
    pub(crate) streams: usize,
    pub(crate) restarts: usize,
    pub(crate) strategy: Strategy,
    pub(crate) launch: Option<(u32, u32)>,
    pub(crate) overlapped_transfers: bool,
    pub(crate) construction: Construction,
    pub(crate) search: SearchOptions,
    pub(crate) ils: Option<IlsOptions>,
    pub(crate) observer: Observer,
    pub(crate) cancel: CancelToken,
}

impl Default for SolverBuilder {
    fn default() -> Self {
        SolverBuilder {
            engine: EngineKind::Gpu,
            spec: gpu_sim::spec::gtx_680_cuda(),
            devices: 1,
            streams: 1,
            restarts: 1,
            strategy: Strategy::Auto,
            launch: None,
            overlapped_transfers: false,
            construction: Construction::MultipleFragment,
            search: SearchOptions::default(),
            ils: None,
            observer: Observer::none(),
            cancel: CancelToken::none(),
        }
    }
}

impl SolverBuilder {
    /// Start from the defaults: one GTX 680, `Strategy::Auto`,
    /// multiple-fragment construction, plain 2-opt descent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the engine kind (default [`EngineKind::Gpu`]).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Device spec for GPU engines (default the paper's GTX 680).
    pub fn device(mut self, spec: DeviceSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Shard restarts over `n` simulated devices (default 1; GPU only).
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n;
        self
    }

    /// Streams per device (default 1; GPU only). With more than one,
    /// concurrent chains overlap transfers and kernels on each device.
    pub fn streams(mut self, s: usize) -> Self {
        self.streams = s;
        self
    }

    /// Run `k` independent ILS chains (seed `i` = ILS seed + `i`) and
    /// keep the best (default 1). Implies ILS with default options if
    /// [`SolverBuilder::ils`] was not called.
    pub fn restarts(mut self, k: usize) -> Self {
        self.restarts = k;
        self
    }

    /// Kernel selection strategy (default [`Strategy::Auto`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Override the launch geometry (e.g. the paper's 28 × 1024).
    pub fn launch(mut self, grid_dim: u32, block_dim: u32) -> Self {
        self.launch = Some((grid_dim, block_dim));
        self
    }

    /// Model double-buffered transfers inside a descent (see
    /// `GpuTwoOpt::with_overlapped_transfers`).
    pub fn overlapped_transfers(mut self, on: bool) -> Self {
        self.overlapped_transfers = on;
        self
    }

    /// Construction heuristic for the initial tour (default
    /// [`Construction::MultipleFragment`]).
    pub fn construction(mut self, construction: Construction) -> Self {
        self.construction = construction;
        self
    }

    /// Descent options applied to every local-search call.
    pub fn search(mut self, search: SearchOptions) -> Self {
        self.search = search;
        self
    }

    /// Enable ILS around the descent with these options.
    pub fn ils(mut self, opts: IlsOptions) -> Self {
        self.ils = Some(opts);
        self
    }

    /// Attach observation sinks. The handles are wired through every
    /// layer the run touches and come back on [`Solution::observer`]:
    ///
    /// * the recorder gets device events (kernels, transfers, stream
    ///   schedules) and search events (sweeps, descents, ILS iterations);
    /// * telemetry gets the device, pool-lane, search and ILS metric
    ///   families, and the journal one record per ILS milestone, stamped
    ///   with the run id;
    /// * the flight recorder logs every decision needed to reproduce the
    ///   run bit-for-bit (start-tour digest, applied moves, RNG
    ///   checkpoints, acceptance verdicts) — package it with
    ///   [`Solver::recording`] and re-execute it with [`Solver::replay`];
    /// * the profiler gets the facade's `solve`/`construct` spans, ILS
    ///   `ils`/`iteration`/`kick` spans, descent `sweep`/`apply_move`
    ///   spans, device `kernel:*`/`h2d`/`d2h` leaves and every buffer
    ///   alloc/free/upload on the modeled devices; the finished ledger
    ///   comes back on [`Solution::memory`].
    ///
    /// This observer replaces whatever [`IlsOptions::observer`] the ILS
    /// options carry. Detached sinks (the default) cost one branch per
    /// site, and the solve is bit-identical either way.
    ///
    /// ```
    /// use tsp::prelude::*;
    ///
    /// let inst = tsp::tsplib::generate("obs", 48, tsp::tsplib::Style::Uniform, 1);
    /// let observer = Observer::none()
    ///     .with_telemetry(Telemetry::attached())
    ///     .with_journal(Journal::attached());
    /// let solution = Solver::builder()
    ///     .ils(IlsOptions::default().with_max_iterations(3u64))
    ///     .observe(observer)
    ///     .build()
    ///     .run(&inst)
    ///     .unwrap();
    /// // The handles come back on the Solution, ready to expose or dump.
    /// let text = solution.observer.telemetry.expose();
    /// assert!(text.contains("tsp_ils_iterations_total"));
    /// assert!(!solution.observer.journal.is_empty());
    /// ```
    pub fn observe(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Attach a cooperative cancellation token: ILS runs poll it once
    /// per iteration (next to the budget checks) and stop early with
    /// the best tour found so far when it trips — the serving layer's
    /// `DELETE /v1/jobs/{id}` and per-job deadlines ride on this. An
    /// armed token makes the run wall-clock dependent, so recording it
    /// is rejected exactly like `max_host_seconds`.
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Finalize the configuration.
    pub fn build(self) -> Solver {
        Solver { cfg: self }
    }
}

/// Result of a [`Solver::run`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Solution {
    /// The best tour found.
    pub tour: Tour,
    /// Its length.
    pub length: i64,
    /// Length of the constructed initial tour.
    pub initial_length: i64,
    /// ILS iterations of the best chain (0 for a plain descent).
    pub iterations: u64,
    /// Independent chains run (1 unless restarts were requested).
    pub chains: usize,
    /// Aggregate modeled cost over every sweep of every chain.
    pub profile: StepProfile,
    /// Real host time, seconds.
    pub host_seconds: f64,
    /// Convergence trace of the best chain (ILS runs only).
    pub trace: Vec<TracePoint>,
    /// Per-device modeled schedules (sharded runs only).
    pub reports: Vec<StreamReport>,
    /// The run's observation sinks, as attached via
    /// [`SolverBuilder::observe`] (all detached otherwise): expose or
    /// snapshot the registry, dump the journal, render
    /// `observer.prof.report()` for the flamegraph and hot paths.
    pub observer: Observer,
    /// Deterministic run id: a pure function of the instance digest,
    /// the device-spec digest and every solver knob. The same id is
    /// stamped on the journal lines, the recording header and the
    /// profiler artifacts of this run, and never on anything else.
    pub run_id: String,
    /// Device-memory ledger totals at the end of the run (empty when
    /// no profiler was attached).
    pub memory: MemoryReport,
}

impl Solution {
    /// Total modeled device time across all chains, seconds.
    pub fn modeled_seconds(&self) -> f64 {
        self.profile.modeled_seconds()
    }

    /// Modeled makespan: the slowest device's modeled wall time on
    /// sharded runs, otherwise the serial modeled time.
    pub fn modeled_makespan_seconds(&self) -> f64 {
        if self.reports.is_empty() {
            self.modeled_seconds()
        } else {
            self.reports
                .iter()
                .map(|r| r.wall_seconds)
                .fold(0.0, f64::max)
        }
    }

    /// Fraction of modeled busy time hidden by stream/device overlap
    /// (0 for serial runs).
    pub fn overlap(&self) -> f64 {
        let busy: f64 = self.reports.iter().map(|r| r.busy_seconds).sum();
        if busy == 0.0 {
            return 0.0;
        }
        self.reports
            .iter()
            .map(|r| r.overlap() * r.busy_seconds)
            .sum::<f64>()
            / busy
    }
}

/// The configured facade. Build with [`Solver::builder`], run with
/// [`Solver::run`] or [`Solver::run_from`].
pub struct Solver {
    pub(crate) cfg: SolverBuilder,
}

impl Solver {
    /// Start configuring a solver.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::new()
    }

    /// Construct an initial tour and solve.
    pub fn run(&self, inst: &Instance) -> Result<Solution, TspError> {
        let start = self.construct(inst, 0);
        self.run_from(inst, start)
    }

    /// Solve from the given initial tour. Under restarts the first
    /// chain uses `start` and the remaining chains use freshly
    /// constructed tours.
    pub fn run_from(&self, inst: &Instance, start: Tour) -> Result<Solution, TspError> {
        let cfg = &self.cfg;
        if cfg.devices == 0 || cfg.streams == 0 || cfg.restarts == 0 {
            return Err(TspError::Unsupported(
                "devices, streams and restarts must all be at least 1".into(),
            ));
        }
        let pooled = cfg.devices > 1 || cfg.streams > 1;
        if pooled && cfg.engine != EngineKind::Gpu {
            return Err(TspError::Unsupported(
                "multi-device / multi-stream runs require the GPU engine".into(),
            ));
        }
        let run_id = self.run_id(inst);
        let _solve = cfg.observer.prof.span("solve");
        let initial_length = start.length(inst);

        if cfg.restarts > 1 || pooled {
            return self.run_sharded(inst, start, initial_length, &run_id);
        }

        // Single chain: one engine, serial submission path.
        let mut engine = self.single_engine();
        match &cfg.ils {
            None => self.run_descent(inst, start, initial_length, run_id, engine.as_mut()),
            Some(opts) => {
                let outcome = iterated_local_search(
                    engine.as_mut(),
                    inst,
                    start,
                    self.ils_opts(opts, &run_id),
                )?;
                Ok(self.stamp(
                    run_id,
                    solution_from_outcome(outcome, initial_length, 1, Vec::new()),
                ))
            }
        }
    }

    /// Solve on an externally owned `(device, stream)` lane — the entry
    /// point `tsp-serve`'s slot pool drives. The builder's pool-shape
    /// knobs must stay at their defaults (`devices == 1 && streams == 1`):
    /// the lane is the caller's, carved from their own [`DevicePool`].
    /// The lane's device is shared, so the observer's device-side sinks
    /// are the pool's business (attach them to the pool once); the
    /// search-level sinks report as usual. Tours are
    /// bit-identical to [`Solver::run`] under the same knobs — restarts
    /// reduce through the same `parallel_multistart` min-by-length rule
    /// the pooled facade pins.
    pub fn run_on(
        &self,
        inst: &Instance,
        device: &Arc<Device>,
        stream: StreamId,
    ) -> Result<Solution, TspError> {
        let cfg = &self.cfg;
        if cfg.engine != EngineKind::Gpu {
            return Err(TspError::Unsupported(
                "run_on drives a device lane and requires the GPU engine".into(),
            ));
        }
        if cfg.devices != 1 || cfg.streams != 1 {
            return Err(TspError::Unsupported(
                "run_on executes on one external lane; leave devices and streams at 1".into(),
            ));
        }
        if cfg.restarts == 0 {
            return Err(TspError::Unsupported("restarts must be at least 1".into()));
        }
        let run_id = self.run_id(inst);
        let _solve = cfg.observer.prof.span("solve");
        let start = self.construct(inst, 0);
        let initial_length = start.length(inst);

        if cfg.restarts == 1 && cfg.ils.is_none() {
            // Device-level recorder events need exclusive device
            // ownership, which a pooled lane never has (the device Arc
            // is shared with the pool and its sibling lanes); the
            // recorder still gets the sweep-level events through
            // `run_descent`.
            let mut engine = self.gpu_engine_on(GpuTwoOpt::on_stream(device.clone(), stream));
            return self.run_descent(inst, start, initial_length, run_id, &mut engine);
        }

        // ILS and/or restarts: the same multistart reduction the pooled
        // facade uses, every chain on this one lane.
        let opts = self.ils_opts(cfg.ils.as_ref().unwrap_or(&IlsOptions::default()), &run_id);
        let starts = self.starts(inst, start);
        let (best, chains) = tsp_ils::parallel_multistart(
            || self.gpu_engine_on(GpuTwoOpt::on_stream(device.clone(), stream)),
            inst,
            starts,
            opts,
        )?;
        let solution = aggregate_chains(best, &chains, initial_length, Vec::new());
        Ok(self.stamp(run_id, solution))
    }

    /// The plain-descent arm shared by `run_from` and `run_on`: one
    /// 2-opt descent to a local optimum, flight-recorded and profiled.
    fn run_descent(
        &self,
        inst: &Instance,
        mut tour: Tour,
        initial_length: i64,
        run_id: String,
        engine: &mut dyn TwoOptEngine,
    ) -> Result<Solution, TspError> {
        let cfg = &self.cfg;
        let flight = &cfg.observer.flight;
        flight.record_with(|| ReplayEvent::Start {
            tour_hash: hash_tour(&tour),
        });
        let search = cfg.search.clone().with_observer(cfg.observer.clone());
        let stats = optimize(engine, inst, &mut tour, search)?;
        flight.record_with(|| ReplayEvent::DescentEnd {
            iteration: 0,
            sweeps: stats.sweeps,
            length: stats.final_length,
            tour_hash: hash_tour(&tour),
            modeled_seconds: stats.profile.modeled_seconds(),
        });
        flight.record_with(|| ReplayEvent::Final {
            iterations: 0,
            best_length: stats.final_length,
            tour_hash: hash_tour(&tour),
            modeled_seconds: stats.profile.modeled_seconds(),
        });
        Ok(self.stamp(
            run_id,
            Solution {
                length: stats.final_length,
                tour,
                initial_length,
                iterations: 0,
                chains: 1,
                profile: stats.profile,
                host_seconds: stats.host_seconds,
                trace: Vec::new(),
                reports: Vec::new(),
                observer: Observer::none(),
                run_id: String::new(),
                memory: MemoryReport::default(),
            },
        ))
    }

    /// Restarts (and/or pool shards): every chain is an independent ILS
    /// run; outcomes are bit-identical to `parallel_multistart` under
    /// the same seeds regardless of the pool shape.
    fn run_sharded(
        &self,
        inst: &Instance,
        start: Tour,
        initial_length: i64,
        run_id: &str,
    ) -> Result<Solution, TspError> {
        let cfg = &self.cfg;
        let opts = self.ils_opts(cfg.ils.as_ref().unwrap_or(&IlsOptions::default()), run_id);
        let starts = self.starts(inst, start);

        let (best, chains, reports) = match cfg.engine {
            EngineKind::Gpu => {
                let mut pool = DevicePool::homogeneous(cfg.spec.clone(), cfg.devices, cfg.streams);
                let obs = &cfg.observer;
                pool.attach(&obs.recorder, &obs.telemetry, &obs.prof);
                let out = ShardedMultistart::new(pool).run(
                    |device, stream| {
                        self.gpu_engine_on(GpuTwoOpt::on_stream(device.clone(), stream))
                    },
                    inst,
                    starts,
                    opts,
                )?;
                (out.best, out.chains, out.reports)
            }
            EngineKind::CpuParallel => {
                let (best, chains) =
                    tsp_ils::parallel_multistart(CpuParallelTwoOpt::new, inst, starts, opts)?;
                (best, chains, Vec::new())
            }
            EngineKind::Sequential => {
                let (best, chains) =
                    tsp_ils::parallel_multistart(SequentialTwoOpt::new, inst, starts, opts)?;
                (best, chains, Vec::new())
            }
        };
        let solution = aggregate_chains(best, &chains, initial_length, reports);
        Ok(self.stamp(run_id.to_string(), solution))
    }

    /// One start tour per chain: `start` for chain 0, a fresh
    /// construction for every other chain.
    fn starts(&self, inst: &Instance, start: Tour) -> Vec<Tour> {
        let mut starts = vec![start];
        starts.extend((1..self.cfg.restarts).map(|i| self.construct(inst, i as u64)));
        starts
    }

    /// The configured ILS options plus the facade's observer, whose
    /// journal is stamped with the run id so every journal line
    /// correlates with this run.
    fn ils_opts(&self, opts: &IlsOptions, run_id: &str) -> IlsOptions {
        opts.clone()
            .with_observer(self.cfg.observer.with_run_id(run_id))
            .with_cancel(self.cfg.cancel.clone())
    }

    /// Hand the run's observability handles back on the solution.
    fn stamp(&self, run_id: String, mut solution: Solution) -> Solution {
        solution.observer = self.cfg.observer.clone();
        solution.run_id = run_id;
        solution.memory = self.cfg.observer.prof.memory_report();
        solution
    }

    /// One engine on a private device (serial path).
    fn single_engine(&self) -> Box<dyn TwoOptEngine> {
        match self.cfg.engine {
            EngineKind::Gpu => Box::new(
                self.gpu_engine_on(GpuTwoOpt::new(self.cfg.spec.clone()))
                    .with_observer(&self.cfg.observer),
            ),
            EngineKind::CpuParallel => Box::new(CpuParallelTwoOpt::new()),
            EngineKind::Sequential => Box::new(SequentialTwoOpt::new()),
        }
    }

    /// Apply the strategy/launch/overlap knobs to a GPU engine.
    fn gpu_engine_on(&self, engine: GpuTwoOpt) -> GpuTwoOpt {
        let mut engine = engine.with_strategy(self.cfg.strategy);
        if let Some((grid, block)) = self.cfg.launch {
            engine = engine.with_launch(grid, block);
        }
        if self.cfg.overlapped_transfers {
            engine = engine.with_overlapped_transfers();
        }
        engine
    }

    /// Build chain `i`'s initial tour.
    pub(crate) fn construct(&self, inst: &Instance, chain: u64) -> Tour {
        let _construct = self.cfg.observer.prof.span("construct");
        match self.cfg.construction {
            Construction::MultipleFragment => multiple_fragment(inst),
            Construction::NearestNeighbor => nearest_neighbor(inst, 0),
            Construction::SpaceFilling => space_filling(inst),
            Construction::Random(seed) => {
                let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(chain));
                Tour::random(inst.len(), &mut rng)
            }
            Construction::Identity => Tour::identity(inst.len()),
        }
    }
}

fn solution_from_outcome(
    outcome: IlsOutcome,
    initial_length: i64,
    chains: usize,
    reports: Vec<StreamReport>,
) -> Solution {
    Solution {
        tour: outcome.best,
        length: outcome.best_length,
        initial_length,
        iterations: outcome.iterations,
        chains,
        profile: outcome.profile,
        host_seconds: outcome.host_seconds,
        trace: outcome.trace,
        reports,
        observer: Observer::none(),
        run_id: String::new(),
        memory: MemoryReport::default(),
    }
}

/// The best chain's solution, with the profile summed over every chain.
fn aggregate_chains(
    best: IlsOutcome,
    chains: &[IlsOutcome],
    initial_length: i64,
    reports: Vec<StreamReport>,
) -> Solution {
    let mut profile = StepProfile::default();
    for c in chains {
        profile.accumulate(&c.profile);
    }
    let mut solution = solution_from_outcome(best, initial_length, chains.len(), reports);
    solution.profile = profile;
    solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_tsplib::{generate, Style};

    fn instance(n: usize, seed: u64) -> Instance {
        generate(&format!("solver{n}"), n, Style::Uniform, seed)
    }

    #[test]
    fn plain_descent_reaches_a_local_minimum() {
        let inst = instance(72, 3);
        let s = Solver::builder().build().run(&inst).unwrap();
        assert!(s.length <= s.initial_length);
        assert_eq!(s.iterations, 0);
        assert_eq!(s.chains, 1);
        assert!(s.reports.is_empty());
        assert!(s.modeled_seconds() > 0.0);
        s.tour.validate().unwrap();
    }

    #[test]
    fn facade_descent_matches_raw_engine() {
        let inst = instance(64, 4);
        let start = Tour::identity(64);

        let facade = Solver::builder()
            .construction(Construction::Identity)
            .build()
            .run_from(&inst, start.clone())
            .unwrap();

        let mut raw_tour = start;
        let mut raw = GpuTwoOpt::new(gpu_sim::spec::gtx_680_cuda());
        let stats =
            tsp_2opt::optimize(&mut raw, &inst, &mut raw_tour, SearchOptions::default()).unwrap();

        assert_eq!(facade.tour.as_slice(), raw_tour.as_slice());
        assert_eq!(facade.length, stats.final_length);
        assert_eq!(facade.profile, stats.profile);
    }

    #[test]
    fn ils_facade_matches_raw_ils() {
        let inst = instance(60, 5);
        let opts = IlsOptions::default().with_max_iterations(6u64).with_seed(9);

        let facade = Solver::builder()
            .construction(Construction::Identity)
            .ils(opts.clone())
            .build()
            .run(&inst)
            .unwrap();

        let mut raw = GpuTwoOpt::new(gpu_sim::spec::gtx_680_cuda());
        let outcome = iterated_local_search(&mut raw, &inst, Tour::identity(60), opts).unwrap();

        assert_eq!(facade.length, outcome.best_length);
        assert_eq!(facade.tour.as_slice(), outcome.best.as_slice());
        assert_eq!(facade.iterations, outcome.iterations);
    }

    #[test]
    fn sharded_facade_reduces_over_all_chains() {
        let inst = instance(56, 6);
        let s = Solver::builder()
            .construction(Construction::Random(11))
            .ils(IlsOptions::default().with_max_iterations(4u64))
            .devices(2)
            .streams(2)
            .restarts(6)
            .build()
            .run(&inst)
            .unwrap();
        assert_eq!(s.chains, 6);
        assert_eq!(s.reports.len(), 2);
        assert!(s.modeled_makespan_seconds() > 0.0);
        assert!(s.modeled_makespan_seconds() < s.modeled_seconds());
        s.tour.validate().unwrap();
    }

    #[test]
    fn cpu_engines_run_and_reject_pooling() {
        let inst = instance(40, 7);
        for kind in [EngineKind::CpuParallel, EngineKind::Sequential] {
            let s = Solver::builder().engine(kind).build().run(&inst).unwrap();
            assert!(s.length <= s.initial_length);

            let err = Solver::builder()
                .engine(kind)
                .streams(2)
                .build()
                .run(&inst)
                .unwrap_err();
            assert!(matches!(err, TspError::Unsupported(_)));
        }
    }

    #[test]
    fn telemetry_spans_every_layer_on_a_sharded_run() {
        let inst = instance(48, 9);
        let s = Solver::builder()
            .construction(Construction::Random(5))
            .ils(IlsOptions::default().with_max_iterations(3u64))
            .devices(2)
            .streams(2)
            .restarts(4)
            .observe(
                Observer::none()
                    .with_telemetry(tsp_telemetry::Telemetry::attached())
                    .with_journal(tsp_telemetry::Journal::attached()),
            )
            .build()
            .run(&inst)
            .unwrap();
        let reg = s.observer.telemetry.registry().unwrap();
        // Every layer reported: devices, pool lanes, sweeps, ILS.
        for family in [
            "tsp_gpu_kernel_launches_total",
            "tsp_pool_lane_jobs_total",
            "tsp_search_sweeps_total",
            "tsp_ils_iterations_total",
        ] {
            assert!(
                reg.family_names().contains(&family.to_string()),
                "missing {family}"
            );
        }
        assert_eq!(
            reg.counter_value("tsp_ils_iterations_total"),
            Some(3.0 * 4.0)
        );
        // Journal: 4 chains, each with Initial + 3 iterations + Final.
        assert_eq!(s.observer.journal.len(), 4 * 5);
        let chains: std::collections::BTreeSet<u64> = s
            .observer
            .journal
            .records()
            .iter()
            .map(|r| r.chain)
            .collect();
        assert_eq!(chains.len(), 4);

        // A telemetry-free run of the same configuration is untouched
        // by the observability machinery.
        let plain = Solver::builder()
            .construction(Construction::Random(5))
            .ils(IlsOptions::default().with_max_iterations(3u64))
            .devices(2)
            .streams(2)
            .restarts(4)
            .build()
            .run(&inst)
            .unwrap();
        assert_eq!(plain.tour.as_slice(), s.tour.as_slice());
        assert_eq!(plain.length, s.length);
        assert_eq!(
            plain.modeled_makespan_seconds().to_bits(),
            s.modeled_makespan_seconds().to_bits()
        );
        assert!(!plain.observer.telemetry.is_enabled());
        assert!(!plain.observer.journal.is_enabled());
    }

    #[test]
    fn zero_shapes_are_rejected() {
        let inst = instance(32, 8);
        let err = Solver::builder().devices(0).build().run(&inst).unwrap_err();
        assert!(matches!(err, TspError::Unsupported(_)));
    }
}
