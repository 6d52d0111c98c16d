//! The engine abstraction and the run-to-local-minimum driver.
//!
//! A [`TwoOptEngine`] answers one question — *what is the best 2-opt move
//! for this tour?* — and reports how much (modeled and counted) work the
//! answer cost. The [`optimize`] driver then implements the classic
//! best-improvement descent: apply the best move, ask again, stop at a
//! local minimum ("The procedure is repeated until no further improvement
//! can be done", §I.B). This is the `2optLocalSearch` step of the paper's
//! Algorithm 1; ILS (crate `tsp-ils`) wraps it with perturbation.

use crate::bestmove::{pack, BestMove};
use crate::observer::Observer;
use std::time::Instant;
use tsp_core::{CoreError, Instance, Tour};
use tsp_replay::ReplayEvent;
use tsp_telemetry::{Counter, Histogram, Registry, DELTA_BUCKETS};
use tsp_trace::{SweepCost, TraceEvent};

/// Cost of one `best_move` evaluation (one full sweep of the candidate
/// pairs).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StepProfile {
    /// Candidate pairs evaluated.
    pub pairs_checked: u64,
    /// FLOPs performed (distance arithmetic).
    pub flops: u64,
    /// Modeled kernel execution time, seconds.
    pub kernel_seconds: f64,
    /// Modeled time of the on-device segment reversal that applied the
    /// previous sweep's move (device-resident pipeline only; zero for
    /// engines that re-upload the coordinates each sweep).
    pub reversal_seconds: f64,
    /// Modeled host→device transfer time, seconds.
    pub h2d_seconds: f64,
    /// Modeled device→host transfer time, seconds.
    pub d2h_seconds: f64,
}

impl StepProfile {
    /// Modeled end-to-end time of the step (kernel + reversal + both
    /// transfers) — the paper's "GPU total time" column.
    #[inline]
    pub fn modeled_seconds(&self) -> f64 {
        self.kernel_seconds + self.reversal_seconds + self.h2d_seconds + self.d2h_seconds
    }

    /// Accumulate another step into this one.
    pub fn accumulate(&mut self, other: &StepProfile) {
        self.pairs_checked += other.pairs_checked;
        self.flops += other.flops;
        self.kernel_seconds += other.kernel_seconds;
        self.reversal_seconds += other.reversal_seconds;
        self.h2d_seconds += other.h2d_seconds;
        self.d2h_seconds += other.d2h_seconds;
    }

    /// Achieved checks/second (the paper's "2-opt checks/s" column),
    /// against modeled time.
    pub fn checks_per_second(&self) -> f64 {
        let t = self.modeled_seconds();
        if t <= 0.0 {
            return 0.0;
        }
        self.pairs_checked as f64 / t
    }
}

impl From<StepProfile> for SweepCost {
    fn from(p: StepProfile) -> Self {
        SweepCost {
            pairs_checked: p.pairs_checked,
            flops: p.flops,
            kernel_seconds: p.kernel_seconds,
            reversal_seconds: p.reversal_seconds,
            h2d_seconds: p.h2d_seconds,
            d2h_seconds: p.d2h_seconds,
        }
    }
}

/// Errors an engine can raise.
#[derive(Debug)]
pub enum EngineError {
    /// Simulator-level failure (launch config, memory, …).
    Sim(gpu_sim::SimError),
    /// Core data-structure failure.
    Core(CoreError),
    /// The engine cannot run this instance (e.g. a GPU engine on an
    /// explicit-matrix instance: the paper's kernels require coordinates).
    Unsupported(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Sim(e) => write!(f, "simulator error: {e}"),
            EngineError::Core(e) => write!(f, "core error: {e}"),
            EngineError::Unsupported(msg) => write!(f, "unsupported instance: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<gpu_sim::SimError> for EngineError {
    fn from(e: gpu_sim::SimError) -> Self {
        EngineError::Sim(e)
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

/// Something that can find the best 2-opt move for a tour.
pub trait TwoOptEngine {
    /// Human-readable engine name (device + strategy).
    fn name(&self) -> String;

    /// Evaluate the full candidate neighbourhood of `tour` and return the
    /// best move (most negative delta, ties toward smallest `(i, j)`), or
    /// `None` when no strictly improving move exists, together with the
    /// step's cost profile.
    fn best_move(
        &mut self,
        inst: &Instance,
        tour: &Tour,
    ) -> Result<(Option<BestMove>, StepProfile), EngineError>;

    /// The raw packed best-move word produced by the most recent
    /// [`TwoOptEngine::best_move`] call, for flight recording. Engines
    /// without a packed reduction return `None`; the recorder then
    /// re-packs the word from the decoded move, which is bit-identical
    /// for every in-range move ([`crate::bestmove::pack`] round-trips
    /// through [`crate::bestmove::unpack`]).
    fn last_best_key(&self) -> Option<u64> {
        None
    }
}

/// Options for [`optimize`].
///
/// Non-exhaustive: construct with [`SearchOptions::new`] (or `default()`)
/// and customize through the setters, so future fields are not semver
/// breaks.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SearchOptions {
    /// Stop after this many sweeps even if not at a local minimum
    /// (`None` = run to the local minimum).
    pub max_sweeps: Option<u64>,
    /// Sinks the descent reports into (all detached by default): the
    /// recorder gets `DescentBegin`/`SweepBegin`/`SweepEnd`/`DescentEnd`
    /// events, telemetry the `tsp_search_*` families, the flight
    /// recorder one `Sweep` per applied move (packed word plus decoded
    /// `(i, j, delta)`), and the profiler a `"descent"` span with one
    /// `"sweep"` span per query and an `"apply_move"` span per host-side
    /// reversal. Attach the same observer to the engine's device
    /// ([`crate::GpuTwoOpt::with_observer`]) to nest the device events
    /// and leaves inside them.
    pub observer: Observer,
}

impl SearchOptions {
    /// Defaults: run to the local minimum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stop after `max` sweeps even if not at a local minimum. Pass
    /// `None` to run to the local minimum (the default).
    pub fn with_max_sweeps(mut self, max: impl Into<Option<u64>>) -> Self {
        self.max_sweeps = max.into();
        self
    }

    /// Report the descent into `observer`'s sinks.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }
}

/// Statistics of one local-search descent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchStats {
    /// Tour length before the descent.
    pub initial_length: i64,
    /// Tour length at the end.
    pub final_length: i64,
    /// Number of neighbourhood sweeps performed (including the final,
    /// unsuccessful one).
    pub sweeps: u64,
    /// Number of improving moves applied (= sweeps - 1 at a local
    /// minimum).
    pub improving_moves: u64,
    /// Accumulated step profile over all sweeps.
    pub profile: StepProfile,
    /// Real wall-clock time spent on the host (simulation included),
    /// seconds.
    pub host_seconds: f64,
    /// `true` when the descent stopped because no improving move exists.
    pub reached_local_minimum: bool,
}

impl SearchStats {
    /// Modeled time to the local minimum — the paper's "Time to first
    /// minimum" column (Table II).
    pub fn modeled_seconds(&self) -> f64 {
        self.profile.modeled_seconds()
    }

    /// Relative improvement achieved, in percent.
    pub fn improvement_percent(&self) -> f64 {
        if self.initial_length == 0 {
            return 0.0;
        }
        100.0 * (self.initial_length - self.final_length) as f64 / self.initial_length as f64
    }
}

/// Live-metric instruments of the descent driver, resolved against the
/// shared registry once per [`optimize`] call (the sweep loop
/// itself never touches the registry lock).
struct SearchMetrics {
    sweeps: Counter,
    moves_found: Counter,
    moves_applied: Counter,
    descents: Counter,
    move_delta: Histogram,
}

impl SearchMetrics {
    fn register(registry: &Registry) -> Self {
        SearchMetrics {
            sweeps: registry.counter("tsp_search_sweeps_total", "Neighbourhood sweeps performed"),
            moves_found: registry.counter(
                "tsp_search_improving_found_total",
                "Sweeps whose best move was strictly improving",
            ),
            moves_applied: registry.counter(
                "tsp_search_moves_applied_total",
                "Improving 2-opt moves applied to a tour",
            ),
            descents: registry.counter(
                "tsp_search_descents_total",
                "Local-search descents completed",
            ),
            move_delta: registry.histogram(
                "tsp_search_move_delta",
                "Magnitude of applied best-move improvements (tour length units)",
                DELTA_BUCKETS,
            ),
        }
    }
}

/// Run best-improvement 2-opt descent on `tour` until a local minimum
/// (or `opts.max_sweeps`), applying moves on the host exactly as the
/// paper does (the kernel finds the move; the CPU reverses the segment
/// and re-orders the coordinates).
///
/// The search reports into `opts.observer`. Its sinks only observe:
/// the move sequence and modeled times are bit-identical with any of
/// them attached or detached (pinned by `tests/observer_differential.rs`).
pub fn optimize<E: TwoOptEngine + ?Sized>(
    engine: &mut E,
    inst: &Instance,
    tour: &mut Tour,
    opts: SearchOptions,
) -> Result<SearchStats, EngineError> {
    let Observer {
        recorder,
        telemetry,
        flight,
        prof,
        ..
    } = &opts.observer;
    let _descent = prof.span("descent");
    let start = Instant::now();
    let metrics = telemetry.registry().map(|r| SearchMetrics::register(r));
    let initial_length = tour.length(inst);
    recorder.record_with(|| TraceEvent::DescentBegin {
        engine: engine.name(),
        n: inst.len(),
        initial_length,
    });
    let mut profile = StepProfile::default();
    let mut sweeps = 0u64;
    let mut improving_moves = 0u64;
    let mut reached_local_minimum = false;

    loop {
        if let Some(max) = opts.max_sweeps {
            if sweeps >= max {
                break;
            }
        }
        recorder.record(TraceEvent::SweepBegin { sweep: sweeps });
        let (mv, step) = {
            let _sweep = prof.span("sweep");
            engine.best_move(inst, tour)?
        };
        let improving = matches!(&mv, Some(m) if m.improves());
        recorder.record_with(|| TraceEvent::SweepEnd {
            sweep: sweeps,
            cost: step.into(),
            improving,
            delta: match &mv {
                Some(m) if m.improves() => m.delta.into(),
                _ => 0,
            },
        });
        sweeps += 1;
        profile.accumulate(&step);
        if let Some(m) = &metrics {
            m.sweeps.inc();
            if improving {
                m.moves_found.inc();
            }
        }
        match mv {
            Some(m) if m.improves() => {
                flight.record_with(|| ReplayEvent::Sweep {
                    i: m.i,
                    j: m.j,
                    delta: m.delta,
                    key: engine
                        .last_best_key()
                        .unwrap_or_else(|| pack(m.delta, m.i, m.j)),
                });
                {
                    let _apply = prof.span("apply_move");
                    tour.apply_two_opt(m.i as usize, m.j as usize);
                }
                improving_moves += 1;
                if let Some(metrics) = &metrics {
                    metrics.moves_applied.inc();
                    metrics.move_delta.observe(-f64::from(m.delta));
                }
            }
            _ => {
                reached_local_minimum = true;
                break;
            }
        }
    }

    let final_length = tour.length(inst);
    recorder.record(TraceEvent::DescentEnd {
        sweeps,
        final_length,
    });
    if let Some(m) = &metrics {
        m.descents.inc();
    }
    Ok(SearchStats {
        initial_length,
        final_length,
        sweeps,
        improving_moves,
        profile,
        host_seconds: start.elapsed().as_secs_f64(),
        reached_local_minimum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake engine that replays a scripted sequence of moves.
    struct Scripted {
        moves: Vec<Option<BestMove>>,
        cursor: usize,
    }

    impl TwoOptEngine for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }

        fn best_move(
            &mut self,
            _inst: &Instance,
            _tour: &Tour,
        ) -> Result<(Option<BestMove>, StepProfile), EngineError> {
            let mv = self.moves.get(self.cursor).cloned().flatten();
            self.cursor += 1;
            Ok((
                mv,
                StepProfile {
                    pairs_checked: 10,
                    flops: 320,
                    kernel_seconds: 1e-6,
                    reversal_seconds: 0.0,
                    h2d_seconds: 5e-7,
                    d2h_seconds: 5e-7,
                },
            ))
        }
    }

    fn square() -> Instance {
        use tsp_core::{Metric, Point};
        Instance::new(
            "square4",
            Metric::Euc2d,
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 10.0),
                Point::new(10.0, 10.0),
                Point::new(10.0, 0.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn driver_applies_until_none() {
        let inst = square();
        let mut tour = Tour::new(vec![0, 2, 1, 3]).unwrap();
        let mut engine = Scripted {
            moves: vec![
                Some(BestMove {
                    delta: -8,
                    i: 0,
                    j: 2,
                }),
                None,
            ],
            cursor: 0,
        };
        let stats = optimize(&mut engine, &inst, &mut tour, SearchOptions::default()).unwrap();
        assert_eq!(tour.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(stats.sweeps, 2);
        assert_eq!(stats.improving_moves, 1);
        assert!(stats.reached_local_minimum);
        assert_eq!(stats.initial_length, 48);
        assert_eq!(stats.final_length, 40);
        assert_eq!(stats.profile.pairs_checked, 20);
        assert!((stats.modeled_seconds() - 4e-6).abs() < 1e-12);
    }

    #[test]
    fn driver_respects_sweep_cap() {
        let inst = square();
        let mut tour = Tour::identity(4);
        // An engine that would loop forever on zero-delta "improvements"
        // is guarded by the strict improves() check; here we cap sweeps.
        let mut engine = Scripted {
            moves: vec![
                Some(BestMove {
                    delta: -1,
                    i: 1,
                    j: 2
                });
                100
            ],
            cursor: 0,
        };
        let stats = optimize(
            &mut engine,
            &inst,
            &mut tour,
            SearchOptions::new().with_max_sweeps(3),
        )
        .unwrap();
        assert_eq!(stats.sweeps, 3);
        assert!(!stats.reached_local_minimum);
    }

    #[test]
    fn non_improving_move_stops_descent() {
        let inst = square();
        let mut tour = Tour::identity(4);
        let mut engine = Scripted {
            moves: vec![Some(BestMove {
                delta: 0,
                i: 0,
                j: 2,
            })],
            cursor: 0,
        };
        let stats = optimize(&mut engine, &inst, &mut tour, SearchOptions::default()).unwrap();
        assert_eq!(stats.improving_moves, 0);
        assert!(stats.reached_local_minimum);
        // The zero-delta move must NOT have been applied.
        assert_eq!(tour.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn recorder_sees_descent_and_sweep_events() {
        let inst = square();
        let mut tour = Tour::new(vec![0, 2, 1, 3]).unwrap();
        let mut engine = Scripted {
            moves: vec![
                Some(BestMove {
                    delta: -8,
                    i: 0,
                    j: 2,
                }),
                None,
            ],
            cursor: 0,
        };
        let rec = tsp_trace::Recorder::enabled();
        let stats = optimize(
            &mut engine,
            &inst,
            &mut tour,
            SearchOptions::new().with_observer(Observer::none().with_recorder(rec.clone())),
        )
        .unwrap();
        let events = rec.events();
        assert!(matches!(
            &events[0],
            TraceEvent::DescentBegin { engine, n, initial_length }
                if engine == "scripted" && *n == 4 && *initial_length == 48
        ));
        assert!(matches!(events[1], TraceEvent::SweepBegin { sweep: 0 }));
        match &events[2] {
            TraceEvent::SweepEnd {
                sweep,
                cost,
                improving,
                delta,
            } => {
                assert_eq!(*sweep, 0);
                assert!(*improving);
                assert_eq!(*delta, -8);
                assert_eq!(cost.pairs_checked, 10);
                assert!((cost.modeled_seconds() - 2e-6).abs() < 1e-15);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(events[3], TraceEvent::SweepBegin { sweep: 1 }));
        assert!(matches!(
            &events[4],
            TraceEvent::SweepEnd {
                sweep: 1,
                improving: false,
                delta: 0,
                ..
            }
        ));
        assert!(matches!(
            &events[5],
            TraceEvent::DescentEnd {
                sweeps: 2,
                final_length: 40
            }
        ));
        assert_eq!(events.len(), 6);
        assert_eq!(stats.sweeps, 2);
    }

    #[test]
    fn telemetry_counts_sweeps_moves_and_deltas() {
        let inst = square();
        let mut tour = Tour::new(vec![0, 2, 1, 3]).unwrap();
        let mut engine = Scripted {
            moves: vec![
                Some(BestMove {
                    delta: -8,
                    i: 0,
                    j: 2,
                }),
                None,
            ],
            cursor: 0,
        };
        let telemetry = tsp_telemetry::Telemetry::attached();
        optimize(
            &mut engine,
            &inst,
            &mut tour,
            SearchOptions::new().with_observer(Observer::none().with_telemetry(telemetry.clone())),
        )
        .unwrap();
        let reg = telemetry.registry().unwrap();
        assert_eq!(reg.counter_value("tsp_search_sweeps_total"), Some(2.0));
        assert_eq!(
            reg.counter_value("tsp_search_improving_found_total"),
            Some(1.0)
        );
        assert_eq!(
            reg.counter_value("tsp_search_moves_applied_total"),
            Some(1.0)
        );
        assert_eq!(reg.counter_value("tsp_search_descents_total"), Some(1.0));
        // The applied move's magnitude lands in the delta histogram.
        assert_eq!(
            reg.histogram_totals("tsp_search_move_delta"),
            Some((8.0, 1))
        );
    }

    #[test]
    fn improvement_percent() {
        let stats = SearchStats {
            initial_length: 200,
            final_length: 150,
            sweeps: 1,
            improving_moves: 0,
            profile: StepProfile::default(),
            host_seconds: 0.0,
            reached_local_minimum: true,
        };
        assert!((stats.improvement_percent() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn checks_per_second_guards_zero_time() {
        let p = StepProfile::default();
        assert_eq!(p.checks_per_second(), 0.0);
    }

    #[test]
    fn reversal_time_counts_toward_modeled_seconds() {
        let mut total = StepProfile::default();
        let step = StepProfile {
            pairs_checked: 1,
            flops: 4,
            kernel_seconds: 2e-6,
            reversal_seconds: 3e-7,
            h2d_seconds: 0.0,
            d2h_seconds: 1e-7,
        };
        assert!((step.modeled_seconds() - 2.4e-6).abs() < 1e-18);
        total.accumulate(&step);
        total.accumulate(&step);
        assert!((total.reversal_seconds - 6e-7).abs() < 1e-18);
        assert!((total.modeled_seconds() - 4.8e-6).abs() < 1e-18);
    }
}
