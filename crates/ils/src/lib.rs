//! # tsp-ils
//!
//! Iterated Local Search — the paper's Algorithm 1:
//!
//! ```text
//! s0 <- GenerateInitialSolution()
//! s* <- 2optLocalSearch(s0)            # accelerated step
//! while termination condition not met:
//!     s' <- Perturbation(s*)           # double bridge
//!     s*' <- 2optLocalSearch(s')       # accelerated step
//!     s* <- AcceptanceCriterion(s*, s*')
//! ```
//!
//! The local-search step is any [`TwoOptEngine`] — plugging in the GPU
//! engine reproduces the paper's §V experiment ("We have also implemented
//! the Iterated Local Search algorithm and used the GPU version of 2-opt
//! to test its performance"), and the recorded convergence trace
//! regenerates Fig. 11.
//!
//! A run reports into the one `tsp_2opt::Observer` carried by
//! [`IlsOptions::observer`]; multistart stamps each chain's journal and
//! flight-recorder entries with its chain id ([`tsp_2opt::Observer::for_chain`]).

pub mod accept;
pub mod multistart;
pub mod perturb;

pub use accept::Acceptance;
pub use multistart::{parallel_multistart, ShardedMultistart, ShardedOutcome};
pub use perturb::Perturbation;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tsp_2opt::{optimize, EngineError, Observer, SearchOptions, StepProfile, TwoOptEngine};
use tsp_core::{CancelToken, Instance, Tour};
use tsp_replay::{hash_tour, ReplayEvent};
use tsp_telemetry::{Counter, Gauge, JournalEvent, JournalRecord, Registry};
use tsp_trace::TraceEvent;

/// Termination and behaviour knobs for [`iterated_local_search`].
///
/// The struct is `#[non_exhaustive]`: build it with
/// [`IlsOptions::default`] (or [`IlsOptions::new`]) and the `with_*`
/// setters, so new knobs can be added without breaking downstream code.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct IlsOptions {
    /// Stop after this many perturbation iterations.
    pub max_iterations: Option<u64>,
    /// Stop once the accumulated *modeled* time exceeds this budget
    /// (seconds) — the x-axis of Fig. 11.
    pub max_modeled_seconds: Option<f64>,
    /// Stop once real wall-clock time exceeds this budget (seconds).
    pub max_host_seconds: Option<f64>,
    /// RNG seed (perturbations are deterministic given the seed).
    pub seed: u64,
    /// Perturbation operator.
    pub perturbation: Perturbation,
    /// Acceptance criterion.
    pub acceptance: Acceptance,
    /// Under non-elitist acceptance, reset the incumbent to the best
    /// tour after this many iterations without improving the best
    /// (`None` = never restart).
    pub stagnation_restart: Option<u64>,
    /// Sinks the run reports into (all detached by default — zero cost
    /// when unused): the recorder gets iteration and perturbation
    /// events, telemetry the `tsp_ils_*` families (iterations,
    /// acceptance rate, best length, …), the journal one
    /// [`JournalRecord`] per notable event (the initial descent, every
    /// iteration, stagnation restarts, a final summary), the flight
    /// recorder every decision a replay needs (start digest, applied
    /// moves, each kick's RNG checkpoint and cut points, each acceptance
    /// verdict), and the profiler `"ils"` → `"iteration"` →
    /// `"kick"`/`"sweep"` spans. The descents report into the same
    /// sinks. Attach the *same* observer to the engine's device
    /// (`GpuTwoOpt::with_observer`) to interleave its kernel and
    /// transfer events, `tsp_gpu_*` metrics, device leaves and memory
    /// ledger with the ILS ones.
    pub observer: Observer,
    /// Resume the perturbation/acceptance RNG from an explicit
    /// xoshiro256++ state instead of seeding from [`IlsOptions::seed`] —
    /// how a replayer restores a recorded run's stream mid-flight.
    pub rng_state: Option<[u64; 4]>,
    /// Cooperative cancellation, polled once per ILS iteration next to
    /// the budget checks: when the token trips (explicit cancel or a
    /// deadline), the loop stops and returns the best tour found so
    /// far, exactly like an exhausted budget. The default
    /// ([`CancelToken::none`]) costs one branch per iteration. Armed
    /// tokens make the run wall-clock dependent, so the record/replay
    /// layer rejects them like `max_host_seconds`.
    pub cancel: CancelToken,
}

impl Default for IlsOptions {
    fn default() -> Self {
        IlsOptions {
            max_iterations: Some(100),
            max_modeled_seconds: None,
            max_host_seconds: None,
            seed: 0x2013,
            perturbation: Perturbation::DoubleBridge,
            acceptance: Acceptance::Better,
            stagnation_restart: None,
            observer: Observer::none(),
            rng_state: None,
            cancel: CancelToken::none(),
        }
    }
}

impl IlsOptions {
    /// Alias for [`IlsOptions::default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Set (or with `None`, disable) the iteration budget.
    pub fn with_max_iterations(mut self, max: impl Into<Option<u64>>) -> Self {
        self.max_iterations = max.into();
        self
    }

    /// Set (or with `None`, disable) the modeled-time budget, seconds.
    pub fn with_max_modeled_seconds(mut self, max: impl Into<Option<f64>>) -> Self {
        self.max_modeled_seconds = max.into();
        self
    }

    /// Set (or with `None`, disable) the wall-clock budget, seconds.
    pub fn with_max_host_seconds(mut self, max: impl Into<Option<f64>>) -> Self {
        self.max_host_seconds = max.into();
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the perturbation operator.
    pub fn with_perturbation(mut self, perturbation: Perturbation) -> Self {
        self.perturbation = perturbation;
        self
    }

    /// Set the acceptance criterion.
    pub fn with_acceptance(mut self, acceptance: Acceptance) -> Self {
        self.acceptance = acceptance;
        self
    }

    /// Set (or with `None`, disable) the stagnation-restart threshold.
    pub fn with_stagnation_restart(mut self, limit: impl Into<Option<u64>>) -> Self {
        self.stagnation_restart = limit.into();
        self
    }

    /// Report the run into `observer`'s sinks.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Resume the RNG from an explicit xoshiro256++ state (or with
    /// `None`, seed it from [`IlsOptions::seed`] — the default).
    pub fn with_rng_state(mut self, state: impl Into<Option<[u64; 4]>>) -> Self {
        self.rng_state = state.into();
        self
    }

    /// Attach a cooperative cancellation token (polled per iteration).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// One point of the convergence trace (Fig. 11's curve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Perturbation iteration (0 = the initial descent).
    pub iteration: u64,
    /// Accumulated modeled time when this length was reached, seconds.
    pub modeled_seconds: f64,
    /// Accumulated wall-clock time, seconds.
    pub host_seconds: f64,
    /// Best tour length known at this time.
    pub best_length: i64,
}

/// Result of an ILS run.
#[derive(Debug, Clone)]
pub struct IlsOutcome {
    /// The best tour found.
    pub best: Tour,
    /// Its length.
    pub best_length: i64,
    /// Perturbation iterations performed.
    pub iterations: u64,
    /// Iterations whose candidate was accepted.
    pub accepted: u64,
    /// Stagnation restarts performed (see
    /// [`IlsOptions::stagnation_restart`]).
    pub restarts: u64,
    /// Aggregate cost over every local-search sweep.
    pub profile: StepProfile,
    /// Total wall-clock seconds.
    pub host_seconds: f64,
    /// Convergence trace: one point per improvement of the best length.
    pub trace: Vec<TracePoint>,
}

/// The `tsp_ils_*` metric families, resolved once per run so the loop
/// never touches the registry lock.
struct IlsMetrics {
    iterations: Counter,
    accepted: Counter,
    improvements: Counter,
    restarts: Counter,
    acceptance_rate: Gauge,
    best_length: Gauge,
    time_to_best: Gauge,
    efficacy: Gauge,
}

impl IlsMetrics {
    fn register(registry: &Registry) -> Self {
        IlsMetrics {
            iterations: registry.counter(
                "tsp_ils_iterations_total",
                "Perturbation iterations performed",
            ),
            accepted: registry.counter(
                "tsp_ils_accepted_total",
                "Iterations whose candidate was accepted by the acceptance criterion",
            ),
            improvements: registry.counter(
                "tsp_ils_improvements_total",
                "Iterations that improved the best-known tour length",
            ),
            restarts: registry.counter(
                "tsp_ils_restarts_total",
                "Stagnation restarts (incumbent reset to the best tour)",
            ),
            acceptance_rate: registry.gauge(
                "tsp_ils_acceptance_rate",
                "Accepted iterations / total iterations so far (0 to 1)",
            ),
            best_length: registry.gauge("tsp_ils_best_length", "Best tour length found so far"),
            time_to_best: registry.gauge(
                "tsp_ils_time_to_best_seconds",
                "Modeled seconds elapsed when the current best was found",
            ),
            efficacy: registry.gauge(
                "tsp_ils_perturbation_efficacy",
                "Improving iterations / total iterations so far (0 to 1)",
            ),
        }
    }
}

/// Run Algorithm 1 starting from `initial`.
pub fn iterated_local_search<E: TwoOptEngine + ?Sized>(
    engine: &mut E,
    inst: &Instance,
    initial: Tour,
    opts: IlsOptions,
) -> Result<IlsOutcome, EngineError> {
    let obs = &opts.observer;
    let _ils = obs.prof.span("ils");
    let wall = std::time::Instant::now();
    let mut rng = match opts.rng_state {
        Some(state) => SmallRng::from_state(state),
        None => SmallRng::seed_from_u64(opts.seed),
    };
    let mut profile = StepProfile::default();
    let mut trace = Vec::new();
    let metrics = obs.telemetry.registry().map(|r| IlsMetrics::register(r));
    let search = SearchOptions::new().with_observer(obs.clone());
    // One journal record; the handle stamps the chain, run and trace ids.
    let journal = |event, iteration, modeled_seconds, tour_length, gap_to_best| {
        obs.journal.record_with(|| JournalRecord {
            run_id: String::new(),
            trace_id: String::new(),
            chain: 0,
            iteration,
            modeled_seconds,
            wall_seconds: wall.elapsed().as_secs_f64(),
            tour_length,
            gap_to_best,
            event,
        })
    };

    // s* <- 2optLocalSearch(s0)
    let mut best = initial;
    obs.flight.record_with(|| ReplayEvent::Start {
        tour_hash: hash_tour(&best),
    });
    let stats = {
        let _initial = obs.prof.span("initial_descent");
        optimize(engine, inst, &mut best, search.clone())?
    };
    profile.accumulate(&stats.profile);
    let mut best_length = stats.final_length;
    obs.flight.record_with(|| ReplayEvent::DescentEnd {
        iteration: 0,
        sweeps: stats.sweeps,
        length: best_length,
        tour_hash: hash_tour(&best),
        modeled_seconds: stats.profile.modeled_seconds(),
    });
    trace.push(TracePoint {
        iteration: 0,
        modeled_seconds: profile.modeled_seconds(),
        host_seconds: wall.elapsed().as_secs_f64(),
        best_length,
    });
    if let Some(m) = &metrics {
        m.best_length.set(best_length as f64);
        m.time_to_best.set(profile.modeled_seconds());
    }
    let modeled = profile.modeled_seconds();
    journal(JournalEvent::Initial, 0, modeled, best_length, 0.0);

    let mut iterations = 0u64;
    let mut accepted = 0u64;
    let mut restarts = 0u64;
    let mut since_improvement = 0u64;
    // Incumbent for the acceptance criterion (may differ from `best`
    // under non-elitist acceptance).
    let mut incumbent = best.clone();
    let mut incumbent_length = best_length;

    loop {
        if let Some(max) = opts.max_iterations {
            if iterations >= max {
                break;
            }
        }
        if let Some(max) = opts.max_modeled_seconds {
            if profile.modeled_seconds() >= max {
                break;
            }
        }
        if let Some(max) = opts.max_host_seconds {
            if wall.elapsed().as_secs_f64() >= max {
                break;
            }
        }
        if opts.cancel.is_cancelled() {
            break;
        }
        iterations += 1;
        let _iteration = obs.prof.span("iteration");
        obs.recorder.record(TraceEvent::IterationBegin {
            iteration: iterations,
        });

        // s' <- Perturbation(s*)
        let mut candidate = incumbent.clone();
        let rng_before_kick = rng.state();
        let kicks = {
            let _kick = obs.prof.span("kick");
            opts.perturbation.apply(&mut candidate, &mut rng)
        };
        obs.flight.record_with(move || ReplayEvent::Kick {
            iteration: iterations,
            rng: rng_before_kick,
            kicks,
        });
        obs.recorder.record_with(|| TraceEvent::Perturbation {
            kind: format!("{:?}", opts.perturbation),
        });
        // s*' <- 2optLocalSearch(s')
        let stats = optimize(engine, inst, &mut candidate, search.clone())?;
        profile.accumulate(&stats.profile);
        let candidate_length = stats.final_length;
        obs.flight.record_with(|| ReplayEvent::DescentEnd {
            iteration: iterations,
            sweeps: stats.sweeps,
            length: candidate_length,
            tour_hash: hash_tour(&candidate),
            modeled_seconds: stats.profile.modeled_seconds(),
        });

        // s* <- AcceptanceCriterion(s*, s*')
        let pre_incumbent_length = incumbent_length;
        let took = opts
            .acceptance
            .accept(incumbent_length, candidate_length, &mut rng);
        if took {
            incumbent = candidate;
            incumbent_length = candidate_length;
            accepted += 1;
        }
        obs.flight.record_with(|| ReplayEvent::Acceptance {
            iteration: iterations,
            incumbent_length: pre_incumbent_length,
            candidate_length,
            accepted: took,
            rng: rng.state(),
            tour_hash: hash_tour(&incumbent),
        });
        obs.recorder.record_with(|| TraceEvent::IterationEnd {
            iteration: iterations,
            candidate_length,
            accepted: took,
            best_length: best_length.min(incumbent_length),
        });
        let improved = incumbent_length < best_length;
        if improved {
            best = incumbent.clone();
            best_length = incumbent_length;
            since_improvement = 0;
            trace.push(TracePoint {
                iteration: iterations,
                modeled_seconds: profile.modeled_seconds(),
                host_seconds: wall.elapsed().as_secs_f64(),
                best_length,
            });
        } else {
            since_improvement += 1;
            if let Some(limit) = opts.stagnation_restart {
                if since_improvement >= limit {
                    incumbent = best.clone();
                    incumbent_length = best_length;
                    restarts += 1;
                    since_improvement = 0;
                    obs.flight.record_with(|| ReplayEvent::Restart {
                        iteration: iterations,
                        tour_hash: hash_tour(&incumbent),
                    });
                    if let Some(m) = &metrics {
                        m.restarts.inc();
                    }
                    let modeled = profile.modeled_seconds();
                    journal(JournalEvent::Restart, iterations, modeled, best_length, 0.0);
                }
            }
        }
        if let Some(m) = &metrics {
            m.iterations.inc();
            if took {
                m.accepted.inc();
            }
            m.acceptance_rate.set(accepted as f64 / iterations as f64);
            if improved {
                m.improvements.inc();
                m.best_length.set(best_length as f64);
                m.time_to_best.set(profile.modeled_seconds());
            }
            m.efficacy
                .set(trace.len().saturating_sub(1) as f64 / iterations as f64);
        }
        let event = if improved {
            JournalEvent::Improved
        } else if took {
            JournalEvent::Accepted
        } else {
            JournalEvent::Rejected
        };
        let gap = (candidate_length - best_length) as f64 / best_length as f64;
        let modeled = profile.modeled_seconds();
        journal(event, iterations, modeled, candidate_length, gap);
    }

    let modeled = profile.modeled_seconds();
    journal(JournalEvent::Final, iterations, modeled, best_length, 0.0);
    obs.flight.record_with(|| ReplayEvent::Final {
        iterations,
        best_length,
        tour_hash: hash_tour(&best),
        modeled_seconds: profile.modeled_seconds(),
    });

    Ok(IlsOutcome {
        best,
        best_length,
        iterations,
        accepted,
        restarts,
        profile,
        host_seconds: wall.elapsed().as_secs_f64(),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_2opt::SequentialTwoOpt;
    use tsp_telemetry::{Journal, Telemetry};
    use tsp_trace::Recorder;
    use tsp_tsplib::{generate, Style};

    #[test]
    fn ils_improves_on_plain_two_opt() {
        let inst = generate("ils", 80, Style::Uniform, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let start = Tour::random(80, &mut rng);

        // Plain descent.
        let mut plain = start.clone();
        let mut eng = SequentialTwoOpt::new();
        let stats = optimize(&mut eng, &inst, &mut plain, SearchOptions::default()).unwrap();

        // 60 ILS kicks from the same start.
        let out = iterated_local_search(
            &mut eng,
            &inst,
            start,
            IlsOptions {
                max_iterations: Some(60),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            out.best_length <= stats.final_length,
            "ILS {} vs plain {}",
            out.best_length,
            stats.final_length
        );
        out.best.validate().unwrap();
        assert_eq!(out.iterations, 60);
    }

    #[test]
    fn trace_is_monotone_in_time_and_length() {
        let inst = generate("trace", 60, Style::Uniform, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let start = Tour::random(60, &mut rng);
        let mut eng = SequentialTwoOpt::new();
        let out = iterated_local_search(
            &mut eng,
            &inst,
            start,
            IlsOptions {
                max_iterations: Some(40),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!out.trace.is_empty());
        for w in out.trace.windows(2) {
            assert!(w[0].modeled_seconds <= w[1].modeled_seconds);
            assert!(w[0].best_length > w[1].best_length);
        }
        assert_eq!(out.trace.last().unwrap().best_length, out.best_length);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = generate("det", 50, Style::Uniform, 7);
        let start = Tour::identity(50);
        let mut eng = SequentialTwoOpt::new();
        let opts = IlsOptions {
            max_iterations: Some(20),
            seed: 99,
            ..Default::default()
        };
        let a = iterated_local_search(&mut eng, &inst, start.clone(), opts.clone()).unwrap();
        let b = iterated_local_search(&mut eng, &inst, start, opts).unwrap();
        assert_eq!(a.best_length, b.best_length);
        assert_eq!(a.best.as_slice(), b.best.as_slice());
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn recorder_captures_iteration_telemetry() {
        let inst = generate("rec", 60, Style::Uniform, 9);
        let start = Tour::identity(60);
        let mut eng = SequentialTwoOpt::new();
        let rec = Recorder::enabled();
        let out = iterated_local_search(
            &mut eng,
            &inst,
            start,
            IlsOptions {
                max_iterations: Some(5),
                observer: Observer::none().with_recorder(rec.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let events = rec.events();
        let begins = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::IterationBegin { .. }))
            .count();
        let perturbs = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Perturbation { kind } if kind == "DoubleBridge"))
            .count();
        let descents = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::DescentEnd { .. }))
            .count();
        assert_eq!(begins, 5);
        assert_eq!(perturbs, 5);
        // Initial descent + one per iteration.
        assert_eq!(descents, 6);
        // The last IterationEnd carries the final best length.
        let last_best = events
            .iter()
            .rev()
            .find_map(|e| match e {
                TraceEvent::IterationEnd { best_length, .. } => Some(*best_length),
                _ => None,
            })
            .unwrap();
        assert_eq!(last_best, out.best_length);
    }

    #[test]
    fn tracing_does_not_change_the_search() {
        let inst = generate("inert", 70, Style::Uniform, 11);
        let start = Tour::identity(70);
        let opts = IlsOptions {
            max_iterations: Some(8),
            seed: 41,
            ..Default::default()
        };
        let mut eng = SequentialTwoOpt::new();
        let plain = iterated_local_search(&mut eng, &inst, start.clone(), opts.clone()).unwrap();
        let mut eng = SequentialTwoOpt::new();
        let traced = iterated_local_search(
            &mut eng,
            &inst,
            start,
            IlsOptions {
                observer: Observer::none().with_recorder(Recorder::enabled()),
                ..opts
            },
        )
        .unwrap();
        assert_eq!(plain.best_length, traced.best_length);
        assert_eq!(plain.best.as_slice(), traced.best.as_slice());
        assert_eq!(plain.accepted, traced.accepted);
        assert_eq!(
            plain.profile.modeled_seconds().to_bits(),
            traced.profile.modeled_seconds().to_bits()
        );
    }

    #[test]
    fn telemetry_and_journal_capture_the_run() {
        let inst = generate("live", 80, Style::Uniform, 17);
        let start = Tour::identity(80);
        let mut eng = SequentialTwoOpt::new();
        let telemetry = Telemetry::attached();
        let journal = Journal::attached();
        let out = iterated_local_search(
            &mut eng,
            &inst,
            start,
            IlsOptions {
                max_iterations: Some(12),
                observer: Observer::none()
                    .with_telemetry(telemetry.clone())
                    .with_journal(journal.clone()),
                ..Default::default()
            },
        )
        .unwrap();

        let reg = telemetry.registry().unwrap();
        assert_eq!(
            reg.counter_value("tsp_ils_iterations_total"),
            Some(out.iterations as f64)
        );
        assert_eq!(
            reg.counter_value("tsp_ils_accepted_total"),
            Some(out.accepted as f64)
        );
        assert_eq!(
            reg.gauge_value("tsp_ils_best_length"),
            Some(out.best_length as f64)
        );
        let rate = reg.gauge_value("tsp_ils_acceptance_rate").unwrap();
        assert!((0.0..=1.0).contains(&rate));
        assert_eq!(rate, out.accepted as f64 / out.iterations as f64);
        let efficacy = reg.gauge_value("tsp_ils_perturbation_efficacy").unwrap();
        assert!((0.0..=1.0).contains(&efficacy));
        // The descents fed the search-layer families too.
        assert!(reg.counter_value("tsp_search_sweeps_total").unwrap() > 0.0);

        // Journal: Initial, one record per iteration, then Final.
        let records = journal.records();
        assert_eq!(records.len() as u64, out.iterations + 2);
        assert_eq!(records[0].event, JournalEvent::Initial);
        assert_eq!(records.last().unwrap().event, JournalEvent::Final);
        assert_eq!(records.last().unwrap().tour_length, out.best_length);
        for w in records.windows(2) {
            assert!(w[0].iteration <= w[1].iteration);
            assert!(w[0].modeled_seconds <= w[1].modeled_seconds);
        }
        // Improved records are at-the-time best lengths: gap 0.
        for r in &records {
            if r.event == JournalEvent::Improved {
                assert_eq!(r.gap_to_best, 0.0);
            }
            assert_eq!(r.chain, 0);
        }
        // The JSONL round-trips.
        let parsed = tsp_telemetry::parse_jsonl(&journal.to_jsonl()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn telemetry_is_inert_for_the_search() {
        let inst = generate("inert-tel", 70, Style::Uniform, 19);
        let start = Tour::identity(70);
        let opts = IlsOptions {
            max_iterations: Some(8),
            seed: 43,
            ..Default::default()
        };
        let mut eng = SequentialTwoOpt::new();
        let plain = iterated_local_search(&mut eng, &inst, start.clone(), opts.clone()).unwrap();
        let mut eng = SequentialTwoOpt::new();
        let observed = iterated_local_search(
            &mut eng,
            &inst,
            start,
            IlsOptions {
                observer: Observer::none()
                    .with_telemetry(Telemetry::attached())
                    .with_journal(Journal::attached()),
                ..opts
            },
        )
        .unwrap();
        assert_eq!(plain.best_length, observed.best_length);
        assert_eq!(plain.best.as_slice(), observed.best.as_slice());
        assert_eq!(plain.accepted, observed.accepted);
        assert_eq!(
            plain.profile.modeled_seconds().to_bits(),
            observed.profile.modeled_seconds().to_bits()
        );
    }

    #[test]
    fn modeled_time_budget_terminates() {
        let inst = generate("budget", 120, Style::Uniform, 8);
        let start = Tour::identity(120);
        let mut eng = SequentialTwoOpt::new();
        let out = iterated_local_search(
            &mut eng,
            &inst,
            start,
            IlsOptions {
                max_iterations: None,
                max_modeled_seconds: Some(0.05),
                ..Default::default()
            },
        )
        .unwrap();
        // It ran some iterations, then stopped on the time budget.
        assert!(out.profile.modeled_seconds() >= 0.05);
        assert!(out.iterations > 0);
    }
}
