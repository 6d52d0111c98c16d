//! Differential suite for the observation sinks: attaching any sink of
//! an [`Observer`] — each one alone, and all of them at once — must
//! never change what a run computes. Identical moves and tours,
//! bit-identical modeled seconds, on every `tsp::all_strategies` entry,
//! for one `best_move`, a full descent, an ILS run and a sharded
//! multistart run. The alert case evaluates an [`AlertEngine`] against
//! the live registry between and after the stages and exposes its
//! `ALERTS` gauges back into that registry: alerting reads metrics and
//! must never write back into the solve.
//!
//! Each attached sink must also have seen the run, so a sink that
//! silently detached would fail here rather than pass vacuously.

use gpu_sim::spec;
use tsp::prelude::*;
use tsp_2opt::{optimize, GpuTwoOpt, TwoOptEngine};
use tsp_construction::multiple_fragment;
use tsp_telemetry::{AlertEngine, AlertRule, Cmp, Selector, Severity};
use tsp_trace::TraceEvent;
use tsp_tsplib::{generate, Style};

/// Which sinks an observed run attaches.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sinks {
    Recorder,
    Telemetry,
    /// Telemetry plus an alert engine evaluated against its registry.
    Alerts,
    Journal,
    Flight,
    Profiler,
    /// Every sink at once, alert evaluation included.
    All,
}

const CASES: [Sinks; 7] = [
    Sinks::Recorder,
    Sinks::Telemetry,
    Sinks::Alerts,
    Sinks::Journal,
    Sinks::Flight,
    Sinks::Profiler,
    Sinks::All,
];

/// The stage of the stack a test drives; it decides which sinks must
/// have recorded something.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scope {
    BestMove,
    Descent,
    Ils,
    Sharded,
}

/// A rule set that exercises every rule kind against metrics the
/// engines actually emit, so each evaluation genuinely reads the
/// registry rather than matching nothing.
fn fleet_rules() -> AlertEngine {
    AlertEngine::new()
        .with_rule(AlertRule::threshold(
            "KernelLaunches",
            Severity::Info,
            Selector::metric("tsp_gpu_kernel_launches_total"),
            Cmp::Ge,
            1.0,
        ))
        .with_rule(AlertRule::stale(
            "SweepsStale",
            Severity::Warning,
            Selector::metric("tsp_search_sweeps_total"),
            0.5,
        ))
        .with_rule(AlertRule::burn_rate(
            "LaunchBurn",
            Severity::Critical,
            Selector::metric("tsp_gpu_kernel_launches_total"),
            Selector::metric("tsp_search_sweeps_total"),
            0.5,
            2.0,
            0.5,
            1.0,
        ))
}

/// An observer with `sinks` attached, plus the alert engine that
/// watches its registry when alerting is part of the case.
struct Observed {
    sinks: Sinks,
    observer: Observer,
    alerts: Option<AlertEngine>,
    clock: f64,
}

impl Observed {
    fn new(sinks: Sinks) -> Self {
        let none = Observer::none();
        let observer = match sinks {
            Sinks::Recorder => none.with_recorder(Recorder::enabled()),
            Sinks::Telemetry | Sinks::Alerts => none.with_telemetry(Telemetry::attached()),
            Sinks::Journal => none.with_journal(Journal::attached()),
            Sinks::Flight => none.with_flight(FlightRecorder::attached()),
            Sinks::Profiler => none.with_prof(Profiler::attached()),
            Sinks::All => Observer {
                recorder: Recorder::enabled(),
                telemetry: Telemetry::attached(),
                journal: Journal::attached(),
                flight: FlightRecorder::attached(),
                prof: Profiler::attached(),
            },
        };
        let alerts = matches!(sinks, Sinks::Alerts | Sinks::All).then(fleet_rules);
        let mut observed = Observed {
            sinks,
            observer,
            alerts,
            clock: 0.0,
        };
        // Evaluate on the empty registry first: nothing matches yet.
        observed.checkpoint();
        if let Some(engine) = &observed.alerts {
            assert_eq!(engine.firing_count(), 0, "{sinks:?} fired on nothing");
        }
        observed
    }

    /// Evaluate the alert engine (if any) at the next clock tick and
    /// expose its gauges into the same registry it reads from.
    fn checkpoint(&mut self) {
        if let (Some(engine), Some(registry)) =
            (&mut self.alerts, self.observer.telemetry.registry())
        {
            engine.evaluate(registry, self.clock);
            engine.expose_into(registry);
            self.clock += 0.25;
        }
    }

    /// Every attached sink saw the run.
    fn assert_saw(&mut self, scope: Scope, what: &str) {
        for _ in 0..4 {
            self.checkpoint();
        }
        let obs = &self.observer;
        let sinks = self.sinks;
        if obs.recorder.is_enabled() {
            assert!(
                obs.recorder
                    .events()
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Kernel { .. } | TraceEvent::StreamOp { .. })),
                "{what} {sinks:?}: recorder saw no kernel"
            );
        }
        if let Some(registry) = obs.telemetry.registry() {
            let launches = registry
                .counter_value_with("tsp_gpu_kernel_launches_total", &[("device", "0")])
                .unwrap_or(0.0);
            assert!(
                launches >= 1.0,
                "{what} {sinks:?}: no kernel launches counted"
            );
        }
        if let Some(engine) = &self.alerts {
            assert!(
                engine.firing_count() >= 1,
                "{what} {sinks:?}: the KernelLaunches rule must fire once kernels ran"
            );
        }
        if obs.prof.is_enabled() {
            assert!(obs.prof.span_count() > 0, "{what} {sinks:?}: no spans");
        }
        if obs.flight.is_enabled() && scope != Scope::BestMove {
            assert!(!obs.flight.is_empty(), "{what} {sinks:?}: nothing recorded");
        }
        if obs.journal.is_enabled() && matches!(scope, Scope::Ils | Scope::Sharded) {
            assert!(
                !obs.journal.is_empty(),
                "{what} {sinks:?}: nothing journaled"
            );
        }
    }
}

fn scrambled_tour(n: usize) -> Tour {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(0x0b5e ^ n as u64);
    Tour::random(n, &mut rng)
}

fn strategies() -> Vec<Strategy> {
    all_strategies(64, 8)
}

/// Two solutions of the same configuration are the same run, bit for
/// bit.
fn assert_same_solution(plain: &Solution, observed: &Solution, what: &str) {
    assert_eq!(plain.tour.as_slice(), observed.tour.as_slice(), "{what}");
    assert_eq!(plain.length, observed.length, "{what}");
    assert_eq!(plain.initial_length, observed.initial_length, "{what}");
    assert_eq!(plain.iterations, observed.iterations, "{what}");
    assert_eq!(plain.chains, observed.chains, "{what}");
    assert_eq!(plain.profile, observed.profile, "{what}");
    assert_eq!(
        plain.modeled_seconds().to_bits(),
        observed.modeled_seconds().to_bits(),
        "{what}"
    );
    assert_eq!(
        plain.modeled_makespan_seconds().to_bits(),
        observed.modeled_makespan_seconds().to_bits(),
        "{what}"
    );
}

#[test]
fn each_sink_and_all_sinks_are_invisible_to_best_move() {
    // Same instance, same tour: best_move on an observed engine returns
    // the identical move and a bit-identical cost profile — and so does
    // a second query after the alert checkpoints exposed their gauges.
    let n = 256;
    let inst = generate("obs-move", n, Style::Clustered { clusters: 5 }, 11);
    let tour = scrambled_tour(n);
    for strategy in strategies() {
        let mut plain = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
        let expected = [
            plain.best_move(&inst, &tour).unwrap(),
            plain.best_move(&inst, &tour).unwrap(),
        ];
        for sinks in CASES {
            let what = format!("{strategy:?} {sinks:?}");
            let mut observed = Observed::new(sinks);
            let mut engine = GpuTwoOpt::new(spec::gtx_680_cuda())
                .with_strategy(strategy)
                .with_observer(&observed.observer);
            let first = engine.best_move(&inst, &tour).unwrap();
            observed.checkpoint();
            let again = engine.best_move(&inst, &tour).unwrap();
            for (want, got) in expected.iter().zip([first, again]) {
                assert_eq!(want.0, got.0, "{what}");
                assert_eq!(want.1, got.1, "{what}");
                assert_eq!(
                    want.1.modeled_seconds().to_bits(),
                    got.1.modeled_seconds().to_bits(),
                    "{what}"
                );
            }
            observed.assert_saw(Scope::BestMove, &what);
        }
    }
}

#[test]
fn each_sink_and_all_sinks_are_invisible_to_a_full_descent() {
    // Two descents from the same multiple-fragment start on one engine
    // (the second one re-syncs resident and candidate state), with an
    // alert checkpoint between them: identical tours, sweeps and
    // modeled seconds. Then the same descent through the facade.
    let n = 150;
    let inst = generate("obs-descent", n, Style::Uniform, 4);
    let start = multiple_fragment(&inst);
    let descend = |engine: &mut GpuTwoOpt, search: SearchOptions| {
        let mut tour = start.clone();
        let stats = optimize(engine, &inst, &mut tour, search).unwrap();
        (tour, stats)
    };
    for strategy in strategies() {
        let mut plain = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
        let expected = [
            descend(&mut plain, SearchOptions::default()),
            descend(&mut plain, SearchOptions::default()),
        ];
        let facade = || Solver::builder().strategy(strategy);
        let plain_facade = facade().build().run(&inst).unwrap();
        for sinks in CASES {
            let what = format!("{strategy:?} {sinks:?}");
            let mut observed = Observed::new(sinks);
            let search = SearchOptions::new().with_observer(observed.observer.clone());
            let mut engine = GpuTwoOpt::new(spec::gtx_680_cuda())
                .with_strategy(strategy)
                .with_observer(&observed.observer);
            let first = descend(&mut engine, search.clone());
            observed.checkpoint();
            let again = descend(&mut engine, search);
            for ((want_tour, want), (got_tour, got)) in expected.iter().zip([&first, &again]) {
                assert_eq!(want_tour.as_slice(), got_tour.as_slice(), "{what}");
                assert_eq!(want.sweeps, got.sweeps, "{what}");
                assert_eq!(want.final_length, got.final_length, "{what}");
                assert_eq!(want.profile, got.profile, "{what}");
                assert_eq!(
                    want.modeled_seconds().to_bits(),
                    got.modeled_seconds().to_bits(),
                    "{what}"
                );
            }
            // The search-level sinks counted exactly the sweeps run.
            let sweeps = first.1.sweeps + again.1.sweeps;
            let obs = &observed.observer;
            if obs.recorder.is_enabled() {
                let begins = obs
                    .recorder
                    .events()
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::SweepBegin { .. }))
                    .count();
                assert_eq!(begins as u64, sweeps, "{what}");
            }
            if let Some(registry) = obs.telemetry.registry() {
                assert_eq!(
                    registry.counter_value("tsp_search_sweeps_total"),
                    Some(sweeps as f64),
                    "{what}"
                );
            }
            observed.assert_saw(Scope::Descent, &what);

            let mut observed = Observed::new(sinks);
            let run = facade()
                .observe(observed.observer.clone())
                .build()
                .run(&inst)
                .unwrap();
            let what = format!("facade {what}");
            assert_same_solution(&plain_facade, &run, &what);
            observed.assert_saw(Scope::Descent, &what);
        }
    }
}

#[test]
fn each_sink_and_all_sinks_are_invisible_to_ils() {
    // ILS through the facade from a multiple-fragment start: the
    // observer reaches the device, every descent and the ILS loop.
    let inst = generate("obs-ils", 72, Style::Clustered { clusters: 6 }, 11);
    let build = |strategy: Strategy| {
        Solver::builder()
            .strategy(strategy)
            .ils(IlsOptions::default().with_max_iterations(3u64).with_seed(9))
    };
    for strategy in strategies() {
        let plain = build(strategy).build().run(&inst).unwrap();
        // A detached run leaves nothing behind.
        assert!(plain.observer.prof.report().spans.is_empty());
        assert!(plain.memory.peak_bytes(0).is_none());
        for sinks in CASES {
            let what = format!("{strategy:?} {sinks:?}");
            let mut observed = Observed::new(sinks);
            let run = build(strategy)
                .observe(observed.observer.clone())
                .build()
                .run(&inst)
                .unwrap();
            assert_same_solution(&plain, &run, &what);
            observed.assert_saw(Scope::Ils, &what);
        }
    }
}

#[test]
fn each_sink_and_all_sinks_are_invisible_to_a_sharded_run() {
    // Four chains over a 2-device x 2-stream pool: the observer reaches
    // every pooled device and every chain.
    let inst = generate("obs-shard", 48, Style::Uniform, 12);
    let build = |strategy: Strategy| {
        Solver::builder()
            .strategy(strategy)
            .devices(2)
            .streams(2)
            .restarts(4)
            .ils(
                IlsOptions::default()
                    .with_max_iterations(2u64)
                    .with_seed(13),
            )
    };
    for strategy in strategies() {
        let plain = build(strategy).build().run(&inst).unwrap();
        for sinks in CASES {
            let what = format!("{strategy:?} {sinks:?}");
            let mut observed = Observed::new(sinks);
            let run = build(strategy)
                .observe(observed.observer.clone())
                .build()
                .run(&inst)
                .unwrap();
            assert_same_solution(&plain, &run, &what);
            observed.assert_saw(Scope::Sharded, &what);
        }
    }
}
