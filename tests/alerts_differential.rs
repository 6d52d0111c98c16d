//! Differential suite for the alert subsystem, mirroring
//! `telemetry_differential.rs`: evaluating an [`AlertEngine`] against
//! the live registry — before, between, and after solver stages, and
//! at watchdog ticks inside a running [`SolveService`] — must never
//! change what the engines compute. Identical moves and tours,
//! bit-identical modeled seconds, across every kernel strategy, for
//! both plain descent and ILS. Alerting reads metrics; it must never
//! write back into the solve.

use gpu_sim::spec;
use tsp_2opt::{optimize, GpuTwoOpt, Observer, SearchOptions, Strategy, TwoOptEngine};
use tsp_core::Tour;
use tsp_ils::{iterated_local_search, IlsOptions};
use tsp_prof::Profiler;
use tsp_serve::api::{JobState, JobStatus, SolveRequest};
use tsp_serve::{AlertConfig, ServiceConfig, SolveService};
use tsp_telemetry::{AlertEngine, AlertRule, Cmp, Selector, Severity, Telemetry};
use tsp_tsplib::{generate, writer, Style};

fn scrambled_tour(n: usize) -> Tour {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(0xa1e7 ^ n as u64);
    Tour::random(n, &mut rng)
}

const ALL_STRATEGIES: [Strategy; 6] = [
    Strategy::Auto,
    Strategy::Shared,
    Strategy::Tiled { tile: 64 },
    Strategy::GlobalOnly,
    Strategy::Unordered,
    Strategy::DeviceResident,
];

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

#[test]
fn alert_evaluation_is_invisible_to_every_strategy() {
    // Same instance, same tour: best_move with an attached registry
    // being actively evaluated by an alert engine must return the
    // identical move and a bit-identical cost profile for all six
    // kernel strategies.
    let n = 256;
    let inst = generate("alert-diff", n, Style::Clustered { clusters: 5 }, 17);
    let tour = scrambled_tour(n);
    for strategy in ALL_STRATEGIES {
        let mut plain = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
        let (mv_plain, p_plain) = plain.best_move(&inst, &tour).unwrap();

        let telemetry = Telemetry::attached();
        let registry = telemetry.registry().unwrap();
        let mut engine = fleet_rules();
        // Evaluate on the empty registry first: nothing matches yet.
        engine.evaluate(registry, 0.0);
        assert_eq!(engine.firing_count(), 0, "{strategy:?} fired on nothing");

        let mut observed = GpuTwoOpt::new(spec::gtx_680_cuda())
            .with_strategy(strategy)
            .with_observer(&Observer::none().with_telemetry(telemetry.clone()));
        let (mv_observed, p_observed) = observed.best_move(&inst, &tour).unwrap();

        // Checkpoint evaluations after the kernel ran, journalling
        // state transitions and exposing ALERTS gauges back into the
        // same registry the engine reads from.
        for step in 1..=4u32 {
            engine.evaluate(registry, f64::from(step) * 0.25);
            engine.expose_into(registry);
        }
        assert!(
            engine.firing_count() >= 1,
            "{strategy:?}: the KernelLaunches rule must fire once kernels ran"
        );

        // And a second observed evaluation under an exposed registry
        // still matches the plain run bit for bit.
        let (mv_again, p_again) = observed.best_move(&inst, &tour).unwrap();
        assert_eq!(mv_plain, mv_observed, "{strategy:?}");
        assert_eq!(mv_plain, mv_again, "{strategy:?}");
        assert_eq!(p_plain, p_observed, "{strategy:?}");
        assert_eq!(
            p_plain.modeled_seconds().to_bits(),
            p_observed.modeled_seconds().to_bits(),
            "{strategy:?}"
        );
        assert_eq!(
            p_plain.modeled_seconds().to_bits(),
            p_again.modeled_seconds().to_bits(),
            "{strategy:?}"
        );
    }
}

#[test]
fn alert_evaluation_is_invisible_to_descent_and_ils() {
    // Full descent then ILS on every strategy, with the alert engine
    // evaluated between the stages and after — at checkpoints derived
    // from the run's own (deterministic) modeled seconds, so the
    // entire test is reproducible bit for bit.
    let n = 180;
    let inst = generate("alert-descent", n, Style::Uniform, 8);
    let start = scrambled_tour(n);
    let ils_opts = IlsOptions::new().with_max_iterations(3u64).with_seed(13);

    for strategy in ALL_STRATEGIES {
        // --- plain: no telemetry, no alerting ------------------------
        let mut t_plain = start.clone();
        let mut plain = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
        let a = optimize(&mut plain, &inst, &mut t_plain, SearchOptions::default()).unwrap();
        let a_ils =
            iterated_local_search(&mut plain, &inst, start.clone(), ils_opts.clone()).unwrap();

        // --- observed: registry attached, engine evaluated between --
        let telemetry = Telemetry::attached();
        let registry = telemetry.registry().unwrap();
        let observer = Observer::none().with_telemetry(telemetry.clone());
        let mut engine = fleet_rules();
        let mut t_observed = start.clone();
        let mut observed = GpuTwoOpt::new(spec::gtx_680_cuda())
            .with_strategy(strategy)
            .with_observer(&observer);
        let b = optimize(
            &mut observed,
            &inst,
            &mut t_observed,
            SearchOptions::new().with_observer(observer),
        )
        .unwrap();

        // Mid-run checkpoint: evaluate between descent and ILS at the
        // descent's own modeled-seconds mark, then expose the gauges.
        let checkpoint = b.modeled_seconds();
        let transitions = engine.evaluate(registry, checkpoint);
        assert!(
            !transitions.is_empty(),
            "{strategy:?}: the first post-descent evaluation must transition"
        );
        engine.expose_into(registry);

        let b_ils =
            iterated_local_search(&mut observed, &inst, start.clone(), ils_opts.clone()).unwrap();
        engine.evaluate(registry, checkpoint + 1.0);
        engine.expose_into(registry);

        // --- identical results, bit for bit --------------------------
        assert_eq!(t_plain.as_slice(), t_observed.as_slice(), "{strategy:?}");
        assert_eq!(a.sweeps, b.sweeps, "{strategy:?}");
        assert_eq!(a.final_length, b.final_length, "{strategy:?}");
        assert_eq!(
            a.modeled_seconds().to_bits(),
            b.modeled_seconds().to_bits(),
            "{strategy:?}"
        );
        assert_eq!(a_ils.best_length, b_ils.best_length, "{strategy:?}");
        assert_eq!(a_ils.best.as_slice(), b_ils.best.as_slice(), "{strategy:?}");
        assert_eq!(a_ils.accepted, b_ils.accepted, "{strategy:?}");
        assert_eq!(
            a_ils.profile.modeled_seconds().to_bits(),
            b_ils.profile.modeled_seconds().to_bits(),
            "{strategy:?}"
        );
    }
}

/// Run a fixed batch of seeded jobs through a service and collect the
/// terminal statuses in submission order.
fn run_service_batch(alerts: AlertConfig, tick: bool) -> Vec<JobStatus> {
    let cfg = ServiceConfig::default()
        .with_devices(1)
        .with_streams(1)
        .with_alerts(alerts);
    let service = SolveService::start(cfg, Telemetry::attached(), Profiler::attached()).unwrap();
    let ids: Vec<String> = (0..6u64)
        .map(|i| {
            let inst = generate(
                &format!("alert-batch-{i}"),
                64,
                Style::Clustered { clusters: 4 },
                40 + i,
            );
            let req = SolveRequest::tsplib(writer::write(&inst))
                .with_tenant(format!("tenant-{}", i % 3))
                .with_ils_iterations(2)
                .with_seed(i);
            if tick {
                service.watchdog_tick();
            }
            service.submit(req).unwrap().job_id
        })
        .collect();
    let statuses: Vec<JobStatus> = ids
        .iter()
        .map(|id| loop {
            if tick {
                service.watchdog_tick();
            }
            let status = service.status(id).unwrap();
            if status.state.is_terminal() {
                break status;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        })
        .collect();
    if tick {
        // A healthy drain fires nothing.
        service.watchdog_tick();
        assert_eq!(
            service.alerts_snapshot().firing,
            0,
            "a healthy batch must not fire alerts"
        );
    }
    service.shutdown();
    statuses
}

#[test]
fn service_watchdog_and_alerting_are_bit_inert() {
    // The same six seeded jobs through (a) a service with alerting
    // disabled entirely and (b) a service with the watchdog ticked
    // manually around every submission and poll: identical tours,
    // lengths, and bit-identical modeled seconds per job.
    let silent = run_service_batch(AlertConfig::disabled(), false);
    let watched = run_service_batch(
        AlertConfig::default()
            .with_watchdog_interval_ms(0)
            .with_stall_seconds(30.0),
        true,
    );
    assert_eq!(silent.len(), watched.len());
    for (i, (a, b)) in silent.iter().zip(&watched).enumerate() {
        assert_eq!(a.state, JobState::Done, "job {i} (silent)");
        assert_eq!(b.state, JobState::Done, "job {i} (watched)");
        assert_eq!(a.tour, b.tour, "job {i}: tour bytes diverged");
        assert_eq!(a.length, b.length, "job {i}: tour length diverged");
        assert_eq!(a.initial_length, b.initial_length, "job {i}");
        assert_eq!(a.chains, b.chains, "job {i}");
        assert_eq!(
            a.modeled_seconds.unwrap().to_bits(),
            b.modeled_seconds.unwrap().to_bits(),
            "job {i}: modeled seconds diverged"
        );
    }
}
