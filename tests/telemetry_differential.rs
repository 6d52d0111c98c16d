//! Differential suite for the live-telemetry subsystem, mirroring
//! `trace_differential.rs`: an attached [`Telemetry`] registry (and
//! [`Journal`]) must never change what the engines compute — identical
//! moves and tours, bit-identical modeled times — and the registry's
//! histograms must agree *exactly* with the [`MetricsSnapshot`]
//! aggregates computed from a recorder watching the same run, because
//! both fold the same f64 observations in the same order.
//! `observer_differential.rs` repeats the invisibility checks with
//! every other sink attached at once.

use gpu_sim::spec;
use tsp_2opt::{optimize, GpuTwoOpt, Observer, SearchOptions, Strategy, TwoOptEngine};
use tsp_core::Tour;
use tsp_ils::{iterated_local_search, IlsOptions};
use tsp_telemetry::{parse_text, Journal, Telemetry};
use tsp_trace::{MetricsSnapshot, Recorder};
use tsp_tsplib::{generate, Style};

fn scrambled_tour(n: usize) -> Tour {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(0x7e1e ^ n as u64);
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

#[test]
fn telemetry_is_invisible_to_every_strategy() {
    // Same instance, same tour: best_move with an attached registry
    // must return the identical move and a bit-identical cost profile
    // for all six kernel strategies.
    let n = 256;
    let inst = generate("tel-diff", n, Style::Clustered { clusters: 5 }, 11);
    let tour = scrambled_tour(n);
    for strategy in ALL_STRATEGIES {
        let mut plain = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
        let (mv_plain, p_plain) = plain.best_move(&inst, &tour).unwrap();

        let telemetry = Telemetry::attached();
        let mut observed = GpuTwoOpt::new(spec::gtx_680_cuda())
            .with_strategy(strategy)
            .with_observer(&Observer::none().with_telemetry(telemetry.clone()));
        let (mv_observed, p_observed) = observed.best_move(&inst, &tour).unwrap();

        assert_eq!(mv_plain, mv_observed, "{strategy:?}");
        assert_eq!(p_plain, p_observed, "{strategy:?}");
        assert_eq!(
            p_plain.modeled_seconds().to_bits(),
            p_observed.modeled_seconds().to_bits(),
            "{strategy:?}"
        );
        let launches = telemetry
            .registry()
            .unwrap()
            .counter_value_with("tsp_gpu_kernel_launches_total", &[("device", "0")])
            .unwrap_or(0.0);
        assert!(launches >= 1.0, "{strategy:?} counted no kernel launches");
    }
}

#[test]
fn telemetry_is_invisible_to_a_full_descent() {
    let n = 300;
    let inst = generate("tel-descent", n, Style::Uniform, 4);

    let mut t_plain = scrambled_tour(n);
    let mut plain = GpuTwoOpt::new(spec::gtx_680_cuda());
    let a = optimize(&mut plain, &inst, &mut t_plain, SearchOptions::default()).unwrap();

    let telemetry = Telemetry::attached();
    let observer = Observer::none().with_telemetry(telemetry.clone());
    let mut t_observed = scrambled_tour(n);
    let mut observed = GpuTwoOpt::new(spec::gtx_680_cuda()).with_observer(&observer);
    let b = optimize(
        &mut observed,
        &inst,
        &mut t_observed,
        SearchOptions::new().with_observer(observer),
    )
    .unwrap();

    assert_eq!(t_plain.as_slice(), t_observed.as_slice());
    assert_eq!(a.sweeps, b.sweeps);
    assert_eq!(a.final_length, b.final_length);
    assert_eq!(a.modeled_seconds().to_bits(), b.modeled_seconds().to_bits());
    let reg = telemetry.registry().unwrap();
    assert_eq!(
        reg.counter_value("tsp_search_sweeps_total"),
        Some(b.sweeps as f64)
    );
}

#[test]
fn telemetry_is_invisible_to_ils_on_every_strategy() {
    let n = 120;
    let inst = generate("tel-ils", n, Style::Clustered { clusters: 4 }, 9);
    let start = scrambled_tour(n);
    let opts = IlsOptions::new().with_max_iterations(4u64).with_seed(9);

    for strategy in ALL_STRATEGIES {
        let mut plain = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
        let a = iterated_local_search(&mut plain, &inst, start.clone(), opts.clone()).unwrap();

        let telemetry = Telemetry::attached();
        let journal = Journal::attached();
        let observer = Observer::none()
            .with_telemetry(telemetry.clone())
            .with_journal(journal.clone());
        let mut observed = GpuTwoOpt::new(spec::gtx_680_cuda())
            .with_strategy(strategy)
            .with_observer(&observer);
        let observed_opts = opts.clone().with_observer(observer);
        let b = iterated_local_search(&mut observed, &inst, start.clone(), observed_opts).unwrap();

        assert_eq!(a.best_length, b.best_length, "{strategy:?}");
        assert_eq!(a.best.as_slice(), b.best.as_slice(), "{strategy:?}");
        assert_eq!(a.accepted, b.accepted, "{strategy:?}");
        assert_eq!(
            a.profile.modeled_seconds().to_bits(),
            b.profile.modeled_seconds().to_bits(),
            "{strategy:?}"
        );
        assert!(!journal.is_empty(), "{strategy:?} journaled nothing");
    }
}

#[test]
fn histograms_agree_exactly_with_the_metrics_snapshot() {
    // Watch the same serial-path run with both observability systems:
    // a Recorder (event stream -> MetricsSnapshot fold) and a Telemetry
    // registry (atomic histograms). Both accumulate the identical f64
    // sequence in submission order, so sums match to the bit and
    // counts match exactly.
    let n = 200;
    let inst = generate("tel-exact", n, Style::Uniform, 6);
    let recorder = Recorder::enabled();
    let telemetry = Telemetry::attached();
    let observer = Observer::none()
        .with_recorder(recorder.clone())
        .with_telemetry(telemetry.clone());
    let mut engine = GpuTwoOpt::new(spec::gtx_680_cuda()).with_observer(&observer);
    let mut tour = scrambled_tour(n);
    optimize(
        &mut engine,
        &inst,
        &mut tour,
        SearchOptions::new().with_observer(observer),
    )
    .unwrap();

    let snapshot = MetricsSnapshot::from_events(&recorder.events());
    let reg = telemetry.registry().unwrap();
    let device = [("device", "0")];

    let (kernel_sum, kernel_count) = reg
        .histogram_totals_with("tsp_gpu_kernel_seconds", &device)
        .expect("kernel histogram present");
    let snapshot_calls: u64 = snapshot.kernels.iter().map(|k| k.calls).sum();
    assert_eq!(kernel_count, snapshot_calls);
    assert_eq!(kernel_sum.to_bits(), snapshot.kernel_seconds().to_bits());

    let (h2d_sum, h2d_count) = reg
        .histogram_totals_with("tsp_gpu_h2d_seconds", &device)
        .expect("h2d histogram present");
    assert_eq!(h2d_count, snapshot.h2d.calls);
    assert_eq!(h2d_sum.to_bits(), snapshot.h2d.seconds.to_bits());
    assert_eq!(
        reg.counter_value_with("tsp_gpu_h2d_bytes_total", &device),
        Some(snapshot.h2d.bytes as f64)
    );

    let (d2h_sum, d2h_count) = reg
        .histogram_totals_with("tsp_gpu_d2h_seconds", &device)
        .expect("d2h histogram present");
    assert_eq!(d2h_count, snapshot.d2h.calls);
    assert_eq!(d2h_sum.to_bits(), snapshot.d2h.seconds.to_bits());

    assert_eq!(
        reg.counter_value("tsp_search_sweeps_total"),
        Some(snapshot.sweeps as f64)
    );

    // And the full registry exposes as valid Prometheus text format.
    let families = parse_text(&telemetry.expose()).expect("valid exposition");
    assert!(families.iter().any(|f| f.name == "tsp_gpu_kernel_seconds"));
}
