//! Differential suite for the tracing subsystem: an attached
//! [`Recorder`] must never change what the engines compute — identical
//! moves, bit-identical modeled times — and the metrics derived from
//! the event stream must agree bit-for-bit with the analytic model.
//! `observer_differential.rs` repeats the invisibility checks with
//! every other sink attached at once.

use gpu_sim::spec;
use tsp_2opt::gpu::model::{model_auto_sweep, ModeledSweep};
use tsp_2opt::{optimize, GpuTwoOpt, Observer, SearchOptions, Strategy, TwoOptEngine};
use tsp_construction::multiple_fragment;
use tsp_core::Tour;
use tsp_ils::{iterated_local_search, IlsOptions};
use tsp_trace::{chrome_trace, json, MetricsSnapshot, Recorder, TraceEvent};
use tsp_tsplib::{generate, Style};

fn scrambled_tour(n: usize) -> Tour {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(0x7ace ^ n as u64);
    Tour::random(n, &mut rng)
}

#[test]
fn tracing_is_invisible_to_every_strategy() {
    // Same instance, same tour: best_move with an enabled recorder must
    // return the identical move and a bit-identical cost profile for
    // all six kernel strategies.
    let n = 256;
    let inst = generate("trace-diff", n, Style::Clustered { clusters: 5 }, 11);
    let tour = scrambled_tour(n);
    for strategy in [
        Strategy::Auto,
        Strategy::Shared,
        Strategy::Tiled { tile: 64 },
        Strategy::GlobalOnly,
        Strategy::Unordered,
        Strategy::DeviceResident,
    ] {
        let mut plain = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
        let (mv_plain, p_plain) = plain.best_move(&inst, &tour).unwrap();

        let recorder = Recorder::enabled();
        let mut traced = GpuTwoOpt::new(spec::gtx_680_cuda())
            .with_strategy(strategy)
            .with_observer(&Observer::none().with_recorder(recorder.clone()));
        let (mv_traced, p_traced) = traced.best_move(&inst, &tour).unwrap();

        assert_eq!(mv_plain, mv_traced, "{strategy:?}");
        assert_eq!(p_plain, p_traced, "{strategy:?}");
        assert_eq!(
            p_plain.modeled_seconds().to_bits(),
            p_traced.modeled_seconds().to_bits(),
            "{strategy:?}"
        );
        assert!(
            recorder
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Kernel { .. })),
            "{strategy:?} recorded no kernel"
        );
    }
}

#[test]
fn tracing_is_invisible_to_a_full_descent() {
    let n = 300;
    let inst = generate("trace-descent", n, Style::Uniform, 4);

    let mut t_plain = scrambled_tour(n);
    let mut plain = GpuTwoOpt::new(spec::gtx_680_cuda());
    let a = optimize(&mut plain, &inst, &mut t_plain, SearchOptions::default()).unwrap();

    let recorder = Recorder::enabled();
    let observer = Observer::none().with_recorder(recorder.clone());
    let mut t_traced = scrambled_tour(n);
    let mut traced = GpuTwoOpt::new(spec::gtx_680_cuda()).with_observer(&observer);
    let b = optimize(
        &mut traced,
        &inst,
        &mut t_traced,
        SearchOptions::new().with_observer(observer),
    )
    .unwrap();

    assert_eq!(t_plain.as_slice(), t_traced.as_slice());
    assert_eq!(a.sweeps, b.sweeps);
    assert_eq!(a.final_length, b.final_length);
    assert_eq!(a.modeled_seconds().to_bits(), b.modeled_seconds().to_bits());
    // One SweepBegin/SweepEnd pair per sweep was recorded.
    let begins = recorder
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::SweepBegin { .. }))
        .count();
    assert_eq!(begins as u64, b.sweeps);
}

#[test]
fn tracing_is_invisible_to_ils() {
    let n = 120;
    let inst = generate("trace-ils", n, Style::Clustered { clusters: 4 }, 9);
    let start = scrambled_tour(n);
    let opts = IlsOptions::new().with_max_iterations(4u64).with_seed(9);

    let mut plain = GpuTwoOpt::new(spec::gtx_680_cuda());
    let a = iterated_local_search(&mut plain, &inst, start.clone(), opts.clone()).unwrap();

    let recorder = Recorder::enabled();
    let observer = Observer::none().with_recorder(recorder.clone());
    let mut traced = GpuTwoOpt::new(spec::gtx_680_cuda()).with_observer(&observer);
    let traced_opts = opts.with_observer(observer);
    let b = iterated_local_search(&mut traced, &inst, start, traced_opts).unwrap();

    assert_eq!(a.best_length, b.best_length);
    assert_eq!(a.best.as_slice(), b.best.as_slice());
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(
        a.profile.modeled_seconds().to_bits(),
        b.profile.modeled_seconds().to_bits()
    );
    assert!(!recorder.events().is_empty());
}

#[test]
fn metrics_gflops_matches_the_analytic_model_bit_for_bit() {
    // One Shared-strategy sweep: the GFLOP/s the metrics snapshot
    // derives from the recorded kernel event must equal both the
    // engine's profile and the closed-form model, bit for bit.
    let n = 512;
    let inst = generate("trace-gflops", n, Style::Uniform, 2);
    let tour = Tour::identity(n);

    let recorder = Recorder::enabled();
    let mut engine = GpuTwoOpt::new(spec::gtx_680_cuda())
        .with_strategy(Strategy::Shared)
        .with_observer(&Observer::none().with_recorder(recorder.clone()));
    let (_, profile) = engine.best_move(&inst, &tour).unwrap();

    let snapshot = MetricsSnapshot::from_events(&recorder.events());
    let stats = snapshot
        .kernel("2opt-eval-shared")
        .expect("shared kernel recorded");
    assert_eq!(stats.calls, 1);

    let from_profile = ModeledSweep {
        pairs: profile.pairs_checked,
        flops: profile.flops,
        kernel_seconds: profile.kernel_seconds,
        reversal_seconds: profile.reversal_seconds,
        h2d_seconds: profile.h2d_seconds,
        d2h_seconds: profile.d2h_seconds,
    };
    assert_eq!(
        stats.gflops().to_bits(),
        from_profile.gflops().to_bits(),
        "snapshot {} vs profile {}",
        stats.gflops(),
        from_profile.gflops()
    );
    // The analytic model is exact for these kernels, so the chain
    // closes: recorded events == functional profile == closed form.
    let modeled = model_auto_sweep(&spec::gtx_680_cuda(), n);
    assert_eq!(stats.gflops().to_bits(), modeled.gflops().to_bits());
}

#[test]
fn thousand_city_ils_trace_covers_every_event_kind_and_exports() {
    let n = 1000;
    let recorder = Recorder::enabled();
    let inst = generate("trace-1000", n, Style::Clustered { clusters: 8 }, 5);
    let start = multiple_fragment(&inst);
    let observer = Observer::none().with_recorder(recorder.clone());
    let mut engine = GpuTwoOpt::new(spec::gtx_680_cuda()).with_observer(&observer);
    let opts = IlsOptions::new()
        .with_max_iterations(2u64)
        .with_seed(5)
        .with_observer(observer);
    iterated_local_search(&mut engine, &inst, start, opts).unwrap();

    let events = recorder.events();
    let has = |f: fn(&TraceEvent) -> bool| events.iter().any(f);
    assert!(has(|e| matches!(e, TraceEvent::Device { .. })));
    assert!(has(|e| matches!(e, TraceEvent::Kernel { .. })));
    assert!(has(|e| matches!(e, TraceEvent::H2d { .. })));
    assert!(has(|e| matches!(e, TraceEvent::D2h { .. })));
    assert!(has(|e| matches!(e, TraceEvent::DescentBegin { .. })));
    assert!(has(|e| matches!(e, TraceEvent::SweepBegin { .. })));
    assert!(has(|e| matches!(e, TraceEvent::SweepEnd { .. })));
    assert!(has(|e| matches!(e, TraceEvent::DescentEnd { .. })));
    assert!(has(|e| matches!(e, TraceEvent::IterationBegin { .. })));
    assert!(has(|e| matches!(e, TraceEvent::Perturbation { .. })));
    assert!(has(|e| matches!(e, TraceEvent::IterationEnd { .. })));

    // The Chrome export of the full run re-parses as JSON with one
    // entry per exported event.
    let text = chrome_trace(&events);
    let parsed = json::parse(&text).expect("valid JSON");
    let n_entries = parsed
        .get("traceEvents")
        .and_then(json::Json::as_array)
        .map(<[json::Json]>::len)
        .unwrap_or(0);
    assert!(n_entries > events.len() / 2, "{n_entries} entries");
}
