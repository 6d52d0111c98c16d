//! Roofline classification pinned against hand-computed arithmetic-
//! intensity thresholds for two real device specs (the paper's GTX 680
//! and the Radeon 7970), using synthetic kernels placed deliberately
//! on each side of each device's ridge point.
//!
//! Ridge point = sustained GFLOP/s ÷ global GB/s (FLOPs per byte). A
//! kernel with AI below the ridge is bandwidth-bound with attainable
//! rate `AI × bandwidth`; above it, compute-bound at the sustained
//! rate. Running the *same* two kernels against both specs shows the
//! classification move with the hardware, not the workload.

use gpu_sim::spec::{self, DeviceSpec};
use tsp_trace::{Bound, KernelCounters, RooflineReport, TraceEvent};

fn kernel(label: &str, flops: u64, global_bytes: u64) -> TraceEvent {
    TraceEvent::Kernel {
        label: label.into(),
        seconds: 1e-3,
        grid_dim: 28,
        block_dim: 1024,
        counters: KernelCounters {
            flops,
            global_read_bytes: global_bytes,
            ..Default::default()
        },
    }
}

/// Run the two probe kernels against `spec` and return the report.
fn probe(spec: &DeviceSpec) -> RooflineReport {
    let events = vec![
        TraceEvent::Device(spec.trace_info()),
        // AI = 2 FLOPs/byte: below both devices' ridge points.
        kernel("streaming", 2_000_000, 1_000_000),
        // AI = 1000 FLOPs/byte: far above both ridge points.
        kernel("on-chip", 1_000_000_000, 1_000_000),
    ];
    RooflineReport::from_events(&events).expect("device event present")
}

#[test]
fn gtx_680_ridge_and_classification_match_hand_computation() {
    let spec = spec::gtx_680_cuda();
    let report = probe(&spec);

    // Hand-computed ridge: sustained / 192 GB/s.
    let ridge = spec.sustained_gflops() / spec.global_bandwidth_gbs;
    assert!((report.ridge_intensity - ridge).abs() < 1e-12);
    assert!(
        ridge > 2.0 && ridge < 1000.0,
        "probe kernels must straddle the ridge ({ridge})"
    );

    let streaming = report.kernel("streaming").unwrap();
    assert_eq!(streaming.bound, Bound::Bandwidth);
    // Attainable = AI × bandwidth = 2 × 192 = 384 GFLOP/s.
    assert!((streaming.attainable_gflops - 2.0 * spec.global_bandwidth_gbs).abs() < 1e-9);

    let on_chip = report.kernel("on-chip").unwrap();
    assert_eq!(on_chip.bound, Bound::Compute);
    assert!((on_chip.attainable_gflops - spec.sustained_gflops()).abs() < 1e-9);
    // Achieved: 1e9 FLOPs in 1 ms = 1000 GFLOP/s, above the GTX 680's
    // sustained roof — efficiency > 1 flags a mis-modeled kernel.
    assert!((on_chip.achieved_gflops - 1000.0).abs() < 1e-9);
    assert!(on_chip.efficiency() > 1.0);
}

#[test]
fn radeon_7970_moves_the_ridge_but_not_the_verdicts() {
    let gtx = probe(&spec::gtx_680_cuda());
    let radeon_spec = spec::radeon_7970();
    let radeon = probe(&radeon_spec);

    // Different hardware, different ridge…
    let ridge = radeon_spec.sustained_gflops() / radeon_spec.global_bandwidth_gbs;
    assert!((radeon.ridge_intensity - ridge).abs() < 1e-12);
    assert!((radeon.ridge_intensity - gtx.ridge_intensity).abs() > 1e-6);

    // …and a different bandwidth roof over the same streaming kernel
    // (2 FLOPs/byte × 264 GB/s vs × 192 GB/s).
    let streaming = radeon.kernel("streaming").unwrap();
    assert_eq!(streaming.bound, Bound::Bandwidth);
    assert!((streaming.attainable_gflops - 2.0 * radeon_spec.global_bandwidth_gbs).abs() < 1e-9);
    assert!(
        streaming.attainable_gflops > gtx.kernel("streaming").unwrap().attainable_gflops,
        "the 7970's wider bus must raise the bandwidth roof"
    );

    // The verdicts themselves are stable: 2 FLOPs/byte is below and
    // 1000 FLOPs/byte above the ridge on both devices.
    let on_chip = radeon.kernel("on-chip").unwrap();
    assert_eq!(on_chip.bound, Bound::Compute);
    assert!((on_chip.attainable_gflops - radeon_spec.sustained_gflops()).abs() < 1e-9);
}

#[test]
fn real_shared_kernel_sits_compute_bound_on_the_gtx_680() {
    // The paper's locality argument, quantified: one real shared-memory
    // sweep on the GTX 680 must classify as compute-bound (that is the
    // point of Optimizations 1 & 2).
    use tsp_2opt::{GpuTwoOpt, Strategy, TwoOptEngine};
    use tsp_core::Tour;
    use tsp_trace::Recorder;

    let inst = tsp_tsplib::generate("roofline", 512, tsp_tsplib::Style::Uniform, 3);
    let recorder = Recorder::enabled();
    let mut engine = GpuTwoOpt::new(spec::gtx_680_cuda())
        .with_strategy(Strategy::Shared)
        .with_observer(&tsp_2opt::Observer::none().with_recorder(recorder.clone()));
    engine.best_move(&inst, &Tour::identity(512)).unwrap();

    let report = RooflineReport::from_events(&recorder.events()).unwrap();
    let shared = report.kernel("2opt-eval-shared").expect("kernel recorded");
    assert_eq!(shared.bound, Bound::Compute);
    assert!(
        shared.arithmetic_intensity > report.ridge_intensity,
        "shared kernel AI {} must clear the ridge {}",
        shared.arithmetic_intensity,
        report.ridge_intensity
    );
}
