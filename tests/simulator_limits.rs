//! Failure-injection tests for the simulated device: the limits that
//! shape the paper's design must actually bite.

use gpu_sim::{spec, Device, SimError};
use tsp_2opt::{GpuTwoOpt, SearchOptions, Strategy, TwoOptEngine};
use tsp_core::Tour;
use tsp_tsplib::{generate, Style};

#[test]
fn shared_memory_limit_forces_the_division_scheme() {
    // 6145 cities do not fit 48 kB as a single range (the paper's
    // 6144-city bound)...
    let n = 6145;
    let inst = generate("limit", n, Style::Uniform, 1);
    let tour = Tour::identity(n);
    let mut forced_shared = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(Strategy::Shared);
    match forced_shared.best_move(&inst, &tour) {
        Err(tsp_2opt::EngineError::Sim(SimError::SharedMemExceeded { requested, limit })) => {
            assert_eq!(requested, n * 8);
            assert_eq!(limit, 48 * 1024);
        }
        other => panic!("expected SharedMemExceeded, got {other:?}"),
    }
    // ...while Auto falls over to the tiled kernel and succeeds.
    let mut auto = GpuTwoOpt::new(spec::gtx_680_cuda());
    let (mv, prof) = auto.best_move(&inst, &tour).unwrap();
    assert!(mv.is_some());
    assert_eq!(prof.pairs_checked, tsp_2opt::indexing::pair_count(n));
}

#[test]
fn device_memory_capacity_is_enforced() {
    let mut s = spec::gtx_680_cuda();
    s.global_mem_bytes = 1024; // a 1 kB "GPU"
    let dev = Device::new(s);
    let err = dev.alloc(vec![0u64; 1024]).unwrap_err();
    assert!(matches!(err, SimError::OutOfMemory { .. }));
    // Accounting is restored after failures and drops.
    assert_eq!(dev.allocated_bytes(), 0);
    let buf = dev.alloc(vec![0u8; 1000]).unwrap();
    assert_eq!(dev.allocated_bytes(), 1000);
    drop(buf);
    assert_eq!(dev.allocated_bytes(), 0);
}

#[test]
fn engine_allocations_are_released_every_sweep() {
    let inst = generate("leak", 500, Style::Uniform, 2);
    let mut tour = Tour::identity(500);
    let mut engine = GpuTwoOpt::new(spec::gtx_680_cuda());
    tsp_2opt::optimize(
        &mut engine,
        &inst,
        &mut tour,
        SearchOptions::new().with_max_sweeps(10u64),
    )
    .unwrap();
    // No buffers may survive between sweeps.
    assert_eq!(engine.device().allocated_bytes(), 0);
}

#[test]
fn tiny_and_degenerate_instances_are_safe() {
    // n = 4 instance with all-identical points: zero deltas everywhere,
    // engine reports a local minimum immediately.
    let inst = tsp_core::Instance::new(
        "degenerate",
        tsp_core::Metric::Euc2d,
        vec![tsp_core::Point::new(5.0, 5.0); 4],
    )
    .unwrap();
    let mut tour = Tour::identity(4);
    let mut engine = GpuTwoOpt::new(spec::gtx_680_cuda());
    let stats =
        tsp_2opt::optimize(&mut engine, &inst, &mut tour, SearchOptions::default()).unwrap();
    assert!(stats.reached_local_minimum);
    assert_eq!(stats.improving_moves, 0);
    assert_eq!(stats.final_length, 0);
}

#[test]
fn zero_and_oversized_launches_are_rejected() {
    use gpu_sim::{BlockCtx, Kernel, LaunchConfig};
    struct Nop;
    impl Kernel for Nop {
        fn shared_bytes(&self) -> usize {
            0
        }
        fn num_phases(&self) -> usize {
            1
        }
        fn run_block(&self, _: &mut BlockCtx<'_>) {}
    }
    let dev = Device::new(spec::gtx_680_cuda());
    assert!(matches!(
        dev.launch(LaunchConfig::new(0, 1), &Nop),
        Err(SimError::InvalidLaunch(_))
    ));
    assert!(matches!(
        dev.launch(LaunchConfig::new(1, 0), &Nop),
        Err(SimError::InvalidLaunch(_))
    ));
    assert!(matches!(
        dev.launch(LaunchConfig::new(1, 100_000), &Nop),
        Err(SimError::InvalidLaunch(_))
    ));
    assert!(dev.launch(LaunchConfig::new(1, 32), &Nop).is_ok());
}

#[test]
fn modeled_times_are_deterministic_across_runs() {
    let inst = generate("det-sim", 800, Style::Uniform, 6);
    let tour = Tour::identity(800);
    let mut a = GpuTwoOpt::new(spec::gtx_680_cuda());
    let mut b = GpuTwoOpt::new(spec::gtx_680_cuda());
    let (mv_a, pa) = a.best_move(&inst, &tour).unwrap();
    let (mv_b, pb) = b.best_move(&inst, &tour).unwrap();
    assert_eq!(mv_a, mv_b);
    assert_eq!(pa, pb, "profiles must be bit-identical");
}
