//! Cross-crate tests for the §VII future-work extensions: 2.5-opt,
//! 3-opt, Or-opt (CPU and GPU kernels), VND, don't-look bits, pruning,
//! and the multi-device engine — all driven through generated instances
//! and verified against the exhaustive checker.

use gpu_sim::spec;
use tsp_2opt::gpu::oropt_kernel::GpuOrOpt;
use tsp_2opt::verify::is_two_opt_minimum;
use tsp_2opt::{dlb, oropt, threeopt, twohopt, vnd, MultiGpuTwoOpt};
use tsp_construction::multiple_fragment;
use tsp_core::Tour;
use tsp_tsplib::{generate, Style};

#[test]
fn extension_ladder_improves_quality_monotonically_in_aggregate() {
    // 2-opt minimum >= 2.5-opt minimum >= VND(2-opt+Or-opt) in total
    // length across seeds (each richer neighbourhood can only help).
    let (mut sum2, mut sum25, mut sumv) = (0i64, 0i64, 0i64);
    for seed in 0..4 {
        let inst = generate("ladder", 90, Style::Uniform, seed);
        let start = multiple_fragment(&inst);

        let mut t2 = start.clone();
        let mut seq = tsp_2opt::SequentialTwoOpt::new();
        tsp_2opt::optimize(&mut seq, &inst, &mut t2, Default::default()).unwrap();
        sum2 += t2.length(&inst);

        let mut t25 = start.clone();
        twohopt::optimize(&inst, &mut t25);
        sum25 += t25.length(&inst);

        let mut tv = start;
        vnd::optimize_vnd_cpu(&inst, &mut tv);
        sumv += tv.length(&inst);
    }
    assert!(sum25 <= sum2, "2.5-opt {sum25} vs 2-opt {sum2}");
    assert!(sumv <= sum2, "VND {sumv} vs 2-opt {sum2}");
}

#[test]
fn three_opt_polishes_a_vnd_minimum_or_confirms_it() {
    let inst = generate("polish", 60, Style::Clustered { clusters: 4 }, 2);
    let mut tour = multiple_fragment(&inst);
    vnd::optimize_vnd_cpu(&inst, &mut tour);
    let at_vnd = tour.length(&inst);
    threeopt::optimize(&inst, &mut tour);
    assert!(tour.length(&inst) <= at_vnd);
    tour.validate().unwrap();
    assert!(is_two_opt_minimum(&inst, &tour));
}

#[test]
fn gpu_oropt_and_cpu_oropt_descend_identically() {
    let inst = generate("oropt-xcheck", 50, Style::Uniform, 3);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(4);
    let start = Tour::random(50, &mut rng);

    let mut cpu_tour = start.clone();
    while let (Some(m), _) = oropt::best_move(&inst, &cpu_tour, 3) {
        oropt::apply(&mut cpu_tour, &m);
    }

    let mut gpu_tour = start;
    let mut gpu = GpuOrOpt::new(spec::gtx_680_cuda());
    while let (Some(m), _) = gpu.best_move(&inst, &gpu_tour).unwrap() {
        oropt::apply(&mut gpu_tour, &m);
    }
    assert_eq!(cpu_tour.as_slice(), gpu_tour.as_slice());
}

#[test]
fn dlb_and_multi_gpu_work_on_catalog_instances() {
    let entry = tsp_tsplib::catalog::by_name("ch130").unwrap();
    let inst = entry.instance();
    let mut tour = multiple_fragment(&inst);
    let before = tour.length(&inst);
    let stats = dlb::optimize(&inst, &mut tour, 129); // complete lists
    assert!(tour.length(&inst) <= before);
    assert!(stats.checks > 0);

    // Multi-device agrees with the verifier: no improving pair remains
    // once the fleet reports a local minimum.
    let mut fleet = MultiGpuTwoOpt::homogeneous(spec::gtx_680_cuda(), 3);
    let mut t2 = multiple_fragment(&inst);
    tsp_2opt::optimize(&mut fleet, &inst, &mut t2, Default::default()).unwrap();
    assert!(is_two_opt_minimum(&inst, &t2));
}

#[test]
fn tour_file_round_trips_a_solved_tour() {
    let inst = generate("tourfile", 40, Style::Uniform, 5);
    let mut tour = multiple_fragment(&inst);
    let mut eng = tsp_2opt::GpuTwoOpt::new(spec::gtx_680_cuda());
    tsp_2opt::optimize(&mut eng, &inst, &mut tour, Default::default()).unwrap();
    let text = tsp_tsplib::write_tour(inst.name(), &tour);
    let back = tsp_tsplib::parse_tour(&text).unwrap();
    assert_eq!(back.as_slice(), tour.as_slice());
    assert_eq!(back.length(&inst), tour.length(&inst));
}

#[test]
fn timeline_observes_a_whole_vnd_run() {
    let inst = generate("timeline", 80, Style::Uniform, 6);
    let recorder = tsp_trace::Recorder::enabled();
    let observer = tsp_2opt::Observer::none().with_recorder(recorder.clone());
    let mut two = tsp_2opt::GpuTwoOpt::new(spec::gtx_680_cuda()).with_observer(&observer);
    let mut or = GpuOrOpt::new(spec::gtx_680_cuda());
    let mut tour = multiple_fragment(&inst);
    let stats = vnd::optimize_vnd(&mut two, &mut or, &inst, &mut tour).unwrap();
    // Every 2-opt sweep produced one kernel + two transfers.
    let snapshot = tsp_trace::MetricsSnapshot::from_events(&recorder.events());
    let kernels: u64 = snapshot.kernels.iter().map(|k| k.calls).sum();
    assert!(kernels >= stats.two_opt_moves);
    assert_eq!(snapshot.h2d.calls, kernels);
    assert_eq!(snapshot.d2h.calls, kernels);
    assert!(snapshot.kernel_seconds() > 0.0);
    assert!(snapshot.transfer_share() > 0.0);
}
