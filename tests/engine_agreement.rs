//! Property tests: every engine returns the same best move as the
//! sequential reference, on arbitrary instances and tours.

use gpu_sim::spec;
use proptest::prelude::*;
use tsp_2opt::{
    CpuParallelTwoOpt, GpuTwoOpt, SequentialTwoOpt, Strategy as GpuStrategy, TwoOptEngine,
};
use tsp_core::{Instance, Metric, Point, Tour};

/// An arbitrary instance: n in [4, 60], coordinates on a grid (integral
/// f32 so distance rounding is stable).
fn arb_instance() -> impl Strategy<Value = Instance> {
    (4usize..60)
        .prop_flat_map(|n| proptest::collection::vec((0i32..2000, 0i32..2000), n))
        .prop_map(|coords| {
            let pts: Vec<Point> = coords
                .into_iter()
                .map(|(x, y)| Point::new(x as f32, y as f32))
                .collect();
            Instance::new("prop", Metric::Euc2d, pts).unwrap()
        })
}

fn arb_tour(n: usize) -> impl Strategy<Value = Tour> {
    Just(()).prop_perturb(move |_, mut rng| {
        use rand::Rng;
        let mut order: Vec<u32> = (0..n as u32).collect();
        // Fisher-Yates with proptest's rng for shrinking stability.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        Tour::new(order).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_engines_agree_on_the_best_move(
        inst in arb_instance(),
        seed in any::<u64>(),
    ) {
        let n = inst.len();
        let tour = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            Tour::random(n, &mut rng)
        };
        let mut seq = SequentialTwoOpt::new();
        let (expected, seq_prof) = seq.best_move(&inst, &tour).unwrap();

        let mut cpu = CpuParallelTwoOpt::new().with_chunks(5);
        let (got_cpu, cpu_prof) = cpu.best_move(&inst, &tour).unwrap();
        prop_assert_eq!(got_cpu, expected);
        prop_assert_eq!(cpu_prof.pairs_checked, seq_prof.pairs_checked);

        for strategy in [
            GpuStrategy::Shared,
            GpuStrategy::Tiled { tile: 7 },
            GpuStrategy::GlobalOnly,
            GpuStrategy::Unordered,
        ] {
            let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
            let (got, _) = gpu.best_move(&inst, &tour).unwrap();
            prop_assert_eq!(got, expected, "strategy {:?}", strategy);
        }
    }

    #[test]
    fn applying_the_best_move_never_lengthens(
        inst in arb_instance(),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut tour = Tour::random(inst.len(), &mut rng);
        let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda());
        for _ in 0..5 {
            let before = tour.length(&inst);
            let (mv, _) = gpu.best_move(&inst, &tour).unwrap();
            match mv {
                None => break,
                Some(m) => {
                    tour.apply_two_opt(m.i as usize, m.j as usize);
                    let after = tour.length(&inst);
                    prop_assert_eq!(after - before, m.delta as i64);
                    prop_assert!(after < before);
                    tour.validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn tours_stay_permutations_under_random_move_sequences(
        n in 8usize..50,
        moves in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..30),
    ) {
        let mut tour = Tour::identity(n);
        for (a, b, kind) in moves {
            let i = a as usize % (n - 2);
            let j = i + 1 + (b as usize % (n - 1 - i));
            match kind % 3 {
                0 => tour.apply_two_opt(i, j.min(n - 1)),
                1 => tour.reverse_segment(i, j.min(n - 1)),
                _ => {
                    use rand::SeedableRng;
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(u64::from(a) << 16 | u64::from(b));
                    tour.double_bridge(&mut rng);
                }
            }
            tour.validate().unwrap();
        }
    }
}

#[test]
fn arb_tour_strategy_compiles_and_runs() {
    // Keep the helper exercised even though the main properties build
    // tours from seeds.
    use proptest::strategy::{Strategy as _, ValueTree};
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::default();
    let t = arb_tour(12).new_tree(&mut runner).unwrap().current();
    t.validate().unwrap();
    assert_eq!(t.len(), 12);
}

#[test]
fn parallel_cpu_breaks_ties_like_the_gpu_and_the_reference() {
    // Cities on a 6 × 6 integer lattice (duplicates allowed): many moves
    // share the best delta, so any chunk split must still return the
    // lowest (i, j) among them.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2024);
    for case in 0..300 {
        let n = rng.gen_range(6..=60);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0..6) as f32, rng.gen_range(0..6) as f32))
            .collect();
        let inst = Instance::new("lattice", Metric::Euc2d, pts).unwrap();
        let tour = Tour::random(n, &mut rng);
        let (expected, _) = SequentialTwoOpt::new().best_move(&inst, &tour).unwrap();
        let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda());
        assert_eq!(
            gpu.best_move(&inst, &tour).unwrap().0,
            expected,
            "case {case}"
        );
        for chunks in [1, 3, 16] {
            let mut cpu = CpuParallelTwoOpt::new().with_chunks(chunks);
            let (got, _) = cpu.best_move(&inst, &tour).unwrap();
            assert_eq!(got, expected, "case {case}, {chunks} chunks");
        }
    }
}
