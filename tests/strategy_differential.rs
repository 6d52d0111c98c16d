//! Differential suite across every kernel strategy.
//!
//! All dense pipelines — the serial re-upload ones (`Auto`, `Shared`,
//! `Tiled`, `GlobalOnly`, `Unordered`) and the device-resident one —
//! implement the *same* best-improvement 2-opt semantics, so on any
//! instance they must return the identical packed best move. The
//! candidate family answers the best move *within its k-nearest
//! neighbourhood*: with complete lists (k = n - 1) that is the dense
//! move bit-for-bit, and with truncated lists it must match the
//! host-side mirror [`CandidateLists::best_candidate_move`]. This suite
//! pins both contracts across spatial structure (uniform and clustered
//! fields) and across the size ladder the kernels specialize over: tiny
//! (n = 8), the paper's berlin52, a mid shared-memory size (512), the
//! largest size that still fits every shared variant (3073), and one
//! past both the `Shared` (6144 points) and `Unordered` (4096 points)
//! capacities (7000), where the capacity-limited strategies must error
//! instead of answering wrongly.
//!
//! The strategy lists all derive from [`tsp::all_strategies`], so a
//! freshly added strategy cannot be silently skipped here.

use gpu_sim::{spec, SimError};
use tsp::all_strategies;
use tsp_2opt::{
    optimize, BestMove, CandidateLists, EngineError, GpuTwoOpt, SearchOptions, SequentialTwoOpt,
    Strategy, TwoOptEngine,
};
use tsp_core::{Instance, Tour};
use tsp_tsplib::{generate, Style};

/// Tour used for every differential check: deterministic and decidedly
/// non-optimal, so an improving move exists at every size.
fn scrambled_tour(n: usize) -> Tour {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(0x5eed ^ n as u64);
    Tour::random(n, &mut rng)
}

/// A tile size valid at every n (capacity 3071) that still produces a
/// multi-tile decomposition for all but the smallest instances.
fn tile_for(n: usize) -> usize {
    (n / 8).clamp(3, 3071)
}

fn reference_move(inst: &Instance, tour: &Tour) -> Option<BestMove> {
    let mut seq = SequentialTwoOpt::new();
    let (mv, _) = seq.best_move(inst, tour).unwrap();
    mv
}

fn strategy_move(inst: &Instance, tour: &Tour, strategy: Strategy) -> Option<BestMove> {
    let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
    let (mv, _) = gpu.best_move(inst, tour).unwrap();
    mv
}

fn instances_of(n: usize) -> Vec<Instance> {
    vec![
        generate("diff-uniform", n, Style::Uniform, 7),
        generate("diff-clustered", n, Style::Clustered { clusters: 5 }, 7),
    ]
}

/// Run every strategy at instance size `n` with candidate lists of `k`
/// neighbours. The dense strategies must reproduce the sequential best
/// move exactly; the candidate family must reproduce it too when its
/// lists are complete (`k = n - 1`), and otherwise must match the
/// host-side candidate-neighbourhood mirror.
fn assert_all_strategies_agree(n: usize, k: usize) {
    for inst in instances_of(n) {
        let tour = scrambled_tour(n);
        let dense = reference_move(&inst, &tour);
        let sparse = if k + 1 < n {
            CandidateLists::build(&inst, k).best_candidate_move(&inst, &tour)
        } else {
            dense
        };
        for strategy in all_strategies(tile_for(n), k) {
            let expected = match strategy {
                Strategy::Candidate { .. } | Strategy::CandidateResident { .. } => sparse,
                _ => dense,
            };
            let got = strategy_move(&inst, &tour, strategy);
            assert_eq!(got, expected, "{} n={n} {strategy:?}", inst.name());
        }
    }
}

#[test]
fn all_strategies_agree_tiny() {
    assert_all_strategies_agree(8, 7);
}

#[test]
fn all_strategies_agree_berlin52_sized() {
    assert_all_strategies_agree(52, 51);
}

#[test]
fn all_strategies_agree_mid_shared() {
    assert_all_strategies_agree(512, 511);
}

#[test]
fn all_strategies_agree_at_shared_variant_capacity() {
    // 3073 * 8 B = 24.6 kB (ordered) and 3073 * 12 B = 36.9 kB
    // (unordered) both fit the 48 kB limit; past the 3071-position tile
    // capacity, so the tiled path genuinely decomposes. Complete
    // candidate lists cost O(n² log n) host work at this size, so the
    // candidate family runs at a realistic k = 16 and is checked against
    // its host mirror instead of the dense move.
    assert_all_strategies_agree(3073, 16);
}

#[test]
fn capable_strategies_agree_past_shared_capacity() {
    let n = 7000;
    let k = 16;
    for inst in instances_of(n) {
        let tour = scrambled_tour(n);
        let dense = reference_move(&inst, &tour);
        let sparse = CandidateLists::build(&inst, k).best_candidate_move(&inst, &tour);
        assert!(sparse.is_some(), "a scrambled tour must have k-NN moves");
        for strategy in all_strategies(tile_for(n), k) {
            // The capacity-limited variants refuse at this size; the
            // companion test below pins the exact error they raise.
            if matches!(strategy, Strategy::Shared | Strategy::Unordered) {
                continue;
            }
            let expected = match strategy {
                Strategy::Candidate { .. } | Strategy::CandidateResident { .. } => sparse,
                _ => dense,
            };
            let got = strategy_move(&inst, &tour, strategy);
            assert_eq!(got, expected, "{} n={n} {strategy:?}", inst.name());
        }
    }
}

#[test]
fn capacity_limited_strategies_error_past_shared_capacity() {
    // 7000 points: 56 kB ordered (> 48 kB) and 84 kB unordered — both
    // forced variants must refuse, not truncate.
    let n = 7000;
    let inst = generate("diff-uniform", n, Style::Uniform, 7);
    let tour = scrambled_tour(n);
    for strategy in [Strategy::Shared, Strategy::Unordered] {
        let mut gpu = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
        assert!(
            matches!(
                gpu.best_move(&inst, &tour),
                Err(EngineError::Sim(SimError::SharedMemExceeded { .. }))
            ),
            "{strategy:?} must exceed shared memory at n={n}"
        );
    }
}

#[test]
fn device_resident_descent_tracks_serial_descent() {
    // Beyond single sweeps: a capped descent (reversal kernel active
    // from sweep 2 on) stays move-for-move identical to the serial
    // Algorithm-2 pipeline.
    let n = 512;
    let inst = generate("diff-descent", n, Style::Clustered { clusters: 5 }, 3);
    let opts = SearchOptions::new().with_max_sweeps(10u64);

    let mut t_serial = scrambled_tour(n);
    let mut serial = GpuTwoOpt::new(spec::gtx_680_cuda());
    let a = optimize(&mut serial, &inst, &mut t_serial, opts.clone()).unwrap();

    let mut t_resident = scrambled_tour(n);
    let mut resident = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(Strategy::DeviceResident);
    let b = optimize(&mut resident, &inst, &mut t_resident, opts).unwrap();

    assert_eq!(t_serial.as_slice(), t_resident.as_slice());
    assert_eq!(a.final_length, b.final_length);
    assert_eq!(a.sweeps, b.sweeps);
    // The resident pipeline paid one upload and n-1 reversals; the
    // serial one paid n uploads and no reversals.
    assert!(b.profile.reversal_seconds > 0.0);
    assert_eq!(a.profile.reversal_seconds, 0.0);
    assert!(b.profile.h2d_seconds < a.profile.h2d_seconds);
}
