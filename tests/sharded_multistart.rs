//! Cross-crate differential suite for the sharded multistart driver:
//! sharding ILS chains over a device pool (any devices × streams shape)
//! must be *bit-identical* to the host-threaded `parallel_multistart`
//! under equal per-chain seeds, for every kernel strategy — and the
//! stream scheduler must actually buy modeled wall time on a
//! transfer-bound instance.

use gpu_sim::{spec, DevicePool};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tsp_2opt::{GpuTwoOpt, Observer, Strategy};
use tsp_core::Tour;
use tsp_ils::{parallel_multistart, IlsOptions, ShardedMultistart};
use tsp_telemetry::{Journal, JournalEvent};
use tsp_tsplib::{generate, Style};

fn random_starts(n: usize, count: usize, seed: u64) -> Vec<Tour> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count).map(|_| Tour::random(n, &mut rng)).collect()
}

#[test]
fn sharded_is_bit_identical_to_host_threads_for_every_strategy() {
    let n = 128;
    let inst = generate("shard-diff", n, Style::Clustered { clusters: 6 }, 2);
    let starts = random_starts(n, 6, 0x5eed);
    let opts = IlsOptions::new().with_max_iterations(4u64).with_seed(0x77);
    let tile = (n / 8).clamp(3, 3071);

    for strategy in [
        Strategy::Auto,
        Strategy::Shared,
        Strategy::Tiled { tile },
        Strategy::GlobalOnly,
        Strategy::Unordered,
        Strategy::DeviceResident,
    ] {
        let (host_best, host_all) = parallel_multistart(
            || GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy),
            &inst,
            starts.clone(),
            opts.clone(),
        )
        .unwrap();

        // 2 devices × 3 streams: chains wrap around the 6 lanes.
        let pool = DevicePool::homogeneous(spec::gtx_680_cuda(), 2, 3);
        let sharded = ShardedMultistart::new(pool)
            .run(
                |device, stream| {
                    GpuTwoOpt::on_stream(device.clone(), stream).with_strategy(strategy)
                },
                &inst,
                starts.clone(),
                opts.clone(),
            )
            .unwrap();

        assert_eq!(sharded.chains.len(), host_all.len(), "{strategy:?}");
        for (i, (h, s)) in host_all.iter().zip(&sharded.chains).enumerate() {
            assert_eq!(h.best_length, s.best_length, "{strategy:?} chain {i}");
            assert_eq!(
                h.best.as_slice(),
                s.best.as_slice(),
                "{strategy:?} chain {i}"
            );
            assert_eq!(h.iterations, s.iterations, "{strategy:?} chain {i}");
            assert_eq!(h.accepted, s.accepted, "{strategy:?} chain {i}");
            assert_eq!(
                h.profile, s.profile,
                "{strategy:?} chain {i}: modeled sweep costs"
            );
        }
        assert_eq!(
            sharded.best.best_length, host_best.best_length,
            "{strategy:?}"
        );
        assert_eq!(
            sharded.best.best.as_slice(),
            host_best.best.as_slice(),
            "{strategy:?}: reduction must break ties like parallel_multistart"
        );
    }
}

#[test]
fn pool_shape_never_changes_the_reduced_best() {
    // The same chains reduced over 1x1, 1x4, 3x2 and 4x1 pools must
    // produce the same winner — scheduling is timing-only.
    let n = 96;
    let inst = generate("shard-shapes", n, Style::Uniform, 5);
    let starts = random_starts(n, 8, 0xbeef);
    let opts = IlsOptions::new().with_max_iterations(3u64).with_seed(1);

    let mut winners = Vec::new();
    for (devices, streams) in [(1, 1), (1, 4), (3, 2), (4, 1)] {
        let pool = DevicePool::homogeneous(spec::gtx_680_cuda(), devices, streams);
        let out = ShardedMultistart::new(pool)
            .run(
                |device, stream| GpuTwoOpt::on_stream(device.clone(), stream),
                &inst,
                starts.clone(),
                opts.clone(),
            )
            .unwrap();
        assert_eq!(out.reports.len(), devices);
        winners.push((out.best.best_length, out.best.best.as_slice().to_vec()));
    }
    for w in &winners[1..] {
        assert_eq!(w, &winners[0]);
    }
}

#[test]
fn second_stream_strictly_reduces_modeled_wall_time_when_transfer_bound() {
    // n = 96 on the GTX 680 is transfer-bound (PCIe latency dominates
    // the tiny kernel), so overlapping one chain's copies with
    // another's kernels must strictly shrink the device makespan.
    let n = 96;
    let inst = generate("shard-streams", n, Style::Uniform, 9);
    let starts = random_starts(n, 8, 0xfeed);
    let opts = IlsOptions::new().with_max_iterations(2u64).with_seed(4);

    let run = |streams: usize| {
        let pool = DevicePool::homogeneous(spec::gtx_680_cuda(), 1, streams);
        ShardedMultistart::new(pool)
            .run(
                |device, stream| GpuTwoOpt::on_stream(device.clone(), stream),
                &inst,
                starts.clone(),
                opts.clone(),
            )
            .unwrap()
    };
    let serial = run(1);
    let dual = run(2);

    assert_eq!(serial.overlap(), 0.0, "one stream cannot overlap");
    assert!(dual.overlap() > 0.0, "two streams must overlap");
    assert!(
        dual.modeled_makespan_seconds() < serial.modeled_makespan_seconds(),
        "2 streams ({}) must beat 1 stream ({})",
        dual.modeled_makespan_seconds(),
        serial.modeled_makespan_seconds()
    );
    // Identical chains => identical total submitted work.
    let rel = (dual.busy_seconds() - serial.busy_seconds()).abs() / serial.busy_seconds();
    assert!(rel < 1e-9, "busy time must not change with streams");
}

#[test]
fn journal_chain_ids_stay_dense_with_more_chains_than_lanes() {
    // 10 chains over a 2×2 pool: every lane hosts several chains in
    // turn, and `Journal::for_chain` must stamp each chain's records
    // with its own id — dense (0..chains, no gaps) and collision-free
    // (no record from chain a carrying chain b's id), regardless of
    // which lane the chain landed on.
    let n = 64;
    let chains = 10usize;
    let iterations = 3u64;
    let inst = generate("shard-journal", n, Style::Uniform, 21);
    let starts = random_starts(n, chains, 0xcafe);
    let journal = Journal::attached();
    let opts = IlsOptions::new()
        .with_max_iterations(iterations)
        .with_seed(0x91)
        .with_observer(Observer::none().with_journal(journal.clone()));

    let pool = DevicePool::homogeneous(spec::gtx_680_cuda(), 2, 2);
    let out = ShardedMultistart::new(pool)
        .run(
            |device, stream| GpuTwoOpt::on_stream(device.clone(), stream),
            &inst,
            starts,
            opts,
        )
        .unwrap();
    assert_eq!(out.chains.len(), chains);

    let records = journal.records();
    let mut seen: Vec<u64> = records.iter().map(|r| r.chain).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen,
        (0..chains as u64).collect::<Vec<u64>>(),
        "chain ids must be exactly 0..{chains}, dense and collision-free"
    );

    for chain in 0..chains as u64 {
        let chain_records: Vec<_> = records.iter().filter(|r| r.chain == chain).collect();
        let count = |event: JournalEvent| chain_records.iter().filter(|r| r.event == event).count();
        assert_eq!(count(JournalEvent::Initial), 1, "chain {chain}");
        assert_eq!(count(JournalEvent::Final), 1, "chain {chain}");
        let verdicts = chain_records
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    JournalEvent::Improved | JournalEvent::Accepted | JournalEvent::Rejected
                )
            })
            .count();
        assert_eq!(
            verdicts as u64, iterations,
            "chain {chain}: one verdict per iteration"
        );
        // A chain's records appear in its own iteration order even
        // though lanes interleave appends into the shared buffer.
        let iters: Vec<u64> = chain_records.iter().map(|r| r.iteration).collect();
        let mut sorted = iters.clone();
        sorted.sort_unstable();
        assert_eq!(iters, sorted, "chain {chain}: iterations in order");
    }
}
