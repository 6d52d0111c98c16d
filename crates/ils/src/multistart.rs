//! Parallel multi-start ILS.
//!
//! The paper's related work (§III) discusses multi-start hill climbing
//! (O'Neil et al.) and argues iterative refinement is stronger; this
//! module lets the library *test* that claim: run many independent ILS
//! chains from different starts on host threads, and keep the best.

use crate::{iterated_local_search, IlsOptions, IlsOutcome};
use gpu_sim::{Device, DevicePool, StreamId, StreamReport};
use std::sync::Arc;
use tsp_2opt::{EngineError, TwoOptEngine};
use tsp_core::{Instance, Tour};

/// Run chain `chain` of a multistart: ILS seeded `opts.seed + chain`,
/// its journal and flight entries stamped with the chain id, inside a
/// `"chain"` span. The profiler's span stack is thread-local, so each
/// chain's `"chain"` → `"ils"` subtree stays well-nested on its own
/// worker thread.
fn run_chain<E: TwoOptEngine>(
    engine: &mut E,
    inst: &Instance,
    start: Tour,
    opts: &IlsOptions,
    chain: usize,
) -> Result<IlsOutcome, EngineError> {
    let chain_opts = IlsOptions {
        seed: opts.seed.wrapping_add(chain as u64),
        observer: opts.observer.for_chain(chain as u64),
        ..opts.clone()
    };
    let _chain = chain_opts.observer.prof.span("chain");
    iterated_local_search(engine, inst, start, chain_opts)
}

/// Run one ILS chain per starting tour, in parallel on host threads
/// (each chain gets its own engine from `factory` and a distinct RNG
/// seed `opts.seed + chain index`). Returns the best outcome and the
/// per-chain results.
pub fn parallel_multistart<E, F>(
    factory: F,
    inst: &Instance,
    starts: Vec<Tour>,
    opts: IlsOptions,
) -> Result<(IlsOutcome, Vec<IlsOutcome>), EngineError>
where
    E: TwoOptEngine + Send,
    F: Fn() -> E + Sync,
{
    assert!(!starts.is_empty(), "at least one start is required");
    let opts = &opts;
    let results: Vec<Result<IlsOutcome, EngineError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = starts
            .into_iter()
            .enumerate()
            .map(|(i, start)| {
                let factory = &factory;
                scope.spawn(move || run_chain(&mut factory(), inst, start, opts, i))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chain panicked"))
            .collect()
    });

    let mut outcomes = Vec::with_capacity(results.len());
    for r in results {
        outcomes.push(r?);
    }
    let best_idx = outcomes
        .iter()
        .enumerate()
        .min_by_key(|(_, o)| o.best_length)
        .map(|(i, _)| i)
        .expect("nonempty");
    Ok((outcomes[best_idx].clone(), outcomes))
}

/// Result of a [`ShardedMultistart`] run.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The best chain's outcome (ties broken by lowest chain index,
    /// exactly like [`parallel_multistart`]).
    pub best: IlsOutcome,
    /// Every chain's outcome, in start order.
    pub chains: Vec<IlsOutcome>,
    /// One modeled-schedule report per device, in pool order.
    pub reports: Vec<StreamReport>,
}

impl ShardedOutcome {
    /// Modeled makespan of the run: the slowest device's modeled wall
    /// time (devices run concurrently).
    pub fn modeled_makespan_seconds(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.wall_seconds)
            .fold(0.0, f64::max)
    }

    /// Total modeled busy time summed over every device's engines.
    pub fn busy_seconds(&self) -> f64 {
        self.reports.iter().map(|r| r.busy_seconds).sum()
    }

    /// Modeled chain throughput, chains per second of modeled makespan.
    pub fn throughput(&self) -> f64 {
        self.chains.len() as f64 / self.modeled_makespan_seconds()
    }

    /// Fraction of per-device busy time hidden by overlap, averaged
    /// over devices weighted by busy time. Zero on a one-stream pool
    /// with a single copy engine; positive once streams overlap
    /// transfers with compute.
    pub fn overlap(&self) -> f64 {
        let busy = self.busy_seconds();
        if busy == 0.0 {
            return 0.0;
        }
        self.reports
            .iter()
            .map(|r| r.overlap() * r.busy_seconds)
            .sum::<f64>()
            / busy
    }
}

/// Multi-start ILS sharded across the devices and streams of a
/// [`DevicePool`].
///
/// Each starting tour becomes one independent ILS chain, pinned to a
/// pool lane (device × stream) by `chain index % lanes` and executed on
/// a work-stealing host thread. Chain `i` runs with RNG seed
/// `opts.seed + i` — the same contract as [`parallel_multistart`] — so
/// for any pool shape the per-chain outcomes and the reduced best tour
/// are **bit-identical** to the host-threaded version; only the modeled
/// schedule (and thus [`ShardedOutcome::modeled_makespan_seconds`]) changes with
/// the device and stream counts.
pub struct ShardedMultistart {
    pool: DevicePool,
}

impl ShardedMultistart {
    /// Shard over `pool`.
    pub fn new(pool: DevicePool) -> Self {
        ShardedMultistart { pool }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// Run one ILS chain per starting tour across the pool and keep the
    /// best. `factory` builds a chain's engine on its assigned device
    /// and stream — typically `GpuTwoOpt::on_stream` composed with a
    /// strategy:
    ///
    /// ```ignore
    /// let sharded = ShardedMultistart::new(pool);
    /// let out = sharded.run(
    ///     |device, stream| GpuTwoOpt::on_stream(device.clone(), stream),
    ///     &inst,
    ///     starts,
    ///     IlsOptions::default(),
    /// )?;
    /// ```
    pub fn run<E, F>(
        &self,
        factory: F,
        inst: &Instance,
        starts: Vec<Tour>,
        opts: IlsOptions,
    ) -> Result<ShardedOutcome, EngineError>
    where
        E: TwoOptEngine + Send,
        F: Fn(&Arc<Device>, StreamId) -> E + Sync,
    {
        assert!(!starts.is_empty(), "at least one start is required");
        let opts = &opts;
        let results: Vec<Result<IlsOutcome, EngineError>> =
            self.pool.run(starts.len(), |i, device, stream| {
                run_chain(
                    &mut factory(device, stream),
                    inst,
                    starts[i].clone(),
                    opts,
                    i,
                )
            });

        let reports = self.pool.synchronize();
        let mut chains = Vec::with_capacity(results.len());
        for r in results {
            chains.push(r?);
        }
        let best_idx = chains
            .iter()
            .enumerate()
            .min_by_key(|(_, o)| o.best_length)
            .map(|(i, _)| i)
            .expect("nonempty");
        Ok(ShardedOutcome {
            best: chains[best_idx].clone(),
            chains,
            reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tsp_2opt::SequentialTwoOpt;
    use tsp_tsplib::{generate, Style};

    #[test]
    fn multistart_beats_or_ties_any_single_chain() {
        let inst = generate("ms", 100, Style::Uniform, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let starts: Vec<Tour> = (0..4).map(|_| Tour::random(100, &mut rng)).collect();
        let opts = IlsOptions {
            max_iterations: Some(15),
            ..Default::default()
        };
        let (best, all) = parallel_multistart(SequentialTwoOpt::new, &inst, starts, opts).unwrap();
        assert_eq!(all.len(), 4);
        for o in &all {
            assert!(best.best_length <= o.best_length);
        }
        best.best.validate().unwrap();
    }

    #[test]
    fn chains_use_distinct_seeds() {
        let inst = generate("ms-seeds", 80, Style::Uniform, 5);
        let start = Tour::identity(80);
        let opts = IlsOptions {
            max_iterations: Some(10),
            seed: 100,
            ..Default::default()
        };
        let (_, all) = parallel_multistart(
            SequentialTwoOpt::new,
            &inst,
            vec![start.clone(), start],
            opts,
        )
        .unwrap();
        // Same start, different seeds: the chains diverge (with
        // overwhelming probability on 10 double bridges).
        assert_ne!(all[0].best.as_slice(), all[1].best.as_slice());
    }

    #[test]
    #[should_panic(expected = "at least one start")]
    fn empty_starts_panic() {
        let inst = generate("ms-empty", 50, Style::Uniform, 6);
        let _ = parallel_multistart(
            SequentialTwoOpt::new,
            &inst,
            Vec::new(),
            IlsOptions::default(),
        );
    }

    #[test]
    fn sharded_matches_host_threaded_multistart_bit_for_bit() {
        let inst = generate("shard", 64, Style::Uniform, 12);
        let mut rng = SmallRng::seed_from_u64(7);
        let starts: Vec<Tour> = (0..6).map(|_| Tour::random(64, &mut rng)).collect();
        let opts = IlsOptions::new().with_max_iterations(8u64).with_seed(21);

        let (best, all) = parallel_multistart(
            || tsp_2opt::GpuTwoOpt::new(gpu_sim::spec::gtx_680_cuda()),
            &inst,
            starts.clone(),
            opts.clone(),
        )
        .unwrap();

        let pool = DevicePool::homogeneous(gpu_sim::spec::gtx_680_cuda(), 2, 2);
        let sharded = ShardedMultistart::new(pool);
        let out = sharded
            .run(
                |device, stream| tsp_2opt::GpuTwoOpt::on_stream(device.clone(), stream),
                &inst,
                starts,
                opts,
            )
            .unwrap();

        assert_eq!(out.chains.len(), all.len());
        for (a, b) in all.iter().zip(&out.chains) {
            assert_eq!(a.best_length, b.best_length);
            assert_eq!(a.best.as_slice(), b.best.as_slice());
            assert_eq!(a.profile, b.profile);
        }
        assert_eq!(out.best.best_length, best.best_length);
        assert_eq!(out.best.best.as_slice(), best.best.as_slice());
        assert_eq!(out.reports.len(), 2);
        assert!(out.modeled_makespan_seconds() > 0.0);
        assert!(out.busy_seconds() >= out.modeled_makespan_seconds());
        assert!(out.throughput() > 0.0);
    }

    #[test]
    fn multistart_journal_stamps_chain_ids() {
        let inst = generate("ms-journal", 60, Style::Uniform, 9);
        let mut rng = SmallRng::seed_from_u64(10);
        let starts: Vec<Tour> = (0..3).map(|_| Tour::random(60, &mut rng)).collect();
        let journal = tsp_telemetry::Journal::attached();
        let opts = IlsOptions {
            max_iterations: Some(4),
            observer: tsp_2opt::Observer::none().with_journal(journal.clone()),
            ..Default::default()
        };
        let (_, all) = parallel_multistart(SequentialTwoOpt::new, &inst, starts, opts).unwrap();

        let records = journal.records();
        // Every chain contributed Initial + per-iteration + Final records.
        let expected: usize = all.iter().map(|o| o.iterations as usize + 2).sum();
        assert_eq!(records.len(), expected);
        for chain in 0..3u64 {
            let of_chain: Vec<_> = records.iter().filter(|r| r.chain == chain).collect();
            assert_eq!(of_chain.len() as u64, all[chain as usize].iterations + 2);
            assert_eq!(
                of_chain.last().unwrap().tour_length,
                all[chain as usize].best_length
            );
        }
    }

    #[test]
    fn sharded_schedule_is_independent_of_worker_interleaving() {
        // Run the same sharded workload twice; the modeled schedule (and
        // hence every report) must be identical even though host threads
        // steal lanes in nondeterministic real-time order.
        let inst = generate("shard-det", 48, Style::Uniform, 13);
        let mut rng = SmallRng::seed_from_u64(8);
        let starts: Vec<Tour> = (0..5).map(|_| Tour::random(48, &mut rng)).collect();
        let opts = IlsOptions::new().with_max_iterations(5u64);

        let run = || {
            let pool = DevicePool::homogeneous(gpu_sim::spec::gtx_680_cuda(), 2, 2);
            ShardedMultistart::new(pool)
                .run(
                    |device, stream| tsp_2opt::GpuTwoOpt::on_stream(device.clone(), stream),
                    &inst,
                    starts.clone(),
                    opts.clone(),
                )
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.modeled_makespan_seconds().to_bits(),
            b.modeled_makespan_seconds().to_bits()
        );
        assert_eq!(a.busy_seconds().to_bits(), b.busy_seconds().to_bits());
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra.ops.len(), rb.ops.len());
            for (oa, ob) in ra.ops.iter().zip(&rb.ops) {
                assert_eq!(oa.stream, ob.stream);
                assert_eq!(oa.start_seconds.to_bits(), ob.start_seconds.to_bits());
                assert_eq!(oa.seconds.to_bits(), ob.seconds.to_bits());
            }
        }
    }
}
