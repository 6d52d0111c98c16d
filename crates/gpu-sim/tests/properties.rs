//! Property and concurrency tests for the device simulator.

use gpu_sim::{spec, timing, BlockCtx, Device, Kernel, LaunchConfig, MemoryPool, PerfCounters};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn makespan_is_bounded_by_lpt_bounds(
        slots in 1u32..64,
        times in proptest::collection::vec(0.0f64..10.0, 1..60),
    ) {
        let m = timing::schedule_makespan(slots, &times);
        let total: f64 = times.iter().sum();
        let longest = times.iter().cloned().fold(0.0, f64::max);
        // Lower bounds: the longest job, and perfect division.
        prop_assert!(m >= longest - 1e-9);
        prop_assert!(m >= total / slots as f64 - 1e-9);
        // Upper bound of greedy list scheduling.
        prop_assert!(m <= total / slots as f64 + longest + 1e-9);
    }

    #[test]
    fn makespan_with_one_slot_is_the_sum(
        times in proptest::collection::vec(0.0f64..10.0, 1..40),
    ) {
        let m = timing::schedule_makespan(1, &times);
        let total: f64 = times.iter().sum();
        prop_assert!((m - total).abs() < 1e-9);
    }

    #[test]
    fn block_time_is_monotone_in_work(
        flops in 0u64..1_000_000,
        shared in 0u64..1_000_000,
        glob in 0u64..1_000_000,
        extra in 1u64..1_000_000,
    ) {
        let s = spec::gtx_680_cuda();
        let base = PerfCounters {
            flops,
            shared_bytes: shared,
            global_read_bytes: glob,
            ..Default::default()
        };
        let t0 = timing::block_time(&s, &base, 1);
        for bumped in [
            PerfCounters { flops: flops + extra, ..base },
            PerfCounters { shared_bytes: shared + extra, ..base },
            PerfCounters { global_read_bytes: glob + extra, ..base },
            PerfCounters { atomic_ops: 5, ..base },
        ] {
            prop_assert!(timing::block_time(&s, &bumped, 1) >= t0);
        }
    }

    #[test]
    fn transfer_times_are_affine_and_monotone(bytes in 0u64..100_000_000) {
        let s = spec::gtx_680_cuda();
        let t = timing::h2d_time(&s, bytes);
        prop_assert!(t >= s.h2d_latency_us * 1e-6 - 1e-12);
        prop_assert!(timing::h2d_time(&s, bytes + 1024) >= t);
        let d = timing::d2h_time(&s, bytes);
        prop_assert!(d >= s.d2h_latency_us * 1e-6 - 1e-12);
    }

    #[test]
    fn pool_accounting_is_exact_under_any_alloc_sequence(
        sizes in proptest::collection::vec(1usize..10_000, 1..30),
    ) {
        let pool = MemoryPool::new(1 << 30);
        let mut live = Vec::new();
        let mut expected = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            let dev_bytes = (s * 4) as u64;
            let buf = gpu_sim::DeviceBuffer::new(vec![0u32; s], pool.clone()).unwrap();
            expected += dev_bytes;
            live.push(buf);
            // Drop every third allocation immediately.
            if i % 3 == 2 {
                let b = live.remove(0);
                expected -= b.bytes();
                drop(b);
            }
            prop_assert_eq!(pool.allocated(), expected);
        }
        drop(live);
        prop_assert_eq!(pool.allocated(), 0);
    }
}

/// A kernel whose per-thread work depends only on the global thread id,
/// used to check executor invariants.
struct IdSum<'a> {
    out: &'a gpu_sim::AtomicDeviceBuffer,
}

impl Kernel for IdSum<'_> {
    fn shared_bytes(&self) -> usize {
        0
    }
    fn num_phases(&self) -> usize {
        1
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        blk.for_each_thread(|ctx| {
            ctx.flops(1);
            self.out.fetch_add(0, ctx.global_thread_id());
        });
    }
}

#[test]
fn executor_visits_every_thread_exactly_once() {
    let dev = Device::new(spec::gtx_680_cuda());
    for (g, b) in [(1u32, 1u32), (3, 7), (16, 256), (5, 33)] {
        let out = dev.alloc_atomic(1, 0).unwrap();
        let p = dev
            .launch(LaunchConfig::new(g, b), &IdSum { out: &out })
            .unwrap();
        let t = g as u64 * b as u64;
        assert_eq!(out.load(0), t * (t - 1) / 2, "{g}x{b}");
        assert_eq!(p.counters.flops, t);
    }
}

#[test]
fn concurrent_pool_usage_is_consistent() {
    // Launches on a shared device run on many host threads; hammer the
    // pool from several to check the accounting under contention.
    let pool = MemoryPool::new(1 << 24);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let pool = pool.clone();
            s.spawn(move || {
                for i in 0..200 {
                    let buf =
                        gpu_sim::DeviceBuffer::new(vec![0u8; 1 + i % 512], pool.clone()).unwrap();
                    std::hint::black_box(&buf);
                }
            });
        }
    });
    assert_eq!(pool.allocated(), 0);
}
