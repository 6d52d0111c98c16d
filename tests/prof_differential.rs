//! Differential suite for the span profiler and device-memory ledger.
//!
//! The profiler is an observer: attaching one must not change a single
//! bit of any solve — tours, lengths, modeled clocks — across every
//! kernel strategy, for plain descents and for full ILS runs. The
//! ledger side is pinned against closed forms derived from the dense
//! and device-resident pipelines' buffer lifecycles (DESIGN.md §13):
//!
//! * dense re-upload pipelines allocate `coords` (8n bytes) plus the
//!   8-byte `best_out` word every sweep, so the device peak is exactly
//!   `8n + 8` and the `coords` allocation count equals the sweep count;
//! * the device-resident pipeline uploads `resident_coords` exactly
//!   once and reverses in place, with the same `8n + 8` peak;
//! * whatever mix of strategies runs, every allocation is freed by the
//!   time the engines drop (proptest over arbitrary solve sequences).

use proptest::prelude::*;
// `tsp_2opt::Strategy` collides with proptest's `Strategy` trait, so the
// kernel enum gets a local alias.
use tsp::prelude::*;
use tsp::twoopt::Strategy as Kernel;
use tsp_core::Point;
use tsp_tsplib::{generate, Style};

fn solver_for(strategy: Kernel, prof: Profiler, ils: Option<IlsOptions>) -> Solver {
    let mut b = Solver::builder()
        .construction(Construction::Identity)
        .strategy(strategy)
        .observe(Observer::none().with_prof(prof));
    if let Some(opts) = ils {
        b = b.ils(opts);
    }
    b.build()
}

fn ils_opts() -> IlsOptions {
    let mut opts = IlsOptions::default();
    opts.max_iterations = Some(4);
    opts.seed = 0xd1ff;
    opts
}

/// Run the same solve detached and attached and demand bit identity.
fn assert_inert(inst: &tsp_core::Instance, strategy: Kernel, ils: Option<IlsOptions>) {
    let plain = solver_for(strategy, Profiler::detached(), ils.clone())
        .run(inst)
        .expect("unprofiled solve succeeds");
    let prof = Profiler::attached();
    let profiled = solver_for(strategy, prof.clone(), ils)
        .run(inst)
        .expect("profiled solve succeeds");

    assert_eq!(plain.tour.as_slice(), profiled.tour.as_slice());
    assert_eq!(plain.length, profiled.length);
    assert_eq!(plain.initial_length, profiled.initial_length);
    assert_eq!(plain.iterations, profiled.iterations);
    // Modeled clocks are deterministic; compare exact bits, not "close".
    assert_eq!(
        plain.modeled_seconds().to_bits(),
        profiled.modeled_seconds().to_bits(),
        "profiling changed the modeled clock for {strategy:?}"
    );
    assert_eq!(plain.profile.pairs_checked, profiled.profile.pairs_checked);
    // The attached run actually observed something…
    assert!(prof.span_count() > 0, "no spans recorded for {strategy:?}");
    // …and the detached run left nothing behind.
    assert!(plain.observer.prof.report().spans.is_empty());
    assert!(plain.memory.peak_bytes(0).is_none());
}

#[test]
fn profiling_is_bit_inert_for_descent_across_all_strategies() {
    let inst = generate("prof-diff", 96, Style::Uniform, 0x2013);
    for strategy in tsp::all_strategies(32, 8) {
        assert_inert(&inst, strategy, None);
    }
}

#[test]
fn profiling_is_bit_inert_for_ils_across_all_strategies() {
    let inst = generate("prof-diff-ils", 72, Style::Clustered { clusters: 6 }, 11);
    for strategy in tsp::all_strategies(32, 8) {
        assert_inert(&inst, strategy, Some(ils_opts()));
    }
}

/// Dense pipeline ledger: peak `8n + 8`, one `coords` upload per sweep.
#[test]
fn dense_ledger_matches_the_closed_form() {
    let n = 96;
    let inst = generate("prof-dense", n, Style::Uniform, 0x2013);
    let prof = Profiler::attached();
    solver_for(Kernel::Shared, prof.clone(), None)
        .run(&inst)
        .expect("solve succeeds");

    let report = prof.report();
    assert!(
        report.memory.balanced(),
        "engine dropped, ledger must balance"
    );
    let expected_peak = (Point::DEVICE_BYTES * n + 8) as u64;
    assert_eq!(report.memory.peak_bytes(0), Some(expected_peak));

    // The dense pipeline re-uploads the coordinate buffer every sweep,
    // so `coords` allocations must equal the sweep count in the span
    // tree — the ledger and the profiler describe the same run.
    let sweeps = report
        .spans
        .iter()
        .find(|s| s.path == "solve;descent;sweep")
        .expect("descent sweeps were spanned")
        .count;
    let coords = report.memory.label(0, "coords").expect("coords journaled");
    assert_eq!(coords.allocs, sweeps);
    assert_eq!(
        coords.alloc_bytes,
        sweeps * (Point::DEVICE_BYTES * n) as u64
    );
    assert_eq!(coords.upload_bytes, coords.alloc_bytes);
}

/// Device-resident ledger: same peak, but exactly one upload.
#[test]
fn resident_ledger_matches_the_closed_form() {
    let n = 96;
    let inst = generate("prof-resident", n, Style::Uniform, 0x2013);
    let prof = Profiler::attached();
    solver_for(Kernel::DeviceResident, prof.clone(), None)
        .run(&inst)
        .expect("solve succeeds");

    let report = prof.report();
    assert!(
        report.memory.balanced(),
        "engine dropped, ledger must balance"
    );
    let expected_peak = (Point::DEVICE_BYTES * n + 8) as u64;
    assert_eq!(report.memory.peak_bytes(0), Some(expected_peak));

    let resident = report
        .memory
        .label(0, "resident_coords")
        .expect("resident_coords journaled");
    assert_eq!(resident.allocs, 1, "resident coords upload exactly once");
    assert_eq!(resident.alloc_bytes, (Point::DEVICE_BYTES * n) as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary sequences of solves against one shared profiler: no
    /// interleaving of strategies, sizes, or ILS leaves a byte live or
    /// a free unmatched once the engines are gone.
    #[test]
    fn arbitrary_solve_sequences_balance_the_ledger(
        runs in proptest::collection::vec((8usize..48, 0usize..8, any::<bool>()), 1..5)
    ) {
        let prof = Profiler::attached();
        for (n, strategy_idx, use_ils) in runs {
            let inst = generate("prof-prop", n, Style::Uniform, n as u64);
            let strategy = tsp::all_strategies(16, 4)[strategy_idx];
            let ils = use_ils.then(ils_opts);
            solver_for(strategy, prof.clone(), ils)
                .run(&inst)
                .expect("solve succeeds");
        }
        let memory = prof.memory_report();
        prop_assert_eq!(memory.live_bytes(), 0);
        prop_assert!(memory.balanced());
    }
}
