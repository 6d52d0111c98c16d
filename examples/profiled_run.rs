//! Profile a full ILS solve end to end and emit the correlated artifact
//! set DESIGN.md §13 describes: a collapsed-stack flamegraph, the
//! device-memory ledger report, and a `manifest.json` that ties both to
//! the run's deterministic `run_id`. A trace recorder watches the same
//! run, and its metrics snapshot prints the `nvprof`-style per-kernel
//! table and the PCIe transfer share of the modeled device time — the
//! copy proportion the paper observes shrinking as the problem grows.
//!
//! ```text
//! cargo run --release -p tsp-apps --example profiled_run -- [n] [out_dir]
//! ```
//!
//! The example is self-validating (CI runs it as a smoke test): it
//! asserts the ledger balances to zero once the engine is dropped, that
//! the profiler captured a non-empty span tree, and that the manifest
//! round-trips. View the artifacts with:
//!
//! ```text
//! tsp-inspect flame --manifest <out_dir>/manifest.json
//! tsp-inspect mem   --manifest <out_dir>/manifest.json
//! ```

use std::fs;
use std::path::Path;

use tsp::prelude::*;
use tsp::trace::MetricsSnapshot;
use tsp_tsplib::{generate, Style};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let out_dir = args.next().unwrap_or_else(|| "profiled_run_out".into());
    let inst = generate("profiled", n, Style::Uniform, 0x2013);

    let prof = Profiler::attached();
    let recorder = Recorder::enabled();
    let mut ils = IlsOptions::default();
    ils.max_iterations = Some(8);
    ils.seed = 7;
    let observer = Observer::none()
        .with_prof(prof.clone())
        .with_recorder(recorder.clone());
    let solver = Solver::builder().ils(ils).observe(observer).build();
    let solution = solver.run(&inst).expect("solve succeeds");

    println!(
        "run {}: n={n}, length {:.1} after {} modeled seconds",
        solution.run_id,
        solution.length,
        solution.modeled_seconds()
    );

    // While the solver (and its device buffers) lived, the snapshot on
    // the solution carries live bytes; after `run` returns the engine
    // is dropped, so the profiler's current view must balance to zero.
    let report = prof.report();
    assert!(
        report.memory.balanced(),
        "device-memory ledger must balance once the engine is dropped:\n{}",
        report.memory.render()
    );
    assert!(
        report.spans.iter().any(|s| s.path.starts_with("solve")),
        "profiler captured no solve spans"
    );
    let flame = report.flamegraph();
    assert!(
        !flame.trim().is_empty(),
        "flamegraph export produced no stacks"
    );
    // The export must parse back with the library's own reader.
    let stacks = tsp::prof::parse_collapsed(&flame).expect("flamegraph round-trips");
    assert!(!stacks.is_empty());

    let out = Path::new(&out_dir);
    fs::create_dir_all(out).expect("cannot create output directory");
    fs::write(out.join("flamegraph.folded"), &flame).expect("write flamegraph");
    fs::write(out.join("memory.json"), report.memory.to_json_string()).expect("write memory");

    let mut manifest = Manifest::new(solution.run_id.clone());
    manifest
        .push("flamegraph", "flamegraph.folded")
        .push("memory", "memory.json");
    let manifest_json = manifest.to_json_string();
    let parsed = Manifest::parse(&manifest_json).expect("manifest round-trips");
    assert_eq!(parsed.run_id, solution.run_id);
    assert_eq!(parsed.path_of("flamegraph"), Some("flamegraph.folded"));
    fs::write(out.join("manifest.json"), &manifest_json).expect("write manifest");

    let snapshot = MetricsSnapshot::from_events(&recorder.events());
    print!("\n{}", snapshot.to_text());
    println!("\nhot paths (modeled time, self):");
    print!("{}", report.render_hot(5));
    println!("\nmemory ledger at solve time (resident buffers still live):");
    print!("{}", solution.memory.render());
    println!(
        "\nartifacts in {}: manifest.json, flamegraph.folded, memory.json",
        out.display()
    );
    println!("profiled_run: OK");
}
