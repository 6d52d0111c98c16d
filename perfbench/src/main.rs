//! Host-wall benchmark of the solver stack and the served HTTP API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dense-descent|candidate-ils|serve-burst> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every timing is taken from the host `Instant` clock in this
//! benchmark. Modeled GTX 680 seconds, which the program reports, are
//! only ever named `modeled_*`. The last line of standard output is the
//! JSON result; `--trace 0` prints the end-to-end metrics and `--trace
//! 1` the per-layer ones. See `perfbench/README.md`.

mod http;
mod report;
mod serve;
mod solver;
mod stats;

use report::Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let calib_s = stats::calibrate();
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let report: Report = match args.workload.as_str() {
        "dense-descent" => solver::run(&solver::DENSE_DESCENT, seed, seconds, trace),
        "candidate-ils" => solver::run(&solver::CANDIDATE_ILS, seed, seconds, trace),
        "serve-burst" => serve::run(seed, seconds, trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if !report.print(seed, trace, calib_s) {
        std::process::exit(1);
    }
}
