//! The two solver workloads: `dense-descent` (the paper's Table II path)
//! and `candidate-ils` (candidate-resident ILS on a large clustered
//! instance), both driven through `Solver::run`.
//!
//! The untraced run times whole passes of `Solver::run` over an
//! instance set; every pass solves a fresh set drawn from the seed, so a
//! run's median averages over inputs as well as over time. The traced
//! run repeats each solve three ways, back to back: the facade
//! (`Solver::run`); the same work called layer by layer
//! (`multiple_fragment`, `CandidateLists::build`, then `optimize` or
//! `iterated_local_search`) with a timing wrapper around the engine's
//! `best_move`; and the same layer calls without the wrapper. The three
//! must agree bit for bit on tours and modeled seconds. Counts come from
//! the first rep, times are medians over reps.

use crate::report::Report;
use crate::stats::{median, tail};
use std::time::Instant;
use tsp::{Solver, SolverBuilder};
use tsp_2opt::{
    verify, BestMove, CandidateLists, EngineError, GpuTwoOpt, SearchOptions, StepProfile, Strategy,
    TwoOptEngine,
};
use tsp_core::{Instance, Tour};
use tsp_ils::IlsOptions;
use tsp_tsplib::{generate, Style};

/// A solver workload: its instances and how `Solver::run` is configured.
pub struct SolverWorkload {
    name: &'static str,
    /// `(n, style)` of each instance, generated from the run's seed.
    instances: &'static [(usize, Style)],
    strategy: Strategy,
    /// `Some(iterations)` runs ILS around the descent.
    ils_iterations: Option<u64>,
    /// Latency limit of one pass over the instance set.
    limit_ms: f64,
    /// Warm-up solve run during set-up: `(n, style)`.
    warmup: (usize, Style),
}

/// Uniform and clustered instances near the paper's mid-size rows.
pub const DENSE_DESCENT: SolverWorkload = SolverWorkload {
    name: "dense-descent",
    instances: &[
        (1000, Style::Uniform),
        (1000, Style::Clustered { clusters: 12 }),
        (1200, Style::Uniform),
    ],
    strategy: Strategy::Auto,
    ils_iterations: None,
    limit_ms: 10_000.0,
    warmup: (600, Style::Uniform),
};

/// One clustered instance large enough that per-launch cost, not
/// per-pair cost, dominates the candidate kernels.
pub const CANDIDATE_ILS: SolverWorkload = SolverWorkload {
    name: "candidate-ils",
    instances: &[(20_000, Style::Clustered { clusters: 200 })],
    strategy: Strategy::CandidateResident { k: 16 },
    ils_iterations: Some(50),
    limit_ms: 15_000.0,
    warmup: (2000, Style::Clustered { clusters: 20 }),
};

impl SolverWorkload {
    /// The instance set of pass `pass`.
    fn generate(&self, seed: u64, pass: usize) -> Vec<Instance> {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, &(n, style))| generate(&format!("{}-{pass}-{i}", self.name), n, style, seed))
            .collect()
    }

    fn ils_options(&self, seed: u64) -> Option<IlsOptions> {
        self.ils_iterations.map(|iters| {
            IlsOptions::default()
                .with_max_iterations(iters)
                .with_seed(seed)
        })
    }

    fn solver(&self, seed: u64) -> Solver {
        let mut builder = SolverBuilder::new().strategy(self.strategy);
        if let Some(opts) = self.ils_options(seed) {
            builder = builder.ils(opts);
        }
        builder.build()
    }

    fn engine(&self) -> GpuTwoOpt {
        GpuTwoOpt::new(gpu_sim::spec::gtx_680_cuda()).with_strategy(self.strategy)
    }

    fn candidate_k(&self) -> Option<usize> {
        match self.strategy {
            Strategy::Candidate { k } | Strategy::CandidateResident { k } => Some(k),
            _ => None,
        }
    }
}

/// What one solve produced, for the cross-checks.
struct Outcome {
    tour: Tour,
    length: i64,
    modeled_bits: u64,
    pairs: u64,
    iterations: u64,
}

/// Check one solve's output; returns a description of the first
/// failure.
fn check(inst: &Instance, out: &Outcome, dense: bool) -> Result<(), String> {
    out.tour
        .validate()
        .map_err(|e| format!("{}: not a permutation: {e}", inst.name()))?;
    if out.tour.len() != inst.len() {
        return Err(format!("{}: tour misses cities", inst.name()));
    }
    verify::check_length(inst, &out.tour, out.length)
        .map_err(|actual| format!("{}: length {} != {actual}", inst.name(), out.length))?;
    if dense && !verify::is_two_opt_minimum(inst, &out.tour) {
        return Err(format!("{}: not a 2-opt local minimum", inst.name()));
    }
    Ok(())
}

fn facade_solve(solver: &Solver, inst: &Instance) -> Result<Outcome, String> {
    let s = solver.run(inst).map_err(|e| e.to_string())?;
    Ok(Outcome {
        modeled_bits: s.modeled_seconds().to_bits(),
        pairs: s.profile.pairs_checked,
        iterations: s.iterations,
        length: s.length,
        tour: s.tour,
    })
}

/// Passes every run makes, however long they take; the exact metrics
/// sum over exactly these, so they do not depend on host speed.
const MIN_PASSES: usize = 5;

/// Build the first pass's instances and warm the code path. Repeated;
/// the median is reported as `setup_s`.
fn setup(w: &SolverWorkload, seed: u64) -> Result<(), String> {
    std::hint::black_box(w.generate(seed, 0));
    // The same warm-up instance for every seed, so set-up time does not
    // vary with the input.
    let (n, style) = w.warmup;
    let warm = generate(&format!("{}-warmup", w.name), n, style, 0);
    facade_solve(&w.solver(seed), &warm)?;
    Ok(())
}

pub fn run(w: &SolverWorkload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::new(w.name);
    let mut setups = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        if let Err(e) = setup(w, seed) {
            return report.fail(e);
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    report.setup_s = median(&setups);
    if trace {
        traced(w, seed, seconds, report)
    } else {
        untraced(w, seed, seconds, report)
    }
}

/// Whether to start pass `done + 1`: always until [`MIN_PASSES`], then
/// only if it fits in the window judged by the last pass, so a run
/// measures about `seconds` whatever the pass length.
fn another_pass(done: usize, elapsed: f64, last: f64, seconds: f64) -> bool {
    done < MIN_PASSES || elapsed + last <= seconds
}

/// Time whole passes of `Solver::run`, each over a fresh instance set,
/// until the measuring window closes.
fn untraced(w: &SolverWorkload, seed: u64, seconds: f64, mut report: Report) -> Report {
    let solver = w.solver(seed);
    let dense = w.ils_iterations.is_none();
    let mut exact: Vec<Outcome> = Vec::new();
    let mut passes: Vec<f64> = Vec::new();
    let window = Instant::now();
    while another_pass(
        passes.len(),
        window.elapsed().as_secs_f64(),
        passes.last().copied().unwrap_or(0.0),
        seconds,
    ) {
        let instances = w.generate(seed, passes.len());
        let start = Instant::now();
        let mut outs = Vec::with_capacity(instances.len());
        for inst in &instances {
            report.attempted += 1;
            match facade_solve(&solver, inst) {
                Ok(o) => outs.push(o),
                Err(e) => return report.fail(e),
            }
        }
        passes.push(start.elapsed().as_secs_f64());
        for (inst, out) in instances.iter().zip(&outs) {
            if let Err(e) = check(inst, out, dense) {
                return report.fail(e);
            }
        }
        if passes.len() <= MIN_PASSES {
            exact.extend(outs);
        }
    }
    let ms: Vec<f64> = passes.iter().map(|s| s * 1e3).collect();
    let (tail_ms, tail_label) = tail(&ms);
    report.p50_ms = median(&ms);
    report.tail_ms = tail_ms;
    report.tail_label = tail_label;
    report.jobs_per_s = (passes.len() * w.instances.len()) as f64 / passes.iter().sum::<f64>();
    report.slo_ratio = ms.iter().filter(|&&m| m <= w.limit_ms).count() as f64 / ms.len() as f64;
    report.tour_length_sum = exact.iter().map(|o| o.length as f64).sum();
    report.modeled_s = exact.iter().map(|o| f64::from_bits(o.modeled_bits)).sum();
    report.note(format!(
        "{} passes of {} instance(s); solve wall p50 {:.1} ms",
        passes.len(),
        w.instances.len(),
        report.p50_ms,
    ));
    report
}

/// Host time of every `best_move` call plus the gaps between calls,
/// split by what the caller did in them: the gap after an improving
/// answer is the descent applying that move (search self time); any
/// other gap is the caller between descents.
struct TimedEngine<E> {
    inner: E,
    call_s: Vec<f64>,
    engine_s: f64,
    after_move_s: f64,
    between_s: f64,
    moves: u64,
    modeled: StepProfile,
    last_end: Instant,
    last_improving: bool,
}

impl<E: TwoOptEngine> TimedEngine<E> {
    fn new(inner: E, start: Instant) -> Self {
        TimedEngine {
            inner,
            call_s: Vec::new(),
            engine_s: 0.0,
            after_move_s: 0.0,
            between_s: 0.0,
            moves: 0,
            modeled: StepProfile::default(),
            last_end: start,
            last_improving: false,
        }
    }

    /// Close the books at `end`: the tail after the last call belongs
    /// to the caller.
    fn finish(&mut self, end: Instant) {
        self.between_s += (end - self.last_end).as_secs_f64();
        self.last_end = end;
    }
}

impl<E: TwoOptEngine> TwoOptEngine for TimedEngine<E> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn best_move(
        &mut self,
        inst: &Instance,
        tour: &Tour,
    ) -> Result<(Option<BestMove>, StepProfile), EngineError> {
        let start = Instant::now();
        let gap = (start - self.last_end).as_secs_f64();
        if self.last_improving {
            self.after_move_s += gap;
        } else {
            self.between_s += gap;
        }
        let out = self.inner.best_move(inst, tour);
        let end = Instant::now();
        let dur = (end - start).as_secs_f64();
        self.call_s.push(dur);
        self.engine_s += dur;
        self.last_end = end;
        self.last_improving = matches!(&out, Ok((Some(m), _)) if m.improves());
        if let Ok((_, step)) = &out {
            self.moves += u64::from(self.last_improving);
            self.modeled.accumulate(step);
        }
        out
    }

    fn last_best_key(&self) -> Option<u64> {
        self.inner.last_best_key()
    }
}

/// One layer-by-layer solve. With `timed`, the engine sits inside a
/// [`TimedEngine`]; the returned split is then filled in.
#[derive(Default)]
struct Split {
    total_s: f64,
    construction_s: f64,
    engine_s: f64,
    search_self_s: f64,
    ils_self_s: f64,
    calls: Vec<f64>,
    moves: u64,
    modeled: StepProfile,
    accepted: u64,
}

fn layered_solve(
    w: &SolverWorkload,
    seed: u64,
    inst: &Instance,
    timed: bool,
) -> Result<(Outcome, Split), String> {
    let err = |e: EngineError| e.to_string();
    let mut split = Split::default();
    let start = Instant::now();
    let mut tour = tsp_construction::multiple_fragment(inst);
    let built = Instant::now();
    split.construction_s = (built - start).as_secs_f64();

    // Creating the engine is facade work the layer split leaves
    // unattributed.
    let (mut timed_engine, mut plain_engine) = if timed {
        (Some(TimedEngine::new(w.engine(), built)), None)
    } else {
        (None, Some(w.engine()))
    };
    let search_start = Instant::now();
    let engine: &mut dyn TwoOptEngine = match (&mut timed_engine, &mut plain_engine) {
        (Some(t), _) => {
            t.last_end = search_start;
            t
        }
        (None, Some(p)) => p,
        (None, None) => unreachable!("one engine is always built"),
    };
    let outcome = match w.ils_options(seed) {
        None => {
            let stats = tsp_2opt::optimize(engine, inst, &mut tour, SearchOptions::default())
                .map_err(err)?;
            Outcome {
                length: stats.final_length,
                modeled_bits: stats.profile.modeled_seconds().to_bits(),
                pairs: stats.profile.pairs_checked,
                iterations: 0,
                tour,
            }
        }
        Some(opts) => {
            let out = tsp_ils::iterated_local_search(engine, inst, tour, opts).map_err(err)?;
            split.accepted = out.accepted;
            Outcome {
                length: out.best_length,
                modeled_bits: out.profile.modeled_seconds().to_bits(),
                pairs: out.profile.pairs_checked,
                iterations: out.iterations,
                tour: out.best,
            }
        }
    };
    let end = Instant::now();
    split.total_s = (end - start).as_secs_f64();
    if let Some(t) = &mut timed_engine {
        t.finish(end);
        split.engine_s = t.engine_s;
        split.calls = std::mem::take(&mut t.call_s);
        split.moves = t.moves;
        split.modeled = t.modeled;
        // A plain descent owns every gap; under ILS only the gaps after
        // an applied move are the descent's, the rest is the ILS loop.
        if w.ils_iterations.is_some() {
            split.search_self_s = t.after_move_s;
            split.ils_self_s = t.between_s;
        } else {
            split.search_self_s = t.after_move_s + t.between_s;
        }
    }
    Ok((outcome, split))
}

/// Per-rep sums over the instance set.
#[derive(Default)]
struct Rep {
    facade_s: f64,
    plain_s: f64,
    traced: Split,
    knn_s: f64,
    pairs: u64,
    iterations: u64,
}

fn traced(w: &SolverWorkload, seed: u64, seconds: f64, mut report: Report) -> Report {
    let solver = w.solver(seed);
    let dense = w.ils_iterations.is_none();
    let mut reps: Vec<Rep> = Vec::new();
    let window = Instant::now();
    let mut last = 0.0;
    // One rep already solves every instance three times.
    while reps.is_empty() || window.elapsed().as_secs_f64() + last <= seconds {
        let instances = w.generate(seed, reps.len());
        let rep_start = Instant::now();
        let mut rep = Rep::default();
        for inst in &instances {
            report.attempted += 1;
            let start = Instant::now();
            let facade = match facade_solve(&solver, inst) {
                Ok(o) => o,
                Err(e) => return report.fail(e),
            };
            rep.facade_s += start.elapsed().as_secs_f64();
            if let Some(k) = w.candidate_k() {
                let start = Instant::now();
                std::hint::black_box(CandidateLists::build(inst, k));
                rep.knn_s += start.elapsed().as_secs_f64();
            }
            let ((traced, split), (plain, plain_split)) = match (
                layered_solve(w, seed, inst, true),
                layered_solve(w, seed, inst, false),
            ) {
                (Ok(t), Ok(p)) => (t, p),
                (Err(e), _) | (_, Err(e)) => return report.fail(e),
            };
            rep.plain_s += plain_split.total_s;
            if let Err(e) = check(inst, &facade, dense) {
                return report.fail(e);
            }
            for out in [&traced, &plain] {
                if out.tour.as_slice() != facade.tour.as_slice()
                    || out.modeled_bits != facade.modeled_bits
                {
                    return report.fail(format!(
                        "{}: traced, untraced and facade solves disagree",
                        inst.name()
                    ));
                }
            }
            rep.pairs += facade.pairs;
            rep.iterations += facade.iterations;
            accumulate(&mut rep.traced, split);
        }
        reps.push(rep);
        last = rep_start.elapsed().as_secs_f64();
    }

    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let total = med(&|r| r.traced.total_s);
    let construction = med(&|r| r.traced.construction_s);
    let knn = med(&|r| r.knn_s);
    // The engine builds the same k-NN lists inside its first
    // `best_move`; the standalone build times that share.
    let engine = med(&|r| r.traced.engine_s) - knn;
    let search_self = med(&|r| r.traced.search_self_s);
    let ils_self = med(&|r| r.traced.ils_self_s);
    let facade = med(&|r| r.facade_s);
    let plain = med(&|r| r.plain_s);
    let one = &reps[0];
    let calls: Vec<f64> = reps.iter().flat_map(|r| r.traced.calls.clone()).collect();
    let (pairs, iterations) = (one.pairs, one.iterations);
    // What the layer calls leave of each rep's traced wall time: engine
    // creation and benchmark glue. The standalone k-NN build is timed
    // outside that wall and only splits the engine's share.
    let unattributed_of = |r: &Rep| {
        let t = &r.traced;
        t.total_s - t.construction_s - t.engine_s - t.search_self_s - t.ils_self_s
    };
    let unattributed = med(&unattributed_of);

    report.layer("construction.wall_s", construction);
    report.layer("construction.share", construction / total);
    report.layer("neighbors.knn_build_s", knn);
    report.layer("engine.calls", one.traced.calls.len() as f64);
    report.layer("engine.best_move_us_p50", median(&calls) * 1e6);
    report.layer("engine.pairs", pairs as f64);
    report.layer(
        "engine.host_ns_per_pair",
        med(&|r| (r.traced.engine_s - r.knn_s) / r.pairs as f64) * 1e9,
    );
    report.layer("engine.share", engine / total);
    report.layer(
        "engine.modeled_checks_per_s",
        one.traced.modeled.checks_per_second(),
    );
    report.layer("search.sweeps", one.traced.calls.len() as f64);
    report.layer("search.moves", one.traced.moves as f64);
    report.layer(
        "search.improving_ratio",
        one.traced.moves as f64 / one.traced.calls.len() as f64,
    );
    report.layer("search.self_s", search_self);
    report.layer("ils.iterations", iterations as f64);
    report.layer(
        "ils.accepted_ratio",
        if iterations == 0 {
            0.0
        } else {
            one.traced.accepted as f64 / iterations as f64
        },
    );
    report.layer("ils.self_s", ils_self);
    report.layer("facade.self_s", med(&|r| r.facade_s - r.plain_s));
    report.layer(
        "solver.host_checks_per_s",
        med(&|r| r.pairs as f64 / r.facade_s),
    );
    report.layer(
        "solver.ils_iters_per_s",
        med(&|r| r.iterations as f64 / r.facade_s),
    );
    report.layer("trace.overhead_pct", 100.0 * (total - plain) / plain);
    report.layer("trace.unattributed_s", unattributed);
    report.note(format!(
        "{} traced rep(s): facade {facade:.4}s, layered {plain:.4}s, traced {total:.4}s \
         = construction {construction:.4} + knn {knn:.4} + engine {engine:.4} \
         + search {search_self:.4} + ils {ils_self:.4} + unattributed {unattributed:.5}",
        reps.len()
    ));
    // The layers must explain every rep's traced wall time.
    for r in &reps {
        let (gap, total) = (unattributed_of(r), r.traced.total_s);
        if gap.abs() > 0.01 * total + 1e-3 {
            return report.fail(format!(
                "layers leave {gap:.4}s of {total:.4}s traced wall unexplained \
                 (bound 1 % + 1 ms)"
            ));
        }
    }
    report
}

fn accumulate(into: &mut Split, s: Split) {
    into.total_s += s.total_s;
    into.construction_s += s.construction_s;
    into.engine_s += s.engine_s;
    into.search_self_s += s.search_self_s;
    into.ils_self_s += s.ils_self_s;
    into.calls.extend(s.calls);
    into.moves += s.moves;
    into.modeled.accumulate(&s.modeled);
    into.accepted += s.accepted;
}
