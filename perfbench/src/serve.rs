//! The served workload, `serve-burst`: an open loop of job bursts
//! against an in-process `ServeServer` on loopback, with per-job
//! artifacts written to disk.
//!
//! One generator thread sends each job on its schedule over one
//! keep-alive connection; one poller thread watches the oldest
//! outstanding jobs over another. Latency runs from a job's *due* send
//! time to when the poller sees it terminal, so a stalled generator
//! shows up as latency. The schedule (period, burst sizes, job mix) is
//! fixed; only the instances change with the seed.

use crate::http::Client;
use crate::report::Report;
use crate::stats::{median, percentile, tail};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tsp::SolverBuilder;
use tsp_prof::Profiler;
use tsp_serve::{
    FromRequest, JobState, JobStatus, RequestSpan, ServeServer, ServiceConfig, SolveRequest,
    SolveResponse, SolveService,
};
use tsp_telemetry::Telemetry;
use tsp_tsplib::{generate, writer, Style};

/// Simulated devices × streams: two concurrent solves, one per core of
/// the two-core machine the benchmark was sized on.
const DEVICES: usize = 1;
const STREAMS: usize = 2;
/// Tenants sharing the small jobs.
const TENANTS: usize = 6;
/// Live jobs allowed per tenant; no burst comes near it.
const QUOTA: usize = 64;
/// Outstanding jobs the poller checks per round, oldest first. Jobs
/// start in admission order, so the running ones are among the oldest;
/// polling more would only take CPU from the lanes.
const POLL_WINDOW: usize = 2 * DEVICES * STREAMS;
/// Pause between polling rounds.
const POLL_PAUSE: Duration = Duration::from_millis(2);
/// Every this many jobs, one is re-solved with `Solver::run` and must
/// match the served tour exactly.
const SAMPLE_EVERY: usize = 25;
/// Seed of the warm-up jobs.
const WARMUP_SEED: u64 = 0x5eed;

const NAME: &str = "serve-burst";
/// Every `PERIOD` seconds a burst of `HEAVY` heavy jobs from one tenant
/// and `SMALL` small jobs, all due at once: above the two lanes'
/// capacity, within every tenant's quota, drained before the next.
const PERIOD: f64 = 4.0;
const HEAVY: usize = 3;
const SMALL: usize = 60;
/// Latency limit of one job, due time to observed terminal: above the
/// healthy tail, so `slo_ratio` guards the tail.
const LIMIT_MS: f64 = 4000.0;

/// One scheduled job.
struct Job {
    due: f64,
    burst: usize,
    request: SolveRequest,
    body: String,
}

fn small_request(seed: u64, i: usize) -> SolveRequest {
    let n = [64, 128, 256][i % 3];
    let style = if i.is_multiple_of(2) {
        Style::Uniform
    } else {
        Style::Clustered { clusters: 4 }
    };
    let inst = generate(&format!("job-{i}"), n, style, seed);
    SolveRequest::tsplib(writer::write(&inst))
        .with_tenant(format!("tenant-{}", i % TENANTS))
        .with_ils_iterations(2 + (i / 3 % 3) as u64)
        .with_seed(i as u64)
}

/// About ten times the work of an average small job.
fn heavy_request(seed: u64, i: usize) -> SolveRequest {
    let inst = generate(&format!("heavy-{i}"), 512, Style::Uniform, seed);
    SolveRequest::tsplib(writer::write(&inst))
        .with_tenant("tenant-heavy")
        .with_ils_iterations(6)
        .with_seed(i as u64)
}

fn schedule(seed: u64, seconds: f64) -> Vec<Job> {
    let job = |burst, request: SolveRequest| Job {
        due: burst as f64 * PERIOD,
        burst,
        body: request.to_json().to_string(),
        request,
    };
    let mut jobs = Vec::new();
    for b in 0..((seconds / PERIOD) as usize).max(1) {
        // The heavy jobs lead the burst, so the small ones queue behind
        // them.
        for h in 0..HEAVY {
            jobs.push(job(b, heavy_request(seed, b * HEAVY + h)));
        }
        for s in 0..SMALL {
            jobs.push(job(b, small_request(seed, b * SMALL + s)));
        }
    }
    jobs
}

/// What the client saw of one job.
#[derive(Clone, Default)]
struct Seen {
    sent: f64,
    submit_ms: f64,
    job_id: Option<String>,
    rejected: bool,
    observed: Option<f64>,
    status: Option<JobStatus>,
    error: Option<String>,
}

/// One open-loop pass of `jobs` against the server at `addr`.
struct Load {
    seen: Vec<Seen>,
    /// Round-trip time of every poll.
    poll_ms: Vec<f64>,
}

fn drive(addr: SocketAddr, jobs: &[Job]) -> Load {
    let (tx, rx) = mpsc::channel::<(usize, String)>();
    let origin = Instant::now();
    let (seen_submit, (seen_poll, poll_ms)) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut client = Client::new(addr);
            let mut seen = vec![Seen::default(); jobs.len()];
            for (i, job) in jobs.iter().enumerate() {
                let due = origin + Duration::from_secs_f64(job.due);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                seen[i].sent = (sent - origin).as_secs_f64();
                let result = client.request("POST", "/v1/solve", &job.body);
                seen[i].submit_ms = sent.elapsed().as_secs_f64() * 1e3;
                match result {
                    Ok((202, body)) => match SolveResponse::parse(&body) {
                        Ok(resp) => {
                            seen[i].job_id = Some(resp.job_id.clone());
                            // The poller outlives the generator, so the
                            // send only fails if it panicked.
                            let _ = tx.send((i, resp.job_id));
                        }
                        Err(e) => seen[i].error = Some(format!("submit response: {e:?}")),
                    },
                    Ok((status, body)) => {
                        seen[i].rejected = true;
                        seen[i].error = Some(format!("submit answered {status}: {body}"));
                    }
                    Err(e) => seen[i].error = Some(format!("submit: {e}")),
                }
            }
            seen
        });
        let poller = scope.spawn(move || {
            let mut client = Client::new(addr);
            let mut seen = vec![Seen::default(); jobs.len()];
            let mut poll_ms = Vec::new();
            let mut outstanding: VecDeque<(usize, String)> = VecDeque::new();
            let mut open = true;
            loop {
                while let Ok(job) = rx.try_recv() {
                    outstanding.push_back(job);
                }
                if outstanding.is_empty() {
                    if !open {
                        break;
                    }
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(job) => outstanding.push_back(job),
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
                    }
                    continue;
                }
                let mut finished = Vec::new();
                for (slot, (i, id)) in outstanding.iter().take(POLL_WINDOW).enumerate() {
                    let start = Instant::now();
                    let result = client.request("GET", &format!("/v1/jobs/{id}"), "");
                    let now = Instant::now();
                    poll_ms.push((now - start).as_secs_f64() * 1e3);
                    let status = match result {
                        Ok((200, body)) => JobStatus::parse(&body).map_err(|e| format!("{e:?}")),
                        Ok((code, body)) => Err(format!("poll answered {code}: {body}")),
                        Err(e) => Err(format!("poll: {e}")),
                    };
                    match status {
                        Ok(s) if !s.state.is_terminal() => {}
                        Ok(s) => {
                            seen[*i].observed = Some((now - origin).as_secs_f64());
                            seen[*i].status = Some(s);
                            finished.push(slot);
                        }
                        Err(e) => {
                            seen[*i].error = Some(e);
                            finished.push(slot);
                        }
                    }
                }
                for slot in finished.iter().rev() {
                    outstanding.remove(*slot);
                }
                std::thread::sleep(POLL_PAUSE);
            }
            (seen, poll_ms)
        });
        (
            generator.join().expect("generator thread panicked"),
            poller.join().expect("poller thread panicked"),
        )
    });
    let seen = seen_submit
        .into_iter()
        .zip(seen_poll)
        .map(|(mut s, p)| {
            s.observed = p.observed;
            s.status = p.status;
            s.error = s.error.or(p.error);
            s
        })
        .collect();
    Load { seen, poll_ms }
}

/// A booted service on a loopback port, artifacts under `dir`.
fn boot(dir: &Path, sinks: bool) -> Result<ServeServer, String> {
    let cfg = ServiceConfig::default()
        .with_devices(DEVICES)
        .with_streams(STREAMS)
        .with_queue_capacity(512)
        .with_per_tenant_quota(QUOTA)
        .with_artifacts_dir(dir);
    let (telemetry, prof) = if sinks {
        (Telemetry::attached(), Profiler::attached())
    } else {
        (Telemetry::detached(), Profiler::detached())
    };
    let service = SolveService::start(cfg, telemetry, prof).map_err(|e| format!("boot: {e:?}"))?;
    ServeServer::spawn("127.0.0.1:0", service).map_err(|e| format!("bind: {e}"))
}

/// Two small jobs per lane, solved and polled to completion. They are
/// the same for every seed, so set-up time does not vary with the input.
fn warm_up(addr: SocketAddr) -> Result<(), String> {
    let jobs: Vec<Job> = (0..2 * DEVICES * STREAMS)
        .map(|i| {
            let request = small_request(WARMUP_SEED, i);
            Job {
                due: 0.0,
                burst: 0,
                body: request.to_json().to_string(),
                request,
            }
        })
        .collect();
    let load = drive(addr, &jobs);
    match load.seen.iter().find(|s| !is_done(s)) {
        Some(s) => Err(format!("warm-up job failed: {:?}", s.error)),
        None => Ok(()),
    }
}

fn is_done(s: &Seen) -> bool {
    s.status
        .as_ref()
        .is_some_and(|st| st.state == JobState::Done)
}

/// Scratch space for job artifacts, inside the working directory.
fn artifacts_dir(tag: &str) -> PathBuf {
    PathBuf::from(".perfbench").join(format!("{NAME}-{}-{tag}", std::process::id()))
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Drop the parent too once no other run uses it.
    let _ = std::fs::remove_dir(".perfbench");
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::new(NAME);
    let dir = artifacts_dir("main");
    let result = measure(seed, seconds, trace, &dir, &mut report);
    remove_dir(&dir);
    match result {
        Ok(()) => report,
        Err(e) => report.fail(e),
    }
}

fn measure(
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // Set-up: generate every request, boot, warm up. Repeated; the last
    // server stays up for the measurement.
    let mut setups = Vec::new();
    let mut server = None;
    let mut jobs = Vec::new();
    for round in 0..3 {
        let _ = std::fs::remove_dir_all(dir);
        let start = Instant::now();
        jobs = schedule(seed, seconds);
        let s = boot(dir, true)?;
        warm_up(s.addr())?;
        setups.push(start.elapsed().as_secs_f64());
        if round < 2 {
            s.shutdown();
        } else {
            server = Some(s);
        }
    }
    report.setup_s = median(&setups);
    let server = server.expect("booted in the last round");
    let load = drive(server.addr(), &jobs);
    server.shutdown();

    // --- output checks ------------------------------------------------
    report.attempted = jobs.len() as u64;
    report.failed = load.seen.iter().filter(|s| !is_done(s)).count() as u64;
    for (i, (job, s)) in jobs.iter().zip(&load.seen).enumerate() {
        if let Some(e) = &s.error {
            return Err(format!("job {i}: {e}"));
        }
        let status = s.status.as_ref().ok_or(format!("job {i} never observed"))?;
        if status.state != JobState::Done {
            return Err(format!(
                "job {i} ended {:?}: {:?}",
                status.state, status.error
            ));
        }
        check_served(job, status, i % SAMPLE_EVERY == 0).map_err(|e| format!("job {i}: {e}"))?;
    }

    // --- end-to-end ---------------------------------------------------
    let latency_ms: Vec<f64> = jobs
        .iter()
        .zip(&load.seen)
        .map(|(j, s)| (s.observed.unwrap_or(f64::INFINITY) - j.due) * 1e3)
        .collect();
    let (tail_ms, tail_label) = tail(&latency_ms);
    report.p50_ms = median(&latency_ms);
    report.tail_ms = tail_ms;
    report.tail_label = tail_label.clone();
    report.slo_ratio =
        latency_ms.iter().filter(|&&l| l <= LIMIT_MS).count() as f64 / latency_ms.len() as f64;
    report.jobs_per_s = jobs.len() as f64 / drain_seconds(&jobs, &load.seen);
    let statuses: Vec<&JobStatus> = load.seen.iter().filter_map(|s| s.status.as_ref()).collect();
    report.tour_length_sum = statuses.iter().filter_map(|s| s.length).sum::<i64>() as f64;
    // Summed in job order so the total is bit-stable.
    report.modeled_s = statuses.iter().filter_map(|s| s.modeled_seconds).sum();
    report.note(format!(
        "{} jobs, latency p50 {:.2} ms, {tail_label} {:.2} ms, {:.1} jobs/s, slo({} ms) {:.3}",
        jobs.len(),
        report.p50_ms,
        report.tail_ms,
        report.jobs_per_s,
        LIMIT_MS,
        report.slo_ratio
    ));

    if trace {
        layers(seconds, dir, &jobs, &load, report)?;
    }
    Ok(())
}

/// Seconds the service had work pending: from each burst's due time to
/// its last observed completion, summed over bursts.
fn drain_seconds(jobs: &[Job], seen: &[Seen]) -> f64 {
    let bursts = jobs.iter().map(|j| j.burst).max().unwrap_or(0) + 1;
    let mut busy = 0.0;
    for burst in 0..bursts {
        let members = || jobs.iter().zip(seen).filter(|(j, _)| j.burst == burst);
        let first = members().map(|(j, _)| j.due).fold(f64::INFINITY, f64::min);
        let last = members()
            .filter_map(|(_, s)| s.observed)
            .fold(first, f64::max);
        busy += last - first;
    }
    busy
}

/// A served job's tour is a permutation of its instance, its length is
/// the tour's, and (for sampled jobs) it equals `Solver::run` on the
/// same request.
fn check_served(job: &Job, status: &JobStatus, sampled: bool) -> Result<(), String> {
    let inst = job.request.instance().map_err(|e| format!("{e:?}"))?;
    let tour = status.tour.clone().ok_or("done without a tour")?;
    let length = status.length.ok_or("done without a length")?;
    let tour = tsp_core::Tour::new(tour).map_err(|e| format!("not a permutation: {e}"))?;
    if tour.len() != inst.len() {
        return Err("tour misses cities".into());
    }
    tsp_2opt::verify::check_length(&inst, &tour, length)
        .map_err(|actual| format!("length {length} != {actual}"))?;
    if sampled {
        let direct = SolverBuilder::from_request(&job.request)
            .map_err(|e| format!("{e:?}"))?
            .build()
            .run(&inst)
            .map_err(|e| e.to_string())?;
        if direct.tour.as_slice() != tour.as_slice() {
            return Err("served tour differs from Solver::run on the same request".into());
        }
    }
    Ok(())
}

/// Stage durations read from every job's `request.json`, in ms.
#[derive(Default)]
struct Stages {
    queue: Vec<f64>,
    lease: Vec<f64>,
    solve: Vec<f64>,
    artifacts: Vec<f64>,
    /// Lane held: lease to the end of the solve.
    held: Vec<f64>,
    service: Vec<f64>,
    /// Lease to terminal: the solve plus the artifact writes, the part
    /// of a job the service's sinks can slow.
    work: Vec<f64>,
}

fn read_stages(dir: &Path, seen: &[Seen], upto: usize) -> Result<Stages, String> {
    let mut st = Stages::default();
    for s in seen.iter().take(upto) {
        let id = s.job_id.as_deref().ok_or("job without id")?;
        let path = dir.join(id).join("request.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let span = RequestSpan::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let ms = |x: Option<f64>| x.map(|v| v * 1e3).ok_or(format!("{id}: missing stage"));
        st.queue.push(ms(span.queue_wait_seconds())?);
        st.lease.push(ms(span.lease_wait_seconds())?);
        st.solve.push(ms(span.solve_seconds())?);
        st.artifacts.push(ms(
            span.wall_between(tsp_serve::Stage::Artifacts, tsp_serve::Stage::Done)
        )?);
        st.held.push(ms(span.wall_between(
            tsp_serve::Stage::Leased,
            tsp_serve::Stage::Artifacts,
        ))?);
        st.service.push(ms(span.end_to_end_seconds())?);
        st.work.push(ms(
            span.wall_between(tsp_serve::Stage::Leased, tsp_serve::Stage::Done)
        )?);
    }
    Ok(st)
}

fn layers(
    seconds: f64,
    dir: &Path,
    jobs: &[Job],
    main: &Load,
    report: &mut Report,
) -> Result<(), String> {
    let st = read_stages(dir, &main.seen, jobs.len())?;
    let submit: Vec<f64> = main.seen.iter().map(|s| s.submit_ms).collect();
    let late: Vec<f64> = jobs
        .iter()
        .zip(&main.seen)
        .map(|(j, s)| (s.sent - j.due) * 1e3)
        .collect();
    // Client latency the generator's lateness and the service's own
    // stamps (received → terminal) leave unexplained: HTTP transit and
    // the poller's detection delay.
    let unexplained: Vec<f64> = main
        .seen
        .iter()
        .zip(&st.service)
        .map(|(s, service_ms)| s.observed.unwrap_or(f64::INFINITY) - s.sent - service_ms / 1e3)
        .collect();
    let drain = drain_seconds(jobs, &main.seen);
    let held_s: f64 = st.held.iter().sum::<f64>() / 1e3;

    // The same schedule's first half against a service without the
    // telemetry registry and profiler attached.
    let half = jobs.iter().filter(|j| j.due < seconds / 2.0).count().max(1);
    let bare_dir = artifacts_dir("bare");
    let bare = (|| {
        let server = boot(&bare_dir, false)?;
        warm_up(server.addr())?;
        let load = drive(server.addr(), &jobs[..half]);
        server.shutdown();
        // Detaching the sinks must not change a single tour or modeled
        // second.
        for (i, (on, off)) in main.seen.iter().zip(&load.seen).enumerate() {
            let (on, off) = (on.status.as_ref(), off.status.as_ref());
            let same = on.zip(off).is_some_and(|(a, b)| {
                b.state == JobState::Done
                    && a.tour == b.tour
                    && a.modeled_seconds.map(f64::to_bits) == b.modeled_seconds.map(f64::to_bits)
            });
            if !same {
                return Err(format!("job {i}: sinks-off result differs"));
            }
        }
        read_stages(&bare_dir, &load.seen, half)
    })();
    remove_dir(&bare_dir);
    let bare = bare?;
    let with_sinks = median(&st.work[..half]);

    report.layer("http.submit_ms_p50", median(&submit));
    report.layer("http.poll_ms_p50", median(&main.poll_ms));
    report.layer(
        "http.polls_per_job",
        main.poll_ms.len() as f64 / jobs.len() as f64,
    );
    report.layer(
        "admission.rejected",
        main.seen.iter().filter(|s| s.rejected).count() as f64,
    );
    report.layer("queue.wait_ms_p50", median(&st.queue));
    report.layer("queue.wait_ms_tail", tail(&st.queue).0);
    report.layer("pool.lease_wait_ms_p50", median(&st.lease));
    report.layer(
        "pool.occupancy",
        held_s / ((DEVICES * STREAMS) as f64 * drain),
    );
    report.layer("serve.solve_ms_p50", median(&st.solve));
    report.layer("serve.artifacts_ms_p50", median(&st.artifacts));
    report.layer(
        "observe.sinks_overhead_pct",
        100.0 * (with_sinks / median(&bare.work) - 1.0),
    );
    report.layer("loadgen.late_ms_tail", tail(&late).0);
    report.layer("trace.unattributed_s", median(&unexplained));
    report.note(format!(
        "lease to done p50 {with_sinks:.3} ms with sinks, {:.3} ms without ({} jobs); \
         late p99 {:.3} ms",
        median(&bare.work),
        half,
        percentile(&late, 99.0)
    ));
    Ok(())
}
