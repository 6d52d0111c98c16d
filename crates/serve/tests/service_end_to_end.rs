//! End-to-end acceptance for the solve service, over real HTTP.
//!
//! * `POST /v1/solve` → `GET /v1/jobs/{id}` round-trips a TSPLIB and
//!   a JSON-coords instance with a tour **bit-identical** to the same
//!   request run through `Solver::builder()` directly.
//! * Quota-exceeded and past-deadline submissions get typed 429/503
//!   `ApiError`s and never reach a device lane.
//! * The ledger records exactly one allocation per device (the arena)
//!   no matter how many jobs ran, and balances at shutdown.
//! * A job killed mid-solve by its deadline still leaves a journal
//!   file that parses line-for-line (flush-on-drop writers).

use std::sync::Arc;
use std::time::Duration;
use tsp::prelude::*;
use tsp_serve::api::{ErrorCode, FromRequest, JobState, JobStatus, SolveRequest, SolveResponse};
use tsp_serve::{ServeServer, ServiceConfig, SolveService};
use tsp_telemetry::http_request;

fn start_server(cfg: ServiceConfig) -> ServeServer {
    let service = SolveService::start(cfg, Telemetry::attached(), Profiler::attached()).unwrap();
    ServeServer::spawn("127.0.0.1:0", service).unwrap()
}

fn post_solve(server: &ServeServer, req: &SolveRequest) -> (u16, String) {
    let body = req.to_json().to_string();
    let (status, _, body) = http_request(
        server.addr(),
        "POST",
        "/v1/solve",
        "application/json",
        &body,
    )
    .unwrap();
    (status, body)
}

fn await_terminal(server: &ServeServer, job_id: &str) -> JobStatus {
    for _ in 0..600 {
        let (status, _, body) =
            http_request(server.addr(), "GET", &format!("/v1/jobs/{job_id}"), "", "").unwrap();
        assert_eq!(status, 200, "{body}");
        let job = JobStatus::parse(&body).unwrap();
        if job.state.is_terminal() {
            return job;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("job {job_id} never reached a terminal state");
}

fn round_trip(server: &ServeServer, req: &SolveRequest) -> JobStatus {
    let (status, body) = post_solve(server, req);
    assert_eq!(status, 202, "{body}");
    let resp = SolveResponse::parse(&body).unwrap();
    assert_eq!(resp.state, JobState::Queued);
    let job = await_terminal(server, &resp.job_id);
    assert_eq!(job.state, JobState::Done, "{:?}", job.error);
    job
}

#[test]
fn alerts_route_dispatch_is_method_and_path_exact() {
    let server = start_server(ServiceConfig::default().with_devices(1).with_streams(1));

    // GET answers the typed census (zero rules firing on a healthy
    // idle service).
    let (status, _, body) = http_request(server.addr(), "GET", "/v1/alerts", "", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let snap = tsp_serve::api::AlertsSnapshot::parse(&body).unwrap();
    assert_eq!(snap.firing, 0);
    assert!(snap.rules >= 5, "built-in rules missing: {}", snap.rules);

    // Wrong method on a known path is 405, not 404.
    let (status, _, _) = http_request(server.addr(), "POST", "/v1/alerts", "", "").unwrap();
    assert_eq!(status, 405);
    let (status, _, _) = http_request(server.addr(), "DELETE", "/v1/alerts", "", "").unwrap();
    assert_eq!(status, 405);

    // Unknown subpaths stay 404.
    let (status, _, _) = http_request(server.addr(), "GET", "/v1/alerts/0", "", "").unwrap();
    assert_eq!(status, 404);

    // /v1/ops carries the lane-health rows for the same lanes.
    let (status, _, body) = http_request(server.addr(), "GET", "/v1/ops", "", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let ops = tsp_serve::api::OpsSnapshot::parse(&body).unwrap();
    assert_eq!(ops.lane_health.len() as u64, ops.lanes);
    assert!(ops.lane_health.iter().all(|l| !l.busy));

    let (_service, _reports) = server.shutdown();
}

#[test]
fn served_solves_are_bit_identical_to_direct_facade_runs() {
    let server = start_server(ServiceConfig::default());

    // TSPLIB payload, via the tsplib writer so the text is canonical.
    let inst = tsp::tsplib::generate(
        "served",
        96,
        tsp::tsplib::Style::Clustered { clusters: 6 },
        9,
    );
    let tsplib_req = SolveRequest::tsplib(tsp::tsplib::writer::write(&inst))
        .with_ils_iterations(4)
        .with_seed(23);
    let served = round_trip(&server, &tsplib_req);

    let direct = SolverBuilder::from_request(&tsplib_req)
        .unwrap()
        .build()
        .run(&tsplib_req.instance().unwrap())
        .unwrap();
    assert_eq!(served.length, Some(direct.length));
    assert_eq!(served.tour.as_deref(), Some(direct.tour.as_slice()));
    assert_eq!(served.run_id.as_deref(), Some(direct.run_id.as_str()));
    assert_eq!(served.modeled_seconds, Some(direct.modeled_seconds()));

    // JSON-coords payload, plain descent.
    let coords: Vec<(f64, f64)> = inst
        .points()
        .iter()
        .map(|p| (p.x as f64, p.y as f64))
        .collect();
    let coords_req = SolveRequest::coords("served-coords", coords);
    let served = round_trip(&server, &coords_req);
    let direct = SolverBuilder::from_request(&coords_req)
        .unwrap()
        .build()
        .run(&coords_req.instance().unwrap())
        .unwrap();
    assert_eq!(served.length, Some(direct.length));
    assert_eq!(served.tour.as_deref(), Some(direct.tour.as_slice()));

    let (_service, _reports) = server.shutdown();
}

#[test]
fn rejections_are_typed_and_never_touch_a_device_lane() {
    let server = start_server(
        ServiceConfig::default()
            .with_devices(1)
            .with_streams(1)
            .with_per_tenant_quota(1)
            .with_queue_capacity(1),
    );
    let service = server.service().clone();

    // Park the single lane on a long job.
    let slow = SolveRequest::coords(
        "slow",
        (0..64)
            .map(|i| ((i % 8) as f64, (i / 8) as f64 + 0.1 * i as f64))
            .collect(),
    )
    .with_tenant("hog")
    .with_ils_iterations(500_000);
    let (status, body) = post_solve(&server, &slow);
    assert_eq!(status, 202, "{body}");
    let slow_id = SolveResponse::parse(&body).unwrap().job_id;
    // Wait until the worker has popped the ticket (job Running) so the
    // queue-capacity probes below see a deterministic depth of zero.
    for _ in 0..600 {
        let (_, _, body) =
            http_request(server.addr(), "GET", &format!("/v1/jobs/{slow_id}"), "", "").unwrap();
        if JobStatus::parse(&body).unwrap().state == JobState::Running {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Same tenant again: over quota → 429, typed, Retry-After.
    let (status, body) = post_solve(&server, &slow);
    assert_eq!(status, 429, "{body}");
    let err = tsp_serve::ApiError::from_json(&tsp_trace::json::parse(&body).unwrap()).unwrap();
    assert_eq!(err.code, ErrorCode::QuotaExceeded);
    assert!(err.retry_after_ms.is_some());

    // Fill the queue from another tenant, then overflow it → 503.
    let quick = SolveRequest::coords("q", vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
    let (status, _) = post_solve(&server, &quick.clone().with_tenant("t2"));
    assert_eq!(status, 202);
    let (status, body) = post_solve(&server, &quick.clone().with_tenant("t3"));
    assert_eq!(status, 503, "{body}");
    let err = tsp_serve::ApiError::from_json(&tsp_trace::json::parse(&body).unwrap()).unwrap();
    assert_eq!(err.code, ErrorCode::QueueFull);

    // Already-past deadline → 503 DeadlineExceeded, no job minted.
    let (status, body) = post_solve(
        &server,
        &quick.clone().with_tenant("t4").with_deadline_ms(0),
    );
    assert_eq!(status, 503, "{body}");
    let err = tsp_serve::ApiError::from_json(&tsp_trace::json::parse(&body).unwrap()).unwrap();
    assert_eq!(err.code, ErrorCode::DeadlineExceeded);

    // Malformed body → 400 typed.
    let (status, _, body) = http_request(
        server.addr(),
        "POST",
        "/v1/solve",
        "application/json",
        r#"{"tsplib":"x","coords":[[0,0]]}"#,
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");

    // Unknown job → 404.
    let (status, _, _) = http_request(server.addr(), "GET", "/v1/jobs/nope", "", "").unwrap();
    assert_eq!(status, 404);

    // Cancel the hog so shutdown doesn't wait 500k iterations.
    let (status, _, body) = http_request(
        server.addr(),
        "DELETE",
        &format!("/v1/jobs/{slow_id}"),
        "",
        "",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let cancelled = await_terminal(&server, &slow_id);
    assert_eq!(cancelled.state, JobState::Cancelled);

    let (_svc, _) = server.shutdown();
    // The rejected submissions must not have occupied quota slots.
    assert_eq!(service.queue_depth(), 0);
}

#[test]
fn non_finite_coordinates_get_a_400_and_mint_no_job() {
    let server = start_server(ServiceConfig::default().with_devices(1).with_streams(1));
    let service = server.service().clone();
    // 1e39 is a valid JSON number and a finite f64, but infinite as
    // the f32 a city stores, in both payload kinds.
    let coords = SolveRequest::coords(
        "overflow",
        vec![(0.0, 0.0), (1.0, 0.0), (1e39, 1.0), (0.0, 1.0)],
    );
    let tsplib = SolveRequest::tsplib(
        "NAME: overflow\nTYPE: TSP\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\n\
         NODE_COORD_SECTION\n1 0 0\n2 1 0\n3 1e39 1\n4 0 1\nEOF\n",
    );
    for req in [coords, tsplib] {
        let (status, body) = post_solve(&server, &req);
        assert_eq!(status, 400, "{body}");
        let err = tsp_serve::ApiError::from_json(&tsp_trace::json::parse(&body).unwrap()).unwrap();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(
            err.message.contains("city 2 has a non-finite coordinate"),
            "{}",
            err.message
        );
    }
    assert!(service.ops_snapshot().jobs.is_empty(), "a job was minted");
    let (_svc, _) = server.shutdown();
    assert_eq!(service.queue_depth(), 0);
}

#[test]
fn ledger_shows_only_the_arena_allocations_and_balances() {
    let telemetry = Telemetry::attached();
    let prof = Profiler::attached();
    let service = SolveService::start(
        ServiceConfig::default().with_devices(2).with_streams(2),
        telemetry,
        prof.clone(),
    )
    .unwrap();

    let req = SolveRequest::coords(
        "ledger",
        (0..48)
            .map(|i| ((i % 7) as f64 * 3.0, (i / 7) as f64 * 2.0 + 0.01 * i as f64))
            .collect(),
    )
    .with_ils_iterations(2);
    let ids: Vec<String> = (0..8)
        .map(|i| service.submit(req.clone().with_seed(i)).unwrap().job_id)
        .collect();
    for id in &ids {
        for _ in 0..600 {
            if service.status(id).unwrap().state.is_terminal() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(service.status(id).unwrap().state, JobState::Done);
    }

    // Warm pool, jobs in flight or done: exactly one alloc per device
    // (the arena install), zero per-request allocations.
    let mid = prof.memory_report();
    assert_eq!(mid.devices.len(), 2);
    for device in &mid.devices {
        assert_eq!(device.allocs, 1, "only the arena may allocate");
        assert_eq!(device.frees, 0);
    }

    service.shutdown();
    let end = prof.memory_report();
    assert!(end.balanced(), "arena teardown balances the ledger");
    for device in &end.devices {
        assert_eq!((device.allocs, device.frees), (1, 1));
    }
}

#[test]
fn deadline_killed_job_leaves_a_parseable_journal() {
    let dir = std::env::temp_dir().join(format!(
        "tsp-serve-deadline-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let service = SolveService::start(
        ServiceConfig::default()
            .with_devices(1)
            .with_streams(1)
            .with_artifacts_dir(&dir),
        Telemetry::attached(),
        Profiler::attached(),
    )
    .unwrap();

    // A deadline far shorter than the ILS budget: the token trips
    // mid-solve and the job lands in Expired with a typed error.
    let req = SolveRequest::coords(
        "deadline",
        (0..80)
            .map(|i| ((i % 9) as f64, (i / 9) as f64 + 0.05 * i as f64))
            .collect(),
    )
    .with_ils_iterations(100_000_000)
    .with_deadline_ms(150);
    let job_id = service.submit(req).unwrap().job_id;
    let status = loop {
        let status = service.status(&job_id).unwrap();
        if status.state.is_terminal() {
            break status;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status.state, JobState::Expired);
    let err = status.error.expect("expired jobs carry a typed error");
    assert_eq!(err.code, ErrorCode::DeadlineExceeded);

    // The journal the killed job left behind parses line-for-line.
    let journal_path = dir.join(&job_id).join("journal.jsonl");
    let text = std::fs::read_to_string(&journal_path).unwrap();
    assert!(text.ends_with('\n'), "no truncated trailing line");
    let records = tsp_telemetry::parse_jsonl(&text).unwrap();
    assert!(!records.is_empty(), "the solve journaled before the kill");
    // And the manifest next to it indexes the artifact set.
    let manifest = tsp_prof::Manifest::parse(
        &std::fs::read_to_string(dir.join(&job_id).join("manifest.json")).unwrap(),
    )
    .unwrap();
    assert_eq!(manifest.path_of("journal"), Some("journal.jsonl"));

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelling_a_queued_job_is_immediate_and_idempotent() {
    let service = Arc::new(
        SolveService::start(
            ServiceConfig::default().with_devices(1).with_streams(1),
            Telemetry::detached(),
            Profiler::detached(),
        )
        .unwrap(),
    );
    // Occupy the lane, then queue a second job and cancel it while
    // it is still queued.
    let slow = SolveRequest::coords(
        "slow",
        (0..64)
            .map(|i| ((i % 8) as f64, (i / 8) as f64 + 0.1 * i as f64))
            .collect(),
    )
    .with_ils_iterations(300_000);
    let slow_id = service.submit(slow).unwrap().job_id;
    let quick = SolveRequest::coords("quick", vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
    let queued_id = service.submit(quick).unwrap().job_id;

    let cancelled = service.cancel(&queued_id).unwrap();
    assert_eq!(cancelled.state, JobState::Cancelled);
    // Idempotent on terminal jobs.
    assert_eq!(
        service.cancel(&queued_id).unwrap().state,
        JobState::Cancelled
    );

    service.cancel(&slow_id).unwrap();
    service.shutdown();
    assert_eq!(service.status(&slow_id).unwrap().state, JobState::Cancelled);
    assert_eq!(
        service.status(&queued_id).unwrap().state,
        JobState::Cancelled
    );
}
