//! The solve service proper: jobs, workers, deadlines, artifacts.
//!
//! One worker thread per pool lane pops tickets off the
//! [`AdmissionQueue`], re-checks cancellation/deadline **before**
//! leasing a slot (a past-deadline job never touches a device lane),
//! then drives [`tsp::Solver::run_on`] on the leased `(device, stream)`
//! pair. Terminal states credit the tenant's quota back and, when an
//! artifacts directory is configured, leave a `tsp-inspect`-readable
//! manifest (`manifest.json` + `journal.jsonl` + `run.folded` +
//! `memory.json`) keyed by the run's deterministic `run_id`.
//!
//! ## Fleet health
//!
//! Each worker stamps a **heartbeat** between span stages; a watchdog
//! (a background thread on [`AlertConfig::watchdog_interval_ms`], or
//! explicit [`SolveService::watchdog_tick`] calls when that is `0`)
//! derives health gauges from the heartbeats and queue state —
//! `tsp_serve_lane_stall_seconds{lane}`, `tsp_serve_queue_age_seconds`,
//! `tsp_serve_tenant_quota_ratio{tenant}` — then runs the
//! [`AlertEngine`] over the registry. Every state transition is
//! appended to `alerts.jsonl` under the artifacts dir and the live
//! census is served on `GET /v1/alerts`. All of it is observational:
//! alerting on or off changes neither tour bytes nor modeled seconds.

use crate::admission::{AdmissionQueue, Ticket};
use crate::api::{
    AlertsSnapshot, ApiError, ErrorCode, FromRequest, JobState, JobStatus, OpsAlert, OpsJob,
    OpsLane, OpsLatency, OpsSnapshot, SolveRequest, SolveResponse,
};
use crate::pool::SlotPool;
use crate::span::{RequestSpan, Stage};
use gpu_sim::{DeviceSpec, SimError, StreamReport};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsp::twoopt::Observer;
use tsp::{Solution, SolverBuilder};
use tsp_core::CancelToken;
use tsp_prof::{Manifest, Profiler};
use tsp_telemetry::{
    AlertEngine, AlertRule, AlertTransition, Cmp, Histogram, Journal, JournalWriter,
    RollingQuantiles, Selector, Severity, Telemetry, SECONDS_BUCKETS,
};
use tsp_trace::json::{self, Json};
use tsp_trace::{chrome_trace_with_ids, Recorder};

/// A zero-argument constructor for a named device spec.
type SpecCtor = fn() -> DeviceSpec;

/// The device specs a config file can name, keyed by their stable
/// config spelling.
const KNOWN_SPECS: [(&str, SpecCtor); 4] = [
    ("gtx_680_cuda", gpu_sim::spec::gtx_680_cuda),
    ("gtx_680_opencl", gpu_sim::spec::gtx_680_opencl),
    ("radeon_7970", gpu_sim::spec::radeon_7970),
    ("radeon_7970_ghz", gpu_sim::spec::radeon_7970_ghz),
];

/// Fleet-health knobs: the built-in alert rules and the watchdog that
/// evaluates them. All thresholds are wall seconds on the service's
/// own clock (seconds since boot).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AlertConfig {
    /// Master switch; `false` removes the watchdog and every rule.
    pub enabled: bool,
    /// Background watchdog period; `0` spawns no thread — the owner
    /// drives evaluation with [`SolveService::watchdog_tick`]
    /// (deterministic tests, smoke phases).
    pub watchdog_interval_ms: u64,
    /// `LaneStalled` (critical): a busy lane without a heartbeat for
    /// longer than this.
    pub stall_seconds: f64,
    /// `QueueAgeSlo` (warning): the oldest queued ticket has waited
    /// longer than this.
    pub queue_age_slo_seconds: f64,
    /// `TenantStarved` (warning) dwell: a tenant pegged at its full
    /// quota for this long.
    pub starvation_for_seconds: f64,
    /// `LatencyP99Burn` (critical): the rolling end-to-end p99 above
    /// this...
    pub p99_slo_seconds: f64,
    /// ...for this long.
    pub p99_for_seconds: f64,
    /// `RejectionSpike` (critical): the error budget — tolerated
    /// rejected/submitted ratio.
    pub rejection_budget: f64,
    /// Long burn window (seconds).
    pub rejection_long_seconds: f64,
    /// Short burn window (seconds); recovery is read off this one.
    pub rejection_short_seconds: f64,
    /// Burn factor both windows must exceed.
    pub rejection_factor: f64,
    /// Caller-defined rules appended after the built-ins.
    pub extra_rules: Vec<AlertRule>,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig {
            enabled: true,
            watchdog_interval_ms: 250,
            stall_seconds: 30.0,
            queue_age_slo_seconds: 30.0,
            starvation_for_seconds: 5.0,
            p99_slo_seconds: 60.0,
            p99_for_seconds: 5.0,
            rejection_budget: 0.25,
            rejection_long_seconds: 60.0,
            rejection_short_seconds: 15.0,
            rejection_factor: 1.0,
            extra_rules: Vec::new(),
        }
    }
}

impl AlertConfig {
    /// No watchdog, no rules.
    pub fn disabled() -> AlertConfig {
        AlertConfig {
            enabled: false,
            ..AlertConfig::default()
        }
    }

    /// Set the background watchdog period (`0` = manual ticks only).
    pub fn with_watchdog_interval_ms(mut self, ms: u64) -> Self {
        self.watchdog_interval_ms = ms;
        self
    }

    /// Set the `LaneStalled` threshold.
    pub fn with_stall_seconds(mut self, seconds: f64) -> Self {
        self.stall_seconds = seconds;
        self
    }

    /// Set the `QueueAgeSlo` threshold.
    pub fn with_queue_age_slo_seconds(mut self, seconds: f64) -> Self {
        self.queue_age_slo_seconds = seconds;
        self
    }

    /// Set the `TenantStarved` dwell.
    pub fn with_starvation_for_seconds(mut self, seconds: f64) -> Self {
        self.starvation_for_seconds = seconds;
        self
    }

    /// Set the `LatencyP99Burn` threshold and dwell.
    pub fn with_p99_slo(mut self, slo_seconds: f64, for_seconds: f64) -> Self {
        self.p99_slo_seconds = slo_seconds;
        self.p99_for_seconds = for_seconds;
        self
    }

    /// Set the `RejectionSpike` budget and windows.
    pub fn with_rejection_burn(
        mut self,
        budget: f64,
        long_seconds: f64,
        short_seconds: f64,
        factor: f64,
    ) -> Self {
        self.rejection_budget = budget;
        self.rejection_long_seconds = long_seconds;
        self.rejection_short_seconds = short_seconds;
        self.rejection_factor = factor;
        self
    }

    /// Append a caller-defined rule after the built-ins.
    pub fn with_rule(mut self, rule: AlertRule) -> Self {
        self.extra_rules.push(rule);
        self
    }

    /// Serialize for a config file.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("enabled", Json::from(self.enabled))
            .set(
                "watchdog_interval_ms",
                Json::from(self.watchdog_interval_ms),
            )
            .set("stall_seconds", Json::from(self.stall_seconds))
            .set(
                "queue_age_slo_seconds",
                Json::from(self.queue_age_slo_seconds),
            )
            .set(
                "starvation_for_seconds",
                Json::from(self.starvation_for_seconds),
            )
            .set("p99_slo_seconds", Json::from(self.p99_slo_seconds))
            .set("p99_for_seconds", Json::from(self.p99_for_seconds))
            .set("rejection_budget", Json::from(self.rejection_budget))
            .set(
                "rejection_long_seconds",
                Json::from(self.rejection_long_seconds),
            )
            .set(
                "rejection_short_seconds",
                Json::from(self.rejection_short_seconds),
            )
            .set("rejection_factor", Json::from(self.rejection_factor));
        if !self.extra_rules.is_empty() {
            obj.set(
                "extra_rules",
                Json::Arr(self.extra_rules.iter().map(AlertRule::to_json).collect()),
            );
        }
        obj
    }

    /// Parse a config-file document; absent fields take their
    /// defaults, unknown members are ignored.
    pub fn from_json(doc: &Json) -> Result<AlertConfig, String> {
        let mut cfg = AlertConfig::default();
        let num = |key: &str, into: &mut f64| {
            if let Some(v) = doc.get(key).and_then(Json::as_f64) {
                *into = v;
            }
        };
        if let Some(v) = doc.get("enabled").and_then(Json::as_bool) {
            cfg.enabled = v;
        }
        if let Some(v) = doc.get("watchdog_interval_ms").and_then(Json::as_f64) {
            cfg.watchdog_interval_ms = v as u64;
        }
        num("stall_seconds", &mut cfg.stall_seconds);
        num("queue_age_slo_seconds", &mut cfg.queue_age_slo_seconds);
        num("starvation_for_seconds", &mut cfg.starvation_for_seconds);
        num("p99_slo_seconds", &mut cfg.p99_slo_seconds);
        num("p99_for_seconds", &mut cfg.p99_for_seconds);
        num("rejection_budget", &mut cfg.rejection_budget);
        num("rejection_long_seconds", &mut cfg.rejection_long_seconds);
        num("rejection_short_seconds", &mut cfg.rejection_short_seconds);
        num("rejection_factor", &mut cfg.rejection_factor);
        for rule in doc
            .get("extra_rules")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            cfg.extra_rules.push(AlertRule::from_json(rule)?);
        }
        Ok(cfg)
    }
}

/// Boot-time service configuration.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Device spec for every pooled device.
    pub spec: DeviceSpec,
    /// Simulated devices in the pool.
    pub devices: usize,
    /// Streams per device; `devices × streams` lanes = concurrent solves.
    pub streams: usize,
    /// Arena bytes budgeted per lane.
    pub slot_bytes: u64,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Live (queued + running) jobs allowed per tenant.
    pub per_tenant_quota: usize,
    /// Largest instance accepted.
    pub max_cities: usize,
    /// Per-job artifact directory (`<dir>/<job_id>/manifest.json`…);
    /// `None` keeps everything in memory.
    pub artifacts_dir: Option<PathBuf>,
    /// Stamp a [`RequestSpan`] lifecycle timeline on every job (and,
    /// with an artifacts dir, persist it as `request.json` plus a
    /// trace-tagged `trace.json`). Observational only: turning this
    /// off changes neither tour bytes nor modeled seconds.
    pub request_spans: bool,
    /// Append one structured JSONL access-log line per HTTP request to
    /// this file (served by [`crate::server::ServeServer`]).
    pub access_log: Option<PathBuf>,
    /// Fleet-health rules and watchdog cadence.
    pub alerts: AlertConfig,
    /// Fault-injection hook for tests and the smoke's fault phase:
    /// `(tenant, millis)` makes every worker running that tenant's
    /// jobs hold its lane for `millis` **without heartbeating** right
    /// after the `Solving` stamp, so the lane-stall signal grows while
    /// the solve itself stays untouched.
    pub injected_stall: Option<(String, u64)>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            spec: gpu_sim::spec::gtx_680_cuda(),
            devices: 2,
            streams: 2,
            slot_bytes: 32 << 20,
            queue_capacity: 256,
            per_tenant_quota: 16,
            max_cities: 4096,
            artifacts_dir: None,
            request_spans: true,
            access_log: None,
            alerts: AlertConfig::default(),
            injected_stall: None,
        }
    }
}

impl ServiceConfig {
    /// Set the device spec used for every pooled device.
    pub fn with_spec(mut self, spec: DeviceSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Set the simulated device count.
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices;
        self
    }

    /// Set the streams per device.
    pub fn with_streams(mut self, streams: usize) -> Self {
        self.streams = streams;
        self
    }

    /// Set the arena bytes budgeted per lane.
    pub fn with_slot_bytes(mut self, bytes: u64) -> Self {
        self.slot_bytes = bytes;
        self
    }

    /// Set the admission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the per-tenant live-job quota.
    pub fn with_per_tenant_quota(mut self, quota: usize) -> Self {
        self.per_tenant_quota = quota;
        self
    }

    /// Set the largest accepted instance size.
    pub fn with_max_cities(mut self, max_cities: usize) -> Self {
        self.max_cities = max_cities;
        self
    }

    /// Write per-job artifacts (manifest, journal, flamegraph, ledger)
    /// under `dir/<job_id>/`.
    pub fn with_artifacts_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifacts_dir = Some(dir.into());
        self
    }

    /// Enable or disable per-request lifecycle spans (on by default).
    pub fn with_request_spans(mut self, enabled: bool) -> Self {
        self.request_spans = enabled;
        self
    }

    /// Append one JSONL access-log line per HTTP request to `path`.
    pub fn with_access_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.access_log = Some(path.into());
        self
    }

    /// Set the fleet-health configuration.
    pub fn with_alerts(mut self, alerts: AlertConfig) -> Self {
        self.alerts = alerts;
        self
    }

    /// Inject an artificial lane stall (see [`ServiceConfig::injected_stall`]).
    pub fn with_injected_stall(mut self, tenant: impl Into<String>, millis: u64) -> Self {
        self.injected_stall = Some((tenant.into(), millis));
        self
    }

    /// Serialize for a config file. The device spec is written by its
    /// stable config name (`gtx_680_cuda`, …); a spec matching no
    /// known digest is omitted and parses back as the default. The
    /// `injected_stall` test hook never crosses the file boundary.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        if let Some((name, _)) = KNOWN_SPECS
            .iter()
            .find(|(_, spec)| spec().digest() == self.spec.digest())
        {
            obj.set("spec", Json::from(*name));
        }
        obj.set("devices", Json::from(self.devices))
            .set("streams", Json::from(self.streams))
            .set("slot_bytes", Json::from(self.slot_bytes))
            .set("queue_capacity", Json::from(self.queue_capacity))
            .set("per_tenant_quota", Json::from(self.per_tenant_quota))
            .set("max_cities", Json::from(self.max_cities));
        if let Some(dir) = &self.artifacts_dir {
            obj.set("artifacts_dir", Json::from(dir.display().to_string()));
        }
        obj.set("request_spans", Json::from(self.request_spans));
        if let Some(path) = &self.access_log {
            obj.set("access_log", Json::from(path.display().to_string()));
        }
        obj.set("alerts", self.alerts.to_json());
        obj
    }

    /// Parse a config-file document; absent fields take their
    /// defaults, unknown members are ignored.
    pub fn from_json(doc: &Json) -> Result<ServiceConfig, String> {
        let mut cfg = ServiceConfig::default();
        if let Some(name) = doc.get("spec").and_then(Json::as_str) {
            cfg.spec = KNOWN_SPECS
                .iter()
                .find(|(known, _)| *known == name)
                .map(|(_, spec)| spec())
                .ok_or_else(|| {
                    let known: Vec<&str> = KNOWN_SPECS.iter().map(|&(n, _)| n).collect();
                    format!("unknown device spec {name:?} (known: {})", known.join(", "))
                })?;
        }
        let usize_field = |key: &str, into: &mut usize| {
            if let Some(v) = doc.get(key).and_then(Json::as_f64) {
                *into = v as usize;
            }
        };
        usize_field("devices", &mut cfg.devices);
        usize_field("streams", &mut cfg.streams);
        usize_field("queue_capacity", &mut cfg.queue_capacity);
        usize_field("per_tenant_quota", &mut cfg.per_tenant_quota);
        usize_field("max_cities", &mut cfg.max_cities);
        if let Some(v) = doc.get("slot_bytes").and_then(Json::as_f64) {
            cfg.slot_bytes = v as u64;
        }
        if let Some(dir) = doc.get("artifacts_dir").and_then(Json::as_str) {
            cfg.artifacts_dir = Some(PathBuf::from(dir));
        }
        if let Some(v) = doc.get("request_spans").and_then(Json::as_bool) {
            cfg.request_spans = v;
        }
        if let Some(path) = doc.get("access_log").and_then(Json::as_str) {
            cfg.access_log = Some(PathBuf::from(path));
        }
        if let Some(alerts) = doc.get("alerts") {
            cfg.alerts = AlertConfig::from_json(alerts)?;
        }
        Ok(cfg)
    }

    /// Parse a config-file's text.
    pub fn parse(text: &str) -> Result<ServiceConfig, String> {
        let doc = json::parse(text).map_err(|e| format!("config: {e:?}"))?;
        ServiceConfig::from_json(&doc)
    }
}

struct JobEntry {
    status: JobStatus,
    request: SolveRequest,
    /// Base token; `DELETE` arms the shared flag, workers derive the
    /// deadline-carrying copy from it.
    cancel: CancelToken,
    deadline: Option<Instant>,
    /// When the request reached the service; every span stamp is wall
    /// time relative to this.
    received: Instant,
    /// The lifecycle timeline (`None` when spans are configured off).
    span: Option<RequestSpan>,
}

/// The stage names fed into the rolling latency estimators, in the
/// order they are exported.
const LATENCY_STAGES: [&str; 4] = ["queue_wait", "lease_wait", "solve", "end_to_end"];

const LATENCY_HELP: &str = "Rolling latency quantile estimates per request stage";

/// One worker lane's heartbeat ledger, written by the worker between
/// span stages and read by the watchdog.
#[derive(Debug, Clone)]
struct LaneHealth {
    busy: bool,
    job_id: Option<String>,
    /// Service-clock seconds of the last heartbeat.
    last_beat: f64,
}

/// The alert engine and its journal — present only when alerting is
/// enabled *and* telemetry is attached (the engine reads the registry).
struct Health {
    engine: Mutex<AlertEngine>,
    /// `alerts.jsonl` under the artifacts dir, when configured.
    path: Option<PathBuf>,
    /// Every transition, in evaluation order (mirrors the journal).
    transitions: Mutex<Vec<AlertTransition>>,
    evaluations: AtomicU64,
}

struct Inner {
    queue: AdmissionQueue,
    slots: SlotPool,
    jobs: Mutex<HashMap<String, JobEntry>>,
    telemetry: Telemetry,
    prof: Profiler,
    latency: Option<Histogram>,
    artifacts_dir: Option<PathBuf>,
    max_cities: usize,
    request_spans: bool,
    access_log: Option<PathBuf>,
    /// One P² estimator set per [`LATENCY_STAGES`] entry.
    stage_latency: Mutex<Vec<(&'static str, RollingQuantiles)>>,
    /// Rejection totals per typed error code, ascending by code.
    rejections: Mutex<BTreeMap<&'static str, u64>>,
    /// Service boot instant; every health signal is seconds since it.
    started: Instant,
    /// One heartbeat ledger per worker lane.
    lane_health: Mutex<Vec<LaneHealth>>,
    /// Alert engine + journal, when enabled.
    health: Option<Health>,
    per_tenant_quota: usize,
    /// Tenants ever seen live — departed ones get their quota-ratio
    /// gauge zeroed instead of left dangling at its last value.
    seen_tenants: Mutex<BTreeSet<String>>,
    /// Stops the background watchdog thread.
    stopping: AtomicBool,
    /// Fault-injection: `(tenant, millis)` lane hold without beats.
    injected_stall: Option<(String, u64)>,
}

impl Inner {
    /// Seconds since boot — the clock every health signal and alert
    /// evaluation shares.
    fn now_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Stamp a heartbeat on `lane`.
    fn beat(&self, lane: usize) {
        let now = self.now_seconds();
        self.lane_health.lock().unwrap()[lane].last_beat = now;
    }

    /// Mark `lane` busy on `job_id` (fresh heartbeat included).
    fn lane_busy(&self, lane: usize, job_id: &str) {
        let now = self.now_seconds();
        let mut lanes = self.lane_health.lock().unwrap();
        lanes[lane].busy = true;
        lanes[lane].job_id = Some(job_id.to_string());
        lanes[lane].last_beat = now;
    }

    /// Mark `lane` idle again.
    fn lane_idle(&self, lane: usize) {
        let now = self.now_seconds();
        let mut lanes = self.lane_health.lock().unwrap();
        lanes[lane].busy = false;
        lanes[lane].job_id = None;
        lanes[lane].last_beat = now;
    }

    /// Current per-lane health rows (stall = heartbeat age while busy).
    fn lane_rows(&self) -> Vec<OpsLane> {
        let now = self.now_seconds();
        self.lane_health
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(lane, health)| {
                let mut row = OpsLane::new(lane as u64);
                row.busy = health.busy;
                row.job_id = health.job_id.clone();
                row.stall_seconds = if health.busy {
                    (now - health.last_beat).max(0.0)
                } else {
                    0.0
                };
                row
            })
            .collect()
    }

    /// One watchdog evaluation: refresh the derived health gauges from
    /// the heartbeat ledgers and queue state, then run the alert
    /// engine over the registry at the current service clock, journal
    /// any transitions, and mirror the census into `ALERTS` gauges.
    fn watchdog_tick(&self) {
        let Some(registry) = self.telemetry.registry() else {
            return;
        };
        let now = self.now_seconds();
        for row in self.lane_rows() {
            registry
                .gauge_with(
                    "tsp_serve_lane_stall_seconds",
                    "Heartbeat age of each busy worker lane (0 when idle)",
                    &[("lane", &row.lane.to_string())],
                )
                .set(row.stall_seconds);
        }
        registry
            .gauge(
                "tsp_serve_queue_age_seconds",
                "Wall seconds the oldest admitted ticket has waited",
            )
            .set(self.queue.oldest_wait_seconds());
        {
            let live = self.queue.live_tenants();
            let mut seen = self.seen_tenants.lock().unwrap();
            for (tenant, _) in &live {
                seen.insert(tenant.clone());
            }
            let quota = self.per_tenant_quota.max(1) as f64;
            for tenant in seen.iter() {
                let count = live
                    .iter()
                    .find(|(t, _)| t == tenant)
                    .map(|&(_, n)| n)
                    .unwrap_or(0);
                registry
                    .gauge_with(
                        "tsp_serve_tenant_quota_ratio",
                        "Live (queued + running) jobs over the per-tenant quota",
                        &[("tenant", tenant)],
                    )
                    .set(count as f64 / quota);
            }
        }
        let Some(health) = &self.health else { return };
        let transitions = {
            let mut engine = health.engine.lock().unwrap();
            let transitions = engine.evaluate(registry, now);
            engine.expose_into(registry);
            transitions
        };
        health.evaluations.fetch_add(1, Ordering::Relaxed);
        if transitions.is_empty() {
            return;
        }
        if let Some(path) = &health.path {
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                for tr in &transitions {
                    let _ = writeln!(file, "{}", tr.to_json());
                }
            }
        }
        health.transitions.lock().unwrap().extend(transitions);
    }

    /// Count one typed rejection: the `BTreeMap` backs `/v1/ops`, the
    /// labeled counter backs `/metrics`.
    fn count_rejection(&self, code: ErrorCode) {
        let name = code.as_str();
        *self.rejections.lock().unwrap().entry(name).or_insert(0) += 1;
        if let Some(registry) = self.telemetry.registry() {
            registry
                .counter_with(
                    "tsp_serve_rejections_total",
                    "Requests rejected, by typed error code",
                    &[("code", name)],
                )
                .inc();
        }
    }

    /// Fold one finished span into the rolling estimators and mirror
    /// the fresh p50/p95/p99 estimates onto the labeled gauges.
    fn observe_latency(&self, span: &RequestSpan) {
        let samples = [
            span.queue_wait_seconds(),
            span.lease_wait_seconds(),
            span.solve_seconds(),
            span.end_to_end_seconds(),
        ];
        let mut stages = self.stage_latency.lock().unwrap();
        for ((name, rolling), sample) in stages.iter_mut().zip(samples) {
            let Some(sample) = sample else { continue };
            rolling.observe(sample);
            if let Some(registry) = self.telemetry.registry() {
                for (q, estimate) in rolling.estimates() {
                    let label = quantile_label(q);
                    registry
                        .gauge_with(
                            "tsp_serve_latency_seconds",
                            LATENCY_HELP,
                            &[("stage", name), ("quantile", label)],
                        )
                        .set(estimate);
                }
            }
        }
    }
}

/// `0.5 → "p50"`; the label spelling for a quantile gauge.
fn quantile_label(q: f64) -> &'static str {
    match (q * 100.0).round() as u32 {
        50 => "p50",
        95 => "p95",
        99 => "p99",
        _ => "p",
    }
}

/// A running multi-tenant solve service. Submit with
/// [`SolveService::submit`], poll with [`SolveService::status`],
/// cancel with [`SolveService::cancel`]; mount it over HTTP with
/// [`crate::server::ServeServer`].
pub struct SolveService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
    seq: AtomicU64,
    reports: Mutex<Vec<StreamReport>>,
}

/// The built-in fleet-health rules for `cfg`, in a fixed order, with
/// the caller's extra rules appended.
fn built_in_rules(cfg: &AlertConfig) -> Vec<AlertRule> {
    let mut rules = vec![
        AlertRule::threshold(
            "LaneStalled",
            Severity::Critical,
            Selector::metric("tsp_serve_lane_stall_seconds"),
            Cmp::Gt,
            cfg.stall_seconds,
        ),
        AlertRule::threshold(
            "QueueAgeSlo",
            Severity::Warning,
            Selector::metric("tsp_serve_queue_age_seconds"),
            Cmp::Gt,
            cfg.queue_age_slo_seconds,
        ),
        AlertRule::threshold(
            "TenantStarved",
            Severity::Warning,
            Selector::metric("tsp_serve_tenant_quota_ratio"),
            Cmp::Ge,
            1.0,
        )
        .with_for_seconds(cfg.starvation_for_seconds),
        AlertRule::burn_rate(
            "RejectionSpike",
            Severity::Critical,
            Selector::metric("tsp_serve_rejections_total"),
            Selector::metric("tsp_serve_requests_total"),
            cfg.rejection_budget,
            cfg.rejection_long_seconds,
            cfg.rejection_short_seconds,
            cfg.rejection_factor,
        ),
        AlertRule::threshold(
            "LatencyP99Burn",
            Severity::Critical,
            Selector::metric("tsp_serve_latency_seconds")
                .with_label("stage", "end_to_end")
                .with_label("quantile", "p99"),
            Cmp::Gt,
            cfg.p99_slo_seconds,
        )
        .with_for_seconds(cfg.p99_for_seconds),
    ];
    rules.extend(cfg.extra_rules.iter().cloned());
    rules
}

impl std::fmt::Debug for SolveService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveService")
            .field("lanes", &self.inner.slots.lanes())
            .field("queue_depth", &self.inner.queue.depth())
            .finish()
    }
}

impl SolveService {
    /// Boot the service: warm the slot pool (arena per device), then
    /// start one worker per lane. `telemetry` receives the service
    /// gauges/histograms and every job's solver metrics; `prof` owns
    /// the device-memory ledger the arena guarantee is audited with.
    pub fn start(
        cfg: ServiceConfig,
        telemetry: Telemetry,
        prof: Profiler,
    ) -> Result<SolveService, SimError> {
        let slots = SlotPool::new(
            cfg.spec.clone(),
            cfg.devices,
            cfg.streams,
            cfg.slot_bytes,
            &telemetry,
            &prof,
        )?;
        let latency = telemetry.registry().map(|r| {
            r.histogram(
                "tsp_serve_solve_seconds",
                "End-to-end solve latency (slot acquired to terminal state)",
                SECONDS_BUCKETS,
            )
        });
        let health = (cfg.alerts.enabled && telemetry.registry().is_some()).then(|| {
            let mut engine = AlertEngine::new();
            for rule in built_in_rules(&cfg.alerts) {
                engine.push_rule(rule);
            }
            // The journal appends from the very first tick, which can
            // precede the first job artifact — the dir must exist now.
            // Touching the (possibly empty) journal makes a healthy
            // run inspectable too: `tsp-inspect alerts` renders the
            // empty file as "no alert transitions".
            if let Some(dir) = cfg.artifacts_dir.as_ref() {
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(dir.join("alerts.jsonl"));
            }
            Health {
                engine: Mutex::new(engine),
                path: cfg.artifacts_dir.as_ref().map(|d| d.join("alerts.jsonl")),
                transitions: Mutex::new(Vec::new()),
                evaluations: AtomicU64::new(0),
            }
        });
        let lanes = slots.lanes();
        let inner = Arc::new(Inner {
            queue: AdmissionQueue::new(cfg.queue_capacity, cfg.per_tenant_quota, &telemetry),
            slots,
            jobs: Mutex::new(HashMap::new()),
            telemetry,
            prof,
            latency,
            artifacts_dir: cfg.artifacts_dir,
            max_cities: cfg.max_cities,
            request_spans: cfg.request_spans,
            access_log: cfg.access_log,
            stage_latency: Mutex::new(
                LATENCY_STAGES
                    .iter()
                    .map(|&stage| (stage, RollingQuantiles::new()))
                    .collect(),
            ),
            rejections: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
            lane_health: Mutex::new(vec![
                LaneHealth {
                    busy: false,
                    job_id: None,
                    last_beat: 0.0,
                };
                lanes
            ]),
            health,
            per_tenant_quota: cfg.per_tenant_quota,
            seen_tenants: Mutex::new(BTreeSet::new()),
            stopping: AtomicBool::new(false),
            injected_stall: cfg.injected_stall,
        });
        let workers = (0..inner.slots.lanes())
            .map(|lane| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("tsp-serve-worker-{lane}"))
                    .spawn(move || worker(&inner, lane))
                    .expect("spawn worker thread")
            })
            .collect();
        let watchdog = (inner.health.is_some() && cfg.alerts.watchdog_interval_ms > 0).then(|| {
            let inner = inner.clone();
            let interval = Duration::from_millis(cfg.alerts.watchdog_interval_ms);
            std::thread::Builder::new()
                .name("tsp-serve-watchdog".to_string())
                .spawn(move || {
                    while !inner.stopping.load(Ordering::Relaxed) {
                        std::thread::sleep(interval);
                        if inner.stopping.load(Ordering::Relaxed) {
                            break;
                        }
                        inner.watchdog_tick();
                    }
                })
                .expect("spawn watchdog thread")
        });
        Ok(SolveService {
            inner,
            workers: Mutex::new(workers),
            watchdog: Mutex::new(watchdog),
            seq: AtomicU64::new(0),
            reports: Mutex::new(Vec::new()),
        })
    }

    /// Validate and admit a request. Typed rejections: 400 on a bad
    /// payload, 400 on an oversized instance, 503 on an already-past
    /// deadline, 429/503 from admission — none of which ever reach a
    /// device lane.
    pub fn submit(&self, request: SolveRequest) -> Result<SolveResponse, ApiError> {
        self.submit_traced(request, "")
    }

    /// [`SolveService::submit`] with a correlating W3C trace id: the
    /// id is echoed on the response and every later status, stamped
    /// into the job's journal lines and span, and tagged onto its
    /// Chrome trace. An empty `trace_id` means "uncorrelated".
    pub fn submit_traced(
        &self,
        request: SolveRequest,
        trace_id: &str,
    ) -> Result<SolveResponse, ApiError> {
        let received = Instant::now();
        // Denominator for the rejection burn-rate rule: every
        // submission attempt, accepted or not.
        if let Some(registry) = self.inner.telemetry.registry() {
            registry
                .counter("tsp_serve_requests_total", "Solve submissions received")
                .inc();
        }
        let inst = request.instance().map_err(|err| self.reject(err))?;
        if inst.len() > self.inner.max_cities {
            return Err(self.reject(ApiError::new(
                ErrorCode::Unsupported,
                format!(
                    "instance has {} cities; this service accepts at most {}",
                    inst.len(),
                    self.inner.max_cities
                ),
            )));
        }
        // A deadline of zero is already past: reject it here, before
        // admission, so it provably never occupies a queue slot or lane.
        if request.deadline_ms == Some(0) {
            return Err(self.reject(ApiError::new(
                ErrorCode::DeadlineExceeded,
                "the deadline expired before the job could be admitted",
            )));
        }
        let job_id = format!("job-{:08x}", self.seq.fetch_add(1, Ordering::Relaxed));
        let ticket = Ticket {
            job_id: job_id.clone(),
            tenant: request.tenant.clone(),
        };
        let deadline = request
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let span = self.inner.request_spans.then(|| {
            let mut span = RequestSpan::new(&job_id, &request.tenant);
            span.trace_id = trace_id.to_string();
            span.stamp(Stage::Received, 0.0, 0.0);
            // Stamp the admission transitions *before* the ticket hits
            // the queue: a worker may dequeue the job the instant
            // `submit` returns, and its stamps must land after these.
            // If admission refuses, the whole entry (and span) is
            // removed, so the optimistic stamps never escape. Both
            // carry the same clock read — admission *is* the enqueue.
            let wall = received.elapsed().as_secs_f64();
            span.stamp(Stage::Admitted, wall, 0.0);
            span.stamp(Stage::Queued, wall, 0.0);
            span
        });
        let mut status = JobStatus::queued(&job_id, &request.tenant);
        if !trace_id.is_empty() {
            status = status.with_trace_id(trace_id);
        }
        let entry = JobEntry {
            status,
            request,
            cancel: CancelToken::new(),
            deadline,
            received,
            span,
        };
        // Insert before admitting so a worker popping the ticket
        // always finds the entry; remove again if admission refuses.
        self.inner
            .jobs
            .lock()
            .unwrap()
            .insert(job_id.clone(), entry);
        if let Err(err) = self.inner.queue.submit(ticket) {
            self.inner.jobs.lock().unwrap().remove(&job_id);
            return Err(self.reject(err));
        }
        let mut response = SolveResponse::queued(job_id);
        if !trace_id.is_empty() {
            response = response.with_trace_id(trace_id);
        }
        Ok(response)
    }

    /// Count a typed rejection and hand the error back.
    fn reject(&self, err: ApiError) -> ApiError {
        self.inner.count_rejection(err.code);
        err
    }

    /// Current status of a job.
    pub fn status(&self, job_id: &str) -> Result<JobStatus, ApiError> {
        self.inner
            .jobs
            .lock()
            .unwrap()
            .get(job_id)
            .map(|e| e.status.clone())
            .ok_or_else(|| ApiError::new(ErrorCode::NotFound, format!("no job {job_id:?}")))
    }

    /// Request cancellation. A queued job turns terminal immediately;
    /// a running job's solver observes the token at its next ILS
    /// iteration and lands in [`JobState::Cancelled`]. Idempotent on
    /// terminal jobs.
    pub fn cancel(&self, job_id: &str) -> Result<JobStatus, ApiError> {
        let mut jobs = self.inner.jobs.lock().unwrap();
        let entry = jobs
            .get_mut(job_id)
            .ok_or_else(|| ApiError::new(ErrorCode::NotFound, format!("no job {job_id:?}")))?;
        if !entry.status.state.is_terminal() {
            entry.cancel.cancel();
            if entry.status.state == JobState::Queued {
                // The worker that later pops the ticket sees the
                // terminal state and only credits the quota back.
                entry.status.state = JobState::Cancelled;
                if let Some(span) = entry.span.as_mut() {
                    span.stamp(
                        Stage::Cancelled,
                        entry.received.elapsed().as_secs_f64(),
                        0.0,
                    );
                }
            }
        }
        Ok(entry.status.clone())
    }

    /// The telemetry handle the service publishes into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// The profiler owning the device-memory ledger.
    pub fn profiler(&self) -> &Profiler {
        &self.inner.prof
    }

    /// Live slot-pool occupancy.
    pub fn occupancy(&self) -> usize {
        self.inner.slots.occupancy()
    }

    /// Admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// Count a typed rejection that never reached [`SolveService::submit`]
    /// (the HTTP layer's parse failures and unknown-job 404s).
    pub fn count_rejection(&self, code: ErrorCode) {
        self.inner.count_rejection(code);
    }

    /// The configured access-log path, if any (the HTTP server wires
    /// it into [`tsp_telemetry::AccessLog`]).
    pub fn access_log_path(&self) -> Option<&std::path::Path> {
        self.inner.access_log.as_deref()
    }

    /// A live operational snapshot: pool pressure, every known job
    /// with its lane and trace id, rolling latency quantiles per
    /// lifecycle stage, and rejection totals per error code. Purely
    /// observational — building it takes the bookkeeping locks but
    /// never touches a device lane.
    pub fn ops_snapshot(&self) -> OpsSnapshot {
        let mut snap = OpsSnapshot::new(self.inner.slots.lanes() as u64);
        snap.queue_depth = self.inner.queue.depth() as u64;
        snap.slot_occupancy = self.inner.slots.occupancy() as u64;
        {
            let jobs = self.inner.jobs.lock().unwrap();
            let mut ids: Vec<&String> = jobs.keys().collect();
            ids.sort();
            for id in ids {
                let entry = &jobs[id];
                let mut job = OpsJob::new(id, &entry.status.tenant, entry.status.state);
                job.trace_id = entry.status.trace_id.clone();
                if let Some(span) = &entry.span {
                    if let Some(lease) = span.stage(Stage::Leased) {
                        job.device = lease.device;
                        job.stream = lease.stream;
                    }
                    job.end_to_end_seconds = span.end_to_end_seconds();
                }
                snap.jobs.push(job);
            }
        }
        for (stage, rolling) in self.inner.stage_latency.lock().unwrap().iter() {
            snap.latency.push(OpsLatency::new(
                *stage,
                rolling.count(),
                rolling.estimates(),
            ));
        }
        snap.rejections = self
            .inner
            .rejections
            .lock()
            .unwrap()
            .iter()
            .map(|(&code, &n)| (code.to_string(), n))
            .collect();
        snap.lane_health = self.inner.lane_rows();
        if let Some(health) = &self.inner.health {
            snap.alerts_firing = health.engine.lock().unwrap().firing_count() as u64;
        }
        snap
    }

    /// Run one watchdog evaluation on the caller's thread: refresh the
    /// derived health gauges, evaluate every alert rule at the current
    /// service clock, and journal any transitions. This is the manual
    /// drive for deterministic tests and smoke phases
    /// ([`AlertConfig::watchdog_interval_ms`] `= 0`); with a
    /// background watchdog it simply adds one extra evaluation.
    pub fn watchdog_tick(&self) {
        self.inner.watchdog_tick();
    }

    /// The alert engine's live census: every pending/firing/resolved
    /// instance plus lifetime transition and evaluation counts.
    /// Empty (zero rules) when alerting is disabled or telemetry is
    /// detached.
    pub fn alerts_snapshot(&self) -> AlertsSnapshot {
        let Some(health) = &self.inner.health else {
            return AlertsSnapshot::new(0);
        };
        let engine = health.engine.lock().unwrap();
        let mut snap = AlertsSnapshot::new(engine.rules().len() as u64);
        for active in engine.active() {
            let mut row = OpsAlert::new(
                &active.rule,
                active.severity.as_str(),
                active.state.as_str(),
            );
            row.labels = active.labels.clone();
            row.since_seconds = active.since_seconds;
            row.value = active.value;
            snap.alerts.push(row);
        }
        snap.firing = engine.firing_count() as u64;
        snap.transitions_total = health.transitions.lock().unwrap().len() as u64;
        snap.evaluations_total = health.evaluations.load(Ordering::Relaxed);
        snap
    }

    /// Every alert transition journaled so far, in evaluation order —
    /// the in-memory mirror of `alerts.jsonl`.
    pub fn alert_transitions(&self) -> Vec<AlertTransition> {
        self.inner
            .health
            .as_ref()
            .map(|h| h.transitions.lock().unwrap().clone())
            .unwrap_or_default()
    }

    /// Drain the queue, join the workers, collect the per-stream
    /// modeled schedules, and tear the arenas down (balancing the
    /// ledger). Idempotent; also runs on drop.
    pub fn shutdown(&self) -> Vec<StreamReport> {
        self.inner.stopping.store(true, Ordering::Relaxed);
        self.inner.queue.close();
        if let Some(watchdog) = self.watchdog.lock().unwrap().take() {
            let _ = watchdog.join();
        }
        for worker in self.workers.lock().unwrap().drain(..) {
            let _ = worker.join();
        }
        let mut reports = self.reports.lock().unwrap();
        if reports.is_empty() {
            *reports = self.inner.slots.synchronize();
            self.inner.slots.release_arenas();
        }
        reports.clone()
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker(inner: &Inner, lane: usize) {
    while let Some(ticket) = inner.queue.pop() {
        inner.lane_busy(lane, &ticket.job_id);
        run_ticket(inner, lane, &ticket);
        inner.lane_idle(lane);
        inner.queue.finish(&ticket.tenant);
    }
}

fn run_ticket(inner: &Inner, lane: usize, ticket: &Ticket) {
    let Some((request, base_token, deadline, trace_id)) = ({
        let jobs = inner.jobs.lock().unwrap();
        jobs.get(&ticket.job_id).and_then(|entry| {
            if entry.status.state.is_terminal() {
                None // cancelled while queued; quota credit only
            } else {
                Some((
                    entry.request.clone(),
                    entry.cancel.clone(),
                    entry.deadline,
                    entry.status.trace_id.clone().unwrap_or_default(),
                ))
            }
        })
    }) else {
        return;
    };
    stamp_stage(inner, &ticket.job_id, Stage::Dequeued);
    inner.beat(lane);
    let token = match deadline {
        Some(deadline) => base_token.clone().with_deadline(deadline),
        None => base_token.clone(),
    };
    // Deadline/cancel re-check BEFORE leasing a slot: an expired job
    // must never reach a device lane.
    if token.is_cancelled() {
        finish_job(inner, ticket, expired_or_cancelled(&base_token), None, None);
        return;
    }

    let lease = inner.slots.acquire();
    if let Some(entry) = inner.jobs.lock().unwrap().get_mut(&ticket.job_id) {
        if let Some(span) = entry.span.as_mut() {
            span.stamp_lease(
                entry.received.elapsed().as_secs_f64(),
                lease.device_index() as u64,
                lease.stream().index() as u64,
            );
        }
    }
    inner.beat(lane);
    set_state(inner, &ticket.job_id, JobState::Running);
    // The job's sinks: the service registry, a fresh trace-stamped
    // journal and profiler for the artifacts, and an event recorder
    // feeding the trace-tagged `trace.json` artifact, which only records
    // when spans will actually be persisted.
    let recorder = if inner.request_spans && inner.artifacts_dir.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let observer = Observer::none()
        .with_recorder(recorder)
        .with_telemetry(inner.telemetry.clone())
        .with_journal(Journal::attached())
        .with_prof(Profiler::attached())
        .with_trace_id(trace_id);
    stamp_stage(inner, &ticket.job_id, Stage::Solving);
    inner.beat(lane);
    // Fault injection: hold the lane without heartbeating so the
    // watchdog sees a growing stall. The solve itself is untouched —
    // the stall happens strictly before it starts.
    if let Some((tenant, millis)) = &inner.injected_stall {
        if *tenant == ticket.tenant {
            std::thread::sleep(Duration::from_millis(*millis));
        }
    }
    let started = Instant::now();
    let outcome = solve(&request, &observer, &token, &lease);
    if let Some(latency) = &inner.latency {
        latency.observe(started.elapsed().as_secs_f64());
    }
    drop(lease);
    inner.beat(lane);

    match outcome {
        Ok(solution) => {
            let state = if token.is_cancelled() {
                expired_or_cancelled(&base_token)
            } else {
                (JobState::Done, None)
            };
            finish_job(inner, ticket, state, Some(&solution), Some(&observer));
        }
        Err(err) => {
            finish_job(
                inner,
                ticket,
                (JobState::Failed, Some(err)),
                None,
                Some(&observer),
            );
        }
    }
}

/// Stamp `stage` on the job's span at the current wall offset (no-op
/// when spans are off or the job is gone).
fn stamp_stage(inner: &Inner, job_id: &str, stage: Stage) {
    if let Some(entry) = inner.jobs.lock().unwrap().get_mut(job_id) {
        if let Some(span) = entry.span.as_mut() {
            span.stamp(stage, entry.received.elapsed().as_secs_f64(), 0.0);
        }
    }
}

fn solve(
    request: &SolveRequest,
    observer: &Observer,
    token: &CancelToken,
    lease: &crate::pool::SlotLease<'_>,
) -> Result<Solution, ApiError> {
    let inst = request.instance()?;
    let solver = SolverBuilder::from_request(request)?
        .observe(observer.clone())
        .cancel(token.clone())
        .build();
    solver
        .run_on(&inst, lease.device(), lease.stream())
        .map_err(|e| ApiError::new(ErrorCode::Internal, e.to_string()))
}

/// A tripped token means either an explicit `DELETE` (the shared flag
/// is armed) or a passed deadline (it is not).
fn expired_or_cancelled(base_token: &CancelToken) -> (JobState, Option<ApiError>) {
    if base_token.is_cancelled() {
        (JobState::Cancelled, None)
    } else {
        (
            JobState::Expired,
            Some(ApiError::new(
                ErrorCode::DeadlineExceeded,
                "the deadline passed before the solve completed",
            )),
        )
    }
}

fn set_state(inner: &Inner, job_id: &str, state: JobState) {
    if let Some(entry) = inner.jobs.lock().unwrap().get_mut(job_id) {
        entry.status.state = state;
    }
}

fn finish_job(
    inner: &Inner,
    ticket: &Ticket,
    (state, error): (JobState, Option<ApiError>),
    solution: Option<&Solution>,
    observer: Option<&Observer>,
) {
    let run_id = solution.map(|s| s.run_id.clone());
    let modeled = solution.map(|s| s.modeled_seconds()).unwrap_or(0.0);
    let writing = inner.artifacts_dir.is_some() && observer.is_some();
    let trace_id = {
        let mut jobs = inner.jobs.lock().unwrap();
        let mut trace_id = String::new();
        if let Some(entry) = jobs.get_mut(&ticket.job_id) {
            trace_id = entry.status.trace_id.clone().unwrap_or_default();
            if let Some(span) = entry.span.as_mut() {
                if let Some(run_id) = &run_id {
                    span.run_id = run_id.clone();
                }
                if writing {
                    // The artifacts→terminal window below covers the
                    // actual writes.
                    span.stamp(
                        Stage::Artifacts,
                        entry.received.elapsed().as_secs_f64(),
                        modeled,
                    );
                }
            }
        }
        trace_id
    };
    if let (Some(dir), Some(observer)) = (&inner.artifacts_dir, observer) {
        write_artifacts(
            inner,
            dir,
            &ticket.job_id,
            run_id.as_deref(),
            &trace_id,
            observer,
        );
    }
    // Terminal span stamp, then persist the completed span before the
    // status flips terminal: a client that polls a terminal state must
    // find every artifact — request.json included — already durable.
    let span = {
        let mut jobs = inner.jobs.lock().unwrap();
        jobs.get_mut(&ticket.job_id).and_then(|entry| {
            let span = entry.span.as_mut()?;
            let stage = Stage::terminal_for(state)?;
            span.stamp(stage, entry.received.elapsed().as_secs_f64(), modeled);
            Some(span.clone())
        })
    };
    if let Some(span) = &span {
        if let Some(dir) = &inner.artifacts_dir {
            let job_dir = dir.join(&ticket.job_id);
            if std::fs::create_dir_all(&job_dir).is_ok() {
                let _ = std::fs::write(job_dir.join("request.json"), span.to_json().to_string());
            }
        }
    }
    {
        let mut jobs = inner.jobs.lock().unwrap();
        if let Some(entry) = jobs.get_mut(&ticket.job_id) {
            entry.status.state = state;
            entry.status.error = error;
            if let Some(solution) = solution {
                entry.status.run_id = Some(solution.run_id.clone());
                entry.status.tour = Some(solution.tour.as_slice().to_vec());
                entry.status.length = Some(solution.length);
                entry.status.initial_length = Some(solution.initial_length);
                entry.status.chains = Some(solution.chains);
                entry.status.modeled_seconds = Some(solution.modeled_seconds());
            }
        }
    }
    if let Some(span) = span {
        inner.observe_latency(&span);
    }
}

/// Leave a `tsp-inspect`-compatible artifact set for the job. Uses
/// the flush-on-drop [`JournalWriter`] so even an interrupted process
/// never leaves a truncated JSONL line behind.
fn write_artifacts(
    inner: &Inner,
    dir: &std::path::Path,
    job_id: &str,
    run_id: Option<&str>,
    trace_id: &str,
    observer: &Observer,
) {
    let job_dir = dir.join(job_id);
    if std::fs::create_dir_all(&job_dir).is_err() {
        return;
    }
    if let Ok(mut writer) = JournalWriter::create(job_dir.join("journal.jsonl")) {
        let _ = writer.append_all(&observer.journal);
    }
    let report = observer.prof.report();
    let folded = match report.flamegraph() {
        f if f.is_empty() => report.flamegraph_wall(),
        f => f,
    };
    let _ = std::fs::write(job_dir.join("run.folded"), folded);
    let _ = std::fs::write(
        job_dir.join("memory.json"),
        inner.prof.memory_report().to_json_string(),
    );
    let mut manifest = Manifest::new(run_id.unwrap_or(job_id));
    manifest
        .push("journal", "journal.jsonl")
        .push("flamegraph", "run.folded")
        .push("memory", "memory.json");
    if inner.request_spans {
        // The trace-tagged Chrome trace of the solve's recorded events.
        let trace = chrome_trace_with_ids(
            &observer.recorder.events(),
            run_id.unwrap_or(job_id),
            trace_id,
        );
        if std::fs::write(job_dir.join("trace.json"), trace).is_ok() {
            manifest.push("trace", "trace.json");
        }
        // request.json is written by `finish_job` right after the
        // terminal stamp; index it here so the manifest is complete.
        manifest.push("request", "request.json");
    }
    let _ = std::fs::write(job_dir.join("manifest.json"), manifest.to_json_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_config_round_trips_through_json() {
        let cfg = ServiceConfig::default()
            .with_spec(gpu_sim::spec::radeon_7970())
            .with_devices(3)
            .with_streams(1)
            .with_slot_bytes(8 << 20)
            .with_queue_capacity(64)
            .with_per_tenant_quota(4)
            .with_max_cities(1024)
            .with_artifacts_dir("/tmp/artifacts")
            .with_request_spans(false)
            .with_access_log("/tmp/access.jsonl")
            .with_alerts(
                AlertConfig::default()
                    .with_watchdog_interval_ms(0)
                    .with_stall_seconds(1.5)
                    .with_queue_age_slo_seconds(2.5)
                    .with_starvation_for_seconds(0.5)
                    .with_p99_slo(10.0, 3.0)
                    .with_rejection_burn(0.1, 30.0, 5.0, 2.0)
                    .with_rule(AlertRule::threshold(
                        "CustomDepth",
                        Severity::Info,
                        Selector::metric("tsp_serve_queue_depth"),
                        Cmp::Gt,
                        100.0,
                    )),
            );
        let text = cfg.to_json().to_string();
        let back = ServiceConfig::parse(&text).unwrap();
        // ServiceConfig has no PartialEq (DeviceSpec); the serialized
        // form is the equality witness.
        assert_eq!(back.to_json().to_string(), text);
        assert_eq!(back.spec.digest(), cfg.spec.digest());
        assert_eq!(back.devices, 3);
        assert_eq!(back.alerts.extra_rules.len(), 1);
        assert_eq!(back.alerts.stall_seconds, 1.5);

        // Absent fields take defaults; unknown members are ignored;
        // unknown specs are a hard error.
        let sparse = ServiceConfig::parse("{\"devices\": 1, \"future\": true}").unwrap();
        assert_eq!(sparse.devices, 1);
        assert_eq!(sparse.streams, ServiceConfig::default().streams);
        assert!(ServiceConfig::parse("{\"spec\": \"quantum_annealer\"}")
            .unwrap_err()
            .contains("unknown device spec"));
    }

    #[test]
    fn built_in_rules_cover_the_fleet_health_surface() {
        let rules = built_in_rules(&AlertConfig::default().with_rule(AlertRule::threshold(
            "Extra",
            Severity::Info,
            Selector::metric("x"),
            Cmp::Gt,
            0.0,
        )));
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "LaneStalled",
                "QueueAgeSlo",
                "TenantStarved",
                "RejectionSpike",
                "LatencyP99Burn",
                "Extra"
            ]
        );
    }

    #[test]
    fn watchdog_catches_an_injected_stall_and_recovery() {
        let telemetry = Telemetry::attached();
        let service = SolveService::start(
            ServiceConfig::default()
                .with_devices(1)
                .with_streams(1)
                .with_alerts(
                    AlertConfig::default()
                        .with_watchdog_interval_ms(0) // manual ticks
                        .with_stall_seconds(0.05),
                )
                .with_injected_stall("stall-tenant", 300),
            telemetry.clone(),
            Profiler::attached(),
        )
        .unwrap();

        // Healthy baseline: nothing fires on an idle service.
        service.watchdog_tick();
        assert_eq!(service.alerts_snapshot().firing, 0);

        let coords: Vec<(f64, f64)> = (0..32)
            .map(|i| (f64::from(i % 8), f64::from(i / 8)))
            .collect();
        let request = SolveRequest::coords("stall", coords)
            .with_tenant("stall-tenant")
            .with_seed(7);
        let job = service.submit(request).unwrap().job_id;

        // Poll the watchdog until the stalled lane crosses the
        // threshold (the worker holds the lane ~300ms without beats).
        let mut fired = false;
        for _ in 0..50 {
            std::thread::sleep(Duration::from_millis(20));
            service.watchdog_tick();
            let snap = service.alerts_snapshot();
            if snap
                .alerts
                .iter()
                .any(|a| a.rule == "LaneStalled" && a.state == "firing")
            {
                fired = true;
                break;
            }
        }
        assert!(fired, "LaneStalled never fired during the injected stall");
        assert!(service.ops_snapshot().alerts_firing >= 1);

        // Wait for the job to finish; the lane goes idle and the
        // alert resolves, then clears.
        for _ in 0..250 {
            if service.status(&job).unwrap().state.is_terminal() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(service.status(&job).unwrap().state.is_terminal());
        service.watchdog_tick(); // firing -> resolved
        service.watchdog_tick(); // resolved -> inactive
        assert_eq!(service.alerts_snapshot().firing, 0);

        // The transition history walks the full lifecycle and the
        // ALERTS series appeared in the exposition while firing.
        let transitions = service.alert_transitions();
        let states: Vec<&str> = transitions
            .iter()
            .filter(|t| t.rule == "LaneStalled")
            .map(|t| t.to.as_str())
            .collect();
        assert!(states.contains(&"firing"), "transitions: {states:?}");
        assert!(states.contains(&"resolved"), "transitions: {states:?}");
        service.shutdown();
    }
}
