//! A minimal shared HTTP/1.1 core for the embedded servers.
//!
//! The metrics endpoint and the solve service both speak just enough
//! HTTP for a local scraper or `curl`: one request per connection,
//! bounded reads, typed status/reason mapping, and a method+path
//! routing table with single-segment `{param}` captures. This module
//! factors that plumbing out of [`MetricsServer`] so both servers share
//! one parser, one responder and one hardening story (400 on malformed
//! or oversized input, 405 on a known path with the wrong method, 404
//! otherwise).
//!
//! [`MetricsServer`]: crate::server::MetricsServer

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsp_trace::json::Json;

/// Hard cap on the request head; anything longer is answered with 400
/// rather than buffered further.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Hard cap on a request body (a TSPLIB payload comfortably fits).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed request: the line, lower-cased headers, and the body
/// (read iff the head declared a `Content-Length`).
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method verb exactly as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Absolute request target (always starts with `/`).
    pub path: String,
    /// `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The `traceparent` request/response header name (W3C Trace Context).
pub const TRACEPARENT: &str = "traceparent";

/// A W3C Trace Context (`traceparent`) value: version `00`, a 128-bit
/// trace id, a 64-bit parent/span id, and the trace flags — all kept
/// as the lowercase-hex strings the header carries.
///
/// The servers *ingest* a caller-supplied context so an external
/// distributed trace flows through every artifact a job leaves
/// (journal lines, recording headers, tagged Chrome traces), and
/// *generate* one when the caller sent none, so every response still
/// carries a correlation id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// 32 lowercase hex digits, never all-zero.
    pub trace_id: String,
    /// 16 lowercase hex digits, never all-zero.
    pub parent_id: String,
    /// 2 lowercase hex digits (`01` = sampled).
    pub flags: String,
}

fn is_lower_hex(s: &str, len: usize) -> bool {
    s.len() == len
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// splitmix64 — the same mixer `tsp_prof::run_id_from_parts` uses, so
/// generated ids are deterministic functions of their seeds.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fold64(parts: &[u64], salt: u64) -> u64 {
    let mut acc = mix64(salt);
    for &p in parts {
        acc = mix64(acc ^ mix64(p));
    }
    if acc == 0 {
        1 // the spec forbids all-zero ids
    } else {
        acc
    }
}

impl TraceContext {
    /// Parse a `traceparent` header value. Only version `00` with
    /// exact field widths and non-zero ids is accepted; anything else
    /// is `None` (the caller then generates a fresh context, per spec).
    pub fn parse(header: &str) -> Option<TraceContext> {
        let mut parts = header.trim().split('-');
        let (version, trace_id, parent_id, flags) =
            (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() || version != "00" {
            return None;
        }
        if !is_lower_hex(trace_id, 32) || trace_id.bytes().all(|b| b == b'0') {
            return None;
        }
        if !is_lower_hex(parent_id, 16) || parent_id.bytes().all(|b| b == b'0') {
            return None;
        }
        if !is_lower_hex(flags, 2) {
            return None;
        }
        Some(TraceContext {
            trace_id: trace_id.to_string(),
            parent_id: parent_id.to_string(),
            flags: flags.to_string(),
        })
    }

    /// A deterministic context derived from `parts` (seeds are mixed
    /// with distinct salts for the trace and parent ids), flagged as
    /// sampled. Same parts → same context.
    pub fn generate(parts: &[u64]) -> TraceContext {
        TraceContext {
            trace_id: format!("{:016x}{:016x}", fold64(parts, 0x1), fold64(parts, 0x2)),
            parent_id: format!("{:016x}", fold64(parts, 0x3)),
            flags: "01".to_string(),
        }
    }

    /// The same trace with a new parent/span id derived from `parts` —
    /// what a server puts in its *response* `traceparent`: the
    /// caller's trace id, this hop's span.
    pub fn child(&self, parts: &[u64]) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id.clone(),
            parent_id: format!("{:016x}", fold64(parts, 0x5)),
            flags: self.flags.clone(),
        }
    }

    /// Render the `traceparent` header value.
    pub fn to_header(&self) -> String {
        format!("00-{}-{}-{}", self.trace_id, self.parent_id, self.flags)
    }

    /// The context of an incoming request: its `traceparent` header
    /// when present and valid, otherwise `None`.
    pub fn of_request(req: &Request) -> Option<TraceContext> {
        req.header(TRACEPARENT).and_then(TraceContext::parse)
    }
}

/// A process-unique seed pair for generated trace contexts: wall time
/// plus a monotone counter, so two requests in the same nanosecond
/// still get distinct ids.
pub fn trace_seed() -> [u64; 2] {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    [nanos, COUNTER.fetch_add(1, Ordering::Relaxed)]
}

/// Why a request could not be read. `TooLarge` and `Malformed` are
/// answered with a 400; `Closed` means the peer hung up (or idled out)
/// before sending a single byte — the keep-alive loop's normal exit,
/// answered with nothing at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The head or body exceeded its byte cap.
    TooLarge(&'static str),
    /// The request line/headers/body did not parse as HTTP.
    Malformed(&'static str),
    /// Clean EOF (or read timeout) before any request byte arrived.
    Closed,
}

impl RequestError {
    /// Human-readable body for the 400 response.
    pub fn message(&self) -> &'static str {
        match self {
            RequestError::TooLarge(m) | RequestError::Malformed(m) => m,
            RequestError::Closed => "connection closed\n",
        }
    }
}

/// Read one request off `stream` with bounded head and body sizes.
///
/// The request line must be `METHOD SP /path SP HTTP/x.y` with nothing
/// extra; garbage bytes, truncated lines and non-HTTP preambles are
/// [`RequestError::Malformed`]. A body is read only when the head
/// carries `Content-Length`, and only up to `max_body` bytes.
pub fn read_request(
    stream: &mut impl Read,
    max_head: usize,
    max_body: usize,
) -> Result<Request, RequestError> {
    let mut buf = [0u8; 4096];
    let mut bytes = Vec::new();
    let mut head_end = None;
    loop {
        if let Some(pos) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            head_end = Some(pos);
            break;
        }
        if bytes.len() > max_head {
            return Err(RequestError::TooLarge("request head too large\n"));
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let Some(head_end) = head_end else {
        if bytes.is_empty() {
            return Err(RequestError::Closed);
        }
        return Err(RequestError::Malformed("malformed request line\n"));
    };
    let head = String::from_utf8_lossy(&bytes[..head_end]).into_owned();
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or_default().split_whitespace();
    let (method, path, version) = (parts.next(), parts.next(), parts.next());
    let (Some(method), Some(path), Some(version)) = (method, path, version) else {
        return Err(RequestError::Malformed("malformed request line\n"));
    };
    if !version.starts_with("HTTP/") || !path.starts_with('/') || parts.next().is_some() {
        return Err(RequestError::Malformed("malformed request line\n"));
    }
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();

    let mut body: Vec<u8> = bytes[head_end + 4..].to_vec();
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>());
    match content_length {
        None => body.clear(),
        Some(Err(_)) => return Err(RequestError::Malformed("invalid Content-Length\n")),
        Some(Ok(len)) => {
            if len > max_body {
                return Err(RequestError::TooLarge("request body too large\n"));
            }
            while body.len() < len {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => body.extend_from_slice(&buf[..n]),
                    Err(_) => break,
                }
            }
            if body.len() < len {
                return Err(RequestError::Malformed("truncated request body\n"));
            }
            body.truncate(len);
        }
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// The canonical reason phrase for a status code.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One response: status, content type, body, extra headers.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (reason phrase derived via [`reason`]).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
    /// Extra headers appended verbatim (e.g. `Retry-After`).
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A response with an explicit content type.
    pub fn new(status: u16, content_type: &str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "text/plain; charset=utf-8", body)
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "application/json", body)
    }

    /// Append an extra header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serialize the response (status line, headers, body) for a
    /// connection that closes after this response.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_connection("close")
    }

    /// Serialize with an explicit `Connection` header value — the
    /// keep-alive loop passes `"keep-alive"` while the connection's
    /// request budget lasts and `"close"` on the final response.
    pub fn to_bytes_with_connection(&self, connection: &str) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            connection,
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }

    /// Write the response to `stream`. A peer that hung up mid-response
    /// is its own problem.
    pub fn write(&self, stream: &mut impl Write) {
        let _ = stream.write_all(&self.to_bytes());
    }
}

/// One segment of a route pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Segment {
    Literal(String),
    Param(String),
}

/// Path parameters captured by `{param}` segments.
#[derive(Debug, Clone, Default)]
pub struct Params(Vec<(String, String)>);

impl Params {
    /// The captured value of `{name}`, if the matched route had one.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

type Handler = Box<dyn Fn(&Request, &Params) -> Response + Send + Sync>;

struct Route {
    method: String,
    segments: Vec<Segment>,
    handler: Handler,
}

/// A method+path routing table. Patterns are `/`-separated literals
/// with optional `{param}` captures (`/v1/jobs/{id}`); dispatch picks
/// the first route whose method and pattern both match, answers 405
/// when only the method differs, and 404 otherwise.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let table: Vec<String> = self
            .routes
            .iter()
            .map(|r| format!("{} {}", r.method, render_pattern(&r.segments)))
            .collect();
        f.debug_struct("Router").field("routes", &table).finish()
    }
}

fn render_pattern(segments: &[Segment]) -> String {
    let mut s = String::new();
    for seg in segments {
        s.push('/');
        match seg {
            Segment::Literal(l) => s.push_str(l),
            Segment::Param(p) => {
                s.push('{');
                s.push_str(p);
                s.push('}');
            }
        }
    }
    if s.is_empty() {
        s.push('/');
    }
    s
}

fn parse_pattern(pattern: &str) -> Vec<Segment> {
    pattern
        .split('/')
        .filter(|s| !s.is_empty())
        .map(
            |s| match s.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
                Some(name) => Segment::Param(name.to_string()),
                None => Segment::Literal(s.to_string()),
            },
        )
        .collect()
}

fn match_segments(segments: &[Segment], path: &str) -> Option<Params> {
    let parts: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    if parts.len() != segments.len() {
        return None;
    }
    let mut params = Vec::new();
    for (seg, part) in segments.iter().zip(&parts) {
        match seg {
            Segment::Literal(l) if l == part => {}
            Segment::Literal(_) => return None,
            Segment::Param(name) => params.push((name.clone(), (*part).to_string())),
        }
    }
    Some(Params(params))
}

impl Router {
    /// An empty table.
    pub fn new() -> Router {
        Router::default()
    }

    /// Register `handler` for `method pattern` (builder style).
    pub fn route(
        mut self,
        method: &str,
        pattern: &str,
        handler: impl Fn(&Request, &Params) -> Response + Send + Sync + 'static,
    ) -> Router {
        self.routes.push(Route {
            method: method.to_ascii_uppercase(),
            segments: parse_pattern(pattern),
            handler: Box::new(handler),
        });
        self
    }

    /// Resolve `req` against the table.
    pub fn dispatch(&self, req: &Request) -> Response {
        let mut allowed: Vec<&str> = Vec::new();
        for route in &self.routes {
            if let Some(params) = match_segments(&route.segments, &req.path) {
                if route.method == req.method {
                    return (route.handler)(req, &params);
                }
                if !allowed.contains(&route.method.as_str()) {
                    allowed.push(&route.method);
                }
            }
        }
        if allowed.is_empty() {
            Response::text(404, "not found\n")
        } else {
            // RFC 9110 §15.5.6: a 405 must name the methods that *are*
            // allowed on the resource.
            allowed.sort_unstable();
            Response::text(405, "method not allowed\n").with_header("Allow", allowed.join(", "))
        }
    }
}

/// A structured HTTP access log: one JSON line per handled request
/// (method, path, status, response bytes, wall seconds, trace id),
/// written through a shared handle and flushed per line — the same
/// line-atomic contract as the journal writers, so a crash never
/// leaves a torn record. Opt-in: servers spawned without one log
/// nothing and pay nothing.
#[derive(Clone)]
pub struct AccessLog {
    out: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog").finish_non_exhaustive()
    }
}

impl AccessLog {
    /// Log to a file at `path` (created or truncated).
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<AccessLog> {
        Ok(AccessLog::from_writer(std::fs::File::create(path)?))
    }

    /// Log to any writer (tests use an in-memory buffer).
    pub fn from_writer(w: impl Write + Send + 'static) -> AccessLog {
        AccessLog {
            out: Arc::new(Mutex::new(Box::new(w))),
        }
    }

    /// Append one access record; the line is written and flushed under
    /// the lock so concurrent connection threads never interleave.
    pub fn log(&self, req: &Request, response: &Response, wall: Duration, trace_id: &str) {
        let mut line = Json::obj();
        line.set("method", req.method.as_str().into());
        line.set("path", req.path.as_str().into());
        line.set("status", u64::from(response.status).into());
        line.set("bytes", (response.body.len() as u64).into());
        line.set("wall_seconds", wall.as_secs_f64().into());
        if !trace_id.is_empty() {
            line.set("trace_id", trace_id.into());
        }
        let mut out = self.out.lock().expect("access log lock");
        let _ = out.write_all(format!("{line}\n").as_bytes());
        let _ = out.flush();
    }

    /// Flush the underlying writer explicitly (also happens per line
    /// and when the last handle drops).
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().expect("access log lock").flush()
    }
}

impl Drop for AccessLog {
    fn drop(&mut self) {
        // Only the final handle flushes; intermediate clones share the
        // same writer.
        if Arc::strong_count(&self.out) == 1 {
            if let Ok(mut out) = self.out.lock() {
                let _ = out.flush();
            }
        }
    }
}

/// A bounded-concurrency embedded HTTP server: one accept loop, one
/// short-lived thread per connection, up to
/// [`MAX_KEEPALIVE_REQUESTS`] requests per connection (HTTP/1.1
/// keep-alive; `Connection: close` is honored per request). Shuts
/// down (and joins the accept loop) on drop.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serve `router` from a background thread named `name`.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        name: &str,
        router: Arc<Router>,
    ) -> io::Result<HttpServer> {
        HttpServer::spawn_with_log(addr, name, router, None)
    }

    /// Like [`HttpServer::spawn`], additionally writing one
    /// [`AccessLog`] line per handled request.
    pub fn spawn_with_log(
        addr: impl ToSocketAddrs,
        name: &str,
        router: Arc<Router>,
        access_log: Option<AccessLog>,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let router = router.clone();
                        let log = access_log.clone();
                        // Connection threads are short-lived (one
                        // request each); a spawn failure just drops the
                        // connection.
                        let _ = std::thread::Builder::new()
                            .name("tsp-http-conn".into())
                            .spawn(move || handle_connection(stream, &router, log.as_ref()));
                    }
                }
            })?;
        Ok(HttpServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (port resolved when spawned with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join its thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept() so the loop observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Most requests one keep-alive connection may issue before the
/// server answers `Connection: close` and hangs up — a bound so no
/// single client pins a connection thread forever.
pub const MAX_KEEPALIVE_REQUESTS: usize = 64;

fn handle_connection(mut stream: TcpStream, router: &Router, access_log: Option<&AccessLog>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(2000)));
    for served in 1..=MAX_KEEPALIVE_REQUESTS {
        let started = Instant::now();
        let (request, response) = match read_request(&mut stream, MAX_HEAD_BYTES, MAX_BODY_BYTES) {
            Ok(req) => {
                let resp = router.dispatch(&req);
                (Some(req), resp)
            }
            // The peer hung up (or idled past the read timeout)
            // between requests: nothing to answer.
            Err(RequestError::Closed) => return,
            Err(e) => (None, Response::text(400, e.message())),
        };
        // HTTP/1.1 defaults to keep-alive; honor an explicit
        // `Connection: close`, close after errors, and close once the
        // per-connection request budget is spent.
        let keep_alive = served < MAX_KEEPALIVE_REQUESTS
            && request.as_ref().is_some_and(|req| {
                req.header("connection")
                    .is_none_or(|v| !v.eq_ignore_ascii_case("close"))
            });
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let _ = stream.write_all(&response.to_bytes_with_connection(connection));
        if let (Some(log), Some(req)) = (access_log, request.as_ref()) {
            let trace_id = TraceContext::of_request(req)
                .map(|t| t.trace_id)
                .unwrap_or_default();
            log.log(req, &response, started.elapsed(), &trace_id);
        }
        if !keep_alive {
            return;
        }
    }
}

/// Blocking one-shot HTTP request against a local server; returns
/// `(status code, response head, body)`. Used by the smoke examples
/// and tests to exercise the servers without an external client.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &str,
) -> io::Result<(u16, String, String)> {
    http_request_with_headers(addr, method, path, content_type, body, &[])
}

/// [`http_request`] with extra request headers (e.g. `traceparent`)
/// appended to the head verbatim.
pub fn http_request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &str,
    extra: &[(&str, &str)],
) -> io::Result<(u16, String, String)> {
    let mut stream = connect(addr)?;
    let request = encode_request(addr, method, path, content_type, body, extra, "close");
    stream.write_all(&request)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body split"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
    Ok((status, head.to_string(), body.to_string()))
}

/// A client connection: Nagle off, so a request written in one piece
/// leaves at once instead of waiting on the server's delayed ACK.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(stream)
}

/// One whole request — head and body — in a single buffer, so it goes
/// out in one write. Two writes (head, then body) on a Nagle socket hold
/// the body back until the server ACKs the head, a delayed ACK of tens of
/// milliseconds per request.
fn encode_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &str,
    extra: &[(&str, &str)],
    connection: &str,
) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if !body.is_empty() {
        head.push_str(&format!(
            "Content-Type: {content_type}\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Connection: {connection}\r\n\r\n"));
    let mut request = head.into_bytes();
    request.extend_from_slice(body.as_bytes());
    request
}

/// A client that keeps one TCP connection open across requests —
/// every call after the first saves a connection setup. The server
/// bounds reuse at [`MAX_KEEPALIVE_REQUESTS`]; when it answers
/// `Connection: close` (or hangs up) the next call reconnects
/// transparently and the saved-setup count stops growing.
#[derive(Debug)]
pub struct KeepAliveClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Bytes read past the previous response (normally empty — the
    /// protocol here is strictly request/response).
    leftover: Vec<u8>,
    requests: u64,
    connects: u64,
}

impl KeepAliveClient {
    /// A client for `addr`; connects lazily on the first request.
    pub fn new(addr: SocketAddr) -> KeepAliveClient {
        KeepAliveClient {
            addr,
            stream: None,
            leftover: Vec::new(),
            requests: 0,
            connects: 0,
        }
    }

    /// Requests issued so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// TCP connections actually opened.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Connection setups avoided by reuse (`requests - connects`).
    pub fn saved_connects(&self) -> u64 {
        self.requests.saturating_sub(self.connects)
    }

    /// Issue one request on the pooled connection; returns `(status,
    /// response head, body)` like [`http_request`]. Reconnects once
    /// if the pooled connection turned out to be dead (the server
    /// closed it between requests).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &str,
        extra: &[(&str, &str)],
    ) -> io::Result<(u16, String, String)> {
        self.requests += 1;
        let fresh = self.stream.is_none();
        match self.round_trip(method, path, content_type, body, extra) {
            Ok(out) => Ok(out),
            Err(err) if !fresh => {
                // The pooled connection died (budget spent, idle
                // timeout); retry once on a fresh one.
                self.stream = None;
                self.leftover.clear();
                let _ = err;
                self.round_trip(method, path, content_type, body, extra)
            }
            Err(err) => Err(err),
        }
    }

    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &str,
        extra: &[(&str, &str)],
    ) -> io::Result<(u16, String, String)> {
        if self.stream.is_none() {
            self.stream = Some(connect(self.addr)?);
            self.connects += 1;
        }
        let stream = self.stream.as_mut().expect("connected above");
        let request = encode_request(
            self.addr,
            method,
            path,
            content_type,
            body,
            extra,
            "keep-alive",
        );
        stream.write_all(&request)?;

        // Read exactly one framed response: head through \r\n\r\n,
        // then Content-Length body bytes (read_to_string would block
        // until the server closes the connection — the opposite of
        // the point).
        let mut bytes = std::mem::take(&mut self.leftover);
        let mut buf = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            match stream.read(&mut buf)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                n => bytes.extend_from_slice(&buf[..n]),
            }
        };
        let head = String::from_utf8_lossy(&bytes[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
        let content_length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .unwrap_or(0);
        let body_start = head_end + 4;
        while bytes.len() < body_start + content_length {
            match stream.read(&mut buf)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "truncated response body",
                    ))
                }
                n => bytes.extend_from_slice(&buf[..n]),
            }
        }
        self.leftover = bytes.split_off(body_start + content_length);
        let body = String::from_utf8_lossy(&bytes[body_start..]).into_owned();
        // Honor the server's close decision so the next request
        // reconnects cleanly instead of failing and retrying.
        let closing = head.lines().any(|line| {
            line.split_once(':').is_some_and(|(name, value)| {
                name.trim().eq_ignore_ascii_case("connection")
                    && value.trim().eq_ignore_ascii_case("close")
            })
        });
        if closing {
            self.stream = None;
            self.leftover.clear();
        }
        Ok((status, head, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read(bytes: &[u8]) -> Result<Request, RequestError> {
        read_request(&mut Cursor::new(bytes), MAX_HEAD_BYTES, 1024)
    }

    #[test]
    fn requests_encode_head_and_body_in_one_buffer() {
        let addr: SocketAddr = "127.0.0.1:8080".parse().unwrap();
        let bytes = encode_request(
            addr,
            "POST",
            "/v1/solve",
            "application/json",
            "{\"n\":3}",
            &[("traceparent", "00-ab-cd-01")],
            "keep-alive",
        );
        assert_eq!(
            String::from_utf8(bytes.clone()).unwrap(),
            "POST /v1/solve HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n\
             Content-Type: application/json\r\nContent-Length: 7\r\n\
             traceparent: 00-ab-cd-01\r\nConnection: keep-alive\r\n\r\n{\"n\":3}"
        );
        // The server's own parser reads it back whole.
        let req = read(&bytes).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/v1/solve")
        );
        assert_eq!(req.header("traceparent"), Some("00-ab-cd-01"));
        assert_eq!(req.body, b"{\"n\":3}");

        // Bodiless requests carry no entity headers.
        let get = encode_request(addr, "GET", "/metrics", "text/plain", "", &[], "close");
        assert_eq!(
            String::from_utf8(get).unwrap(),
            "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nConnection: close\r\n\r\n"
        );
    }

    #[test]
    fn parses_a_get_without_a_body() {
        let req = read(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_a_content_length_body() {
        let req = read(b"POST /v1/solve HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for case in [
            &b"\x16\x03\x01garbage\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /metrics\r\n\r\n",
            b"HELO tsp\r\n\r\n",
            b"GET metrics HTTP/1.1\r\n\r\n",
            b"GET /metrics HTTP/1.1 extra\r\n\r\n",
            b"no head terminator at all",
        ] {
            assert!(
                matches!(read(case), Err(RequestError::Malformed(_))),
                "case {:?}",
                String::from_utf8_lossy(case)
            );
        }
    }

    #[test]
    fn bounded_reads_reject_oversized_input() {
        let mut huge = b"GET /".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 4096));
        assert!(matches!(read(&huge), Err(RequestError::TooLarge(_))));

        let body_too_big = b"POST /x HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
        assert!(matches!(read(body_too_big), Err(RequestError::TooLarge(_))));

        let truncated = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(read(truncated), Err(RequestError::Malformed(_))));
    }

    fn req(method: &str, path: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn table() -> Router {
        Router::new()
            .route("GET", "/metrics", |_, _| Response::text(200, "m"))
            .route("POST", "/v1/solve", |_, _| Response::json(202, "{}"))
            .route("GET", "/v1/jobs/{id}", |_, p| {
                Response::text(200, p.get("id").unwrap_or("?"))
            })
            .route("DELETE", "/v1/jobs/{id}", |_, _| Response::text(200, "del"))
    }

    #[test]
    fn routing_matches_methods_paths_and_params() {
        let router = table();
        assert_eq!(router.dispatch(&req("GET", "/metrics")).status, 200);
        assert_eq!(router.dispatch(&req("POST", "/v1/solve")).status, 202);
        let got = router.dispatch(&req("GET", "/v1/jobs/job-7"));
        assert_eq!((got.status, got.body.as_str()), (200, "job-7"));
        assert_eq!(
            router.dispatch(&req("DELETE", "/v1/jobs/job-7")).status,
            200
        );
    }

    #[test]
    fn known_path_wrong_method_is_405_unknown_path_is_404() {
        let router = table();
        // Wrong verb on a known pattern: 405, matching the metrics
        // server's historical behavior.
        assert_eq!(router.dispatch(&req("POST", "/metrics")).status, 405);
        assert_eq!(router.dispatch(&req("PUT", "/v1/jobs/j1")).status, 405);
        // Unknown paths: 404, whatever the verb.
        assert_eq!(router.dispatch(&req("GET", "/nope")).status, 404);
        assert_eq!(router.dispatch(&req("POST", "/nope")).status, 404);
        // Param segments don't match across depths.
        assert_eq!(router.dispatch(&req("GET", "/v1/jobs/a/b")).status, 404);
        assert_eq!(router.dispatch(&req("GET", "/v1/jobs")).status, 404);
    }

    #[test]
    fn reason_phrases_cover_the_service_codes() {
        for (status, phrase) in [
            (200, "OK"),
            (202, "Accepted"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (405, "Method Not Allowed"),
            (429, "Too Many Requests"),
            (500, "Internal Server Error"),
            (503, "Service Unavailable"),
        ] {
            assert_eq!(reason(status), phrase);
        }
        assert_eq!(reason(299), "Unknown");
    }

    #[test]
    fn a_405_names_the_allowed_methods() {
        let router = table();
        let got = router.dispatch(&req("POST", "/metrics"));
        assert_eq!(got.status, 405);
        assert_eq!(allow_header(&got), Some("GET"));
        // Both verbs registered on the jobs pattern, sorted.
        let got = router.dispatch(&req("PUT", "/v1/jobs/j1"));
        assert_eq!(got.status, 405);
        assert_eq!(allow_header(&got), Some("DELETE, GET"));
        // 404s carry no Allow header.
        let got = router.dispatch(&req("GET", "/nope"));
        assert_eq!((got.status, allow_header(&got)), (404, None));
    }

    fn allow_header(resp: &Response) -> Option<&str> {
        resp.headers
            .iter()
            .find(|(n, _)| n == "Allow")
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn an_empty_param_segment_is_a_404() {
        // `/v1/jobs/` has no id to capture: the empty trailing segment
        // is dropped, the two-part path matches nothing, 404.
        let router = table();
        assert_eq!(router.dispatch(&req("GET", "/v1/jobs/")).status, 404);
        assert_eq!(router.dispatch(&req("DELETE", "/v1/jobs/")).status, 404);
    }

    #[test]
    fn traceparent_round_trips_and_rejects_malformed_values() {
        let header = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
        let ctx = TraceContext::parse(header).expect("valid traceparent");
        assert_eq!(ctx.trace_id, "0af7651916cd43dd8448eb211c80319c");
        assert_eq!(ctx.parent_id, "b7ad6b7169203331");
        assert_eq!(ctx.flags, "01");
        assert_eq!(ctx.to_header(), header);

        for bad in [
            "",
            "garbage",
            // wrong version
            "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
            // short trace id
            "00-0af7651916cd43dd8448eb211c80319-b7ad6b7169203331-01",
            // uppercase hex is invalid per spec
            "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
            // all-zero ids are invalid
            "00-00000000000000000000000000000000-b7ad6b7169203331-01",
            "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
            // trailing field
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x",
        ] {
            assert!(TraceContext::parse(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn generated_contexts_are_valid_deterministic_and_seed_sensitive() {
        let a = TraceContext::generate(&[1, 2]);
        assert_eq!(TraceContext::parse(&a.to_header()), Some(a.clone()));
        assert_eq!(TraceContext::generate(&[1, 2]), a);
        assert_ne!(TraceContext::generate(&[1, 3]).trace_id, a.trace_id);

        // A child span keeps the trace id, changes the parent id.
        let child = a.child(&[9]);
        assert_eq!(child.trace_id, a.trace_id);
        assert_ne!(child.parent_id, a.parent_id);
        assert!(TraceContext::parse(&child.to_header()).is_some());

        // Process-unique seeds always differ.
        assert_ne!(trace_seed(), trace_seed());
    }

    #[test]
    fn of_request_reads_the_traceparent_header() {
        let mut request = req("GET", "/metrics");
        assert_eq!(TraceContext::of_request(&request), None);
        request.headers.push((
            TRACEPARENT.into(),
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01".into(),
        ));
        let ctx = TraceContext::of_request(&request).expect("parsed");
        assert_eq!(ctx.trace_id, "0af7651916cd43dd8448eb211c80319c");
    }

    #[test]
    fn access_log_writes_one_json_line_per_request() {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = AccessLog::from_writer(Shared(buf.clone()));
        let mut request = req("POST", "/v1/solve");
        request.headers.push((
            TRACEPARENT.into(),
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01".into(),
        ));
        let response = Response::json(202, "{\"job_id\":\"job-1\"}");
        log.log(
            &request,
            &response,
            Duration::from_millis(3),
            "0af7651916cd43dd8448eb211c80319c",
        );
        log.log(
            &req("GET", "/metrics"),
            &Response::text(200, "m"),
            Duration::ZERO,
            "",
        );
        drop(log);

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        let first = tsp_trace::json::parse(lines[0]).expect("valid json line");
        assert_eq!(first.get("method").unwrap().as_str(), Some("POST"));
        assert_eq!(first.get("path").unwrap().as_str(), Some("/v1/solve"));
        assert_eq!(first.get("status").unwrap().as_f64(), Some(202.0));
        assert_eq!(
            first.get("bytes").unwrap().as_f64(),
            Some(response.body.len() as f64)
        );
        assert!(first.get("wall_seconds").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            first.get("trace_id").unwrap().as_str(),
            Some("0af7651916cd43dd8448eb211c80319c")
        );
        // No trace id → the field is omitted, not empty.
        let second = tsp_trace::json::parse(lines[1]).expect("valid json line");
        assert!(second.get("trace_id").is_none());
    }

    #[test]
    fn a_live_server_logs_requests_and_rejects_oversized_bodies() {
        let dir = std::env::temp_dir().join(format!(
            "tsp-http-access-{}-{:x}",
            std::process::id(),
            trace_seed()[1]
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("access.jsonl");
        let log = AccessLog::create(&log_path).unwrap();
        let server = HttpServer::spawn_with_log(
            "127.0.0.1:0",
            "tsp-http-test",
            Arc::new(table()),
            Some(log),
        )
        .unwrap();
        let addr = server.addr();

        let (status, _, _) = http_request_with_headers(
            addr,
            "GET",
            "/metrics",
            "",
            "",
            &[(
                TRACEPARENT,
                "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
            )],
        )
        .unwrap();
        assert_eq!(status, 200);

        // A body over MAX_BODY_BYTES is refused with 400 from the
        // declared Content-Length alone, before any handler runs (and
        // never reaches the access log: the request could not be
        // read). Sent raw so the test need not stream 4 MB into a
        // socket the server has already closed.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                format!(
                    "POST /v1/solve HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    MAX_BODY_BYTES + 1
                )
                .as_bytes(),
            )
            .unwrap();
        let mut rejected = String::new();
        let _ = stream.read_to_string(&mut rejected);
        assert!(rejected.starts_with("HTTP/1.1 400 "), "{rejected}");
        assert!(rejected.ends_with("request body too large\n"), "{rejected}");

        // 405 over the wire carries the Allow header.
        let (status, head, _) = http_request(addr, "POST", "/metrics", "", "").unwrap();
        assert_eq!(status, 405);
        assert!(head.contains("Allow: GET"), "{head}");

        server.shutdown();
        let text = std::fs::read_to_string(&log_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "only readable requests are logged: {text}");
        let first = tsp_trace::json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("trace_id").unwrap().as_str(),
            Some("0af7651916cd43dd8448eb211c80319c")
        );
        let second = tsp_trace::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("status").unwrap().as_f64(), Some(405.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_alive_reuses_one_connection_across_requests() {
        let server =
            HttpServer::spawn("127.0.0.1:0", "tsp-http-keepalive", Arc::new(table())).unwrap();
        let mut client = KeepAliveClient::new(server.addr());
        for i in 0..10 {
            let (status, head, body) = client.request("GET", "/v1/jobs/j7", "", "", &[]).unwrap();
            assert_eq!(status, 200, "request {i}");
            assert_eq!(body, "j7");
            assert!(head.contains("Connection: keep-alive"), "{head}");
        }
        let (status, _, body) = client
            .request("POST", "/v1/solve", "application/json", "{}", &[])
            .unwrap();
        assert_eq!(status, 202);
        assert_eq!(body, "{}");
        assert_eq!(client.requests(), 11);
        assert_eq!(client.connects(), 1, "every request rode one socket");
        assert_eq!(client.saved_connects(), 10);
        server.shutdown();
    }

    #[test]
    fn keep_alive_budget_is_bounded_and_the_client_reconnects() {
        let server =
            HttpServer::spawn("127.0.0.1:0", "tsp-http-budget", Arc::new(table())).unwrap();
        let mut client = KeepAliveClient::new(server.addr());
        for i in 1..=MAX_KEEPALIVE_REQUESTS {
            let (_, head, _) = client.request("GET", "/metrics", "", "", &[]).unwrap();
            let expect = if i < MAX_KEEPALIVE_REQUESTS {
                "Connection: keep-alive"
            } else {
                // The budget's last response warns the client off.
                "Connection: close"
            };
            assert!(head.contains(expect), "request {i}: {head}");
        }
        assert_eq!(client.connects(), 1);
        // The next request transparently opens connection #2.
        let (status, _, _) = client.request("GET", "/metrics", "", "", &[]).unwrap();
        assert_eq!(status, 200);
        assert_eq!(client.connects(), 2);
        assert_eq!(
            client.saved_connects(),
            MAX_KEEPALIVE_REQUESTS as u64 - 1,
            "reuse saved all but the two real connects"
        );
        server.shutdown();
    }

    #[test]
    fn explicit_connection_close_is_honored_per_request() {
        let server = HttpServer::spawn("127.0.0.1:0", "tsp-http-close", Arc::new(table())).unwrap();
        // The one-shot helper asks for close and drains to EOF — if
        // the server kept the connection open this would hang until
        // the read timeout instead of returning promptly.
        let (status, head, _) = http_request(server.addr(), "GET", "/metrics", "", "").unwrap();
        assert_eq!(status, 200);
        assert!(head.contains("Connection: close"), "{head}");
        server.shutdown();
    }

    #[test]
    fn responses_serialize_with_extra_headers() {
        let bytes = Response::json(429, "{\"code\":\"quota_exceeded\"}")
            .with_header("Retry-After", "2")
            .to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(
            text.contains("Content-Type: application/json\r\n"),
            "{text}"
        );
        assert!(text.ends_with("{\"code\":\"quota_exceeded\"}"), "{text}");
    }
}
