//! Minimal HTTP/1.1 transport on `std::net` — request parser, response
//! writer, and a blocking client for the `--remote` thin-client verbs.
//!
//! Like the `vendor/` dependency shims, this is deliberately tiny: no
//! registry is reachable from this environment, so the daemon speaks the
//! smallest HTTP/1.1 subset that curl, browsers, and our own client all
//! understand. Bodies are framed by `Content-Length` only (no chunked
//! transfer), with byte-capped header and body sections so a misbehaving
//! peer cannot balloon memory. Connections are persistent by default
//! (HTTP/1.1 keep-alive): the server loop serves requests until the peer
//! sends `Connection: close` or goes idle, and [`HttpClient`] pools one
//! connection per peer so fleet traffic — heartbeats, replication,
//! backfill — stops paying a TCP connect per request.
//!
//! Every outbound request passes through [`crate::fault::on_net_op`],
//! the seam where the `fault-inject` build drops, delays, or partitions
//! network traffic on a seeded schedule.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request body (campaign specs are a few KB).
pub const MAX_BODY: usize = 4 << 20;
/// Largest accepted request line + header section.
pub const MAX_HEAD: usize = 64 << 10;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    pub method: String,
    /// Decoded path without the query string (`/campaigns/abc`).
    pub path: String,
    /// Raw query string (`format=csv`), empty when absent.
    pub query: String,
    pub body: Vec<u8>,
    /// Whether the peer allows the connection to be reused (HTTP/1.1
    /// default unless it sent `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// Path split on `/`, empty segments dropped: `/campaigns/x/results`
    /// → `["campaigns", "x", "results"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// First value of a `key=value` query parameter.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::Malformed("body is not UTF-8"))
    }
}

/// One outgoing HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Emitted as a `Retry-After: <secs>` header — attached to 503s so
    /// backpressured clients back off an informed amount instead of a
    /// guessed one.
    pub retry_after: Option<u64>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    pub fn csv(body: String) -> Self {
        Response {
            status: 200,
            content_type: "text/csv; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }
}

/// Transport-level failure while reading a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Peer closed or an I/O error occurred mid-request.
    Io(String),
    /// The bytes are not a parseable HTTP/1.1 request.
    Malformed(&'static str),
    /// Head or body exceeded the hard caps.
    TooLarge(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
        }
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Read and parse one request from `stream` (a `TcpStream` in the
/// daemon; any byte source in the parser's robustness tests).
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    let io = |e: std::io::Error| HttpError::Io(e.to_string());
    let mut reader = BufReader::new(stream);

    let mut head = String::new();
    let mut line = String::new();
    // Request line + headers, CRLF-terminated, blank line ends the head.
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(io)?;
        if n == 0 {
            return Err(HttpError::Io("peer closed mid-head".into()));
        }
        if head.len() + line.len() > MAX_HEAD {
            return Err(HttpError::TooLarge("head"));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }

    let mut lines = head.lines();
    let request_line = lines.next().ok_or(HttpError::Malformed("empty request line"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(HttpError::Malformed("missing method"))?.to_string();
    let target = parts.next().ok_or(HttpError::Malformed("missing target"))?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::Malformed("not HTTP/1.x")),
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    let mut keep_alive = true;
    for header in lines {
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Malformed("header without colon"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
        } else if name.trim().eq_ignore_ascii_case("connection") {
            keep_alive = !value.trim().eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge("body"));
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(io)?;
    Ok(Request { method, path, query, body, keep_alive })
}

/// Write `response` to `stream`. `keep_alive` picks the `Connection`
/// header — the server loop passes what it will actually do, so clients
/// never wait on a connection the server is about to drop.
pub fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let retry_after = match response.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
        retry_after,
        connection,
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

// ---------------------------------------------------------------- client

/// One-shot `GET`: a fresh [`HttpClient`] that pools nothing. Returns
/// `(status, body)`.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    HttpClient::new(addr).request("GET", path, None).map(|r| (r.status, r.body))
}

/// One-shot `POST` of `body`; see [`http_get`].
pub fn http_post(addr: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    HttpClient::new(addr).request("POST", path, Some(body)).map(|r| (r.status, r.body))
}

/// A parsed client-side response, including the `Retry-After` hint.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub body: String,
    /// Seconds from a `Retry-After` header, when the server sent one.
    pub retry_after: Option<u64>,
}

/// A keep-alive HTTP/1.1 client: pools one TCP connection to `addr` and
/// reuses it across requests. Responses are `Content-Length`-framed, so
/// the connection stays usable after every exchange; a stale pooled
/// connection (the server closed it while idle, so it fails before any
/// response arrives) is retried exactly once on a fresh one. Every
/// request first passes the [`crate::fault`] network seam.
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    stream: Option<TcpStream>,
}

impl HttpClient {
    pub fn new(addr: &str) -> Self {
        HttpClient { addr: addr.to_string(), stream: None }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Send one request, reusing the pooled connection when possible.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        crate::fault::on_net_op()?;
        let reused = self.stream.is_some();
        match self.send(method, path, body) {
            // The server may have dropped the idle pooled connection
            // between requests; that failure mode gets one fresh
            // connection. Anything else — a timeout or a malformed
            // response after the request went out — may have been acted
            // on, and anything on a fresh connection is real.
            Err(e) if reused && stale(&e) => self.send(method, path, body),
            other => other,
        }
    }

    /// [`HttpClient::request`] with bounded retry under `policy`:
    /// connection-refused/reset and 503 responses are retried, honoring
    /// a server-sent `Retry-After` (clamped to `policy.cap`) over the
    /// computed backoff. Every other status — including 4xx/5xx — returns
    /// on the first attempt; status handling stays with the caller. The
    /// pooled connection is reused across attempts.
    pub fn request_retry(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        policy: &RetryPolicy,
    ) -> std::io::Result<HttpResponse> {
        let salt = format!("{method} {}{path}", self.addr);
        for attempt in 1..=policy.attempts.max(1) {
            // The final attempt returns unconditionally — a lingering 503
            // or refusal is the caller's to report, with full context.
            let delay = match self.request(method, path, body) {
                Ok(resp) if resp.status == 503 && attempt < policy.attempts => {
                    let computed = policy.backoff(attempt, &salt);
                    resp.retry_after
                        .map(|secs| Duration::from_secs(secs).min(policy.cap))
                        .unwrap_or(computed)
                }
                Ok(resp) => return Ok(resp),
                Err(e) if transient(&e) && attempt < policy.attempts => {
                    policy.backoff(attempt, &salt)
                }
                Err(e) => return Err(e),
            };
            std::thread::sleep(delay);
        }
        // The `attempt == policy.attempts` arms above always return; keep
        // a real error (not `unreachable!`) so a future refactor of the
        // retry arms degrades to a failed request instead of a panic.
        Err(std::io::Error::other("retry budget exhausted"))
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_write_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(stream);
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err(std::io::Error::other("no pooled connection"));
        };
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\
             Connection: keep-alive\r\n\r\n",
            self.addr,
            body.len(),
        );
        let exchange = (|| {
            stream.write_all(head.as_bytes())?;
            stream.write_all(body.as_bytes())?;
            stream.flush()?;
            read_framed_response(stream)
        })();
        match exchange {
            Ok((resp, server_keeps)) => {
                if !server_keeps {
                    self.stream = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Read one `Content-Length`-framed response; returns it plus whether
/// the server will keep the connection open.
fn read_framed_response(stream: &mut TcpStream) -> std::io::Result<(HttpResponse, bool)> {
    // A fresh BufReader per response is safe: responses are framed by
    // Content-Length and the server sends nothing past the body until
    // our next request, so the buffer cannot swallow later bytes.
    let mut reader = BufReader::new(stream);
    let bad = |what: &str| std::io::Error::other(format!("malformed HTTP response: {what}"));
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "peer closed before the status line",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("status line"))?;
    let mut content_length: Option<usize> = None;
    let mut retry_after = None;
    let mut keep_alive = true;
    let mut head_len = line.len();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("peer closed mid-head"));
        }
        head_len += line.len();
        if head_len > MAX_HEAD {
            return Err(bad("head too large"));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse().map_err(|_| bad("content-length"))?);
        } else if name.trim().eq_ignore_ascii_case("retry-after") {
            // A missing or malformed hint simply means "no hint": the
            // retry client falls back to its computed backoff.
            retry_after = value.parse::<u64>().ok();
        } else if name.trim().eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let len = content_length.ok_or_else(|| bad("missing content-length"))?;
    if len > MAX_BODY {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8_lossy(&body).into_owned();
    Ok((HttpResponse { status, body, retry_after }, keep_alive))
}

/// Bounded exponential backoff for the thin client: how many attempts a
/// retryable failure gets, and how the sleep between them grows.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "never retry").
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base: Duration,
    /// Backoff ceiling — also clamps server-sent `Retry-After` hints.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 6, base: Duration::from_millis(100), cap: Duration::from_secs(2) }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based): `base * 2^(retry-1)`
    /// clamped to `cap`, plus up to 25% deterministic jitter keyed on
    /// `(salt, retry)` so a fleet of identical clients still de-phases.
    pub fn backoff(&self, retry: u32, salt: &str) -> Duration {
        let exp = self.base.saturating_mul(1u32 << (retry - 1).min(16)).min(self.cap);
        let jitter = exp.mul_f64(0.25 * fraction(fnv(salt, retry)));
        exp + jitter
    }
}

/// FNV-1a over the salt and retry counter — a cheap deterministic jitter
/// source (no `rand` dependency, reproducible failures).
fn fnv(salt: &str, retry: u32) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in salt.bytes().chain(retry.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Is this I/O failure worth retrying? Connection-level refusals and
/// resets are (the daemon may be restarting under its supervisor);
/// timeouts and protocol errors are not — the request may have been
/// acted on.
fn transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

/// Did a pooled connection prove dead before any response began? A
/// write into a closed socket breaks the pipe, and a read finds the
/// peer's reset or its close ahead of the status line. Only these are
/// safe to resend: the server never saw the request.
fn stale(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serve exactly `n` connections with `handler`, on an ephemeral
    /// port; returns the address.
    fn one_shot_server(
        n: usize,
        handler: impl Fn(Result<Request, HttpError>) -> Response + Send + 'static,
    ) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for _ in 0..n {
                let (mut stream, _) = listener.accept().unwrap();
                let req = read_request(&mut stream);
                let resp = handler(req);
                write_response(&mut stream, &resp, false).unwrap();
            }
        });
        addr
    }

    #[test]
    fn round_trips_methods_paths_queries_and_bodies() {
        let addr = one_shot_server(3, |req| {
            let req = req.expect("parseable");
            Response::text(
                200,
                format!(
                    "{} {} q={} fmt={:?} body={}",
                    req.method,
                    req.segments().join(","),
                    req.query,
                    req.query_param("format"),
                    req.body_str().unwrap()
                ),
            )
        });
        let (status, body) = http_get(&addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "GET healthz q= fmt=None body=");

        let (status, body) = http_post(&addr, "/campaigns", "name = \"x\"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "POST campaigns q= fmt=None body=name = \"x\"");

        let (_, body) = http_get(&addr, "/campaigns/c1/results?format=csv&x=1").unwrap();
        assert!(body.contains("campaigns,c1,results"), "{body}");
        assert!(body.contains("fmt=Some(\"csv\")"), "{body}");
    }

    #[test]
    fn retrying_client_rides_out_backpressure_and_honors_retry_after() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let served = Arc::new(AtomicUsize::new(0));
        let served_in = served.clone();
        // Two 503s (one with a Retry-After hint), then success.
        let addr = one_shot_server(3, move |_req| match served_in.fetch_add(1, Ordering::SeqCst) {
            0 => Response::text(503, "busy".into()).with_retry_after(1),
            1 => Response::text(503, "busy".into()),
            _ => Response::text(200, "done".into()),
        });
        let policy = RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
        };
        let started = std::time::Instant::now();
        let resp = HttpClient::new(&addr).request_retry("GET", "/stats", None, &policy).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "done");
        assert_eq!(served.load(Ordering::SeqCst), 3);
        // The hinted 1s Retry-After must be clamped to the 20ms cap.
        assert!(started.elapsed() < Duration::from_millis(900), "{:?}", started.elapsed());
    }

    #[test]
    fn retrying_client_gives_up_after_the_attempt_budget() {
        let addr = one_shot_server(2, |_req| Response::text(503, "busy".into()));
        let policy = RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
        };
        let resp = HttpClient::new(&addr).request_retry("GET", "/stats", None, &policy).unwrap();
        // The final 503 comes back to the caller instead of an error.
        assert_eq!(resp.status, 503);
    }

    #[test]
    fn retrying_client_retries_connection_refused() {
        // Bind then drop: the port is (momentarily) guaranteed refused.
        let refused = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
        };
        let err =
            HttpClient::new(&refused).request_retry("GET", "/healthz", None, &policy).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(2),
        };
        let b1 = p.backoff(1, "s");
        let b2 = p.backoff(2, "s");
        let b5 = p.backoff(5, "s");
        assert!(b1 >= Duration::from_millis(100) && b1 <= Duration::from_millis(125), "{b1:?}");
        assert!(b2 >= Duration::from_millis(200) && b2 <= Duration::from_millis(250), "{b2:?}");
        // 100ms * 2^4 = 1.6s, inside the cap; 25% jitter keeps it < 2.5s.
        assert!(b5 >= Duration::from_millis(1600) && b5 <= Duration::from_millis(2500), "{b5:?}");
        assert_eq!(p.backoff(3, "s"), p.backoff(3, "s"), "jitter must be deterministic");
        assert_ne!(p.backoff(3, "salt-a"), p.backoff(3, "salt-b"), "but keyed on the salt");
    }

    #[test]
    fn full_client_surfaces_retry_after() {
        let addr =
            one_shot_server(1, |_req| Response::text(503, "q full".into()).with_retry_after(7));
        let resp = HttpClient::new(&addr).request("GET", "/stats", None).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(7));
        assert_eq!(resp.body, "q full");
    }

    /// Serve raw pre-baked response bytes, one connection per response.
    fn raw_server(responses: Vec<&'static str>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for raw in responses {
                let (mut stream, _) = listener.accept().unwrap();
                let _ = read_request(&mut stream);
                stream.write_all(raw.as_bytes()).unwrap();
            }
        });
        addr
    }

    #[test]
    fn keep_alive_client_reuses_one_connection() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let connections = Arc::new(AtomicUsize::new(0));
        let conns_in = connections.clone();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            // Serve every request on each accepted connection until the
            // peer closes, like the real server loop does.
            while let Ok((mut stream, _)) = listener.accept() {
                conns_in.fetch_add(1, Ordering::SeqCst);
                let mut served = 0u32;
                while let Ok(req) = read_request(&mut stream) {
                    served += 1;
                    let resp = Response::text(200, format!("req {served}"));
                    if write_response(&mut stream, &resp, req.keep_alive).is_err() {
                        break;
                    }
                    if !req.keep_alive {
                        break;
                    }
                }
            }
        });

        let mut client = HttpClient::new(&addr);
        for i in 1..=3 {
            let resp = client.request("GET", "/healthz", None).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, format!("req {i}"));
        }
        assert_eq!(connections.load(Ordering::SeqCst), 1, "three requests, one connection");
    }

    /// Serve keep-alive connections, counting every request read;
    /// `respond(n, stream)` answers request `n` (1-based) and says
    /// whether to keep serving that connection.
    fn counting_server(
        respond: impl Fn(usize, &mut TcpStream) -> bool + Send + 'static,
    ) -> (String, std::sync::Arc<std::sync::atomic::AtomicUsize>) {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let served = std::sync::Arc::new(AtomicUsize::new(0));
        let served_in = served.clone();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                while read_request(&mut stream).is_ok() {
                    let n = served_in.fetch_add(1, Ordering::SeqCst) + 1;
                    if !respond(n, &mut stream) {
                        break;
                    }
                }
            }
        });
        (addr, served)
    }

    #[test]
    fn stale_pooled_connection_is_retried_on_a_fresh_one() {
        use std::sync::atomic::Ordering;

        // Request 1 is answered keep-alive and the server then closes the
        // connection anyway, so request 2 meets a dead pooled connection
        // before any response: that one is safe to resend.
        let (addr, served) = counting_server(|n, stream| {
            let ok = Response::text(200, format!("req {n}"));
            write_response(stream, &ok, true).unwrap();
            n != 1
        });
        let mut client = HttpClient::new(&addr);
        assert_eq!(client.request("GET", "/a", None).unwrap().body, "req 1");
        assert_eq!(client.request("GET", "/b", None).unwrap().body, "req 2");
        assert_eq!(served.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn malformed_response_on_a_reused_connection_is_not_resent() {
        use std::sync::atomic::Ordering;

        // Request 2 reaches the server, which acts on it and answers with
        // an unparseable status line. Resending it would act twice.
        let (addr, served) = counting_server(|n, stream| {
            if n == 1 {
                let ok = Response::text(200, "ok".into());
                write_response(stream, &ok, true).unwrap();
            } else {
                stream.write_all(b"garbage\r\n\r\n").unwrap();
            }
            true
        });
        let mut client = HttpClient::new(&addr);
        assert_eq!(client.request("GET", "/a", None).unwrap().status, 200);
        assert!(client.request("POST", "/campaigns", Some("x")).is_err());
        assert_eq!(served.load(Ordering::SeqCst), 2, "the acted-on request was sent again");
    }

    #[test]
    fn retry_after_parsing_missing_malformed_and_huge() {
        // Missing: no Retry-After header at all.
        let addr = raw_server(vec![
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy",
        ]);
        let resp = HttpClient::new(&addr).request("GET", "/stats", None).unwrap();
        assert_eq!((resp.status, resp.retry_after), (503, None));

        // Malformed: an HTTP-date (or garbage) is "no hint", not an error.
        let addr = raw_server(vec![
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: soon\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy",
        ]);
        let resp = HttpClient::new(&addr).request("GET", "/stats", None).unwrap();
        assert_eq!((resp.status, resp.retry_after), (503, None));

        // Wider than u64: also "no hint".
        let addr = raw_server(vec![
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 99999999999999999999999999\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy",
        ]);
        let resp = HttpClient::new(&addr).request("GET", "/stats", None).unwrap();
        assert_eq!((resp.status, resp.retry_after), (503, None));

        // Huge but parseable survives parsing; the retry loop clamps it.
        let addr = raw_server(vec![
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 4294967295\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy",
        ]);
        let resp = HttpClient::new(&addr).request("GET", "/stats", None).unwrap();
        assert_eq!((resp.status, resp.retry_after), (503, Some(4_294_967_295)));
    }

    #[test]
    fn huge_retry_after_hint_is_clamped_to_the_policy_cap() {
        let addr = raw_server(vec![
            // A ~136-year hint, then success: the sleep must be `cap`.
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 4294967295\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy",
            "HTTP/1.1 200 OK\r\nContent-Length: 4\r\nConnection: close\r\n\r\ndone",
        ]);
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
        };
        let started = std::time::Instant::now();
        let resp = HttpClient::new(&addr).request_retry("GET", "/stats", None, &policy).unwrap();
        assert_eq!(resp.status, 200);
        assert!(started.elapsed() < Duration::from_millis(900), "{:?}", started.elapsed());
    }

    #[test]
    fn backoff_jitter_stays_within_the_25_percent_band() {
        let p = RetryPolicy {
            attempts: 10,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(2),
        };
        for retry in 1..=10u32 {
            let exp = p.base.saturating_mul(1u32 << (retry - 1).min(16)).min(p.cap);
            for salt in ["a", "worker-0", "GET 127.0.0.1:1/x", ""] {
                let b = p.backoff(retry, salt);
                assert!(b >= exp, "retry {retry} salt {salt:?}: {b:?} < {exp:?}");
                assert!(
                    b <= exp + exp.mul_f64(0.25),
                    "retry {retry} salt {salt:?}: {b:?} > 1.25 * {exp:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_garbage_and_oversized_requests() {
        let addr = one_shot_server(2, |req| match req {
            Ok(_) => Response::text(200, "ok".into()),
            Err(e) => Response::text(400, e.to_string()),
        });
        // Raw garbage instead of a request line.
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"not http at all\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");

        // Declared body larger than the cap.
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(
            format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1).as_bytes(),
        )
        .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    }
}
