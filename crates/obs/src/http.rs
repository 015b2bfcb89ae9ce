//! A deliberately small blocking HTTP/1.1 server on `std::net` — just
//! enough protocol for a fleet of scrape endpoints: parse the request
//! line of a `GET`, dispatch on the path, write one response. A fixed
//! worker pool serves connections handed off by one accept-loop thread,
//! so a stalled scraper occupies one worker instead of wedging every
//! other client, and HTTP/1.1 keep-alive lets a scraper reuse one
//! connection for a bounded burst of requests. No TLS; a Prometheus
//! scraper or `curl` is the entire intended client set.
//!
//! Robustness over features: bounded request-line size (414 past the
//! limit), bounded header section (400 when it never terminates), read
//! timeouts so a stalled client cannot hold a worker forever, 400 on
//! garbage, 405 on non-GET, 404 on unknown paths.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted request line (method + path + version).
const MAX_REQUEST_LINE: usize = 4096;
/// Most header lines (including the terminating blank) per request;
/// a header section still unterminated past this is answered with 400.
const MAX_HEADER_LINES: usize = 128;
/// Most requests served over one keep-alive connection before the
/// server closes it — bounds how long one client can pin a worker.
const MAX_KEEPALIVE_REQUESTS: usize = 32;
/// Largest declared request body the server will drain. Bodies are
/// never interpreted, but a kept-alive request's body must be consumed
/// so its bytes are not misparsed as the next request line; anything
/// larger is answered 413 and the connection closed.
const MAX_BODY_BYTES: u64 = 64 * 1024;
/// Connections serving concurrently unless overridden in `start_with`.
/// The handler is CPU-light (rendering a metrics page); workers mostly
/// block on client IO, so a small fixed pool beats a per-core count.
const DEFAULT_WORKERS: usize = 4;
/// Per-connection read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A parsed request: the method and path of the request line. Headers
/// are read and discarded; bodies are drained (bounded) but never
/// interpreted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, e.g. `/metrics`.
    pub path: String,
}

/// A response the handler hands back.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body.
    pub body: String,
}

impl Response {
    /// A `200 OK` plain-text response.
    #[must_use]
    pub fn ok(body: String) -> Self {
        Self { status: 200, content_type: "text/plain; version=0.0.4; charset=utf-8", body }
    }

    /// A `200 OK` JSON response.
    #[must_use]
    pub fn json(body: String) -> Self {
        Self { status: 200, content_type: "application/json", body }
    }

    /// A `200 OK` HTML response (the self-contained `/dashboard` page).
    #[must_use]
    pub fn html(body: String) -> Self {
        Self { status: 200, content_type: "text/html; charset=utf-8", body }
    }

    /// A plain-text response with an explicit status.
    #[must_use]
    pub fn status(status: u16, body: &str) -> Self {
        Self { status, content_type: "text/plain; charset=utf-8", body: body.to_owned() }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        414 => "URI Too Long",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// The request handler. Runs on pool worker threads; must be quick.
pub type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// The running server: one accept-loop thread feeding a fixed worker
/// pool over a channel, plus a shutdown flag.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `handler` with the default worker pool.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn start(addr: &str, handler: Arc<Handler>) -> std::io::Result<Self> {
        Self::start_with(addr, handler, DEFAULT_WORKERS)
    }

    /// Like [`start`](Self::start) with an explicit worker count
    /// (clamped to at least one). Each worker serves one connection at
    /// a time, so `workers` bounds concurrent clients; excess
    /// connections queue in the accept channel.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn start_with(
        addr: &str,
        handler: Arc<Handler>,
        workers: usize,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut pool = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("hmd-obs-http-{i}"))
                    .spawn(move || worker_loop(&rx, handler.as_ref()))?,
            );
        }
        let stop_flag = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("hmd-obs-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // a send only fails once every worker is gone, which
                    // means we are shutting down anyway
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                // dropping tx here starves recv() and retires the pool
            })?;
        Ok(Self { addr, stop, accept: Some(accept), workers: pool })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop, retires the worker pool and joins every
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() && self.workers.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // the loop blocks in accept(); a self-connection wakes it up so
        // it can observe the flag
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // the accept thread dropped the channel sender on exit, so each
        // worker's recv() fails once the queue drains
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One pool worker: serve queued connections until the channel closes.
fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, handler: &Handler) {
    loop {
        // holding the lock only while blocked in recv(): the guard is a
        // temporary, released before the connection is served
        let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(stream) = next else { break };
        // a misbehaving client only costs one bounded connection, never
        // the pool itself
        let _ = serve_conn(stream, handler);
    }
}

/// Serves one connection: up to [`MAX_KEEPALIVE_REQUESTS`] requests over
/// HTTP/1.1 keep-alive, answering the matching 4xx for protocol
/// violations. A clean end-of-stream (or idle timeout) between requests
/// closes without a response.
fn serve_conn(stream: TcpStream, handler: &Handler) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(&stream);

    for served in 1..=MAX_KEEPALIVE_REQUESTS {
        match read_request(&mut reader) {
            Ok((req, client_keep_alive)) => {
                let keep = client_keep_alive && served < MAX_KEEPALIVE_REQUESTS;
                let response = if req.method == "GET" {
                    handler(&req)
                } else {
                    Response::status(405, "only GET is supported\n")
                };
                write_response(&stream, &response, keep)?;
                if !keep {
                    break;
                }
            }
            Err(Some(status)) => {
                let body = match status {
                    413 => "content too large\n",
                    501 => "transfer encodings are not supported\n",
                    _ => "bad request\n",
                };
                write_response(&stream, &Response::status(status, body), false)?;
                break;
            }
            // the client finished with the connection (EOF or idle past
            // the read timeout at a request boundary): close silently
            Err(None) => return Ok(()),
        }
    }
    // drain (bounded) whatever the client is still sending before the
    // socket closes — closing with unread data pending triggers an RST
    // that can destroy the final response in flight
    let mut scratch = [0u8; 1024];
    for _ in 0..64 {
        match std::io::Read::read(&mut reader, &mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(())
}

/// Parses the request line and headers, then drains the declared body
/// so a kept-alive connection stays framed at the next request line.
/// Returns the request plus whether the client allows connection reuse;
/// `Err(Some(status))` is the HTTP status to answer protocol errors
/// with, `Err(None)` a clean end-of-stream before the request line
/// started.
fn read_request<R: BufRead>(reader: &mut R) -> Result<(Request, bool), Option<u16>> {
    let line = read_line_bounded(reader, MAX_REQUEST_LINE, true)?;
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(Some(400)),
    };
    if !version.starts_with("HTTP/1.") || !path.starts_with('/') {
        return Err(Some(400));
    }
    // keep-alive is the HTTP/1.1 default; HTTP/1.0 must ask for it
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length: Option<u64> = None;
    let mut terminated = false;
    for _ in 0..MAX_HEADER_LINES {
        let header = read_line_bounded(reader, MAX_REQUEST_LINE, false)?;
        if header.is_empty() {
            terminated = true;
            break;
        }
        let Some((name, value)) = header.split_once(':') else { continue };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            // the value is a comma-separated token list ("keep-alive,
            // Upgrade"); tokens match case-insensitively, later tokens
            // win on (nonsensical) conflicts
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            let Ok(n) = value.parse::<u64>() else { return Err(Some(400)) };
            // duplicate headers must agree, else the framing is ambiguous
            if content_length.is_some_and(|prev| prev != n) {
                return Err(Some(400));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // a chunked body would desync the connection if ignored;
            // refuse rather than misparse
            return Err(Some(501));
        }
    }
    if !terminated {
        // a header section that never ends within the bound is a
        // protocol violation, not a request to silently serve
        return Err(Some(400));
    }
    // drain the declared body: its bytes are part of *this* request, and
    // leaving them buffered would misparse them as the next request line
    if let Some(declared) = content_length {
        if declared > MAX_BODY_BYTES {
            return Err(Some(413));
        }
        let mut remaining = usize::try_from(declared).map_err(|_| Some(413))?;
        let mut chunk = [0u8; 512];
        while remaining > 0 {
            let take = remaining.min(chunk.len());
            match reader.read(&mut chunk[..take]) {
                // EOF, timeout or reset before the declared length: the
                // body was truncated mid-request
                Ok(0) | Err(_) => return Err(Some(400)),
                Ok(n) => remaining -= n,
            }
        }
    }
    Ok((Request { method: method.to_owned(), path: path.to_owned() }, keep_alive))
}

/// Reads one CRLF- (or LF-) terminated line of at most `max` bytes.
/// With `eof_is_clean`, end-of-stream (or an idle timeout) before the
/// first byte maps to `Err(None)` — a request boundary, not an error.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    max: usize,
    eof_is_clean: bool,
) -> Result<String, Option<u16>> {
    let mut line = Vec::with_capacity(128);
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                if eof_is_clean && line.is_empty() {
                    return Err(None); // peer closed between requests
                }
                return Err(Some(400)); // peer closed mid-line
            }
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => {
                if line.len() >= max {
                    return Err(Some(414));
                }
                line.push(byte[0]);
            }
            Err(_) => {
                if eof_is_clean && line.is_empty() {
                    return Err(None); // idle keep-alive connection
                }
                return Err(Some(400)); // timeout or reset mid-request
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| Some(400))
}

/// Writes head and body in one `write`: split, the body segment would
/// wait behind Nagle for the client's delayed ACK of the head (~40 ms
/// on every kept-alive response after the first).
fn write_response(mut stream: &TcpStream, r: &Response, keep_alive: bool) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        r.status,
        reason(r.status),
        r.content_type,
        r.body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    out.push_str(&r.body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use std::io::Read;

    use super::*;

    fn start_echo() -> HttpServer {
        HttpServer::start(
            "127.0.0.1:0",
            Arc::new(|req: &Request| match req.path.as_str() {
                "/hello" => Response::ok("world\n".into()),
                "/json" => Response::json("{\"ok\":true}".into()),
                _ => Response::status(404, "not found\n"),
            }),
        )
        .expect("bind")
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(raw.as_bytes()).expect("write");
        // half-close so a truncated request reads as EOF, not a stall
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn serves_known_paths_with_content_length() {
        let server = start_echo();
        let reply = roundtrip(server.addr(), "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("Content-Length: 6\r\n"), "{reply}");
        assert!(reply.ends_with("world\n"), "{reply}");
        let reply = roundtrip(server.addr(), "GET /json HTTP/1.0\r\n\r\n");
        assert!(reply.contains("application/json"), "{reply}");
    }

    #[test]
    fn unknown_path_is_404_and_non_get_is_405() {
        let server = start_echo();
        let reply = roundtrip(server.addr(), "GET /nope HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
        let reply = roundtrip(server.addr(), "POST /hello HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 405"), "{reply}");
    }

    #[test]
    fn oversized_request_line_is_414() {
        let server = start_echo();
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(2 * MAX_REQUEST_LINE));
        let reply = roundtrip(server.addr(), &long);
        assert!(reply.starts_with("HTTP/1.1 414"), "{reply}");
    }

    #[test]
    fn partial_and_malformed_requests_get_400() {
        let server = start_echo();
        // truncated: client closes before finishing the request line
        let reply = roundtrip(server.addr(), "GET /hel");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        let reply = roundtrip(server.addr(), "NONSENSE\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        let reply = roundtrip(server.addr(), "GET nopath HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    }

    /// Reads exactly one response off a keep-alive connection: headers
    /// up to the blank line, then `Content-Length` body bytes.
    fn read_one_response(reader: &mut BufReader<&TcpStream>) -> (String, String) {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header line");
            if line == "\r\n" || line == "\n" {
                break;
            }
            head.push_str(&line);
        }
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content length")
            .trim()
            .parse()
            .expect("numeric length");
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).expect("body");
        (head, String::from_utf8(body).expect("utf8 body"))
    }

    #[test]
    fn unterminated_header_section_is_400() {
        let server = start_echo();
        // request line is fine, but the header section never reaches a
        // blank line within the server's header bound
        let flood = format!("GET /hello HTTP/1.1\r\n{}", "X-Pad: y\r\n".repeat(200));
        let reply = roundtrip(server.addr(), &flood);
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    }

    /// Kept-alive responses are not held back by Nagle + delayed ACK:
    /// 50 sequential requests take milliseconds, not 50 × ~40 ms. The
    /// client reconnects only when the server closes at its per-connection
    /// request cap.
    #[test]
    fn keep_alive_responses_do_not_stall() {
        let server = start_echo();
        let started = std::time::Instant::now();
        let mut conn: Option<TcpStream> = None;
        for _ in 0..50 {
            let stream =
                conn.take().unwrap_or_else(|| TcpStream::connect(server.addr()).expect("connect"));
            (&stream).write_all(b"GET /hello HTTP/1.1\r\nHost: x\r\n\r\n").expect("write");
            let (head, body) = read_one_response(&mut BufReader::new(&stream));
            assert_eq!(body, "world\n");
            if head.contains("Connection: keep-alive") {
                conn = Some(stream);
            }
        }
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "50 kept-alive requests took {elapsed:?}");
    }

    #[test]
    fn keep_alive_reuses_one_connection() {
        let server = start_echo();
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(&stream);
        for _ in 0..2 {
            (&stream)
                .write_all(b"GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("write");
            let (head, body) = read_one_response(&mut reader);
            assert!(head.contains("Connection: keep-alive"), "{head}");
            assert_eq!(body, "world\n");
        }
        // the final request asks to close; the server honors it
        (&stream)
            .write_all(b"GET /json HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("write");
        let (head, body) = read_one_response(&mut reader);
        assert!(head.contains("Connection: close"), "{head}");
        assert_eq!(body, "{\"ok\":true}");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("server closed");
        assert!(rest.is_empty(), "unexpected trailing data: {rest}");
    }

    /// The keep-alive desync regression: a kept-alive POST carrying a
    /// body used to leave the body bytes buffered, where they were
    /// misparsed as the next request line (400 instead of serving the
    /// follow-up). The body must be drained before answering.
    #[test]
    fn keep_alive_request_body_is_drained_not_misparsed() {
        let server = start_echo();
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(&stream);
        (&stream)
            .write_all(
                b"POST /hello HTTP/1.1\r\nHost: x\r\nContent-Length: 17\r\n\r\n\
                  GET /spoofed-body",
            )
            .expect("write post");
        let (head, _) = read_one_response(&mut reader);
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        // the same connection must still be framed at a request boundary
        (&stream).write_all(b"GET /hello HTTP/1.1\r\nHost: x\r\n\r\n").expect("write get");
        let (head, body) = read_one_response(&mut reader);
        assert!(head.starts_with("HTTP/1.1 200"), "body bytes desynced the connection: {head}");
        assert_eq!(body, "world\n");
    }

    #[test]
    fn oversized_body_is_413_and_closes() {
        let server = start_echo();
        let reply = roundtrip(
            server.addr(),
            "POST /hello HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
        assert!(reply.contains("Connection: close"), "{reply}");
    }

    #[test]
    fn bad_and_conflicting_content_lengths_are_400() {
        let server = start_echo();
        let reply =
            roundtrip(server.addr(), "GET /hello HTTP/1.1\r\nContent-Length: nope\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        let reply = roundtrip(
            server.addr(),
            "GET /hello HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc",
        );
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    }

    #[test]
    fn transfer_encoding_is_refused_with_501() {
        let server = start_echo();
        let reply = roundtrip(
            server.addr(),
            "POST /hello HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 501"), "{reply}");
    }

    /// `Connection` carries a token *list*; `keep-alive, Upgrade` used
    /// to match neither exact string and fall through to the version
    /// default.
    #[test]
    fn connection_header_token_lists_are_parsed() {
        let server = start_echo();
        // HTTP/1.0 defaults to close, so honoring keep-alive here
        // proves the token (not the whole value) matched
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(&stream);
        (&stream)
            .write_all(b"GET /hello HTTP/1.0\r\nConnection: Keep-Alive, Upgrade\r\n\r\n")
            .expect("write");
        let (head, body) = read_one_response(&mut reader);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert_eq!(body, "world\n");
        // and a close token buried in a list closes an HTTP/1.1 request
        (&stream)
            .write_all(b"GET /hello HTTP/1.1\r\nConnection: Upgrade, CLOSE\r\n\r\n")
            .expect("write");
        let (head, _) = read_one_response(&mut reader);
        assert!(head.contains("Connection: close"), "{head}");
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        let server = start_echo();
        let reply = roundtrip(server.addr(), "GET /hello HTTP/1.0\r\n\r\n");
        assert!(reply.contains("Connection: close"), "{reply}");
    }

    #[test]
    fn stalled_client_does_not_block_the_pool() {
        let server = start_echo();
        // a client that opens a connection and sends half a request
        // line, then stalls — it pins one worker until the read timeout
        let staller = TcpStream::connect(server.addr()).expect("connect");
        (&staller).write_all(b"GET /hel").expect("write partial");
        // other clients are served promptly by the remaining workers
        let t0 = std::time::Instant::now();
        let reply = roundtrip(server.addr(), "GET /hello HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(
            t0.elapsed() < IO_TIMEOUT,
            "head-of-line blocked behind the stalled client: {:?}",
            t0.elapsed()
        );
        drop(staller);
    }

    #[test]
    fn shutdown_joins_and_releases_the_port() {
        let mut server = start_echo();
        let addr = server.addr();
        server.shutdown();
        server.shutdown(); // idempotent
        // the port is free again
        let _rebind = TcpListener::bind(addr).expect("port released");
    }
}
