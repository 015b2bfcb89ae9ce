//! The open-loop `/metrics` scraper: one keep-alive connection, a fixed
//! request schedule independent of how fast answers come back, every
//! scrape timed from its due time to the last byte and validated.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Per-scrape I/O timeout: a scrape slower than this counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// What one scraper run observed.
#[derive(Debug, Default)]
pub struct ScrapeRun {
    /// Scrapes sent.
    pub attempted: u64,
    /// Scrapes that did not return a 200 with a valid exposition.
    pub failed: u64,
    /// Due-time-to-last-byte latency per scrape, ns; a failed scrape
    /// reads `u64::MAX` so it misses every latency limit.
    pub latency_ns: Vec<u64>,
    /// How late each request left relative to its due time, ns.
    pub lag_ns: Vec<u64>,
}

/// Scrapes `GET /metrics` at `rate_hz` until `stop` is set. The schedule is
/// open loop: request `k` is due at `start + k/rate`, and a slow answer
/// delays later requests without thinning the schedule.
pub fn run(addr: SocketAddr, rate_hz: f64, stop: &AtomicBool) -> ScrapeRun {
    let period = Duration::from_secs_f64(1.0 / rate_hz);
    let request = "GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n";
    let mut out = ScrapeRun::default();
    let mut conn: Option<BufReader<TcpStream>> = None;
    let start = Instant::now();
    for k in 0u32.. {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let due = start + period * k;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.lag_ns.push(nanos(due.elapsed()));
        out.attempted += 1;
        let reply = scrape_once(&mut conn, addr, request);
        let latency = nanos(due.elapsed());
        match reply {
            Ok((200, body)) if hmd_obs::validate_exposition(&body).is_ok() => {
                out.latency_ns.push(latency);
            }
            _ => {
                out.failed += 1;
                out.latency_ns.push(u64::MAX);
                conn = None;
            }
        }
    }
    out
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One request/response exchange on the kept-alive connection, opening
/// a fresh one when there is none. Returns the status and body.
fn scrape_once(
    conn: &mut Option<BufReader<TcpStream>>,
    addr: SocketAddr,
    request: &str,
) -> std::io::Result<(u16, String)> {
    if conn.is_none() {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        *conn = Some(BufReader::new(stream));
    }
    let reader = conn.as_mut().expect("connection just opened");
    reader.get_mut().write_all(request.as_bytes())?;
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed status line"))?;
    let (mut length, mut close) = (None, false);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("connection closed mid-headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let length = length.ok_or_else(|| std::io::Error::other("no Content-Length"))?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    if close {
        *conn = None;
    }
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(std::io::Error::other)
}
