//! The load generator's side of the wire: one JSON-lines connection,
//! and the closed, pipelined and open loops that drive it.
//!
//! Each loop runs on the calling thread and owns one connection, so a
//! run with two connections uses two threads. Responses come back in
//! request order per connection (the protocol guarantees it for both
//! the router and a shard), which is how a response is matched to its
//! request. Every response is checked as it arrives.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a response may take before the run is declared stuck.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Register,
    Embed,
    Detect,
    Maintain,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Register => "register",
            Op::Embed => "embed",
            Op::Detect => "detect",
            Op::Maintain => "maintain",
        }
    }
}

/// What a correct response must say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `"ok":true`; the body is checked later by the correctness gate.
    Ok,
    /// `"ok":true` with this `accepted` verdict.
    Verdict(bool),
}

/// One request line (newline-terminated) and what to expect back.
#[derive(Debug, Clone)]
pub struct Request {
    pub op: Op,
    /// Index of the tenant in the workload's own numbering.
    pub tenant: usize,
    /// Per-tenant sequence number (maintains) or request number.
    pub seq: usize,
    pub line: Arc<str>,
    pub expect: Expect,
}

/// Outcome of one request, as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub op: Op,
    pub tenant: usize,
    pub seq: usize,
    /// When the request was due (open loop) or sent (closed loops).
    pub start: Instant,
    /// Response time: from when the request was due (open loop) or sent
    /// (closed loops) to when its response line arrived.
    pub latency: Duration,
    /// How late the generator sent it (open loop only; zero otherwise).
    pub late: Duration,
    /// The response passed the inline check (a quota refusal fails it).
    pub ok: bool,
    /// Bytes of the request line.
    pub bytes: usize,
    /// Kept for embeds and maintains, whose bodies the gate checks.
    pub response: Option<String>,
}

/// Inline response check: success, and the expected verdict for
/// detects.
pub fn check(expect: Expect, response: &str) -> bool {
    if !response.starts_with("{\"ok\":true") {
        return false;
    }
    match expect {
        Expect::Ok => true,
        Expect::Verdict(true) => response.contains("\"accepted\":true"),
        Expect::Verdict(false) => response.contains("\"accepted\":false"),
    }
}

fn sample(req: &Request, start: Instant, late: Duration, response: String) -> Sample {
    Sample {
        op: req.op,
        tenant: req.tenant,
        seq: req.seq,
        start,
        latency: start.elapsed(),
        late,
        ok: check(req.expect, &response),
        bytes: req.line.len(),
        response: matches!(req.op, Op::Embed | Op::Maintain).then_some(response),
    }
}

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Bytes of a response line not yet complete (kept across read
    /// timeouts, so a line split over two reads is never lost).
    partial: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            partial: Vec::new(),
        })
    }

    /// Sends one newline-terminated request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(line.ends_with('\n'));
        self.writer.write_all(line.as_bytes())
    }

    /// Waits up to `wait` for a complete response line.
    pub fn recv_within(&mut self, wait: Duration) -> io::Result<Option<String>> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(wait.max(Duration::from_micros(50))))?;
        match self.reader.read_until(b'\n', &mut self.partial) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(_) if self.partial.ends_with(b"\n") => {
                let line = String::from_utf8(std::mem::take(&mut self.partial))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                Ok(Some(line.trim_end().to_string()))
            }
            Ok(_) => Ok(None),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Waits for the next response line, up to [`RESPONSE_TIMEOUT`].
    pub fn recv(&mut self) -> io::Result<String> {
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no response"));
            }
            if let Some(line) = self.recv_within(left)? {
                return Ok(line);
            }
        }
    }

    /// One synchronous round trip.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

/// One synchronous request, timed and checked.
pub fn exchange(conn: &mut Conn, req: &Request) -> io::Result<Sample> {
    let sent = Instant::now();
    let response = conn.request(&req.line)?;
    Ok(sample(req, sent, Duration::ZERO, response))
}

/// Closed loop: the next request is sent only when the previous one
/// answered. Runs until `until`.
pub fn closed_loop(
    conn: &mut Conn,
    until: Instant,
    mut next: impl FnMut(usize) -> Request,
) -> io::Result<Vec<Sample>> {
    let mut out = Vec::new();
    while Instant::now() < until {
        let req = next(out.len());
        out.push(exchange(conn, &req)?);
    }
    Ok(out)
}

/// Pipelined closed loop: keeps `window` requests outstanding, sending
/// one more each time one answers, until `until`; then drains.
pub fn pipelined(
    conn: &mut Conn,
    until: Instant,
    window: usize,
    mut next: impl FnMut(usize) -> Request,
) -> io::Result<Vec<Sample>> {
    let mut out = Vec::new();
    let mut sent_count = 0;
    let mut inflight: VecDeque<(Request, Instant)> = VecDeque::new();
    loop {
        while inflight.len() < window && Instant::now() < until {
            let req = next(sent_count);
            sent_count += 1;
            let sent = Instant::now();
            conn.send(&req.line)?;
            inflight.push_back((req, sent));
        }
        let Some((req, sent)) = inflight.pop_front() else {
            return Ok(out);
        };
        let response = conn.recv()?;
        out.push(sample(&req, sent, Duration::ZERO, response));
    }
}

/// Open loop: request `n` is due at `start + offset + n·period` and is
/// sent then, however many earlier requests are still unanswered. Its
/// latency counts from the due time, so a stall that delays the sender
/// shows in every request it delays; `late` records how far behind
/// schedule each send was. Stops sending at `until`, then drains.
pub fn open_loop(
    conn: &mut Conn,
    start: Instant,
    offset: Duration,
    period: Duration,
    until: Instant,
    mut next: impl FnMut(usize) -> Request,
) -> io::Result<Vec<Sample>> {
    let mut out = Vec::new();
    let mut pending: VecDeque<(Request, Instant, Duration)> = VecDeque::new();
    let mut n = 0usize;
    let drain_deadline = until + RESPONSE_TIMEOUT;
    loop {
        let due = start + offset + period.mul_f64(n as f64);
        let now = Instant::now();
        if due < until && due <= now {
            let req = next(n);
            n += 1;
            conn.send(&req.line)?;
            pending.push_back((req, due, now.duration_since(due)));
            continue;
        }
        if due >= until && pending.is_empty() {
            return Ok(out);
        }
        if now >= drain_deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "open loop did not drain",
            ));
        }
        let wait = if due < until {
            due - now
        } else {
            drain_deadline - now
        };
        if pending.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        if let Some(response) = conn.recv_within(wait)? {
            let (req, due, late) = pending.pop_front().expect("a response answers a request");
            out.push(sample(&req, due, late, response));
        }
    }
}
