//! Minimal HTTP/1.1 responder for metrics scrapes.
//!
//! Just enough HTTP to answer `GET /metrics` from Prometheus-style
//! scrapers and `curl`: read one request head, render one response,
//! close. Keep-alive is deliberately not offered (`Connection: close`)
//! — scrapes are one-shot, and a closed connection is the simplest
//! correct framing. The state machine is non-blocking and slots into
//! the same poller loop as the protocol connections, so a scrape
//! endpoint costs no extra thread.
//!
//! Shared by both reactors: `freqywm serve --metrics-listen` (engine
//! exposition) and `freqywm router --metrics-listen` (tier exposition)
//! differ only in the render callback.

use crate::poller::Interest;
use crate::stream::{OutBuf, READ_CHUNK};
use std::io::Read;
use std::net::TcpStream;
use std::time::Instant;

/// Request-head cap: a scrape request has no business being larger.
const MAX_HEAD: usize = 8 * 1024;

/// One scrape connection: accumulates the request head, answers once,
/// then drains its write buffer and is closed by the owning reactor.
pub struct HttpConn {
    stream: TcpStream,
    head: Vec<u8>,
    out: OutBuf,
    /// I/O failed — close as soon as the reactor sees it.
    pub failed: bool,
    /// A response has been queued; no more input will be consumed.
    pub responded: bool,
    pub last_activity: Instant,
    /// Interest currently registered with the poller.
    pub interest: Interest,
}

impl HttpConn {
    pub fn new(stream: TcpStream) -> Self {
        HttpConn {
            stream,
            head: Vec::new(),
            out: OutBuf::default(),
            failed: false,
            responded: false,
            last_activity: Instant::now(),
            interest: Interest::READ,
        }
    }

    /// Reads until the request head is complete, then queues exactly
    /// one response: the rendered exposition for `GET /metrics`, an
    /// error status otherwise. Returns bytes read (for traffic
    /// accounting). Never blocks.
    pub fn read_ready(&mut self, render: impl FnOnce() -> String) -> u64 {
        let mut chunk = [0u8; READ_CHUNK];
        let mut total = 0u64;
        while !self.responded && !self.failed {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF before a complete head: nothing to answer.
                    self.failed = true;
                    break;
                }
                Ok(n) => {
                    total += n as u64;
                    self.last_activity = Instant::now();
                    self.head.extend_from_slice(&chunk[..n]);
                    if head_complete(&self.head) {
                        self.respond(render);
                        break;
                    }
                    if self.head.len() > MAX_HEAD {
                        self.queue(response(
                            "431 Request Header Fields Too Large",
                            "text/plain; charset=utf-8",
                            "request head too large\n",
                        ));
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.failed = true;
                    break;
                }
            }
        }
        total
    }

    fn respond(&mut self, render: impl FnOnce() -> String) {
        let resp = match parse_request_line(&self.head) {
            Some(("GET", target)) if is_metrics_target(target) => response(
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &render(),
            ),
            Some(("GET", _)) => response(
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found; try /metrics\n",
            ),
            Some((_, _)) => response(
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                "only GET is supported\n",
            ),
            None => response(
                "400 Bad Request",
                "text/plain; charset=utf-8",
                "malformed request line\n",
            ),
        };
        self.queue(resp);
    }

    fn queue(&mut self, resp: Vec<u8>) {
        self.out.extend(&resp);
        self.responded = true;
        self.head.clear();
    }

    /// Writes as much buffered output as the socket accepts. Returns
    /// bytes written. Never blocks.
    pub fn flush(&mut self) -> u64 {
        let n = self.out.flush(&mut self.stream, &mut self.failed);
        if n > 0 {
            self.last_activity = Instant::now();
        }
        n as u64
    }

    /// Response bytes queued but not yet accepted by the socket.
    pub fn buffered(&self) -> usize {
        self.out.buffered()
    }

    /// The one response is fully written — close the connection.
    pub fn settled(&self) -> bool {
        self.responded && self.buffered() == 0
    }
}

/// The request head ends at the first blank line (tolerating bare-LF
/// clients).
fn head_complete(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
}

/// `("METHOD", "/target")` from the first line, or `None` if mangled.
fn parse_request_line(head: &[u8]) -> Option<(&str, &str)> {
    let line_end = head.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&head[..line_end]).ok()?.trim_end();
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    Some((method, target))
}

/// `/metrics` exactly, with an optional query string (scrapers append
/// parameters we ignore).
fn is_metrics_target(target: &str) -> bool {
    target == "/metrics" || target.starts_with("/metrics?")
}

/// Renders a complete HTTP/1.1 response with `Connection: close`.
pub fn response(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parsing_and_target_match() {
        assert_eq!(
            parse_request_line(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(parse_request_line(b"\xff\xfe\n"), None);
        assert!(is_metrics_target("/metrics"));
        assert!(is_metrics_target("/metrics?format=prometheus"));
        assert!(!is_metrics_target("/metricsx"));
        assert!(!is_metrics_target("/"));
    }

    #[test]
    fn head_completion_tolerates_bare_lf() {
        assert!(head_complete(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(head_complete(b"GET / HTTP/1.0\n\n"));
        assert!(!head_complete(b"GET / HTTP/1.1\r\nHost: x\r\n"));
    }

    #[test]
    fn response_has_exact_content_length() {
        let resp = response("200 OK", "text/plain", "abc");
        let text = String::from_utf8(resp).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nabc"));
    }
}
