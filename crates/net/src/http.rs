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
//! Only the [`crate::FrontDoor`] holds these connections; the engine and
//! the router differ in the render closure they hand it, which runs
//! once per answered `GET /metrics` and never for any other head.

use crate::poller::Interest;
use crate::stream::{OutBuf, READ_CHUNK};
use std::io::Read;
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Instant;

/// Request-head cap: a scrape request has no business being larger.
const MAX_HEAD: usize = 8 * 1024;

/// One scrape connection: accumulates the request head, answers once,
/// then drains its write buffer and is closed by the door.
pub(crate) struct HttpConn {
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
                    if head_complete(&self.head) || self.head.len() > MAX_HEAD {
                        self.out.extend(&respond(&self.head, render));
                        self.responded = true;
                        self.head.clear();
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

impl AsRawFd for HttpConn {
    fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

/// The one response to a head that is complete or over [`MAX_HEAD`]:
/// the rendered exposition for `GET /metrics`, an error status
/// otherwise. `render` runs only for the `200`.
fn respond(head: &[u8], render: impl FnOnce() -> String) -> Vec<u8> {
    if !head_complete(head) {
        return response(
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "request head too large\n",
        );
    }
    match parse_request_line(head) {
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
fn response(status: &str, content_type: &str, body: &str) -> Vec<u8> {
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
    use proptest::prelude::*;

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

    /// Feeds `input` in `piece`-byte reads the way
    /// [`HttpConn::read_ready`] does: accumulate, answer once the head
    /// is complete or too long. Returns the response, if any, and the render count.
    fn serve(input: &[u8], piece: usize) -> (Option<String>, usize) {
        let mut head = Vec::new();
        let mut renders = 0;
        for chunk in input.chunks(piece) {
            head.extend_from_slice(chunk);
            if head_complete(&head) || head.len() > MAX_HEAD {
                let resp = respond(&head, || {
                    renders += 1;
                    "up 1\n".to_string()
                });
                return (Some(String::from_utf8(resp).unwrap()), renders);
            }
        }
        (None, renders) // EOF before a decided head: close, no answer
    }

    /// One well-formed response, or none when the input ended before
    /// the head was decided; a render exactly for a `200`.
    fn check(input: &[u8], piece: usize) {
        let (resp, renders) = serve(input, piece);
        // Deciding is monotone in the prefix: the whole input decides.
        let decided = head_complete(input) || input.len() > MAX_HEAD;
        let Some(resp) = resp else {
            assert!(!decided, "a decided head went unanswered: {input:?}");
            assert_eq!(renders, 0);
            return;
        };
        assert_eq!(resp.matches("HTTP/1.1 ").count(), 1, "{resp}");
        let status = &resp["HTTP/1.1 ".len()..resp.find("\r\n").unwrap()];
        assert!(
            [
                "200 OK",
                "400 Bad Request",
                "404 Not Found",
                "405 Method Not Allowed",
                "431 Request Header Fields Too Large"
            ]
            .contains(&status),
            "{status}"
        );
        assert_eq!(renders, usize::from(status == "200 OK"), "{resp}");
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        assert!(
            head.contains(&format!("Content-Length: {}\r\n", body.len())),
            "{resp}"
        );
    }

    const SCRAPE: &[u8] = b"GET /metrics HTTP/1.1\r\n\r\n";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_get_one_status_or_a_close(
            input in collection::vec(0u8..=255, 0..600),
            piece in 1usize..64,
        ) {
            check(&input, piece);
        }

        #[test]
        fn mutated_scrape_heads_get_one_status_or_a_close(
            edits in collection::vec((0usize..64, 0u8..3, 0u8..=255), 0..6),
            piece in 1usize..8,
        ) {
            let mut input = SCRAPE.to_vec();
            for (at, kind, byte) in edits {
                let at = at % (input.len() + 1);
                match kind {
                    0 if at < input.len() => input[at] = byte,
                    1 => input.insert(at, byte),
                    _ if at < input.len() => {
                        input.remove(at);
                    }
                    _ => {}
                }
            }
            check(&input, piece);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn long_heads_are_answered_once(
            input in collection::vec(0u8..=255, 8000..9000),
            piece in 512usize..4096,
        ) {
            check(&input, piece);
        }
    }

    #[test]
    fn the_scrape_head_renders_once_in_any_pieces() {
        for piece in 1..=SCRAPE.len() {
            let (resp, renders) = serve(SCRAPE, piece);
            assert!(resp.unwrap().starts_with("HTTP/1.1 200 OK\r\n"));
            assert_eq!(renders, 1);
        }
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
