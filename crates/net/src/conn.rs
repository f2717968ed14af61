//! Per-connection state: non-blocking framing in, ordered responses
//! out, all protocol semantics delegated to [`Session`].

use crate::framing::{LineEvent, LineFramer};
use crate::poller::Interest;
use freqywm_service::metrics::{Metrics, M};
use freqywm_service::proto::{frame_too_large_response, Session};
use freqywm_service::Engine;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// How much we try to read per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// Byte budget per [`Conn::read_ready`] invocation. A client that
/// streams requests continuously must not pin the reactor in one read
/// loop: the poller is level-triggered, so leftover input re-reports
/// readable on the next iteration — after every other connection got
/// its turn and backpressure had a chance to evict.
const READ_BUDGET: usize = 4 * READ_CHUNK;

/// Compact the write buffer once this many bytes are dead at its front.
const COMPACT_THRESHOLD: usize = 64 * 1024;

pub(crate) struct Conn {
    stream: TcpStream,
    pub session: Session,
    /// Peer closed its write half; we may still owe responses.
    pub eof: bool,
    /// I/O failed — close as soon as the reactor sees it.
    pub failed: bool,
    pub last_activity: Instant,
    /// Interest currently registered with the poller.
    pub interest: Interest,
    framer: LineFramer,
    out_buf: Vec<u8>,
    out_pos: usize,
}

impl Conn {
    pub fn new(stream: TcpStream, max_frame: usize, auth_token: Option<String>) -> Self {
        Conn {
            stream,
            session: Session::with_auth(auth_token),
            eof: false,
            failed: false,
            last_activity: Instant::now(),
            interest: Interest::READ,
            framer: LineFramer::new(max_frame),
            out_buf: Vec::new(),
            out_pos: 0,
        }
    }

    /// Reads up to [`READ_BUDGET`] bytes and feeds complete frames to
    /// the session. Never blocks; stops at `WouldBlock`, EOF or the
    /// budget (leftover input re-reports readable — level-triggered).
    pub fn read_ready(&mut self, engine: &Engine, counters: &Metrics, max_frame: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut budget = READ_BUDGET;
        while budget > 0 {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    // Mirror FrameReader's EOF handling: a final frame
                    // without a trailing newline still gets processed.
                    let session = &mut self.session;
                    self.framer.finish(|event| {
                        if let LineEvent::Line(line) = event {
                            session.push_line(engine, &line);
                        }
                    });
                    break;
                }
                Ok(n) => {
                    counters.add(M::NetBytesIn, n as u64);
                    self.last_activity = Instant::now();
                    let session = &mut self.session;
                    self.framer.push(&chunk[..n], |event| match event {
                        LineEvent::Line(line) => session.push_line(engine, &line),
                        LineEvent::Oversized => {
                            session.push_transport_error(frame_too_large_response(max_frame))
                        }
                    });
                    budget = budget.saturating_sub(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.failed = true;
                    break;
                }
            }
        }
    }

    /// Moves ready-ordered responses from the session into the write
    /// buffer.
    pub fn queue_responses(&mut self) {
        for resp in self.session.take_ready() {
            self.out_buf.extend_from_slice(resp.as_bytes());
            self.out_buf.push(b'\n');
        }
    }

    /// Writes as much buffered output as the socket accepts. Never
    /// blocks.
    pub fn flush(&mut self, counters: &Metrics) {
        while self.out_pos < self.out_buf.len() {
            match self.stream.write(&self.out_buf[self.out_pos..]) {
                Ok(0) => {
                    self.failed = true;
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    counters.add(M::NetBytesOut, n as u64);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.failed = true;
                    break;
                }
            }
        }
        if self.out_pos == self.out_buf.len() {
            self.out_buf.clear();
            self.out_pos = 0;
        } else if self.out_pos > COMPACT_THRESHOLD {
            self.out_buf.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    /// Response bytes queued but not yet accepted by the socket.
    pub fn buffered(&self) -> usize {
        self.out_buf.len() - self.out_pos
    }

    /// Nothing in flight, nothing deferred, nothing left to write.
    pub fn settled(&self) -> bool {
        self.session.is_settled() && self.buffered() == 0
    }

    /// Eligible for idle reaping: settled and healthy. A connection
    /// waiting on a job or with unflushed output is busy, not idle.
    pub fn reapable_idle(&self) -> bool {
        self.settled() && !self.failed
    }
}
