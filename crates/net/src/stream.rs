//! The socket half every reactor connection shares: a non-blocking
//! [`TcpStream`] framed into lines on the way in, buffered on the way
//! out.
//!
//! The engine front-end's connections, the shard router's client and
//! backend connections all read through [`LineStream::read_ready`] and
//! write through [`OutBuf::flush`]; the metrics scrape connection
//! ([`crate::http::HttpConn`]) writes through the same [`OutBuf`].

use crate::{LineEvent, LineFramer};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};

/// How much we try to read per `read(2)` call.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Byte budget per [`LineStream::read_ready`] invocation. A peer that
/// streams continuously must not pin the reactor in one read loop: the
/// poller is level-triggered, so leftover input re-reports readable on
/// the next iteration — after every other connection got its turn and
/// backpressure had a chance to evict.
const READ_BUDGET: usize = 4 * READ_CHUNK;

/// Compact the write buffer once this many bytes are dead at its front.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// A positioned write buffer drained by non-blocking writes.
#[derive(Default)]
pub(crate) struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Writes as much as `stream` accepts and returns the bytes
    /// written. Never blocks; an I/O error or a zero-length write sets
    /// `failed`.
    pub fn flush(&mut self, stream: &mut TcpStream, failed: &mut bool) -> usize {
        let mut total = 0;
        while self.pos < self.buf.len() {
            match stream.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    *failed = true;
                    break;
                }
                Ok(n) => {
                    self.pos += n;
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    *failed = true;
                    break;
                }
            }
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        total
    }
}

/// A non-blocking JSON-lines connection: framed input with a frame-size
/// cap, a positioned output buffer, and the peer's EOF / I/O-failure
/// state.
pub struct LineStream {
    stream: TcpStream,
    framer: LineFramer,
    out: OutBuf,
    /// Peer closed its write half; responses may still be owed.
    pub eof: bool,
    /// I/O failed — close as soon as the reactor sees it.
    pub failed: bool,
}

impl LineStream {
    pub fn new(stream: TcpStream, max_frame: usize) -> Self {
        LineStream {
            stream,
            framer: LineFramer::new(max_frame),
            out: OutBuf::default(),
            eof: false,
            failed: false,
        }
    }

    /// Reads up to 64 KiB (`READ_BUDGET`), handing each completed frame
    /// to `sink`, and returns the bytes read. Never blocks; stops at
    /// `WouldBlock`, EOF or the budget (leftover input re-reports
    /// readable — level-triggered). At EOF an unterminated tail is
    /// delivered as a final line only if `deliver_tail`: a request may
    /// omit its last newline, but a response without one was cut off
    /// mid-write.
    pub fn read_ready(&mut self, deliver_tail: bool, mut sink: impl FnMut(LineEvent)) -> usize {
        let mut chunk = [0u8; READ_CHUNK];
        let mut total = 0;
        while total < READ_BUDGET {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    if deliver_tail {
                        self.framer.finish(&mut sink);
                    }
                    break;
                }
                Ok(n) => {
                    self.framer.push(&chunk[..n], &mut sink);
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.failed = true;
                    break;
                }
            }
        }
        total
    }

    /// Appends one response line (and its newline) to the output.
    pub fn queue_line(&mut self, line: &str) {
        self.out.extend(line.as_bytes());
        self.out.extend(b"\n");
    }

    /// Writes as much queued output as the socket accepts; returns the
    /// bytes written. Never blocks.
    pub fn flush(&mut self) -> usize {
        self.out.flush(&mut self.stream, &mut self.failed)
    }

    /// Output bytes queued but not yet accepted by the socket.
    pub fn buffered(&self) -> usize {
        self.out.buffered()
    }
}

impl AsRawFd for LineStream {
    fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}
