//! Per-connection state: a [`LineStream`] in and out, all protocol
//! semantics delegated to [`Session`].

use crate::poller::Interest;
use crate::stream::LineStream;
use crate::LineEvent;
use freqywm_service::metrics::{Metrics, M};
use freqywm_service::proto::{frame_too_large_response, Session};
use freqywm_service::Engine;
use std::net::TcpStream;
use std::time::Instant;

pub(crate) struct Conn {
    pub io: LineStream,
    pub session: Session,
    pub last_activity: Instant,
    /// Interest currently registered with the poller.
    pub interest: Interest,
}

impl Conn {
    /// `wake` is the session's wake-up (see [`Session::with_wake`]).
    pub fn new(
        stream: TcpStream,
        max_frame: usize,
        auth_token: Option<String>,
        wake: impl Fn() + Send + Sync + 'static,
    ) -> Self {
        Conn {
            io: LineStream::new(stream, max_frame),
            session: Session::with_auth(auth_token).with_wake(wake),
            last_activity: Instant::now(),
            interest: Interest::READ,
        }
    }

    /// Feeds the frames of one budgeted read to the session. A final
    /// frame without a trailing newline is still processed at EOF.
    pub fn read_ready(&mut self, engine: &Engine, counters: &Metrics, max_frame: usize) {
        let session = &mut self.session;
        let n = self.io.read_ready(true, |event| match event {
            LineEvent::Line(line) => session.push_line(engine, &line),
            LineEvent::Oversized => {
                session.push_transport_error(frame_too_large_response(max_frame))
            }
        });
        if n > 0 {
            counters.add(M::NetBytesIn, n as u64);
            self.last_activity = Instant::now();
        }
    }

    /// Moves ready-ordered responses from the session into the write
    /// buffer.
    pub fn queue_responses(&mut self) {
        for resp in self.session.take_ready() {
            self.io.queue_line(&resp);
        }
    }

    /// Writes as much buffered output as the socket accepts. Never
    /// blocks.
    pub fn flush(&mut self, counters: &Metrics) {
        let n = self.io.flush();
        if n > 0 {
            counters.add(M::NetBytesOut, n as u64);
            self.last_activity = Instant::now();
        }
    }

    /// Nothing in flight, nothing deferred, nothing left to write.
    pub fn settled(&self) -> bool {
        self.session.is_settled() && self.io.buffered() == 0
    }

    /// Eligible for idle reaping: settled and healthy. A connection
    /// waiting on a job or with unflushed output is busy, not idle.
    pub fn reapable_idle(&self) -> bool {
        self.settled() && !self.io.failed
    }
}
