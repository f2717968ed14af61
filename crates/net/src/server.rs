//! The reactor: one thread multiplexing the [`FrontDoor`] (listeners,
//! wakeup pipe, scrape connections) and every protocol connection over
//! the door's [`Poller`], with all watermarking work on the engine's
//! worker pool.
//!
//! Dataflow per loop iteration:
//!
//! 1. readiness events — the door accepts new connections, answers
//!    scrapes and drains the wakeup pipe; protocol connections read
//!    request frames (feeding each connection's [`Session`], which
//!    submits jobs non-blockingly) and flush writable sockets;
//! 2. result intake — a worker that finished a job delivered it to its
//!    connection's session inbox, then queued that connection on the
//!    woken list and wrote a wakeup byte; every woken connection joins
//!    the touched ones;
//! 3. post-processing of touched connections — collect delivered
//!    results (responses stay in request order), queue ready responses,
//!    flush, apply backpressure (evict a reader whose unread output
//!    exceeds the cap), register interest changes, close what's done;
//! 4. idle reaping and drain progression.
//!
//! A `shutdown` op from any client starts the graceful drain: the
//! listener closes, request input stops, in-flight jobs complete and
//! their responses flush, then connections close and the reactor
//! returns. A drain deadline bounds how long a stuck client can hold
//! that up.

use crate::config::NetConfig;
use crate::conn::Conn;
use crate::front::{token, FrontDoor, Report};
use crate::poller::{Event, Interest};
use freqywm_service::metrics::M;
use freqywm_service::Engine;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// After a `shutdown` op: how long the drain (flush in-flight
/// responses, then close) may take before remaining connections are
/// closed forcibly.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Serves the engine's JSON-lines protocol on `listener` until a
/// `shutdown` op completes its graceful drain.
///
/// The reactor itself is single-threaded and never blocks on a job:
/// total thread cost of a deployment is this thread plus the engine's
/// worker pool, independent of connection count.
pub fn serve_listener(engine: &Engine, listener: TcpListener, config: NetConfig) -> io::Result<()> {
    serve_listener_with_metrics(engine, listener, None, config)
}

/// [`serve_listener`] with an optional second listener answering HTTP
/// `GET /metrics` with the engine's Prometheus exposition
/// (`freqywm serve --metrics-listen`). Scrape connections share the
/// reactor thread, the connection cap and the idle reaper with the
/// protocol connections; the drain closes both listeners.
pub fn serve_listener_with_metrics(
    engine: &Engine,
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    config: NetConfig,
) -> io::Result<()> {
    Reactor::new(engine, listener, metrics_listener, config)?.run()
}

/// Connections whose sessions hold delivered results, and the write end
/// of the door's wake pair. Shared by every connection's wake-up.
struct Woken {
    fds: Mutex<Vec<RawFd>>,
    pipe: UnixStream,
}

impl Woken {
    fn wake(&self, fd: RawFd) {
        self.fds.lock().expect("woken list poisoned").push(fd);
        // One pending byte is enough to wake the reactor; a full pipe
        // means a wakeup is already guaranteed.
        let _ = (&self.pipe).write(&[1]);
    }
}

enum CloseKind {
    /// Normal end of life (drained, EOF, or forced at drain deadline).
    Done,
    /// I/O error.
    Error,
    /// Write backpressure cap exceeded.
    SlowEvicted,
    /// Idle timeout.
    IdleTimedOut,
}

struct Reactor<'a> {
    engine: &'a Engine,
    config: NetConfig,
    door: FrontDoor,
    woken: Arc<Woken>,
    /// Protocol connections, registered under their fd. A job of a
    /// closed connection still wakes its fd, but delivered to the
    /// closed session's inbox: a reused fd costs a pass, not a result.
    conns: HashMap<RawFd, Conn>,
    /// Drain deadline once a shutdown op was answered.
    draining: Option<Instant>,
}

impl<'a> Reactor<'a> {
    fn new(
        engine: &'a Engine,
        listener: TcpListener,
        metrics_listener: Option<TcpListener>,
        config: NetConfig,
    ) -> io::Result<Self> {
        let (door, wake_tx) = FrontDoor::open(
            listener,
            metrics_listener,
            config.backend,
            config.max_conns,
            config.idle_timeout,
        )?;
        Ok(Reactor {
            engine,
            config,
            door,
            woken: Arc::new(Woken {
                fds: Mutex::default(),
                pipe: wake_tx,
            }),
            conns: HashMap::new(),
            draining: None,
        })
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut touched: Vec<RawFd> = Vec::new();
        loop {
            let timeout = self.poll_timeout();
            self.door.poller.wait(&mut events, timeout)?;
            touched.clear();
            for &ev in &events {
                match ev.token {
                    token::LISTENER => self.accept_ready(),
                    t if t >= token::SCRAPE_BASE => {
                        let engine = self.engine;
                        let render = || engine.metrics().to_prom();
                        let report = self.door.event(ev, self.conns.len(), render);
                        self.record(report);
                    }
                    t => {
                        let fd = t as RawFd;
                        let Some(conn) = self.conns.get_mut(&fd) else {
                            continue;
                        };
                        if ev.readable && !conn.io.eof && self.draining.is_none() {
                            conn.read_ready(
                                self.engine,
                                self.engine.counters(),
                                self.config.max_frame,
                            );
                        } else if ev.hangup {
                            // Input is being ignored (drain); a hangup
                            // still means the peer is gone.
                            conn.io.eof = true;
                        }
                        if ev.writable {
                            conn.flush(self.engine.counters());
                        }
                        touched.push(fd);
                    }
                }
            }
            // Woken connections join the touched ones, so a result
            // delivered while we were reading is flushed in the same
            // iteration.
            touched.append(&mut self.woken.fds.lock().expect("woken list poisoned"));
            touched.sort_unstable();
            touched.dedup();
            for &fd in &touched {
                self.post_process(fd);
            }
            self.reap_idle();
            if let Some(deadline) = self.draining {
                if self.conns.is_empty() && self.door.scrapes() == 0 {
                    return Ok(());
                }
                if Instant::now() >= deadline {
                    for fd in self.conns.keys().copied().collect::<Vec<_>>() {
                        self.close_conn(fd, CloseKind::Done);
                    }
                    let report = self.door.close_scrapes();
                    self.record(report);
                    return Ok(());
                }
            }
        }
    }

    /// Accepts everything pending, enforcing the connection cap.
    fn accept_ready(&mut self) {
        let conns = &mut self.conns;
        let config = &self.config;
        let woken = &self.woken;
        let report = self.door.accept(
            conns.len(),
            |stream| stream.as_raw_fd() as u64,
            |fd, stream| {
                let fd = fd as RawFd;
                let woken = Arc::clone(woken);
                let wake = move || woken.wake(fd);
                let conn = Conn::new(stream, config.max_frame, config.auth_token.clone(), wake);
                conns.insert(fd, conn);
            },
        );
        self.record(report);
    }

    /// Records what the door did in the engine's `net.*` counters.
    /// Scrape connections count like protocol ones.
    fn record(&self, report: Report) {
        let counters = self.engine.counters();
        counters.add(M::NetRejected, report.refused);
        (0..report.accepted).for_each(|_| counters.conn_accepted());
        counters.add(M::NetBytesIn, report.bytes_in);
        counters.add(M::NetBytesOut, report.bytes_out);
        counters.add(M::NetTimedOutIdle, report.reaped);
        (0..report.closed).for_each(|_| counters.conn_closed());
    }

    /// Settles a connection's bookkeeping after any activity: collects
    /// delivered results, reacts to a shutdown op, moves responses out,
    /// applies backpressure and lifecycle policy, updates poller
    /// interest.
    fn post_process(&mut self, fd: RawFd) {
        let mut close: Option<CloseKind> = None;
        let mut shutdown_requested = false;
        {
            let Some(conn) = self.conns.get_mut(&fd) else {
                return;
            };
            conn.session.collect(self.engine);
            if conn.session.wants_shutdown() {
                shutdown_requested = true;
            }
            conn.queue_responses();
            if !conn.io.failed {
                conn.flush(self.engine.counters());
            }
            if conn.io.failed {
                close = Some(CloseKind::Error);
            } else if conn.io.buffered() > self.config.max_write_buffer {
                close = Some(CloseKind::SlowEvicted);
            } else if (conn.io.eof || self.draining.is_some()) && conn.settled() {
                close = Some(CloseKind::Done);
            }
        }
        if shutdown_requested && self.draining.is_none() {
            self.start_drain();
            // The drain sweep revisits every connection, this one
            // included — its close decision is re-derived there.
            return;
        }
        match close {
            Some(kind) => self.close_conn(fd, kind),
            None => self.update_interest(fd),
        }
    }

    fn update_interest(&mut self, fd: RawFd) {
        let draining = self.draining.is_some();
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        let want = Interest {
            readable: !conn.io.eof && !draining,
            writable: conn.io.buffered() > 0,
        };
        let poller = &mut self.door.poller;
        if !poller.update(fd, fd as u64, &mut conn.interest, want) {
            self.close_conn(fd, CloseKind::Error);
        }
    }

    fn close_conn(&mut self, fd: RawFd, kind: CloseKind) {
        let Some(conn) = self.conns.remove(&fd) else {
            return;
        };
        let _ = self.door.poller.deregister(fd);
        let counters = self.engine.counters();
        match kind {
            CloseKind::SlowEvicted => counters.bump(M::NetEvictedSlow),
            CloseKind::IdleTimedOut => counters.bump(M::NetTimedOutIdle),
            CloseKind::Done | CloseKind::Error => {}
        }
        counters.conn_closed();
        // Closes the socket, after the poller let go of it.
        drop(conn);
    }

    /// Stops accepting, closes the listener and freezes request input;
    /// connections finish their in-flight work and close as they
    /// settle.
    fn start_drain(&mut self) {
        self.draining = Some(Instant::now() + DRAIN_TIMEOUT);
        self.door.stop_accepting();
        for fd in self.conns.keys().copied().collect::<Vec<_>>() {
            self.post_process(fd);
        }
    }

    fn reap_idle(&mut self) {
        let report = self.door.reap_scrapes();
        self.record(report);
        let now = Instant::now();
        let Some(idle) = self.config.idle_timeout else {
            return;
        };
        let expired: Vec<RawFd> = self
            .conns
            .iter()
            .filter(|(_, c)| c.reapable_idle() && now.duration_since(c.last_activity) >= idle)
            .map(|(&fd, _)| fd)
            .collect();
        for fd in expired {
            self.close_conn(fd, CloseKind::IdleTimedOut);
        }
    }

    /// Next wakeup deadline: drain progress checks and the earliest
    /// idle expiry. `None` (block until I/O) when neither applies — a
    /// fleet of idle connections costs zero wakeups.
    fn poll_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut timeout: Option<Duration> = None;
        if let Some(deadline) = self.draining {
            timeout = Some(
                deadline
                    .saturating_duration_since(now)
                    .min(Duration::from_millis(100)),
            );
        }
        if let Some(idle) = self.config.idle_timeout {
            if let Some(earliest) = self
                .conns
                .values()
                .filter(|c| c.reapable_idle())
                .map(|c| c.last_activity)
                .min()
            {
                let d = (earliest + idle).saturating_duration_since(now);
                timeout = Some(timeout.map_or(d, |t| t.min(d)));
            }
        }
        if let Some(expiry) = self.door.next_scrape_expiry() {
            let d = expiry.saturating_duration_since(now);
            timeout = Some(timeout.map_or(d, |t| t.min(d)));
        }
        timeout
    }
}
