//! The reactor: one thread multiplexing the listener, a wakeup pipe
//! and every connection over a [`Poller`], with all watermarking work
//! on the engine's worker pool.
//!
//! Dataflow per loop iteration:
//!
//! 1. readiness events — accept new connections, read request frames
//!    (feeding each connection's [`Session`], which submits jobs
//!    non-blockingly), flush writable sockets, drain the wakeup pipe;
//! 2. completion intake — the engine's completion hook pushed finished
//!    job ids and a wakeup byte from the worker threads; route each id
//!    to its connection's session (responses stay in request order);
//! 3. post-processing of touched connections — queue ready responses,
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
use crate::http::HttpConn;
use crate::poller::{Event, Interest, Poller};
use freqywm_service::metrics::M;
use freqywm_service::{Engine, JobId};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;
const TOKEN_METRICS_LISTENER: u64 = u64::MAX - 2;

/// A scrape connection that has sent no complete request for this long
/// is reaped even with `--idle-timeout` unset: a half-open HTTP
/// request is dead weight, never a client waiting on a job.
const HTTP_IDLE_DEFAULT: Duration = Duration::from_secs(10);

/// Serves the engine's JSON-lines protocol on `listener` until a
/// `shutdown` op completes its graceful drain. Installs the engine's
/// completion hook for the duration (one serving front-end per engine).
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
    let mut reactor = Reactor::new(engine, listener, metrics_listener, config)?;
    let result = reactor.run();
    engine.clear_completion_hook();
    result
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
    poller: Poller,
    /// `None` once draining (accepting stopped, socket closed).
    listener: Option<TcpListener>,
    /// HTTP `GET /metrics` scrape listener; also closed by the drain.
    metrics_listener: Option<TcpListener>,
    wake_rx: UnixStream,
    completed: Arc<Mutex<Vec<JobId>>>,
    conns: HashMap<RawFd, Conn>,
    /// Scrape connections, disjoint from `conns` (an fd lives in
    /// exactly one map).
    http_conns: HashMap<RawFd, HttpConn>,
    /// In-flight job → owning connection.
    jobs: HashMap<JobId, RawFd>,
    /// Jobs whose connection died before they finished; their results
    /// are consumed and dropped on completion so the engine's result
    /// table stays flat.
    orphaned: HashSet<JobId>,
    /// Completions seen before their submit was registered (same-loop
    /// race); retried next iteration.
    unmatched: Vec<JobId>,
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
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let mut poller = Poller::new(config.backend)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        if let Some(ml) = &metrics_listener {
            ml.set_nonblocking(true)?;
            poller.register(ml.as_raw_fd(), TOKEN_METRICS_LISTENER, Interest::READ)?;
        }
        let completed = Arc::new(Mutex::new(Vec::new()));
        let hook_completed = Arc::clone(&completed);
        engine.set_completion_hook(move |id| {
            hook_completed
                .lock()
                .expect("completion list poisoned")
                .push(id);
            // One pending byte is enough to wake the reactor; a full
            // pipe means a wakeup is already guaranteed.
            let _ = (&wake_tx).write(&[1]);
        });
        Ok(Reactor {
            engine,
            config,
            poller,
            listener: Some(listener),
            metrics_listener,
            wake_rx,
            completed,
            conns: HashMap::new(),
            http_conns: HashMap::new(),
            jobs: HashMap::new(),
            orphaned: HashSet::new(),
            unmatched: Vec::new(),
            draining: None,
        })
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut touched: Vec<RawFd> = Vec::new();
        loop {
            self.poller.wait(&mut events, self.poll_timeout())?;
            touched.clear();
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_METRICS_LISTENER => self.accept_metrics_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    token => {
                        let fd = token as RawFd;
                        if self.http_conns.contains_key(&fd) {
                            self.http_event(fd, ev);
                            continue;
                        }
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
            // Route job completions before post-processing, so a
            // response completed while we were reading is flushed in
            // the same iteration.
            let done: Vec<JobId> = {
                let mut list = std::mem::take(&mut self.unmatched);
                list.append(&mut self.completed.lock().expect("completion list poisoned"));
                list
            };
            for id in done {
                match self.jobs.remove(&id) {
                    Some(fd) => {
                        if let Some(conn) = self.conns.get_mut(&fd) {
                            conn.session.on_job_done(self.engine, id);
                            touched.push(fd);
                        } else {
                            let _ = self.engine.try_take(id);
                        }
                    }
                    None => {
                        if self.orphaned.remove(&id) {
                            let _ = self.engine.try_take(id);
                        } else {
                            // Completed before its submit was recorded
                            // below; deliver next iteration.
                            self.unmatched.push(id);
                        }
                    }
                }
            }
            touched.sort_unstable();
            touched.dedup();
            for &fd in &touched {
                self.post_process(fd);
            }
            self.reap_idle();
            if let Some(deadline) = self.draining {
                if self.conns.is_empty() && self.http_conns.is_empty() {
                    return Ok(());
                }
                if Instant::now() >= deadline {
                    for fd in self.conns.keys().copied().collect::<Vec<_>>() {
                        self.close_conn(fd, CloseKind::Done);
                    }
                    for fd in self.http_conns.keys().copied().collect::<Vec<_>>() {
                        self.close_http(fd);
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Accepts everything pending, enforcing the connection cap.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _addr)) => {
                    if self.conns.len() >= self.config.max_conns {
                        self.engine.counters().bump(M::NetRejected);
                        continue; // dropped: peer sees an immediate close
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    if self.poller.register(fd, fd as u64, Interest::READ).is_err() {
                        continue;
                    }
                    self.engine.counters().conn_accepted();
                    self.conns.insert(
                        fd,
                        Conn::new(
                            stream,
                            self.config.max_frame,
                            self.config.auth_token.clone(),
                        ),
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // ECONNABORTED and friends: transient, keep serving.
                Err(_) => return,
            }
        }
    }

    /// Accepts pending scrape connections. They share the connection
    /// cap with the protocol side — a scrape storm cannot starve
    /// clients of more slots than any other connection flood could.
    fn accept_metrics_ready(&mut self) {
        loop {
            let Some(listener) = &self.metrics_listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _addr)) => {
                    if self.conns.len() + self.http_conns.len() >= self.config.max_conns {
                        self.engine.counters().bump(M::NetRejected);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    if self.poller.register(fd, fd as u64, Interest::READ).is_err() {
                        continue;
                    }
                    self.engine.counters().conn_accepted();
                    self.http_conns.insert(fd, HttpConn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// One readiness event on a scrape connection: read the request
    /// head, render the exposition, flush, close when the single
    /// response is out. No jobs are involved, so the whole lifecycle
    /// settles here.
    fn http_event(&mut self, fd: RawFd, ev: Event) {
        let counters = self.engine.counters();
        let Some(conn) = self.http_conns.get_mut(&fd) else {
            return;
        };
        if ev.readable && !conn.responded {
            let engine = self.engine;
            counters.add(
                M::NetBytesIn,
                conn.read_ready(|| engine.metrics().to_prom()),
            );
        } else if ev.hangup {
            conn.failed = true;
        }
        if ev.writable || conn.responded {
            counters.add(M::NetBytesOut, conn.flush());
        }
        if conn.failed || conn.settled() {
            self.close_http(fd);
            return;
        }
        let want = Interest {
            readable: !conn.responded,
            writable: conn.buffered() > 0,
        };
        if want != conn.interest {
            if self.poller.modify(fd, fd as u64, want).is_ok() {
                conn.interest = want;
            } else {
                self.close_http(fd);
            }
        }
    }

    fn close_http(&mut self, fd: RawFd) {
        if self.http_conns.remove(&fd).is_some() {
            let _ = self.poller.deregister(fd);
            self.engine.counters().conn_closed();
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Settles a connection's bookkeeping after any activity: records
    /// new jobs, reacts to a shutdown op, moves responses out, applies
    /// backpressure and lifecycle policy, updates poller interest.
    fn post_process(&mut self, fd: RawFd) {
        let mut close: Option<CloseKind> = None;
        let mut shutdown_requested = false;
        {
            let Some(conn) = self.conns.get_mut(&fd) else {
                return;
            };
            for id in conn.session.take_new_jobs() {
                self.jobs.insert(id, fd);
            }
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
        if want != conn.interest {
            if self.poller.modify(fd, fd as u64, want).is_ok() {
                conn.interest = want;
            } else {
                self.close_conn(fd, CloseKind::Error);
            }
        }
    }

    fn close_conn(&mut self, fd: RawFd, kind: CloseKind) {
        let Some(mut conn) = self.conns.remove(&fd) else {
            return;
        };
        let _ = self.poller.deregister(fd);
        for id in conn.session.take_new_jobs() {
            self.orphaned.insert(id);
        }
        for id in conn.session.pending_job_ids() {
            self.jobs.remove(&id);
            self.orphaned.insert(id);
        }
        let counters = self.engine.counters();
        match kind {
            CloseKind::SlowEvicted => counters.bump(M::NetEvictedSlow),
            CloseKind::IdleTimedOut => counters.bump(M::NetTimedOutIdle),
            CloseKind::Done | CloseKind::Error => {}
        }
        counters.conn_closed();
        // Dropping `conn` closes the socket.
    }

    /// Stops accepting, closes the listener and freezes request input;
    /// connections finish their in-flight work and close as they
    /// settle.
    fn start_drain(&mut self) {
        self.draining = Some(Instant::now() + self.config.drain_timeout);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        if let Some(ml) = self.metrics_listener.take() {
            let _ = self.poller.deregister(ml.as_raw_fd());
        }
        for fd in self.conns.keys().copied().collect::<Vec<_>>() {
            self.post_process(fd);
        }
    }

    fn reap_idle(&mut self) {
        let now = Instant::now();
        let http_idle = self.config.idle_timeout.unwrap_or(HTTP_IDLE_DEFAULT);
        let http_expired: Vec<RawFd> = self
            .http_conns
            .iter()
            .filter(|(_, c)| now.duration_since(c.last_activity) >= http_idle)
            .map(|(&fd, _)| fd)
            .collect();
        for fd in http_expired {
            self.engine.counters().bump(M::NetTimedOutIdle);
            self.close_http(fd);
        }
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
        if !self.unmatched.is_empty() {
            // A completion raced its own submit registration (its wake
            // byte may already be consumed): deliver it next iteration,
            // never block on it.
            return Some(Duration::ZERO);
        }
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
        if let Some(earliest) = self.http_conns.values().map(|c| c.last_activity).min() {
            let http_idle = self.config.idle_timeout.unwrap_or(HTTP_IDLE_DEFAULT);
            let d = (earliest + http_idle).saturating_duration_since(now);
            timeout = Some(timeout.map_or(d, |t| t.min(d)));
        }
        timeout
    }
}
