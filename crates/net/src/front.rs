//! The front door of both reactors, the engine's and the shard
//! router's. Callers register their own connections on
//! [`FrontDoor::poller`] below [`token::SCRAPE_BASE`]. The door counts
//! nothing: each call returns a [`Report`] for the caller to record.

use crate::config::Backend;
use crate::http::HttpConn;
use crate::poller::{Event, Interest, Poller};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// The poller token layout of both reactors.
pub mod token {
    pub const LISTENER: u64 = u64::MAX;
    pub const WAKE: u64 = u64::MAX - 1;
    pub const SCRAPE_LISTENER: u64 = u64::MAX - 2;
    /// Scrape connection `n` is `SCRAPE_BASE + n`, and `n` is never
    /// reused. Every token from here up is the door's.
    pub const SCRAPE_BASE: u64 = 1 << 62;
}

/// Idle scrapes are reaped after this unless the caller sets another
/// window: a scrape never waits on a job.
const SCRAPE_IDLE: Duration = Duration::from_secs(10);

/// What one door call did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    pub accepted: u64,
    /// Closed at once: the connection cap was reached.
    pub refused: u64,
    /// Scrape traffic.
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Scrape connections closed, `reaped` included.
    pub closed: u64,
    /// Scrape connections closed for idling.
    pub reaped: u64,
}

/// One reactor's listeners, wake pair and scrapes, on its poller.
pub struct FrontDoor {
    pub poller: Poller,
    /// Both `None` once the drain stopped accepting.
    listener: Option<TcpListener>,
    scrape_listener: Option<TcpListener>,
    wake_rx: UnixStream,
    scrapes: HashMap<u64, HttpConn>,
    next_scrape: u64,
    /// Cap on the caller's connections plus open scrapes.
    max_conns: usize,
    scrape_idle: Duration,
}

impl FrontDoor {
    /// Returns the door and the write end of its wake pair: a byte
    /// written there wakes the reactor.
    pub fn open(
        listener: TcpListener,
        scrape_listener: Option<TcpListener>,
        backend: Backend,
        max_conns: usize,
        scrape_idle: Option<Duration>,
    ) -> io::Result<(FrontDoor, UnixStream)> {
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let mut poller = Poller::new(backend)?;
        poller.register(listener.as_raw_fd(), token::LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), token::WAKE, Interest::READ)?;
        if let Some(sl) = &scrape_listener {
            sl.set_nonblocking(true)?;
            poller.register(sl.as_raw_fd(), token::SCRAPE_LISTENER, Interest::READ)?;
        }
        let door = FrontDoor {
            poller,
            listener: Some(listener),
            scrape_listener,
            wake_rx,
            scrapes: HashMap::new(),
            next_scrape: 0,
            max_conns,
            scrape_idle: scrape_idle.unwrap_or(SCRAPE_IDLE),
        };
        Ok((door, wake_tx))
    }

    /// Accepts every pending protocol connection while the caller's
    /// `active` connections plus open scrapes stay under the cap, each
    /// registered under `token(&stream)` and handed to `admit`.
    pub fn accept(
        &mut self,
        active: usize,
        token: impl FnMut(&TcpStream) -> u64,
        admit: impl FnMut(u64, TcpStream),
    ) -> Report {
        let room = self.max_conns.saturating_sub(active + self.scrapes.len());
        accept_capped(self.listener.as_ref(), &mut self.poller, room, token, admit)
    }

    /// Handles an event on any door token but [`token::LISTENER`]: wake
    /// bytes, scrape accepts under the shared cap, and scrape
    /// connections (read, answer, flush, close). `render` runs only to
    /// answer a complete `GET /metrics` head: once per scrape at most.
    pub fn event(&mut self, ev: Event, active: usize, render: impl FnOnce() -> String) -> Report {
        let mut report = Report::default();
        match ev.token {
            token::WAKE => while matches!((&self.wake_rx).read(&mut [0u8; 256]), Ok(1..)) {},
            token::SCRAPE_LISTENER => {
                let (next, scrapes) = (&mut self.next_scrape, &mut self.scrapes);
                report = accept_capped(
                    self.scrape_listener.as_ref(),
                    &mut self.poller,
                    self.max_conns.saturating_sub(active + scrapes.len()),
                    |_| {
                        *next += 1;
                        token::SCRAPE_BASE + *next
                    },
                    |token, stream| {
                        scrapes.insert(token, HttpConn::new(stream));
                    },
                );
            }
            t => {
                let Some(conn) = self.scrapes.get_mut(&t) else {
                    return report;
                };
                if ev.readable && !conn.responded {
                    report.bytes_in = conn.read_ready(render);
                } else if ev.hangup {
                    conn.failed = true;
                }
                if ev.writable || conn.responded {
                    report.bytes_out = conn.flush();
                }
                let want = Interest {
                    readable: !conn.responded,
                    writable: conn.buffered() > 0,
                };
                let fd = conn.as_raw_fd();
                if conn.failed
                    || conn.settled()
                    || !self.poller.update(fd, t, &mut conn.interest, want)
                {
                    self.scrapes.remove(&t);
                    let _ = self.poller.deregister(fd);
                    report.closed = 1;
                }
            }
        }
        report
    }

    /// Closes the scrape connections idle for the scrape window.
    pub fn reap_scrapes(&mut self) -> Report {
        let (now, idle) = (Instant::now(), self.scrape_idle);
        let reaped = self.close_scrapes_if(|c| now.duration_since(c.last_activity) >= idle);
        Report {
            closed: reaped,
            reaped,
            ..Report::default()
        }
    }

    /// When the next scrape connection falls idle, if one is open.
    pub fn next_scrape_expiry(&self) -> Option<Instant> {
        let earliest = self.scrapes.values().map(|c| c.last_activity).min()?;
        Some(earliest + self.scrape_idle)
    }

    pub fn scrapes(&self) -> usize {
        self.scrapes.len()
    }

    /// Closes both listeners for the drain.
    pub fn stop_accepting(&mut self) {
        for l in self
            .listener
            .take()
            .into_iter()
            .chain(self.scrape_listener.take())
        {
            let _ = self.poller.deregister(l.as_raw_fd());
        }
    }

    /// Closes every scrape connection (the drain deadline passed).
    pub fn close_scrapes(&mut self) -> Report {
        Report {
            closed: self.close_scrapes_if(|_| true),
            ..Report::default()
        }
    }

    /// Closes the scrape connections `close` picks; returns how many.
    fn close_scrapes_if(&mut self, mut close: impl FnMut(&HttpConn) -> bool) -> u64 {
        let before = self.scrapes.len();
        let poller = &mut self.poller;
        self.scrapes.retain(|_, c| {
            let closing = close(c);
            if closing {
                let _ = poller.deregister(c.as_raw_fd());
            }
            !closing
        });
        (before - self.scrapes.len()) as u64
    }
}

/// The capped accept loop behind both listeners, with `room` slots
/// left under the cap.
fn accept_capped(
    listener: Option<&TcpListener>,
    poller: &mut Poller,
    mut room: usize,
    mut token: impl FnMut(&TcpStream) -> u64,
    mut admit: impl FnMut(u64, TcpStream),
) -> Report {
    let mut report = Report::default();
    let Some(listener) = listener else {
        return report;
    };
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                if room == 0 {
                    report.refused += 1;
                    continue; // dropped: the peer sees an immediate close
                }
                let _ = stream.set_nodelay(true);
                let (token, fd) = (token(&stream), stream.as_raw_fd());
                let ready = stream.set_nonblocking(true).is_ok()
                    && poller.register(fd, token, Interest::READ).is_ok();
                if !ready {
                    continue;
                }
                room -= 1;
                report.accepted += 1;
                admit(token, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return report,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // ECONNABORTED and friends: transient, keep serving.
            Err(_) => return report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A door on loopback listeners, and its scrape address.
    fn door() -> (FrontDoor, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let scrape = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = scrape.local_addr().unwrap();
        let (door, _wake) =
            FrontDoor::open(listener, Some(scrape), Backend::Auto, 8, None).unwrap();
        (door, addr)
    }

    /// Runs one poller wait and hands every event to the door.
    fn turn(door: &mut FrontDoor, render: &mut impl FnMut() -> String) {
        let mut events = Vec::new();
        door.poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        for ev in events {
            door.event(ev, 0, &mut *render);
        }
    }

    #[test]
    fn a_head_sent_byte_by_byte_renders_once() {
        let (mut door, addr) = door();
        let mut client = TcpStream::connect(addr).unwrap();
        let mut renders = 0;
        let mut render = || {
            renders += 1;
            "up 1\n".to_string()
        };
        while door.scrapes() == 0 {
            turn(&mut door, &mut render);
        }
        for byte in b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" {
            client.write_all(&[*byte]).unwrap();
            turn(&mut door, &mut render);
        }
        while door.scrapes() > 0 {
            turn(&mut door, &mut render);
        }
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        assert_eq!(renders, 1);
        assert_eq!(raw.matches("HTTP/1.1 ").count(), 1, "{raw}");
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        assert!(raw.ends_with("\r\n\r\nup 1\n"), "{raw}");
    }

    #[test]
    fn scrapes_share_the_cap_and_drain_closes_everything() {
        let (mut door, addr) = door();
        let _open: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let mut report = Report::default();
        let deadline = Instant::now() + Duration::from_secs(10);
        while report.accepted + report.refused < 3 {
            assert!(Instant::now() < deadline, "{report:?}");
            door.poller
                .wait(&mut Vec::new(), Some(Duration::from_millis(20)))
                .unwrap();
            // The caller holds 6 of the 8 slots.
            let ev = Event {
                token: token::SCRAPE_LISTENER,
                readable: true,
                writable: false,
                hangup: false,
            };
            let r = door.event(ev, 6, String::new);
            report.accepted += r.accepted;
            report.refused += r.refused;
        }
        assert_eq!((report.accepted, report.refused), (2, 1));
        assert_eq!(door.scrapes(), 2);
        assert!(door.next_scrape_expiry().is_some());
        door.stop_accepting();
        assert_eq!(door.close_scrapes().closed, 2);
        assert_eq!(door.scrapes(), 0);
        assert!(door.next_scrape_expiry().is_none());
    }
}
