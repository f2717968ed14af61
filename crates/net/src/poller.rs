//! The `Poller` abstraction: readiness notification for many fds from
//! one thread.
//!
//! Two backends behind one enum (no trait objects, no allocation per
//! wait):
//!
//! * [`Backend::Epoll`] — Linux `epoll`, O(ready) per wait. The
//!   production backend: wait cost is independent of how many idle
//!   connections are registered, which is the whole point of the
//!   reactor.
//! * [`Backend::Poll`] — POSIX `poll(2)`, O(registered) per wait. The
//!   portable fallback, also forced in tests so both code paths stay
//!   honest on any unix.
//!
//! Both are level-triggered: a fd keeps reporting ready until the
//! condition is consumed, so the reactor never needs to drain a socket
//! exhaustively in one pass to stay correct.

use crate::config::Backend;
use crate::sys;
use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness report. `hangup` flags peer close / error conditions;
/// they also assert `readable` so a reactor that simply reads will
/// observe the EOF or error directly.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

/// Readiness poller over one of the two backends.
pub enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    Poll(PollPoller),
}

impl Poller {
    /// Opens a poller: epoll on Linux, `poll(2)` elsewhere (or when
    /// explicitly requested).
    pub fn new(backend: Backend) -> io::Result<Poller> {
        match backend {
            Backend::Poll => Ok(Poller::Poll(PollPoller::new())),
            #[cfg(target_os = "linux")]
            Backend::Auto | Backend::Epoll => Ok(Poller::Epoll(EpollPoller::new()?)),
            #[cfg(not(target_os = "linux"))]
            Backend::Auto => Ok(Poller::Poll(PollPoller::new())),
            #[cfg(not(target_os = "linux"))]
            Backend::Epoll => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll backend requires Linux",
            )),
        }
    }

    pub fn backend_name(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            Poller::Poll(_) => "poll",
        }
    }

    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::epoll::EPOLL_CTL_ADD, fd, token, interest),
            Poller::Poll(p) => p.register(fd, token, interest),
        }
    }

    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::epoll::EPOLL_CTL_MOD, fd, token, interest),
            Poller::Poll(p) => p.modify(fd, token, interest),
        }
    }

    /// Moves a registration from interest `cur` to `want`, recording it
    /// in `cur`; `false` means the change failed and the fd must close.
    pub fn update(&mut self, fd: RawFd, token: u64, cur: &mut Interest, want: Interest) -> bool {
        if *cur != want {
            if self.modify(fd, token, want).is_err() {
                return false;
            }
            *cur = want;
        }
        true
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::epoll::EPOLL_CTL_DEL, fd, 0, Interest::READ),
            Poller::Poll(p) => p.deregister(fd),
        }
    }

    /// Blocks until at least one registered fd is ready or the timeout
    /// elapses (`None` = indefinitely), filling `events` with the
    /// reports. `EINTR` is retried internally.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(events, timeout),
            Poller::Poll(p) => p.wait(events, timeout),
        }
    }
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        // Round up so a sub-millisecond deadline does not busy-spin.
        Some(d) => d.as_millis().saturating_add(1).min(i32::MAX as u128) as i32,
    }
}

/// Linux epoll backend over raw syscalls (see [`crate::sys::epoll`]).
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: std::os::fd::OwnedFd,
    buf: Vec<sys::epoll::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    fn new() -> io::Result<Self> {
        use std::os::fd::FromRawFd;
        let fd = unsafe { sys::epoll::epoll_create1(sys::epoll::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollPoller {
            // OwnedFd closes the instance on drop — no raw close(2)
            // binding needed.
            epfd: unsafe { std::os::fd::OwnedFd::from_raw_fd(fd) },
            buf: vec![sys::epoll::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn mask(interest: Interest) -> u32 {
        use sys::epoll::*;
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        let mut ev = sys::epoll::EpollEvent {
            events: Self::mask(interest),
            data: token,
        };
        let rc = unsafe { sys::epoll::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        use sys::epoll::*;
        let n = loop {
            let rc = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for i in 0..n {
            // Copy out of the (possibly packed) kernel struct before
            // touching fields.
            let raw = self.buf[i];
            let bits = raw.events;
            let hangup = bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0;
            events.push(Event {
                token: raw.data,
                readable: bits & EPOLLIN != 0 || hangup,
                writable: bits & EPOLLOUT != 0,
                hangup,
            });
        }
        Ok(())
    }
}

/// Portable `poll(2)` backend: keeps the registration table in user
/// space and rebuilds the `pollfd` array per wait. O(registered), fine
/// for tests and modest deployments on non-Linux unix.
pub struct PollPoller {
    entries: Vec<(RawFd, u64, Interest)>,
}

impl PollPoller {
    fn new() -> Self {
        PollPoller {
            entries: Vec::new(),
        }
    }

    fn find(&self, fd: RawFd) -> Option<usize> {
        self.entries.iter().position(|&(f, _, _)| f == fd)
    }

    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.find(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.entries.push((fd, token, interest));
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self.find(fd) {
            Some(i) => {
                self.entries[i] = (fd, token, interest);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self.find(fd) {
            Some(i) => {
                self.entries.swap_remove(i);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let mut fds: Vec<sys::PollFd> = self
            .entries
            .iter()
            .map(|&(fd, _, interest)| {
                let mut ev = 0i16;
                if interest.readable {
                    ev |= sys::POLLIN;
                }
                if interest.writable {
                    ev |= sys::POLLOUT;
                }
                sys::PollFd {
                    fd,
                    events: ev,
                    revents: 0,
                }
            })
            .collect();
        loop {
            let rc = unsafe {
                sys::poll(
                    fds.as_mut_ptr(),
                    fds.len() as std::os::raw::c_ulong,
                    timeout_ms(timeout),
                )
            };
            if rc >= 0 {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        for (pfd, &(_, token, _)) in fds.iter().zip(&self.entries) {
            let bits = pfd.revents;
            if bits == 0 {
                continue;
            }
            let hangup = bits & (sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0;
            events.push(Event {
                token,
                readable: bits & sys::POLLIN != 0 || hangup,
                writable: bits & sys::POLLOUT != 0,
                hangup,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn backends() -> Vec<Poller> {
        let mut v = vec![Poller::new(Backend::Poll).unwrap()];
        if cfg!(target_os = "linux") {
            v.push(Poller::new(Backend::Auto).unwrap());
        }
        v
    }

    #[test]
    fn readiness_and_timeout_both_backends() {
        for mut poller in backends() {
            let (a, b) = UnixStream::pair().unwrap();
            a.set_nonblocking(true).unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(a.as_raw_fd(), 7, Interest::READ).unwrap();
            let mut events = Vec::new();

            // Nothing to read yet: the wait times out empty.
            poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .unwrap();
            assert!(events.is_empty(), "{}", poller.backend_name());

            // A byte arrives: readable, right token.
            (&b).write_all(&[1]).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(500)))
                .unwrap();
            assert_eq!(events.len(), 1, "{}", poller.backend_name());
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);

            // Write interest on the other end reports writable.
            poller
                .register(
                    b.as_raw_fd(),
                    9,
                    Interest {
                        readable: false,
                        writable: true,
                    },
                )
                .unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(500)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 9 && e.writable),
                "{}: {events:?}",
                poller.backend_name()
            );

            // Deregistration silences the fd.
            poller.deregister(a.as_raw_fd()).unwrap();
            poller.deregister(b.as_raw_fd()).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .unwrap();
            assert!(events.is_empty(), "{}", poller.backend_name());
        }
    }

    #[test]
    fn hangup_is_reported_readable() {
        for mut poller in backends() {
            let (a, b) = UnixStream::pair().unwrap();
            a.set_nonblocking(true).unwrap();
            poller.register(a.as_raw_fd(), 1, Interest::READ).unwrap();
            drop(b);
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(500)))
                .unwrap();
            assert_eq!(events.len(), 1, "{}", poller.backend_name());
            assert!(events[0].readable, "hangup must surface as readable");
            assert!(events[0].hangup);
        }
    }
}
