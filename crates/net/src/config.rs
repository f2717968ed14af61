//! Front-end configuration, shared by all platforms (the reactor
//! itself is unix-only).

use std::time::Duration;

/// Readiness backend selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// epoll on Linux, `poll(2)` elsewhere.
    Auto,
    /// Force epoll (errors off Linux).
    Epoll,
    /// Force the portable `poll(2)` fallback.
    Poll,
}

/// Reactor limits and policies.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Concurrent connection cap; excess accepts are closed immediately
    /// (counted in `net.rejected`).
    pub max_conns: usize,
    /// Close a connection with no traffic, no queued output and no job
    /// in flight for this long (`None` disables; counted in
    /// `net.timed_out_idle`). Connections waiting on a running job are
    /// never idle-reaped.
    pub idle_timeout: Option<Duration>,
    /// Input frame-size cap: a request line longer than this is
    /// answered with an error response and discarded — the connection
    /// stays usable.
    pub max_frame: usize,
    /// Write backpressure bound: a client that lets this many response
    /// bytes pile up unread is evicted (counted in `net.evicted_slow`)
    /// so it cannot pin reactor memory.
    pub max_write_buffer: usize,
    pub backend: Backend,
    /// Shared-secret front-end auth. When set, every connection must
    /// authenticate before its first op — a `hello` op carrying
    /// `"token"` unlocks the connection, or an individual request may
    /// carry a matching `"auth"` field. `None` leaves the socket open
    /// (pre-router behaviour).
    pub auth_token: Option<String>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conns: 1024,
            idle_timeout: None,
            max_frame: 1 << 20,
            max_write_buffer: 4 << 20,
            backend: Backend::Auto,
            auth_token: None,
        }
    }
}
