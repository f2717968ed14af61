//! Non-blocking network front-end for the FreqyWM engine.
//!
//! `freqywm serve --listen <addr>` puts this reactor in front of
//! [`freqywm_service::Engine`]: a hand-rolled, dependency-free epoll
//! event loop (raw syscalls behind the small [`Poller`] abstraction,
//! with a portable `poll(2)` fallback) that speaks the existing
//! JSON-lines protocol over TCP. The split follows the
//! core-engine-behind-a-thin-async-device-layer shape: the engine knows
//! nothing about sockets, the reactor knows nothing about
//! watermarking.
//!
//! Why a reactor: the marketplace scenario is many concurrent, mostly
//! idle clients. A thread per connection pins a stack each; here a
//! thousand idle connections cost one registered fd each and zero
//! wakeups — total thread count stays `1 + worker pool` regardless of
//! connection count.
//!
//! Both reactors, this one and the shard router's, enter through one
//! [`FrontDoor`]: the poller with both listeners and the wake pair on
//! it, the capped accept loop, every `GET /metrics` scrape connection
//! and the listeners' close at drain. The [`token`] layout lives there.
//!
//! The full connection lifecycle is handled: non-blocking accept with
//! a connection cap, partial reads/writes with per-connection buffers,
//! an input frame-size cap (an oversized request costs one error
//! response, not the connection), write backpressure with slow-client
//! eviction, idle timeouts, and graceful drain on the `shutdown` op
//! (stop accepting, flush in-flight responses, then close). A worker
//! delivers each finished job to its connection's session inbox and
//! wakes the reactor with that connection's fd over a wakeup pipe, so
//! the event loop never blocks on a job. Connection gauges land in the
//! engine's `MetricsSnapshot` (`net.*`) and surface through the
//! `metrics` op.
//!
//! The reactor is unix-only; on other platforms [`serve_listener`]
//! returns [`std::io::ErrorKind::Unsupported`] and the stdin/stdout
//! pipe transport remains available.

mod config;

pub use config::{Backend, NetConfig};
pub use freqywm_service::framing::{LineEvent, LineFramer};

#[cfg(unix)]
mod conn;
#[cfg(unix)]
mod front;
#[cfg(unix)]
mod http;
#[cfg(unix)]
mod poller;
#[cfg(unix)]
mod server;
#[cfg(unix)]
mod stream;
#[cfg(unix)]
mod sys;

#[cfg(unix)]
pub use front::{token, FrontDoor, Report};
#[cfg(unix)]
pub use poller::{Event, Interest, Poller};
#[cfg(unix)]
pub use server::{serve_listener, serve_listener_with_metrics};
#[cfg(unix)]
pub use stream::LineStream;

#[cfg(not(unix))]
pub fn serve_listener(
    _engine: &freqywm_service::Engine,
    _listener: std::net::TcpListener,
    _config: NetConfig,
) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the freqywm-net reactor requires a unix platform (epoll/poll); \
         use the stdin/stdout pipe transport instead",
    ))
}

#[cfg(not(unix))]
pub fn serve_listener_with_metrics(
    _engine: &freqywm_service::Engine,
    _listener: std::net::TcpListener,
    _metrics_listener: Option<std::net::TcpListener>,
    _config: NetConfig,
) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the freqywm-net reactor requires a unix platform (epoll/poll); \
         use the stdin/stdout pipe transport instead",
    ))
}
