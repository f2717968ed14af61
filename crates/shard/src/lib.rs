//! Cross-process sharding for the FreqyWM service: a consistent-hash
//! router tier over N engine shards.
//!
//! One engine process owns every tenant's ledger, PRF cache and worker
//! pool — one box is the ceiling. This crate removes it by partitioning
//! *tenants* across processes, which the engine's design makes cheap:
//! the registry, the durable ledger and the PRF cache are all
//! tenant-keyed already, so a partition is just "an engine that only
//! sees its own tenants".
//!
//! * [`ring`] — placement: jump-consistent hashing of tenant ids onto
//!   shard indices (deterministic, uniform, moves ~1/N of tenants when
//!   a shard is added), and the [`ring::ShardMap`] deployment contract;
//! * [`run_router`] — the tier: `freqywm router --listen … --shard …×N`
//!   accepts the ordinary JSON-lines protocol, forwards each request to
//!   its tenant's shard over multiplexed pipelined backend connections,
//!   fans out and merges tenant-agnostic ops, and survives backend
//!   death with per-shard errors + reconnect backoff.
//!
//! Each backend runs `freqywm serve --listen … --shard-id i/N
//! --data-dir <dir-i>`: the `--shard-id` gate makes misrouting loud
//! (the engine refuses tenants it does not own) and per-shard data-dirs
//! keep durability per partition. See `docs/sharding.md` for topology,
//! failure semantics and resharding caveats.

pub mod ring;

#[cfg(unix)]
mod router;
#[cfg(unix)]
pub mod signal;

#[cfg(unix)]
pub use router::{run_router, run_router_with_metrics, RouterConfig, ROUTER};

pub use ring::{fnv1a64, jump_hash, tenant_shard, ShardMap};

#[cfg(not(unix))]
pub fn run_router(_listener: std::net::TcpListener, _config: ()) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the freqywm router tier requires a unix platform (epoll/poll)",
    ))
}
