//! End-to-end benchmark of the served FreqyWM tier: `freqywm router` in
//! front of two durable `freqywm serve` shards, driven by one load
//! generator with two connections. See `main.rs` for how to run it and
//! `README.md` in this directory for the workloads and metrics.

pub mod bench;
pub mod client;
pub mod layers;
pub mod report;
pub mod stats;
pub mod tier;
pub mod workload;
