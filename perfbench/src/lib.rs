//! # st-perfbench — the repository benchmark
//!
//! Four seeded workloads drive the selective-throttling reproduction
//! from outside, through the public entry points of its layers:
//!
//! * `sweep-short` — a 2,000-instruction grid through the sweep engine
//!   on a cold result store (program generation dominates);
//! * `sweep-long` — the paper grid at 200,000 instructions (the cycle
//!   loop dominates; carries the fidelity figure);
//! * `store-warm` — the `sweep-short` grid answered from a segment-log
//!   store of about 10⁵ entries (store open and decode dominate);
//! * `serve-mixed` — an open loop of small submissions against the
//!   sweep service on a loopback port.
//!
//! `README.md` in this directory says why each workload exists, which
//! layer metric should move which end-to-end metric, and how to run it.

#![warn(missing_docs)]

pub mod common;
pub mod host;
pub mod inputs;
pub mod metrics;
pub mod serve_mixed;
pub mod stats;
pub mod store_warm;
pub mod sweep;
pub mod trace;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sweep-short", "sweep-long", "store-warm", "serve-mixed"];
