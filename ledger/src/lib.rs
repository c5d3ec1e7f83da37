//! Throughput ledger: the repository's end-to-end + per-layer benchmark.
//!
//! One binary, `ledger`, generates its inputs from a seed, times five
//! workloads over the public API of the `rgz_*` crates, checks every output
//! and prints each metric by name with its unit.  `BENCHMARK.json` at the
//! repository root describes it to the benchmark driver; `README.md` in this
//! directory explains the workloads, the metrics and how they interact.

pub mod heap;
pub mod layers;
pub mod op;
pub mod prepare;
pub mod run;
pub mod spec;
pub mod stats;
pub mod traced;

/// The benchmark's description for the driver, the one place the
/// regression bounds are written down.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
