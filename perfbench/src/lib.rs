//! Benchmark harness for the `smo` latch-timing tool.
//!
//! Three workloads run the release `smo` binary exactly as users do —
//! default flags, netlist files written during set-up, one `smo serve`
//! process — and check every answer against a certified-LP oracle. A
//! separate traced run calls the library layers those commands are built
//! from, recording spans in memory, and reports per-layer metrics. See
//! BENCHMARK.json at the repository root and `perfbench/README.md`.

pub mod analysis;
pub mod harness;
pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod serve;
pub mod solve;
pub mod stats;
pub mod trace;

/// Workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["solve-10k", "analysis-655", "serve-mix"];
