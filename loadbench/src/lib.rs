//! The repo benchmark. See `README.md` beside this package for the
//! workloads, the metrics, and how they are expected to interact.

pub mod counters;
pub mod layers;
pub mod loadgen;
pub mod procstat;
pub mod run;
pub mod summary;
pub mod trace;
pub mod worker;
pub mod workloads;
