//! Experiment drivers: one module per figure of the paper's evaluation.
//!
//! | Module | Paper figure |
//! |---|---|
//! | [`single_file`] | Figs. 6 (Solaris) and 7 (FreeBSD): cached single-file test |
//! | [`trace_bars`] | Fig. 8: Rice CS and Owlnet trace bandwidth (Solaris) |
//! | [`dataset_sweep`] | Figs. 9 (FreeBSD) and 10 (Solaris): bandwidth vs dataset size |
//! | [`breakdown`] | Fig. 11: contribution of the three caches |
//! | [`wan`] | Fig. 12: bandwidth vs concurrent clients (WAN conditions) |
//!
//! Beyond the paper, [`ablation`] probes the design choices themselves
//! (helper-pool size, §5.5 alignment, disk scheduling, §5.7 residency
//! policies).
//!
//! Every driver runs the modelled server through [`runner`] against
//! [`client`]'s replay clients: the event-driven load generator of §6,
//! in per-request (HTTP/1.0) and persistent (§6.4 WAN) modes.
//!
//! Every driver returns [`table::Figure`]s — the same series the paper
//! plots — and is deterministic for a given seed. `Scale::Quick` shrinks
//! sweeps for tests; `Scale::Full` regenerates the figures in full (see
//! `examples/reproduce_figures.rs`).

pub mod ablation;
pub mod breakdown;
pub mod client;
pub mod dataset_sweep;
pub mod runner;
pub mod single_file;
pub mod table;
pub mod trace_bars;
pub mod wan;

pub use client::{attach_fleet, ClientFleet, ConnMode};
pub use runner::{run_one, RunParams, RunResult};
pub use table::{Figure, Series};

/// Sweep resolution: full paper sweeps or quick smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full parameter sweep.
    Full,
    /// A reduced sweep for tests.
    Quick,
}
