//! Workload generation and replay for the Flash reproduction.
//!
//! * [`zipf`] — Zipf popularity sampling (web requests are Zipf-like).
//! * [`sitegen`] — heavy-tailed file-size distributions and site
//!   generation, as [`FileSpec`]s.
//! * [`trace`] — the paper's CS / Owlnet / ECE trace presets, the
//!   log-truncation methodology of §6.2, and Common-Log-Format
//!   round-tripping.

pub mod sitegen;
pub mod trace;
pub mod zipf;

pub use sitegen::{generate_files, FileSpec, SizeDist};
pub use trace::{Trace, TraceConfig};
pub use zipf::Zipf;
