//! Facade crate for the Flash (USENIX 1999) reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency. See `ROADMAP.md` (where the work is going) and
//! `CHANGES.md` (what each PR did) at the repository root.

pub use flash_core as core;
pub use flash_experiments as experiments;
pub use flash_http as http;
pub use flash_net as net;
pub use flash_sim as sim;
pub use flash_simcore as simcore;
pub use flash_simos as simos;
pub use flash_workload as workload;
