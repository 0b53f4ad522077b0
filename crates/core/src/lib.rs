//! The Flash web server (Pai, Druschel, Zwaenepoel; USENIX ATC 1999):
//! the AMPED architecture and its SPED/MP/MT siblings, built from one
//! code base, on top of the `flash-simos` simulated operating system.
//!
//! This is the *modelled* server. It depends on the shipped crates and
//! never the reverse: its caches are built on `flash-net`'s
//! `LruCache`, and its sites are `flash-workload`'s `FileSpec`s. The
//! real server, its sim and its benchmark compile none of this crate.
//!
//! # Architecture map (paper §3 → modules)
//!
//! | Paper | Module |
//! |---|---|
//! | AMPED event loop + helpers (Fig. 5) | [`eventloop`], [`helper`] |
//! | SPED (Fig. 4) | [`eventloop`] with helpers disabled |
//! | MP (Fig. 2) / MT (Fig. 3) | [`seq`] |
//! | The request path all four share (§2 steps over §5.2–5.4) | `request` |
//! | Pathname/header/mapped-file caches (§5.2–5.4) | [`caches`] |
//! | Byte-position alignment (§5.5) | `flash-http` + send paths |
//! | mincore residency testing (§5.7) | [`eventloop`] send path |
//!
//! Baselines: `ServerConfig::apache_like()` (MP without the aggressive
//! optimizations) and `ServerConfig::zeus_like()` (SPED with misaligned
//! headers and small-document priority).
//!
//! # Quick start
//!
//! ```
//! use std::rc::Rc;
//! use flash_core::{deploy, ServerConfig, Site};
//! use flash_simos::{MachineConfig, Simulation};
//! use flash_workload::FileSpec;
//!
//! let mut sim = Simulation::new(MachineConfig::freebsd());
//! let site = Site::build(&mut sim.kernel, &[FileSpec::file("/index.html", 8192)]);
//! let server = deploy(&mut sim, &ServerConfig::flash(), Rc::clone(&site)).unwrap();
//! assert_eq!(server.name, "Flash");
//! // Attach client agents (see `flash-experiments`) and run the simulation.
//! ```

pub mod caches;
pub mod config;
pub mod deploy;
pub mod eventloop;
pub mod helper;
mod request;
pub mod seq;
pub mod site;

pub use caches::{CacheStats, Caches, CHUNK_BYTES};
pub use config::{Architecture, ServerConfig};
pub use deploy::{deploy, DeployError, ServerHandle};
pub use request::KEEP_ALIVE_BIT;
pub use site::{Site, SiteFile};
