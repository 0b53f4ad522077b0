//! The **shard's driver seam**: everything a crate outside this one
//! needs to run the shipped event loop over an environment of its own.
//! The real server runs it over the kernel (`NetEnv`, in [`crate::server`]);
//! `flash-sim` runs it over a simulated kernel. Nothing else of the
//! shard is public: its connection table, timers, core and port stay
//! this crate's.
//!
//! * [`Env`] is what the shard reaches outside its own memory: the
//!   clock, the connection transport (a [`ConnIo`](crate::conn::ConnIo)
//!   whose descriptor is its readiness key), the listener, the
//!   application workers' endpoints, the readiness backend
//!   ([`EventBackend`](crate::event::EventBackend)), the residency
//!   test, and the helper pool — [`Work`] goes out to it, [`Reply`]
//!   comes back, announced on the descriptor registered under
//!   [`WAKE_TOKEN`]. [`FileOf`] is the transport's large-body handle.
//! * [`Shard::new`] builds a shard over an environment whose backend
//!   has the wake channel and the listener ([`LISTENER_TOKEN`])
//!   registered already, and [`shard_loop`] runs it until it stops or
//!   drains. Between turns, [`Env::after_turn`] sees the shard and may
//!   run [`Shard::check_invariants`]; after the loop, the shard's
//!   metrics, reload epoch and jobs in flight are read through
//!   [`Shard::counts`], [`Shard::epoch`] and [`Shard::jobs_in_flight`].
//! * [`LifecycleShared`] is how the outside reaches a running loop —
//!   [`publish_reload`](LifecycleShared::publish_reload),
//!   [`begin_drain`](LifecycleShared::begin_drain) and
//!   [`stop_now`](LifecycleShared::stop_now), the calls a signal makes
//!   on the real server.
//!
//! What a driver owes the protocol core, and what it must never decide
//! for itself, is [`crate::conn`]'s *The driver contract*; the shard
//! keeps it, so an environment has only to answer its calls.

pub use crate::lifecycle::LifecycleShared;
pub use crate::pool::{Reply, Work};
pub use crate::server::{shard_loop, Env, FileOf, Shard, LISTENER_TOKEN, WAKE_TOKEN};
use crate::stats::Counts;

/// What a driver outside this crate reads of a shard it runs.
impl<E: Env> Shard<E> {
    /// The environment the shard runs over.
    pub fn env(&self) -> &E {
        &self.port.env
    }

    /// A snapshot of the shard's metrics.
    pub fn counts(&self) -> Counts {
        self.core.stats.counts()
    }

    /// The reload generation the shard serves: how many published
    /// reloads it has applied.
    pub fn epoch(&self) -> u64 {
        self.core.epoch
    }

    /// Jobs dispatched and not yet completed.
    pub fn jobs_in_flight(&self) -> usize {
        self.core.jobs.len()
    }
}
