//! [`ServerStats`]: a running server's metrics, read through the
//! table in the parent module.

use std::sync::Arc;

use super::ShardStats;

/// Metrics of a running server: per-shard atomics, aggregated on read
/// so the hot path never contends on a shared cacheline.
///
/// Every metric getter is generated from the same table entry as the
/// [`crate::stats`] registry descriptor the exporter
/// ([`Self::render_prometheus`]) iterates, so a metric cannot exist
/// here without appearing in the scrape output (or vice versa), and
/// every metric has a getter of its own name.
#[derive(Debug)]
pub struct ServerStats {
    pub(super) shards: Vec<Arc<ShardStats>>,
}

impl ServerStats {
    pub(crate) fn new(shards: Vec<Arc<ShardStats>>) -> Self {
        ServerStats { shards }
    }

    /// The full Prometheus text exposition — exactly what
    /// `GET /.flash/metrics` serves.
    pub fn render_prometheus(&self) -> String {
        super::render_prometheus(&self.shards)
    }

    /// The per-shard counters (index = shard id).
    pub fn per_shard(&self) -> &[Arc<ShardStats>] {
        &self.shards
    }
}
