//! The shared experiment harness: build, warm, measure.
//!
//! Every figure driver follows the same protocol: realize the trace as a
//! site, deploy the server, attach the client fleet, optionally pre-warm
//! the page cache to the steady state a long-running server would have
//! (least-popular first, so the most popular content ends most recently
//! used), run a warm-up phase, then measure over a window.

use std::rc::Rc;

use flash_core::{deploy, DeployError, ServerConfig, ServerHandle, Site};
use flash_simcore::SimTime;
use flash_simos::fs::META_FILE;
use flash_simos::{MachineConfig, Simulation, PAGE_SIZE};
use flash_workload::Trace;

use crate::client::{attach_fleet, ClientFleet};

/// Measured outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Server name.
    pub server: String,
    /// Delivered bandwidth over the window, Mb/s.
    pub bandwidth_mbps: f64,
    /// Completed responses per second.
    pub requests_per_sec: f64,
    /// Mean response latency, microseconds.
    pub latency_mean_us: f64,
    /// Approximate 99th-percentile latency, microseconds.
    pub latency_p99_us: u64,
    /// CPU utilization in the window [0, 1].
    pub cpu_util: f64,
    /// Disk utilization in the window [0, 1].
    pub disk_util: f64,
    /// Disk read operations in the window.
    pub disk_reads: u64,
    /// Mean ready descriptors per select call.
    pub select_aggregation: f64,
}

/// Run-shape parameters.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Simulated warm-up before the measurement window.
    pub warmup: SimTime,
    /// Measurement window length.
    pub window: SimTime,
    /// Pre-warm the page cache to steady state before starting.
    pub prewarm_cache: bool,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            warmup: SimTime::from_secs(1),
            window: SimTime::from_secs(4),
            prewarm_cache: true,
        }
    }
}

/// Deploys `server_cfg` against `trace` with `fleet` clients and measures.
///
/// Returns `Err` only for configuration errors (e.g. MT without kernel
/// threads) — the caller decides whether to skip the series.
pub fn run_one(
    machine: &MachineConfig,
    server_cfg: &ServerConfig,
    trace: &Rc<Trace>,
    fleet: &ClientFleet,
    params: &RunParams,
) -> Result<(RunResult, ServerHandle), DeployError> {
    let mut sim = Simulation::new(machine.clone());
    let site = Site::build(&mut sim.kernel, &trace.specs);
    let server = deploy(&mut sim, server_cfg, Rc::clone(&site))?;
    if params.prewarm_cache {
        prewarm(&mut sim, trace, &site);
    }
    attach_fleet(&mut sim, server.listen, Rc::clone(trace), fleet);
    sim.run_until(params.warmup);
    let start = sim.kernel.now();
    sim.kernel.metrics.open_window(start);
    let disk_busy_before = sim.kernel.disk.busy_ns;
    let deadline = SimTime(start.as_nanos() + params.window.as_nanos());
    sim.run_until(deadline);
    let now = sim.kernel.now();
    let m = &sim.kernel.metrics;
    let result = RunResult {
        server: server_cfg.name.clone(),
        bandwidth_mbps: m.bandwidth_mbps(now),
        requests_per_sec: m.request_rate(now),
        latency_mean_us: m.response_latency.mean() / 1_000.0,
        latency_p99_us: m.response_latency.quantile(0.99) / 1_000,
        cpu_util: m.cpu_utilization(now),
        disk_util: (sim.kernel.disk.busy_ns - disk_busy_before) as f64
            / m.elapsed(now).max(1) as f64,
        disk_reads: m.disk_reads.total(),
        select_aggregation: m.select_aggregation(),
    };
    Ok((result, server))
}

/// Fills the page cache with the steady-state content of a long-running
/// server: pages of files in increasing popularity order (most popular
/// inserted last → most recently used), metadata pages first.
fn prewarm(sim: &mut Simulation, trace: &Trace, site: &Site) {
    // Popularity = request count in the log.
    let mut counts = vec![0u64; trace.specs.len()];
    for &r in &trace.requests {
        counts[r as usize] += 1;
    }
    let mut order: Vec<usize> = (0..trace.specs.len()).collect();
    order.sort_by_key(|&i| counts[i]);
    // Metadata for every file (it is small and hot).
    let files: Vec<_> = order
        .iter()
        .map(|&i| (i, site.file(i as u64).fid))
        .collect();
    for &(_, fid) in &files {
        let meta = sim.kernel.fs.get(fid).meta_page();
        sim.kernel.cache.insert((META_FILE, meta));
    }
    for &(i, fid) in &files {
        let pages = site.file(i as u64).size.div_ceil(PAGE_SIZE).max(1);
        for p in 0..pages {
            sim.kernel.cache.insert((fid, p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ConnMode;

    #[test]
    fn run_one_produces_sane_metrics() {
        let trace = Rc::new(Trace::single_file(8 * 1024));
        let fleet = ClientFleet {
            clients: 16,
            mode: ConnMode::PerRequest,
            ..ClientFleet::default()
        };
        let params = RunParams {
            warmup: SimTime::from_millis(500),
            window: SimTime::from_secs(2),
            prewarm_cache: true,
        };
        let (r, _) = run_one(
            &MachineConfig::freebsd(),
            &ServerConfig::flash(),
            &trace,
            &fleet,
            &params,
        )
        .expect("deploy");
        assert!(r.requests_per_sec > 1_000.0, "{:?}", r);
        assert!(r.bandwidth_mbps > 50.0, "{:?}", r);
        assert!(r.cpu_util > 0.5 && r.cpu_util <= 1.0, "{:?}", r);
        assert!(r.disk_reads == 0, "prewarmed cache must not fault: {:?}", r);
        assert!(r.latency_mean_us > 100.0 && r.latency_mean_us < 100_000.0);
    }

    #[test]
    fn mt_on_freebsd_is_a_config_error() {
        let trace = Rc::new(Trace::single_file(1024));
        let err = run_one(
            &MachineConfig::freebsd(),
            &ServerConfig::flash_mt(),
            &trace,
            &ClientFleet::default(),
            &RunParams::default(),
        )
        .err()
        .expect("must fail");
        assert_eq!(err, DeployError::NoKernelThreads);
    }
}
