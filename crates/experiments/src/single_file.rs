//! Figures 6 and 7: the single-file (cached) test.
//!
//! "A set of clients repeatedly request the same file, where the file
//! size is varied in each test" (§6.1). Two panels per OS: total output
//! bandwidth vs file size, and connection rate vs file size for small
//! files. The expected shapes: architecture barely matters on this
//! trivial cached workload; Flash-SPED edges out Flash (no mincore);
//! MT/MP trail slightly (switch overheads); Apache trails everyone by a
//! large margin; Zeus dips on FreeBSD between ~100 and ~175 KB from the
//! §5.5 alignment problem; FreeBSD beats Solaris across the board.

use std::rc::Rc;

use flash_core::ServerConfig;
use flash_simcore::SimTime;
use flash_simos::MachineConfig;
use flash_workload::Trace;

use crate::client::{ClientFleet, ConnMode};
use crate::runner::{run_one, RunParams};
use crate::table::{Figure, Series};
use crate::Scale;

/// File sizes for the bandwidth panel (KB).
pub const BANDWIDTH_SIZES_KB: &[u64] = &[1, 5, 10, 20, 50, 100, 125, 150, 175, 200];
/// File sizes for the connection-rate panel (KB).
pub const RATE_SIZES_KB: &[u64] = &[1, 2, 5, 10, 15, 20];

/// The server line-up of Figures 6/7 and 9/10 (MT only where the OS
/// supports it). Zeus runs `zeus_processes` processes: 1 for the
/// synthetic tests, 2 for the trace tests (§6).
pub fn lineup(os_has_threads: bool, zeus_processes: usize) -> Vec<ServerConfig> {
    let mut v = vec![
        ServerConfig::flash_sped(),
        ServerConfig::flash(),
        ServerConfig::zeus_like(zeus_processes),
        ServerConfig::flash_mp(),
        ServerConfig::apache_like(),
    ];
    if os_has_threads {
        v.insert(3, ServerConfig::flash_mt());
    }
    v
}

/// Runs the single-file test on `machine`, returning the two panels.
pub fn run(machine: &MachineConfig, fig_id: &str, scale: Scale) -> Vec<Figure> {
    let (bw_sizes, rate_sizes): (Vec<u64>, Vec<u64>) = match scale {
        Scale::Full => (BANDWIDTH_SIZES_KB.to_vec(), RATE_SIZES_KB.to_vec()),
        Scale::Quick => (vec![5, 100, 200], vec![1, 10]),
    };
    let params = RunParams {
        warmup: SimTime::from_millis(500),
        window: match scale {
            Scale::Full => SimTime::from_secs(4),
            Scale::Quick => SimTime::from_secs(2),
        },
        prewarm_cache: true,
    };
    let fleet = ClientFleet {
        clients: 32,
        mode: ConnMode::PerRequest,
        ..ClientFleet::default()
    };
    let mut bw = Figure::new(
        format!("{fig_id}-bandwidth"),
        format!("single-file test on {}: output bandwidth", machine.os.name),
        "File size (KB)",
        "Bandwidth (Mb/s)",
    );
    let mut rate = Figure::new(
        format!("{fig_id}-rate"),
        format!("single-file test on {}: connection rate", machine.os.name),
        "File size (KB)",
        "Connection rate (req/s)",
    );
    for cfg in lineup(machine.os.kernel_threads, 1) {
        let mut bw_series = Series::new(cfg.name.clone());
        let mut rate_series = Series::new(cfg.name.clone());
        for &kb in &bw_sizes {
            let trace = Rc::new(Trace::single_file(kb * 1024));
            let (r, _) = run_one(machine, &cfg, &trace, &fleet, &params)
                .expect("single-file deploy cannot fail");
            bw_series.points.push((kb as f64, r.bandwidth_mbps));
            if rate_sizes.contains(&kb) {
                rate_series.points.push((kb as f64, r.requests_per_sec));
            }
        }
        for &kb in &rate_sizes {
            if rate_series.y_at(kb as f64).is_some() {
                continue;
            }
            let trace = Rc::new(Trace::single_file(kb * 1024));
            let (r, _) = run_one(machine, &cfg, &trace, &fleet, &params)
                .expect("single-file deploy cannot fail");
            rate_series.points.push((kb as f64, r.requests_per_sec));
        }
        rate_series
            .points
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
        bw.series.push(bw_series);
        rate.series.push(rate_series);
    }
    vec![bw, rate]
}

/// Figure 6: Solaris.
pub fn fig06(scale: Scale) -> Vec<Figure> {
    run(&MachineConfig::solaris(), "fig06", scale)
}

/// Figure 7: FreeBSD.
pub fn fig07(scale: Scale) -> Vec<Figure> {
    run(&MachineConfig::freebsd(), "fig07", scale)
}
