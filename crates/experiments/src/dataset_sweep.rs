//! Figures 9 and 10: real workload vs dataset size.
//!
//! The ECE trace is truncated to dataset sizes from 15 to 150 MB (§6.2)
//! and replayed against every server. Expected shapes: all servers
//! decline once the working set outgrows the ~100 MB effective cache;
//! Flash tracks Flash-SPED while cached and meets/exceeds MP when
//! disk-bound; Flash-SPED (and Zeus) drop drastically past the cliff;
//! Flash-MP underperforms on cached sets (smaller per-process caches);
//! Zeus's cliff arrives later (small-document priority shrinks its
//! effective working set); Solaris throughput is far below FreeBSD.

use std::rc::Rc;

use flash_simcore::SimTime;
use flash_simos::MachineConfig;
use flash_workload::{Trace, TraceConfig};

use crate::client::{ClientFleet, ConnMode};
use crate::runner::{run_one, RunParams};
use crate::table::{Figure, Series};
use crate::{single_file, Scale};

/// Dataset sizes of the full sweep (MB).
pub const DATASET_MB: &[u64] = &[15, 30, 45, 60, 75, 90, 105, 120, 135, 150];

/// Runs the sweep on `machine`.
pub fn run(machine: &MachineConfig, fig_id: &str, scale: Scale) -> Figure {
    let sizes_mb: Vec<u64> = match scale {
        Scale::Full => DATASET_MB.to_vec(),
        Scale::Quick => vec![15, 90, 150],
    };
    let base = Rc::new(Trace::generate(&TraceConfig::ece(), 2026));
    let params = RunParams {
        warmup: SimTime::from_secs(1),
        window: match scale {
            Scale::Full => SimTime::from_secs(5),
            Scale::Quick => SimTime::from_secs(2),
        },
        prewarm_cache: true,
    };
    let fleet = ClientFleet {
        clients: 64,
        mode: ConnMode::PerRequest,
        ..ClientFleet::default()
    };
    let mut fig = Figure::new(
        fig_id,
        format!(
            "ECE trace truncated to each dataset size, on {}",
            machine.os.name
        ),
        "Dataset size (MB)",
        "Bandwidth (Mb/s)",
    );
    // Zeus runs its two-process trace-test configuration.
    for cfg in single_file::lineup(machine.os.kernel_threads, 2) {
        let mut s = Series::new(cfg.name.clone());
        for &mb in &sizes_mb {
            let trace = Rc::new(base.truncate_to_dataset(mb * 1024 * 1024));
            let (r, _) = run_one(machine, &cfg, &trace, &fleet, &params).expect("lineup");
            s.points.push((mb as f64, r.bandwidth_mbps));
        }
        fig.series.push(s);
    }
    fig
}

/// Figure 9: FreeBSD (no MT — FreeBSD 2.2.6 lacks kernel threads).
pub fn fig09(scale: Scale) -> Figure {
    run(&MachineConfig::freebsd(), "fig09", scale)
}

/// Figure 10: Solaris (including Flash-MT).
pub fn fig10(scale: Scale) -> Figure {
    run(&MachineConfig::solaris(), "fig10", scale)
}
