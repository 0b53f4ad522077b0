//! Figure 12: performance under WAN conditions (adding clients).
//!
//! Persistent connections simulate long-lived WAN connections (§6.4); the
//! ECE trace truncated to 90 MB exposes a limited file cache; the client
//! count sweeps from 16 to 500 on Solaris. MP and MT spawn one process /
//! thread per connection (§4.2 "long-lived connections" — that is
//! precisely their cost), AMPED and SPED keep their fixed structure.
//!
//! Expected shapes: SPED/AMPED/MT rise initially (select aggregation and
//! added concurrency), then SPED and AMPED stay flat; MT declines
//! gradually (per-thread switching and stack memory); MP declines
//! significantly (per-process memory squeezes the file cache, context
//! switches multiply).

use std::rc::Rc;

use flash_core::ServerConfig;
use flash_simcore::SimTime;
use flash_simos::MachineConfig;
use flash_workload::{Trace, TraceConfig};

use crate::client::{ClientFleet, ConnMode};
use crate::runner::{run_one, RunParams};
use crate::table::{Figure, Series};
use crate::Scale;

/// Client counts of the full sweep.
pub const CLIENTS: &[usize] = &[16, 32, 64, 100, 150, 200, 300, 400, 500];

/// Figure 12 line-up (the paper plots SPED, Flash, MT, MP). For MP and
/// MT the worker pool is sized to the connection count.
fn lineup(clients: usize) -> Vec<ServerConfig> {
    let mp = ServerConfig {
        workers: clients,
        ..ServerConfig::flash_mp()
    };
    let mt = ServerConfig {
        workers: clients,
        ..ServerConfig::flash_mt()
    };
    vec![ServerConfig::flash_sped(), ServerConfig::flash(), mt, mp]
}

/// Figure 12: bandwidth vs number of simultaneous (persistent) clients.
pub fn fig12(scale: Scale) -> Figure {
    let machine = MachineConfig::solaris();
    let clients: Vec<usize> = match scale {
        Scale::Full => CLIENTS.to_vec(),
        Scale::Quick => vec![16, 100, 400],
    };
    let base = Rc::new(Trace::generate(&TraceConfig::ece(), 2026));
    let trace = Rc::new(base.truncate_to_dataset(90 * 1024 * 1024));
    let params = RunParams {
        warmup: SimTime::from_secs(1),
        window: match scale {
            Scale::Full => SimTime::from_secs(5),
            Scale::Quick => SimTime::from_secs(2),
        },
        prewarm_cache: true,
    };
    let mut fig = Figure::new(
        "fig12",
        "Adding clients under WAN conditions (Solaris, ECE 90 MB, persistent)",
        "Simultaneous clients",
        "Bandwidth (Mb/s)",
    );
    // Initialize one series per architecture label (pool sizes vary per
    // point, so configs are rebuilt per client count).
    for label in ["Flash-SPED", "Flash", "Flash-MT", "Flash-MP"] {
        fig.series.push(Series::new(label));
    }
    for &n in &clients {
        let fleet = ClientFleet {
            clients: n,
            mode: ConnMode::Persistent,
            ..ClientFleet::default()
        };
        for cfg in lineup(n) {
            let (r, _) = run_one(&machine, &cfg, &trace, &fleet, &params).expect("solaris");
            fig.series
                .iter_mut()
                .find(|s| s.label == cfg.name)
                .expect("series pre-registered")
                .points
                .push((n as f64, r.bandwidth_mbps));
        }
    }
    fig
}
