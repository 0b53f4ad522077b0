//! Figure 8: performance on the Rice server traces (Solaris).
//!
//! Two bar groups — the CS departmental trace (large dataset, disk-bound)
//! and the Owlnet trace (small dataset, cache-friendly) — for Apache, MP,
//! MT, SPED and Flash. Expected shape: Flash highest on both; Apache
//! lowest; SPED relatively strong on Owlnet (cached) but weak on CS
//! (disk-bound); MP the reverse.

use std::rc::Rc;

use flash_core::ServerConfig;
use flash_simcore::SimTime;
use flash_simos::MachineConfig;
use flash_workload::{Trace, TraceConfig};

use crate::client::{ClientFleet, ConnMode};
use crate::runner::{run_one, RunParams};
use crate::table::{Figure, Series};
use crate::Scale;

/// The Figure 8 server line-up, in the paper's bar order.
pub fn lineup() -> Vec<ServerConfig> {
    vec![
        ServerConfig::apache_like(),
        ServerConfig::flash_mp(),
        ServerConfig::flash_mt(),
        ServerConfig::flash_sped(),
        ServerConfig::flash(),
    ]
}

/// Runs one trace against the full line-up; each series holds a single
/// bar (x = 0).
fn bars(machine: &MachineConfig, trace_cfg: &TraceConfig, fig_id: &str, scale: Scale) -> Figure {
    let trace = Rc::new(Trace::generate(trace_cfg, 1999));
    let trace = match scale {
        Scale::Full => trace,
        Scale::Quick => Rc::new(Trace {
            specs: trace.specs.clone(),
            requests: trace.requests[..trace.requests.len() / 4].to_vec(),
        }),
    };
    let params = RunParams {
        warmup: SimTime::from_secs(1),
        window: match scale {
            Scale::Full => SimTime::from_secs(6),
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
            "{} trace on {} ({} MB dataset)",
            trace_cfg.name,
            machine.os.name,
            trace.dataset_bytes() / (1024 * 1024)
        ),
        "bar",
        "Bandwidth (Mb/s)",
    );
    for cfg in lineup() {
        let mut s = Series::new(cfg.name.clone());
        let (r, _) = run_one(machine, &cfg, &trace, &fleet, &params).expect("solaris lineup");
        s.points.push((0.0, r.bandwidth_mbps));
        fig.series.push(s);
    }
    fig
}

/// Figure 8, both panels: CS then Owlnet, on Solaris.
pub fn fig08(scale: Scale) -> Vec<Figure> {
    let machine = MachineConfig::solaris();
    let (cs_cfg, owl_cfg) = match scale {
        Scale::Full => (TraceConfig::cs(), TraceConfig::owlnet()),
        Scale::Quick => (
            TraceConfig {
                dataset_bytes: 60 * 1024 * 1024,
                n_requests: 60_000,
                ..TraceConfig::cs()
            },
            TraceConfig {
                dataset_bytes: 16 * 1024 * 1024,
                n_requests: 60_000,
                ..TraceConfig::owlnet()
            },
        ),
    };
    // Quick scale also shrinks the machine so CS stays disk-bound.
    let machine = match scale {
        Scale::Full => machine,
        Scale::Quick => {
            let mut m = machine;
            m.memory.total_bytes = 64 * 1024 * 1024;
            m
        }
    };
    vec![
        bars(&machine, &cs_cfg, "fig08-cs", scale),
        bars(&machine, &owl_cfg, "fig08-owlnet", scale),
    ]
}
