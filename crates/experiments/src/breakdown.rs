//! Figure 11: Flash performance breakdown.
//!
//! The single-file (cached) test on FreeBSD, run with all eight
//! combinations of Flash's three caching optimizations: pathname
//! translation, mapped files, and response headers. Expected shape: each
//! cache contributes; pathname caching contributes most (a miss costs a
//! helper round trip per request); with no caching the small-file
//! connection rate roughly halves.

use std::rc::Rc;

use flash_core::ServerConfig;
use flash_simcore::SimTime;
use flash_simos::MachineConfig;
use flash_workload::Trace;

use crate::client::{ClientFleet, ConnMode};
use crate::runner::{run_one, RunParams};
use crate::table::{Figure, Series};
use crate::Scale;

/// File sizes of the sweep (KB).
pub const SIZES_KB: &[u64] = &[1, 2, 5, 10, 15, 20];

/// The eight configurations, in the paper's legend order:
/// (label, pathname cache, mapped-file cache, response-header cache).
pub const COMBOS: &[(&str, bool, bool, bool)] = &[
    ("all (Flash)", true, true, true),
    ("path & mmap", true, true, false),
    ("path & resp", true, false, true),
    ("path only", true, false, false),
    ("mmap & resp", false, true, true),
    ("mmap only", false, true, false),
    ("resp only", false, false, true),
    ("no caching", false, false, false),
];

/// Builds the Flash config with the given caches enabled.
pub fn combo_config(path: bool, mmap: bool, resp: bool) -> ServerConfig {
    let mut cfg = ServerConfig::flash();
    if !path {
        cfg.path_cache_entries = 0;
    }
    if !mmap {
        cfg.mmap_cache_bytes = 0;
    }
    if !resp {
        cfg.header_cache_entries = 0;
    }
    cfg
}

/// Figure 11: connection rate vs file size for all eight combinations.
pub fn fig11(scale: Scale) -> Figure {
    let machine = MachineConfig::freebsd();
    let sizes: Vec<u64> = match scale {
        Scale::Full => SIZES_KB.to_vec(),
        Scale::Quick => vec![1, 10],
    };
    let combos: &[(&str, bool, bool, bool)] = match scale {
        Scale::Full => COMBOS,
        Scale::Quick => &[COMBOS[0], COMBOS[7]],
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
    let mut fig = Figure::new(
        "fig11",
        "Flash performance breakdown (FreeBSD, cached single file)",
        "File size (KB)",
        "Connection rate (req/s)",
    );
    for &(label, path, mmap, resp) in combos {
        let cfg = combo_config(path, mmap, resp);
        let mut s = Series::new(label);
        for &kb in &sizes {
            let trace = Rc::new(Trace::single_file(kb * 1024));
            let (r, _) = run_one(&machine, &cfg, &trace, &fleet, &params).expect("flash");
            s.points.push((kb as f64, r.requests_per_sec));
        }
        fig.series.push(s);
    }
    fig
}
