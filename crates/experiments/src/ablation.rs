//! Ablation studies for the paper's design choices.
//!
//! These go beyond the paper's figures and probe *why* the design works:
//!
//! * [`helper_pool_sweep`] — §6.2's claim that "Flash only needs enough
//!   helper processes to keep the disk busy": throughput vs pool size on
//!   a disk-bound workload should saturate quickly.
//! * [`alignment_ablation`] — what §5.5 byte-position alignment is worth
//!   on its own (Flash with padded vs unpadded headers).
//! * [`disk_scheduler_ablation`] — C-LOOK vs FCFS under AMPED's
//!   concurrent disk requests (§4.1 "disk head scheduling").
//! * [`residency_policy`] — `mincore` (§5.7) vs the mapped-cache
//!   prediction heuristic (the paper's proposed fallback) vs no check at
//!   all (SPED), cached and disk-bound.

use std::rc::Rc;

use flash_core::ServerConfig;
use flash_simcore::SimTime;
use flash_simos::MachineConfig;
use flash_workload::{Trace, TraceConfig};

use crate::client::{ClientFleet, ConnMode};
use crate::runner::{run_one, RunParams};
use crate::table::{Figure, Series};
use crate::Scale;

fn disk_bound_trace(seed: u64) -> Rc<Trace> {
    let base = Trace::generate(&TraceConfig::ece(), seed);
    Rc::new(base.truncate_to_dataset(150 * 1024 * 1024))
}

fn cached_trace(seed: u64) -> Rc<Trace> {
    let base = Trace::generate(&TraceConfig::ece(), seed);
    Rc::new(base.truncate_to_dataset(30 * 1024 * 1024))
}

fn params(scale: Scale) -> RunParams {
    RunParams {
        warmup: SimTime::from_secs(1),
        window: match scale {
            Scale::Full => SimTime::from_secs(5),
            Scale::Quick => SimTime::from_secs(2),
        },
        prewarm_cache: true,
    }
}

fn fleet() -> ClientFleet {
    ClientFleet {
        clients: 64,
        mode: ConnMode::PerRequest,
        ..ClientFleet::default()
    }
}

/// Throughput vs helper-pool size, disk-bound (FreeBSD, ECE 150 MB).
pub fn helper_pool_sweep(scale: Scale) -> Figure {
    let machine = MachineConfig::freebsd();
    let trace = disk_bound_trace(2026);
    let pools: Vec<usize> = match scale {
        Scale::Full => vec![1, 2, 4, 8, 16, 32, 64],
        Scale::Quick => vec![1, 8, 32],
    };
    let mut fig = Figure::new(
        "ablation-helpers",
        "Flash throughput vs helper-pool size (disk-bound)",
        "Helper processes",
        "Bandwidth (Mb/s)",
    );
    let mut s = Series::new("Flash");
    for &h in &pools {
        let cfg = ServerConfig {
            helpers: h,
            ..ServerConfig::flash()
        };
        let (r, _) = run_one(&machine, &cfg, &trace, &fleet(), &params(scale)).expect("flash");
        s.points.push((h as f64, r.bandwidth_mbps));
    }
    fig.series.push(s);
    fig
}

/// Connection rate with and without §5.5 header alignment padding.
pub fn alignment_ablation(scale: Scale) -> Figure {
    let machine = MachineConfig::freebsd();
    let sizes: Vec<u64> = match scale {
        Scale::Full => vec![1, 5, 10, 20, 50, 100],
        Scale::Quick => vec![5, 50],
    };
    let mut fig = Figure::new(
        "ablation-alignment",
        "Byte-position alignment (§5.5): Flash with padded vs raw headers",
        "File size (KB)",
        "Connection rate (req/s)",
    );
    for (label, aligned) in [("aligned", true), ("misaligned", false)] {
        let cfg = ServerConfig {
            aligned_headers: aligned,
            ..ServerConfig::flash()
        };
        let mut s = Series::new(label);
        for &kb in &sizes {
            let trace = Rc::new(Trace::single_file(kb * 1024));
            let (r, _) = run_one(&machine, &cfg, &trace, &fleet(), &params(scale)).expect("flash");
            s.points.push((kb as f64, r.requests_per_sec));
        }
        fig.series.push(s);
    }
    fig
}

/// C-LOOK vs FCFS disk scheduling under Flash, disk-bound.
pub fn disk_scheduler_ablation(scale: Scale) -> Figure {
    let trace = disk_bound_trace(2027);
    let mut fig = Figure::new(
        "ablation-disk-sched",
        "Disk-head scheduling (§4.1): C-LOOK vs FCFS, Flash, disk-bound",
        "bar",
        "Bandwidth (Mb/s)",
    );
    for (label, elevator) in [("C-LOOK", true), ("FCFS", false)] {
        let mut machine = MachineConfig::freebsd();
        machine.disk.elevator = elevator;
        let (r, _) = run_one(
            &machine,
            &ServerConfig::flash(),
            &trace,
            &fleet(),
            &params(scale),
        )
        .expect("flash");
        let mut s = Series::new(label);
        s.points.push((0.0, r.bandwidth_mbps));
        fig.series.push(s);
    }
    fig
}

/// Residency policies (§5.7): kernel `mincore`, the mapped-cache
/// prediction heuristic, and no check at all (SPED), on a cached and a
/// disk-bound dataset.
pub fn residency_policy(scale: Scale) -> Figure {
    let machine = MachineConfig::freebsd();
    let mut fig = Figure::new(
        "ablation-residency",
        "Residency policy (§5.7): mincore vs heuristic vs none (x=dataset MB)",
        "Dataset size (MB)",
        "Bandwidth (Mb/s)",
    );
    let cases = [
        ("mincore (Flash)", ServerConfig::flash()),
        ("heuristic (§5.7)", ServerConfig::flash_heuristic()),
        ("none (SPED)", ServerConfig::flash_sped()),
    ];
    for (label, cfg) in cases {
        let mut s = Series::new(label);
        for (mb, trace) in [(30u64, cached_trace(2028)), (150, disk_bound_trace(2028))] {
            let (r, _) = run_one(&machine, &cfg, &trace, &fleet(), &params(scale)).expect("ok");
            s.points.push((mb as f64, r.bandwidth_mbps));
        }
        fig.series.push(s);
    }
    fig
}

/// All ablations.
pub fn all(scale: Scale) -> Vec<Figure> {
    vec![
        helper_pool_sweep(scale),
        alignment_ablation(scale),
        disk_scheduler_ablation(scale),
        residency_policy(scale),
    ]
}
