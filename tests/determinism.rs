//! Reproducibility: a simulation is a pure function of its seed — the
//! modelled servers of `flash_core`, and the shipped shard loop run
//! over `flash_net::sim`'s simulated kernel.

use std::rc::Rc;

use flash_repro::core::ServerConfig;
use flash_repro::experiments::{run_one, RunParams};
use flash_repro::net::sim::{self, FaultPlan, SimConfig};
use flash_repro::simcore::SimRng;
use flash_repro::simos::MachineConfig;
use flash_repro::workload::sitegen::{generate_files, SizeDist};
use flash_repro::workload::{ClientFleet, ConnMode, Trace, TraceConfig};

fn run(seed: u64) -> (f64, f64, u64) {
    let trace = Rc::new(Trace::generate(
        &TraceConfig {
            dataset_bytes: 3 * 1024 * 1024,
            n_requests: 10_000,
            ..TraceConfig::ece()
        },
        seed,
    ));
    let fleet = ClientFleet {
        clients: 12,
        mode: ConnMode::PerRequest,
        ..ClientFleet::default()
    };
    let (r, _) = run_one(
        &MachineConfig::freebsd(),
        &ServerConfig::flash(),
        &trace,
        &fleet,
        &RunParams::default(),
    )
    .expect("deploy");
    (r.bandwidth_mbps, r.requests_per_sec, r.disk_reads)
}

#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    let a = run(77);
    let b = run(77);
    assert_eq!(a.0.to_bits(), b.0.to_bits(), "bandwidth must be identical");
    assert_eq!(a.1.to_bits(), b.1.to_bits(), "rate must be identical");
    assert_eq!(a.2, b.2, "disk reads must be identical");
}

#[test]
fn different_seeds_vary_but_agree_qualitatively() {
    let a = run(1);
    let b = run(2);
    // Different traces: numbers differ...
    assert_ne!(a.0.to_bits(), b.0.to_bits());
    // ...but the workload class is the same, so within 2x of each other.
    let ratio = a.0 / b.0;
    assert!(
        ratio > 0.5 && ratio < 2.0,
        "seeds too divergent: {a:?} vs {b:?}"
    );
}

/// The shipped shard loop, without a socket: a short replay under the
/// CI fault mix, invariants checked after every loop turn, is the same
/// report twice.
#[test]
fn the_shipped_shard_loop_replays_bit_for_bit() {
    let dist = SizeDist {
        body_median: 2_000.0,
        body_sigma: 1.0,
        tail_fraction: 0.03,
        tail_scale: 20_000.0,
        tail_alpha: 1.3,
        max_bytes: 128 * 1024,
    };
    let site = generate_files(&mut SimRng::new(5), 256 * 1024, &dist);
    let mut cfg = SimConfig::new(8, 600);
    cfg.faults = FaultPlan::heavy();
    cfg.check_every = 1;
    let a = sim::run(&cfg, &site).expect("invariants hold");
    let b = sim::run(&cfg, &site).expect("invariants hold");
    assert_eq!(a, b, "same seed, same report");
    assert_eq!(a.connections, 600);
    assert!(a.requests > 0 && a.dynamic_requests > 0, "{a:?}");
}
