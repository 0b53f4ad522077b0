//! Quickstart: deploy the Flash (AMPED) server in the simulator, replay a
//! small synthetic workload against it, and print what happened.
//!
//! Run with: `cargo run --example quickstart`

use std::rc::Rc;

use flash_repro::core::{deploy, ServerConfig, Site};
use flash_repro::experiments::{attach_fleet, ClientFleet, ConnMode};
use flash_repro::simcore::SimTime;
use flash_repro::simos::{MachineConfig, Simulation};
use flash_repro::workload::{Trace, TraceConfig};

fn main() {
    // A machine like the paper's testbed (333 MHz P-II, 128 MB, FreeBSD).
    let mut sim = Simulation::new(MachineConfig::freebsd());

    // A small synthetic site: ~8 MB across a few hundred files, Zipf
    // popularity.
    let trace = Rc::new(Trace::generate(
        &TraceConfig {
            dataset_bytes: 8 * 1024 * 1024,
            n_requests: 50_000,
            ..TraceConfig::owlnet()
        },
        42,
    ));
    let site = Site::build(&mut sim.kernel, &trace.specs);
    println!(
        "site: {} files, {:.1} MB dataset",
        site.len(),
        site.dataset_bytes() as f64 / (1024.0 * 1024.0)
    );

    // Deploy Flash (the AMPED architecture with all §5 optimizations).
    let server = deploy(&mut sim, &ServerConfig::flash(), Rc::clone(&site)).unwrap();

    // 32 LAN clients issuing requests back-to-back.
    attach_fleet(
        &mut sim,
        server.listen,
        Rc::clone(&trace),
        &ClientFleet {
            clients: 32,
            mode: ConnMode::PerRequest,
            ..ClientFleet::default()
        },
    );

    // Warm up for one simulated second, then measure four.
    sim.run_until(SimTime::from_secs(1));
    sim.kernel.metrics.open_window(sim.kernel.now());
    sim.run_until(SimTime::from_secs(5));

    let now = sim.kernel.now();
    let m = &sim.kernel.metrics;
    println!("requests/s     : {:.0}", m.request_rate(now));
    println!("bandwidth      : {:.1} Mb/s", m.bandwidth_mbps(now));
    println!("mean latency   : {:.2} ms", m.response_latency.mean() / 1e6);
    println!("CPU utilization: {:.0}%", m.cpu_utilization(now) * 100.0);
    println!("disk reads     : {}", m.disk_reads.total());
    let stats = |f: fn(&flash_repro::core::CacheStats) -> u64| server.total_stat(f);
    println!(
        "caches         : path {}/{} hits, header {} hits, mmap {} hits",
        stats(|s| s.path_hits),
        stats(|s| s.path_hits + s.path_misses),
        stats(|s| s.header_hits),
        stats(|s| s.mmap_hits),
    );
    println!(
        "helpers        : {} jobs ({} cold reads deferred to helpers)",
        stats(|s| s.helper_jobs),
        stats(|s| s.mincore_missing),
    );
}
