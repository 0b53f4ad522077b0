//! Failure injection: the system must degrade, not break, under memory
//! starvation, disk saturation, pathological clients and edge-case sites.

use std::rc::Rc;

use flash_repro::core::{deploy, ServerConfig, Site};
use flash_repro::experiments::{attach_fleet, run_one, ClientFleet, ConnMode, RunParams};
use flash_repro::simcore::SimTime;
use flash_repro::simos::{MachineConfig, Simulation};
use flash_repro::workload::{FileSpec, Trace, TraceConfig};

fn ece_small(seed: u64) -> Rc<Trace> {
    Rc::new(Trace::generate(
        &TraceConfig {
            dataset_bytes: 24 * 1024 * 1024,
            n_requests: 30_000,
            ..TraceConfig::ece()
        },
        seed,
    ))
}

#[test]
fn survives_tiny_memory() {
    // 12 MB of RAM leaves almost no page cache: heavily disk-bound but
    // the server must keep making progress.
    let mut machine = MachineConfig::freebsd();
    machine.memory.total_bytes = 12 * 1024 * 1024;
    machine.memory.kernel_bytes = 6 * 1024 * 1024;
    let fleet = ClientFleet {
        clients: 16,
        mode: ConnMode::PerRequest,
        ..ClientFleet::default()
    };
    let (r, _) = run_one(
        &machine,
        &ServerConfig::flash(),
        &ece_small(3),
        &fleet,
        &RunParams::default(),
    )
    .expect("deploy");
    assert!(r.requests_per_sec > 20.0, "no progress: {r:?}");
    assert!(r.disk_util > 0.5, "should be disk-bound: {r:?}");
}

#[test]
fn elevator_beats_fcfs_on_a_saturated_disk() {
    let fleet = ClientFleet {
        clients: 32,
        mode: ConnMode::PerRequest,
        ..ClientFleet::default()
    };
    let run = |elevator: bool| {
        let mut machine = MachineConfig::freebsd();
        machine.memory.total_bytes = 24 * 1024 * 1024;
        machine.disk.elevator = elevator;
        let (r, _) = run_one(
            &machine,
            &ServerConfig::flash(),
            &ece_small(4),
            &fleet,
            &RunParams::default(),
        )
        .expect("deploy");
        r.requests_per_sec
    };
    let clook = run(true);
    let fcfs = run(false);
    assert!(
        clook > fcfs,
        "C-LOOK ({clook:.0}/s) should beat FCFS ({fcfs:.0}/s) when disk-bound"
    );
}

#[test]
fn slow_wan_clients_do_not_stall_the_server() {
    // 128 modem-speed clients (56 kb/s): per-client transfers take
    // seconds, send buffers stay full, but throughput must simply track
    // the aggregate client capacity instead of collapsing.
    let trace = ece_small(5);
    let fleet = ClientFleet {
        clients: 128,
        mode: ConnMode::Persistent,
        link_bps: 56_000,
        rtt_ns: 80_000_000, // 80 ms
    };
    let params = RunParams {
        warmup: SimTime::from_secs(5),
        window: SimTime::from_secs(20),
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
    // Aggregate capacity is 128 × 56 kb/s ≈ 7.2 Mb/s; the server should
    // come close to saturating the clients and stay far from CPU limits.
    assert!(r.bandwidth_mbps > 3.0, "{r:?}");
    assert!(r.bandwidth_mbps < 8.0, "{r:?}");
    assert!(r.cpu_util < 0.2, "server nearly idle: {r:?}");
}

#[test]
fn zero_byte_and_single_byte_files_are_served() {
    let mut sim = Simulation::new(MachineConfig::freebsd());
    let specs = vec![
        FileSpec::file("/empty.html", 0),
        FileSpec::file("/one.html", 1),
    ];
    let site = Site::build(&mut sim.kernel, &specs);
    let server = deploy(&mut sim, &ServerConfig::flash(), site).expect("deploy");
    let trace = Rc::new(Trace {
        specs,
        requests: vec![0, 1],
    });
    attach_fleet(
        &mut sim,
        server.listen,
        trace,
        &ClientFleet {
            clients: 2,
            mode: ConnMode::PerRequest,
            ..ClientFleet::default()
        },
    );
    sim.run_until_guarded(SimTime::from_millis(500), 2_000_000);
    assert!(
        sim.kernel.metrics.requests.total() > 50,
        "tiny files must flow: {}",
        sim.kernel.metrics.requests.total()
    );
}

#[test]
fn huge_single_file_larger_than_memory_streams() {
    // A 200 MB file cannot be cached in 128 MB: every pass re-reads from
    // disk through the 64 KB chunk pipeline. One client, sequential.
    let mut sim = Simulation::new(MachineConfig::freebsd());
    let specs = vec![FileSpec::file("/huge.tar", 200 * 1024 * 1024)];
    let site = Site::build(&mut sim.kernel, &specs);
    let server = deploy(&mut sim, &ServerConfig::flash(), site).expect("deploy");
    let trace = Rc::new(Trace {
        specs,
        requests: vec![0],
    });
    attach_fleet(
        &mut sim,
        server.listen,
        trace,
        &ClientFleet {
            clients: 1,
            mode: ConnMode::PerRequest,
            ..ClientFleet::default()
        },
    );
    sim.run_until_guarded(SimTime::from_secs(30), 20_000_000);
    let bytes = sim.kernel.metrics.bytes_out.total();
    assert!(
        bytes > 100 * 1024 * 1024,
        "large transfer stalled at {bytes} bytes"
    );
    assert!(sim.kernel.disk.bytes_read > 100 * 1024 * 1024);
}

#[test]
fn overload_many_clients_small_machine_degrades_gracefully() {
    // 300 per-request clients against a small MP pool: the accept queue
    // absorbs the herd; throughput must stay positive and bounded.
    let trace = ece_small(6);
    let fleet = ClientFleet {
        clients: 300,
        mode: ConnMode::PerRequest,
        ..ClientFleet::default()
    };
    let (r, _) = run_one(
        &MachineConfig::solaris(),
        &ServerConfig::flash_mp(),
        &trace,
        &fleet,
        &RunParams::default(),
    )
    .expect("deploy");
    assert!(r.requests_per_sec > 100.0, "collapsed: {r:?}");
}
