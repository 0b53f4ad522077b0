//! End-to-end serving tests: every architecture from the shared code base
//! accepts connections, serves files, and exhibits its paper-documented
//! behaviour (helpers for AMPED, whole-process stalls for SPED, per-worker
//! isolation for MP/MT).

use std::cell::Cell;
use std::rc::Rc;

use flash_core::{deploy, ServerConfig, Site, KEEP_ALIVE_BIT};
use flash_simcore::SimTime;
use flash_simos::kernel::{AgentEvent, Kernel};
use flash_simos::{Agent, AgentId, ConnId, ListenId, MachineConfig, Simulation};
use flash_workload::FileSpec;

/// A benchmark client: requests tokens in sequence as fast as the server
/// answers. Non-persistent by default; persistent when `keep_alive`.
struct TestClient {
    id: AgentId,
    listen: ListenId,
    tokens: Vec<u64>,
    next: usize,
    keep_alive: bool,
    done: Rc<Cell<u64>>,
}

impl TestClient {
    fn send_next(&mut self, k: &mut Kernel, conn: ConnId) {
        let mut t = self.tokens[self.next % self.tokens.len()];
        self.next += 1;
        if self.keep_alive {
            t |= KEEP_ALIVE_BIT;
        }
        k.agent_send(conn, 200, t);
    }
}

impl Agent for TestClient {
    fn on_event(&mut self, k: &mut Kernel, ev: AgentEvent) {
        match ev {
            AgentEvent::Connected(conn) => self.send_next(k, conn),
            AgentEvent::ResponseComplete { conn } => {
                self.done.set(self.done.get() + 1);
                if self.keep_alive {
                    self.send_next(k, conn);
                }
            }
            AgentEvent::Closed(_) => {
                if !self.keep_alive {
                    k.agent_connect(self.id, self.listen, 100_000_000, 200_000);
                }
            }
            AgentEvent::Data { .. } => {}
        }
    }
}

fn attach_clients(
    sim: &mut Simulation,
    listen: ListenId,
    n: usize,
    tokens: Vec<u64>,
    keep_alive: bool,
) -> Rc<Cell<u64>> {
    let done = Rc::new(Cell::new(0u64));
    for i in 0..n {
        let d = Rc::clone(&done);
        let toks = tokens.clone();
        // Large stride declusters the clients' request streams; without
        // it all clients march through the same files in lockstep.
        let start = (i * 997) % toks.len().max(1);
        let id = sim.add_agent(move |id| {
            Box::new(TestClient {
                id,
                listen,
                tokens: toks,
                next: start,
                keep_alive,
                done: d,
            })
        });
        sim.kernel.agent_connect(id, listen, 100_000_000, 200_000);
    }
    done
}

fn small_site(sim: &mut Simulation) -> Rc<Site> {
    let specs: Vec<FileSpec> = (0..20)
        .map(|i| FileSpec::file(format!("/docs/page{i}.html"), 2048 + i * 1024))
        .collect();
    Site::build(&mut sim.kernel, &specs)
}

fn serve_count(cfg: &ServerConfig, machine: MachineConfig, secs: u64) -> u64 {
    let mut sim = Simulation::new(machine);
    let site = small_site(&mut sim);
    let server = deploy(&mut sim, cfg, site).expect("deploy");
    let done = attach_clients(&mut sim, server.listen, 8, (0..20).collect(), false);
    sim.run_until_guarded(SimTime::from_secs(secs), 40_000_000);
    // The server counts a response when its last writev completes; the
    // client counts on delivery. At the cutoff, up to one response per
    // client can be in flight between the two.
    let served = server.total_stat(|s| s.requests_done);
    assert!(
        served >= done.get() && served - done.get() <= 8,
        "server {served} vs clients {} completed responses",
        done.get()
    );
    done.get()
}

#[test]
fn flash_amped_serves_requests() {
    let n = serve_count(&ServerConfig::flash(), MachineConfig::freebsd(), 2);
    assert!(n > 1000, "Flash served only {n} requests in 2s");
}

#[test]
fn flash_sped_serves_requests() {
    let n = serve_count(&ServerConfig::flash_sped(), MachineConfig::freebsd(), 2);
    assert!(n > 1000, "SPED served only {n}");
}

#[test]
fn flash_mp_serves_requests() {
    let n = serve_count(&ServerConfig::flash_mp(), MachineConfig::freebsd(), 2);
    assert!(n > 1000, "MP served only {n}");
}

#[test]
fn flash_mt_serves_requests_on_solaris() {
    let n = serve_count(&ServerConfig::flash_mt(), MachineConfig::solaris(), 2);
    assert!(n > 400, "MT served only {n}");
}

#[test]
fn apache_like_serves_requests_slower_than_flash() {
    let apache = serve_count(&ServerConfig::apache_like(), MachineConfig::freebsd(), 2);
    let flash = serve_count(&ServerConfig::flash(), MachineConfig::freebsd(), 2);
    assert!(apache > 500, "Apache served only {apache}");
    assert!(
        flash as f64 > apache as f64 * 1.3,
        "Flash ({flash}) should clearly beat Apache ({apache})"
    );
}

#[test]
fn zeus_like_serves_requests() {
    let n = serve_count(&ServerConfig::zeus_like(1), MachineConfig::freebsd(), 2);
    assert!(n > 1000, "Zeus served only {n}");
}

#[test]
fn mt_requires_kernel_threads() {
    let mut sim = Simulation::new(MachineConfig::freebsd());
    let site = small_site(&mut sim);
    let err = match deploy(&mut sim, &ServerConfig::flash_mt(), site) {
        Err(e) => e,
        Ok(_) => panic!("MT deploy must fail without kernel threads"),
    };
    assert_eq!(err, flash_core::DeployError::NoKernelThreads);
}

#[test]
fn amped_uses_helpers_for_cold_content() {
    let mut sim = Simulation::new(MachineConfig::freebsd());
    let site = small_site(&mut sim);
    let server = deploy(&mut sim, &ServerConfig::flash(), site).expect("deploy");
    let done = attach_clients(&mut sim, server.listen, 4, (0..20).collect(), false);
    sim.run_until(SimTime::from_millis(500));
    assert!(done.get() > 0);
    // Cold cache: translations and first reads must have gone to helpers.
    assert!(server.total_stat(|s| s.helper_jobs) >= 20 * 2 - 4);
    assert!(server.total_stat(|s| s.mincore_missing) >= 15);
    // Once warm, mincore mostly reports resident.
    assert!(server.total_stat(|s| s.mincore_resident) > server.total_stat(|s| s.mincore_missing));
}

#[test]
fn caches_hit_after_warmup() {
    let mut sim = Simulation::new(MachineConfig::freebsd());
    let site = small_site(&mut sim);
    let server = deploy(&mut sim, &ServerConfig::flash(), site).expect("deploy");
    let _ = attach_clients(&mut sim, server.listen, 4, (0..20).collect(), false);
    sim.run_until(SimTime::from_secs(1));
    let hits = server.total_stat(|s| s.path_hits);
    let misses = server.total_stat(|s| s.path_misses);
    // Cold misses can exceed the file count: several in-flight requests
    // for the same file can all miss before the first translation lands.
    assert!(misses <= 100, "expected only cold misses, got {misses}");
    assert!(hits > 20 * misses, "hits {hits} vs misses {misses}");
    assert!(server.total_stat(|s| s.header_hits) > 0);
    assert!(server.total_stat(|s| s.mmap_hits) > 0);
}

#[test]
fn persistent_connections_serve_many_requests_per_conn() {
    let mut sim = Simulation::new(MachineConfig::freebsd());
    let site = small_site(&mut sim);
    let server = deploy(&mut sim, &ServerConfig::flash(), site).expect("deploy");
    let done = attach_clients(&mut sim, server.listen, 4, (0..20).collect(), true);
    sim.run_until(SimTime::from_secs(1));
    assert!(done.get() > 500, "persistent clients got {}", done.get());
    // Only the initial 4 connections should ever have been accepted.
    assert_eq!(sim.kernel.metrics.conns_accepted.total(), 4);
}

#[test]
fn large_files_stream_in_chunks() {
    let mut sim = Simulation::new(MachineConfig::freebsd());
    let specs = vec![FileSpec::file("/big.tar", 1_500_000)];
    let site = Site::build(&mut sim.kernel, &specs);
    let server = deploy(&mut sim, &ServerConfig::flash(), site).expect("deploy");
    let done = attach_clients(&mut sim, server.listen, 2, vec![0], false);
    sim.run_until(SimTime::from_secs(2));
    assert!(done.get() >= 10, "only {} large responses", done.get());
    let bytes = sim.kernel.metrics.bytes_out.total();
    assert!(bytes >= done.get() * 1_500_000);
}

#[test]
fn sped_blocks_whole_server_on_disk_but_amped_does_not() {
    // Disk-bound comparison in the regime the paper evaluates: skewed
    // popularity, so most requests hit the cache but misses are steady.
    // Every SPED miss stalls the whole event loop (~9 ms) and with it all
    // the cache-hit requests it could have served; AMPED serves them
    // while helpers wait on the disk (§4.1).
    let run = |cfg: &ServerConfig| {
        let mut machine = MachineConfig::freebsd();
        machine.memory.total_bytes = 48 * 1024 * 1024; // shrink cache
        let mut sim = Simulation::new(machine);
        let specs: Vec<FileSpec> = (0..2000)
            .map(|i| FileSpec::file(format!("/data/f{i}.html"), 30_000))
            .collect(); // 60 MB dataset
        let site = Site::build(&mut sim.kernel, &specs);
        let server = deploy(&mut sim, cfg, site).expect("deploy");
        // 90% of requests target a hot 150-file (~4.5 MB) subset that
        // stays cached; 10% sweep the full 60 MB dataset.
        let tokens: Vec<u64> = (0..4000u64)
            .map(|i| {
                if i % 10 == 0 {
                    (i * 131) % 2000
                } else {
                    (i * 7) % 150
                }
            })
            .collect();
        let server_listen = server.listen;
        let done = attach_clients(&mut sim, server_listen, 16, tokens, false);
        sim.run_until(SimTime::from_secs(4));
        done.get()
    };
    let amped = run(&ServerConfig::flash());
    let sped = run(&ServerConfig::flash_sped());
    assert!(
        amped as f64 > sped as f64 * 1.2,
        "disk-bound: AMPED {amped} should beat SPED {sped}"
    );
}
