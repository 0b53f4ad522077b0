//! Replay clients: the event-driven load generator of §6.
//!
//! The paper's client tool simulates many HTTP clients, each issuing
//! requests "as fast as the server can handle them". `ReplayClient`
//! does the same against the simulated kernel: all clients share one
//! cursor into the request log (the aggregate request stream follows the
//! log order, as in the paper's replay methodology), reconnecting per
//! request in HTTP/1.0 style or reusing one persistent connection in the
//! §6.4 WAN experiment.

use std::cell::RefCell;
use std::rc::Rc;

use flash_core::KEEP_ALIVE_BIT;
use flash_simcore::time::Nanos;
use flash_simcore::SimTime;
use flash_simos::kernel::{AgentEvent, Kernel};
use flash_simos::{Agent, AgentId, ConnId, ListenId};
use flash_workload::Trace;

/// Shared replay position in the request log.
type Cursor = Rc<RefCell<usize>>;

/// How clients use connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnMode {
    /// One request per connection (HTTP/1.0 benchmark style).
    PerRequest,
    /// One persistent connection per client (the §6.4 WAN experiment).
    Persistent,
}

/// One simulated client machine replaying the shared log.
struct ReplayClient {
    id: AgentId,
    listen: ListenId,
    trace: Rc<Trace>,
    cursor: Cursor,
    mode: ConnMode,
    link_bps: u64,
    rtt_ns: Nanos,
    sent_at: SimTime,
}

impl ReplayClient {
    fn next_token(&self) -> u64 {
        let mut cur = self.cursor.borrow_mut();
        let t = self.trace.requests[*cur % self.trace.requests.len()];
        *cur += 1;
        t
    }

    fn send_request(&mut self, k: &mut Kernel, conn: ConnId) {
        let mut token = self.next_token();
        let bytes = 140 + self.trace.specs[token as usize].path.len() as u64;
        if self.mode == ConnMode::Persistent {
            token |= KEEP_ALIVE_BIT;
        }
        self.sent_at = k.now();
        k.agent_send(conn, bytes, token);
    }

    fn reconnect(&self, k: &mut Kernel) {
        k.agent_connect(self.id, self.listen, self.link_bps, self.rtt_ns);
    }
}

impl Agent for ReplayClient {
    fn on_event(&mut self, k: &mut Kernel, ev: AgentEvent) {
        match ev {
            AgentEvent::Connected(conn) => self.send_request(k, conn),
            AgentEvent::ResponseComplete { conn } => {
                let latency = k.now().since(self.sent_at);
                k.metrics.response_latency.record(latency);
                if self.mode == ConnMode::Persistent {
                    self.send_request(k, conn);
                }
            }
            AgentEvent::Closed(_) => {
                if self.mode == ConnMode::PerRequest {
                    self.reconnect(k);
                }
            }
            AgentEvent::Data { .. } => {}
        }
    }
}

/// Client-fleet parameters.
#[derive(Debug, Clone)]
pub struct ClientFleet {
    /// Number of simulated clients.
    pub clients: usize,
    /// Connection mode.
    pub mode: ConnMode,
    /// Per-client link rate, bits/s (LAN: 100 Mb/s; WAN: much less).
    pub link_bps: u64,
    /// Client↔server round-trip time.
    pub rtt_ns: Nanos,
}

impl Default for ClientFleet {
    fn default() -> Self {
        ClientFleet {
            clients: 64,
            mode: ConnMode::PerRequest,
            link_bps: 100_000_000,
            rtt_ns: 200_000,
        }
    }
}

/// Attaches `fleet` clients replaying `trace` against `listen`, all
/// connecting at t=0. Returns the shared cursor (total requests issued).
pub fn attach_fleet(
    sim: &mut flash_simos::Simulation,
    listen: ListenId,
    trace: Rc<Trace>,
    fleet: &ClientFleet,
) -> Cursor {
    let cursor: Cursor = Rc::new(RefCell::new(0));
    for _ in 0..fleet.clients {
        let trace = Rc::clone(&trace);
        let cursor2 = Rc::clone(&cursor);
        let (mode, bps, rtt) = (fleet.mode, fleet.link_bps, fleet.rtt_ns);
        let id = sim.add_agent(move |id| {
            Box::new(ReplayClient {
                id,
                listen,
                trace,
                cursor: cursor2,
                mode,
                link_bps: bps,
                rtt_ns: rtt,
                sent_at: SimTime::ZERO,
            })
        });
        sim.kernel
            .agent_connect(id, listen, fleet.link_bps, fleet.rtt_ns);
    }
    cursor
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_core::{deploy, ServerConfig, Site};
    use flash_simos::{MachineConfig, Simulation};
    use flash_workload::TraceConfig;

    fn run(mode: ConnMode, secs: u64) -> (u64, f64) {
        let mut sim = Simulation::new(MachineConfig::freebsd());
        let trace = Rc::new(Trace::generate(
            &TraceConfig {
                dataset_bytes: 2 * 1024 * 1024,
                n_requests: 5_000,
                ..TraceConfig::owlnet()
            },
            9,
        ));
        let site = Site::build(&mut sim.kernel, &trace.specs);
        let server = deploy(&mut sim, &ServerConfig::flash(), site).expect("deploy");
        let fleet = ClientFleet {
            clients: 8,
            mode,
            ..ClientFleet::default()
        };
        attach_fleet(&mut sim, server.listen, trace, &fleet);
        sim.kernel.metrics.open_window(sim.kernel.now());
        sim.run_until(SimTime::from_secs(secs));
        let now = sim.kernel.now();
        (
            sim.kernel.metrics.requests.total(),
            sim.kernel.metrics.bandwidth_mbps(now),
        )
    }

    #[test]
    fn fleet_replays_against_flash() {
        let (reqs, mbps) = run(ConnMode::PerRequest, 2);
        assert!(reqs > 1_000, "only {reqs} requests");
        assert!(mbps > 5.0, "only {mbps} Mb/s");
    }

    #[test]
    fn persistent_mode_reuses_connections() {
        let mut sim = Simulation::new(MachineConfig::freebsd());
        let trace = Rc::new(Trace::single_file(4096));
        let site = Site::build(&mut sim.kernel, &trace.specs);
        let server = deploy(&mut sim, &ServerConfig::flash(), site).expect("deploy");
        let fleet = ClientFleet {
            clients: 5,
            mode: ConnMode::Persistent,
            ..ClientFleet::default()
        };
        attach_fleet(&mut sim, server.listen, trace, &fleet);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.kernel.metrics.conns_accepted.total(), 5);
        assert!(sim.kernel.metrics.requests.total() > 500);
    }

    #[test]
    fn latencies_are_recorded() {
        let mut sim = Simulation::new(MachineConfig::freebsd());
        let trace = Rc::new(Trace::single_file(8192));
        let site = Site::build(&mut sim.kernel, &trace.specs);
        let server = deploy(&mut sim, &ServerConfig::flash(), site).expect("deploy");
        attach_fleet(
            &mut sim,
            server.listen,
            trace,
            &ClientFleet {
                clients: 4,
                ..ClientFleet::default()
            },
        );
        sim.run_until(SimTime::from_millis(500));
        let h = &sim.kernel.metrics.response_latency;
        assert!(h.count() > 100);
        // Sub-millisecond floor (rtt + processing), sub-second ceiling.
        assert!(h.mean() > 100_000.0, "mean {}ns", h.mean());
        assert!(h.quantile(0.99) < 1_000_000_000, "p99 {}", h.quantile(0.99));
    }

    #[test]
    fn shared_cursor_follows_log_order() {
        let mut sim = Simulation::new(MachineConfig::freebsd());
        let trace = Rc::new(Trace::generate(
            &TraceConfig {
                dataset_bytes: 512 * 1024,
                n_requests: 100,
                ..TraceConfig::owlnet()
            },
            1,
        ));
        let site = Site::build(&mut sim.kernel, &trace.specs);
        let server = deploy(&mut sim, &ServerConfig::flash(), site).expect("deploy");
        let cursor = attach_fleet(
            &mut sim,
            server.listen,
            Rc::clone(&trace),
            &ClientFleet {
                clients: 3,
                ..ClientFleet::default()
            },
        );
        sim.run_until(SimTime::from_millis(300));
        let issued = *cursor.borrow();
        let completed = sim.kernel.metrics.requests.total() as usize;
        assert!(issued >= completed);
        assert!(
            issued <= completed + 3,
            "issued {issued} completed {completed}"
        );
    }
}
