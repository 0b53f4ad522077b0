//! The simulation driver: composes the kernel, server process logic and
//! external client agents, and runs the event loop.
//!
//! Server code implements [`ProcessLogic`]; client machines implement
//! [`Agent`]. Both are registered on a [`Simulation`], which then pumps
//! events until a deadline. Everything is single-threaded and
//! deterministic.

use flash_simcore::SimTime;

use crate::config::MachineConfig;
use crate::ids::{AgentId, Pid};
use crate::kernel::{AgentEvent, KEvent, Kernel};
use crate::proc::{Proc, ProcKind};
use crate::syscall::Completion;

/// Logic executed by a simulated server process.
///
/// `on_run` is called once per dispatch with the [`Completion`] of the
/// previous syscall. The logic may charge CPU via [`Kernel::cpu`] any
/// number of times and must finish by issuing exactly one `sys_*` call
/// (or [`Kernel::sys_exit`]).
pub trait ProcessLogic {
    /// One scheduler dispatch of this process.
    fn on_run(&mut self, pid: Pid, k: &mut Kernel, completion: Completion);
}

/// Logic executed by an external client machine (no server CPU charged).
pub trait Agent {
    /// Delivery of one agent event.
    fn on_event(&mut self, k: &mut Kernel, ev: AgentEvent);
}

/// Adapter turning a closure into [`ProcessLogic`] — convenient for tests
/// and small fixtures.
///
/// ```
/// use flash_simos::sim::FnLogic;
/// use flash_simos::{Blocking, Completion};
///
/// let logic = FnLogic::new(|_pid, k: &mut flash_simos::Kernel, _c: Completion| {
///     k.sys_sleep(1_000);
/// });
/// # let _ = logic;
/// ```
pub struct FnLogic<F>(F);

impl<F: FnMut(Pid, &mut Kernel, Completion)> FnLogic<F> {
    /// Wraps `f` as process logic.
    pub fn new(f: F) -> Self {
        FnLogic(f)
    }
}

impl<F: FnMut(Pid, &mut Kernel, Completion)> ProcessLogic for FnLogic<F> {
    fn on_run(&mut self, pid: Pid, k: &mut Kernel, completion: Completion) {
        (self.0)(pid, k, completion)
    }
}

/// A complete simulation: kernel + processes + agents.
pub struct Simulation {
    /// The simulated machine. Public so setup code can create files,
    /// listen sockets and pipes directly.
    pub kernel: Kernel,
    logics: Vec<Option<Box<dyn ProcessLogic>>>,
    agents: Vec<Option<Box<dyn Agent>>>,
}

impl Simulation {
    /// Creates a simulation of the given machine.
    pub fn new(cfg: MachineConfig) -> Self {
        Simulation {
            kernel: Kernel::new(cfg),
            logics: Vec::new(),
            agents: Vec::new(),
        }
    }

    /// Spawns a process running `logic`.
    ///
    /// `group` is the address-space group (`None` allocates a fresh one);
    /// threads should pass the group of their parent process. `mem_bytes`
    /// is the resident memory charged against the page cache.
    pub fn add_process(
        &mut self,
        kind: ProcKind,
        group: Option<u32>,
        mem_bytes: u64,
        label: impl Into<String>,
        logic: Box<dyn ProcessLogic>,
    ) -> Pid {
        let group = group.unwrap_or_else(|| self.kernel.new_group());
        let pid = self
            .kernel
            .spawn(Proc::new(kind, group, mem_bytes, label.into()));
        debug_assert_eq!(pid.0 as usize, self.logics.len());
        self.logics.push(Some(logic));
        pid
    }

    /// Registers an external agent. The constructor receives the new
    /// agent's id so it can address itself in kernel calls.
    pub fn add_agent<F>(&mut self, make: F) -> AgentId
    where
        F: FnOnce(AgentId) -> Box<dyn Agent>,
    {
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(Some(make(id)));
        id
    }

    /// Processes a single event. Returns `false` when the calendar is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some((_, ev)) = self.kernel.queue.pop() else {
            return false;
        };
        match ev {
            KEvent::Dispatch => {
                if let Some((pid, completion)) = self.kernel.begin_dispatch() {
                    let mut logic = self.logics[pid.0 as usize]
                        .take()
                        .expect("process logic re-entered");
                    logic.on_run(pid, &mut self.kernel, completion);
                    self.logics[pid.0 as usize] = Some(logic);
                    self.kernel.end_dispatch();
                }
            }
            KEvent::DiskDone => self.kernel.handle_disk_done(),
            KEvent::WireDelivered { conn, bytes } => self.kernel.handle_wire_delivered(conn, bytes),
            KEvent::InboundArrive { conn, bytes, token } => {
                self.kernel.handle_inbound(conn, bytes, token)
            }
            KEvent::SynArrive {
                listen,
                agent,
                client_bps,
                rtt_ns,
            } => self.kernel.handle_syn(listen, agent, client_bps, rtt_ns),
            KEvent::ProcTimer(pid) => self.kernel.handle_proc_timer(pid),
        }
        self.drain_agent_outbox();
        true
    }

    fn drain_agent_outbox(&mut self) {
        while let Some((aid, ev)) = self.kernel.agent_outbox.pop_front() {
            let mut agent = self.agents[aid.0 as usize]
                .take()
                .expect("agent re-entered");
            agent.on_event(&mut self.kernel, ev);
            self.agents[aid.0 as usize] = Some(agent);
        }
    }

    /// Runs until simulated time `deadline` (or the calendar empties).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.kernel.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
    }

    /// Runs until `deadline`, panicking if more than `max_events` are
    /// processed (a guard against event storms in tests).
    pub fn run_until_guarded(&mut self, deadline: SimTime, max_events: u64) {
        let start = self.kernel.queue.events_processed();
        while let Some(t) = self.kernel.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
            assert!(
                self.kernel.queue.events_processed() - start <= max_events,
                "event budget exceeded before {deadline:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PAGE_SIZE;
    use crate::ids::{ConnId, Fd, FileId, ListenId};
    use crate::kernel::SendSrc;
    use crate::syscall::Blocking;
    use flash_simcore::time::{MILLI, SEC};

    /// A trivial static-file server: accept, read request, send a fixed
    /// response from a file, close. Single process, blocking calls —
    /// essentially a 1-connection-at-a-time MP server.
    struct ToyServer {
        listen: ListenId,
        file: FileId,
        size: u64,
        state: Toy,
    }

    enum Toy {
        Accepting,
        Reading(ConnId),
        Sending { conn: ConnId, sent: u64 },
        Closing(#[allow(dead_code)] ConnId),
    }

    impl ProcessLogic for ToyServer {
        fn on_run(&mut self, _pid: Pid, k: &mut Kernel, c: Completion) {
            loop {
                match &mut self.state {
                    Toy::Accepting => {
                        if let Completion::Accepted(conn) = c {
                            self.state = Toy::Reading(conn);
                            k.sys_conn_read(conn, Blocking::Yes);
                        } else {
                            k.sys_accept(self.listen, Blocking::Yes);
                        }
                        return;
                    }
                    Toy::Reading(conn) => {
                        let conn = *conn;
                        if let Completion::ConnRead { bytes, .. } = c {
                            assert!(bytes > 0);
                            self.state = Toy::Sending { conn, sent: 0 };
                            continue;
                        }
                        unreachable!("blocking read must return data");
                    }
                    Toy::Sending { conn, sent } => {
                        let conn = *conn;
                        if let Completion::Written { body_bytes, .. } = c {
                            *sent += body_bytes;
                        }
                        if *sent >= self.size {
                            k.mark_response_boundary(conn);
                            self.state = Toy::Closing(conn);
                            k.sys_close(conn);
                        } else {
                            let sent = *sent;
                            k.sys_send(
                                conn,
                                0,
                                SendSrc::File {
                                    file: self.file,
                                    offset: sent,
                                    len: self.size - sent,
                                },
                                true,
                                Blocking::Yes,
                            );
                        }
                        return;
                    }
                    Toy::Closing(_) => {
                        self.state = Toy::Accepting;
                        k.sys_accept(self.listen, Blocking::Yes);
                        return;
                    }
                }
            }
        }
    }

    /// A client that opens a connection, sends one request, and counts
    /// completed responses, reconnecting forever.
    struct ToyClient {
        id: AgentId,
        listen: ListenId,
        done: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl Agent for ToyClient {
        fn on_event(&mut self, k: &mut Kernel, ev: AgentEvent) {
            match ev {
                AgentEvent::Connected(conn) => k.agent_send(conn, 300, 0),
                AgentEvent::ResponseComplete { .. } => {
                    self.done.set(self.done.get() + 1);
                }
                AgentEvent::Closed(_) => {
                    k.agent_connect(self.id, self.listen, 100_000_000, 200_000);
                }
                AgentEvent::Data { .. } => {}
            }
        }
    }

    fn toy_setup(file_kb: u64) -> (Simulation, std::rc::Rc<std::cell::Cell<u64>>) {
        let mut sim = Simulation::new(MachineConfig::freebsd());
        let listen = sim.kernel.add_listen();
        let file = sim.kernel.fs.create(file_kb * 1024, 2);
        let size = file_kb * 1024;
        sim.add_process(
            ProcKind::Process,
            None,
            1024 * 1024,
            "toy-server",
            Box::new(ToyServer {
                listen,
                file,
                size,
                state: Toy::Accepting,
            }),
        );
        let done = std::rc::Rc::new(std::cell::Cell::new(0));
        let d2 = done.clone();
        let id = sim.add_agent(move |id| {
            Box::new(ToyClient {
                id,
                listen,
                done: d2,
            })
        });
        sim.kernel.agent_connect(id, listen, 100_000_000, 200_000);
        (sim, done)
    }

    #[test]
    fn end_to_end_request_flow() {
        let (mut sim, done) = toy_setup(8);
        sim.run_until_guarded(SimTime::from_secs(1), 2_000_000);
        assert!(
            done.get() > 100,
            "expected many completed requests, got {}",
            done.get()
        );
        assert_eq!(sim.kernel.metrics.requests.total(), done.get());
        // Each 8 KB response body should have produced >= body bytes.
        assert!(sim.kernel.metrics.bytes_out.total() >= done.get() * 8 * 1024);
    }

    #[test]
    fn first_request_faults_from_disk_then_caches() {
        let (mut sim, done) = toy_setup(64);
        sim.run_until(SimTime::from_millis(200));
        assert!(done.get() > 1);
        // 64 KB = 16 pages: one clustered read for the data (plus one for
        // metadata would be issued by stat; the toy server skips stat).
        assert!(sim.kernel.metrics.disk_reads.total() >= 1);
        assert!(sim.kernel.disk.bytes_read >= 16 * PAGE_SIZE);
        // After the first fetch the file is cached: disk reads must not
        // scale with request count.
        let reads_early = sim.kernel.metrics.disk_reads.total();
        sim.run_until(SimTime::from_millis(400));
        assert_eq!(sim.kernel.metrics.disk_reads.total(), reads_early);
    }

    #[test]
    fn throughput_is_cpu_plausible() {
        let (mut sim, done) = toy_setup(1);
        sim.kernel.metrics.open_window(sim.kernel.now());
        sim.run_until(SimTime::from_secs(2));
        let rate = done.get() as f64 / 2.0;
        // A single-process blocking server on the FreeBSD profile should
        // push at least several hundred small requests per second but
        // can't beat the fixed-path cost bound (~3.5k/s).
        assert!(rate > 300.0, "rate {rate}");
        assert!(rate < 6_000.0, "rate {rate}");
    }

    #[test]
    fn select_wakes_on_listen_readiness() {
        // A SPED-style accept loop: select on the listen socket, accept,
        // then close immediately.
        struct SelectServer {
            listen: ListenId,
            accepted: std::rc::Rc<std::cell::Cell<u64>>,
        }
        impl ProcessLogic for SelectServer {
            fn on_run(&mut self, _pid: Pid, k: &mut Kernel, c: Completion) {
                match c {
                    Completion::SelectReady(ready) => {
                        assert!(ready.contains(&Fd::Listen(self.listen)));
                        k.sys_accept(self.listen, Blocking::No);
                    }
                    Completion::Accepted(conn) => {
                        self.accepted.set(self.accepted.get() + 1);
                        k.sys_close(conn);
                    }
                    _ => k.sys_select(vec![Fd::Listen(self.listen)]),
                }
            }
        }
        struct OneShot {
            id: AgentId,
            listen: ListenId,
            tries: u32,
        }
        impl Agent for OneShot {
            fn on_event(&mut self, k: &mut Kernel, ev: AgentEvent) {
                if let AgentEvent::Closed(_) = ev {
                    if self.tries > 0 {
                        self.tries -= 1;
                        k.agent_connect(self.id, self.listen, 100_000_000, 200_000);
                    }
                }
            }
        }
        let mut sim = Simulation::new(MachineConfig::freebsd());
        let listen = sim.kernel.add_listen();
        let accepted = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.add_process(
            ProcKind::Process,
            None,
            0,
            "select-server",
            Box::new(SelectServer {
                listen,
                accepted: accepted.clone(),
            }),
        );
        let id = sim.add_agent(|id| {
            Box::new(OneShot {
                id,
                listen,
                tries: 9,
            })
        });
        sim.kernel.agent_connect(id, listen, 100_000_000, 200_000);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(accepted.get(), 10);
        assert!(sim.kernel.metrics.select_calls.total() >= 10);
    }

    #[test]
    fn slow_client_holds_data_in_sendbuf() {
        // One 64 KB response to a 1 Mb/s client takes ~0.5s on the wire;
        // with a 100 Mb/s client it takes ~6ms. Compare completion times.
        let time_to_done = |bps: u64| {
            let mut sim = Simulation::new(MachineConfig::freebsd());
            let listen = sim.kernel.add_listen();
            let file = sim.kernel.fs.create(64 * 1024, 2);
            sim.add_process(
                ProcKind::Process,
                None,
                0,
                "server",
                Box::new(ToyServer {
                    listen,
                    file,
                    size: 64 * 1024,
                    state: Toy::Accepting,
                }),
            );
            let done = std::rc::Rc::new(std::cell::Cell::new(0u64));
            let d = done.clone();
            struct Once {
                done: std::rc::Rc<std::cell::Cell<u64>>,
            }
            impl Agent for Once {
                fn on_event(&mut self, k: &mut Kernel, ev: AgentEvent) {
                    match ev {
                        AgentEvent::Connected(conn) => k.agent_send(conn, 300, 0),
                        AgentEvent::ResponseComplete { .. } => self.done.set(self.done.get() + 1),
                        _ => {}
                    }
                }
            }
            let id = sim.add_agent(move |_| Box::new(Once { done: d }));
            sim.kernel.agent_connect(id, listen, bps, 200_000);
            let mut t = SimTime::ZERO;
            while done.get() == 0 {
                assert!(sim.step(), "simulation stalled");
                t = sim.kernel.now();
                assert!(t < SimTime::from_secs(10));
            }
            t
        };
        let fast = time_to_done(100_000_000);
        let slow = time_to_done(1_000_000);
        // The fast case still pays the initial ~10 ms disk fetch, so the
        // ratio is bounded by that, not by the 100x link-rate ratio.
        assert!(
            slow.as_nanos() > 20 * fast.as_nanos(),
            "slow {slow}, fast {fast}"
        );
        assert!(slow > SimTime::from_millis(400));
    }

    #[test]
    fn cpu_busy_time_tracks_dispatches() {
        let (mut sim, _) = toy_setup(1);
        sim.kernel.metrics.open_window(sim.kernel.now());
        sim.run_until(SimTime::from_secs(1));
        let busy = sim.kernel.metrics.cpu_busy_ns;
        assert!(busy > 100 * MILLI, "busy {busy}");
        assert!(busy <= SEC + MILLI, "busy {busy}");
    }
}
