//! Deploying a configured server into a simulation.
//!
//! [`deploy`] spawns the processes/threads/helpers a [`ServerConfig`]
//! describes and returns a [`ServerHandle`] with the listen socket and
//! cache handles (for stats inspection). It fails with
//! [`DeployError::NoKernelThreads`] when an MT server is deployed on an
//! OS profile without kernel-thread support — FreeBSD 2.2.6 in the paper,
//! which is why Figure 9 has no MT line.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use flash_simos::proc::ProcKind;
use flash_simos::{ListenId, Pid, Simulation};

use crate::caches::Caches;
use crate::config::{Architecture, ServerConfig};
use crate::eventloop::EventLoopServer;
use crate::helper::HelperLogic;
use crate::seq::SeqWorker;
use crate::site::Site;

/// Why a deployment failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The OS profile has no kernel threads (MT requires them, §3.2).
    NoKernelThreads,
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::NoKernelThreads => {
                f.write_str("MT architecture requires kernel threads, which this OS lacks")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// A deployed server.
pub struct ServerHandle {
    /// Display name from the config.
    pub name: String,
    /// The socket clients connect to.
    pub listen: ListenId,
    /// Cache sets (one per MP worker / event process; a single shared set
    /// for MT and AMPED) for stats inspection after a run.
    pub caches: Vec<Rc<RefCell<Caches>>>,
    /// Pids of the main server processes (not helpers).
    pub server_pids: Vec<Pid>,
}

impl ServerHandle {
    /// Sums a statistic across all cache sets.
    pub fn total_stat(&self, f: impl Fn(&crate::caches::CacheStats) -> u64) -> u64 {
        self.caches.iter().map(|c| f(&c.borrow().stats)).sum()
    }
}

/// Estimated application memory of one cache set (pathname + header
/// entries; mapped chunks are page-cache pages and not double-counted).
fn cache_mem(cfg: &ServerConfig) -> u64 {
    cfg.path_cache_entries as u64 * 96 + cfg.header_cache_entries as u64 * 64
}

/// Spawns the server described by `cfg` into `sim`, serving `site`.
pub fn deploy(
    sim: &mut Simulation,
    cfg: &ServerConfig,
    site: Rc<Site>,
) -> Result<ServerHandle, DeployError> {
    let cfg = Rc::new(cfg.clone());
    let listen = sim.kernel.add_listen();
    let new_caches = || Rc::new(RefCell::new(Caches::build(&cfg)));
    let mut handle = ServerHandle {
        name: cfg.name.clone(),
        listen,
        caches: Vec::new(),
        server_pids: Vec::new(),
    };
    match cfg.arch {
        Architecture::Amped => {
            let caches = new_caches();
            let done_pipe = (cfg.helpers > 0).then(|| sim.kernel.add_pipe());
            let helper_pipes: Vec<_> = (0..cfg.helpers).map(|_| sim.kernel.add_pipe()).collect();
            let logic = EventLoopServer::new(
                Rc::clone(&cfg),
                Rc::clone(&site),
                listen,
                Rc::clone(&caches),
                helper_pipes.clone(),
                done_pipe,
            );
            let pid = sim.add_process(
                ProcKind::Process,
                None,
                cfg.main_mem + cache_mem(&cfg),
                format!("{}-main", cfg.name),
                Box::new(logic),
            );
            handle.server_pids.push(pid);
            handle.caches.push(caches);
            let done = done_pipe.expect("AMPED has helpers");
            for (i, job) in helper_pipes.into_iter().enumerate() {
                sim.add_process(
                    ProcKind::Process,
                    None,
                    cfg.helper_mem,
                    format!("{}-helper-{i}", cfg.name),
                    Box::new(HelperLogic::new(job, done)),
                );
            }
        }
        Architecture::Sped => {
            for w in 0..cfg.workers.max(1) {
                let caches = new_caches();
                let logic = EventLoopServer::new(
                    Rc::clone(&cfg),
                    Rc::clone(&site),
                    listen,
                    Rc::clone(&caches),
                    Vec::new(),
                    None,
                );
                let pid = sim.add_process(
                    ProcKind::Process,
                    None,
                    cfg.main_mem + cache_mem(&cfg),
                    format!("{}-sped-{w}", cfg.name),
                    Box::new(logic),
                );
                handle.server_pids.push(pid);
                handle.caches.push(caches);
            }
        }
        Architecture::Mp => {
            for w in 0..cfg.workers.max(1) {
                let caches = new_caches();
                // The first process carries the shared text/data footprint;
                // the rest add their private resident set.
                let mem = cfg.per_worker_mem + if w == 0 { cfg.main_mem } else { 0 };
                let logic = SeqWorker::new(
                    Rc::clone(&cfg),
                    Rc::clone(&site),
                    listen,
                    Rc::clone(&caches),
                );
                let pid = sim.add_process(
                    ProcKind::Process,
                    None,
                    mem + cache_mem(&cfg),
                    format!("{}-mp-{w}", cfg.name),
                    Box::new(logic),
                );
                handle.server_pids.push(pid);
                handle.caches.push(caches);
            }
        }
        Architecture::Mt => {
            if !sim.kernel.cfg.os.kernel_threads {
                return Err(DeployError::NoKernelThreads);
            }
            let caches = new_caches();
            let group = sim.kernel.new_group();
            for w in 0..cfg.workers.max(1) {
                let mem = cfg.per_worker_mem
                    + if w == 0 {
                        cfg.main_mem + cache_mem(&cfg)
                    } else {
                        0
                    };
                let logic = SeqWorker::new(
                    Rc::clone(&cfg),
                    Rc::clone(&site),
                    listen,
                    Rc::clone(&caches),
                );
                let pid = sim.add_process(
                    ProcKind::Thread,
                    Some(group),
                    mem,
                    format!("{}-mt-{w}", cfg.name),
                    Box::new(logic),
                );
                handle.server_pids.push(pid);
            }
            handle.caches.push(caches);
        }
    }
    Ok(handle)
}
