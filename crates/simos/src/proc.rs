//! Process and thread table.
//!
//! Processes are the schedulable entities: full processes (own address
//! space), kernel threads (shared address space, cheaper switches), and
//! the helper processes AMPED spawns. Each entry tracks its scheduler
//! state, resident memory (which competes with the page cache), and the
//! completion value to deliver at its next dispatch.

use flash_simcore::time::Nanos;

use crate::ids::{ConnId, Fd, Pid, PipeId};
use crate::syscall::{Completion, PendingOp};

/// What kind of schedulable entity this is (affects switch cost and
/// memory accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcKind {
    /// A full process with its own address space.
    Process,
    /// A kernel thread sharing an address space with its group.
    Thread,
}

/// Scheduler state of a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcState {
    /// On the run queue or currently executing.
    Runnable,
    /// Waiting for a connection to arrive on a listen socket.
    BlockedAccept,
    /// Waiting for request bytes on a connection.
    BlockedConnRead(ConnId),
    /// Waiting for send-buffer space on a connection.
    BlockedConnWrite(ConnId),
    /// Waiting for a message on a pipe.
    BlockedPipe(PipeId),
    /// Waiting for a disk read (page fault, `open`/`stat` metadata, ...).
    BlockedDisk,
    /// Waiting in `select` for any registered fd to become ready.
    BlockedSelect,
    /// Waiting for a timer.
    Sleeping,
    /// Exited; never scheduled again.
    Exited,
}

/// One process-table entry.
#[derive(Debug)]
pub struct Proc {
    /// Kind (process or thread).
    pub kind: ProcKind,
    /// Address-space group: threads of one process share a group, and
    /// switches within a group cost `thread_switch_ns` instead of
    /// `ctx_switch_ns`.
    pub group: u32,
    /// Resident memory charged against the page cache.
    pub mem_bytes: u64,
    /// Scheduler state.
    pub state: ProcState,
    /// Completion to deliver at the next dispatch.
    pub completion: Option<Completion>,
    /// CPU cost to charge at the next dispatch (e.g. the copy cost of a
    /// write that completed after a page fault).
    pub pending_charge: Nanos,
    /// The operation to re-evaluate when a disk read this process waits
    /// on completes.
    pub pending_op: Option<PendingOp>,
    /// Select interest set (only while in `BlockedSelect`).
    pub select_interest: Vec<Fd>,
    /// Debug label ("flash-main", "helper-3", "mp-17").
    pub label: String,
}

impl Proc {
    /// Creates a runnable entry with an initial `Start` completion.
    pub fn new(kind: ProcKind, group: u32, mem_bytes: u64, label: String) -> Self {
        Proc {
            kind,
            group,
            mem_bytes,
            state: ProcState::Runnable,
            completion: Some(Completion::Start),
            pending_charge: 0,
            pending_op: None,
            select_interest: Vec::new(),
            label,
        }
    }
}

/// The process table.
#[derive(Debug, Default)]
pub struct ProcTable {
    entries: Vec<Proc>,
}

impl ProcTable {
    /// Adds an entry, returning its pid.
    pub fn add(&mut self, p: Proc) -> Pid {
        self.entries.push(p);
        Pid(self.entries.len() as u32 - 1)
    }

    /// Immutable access.
    pub fn get(&self, pid: Pid) -> &Proc {
        &self.entries[pid.0 as usize]
    }

    /// Mutable access.
    pub fn get_mut(&mut self, pid: Pid) -> &mut Proc {
        &mut self.entries[pid.0 as usize]
    }

    /// Number of entries (including exited ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total resident memory of all live processes, counting each thread
    /// group's address space once plus per-thread stack.
    pub fn resident_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter(|p| p.state != ProcState::Exited)
            .map(|p| p.mem_bytes)
            .sum()
    }

    /// Iterates over live pids.
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, p)| p.state != ProcState::Exited)
            .map(|(i, _)| Pid(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_access() {
        let mut t = ProcTable::default();
        let a = t.add(Proc::new(ProcKind::Process, 0, 1_000_000, "a".into()));
        let b = t.add(Proc::new(ProcKind::Thread, 1, 65_536, "b".into()));
        assert_eq!(a, Pid(0));
        assert_eq!(b, Pid(1));
        assert_eq!(t.get(a).label, "a");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resident_memory_excludes_exited() {
        let mut t = ProcTable::default();
        let a = t.add(Proc::new(ProcKind::Process, 0, 1_000_000, "a".into()));
        t.add(Proc::new(ProcKind::Process, 1, 500_000, "b".into()));
        assert_eq!(t.resident_bytes(), 1_500_000);
        t.get_mut(a).state = ProcState::Exited;
        assert_eq!(t.resident_bytes(), 500_000);
        assert_eq!(t.pids().count(), 1);
    }

    #[test]
    fn new_entries_start_runnable_with_start_completion() {
        let p = Proc::new(ProcKind::Process, 0, 0, "x".into());
        assert_eq!(p.state, ProcState::Runnable);
        assert!(matches!(p.completion, Some(Completion::Start)));
        assert_eq!(p.pending_charge, 0);
    }
}
