//! Syscall result types shared between the kernel and server logic.
//!
//! Server logic (in `flash-core`) is written as a state machine: each
//! dispatch receives the [`Completion`] of its previous syscall, does some
//! CPU work, and issues at most one new syscall. This mirrors how the real
//! servers interleave work, and makes blocking explicit — the property the
//! whole paper is about.

use crate::ids::{ConnId, Fd, FileId, Pid, PipeId};

/// Whether a socket operation should block or return `WouldBlock`.
///
/// Note this flag is honoured only for *socket* operations. File reads and
/// `open`/`stat` always block on a miss, reproducing the OS behaviour that
/// motivates AMPED (§3.3: "non-blocking read operations on files may still
/// block the caller while disk I/O is in progress").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocking {
    /// Block the process until the operation can proceed.
    Yes,
    /// Return [`Completion::WouldBlock`] instead of blocking.
    No,
}

/// A small fixed-size message carried over a pipe (job descriptors and
/// completion notifications between the AMPED server and its helpers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipeMsg {
    /// Opcode, interpreted by the server logic.
    pub op: u32,
    /// First operand (typically a connection id).
    pub a: u64,
    /// Second operand (typically a file id or offset).
    pub b: u64,
    /// Third operand (typically a length).
    pub c: u64,
}

/// Result of the previous syscall, delivered at the next dispatch.
#[derive(Debug, Clone)]
pub enum Completion {
    /// First dispatch of a freshly spawned process.
    Start,
    /// A non-blocking operation had nothing to do.
    WouldBlock,
    /// `accept` returned a new connection.
    Accepted(ConnId),
    /// `read` on a connection returned `bytes` request bytes.
    ConnRead {
        /// Connection read from.
        conn: ConnId,
        /// Bytes consumed from the socket.
        bytes: u64,
        /// Request tokens whose bytes have fully arrived (workload-defined
        /// meaning, typically a file-set index).
        tokens: Vec<u64>,
    },
    /// A `writev` completed; the kernel accepted the given byte counts
    /// into the send buffer.
    Written {
        /// Connection written to.
        conn: ConnId,
        /// Header bytes accepted.
        hdr_bytes: u64,
        /// Body bytes accepted.
        body_bytes: u64,
    },
    /// `open`/`stat` finished (after any metadata disk reads).
    Stated {
        /// File that was looked up.
        file: FileId,
    },
    /// A file read / page-touch finished; the pages are now resident.
    FileRead {
        /// File read.
        file: FileId,
        /// Bytes covered.
        bytes: u64,
    },
    /// A pipe write completed.
    PipeSent,
    /// A pipe read returned a message.
    PipeMsg {
        /// Pipe the message arrived on.
        pipe: PipeId,
        /// The message.
        msg: PipeMsg,
    },
    /// `select` returned with ready descriptors.
    SelectReady(Vec<Fd>),
    /// A `sleep` timer fired.
    TimerFired,
    /// `fork` returned the child's pid (parent side only; the child is a
    /// fresh logic object and receives [`Completion::Start`]).
    Forked(Pid),
    /// A connection `close` finished.
    Closed(ConnId),
}

/// An operation suspended on disk I/O, re-evaluated by the kernel when the
/// disk read it waits on completes. Stored in the process table.
#[derive(Debug, Clone)]
pub enum PendingOp {
    /// `open`/`stat` waiting for a metadata page.
    Stat {
        /// File being looked up.
        file: FileId,
    },
    /// File read / page touch waiting for data pages.
    FileRead {
        /// File being read.
        file: FileId,
        /// First page of the requested range.
        first_page: u64,
        /// Page count of the requested range.
        npages: u64,
        /// Bytes represented (for the completion value).
        bytes: u64,
        /// Whether a user-space copy is performed on completion (read(2)
        /// semantics) as opposed to a pure page touch (mmap semantics).
        copy: bool,
    },
    /// A `writev` of file-backed data waiting for pages to fault in
    /// (this is how SPED stalls: the write blocks the whole process).
    Send {
        /// Connection being written.
        conn: ConnId,
        /// Source file.
        file: FileId,
        /// Header bytes in this writev.
        hdr_bytes: u64,
        /// Body bytes accepted into the send buffer.
        body_bytes: u64,
        /// First page of the accepted body range.
        first_page: u64,
        /// Page count of the accepted body range.
        npages: u64,
        /// Whether the header was alignment-padded (§5.5).
        aligned: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_msg_is_copy_and_default() {
        let m = PipeMsg {
            op: 1,
            a: 2,
            b: 3,
            c: 4,
        };
        let n = m; // Copy
        assert_eq!(m, n);
        assert_eq!(PipeMsg::default().op, 0);
    }

    #[test]
    fn completion_is_cloneable_for_requeue() {
        let c = Completion::SelectReady(vec![Fd::ConnRead(ConnId(3))]);
        let d = c.clone();
        match d {
            Completion::SelectReady(v) => assert_eq!(v.len(), 1),
            _ => panic!("clone changed variant"),
        }
    }
}
