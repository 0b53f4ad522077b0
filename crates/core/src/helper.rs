//! AMPED helper processes and the pipe protocol they speak (§3.4, §5.1).
//!
//! Helpers are separate processes (chosen over kernel threads for
//! portability, §5.1) that perform the operations that may block on disk:
//! pathname translation (`stat`) and bringing file pages into memory
//! (touching an `mmap`'d range). They wait synchronously on a job pipe,
//! handle one job at a time, and return only a *completion notification* —
//! never data — over a shared done-pipe, minimizing IPC (§5.1).

use flash_simos::kernel::Kernel;
use flash_simos::syscall::{Blocking, Completion, PipeMsg};
use flash_simos::{FileId, Pid, PipeId, ProcessLogic};

/// Job: translate a pathname (helper performs `stat`).
pub const OP_TRANSLATE: u32 = 1;
/// Job: read a file chunk into the page cache (helper touches pages).
pub const OP_CHUNK: u32 = 2;
/// Notification: translation finished.
pub const OP_TRANSLATE_DONE: u32 = 11;
/// Notification: chunk read finished.
pub const OP_CHUNK_DONE: u32 = 12;

/// Packs a helper slot index and connection id into the `a`
/// operand so completions identify both.
pub fn pack_a(slot: usize, conn: u32) -> u64 {
    ((slot as u64) << 40) | conn as u64
}

/// Inverse of [`pack_a`].
pub fn unpack_a(a: u64) -> (usize, u32) {
    ((a >> 40) as usize, (a & 0xFFFF_FFFF) as u32)
}

/// Packs a byte offset (< 2^43) and length (< 2^21) into the `c` operand.
pub fn pack_c(offset: u64, len: u64) -> u64 {
    debug_assert!(len < (1 << 21));
    (offset << 21) | len
}

/// Inverse of [`pack_c`].
pub fn unpack_c(c: u64) -> (u64, u64) {
    (c >> 21, c & ((1 << 21) - 1))
}

/// The logic of one helper process.
pub struct HelperLogic {
    job_pipe: PipeId,
    done_pipe: PipeId,
    current: Option<PipeMsg>,
}

impl HelperLogic {
    /// Creates a helper reading jobs from `job_pipe` and acknowledging on
    /// `done_pipe`.
    pub fn new(job_pipe: PipeId, done_pipe: PipeId) -> Self {
        HelperLogic {
            job_pipe,
            done_pipe,
            current: None,
        }
    }
}

impl ProcessLogic for HelperLogic {
    fn on_run(&mut self, _pid: Pid, k: &mut Kernel, completion: Completion) {
        match completion {
            // Idle (startup or just acknowledged): wait for the next job.
            Completion::Start | Completion::PipeSent => {
                k.sys_pipe_recv(self.job_pipe, Blocking::Yes);
            }
            // A job arrived: perform the potentially blocking operation.
            Completion::PipeMsg { msg, .. } => {
                self.current = Some(msg);
                match msg.op {
                    OP_TRANSLATE => k.sys_stat(FileId(msg.b as u32)),
                    OP_CHUNK => {
                        let (offset, len) = unpack_c(msg.c);
                        // Touch pages only (no copy): the server transmits
                        // straight from the shared mapping (§3.4).
                        k.sys_file_read(FileId(msg.b as u32), offset, len, false);
                    }
                    other => panic!("helper received unknown op {other}"),
                }
            }
            // Blocking operation finished: notify the server.
            Completion::Stated { .. } => {
                let job = self.current.take().expect("completion without a job");
                k.sys_pipe_send(
                    self.done_pipe,
                    PipeMsg {
                        op: OP_TRANSLATE_DONE,
                        ..job
                    },
                );
            }
            Completion::FileRead { .. } => {
                let job = self.current.take().expect("completion without a job");
                k.sys_pipe_send(
                    self.done_pipe,
                    PipeMsg {
                        op: OP_CHUNK_DONE,
                        ..job
                    },
                );
            }
            other => panic!("helper got unexpected completion {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_round_trips() {
        for (slot, conn) in [(0usize, 0u32), (7, 12345), (255, u32::MAX)] {
            assert_eq!(unpack_a(pack_a(slot, conn)), (slot, conn));
        }
    }

    #[test]
    fn pack_c_round_trips() {
        for (off, len) in [
            (0u64, 0u64),
            (150 * 1024 * 1024, 65536),
            (1 << 40, (1 << 21) - 1),
        ] {
            assert_eq!(unpack_c(pack_c(off, len)), (off, len));
        }
    }
}
