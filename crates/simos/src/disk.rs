//! Mechanical disk model with FCFS or C-LOOK scheduling.
//!
//! The disk serves one request at a time; service time is a seek (scaling
//! with the square root of the head travel distance, a standard seek-curve
//! approximation), average rotational delay, fixed overhead, and media
//! transfer time. Pending requests queue either FCFS or C-LOOK ("elevator").
//!
//! §4.1 of the paper ("Disk utilization") is directly about this model:
//! architectures that can keep multiple disk requests outstanding (MP, MT,
//! AMPED with several helpers) benefit from disk-head scheduling, while
//! SPED can only ever have one request in flight.

use flash_simcore::time::Nanos;

use crate::config::{DiskParams, PAGE_SIZE};
use crate::ids::{FileId, Pid};

/// One disk read request covering a contiguous page range of a file.
#[derive(Debug, Clone)]
pub struct DiskReq {
    /// File whose pages are being read.
    pub file: FileId,
    /// First page of the range.
    pub first_page: u64,
    /// Number of pages.
    pub npages: u64,
    /// First disk block of the range.
    pub start_block: u64,
    /// Processes to wake when the read completes. More than one when
    /// several processes faulted on the same pages (the kernel coalesces
    /// overlapping requests instead of reading the data twice).
    pub waiters: Vec<Pid>,
}

impl DiskReq {
    /// True if this request's page range fully covers `[first, first+n)`
    /// of `file`.
    pub fn covers(&self, file: FileId, first: u64, n: u64) -> bool {
        self.file == file && self.first_page <= first && first + n <= self.first_page + self.npages
    }
}

/// The disk device: an active request plus a pending queue.
#[derive(Debug)]
pub struct Disk {
    params: DiskParams,
    queue: Vec<DiskReq>,
    active: Option<DiskReq>,
    head_block: u64,
    /// Total requests served.
    pub served: u64,
    /// Total bytes transferred from the media.
    pub bytes_read: u64,
    /// Total time the device was busy.
    pub busy_ns: Nanos,
}

impl Disk {
    /// Creates an idle disk with the head parked at block 0.
    pub fn new(params: DiskParams) -> Self {
        Disk {
            params,
            queue: Vec::new(),
            active: None,
            head_block: 0,
            served: 0,
            bytes_read: 0,
            busy_ns: 0,
        }
    }

    /// True when no request is active.
    pub fn is_idle(&self) -> bool {
        self.active.is_none()
    }

    /// If an in-flight or queued request already covers the range, adds
    /// `pid` to its waiters and returns true. Used to coalesce concurrent
    /// faults on the same pages.
    pub fn join_if_covered(&mut self, file: FileId, first: u64, n: u64, pid: Pid) -> bool {
        if let Some(a) = &mut self.active {
            if a.covers(file, first, n) {
                a.waiters.push(pid);
                return true;
            }
        }
        for r in &mut self.queue {
            if r.covers(file, first, n) {
                r.waiters.push(pid);
                return true;
            }
        }
        false
    }

    /// Enqueues a request. Returns the completion delay if the disk was
    /// idle and the request started immediately; `None` if it queued.
    pub fn submit(&mut self, req: DiskReq) -> Option<Nanos> {
        self.queue.push(req);
        if self.active.is_none() {
            self.start_next()
        } else {
            None
        }
    }

    /// Marks the active request complete and returns it along with the
    /// completion delay of the next request, if one started.
    ///
    /// # Panics
    ///
    /// Panics if no request is active (a kernel sequencing bug).
    pub fn complete(&mut self) -> (DiskReq, Option<Nanos>) {
        let done = self
            .active
            .take()
            .expect("disk completion with no active request");
        let next = self.start_next();
        (done, next)
    }

    fn start_next(&mut self) -> Option<Nanos> {
        if self.queue.is_empty() {
            return None;
        }
        let idx = if self.params.elevator {
            // C-LOOK: the closest request at or beyond the head; if none,
            // sweep back to the lowest block.
            let beyond = self
                .queue
                .iter()
                .enumerate()
                .filter(|(_, r)| r.start_block >= self.head_block)
                .min_by_key(|(_, r)| r.start_block);
            match beyond {
                Some((i, _)) => i,
                None => self
                    .queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.start_block)
                    .map(|(i, _)| i)
                    .expect("non-empty queue"),
            }
        } else {
            0
        };
        let req = self.queue.swap_remove(idx);
        let t = self.service_time(&req);
        self.head_block = req.start_block + req.npages;
        self.served += 1;
        self.bytes_read += req.npages * PAGE_SIZE;
        self.busy_ns += t;
        self.active = Some(req);
        Some(t)
    }

    /// Service time for a request given the current head position.
    pub fn service_time(&self, req: &DiskReq) -> Nanos {
        let p = &self.params;
        let dist = self.head_block.abs_diff(req.start_block);
        let seek = if dist == 0 {
            0
        } else {
            let frac = (dist as f64 / p.total_blocks as f64).min(1.0);
            p.min_seek_ns + ((p.full_seek_ns - p.min_seek_ns) as f64 * frac.sqrt()) as Nanos
        };
        let bytes = req.npages * PAGE_SIZE;
        let transfer = (bytes as f64 / p.transfer_bytes_per_sec as f64 * 1e9) as Nanos;
        p.overhead_ns + seek + p.rotation_ns + transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(file: u32, first: u64, n: u64, block: u64) -> DiskReq {
        DiskReq {
            file: FileId(file),
            first_page: first,
            npages: n,
            start_block: block,
            waiters: vec![Pid(1)],
        }
    }

    #[test]
    fn idle_disk_starts_immediately() {
        let mut d = Disk::new(DiskParams::default());
        let t = d.submit(req(1, 0, 4, 1000));
        assert!(t.is_some());
        assert!(!d.is_idle());
        let (done, next) = d.complete();
        assert_eq!(done.file, FileId(1));
        assert!(next.is_none());
        assert!(d.is_idle());
    }

    #[test]
    fn service_time_grows_with_distance_and_size() {
        let d = Disk::new(DiskParams::default());
        let near_small = d.service_time(&req(1, 0, 1, 10));
        let far_small = d.service_time(&req(1, 0, 1, 1_500_000));
        let near_big = d.service_time(&req(1, 0, 64, 10));
        assert!(far_small > near_small);
        assert!(near_big > near_small);
    }

    #[test]
    fn elevator_picks_ascending_blocks() {
        let mut d = Disk::new(DiskParams::default());
        // First request (starts immediately) moves the head to ~500.
        d.submit(req(1, 0, 1, 500));
        d.submit(req(2, 0, 1, 100_000));
        d.submit(req(3, 0, 1, 2_000));
        d.submit(req(4, 0, 1, 50_000));
        let mut order = Vec::new();
        let (r, mut next) = d.complete();
        order.push(r.file.0);
        while next.is_some() {
            let (r, n) = d.complete();
            order.push(r.file.0);
            next = n;
        }
        assert_eq!(order, vec![1, 3, 4, 2], "C-LOOK ascending sweep");
    }

    #[test]
    fn fcfs_preserves_submission_order() {
        let mut d = Disk::new(DiskParams {
            elevator: false,
            ..DiskParams::default()
        });
        d.submit(req(1, 0, 1, 500));
        d.submit(req(2, 0, 1, 100_000));
        d.submit(req(3, 0, 1, 2_000));
        let mut order = Vec::new();
        let (r, mut next) = d.complete();
        order.push(r.file.0);
        while next.is_some() {
            let (r, n) = d.complete();
            order.push(r.file.0);
            next = n;
        }
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn elevator_beats_fcfs_on_scattered_load() {
        // Same scattered request pattern served both ways; the elevator
        // must finish in less total busy time.
        let pattern: Vec<u64> = vec![900_000, 10_000, 800_000, 20_000, 700_000, 30_000];
        let total = |elevator: bool| {
            let mut d = Disk::new(DiskParams {
                elevator,
                ..DiskParams::default()
            });
            for (i, b) in pattern.iter().enumerate() {
                d.submit(req(i as u32 + 1, 0, 4, *b));
            }
            let (_, mut next) = d.complete();
            while next.is_some() {
                let (_, n) = d.complete();
                next = n;
            }
            d.busy_ns
        };
        let fcfs = total(false);
        let clook = total(true);
        assert!(
            clook < fcfs,
            "C-LOOK {clook}ns should beat FCFS {fcfs}ns on scattered load"
        );
    }

    #[test]
    fn join_coalesces_covered_ranges() {
        let mut d = Disk::new(DiskParams::default());
        d.submit(req(1, 0, 8, 1000));
        assert!(d.join_if_covered(FileId(1), 2, 3, Pid(7)));
        assert!(
            !d.join_if_covered(FileId(1), 6, 4, Pid(8)),
            "partial overlap"
        );
        assert!(!d.join_if_covered(FileId(2), 0, 1, Pid(9)), "other file");
        let (done, _) = d.complete();
        assert_eq!(done.waiters, vec![Pid(1), Pid(7)]);
    }

    #[test]
    fn counters_accumulate() {
        let mut d = Disk::new(DiskParams::default());
        d.submit(req(1, 0, 4, 100));
        d.submit(req(2, 0, 2, 200));
        let (_, next) = d.complete();
        assert!(next.is_some());
        d.complete();
        assert_eq!(d.served, 2);
        assert_eq!(d.bytes_read, 6 * PAGE_SIZE);
        assert!(d.busy_ns > 0);
    }
}
