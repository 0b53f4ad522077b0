//! The server's own counters, read from outside through the public
//! `ServerStats` accessors and differenced over a phase.

use std::sync::atomic::Ordering::Relaxed;

use flash_net::{HistSnapshot, ServerStats};

/// The scalar counters the per-layer metrics use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum C {
    Requests,
    Accepted,
    HelperJobs,
    CacheHits,
    WritevCalls,
    SendfileCalls,
    WaitCalls,
    WaitEvents,
    Revalidations,
    WorkerRespawns,
    LoopStalls,
    PhaseWaitUs,
    PhaseAcceptUs,
    PhaseReadUs,
    PhaseRespondUs,
    PhaseCompletionsUs,
    PhaseTimersUs,
}
const N_SCALARS: usize = C::PhaseTimersUs as usize + 1;

/// The latency histograms the per-layer metrics use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum H {
    Request,
    Ttfb,
    HelperWait,
    WorkerWait,
}
const N_HISTS: usize = H::WorkerWait as usize + 1;

/// A point-in-time copy of those counters, or the difference of two.
#[derive(Clone, Default)]
pub struct Counters {
    scalars: [u64; N_SCALARS],
    hists: [HistSnapshot; N_HISTS],
}

impl Counters {
    pub fn read(s: &ServerStats) -> Counters {
        let shard_sum = |f: fn(&flash_net::ShardStats) -> u64| -> u64 {
            s.per_shard().iter().map(|sh| f(sh)).sum()
        };
        let mut c = Counters::default();
        let mut set = |k: C, v: u64| c.scalars[k as usize] = v;
        set(C::Requests, s.requests());
        set(C::Accepted, s.accepted());
        set(C::HelperJobs, s.helper_jobs());
        set(C::CacheHits, s.cache_hits());
        set(C::WritevCalls, s.writev_calls());
        set(C::SendfileCalls, s.sendfile_calls());
        set(C::WaitCalls, s.wait_calls());
        set(C::WaitEvents, s.wait_events());
        set(C::Revalidations, s.revalidations());
        set(C::WorkerRespawns, s.worker_respawns());
        set(C::LoopStalls, s.loop_stalls());
        set(
            C::PhaseWaitUs,
            shard_sum(|sh| sh.phase_wait_us.load(Relaxed)),
        );
        set(
            C::PhaseAcceptUs,
            shard_sum(|sh| sh.phase_accept_us.load(Relaxed)),
        );
        set(
            C::PhaseReadUs,
            shard_sum(|sh| sh.phase_read_us.load(Relaxed)),
        );
        set(
            C::PhaseRespondUs,
            shard_sum(|sh| sh.phase_respond_us.load(Relaxed)),
        );
        set(
            C::PhaseCompletionsUs,
            shard_sum(|sh| sh.phase_completions_us.load(Relaxed)),
        );
        set(
            C::PhaseTimersUs,
            shard_sum(|sh| sh.phase_timers_us.load(Relaxed)),
        );
        c.hists = [
            s.request_latency(),
            s.ttfb(),
            s.helper_wait(),
            s.worker_wait(),
        ];
        c
    }

    pub fn get(&self, k: C) -> u64 {
        self.scalars[k as usize]
    }

    pub fn hist(&self, k: H) -> &HistSnapshot {
        &self.hists[k as usize]
    }

    /// `self - before`, counter by counter and bucket by bucket.
    pub fn since(&self, before: &Counters) -> Counters {
        let mut d = self.clone();
        for (a, b) in d.scalars.iter_mut().zip(&before.scalars) {
            *a = a.saturating_sub(*b);
        }
        for (a, b) in d.hists.iter_mut().zip(&before.hists) {
            for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
                *x = x.saturating_sub(*y);
            }
            a.sum = a.sum.saturating_sub(b.sum);
        }
        d
    }
}
