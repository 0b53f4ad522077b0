//! One benchmark run of one workload: set-up, warm-up, the closed and
//! open phases against the real server on loopback, and — on a traced
//! run — the per-layer numbers.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use flash_net::handle::{self, ServeHandle};

use crate::counters::{Counters, C, H};
use crate::layers;
use crate::loadgen::{Generator, Pacing, PhaseStats, Slice};
use crate::procstat;
use crate::summary::{median, percentile, second_best};
use crate::trace;
use crate::workloads::{self, Site, Workload};

/// Slices per phase. Every end-to-end value is read off the second
/// best of them ([`second_best`]): on the shared 2-vCPU reference box
/// each vCPU's raw speed drops by 30-40% for seconds at a time (a
/// pinned arithmetic loop shows it), so a median over slices measures
/// the neighbours; the best of a hundred short slices measure the
/// server. README.md has the comparison.
pub const SLICES: usize = 100;
/// A timed run is this many rounds of one set-up followed by a tenth
/// of the slices, so that the set-ups, like the slices, sample the
/// whole run and not one state of the machine. `setup_s` is the second
/// best of them, read like every other end-to-end value: a set-up that
/// spawns workers or loads 2000 files is 1.35x slower in the machine's
/// slow state, and a median over set-ups moved by 24% between two
/// ten-run sets of the same code.
const ROUNDS: usize = 10;
/// Requests the traced replay aims for.
const REPLAY_REQUESTS: usize = 20_000;

pub struct Options {
    pub seed: u64,
    /// Measured seconds: half closed phase, half open phase.
    pub seconds: f64,
    pub trace: bool,
    /// Where the docroot and the span files go.
    pub scratch: PathBuf,
    /// This executable, re-run with `--worker` as the dynamic worker.
    pub worker_exe: PathBuf,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// `saturated`, `noisy`.
    pub flags: Vec<&'static str>,
    /// Human-readable lines: the loop counts behind the numbers, the
    /// budget on a traced run.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

struct Live<'a> {
    server: Box<dyn ServeHandle>,
    gen: Generator<'a>,
}

impl Live<'_> {
    fn tear_down(mut self) {
        // Connections first, so the server's drain has nothing to
        // wait for; stopping joins its threads and reaps its workers.
        self.gen.close();
        self.server.stop();
    }
}

fn worker_cmd(opts: &Options) -> Vec<String> {
    vec![
        opts.worker_exe.to_string_lossy().into_owned(),
        "--worker".to_string(),
    ]
}

/// Server start + warm-up until every target has been served once
/// correctly. Returns the live pair, the seconds taken, and the
/// requests made. Writing the docroot is not part of it: that is the
/// benchmark's own work, and on the reference box 2000 small file
/// writes take anywhere from 0.1 to 0.4 s.
fn set_up<'a>(
    w: &Workload,
    site: &'a Site,
    opts: &Options,
) -> Result<(Live<'a>, f64, u64), String> {
    let started = Instant::now();
    let cfg = w.net_config(&site.root, worker_cmd(opts));
    // The server's threads and workers inherit the CPU this thread is
    // on when it starts them; the generator then moves to the other.
    // With one CPU there is nothing to separate.
    let pair = match *procstat::allowed_cpus() {
        [server_cpu, generator_cpu, ..] => Some((server_cpu, generator_cpu)),
        _ => None,
    };
    if let Some((server_cpu, _)) = pair {
        procstat::pin_to(server_cpu);
    }
    let server = handle::start(w.arch, "127.0.0.1:0", cfg);
    if let Some((_, generator_cpu)) = pair {
        procstat::pin_to(generator_cpu);
    }
    let server = server.map_err(|e| format!("server start: {e}"))?;
    let mut gen = Generator::new(server.local_addr(), site, w.traffic);
    match gen.warm_up() {
        Ok(fetched) => Ok((
            Live { server, gen },
            started.elapsed().as_secs_f64(),
            fetched,
        )),
        Err(e) => {
            Live { server, gen }.tear_down();
            Err(e)
        }
    }
}

fn per_slice(phase: &PhaseStats, higher_is_better: bool, f: impl Fn(&Slice) -> Option<f64>) -> f64 {
    let values: Vec<f64> = phase.slices.iter().filter_map(f).collect();
    second_best(&values, higher_is_better)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(closed: &PhaseStats, open: &PhaseStats, setup_s: f64) -> Vec<Metric> {
    vec![
        metric("rps", "1/s", per_slice(closed, true, |s| Some(s.rps()))),
        metric(
            "mib_per_s",
            "MiB/s",
            per_slice(closed, true, |s| Some(s.mib_per_s())),
        ),
        metric("p50_us", "us", per_slice(open, false, Slice::p50_us)),
        metric(
            "cpu_us_per_req",
            "us",
            per_slice(open, false, Slice::cpu_us_per_req),
        ),
        metric("rss_mib", "MiB", procstat::peak_rss_mib()),
        metric("setup_s", "s", setup_s),
    ]
}

/// Runs one workload once. `Err` means the run could not start (a
/// warm-up failure); failures after that are counted in the outcome.
pub fn run(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    procstat::reset_peak_rss();
    let root = opts.scratch.join(format!("docroot-{}", std::process::id()));
    let site = workloads::generate(w, opts.seed, root);
    if let Err(e) = site.write() {
        site.remove();
        return Err(format!("docroot: {e}"));
    }
    let mut result = if opts.trace {
        run_traced(w, &site, opts)
    } else {
        run_timed(w, &site, opts)
    };
    site.remove();
    if let Ok(o) = &mut result {
        o.notes
            .push(format!("loadgen.seq_hash = {:016x}", site.seq_hash));
    }
    result
}

fn run_timed(w: &Workload, site: &Site, opts: &Options) -> Result<Outcome, String> {
    // The two phases take turns, a slice each, so that each samples
    // the whole run: the machine's fast stretches are seconds long and
    // either phase may need the one the other would have got.
    let slice = Duration::from_secs_f64(opts.seconds / (2 * SLICES) as f64);
    let (mut closed, mut open) = (PhaseStats::default(), PhaseStats::default());
    let mut setups: Vec<f64> = Vec::new();
    let mut warmed = 0;
    for _ in 0..ROUNDS {
        let (mut live, secs, fetched) = set_up(w, site, opts)?;
        setups.push(secs);
        warmed += fetched;
        for _ in 0..SLICES / ROUNDS {
            closed.absorb(live.gen.run_phase(Pacing::Closed, 1, slice));
            open.absorb(
                live.gen
                    .run_phase(Pacing::Open { rate: w.open_rate }, 1, slice),
            );
        }
        live.tear_down();
    }
    let mut outcome = Outcome {
        metrics: end_to_end(&closed, &open, second_best(&setups, false)),
        attempted: warmed + closed.attempted + open.attempted,
        failed: closed.failed + open.failed,
        flags: Vec::new(),
        notes: Vec::new(),
    };
    note_phases(&mut outcome, &closed, &open);
    setups.sort_by(f64::total_cmp);
    outcome.notes.push(format!(
        "set-ups (s, ascending): {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(outcome)
}

/// Flags and the loop counts a reader needs to judge the numbers.
fn note_phases(o: &mut Outcome, closed: &PhaseStats, open: &PhaseStats) {
    let mut late = open.late_ns.clone();
    late.sort_unstable();
    if open.achieved_rate_ratio() < 0.99 {
        o.flags.push("saturated");
    }
    if percentile(&late, 0.5) > 20_000 {
        o.flags.push("noisy");
    }
    let samples: usize = open.slices.iter().map(|s| s.latencies_ns.len()).sum();
    o.notes.push(format!(
        "closed phase: {} completed, {} failed; open phase: {} offered, {} completed ({} latency samples), {} failed",
        closed.completed, closed.failed, open.offered, open.completed, samples, open.failed
    ));
    // Worst, middle and best slice: how much the machine moved.
    let each = |phase: &PhaseStats, f: &dyn Fn(&Slice) -> Option<f64>| {
        let mut v: Vec<f64> = phase.slices.iter().filter_map(f).collect();
        v.sort_by(f64::total_cmp);
        match v.as_slice() {
            [] => String::new(),
            [lo, .., hi] => format!("{lo:.1} {:.1} {hi:.1}", v[v.len() / 2]),
            [one] => format!("{one:.1}"),
        }
    };
    o.notes.push(format!(
        "slices (min median max): closed rps [{}]; open p50 us [{}]; open cpu us/req [{}]",
        each(closed, &|s| Some(s.rps())),
        each(open, &Slice::p50_us),
        each(open, &Slice::cpu_us_per_req),
    ));
    for f in [closed.first_failure, open.first_failure]
        .into_iter()
        .flatten()
    {
        o.notes.push(format!("first failure: {f:?}"));
    }
}

/// The counters of one phase turned into per-request layer metrics.
fn server_layers(d: &Counters, vol_ctx: u64) -> Vec<Metric> {
    let reqs = d.get(C::Requests);
    let per_req = |k: C| ratio(d.get(k), reqs);
    let loop_us: u64 = [
        C::PhaseWaitUs,
        C::PhaseAcceptUs,
        C::PhaseReadUs,
        C::PhaseRespondUs,
        C::PhaseCompletionsUs,
        C::PhaseTimersUs,
    ]
    .iter()
    .map(|&k| d.get(k))
    .sum();
    // Histogram sums, not bucket quantiles: the buckets are powers of
    // two, so a quantile cannot move by less than 2x.
    let hist_us_per_req = |k: H| d.hist(k).sum as f64 / 1e3 / reqs.max(1) as f64;
    vec![
        metric("server.wait_calls_per_req", "1/req", per_req(C::WaitCalls)),
        metric(
            "server.events_per_wait",
            "ratio",
            ratio(d.get(C::WaitEvents), d.get(C::WaitCalls)),
        ),
        metric("server.writev_per_req", "1/req", per_req(C::WritevCalls)),
        metric(
            "server.sendfile_per_req",
            "1/req",
            per_req(C::SendfileCalls),
        ),
        metric(
            "server.counted_syscalls_per_req",
            "1/req",
            ratio(
                d.get(C::WaitCalls) + d.get(C::WritevCalls) + d.get(C::SendfileCalls),
                reqs,
            ),
        ),
        metric(
            "server.helper_jobs_per_req",
            "1/req",
            per_req(C::HelperJobs),
        ),
        metric("server.accepts_per_req", "1/req", per_req(C::Accepted)),
        metric("server.loop_stalls", "count", d.get(C::LoopStalls) as f64),
        metric("server.vol_ctx_per_req", "1/req", ratio(vol_ctx, reqs)),
        metric(
            "server.phase_wait_frac",
            "ratio",
            ratio(d.get(C::PhaseWaitUs), loop_us),
        ),
        metric(
            "server.phase_accept_us_per_req",
            "us/req",
            per_req(C::PhaseAcceptUs),
        ),
        metric(
            "server.phase_read_us_per_req",
            "us/req",
            per_req(C::PhaseReadUs),
        ),
        metric(
            "server.phase_respond_us_per_req",
            "us/req",
            per_req(C::PhaseRespondUs),
        ),
        metric(
            "server.phase_completions_us_per_req",
            "us/req",
            per_req(C::PhaseCompletionsUs),
        ),
        metric(
            "server.phase_timers_us_per_req",
            "us/req",
            per_req(C::PhaseTimersUs),
        ),
        metric("cache.hit_ratio", "ratio", per_req(C::CacheHits)),
        metric(
            "cache.revalidations_per_req",
            "1/req",
            per_req(C::Revalidations),
        ),
        metric(
            "stats.request_us_per_req",
            "us/req",
            hist_us_per_req(H::Request),
        ),
        metric("stats.ttfb_us_per_req", "us/req", hist_us_per_req(H::Ttfb)),
        metric(
            "stats.helper_wait_us_per_req",
            "us/req",
            hist_us_per_req(H::HelperWait),
        ),
        metric(
            "stats.worker_wait_us_per_req",
            "us/req",
            hist_us_per_req(H::WorkerWait),
        ),
        metric(
            "appworker.respawns",
            "count",
            d.get(C::WorkerRespawns) as f64,
        ),
    ]
}

fn run_traced(w: &Workload, site: &Site, opts: &Options) -> Result<Outcome, String> {
    let (mut live, _, warmed) = set_up(w, site, opts)?;
    // A shorter copy of the timed run, with tracing off, for the
    // generator's and the server's own counts: 15% of the time closed,
    // 35% open; the rest goes to the replay and the layer closures.
    let closed_slice = Duration::from_secs_f64(opts.seconds * 0.15 / SLICES as f64);
    let open_slice = Duration::from_secs_f64(opts.seconds * 0.35 / SLICES as f64);
    let tid = procstat::current_tid();
    let stats = live.server.stats();
    let c0 = Counters::read(stats);
    let closed = live.gen.run_phase(Pacing::Closed, SLICES, closed_slice);
    let c1 = Counters::read(stats);
    let ctx1 = procstat::voluntary_switches_excluding(tid);
    let open = live
        .gen
        .run_phase(Pacing::Open { rate: w.open_rate }, SLICES, open_slice);
    let c2 = Counters::read(stats);
    let ctx2 = procstat::voluntary_switches_excluding(tid);
    let cache_used_mib = stats.cache_used_bytes() as f64 / (1u64 << 20) as f64;
    live.tear_down();

    // The replay through the sans-IO core needs the docroot the server
    // just used. Its requests are checked too (status only), so they
    // count in `attempted` and `failed` like the generator's.
    let cfg = w.net_config(&site.root, worker_cmd(opts));
    let pass = Duration::from_secs_f64(opts.seconds * 0.08);
    let plain = trace::replay(site, &cfg, false, REPLAY_REQUESTS, pass);
    let traced = trace::replay(site, &cfg, true, plain.requests as usize, pass * 4);

    let mut o = Outcome {
        metrics: Vec::new(),
        attempted: warmed + closed.attempted + open.attempted + plain.requests + traced.requests,
        failed: closed.failed + open.failed + plain.bad_status + traced.bad_status,
        flags: Vec::new(),
        notes: Vec::new(),
    };
    note_phases(&mut o, &closed, &open);

    // loadgen.*: how the generator itself behaved in the open phase.
    let mut late = open.late_ns.clone();
    late.sort_unstable();
    let m = &mut o.metrics;
    // The mean, not the median: the median lateness of a spinning
    // generator is a few clock ticks and reads the same every run.
    let late_mean = late.iter().sum::<u64>() as f64 / late.len().max(1) as f64;
    m.push(metric("loadgen.late_mean_us", "us", late_mean / 1e3));
    m.push(metric(
        "loadgen.late_max_us",
        "us",
        late.last().copied().unwrap_or(0) as f64 / 1e3,
    ));
    m.push(metric(
        "loadgen.achieved_rate_ratio",
        "ratio",
        open.achieved_rate_ratio(),
    ));
    // Quantiles of the whole open phase, interference included: what
    // a client of this machine saw.
    let mut all: Vec<u64> = open
        .slices
        .iter()
        .flat_map(|s| s.latencies_ns.iter().copied())
        .collect();
    all.sort_unstable();
    for (name, q) in [
        ("loadgen.p50_us", 0.5),
        ("loadgen.p90_us", 0.9),
        ("loadgen.p99_us", 0.99),
        ("loadgen.p999_us", 0.999),
    ] {
        m.push(metric(name, "us", percentile(&all, q) as f64 / 1e3));
    }
    // The end-to-end read-outs as medians over the slices: the timed
    // run reports the second best slice, which two clean slices
    // satisfy; slowness that comes and goes (periodic stalls, eviction
    // storms, timer bursts) moves these instead.
    let slice_median = |phase: &PhaseStats, f: &dyn Fn(&Slice) -> Option<f64>| {
        median(&phase.slices.iter().filter_map(f).collect::<Vec<f64>>())
    };
    m.push(metric(
        "loadgen.slice_median_rps",
        "1/s",
        slice_median(&closed, &|s| Some(s.rps())),
    ));
    m.push(metric(
        "loadgen.slice_median_p50_us",
        "us",
        slice_median(&open, &Slice::p50_us),
    ));
    m.push(metric(
        "loadgen.slice_median_cpu_us_per_req",
        "us",
        slice_median(&open, &Slice::cpu_us_per_req),
    ));
    m.push(metric(
        "loadgen.fail_ratio",
        "ratio",
        ratio(o.failed, o.attempted),
    ));

    // server.*, cache.*, stats.*: the open phase, where the offered
    // load is the same on every commit; the closed phase adds the two
    // counts that change most at saturation.
    let open_d = c2.since(&c1);
    m.extend(server_layers(&open_d, ctx2.saturating_sub(ctx1)));
    let closed_d = c1.since(&c0);
    m.push(metric(
        "server.closed_wait_calls_per_req",
        "1/req",
        ratio(closed_d.get(C::WaitCalls), closed_d.get(C::Requests)),
    ));
    m.push(metric(
        "server.closed_events_per_wait",
        "ratio",
        ratio(closed_d.get(C::WaitEvents), closed_d.get(C::WaitCalls)),
    ));
    m.push(metric("cache.used_mib", "MiB", cache_used_mib));

    let span_file = opts.scratch.join(format!("trace-{}.json", w.name));
    trace::write_spans(&span_file, &traced.spans).map_err(|e| format!("span file: {e}"))?;
    let selfs = trace::self_times(&traced.spans);
    let self_ns = |name: &str| {
        selfs
            .iter()
            .find(|r| r.0 == name)
            .map_or(0.0, |r| r.1 as f64)
    };
    let m = &mut o.metrics;
    m.push(metric("conn.replay_ns", "ns", plain.ns_per_request()));
    m.push(metric(
        "conn.self_ns",
        "ns",
        (self_ns("conn.drive") + self_ns("conn.complete")) / traced.requests.max(1) as f64,
    ));
    m.push(metric(
        "trace.overhead_ratio",
        "ratio",
        traced.ns_per_request() / plain.ns_per_request(),
    ));
    o.notes.push(format!(
        "replay: {} requests ({} with a helper job), {} spans -> {}",
        traced.requests,
        traced.with_jobs,
        traced.spans.len(),
        span_file.display()
    ));
    for (name, own, count) in &selfs {
        o.notes.push(format!(
            "  span {name:<20} n={count:<7} self {:>9.0} ns/request",
            *own as f64 / traced.requests.max(1) as f64
        ));
    }

    // Each layer's public functions on their own.
    let budget = Duration::from_secs_f64(opts.seconds * 0.008);
    let layer_dir = opts.scratch.join(format!("layers-{}", std::process::id()));
    std::fs::create_dir_all(&layer_dir).map_err(|e| format!("layer inputs: {e}"))?;
    for mut layer in layers::all(site, &layer_dir, worker_cmd(opts)) {
        let value = layers::measure(&mut layer, budget);
        o.metrics.push(metric(layer.name, layer.unit, value));
    }
    let _ = std::fs::remove_dir_all(&layer_dir);

    budget_note(&mut o);
    Ok(o)
}

/// Where a request's time goes: the event loop's busy time per
/// request against what the layers account for, and what the
/// generator sees beyond that.
fn budget_note(o: &mut Outcome) {
    let get = |name: &str| {
        o.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let busy_us: f64 = ["accept", "read", "respond", "completions", "timers"]
        .iter()
        .map(|p| {
            o.metrics
                .iter()
                .find(|m| {
                    m.name
                        .strip_prefix("server.phase_")
                        .and_then(|n| n.strip_suffix("_us_per_req"))
                        == Some(p)
                })
                .map_or(0.0, |m| m.value)
        })
        .sum();
    let send_us = get("server.writev_per_req") * get("writev.loopback_4k_ns") / 1e3
        + get("server.sendfile_per_req") * get("sendfile.loopback_ns_per_mib") / 1e3;
    let wait_us = get("server.wait_calls_per_req") * get("event.epoll_wait_ready_ns") / 1e3;
    let p50 = get("loadgen.p50_us");
    o.notes.push(format!(
        "budget (open phase, per request): event loop busy {busy_us:.1} us = core replay (helper work inline) {:.1} us + send syscalls ~{send_us:.1} us + rest; readiness waits ~{wait_us:.1} us; generator p50 {p50:.1} us leaves {:.1} us for wake-up, kernel, loopback and generator",
        get("conn.replay_ns") / 1e3,
        p50 - busy_us,
    ));
}
