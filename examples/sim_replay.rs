//! Deterministic simulated replay of the shipped shard loop at scale,
//! over the simulated kernel of `flash_sim`: a Zipf-visited
//! synthetic site (generated by `workload::sitegen`), hundreds of
//! thousands of simulated connections per seed, the full fault mix on
//! (partial writes, trickled headers, disk stalls, wedged helpers,
//! EMFILE storms, crashing, wedged and garbling workers, half-closing
//! and resetting clients, mid-run reloads, a final drain), and the
//! shard invariants — armed timers ⇔ live deadlines, the cache's byte
//! count ⇔ its entries and its gauge, and no completion or retired
//! worker outliving its turn, among them — checked
//! throughout. In the debug profile the loop's `debug_assert!`s run
//! too (CI: `FLASH_SIM_CONNS=20000 cargo run --example sim_replay`).
//!
//! Two gates, both fatal (non-zero exit):
//!
//! * **invariants** — any violated invariant, stranded connection, or
//!   livelock fails the run inside `sim::run` itself;
//! * **determinism** — a paired re-run with the first seed must
//!   produce a bit-identical `SimReport` (fingerprint folds every
//!   scrubbed response byte).
//!
//! Run with: `cargo run --release --example sim_replay`
//! Connections per seed via `FLASH_SIM_CONNS` (default 350_000 across
//! seeds {41, 42, 43} ⇒ >1M simulated connections per invocation).

use std::time::Instant;

use flash_repro::sim::{self, SimConfig};
use flash_repro::simcore::SimRng;
use flash_repro::workload::sitegen::{generate_files, SizeDist};

const SEEDS: [u64; 3] = [41, 42, 43];

fn main() {
    let conns: u64 = std::env::var("FLASH_SIM_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(350_000);

    // The simulated docroot: heavy-tailed sizes straddling the sim's
    // sendfile threshold so both body tiers stream, small enough in
    // the median that the Zipf hot set fights for the cache budget.
    let mut site_rng = SimRng::new(0xF1A5);
    let dist = SizeDist {
        body_median: 2_500.0,
        body_sigma: 1.1,
        tail_fraction: 0.03,
        tail_scale: 24_000.0,
        tail_alpha: 1.25,
        max_bytes: 128 * 1024,
    };
    let site = generate_files(&mut site_rng, 4 * 1024 * 1024, &dist);
    println!("simulated site: {} files", site.len());

    // Determinism pair: the first seed runs twice at reduced scale and
    // must match bit-for-bit before the big runs spend any time.
    let pair_cfg = SimConfig::new(SEEDS[0], conns.clamp(1_000, 50_000));
    let a = sim::run(&pair_cfg, &site).unwrap_or_else(|e| fail(&e));
    let b = sim::run(&pair_cfg, &site).unwrap_or_else(|e| fail(&e));
    if a != b {
        eprintln!(
            "DETERMINISM VIOLATION: same seed produced different reports\n  a: {a:?}\n  b: {b:?}"
        );
        std::process::exit(1);
    }
    println!(
        "determinism pair OK: {} conns, fingerprint {:#018x}",
        a.counts.accepted, a.fingerprint
    );

    let mut total_conns = 0u64;
    for seed in SEEDS {
        let wall = Instant::now();
        let r = sim::run(&SimConfig::new(seed, conns), &site).unwrap_or_else(|e| fail(&e));
        let sim_secs = r.sim_elapsed_nanos as f64 / 1e9;
        total_conns += r.counts.accepted;
        println!(
            "sim seed {seed}: {} conns, {} requests, {:.1} MB in {:.1}s simulated \
             ({:.1}s wall, {} events) — jobs {} ({} inline), cancelled {}, reaped {}, \
             304s {}, 500s {}, unanswered {}, worker respawns {}, reloads {}, \
             fingerprint {:#018x}",
            r.counts.accepted,
            r.counts.requests,
            r.bytes as f64 / 1e6,
            sim_secs,
            wall.elapsed().as_secs_f64(),
            r.events,
            r.counts.helper_jobs,
            r.counts.inline_jobs,
            r.counts.jobs_cancelled,
            r.counts.helper_wait_timeouts,
            r.counts.not_modified,
            r.server_errors,
            r.unanswered,
            r.counts.worker_respawns,
            r.reloads,
            r.fingerprint,
        );
        // The kernel crossings behind those requests, per request.
        let per_req = |n: u64| n as f64 / r.counts.requests.max(1) as f64;
        let ledger: Vec<String> = r
            .crossings()
            .iter()
            .map(|(name, n)| format!("{name} {:.3}", per_req(*n)))
            .collect();
        let total = r.crossings().iter().map(|(_, n)| n).sum();
        println!(
            "  crossings per request: {} — total {:.3}",
            ledger.join(", "),
            per_req(total)
        );
    }
    println!(
        "sim replay OK: {total_conns} simulated connections across {} seeds",
        SEEDS.len()
    );
}

fn fail(e: &str) -> ! {
    eprintln!("SIM REPLAY FAILED: {e}");
    std::process::exit(1);
}
