//! Trace replay from an access log, the paper's §6.2 methodology:
//! generate a server log in Common Log Format (standing in for the Rice
//! CS/Owlnet/ECE logs), parse it back, truncate it to several dataset
//! sizes, and replay each against Flash and Flash-SPED — reproducing the
//! cached-to-disk-bound crossover in miniature.
//!
//! Run with: `cargo run --release --example trace_replay`

use std::rc::Rc;

use flash_repro::core::ServerConfig;
use flash_repro::experiments::{run_one, ClientFleet, ConnMode, RunParams};
use flash_repro::simos::MachineConfig;
use flash_repro::workload::{Trace, TraceConfig};

fn replay(trace: &Rc<Trace>, cfg: &ServerConfig) -> f64 {
    // The experiment harness pre-warms the page cache to the steady
    // state of a long-running server, then measures a 4 s window.
    let fleet = ClientFleet {
        clients: 64,
        mode: ConnMode::PerRequest,
        ..ClientFleet::default()
    };
    let (r, _) = run_one(
        &MachineConfig::freebsd(),
        cfg,
        trace,
        &fleet,
        &RunParams::default(),
    )
    .expect("deploy");
    r.bandwidth_mbps
}

fn main() {
    // 1. "Obtain" an access log. A real deployment would read its own
    //    server logs; here we synthesize one with ECE-trace statistics
    //    and write it in NCSA Common Log Format.
    let base = Trace::generate(
        &TraceConfig {
            dataset_bytes: 160 * 1024 * 1024,
            n_requests: 120_000,
            ..TraceConfig::ece()
        },
        7,
    );
    let clf = base.to_clf();
    println!(
        "generated log: {} lines, first line:\n  {}",
        base.requests.len(),
        clf.lines().next().unwrap_or("")
    );

    // 2. Parse the log back — the exact path a user's own logs take.
    let parsed = Rc::new(Trace::from_clf(&clf));
    println!(
        "parsed back : {} requests over {} distinct files ({} MB)\n",
        parsed.requests.len(),
        parsed.specs.len(),
        parsed.dataset_bytes() / (1024 * 1024)
    );

    // 3. Truncate to a range of dataset sizes and replay (§6.2).
    println!("| dataset (MB) | Flash (Mb/s) | Flash-SPED (Mb/s) |");
    println!("|---|---|---|");
    for mb in [30u64, 90, 150] {
        let t = Rc::new(parsed.truncate_to_dataset(mb * 1024 * 1024));
        let flash = replay(&t, &ServerConfig::flash());
        let sped = replay(&t, &ServerConfig::flash_sped());
        println!("| {mb} | {flash:.1} | {sped:.1} |");
    }
    println!("\nExpected shape: the two match while cached; SPED collapses");
    println!("once the dataset outgrows the ~105 MB file cache (Figure 9).");
}
