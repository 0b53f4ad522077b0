//! Regenerates every figure of the paper's evaluation (Figures 6–12) and
//! writes the series as Markdown + CSV under `results/`.
//!
//! Run with:
//!   cargo run --release --example reproduce_figures           # full sweeps
//!   cargo run --release --example reproduce_figures -- quick  # smoke run
//!
//! The full run takes a few minutes of wall time (hundreds of simulated
//! server-minutes).

use flash_repro::experiments::Figure;
use flash_repro::experiments::{breakdown, dataset_sweep, single_file, trace_bars, wan, Scale};

fn main() -> std::io::Result<()> {
    let scale = if std::env::args().any(|a| a == "quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    std::fs::create_dir_all("results")?;
    let mut all: Vec<Figure> = Vec::new();

    eprintln!("[1/7] Figure 6: single-file test, Solaris...");
    all.extend(single_file::fig06(scale));
    eprintln!("[2/7] Figure 7: single-file test, FreeBSD...");
    all.extend(single_file::fig07(scale));
    eprintln!("[3/7] Figure 8: Rice CS + Owlnet traces, Solaris...");
    all.extend(trace_bars::fig08(scale));
    eprintln!("[4/7] Figure 9: dataset sweep, FreeBSD...");
    all.push(dataset_sweep::fig09(scale));
    eprintln!("[5/7] Figure 10: dataset sweep, Solaris...");
    all.push(dataset_sweep::fig10(scale));
    eprintln!("[6/7] Figure 11: optimization breakdown...");
    all.push(breakdown::fig11(scale));
    eprintln!("[7/7] Figure 12: WAN client sweep, Solaris...");
    all.push(wan::fig12(scale));

    for fig in &all {
        println!("{}", fig.to_markdown());
        std::fs::write(format!("results/{}.csv", fig.id), fig.to_csv())?;
    }
    let md: String = all.iter().map(|f| f.to_markdown() + "\n").collect();
    std::fs::write("results/figures.md", md)?;
    eprintln!("wrote results/figures.md and per-figure CSVs");
    Ok(())
}
