//! `flash-loadbench`: the repo benchmark's one command.
//!
//! ```text
//! flash-loadbench --workload <name> [--seed n] [--seconds s] [--trace [0|1]]
//! flash-loadbench --all [--repeat k [--vary-seed]] [--seed n] [--seconds s] [--trace [0|1]]
//! ```
//!
//! Every run prints its metrics by name and unit on standard error and
//! one JSON object as the last line of standard output; the exit code
//! is non-zero if any correctness check failed.

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use flash_loadbench::run::{self, Metric, Options, Outcome};
use flash_loadbench::summary::{median, quartiles};
use flash_loadbench::workloads::{self, Workload};
use flash_loadbench::{procstat, worker};

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;

struct Cli {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    /// Round `i` of `--repeat` runs with seed + `i`, as the driver's
    /// ten runs do; without it every round has the same inputs.
    vary_seed: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: flash-loadbench (--workload <name> | --all) [--seed <n>] [--seconds <s>] \
         [--trace [0|1]] [--repeat <k> [--vary-seed]]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        vary_seed: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = workloads::find(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                cli.workloads.push(w);
            }
            "--all" => cli.workloads = workloads::WORKLOADS.iter().collect(),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--vary-seed" => cli.vary_seed = true,
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workloads.is_empty() || cli.repeat == 0 {
        return Err("name a workload (or --all) and a repeat count of at least 1".to_string());
    }
    Ok(cli)
}

/// Shortest decimal text that reads back as exactly `v`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn report(w: &Workload, seed: u64, o: &Outcome) {
    let flags = if o.flags.is_empty() {
        String::new()
    } else {
        format!("  FLAGGED: {}", o.flags.join(", "))
    };
    eprintln!(
        "== {} seed={seed}: attempted {} failed {}{flags}",
        w.name, o.attempted, o.failed
    );
    for Metric { name, unit, value } in &o.metrics {
        eprintln!("  {name:<38} {value:>14.4} {unit}");
    }
    for note in &o.notes {
        eprintln!("  {note}");
    }
}

/// Per end-to-end metric and workload: median, quartiles, and the two
/// spreads ((q3 - q1) / median is what the driver bounds).
fn repeat_table(runs: &[(&'static str, Vec<Metric>)]) {
    eprintln!(
        "\n{:<16} {:<16} {:>3} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "workload", "metric", "n", "median", "q1", "q3", "iqr/med", "rng/med"
    );
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for (w, metrics) in runs {
        for m in metrics {
            if seen.contains(&(w, m.name)) {
                continue;
            }
            seen.push((w, m.name));
            let values: Vec<f64> = runs
                .iter()
                .filter(|(rw, _)| rw == w)
                .flat_map(|(_, ms)| ms.iter().filter(|x| x.name == m.name).map(|x| x.value))
                .collect();
            let med = median(&values);
            let (q1, q3) = quartiles(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            eprintln!(
                "{w:<16} {:<16} {:>3} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>8.4} {:>8.4}",
                m.name,
                values.len(),
                (q3 - q1) / med,
                (hi - lo) / med
            );
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        let stdin = io::stdin();
        let stdout = io::stdout();
        return match worker::serve(stdin.lock(), stdout.lock()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // <target dir>/<profile>/flash-loadbench: the docroot and the span
    // files go beside the build, which `.gitignore` already covers.
    let exe = std::env::current_exe().expect("own executable path");
    let scratch = exe
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
        .join("loadbench-scratch");
    let opts_for = |seed: u64| Options {
        seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scratch: scratch.clone(),
        worker_exe: exe.clone(),
    };
    eprintln!("machine: {}", procstat::fingerprint());
    let mut all_correct = true;
    let mut runs: Vec<(&'static str, Vec<Metric>)> = Vec::new();
    let stdout = io::stdout();
    for round in 0..cli.repeat {
        for w in &cli.workloads {
            let seed = if cli.vary_seed {
                cli.seed + round as u64
            } else {
                cli.seed
            };
            let outcome = match run::run(w, &opts_for(seed)) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            report(w, seed, &outcome);
            if cli.workloads.len() > 1 || cli.repeat > 1 {
                let _ = writeln!(stdout.lock(), "# workload={} round={round}", w.name);
            }
            let _ = writeln!(stdout.lock(), "{}", result_line(&outcome));
            all_correct &= outcome.correct();
            runs.push((w.name, outcome.metrics));
        }
    }
    if cli.repeat > 1 {
        repeat_table(&runs);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
