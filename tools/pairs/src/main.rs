//! `pairs`: the repo benchmark's pair protocol as one command.
//!
//! ```text
//! pairs --workload <name> [--pairs n] [--seed s] [--seconds t] [--counts] [--repo dir] [--work dir] <base> <change>
//! pairs --workload <name> [--pairs n] [--seed s] [--seconds t] [--counts] [--repo dir] [--work dir] --aa <commit>
//! ```
//!
//! One machine's speed drifts between states minutes apart, so a
//! single run of each side says little. This tool builds
//! `flash-loadbench` at two commits, each from its own working tree
//! (`git archive` of the commit) into its own target directory, and
//! runs `n` pairs: one seed per pair (`s`, `s + 1`, …), both sides on
//! it, the side that goes first alternating, each run
//! `BENCHMARK.json`'s `run_seconds` long unless `--seconds` says
//! otherwise. `--aa` runs one commit against itself, from two builds:
//! the spread of the hour the pairs ran in.
//!
//! For each end-to-end metric `BENCHMARK.json` names, it prints the
//! base's median and quartiles, the change's, the change in percent,
//! the pairs the change won, an exact two-sided sign-test p-value, the
//! gap between the medians beside the base's quartile spread, each
//! pair's ratio, and the worst pair beside the metric's bound. Around
//! every run it reads TCP `OutSegs` from `/proc/net/snmp` and reports
//! segments per attempted request — a machine-wide count, which any
//! other traffic on the machine inflates. A run that failed an
//! operation, failed its checks or printed no result is reported
//! with its pair, and never dropped.
//!
//! With `--counts`, after the pairs it runs each side once more with
//! `--trace`, on the first seed, and prints every per-layer value
//! `BENCHMARK.json` lists side by side — labelled as single runs, and
//! kept out of the end-to-end statistics.
//!
//! It reads `BENCHMARK.json` and never writes it; it reports, and does
//! not decide which bar a claim must meet. Every run's result line is
//! kept in `<work>/runs.jsonl`, every run's log beside it.

mod json;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use json::Json;

struct Args {
    workload: String,
    pairs: usize,
    seed: u64,
    seconds: Option<f64>,
    /// One `--trace` run a side after the pairs, for the per-layer
    /// values.
    counts: bool,
    repo: PathBuf,
    work: PathBuf,
    /// (label, commit) for the base and the change.
    sides: [(String, String); 2],
}

fn usage() -> &'static str {
    "usage: pairs --workload <name> [--pairs n] [--seed s] [--seconds t] [--counts] \
     [--repo dir] [--work dir] (<base> <change> | --aa <commit>)"
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut pairs, mut seed, mut seconds, mut counts) = (None, 10, 1, None, false);
    let (mut repo, mut work, mut aa) = (PathBuf::from("."), None, None);
    let mut commits = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--pairs" => pairs = value()?.parse().map_err(|e| format!("--pairs: {e}"))?,
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--counts" => counts = true,
            "--repo" => repo = PathBuf::from(value()?),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--aa" => aa = Some(value()?),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            commit => commits.push(commit.to_string()),
        }
    }
    let workload = workload.ok_or("name a --workload")?;
    if pairs == 0 {
        return Err("--pairs must be at least 1".to_string());
    }
    let sides = match (aa, commits.as_slice()) {
        (Some(c), []) => [("A".to_string(), c.clone()), ("B".to_string(), c)],
        (None, [base, change]) => [
            ("base".to_string(), base.clone()),
            ("change".to_string(), change.clone()),
        ],
        _ => return Err("give two commits, or --aa and one".to_string()),
    };
    let work = work.unwrap_or_else(|| repo.join("target").join("pairs"));
    Ok(Args {
        workload,
        pairs,
        seed,
        seconds,
        counts,
        repo,
        work,
        sides,
    })
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// What `BENCHMARK.json` declares.
struct Benchmark {
    run_seconds: f64,
    end_to_end: Vec<Metric>,
    /// The per-layer metrics' names and units, in the file's order.
    per_layer: Vec<(String, String)>,
}

fn read_benchmark(repo: &Path) -> Result<Benchmark, String> {
    let path = repo.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    benchmark_of(&text)
}

fn benchmark_of(text: &str) -> Result<Benchmark, String> {
    let doc = json::parse(text)?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::num)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let Some(Json::Arr(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    let metrics = list
        .iter()
        .map(|m| {
            Some(Metric {
                name: m.get("name")?.str()?.to_string(),
                unit: m.get("unit")?.str()?.to_string(),
                higher_is_better: m.get("better")?.str()? == "higher",
                bound: m.get("bound")?.num()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("an end_to_end entry lacks name, unit, better or bound")?;
    let Some(Json::Arr(list)) = doc.get("per_layer") else {
        return Err("BENCHMARK.json has no per_layer list".to_string());
    };
    let per_layer = list
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.str()?.to_string(),
                m.get("unit")?.str()?.to_string(),
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("a per_layer entry lacks name or unit")?;
    Ok(Benchmark {
        run_seconds: seconds,
        end_to_end: metrics,
        per_layer,
    })
}

/// Runs `cmd`, failing with its name unless it exits 0.
fn run(cmd: &mut Command) -> Result<(), String> {
    let status = cmd.status().map_err(|e| format!("{cmd:?}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{cmd:?}: {status}"))
    }
}

/// Writes `commit`'s tree into `dir/src` and builds `flash-loadbench`
/// there into `dir/target`; returns the binary.
fn build(repo: &Path, commit: &str, dir: &Path) -> Result<PathBuf, String> {
    let src = dir.join("src");
    let _ = std::fs::remove_dir_all(&src);
    std::fs::create_dir_all(&src).map_err(|e| e.to_string())?;
    let mut archive = Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(["archive", "--format=tar", commit])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let tar = archive.stdout.take().ok_or("git archive: no output")?;
    run(Command::new("tar").arg("-x").arg("-C").arg(&src).stdin(tar))?;
    let status = archive.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("git archive {commit}: {status}"));
    }
    run(Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(src.join("loadbench").join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", dir.join("target")))?;
    Ok(dir.join("target").join("release").join("flash-loadbench"))
}

/// The full hash of `commit`.
fn resolve(repo: &Path, commit: &str) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(["rev-parse", "--verify", &format!("{commit}^{{commit}}")])
        .output()
        .map_err(|e| format!("git rev-parse: {e}"))?;
    if !out.status.success() {
        return Err(format!("not a commit: {commit}"));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// TCP segments sent, machine-wide, from `/proc/net/snmp`.
fn out_segs() -> Option<f64> {
    let snmp = std::fs::read_to_string("/proc/net/snmp").ok()?;
    out_segs_of(&snmp)
}

fn out_segs_of(snmp: &str) -> Option<f64> {
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let (names, values) = (tcp.next()?, tcp.next()?);
    let at = names.split_whitespace().position(|n| n == "OutSegs")?;
    values.split_whitespace().nth(at)?.parse().ok()
}

/// One run of one side.
struct Run {
    /// The result line's metrics, by name (none if it printed none).
    metrics: Vec<(String, f64)>,
    /// Why the run is suspect: a non-zero exit, failed operations, a
    /// failed check, no result line.
    faults: Vec<String>,
    attempted: f64,
    out_segs_per_req: Option<f64>,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

/// One run of `bin`; `trace` adds `--trace`, for the per-layer values.
fn one_run(
    bin: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    log: &Path,
) -> Result<Run, String> {
    let segs_before = out_segs();
    let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(trace.then_some("--trace"))
        .stderr(log_file)
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let segs_after = out_segs();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut run = Run {
        metrics: Vec::new(),
        faults: Vec::new(),
        attempted: 0.0,
        out_segs_per_req: None,
    };
    if !out.status.success() {
        run.faults.push(format!("exit {}", out.status));
    }
    let line = stdout.lines().rev().find(|l| l.starts_with('{'));
    let Some(result) = line.and_then(|l| json::parse(l).ok()) else {
        run.faults.push("no result line".to_string());
        return Ok(run);
    };
    run.attempted = result.get("attempted").and_then(Json::num).unwrap_or(0.0);
    let failed = result.get("failed").and_then(Json::num).unwrap_or(0.0);
    if failed > 0.0 {
        run.faults
            .push(format!("{failed} of {} operations failed", run.attempted));
    }
    if result.get("correct") != Some(&Json::Bool(true)) {
        run.faults.push("a correctness check failed".to_string());
    }
    if let Some(Json::Obj(m)) = result.get("metrics") {
        for (name, v) in m {
            if let Some(value) = v.get("value").and_then(Json::num) {
                run.metrics.push((name.clone(), value));
            }
        }
    }
    if let (Some(a), Some(b)) = (segs_before, segs_after) {
        if run.attempted > 0.0 {
            run.out_segs_per_req = Some((b - a) / run.attempted);
        }
    }
    Ok(run)
}

/// A value with a unit-aware magnitude: `74.3 k` for 74 312.
fn fmt(v: f64) -> String {
    let a = v.abs();
    if a >= 10_000.0 {
        format!("{:.1} k", v / 1000.0)
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// The report block for one metric over the complete pairs.
fn report_metric(
    labels: [&str; 2],
    m: &Metric,
    pairs: &[(f64, f64)],
    out: &mut String,
) -> std::fmt::Result {
    let (base, change): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let (bm, cm) = (stats::median(&base), stats::median(&change));
    let ((b1, b3), (c1, c3)) = (stats::quartiles(&base), stats::quartiles(&change));
    let pct = |to: f64, from: f64| (to / from - 1.0) * 100.0;
    let better = |c: f64, b: f64| if m.higher_is_better { c > b } else { c < b };
    let won = pairs.iter().filter(|&&(b, c)| better(c, b)).count();
    let lost = pairs.iter().filter(|&&(b, c)| better(b, c)).count();
    let direction = if m.higher_is_better {
        "higher"
    } else {
        "lower"
    };
    writeln!(
        out,
        "{} ({}, {direction} is better, bound {:.0}%)",
        m.name,
        m.unit,
        m.bound * 100.0
    )?;
    writeln!(
        out,
        "  {} {} ({}–{}) → {} {} ({}–{}): {:+.1}%",
        labels[0],
        fmt(bm),
        fmt(b1),
        fmt(b3),
        labels[1],
        fmt(cm),
        fmt(c1),
        fmt(c3),
        pct(cm, bm)
    )?;
    writeln!(
        out,
        "  {} won {won}/{} pairs ({lost} lost, {} tied); sign test, two-sided: p = {:.4}",
        labels[1],
        pairs.len(),
        pairs.len() - won - lost,
        stats::sign_test(won, lost)
    )?;
    writeln!(
        out,
        "  median gap {} vs {}'s quartile spread {}",
        fmt((cm - bm).abs()),
        labels[0],
        fmt(b3 - b1)
    )?;
    let ratios: Vec<String> = pairs
        .iter()
        .map(|&(b, c)| format!("{:.3}", c / b))
        .collect();
    writeln!(
        out,
        "  per pair {}/{}: {}",
        labels[1],
        labels[0],
        ratios.join(" ")
    )?;
    // The worst pair, as the bound reads it: a worsening is positive.
    let worst = pairs
        .iter()
        .map(|&(b, c)| {
            if m.higher_is_better {
                pct(b, c)
            } else {
                pct(c, b)
            }
        })
        .fold(f64::MIN, f64::max);
    writeln!(
        out,
        "  worst pair {:.1}% worse (bound {:.0}%)",
        worst.max(0.0),
        m.bound * 100.0
    )
}

/// The per-layer block: each of `layers` from one run a side, side by
/// side, and `-` where a run lacks it.
fn report_counts(
    labels: [&str; 2],
    seed: u64,
    layers: &[(String, String)],
    runs: [&Run; 2],
    out: &mut String,
) -> std::fmt::Result {
    writeln!(
        out,
        "per layer: one --trace run of each side, seed {seed} (single runs, not in the statistics above)"
    )?;
    let value = |run: &Run, name: &str| run.metric(name).map_or("-".to_string(), fmt);
    for (name, unit) in layers {
        writeln!(
            out,
            "  {name:<40} {} {:>10}  {} {:>10}  {unit}",
            labels[0],
            value(runs[0], name),
            labels[1],
            value(runs[1], name)
        )?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = parse_args(&args).and_then(|a| pairs(&a)) {
        eprintln!("pairs: {e}\n{}", usage());
        std::process::exit(2);
    }
}

fn pairs(a: &Args) -> Result<(), String> {
    let bench = read_benchmark(&a.repo)?;
    let seconds = a.seconds.unwrap_or(bench.run_seconds);
    std::fs::create_dir_all(&a.work).map_err(|e| format!("{}: {e}", a.work.display()))?;
    let mut bins = Vec::new();
    for (label, commit) in &a.sides {
        let hash = resolve(&a.repo, commit)?;
        let dir = a.work.join(format!("{label}-{}", &hash[..12]));
        eprintln!("pairs: building {label} at {hash} in {}", dir.display());
        bins.push(build(&a.repo, &hash, &dir)?);
    }
    let labels = [a.sides[0].0.as_str(), a.sides[1].0.as_str()];
    let mut jsonl = String::new();
    let mut runs: Vec<[Run; 2]> = Vec::new();
    for i in 0..a.pairs {
        let seed = a.seed + i as u64;
        // Alternate which side goes first.
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut pair: [Option<Run>; 2] = [None, None];
        for side in order {
            let log = a.work.join(format!("run-{seed}-{}.log", labels[side]));
            eprintln!(
                "pairs: pair {}/{} seed {seed}: {}",
                i + 1,
                a.pairs,
                labels[side]
            );
            let run = one_run(&bins[side], &a.workload, seed, seconds, false, &log)?;
            let _ = writeln!(
                jsonl,
                "{{\"seed\": {seed}, \"side\": \"{}\", \"faults\": {:?}, \"metrics\": {:?}}}",
                labels[side], run.faults, run.metrics
            );
            pair[side] = Some(run);
        }
        let [Some(x), Some(y)] = pair else {
            unreachable!("both sides ran")
        };
        runs.push([x, y]);
    }
    let _ = std::fs::write(a.work.join("runs.jsonl"), jsonl);
    let mut traced = Vec::new();
    if a.counts {
        for (side, bin) in bins.iter().enumerate() {
            let log = a
                .work
                .join(format!("run-{}-{}-trace.log", a.seed, labels[side]));
            eprintln!("pairs: traced run, seed {}: {}", a.seed, labels[side]);
            traced.push(one_run(bin, &a.workload, a.seed, seconds, true, &log)?);
        }
    }

    let mut out = String::new();
    let commits = format!(
        "{} {} vs {} {}",
        labels[0], a.sides[0].1, labels[1], a.sides[1].1
    );
    let _ = writeln!(
        out,
        "workload {}: {} pairs × {seconds} s, seeds {}–{}, {commits}",
        a.workload,
        a.pairs,
        a.seed,
        a.seed + a.pairs as u64 - 1
    );
    for (i, pair) in runs.iter().enumerate() {
        for (side, run) in pair.iter().enumerate() {
            if !run.faults.is_empty() {
                let seed = a.seed + i as u64;
                let faults = run.faults.join("; ");
                let _ = writeln!(out, "FAULT: seed {seed}, {}: {faults}", labels[side]);
            }
        }
    }
    for (side, run) in traced.iter().enumerate() {
        if !run.faults.is_empty() {
            let faults = run.faults.join("; ");
            let _ = writeln!(out, "FAULT: traced run, {}: {faults}", labels[side]);
        }
    }
    let segs = |side: usize| -> Vec<f64> {
        runs.iter()
            .filter_map(|p| p[side].out_segs_per_req)
            .collect()
    };
    let _ = writeln!(
        out,
        "TCP OutSegs per attempted request (machine-wide, /proc/net/snmp): {} {} → {} {}",
        labels[0],
        fmt(stats::median(&segs(0))),
        labels[1],
        fmt(stats::median(&segs(1)))
    );
    for m in &bench.end_to_end {
        let pairs: Vec<(f64, f64)> = runs
            .iter()
            .filter_map(|[x, y]| Some((x.metric(&m.name)?, y.metric(&m.name)?)))
            .collect();
        if pairs.len() < runs.len() {
            let missing = runs.len() - pairs.len();
            let _ = writeln!(out, "{}: {missing} pairs lack this metric", m.name);
        }
        if !pairs.is_empty() {
            let _ = report_metric(labels, m, &pairs, &mut out);
        }
    }
    if let [base, change] = &traced[..] {
        let _ = report_counts(labels, a.seed, &bench.per_layer, [base, change], &mut out);
    }
    print!("{out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_segs_is_read_by_column_name() {
        let snmp = "Ip: Forwarding DefaultTTL\nIp: 1 64\n\
                    Tcp: RtoAlgorithm RtoMin OutSegs RetransSegs\nTcp: 1 200 123456 7\n\
                    Udp: InDatagrams\nUdp: 5\n";
        assert_eq!(out_segs_of(snmp), Some(123_456.0));
        assert_eq!(out_segs_of("Tcp: A B\nTcp: 1 2\n"), None);
    }

    #[test]
    fn args_take_two_commits_or_one_with_aa() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload miss_helper --pairs 4 --seed 9 main HEAD")).unwrap();
        assert_eq!(
            (a.pairs, a.seed, a.workload.as_str()),
            (4, 9, "miss_helper")
        );
        assert_eq!(a.sides[1], ("change".to_string(), "HEAD".to_string()));
        let a = parse_args(&v("--workload cached_small --aa HEAD")).unwrap();
        assert_eq!(a.sides.map(|s| s.1), ["HEAD", "HEAD"]);
        assert!(parse_args(&v("--workload x HEAD")).is_err());
        assert!(parse_args(&v("--workload x --aa HEAD main")).is_err());
        assert!(parse_args(&v("main HEAD")).is_err());
        assert!(parse_args(&v("--workload x --pairs 0 a b")).is_err());
        assert!(!parse_args(&v("--workload x a b")).unwrap().counts);
        assert!(parse_args(&v("--workload x --counts a b")).unwrap().counts);
    }

    #[test]
    fn the_benchmark_file_gives_both_metric_lists() {
        let text = r#"{"run_seconds": 24, "paths": ["loadbench"],
            "end_to_end": [{"name": "rps", "unit": "1/s", "better": "higher", "bound": 0.17}],
            "per_layer": [
                {"name": "server.sendfile_per_req", "unit": "1/req", "better": "lower"},
                {"name": "cache.hit_ratio", "unit": "ratio", "better": "higher"}
            ]}"#;
        let b = benchmark_of(text).unwrap();
        assert_eq!(b.run_seconds, 24.0);
        assert_eq!(b.end_to_end.len(), 1);
        assert!(b.end_to_end[0].higher_is_better);
        let layer = |n: &str, u: &str| (n.to_string(), u.to_string());
        assert_eq!(
            b.per_layer,
            [
                layer("server.sendfile_per_req", "1/req"),
                layer("cache.hit_ratio", "ratio")
            ]
        );
        assert!(benchmark_of(r#"{"run_seconds": 1, "end_to_end": []}"#).is_err());
        let no_unit = r#"{"run_seconds": 1, "end_to_end": [], "per_layer": [{"name": "x"}]}"#;
        assert!(benchmark_of(no_unit).is_err());
    }

    #[test]
    fn the_counts_block_puts_one_run_of_each_side_side_by_side() {
        let run = |v: f64| Run {
            metrics: vec![("cache.hit_ratio".to_string(), v)],
            faults: Vec::new(),
            attempted: 1.0,
            out_segs_per_req: None,
        };
        let layers = [
            ("cache.hit_ratio".to_string(), "ratio".to_string()),
            ("server.sendfile_per_req".to_string(), "1/req".to_string()),
        ];
        let mut out = String::new();
        let (base, change) = (run(0.0615), run(0.0621));
        report_counts(["base", "change"], 7, &layers, [&base, &change], &mut out).unwrap();
        assert!(out.starts_with("per layer: one --trace run of each side, seed 7 (single runs"));
        assert!(
            out.contains("base     0.0615  change     0.0621  ratio"),
            "{out}"
        );
        assert!(
            out.contains("base          -  change          -  1/req"),
            "{out}"
        );
    }

    #[test]
    fn a_report_counts_wins_by_the_metrics_direction() {
        let m = Metric {
            name: "cpu_us_per_req".to_string(),
            unit: "us".to_string(),
            higher_is_better: false,
            bound: 0.25,
        };
        let pairs = [(10.0, 9.0), (12.0, 10.0), (11.0, 11.5)];
        let mut out = String::new();
        report_metric(["base", "change"], &m, &pairs, &mut out).unwrap();
        assert!(
            out.contains("change won 2/3 pairs (1 lost, 0 tied)"),
            "{out}"
        );
        assert!(
            out.contains("per pair change/base: 0.900 0.833 1.045"),
            "{out}"
        );
        assert!(out.contains("worst pair 4.5% worse (bound 25%)"), "{out}");
    }
}
