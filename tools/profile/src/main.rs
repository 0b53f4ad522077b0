//! `profile`: where one benchmark run's CPU time goes, as one command.
//!
//! ```text
//! profile --workload <name> [--seed s] [--seconds t] [--bin path] [--sample] [--period-us p] [--top n]
//! ```
//!
//! Runs one `flash-loadbench` build (`--bin`, by default the one
//! `cargo build --release --manifest-path loadbench/Cargo.toml` makes)
//! on one workload, waits for it, and leaves no process behind. While
//! it runs, every thread's user and system clock ticks are read from
//! `/proc/<pid>/task/*/stat` every 50 ms — each round of a run starts a
//! new server, whose threads come and go — and summed by thread name:
//! a thread's time is its last reading, so each loses at most its last
//! 50 ms.
//!
//! With `--sample`, each `flash-shard*` thread gets a software
//! task-clock event in user mode only (`perf_event_open(2)`, which a
//! process may open on its own children at `perf_event_paranoid` 2),
//! sampling the instruction pointer every `--period-us` of the
//! thread's CPU time; the addresses are folded by function through
//! `nm` and `readelf` on the binary, and by mapping name (`[vdso]`,
//! `libc.so.6`) elsewhere. Kernel time is not sampled: it is the
//! ticks table's system column.

mod perf;
mod procfs;
mod symbols;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use procfs::TaskTimes;

struct Args {
    bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    sample: bool,
    period_us: u64,
    top: usize,
}

fn usage() -> &'static str {
    "usage: profile --workload <name> [--seed s] [--seconds t] [--bin path] [--sample] \
     [--period-us p] [--top n]"
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        bin: PathBuf::from("loadbench/target/release/flash-loadbench"),
        workload: String::new(),
        seed: 1,
        seconds: None,
        sample: false,
        period_us: 100,
        top: 25,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = value()?,
            "--bin" => a.bin = PathBuf::from(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--period-us" => {
                a.period_us = value()?.parse().map_err(|e| format!("--period-us: {e}"))?
            }
            "--top" => a.top = value()?.parse().map_err(|e| format!("--top: {e}"))?,
            "--sample" => a.sample = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("name a --workload".to_string());
    }
    if a.period_us == 0 {
        return Err("--period-us must be at least 1".to_string());
    }
    Ok(a)
}

/// The benchmark process: killed and reaped if the profile ends first.
struct Bench(Child);

impl Drop for Bench {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// What the run's threads did, by name.
#[derive(Default)]
struct Ledger {
    /// Each thread's last reading, by thread id.
    last: HashMap<u32, TaskTimes>,
}

impl Ledger {
    fn record(&mut self, tid: u32, times: TaskTimes) {
        self.last.insert(tid, times);
    }

    /// (name, threads, user ticks, system ticks), most CPU first.
    fn by_name(&self) -> Vec<(String, usize, u64, u64)> {
        let mut names: HashMap<&str, (usize, u64, u64)> = HashMap::new();
        for t in self.last.values() {
            let e = names.entry(&t.name).or_default();
            *e = (e.0 + 1, e.1 + t.user, e.2 + t.system);
        }
        let mut rows: Vec<_> = names
            .into_iter()
            .map(|(name, (n, user, system))| (name.to_string(), n, user, system))
            .collect();
        rows.sort_by(|a, b| (b.2 + b.3).cmp(&(a.2 + a.3)).then(a.0.cmp(&b.0)));
        rows
    }
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        return 0.0;
    }
    100.0 * part as f64 / whole as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|a| profile(&a));
    if let Err(e) = result {
        eprintln!("profile: {e}\n{}", usage());
        std::process::exit(2);
    }
}

fn profile(a: &Args) -> Result<(), String> {
    let bin = a
        .bin
        .canonicalize()
        .map_err(|e| format!("{}: {e} (build loadbench first)", a.bin.display()))?;
    let symbols = match a.sample {
        true => Some(symbols::Symbols::of(&bin)?),
        false => None,
    };
    let mut cmd = Command::new(&bin);
    cmd.args(["--workload", &a.workload, "--seed", &a.seed.to_string()]);
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    let child = cmd
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let mut bench = Bench(child);
    let pid = bench.0.id();
    let bin_path = bin.display().to_string();

    let mut ledger = Ledger::default();
    let mut samplers: HashMap<u32, perf::Sampler> = HashMap::new();
    let mut refused: Option<String> = None;
    let (mut ips, mut maps) = (Vec::new(), Vec::new());
    let mut folded: HashMap<String, u64> = HashMap::new();
    let status = loop {
        for (tid, times) in procfs::tasks(pid) {
            let shard = times.name.starts_with("flash-shard");
            if a.sample && shard && refused.is_none() && !samplers.contains_key(&tid) {
                match perf::Sampler::open(tid, a.period_us * 1_000) {
                    Ok(s) => {
                        samplers.insert(tid, s);
                    }
                    Err(e) => refused = Some(format!("perf_event_open on thread {tid}: {e}")),
                }
            }
            ledger.record(tid, times);
        }
        for s in samplers.values_mut() {
            s.drain(&mut ips);
        }
        if let (false, Some(symbols)) = (ips.is_empty(), &symbols) {
            if let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/maps")) {
                maps = procfs::parse_maps(&text);
            }
            for ip in ips.drain(..) {
                *folded
                    .entry(symbols::fold(ip, &maps, &bin_path, symbols))
                    .or_default() += 1;
            }
        }
        match bench.0.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => return Err(format!("waiting for the benchmark: {e}")),
        }
    };
    // Samples of the last interval are still in the rings; the process
    // is gone, so they fold against its last maps.
    for s in samplers.values_mut() {
        s.drain(&mut ips);
    }
    if let Some(symbols) = &symbols {
        for ip in ips.drain(..) {
            *folded
                .entry(symbols::fold(ip, &maps, &bin_path, symbols))
                .or_default() += 1;
        }
    }
    drop(samplers);

    println!(
        "\nworkload {}, seed {}: {} {}",
        a.workload,
        a.seed,
        bin.display(),
        status
    );
    println!("CPU time by thread name (clock ticks; each thread's last 50 ms reading):");
    println!(
        "{:<24} {:>7} {:>9} {:>9} {:>11}",
        "thread", "threads", "user", "system", "user share"
    );
    let rows = ledger.by_name();
    for (name, n, user, system) in &rows {
        let share = percent(*user, user + system);
        println!("{name:<24} {n:>7} {user:>9} {system:>9} {share:>10.1}%");
    }
    if a.sample {
        if let Some(why) = &refused {
            println!("sampling refused: {why}");
        }
        let total: u64 = folded.values().sum();
        println!(
            "\nuser-mode samples of the flash-shard* threads, one per {} µs of their CPU time: {total}",
            a.period_us
        );
        let mut top: Vec<(&String, &u64)> = folded.iter().collect();
        top.sort_by(|x, y| y.1.cmp(x.1).then(x.0.cmp(y.0)));
        for (name, n) in top.into_iter().take(a.top) {
            println!("{:>6.1}% {n:>8}  {name}", percent(*n, total));
        }
    }
    match status.success() {
        true => Ok(()),
        false => Err(format!("the benchmark exited with {status}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(name: &str, user: u64, system: u64) -> TaskTimes {
        TaskTimes {
            name: name.into(),
            user,
            system,
        }
    }

    #[test]
    fn threads_sum_by_name_and_keep_their_last_reading() {
        let mut l = Ledger::default();
        l.record(10, times("flash-shard-0", 5, 1));
        l.record(10, times("flash-shard-0", 50, 20));
        l.record(11, times("flash-helper-0", 1, 1));
        // The next round's shard: a new thread under the same name.
        l.record(12, times("flash-shard-0", 30, 10));
        let rows = l.by_name();
        assert_eq!(rows[0], ("flash-shard-0".to_string(), 2, 80, 30));
        assert_eq!(rows[1], ("flash-helper-0".to_string(), 1, 1, 1));
        assert_eq!(percent(80, 110).round(), 73.0);
        assert_eq!(percent(1, 0), 0.0);
    }

    #[test]
    fn args_need_a_workload_and_take_the_flags() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--sample")).is_err());
        let a = parse_args(&args(
            "--workload dynamic_small --seed 801 --sample --top 5",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.sample, a.top),
            ("dynamic_small", 801, true, 5)
        );
        assert!(parse_args(&args("--workload x --period-us 0")).is_err());
        assert!(parse_args(&args("--workload x --bogus")).is_err());
    }
}
