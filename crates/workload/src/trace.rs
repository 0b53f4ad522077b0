//! Trace workloads: the paper's CS / Owlnet / ECE logs, synthesized.
//!
//! The original Rice University access logs are not public. Each preset
//! reproduces the properties the paper's analysis depends on:
//!
//! * **CS** (§6.2, Fig. 8): departmental server, large dataset (exceeds
//!   the 128 MB server memory → disk-bound), larger average transfers.
//! * **Owlnet** (§6.2, Fig. 8): student-pages server, smaller dataset
//!   (fits in cache → high locality), smaller average transfers.
//! * **ECE** (§6.2, Figs. 9/10/12): used truncated to a target dataset
//!   size, exactly like the paper ("we use the access logs ... and
//!   truncate them as appropriate to achieve a given dataset size").
//!
//! A [`Trace`] can round-trip through Common Log Format, so the replay
//! pipeline exercises the same code a user would run on real logs.

use std::collections::HashMap;
use std::fmt::Write as _;

use flash_simcore::SimRng;

use crate::sitegen::{generate_files, FileSpec, SizeDist};
use crate::zipf::Zipf;

/// One NCSA Common Log Format entry — `host ident user [timestamp]
/// "request line" status bytes` — with the fields replay cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Client host (opaque).
    pub host: String,
    /// Request path (from the quoted request line).
    pub path: String,
    /// HTTP status code served.
    pub status: u16,
    /// Response body size in bytes.
    pub bytes: u64,
}

impl LogEntry {
    /// Renders the entry as one CLF line (fixed timestamp — replay
    /// ignores it, and determinism helps tests).
    pub fn to_line(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{} - - [10/Jun/1999:18:46:32 -0600] \"GET {} HTTP/1.0\" {} {}",
            self.host, self.path, self.status, self.bytes
        );
        s
    }

    /// Parses one CLF line. Returns `None` for malformed lines (real logs
    /// contain them; replay skips silently, like the paper's tools).
    pub fn parse(line: &str) -> Option<LogEntry> {
        let host = line.split_whitespace().next()?.to_string();
        let q1 = line.find('"')?;
        let rest = &line[q1 + 1..];
        let q2 = rest.find('"')?;
        let request_line = &rest[..q2];
        let path = request_line.split_whitespace().nth(1)?.to_string();
        let tail = rest[q2 + 1..].trim();
        let mut tail_parts = tail.split_whitespace();
        let status: u16 = tail_parts.next()?.parse().ok()?;
        let bytes: u64 = match tail_parts.next()? {
            "-" => 0,
            n => n.parse().ok()?,
        };
        Some(LogEntry {
            host,
            path,
            status,
            bytes,
        })
    }
}

/// Parameters of a synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Trace name (report label).
    pub name: &'static str,
    /// Total bytes across distinct files.
    pub dataset_bytes: u64,
    /// Zipf skew of request popularity.
    pub zipf_alpha: f64,
    /// File-size distribution.
    pub sizes: SizeDist,
    /// Length of the generated request log.
    pub n_requests: usize,
}

impl TraceConfig {
    /// Rice CS departmental trace: big dataset, bigger transfers.
    pub fn cs() -> Self {
        TraceConfig {
            name: "CS",
            dataset_bytes: 200 * 1024 * 1024,
            zipf_alpha: 0.72,
            sizes: SizeDist {
                body_median: 9_000.0,
                tail_fraction: 0.06,
                ..SizeDist::default()
            },
            n_requests: 200_000,
        }
    }

    /// Rice Owlnet trace: small dataset, high locality, small transfers.
    pub fn owlnet() -> Self {
        TraceConfig {
            name: "Owlnet",
            dataset_bytes: 36 * 1024 * 1024,
            zipf_alpha: 0.95,
            sizes: SizeDist {
                body_median: 4_500.0,
                tail_fraction: 0.025,
                ..SizeDist::default()
            },
            n_requests: 200_000,
        }
    }

    /// Rice ECE trace: the base log truncated for the dataset sweeps.
    pub fn ece() -> Self {
        TraceConfig {
            name: "ECE",
            dataset_bytes: 180 * 1024 * 1024,
            zipf_alpha: 0.78,
            sizes: SizeDist::default(),
            n_requests: 300_000,
        }
    }
}

/// A workload: a file set plus a request log (tokens indexing the files).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Distinct files.
    pub specs: Vec<FileSpec>,
    /// Request log: each entry is an index into `specs`.
    pub requests: Vec<u64>,
}

impl Trace {
    /// Synthesizes a trace from a config, deterministically per seed.
    pub fn generate(cfg: &TraceConfig, seed: u64) -> Trace {
        let mut rng = SimRng::new(seed);
        let specs = generate_files(&mut rng, cfg.dataset_bytes, &cfg.sizes);
        // Assign popularity ranks to files in shuffled order so that
        // popularity and size are independent (rank 0 is not always the
        // first-generated file).
        let n = specs.len();
        let mut perm: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            let j = rng.uniform(0, (i + 1) as u64) as usize;
            perm.swap(i, j);
        }
        let zipf = Zipf::new(n, cfg.zipf_alpha);
        let requests = (0..cfg.n_requests)
            .map(|_| perm[zipf.sample(&mut rng)])
            .collect();
        Trace { specs, requests }
    }

    /// A trivial single-file workload (the Figure 6/7 test).
    pub fn single_file(size: u64) -> Trace {
        Trace {
            specs: vec![FileSpec::file("/docs/test/file.html", size)],
            requests: vec![0],
        }
    }

    /// Total bytes across distinct files *touched by the request log*
    /// (the paper's notion of dataset size for a truncated log).
    pub fn dataset_bytes(&self) -> u64 {
        let mut seen = vec![false; self.specs.len()];
        let mut total = 0;
        for &r in &self.requests {
            if !seen[r as usize] {
                seen[r as usize] = true;
                total += self.specs[r as usize].size;
            }
        }
        total
    }

    /// Mean response body size over the request log.
    pub fn mean_transfer_bytes(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .requests
            .iter()
            .map(|&r| self.specs[r as usize].size)
            .sum();
        total as f64 / self.requests.len() as f64
    }

    /// The paper's truncation methodology: keep the log prefix whose
    /// distinct files total `target_bytes`, drop every later request to a
    /// file outside that set, and shrink the file set accordingly.
    pub fn truncate_to_dataset(&self, target_bytes: u64) -> Trace {
        let mut keep = vec![false; self.specs.len()];
        let mut total = 0u64;
        for &r in &self.requests {
            let i = r as usize;
            if !keep[i] {
                if total + self.specs[i].size > target_bytes && total > 0 {
                    continue;
                }
                keep[i] = true;
                total += self.specs[i].size;
                if total >= target_bytes {
                    break;
                }
            }
        }
        // Remap kept files to dense tokens.
        let mut remap: HashMap<u64, u64> = HashMap::new();
        let mut specs = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            if keep[i] {
                remap.insert(i as u64, specs.len() as u64);
                specs.push(spec.clone());
            }
        }
        let requests = self
            .requests
            .iter()
            .filter_map(|r| remap.get(r).copied())
            .collect();
        Trace { specs, requests }
    }

    /// Renders the request log in Common Log Format.
    pub fn to_clf(&self) -> String {
        let mut out = String::new();
        for (i, &r) in self.requests.iter().enumerate() {
            let f = &self.specs[r as usize];
            let e = LogEntry {
                host: format!("client{}.rice.edu", i % 64),
                path: f.path.clone(),
                status: 200,
                bytes: f.size,
            };
            out.push_str(&e.to_line());
            out.push('\n');
        }
        out
    }

    /// Reconstructs a trace from a CLF log: distinct paths become files
    /// (sized by the largest logged transfer for that path), lines become
    /// requests. Malformed lines are skipped, like real log tooling.
    pub fn from_clf(text: &str) -> Trace {
        let mut specs: Vec<FileSpec> = Vec::new();
        let mut index: HashMap<String, u64> = HashMap::new();
        let mut requests = Vec::new();
        for entry in text.lines().filter_map(LogEntry::parse) {
            let token = *index.entry(entry.path.clone()).or_insert_with(|| {
                specs.push(FileSpec::file(entry.path.clone(), entry.bytes));
                (specs.len() - 1) as u64
            });
            let f = &mut specs[token as usize];
            f.size = f.size.max(entry.bytes);
            requests.push(token);
        }
        Trace { specs, requests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_trace_matches_config() {
        let cfg = TraceConfig {
            dataset_bytes: 5 * 1024 * 1024,
            n_requests: 10_000,
            ..TraceConfig::owlnet()
        };
        let t = Trace::generate(&cfg, 42);
        assert_eq!(t.requests.len(), 10_000);
        let total: u64 = t.specs.iter().map(|s| s.size).sum();
        assert!(total >= 5 * 1024 * 1024);
        for &r in &t.requests {
            assert!((r as usize) < t.specs.len());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TraceConfig {
            dataset_bytes: 1024 * 1024,
            n_requests: 1000,
            ..TraceConfig::cs()
        };
        assert_eq!(Trace::generate(&cfg, 7), Trace::generate(&cfg, 7));
    }

    #[test]
    fn popularity_is_skewed() {
        let cfg = TraceConfig {
            dataset_bytes: 8 * 1024 * 1024,
            n_requests: 50_000,
            ..TraceConfig::owlnet()
        };
        let t = Trace::generate(&cfg, 1);
        let mut counts = vec![0u64; t.specs.len()];
        for &r in &t.requests {
            counts[r as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = counts.iter().take(counts.len() / 10).sum();
        let total: u64 = counts.iter().sum();
        assert!(
            top10 as f64 > total as f64 * 0.45,
            "top 10% of files got {top10}/{total}"
        );
    }

    #[test]
    fn truncation_hits_target_and_stays_consistent() {
        let cfg = TraceConfig {
            dataset_bytes: 20 * 1024 * 1024,
            n_requests: 30_000,
            ..TraceConfig::ece()
        };
        let base = Trace::generate(&cfg, 3);
        for target in [2u64, 5, 10].map(|m| m * 1024 * 1024) {
            let t = base.truncate_to_dataset(target);
            let ds = t.dataset_bytes();
            assert!(
                ds <= target + SizeDist::default().max_bytes && ds > target / 2,
                "target {target}, got {ds}"
            );
            for &r in &t.requests {
                assert!((r as usize) < t.specs.len());
            }
            assert!(!t.requests.is_empty());
        }
    }

    #[test]
    fn truncation_is_monotone_in_target() {
        let cfg = TraceConfig {
            dataset_bytes: 20 * 1024 * 1024,
            n_requests: 20_000,
            ..TraceConfig::ece()
        };
        let base = Trace::generate(&cfg, 4);
        let mut last = 0;
        for target in (2..=18).map(|m| m as u64 * 1024 * 1024) {
            let ds = base.truncate_to_dataset(target).dataset_bytes();
            assert!(ds >= last, "dataset shrank: {last} -> {ds}");
            last = ds;
        }
    }

    #[test]
    fn clf_round_trip_preserves_request_stream() {
        let cfg = TraceConfig {
            dataset_bytes: 1024 * 1024,
            n_requests: 2_000,
            ..TraceConfig::cs()
        };
        let t = Trace::generate(&cfg, 5);
        let back = Trace::from_clf(&t.to_clf());
        assert_eq!(back.requests.len(), t.requests.len());
        // Token numbering may differ, but the path sequence must match.
        for (a, b) in t.requests.iter().zip(&back.requests) {
            assert_eq!(t.specs[*a as usize].path, back.specs[*b as usize].path);
            assert_eq!(t.specs[*a as usize].size, back.specs[*b as usize].size);
        }
    }

    #[test]
    fn log_entry_round_trips() {
        let e = LogEntry {
            host: "cs.rice.edu".into(),
            path: "/~vivek/flash.html".into(),
            status: 200,
            bytes: 10_240,
        };
        let parsed = LogEntry::parse(&e.to_line()).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn log_entry_parses_dash_bytes_as_zero() {
        let line = "dialup42 - - [10/Jun/1999:00:00:00 -0600] \"GET /x HTTP/1.0\" 304 -";
        let e = LogEntry::parse(line).unwrap();
        assert_eq!(e.status, 304);
        assert_eq!(e.bytes, 0);
    }

    #[test]
    fn malformed_log_lines_yield_none() {
        assert!(LogEntry::parse("").is_none());
        assert!(LogEntry::parse("no quotes here 200 77").is_none());
        assert!(LogEntry::parse("h - - [t] \"GET\" 200 1").is_none());
        assert!(LogEntry::parse("h - - [t] \"GET /x HTTP/1.0\" twohundred 1").is_none());
    }

    #[test]
    fn from_clf_skips_garbage() {
        let text = "\
a - - [t] \"GET /1 HTTP/1.0\" 200 10
garbage line
b - - [t] \"GET /2 HTTP/1.0\" 404 0";
        let t = Trace::from_clf(text);
        assert_eq!(t.requests, vec![0, 1]);
        assert_eq!((t.specs[0].path.as_str(), t.specs[0].size), ("/1", 10));
        assert_eq!(t.specs[1].path, "/2");
    }

    #[test]
    fn presets_have_the_papers_relationships() {
        let cs = TraceConfig::cs();
        let owl = TraceConfig::owlnet();
        assert!(cs.dataset_bytes > owl.dataset_bytes, "CS is disk-bound");
        assert!(owl.zipf_alpha > cs.zipf_alpha, "Owlnet has higher locality");
        assert!(
            cs.sizes.body_median > owl.sizes.body_median,
            "CS has larger transfers"
        );
    }

    #[test]
    fn single_file_trace() {
        let t = Trace::single_file(100_000);
        assert_eq!(t.specs.len(), 1);
        assert_eq!(t.dataset_bytes(), 100_000);
        assert_eq!(t.mean_transfer_bytes(), 100_000.0);
    }
}
