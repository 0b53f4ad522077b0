//! The six workloads and the seeded inputs each one offers. Five are
//! in `BENCHMARK.json`; `large_sendfile` runs from the command line
//! only ([`Workload::gated`]).
//!
//! A workload fixes the server architecture and configuration, the
//! shape of the docroot, the popularity law, the traffic kind and the
//! open-phase rate. `--seed` fixes everything random: which file name
//! has which popularity rank, every file byte, and the request
//! sequence. The server only ever sees the generated docroot and the
//! generated requests — never a workload name or a seed.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use flash_net::{BackendChoice, NetConfig, ServerKind};
use flash_simcore::SimRng;
use flash_workload::Zipf;

/// How requests ride connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// HTTP/1.1 GETs on persistent connections.
    KeepAlive,
    /// HTTP/1.0: connect, one GET, read to EOF, close.
    Churn,
    /// Keep-alive GETs under `/app/`, answered by the worker pool as
    /// chunked bodies.
    Dynamic,
}

/// Popularity law over the targets.
#[derive(Clone, Copy, Debug)]
pub enum Popularity {
    Zipf(f64),
    Uniform,
}

pub struct Workload {
    pub name: &'static str,
    /// Why this workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub arch: ServerKind,
    pub traffic: Traffic,
    /// Static files in the docroot and their size range in bytes.
    pub files: usize,
    pub size_range: (u64, u64),
    pub popularity: Popularity,
    /// Content-cache budget; `None` keeps the server default (64 MiB).
    pub cache_bytes: Option<u64>,
    /// Open-phase arrival rate, requests (connections on `conn_churn`)
    /// per second. Kept at or below 40% of the closed-phase `rps`
    /// measured on the 2-core reference box, so the open phase
    /// measures latency under load rather than a queue.
    pub open_rate: f64,
    /// Whether `BENCHMARK.json` lists it, so that later changes are
    /// held to its numbers. `large_sendfile` is not: on the shared
    /// reference box its server CPU per request sits at either ≈ 130 µs
    /// or ≈ 190 µs for seconds to minutes on end (every other workload
    /// moves by at most 1.3× between the same two states), so the same
    /// code spread `p50_us` by 29% over ten runs, past any bound the
    /// contract allows. README.md has the slice series.
    pub gated: bool,
}

const KIB: u64 = 1024;

/// Requests in the cyclic request sequence.
pub const SEQ_LEN: usize = 1 << 16;
/// Distinct `/app/<id>` paths on the dynamic workload.
pub const DYNAMIC_IDS: usize = 1024;
/// Bytes in every dynamic response body.
pub const DYNAMIC_BODY: usize = 1024;
/// One response in this many is compared byte for byte after warm-up.
pub const SAMPLE_ONE_IN: u64 = 64;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "cached_small",
        why: "AMPED fast path: Zipf(1) keep-alive GETs over 64 cache-resident files of 1-16 KiB; open phase 40000 req/s; sensitivity: a 2 us wait in plan_response fails rps (-19.5%) but not cpu_us_per_req (+17.8%)",
        arch: ServerKind::Amped,
        traffic: Traffic::KeepAlive,
        files: 64,
        size_range: (KIB, 16 * KIB),
        popularity: Popularity::Zipf(1.0),
        cache_bytes: None,
        open_rate: 40_000.0,
        gated: true,
    },
    Workload {
        name: "cached_small_mt",
        why: "the identical request stream against the thread-per-connection MT server: the paper's AMPED-vs-MT comparison on resident data; open phase 14000 req/s",
        arch: ServerKind::Mt,
        traffic: Traffic::KeepAlive,
        files: 64,
        size_range: (KIB, 16 * KIB),
        popularity: Popularity::Zipf(1.0),
        cache_bytes: None,
        open_rate: 14_000.0,
        gated: true,
    },
    Workload {
        name: "miss_helper",
        why: "uniform GETs over 2000 x 8 KiB files against a 1 MiB content cache: most requests leave the fast path for the helper hand-off (files stay in the OS page cache); open phase 16000 req/s",
        arch: ServerKind::Amped,
        traffic: Traffic::KeepAlive,
        files: 2000,
        size_range: (8 * KIB, 8 * KIB),
        popularity: Popularity::Uniform,
        cache_bytes: Some(1024 * KIB),
        open_rate: 16_000.0,
        gated: true,
    },
    Workload {
        name: "large_sendfile",
        why: "keep-alive GETs of one 1 MiB file above the sendfile threshold: per-byte cost dominates, per-request optimisations predict no change; open phase 3000 req/s",
        arch: ServerKind::Amped,
        traffic: Traffic::KeepAlive,
        files: 1,
        size_range: (1024 * KIB, 1024 * KIB),
        popularity: Popularity::Uniform,
        cache_bytes: None,
        open_rate: 3_000.0,
        gated: false,
    },
    Workload {
        name: "conn_churn",
        why: "HTTP/1.0, one request per connection on the cached_small files (the paper's default traffic): accept, register, arm, close dominate; open phase 13000 conn/s",
        arch: ServerKind::Amped,
        traffic: Traffic::Churn,
        files: 64,
        size_range: (KIB, 16 * KIB),
        popularity: Popularity::Zipf(1.0),
        cache_bytes: None,
        open_rate: 13_000.0,
        gated: true,
    },
    Workload {
        name: "dynamic_small",
        why: "keep-alive GETs under /app/ relayed from persistent workers as 1 KiB chunked bodies: worker checkout, frame read, chunked encode; static-path changes predict no change; open phase 15000 req/s",
        arch: ServerKind::Amped,
        traffic: Traffic::Dynamic,
        files: 1,
        size_range: (KIB, KIB),
        popularity: Popularity::Uniform,
        cache_bytes: None,
        open_rate: 15_000.0,
        gated: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The server configuration: one event loop (the generator owns
    /// the other core), epoll pinned so an environment override cannot
    /// change what is measured, everything else as shipped.
    pub fn net_config(&self, root: &Path, worker_cmd: Vec<String>) -> NetConfig {
        let mut b = NetConfig::builder(root)
            .event_loops(1)
            .backend(BackendChoice::Epoll);
        if let Some(bytes) = self.cache_bytes {
            b = b.cache_bytes(bytes);
        }
        if self.traffic == Traffic::Dynamic {
            b = b.dynamic_prefix("/app/").dynamic_command(worker_cmd);
        }
        b.build().expect("workload server configs are consistent")
    }
}

/// One thing a request can ask for, with the exact bytes to send and
/// the exact body to expect back.
pub struct Target {
    pub path: String,
    pub request: Vec<u8>,
    pub body: Vec<u8>,
}

/// Everything generated from (workload, seed).
pub struct Site {
    pub root: PathBuf,
    /// The static files first (`n_static` of them), then — on the
    /// dynamic workload — the `/app/` paths.
    pub targets: Vec<Target>,
    pub n_static: usize,
    /// First target a request may name: the dynamic workload's static
    /// file only gives the docroot something to hold.
    pub first_requested: usize,
    /// Cyclic request sequence: indices into `targets`.
    pub sequence: Vec<u32>,
    /// Per sequence position: compare this response byte for byte.
    pub sampled: Vec<bool>,
    /// FNV-1a over the request bytes of one full cycle, so two runs
    /// provably offered the same inputs.
    pub seq_hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fills `out` from a xorshift64* stream — fast, and a pure function
/// of `state`.
fn fill_bytes(mut state: u64, out: &mut [u8]) {
    state |= 1;
    for chunk in out.chunks_mut(8) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let word = state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// The body the `--worker` mode answers for `path`: a function of the
/// path alone, so the generator can check it without the worker ever
/// learning a seed.
pub fn worker_body(path: &str) -> Vec<u8> {
    let mut body = vec![0u8; DYNAMIC_BODY];
    fill_bytes(fnv1a(FNV_OFFSET, path.as_bytes()), &mut body);
    body
}

/// Body size of the file at popularity `rank`: the KiB steps of the
/// workload's range, visited in a fixed stride. A function of the
/// rank, not of the seed — under Zipf the few top ranks carry most of
/// the bytes, so seeded sizes would move `mib_per_s` by tens of
/// percent from seed to seed and no bound could tell that from a
/// regression. The seed still decides which file *name* has which
/// rank, every body byte, and the request order.
pub fn size_of_rank(w: &Workload, rank: usize) -> u64 {
    let (lo, hi) = w.size_range;
    let steps = (hi - lo) / KIB + 1;
    lo + (rank as u64 * 5 % steps) * KIB
}

fn request_bytes(path: &str, traffic: Traffic) -> Vec<u8> {
    match traffic {
        Traffic::Churn => format!("GET {path} HTTP/1.0\r\n\r\n"),
        Traffic::KeepAlive | Traffic::Dynamic => {
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")
        }
    }
    .into_bytes()
}

/// Generates the inputs for `(workload, seed)` in memory: file sizes
/// and bytes, the request sequence, the comparison sample.
pub fn generate(w: &Workload, seed: u64, root: PathBuf) -> Site {
    let mut rng = SimRng::new(seed);
    // Which name carries which popularity rank is seeded; the size of
    // each rank is not (see `size_of_rank`).
    let mut names: Vec<usize> = (0..w.files).collect();
    for i in (1..names.len()).rev() {
        names.swap(i, rng.uniform(0, i as u64 + 1) as usize);
    }
    let mut files: Vec<Target> = names
        .iter()
        .enumerate()
        .map(|(rank, name)| {
            let mut body = vec![0u8; size_of_rank(w, rank) as usize];
            fill_bytes(rng.uniform(1, u64::MAX), &mut body);
            let path = format!("/f{name:05}.html");
            Target {
                request: request_bytes(&path, w.traffic),
                path,
                body,
            }
        })
        .collect();
    let mut first = 0;
    if w.traffic == Traffic::Dynamic {
        first = files.len();
        files.extend((0..DYNAMIC_IDS).map(|_| {
            let path = format!("/app/{:08x}", rng.uniform(0, 1 << 32));
            Target {
                request: request_bytes(&path, w.traffic),
                body: worker_body(&path),
                path,
            }
        }));
    }
    let targets = files;
    let n = targets.len() - first;
    let zipf = match w.popularity {
        Popularity::Zipf(alpha) => Some(Zipf::new(n, alpha)),
        Popularity::Uniform => None,
    };
    let sequence: Vec<u32> = (0..SEQ_LEN)
        .map(|_| {
            let rank = match &zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.uniform(0, n as u64) as usize,
            };
            (first + rank) as u32
        })
        .collect();
    let sampled = (0..SEQ_LEN)
        .map(|_| rng.uniform(0, SAMPLE_ONE_IN) == 0)
        .collect();
    let seq_hash = sequence
        .iter()
        .fold(FNV_OFFSET, |h, &t| fnv1a(h, &targets[t as usize].request));
    Site {
        root,
        n_static: w.files,
        first_requested: first,
        targets,
        sequence,
        sampled,
        seq_hash,
    }
}

impl Site {
    /// Indices of the targets a request may name; warm-up fetches
    /// each once.
    pub fn requested_targets(&self) -> std::ops::Range<u32> {
        self.first_requested as u32..self.targets.len() as u32
    }

    /// Writes the static files under a fresh `root`.
    pub fn write(&self) -> io::Result<()> {
        let _ = fs::remove_dir_all(&self.root);
        fs::create_dir_all(&self.root)?;
        for t in &self.targets[..self.n_static] {
            fs::write(self.root.join(&t.path[1..]), &t.body)?;
        }
        Ok(())
    }

    pub fn remove(&self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = find("cached_small").unwrap();
        let a = generate(w, 7, PathBuf::from("unused"));
        let b = generate(w, 7, PathBuf::from("unused"));
        let c = generate(w, 8, PathBuf::from("unused"));
        assert_eq!(a.seq_hash, b.seq_hash);
        assert_eq!(a.sequence, b.sequence);
        assert!(a
            .targets
            .iter()
            .zip(&b.targets)
            .all(|(x, y)| x.body == y.body));
        assert_ne!(a.seq_hash, c.seq_hash);
        assert_eq!(a.sequence.len(), SEQ_LEN);
        let sampled = a.sampled.iter().filter(|&&s| s).count();
        assert!((SEQ_LEN / 128..SEQ_LEN / 32).contains(&sampled));
    }

    #[test]
    fn sizes_stay_in_range_and_zipf_favours_low_ranks() {
        let w = find("cached_small").unwrap();
        let s = generate(w, 1, PathBuf::from("unused"));
        assert_eq!(s.targets.len(), 64);
        assert!(s
            .targets
            .iter()
            .all(|t| (1024..=16 * 1024).contains(&t.body.len())));
        let first = s.sequence.iter().filter(|&&t| t == 0).count();
        let last = s.sequence.iter().filter(|&&t| t == 63).count();
        assert!(first > 10 * last.max(1));
        // Sizes follow the rank, whatever the seed; names do not.
        let other = generate(w, 2, PathBuf::from("unused"));
        assert!(s
            .targets
            .iter()
            .zip(&other.targets)
            .all(|(a, b)| a.body.len() == b.body.len()));
        assert!(s
            .targets
            .iter()
            .zip(&other.targets)
            .any(|(a, b)| a.path != b.path));
    }

    #[test]
    fn dynamic_targets_are_worker_bodies_and_no_seed_reaches_the_path() {
        let w = find("dynamic_small").unwrap();
        let s = generate(w, 3, PathBuf::from("unused"));
        assert!(s.sequence.iter().all(|&t| t as usize >= w.files));
        let t = &s.targets[s.sequence[0] as usize];
        assert!(t.path.starts_with("/app/"));
        assert_eq!(t.body, worker_body(&t.path));
        assert_eq!(t.body.len(), DYNAMIC_BODY);
    }

    #[test]
    fn workload_names_are_unique_and_configs_build() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(
                w.why.len() <= 200,
                "{} why too long for BENCHMARK.json",
                w.name
            );
            let _ = w.net_config(Path::new("."), vec!["true".into()]);
        }
    }
}
