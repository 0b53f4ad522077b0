//! Synthetic site generation: file sizes and paths, as [`FileSpec`]s.
//!
//! Web file sizes are heavy-tailed (Crovella & Bestavros, SIGMETRICS'96,
//! the paper's reference 11): a log-normal body of small HTML/image files plus a
//! Pareto tail of large archives. The generator produces a file set with
//! a target total (dataset) size and realistic paths/extensions.

use flash_simcore::SimRng;

/// Specification of one site file, as produced by workload generators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    /// URL path ("/users/bob/index.html").
    pub path: String,
    /// Body size in bytes.
    pub size: u64,
}

impl FileSpec {
    /// A static file.
    pub fn file(path: impl Into<String>, size: u64) -> Self {
        FileSpec {
            path: path.into(),
            size,
        }
    }
}

/// Parameters of a synthetic file-size distribution.
#[derive(Debug, Clone)]
pub struct SizeDist {
    /// Median of the log-normal body, bytes.
    pub body_median: f64,
    /// Log-space sigma of the body.
    pub body_sigma: f64,
    /// Fraction of files drawn from the Pareto tail.
    pub tail_fraction: f64,
    /// Pareto scale (minimum tail size), bytes.
    pub tail_scale: f64,
    /// Pareto shape (lower = heavier tail).
    pub tail_alpha: f64,
    /// Upper clamp on any file, bytes.
    pub max_bytes: u64,
}

impl Default for SizeDist {
    fn default() -> Self {
        SizeDist {
            body_median: 6_000.0,
            body_sigma: 1.2,
            tail_fraction: 0.04,
            tail_scale: 60_000.0,
            tail_alpha: 1.2,
            max_bytes: 4 * 1024 * 1024,
        }
    }
}

impl SizeDist {
    /// Draws one file size.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let raw = if rng.chance(self.tail_fraction) {
            rng.pareto(self.tail_scale, self.tail_alpha)
        } else {
            rng.lognormal(self.body_median.ln(), self.body_sigma)
        };
        (raw as u64).clamp(64, self.max_bytes)
    }
}

const EXTS: &[&str] = &[
    "html", "html", "html", "gif", "gif", "jpg", "jpg", "txt", "ps", "pdf", "tar",
];

/// Generates files until the dataset reaches `target_bytes` (at least one
/// file). Paths mimic a departmental server: `/~userN/dirM/fileK.ext`.
pub fn generate_files(rng: &mut SimRng, target_bytes: u64, dist: &SizeDist) -> Vec<FileSpec> {
    let mut specs = Vec::new();
    let mut total = 0u64;
    while total < target_bytes {
        let size = dist.sample(rng);
        let i = specs.len() as u64;
        let ext = EXTS[rng.uniform(0, EXTS.len() as u64) as usize];
        let path = format!("/~user{}/d{}/f{}.{}", i % 211, (i / 7) % 31, i, ext);
        total += size;
        specs.push(FileSpec::file(path, size));
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_clamped_and_positive() {
        let d = SizeDist::default();
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!(s >= 64 && s <= d.max_bytes);
        }
    }

    #[test]
    fn distribution_is_heavy_tailed() {
        let d = SizeDist::default();
        let mut rng = SimRng::new(2);
        let sizes: Vec<u64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sizes.len() / 2] as f64;
        // Heavy tail: mean well above median.
        assert!(mean > median * 1.5, "mean {mean}, median {median}");
        // Typical web content: median in the KB range.
        assert!(median > 1_000.0 && median < 40_000.0, "median {median}");
    }

    #[test]
    fn generate_hits_dataset_target() {
        let mut rng = SimRng::new(3);
        let specs = generate_files(&mut rng, 10 * 1024 * 1024, &SizeDist::default());
        let total: u64 = specs.iter().map(|s| s.size).sum();
        assert!(total >= 10 * 1024 * 1024);
        // Overshoot bounded by one max-size file.
        assert!(total < 10 * 1024 * 1024 + SizeDist::default().max_bytes);
        assert!(specs.len() > 100, "only {} files for 10 MB", specs.len());
    }

    #[test]
    fn paths_are_unique_and_well_formed() {
        let mut rng = SimRng::new(4);
        let specs = generate_files(&mut rng, 1024 * 1024, &SizeDist::default());
        let mut paths: Vec<&str> = specs.iter().map(|s| s.path.as_str()).collect();
        let n = paths.len();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), n, "duplicate paths generated");
        for p in paths {
            assert!(p.starts_with("/~user"), "odd path {p}");
            assert!(p.contains('.'), "no extension in {p}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_files(&mut SimRng::new(7), 1024 * 1024, &SizeDist::default());
        let b = generate_files(&mut SimRng::new(7), 1024 * 1024, &SizeDist::default());
        assert_eq!(a, b);
    }
}
