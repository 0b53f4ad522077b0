//! The served site: the mapping between request tokens and files.
//!
//! Workload generators produce a list of [`FileSpec`]s; [`Site::build`]
//! creates the corresponding files in the simulated filesystem and
//! pre-renders the information servers need (header lengths, MIME types).
//! Clients request file *i* by sending token *i* on a connection; the
//! server resolves the token through its pathname-translation cache (or
//! pays translation cost on a miss).

use std::rc::Rc;

use flash_http::mime;
use flash_http::response::{HeaderExtras, ResponseHeader, Status};
use flash_simos::kernel::Kernel;
use flash_simos::FileId;
use flash_workload::FileSpec;

/// One resolvable site entry (a [`FileSpec`] realized in the filesystem).
#[derive(Debug, Clone)]
pub struct SiteFile {
    /// URL path.
    pub path: String,
    /// Body size in bytes.
    pub size: u64,
    /// Backing file.
    pub fid: FileId,
    /// Pathname component count (drives translation cost).
    pub components: u32,
    /// Bytes of a padded (aligned) response header for this file.
    pub hdr_len_aligned: u64,
    /// Bytes of an unpadded response header for this file.
    pub hdr_len_raw: u64,
}

/// The full site: index by request token.
#[derive(Debug)]
pub struct Site {
    files: Vec<SiteFile>,
}

impl Site {
    /// Realizes `specs` in the kernel's filesystem and returns the site.
    pub fn build(kernel: &mut Kernel, specs: &[FileSpec]) -> Rc<Site> {
        let files = specs
            .iter()
            .map(|spec| {
                let components = spec
                    .path
                    .split('/')
                    .filter(|s| !s.is_empty())
                    .count()
                    .max(1) as u32;
                let fid = kernel.fs.create(spec.size, components);
                let content = Some((mime::content_type(&spec.path), spec.size));
                // The real servers stamp Last-Modified on every 200
                // with a known mtime, so the simulated header length
                // must include the field too; IMF-fixdate is
                // fixed-width, so any mtime gives the right length.
                let hdr_len = |pad_align| {
                    ResponseHeader::build_full(
                        Status::Ok,
                        content,
                        true,
                        pad_align,
                        Some(0),
                        HeaderExtras::default(),
                    )
                    .len() as u64
                };
                SiteFile {
                    path: spec.path.clone(),
                    size: spec.size,
                    fid,
                    components,
                    hdr_len_aligned: hdr_len(true),
                    hdr_len_raw: hdr_len(false),
                }
            })
            .collect();
        Rc::new(Site { files })
    }

    /// Site entry for a request token.
    pub fn file(&self, token: u64) -> &SiteFile {
        &self.files[token as usize]
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the site has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total bytes (the dataset size).
    pub fn dataset_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Approximate request size in bytes for token `t` (method + path +
    /// headers), used by client agents.
    pub fn request_bytes(&self, token: u64) -> u64 {
        140 + self.files[token as usize].path.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_simos::MachineConfig;

    #[test]
    fn build_realizes_static_files() {
        let mut k = Kernel::new(MachineConfig::freebsd());
        let site = Site::build(
            &mut k,
            &[
                FileSpec::file("/a/b.html", 10_000),
                FileSpec::file("/c.gif", 500),
            ],
        );
        assert_eq!(site.len(), 2);
        assert_eq!(site.dataset_bytes(), 10_500);
        let f0 = site.file(0);
        assert_eq!(f0.components, 2);
        assert_ne!(f0.fid, site.file(1).fid);
        assert_eq!(k.fs.len(), 2);
    }

    #[test]
    fn header_lengths_are_plausible_and_aligned() {
        let mut k = Kernel::new(MachineConfig::freebsd());
        let site = Site::build(&mut k, &[FileSpec::file("/x.html", 12_345)]);
        let f = site.file(0);
        assert_eq!(f.hdr_len_aligned % 32, 0);
        assert!(f.hdr_len_raw > 100 && f.hdr_len_raw < 400);
        assert!(f.hdr_len_aligned >= f.hdr_len_raw);
    }

    #[test]
    fn request_bytes_scale_with_path() {
        let mut k = Kernel::new(MachineConfig::freebsd());
        let site = Site::build(
            &mut k,
            &[
                FileSpec::file("/a", 1),
                FileSpec::file("/a/very/long/path/to/content.html", 1),
            ],
        );
        assert!(site.request_bytes(1) > site.request_bytes(0));
    }
}
