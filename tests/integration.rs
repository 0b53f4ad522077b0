//! Cross-crate integration: the full pipeline from log text to measured
//! bandwidth, and the simulated site served by the real network server.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::rc::Rc;

use flash_repro::core::ServerConfig;
use flash_repro::experiments::{run_one, ClientFleet, ConnMode, RunParams};
use flash_repro::net::{NetConfig, Server};
use flash_repro::simos::MachineConfig;
use flash_repro::workload::{SizeDist, Trace, TraceConfig};

fn small_cfg() -> TraceConfig {
    TraceConfig {
        dataset_bytes: 4 * 1024 * 1024,
        n_requests: 20_000,
        ..TraceConfig::owlnet()
    }
}

#[test]
fn log_to_bandwidth_pipeline() {
    // Generate → render CLF → parse back → truncate → simulate.
    let base = Trace::generate(&small_cfg(), 11);
    let parsed = Trace::from_clf(&base.to_clf());
    assert_eq!(parsed.requests.len(), base.requests.len());
    let truncated = Rc::new(parsed.truncate_to_dataset(2 * 1024 * 1024));
    let fleet = ClientFleet {
        clients: 16,
        mode: ConnMode::PerRequest,
        ..ClientFleet::default()
    };
    let (r, server) = run_one(
        &MachineConfig::freebsd(),
        &ServerConfig::flash(),
        &truncated,
        &fleet,
        &RunParams::default(),
    )
    .expect("deploy");
    assert!(r.bandwidth_mbps > 10.0, "{r:?}");
    assert!(r.requests_per_sec > 500.0, "{r:?}");
    assert!(server.total_stat(|s| s.requests_done) > 0);
}

#[test]
fn all_architectures_serve_the_same_workload() {
    let trace = Rc::new(Trace::generate(&small_cfg(), 12));
    let fleet = ClientFleet {
        clients: 16,
        mode: ConnMode::PerRequest,
        ..ClientFleet::default()
    };
    let machine = MachineConfig::solaris(); // has kernel threads → MT works
    let mut rates = Vec::new();
    for cfg in [
        ServerConfig::flash(),
        ServerConfig::flash_sped(),
        ServerConfig::flash_mp(),
        ServerConfig::flash_mt(),
        ServerConfig::apache_like(),
        ServerConfig::zeus_like(1),
    ] {
        let (r, _) =
            run_one(&machine, &cfg, &trace, &fleet, &RunParams::default()).expect("deploy");
        assert!(r.requests_per_sec > 200.0, "{} too slow: {:?}", cfg.name, r);
        rates.push((cfg.name.clone(), r.requests_per_sec));
    }
    // Apache trails every Flash variant on this cached workload.
    let apache = rates.iter().find(|(n, _)| n == "Apache").expect("ran").1;
    for (name, rate) in &rates {
        if name != "Apache" {
            assert!(
                *rate > apache,
                "{name} ({rate}) should beat Apache ({apache})"
            );
        }
    }
}

#[test]
fn generated_site_served_by_real_server() {
    // Materialize a workload-generated site on disk and serve it with
    // the real AMPED server; every file must come back byte-exact in
    // length with the right status.
    let mut rng = flash_repro::simcore::SimRng::new(5);
    let specs = flash_repro::workload::generate_files(
        &mut rng,
        256 * 1024,
        &SizeDist {
            max_bytes: 64 * 1024,
            ..SizeDist::default()
        },
    );
    let root = std::env::temp_dir().join(format!("flash-integ-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for s in &specs {
        let p = root.join(s.path.trim_start_matches('/'));
        std::fs::create_dir_all(p.parent().expect("nested")).unwrap();
        std::fs::write(p, vec![b'x'; s.size as usize]).unwrap();
    }
    let server = Server::start("127.0.0.1:0", NetConfig::new(&root)).unwrap();
    for s in specs.iter().take(32) {
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(format!("GET {} HTTP/1.0\r\n\r\n", s.path).as_bytes())
            .unwrap();
        let mut resp = Vec::new();
        conn.read_to_end(&mut resp).unwrap();
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 200"), "{}: {text}", s.path);
        let body_start = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert_eq!(
            (resp.len() - body_start) as u64,
            s.size,
            "wrong body length for {}",
            s.path
        );
    }
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn simulated_and_real_servers_agree_on_header_format() {
    // The simulator computes response sizes from flash-http headers; the
    // real server sends those same headers. Spot-check that a simulated
    // response size matches what the real server actually transmits.
    let size = 12_345u64;
    let root = std::env::temp_dir().join(format!("flash-agree-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("f.html"), vec![b'y'; size as usize]).unwrap();
    // The real server stamps Last-Modified from the file's mtime, so
    // the reference header must carry the same field to agree on
    // length (IMF-fixdate is fixed-width, so the value cannot skew it).
    let mtime = std::fs::metadata(root.join("f.html"))
        .unwrap()
        .modified()
        .unwrap()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_secs() as i64;
    // Since the send-plane refactor every 200 also carries the strong
    // ETag derived from the same (mtime, length) pair, so the reference
    // header must too.
    let etag = flash_repro::http::etag_value(Some(mtime), size, false);
    let hdr = flash_repro::http::ResponseHeader::build_full(
        flash_repro::http::Status::Ok,
        Some(("text/html", size)),
        false,
        true,
        Some(mtime),
        flash_repro::http::HeaderExtras {
            etag: Some(&etag),
            ..Default::default()
        },
    );
    let server = Server::start("127.0.0.1:0", NetConfig::new(&root)).unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.write_all(b"GET /f.html HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = Vec::new();
    conn.read_to_end(&mut resp).unwrap();
    let body_start = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    assert_eq!(body_start, hdr.len(), "header lengths agree");
    assert_eq!(resp.len() as u64, hdr.len() as u64 + size);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}
