//! Shape tests: the paper's qualitative claims, asserted on quick-scale
//! runs of every figure driver. These are the contract
//! `examples/reproduce_figures.rs`'s full-scale output is read against.

use flash_experiments::{breakdown, dataset_sweep, single_file, trace_bars, wan, Scale};

#[test]
fn fig07_architecture_barely_matters_when_cached() {
    let figs = single_file::fig07(Scale::Quick);
    let rate = &figs[1];
    let flash = rate.series("Flash").unwrap().y_at(1.0).unwrap();
    let sped = rate.series("Flash-SPED").unwrap().y_at(1.0).unwrap();
    let mp = rate.series("Flash-MP").unwrap().y_at(1.0).unwrap();
    let apache = rate.series("Apache").unwrap().y_at(1.0).unwrap();
    // SPED edges out Flash (mincore overhead); MP trails slightly; all
    // Flash variants are within ~25% of each other; Apache is far behind.
    assert!(sped >= flash, "SPED {sped} >= Flash {flash}");
    assert!(flash > mp, "Flash {flash} > MP {mp}");
    assert!(mp > flash * 0.75, "MP within 25% of Flash");
    assert!(
        apache < flash * 0.55,
        "Apache {apache} far below Flash {flash}"
    );
    // Calibration: paper Figure 7 small-file rates are in the thousands.
    assert!(flash > 2_500.0 && flash < 5_000.0, "Flash rate {flash}");
}

#[test]
fn fig07_freebsd_large_file_bandwidth_band() {
    let figs = single_file::fig07(Scale::Quick);
    let bw = &figs[0];
    let flash = bw.series("Flash").unwrap().y_at(200.0).unwrap();
    // Paper: ~240 Mb/s; accept a generous band around it.
    assert!(
        flash > 180.0 && flash < 330.0,
        "Flash 200KB bandwidth {flash}"
    );
}

#[test]
fn fig07_zeus_alignment_dip_recovers() {
    let figs = single_file::fig07(Scale::Quick);
    let bw = &figs[0];
    let at = |label: &str, x: f64| bw.series(label).unwrap().y_at(x).unwrap();
    // The §5.5 misalignment penalty: Zeus visibly below Flash at 100 KB,
    // relatively closer again at 200 KB.
    let gap_100 = 1.0 - at("Zeus", 100.0) / at("Flash", 100.0);
    let gap_200 = 1.0 - at("Zeus", 200.0) / at("Flash", 200.0);
    assert!(
        gap_100 > 0.08,
        "Zeus should dip at 100KB (gap {gap_100:.3})"
    );
    assert!(gap_200 < gap_100, "dip should shrink by 200KB");
}

#[test]
fn fig06_solaris_is_far_slower_than_freebsd() {
    let sol = single_file::fig06(Scale::Quick);
    let bsd = single_file::fig07(Scale::Quick);
    let sol_bw = sol[0].series("Flash").unwrap().y_at(200.0).unwrap();
    let bsd_bw = bsd[0].series("Flash").unwrap().y_at(200.0).unwrap();
    // Paper: Solaris results are up to ~50% lower than FreeBSD.
    assert!(
        sol_bw < bsd_bw * 0.6,
        "Solaris {sol_bw} vs FreeBSD {bsd_bw}"
    );
    // Paper Figure 6: ~110 Mb/s tops on Solaris.
    assert!(
        sol_bw > 70.0 && sol_bw < 150.0,
        "Solaris bandwidth {sol_bw}"
    );
    // MT exists on Solaris but not on FreeBSD 2.2.6.
    assert!(sol[0].series("Flash-MT").is_some());
    assert!(bsd[0].series("Flash-MT").is_none());
}

#[test]
fn fig08_flash_wins_both_traces_apache_trails() {
    let figs = trace_bars::fig08(Scale::Quick);
    for fig in &figs {
        let flash = fig.series("Flash").unwrap().y_at(0.0).unwrap();
        let apache = fig.series("Apache").unwrap().y_at(0.0).unwrap();
        assert!(
            flash > apache * 1.3,
            "{}: Flash {flash} vs Apache {apache}",
            fig.id
        );
    }
    // SPED is relatively much better on Owlnet (cached) than on CS
    // (disk-bound): compare its share of Flash's bandwidth.
    let share = |fig: &flash_experiments::Figure| {
        fig.series("Flash-SPED").unwrap().y_at(0.0).unwrap()
            / fig.series("Flash").unwrap().y_at(0.0).unwrap()
    };
    let cs = share(&figs[0]);
    let owl = share(&figs[1]);
    assert!(
        owl > cs + 0.2,
        "SPED/Flash share: CS {cs:.2} vs Owlnet {owl:.2}"
    );
}

#[test]
fn fig09_sped_collapses_when_disk_bound_flash_does_not() {
    let fig = dataset_sweep::fig09(Scale::Quick);
    let at = |label: &str, x: f64| fig.series(label).unwrap().y_at(x).unwrap();
    // Cached regime: Flash within a few percent of SPED.
    assert!(at("Flash", 15.0) > at("Flash-SPED", 15.0) * 0.9);
    // Disk-bound regime: SPED collapses; Flash stays well above and
    // meets/exceeds MP.
    assert!(at("Flash-SPED", 150.0) < at("Flash-SPED", 15.0) * 0.45);
    assert!(at("Flash", 150.0) > at("Flash-SPED", 150.0) * 1.5);
    assert!(at("Flash", 150.0) >= at("Flash-MP", 150.0) * 0.95);
    // Everyone declines past the cache size.
    for s in &fig.series {
        assert!(
            s.y_at(150.0).unwrap() < s.y_at(15.0).unwrap(),
            "{} should decline",
            s.label
        );
    }
}

#[test]
fn fig10_mt_is_comparable_to_flash_on_solaris() {
    let fig = dataset_sweep::fig10(Scale::Quick);
    let at = |label: &str, x: f64| fig.series(label).unwrap().y_at(x).unwrap();
    for x in [15.0, 150.0] {
        let flash = at("Flash", x);
        let mt = at("Flash-MT", x);
        assert!(
            (mt - flash).abs() < flash * 0.25,
            "MT {mt} vs Flash {flash} at {x} MB"
        );
    }
    // The Solaris sweep tops far below the FreeBSD one.
    let bsd = dataset_sweep::fig09(Scale::Quick);
    assert!(fig.series("Flash").unwrap().y_max() < bsd.series("Flash").unwrap().y_max() * 0.7);
}

#[test]
fn fig11_caches_all_contribute_pathname_most() {
    let fig = breakdown::fig11(Scale::Quick);
    let all = fig.series("all (Flash)").unwrap().y_at(1.0).unwrap();
    let none = fig.series("no caching").unwrap().y_at(1.0).unwrap();
    // Paper: "Without optimizations Flash's small file performance would
    // drop in half."
    assert!(
        none < all * 0.72 && none > all * 0.35,
        "no-caching {none} vs all {all}"
    );
}

#[test]
fn fig12_mp_declines_with_clients_amped_stays_flat() {
    let fig = wan::fig12(Scale::Quick);
    let at = |label: &str, x: f64| fig.series(label).unwrap().y_at(x).unwrap();
    // AMPED/SPED stable within 15% across the sweep.
    for label in ["Flash", "Flash-SPED"] {
        let lo = at(label, 16.0).min(at(label, 400.0));
        let hi = at(label, 16.0).max(at(label, 400.0));
        assert!(hi - lo < hi * 0.2, "{label} should stay flat ({lo}..{hi})");
    }
    // MT declines gradually; MP declines dramatically.
    assert!(at("Flash-MT", 400.0) < at("Flash-MT", 16.0));
    assert!(at("Flash-MT", 400.0) > at("Flash-MT", 16.0) * 0.7);
    assert!(at("Flash-MP", 400.0) < at("Flash-MP", 16.0) * 0.55);
}
