//! Shape assertions for every table and figure of the paper.
//!
//! The simulated testbed cannot match the authors' absolute numbers, but
//! the *shape* of each result — who wins, by roughly what factor, where the
//! trade-offs bite — must hold. Each test encodes one figure's claims with
//! tolerances; `EXPERIMENTS.md` records exact measured values from the full
//! harness.

use powadapt::device::{catalog, drain, PowerStateId, StorageDevice, GIB, KIB, MIB};
use powadapt::io::{run_fresh, JobSpec, SweepScale, Workload};
use powadapt::sim::SimDuration;

/// The test scale: long enough for steady state, short enough for CI.
fn scale() -> SweepScale {
    SweepScale {
        runtime: SimDuration::from_millis(700),
        size_limit: 4 * GIB,
        ramp: SimDuration::from_millis(150),
    }
}

fn job(w: Workload, chunk: u64, depth: usize) -> JobSpec {
    let s = scale();
    JobSpec::new(w)
        .block_size(chunk)
        .io_depth(depth)
        .runtime(s.runtime)
        .size_limit(s.size_limit)
        .ramp(s.ramp)
        .seed(1234)
}

fn run(label: &str, ps: u8, j: &JobSpec) -> powadapt::io::ExperimentResult {
    run_fresh(
        || catalog::by_label(label, 77).expect("known label"),
        PowerStateId(ps),
        j,
    )
    .expect("experiment runs")
}

// ---------------------------------------------------------------- Table 1

#[test]
fn table1_idle_floors_match_paper() {
    // The paper's measured minima: SSD1 3.5, SSD2 5, SSD3 1, HDD ~1 (standby).
    assert!((catalog::ssd1_pm9a3(1).power_w() - 3.5).abs() < 0.1);
    assert!((catalog::ssd2_d7_p5510(1).power_w() - 5.0).abs() < 0.1);
    assert!((catalog::ssd3_d3_p4510(1).power_w() - 1.0).abs() < 0.1);
    assert!((catalog::hdd_exos_7e2000(1).power_w() - 3.76).abs() < 0.1);
}

#[test]
fn table1_power_ranges_are_in_band() {
    // Peak measured power within ±25 % of the paper's maxima.
    let cases = [
        ("SSD1", 13.5, Workload::SeqWrite),
        ("SSD2", 15.1, Workload::SeqWrite),
        ("SSD3", 3.5, Workload::SeqWrite),
        ("HDD", 5.3, Workload::RandRead),
    ];
    for (label, paper_max, w) in cases {
        let r = run(label, 0, &job(w, 2 * MIB, 64));
        let measured = r.power.summary().expect("trace non-empty").max();
        assert!(
            (measured - paper_max).abs() / paper_max < 0.25,
            "{label}: measured max {measured:.1} W vs paper {paper_max} W"
        );
    }
}

// ----------------------------------------------------------------- Fig 2

#[test]
fn fig2_traces_show_ms_scale_variability_and_median_tracks_mean() {
    // SSD1 under randwrite 256 KiB QD64: substantial instantaneous
    // variability at millisecond resolution (the reason the paper built a
    // 1 kHz rig), with median and mean nearly overlapping for the steadier
    // devices.
    let r = run("SSD1", 0, &job(Workload::RandWrite, 256 * KIB, 64));
    let s = r.power.summary().expect("trace non-empty");
    assert!(
        s.max() - s.min() > 2.0,
        "SSD1 instantaneous power should swing by watts (saw {:.2}-{:.2})",
        s.min(),
        s.max()
    );
    // The trace's extremes differ from its mean: instantaneous != average
    // (the paper's Fig. 2 vs Fig. 3 point).
    assert!(s.max() > s.mean() * 1.1);

    // SSD2 is saturated under the same workload: tight distribution with
    // median ~ mean.
    let r = run("SSD2", 0, &job(Workload::RandWrite, 256 * KIB, 64));
    let s = r.power.summary().expect("trace non-empty");
    assert!(
        (s.median() - s.mean()).abs() / s.mean() < 0.05,
        "median {:.2} vs mean {:.2}",
        s.median(),
        s.mean()
    );
}

// ------------------------------------------------------------- Figs 3 & 4

#[test]
fn fig3_power_caps_hold_under_heavy_writes() {
    for (ps, cap) in [(1u8, 12.0), (2u8, 10.0)] {
        let r = run("SSD2", ps, &job(Workload::RandWrite, 256 * KIB, 64));
        let avg = r.avg_power_w();
        assert!(
            avg <= cap * 1.05,
            "ps{ps}: average {avg:.2} W exceeds the {cap} W cap"
        );
        assert!(
            avg >= cap * 0.75,
            "ps{ps}: average {avg:.2} W — the cap should bind, not starve"
        );
    }
}

#[test]
fn fig3_power_rises_with_chunk_size() {
    let small = run("SSD2", 0, &job(Workload::RandWrite, 4 * KIB, 64));
    let large = run("SSD2", 0, &job(Workload::RandWrite, 2 * MIB, 64));
    assert!(
        large.avg_power_w() > small.avg_power_w() * 1.1,
        "2 MiB ({:.1} W) should clearly out-draw 4 KiB ({:.1} W)",
        large.avg_power_w(),
        small.avg_power_w()
    );
}

#[test]
fn fig4_caps_throttle_writes_much_more_than_reads() {
    let w0 = run("SSD2", 0, &job(Workload::SeqWrite, 2 * MIB, 64));
    let w1 = run("SSD2", 1, &job(Workload::SeqWrite, 2 * MIB, 64));
    let w2 = run("SSD2", 2, &job(Workload::SeqWrite, 2 * MIB, 64));
    let r0 = run("SSD2", 0, &job(Workload::SeqRead, 2 * MIB, 64));
    let r2 = run("SSD2", 2, &job(Workload::SeqRead, 2 * MIB, 64));

    let w1_ratio = w1.io.throughput_mibs() / w0.io.throughput_mibs();
    let w2_ratio = w2.io.throughput_mibs() / w0.io.throughput_mibs();
    // Paper: 74 % and 55 %. Accept a generous band around those.
    assert!(
        (0.55..=0.85).contains(&w1_ratio),
        "seq write ps1/ps0 = {w1_ratio:.2} (paper ~0.74)"
    );
    assert!(
        (0.35..=0.65).contains(&w2_ratio),
        "seq write ps2/ps0 = {w2_ratio:.2} (paper ~0.55)"
    );
    assert!(w2_ratio < w1_ratio, "deeper caps cut deeper");

    let read_ratio = r2.io.throughput_mibs() / r0.io.throughput_mibs();
    assert!(
        read_ratio > 0.92,
        "seq read ps2/ps0 = {read_ratio:.2}; the paper reports a minimal drop"
    );
}

// ------------------------------------------------------------- Figs 5 & 6

#[test]
fn fig5_capped_write_latency_degrades_with_tail_blowup() {
    // Large chunks at QD1 create enough load for the ps2 cap to bite.
    let base = run("SSD2", 0, &job(Workload::RandWrite, 2 * MIB, 1));
    let capped = run("SSD2", 2, &job(Workload::RandWrite, 2 * MIB, 1));
    let avg_ratio = capped.io.avg_latency_us() / base.io.avg_latency_us();
    assert!(
        (1.3..=3.0).contains(&avg_ratio),
        "avg latency ratio {avg_ratio:.2} (paper: up to ~2x)"
    );

    let base = run("SSD2", 0, &job(Workload::RandWrite, 256 * KIB, 1));
    let capped = run("SSD2", 2, &job(Workload::RandWrite, 256 * KIB, 1));
    let p99_ratio = capped.io.p99_latency_us() / base.io.p99_latency_us();
    assert!(
        (2.5..=12.0).contains(&p99_ratio),
        "p99 latency ratio {p99_ratio:.2} (paper: up to 6.19x)"
    );
}

#[test]
fn fig6_read_latency_is_immune_to_caps_at_qd1() {
    for chunk in [4 * KIB, 256 * KIB, 2 * MIB] {
        let base = run("SSD2", 0, &job(Workload::RandRead, chunk, 1));
        let capped = run("SSD2", 2, &job(Workload::RandRead, chunk, 1));
        let avg_dev = (capped.io.avg_latency_us() / base.io.avg_latency_us() - 1.0).abs();
        let p99_dev = (capped.io.p99_latency_us() / base.io.p99_latency_us() - 1.0).abs();
        assert!(
            avg_dev < 0.05 && p99_dev < 0.05,
            "chunk {chunk}: read latency moved (avg {avg_dev:.3}, p99 {p99_dev:.3})"
        );
    }
}

// ----------------------------------------------------------------- Fig 7

#[test]
fn fig7_evo_standby_halves_idle_power_within_half_a_second() {
    let mut evo = catalog::evo_860(5);
    let idle = evo.power_w();
    assert!((idle - 0.35).abs() < 0.02, "idle {idle}");
    let t0 = evo.now();
    evo.request_standby().expect("idle device accepts standby");
    drain(&mut evo);
    let took = evo.now().duration_since(t0);
    assert!(
        took <= SimDuration::from_millis(500),
        "EVO transitions within 0.5 s (took {took})"
    );
    let slumber = evo.power_w();
    assert!((slumber - 0.17).abs() < 0.02, "SLUMBER {slumber}");
    assert!(slumber < idle / 2.0 + 0.01, "standby halves idle power");
}

#[test]
fn fig7_hdd_spin_cycle_matches_paper_energetics() {
    let mut hdd = catalog::hdd_exos_7e2000(5);
    let idle = hdd.power_w();
    hdd.request_standby().expect("idle disk accepts standby");
    drain(&mut hdd);
    let standby = hdd.power_w();
    // Paper: 1.1 W standby vs 3.76 W idle — saves 2.66 W.
    assert!((standby - 1.1).abs() < 0.05, "standby {standby}");
    assert!(
        (idle - standby - 2.66).abs() < 0.15,
        "saving {}",
        idle - standby
    );

    // IO against the sleeping disk pays the multi-second spin-up.
    use powadapt::device::{IoId, IoKind, IoRequest};
    hdd.submit(IoRequest::new(IoId(0), IoKind::Read, GIB, 4 * KIB))
        .expect("valid request");
    let done = drain(&mut hdd);
    assert!(
        done[0].latency() >= SimDuration::from_secs(5),
        "spin-up dominates: {}",
        done[0].latency()
    );
}

// ------------------------------------------------------------- Figs 8 & 9

#[test]
fn fig8_small_chunks_trade_throughput_for_power() {
    for label in ["SSD1", "SSD2"] {
        let small = run(label, 0, &job(Workload::RandWrite, 4 * KIB, 64));
        let large = run(label, 0, &job(Workload::RandWrite, 2 * MIB, 64));
        let power_ratio = small.avg_power_w() / large.avg_power_w();
        let thr_ratio = small.io.throughput_mibs() / large.io.throughput_mibs();
        assert!(
            (0.6..=0.95).contains(&power_ratio),
            "{label}: 4K power ratio {power_ratio:.2} (paper: up to 30% less)"
        );
        assert!(
            (0.15..=0.6).contains(&thr_ratio),
            "{label}: 4K throughput ratio {thr_ratio:.2} (paper: ~50% loss)"
        );
    }
}

#[test]
fn fig9_queue_depth_one_saves_power_but_starves_throughput() {
    for label in ["SSD1", "SSD2", "SSD3"] {
        let qd1 = run(label, 0, &job(Workload::RandRead, 4 * KIB, 1));
        let qd64 = run(label, 0, &job(Workload::RandRead, 4 * KIB, 64));
        let power_ratio = qd1.avg_power_w() / qd64.avg_power_w();
        let thr_ratio = qd1.io.throughput_mibs() / qd64.io.throughput_mibs();
        assert!(
            (0.4..=0.85).contains(&power_ratio),
            "{label}: QD1 power ratio {power_ratio:.2} (paper: up to 40% less)"
        );
        assert!(
            thr_ratio < 0.15,
            "{label}: QD1 throughput ratio {thr_ratio:.2} (paper: may be only ~10%)"
        );
    }
}

// ---------------------------------------------------------- Fig 10 / §3.3

#[test]
fn fig10_ssd1_operating_point_matches_the_case_study() {
    let r = run("SSD1", 0, &job(Workload::RandWrite, 256 * KIB, 64));
    let gib = r.io.throughput_bps() / GIB as f64;
    // Paper: 3.3 GiB/s at 8.19 W.
    assert!((gib - 3.3).abs() < 0.35, "throughput {gib:.2} GiB/s");
    assert!(
        (r.avg_power_w() - 8.19).abs() < 1.0,
        "power {:.2} W",
        r.avg_power_w()
    );

    // The QD1 shape: roughly -40 % throughput for -20 % power.
    let q1 = run("SSD1", 0, &job(Workload::RandWrite, 256 * KIB, 1));
    let thr_ratio = q1.io.throughput_bps() / r.io.throughput_bps();
    let pow_ratio = q1.avg_power_w() / r.avg_power_w();
    assert!(
        (0.5..=0.75).contains(&thr_ratio),
        "QD1 throughput ratio {thr_ratio:.2}"
    );
    assert!(
        (0.7..=0.9).contains(&pow_ratio),
        "QD1 power ratio {pow_ratio:.2}"
    );
}

#[test]
fn fig10_ssd2_dynamic_range_is_near_paper_headline() {
    // A reduced sweep spanning the extremes of the full Figure 10 grid.
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for (ps, chunk, depth) in [
        (0u8, 2 * MIB, 64),
        (0, 4 * KIB, 1),
        (2, 4 * KIB, 1),
        (2, 2 * MIB, 64),
        (1, 256 * KIB, 16),
    ] {
        let r = run("SSD2", ps, &job(Workload::RandWrite, chunk, depth));
        lo = lo.min(r.avg_power_w());
        hi = hi.max(r.avg_power_w());
    }
    let range = (hi - lo) / hi;
    // Paper: 59.4 % of max power.
    assert!(
        (0.45..=0.75).contains(&range),
        "SSD2 dynamic range {range:.3} (paper 0.594)"
    );
}

#[test]
fn fig10_hdd_throughput_collapses_at_the_bottom_of_the_model() {
    let best = run("HDD", 0, &job(Workload::RandWrite, 2 * MIB, 64));
    let worst = run("HDD", 0, &job(Workload::RandWrite, 4 * KIB, 1));
    let ratio = worst.io.throughput_mibs() / best.io.throughput_mibs();
    // Paper: "throughput can drop to 4% of the maximum".
    assert!(
        ratio < 0.08,
        "HDD worst/best throughput {ratio:.3} (paper ~0.04)"
    );
}
