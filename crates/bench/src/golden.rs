//! Golden-figure regression fixtures: canonical JSON summaries of every
//! table/figure at a fixed scale and seed, committed under
//! `crates/bench/goldens/` and compared byte-for-byte by
//! `tests/parallel_equivalence.rs`.
//!
//! The summaries are produced through the same measurement functions the
//! figure binaries use, so any drift in device models, the runner, or the
//! parallel executor shows up as a fixture diff. Floats are serialized with
//! Rust's shortest round-trip formatting (`{:?}`), making the comparison
//! exact at the bit level. Regenerate after intentional changes with
//! `cargo run -p powadapt-bench --bin regen_goldens`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use powadapt_cluster::{
    oversubscribed_cluster, placement_cluster, run_cluster, ClusterReport, ClusterSpec,
    PlacementArm, SelectionPolicy,
};
use powadapt_core::AdaptiveController;
use powadapt_device::{
    catalog, drain, FaultInjector, FaultPlan, PowerStateId, StorageDevice, GIB, KIB,
};
use powadapt_io::{
    run_fleet, AccessPattern, Arrivals, BreakerConfig, CircuitBreakerRouter, LeastLoadedRouter,
    OpenLoopSpec, ParallelConfig, SweepScale, Workload,
};
use powadapt_meter::PowerTrace;
use powadapt_model::{ConfigPoint, PowerThroughputModel};
use powadapt_obs::TraceRecorder;
use powadapt_sim::{SimDuration, SimTime};

use crate::checkpoint::{checkpointed_run, Cut, CLUSTER_EVAL, PLACEMENT_EVAL};
use crate::figures::{fig10, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, table1};

/// Root seed for every golden summary.
pub const GOLDEN_SEED: u64 = 42;

/// Every figure with a committed golden fixture, in paper order.
pub const FIGURES: [&str; 10] = [
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
];

/// The scale golden summaries are measured at: long enough for every cell
/// to do real IO, short enough that the full figure set replays in seconds.
pub fn golden_scale() -> SweepScale {
    SweepScale {
        runtime: SimDuration::from_millis(60),
        size_limit: 4 * GIB,
        ramp: SimDuration::from_millis(15),
    }
}

/// The committed fixture directory (`crates/bench/goldens/`).
pub fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// Bit-exact checksum of a float sequence (order-sensitive).
pub fn f64_checksum<'a, I>(values: I) -> u64
where
    I: IntoIterator<Item = &'a f64>,
{
    values.into_iter().fold(0u64, |acc, v| {
        acc.wrapping_mul(31).wrapping_add(v.to_bits())
    })
}

fn checksum_field(trace: &PowerTrace) -> String {
    format!(
        "\"samples\": {}, \"checksum\": \"{:016x}\"",
        trace.len(),
        f64_checksum(trace.samples())
    )
}

/// Formats a float exactly (shortest round-trip representation, valid JSON
/// for all finite values).
fn jf(v: f64) -> String {
    assert!(v.is_finite(), "golden summaries must be finite, got {v}");
    format!("{v:?}")
}

fn doc(figure: &str, seed: u64, rows: &[String]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"figure\": \"{figure}\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    s.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(s, "    {row}{sep}");
    }
    s.push_str("  ]\n}\n");
    s
}

fn table1_summary(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> String {
    let rows: Vec<String> = table1::rows_with(scale, seed, cfg)
        .iter()
        .map(|r| {
            format!(
                "{{\"label\": \"{}\", \"protocol\": \"{}\", \"model\": \"{}\", \"min_w\": {}, \"max_w\": {}}}",
                r.label,
                r.protocol,
                r.model,
                jf(r.min_w),
                jf(r.max_w)
            )
        })
        .collect();
    doc("table1", seed, &rows)
}

fn fig2_summary(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> String {
    let rows: Vec<String> = crate::TABLE1_LABELS
        .iter()
        .zip(fig2::experiments_with(scale, seed, cfg))
        .map(|(label, r)| {
            let s = r.power.summary().expect("non-empty trace");
            format!(
                "{{\"device\": \"{label}\", \"ios\": {}, \"bytes\": {}, \"mean_w\": {}, \"min_w\": {}, \"max_w\": {}, {}}}",
                r.io.ios(),
                r.io.bytes(),
                jf(s.mean()),
                jf(s.min()),
                jf(s.max()),
                checksum_field(&r.power)
            )
        })
        .collect();
    doc("fig2", seed, &rows)
}

fn fig3_summary(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> String {
    let rows: Vec<String> = fig3::grid_with(scale, seed, cfg)
        .iter()
        .map(|c| {
            format!(
                "{{\"chunk\": {}, \"depth\": {}, \"ps\": {}, \"power_w\": {}}}",
                c.chunk,
                c.depth,
                c.ps,
                jf(c.power_w)
            )
        })
        .collect();
    doc("fig3", seed, &rows)
}

fn throughput_panel_rows(panel: &str, cells: &[fig4::Cell]) -> Vec<String> {
    cells
        .iter()
        .map(|c| {
            format!(
                "{{\"panel\": \"{panel}\", \"chunk\": {}, \"ps\": {}, \"mibs\": {}}}",
                c.chunk,
                c.ps,
                jf(c.mibs)
            )
        })
        .collect()
}

fn fig4_summary(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> String {
    let mut rows =
        throughput_panel_rows("a", &fig4::panel_with(Workload::SeqWrite, scale, seed, cfg));
    rows.extend(throughput_panel_rows(
        "b",
        &fig4::panel_with(Workload::SeqRead, scale, seed, cfg),
    ));
    doc("fig4", seed, &rows)
}

fn latency_panel_rows(cells: &[fig5::Cell]) -> Vec<String> {
    cells
        .iter()
        .map(|c| {
            format!(
                "{{\"chunk\": {}, \"ps\": {}, \"avg_us\": {}, \"p99_us\": {}}}",
                c.chunk,
                c.ps,
                jf(c.avg_us),
                jf(c.p99_us)
            )
        })
        .collect()
}

fn fig5_summary(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> String {
    let cells = fig5::panel_with(Workload::RandWrite, scale, seed, cfg);
    doc("fig5", seed, &latency_panel_rows(&cells))
}

fn fig6_summary(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> String {
    let cells = fig5::panel_with(Workload::RandRead, scale, seed, cfg);
    let mut rows = latency_panel_rows(&cells);
    rows.push(format!(
        "{{\"max_deviation\": {}}}",
        jf(fig6::max_deviation(&cells))
    ));
    doc("fig6", seed, &rows)
}

fn fig7_summary(seed: u64) -> String {
    // Figure 7 is a pair of single-device transition traces — inherently
    // sequential, so the golden pins its determinism rather than
    // worker-invariance.
    let mut evo = catalog::evo_860(seed);
    let down = fig7::transition_trace(
        &mut evo,
        SimTime::from_millis(200),
        SimDuration::from_millis(1000),
        false,
        seed,
    );
    let up = fig7::transition_trace(
        &mut evo,
        SimTime::from_millis(400),
        SimDuration::from_millis(1000),
        true,
        seed,
    );

    let mut hdd = catalog::hdd_exos_7e2000(seed);
    hdd.request_standby().expect("idle HDD accepts standby");
    let t0 = hdd.now();
    drain(&mut hdd);
    let spin_down = hdd.now().duration_since(t0);
    hdd.request_wake().expect("wake accepted");
    let t1 = hdd.now();
    drain(&mut hdd);
    let spin_up = hdd.now().duration_since(t1);

    let rows = vec![
        format!("{{\"trace\": \"evo_standby\", {}}}", checksum_field(&down)),
        format!("{{\"trace\": \"evo_wake\", {}}}", checksum_field(&up)),
        format!(
            "{{\"hdd_spin_down_ns\": {}, \"hdd_spin_up_ns\": {}}}",
            spin_down.as_nanos(),
            spin_up.as_nanos()
        ),
    ];
    doc("fig7", seed, &rows)
}

fn fig8_summary(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> String {
    let rows: Vec<String> = fig8::grid_with(scale, seed, cfg)
        .iter()
        .map(|c| {
            format!(
                "{{\"device\": \"{}\", \"chunk\": {}, \"power_w\": {}, \"mibs\": {}}}",
                c.device,
                c.chunk,
                jf(c.power_w),
                jf(c.mibs)
            )
        })
        .collect();
    doc("fig8", seed, &rows)
}

fn fig9_summary(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> String {
    let rows: Vec<String> = fig9::grid_with(scale, seed, cfg)
        .iter()
        .map(|c| {
            format!(
                "{{\"device\": \"{}\", \"depth\": {}, \"power_w\": {}, \"mibs\": {}}}",
                c.device,
                c.depth,
                jf(c.power_w),
                jf(c.mibs)
            )
        })
        .collect();
    doc("fig9", seed, &rows)
}

fn fig10_summary(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> String {
    let rows: Vec<String> = fig10::models_with(scale, seed, cfg)
        .iter()
        .map(|m| {
            let coords: Vec<f64> = m
                .points()
                .iter()
                .flat_map(|p| [p.throughput_bps(), p.power_w()])
                .collect();
            format!(
                "{{\"device\": \"{}\", \"points\": {}, \"dynamic_range\": {}, \"min_norm_throughput\": {}, \"points_checksum\": \"{:016x}\"}}",
                m.device(),
                m.points().len(),
                jf(m.power_dynamic_range()),
                jf(m.min_normalized_throughput()),
                f64_checksum(&coords)
            )
        })
        .collect();
    doc("fig10", seed, &rows)
}

/// Name of the committed observability event-count fixture
/// (`crates/bench/goldens/obs_events.json`).
pub const OBS_FIXTURE: &str = "obs_events";

/// One cell of the canonical traced scenario: a 3-device fleet with a
/// dropout window on device 0, ridden through behind the circuit breaker.
/// Returns the served IO count (pinning that the cell really ran).
fn traced_fleet_cell(cell: u64) -> u64 {
    let spec = OpenLoopSpec {
        arrivals: Arrivals::Poisson { rate_iops: 2_000.0 },
        block_size: 64 * KIB,
        read_fraction: 0.7,
        pattern: AccessPattern::Random,
        region: (0, GIB),
        duration: SimDuration::from_millis(250),
        seed: 11 + cell,
        zipf_theta: None,
    };
    let outage = FaultPlan::none()
        .io_errors(0.02)
        .dropout(SimTime::from_millis(60), SimTime::from_millis(160));
    let mut devices: Vec<Box<dyn StorageDevice>> = (0..3u64)
        .map(|i| {
            let inner = Box::new(catalog::ssd3_d3_p4510(500 + 10 * cell + i));
            let plan = if i == 0 {
                outage.clone()
            } else {
                FaultPlan::none()
            };
            Box::new(FaultInjector::seeded(inner, plan, 70 + cell + i)) as Box<dyn StorageDevice>
        })
        .collect();
    let breaker = BreakerConfig {
        failure_threshold: 3,
        cooldown: SimDuration::from_millis(50),
        probe_successes: 2,
    };
    let mut router = CircuitBreakerRouter::new(LeastLoadedRouter::default(), breaker);
    let r = run_fleet(
        &mut devices,
        &mut router,
        &spec,
        SimDuration::from_millis(20),
    )
    .expect("traced fleet cell runs");
    r.total.ios()
}

/// A short closed-loop budget sequence over an SSD2 + HDD pair, so the
/// fixture also covers `controller_decision`, standby spin events, and
/// power-state transitions.
fn traced_controller_rounds() {
    let mk = |device: &str, ps: u8, power_w: f64, thr_bps: f64| {
        ConfigPoint::new(
            device,
            Workload::RandWrite,
            PowerStateId(ps),
            256 * KIB,
            64,
            power_w,
            thr_bps,
        )
    };
    let ssd2 = PowerThroughputModel::from_points(
        "SSD2",
        vec![
            mk("SSD2", 0, 15.0, 3.3e9),
            mk("SSD2", 1, 11.7, 2.3e9),
            mk("SSD2", 2, 9.7, 1.6e9),
        ],
    )
    .expect("SSD2 model");
    let hdd = PowerThroughputModel::from_points("HDD", vec![mk("HDD", 0, 4.5, 130e6)])
        .expect("HDD model");
    let mut ctl = AdaptiveController::new(
        vec![
            Box::new(catalog::ssd2_d7_p5510(1)),
            Box::new(catalog::hdd_exos_7e2000(2)),
        ],
        vec![ssd2, hdd],
    )
    .expect("matched models");
    // Generous -> tight (HDD sleeps) -> generous (HDD wakes), draining the
    // pending transitions between rounds so spin events land.
    for budget_w in [30.0, 11.0, 30.0] {
        let _ = ctl.apply_budget(budget_w).expect("feasible budget");
        for i in 0..2 {
            drain(ctl.device_mut(i));
        }
    }
}

/// Runs the canonical traced scenario — a parallel sweep of fault-injected
/// fleet cells plus a closed-loop controller sequence — under a fresh
/// recorder and returns the per-kind event counts as canonical JSON.
///
/// Event *counts* are pure functions of the scenario seeds: the summary is
/// byte-identical at every worker count, even though the interleaving of
/// events in the ring is not. That is the invariant the committed
/// `obs_events.json` fixture enforces.
///
/// # Panics
///
/// Panics if a scenario run fails — the fixture pins a healthy pipeline.
pub fn obs_events_summary(cfg: &ParallelConfig) -> String {
    let cells: Vec<u64> = (0..4).collect();
    let (served, mut rows) = with_event_counts(|| {
        let served = powadapt_io::run_cells(&cells, cfg, |_, &cell| traced_fleet_cell(cell));
        traced_controller_rounds();
        served
    });
    rows.push(format!(
        "{{\"served_ios\": [{}]}}",
        served
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    doc(OBS_FIXTURE, GOLDEN_SEED, &rows)
}

/// Runs `f` under a fresh trace recorder (restoring the previous one
/// afterwards) and returns its result with the per-kind event-count rows,
/// ending with the total.
fn with_event_counts<T>(f: impl FnOnce() -> T) -> (T, Vec<String>) {
    let rec = Arc::new(TraceRecorder::new(1 << 16));
    let out = powadapt_obs::with_recorder(Some(rec.clone()), f);
    let mut rows: Vec<String> = rec
        .log()
        .counts()
        .iter()
        .map(|(kind, n)| format!("{{\"kind\": \"{kind}\", \"count\": {n}}}"))
        .collect();
    rows.push(format!(
        "{{\"kind\": \"total\", \"count\": {}}}",
        rec.log().total()
    ));
    (out, rows)
}

/// Runs one golden cluster cell straight through, or — given a cut —
/// checkpointed at it (see [`checkpointed_run`]).
///
/// # Panics
///
/// Panics if the run, snapshot, or resume fails.
fn cell_report(spec: impl Fn() -> ClusterSpec, cut: Option<Cut>) -> ClusterReport {
    match cut {
        None => run_cluster(spec()),
        Some(cut) => checkpointed_run(spec, cut),
    }
    .expect("golden cluster cell runs")
}

/// Name of the committed cluster-evaluation fixture
/// (`crates/bench/goldens/cluster_eval.json`).
pub const CLUSTER_FIXTURE: &str = "cluster_eval";

fn cluster_report_row(r: &ClusterReport) -> String {
    format!(
        "{{\"policy\": \"{}\", \"bytes\": {}, \"served\": {}, \"dropped\": {}, \"replans\": {}, \"infeasible\": {}, \"throughput_bps\": {}, \"caps_respected\": {}, \"peak_cap_utilization\": {}}}",
        r.policy,
        r.total_bytes,
        r.served_ios,
        r.dropped,
        r.replans,
        r.infeasible_rounds,
        jf(r.aggregate_throughput_bps()),
        r.caps_respected(),
        jf(r.peak_cap_utilization())
    )
}

/// Runs the canonical oversubscribed-cluster scenario — both selection
/// policies at two seeds, as a parallel cell sweep under a fresh recorder —
/// and returns the canonical JSON summary: per-cell service/power
/// accounting, per-node peaks and grants, the model-vs-uniform win ratio
/// per seed, and the per-kind trace event counts.
///
/// Every value is a pure function of the cell `(policy, seed)`: the
/// summary is byte-identical at every worker count.
///
/// # Panics
///
/// Panics if a cluster run fails — the fixture pins a healthy pipeline.
pub fn cluster_eval_summary(cfg: &ParallelConfig) -> String {
    cluster_eval_summary_with(cfg, None)
}

/// [`cluster_eval_summary`] with every cell checkpointed at
/// `cluster_eval`'s cut ([`CLUSTER_EVAL`], the midpoint): snapshot, drop
/// the simulation, resume from the sealed bytes, and finish.
/// Byte-equality with the *same* committed
/// `cluster_eval` fixture — at every worker count — is the acceptance
/// proof that checkpoint/restore is invisible to results, traces, and
/// event counts.
///
/// # Panics
///
/// Panics if a cluster run, snapshot, or resume fails.
pub fn cluster_eval_summary_checkpointed(cfg: &ParallelConfig) -> String {
    cluster_eval_summary_with(cfg, Some(CLUSTER_EVAL.cut))
}

fn cluster_eval_summary_with(cfg: &ParallelConfig, cut: Option<Cut>) -> String {
    let seeds = [GOLDEN_SEED, GOLDEN_SEED + 1];
    let cells: Vec<(SelectionPolicy, u64)> = seeds
        .iter()
        .flat_map(|&s| {
            [
                (SelectionPolicy::ModelDriven, s),
                (SelectionPolicy::UniformStatic, s),
            ]
        })
        .collect();
    let (reports, counts) = with_event_counts(|| {
        powadapt_io::run_cells(&cells, cfg, |_, &(policy, seed)| {
            cell_report(|| oversubscribed_cluster(policy, seed), cut)
        })
    });

    let mut rows = Vec::new();
    for ((_, seed), report) in cells.iter().zip(&reports) {
        rows.push(format!(
            "{{\"seed\": {seed}, \"report\": {}}}",
            cluster_report_row(report)
        ));
        for n in &report.nodes {
            rows.push(format!(
                "{{\"seed\": {seed}, \"policy\": \"{}\", \"node\": \"{}\", \"cap_w\": {}, \"max_w\": {}, \"mean_w\": {}, \"granted_w\": {}}}",
                report.policy,
                n.path,
                jf(n.cap_w),
                jf(n.max_power_w),
                jf(n.mean_power_w),
                jf(n.granted_w)
            ));
        }
        for t in &report.tenants {
            rows.push(format!(
                "{{\"seed\": {seed}, \"policy\": \"{}\", \"tenant\": \"{}\", \"served\": {}, \"bytes\": {}, \"p99_us\": {}, \"slo_ok\": {}}}",
                report.policy, t.name, t.served, t.bytes, jf(t.p99_latency_us), t.slo_ok
            ));
        }
    }
    for (i, &seed) in seeds.iter().enumerate() {
        let model = &reports[2 * i];
        let uniform = &reports[2 * i + 1];
        rows.push(format!(
            "{{\"seed\": {seed}, \"win_ratio\": {}}}",
            jf(model.aggregate_throughput_bps() / uniform.aggregate_throughput_bps())
        ));
    }
    rows.extend(counts);
    doc(CLUSTER_FIXTURE, GOLDEN_SEED, &rows)
}

/// Name of the committed placement-evaluation fixture
/// (`crates/bench/goldens/placement_eval.json`).
pub const PLACEMENT_FIXTURE: &str = "placement_eval";

/// The three placement arms, in report order.
pub const PLACEMENT_ARMS: [PlacementArm; 3] = [
    PlacementArm::TempDriven,
    PlacementArm::StaticSpread,
    PlacementArm::NoMigration,
];

fn placement_report_row(arm: PlacementArm, r: &ClusterReport) -> String {
    format!(
        "{{\"arm\": \"{arm:?}\", \"bytes\": {}, \"served\": {}, \"dropped\": {}, \"migrations_started\": {}, \"migrations_completed\": {}, \"migration_bytes\": {}, \"total_joules\": {}, \"system_joules\": {}, \"idle_joules\": {}, \"joules_per_byte\": {}, \"caps_respected\": {}, \"slos_met\": {}}}",
        r.total_bytes,
        r.served_ios,
        r.dropped,
        r.migrations_started,
        r.migrations_completed,
        r.migration_bytes,
        jf(r.total_joules),
        jf(r.system_joules),
        jf(r.idle_joules),
        jf(joules_per_byte(r)),
        r.caps_respected(),
        r.tenants.iter().filter(|t| t.slo_ok).count()
    )
}

/// Energy per tenant byte served, in joules.
pub fn joules_per_byte(r: &ClusterReport) -> f64 {
    r.total_joules / r.total_bytes as f64
}

/// Mean power drawn by the cold (HDD) enclosures — the stranded-watts
/// signal consolidation exists to reclaim.
pub fn cold_tier_mean_w(r: &ClusterReport) -> f64 {
    r.nodes
        .iter()
        .filter(|n| n.path.contains("enc-cold"))
        .map(|n| n.mean_power_w)
        .sum()
}

/// Runs the placement-evaluation scenario — temperature-driven placement
/// with HDD spin-down consolidation versus the static-spread and
/// no-migration baselines, as a parallel cell sweep under a fresh
/// recorder — and returns the canonical JSON summary: per-arm service,
/// migration, and energy accounting, per-node peaks, per-tenant SLOs, the
/// headline joules-per-byte wins, stranded cold-tier watts, migration
/// read amplification, and the per-kind trace event counts.
///
/// Every value is a pure function of the cell `(arm, seed)`: the summary
/// is byte-identical at every worker count.
///
/// # Panics
///
/// Panics if a placement run fails — the fixture pins a healthy pipeline.
pub fn placement_eval_summary(cfg: &ParallelConfig) -> String {
    placement_eval_summary_with(cfg, None)
}

/// [`placement_eval_summary`] with every cell checkpointed at
/// `placement_eval`'s cut ([`PLACEMENT_EVAL`], the quarter point) —
/// mid-migration for the temperature-driven arm. Byte-equality
/// with the *same* committed `placement_eval` fixture, at every worker
/// count, proves a checkpoint taken between `MigrationStarted` and
/// `MigrationCompleted` resumes bit-exact.
///
/// # Panics
///
/// Panics if a placement run, snapshot, or resume fails.
pub fn placement_eval_summary_checkpointed(cfg: &ParallelConfig) -> String {
    placement_eval_summary_with(cfg, Some(PLACEMENT_EVAL.cut))
}

fn placement_eval_summary_with(cfg: &ParallelConfig, cut: Option<Cut>) -> String {
    let cells: Vec<(PlacementArm, u64)> =
        PLACEMENT_ARMS.iter().map(|&a| (a, GOLDEN_SEED)).collect();
    let (reports, counts) = with_event_counts(|| {
        powadapt_io::run_cells(&cells, cfg, |_, &(arm, seed)| {
            cell_report(|| placement_cluster(arm, seed), cut)
        })
    });

    let mut rows = Vec::new();
    for ((arm, _), report) in cells.iter().zip(&reports) {
        rows.push(format!(
            "{{\"report\": {}}}",
            placement_report_row(*arm, report)
        ));
        for n in &report.nodes {
            rows.push(format!(
                "{{\"arm\": \"{arm:?}\", \"node\": \"{}\", \"cap_w\": {}, \"max_w\": {}, \"mean_w\": {}, \"granted_w\": {}}}",
                n.path,
                jf(n.cap_w),
                jf(n.max_power_w),
                jf(n.mean_power_w),
                jf(n.granted_w)
            ));
        }
        for t in &report.tenants {
            rows.push(format!(
                "{{\"arm\": \"{arm:?}\", \"tenant\": \"{}\", \"served\": {}, \"bytes\": {}, \"p99_us\": {}, \"slo_ok\": {}}}",
                t.name, t.served, t.bytes, jf(t.p99_latency_us), t.slo_ok
            ));
        }
        rows.push(format!(
            "{{\"arm\": \"{arm:?}\", \"cold_tier_mean_w\": {}}}",
            jf(cold_tier_mean_w(report))
        ));
    }
    let temp = &reports[0];
    let spread = &reports[1];
    let nomig = &reports[2];
    rows.push(format!(
        "{{\"jpb_win_vs_static\": {}, \"jpb_win_vs_nomigration\": {}, \"stranded_w_reclaimed\": {}, \"migration_read_amplification\": {}}}",
        jf(joules_per_byte(spread) / joules_per_byte(temp)),
        jf(joules_per_byte(nomig) / joules_per_byte(temp)),
        jf(cold_tier_mean_w(nomig) - cold_tier_mean_w(temp)),
        jf(temp.migration_bytes as f64 / temp.total_bytes as f64)
    ));
    rows.extend(counts);
    doc(PLACEMENT_FIXTURE, GOLDEN_SEED, &rows)
}

/// Produces the canonical JSON summary of one figure under the given
/// executor configuration. The output is byte-identical for every worker
/// count — that invariant is what the golden suite enforces.
///
/// # Panics
///
/// Panics on an unknown figure name.
pub fn figure_summary(name: &str, scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> String {
    match name {
        "table1" => table1_summary(scale, seed, cfg),
        "fig2" => fig2_summary(scale, seed, cfg),
        "fig3" => fig3_summary(scale, seed, cfg),
        "fig4" => fig4_summary(scale, seed, cfg),
        "fig5" => fig5_summary(scale, seed, cfg),
        "fig6" => fig6_summary(scale, seed, cfg),
        "fig7" => fig7_summary(seed),
        "fig8" => fig8_summary(scale, seed, cfg),
        "fig9" => fig9_summary(scale, seed, cfg),
        "fig10" => fig10_summary(scale, seed, cfg),
        other => panic!("unknown figure {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        assert_ne!(f64_checksum(&a), f64_checksum(&b));
        assert_eq!(f64_checksum(&a), f64_checksum(&a));
    }

    #[test]
    fn float_formatting_round_trips() {
        for v in [0.0, 1.5, 13.526317, 1e-12, 1234567.891] {
            assert_eq!(jf(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn doc_shape_is_valid() {
        let d = doc("figX", 7, &["{\"a\": 1}".into(), "{\"b\": 2}".into()]);
        assert!(d.starts_with("{\n  \"figure\": \"figX\",\n  \"seed\": 7,"));
        assert!(d.contains("{\"a\": 1},\n"));
        assert!(d.ends_with("{\"b\": 2}\n  ]\n}\n"));
    }

    #[test]
    fn every_figure_name_dispatches() {
        // A tiny scale keeps this a pure dispatch test.
        let scale = SweepScale {
            runtime: SimDuration::from_millis(5),
            size_limit: 4 * powadapt_device::MIB,
            ramp: SimDuration::ZERO,
        };
        for name in ["fig3", "fig7"] {
            let s = figure_summary(name, scale, 3, &ParallelConfig::sequential());
            assert!(s.contains(&format!("\"figure\": \"{name}\"")));
        }
    }
}
