//! Cluster-scale evaluation of power-adaptive storage: the oversubscribed
//! power tree versus the naive uniform cap.
//!
//! Runs the canonical two-rack scenario (`cluster 34 W → row → racks →
//! SSD1+SSD3 / SSD2+PM1743 enclosures) under both selection policies at a
//! handful of seeds, fanned across the configured workers, and reports:
//!
//! 1. per-node power accounting against every physical cap,
//! 2. per-tenant service and SLO outcomes,
//! 3. the headline win ratio — aggregate throughput of the model-driven
//!    selector over the uniform static baseline at the same cluster cap.
//!
//! Run with: `cargo run --release -p powadapt-bench --bin cluster_eval`
//!
//! Checkpoint/resume: `--snapshot-out FILE` / `--resume FILE` checkpoint
//! the canonical cell (model-driven, seed 42) at its midpoint, under the
//! flag contract shared with `placement_eval` and `longhaul` (see
//! `powadapt_bench::checkpoint`): both print the final report,
//! bit-identical between the two paths, and a corrupt, truncated, or
//! mismatched snapshot is rejected with a typed error and exit code 2 —
//! never a panic.

use powadapt_bench::checkpoint::CLUSTER_EVAL;
use powadapt_bench::{apply_cli_workers, report_executor};
use powadapt_cluster::{oversubscribed_cluster, run_cluster, ClusterReport, SelectionPolicy};
use powadapt_io::{run_cells, ParallelConfig};

fn cell(policy: SelectionPolicy, seed: u64) -> ClusterReport {
    run_cluster(oversubscribed_cluster(policy, seed)).expect("cluster scenario runs")
}

fn main() {
    apply_cli_workers();
    if CLUSTER_EVAL.serve_cli(|report| print!("{report}")) {
        return;
    }
    let trace = powadapt_bench::start_tracing();

    let seeds = [42u64, 43, 44];
    let cells: Vec<(SelectionPolicy, u64)> = seeds
        .iter()
        .flat_map(|&s| {
            [
                (SelectionPolicy::ModelDriven, s),
                (SelectionPolicy::UniformStatic, s),
            ]
        })
        .collect();
    let reports = run_cells(&cells, &ParallelConfig::from_env(), |_, &(policy, seed)| {
        cell(policy, seed)
    });

    println!("== Cluster oversubscription: model-driven rebalance vs uniform static cap ==\n");
    for ((policy, seed), report) in cells.iter().zip(&reports) {
        println!("-- seed {seed}, policy {policy} --");
        print!("{report}");
        println!();
    }

    println!("== Headline ==");
    println!(
        "   {:>6} {:>14} {:>14} {:>9} {:>8} {:>8}",
        "seed", "model MiB/s", "uniform MiB/s", "win", "caps ok", "SLOs met"
    );
    let mibs = |r: &ClusterReport| r.aggregate_throughput_bps() / (1024.0 * 1024.0);
    let mut worst: f64 = f64::INFINITY;
    for (i, &seed) in seeds.iter().enumerate() {
        let model = &reports[2 * i];
        let uniform = &reports[2 * i + 1];
        let win = model.aggregate_throughput_bps() / uniform.aggregate_throughput_bps();
        worst = worst.min(win);
        println!(
            "   {:>6} {:>14.1} {:>14.1} {:>8.2}x {:>8} {:>5}/{:<2}",
            seed,
            mibs(model),
            mibs(uniform),
            win,
            model.caps_respected() && uniform.caps_respected(),
            model.tenants.iter().filter(|t| t.slo_ok).count(),
            model.tenants.len(),
        );
    }
    println!("\n   worst-case win ratio across seeds: {worst:.2}x (target >= 1.3x)");

    report_executor("cluster_eval");
    powadapt_bench::finish_tracing(trace);
}
