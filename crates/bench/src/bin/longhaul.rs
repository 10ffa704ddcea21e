//! Long-horizon failure scenarios: regional failover, rolling firmware
//! power-state changes, and multi-day diurnal churn with midnight
//! checkpoints.
//!
//! Each scenario runs under both selection policies and reports service,
//! cap compliance, and drop accounting. The diurnal scenario snapshots at
//! every simulated midnight and proves each checkpoint resumes to the
//! uninterrupted run's exact report.
//!
//! Run with: `cargo run --release -p powadapt-bench --bin longhaul`
//!
//! Flags: `--days N` sets the churn horizon (default 5);
//! `--snapshot-out FILE` writes the mid-outage checkpoint of the regional
//! failover scenario (model-driven, seed 42, at 120 ms) and `--resume FILE`
//! resumes it, under the flag contract shared with `cluster_eval` and
//! `placement_eval` (see `powadapt_bench::checkpoint`). A corrupt or
//! mismatched snapshot is rejected with a typed error and exit code 2,
//! never a panic.

use powadapt_bench::checkpoint::LONGHAUL;
use powadapt_bench::cli_flag_value;
use powadapt_cluster::longhaul::{
    day, diurnal_churn, regional_failover, rolling_firmware, run_with_midnight_checkpoints,
};
use powadapt_cluster::{run_cluster, ClusterReport, ClusterSim, SelectionPolicy};

const SEED: u64 = 42;

fn fail(context: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("longhaul: {context}: {err}");
    std::process::exit(2);
}

fn summary_line(scenario: &str, policy: SelectionPolicy, r: &ClusterReport) {
    println!(
        "  {scenario:18} {policy:13} {:9.1} MiB/s  {:6} served  {:5} dropped  caps {}",
        r.aggregate_throughput_bps() / (1024.0 * 1024.0),
        r.served_ios,
        r.dropped,
        if r.caps_respected() { "ok" } else { "VIOLATED" },
    );
}

fn main() {
    if LONGHAUL.serve_cli(|r| summary_line("regional-failover", SelectionPolicy::ModelDriven, r)) {
        return;
    }
    let days: u64 = cli_flag_value("--days").map_or(5, |v| {
        v.parse()
            .unwrap_or_else(|e| fail(&format!("bad --days {v}"), &e))
    });

    println!("== Long-horizon failure scenarios (seed {SEED}) ==\n");
    for policy in [SelectionPolicy::ModelDriven, SelectionPolicy::UniformStatic] {
        for (scenario, spec) in [
            ("regional-failover", regional_failover(policy, SEED)),
            ("rolling-firmware", rolling_firmware(policy, SEED)),
        ] {
            match run_cluster(spec) {
                Ok(r) => summary_line(scenario, policy, &r),
                Err(e) => fail(&format!("{scenario} run failed"), &e),
            }
        }
    }

    println!("\n== Diurnal churn: {days} days, checkpoint at every midnight ==\n");
    let (report, snaps) = match run_with_midnight_checkpoints(
        diurnal_churn(SelectionPolicy::ModelDriven, days, SEED),
        day(),
    ) {
        Ok(out) => out,
        Err(e) => fail("churn run failed", &e),
    };
    summary_line("diurnal-churn", SelectionPolicy::ModelDriven, &report);
    for (i, snap) in snaps.iter().enumerate() {
        let resumed = match ClusterSim::resume(
            diurnal_churn(SelectionPolicy::ModelDriven, days, SEED),
            snap,
        ) {
            Ok(s) => s,
            Err(e) => fail("midnight snapshot rejected", &e),
        };
        let r = match resumed.finish() {
            Ok(r) => r,
            Err(e) => fail("resumed churn failed", &e),
        };
        println!(
            "  midnight {:2}: {:7} bytes, resume {}",
            i + 1,
            snap.len(),
            if r == report { "bit-exact" } else { "DIVERGED" }
        );
        if r != report {
            fail(
                "checkpoint equivalence",
                &format!("midnight {} resume diverged from the straight run", i + 1),
            );
        }
    }
}
