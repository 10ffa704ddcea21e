//! Placement-evaluation bench: energy-aware data placement with HDD
//! spin-down consolidation versus static spreading and no migration.
//!
//! Runs the three-arm placement scenario (warm SSD rack + three cold Exos
//! HDD racks, diurnal web + steady analytics + one-shot archive ingest)
//! and reports per-arm service, migration, and energy accounting, plus the
//! headline metrics of the placement tier:
//!
//! 1. joules-per-byte of temperature-driven placement against both
//!    baselines (the consolidation energy win),
//! 2. stranded cold-tier watts reclaimed by spinning consolidated HDDs
//!    down between batch windows,
//! 3. migration-storm read amplification (migrated bytes over tenant
//!    bytes) and per-tenant SLO outcomes under that extra load.
//!
//! Run with: `cargo run --release -p powadapt-bench --bin placement_eval`
//!
//! Flags: `--out FILE` additionally writes the canonical golden summary
//! (the exact bytes of `crates/bench/goldens/placement_eval.json`) to
//! `FILE`; `--check FILE` compares that summary byte-for-byte against a
//! committed fixture and exits 3 on drift (the summary re-runs the three
//! cells, so a run without either flag skips it); `--snapshot-out FILE` /
//! `--resume FILE` checkpoint the canonical temperature-driven cell at
//! its quarter point — in the middle of the consolidation drain, with
//! migrations in flight — under the flag contract shared with
//! `cluster_eval` and `longhaul` (see `powadapt_bench::checkpoint`): the
//! resumed run is bit-identical, and a corrupt, truncated, or mismatched
//! snapshot is rejected with a typed error and exit code 2 — never a
//! panic.

use powadapt_bench::checkpoint::PLACEMENT_EVAL;
use powadapt_bench::golden::{
    cold_tier_mean_w, joules_per_byte, placement_eval_summary, GOLDEN_SEED, PLACEMENT_ARMS,
};
use powadapt_bench::{apply_cli_workers, cli_flag_value, report_executor};
use powadapt_cluster::{placement_cluster, run_cluster, PlacementArm};
use powadapt_io::{run_cells, ParallelConfig};

fn fail(context: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("placement_eval: {context}: {err}");
    std::process::exit(2);
}

fn main() {
    apply_cli_workers();
    if PLACEMENT_EVAL.serve_cli(|report| print!("{report}")) {
        return;
    }
    let trace = powadapt_bench::start_tracing();

    let cells: Vec<(PlacementArm, u64)> =
        PLACEMENT_ARMS.iter().map(|&a| (a, GOLDEN_SEED)).collect();
    let reports = run_cells(&cells, &ParallelConfig::from_env(), |_, &(arm, seed)| {
        run_cluster(placement_cluster(arm, seed)).expect("placement scenario runs")
    });

    println!(
        "== Placement: temperature-driven consolidation vs static spread vs no migration ==\n"
    );
    for ((arm, seed), report) in cells.iter().zip(&reports) {
        println!("-- arm {arm:?}, seed {seed} --");
        print!("{report}");
        println!(
            "   migrations {}/{} ({} bytes), energy {:.1} J total / {:.1} J system",
            report.migrations_started,
            report.migrations_completed,
            report.migration_bytes,
            report.total_joules,
            report.system_joules
        );
        println!();
    }

    let temp = &reports[0];
    let spread = &reports[1];
    let nomig = &reports[2];
    println!("== Headline ==");
    println!(
        "   {:>14} {:>12} {:>12} {:>12} {:>10}",
        "arm", "nJ/byte", "cold-tier W", "mig bytes", "SLOs met"
    );
    for ((arm, _), r) in cells.iter().zip(&reports) {
        println!(
            "   {:>14} {:>12.3} {:>12.2} {:>12} {:>7}/{:<2}",
            format!("{arm:?}"),
            joules_per_byte(r) * 1e9,
            cold_tier_mean_w(r),
            r.migration_bytes,
            r.tenants.iter().filter(|t| t.slo_ok).count(),
            r.tenants.len(),
        );
    }
    println!(
        "\n   joules-per-byte win: {:.2}x vs static spread, {:.2}x vs no migration (target >= 1.25x)",
        joules_per_byte(spread) / joules_per_byte(temp),
        joules_per_byte(nomig) / joules_per_byte(temp)
    );
    println!(
        "   cold-tier watts reclaimed vs no migration: {:.2} W",
        cold_tier_mean_w(nomig) - cold_tier_mean_w(temp)
    );

    // The canonical summary — identical bytes to the committed golden —
    // re-runs the three cells, so it is built only when asked for.
    let out = cli_flag_value("--out");
    let check = cli_flag_value("--check");
    if out.is_some() || check.is_some() {
        let summary = placement_eval_summary(&ParallelConfig::sequential());
        if let Some(path) = out {
            if let Err(e) = std::fs::write(&path, &summary) {
                fail(&format!("cannot write {path}"), &e);
            }
        }
        if let Some(path) = check {
            let committed = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => fail(&format!("cannot read {path}"), &e),
            };
            if summary != committed {
                eprintln!(
                    "placement_eval: DRIFT: summary no longer matches {path}.\n\
                     If the change is intentional, regenerate the fixtures with\n\
                     `cargo run -p powadapt-bench --bin regen_goldens` and commit them."
                );
                std::process::exit(3);
            }
            println!("check ok: summary matches {path}");
        }
    }

    report_executor("placement_eval");
    powadapt_bench::finish_tracing(trace);
}
