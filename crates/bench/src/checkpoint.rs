//! Checkpoint/restore harness shared by the cluster-scale binaries and the
//! golden summaries.
//!
//! `cluster_eval`, `placement_eval` and `longhaul` each checkpoint one
//! canonical cell ([`CLUSTER_EVAL`], [`PLACEMENT_EVAL`], [`LONGHAUL`]) and
//! share one flag contract, served by [`CheckpointCell::serve_cli`]:
//!
//! - `--snapshot-out FILE` runs the cell to its cut, writes the sealed
//!   snapshot to `FILE`, prints a `checkpoint:` line, finishes the run and
//!   prints the report;
//! - `--resume FILE` rebuilds the cell from that snapshot, prints a
//!   `resumed at` line, finishes the run and prints the report.
//!
//! Everything after the first line is byte-identical between the two. A
//! corrupt, truncated or mismatched snapshot is rejected with a typed
//! error on stderr, prefixed with the binary's name, and exit code 2 —
//! never a panic.

use powadapt_cluster::longhaul::regional_failover;
use powadapt_cluster::{
    oversubscribed_cluster, placement_cluster, ClusterError, ClusterReport, ClusterSim,
    ClusterSpec, PlacementArm, PlacementTier, SelectionPolicy,
};
use powadapt_sim::{SimDuration, SimTime};

use crate::cli_flag_value;
use crate::golden::GOLDEN_SEED;

/// Where a checkpointed run is cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// After `1/n` of the run's span.
    Fraction(u64),
    /// At a fixed simulated time.
    At(SimTime),
}

impl Cut {
    /// Builds the simulation from `spec` and runs it to this cut.
    fn run(self, spec: ClusterSpec) -> Result<ClusterSim, ClusterError> {
        let mut sim = ClusterSim::new(spec)?;
        let at = match self {
            Cut::Fraction(n) => {
                let span = sim.end_time().duration_since(sim.start_time());
                sim.start_time() + SimDuration::from_nanos(span.as_nanos() / n)
            }
            Cut::At(t) => t,
        };
        sim.run_to(at)?;
        Ok(sim)
    }
}

/// Runs the cell built by `spec` to `cut`, seals a snapshot, drops the
/// simulation, resumes a fresh one from the snapshot and finishes it. The
/// report must equal the straight run's: that equality is the
/// checkpoint/restore contract.
///
/// # Errors
///
/// The run, snapshot or resume error, whichever comes first.
pub(crate) fn checkpointed_run(
    spec: impl Fn() -> ClusterSpec,
    cut: Cut,
) -> Result<ClusterReport, ClusterError> {
    let snap = cut.run(spec())?.snapshot()?;
    ClusterSim::resume(spec(), &snap)?.finish()
}

/// One binary's checkpointed cell.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointCell {
    /// The binary's name: the prefix of its error lines on stderr.
    pub bin: &'static str,
    /// Builds the cell's spec; a resume must use the same one.
    pub spec: fn() -> ClusterSpec,
    /// Where the snapshot is taken.
    pub cut: Cut,
    /// Text inserted after the cut time on the `checkpoint:` line.
    pub note: fn(&ClusterSim) -> String,
}

/// `cluster_eval`'s cell: model-driven selection at seed 42, cut at the
/// midpoint.
pub const CLUSTER_EVAL: CheckpointCell = CheckpointCell {
    bin: "cluster_eval",
    spec: || oversubscribed_cluster(SelectionPolicy::ModelDriven, GOLDEN_SEED),
    cut: Cut::Fraction(2),
    note: |_| String::new(),
};

/// `placement_eval`'s cell: the temperature-driven arm at seed 42, cut at
/// its quarter point — inside the consolidation drain, with migrations in
/// flight.
pub const PLACEMENT_EVAL: CheckpointCell = CheckpointCell {
    bin: "placement_eval",
    spec: || placement_cluster(PlacementArm::TempDriven, GOLDEN_SEED),
    cut: Cut::Fraction(4),
    note: |sim| {
        let pending = sim.placement().map_or(0, PlacementTier::pending_migrations);
        format!(" ({pending} migrations in flight)")
    },
};

/// `longhaul`'s cell: regional failover under model-driven selection at
/// seed 42, cut mid-outage (the rack1 breaker trips at 80 ms and is
/// restored at 160 ms).
pub const LONGHAUL: CheckpointCell = CheckpointCell {
    bin: "longhaul",
    spec: || regional_failover(SelectionPolicy::ModelDriven, GOLDEN_SEED),
    cut: Cut::At(SimTime::from_millis(120)),
    note: |_| " (mid-outage)".to_string(),
};

/// A snapshot taken at the cell's cut, and the run finished from there.
#[derive(Debug)]
pub struct Checkpoint {
    /// The sealed snapshot.
    pub bytes: Vec<u8>,
    /// Simulated time of the snapshot.
    pub at: SimTime,
    /// The cell's [`note`](CheckpointCell::note) at the cut.
    pub note: String,
    /// The report of the finished run.
    pub report: ClusterReport,
}

fn context<E: std::fmt::Display>(what: impl std::fmt::Display) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

impl CheckpointCell {
    /// Runs the cell to its cut, seals a snapshot, and finishes the same
    /// simulation.
    ///
    /// # Errors
    ///
    /// A message naming the failed step.
    pub fn snapshot(&self) -> Result<Checkpoint, String> {
        let sim = self
            .cut
            .run((self.spec)())
            .map_err(context("run to checkpoint failed"))?;
        let bytes = sim.snapshot().map_err(context("snapshot failed"))?;
        let (at, note) = (sim.now(), (self.note)(&sim));
        let report = sim.finish().map_err(context("rest of the run failed"))?;
        Ok(Checkpoint {
            bytes,
            at,
            note,
            report,
        })
    }

    /// Rebuilds the cell from a sealed snapshot and runs it to the end,
    /// returning the resume time and the report.
    ///
    /// # Errors
    ///
    /// A message naming the failed step; a corrupt, truncated or
    /// mismatched snapshot is `snapshot rejected`.
    pub fn resume(&self, bytes: &[u8]) -> Result<(SimTime, ClusterReport), String> {
        let sim = ClusterSim::resume((self.spec)(), bytes).map_err(context("snapshot rejected"))?;
        let at = sim.now();
        let report = sim.finish().map_err(context("resumed run failed"))?;
        Ok((at, report))
    }

    /// Serves `--snapshot-out FILE` / `--resume FILE`, printing the final
    /// report with `print`. Returns false when neither flag is given. On
    /// any failure prints `<bin>: <error>` to stderr and exits 2.
    pub fn serve_cli(&self, print: impl Fn(&ClusterReport)) -> bool {
        let outcome = if let Some(path) = cli_flag_value("--snapshot-out") {
            self.snapshot().and_then(|ck| {
                std::fs::write(&path, &ck.bytes)
                    .map_err(context(format!("cannot write {path}")))?;
                println!(
                    "checkpoint: {} bytes at t={:?}{} -> {path}",
                    ck.bytes.len(),
                    ck.at,
                    ck.note
                );
                Ok(ck.report)
            })
        } else if let Some(path) = cli_flag_value("--resume") {
            std::fs::read(&path)
                .map_err(context(format!("cannot read {path}")))
                .and_then(|bytes| self.resume(&bytes))
                .map(|(at, report)| {
                    println!("resumed at t={at:?} from {path}");
                    report
                })
        } else {
            return false;
        };
        match outcome {
            Ok(report) => print(&report),
            Err(e) => {
                eprintln!("{}: {e}", self.bin);
                std::process::exit(2);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CLI contract on one cell: snapshot → resume reproduces the
    /// straight run, and bad snapshots are errors, not panics.
    fn check_cell(cell: &CheckpointCell, foreign: &CheckpointCell) {
        let straight = powadapt_cluster::run_cluster((cell.spec)()).unwrap();
        let ck = cell.snapshot().unwrap();
        assert_eq!(ck.report, straight, "{}: snapshot run diverged", cell.bin);
        let (at, resumed) = cell.resume(&ck.bytes).unwrap();
        assert_eq!(at, ck.at);
        assert_eq!(resumed, straight, "{}: resumed run diverged", cell.bin);

        let err = cell.resume(&ck.bytes[..ck.bytes.len() / 2]).unwrap_err();
        assert!(err.starts_with("snapshot rejected"), "{}: {err}", cell.bin);
        let err = foreign.resume(&ck.bytes).unwrap_err();
        assert!(err.starts_with("snapshot rejected"), "{}: {err}", cell.bin);
    }

    #[test]
    fn cluster_eval_cell_round_trips() {
        check_cell(&CLUSTER_EVAL, &PLACEMENT_EVAL);
    }

    #[test]
    fn placement_eval_cell_round_trips() {
        check_cell(&PLACEMENT_EVAL, &LONGHAUL);
    }

    #[test]
    fn longhaul_cell_round_trips() {
        check_cell(&LONGHAUL, &CLUSTER_EVAL);
    }
}
