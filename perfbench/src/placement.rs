//! `placement`: the canonical temperature-driven placement cluster, run in
//! fixed `run_to` slices with snapshot → resume at periodic cuts.

use std::rc::Rc;

use powadapt_cluster::{placement_cluster, ClusterReport, ClusterSim, ClusterSpec, PlacementArm};
use powadapt_sim::SimDuration;

use crate::args::GOLDEN_SEED;
use crate::rep::{tally_for, timed, Mode, Rep};
use crate::tally::{Tally, Timed};

/// Repetitions cycle through this many cells: the canonical cell at the
/// run's seed and at the next `CELLS - 1` seeds. How much work a cell
/// holds depends on its seed (the archive tenant's ingest burst has a
/// random length: over seeds 101–110 one cell serves 117k–152k IOs, and
/// a few seeds have many more heavy slices), so a single cell would make
/// the job, not the simulator's speed, dominate the spread between runs.
pub const CELLS: usize = 8;
/// Simulated length of one slice.
const SLICE: SimDuration = SimDuration::from_millis(500);
/// A cut every 45 slices (22.5 s simulated) lands one at the quarter
/// point, inside the consolidation drain with migrations in flight.
const CUT_EVERY: u64 = 45;

/// The committed placement golden, relative to the repository root.
pub const GOLDEN_PATH: &str = "crates/bench/goldens/placement_eval.json";

/// The canonical spec, with every device wrapped when `tally` is given.
pub fn spec(seed: u64, tally: Option<&Rc<Tally>>) -> ClusterSpec {
    let mut spec = placement_cluster(PlacementArm::TempDriven, seed);
    if let Some(t) = tally {
        for enc in &mut spec.enclosures {
            enc.devices = enc.devices.drain(..).map(|d| Timed::wrap(d, t)).collect();
        }
    }
    spec
}

/// The seed of the cell repetition `k` runs.
pub fn cell_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k % CELLS) as u64)
}

/// Runs the cell at `seed` once. With `cuts`, the simulation is
/// snapshotted and replaced by its resumed copy every [`CUT_EVERY`] slices
/// (outside the timed slices). `golden` is the TempDriven row of the
/// committed golden, checked when given.
pub fn rep(seed: u64, mode: Mode, cuts: bool, golden: Option<&Golden>) -> Rep {
    let tally = tally_for(mode);
    let mut rep = Rep {
        tally: tally.clone(),
        ..Rep::default()
    };
    let report = match cell(&mut rep, seed, tally.as_ref(), cuts) {
        Ok(r) => r,
        Err(e) => {
            rep.check(false, || e);
            return rep;
        }
    };
    check_report(&mut rep, &report, golden);
    rep.served = report.served_ios;
    rep.dropped = report.dropped;
    rep.rebalance_rounds = report.rebalance_rounds;
    rep.replans = report.replans;
    rep.migrations = report.migrations_completed;
    rep.migration_bytes = report.migration_bytes;
    rep.digest = powadapt_snap::fnv1a_64(format!("{report:?}").as_bytes());
    rep
}

/// Runs one cell: set-up, the timed slices with their cuts, and `finish`.
fn cell(
    rep: &mut Rep,
    seed: u64,
    tally: Option<&Rc<Tally>>,
    cuts: bool,
) -> Result<ClusterReport, String> {
    let (sim, setup_s) = timed(|| ClusterSim::new(spec(seed, tally)));
    rep.setups_s.push(setup_s);
    let mut sim = sim.map_err(|e| format!("ClusterSim::new failed: {e}"))?;
    let span = sim.end_time().duration_since(sim.start_time()).as_nanos();
    let slices = span.div_ceil(SLICE.as_nanos());
    for k in 1..slices {
        let limit = sim.start_time() + SimDuration::from_nanos(k * SLICE.as_nanos());
        rep.slice(|| sim.run_to(limit))
            .map_err(|e| format!("run_to failed: {e}"))?;
        if cuts && k % CUT_EVERY == 0 {
            sim = checkpoint(rep, &sim, seed, tally)
                .map_err(|e| format!("checkpoint at slice {k} failed: {e}"))?;
        }
    }
    rep.slice(|| sim.finish())
        .map_err(|e| format!("finish failed: {e}"))
}

fn checkpoint(
    rep: &mut Rep,
    sim: &ClusterSim,
    seed: u64,
    tally: Option<&Rc<Tally>>,
) -> Result<ClusterSim, String> {
    let (bytes, snapshot_s) = timed(|| sim.snapshot());
    let bytes = bytes.map_err(|e| e.to_string())?;
    let spec = spec(seed, tally);
    let (resumed, resume_s) = timed(|| ClusterSim::resume(spec, &bytes));
    rep.checkpoint(snapshot_s, resume_s, bytes.len());
    resumed.map_err(|e| e.to_string())
}

/// Invariants that hold at every seed, plus the golden row when given.
fn check_report(rep: &mut Rep, r: &ClusterReport, golden: Option<&Golden>) {
    for t in &r.tenants {
        rep.check(t.served + t.dropped <= t.submitted, || {
            format!(
                "tenant {}: served {} + dropped {} exceed submitted {}",
                t.name, t.served, t.dropped, t.submitted
            )
        });
    }
    // An IO submitted before the end of the run may complete after it:
    // per tenant, submitted == served + dropped + (in flight at the end).
    // Under tracing the decorator sees how many device IOs never completed.
    if let Some(tally) = &rep.tally {
        let unfinished: u64 = r
            .tenants
            .iter()
            .map(|t| t.submitted.saturating_sub(t.served + t.dropped))
            .sum();
        let in_flight = tally.submit.calls() - tally.completions.get();
        rep.check(unfinished <= in_flight, || {
            format!("{unfinished} tenant IOs unaccounted for, but only {in_flight} in flight")
        });
    }
    rep.check(r.dropped == 0, || format!("{} IOs dropped", r.dropped));
    rep.check(r.caps_respected(), || {
        "a power-tree cap was exceeded".into()
    });
    if let Some(g) = golden {
        let got = Golden::of(r);
        rep.check(&got == g, || {
            format!("report differs from the {GOLDEN_PATH} TempDriven row:\n  got  {got:?}\n  want {g:?}")
        });
    }
}

/// The fields of the golden's TempDriven report and tenant rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    pub bytes: u64,
    pub served: u64,
    pub dropped: u64,
    pub migrations_started: u64,
    pub migrations_completed: u64,
    pub migration_bytes: u64,
    pub total_joules: f64,
    pub system_joules: f64,
    pub caps_respected: bool,
    pub slos_met: u64,
    /// Per tenant: name, served, bytes, p99 latency in microseconds.
    pub tenants: Vec<(String, u64, u64, f64)>,
}

impl Golden {
    fn of(r: &ClusterReport) -> Golden {
        Golden {
            bytes: r.total_bytes,
            served: r.served_ios,
            dropped: r.dropped,
            migrations_started: r.migrations_started,
            migrations_completed: r.migrations_completed,
            migration_bytes: r.migration_bytes,
            total_joules: r.total_joules,
            system_joules: r.system_joules,
            caps_respected: r.caps_respected(),
            slos_met: r.tenants.iter().filter(|t| t.slo_ok).count() as u64,
            tenants: r
                .tenants
                .iter()
                .map(|t| (t.name.clone(), t.served, t.bytes, t.p99_latency_us))
                .collect(),
        }
    }

    /// Extracts the TempDriven rows from the golden file's text. Floats
    /// in the golden are shortest round-trip decimals, so they parse back
    /// to the exact values.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"arm\": \"TempDriven\""))
            .collect();
        let report = rows
            .iter()
            .find(|l| l.contains("\"report\""))
            .ok_or("no TempDriven report row")?;
        let int = |row: &str, key: &str| -> Result<u64, String> {
            field(row, key)?.parse().map_err(|e| format!("{key}: {e}"))
        };
        let float = |row: &str, key: &str| -> Result<f64, String> {
            field(row, key)?.parse().map_err(|e| format!("{key}: {e}"))
        };
        let mut tenants = Vec::new();
        for row in rows.iter().filter(|l| l.contains("\"tenant\"")) {
            tenants.push((
                field(row, "tenant")?.trim_matches('"').to_string(),
                int(row, "served")?,
                int(row, "bytes")?,
                float(row, "p99_us")?,
            ));
        }
        Ok(Golden {
            bytes: int(report, "bytes")?,
            served: int(report, "served")?,
            dropped: int(report, "dropped")?,
            migrations_started: int(report, "migrations_started")?,
            migrations_completed: int(report, "migrations_completed")?,
            migration_bytes: int(report, "migration_bytes")?,
            total_joules: float(report, "total_joules")?,
            system_joules: float(report, "system_joules")?,
            caps_respected: field(report, "caps_respected")? == "true",
            slos_met: int(report, "slos_met")?,
            tenants,
        })
    }
}

/// Loads the golden when one of the cells runs at the seed it was
/// generated with.
pub fn golden_for(seed: u64) -> Result<Option<Golden>, String> {
    if !(0..CELLS).any(|k| cell_seed(seed, k) == GOLDEN_SEED) {
        return Ok(None);
    }
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .map_err(|e| format!("cannot read {GOLDEN_PATH}: {e}"))?;
    Golden::parse(&text).map(Some)
}

/// The raw text of `"key": value` in a one-line JSON row.
fn field<'a>(row: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\": ");
    let start = row
        .find(&pat)
        .ok_or_else(|| format!("no {key:?} in {row:?}"))?
        + pat.len();
    let rest = &row[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Ok(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_that_differs_from_the_golden_fails_the_check() {
        let text = std::fs::read_to_string(format!("../{GOLDEN_PATH}")).unwrap();
        let mut golden = Golden::parse(&text).unwrap();
        golden.served += 1;
        let r = rep(GOLDEN_SEED, Mode::Plain, false, Some(&golden));
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("TempDriven row"));
    }

    #[test]
    fn golden_row_parses() {
        let text = std::fs::read_to_string(format!("../{GOLDEN_PATH}")).unwrap();
        let g = Golden::parse(&text).unwrap();
        assert_eq!(g.served, 130_437);
        assert_eq!(g.dropped, 0);
        assert_eq!((g.migrations_started, g.migrations_completed), (64, 64));
        assert_eq!(g.migration_bytes, 8_589_934_592);
        assert!(g.caps_respected);
        assert_eq!(g.slos_met, 3);
        assert_eq!(g.tenants.len(), 3);
        assert_eq!(g.tenants[0].0, "web");
        assert_eq!(g.tenants.iter().map(|t| t.1).sum::<u64>(), g.served);
    }

    #[test]
    fn wrapped_unwrapped_and_resumed_runs_match_the_golden() {
        let text = std::fs::read_to_string(format!("../{GOLDEN_PATH}")).unwrap();
        let golden = Golden::parse(&text).unwrap();
        let straight = rep(GOLDEN_SEED, Mode::Plain, false, Some(&golden));
        let cut = rep(GOLDEN_SEED, Mode::Plain, true, Some(&golden));
        let traced = rep(GOLDEN_SEED, Mode::Traced, true, Some(&golden));
        for r in [&straight, &cut, &traced] {
            assert_eq!(r.failures, Vec::<String>::new());
            assert_eq!(r.digest, straight.digest);
            assert_eq!(r.served, 130_437);
        }
        assert!(straight.checkpoints_ms.is_empty());
        assert_eq!(cut.checkpoints_ms.len(), 7);
        assert_eq!(cut.snap_bytes, traced.snap_bytes);
        let t = traced.tally.expect("traced");
        assert!(t.advance.calls() > t.completions.get());
        assert!(t.control.calls() > 0);
    }
}
