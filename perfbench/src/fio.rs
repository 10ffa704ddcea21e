//! `fio_randwrite` and `fio_randread`: the paper's Fig 10 grid shape
//! through `run_experiment`, one fresh device per cell.

use std::rc::Rc;

use powadapt_device::{catalog, IoKind, PowerStateId, StorageDevice, GIB, KIB, MIB};
use powadapt_io::{run_experiment, ExperimentResult, JobSpec, Workload};
use powadapt_sim::{SimDuration, SimRng};
use powadapt_snap::{SnapReader, SnapWriter};

use crate::rep::{tally_for, timed, Mode, Rep};
use crate::tally::{Tally, Timed};

/// The Table 1 devices, in paper order.
pub const DEVICES: [&str; 4] = ["SSD1", "SSD2", "SSD3", "HDD"];
/// A spread of the paper's chunk sizes.
pub const CHUNKS: [u64; 3] = [4 * KIB, 64 * KIB, MIB];
/// A spread of the paper's queue depths.
pub const DEPTHS: [usize; 3] = [1, 16, 128];
/// Simulated runtime of one cell, and the warm-up excluded from its stats.
const RUNTIME: SimDuration = SimDuration::from_millis(200);
const RAMP: SimDuration = SimDuration::from_millis(40);

/// One cell of the grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub label: &'static str,
    pub power_state: PowerStateId,
    pub chunk: u64,
    pub depth: usize,
    pub index: u64,
}

/// Every device × every power state it implements × chunk × depth.
pub fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for label in DEVICES {
        let states: Vec<PowerStateId> = catalog::by_label(label, 0)
            .expect("catalog label")
            .power_states()
            .iter()
            .map(|d| d.id)
            .collect();
        for power_state in states {
            for chunk in CHUNKS {
                for depth in DEPTHS {
                    let index = out.len() as u64;
                    out.push(Cell {
                        label,
                        power_state,
                        chunk,
                        depth,
                        index,
                    });
                }
            }
        }
    }
    out
}

fn device(
    cell: &Cell,
    seed: u64,
    tally: Option<&Rc<Tally>>,
) -> Result<Box<dyn StorageDevice>, String> {
    let dev = catalog::by_label(cell.label, seed).expect("catalog label");
    let mut dev = match tally {
        Some(t) => Timed::wrap(dev, t),
        None => dev,
    };
    dev.set_power_state(cell.power_state)
        .map_err(|e| format!("{} {}: {e}", cell.label, cell.power_state))?;
    Ok(dev)
}

fn job(cell: &Cell, workload: Workload, seed: u64) -> JobSpec {
    JobSpec::new(workload)
        .block_size(cell.chunk)
        .io_depth(cell.depth)
        .runtime(RUNTIME)
        .size_limit(4 * GIB)
        .ramp(RAMP)
        .seed(SimRng::stream_seed(seed, cell.index))
}

type Built = Vec<(Cell, Box<dyn StorageDevice>, JobSpec)>;

/// Builds every cell's device (in its power state) and job.
pub fn setup(workload: Workload, seed: u64, tally: Option<&Rc<Tally>>) -> Result<Built, String> {
    cells()
        .into_iter()
        .map(|c| Ok((c, device(&c, seed, tally)?, job(&c, workload, seed))))
        .collect()
}

/// Runs the grid once. Each cell is one slice; after it, the device's
/// state is checkpointed and restored into a freshly built device, outside
/// the timed slice.
pub fn rep(workload: Workload, seed: u64, mode: Mode) -> Rep {
    let tally = tally_for(mode);
    let mut rep = Rep {
        tally: tally.clone(),
        ..Rep::default()
    };
    let (built, setup_s) = timed(|| setup(workload, seed, tally.as_ref()));
    rep.setups_s.push(setup_s);
    let built = match built {
        Ok(b) => b,
        Err(e) => {
            rep.check(false, || format!("setup failed: {e}"));
            return rep;
        }
    };
    let mut digest = Vec::new();
    for (cell, mut dev, job) in built {
        let result = rep.slice(|| run_experiment(dev.as_mut(), &job));
        match result {
            Ok(r) => {
                check_cell(&mut rep, &cell, workload, &r);
                rep.served += r.io.ios();
                fold(&mut digest, &cell, &r);
            }
            Err(e) => {
                rep.dropped += 1;
                rep.check(false, || format!("{cell:?}: {e}"));
            }
        }
        checkpoint(&mut rep, &cell, seed, dev.as_ref());
    }
    rep.digest = powadapt_snap::fnv1a_64(&digest);
    rep
}

fn check_cell(rep: &mut Rep, cell: &Cell, workload: Workload, r: &ExperimentResult) {
    let (same, other) = match workload.kind() {
        IoKind::Read => (&r.reads, &r.writes),
        IoKind::Write => (&r.writes, &r.reads),
    };
    let ok = r.io.ios() > 0
        && same.ios() == r.io.ios()
        && other.ios() == 0
        && r.io.bytes() == r.io.ios() * cell.chunk
        && r.avg_power_w().is_finite()
        && r.avg_power_w() > 0.0;
    rep.check(ok, || {
        format!(
            "{cell:?}: implausible result: {} IOs ({} same-kind, {} other), {} bytes, {} W",
            r.io.ios(),
            same.ios(),
            other.ios(),
            r.io.bytes(),
            r.avg_power_w()
        )
    });
}

/// Appends the cell's simulated outcome to the digest input.
fn fold(out: &mut Vec<u8>, cell: &Cell, r: &ExperimentResult) {
    for v in [
        cell.index,
        r.io.ios(),
        r.io.bytes(),
        r.io.elapsed().as_nanos(),
        r.io.avg_latency_us().to_bits(),
        r.io.p99_latency_us().to_bits(),
        r.avg_power_w().to_bits(),
        r.power.len() as u64,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Snapshot, seal, open and restore the device into a fresh one; the
/// restored device must serialize to the same bytes.
fn checkpoint(rep: &mut Rep, cell: &Cell, seed: u64, dev: &dyn StorageDevice) {
    let (sealed, snapshot_s) = timed(|| {
        let mut w = SnapWriter::new();
        dev.write_state(&mut w)
            .map(|()| powadapt_snap::seal(&w.into_payload()))
    });
    let sealed = match sealed {
        Ok(s) => s,
        Err(e) => return rep.check(false, || format!("{cell:?}: snapshot failed: {e}")),
    };
    let fresh = device(cell, seed, None);
    let (restored, resume_s) = timed(|| -> Result<Box<dyn StorageDevice>, String> {
        let payload = powadapt_snap::open(&sealed).map_err(|e| e.to_string())?;
        let mut fresh = fresh?;
        let mut r = SnapReader::new(payload);
        fresh.read_state(&mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        Ok(fresh)
    });
    rep.checkpoint(snapshot_s, resume_s, sealed.len());
    let same = restored.and_then(|fresh| {
        let mut w = SnapWriter::new();
        fresh.write_state(&mut w).map_err(|e| e.to_string())?;
        Ok(powadapt_snap::open(&sealed).ok() == Some(w.into_payload().as_slice()))
    });
    rep.check(same == Ok(true), || {
        format!("{cell:?}: restored device differs from its snapshot: {same:?}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_and_unwrapped_grids_give_the_same_outputs() {
        for workload in [Workload::RandWrite, Workload::RandRead] {
            let plain = rep(workload, 42, Mode::Plain);
            let traced = rep(workload, 42, Mode::Traced);
            assert_eq!(plain.failures, Vec::<String>::new());
            assert_eq!(traced.failures, Vec::<String>::new());
            assert_eq!(plain.digest, traced.digest);
            assert_eq!(plain.served, traced.served);
            assert_eq!(plain.snap_bytes, traced.snap_bytes);
            assert_eq!(plain.slices_ms.len(), cells().len());
            let t = traced.tally.expect("traced");
            assert!(t.completions.get() >= traced.served);
            assert_eq!(t.submit.calls(), t.completions.get(), "every IO completes");
            assert_eq!(t.control.calls(), cells().len() as u64);
        }
    }

    #[test]
    fn the_seed_changes_the_outputs() {
        let a = rep(Workload::RandWrite, 42, Mode::Plain);
        let b = rep(Workload::RandWrite, 43, Mode::Plain);
        assert_ne!(a.digest, b.digest);
    }
}
