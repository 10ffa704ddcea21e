//! One repetition of a workload's fixed simulated job, and what it measured.

use std::rc::Rc;
use std::time::Instant;

use crate::tally::Tally;

/// How a repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No instrumentation: the end-to-end metrics.
    Plain,
    /// Every device wrapped in the timing decorator: the per-layer metrics.
    Traced,
}

/// Everything one repetition measured (host time) and produced (simulated
/// outcomes, checked but never timed).
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds of each set-up timed alongside this repetition:
    /// building the devices and jobs, or the spec plus `ClusterSim::new`.
    pub setups_s: Vec<f64>,
    /// Host seconds simulating: the sum of the slices, each of which is a
    /// call into the driving loop (`run_experiment`, or `run_to` and
    /// `finish`).
    pub wall_s: f64,
    /// Host milliseconds per slice (one fio cell, or one `run_to` interval).
    pub slices_ms: Vec<f64>,
    /// Host milliseconds per snapshot-plus-resume round trip.
    pub checkpoints_ms: Vec<f64>,
    /// Host seconds sealing snapshots.
    pub snapshot_s: f64,
    /// Host seconds rebuilding from snapshots.
    pub resume_s: f64,
    /// Sealed snapshot bytes written.
    pub snap_bytes: u64,
    /// Simulated IOs the program reports as served.
    pub served: u64,
    /// Simulated IOs dropped, or fio cells that errored.
    pub dropped: u64,
    /// Host seconds of timed device calls made from inside the driving
    /// loop (traced repetitions only).
    pub loop_device_s: f64,
    pub rebalance_rounds: u64,
    pub replans: u64,
    pub migrations: u64,
    pub migration_bytes: u64,
    /// Events the program's recorder logged, when one was installed.
    pub obs_events: u64,
    /// FNV-1a digest of the simulated outputs.
    pub digest: u64,
    /// Output checks made.
    pub checks: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Device-call totals, for traced repetitions.
    pub tally: Option<Rc<Tally>>,
    /// Factor bringing this repetition's host times to the reference
    /// host speed (see `reference`).
    pub scale: f64,
}

impl Rep {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Times one slice of simulation `f`, splitting out the device calls
    /// made inside it.
    pub fn slice<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let device_before = self.device_secs();
        let start = Instant::now();
        let r = f();
        let dt = start.elapsed().as_secs_f64();
        self.wall_s += dt;
        self.loop_device_s += self.device_secs() - device_before;
        self.slices_ms.push(dt * 1e3);
        r
    }

    /// Adds one snapshot-plus-resume round trip.
    pub fn checkpoint(&mut self, snapshot_s: f64, resume_s: f64, bytes: usize) {
        self.snapshot_s += snapshot_s;
        self.resume_s += resume_s;
        self.snap_bytes += bytes as u64;
        self.checkpoints_ms.push((snapshot_s + resume_s) * 1e3);
    }

    fn device_secs(&self) -> f64 {
        self.tally.as_ref().map_or(0.0, |t| t.device_secs())
    }
}

/// A fresh tally when `mode` traces.
pub fn tally_for(mode: Mode) -> Option<Rc<Tally>> {
    (mode == Mode::Traced).then(|| Rc::new(Tally::default()))
}

/// Times `f`, returning its result and the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}
