//! Pins of the cluster step loop: the exact snapshot bytes at fixed cuts
//! (hashed), and the exact number of device calls a canonical run makes.
//! Both are pure functions of the spec, so any change to how the loop
//! drives its devices that alters a payload byte, or quietly brings back
//! idle device work, fails here.

#![allow(clippy::unwrap_used)]

use std::cell::Cell;
use std::rc::Rc;

use powadapt_cluster::{
    oversubscribed_cluster, placement_cluster, ClusterSim, ClusterSpec, PlacementArm,
    SelectionPolicy,
};
use powadapt_device::{
    DeviceError, DeviceSpec, IoCompletion, IoRequest, PowerStateDesc, PowerStateId, StandbyDepth,
    StandbyState, StorageDevice,
};
use powadapt_obs::RecorderHandle;
use powadapt_sim::{SimDuration, SimTime};

/// FNV-1a of the sealed snapshot taken after `run_to(start + at)`.
fn snapshot_hash_at(spec: ClusterSpec, at: SimDuration) -> u64 {
    let mut sim = ClusterSim::new(spec).unwrap();
    sim.run_to(sim.start_time() + at).unwrap();
    powadapt_snap::fnv1a_64(&sim.snapshot().unwrap())
}

/// Snapshot bytes of the canonical placement cell at a quarter of the
/// run, at the half (inside the consolidation drain, copy IOs in flight)
/// and at the half of the run, plus the canonical `cluster_eval` cell at
/// its checkpoint midpoint. The hashes were recorded with the lockstep
/// loop that advanced every device on every step, so they prove the
/// due-only drain and the deferred SLO sort leave the payload unchanged.
#[test]
fn snapshot_bytes_are_pinned() {
    let placement = || placement_cluster(PlacementArm::TempDriven, 42);
    let cases = [
        (
            "placement 22.5 s",
            placement(),
            SimDuration::from_millis(22_500),
        ),
        ("placement 45 s", placement(), SimDuration::from_secs(45)),
        ("placement 90 s", placement(), SimDuration::from_secs(90)),
    ];
    let got: Vec<(&str, u64)> = cases
        .into_iter()
        .map(|(name, spec, at)| (name, snapshot_hash_at(spec, at)))
        .collect();
    let expect: [(&str, u64); 3] = [
        ("placement 22.5 s", 1_107_314_925_142_808_157),
        ("placement 45 s", 3_490_933_878_987_185_483),
        ("placement 90 s", 339_958_272_858_402_663),
    ];
    assert_eq!(got, expect);

    // The cut `cluster_eval`'s checkpointed arm takes: half the run.
    let mut sim =
        ClusterSim::new(oversubscribed_cluster(SelectionPolicy::ModelDriven, 42)).unwrap();
    let run = sim.end_time().duration_since(sim.start_time());
    sim.run_to(sim.start_time() + SimDuration::from_nanos(run.as_nanos() / 2))
        .unwrap();
    let cluster = powadapt_snap::fnv1a_64(&sim.snapshot().unwrap());
    assert_eq!(cluster, 17_268_326_153_146_800_579, "cluster_eval midpoint");
}

/// Calls into every wrapped device, summed over the cluster.
#[derive(Debug, Default)]
struct Counts {
    advance: Cell<u64>,
    next_event: Cell<u64>,
    submit: Cell<u64>,
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// A [`StorageDevice`] decorator that counts the step loop's hot calls and
/// forwards every other call, overridden defaults included, to the real
/// device. Snapshots are not forwarded: the counted run never checkpoints.
#[derive(Debug)]
struct Counted {
    inner: Box<dyn StorageDevice>,
    counts: Rc<Counts>,
}

impl StorageDevice for Counted {
    fn spec(&self) -> &DeviceSpec {
        self.inner.spec()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn submit(&mut self, req: IoRequest) -> Result<(), DeviceError> {
        bump(&self.counts.submit);
        self.inner.submit(req)
    }
    fn next_event(&mut self) -> Option<SimTime> {
        bump(&self.counts.next_event);
        self.inner.next_event()
    }
    fn advance_to_into(&mut self, t: SimTime, out: &mut Vec<IoCompletion>) {
        bump(&self.counts.advance);
        self.inner.advance_to_into(t, out);
    }
    fn power_w(&self) -> f64 {
        self.inner.power_w()
    }
    fn set_power_state(&mut self, ps: PowerStateId) -> Result<(), DeviceError> {
        self.inner.set_power_state(ps)
    }
    fn power_state(&self) -> PowerStateId {
        self.inner.power_state()
    }
    fn power_states(&self) -> &[PowerStateDesc] {
        self.inner.power_states()
    }
    fn request_standby(&mut self) -> Result<(), DeviceError> {
        self.inner.request_standby()
    }
    fn request_wake(&mut self) -> Result<(), DeviceError> {
        self.inner.request_wake()
    }
    fn request_standby_depth(&mut self, depth: StandbyDepth) -> Result<(), DeviceError> {
        self.inner.request_standby_depth(depth)
    }
    fn standby_depth(&self) -> StandbyDepth {
        self.inner.standby_depth()
    }
    fn standby_state(&self) -> StandbyState {
        self.inner.standby_state()
    }
    fn standby_power_w(&self) -> Option<f64> {
        self.inner.standby_power_w()
    }
    fn inflight(&self) -> usize {
        self.inner.inflight()
    }
    fn set_recorder(&mut self, rec: RecorderHandle, track: &'static str) {
        self.inner.set_recorder(rec, track);
    }
}

/// The exact device work of the seed-42 placement cell. The lockstep
/// loop made 4,007,050 advances and 4,008,845 `next_event` calls for the
/// same run; the due-only drain advances a device only when one of its
/// events fires or something is about to touch it.
#[test]
fn placement_cell_device_work_is_pinned() {
    let counts = Rc::new(Counts::default());
    let mut spec = placement_cluster(PlacementArm::TempDriven, 42);
    for enc in &mut spec.enclosures {
        enc.devices = std::mem::take(&mut enc.devices)
            .into_iter()
            .map(|inner| {
                Box::new(Counted {
                    inner,
                    counts: Rc::clone(&counts),
                }) as Box<dyn StorageDevice>
            })
            .collect();
    }
    let report = ClusterSim::new(spec).unwrap().finish().unwrap();

    // The committed placement_eval golden's TempDriven row.
    assert_eq!(report.served_ios, 130_437);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.migrations_started, 64);
    assert_eq!(report.migrations_completed, 64);
    assert_eq!(report.migration_bytes, 8_589_934_592);
    assert_eq!((report.rebalance_rounds, report.replans), (180, 75));

    assert_eq!(
        (
            counts.advance.get(),
            counts.next_event.get(),
            counts.submit.get()
        ),
        (804_381, 808_046, 130_565)
    );
}
