//! Long-horizon failure scenarios over the canonical cluster.
//!
//! Short golden runs prove the control loop's steady state; the failures
//! that matter operationally unfold over much longer horizons — a rack
//! breaker trips and the survivors must absorb the load, a firmware roll
//! pins devices in their power states one at a time, a diurnal workload
//! churns for days. This module packages those as specs over
//! [`oversubscribed_cluster`], all built from the same primitives the
//! short runs use:
//!
//! - [`regional_failover`] — rack1 (the fast rack) loses its feed
//!   mid-run via a [`TreeFaultWindow`]; the rebalance fails closed, sheds
//!   the rack's load, and recovers when the feed returns.
//! - [`rolling_firmware`] — every device in the fleet takes a staggered
//!   [`stuck_power_state`](powadapt_device::FaultPlan::stuck_power_state)
//!   window, modeling a firmware update that freezes power-state admin
//!   while IO continues.
//! - [`diurnal_churn`] — the canonical tenants run for a configurable
//!   number of diurnal periods ("days").
//!
//! [`run_with_midnight_checkpoints`] drives any spec through
//! [`ClusterSim`], snapshotting at every simulated midnight — the
//! long-horizon half of the checkpoint/restore contract: each snapshot
//! resumes to a report byte-identical to the uninterrupted run.

use powadapt_device::{FaultInjector, FaultPlan, StorageDevice};
use powadapt_sim::{SimDuration, SimRng, SimTime};

use crate::scenario::oversubscribed_cluster;
use crate::selector::SelectionPolicy;
use crate::sim::{ClusterError, ClusterReport, ClusterSim, ClusterSpec};
use crate::treefault::TreeFaultWindow;

/// One simulated "day": the period of the canonical diurnal tenant, so a
/// day of sim time is one full swing of the web tenant's sinusoid.
pub fn day() -> SimDuration {
    SimDuration::from_millis(40)
}

/// Regional failover: the canonical cluster over six days, with rack1 —
/// the rack holding the fast, power-hungry devices — losing its feed for
/// two days mid-run. The fail-closed contract under test: no node ever
/// exceeds its cap while the rack is dark, and service recovers once the
/// feed returns.
pub fn regional_failover(policy: SelectionPolicy, seed: u64) -> ClusterSpec {
    let mut spec = oversubscribed_cluster(policy, seed);
    spec.duration = SimDuration::from_millis(240);
    spec.tree_faults = vec![TreeFaultWindow {
        node: "cluster/row0/rack1".into(),
        from: SimTime::from_millis(80),
        until: SimTime::from_millis(160),
    }];
    spec
}

/// Rolling firmware update: the canonical cluster over six days, each
/// device taking a staggered window during which its power state is
/// stuck (admin transitions refused, IO unaffected) — the way a firmware
/// activation freezes the device's power management mid-roll.
pub fn rolling_firmware(policy: SelectionPolicy, seed: u64) -> ClusterSpec {
    let mut spec = oversubscribed_cluster(policy, seed);
    spec.duration = SimDuration::from_millis(240);
    let fault_root = seed ^ 0xf1f3;
    let mut gi = 0u64;
    for enc in &mut spec.enclosures {
        let devices = std::mem::take(&mut enc.devices);
        enc.devices = devices
            .into_iter()
            .map(|dev| {
                let from = SimTime::from_millis(40 + 40 * gi);
                let until = from + SimDuration::from_millis(30);
                let plan = FaultPlan::none().stuck_power_state(from, until);
                let wrapped: Box<dyn StorageDevice> = Box::new(FaultInjector::seeded(
                    dev,
                    plan,
                    SimRng::stream_seed(fault_root, gi),
                ));
                gi += 1;
                wrapped
            })
            .collect();
    }
    spec
}

/// Multi-day diurnal churn: the canonical cluster run for `days` full
/// diurnal periods.
pub fn diurnal_churn(policy: SelectionPolicy, days: u64, seed: u64) -> ClusterSpec {
    let mut spec = oversubscribed_cluster(policy, seed);
    spec.duration = SimDuration::from_nanos(day().as_nanos() * days);
    spec
}

/// Runs `spec` to completion, snapshotting at every simulated midnight
/// (multiples of `day` past the start, excluding the end itself).
/// Returns the final report and the sealed snapshots in midnight order.
///
/// # Errors
///
/// Propagates construction, run, and serialization failures.
pub fn run_with_midnight_checkpoints(
    spec: ClusterSpec,
    day: SimDuration,
) -> Result<(ClusterReport, Vec<Vec<u8>>), ClusterError> {
    let mut sim = ClusterSim::new(spec)?;
    let mut snaps = Vec::new();
    let mut midnight = sim.start_time() + day;
    while midnight < sim.end_time() {
        sim.run_to(midnight)?;
        snaps.push(sim.snapshot()?);
        midnight += day;
    }
    let report = sim.finish()?;
    Ok((report, snaps))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use powadapt_obs::TraceRecorder;

    use super::*;
    use crate::sim::run_cluster;

    #[test]
    fn regional_failover_fails_closed_and_recovers() {
        let spec = regional_failover(SelectionPolicy::ModelDriven, 7);
        let trip = SimTime::from_millis(80);
        let restore = SimTime::from_millis(160);

        let mut sim = ClusterSim::new(spec).unwrap();
        sim.run_to(trip).unwrap();
        let before = sim.served_ios_so_far();
        sim.run_to(restore).unwrap();
        let during = sim.served_ios_so_far();
        sim.run_to(sim.end_time()).unwrap();
        let after = sim.served_ios_so_far();
        let report = sim.finish().unwrap();

        // Fail closed: the outage must never push a node over its cap.
        assert!(report.caps_respected(), "cap violated during outage");
        // Shedding: the fast rack is dark, so the outage interval serves
        // strictly less than the healthy interval of the same length.
        let healthy = before;
        let outage = during - before;
        let recovered = after - during;
        assert!(outage < healthy, "outage {outage} vs healthy {healthy}");
        // Recovery: once the feed returns, throughput climbs back above
        // the degraded level.
        assert!(
            recovered > outage,
            "recovered {recovered} vs outage {outage}"
        );
    }

    #[test]
    fn regional_failover_emits_breaker_events() {
        let rec = Arc::new(TraceRecorder::new(1 << 14));
        let report = powadapt_obs::with_recorder(Some(rec.clone()), || {
            run_cluster(regional_failover(SelectionPolicy::ModelDriven, 7)).unwrap()
        });
        assert!(report.served_ios > 0);
        // The recorder is process-global and tests run in parallel, so
        // assert at-least rather than exactly.
        let count = |name: &str| {
            rec.log()
                .counts()
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |&(_, n)| n)
        };
        assert!(count("breaker_trip") >= 1);
        assert!(count("breaker_restore") >= 1);
    }

    #[test]
    fn midnight_checkpoints_resume_bit_exact() {
        let days = 3;
        let seed = 11;
        let spec = diurnal_churn(SelectionPolicy::ModelDriven, days, seed);
        let (report, snaps) = run_with_midnight_checkpoints(spec, day()).unwrap();
        assert_eq!(snaps.len() as u64, days - 1);
        for snap in &snaps {
            let resumed = ClusterSim::resume(
                diurnal_churn(SelectionPolicy::ModelDriven, days, seed),
                snap,
            )
            .unwrap();
            let r2 = resumed.finish().unwrap();
            assert_eq!(r2, report);
        }
    }

    #[test]
    fn failover_checkpoint_mid_outage_resumes_bit_exact() {
        let make = || regional_failover(SelectionPolicy::ModelDriven, 13);
        let mut sim = ClusterSim::new(make()).unwrap();
        // Mid-outage: the breaker has tripped, the restore is pending.
        sim.run_to(SimTime::from_millis(120)).unwrap();
        let snap = sim.snapshot().unwrap();
        let straight = sim.finish().unwrap();
        let resumed = ClusterSim::resume(make(), &snap).unwrap().finish().unwrap();
        assert_eq!(resumed, straight);
    }

    #[test]
    fn rolling_firmware_checkpoint_resumes_bit_exact() {
        let make = || rolling_firmware(SelectionPolicy::ModelDriven, 5);
        let r1 = run_cluster(make()).unwrap();
        assert!(r1.caps_respected());
        assert!(r1.served_ios > 0);

        let mut sim = ClusterSim::new(make()).unwrap();
        // Mid-roll: some devices already released, some still stuck.
        sim.run_to(SimTime::from_millis(100)).unwrap();
        let snap = sim.snapshot().unwrap();
        let straight = sim.finish().unwrap();
        assert_eq!(straight, r1);
        let resumed = ClusterSim::resume(make(), &snap).unwrap().finish().unwrap();
        assert_eq!(resumed, r1);
    }

    #[test]
    fn resume_rejects_corruption_and_spec_mismatch() {
        let make = || diurnal_churn(SelectionPolicy::UniformStatic, 2, 3);
        let mut sim = ClusterSim::new(make()).unwrap();
        sim.run_to(sim.start_time() + day()).unwrap();
        let snap = sim.snapshot().unwrap();

        // One flipped payload byte: checksum mismatch, typed error.
        let mut bad = snap.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            ClusterSim::resume(make(), &bad),
            Err(ClusterError::Snapshot(_))
        ));
        // Truncation fails closed too.
        assert!(matches!(
            ClusterSim::resume(make(), &snap[..snap.len() - 3]),
            Err(ClusterError::Snapshot(_))
        ));
        // A spec with a different fault schedule rejects the snapshot.
        assert!(matches!(
            ClusterSim::resume(regional_failover(SelectionPolicy::UniformStatic, 3), &snap),
            Err(ClusterError::Snapshot(_))
        ));
        // The pristine snapshot still resumes.
        assert!(ClusterSim::resume(make(), &snap).is_ok());
    }
}
