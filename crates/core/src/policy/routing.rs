//! Routers that plug the §4 policies into the fleet simulator
//! ([`powadapt_io::run_fleet`]): measured — not estimated — policy
//! evaluation.

use powadapt_device::{IoKind, PowerStateId, StandbyState};
use powadapt_io::{pick_least_loaded, Arrival, DeviceCommand, DeviceStatus, Route, Router};
use powadapt_sim::SimTime;

use crate::policy::redirection::{RedirectionConfig, RedirectionPolicy};

/// SRCMap-style consolidation as a live router: periodically re-estimates
/// demand from observed arrivals, steps the [`RedirectionPolicy`], and
/// issues standby/wake commands so only the active prefix of the fleet
/// serves IO.
///
/// Devices that do not support standby are left active but unused when
/// outside the active prefix.
#[derive(Debug)]
pub struct ConsolidatingRouter {
    policy: RedirectionPolicy,
    bytes_since_control: u64,
    last_control: SimTime,
    cursor: usize,
}

impl ConsolidatingRouter {
    /// Creates the router for `total` devices.
    ///
    /// # Errors
    ///
    /// Returns the policy configuration problem, if any.
    pub fn new(total: usize, cfg: RedirectionConfig) -> Result<Self, String> {
        Ok(ConsolidatingRouter {
            policy: RedirectionPolicy::new(total, cfg)?,
            bytes_since_control: 0,
            last_control: SimTime::ZERO,
            cursor: 0,
        })
    }

    /// Devices currently designated active.
    pub fn active(&self) -> usize {
        self.policy.active()
    }
}

impl Router for ConsolidatingRouter {
    fn route(&mut self, arrival: &Arrival, fleet: &[DeviceStatus]) -> Route {
        self.bytes_since_control += arrival.len;
        let active = self.policy.active().min(fleet.len()).max(1);
        Route::Device(pick_least_loaded(&fleet[..active], &mut self.cursor))
    }

    fn control(&mut self, now: SimTime, fleet: &[DeviceStatus]) -> Vec<DeviceCommand> {
        let window = now.saturating_duration_since(self.last_control);
        self.last_control = now;
        if window.is_zero() {
            return Vec::new();
        }
        let demand_bps = self.bytes_since_control as f64 / window.as_secs_f64();
        self.bytes_since_control = 0;
        let decision = self.policy.step(demand_bps);

        let mut cmds = Vec::new();
        for (i, d) in fleet.iter().enumerate() {
            if i < decision.active {
                if d.standby != StandbyState::Active {
                    cmds.push(DeviceCommand::Wake { device: i });
                }
            } else if d.supports_standby && d.standby == StandbyState::Active && d.inflight == 0 {
                cmds.push(DeviceCommand::Standby { device: i });
            }
        }
        cmds
    }
}

/// The §4 "leveraging asymmetric IO" policy as a live router: writes go to
/// a small uncapped prefix of the fleet, reads to the capped remainder.
#[derive(Debug)]
pub struct WriteSegregationRouter {
    write_devices: usize,
    read_cap: PowerStateId,
    configured: bool,
    w_cursor: usize,
    r_cursor: usize,
}

impl WriteSegregationRouter {
    /// Creates the router: devices `0..write_devices` take writes uncapped;
    /// the rest serve reads in power state `read_cap`.
    ///
    /// # Panics
    ///
    /// Panics if `write_devices` is zero (writes must not be capped; give
    /// them at least one device).
    pub fn new(write_devices: usize, read_cap: PowerStateId) -> Self {
        assert!(write_devices > 0, "need at least one write device");
        WriteSegregationRouter {
            write_devices,
            read_cap,
            configured: false,
            w_cursor: 0,
            r_cursor: 0,
        }
    }
}

impl Router for WriteSegregationRouter {
    fn route(&mut self, arrival: &Arrival, fleet: &[DeviceStatus]) -> Route {
        let w = self.write_devices.min(fleet.len());
        Route::Device(match arrival.kind {
            IoKind::Write => pick_least_loaded(&fleet[..w], &mut self.w_cursor),
            IoKind::Read => {
                if w >= fleet.len() {
                    pick_least_loaded(fleet, &mut self.r_cursor)
                } else {
                    w + pick_least_loaded(&fleet[w..], &mut self.r_cursor)
                }
            }
        })
    }

    fn control(&mut self, _now: SimTime, fleet: &[DeviceStatus]) -> Vec<DeviceCommand> {
        if self.configured {
            return Vec::new();
        }
        self.configured = true;
        (self.write_devices.min(fleet.len())..fleet.len())
            .map(|device| DeviceCommand::SetPowerState {
                device,
                ps: self.read_cap,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_device::{catalog, StorageDevice, GIB, KIB};
    use powadapt_io::{run_fleet, AccessPattern, Arrivals, LeastLoadedRouter, OpenLoopSpec};
    use powadapt_sim::SimDuration;

    fn evo_fleet(n: usize) -> Vec<Box<dyn StorageDevice>> {
        (0..n)
            .map(|i| Box::new(catalog::evo_860(300 + i as u64)) as Box<dyn StorageDevice>)
            .collect()
    }

    fn light_stream(read_fraction: f64) -> OpenLoopSpec {
        OpenLoopSpec {
            arrivals: Arrivals::Poisson { rate_iops: 800.0 },
            block_size: 64 * KIB,
            read_fraction,
            pattern: AccessPattern::Random,
            region: (0, 4 * GIB),
            duration: SimDuration::from_millis(1500),
            seed: 77,
            zipf_theta: None,
        }
    }

    fn redirection_cfg() -> RedirectionConfig {
        RedirectionConfig {
            per_device_capacity_bps: 0.4e9,
            active_power_w: 2.0,
            standby_power_w: 0.17,
            wake_latency: SimDuration::from_millis(400),
            grow_threshold: 0.85,
            shrink_threshold: 0.6,
        }
    }

    #[test]
    fn consolidation_saves_measured_energy_at_low_load() {
        let spec = light_stream(0.7);
        let interval = SimDuration::from_millis(100);

        let baseline = {
            let mut devices = evo_fleet(4);
            let mut router = LeastLoadedRouter::default();
            run_fleet(&mut devices, &mut router, &spec, interval).expect("baseline runs")
        };
        let consolidated = {
            let mut devices = evo_fleet(4);
            let mut router = ConsolidatingRouter::new(4, redirection_cfg()).expect("valid");
            run_fleet(&mut devices, &mut router, &spec, interval).expect("policy runs")
        };

        assert_eq!(baseline.total.ios(), consolidated.total.ios(), "same work");
        assert!(
            consolidated.energy_j < baseline.energy_j * 0.9,
            "consolidation should save >10% energy: {:.2} J vs {:.2} J",
            consolidated.energy_j,
            baseline.energy_j
        );
    }

    #[test]
    fn consolidation_keeps_latency_bounded() {
        let spec = light_stream(1.0);
        let mut devices = evo_fleet(4);
        let mut router = ConsolidatingRouter::new(4, redirection_cfg()).expect("valid");
        let r = run_fleet(
            &mut devices,
            &mut router,
            &spec,
            SimDuration::from_millis(100),
        )
        .expect("policy runs");
        // Requests routed to the active subset never hit a sleeping device,
        // so only p99.9-class wake events may appear. Median must stay low.
        let lat = r.total.latency_summary().expect("has latencies");
        assert!(
            lat.median() < 3_000.0,
            "median latency {} us should be unaffected",
            lat.median()
        );
    }

    #[test]
    fn consolidating_router_actually_sleeps_devices() {
        let spec = light_stream(0.5);
        let mut devices = evo_fleet(4);
        let mut router = ConsolidatingRouter::new(4, redirection_cfg()).expect("valid");
        let r = run_fleet(
            &mut devices,
            &mut router,
            &spec,
            SimDuration::from_millis(100),
        )
        .expect("policy runs");
        // The tail devices served almost nothing.
        let tail: u64 = r.per_device[2..].iter().map(|d| d.routed).sum();
        assert!(
            tail * 10 < r.total.ios(),
            "tail devices should be nearly unused: {tail} of {}",
            r.total.ios()
        );
        assert!(router.active() <= 3);
    }

    #[test]
    fn write_segregation_separates_traffic_and_caps_readers() {
        let mut devices: Vec<Box<dyn StorageDevice>> = (0..4)
            .map(|i| Box::new(catalog::ssd2_d7_p5510(400 + i)) as Box<dyn StorageDevice>)
            .collect();
        let mut router = WriteSegregationRouter::new(1, PowerStateId(2));
        let spec = OpenLoopSpec {
            arrivals: Arrivals::Poisson { rate_iops: 3_000.0 },
            block_size: 256 * KIB,
            read_fraction: 0.75,
            pattern: AccessPattern::Random,
            region: (0, 8 * GIB),
            duration: SimDuration::from_millis(800),
            seed: 5,
            zipf_theta: None,
        };
        let r = run_fleet(
            &mut devices,
            &mut router,
            &spec,
            SimDuration::from_millis(50),
        )
        .expect("policy runs");

        // Device 0 took all the writes; devices 1..4 only reads.
        assert!(r.per_device[0].routed > 0);
        for d in &r.per_device[1..] {
            assert!(d.routed > 0, "readers serve traffic");
        }
        // Readers were capped.
        for dev in &devices[1..] {
            assert_eq!(dev.power_state(), PowerStateId(2));
        }
        assert_eq!(devices[0].power_state(), PowerStateId(0));
    }

    #[test]
    fn write_segregation_preserves_write_qos_under_caps() {
        // The §4 claim: when the fleet must be power-capped, capping
        // *everything* tanks write QoS (caps crush writes); segregating the
        // writes onto a few uncapped devices and capping only the
        // read-serving remainder keeps write latency intact at a similar
        // fleet power.
        // Write-heavy enough that each uniformly capped device takes more
        // write traffic (1.75 GB/s) than its capped drain rate (~1.5 GB/s):
        // buffers fill and write latency collapses. Segregated, three
        // uncapped writers take 2.3 GB/s each — well within their 3.5 GB/s.
        let spec = OpenLoopSpec {
            arrivals: Arrivals::Poisson { rate_iops: 4_096.0 },
            block_size: 2048 * KIB,
            read_fraction: 0.18,
            pattern: AccessPattern::Random,
            region: (0, 8 * GIB),
            duration: SimDuration::from_millis(1200),
            seed: 6,
            zipf_theta: None,
        };
        let interval = SimDuration::from_millis(50);
        let fleet = || -> Vec<Box<dyn StorageDevice>> {
            (0..4)
                .map(|i| Box::new(catalog::ssd2_d7_p5510(500 + i)) as Box<dyn StorageDevice>)
                .collect()
        };

        // Baseline: everything capped to ps2, traffic mixed everywhere.
        #[derive(Debug, Default)]
        struct AllCapped(LeastLoadedRouter, bool);
        impl Router for AllCapped {
            fn route(&mut self, a: &Arrival, f: &[DeviceStatus]) -> Route {
                self.0.route(a, f)
            }
            fn control(&mut self, _n: SimTime, f: &[DeviceStatus]) -> Vec<DeviceCommand> {
                if self.1 {
                    return Vec::new();
                }
                self.1 = true;
                (0..f.len())
                    .map(|device| DeviceCommand::SetPowerState {
                        device,
                        ps: PowerStateId(2),
                    })
                    .collect()
            }
        }

        let uniform = {
            let mut devices = fleet();
            let mut router = AllCapped::default();
            run_fleet(&mut devices, &mut router, &spec, interval).expect("runs")
        };
        let segregated = {
            let mut devices = fleet();
            let mut router = WriteSegregationRouter::new(3, PowerStateId(2));
            run_fleet(&mut devices, &mut router, &spec, interval).expect("runs")
        };

        assert_eq!(
            uniform.total.ios(),
            segregated.total.ios(),
            "same offered work"
        );
        let u_p99 = uniform.writes.p99_latency_us();
        let s_p99 = segregated.writes.p99_latency_us();
        assert!(
            s_p99 < u_p99 * 0.6,
            "segregated write p99 {s_p99:.0} us should beat all-capped {u_p99:.0} us"
        );
        // Fleet power stays in the same ballpark — the win is QoS, not
        // spending more power.
        let (u_w, s_w) = (uniform.avg_power_w(), segregated.avg_power_w());
        assert!(
            s_w < u_w * 1.25,
            "segregated power {s_w:.1} W vs all-capped {u_w:.1} W"
        );
        // Reads are not hurt by capping the read devices.
        let u_read = uniform.reads.avg_latency_us();
        let s_read = segregated.reads.avg_latency_us();
        assert!(
            s_read < u_read * 1.3,
            "segregated read avg {s_read:.0} us vs {u_read:.0} us"
        );
    }

    #[test]
    #[should_panic(expected = "at least one write device")]
    fn segregation_requires_a_write_device() {
        let _ = WriteSegregationRouter::new(0, PowerStateId(1));
    }
}
