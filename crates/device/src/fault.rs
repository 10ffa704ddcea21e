//! Deterministic fault injection for any [`StorageDevice`].
//!
//! The paper's §4.1 transition-safety requirement — "local failures of the
//! storage system to control power can safely be identified" — means the
//! control plane must be exercised against *misbehaving* devices, not just
//! healthy ones. [`FaultInjector`] wraps an inner device and injects a
//! reproducible fault stream on top of it:
//!
//! - **IO errors** — submissions rejected with [`DeviceError::Io`],
//! - **latency spikes** — completions held back by a fixed tail inflation,
//!   modeling media-retry storms,
//! - **admin failures** — `set_power_state` / `request_standby` /
//!   `request_wake` rejected probabilistically,
//! - **stuck power-state transitions** — a scheduled window in which every
//!   `set_power_state` times out and the device stays in its old state,
//! - **dropout** — a scheduled window in which the device is unreachable
//!   ([`DeviceError::Unavailable`]) for IO and admin alike.
//!
//! Probabilistic faults draw from a [`SimRng`] owned by the injector, so a
//! run is bit-for-bit reproducible given the same seed and the same
//! request sequence; scheduled faults are pure functions of simulated
//! time. An all-zero [`FaultPlan`] makes the injector fully transparent:
//! it consumes no random draws and perturbs no completion.
//!
//! # Examples
//!
//! ```
//! use powadapt_device::{catalog, FaultInjector, FaultPlan, StorageDevice};
//! use powadapt_sim::SimRng;
//!
//! let plan = FaultPlan::none().io_errors(0.5);
//! let mut dev = FaultInjector::new(
//!     Box::new(catalog::ssd2_d7_p5510(7)),
//!     plan,
//!     SimRng::seed_from(42),
//! );
//! assert_eq!(dev.spec().label(), "SSD2");
//! ```

use std::fmt;

use powadapt_obs::{emit, EventKind, RecorderHandle};
use powadapt_sim::{SimDuration, SimRng, SimTime};
use powadapt_snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::device::StorageDevice;
use crate::error::DeviceError;
use crate::io::{IoCompletion, IoRequest};
use crate::power::{PowerStateDesc, PowerStateId, StandbyDepth, StandbyState};
use crate::snapcodec;
use crate::spec::DeviceSpec;

/// What a scheduled [`FaultWindow`] does while it is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultWindowKind {
    /// The device is unreachable: IO and admin commands fail with
    /// [`DeviceError::Unavailable`].
    Dropout,
    /// Power-state transitions wedge: `set_power_state` fails with
    /// [`DeviceError::Timeout`] and the device stays in its old state.
    StuckPowerState,
    /// The admin queue is down: admin commands fail with
    /// [`DeviceError::Io`]; the IO path is unaffected.
    AdminOutage,
}

/// A scheduled fault active over `[from, until)` in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// What fails during the window.
    pub kind: FaultWindowKind,
    /// Start of the window (inclusive).
    pub from: SimTime,
    /// End of the window (exclusive).
    pub until: SimTime,
}

impl FaultWindow {
    /// True while `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// A deterministic fault schedule: probabilistic per-operation fault rates
/// plus scheduled fault windows.
///
/// Built fluently from [`FaultPlan::none`]; all rates default to zero and
/// the window list to empty, which makes the plan fully transparent.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability a submission fails with [`DeviceError::Io`].
    io_error_rate: f64,
    /// Probability a completion's latency is inflated by `latency_spike`.
    latency_spike_rate: f64,
    /// Tail inflation added to spiked completions.
    latency_spike: SimDuration,
    /// Probability an admin command fails with [`DeviceError::Io`].
    admin_failure_rate: f64,
    /// Scheduled fault windows.
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// The transparent plan: no faults.
    pub fn none() -> Self {
        FaultPlan {
            io_error_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike: SimDuration::ZERO,
            admin_failure_rate: 0.0,
            windows: Vec::new(),
        }
    }

    /// Fails each submission with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn io_errors(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "io error rate {rate} out of range"
        );
        self.io_error_rate = rate;
        self
    }

    /// Inflates each completion's latency by `extra` with probability
    /// `rate` (media-retry tail inflation).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn latency_spikes(mut self, rate: f64, extra: SimDuration) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "spike rate {rate} out of range"
        );
        self.latency_spike_rate = rate;
        self.latency_spike = extra;
        self
    }

    /// Fails each admin command (`set_power_state`, `request_standby`,
    /// `request_wake`) with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn admin_failures(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "admin failure rate {rate} out of range"
        );
        self.admin_failure_rate = rate;
        self
    }

    /// Schedules a window of the given kind over `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= until`.
    pub fn window(mut self, kind: FaultWindowKind, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "fault window must be non-empty");
        self.windows.push(FaultWindow { kind, from, until });
        self
    }

    /// Schedules a [`FaultWindowKind::Dropout`] window.
    pub fn dropout(self, from: SimTime, until: SimTime) -> Self {
        self.window(FaultWindowKind::Dropout, from, until)
    }

    /// Schedules a [`FaultWindowKind::StuckPowerState`] window.
    pub fn stuck_power_state(self, from: SimTime, until: SimTime) -> Self {
        self.window(FaultWindowKind::StuckPowerState, from, until)
    }

    /// Schedules a [`FaultWindowKind::AdminOutage`] window.
    pub fn admin_outage(self, from: SimTime, until: SimTime) -> Self {
        self.window(FaultWindowKind::AdminOutage, from, until)
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    fn active(&self, kind: FaultWindowKind, t: SimTime) -> bool {
        self.windows.iter().any(|w| w.kind == kind && w.contains(t))
    }
}

/// Counters of every fault the injector has materialized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Submissions rejected with [`DeviceError::Io`].
    pub io_errors: u64,
    /// Operations rejected with [`DeviceError::Unavailable`] (dropout).
    pub unavailable: u64,
    /// Admin commands rejected (probabilistic, outage, or stuck window).
    pub admin_failures: u64,
    /// Completions whose latency was inflated.
    pub latency_spikes: u64,
}

impl FaultStats {
    /// Total injected faults across all categories.
    pub fn total(&self) -> u64 {
        self.io_errors + self.unavailable + self.admin_failures + self.latency_spikes
    }
}

/// A decorator that injects a seeded, scheduled fault stream into any
/// [`StorageDevice`]. See the [module docs](self) for the fault taxonomy.
pub struct FaultInjector {
    inner: Box<dyn StorageDevice>,
    // powadapt-lint: allow(d6, reason = "static fault schedule; rebuilt from configuration on resume")
    plan: FaultPlan,
    rng: SimRng,
    /// Spiked completions not yet released: `(release time, completion)`
    /// with `completion.completed` already set to the release time.
    held: Vec<IoCompletion>,
    stats: FaultStats,
    // powadapt-lint: allow(d6, reason = "telemetry sink; re-captured from the global slot at construction")
    rec: RecorderHandle,
    // powadapt-lint: allow(d6, reason = "telemetry label; re-derived at construction")
    track: &'static str,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("inner", &self.inner.spec().label())
            .field("plan", &self.plan)
            .field("held", &self.held.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FaultInjector {
    /// Wraps `inner`, injecting faults per `plan`, drawing probabilistic
    /// faults from `rng`.
    pub fn new(inner: Box<dyn StorageDevice>, plan: FaultPlan, rng: SimRng) -> Self {
        let track = powadapt_obs::intern(inner.spec().label());
        FaultInjector {
            inner,
            plan,
            rng,
            held: Vec::new(),
            stats: FaultStats::default(),
            rec: powadapt_obs::current(),
            track,
        }
    }

    fn note_fault(&self, fault: &str) {
        emit!(
            self.rec,
            self.inner.now(),
            self.track,
            EventKind::FaultInjected {
                fault: fault.to_string(),
            }
        );
    }

    /// Convenience constructor seeding the fault stream from `seed`.
    pub fn seeded(inner: Box<dyn StorageDevice>, plan: FaultPlan, seed: u64) -> Self {
        FaultInjector::new(inner, plan, SimRng::seed_from(seed))
    }

    /// Counters of the faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The fault plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped device.
    pub fn inner(&self) -> &dyn StorageDevice {
        self.inner.as_ref()
    }

    /// Unwraps the injector, returning the inner device.
    pub fn into_inner(self) -> Box<dyn StorageDevice> {
        self.inner
    }

    /// Gate shared by every admin command. `stuck` marks commands that the
    /// [`FaultWindowKind::StuckPowerState`] window also wedges.
    fn admin_gate(&mut self, op: &'static str, stuck: bool) -> Result<(), DeviceError> {
        let now = self.inner.now();
        if self.plan.active(FaultWindowKind::Dropout, now) {
            self.stats.unavailable += 1;
            self.note_fault("dropout");
            return Err(DeviceError::Unavailable);
        }
        if stuck && self.plan.active(FaultWindowKind::StuckPowerState, now) {
            self.stats.admin_failures += 1;
            self.note_fault("stuck_power_state");
            return Err(DeviceError::Timeout { op });
        }
        if self.plan.active(FaultWindowKind::AdminOutage, now) {
            self.stats.admin_failures += 1;
            self.note_fault("admin_outage");
            return Err(DeviceError::Io { request: None });
        }
        if self.plan.admin_failure_rate > 0.0 && self.rng.chance(self.plan.admin_failure_rate) {
            self.stats.admin_failures += 1;
            self.note_fault("admin_failure");
            return Err(DeviceError::Io { request: None });
        }
        Ok(())
    }

    /// Moves held completions due at or before `t` into `out`, in
    /// deterministic (release time, id) order.
    fn release_due(&mut self, t: SimTime, out: &mut Vec<IoCompletion>) {
        if self.held.is_empty() {
            return;
        }
        let mut due: Vec<IoCompletion> = Vec::new();
        self.held.retain(|c| {
            if c.completed <= t {
                due.push(*c);
                false
            } else {
                true
            }
        });
        due.sort_by_key(|c| (c.completed, c.id));
        out.extend(due);
    }
}

impl StorageDevice for FaultInjector {
    fn spec(&self) -> &DeviceSpec {
        self.inner.spec()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn submit(&mut self, req: IoRequest) -> Result<(), DeviceError> {
        let now = self.inner.now();
        if self.plan.active(FaultWindowKind::Dropout, now) {
            self.stats.unavailable += 1;
            self.note_fault("dropout");
            return Err(DeviceError::Unavailable);
        }
        if self.plan.io_error_rate > 0.0 && self.rng.chance(self.plan.io_error_rate) {
            self.stats.io_errors += 1;
            self.note_fault("io_error");
            return Err(DeviceError::Io {
                request: Some(req.id.0),
            });
        }
        self.inner.submit(req)
    }

    fn next_event(&mut self) -> Option<SimTime> {
        let held_min = self.held.iter().map(|c| c.completed).min();
        match (self.inner.next_event(), held_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    // powadapt-lint: hot
    fn advance_to_into(&mut self, t: SimTime, out: &mut Vec<IoCompletion>) {
        // powadapt-lint: allow(d9, reason = "spike-release path allocates only when spiked completions are held; rare by construction")
        self.release_due(t, out);
        let start = out.len();
        self.inner.advance_to_into(t, out);
        // Walk the completions the inner device just appended, drawing the
        // spike chance per completion in arrival order (the RNG sequence
        // is part of the deterministic contract). Spiked completions that
        // land beyond `t` move to `held`; a single compaction pass keeps
        // the rest in order without re-shifting the tail per removal.
        let mut write = start;
        for read in start..out.len() {
            let mut c = out[read];
            if self.plan.latency_spike_rate > 0.0 && self.rng.chance(self.plan.latency_spike_rate) {
                self.stats.latency_spikes += 1;
                emit!(
                    self.rec,
                    c.completed,
                    self.track,
                    EventKind::FaultInjected {
                        fault: "latency_spike".to_string(),
                    }
                );
                c.completed += self.plan.latency_spike;
                if c.completed > t {
                    // powadapt-lint: allow(d9, reason = "held buffer is recycled; growth bounded by in-flight spiked completions")
                    self.held.push(c);
                    continue;
                }
            }
            out[write] = c;
            write += 1;
        }
        out.truncate(write);
    }

    fn power_w(&self) -> f64 {
        self.inner.power_w()
    }

    fn set_power_state(&mut self, ps: PowerStateId) -> Result<(), DeviceError> {
        self.admin_gate("set_power_state", true)?;
        self.inner.set_power_state(ps)
    }

    fn power_state(&self) -> PowerStateId {
        self.inner.power_state()
    }

    fn power_states(&self) -> &[PowerStateDesc] {
        self.inner.power_states()
    }

    fn request_standby(&mut self) -> Result<(), DeviceError> {
        self.admin_gate("request_standby", false)?;
        self.inner.request_standby()
    }

    fn request_standby_depth(&mut self, depth: StandbyDepth) -> Result<(), DeviceError> {
        self.admin_gate("request_standby_depth", false)?;
        self.inner.request_standby_depth(depth)
    }

    fn standby_depth(&self) -> StandbyDepth {
        self.inner.standby_depth()
    }

    fn request_wake(&mut self) -> Result<(), DeviceError> {
        self.admin_gate("request_wake", false)?;
        self.inner.request_wake()
    }

    fn standby_state(&self) -> StandbyState {
        self.inner.standby_state()
    }

    fn standby_power_w(&self) -> Option<f64> {
        self.inner.standby_power_w()
    }

    fn inflight(&self) -> usize {
        self.inner.inflight() + self.held.len()
    }

    fn set_recorder(&mut self, rec: RecorderHandle, track: &'static str) {
        self.rec = rec.clone();
        self.track = track;
        self.inner.set_recorder(rec, track);
    }

    fn write_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        // The plan is configuration: a restored injector is rebuilt with the
        // same plan, so only the stochastic and in-flight state travels.
        self.inner.write_state(w)?;
        Snapshot::write_state(&self.rng, w)?;
        snapcodec::write_completions(w, &self.held);
        w.u64(self.stats.io_errors);
        w.u64(self.stats.unavailable);
        w.u64(self.stats.admin_failures);
        w.u64(self.stats.latency_spikes);
        Ok(())
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.read_state(r)?;
        Restore::read_state(&mut self.rng, r)?;
        self.held = snapcodec::read_completions(r)?;
        self.stats.io_errors = r.u64()?;
        self.stats.unavailable = r.u64()?;
        self.stats.admin_failures = r.u64()?;
        self.stats.latency_spikes = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::device::drain;
    use crate::io::{IoId, IoKind, KIB};

    fn injected(plan: FaultPlan, seed: u64) -> FaultInjector {
        FaultInjector::seeded(Box::new(catalog::ssd2_d7_p5510(1)), plan, seed)
    }

    fn req(id: u64) -> IoRequest {
        IoRequest::new(IoId(id), IoKind::Read, id * 64 * KIB, 4 * KIB)
    }

    #[test]
    fn transparent_plan_perturbs_nothing() {
        let mut plain = catalog::ssd2_d7_p5510(1);
        let mut wrapped = injected(FaultPlan::none(), 9);
        for i in 0..16 {
            plain.submit(req(i)).unwrap();
            wrapped.submit(req(i)).unwrap();
        }
        let a = drain(&mut plain);
        let b = drain(&mut wrapped);
        assert_eq!(a, b, "zero-rate injector must be bit-transparent");
        assert_eq!(wrapped.stats().total(), 0);
    }

    #[test]
    fn io_error_rate_one_rejects_every_submit() {
        let mut dev = injected(FaultPlan::none().io_errors(1.0), 3);
        for i in 0..8 {
            match dev.submit(req(i)) {
                Err(DeviceError::Io { request }) => assert_eq!(request, Some(i)),
                other => panic!("expected io error, got {other:?}"),
            }
        }
        assert_eq!(dev.stats().io_errors, 8);
        assert_eq!(dev.inflight(), 0);
    }

    #[test]
    fn io_errors_are_deterministic_per_seed() {
        let run = |seed| {
            let mut dev = injected(FaultPlan::none().io_errors(0.3), seed);
            (0..64)
                .map(|i| dev.submit(req(i)).is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(
            run(5),
            run(6),
            "different seeds give different fault streams"
        );
    }

    #[test]
    fn latency_spikes_inflate_and_account_all_completions() {
        let extra = SimDuration::from_millis(50);
        let mut spiked = injected(FaultPlan::none().latency_spikes(1.0, extra), 11);
        let mut plain = catalog::ssd2_d7_p5510(1);
        for i in 0..8 {
            spiked.submit(req(i)).unwrap();
            plain.submit(req(i)).unwrap();
        }
        let base = drain(&mut plain);
        let got = drain(&mut spiked);
        assert_eq!(got.len(), base.len(), "no completion is lost");
        assert_eq!(spiked.stats().latency_spikes, 8);
        for (s, b) in got.iter().zip(&base) {
            assert_eq!(s.id, b.id);
            assert_eq!(s.completed, b.completed + extra);
        }
        assert_eq!(spiked.inflight(), 0);
    }

    #[test]
    fn dropout_window_rejects_then_recovers() {
        let plan = FaultPlan::none().dropout(SimTime::ZERO, SimTime::from_millis(10));
        let mut dev = injected(plan, 1);
        assert_eq!(dev.submit(req(0)), Err(DeviceError::Unavailable));
        assert_eq!(
            dev.set_power_state(PowerStateId(1)),
            Err(DeviceError::Unavailable)
        );
        // Advance past the window: the device is reachable again.
        dev.advance_to(SimTime::from_millis(10));
        dev.submit(req(1)).expect("window over");
        dev.set_power_state(PowerStateId(1)).expect("window over");
        assert_eq!(dev.stats().unavailable, 2);
    }

    #[test]
    fn stuck_window_wedges_power_state_but_not_io() {
        let plan = FaultPlan::none().stuck_power_state(SimTime::ZERO, SimTime::from_millis(5));
        let mut dev = injected(plan, 1);
        match dev.set_power_state(PowerStateId(1)) {
            Err(DeviceError::Timeout { op }) => assert_eq!(op, "set_power_state"),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(dev.power_state(), PowerStateId(0), "state unchanged");
        dev.submit(req(0)).expect("io path unaffected");
        dev.advance_to(SimTime::from_millis(5));
        dev.set_power_state(PowerStateId(1)).expect("window over");
        assert_eq!(dev.power_state(), PowerStateId(1));
    }

    #[test]
    fn admin_outage_fails_admin_only() {
        let plan = FaultPlan::none().admin_outage(SimTime::ZERO, SimTime::from_millis(5));
        let mut dev = injected(plan, 1);
        assert_eq!(
            dev.set_power_state(PowerStateId(1)),
            Err(DeviceError::Io { request: None })
        );
        assert_eq!(
            dev.request_standby(),
            Err(DeviceError::Io { request: None })
        );
        dev.submit(req(0)).expect("io path unaffected");
    }

    #[test]
    fn held_completions_count_as_inflight() {
        let extra = SimDuration::from_secs(5);
        let mut dev = injected(FaultPlan::none().latency_spikes(1.0, extra), 2);
        dev.submit(req(0)).unwrap();
        // Advance only to the inner completion time: the spike holds it.
        while dev.inner().inflight() > 0 {
            let t = dev.next_event().expect("completion pending");
            let done = dev.advance_to(t);
            if dev.inner().inflight() == 0 {
                assert!(done.is_empty(), "completion must be held, not delivered");
            }
        }
        assert_eq!(dev.inflight(), 1, "held completion still counts");
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        assert_eq!(dev.inflight(), 0);
    }

    #[test]
    fn plan_validation_rejects_bad_inputs() {
        assert!(std::panic::catch_unwind(|| FaultPlan::none().io_errors(1.5)).is_err());
        assert!(std::panic::catch_unwind(|| {
            FaultPlan::none().dropout(SimTime::from_millis(5), SimTime::from_millis(5))
        })
        .is_err());
    }
}
