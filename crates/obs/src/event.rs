//! Typed, schema'd telemetry events.
//!
//! Every event carries a [`SimTime`] stamp — never wall-clock — so a
//! recorded trace is a pure function of the run's seeds and configuration.
//! The `track` names the emitting component (`device0`, `controller`,
//! `meter`) and becomes a thread row in the Chrome trace export.

use std::fmt;

use powadapt_sim::{SimDuration, SimTime};

/// Transfer direction of an IO, from the host's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDir {
    /// Device-to-host transfer.
    Read,
    /// Host-to-device transfer.
    Write,
}

impl IoDir {
    /// Lower-case name, as used in metric keys and trace args.
    pub fn as_str(self) -> &'static str {
        match self {
            IoDir::Read => "read",
            IoDir::Write => "write",
        }
    }
}

impl fmt::Display for IoDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One telemetry event: a sim-time stamp, the emitting track, and the
/// typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation time of the event. For [`EventKind::Span`] this is the
    /// span's *start*; the duration lives in the payload.
    pub at: SimTime,
    /// Emitting component (`device3`, `controller`, `meter`, ...).
    ///
    /// Interned (`&'static str`, see [`crate::intern`]): emit sites copy
    /// a pointer, so recording an event carries no allocation and no
    /// refcount traffic. Literals are already `'static`; dynamic names
    /// are interned once at component construction.
    pub track: &'static str,
    /// Typed payload.
    pub kind: EventKind,
}

/// Payload of [`EventKind::ControllerDecision`]: the adaptive controller
/// applied a budget and produced a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerDecision {
    /// The budget being applied, in watts.
    pub budget_w: f64,
    /// Measured fleet power *before* the plan, in watts.
    pub measured_w: f64,
    /// Expected fleet power after the plan, in watts.
    pub expected_power_w: f64,
    /// Expected fleet throughput after the plan, in bytes/second.
    pub expected_throughput_bps: f64,
    /// Labels of devices out of service after this round.
    pub quarantined: Vec<String>,
    /// Labels of devices that refused their action this round.
    pub degraded: Vec<String>,
}

/// Payload of [`EventKind::RebalanceDecision`]: the power tree granted a
/// node a revised budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceDecision {
    /// Path of the tree node (`cluster/row0/rack1/enc0`).
    pub node: String,
    /// The node's physical cap in watts.
    pub cap_w: f64,
    /// Budget granted to the node this round, in watts.
    pub granted_w: f64,
    /// Aggregate demand the node reported, in watts.
    pub demand_w: f64,
}

/// Payload of [`EventKind::EnergyAttributed`]: the energy ledger
/// attributed cumulative joules to a power-tree node at an audit round.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyAttributed {
    /// Path of the tree node (`cluster/row0/rack1`).
    pub node: String,
    /// Cumulative energy attributed to the node, in joules.
    pub joules: f64,
    /// Headroom between the node's last grant and its measured draw, in
    /// watts (never negative).
    pub stranded_w: f64,
}

/// Payload of [`EventKind::ConservationViolation`]: the energy ledger's
/// conservation audit failed.
#[derive(Debug, Clone, PartialEq)]
pub struct ConservationViolation {
    /// Path of the violating tree node.
    pub node: String,
    /// Human-readable description of the broken invariant.
    pub detail: String,
}

/// The event schema. Variants mirror the observable edges of the
/// simulation: IO lifecycle, power-state machinery, fault plumbing, and
/// control decisions.
///
/// Rare, payload-heavy kinds (controller/rebalance decisions, ledger
/// audit results) box their payloads so `EventKind` stays small: every
/// recorded event is moved into a ring by value, so the enum's footprint
/// is hot-path memory traffic even when the fat variants never fire.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EventKind {
    /// An IO request was accepted by a device.
    IoSubmit {
        /// Request id, unique within its device.
        id: u64,
        /// Transfer direction.
        dir: IoDir,
        /// Transfer length in bytes.
        len: u64,
    },
    /// An IO request completed.
    IoComplete {
        /// Request id, matching the earlier [`EventKind::IoSubmit`].
        id: u64,
        /// Transfer direction.
        dir: IoDir,
        /// Transfer length in bytes.
        len: u64,
        /// Submit-to-complete latency in sim time.
        latency: SimDuration,
    },
    /// An IO failed at submit or was rejected by the device.
    IoError {
        /// Request id of the failed IO.
        id: u64,
        /// Rendered device error.
        error: String,
    },
    /// An arrival was dropped after exhausting re-route attempts.
    ArrivalDropped {
        /// Request id of the dropped arrival.
        id: u64,
    },
    /// A device moved between power states (paper §2 P0..Pn).
    PowerStateTransition {
        /// Index of the state being left.
        from: u8,
        /// Index of the state being entered.
        to: u8,
    },
    /// The cap governor deferred work to stay under the configured cap.
    CapApplied {
        /// The active cap in watts.
        cap_w: f64,
        /// Instantaneous device power when the cap bit.
        power_w: f64,
    },
    /// A device began spinning up / exiting standby.
    SpinUp,
    /// A device began spinning down / entering standby.
    SpinDown,
    /// The fault injector fired.
    FaultInjected {
        /// Short fault label (`io_error`, `latency_spike`, `dropout`, ...).
        fault: String,
    },
    /// A circuit breaker opened (device quarantined from routing).
    BreakerOpen,
    /// A circuit breaker moved to half-open (probe traffic allowed).
    BreakerHalfOpen,
    /// A circuit breaker closed (device back in service).
    BreakerClose,
    /// The adaptive controller applied a budget and produced a plan.
    ControllerDecision(Box<ControllerDecision>),
    /// A power-tree node's breaker tripped: the whole subtree lost its
    /// feed (regional failure, rack breaker, row maintenance).
    BreakerTrip {
        /// Path of the tripped tree node (`cluster/row0/rack1`).
        node: String,
    },
    /// A previously tripped power-tree node's feed was restored.
    BreakerRestore {
        /// Path of the restored tree node.
        node: String,
    },
    /// The power tree granted a node a revised budget (cluster layer).
    RebalanceDecision(Box<RebalanceDecision>),
    /// One reading of the power rig (becomes a counter track in Perfetto).
    PowerSample {
        /// The sampled (quantized, noisy) power in watts.
        watts: f64,
    },
    /// A profiling span with a known sim-time duration; `Event::at` is the
    /// start.
    Span {
        /// Hierarchy-free label (`die0.program`, `media.xfer`, ...).
        /// Interned for the same reason as [`Event::track`]: spans
        /// dominate a trace, and a label copy must be free.
        label: &'static str,
        /// Sim-time duration of the span.
        dur: SimDuration,
    },
    /// The energy ledger attributed cumulative joules to a power-tree
    /// node at an audit round (cluster layer).
    EnergyAttributed(Box<EnergyAttributed>),
    /// The energy ledger's conservation audit failed — children's
    /// attributed joules no longer sum to the parent's metered joules, or
    /// a grant exceeded a cap. Should never fire on a healthy run.
    ConservationViolation(Box<ConservationViolation>),
    /// A tenant's SLO error budget is burning: its windowed p99 latency
    /// is at or near the SLO target while the cluster runs close to its
    /// breaker limits.
    SloBurnAlert {
        /// Tenant name.
        tenant: String,
        /// Windowed p99 latency divided by the SLO target (1.0 = at the
        /// limit).
        burn_rate: f64,
    },
    /// The placement tier bound an extent to a replica set (place layer).
    PlacementDecision {
        /// Extent id, unique within the catalog.
        extent: u64,
        /// Flat device index of the primary replica.
        primary: u32,
        /// Total replicas placed (primary included).
        replicas: u8,
    },
    /// The migration engine began moving an extent between devices.
    MigrationStarted {
        /// Extent id being moved.
        extent: u64,
        /// Flat device index of the source replica.
        from: u32,
        /// Flat device index of the destination replica.
        to: u32,
    },
    /// A previously started extent migration committed on the destination.
    MigrationCompleted {
        /// Extent id that finished moving.
        extent: u64,
        /// Flat device index of the source replica.
        from: u32,
        /// Flat device index of the destination replica.
        to: u32,
    },
    /// The router skipped standby or quarantined devices for an arrival
    /// rather than paying a hidden spin-up on the request path.
    RoutedAround {
        /// Request id of the arrival that was re-routed.
        id: u64,
        /// Number of unavailable devices skipped before placing the IO.
        skipped: u32,
    },
}

impl EventKind {
    /// Every stable schema name, in schema order. The table is what maps
    /// serialized count keys back to the `&'static str` keys used by
    /// [`EventLog`](crate::EventLog) counters, so a checkpointed run's
    /// per-kind accounting survives a cross-process resume.
    pub const NAMES: &'static [&'static str] = &[
        "io_submit",
        "io_complete",
        "io_error",
        "arrival_dropped",
        "power_state_transition",
        "cap_applied",
        "spin_up",
        "spin_down",
        "fault_injected",
        "breaker_open",
        "breaker_half_open",
        "breaker_close",
        "controller_decision",
        "breaker_trip",
        "breaker_restore",
        "rebalance_decision",
        "power_sample",
        "span",
        "energy_attributed",
        "conservation_violation",
        "slo_burn_alert",
        "placement_decision",
        "migration_started",
        "migration_completed",
        "routed_around",
    ];

    /// Number of schema kinds — the length of [`Self::NAMES`] and the
    /// size of any dense per-kind table ([`index`](Self::index)).
    pub const COUNT: usize = Self::NAMES.len();

    /// Resolves a schema name to its interned `&'static str`, or `None`
    /// for a name no [`EventKind`] variant produces.
    pub fn intern_name(name: &str) -> Option<&'static str> {
        Self::NAMES.iter().copied().find(|&n| n == name)
    }

    /// Resolves a schema name to its dense index in [`Self::NAMES`].
    pub fn name_index(name: &str) -> Option<usize> {
        Self::NAMES.iter().position(|&n| n == name)
    }

    /// Dense per-kind index into [`Self::NAMES`] — what lets the event
    /// log keep its per-kind counters in a fixed array instead of a map,
    /// so the record hot path does one add instead of a keyed lookup.
    pub fn index(&self) -> usize {
        match self {
            EventKind::IoSubmit { .. } => 0,
            EventKind::IoComplete { .. } => 1,
            EventKind::IoError { .. } => 2,
            EventKind::ArrivalDropped { .. } => 3,
            EventKind::PowerStateTransition { .. } => 4,
            EventKind::CapApplied { .. } => 5,
            EventKind::SpinUp => 6,
            EventKind::SpinDown => 7,
            EventKind::FaultInjected { .. } => 8,
            EventKind::BreakerOpen => 9,
            EventKind::BreakerHalfOpen => 10,
            EventKind::BreakerClose => 11,
            EventKind::ControllerDecision(_) => 12,
            EventKind::BreakerTrip { .. } => 13,
            EventKind::BreakerRestore { .. } => 14,
            EventKind::RebalanceDecision(_) => 15,
            EventKind::PowerSample { .. } => 16,
            EventKind::Span { .. } => 17,
            EventKind::EnergyAttributed(_) => 18,
            EventKind::ConservationViolation(_) => 19,
            EventKind::SloBurnAlert { .. } => 20,
            EventKind::PlacementDecision { .. } => 21,
            EventKind::MigrationStarted { .. } => 22,
            EventKind::MigrationCompleted { .. } => 23,
            EventKind::RoutedAround { .. } => 24,
        }
    }

    /// Stable schema name, used for event counting and metric keys.
    /// Defined as the [`index`](Self::index) entry of [`Self::NAMES`], so
    /// name and index can never disagree.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(
            EventKind::IoSubmit {
                id: 1,
                dir: IoDir::Read,
                len: 4096
            }
            .name(),
            "io_submit"
        );
        assert_eq!(EventKind::SpinUp.name(), "spin_up");
        assert_eq!(
            EventKind::Span {
                label: "x",
                dur: SimDuration::ZERO
            }
            .name(),
            "span"
        );
    }

    #[test]
    fn dir_strings() {
        assert_eq!(IoDir::Read.as_str(), "read");
        assert_eq!(IoDir::Write.to_string(), "write");
    }

    #[test]
    fn index_table_is_a_bijection() {
        // NAMES has no duplicates and every entry round-trips through
        // name_index; COUNT is the table length by definition.
        assert_eq!(EventKind::NAMES.len(), EventKind::COUNT);
        for (i, &n) in EventKind::NAMES.iter().enumerate() {
            assert_eq!(EventKind::name_index(n), Some(i));
        }
        assert_eq!(EventKind::name_index("nope"), None);
        // Spot-check that index() agrees with the table for a payload
        // kind, a unit kind, and the last entry.
        assert_eq!(
            EventKind::NAMES[EventKind::PowerSample { watts: 1.0 }.index()],
            "power_sample"
        );
        assert_eq!(EventKind::NAMES[EventKind::SpinUp.index()], "spin_up");
        assert_eq!(
            EventKind::NAMES[EventKind::PlacementDecision {
                extent: 0,
                primary: 0,
                replicas: 1
            }
            .index()],
            "placement_decision"
        );
        assert_eq!(
            EventKind::NAMES[EventKind::MigrationStarted {
                extent: 0,
                from: 0,
                to: 1
            }
            .index()],
            "migration_started"
        );
        assert_eq!(
            EventKind::NAMES[EventKind::MigrationCompleted {
                extent: 0,
                from: 0,
                to: 1
            }
            .index()],
            "migration_completed"
        );
        assert_eq!(
            EventKind::NAMES[EventKind::RoutedAround { id: 0, skipped: 1 }.index()],
            "routed_around"
        );
    }

    #[test]
    fn name_table_interns_every_kind() {
        for &n in EventKind::NAMES {
            assert_eq!(EventKind::intern_name(n), Some(n));
        }
        assert_eq!(EventKind::intern_name("nope"), None);
        assert_eq!(
            EventKind::BreakerTrip {
                node: "cluster/row0/rack1".into()
            }
            .name(),
            "breaker_trip"
        );
        assert_eq!(
            EventKind::BreakerRestore {
                node: "cluster/row0/rack1".into()
            }
            .name(),
            "breaker_restore"
        );
        assert_eq!(
            EventKind::EnergyAttributed(Box::new(EnergyAttributed {
                node: "cluster/row0".into(),
                joules: 1.5,
                stranded_w: 0.25,
            }))
            .name(),
            "energy_attributed"
        );
    }
}
