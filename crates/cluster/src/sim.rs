//! The cluster simulation: a power tree over per-enclosure adaptive
//! controllers, driven by multi-tenant open-loop workloads.
//!
//! One event loop advances the devices that have an event due, and every
//! device together whenever it samples or commands them (so node-level
//! power sums are coherent), merges the tenants' arrival streams in time
//! order, and runs a control round on a fixed interval:
//! enclosures report demands, the tree rebalances, and revised budgets
//! cascade into [`AdaptiveController::apply_budget`] re-plans. Per-tenant
//! latencies land in [`SloWindow`]s; per-node power is sampled on its own
//! interval, tracked against the node's physical cap, and emitted as
//! Perfetto counter tracks for rack-level nodes.
//!
//! Everything is a pure function of `ClusterSpec` (tree shape, device
//! seeds, tenant seeds derived from the cluster seed): re-running a spec
//! reproduces the report bit for bit at any worker count.

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;

use powadapt_core::{AdaptiveController, ControlError, DeviceAction, Slo, SloWindow};
use powadapt_device::{
    DeviceClass, DeviceError, IoCompletion, IoId, IoKind, IoRequest, StandbyState, StorageDevice,
};
use powadapt_io::Arrival;
use powadapt_model::PowerThroughputModel;
use powadapt_obs::{emit, EventKind};
use powadapt_place::{DeviceSlot, MigrationIo, MigrationPhase, PlacementConfig, PlacementTier};
use powadapt_sim::snapshot::{read_time, write_time};
use powadapt_sim::units::Micros;
use powadapt_sim::{SimDuration, SimTime};
use powadapt_snap::{SnapError, SnapReader, SnapWriter};

use crate::ledger::{EnergyLedger, TenantUsage};
use crate::selector::{fleet_floor_w, fleet_max_w, uniform_choices, SelectionPolicy};
use crate::tenant::{TenantSpec, TenantStream};
use crate::tree::{Demand, NodeId, NodeKind, PowerTree, TreeError};
use crate::treefault::{TreeFaultEvent, TreeFaultSchedule, TreeFaultWindow};

/// One leaf enclosure: its devices and their measured power-throughput
/// models (same label pairing [`AdaptiveController::new`] requires).
#[derive(Debug)]
pub struct EnclosureSpec {
    /// Enclosure name, used for device trace tracks.
    pub name: String,
    /// The enclosure's devices.
    pub devices: Vec<Box<dyn StorageDevice>>,
    /// Model for each device, in device order.
    pub models: Vec<PowerThroughputModel>,
}

/// Full specification of a cluster run.
#[derive(Debug)]
pub struct ClusterSpec {
    /// The power-distribution tree.
    pub tree: PowerTree,
    /// One enclosure per tree leaf, parallel to [`PowerTree::leaves`].
    pub enclosures: Vec<EnclosureSpec>,
    /// The tenants sharing the cluster.
    pub tenants: Vec<TenantSpec>,
    /// Budget-to-configuration policy.
    pub policy: SelectionPolicy,
    /// Control-round interval (demand → rebalance → re-plan).
    pub control_interval: SimDuration,
    /// Node power sampling interval.
    pub sample_interval: SimDuration,
    /// Planning fraction of each physical cap, in `(0, 1]`; the headroom
    /// left absorbs device-level power noise above the plan.
    pub planning_margin: f64,
    /// Run duration.
    pub duration: SimDuration,
    /// Root seed; tenant stream seeds derive from it.
    pub seed: u64,
    /// Scheduled power-tree outages: breaker trips at node scope. Empty
    /// for a healthy run.
    pub tree_faults: Vec<TreeFaultWindow>,
    /// Energy-aware placement tier configuration. `None` keeps the legacy
    /// least-loaded router; `Some` routes every arrival through the
    /// extent catalog and runs background migration + consolidation.
    pub placement: Option<PlacementConfig>,
}

/// Who an in-flight IO belongs to: a tenant's arrival, or one leg of a
/// background extent migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IoOwner {
    /// A tenant arrival (index into the tenant list).
    Tenant(usize),
    /// The source read of migration `id`.
    MigrationRead(u64),
    /// The destination write of migration `id`.
    MigrationWrite(u64),
}

/// Errors from a cluster run.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClusterError {
    /// The spec failed validation; the message names the problem.
    InvalidSpec(String),
    /// The power tree rejected its configuration or a rebalance round.
    Tree(TreeError),
    /// An enclosure controller failed (mismatched models, or every device
    /// refused its action).
    Control(ControlError),
    /// A device rejected an operation with a non-transient error.
    Device(DeviceError),
    /// A checkpoint could not be decoded (corruption, truncation, version
    /// skew, or state inconsistent with the spec).
    Snapshot(SnapError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidSpec(m) => write!(f, "invalid cluster spec: {m}"),
            ClusterError::Tree(e) => write!(f, "power tree error: {e}"),
            ClusterError::Control(e) => write!(f, "controller error: {e}"),
            ClusterError::Device(e) => write!(f, "device error: {e}"),
            ClusterError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Tree(e) => Some(e),
            ClusterError::Control(e) => Some(e),
            ClusterError::Device(e) => Some(e),
            ClusterError::Snapshot(e) => Some(e),
            ClusterError::InvalidSpec(_) => None,
        }
    }
}

impl From<SnapError> for ClusterError {
    fn from(e: SnapError) -> Self {
        ClusterError::Snapshot(e)
    }
}

impl From<TreeError> for ClusterError {
    fn from(e: TreeError) -> Self {
        ClusterError::Tree(e)
    }
}

impl From<ControlError> for ClusterError {
    fn from(e: ControlError) -> Self {
        ClusterError::Control(e)
    }
}

impl From<DeviceError> for ClusterError {
    fn from(e: DeviceError) -> Self {
        ClusterError::Device(e)
    }
}

/// Power accounting for one tree node over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Slash-separated path from the root.
    pub path: String,
    /// Level of the node.
    pub kind: NodeKind,
    /// Physical cap, in watts.
    pub cap_w: f64,
    /// Highest sampled subtree power, in watts.
    pub max_power_w: f64,
    /// Mean sampled subtree power, in watts.
    pub mean_power_w: f64,
    /// Budget granted in the final control round, in watts (the static
    /// uniform share totals under [`SelectionPolicy::UniformStatic`]).
    pub granted_w: f64,
}

impl NodeReport {
    /// True while the node never exceeded its physical cap.
    pub fn within_cap(&self) -> bool {
        self.max_power_w <= self.cap_w + 1e-9
    }
}

/// Service accounting for one tenant over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Arrivals submitted to a device.
    pub submitted: u64,
    /// IOs completed within the run.
    pub served: u64,
    /// Bytes completed within the run.
    pub bytes: u64,
    /// Arrivals dropped because no routable device accepted them.
    pub dropped: u64,
    /// Mean completion latency, in microseconds (0 when nothing served).
    pub mean_latency_us: f64,
    /// P99 completion latency, in microseconds (0 when nothing served).
    pub p99_latency_us: f64,
    /// Whether the tenant's [`Slo`] held over the run.
    pub slo_ok: bool,
}

/// Outcome of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The policy that produced this run.
    pub policy: SelectionPolicy,
    /// Per-node power accounting, indexed like the tree's nodes.
    pub nodes: Vec<NodeReport>,
    /// Per-tenant service accounting, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Run duration.
    pub duration: SimDuration,
    /// Total bytes completed across tenants.
    pub total_bytes: u64,
    /// Total IOs completed across tenants.
    pub served_ios: u64,
    /// Control rounds executed (0 under the static baseline).
    pub rebalance_rounds: u64,
    /// Budget revisions that reached a controller re-plan.
    pub replans: u64,
    /// Control rounds where a grant was below an enclosure's floor and the
    /// previous configuration was kept.
    pub infeasible_rounds: u64,
    /// Arrivals dropped across tenants.
    pub dropped: u64,
    /// Extent moves started by the placement tier (0 without placement).
    pub migrations_started: u64,
    /// Extent moves committed by the placement tier.
    pub migrations_completed: u64,
    /// Bytes completed by migration IOs (reads + writes; the ledger's
    /// system-tenant usage signal).
    pub migration_bytes: u64,
    /// Total metered energy over the run, joules.
    pub total_joules: f64,
    /// Energy attributed to the reserved system (migration) account,
    /// joules.
    pub system_joules: f64,
    /// Energy attributed to no account (idle + remainders), joules.
    pub idle_joules: f64,
}

impl ClusterReport {
    /// Aggregate goodput over the run, in bytes per second.
    pub fn aggregate_throughput_bps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_bytes as f64 / secs
        }
    }

    /// True while no node ever exceeded its physical cap.
    pub fn caps_respected(&self) -> bool {
        self.nodes.iter().all(NodeReport::within_cap)
    }

    /// The tightest node: highest `max_power_w / cap_w` across the tree.
    pub fn peak_cap_utilization(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.max_power_w / n.cap_w)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {:.1} MiB/s aggregate, {} IOs served, {} dropped, {} re-plans ({} rounds)",
            self.policy,
            self.aggregate_throughput_bps() / (1024.0 * 1024.0),
            self.served_ios,
            self.dropped,
            self.replans,
            self.rebalance_rounds,
        )?;
        for n in &self.nodes {
            writeln!(
                f,
                "  [{:9}] {:24} {:6.2} W max / {:6.2} W cap ({})",
                n.kind.as_str(),
                n.path,
                n.max_power_w,
                n.cap_w,
                if n.within_cap() { "ok" } else { "VIOLATED" }
            )?;
        }
        for t in &self.tenants {
            writeln!(
                f,
                "  tenant {:12} {:6} served, {:4} dropped, p99 {:8.0} us, slo {}",
                t.name,
                t.served,
                t.dropped,
                t.p99_latency_us,
                if t.slo_ok { "met" } else { "MISSED" }
            )?;
        }
        Ok(())
    }
}

// powadapt-lint: allow(d6, reason = "fields are serialized inline by ClusterSim's write_state/read_state; slo is spec config")
struct TenantAccount {
    window: SloWindow,
    slo: Slo,
    submitted: u64,
    dropped: u64,
}

fn write_arrival(w: &mut SnapWriter, a: &Arrival) {
    write_time(w, a.at);
    w.u8(match a.kind {
        IoKind::Read => 0,
        IoKind::Write => 1,
    });
    w.u64(a.offset);
    w.u64(a.len);
}

fn read_arrival(r: &mut SnapReader<'_>) -> Result<Arrival, SnapError> {
    let at = read_time(r)?;
    let kind = match r.u8()? {
        0 => IoKind::Read,
        1 => IoKind::Write,
        other => {
            return Err(SnapError::InvalidValue(format!(
                "arrival kind {other} out of range"
            )))
        }
    };
    let offset = r.u64()?;
    let len = r.u64()?;
    Ok(Arrival {
        at,
        kind,
        offset,
        len,
    })
}

fn write_f64s(w: &mut SnapWriter, vs: &[f64]) {
    w.seq_len(vs.len());
    for &v in vs {
        w.f64(v);
    }
}

fn read_f64s_into(r: &mut SnapReader<'_>, dst: &mut [f64], what: &str) -> Result<(), SnapError> {
    let n = r.seq_len()?;
    if n != dst.len() {
        return Err(SnapError::InvalidValue(format!(
            "snapshot has {n} {what} entries, cluster has {}",
            dst.len()
        )));
    }
    for v in dst {
        *v = r.f64()?;
    }
    Ok(())
}

/// Interns every tree node's path once, indexed by `NodeId`.
fn tree_node_tracks(tree: &PowerTree) -> Vec<&'static str> {
    tree.node_ids()
        .map(|id| powadapt_obs::intern(&tree.path(id)))
        .collect()
}

/// The cluster simulation as a steppable object.
///
/// [`run_cluster`] drives a `ClusterSim` from construction straight to its
/// report; holding the object instead lets a caller stop at any simulated
/// time, serialize the complete dynamic state with
/// [`snapshot`](ClusterSim::snapshot), and continue — in this process or a
/// later one via [`resume`](ClusterSim::resume) — with bit-exact results:
/// a run that checkpoints and resumes produces byte-identical reports and
/// traces to one that never stopped.
///
/// Construction ([`new`](ClusterSim::new)) applies the initial policy and
/// may emit trace events; [`resume`](ClusterSim::resume) rebuilds the
/// object graph from the spec and overlays the checkpointed state without
/// emitting anything, so restored runs do not double-count events.
pub struct ClusterSim {
    // Configuration, rebuilt from the spec on construction and resume.
    // powadapt-lint: allow(d6, reason = "topology; rebuilt from the spec on resume")
    tree: PowerTree,
    // powadapt-lint: allow(d6, reason = "derived from the tree; rebuilt on resume")
    leaves: Vec<NodeId>,
    /// Interned tree-path track names, indexed like the tree's nodes, so
    /// the per-sample `PowerSample` emit is a pointer copy.
    // powadapt-lint: allow(d6, reason = "derived from the tree; rebuilt on resume")
    node_tracks: Vec<&'static str>,
    tenants: Vec<TenantSpec>,
    // powadapt-lint: allow(d6, reason = "spec configuration; rebuilt on resume")
    policy: SelectionPolicy,
    // powadapt-lint: allow(d6, reason = "spec configuration; rebuilt on resume")
    control_interval: SimDuration,
    // powadapt-lint: allow(d6, reason = "spec configuration; rebuilt on resume")
    sample_interval: SimDuration,
    // powadapt-lint: allow(d6, reason = "spec configuration; rebuilt on resume")
    planning_margin: f64,
    // powadapt-lint: allow(d6, reason = "spec configuration; rebuilt on resume")
    duration: SimDuration,
    // powadapt-lint: allow(d6, reason = "model tables; rebuilt from the spec on resume")
    enc_models: Vec<Vec<PowerThroughputModel>>,
    /// Global device index → (enclosure, device-in-enclosure).
    flat: Vec<(usize, usize)>,
    start: SimTime,
    t_end: SimTime,
    // Dynamic state, carried by `write_state`/`read_state`.
    controllers: Vec<AdaptiveController>,
    streams: Vec<TenantStream>,
    pending: Vec<Option<Arrival>>,
    accounts: Vec<TenantAccount>,
    /// Which devices the router may target, per the active plan.
    routable: Vec<bool>,
    node_max: Vec<f64>,
    node_sum: Vec<f64>,
    node_samples: u64,
    last_grants: Vec<f64>,
    last_applied: Vec<Option<f64>>,
    rebalance_rounds: u64,
    replans: u64,
    infeasible_rounds: u64,
    /// In-flight IO ownership: global request id → tenant or migration.
    owners: BTreeMap<u64, IoOwner>,
    next_id: u64,
    next_control: SimTime,
    next_sample: SimTime,
    faults: TreeFaultSchedule,
    /// Integer-femtojoule energy accounts, audited every control round.
    ledger: EnergyLedger,
    /// The placement tier, when the spec configures one. Presence is part
    /// of the spec; its dynamic state is serialized.
    place: Option<PlacementTier>,
    /// Migration IOs the tier has issued that no device has accepted yet
    /// (transient refusals retry on later steps, dark feeds defer).
    mig_backlog: VecDeque<MigrationIo>,
    /// Cumulative bytes completed by migration IOs — the system-tenant
    /// usage signal the ledger attributes energy against.
    mig_bytes: u64,
    /// Last processed event time.
    now: SimTime,
    /// Reused completion buffer for the per-step device drain; transient,
    /// never serialized.
    // powadapt-lint: allow(d6, reason = "transient per-step scratch; contents never live across a snapshot")
    drain_scratch: Vec<IoCompletion>,
    /// Fixed-capacity hand-off from the hot completion drain to the
    /// migration dispatcher: `(move id, was the destination write)`.
    /// Pre-sized to the engine's concurrency cap (each in-flight move has
    /// at most one IO outstanding) and always drained within the same
    /// step, so it never grows and never lives across a snapshot.
    // powadapt-lint: allow(d6, reason = "transient per-step scratch; contents never live across a snapshot")
    mig_scratch: Vec<(u64, bool)>,
    /// Live prefix length of `mig_scratch`.
    // powadapt-lint: allow(d6, reason = "transient per-step scratch; always zero at snapshot points")
    mig_scratch_len: usize,
    /// Reused holder buffer for placement-routed arrivals; transient.
    // powadapt-lint: allow(d6, reason = "transient per-arrival scratch; contents never live across a snapshot")
    holders_scratch: Vec<u32>,
    /// Reused candidate buffer for the least-loaded router; transient.
    // powadapt-lint: allow(d6, reason = "transient per-arrival scratch; contents never live across a snapshot")
    candidates_scratch: Vec<usize>,
    /// Each device's next event time, indexed like `flat`: the step
    /// loop's copy of `next_event()`, refreshed after every interaction
    /// with the device so the next-time scan makes no device calls.
    // powadapt-lint: allow(d6, reason = "derived from the devices' event queues; rebuilt on entry to run_to")
    wake: Vec<Option<SimTime>>,
}

impl fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterSim")
            .field("policy", &self.policy)
            .field("now", &self.now)
            .field("t_end", &self.t_end)
            .field("devices", &self.flat.len())
            .field("tenants", &self.tenants.len())
            .finish_non_exhaustive()
    }
}

impl ClusterSim {
    /// Builds the simulation and applies the initial policy configuration
    /// (which may emit trace events, exactly as the start of a
    /// [`run_cluster`] run does).
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidSpec`] for shape problems (enclosure/leaf
    /// mismatch, empty tenants, zero intervals, unknown fault-window
    /// nodes), [`ClusterError::Tree`] for tree misconfiguration,
    /// [`ClusterError::Control`]/[`ClusterError::Device`] when the initial
    /// configuration fails.
    pub fn new(spec: ClusterSpec) -> Result<Self, ClusterError> {
        let mut sim = Self::build(spec)?;
        sim.apply_initial_policy()?;
        Ok(sim)
    }

    /// Rebuilds a simulation from `spec` and a sealed snapshot produced by
    /// [`snapshot`](ClusterSim::snapshot). The spec must be the same one
    /// the checkpointed run was built from (same topology, tenants, seed);
    /// every mismatch the codec can detect fails closed. The resume path
    /// emits no trace events.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Snapshot`] when the envelope or payload is corrupt,
    /// truncated, version-skewed, or inconsistent with the spec; the
    /// construction errors of [`ClusterSim::new`] otherwise.
    pub fn resume(spec: ClusterSpec, snapshot: &[u8]) -> Result<Self, ClusterError> {
        let payload = powadapt_snap::open(snapshot)?;
        let mut sim = Self::build(spec)?;
        let mut r = SnapReader::new(payload);
        powadapt_snap::Restore::read_state(&mut sim, &mut r)?;
        r.finish()?;
        Ok(sim)
    }

    /// Serializes the complete dynamic state into a sealed snapshot
    /// (magic, format version, checksum).
    ///
    /// # Errors
    ///
    /// Propagates device-layer serialization failures.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapError> {
        let mut w = SnapWriter::new();
        powadapt_snap::Snapshot::write_state(self, &mut w)?;
        Ok(powadapt_snap::seal(&w.into_payload()))
    }

    /// The common start time of the run's devices.
    pub fn start_time(&self) -> SimTime {
        self.start
    }

    /// The end of the run (`start + duration`).
    pub fn end_time(&self) -> SimTime {
        self.t_end
    }

    /// The last processed event time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// IOs completed and credited to tenants so far. Monotone over the
    /// run; the final report's `served_ios` also includes the end-of-run
    /// drain, so it can exceed the last mid-run reading.
    pub fn served_ios_so_far(&self) -> u64 {
        self.accounts.iter().map(|a| a.window.len() as u64).sum()
    }

    #[allow(clippy::too_many_lines)]
    fn build(spec: ClusterSpec) -> Result<Self, ClusterError> {
        let ClusterSpec {
            tree,
            enclosures,
            tenants,
            policy,
            control_interval,
            sample_interval,
            planning_margin,
            duration,
            seed,
            tree_faults,
            placement,
        } = spec;

        let leaves = tree.leaves();
        if enclosures.len() != leaves.len() {
            return Err(ClusterError::InvalidSpec(format!(
                "{} enclosures for {} tree leaves",
                enclosures.len(),
                leaves.len()
            )));
        }
        if tenants.is_empty() {
            return Err(ClusterError::InvalidSpec("no tenants".into()));
        }
        if control_interval.is_zero() || sample_interval.is_zero() {
            return Err(ClusterError::InvalidSpec(
                "control and sample intervals must be non-zero".into(),
            ));
        }
        if !(planning_margin > 0.0 && planning_margin <= 1.0) {
            return Err(ClusterError::InvalidSpec(
                "planning margin must be in (0, 1]".into(),
            ));
        }
        if duration.is_zero() {
            return Err(ClusterError::InvalidSpec(
                "duration must be non-zero".into(),
            ));
        }
        tree.validate()?;
        let faults =
            TreeFaultSchedule::resolve(&tree, tree_faults).map_err(ClusterError::InvalidSpec)?;

        let rec = powadapt_obs::current();

        // Build controllers; keep a model copy per enclosure for demand and
        // baseline math (the controller owns its own).
        let mut controllers: Vec<AdaptiveController> = Vec::with_capacity(enclosures.len());
        let mut enc_models: Vec<Vec<PowerThroughputModel>> = Vec::with_capacity(enclosures.len());
        let mut enc_names: Vec<String> = Vec::with_capacity(enclosures.len());
        let mut flat: Vec<(usize, usize)> = Vec::new();
        for (e, enc) in enclosures.into_iter().enumerate() {
            if enc.devices.is_empty() {
                return Err(ClusterError::InvalidSpec(format!(
                    "enclosure {} has no devices",
                    enc.name
                )));
            }
            for d in 0..enc.devices.len() {
                flat.push((e, d));
            }
            enc_models.push(enc.models.clone());
            enc_names.push(enc.name);
            let mut ctl = AdaptiveController::new(enc.devices, enc.models)?;
            for d in 0..ctl.devices().len() {
                let track = powadapt_obs::intern(&format!("{}.dev{d}", enc_names[e]));
                ctl.device_mut(d).set_recorder(rec.clone(), track);
            }
            controllers.push(ctl);
        }
        let n_devices = flat.len();
        let n_controllers = controllers.len();

        let start = controllers[0].devices()[0].now();
        for ctl in &controllers {
            for d in ctl.devices() {
                if d.now() != start {
                    return Err(ClusterError::InvalidSpec(
                        "devices must start at a common time".into(),
                    ));
                }
            }
        }
        let t_end = start + duration;

        // Tenant streams and accounts, seeded per tenant.
        let mut streams: Vec<TenantStream> = Vec::with_capacity(tenants.len());
        let mut accounts: Vec<TenantAccount> = Vec::with_capacity(tenants.len());
        for (i, t) in tenants.iter().enumerate() {
            let stream_seed = powadapt_sim::SimRng::stream_seed(seed, i as u64);
            let stream =
                TenantStream::new(t, duration, stream_seed).map_err(ClusterError::InvalidSpec)?;
            streams.push(stream);
            accounts.push(TenantAccount {
                window: SloWindow::new(),
                slo: t.slo.clone(),
                submitted: 0,
                dropped: 0,
            });
        }
        let pending: Vec<Option<Arrival>> = streams.iter_mut().map(Iterator::next).collect();

        let n_nodes = tree.len();
        let ledger = EnergyLedger::new(leaves.len(), tenants.len(), start);
        let node_tracks = tree_node_tracks(&tree);

        // The placement tier sees devices as slots: rack ordinal (the
        // anti-affinity domain), capacity, and whether the device is a
        // cold target (HDD class — meant to absorb cold data and spin
        // down between batch windows).
        let racks: Vec<NodeId> = tree
            .node_ids()
            .filter(|&id| tree.kind(id) == NodeKind::Rack)
            .collect();
        let enc_rack: Vec<u32> = leaves
            .iter()
            .enumerate()
            .map(|(e, &leaf)| {
                racks
                    .iter()
                    .position(|&r| r == leaf || tree.ancestors(leaf).contains(&r))
                    .map_or(e as u32, |p| p as u32)
            })
            .collect();
        let mig_cap = placement.as_ref().map_or(0, |c| c.max_active_migrations);
        let place = match placement {
            None => None,
            Some(cfg) => {
                cfg.validate().map_err(ClusterError::InvalidSpec)?;
                let slots: Vec<DeviceSlot> = flat
                    .iter()
                    .map(|&(e, d)| {
                        let spec = controllers[e].devices()[d].spec();
                        DeviceSlot {
                            rack: enc_rack[e],
                            capacity: spec.capacity(),
                            cold_target: spec.class() == DeviceClass::Hdd,
                        }
                    })
                    .collect();
                Some(PlacementTier::new(cfg, slots))
            }
        };
        Ok(ClusterSim {
            tree,
            leaves,
            tenants,
            policy,
            control_interval,
            sample_interval,
            planning_margin,
            duration,
            enc_models,
            flat,
            start,
            t_end,
            controllers,
            streams,
            pending,
            accounts,
            routable: vec![false; n_devices],
            node_tracks,
            node_max: vec![0.0; n_nodes],
            node_sum: vec![0.0; n_nodes],
            node_samples: 0,
            last_grants: vec![0.0; n_nodes],
            last_applied: vec![None; n_controllers],
            rebalance_rounds: 0,
            replans: 0,
            infeasible_rounds: 0,
            owners: BTreeMap::new(),
            next_id: 0,
            next_control: start + control_interval,
            next_sample: start,
            faults,
            ledger,
            place,
            mig_backlog: VecDeque::new(),
            mig_bytes: 0,
            now: start,
            drain_scratch: Vec::new(),
            mig_scratch: vec![(0, false); mig_cap],
            mig_scratch_len: 0,
            holders_scratch: Vec::new(),
            candidates_scratch: Vec::new(),
            wake: vec![None; n_devices],
        })
    }

    fn apply_initial_policy(&mut self) -> Result<(), ClusterError> {
        match self.policy {
            SelectionPolicy::UniformStatic => {
                // The naive contract: every device gets an equal slice of
                // the cluster's physical cap, decided once, never revisited.
                let share_w = self.tree.cap_w(self.tree.root_id()) / self.flat.len() as f64;
                for e in 0..self.controllers.len() {
                    let choices = uniform_choices(&self.enc_models[e], share_w);
                    for (d, choice) in choices.iter().enumerate() {
                        let Some(gi) = self.flat.iter().position(|&(fe, fd)| fe == e && fd == d)
                        else {
                            continue;
                        };
                        match choice {
                            Some(point) => {
                                self.controllers[e]
                                    .device_mut(d)
                                    .set_power_state(point.power_state())?;
                                self.routable[gi] = true;
                            }
                            None => self.routable[gi] = false,
                        }
                    }
                }
                // Report the share totals as the tree's static "grants".
                for (leaf, ctl) in self.leaves.iter().zip(&self.controllers) {
                    self.last_grants[leaf.0] = share_w * ctl.devices().len() as f64;
                }
                for id in self.tree.node_ids() {
                    let descendants_sum: f64 = self
                        .leaves
                        .iter()
                        .filter(|l| self.tree.ancestors(**l).contains(&id))
                        .map(|l| self.last_grants[l.0])
                        .sum();
                    if descendants_sum > 0.0 {
                        self.last_grants[id.0] = descendants_sum;
                    }
                }
            }
            SelectionPolicy::ModelDriven => {
                self.control_round(self.start)?;
                self.rebalance_rounds += 1;
            }
        }
        Ok(())
    }

    /// Advances the simulation until the next event would land at or past
    /// `limit` (clamped to the run's end). The state after `run_to` is
    /// exactly the state mid-loop of an uninterrupted run: snapshotting
    /// here and resuming continues bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates controller, device, and tree failures.
    pub fn run_to(&mut self, limit: SimTime) -> Result<(), ClusterError> {
        let limit = limit.min(self.t_end);
        // The wake cache is derived state: rebuilding it here covers
        // construction, resume, and anything done between calls.
        self.refresh_wakes();
        loop {
            // Next event time across arrivals, devices, the two tickers,
            // and scheduled tree-fault transitions.
            let mut t = self.next_sample.min(self.next_control);
            if let Some(ft) = self.faults.next_transition() {
                t = t.min(self.now.max(ft));
            }
            for a in self.pending.iter().flatten() {
                t = t.min(self.start.max(a.at));
            }
            for &w in self.wake.iter().flatten() {
                t = t.min(w);
            }
            if t >= limit {
                break;
            }
            self.step_at(t)?;
            self.now = t;
        }
        // Leave every device clock at `now`, as a lockstep loop would, so
        // a snapshot taken here is the same bytes whichever devices the
        // last steps had to advance.
        for gi in 0..self.flat.len() {
            self.catch_up(gi, self.now);
        }
        Ok(())
    }

    /// Runs to the end of the configured duration and produces the report.
    ///
    /// # Errors
    ///
    /// Propagates controller, device, and tree failures.
    pub fn finish(mut self) -> Result<ClusterReport, ClusterError> {
        self.run_to(self.t_end)?;

        // Close the run at exactly t_end: drain-by-advance, final
        // sample, and the closing ledger audit.
        self.drain_completions(self.t_end, true);
        self.sample_nodes(self.t_end);
        self.node_samples += 1;
        self.audit_ledger(self.t_end);

        let nodes: Vec<NodeReport> = self
            .tree
            .node_ids()
            .map(|id| NodeReport {
                path: self.tree.path(id),
                kind: self.tree.kind(id),
                cap_w: self.tree.cap_w(id),
                max_power_w: self.node_max[id.0],
                mean_power_w: self.node_sum[id.0] / self.node_samples as f64,
                granted_w: self.last_grants[id.0],
            })
            .collect();
        let tenant_reports: Vec<TenantReport> = self
            .tenants
            .iter()
            .zip(&mut self.accounts)
            .map(|(t, a)| TenantReport {
                name: t.name.clone(),
                submitted: a.submitted,
                served: a.window.len() as u64,
                bytes: a.window.bytes(),
                dropped: a.dropped,
                mean_latency_us: a.window.mean_latency().map_or(0.0, Micros::get),
                p99_latency_us: a.window.p99_latency().map_or(0.0, Micros::get),
                slo_ok: a.window.satisfies(&a.slo, self.duration),
            })
            .collect();
        let total_bytes: u64 = tenant_reports.iter().map(|t| t.bytes).sum();
        let served_ios: u64 = tenant_reports.iter().map(|t| t.served).sum();
        let dropped: u64 = tenant_reports.iter().map(|t| t.dropped).sum();
        let (migrations_started, migrations_completed) = self
            .place
            .as_ref()
            .map_or((0, 0), PlacementTier::migrations);

        Ok(ClusterReport {
            policy: self.policy,
            nodes,
            tenants: tenant_reports,
            duration: self.duration,
            total_bytes,
            served_ios,
            rebalance_rounds: self.rebalance_rounds,
            replans: self.replans,
            infeasible_rounds: self.infeasible_rounds,
            dropped,
            migrations_started,
            migrations_completed,
            migration_bytes: self.mig_bytes,
            total_joules: self.ledger.total_joules(),
            system_joules: self.ledger.system_fj() as f64 * 1e-15,
            idle_joules: self.ledger.idle_fj() as f64 * 1e-15,
        })
    }

    /// One loop-body iteration at event time `t`: advance devices, admit
    /// arrivals, process tree-fault transitions, run the control round and
    /// power sampling when due.
    ///
    /// Only devices with an event due at `t` advance, except on a step
    /// that runs a tree-fault, control or sample round: those read and
    /// command every device, so every device advances to `t` first.
    fn step_at(&mut self, t: SimTime) -> Result<(), ClusterError> {
        let round = t >= self.next_control
            || t >= self.next_sample
            || self.faults.next_transition().is_some_and(|ft| ft <= t);
        self.drain_completions(t, round);
        self.dispatch_migrations(t)?;
        self.admit_arrivals(t)?;

        // A breaker trip or restore forces an immediate control round so
        // the surviving subtree is re-planned on the spot instead of
        // waiting out the control interval.
        let forced = self.process_tree_faults(t);
        if t >= self.next_control || forced {
            // The placement tier ticks first so this round's controller
            // re-plans see fresh standby pins and freshly started moves.
            self.place_round(t)?;
            if self.policy == SelectionPolicy::ModelDriven {
                self.control_round(t)?;
                self.rebalance_rounds += 1;
            }
            // The ledger audits on the control cadence under both
            // policies: attribution and conservation are properties of
            // the cluster, not of the model-driven controller.
            self.audit_ledger(t);
            self.next_control = t + self.control_interval;
        }

        if t >= self.next_sample {
            self.sample_nodes(t);
            self.node_samples += 1;
            self.next_sample = t + self.sample_interval;
        }
        if round {
            // Control and fault rounds command devices (power states,
            // standby) outside `try_submit`.
            self.refresh_wakes();
        }
        Ok(())
    }

    /// Advances to `t` every device with an event due by then — or, with
    /// `all`, every device — in index order, crediting completions to
    /// their tenants' SLO windows. A device with nothing due completes
    /// nothing, so skipping it leaves the completion order unchanged.
    // powadapt-lint: hot
    fn drain_completions(&mut self, t: SimTime, all: bool) {
        let mut done = std::mem::take(&mut self.drain_scratch);
        for gi in 0..self.flat.len() {
            let due = self.wake[gi].is_some_and(|w| w <= t);
            if !(all || due) {
                continue;
            }
            let (e, d) = self.flat[gi];
            let dev = self.controllers[e].device_mut(d);
            done.clear();
            dev.advance_to_into(t, &mut done);
            self.wake[gi] = dev.next_event();
            for c in &done {
                match self.owners.remove(&c.id.0) {
                    Some(IoOwner::Tenant(tenant)) => {
                        let latency_us =
                            c.completed.duration_since(c.submitted).as_secs_f64() * 1e6;
                        self.accounts[tenant]
                            .window
                            .observe(Micros::new(latency_us), c.len);
                    }
                    // Migration legs are handed to the dispatcher via
                    // the fixed-capacity scratch: the engine caps
                    // in-flight moves at the scratch's size, so the
                    // indexed store never overruns.
                    Some(IoOwner::MigrationRead(m)) => {
                        self.mig_scratch[self.mig_scratch_len] = (m, false);
                        self.mig_scratch_len += 1;
                        self.mig_bytes += c.len;
                    }
                    Some(IoOwner::MigrationWrite(m)) => {
                        self.mig_scratch[self.mig_scratch_len] = (m, true);
                        self.mig_scratch_len += 1;
                        self.mig_bytes += c.len;
                    }
                    None => {}
                }
            }
        }
        done.clear();
        self.drain_scratch = done;
    }

    /// Processes migration completions the drain handed over: a finished
    /// source read yields the destination write (queued on the backlog),
    /// a finished destination write commits the move in the catalog. Then
    /// flushes the backlog against the devices.
    fn dispatch_migrations(&mut self, t: SimTime) -> Result<(), ClusterError> {
        if self.mig_scratch_len == 0 && self.mig_backlog.is_empty() {
            return Ok(());
        }
        let rec = powadapt_obs::current();
        for k in 0..self.mig_scratch_len {
            let (mid, was_write) = self.mig_scratch[k];
            let Some(tier) = self.place.as_mut() else {
                break;
            };
            if was_write {
                if let Some(m) = tier.migration_write_done(mid) {
                    emit!(
                        rec,
                        t,
                        "placement",
                        EventKind::MigrationCompleted {
                            extent: m.extent,
                            from: m.from,
                            to: m.to,
                        }
                    );
                }
            } else if let Some(wr) = tier.migration_read_done(mid) {
                self.mig_backlog.push_back(wr);
            }
        }
        self.mig_scratch_len = 0;
        self.flush_migration_backlog(t)
    }

    /// Submits every backlogged migration IO its device will take right
    /// now. Dark feeds and transient refusals re-queue the IO for a later
    /// step; migration destinations in standby wake on submit (the
    /// device-level auto-wake), which is the intended drain path.
    fn flush_migration_backlog(&mut self, t: SimTime) -> Result<(), ClusterError> {
        let mut remaining = self.mig_backlog.len();
        while remaining > 0 {
            remaining -= 1;
            let Some(io) = self.mig_backlog.pop_front() else {
                break;
            };
            let gi = io.dev as usize;
            let (e, _) = self.flat[gi];
            if self.faults.is_down(&self.tree, self.leaves[e]) {
                self.mig_backlog.push_back(io);
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            let arrival = Arrival {
                at: t,
                kind: if io.write {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
                offset: io.offset,
                len: io.len,
            };
            if self.try_submit(gi, id, &arrival, t)? {
                let owner = if io.write {
                    IoOwner::MigrationWrite(io.migration)
                } else {
                    IoOwner::MigrationRead(io.migration)
                };
                self.owners.insert(id, owner);
            } else {
                self.mig_backlog.push_back(io);
            }
        }
        Ok(())
    }

    /// One placement-tier round, run on the control cadence before the
    /// controller re-plans: ticks the tier (consolidation planning, rate-
    /// limited move starts, standby-pin refresh), queues the started
    /// source reads, and syncs the pin set into the enclosure
    /// controllers. A changed pin invalidates the enclosure's applied
    /// budget so the next control round re-plans it even under an
    /// unchanged grant.
    fn place_round(&mut self, now: SimTime) -> Result<(), ClusterError> {
        if self.place.is_none() {
            return Ok(());
        }
        let rec = powadapt_obs::current();
        // Devices whose feed is up and which are not quarantined may
        // carry migration IO this round. Routability is deliberately not
        // required: a consolidation destination parked in standby must
        // still accept its drain writes (waking to do so).
        let allowed: Vec<bool> = self
            .flat
            .iter()
            .map(|&(e, d)| {
                !self.faults.is_down(&self.tree, self.leaves[e])
                    && !self.controllers[e].is_quarantined(d)
            })
            .collect();
        let starts = {
            let Some(tier) = self.place.as_mut() else {
                return Ok(());
            };
            tier.tick(now, &allowed)
        };
        if let Some(tier) = self.place.as_ref() {
            for io in &starts {
                if let Some(m) = tier.migration(io.migration) {
                    emit!(
                        rec,
                        now,
                        "placement",
                        EventKind::MigrationStarted {
                            extent: m.extent,
                            from: m.from,
                            to: m.to,
                        }
                    );
                }
            }
            for (gi, &p) in tier.pinned().iter().enumerate() {
                let (e, d) = self.flat[gi];
                let before = self.controllers[e].is_pinned_standby(d);
                self.controllers[e].set_pinned_standby(d, p);
                if before != self.controllers[e].is_pinned_standby(d) {
                    self.last_applied[e] = None;
                }
            }
        }
        self.mig_backlog.extend(starts);
        self.flush_migration_backlog(now)
    }

    /// Admits arrivals due at or before `t`, merged across tenants in
    /// (time, tenant index) order.
    fn admit_arrivals(&mut self, t: SimTime) -> Result<(), ClusterError> {
        loop {
            let due = self
                .pending
                .iter()
                .enumerate()
                .filter_map(|(i, a)| a.map(|a| (self.start.max(a.at), i)))
                .min();
            let Some((at, tenant)) = due else { break };
            if at > t {
                break;
            }
            let Some(arrival) = self.pending[tenant].take() else {
                break;
            };
            self.pending[tenant] = self.streams[tenant].next();
            self.submit_arrival(&arrival, tenant, t)?;
        }
        Ok(())
    }

    /// Routes and submits one arrival: through the placement tier's
    /// extent catalog when configured (writes to the extent's primary,
    /// reads to any awake holder), otherwise to the least-loaded routable
    /// device. Either way, spun-down and quarantined devices are routed
    /// *around* — visibly, via [`EventKind::RoutedAround`] — instead of
    /// paying a hidden spin-up on the request path.
    fn submit_arrival(
        &mut self,
        arrival: &Arrival,
        tenant: usize,
        now: SimTime,
    ) -> Result<(), ClusterError> {
        let rec = powadapt_obs::current();
        let id = self.next_id;
        self.next_id += 1;

        // Placement-aware routing: resolve the arrival to its extent's
        // holder list. Reads of never-written extents fall through to the
        // legacy router below.
        let mut holders = std::mem::take(&mut self.holders_scratch);
        holders.clear();
        let mut placement_routed = false;
        if let Some(tier) = self.place.as_mut() {
            match arrival.kind {
                IoKind::Write => {
                    let placed = tier.route_write(tenant as u32, arrival.offset, arrival.len, now);
                    if placed.newly_placed {
                        emit!(
                            rec,
                            now,
                            "placement",
                            EventKind::PlacementDecision {
                                extent: placed.extent,
                                primary: placed.primary,
                                replicas: placed.replicas,
                            }
                        );
                    }
                    holders.push(placed.primary);
                    placement_routed = true;
                }
                IoKind::Read => {
                    placement_routed = tier.read_holders(
                        tenant as u32,
                        arrival.offset,
                        arrival.len,
                        now,
                        &mut holders,
                    );
                }
            }
        }
        if placement_routed {
            let mut skipped = 0u32;
            let mut submitted = false;
            // First pass: holders that are routable and fully awake, in
            // preference order (primary first).
            for &h in &holders {
                let gi = h as usize;
                let (e, d) = self.flat[gi];
                let awake =
                    self.controllers[e].devices()[d].standby_state() == StandbyState::Active;
                if !self.routable[gi] || !awake || self.controllers[e].is_quarantined(d) {
                    skipped += 1;
                    continue;
                }
                if self.try_submit(gi, id, arrival, now)? {
                    submitted = true;
                    break;
                }
            }
            if !submitted {
                // Every holder is asleep, parked, or refused: the data
                // lives nowhere else, so wake a holder (primary first) —
                // the legitimate spin-up a cold read pays.
                for &h in &holders {
                    let gi = h as usize;
                    let (e, d) = self.flat[gi];
                    if self.faults.is_down(&self.tree, self.leaves[e])
                        || self.controllers[e].is_quarantined(d)
                    {
                        continue;
                    }
                    if self.try_submit(gi, id, arrival, now)? {
                        submitted = true;
                        break;
                    }
                }
            }
            holders.clear();
            self.holders_scratch = holders;
            if skipped > 0 {
                emit!(
                    rec,
                    now,
                    "placement",
                    EventKind::RoutedAround { id, skipped }
                );
            }
            if submitted {
                self.owners.insert(id, IoOwner::Tenant(tenant));
                self.accounts[tenant].submitted += 1;
            } else {
                self.accounts[tenant].dropped += 1;
                emit!(rec, now, "cluster", EventKind::ArrivalDropped { id });
            }
            return Ok(());
        }
        holders.clear();
        self.holders_scratch = holders;

        // Least-loaded routable device; ties break to the lowest index. A
        // transient refusal moves on to the next candidate; exhausting all
        // of them drops the arrival (open loop does not retry later).
        let mut candidates = std::mem::take(&mut self.candidates_scratch);
        candidates.clear();
        candidates.extend((0..self.flat.len()).filter(|&i| self.routable[i]));
        candidates.sort_by_key(|&i| {
            let (e, d) = self.flat[i];
            (self.controllers[e].devices()[d].inflight(), i)
        });
        let mut skipped = 0u32;
        let mut submitted = false;
        for &gi in &candidates {
            let (e, d) = self.flat[gi];
            let awake = self.controllers[e].devices()[d].standby_state() == StandbyState::Active;
            if !awake || self.controllers[e].is_quarantined(d) {
                skipped += 1;
                continue;
            }
            if self.try_submit(gi, id, arrival, now)? {
                submitted = true;
                break;
            }
        }
        self.candidates_scratch = candidates;
        if skipped > 0 {
            emit!(rec, now, "cluster", EventKind::RoutedAround { id, skipped });
        }
        if submitted {
            self.owners.insert(id, IoOwner::Tenant(tenant));
            self.accounts[tenant].submitted += 1;
        } else {
            self.accounts[tenant].dropped += 1;
            emit!(rec, now, "cluster", EventKind::ArrivalDropped { id });
        }
        Ok(())
    }

    /// Flat device `gi`.
    fn device_mut(&mut self, gi: usize) -> &mut dyn StorageDevice {
        let (e, d) = self.flat[gi];
        self.controllers[e].device_mut(d)
    }

    /// Re-reads every device's next event time into the wake cache.
    fn refresh_wakes(&mut self) {
        for gi in 0..self.flat.len() {
            self.wake[gi] = self.device_mut(gi).next_event();
        }
    }

    /// Brings device `gi`'s clock up to `t` before anything touches it:
    /// the clock stamps submissions and emits and schedules standby
    /// transitions. Only devices with nothing due by `t` lag the step
    /// time, so the advance can never complete an IO.
    fn catch_up(&mut self, gi: usize, t: SimTime) {
        let mut done = std::mem::take(&mut self.drain_scratch);
        let dev = self.device_mut(gi);
        if dev.now() < t {
            dev.advance_to_into(t, &mut done);
            debug_assert!(done.is_empty(), "catch-up advance completed IO");
        }
        done.clear();
        self.drain_scratch = done;
    }

    /// Submits `arrival` as request `id` against flat device `gi` at step
    /// time `now`, clamping the transfer to the device's capacity.
    /// Returns whether the device accepted it; transient refusals report
    /// `false`, hard failures propagate.
    fn try_submit(
        &mut self,
        gi: usize,
        id: u64,
        arrival: &Arrival,
        now: SimTime,
    ) -> Result<bool, ClusterError> {
        self.catch_up(gi, now);
        let dev = self.device_mut(gi);
        let cap = dev.spec().capacity();
        let len = arrival.len.min(cap);
        let offset = arrival.offset.min(cap - len);
        let res = dev.submit(IoRequest::new(IoId(id), arrival.kind, offset, len));
        self.wake[gi] = dev.next_event();
        match res {
            Ok(()) => Ok(true),
            Err(e) if e.is_transient() => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Fires every due tree-fault transition: a trip takes the subtree's
    /// enclosures dark (unroutable, devices asked into standby), a restore
    /// brings them back. Returns whether anything fired, which forces an
    /// immediate control round.
    fn process_tree_faults(&mut self, t: SimTime) -> bool {
        if self.faults.is_empty() {
            return false;
        }
        let events = self.faults.due(t);
        if events.is_empty() {
            return false;
        }
        let rec = powadapt_obs::current();
        for ev in events {
            match ev {
                TreeFaultEvent::Trip(node) => {
                    emit!(
                        rec,
                        t,
                        "tree",
                        EventKind::BreakerTrip {
                            node: self.tree.path(node)
                        }
                    );
                    for e in self.enclosures_under(node) {
                        for (gi, &(fe, _)) in self.flat.iter().enumerate() {
                            if fe == e {
                                self.routable[gi] = false;
                            }
                        }
                        // Fail closed: the feed is gone, so the subtree
                        // sheds its load. Standby is best effort — a
                        // refusal mid-transition still leaves the
                        // enclosure unroutable and demand-less.
                        for d in 0..self.controllers[e].devices().len() {
                            let _ = self.controllers[e].device_mut(d).request_standby();
                        }
                        self.last_applied[e] = None;
                    }
                }
                TreeFaultEvent::Restore(node) => {
                    emit!(
                        rec,
                        t,
                        "tree",
                        EventKind::BreakerRestore {
                            node: self.tree.path(node)
                        }
                    );
                    for e in self.enclosures_under(node) {
                        // Another window may still hold this leaf down.
                        if self.faults.is_down(&self.tree, self.leaves[e]) {
                            continue;
                        }
                        for d in 0..self.controllers[e].devices().len() {
                            let _ = self.controllers[e].device_mut(d).request_wake();
                        }
                        self.last_applied[e] = None;
                        if self.policy == SelectionPolicy::UniformStatic {
                            self.reapply_uniform_share(e);
                        }
                    }
                }
            }
        }
        true
    }

    /// Enclosure indices whose leaf sits at or under `node`.
    fn enclosures_under(&self, node: NodeId) -> Vec<usize> {
        self.leaves
            .iter()
            .enumerate()
            .filter(|&(_, &leaf)| leaf == node || self.tree.ancestors(leaf).contains(&node))
            .map(|(e, _)| e)
            .collect()
    }

    /// Re-applies the uniform static share to enclosure `e` after its feed
    /// returns (the static policy has no control rounds to recover with).
    fn reapply_uniform_share(&mut self, e: usize) {
        let share_w = self.tree.cap_w(self.tree.root_id()) / self.flat.len() as f64;
        let choices = uniform_choices(&self.enc_models[e], share_w);
        for (d, choice) in choices.iter().enumerate() {
            let Some(gi) = self.flat.iter().position(|&(fe, fd)| fe == e && fd == d) else {
                continue;
            };
            match choice {
                Some(point) => {
                    // Best effort: the device may still be mid-wake; it
                    // serves at whatever state it exits standby into.
                    let _ = self.controllers[e]
                        .device_mut(d)
                        .set_power_state(point.power_state());
                    self.routable[gi] = true;
                }
                None => self.routable[gi] = false,
            }
        }
    }

    /// One demand → rebalance → re-plan round of the model-driven policy.
    fn control_round(&mut self, now: SimTime) -> Result<(), ClusterError> {
        let rec = powadapt_obs::current();
        let down: Vec<bool> = self
            .leaves
            .iter()
            .map(|&leaf| self.faults.is_down(&self.tree, leaf))
            .collect();

        // Demands: the floor is structural; the want tracks backlog — a
        // busy enclosure asks for its ceiling, an idle one releases
        // everything above its floor back to the tree. A dark enclosure
        // (tripped feed) demands nothing at all: its budget flows to the
        // survivors.
        let demands: Vec<Demand> = self
            .controllers
            .iter()
            .zip(&self.enc_models)
            .zip(&down)
            .map(|((ctl, models), &is_down)| {
                if is_down {
                    return Demand {
                        floor_w: 0.0,
                        want_w: 0.0,
                    };
                }
                let busy = ctl.devices().iter().any(|d| d.inflight() > 0);
                let floor_w = fleet_floor_w(models);
                Demand {
                    floor_w,
                    want_w: if busy { fleet_max_w(models) } else { floor_w },
                }
            })
            .collect();

        let grants = self.tree.rebalance(&demands, self.planning_margin)?;
        for id in self.tree.node_ids() {
            let g = grants[id.0];
            self.last_grants[id.0] = g.granted_w;
            emit!(
                rec,
                now,
                "tree",
                EventKind::RebalanceDecision(Box::new(powadapt_obs::RebalanceDecision {
                    node: self.tree.path(id),
                    cap_w: g.cap_w,
                    granted_w: g.granted_w,
                    demand_w: g.demand_w,
                }))
            );
        }

        for (e, leaf) in self.leaves.iter().enumerate() {
            // A dark enclosure keeps its zero grant; nothing to apply.
            if down[e] {
                continue;
            }
            let granted_w = grants[leaf.0].granted_w;
            let unchanged =
                self.last_applied[e].is_some_and(|prev| (prev - granted_w).abs() <= 0.05);
            if unchanged {
                continue;
            }
            match self.controllers[e].apply_budget(granted_w) {
                Ok(plan) => {
                    set_routable_from_plan(
                        &mut self.routable,
                        &self.flat,
                        e,
                        &plan.actions,
                        &self.controllers[e],
                    );
                    self.last_applied[e] = Some(granted_w);
                    self.replans += 1;
                }
                // A grant below the enclosure floor keeps the previous
                // configuration: the tree guarantees floors when feasible,
                // so this only happens under pathological margins.
                Err(ControlError::Infeasible { .. }) => self.infeasible_rounds += 1,
                Err(err) => return Err(err.into()),
            }
        }
        Ok(())
    }

    /// Samples every node's subtree power and records max/mean, emitting
    /// Perfetto counter tracks for rack-level nodes. The energy ledger
    /// accrues over the closing interval with the powers it was holding,
    /// then takes over the fresh measurements.
    fn sample_nodes(&mut self, now: SimTime) {
        let rec = powadapt_obs::current();
        self.ledger.accrue(now);
        let mut power = vec![0.0f64; self.tree.len()];
        let mut leaf_watts = Vec::with_capacity(self.leaves.len());
        for (leaf, ctl) in self.leaves.iter().zip(&self.controllers) {
            let p = ctl.measured_power_w();
            leaf_watts.push(p);
            power[leaf.0] += p;
            for anc in self.tree.ancestors(*leaf) {
                power[anc.0] += p;
            }
        }
        self.ledger.set_powers(&leaf_watts);
        for id in self.tree.node_ids() {
            let p = power[id.0];
            self.node_max[id.0] = self.node_max[id.0].max(p);
            self.node_sum[id.0] += p;
            if self.tree.kind(id) == NodeKind::Rack {
                emit!(
                    rec,
                    now,
                    self.node_tracks[id.0],
                    EventKind::PowerSample { watts: p }
                );
            }
        }
    }

    /// One ledger audit round: attribute the interval's energy to the
    /// tenants by bytes moved and verify conservation against the tree.
    fn audit_ledger(&mut self, now: SimTime) {
        let p99s: Vec<Option<f64>> = self
            .accounts
            .iter_mut()
            .map(|a| a.window.p99_latency().map(Micros::get))
            .collect();
        let usage: Vec<TenantUsage<'_>> = self
            .tenants
            .iter()
            .zip(&self.accounts)
            .zip(p99s)
            .map(|((t, a), p99)| TenantUsage {
                name: &t.name,
                bytes: a.window.bytes(),
                p99_latency_us: p99,
                slo_p99_us: a.slo.max_p99_latency(),
            })
            .collect();
        // Grant enforcement only applies to grants the tree actually
        // made: the static baseline's shares ignore the tree by design.
        let enforce = self.policy == SelectionPolicy::ModelDriven;
        self.ledger.audit(
            now,
            &self.tree,
            &self.leaves,
            &self.last_grants,
            enforce,
            &usage,
            self.mig_bytes,
        );
    }

    /// The energy-attribution ledger's current accounts.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// The placement tier, when the spec configured one.
    pub fn placement(&self) -> Option<&PlacementTier> {
        self.place.as_ref()
    }
}

impl powadapt_snap::Snapshot for ClusterSim {
    /// Serializes the cluster's complete dynamic state: the event-loop
    /// cursors, routing and accounting vectors, in-flight ownership,
    /// tenant streams and SLO windows, every controller (devices, health,
    /// quarantine), and the tree-fault phases. Configuration — topology,
    /// models, tenants, intervals — is rebuilt from the spec on resume.
    fn write_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        write_time(w, self.now);
        w.u64(self.next_id);
        write_time(w, self.next_control);
        write_time(w, self.next_sample);
        w.u64(self.rebalance_rounds);
        w.u64(self.replans);
        w.u64(self.infeasible_rounds);
        w.u64(self.node_samples);

        w.seq_len(self.routable.len());
        for &v in &self.routable {
            w.bool(v);
        }
        write_f64s(w, &self.node_max);
        write_f64s(w, &self.node_sum);
        write_f64s(w, &self.last_grants);
        w.seq_len(self.last_applied.len());
        for &v in &self.last_applied {
            w.opt_f64(v);
        }

        w.seq_len(self.owners.len());
        for (&id, &owner) in &self.owners {
            w.u64(id);
            match owner {
                IoOwner::Tenant(tenant) => {
                    w.u8(0);
                    w.usize(tenant);
                }
                IoOwner::MigrationRead(m) => {
                    w.u8(1);
                    w.u64(m);
                }
                IoOwner::MigrationWrite(m) => {
                    w.u8(2);
                    w.u64(m);
                }
            }
        }

        w.seq_len(self.streams.len());
        for s in &self.streams {
            powadapt_snap::Snapshot::write_state(s, w)?;
        }
        w.seq_len(self.pending.len());
        for p in &self.pending {
            match p {
                Some(a) => {
                    w.bool(true);
                    write_arrival(w, a);
                }
                None => w.bool(false),
            }
        }
        w.seq_len(self.accounts.len());
        for a in &self.accounts {
            powadapt_snap::Snapshot::write_state(&a.window, w)?;
            w.u64(a.submitted);
            w.u64(a.dropped);
        }

        w.seq_len(self.controllers.len());
        for ctl in &self.controllers {
            ctl.write_state(w)?;
        }
        powadapt_snap::Snapshot::write_state(&self.faults, w)?;
        powadapt_snap::Snapshot::write_state(&self.ledger, w)?;

        // Placement tier: presence must match the spec on restore; the
        // backlog and system byte count ride alongside.
        w.u64(self.mig_bytes);
        w.seq_len(self.mig_backlog.len());
        for io in &self.mig_backlog {
            w.u64(io.migration);
            w.u32(io.dev);
            w.bool(io.write);
            w.u64(io.offset);
            w.u64(io.len);
        }
        match &self.place {
            Some(tier) => {
                w.bool(true);
                powadapt_snap::Snapshot::write_state(tier, w)
            }
            None => {
                w.bool(false);
                Ok(())
            }
        }
    }
}

impl powadapt_snap::Restore for ClusterSim {
    #[allow(clippy::too_many_lines)]
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.now = read_time(r)?;
        if self.now < self.start || self.now > self.t_end {
            return Err(SnapError::InvalidValue(format!(
                "checkpoint time {:?} outside the run [{:?}, {:?}]",
                self.now, self.start, self.t_end
            )));
        }
        self.next_id = r.u64()?;
        self.next_control = read_time(r)?;
        self.next_sample = read_time(r)?;
        self.rebalance_rounds = r.u64()?;
        self.replans = r.u64()?;
        self.infeasible_rounds = r.u64()?;
        self.node_samples = r.u64()?;

        let n = r.seq_len()?;
        if n != self.routable.len() {
            return Err(SnapError::InvalidValue(format!(
                "snapshot has {n} routable flags, cluster has {}",
                self.routable.len()
            )));
        }
        for v in &mut self.routable {
            *v = r.bool()?;
        }
        read_f64s_into(r, &mut self.node_max, "node max")?;
        read_f64s_into(r, &mut self.node_sum, "node sum")?;
        read_f64s_into(r, &mut self.last_grants, "grant")?;
        let n = r.seq_len()?;
        if n != self.last_applied.len() {
            return Err(SnapError::InvalidValue(format!(
                "snapshot has {n} applied budgets, cluster has {}",
                self.last_applied.len()
            )));
        }
        for v in &mut self.last_applied {
            *v = r.opt_f64()?;
        }

        let n = r.seq_len()?;
        let mut owners = BTreeMap::new();
        for _ in 0..n {
            let id = r.u64()?;
            let owner = match r.u8()? {
                0 => {
                    let tenant = r.usize()?;
                    if tenant >= self.tenants.len() {
                        return Err(SnapError::InvalidValue(format!(
                            "in-flight IO {id} owned by tenant {tenant}, cluster has {}",
                            self.tenants.len()
                        )));
                    }
                    IoOwner::Tenant(tenant)
                }
                1 => IoOwner::MigrationRead(r.u64()?),
                2 => IoOwner::MigrationWrite(r.u64()?),
                other => {
                    return Err(SnapError::InvalidValue(format!(
                        "in-flight IO {id} owner discriminant {other} out of range"
                    )))
                }
            };
            if id >= self.next_id {
                return Err(SnapError::InvalidValue(format!(
                    "in-flight IO {id} at or past the next request id {}",
                    self.next_id
                )));
            }
            if owners.insert(id, owner).is_some() {
                return Err(SnapError::InvalidValue(format!(
                    "duplicate in-flight IO id {id}"
                )));
            }
        }
        self.owners = owners;

        let n = r.seq_len()?;
        if n != self.streams.len() {
            return Err(SnapError::InvalidValue(format!(
                "snapshot has {n} tenant streams, cluster has {}",
                self.streams.len()
            )));
        }
        for s in &mut self.streams {
            powadapt_snap::Restore::read_state(s, r)?;
        }
        let n = r.seq_len()?;
        if n != self.pending.len() {
            return Err(SnapError::InvalidValue(format!(
                "snapshot has {n} pending arrivals, cluster has {}",
                self.pending.len()
            )));
        }
        for p in &mut self.pending {
            *p = if r.bool()? {
                Some(read_arrival(r)?)
            } else {
                None
            };
        }
        let n = r.seq_len()?;
        if n != self.accounts.len() {
            return Err(SnapError::InvalidValue(format!(
                "snapshot has {n} tenant accounts, cluster has {}",
                self.accounts.len()
            )));
        }
        for a in &mut self.accounts {
            powadapt_snap::Restore::read_state(&mut a.window, r)?;
            a.submitted = r.u64()?;
            a.dropped = r.u64()?;
        }

        let n = r.seq_len()?;
        if n != self.controllers.len() {
            return Err(SnapError::InvalidValue(format!(
                "snapshot has {n} controllers, cluster has {}",
                self.controllers.len()
            )));
        }
        for ctl in &mut self.controllers {
            ctl.read_state(r)?;
        }
        powadapt_snap::Restore::read_state(&mut self.faults, r)?;
        powadapt_snap::Restore::read_state(&mut self.ledger, r)?;

        self.mig_bytes = r.u64()?;
        let n = r.seq_len()?;
        self.mig_backlog.clear();
        for _ in 0..n {
            let migration = r.u64()?;
            let dev = r.u32()?;
            if dev as usize >= self.flat.len() {
                return Err(SnapError::InvalidValue(format!(
                    "backlogged migration IO targets device {dev}, cluster has {}",
                    self.flat.len()
                )));
            }
            let write = r.bool()?;
            let offset = r.u64()?;
            let len = r.u64()?;
            self.mig_backlog.push_back(MigrationIo {
                migration,
                dev,
                write,
                offset,
                len,
            });
        }
        let has_tier = r.bool()?;
        if has_tier != self.place.is_some() {
            return Err(SnapError::InvalidValue(format!(
                "snapshot {} a placement tier, the spec {}",
                if has_tier { "carries" } else { "lacks" },
                if self.place.is_some() {
                    "configures one"
                } else {
                    "does not"
                }
            )));
        }
        if let Some(tier) = self.place.as_mut() {
            powadapt_snap::Restore::read_state(tier, r)?;
        }

        // In-flight migration owners must map to unfinished moves in the
        // matching phase; the backlog must not double-issue a leg that is
        // already in flight.
        for (&id, &owner) in &self.owners {
            let mid = match owner {
                IoOwner::Tenant(_) => continue,
                IoOwner::MigrationRead(m) | IoOwner::MigrationWrite(m) => m,
            };
            let want = if matches!(owner, IoOwner::MigrationRead(_)) {
                MigrationPhase::Reading
            } else {
                MigrationPhase::Writing
            };
            let ok = self
                .place
                .as_ref()
                .and_then(|tier| tier.migration(mid))
                .is_some_and(|m| m.phase == want);
            if !ok {
                return Err(SnapError::InvalidValue(format!(
                    "in-flight IO {id} belongs to migration {mid}, which is missing or out of phase"
                )));
            }
        }
        for io in &self.mig_backlog {
            let want = if io.write {
                MigrationPhase::Writing
            } else {
                MigrationPhase::Reading
            };
            let ok = self
                .place
                .as_ref()
                .and_then(|tier| tier.migration(io.migration))
                .is_some_and(|m| m.phase == want);
            if !ok {
                return Err(SnapError::InvalidValue(format!(
                    "backlogged migration IO for move {}, which is missing or out of phase",
                    io.migration
                )));
            }
        }
        Ok(())
    }
}

/// Runs a cluster to completion.
///
/// Equivalent to driving a [`ClusterSim`] from [`ClusterSim::new`]
/// straight through [`ClusterSim::finish`] — checkpoint/resume flows hold
/// the object instead.
///
/// # Errors
///
/// [`ClusterError::InvalidSpec`] for shape problems (enclosure/leaf
/// mismatch, empty tenants, zero intervals), [`ClusterError::Tree`] for
/// tree misconfiguration, [`ClusterError::Control`]/
/// [`ClusterError::Device`] when a controller or device fails
/// non-transiently.
pub fn run_cluster(spec: ClusterSpec) -> Result<ClusterReport, ClusterError> {
    ClusterSim::new(spec)?.finish()
}

/// Marks devices routable per the enclosure's applied plan: `Operate`
/// actions route, `Standby` (and quarantined devices absent from the
/// plan) do not. Actions match devices by label, first unclaimed wins.
fn set_routable_from_plan(
    routable: &mut [bool],
    flat: &[(usize, usize)],
    e: usize,
    actions: &[(String, DeviceAction)],
    ctl: &AdaptiveController,
) {
    for (gi, &(fe, _)) in flat.iter().enumerate() {
        if fe == e {
            routable[gi] = false;
        }
    }
    let mut assigned = vec![false; ctl.devices().len()];
    for (label, action) in actions {
        let slot = ctl
            .devices()
            .iter()
            .enumerate()
            .position(|(d, dev)| !assigned[d] && dev.spec().label() == label);
        if let Some(d) = slot {
            assigned[d] = true;
            if let Some(gi) = flat.iter().position(|&(fe, fd)| fe == e && fd == d) {
                routable[gi] = matches!(action, DeviceAction::Operate(_));
            }
        }
    }
}
