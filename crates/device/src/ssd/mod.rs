//! Event-driven SSD simulator.
//!
//! The model decomposes the drive into the components that dominate power:
//!
//! - a **controller** that processes one command at a time,
//! - a **host interface** that serializes data transfers at a fixed
//!   bandwidth,
//! - an array of **NAND dies** that execute page reads and multi-plane
//!   programs, each drawing power while busy,
//! - a **DRAM write buffer** that acknowledges writes early and is drained
//!   by background program operations (with write amplification), and
//! - a **power-cap governor** that delays new work whenever the trailing
//!   window average would exceed the selected power state's cap.
//!
//! The interplay of these components reproduces the paper's findings
//! organically: caps throttle writes much more than reads (programs draw
//! more power than reads), deep queues activate more dies (more power),
//! small chunks bottleneck on the controller (less power, less throughput),
//! and capped flush bursts delay command processing (latency tails).

mod config;

pub use config::SsdConfig;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use powadapt_obs::{emit, span, EventKind, RecorderHandle};
use powadapt_sim::snapshot::{read_time, write_time};
use powadapt_sim::{EventQueue, RollingMean, SimDuration, SimRng, SimTime, Slab};
use powadapt_snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::device::StorageDevice;
use crate::error::DeviceError;
use crate::io::{IoCompletion, IoId, IoKind, IoRequest, MIB};
use crate::power::{
    PowerStateDesc, PowerStateId, StandbyConfig, StandbyDepth, StandbyPhase, StandbyState,
};
use crate::snapcodec;
use crate::spec::DeviceSpec;

/// Governor retry cadence when starts are blocked by a power cap.
const RETRY_INTERVAL: SimDuration = SimDuration::from_micros(200);
/// Chunk length treated as "large" for write-amplification purposes.
const LARGE_WRITE: u64 = MIB;
/// Smallest chunk of the paper's sweep; anchors the WAF interpolation.
const SMALL_WRITE: u64 = 4 * 1024;

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: IoId,
    kind: IoKind,
    offset: u64,
    len: u64,
    submitted: SimTime,
    /// Write amplification assigned when the command executed.
    waf: f64,
}

impl Pending {
    fn end(&self) -> u64 {
        self.offset + self.len
    }
}

#[derive(Debug, Clone, Copy)]
enum DieWork {
    /// One page read belonging to the in-flight read at this `reads`-slab
    /// slot. Slots are O(1) to resolve on the hot completion path;
    /// snapshots translate them back to stable [`IoId`]s.
    Read(usize),
    /// One (possibly partial) program unit of buffer drain.
    Program,
}

#[derive(Debug, Clone, Copy)]
struct Transfer {
    pending: Pending,
}

#[derive(Debug)]
enum Ev {
    CmdDone(Pending),
    IfaceDone(Transfer),
    Complete(Pending),
    DieDone { die: usize, work: DieWork },
    StandbyDone,
    NoiseTick,
    RetryTick,
    IdleFlush,
}

#[derive(Debug)]
struct ReadState {
    pending: Pending,
    remaining: usize,
}

/// LRU set of recently read page indices (controller read cache).
#[derive(Debug, Default)]
struct PageCache {
    order: VecDeque<u64>,
    set: BTreeSet<u64>,
    capacity: usize,
}

impl PageCache {
    fn new(capacity: usize) -> Self {
        PageCache {
            order: VecDeque::with_capacity(capacity),
            set: BTreeSet::new(),
            capacity,
        }
    }

    fn contains(&self, page: u64) -> bool {
        self.set.contains(&page)
    }

    fn insert(&mut self, page: u64) {
        if self.capacity == 0 || self.set.contains(&page) {
            return;
        }
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        self.order.push_back(page);
        self.set.insert(page);
    }
}

/// A simulated SSD. See the [module docs](self) for the model.
///
/// # Examples
///
/// ```
/// use powadapt_device::{catalog, StorageDevice};
///
/// let dev = catalog::ssd1_pm9a3(1);
/// assert_eq!(dev.spec().label(), "SSD1");
/// assert!(dev.power_w() > 0.0);
/// ```
#[derive(Debug)]
pub struct Ssd {
    // powadapt-lint: allow(d6, reason = "static device spec; the restorer constructs the device from it")
    spec: DeviceSpec,
    cfg: SsdConfig,
    now: SimTime,
    events: EventQueue<Ev>,
    rng: SimRng,

    // Power accounting.
    power_now: f64,
    rolling: RollingMean,
    ps_index: usize,
    phase: StandbyPhase,
    /// Depth of the standby state in force or most recently requested;
    /// meaningful only while `phase` is not `Active`.
    depth: StandbyDepth,
    standby_requested: bool,
    noise_w: f64,
    noise_scheduled: bool,

    // Controller.
    ctrl_busy: bool,
    cmd_queue: VecDeque<Pending>,

    // Host interface.
    iface_busy: bool,
    iface_queue: VecDeque<Transfer>,

    // NAND dies. Die queues carry `reads`-slab slots so the per-page
    // completion path never walks an ordered map.
    die_busy: Vec<bool>,
    die_q: Vec<VecDeque<usize>>,
    busy_read: usize,
    busy_prog: usize,

    // Write path.
    buffer_used: u64,
    nand_debt: u64,
    flushing: bool,
    buffer_waiters: VecDeque<Pending>,
    last_write_end: u64,

    // Read path: in-flight reads live in a freelist arena keyed by slot.
    reads: Slab<ReadState>,
    cache: PageCache,

    inflight_ids: BTreeSet<u64>,
    done: Vec<IoCompletion>,
    retry_pending: bool,
    idle_flush_pending: bool,

    // Telemetry sink (captured from the global slot at construction;
    // write-only, never feeds back into device behavior).
    // powadapt-lint: allow(d6, reason = "telemetry sink; re-captured from the global slot at construction")
    rec: RecorderHandle,
    // powadapt-lint: allow(d6, reason = "telemetry label; re-derived at construction")
    track: &'static str,
    // Precomputed per-die span labels ("die{i}.program" / "die{i}.read"):
    // span emission clones a refcount instead of formatting per event.
    // powadapt-lint: allow(d6, reason = "telemetry labels; re-derived from the die count at construction")
    die_labels: Vec<DieLabels>,
}

/// Prebuilt span labels for one die.
#[derive(Debug, Clone)]
struct DieLabels {
    program: &'static str,
    read: &'static str,
}

fn die_labels(dies: usize) -> Vec<DieLabels> {
    (0..dies)
        .map(|d| DieLabels {
            program: powadapt_obs::intern(&format!("die{d}.program")),
            read: powadapt_obs::intern(&format!("die{d}.read")),
        })
        .collect()
}

impl Ssd {
    /// Creates an SSD from a spec and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SsdConfig::validate`]);
    /// [`Ssd::try_new`] is the fallible equivalent.
    pub fn new(spec: DeviceSpec, cfg: SsdConfig, seed: u64) -> Self {
        match Ssd::try_new(spec, cfg, seed) {
            Ok(ssd) => ssd,
            // powadapt-lint: allow(D5, reason = "documented panic-on-invalid-config constructor; the error path is try_new")
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: returns [`DeviceError::InvalidConfig`] instead
    /// of panicking when the configuration fails [`SsdConfig::validate`].
    pub fn try_new(spec: DeviceSpec, cfg: SsdConfig, seed: u64) -> Result<Self, DeviceError> {
        if let Err(e) = cfg.validate() {
            return Err(DeviceError::InvalidConfig(e));
        }
        let idle = cfg.idle_w;
        let window = cfg.cap_window;
        let dies = cfg.dies;
        let cache = PageCache::new(cfg.read_cache_pages);
        let track = powadapt_obs::intern(spec.label());
        let die_labels = die_labels(dies);
        Ok(Ssd {
            spec,
            cfg,
            now: SimTime::ZERO,
            events: EventQueue::new(),
            rng: SimRng::seed_from(seed),
            power_now: idle,
            rolling: RollingMean::new(window, idle),
            ps_index: 0,
            phase: StandbyPhase::Active,
            depth: StandbyDepth::Slumber,
            standby_requested: false,
            noise_w: 0.0,
            noise_scheduled: false,
            ctrl_busy: false,
            cmd_queue: VecDeque::new(),
            iface_busy: false,
            iface_queue: VecDeque::new(),
            die_busy: vec![false; dies],
            die_q: (0..dies).map(|_| VecDeque::new()).collect(),
            busy_read: 0,
            busy_prog: 0,
            buffer_used: 0,
            nand_debt: 0,
            flushing: false,
            buffer_waiters: VecDeque::new(),
            last_write_end: u64::MAX, // first write is never "sequential"
            reads: Slab::new(),
            cache,
            inflight_ids: BTreeSet::new(),
            done: Vec::new(),
            retry_pending: false,
            idle_flush_pending: false,
            rec: powadapt_obs::current(),
            track,
            die_labels,
        })
    }

    /// The configuration the device was built with.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Current write-buffer fill in bytes (diagnostic).
    pub fn buffer_used(&self) -> u64 {
        self.buffer_used
    }

    /// Outstanding NAND program debt in bytes (diagnostic).
    pub fn nand_debt(&self) -> u64 {
        self.nand_debt
    }

    fn cap_w(&self) -> f64 {
        self.cfg.power_states[self.ps_index].cap_w
    }

    fn need_retry(&mut self) {
        if !self.retry_pending {
            self.retry_pending = true;
            emit!(
                self.rec,
                self.now,
                self.track,
                EventKind::CapApplied {
                    cap_w: self.cap_w(),
                    power_w: self.power_now,
                }
            );
            self.events
                .schedule(self.now + RETRY_INTERVAL, Ev::RetryTick);
        }
    }

    /// May a command start now? Command processing itself draws little
    /// power, so it is gated only on instantaneous headroom — die work is
    /// what the average-power governor paces.
    fn gov_allows_cmd(&mut self) -> bool {
        let cap = self.cap_w();
        if cap.is_infinite() {
            return true;
        }
        if self.power_now > cap * self.cfg.burst_factor {
            self.need_retry();
            return false;
        }
        true
    }

    /// May new die work drawing `add_w` start now without violating the cap?
    ///
    /// A start is allowed while instantaneous power is at or below the cap
    /// (so the overshoot is bounded by one op's power) and the trailing
    /// window average has headroom. `add_w` is accepted for interface
    /// symmetry; the instant bound intentionally excludes it.
    fn gov_allows(&mut self, add_w: f64) -> bool {
        let _ = add_w;
        let cap = self.cap_w();
        if cap.is_infinite() {
            return true;
        }
        if self.power_now > cap {
            self.need_retry();
            return false;
        }
        if self.rolling.mean_at(self.now) >= cap {
            self.need_retry();
            return false;
        }
        true
    }

    fn any_activity(&self) -> bool {
        self.ctrl_busy || self.iface_busy || self.busy_read > 0 || self.busy_prog > 0
    }

    /// No host-facing work pending (buffered writes may still be dirty).
    fn host_idle(&self) -> bool {
        !self.ctrl_busy
            && self.cmd_queue.is_empty()
            && self.buffer_waiters.is_empty()
            && self.reads.is_empty()
            && self.iface_queue.is_empty()
            && !self.iface_busy
    }

    fn is_fully_idle(&self) -> bool {
        !self.any_activity()
            && self.cmd_queue.is_empty()
            && self.iface_queue.is_empty()
            && self.buffer_waiters.is_empty()
            && self.reads.is_empty()
            && self.nand_debt == 0
    }

    /// Standby parameters for the depth in force.
    fn standby_cfg(&self) -> Option<&StandbyConfig> {
        match self.depth {
            StandbyDepth::Partial => self.cfg.partial.as_ref(),
            StandbyDepth::Slumber => self.cfg.standby.as_ref(),
        }
    }

    fn compute_power(&self) -> f64 {
        match self.phase {
            StandbyPhase::Entering { .. } => self
                .standby_cfg()
                .map_or(self.cfg.idle_w, |s| s.transition_w),
            StandbyPhase::Standby => self.standby_cfg().map_or(self.cfg.idle_w, |s| s.standby_w),
            StandbyPhase::Exiting { .. } => self
                .standby_cfg()
                .map_or(self.cfg.idle_w, |s| s.wake_spike_w),
            StandbyPhase::Active => {
                let mut p = self.cfg.idle_w;
                if self.any_activity() {
                    p += self.cfg.ctrl_active_w + self.noise_w;
                }
                p += self.busy_read as f64 * self.cfg.die_read_w;
                p += self.busy_prog as f64 * self.cfg.die_prog_w;
                if self.iface_busy {
                    p += self.cfg.iface_active_w;
                }
                p.max(0.0)
            }
        }
    }

    fn update_power(&mut self) {
        let p = self.compute_power();
        if (p - self.power_now).abs() > 1e-12 {
            self.power_now = p;
            self.rolling.push(self.now, p);
        }
    }

    fn schedule_noise(&mut self) {
        if self.cfg.noise_sd_w > 0.0 && !self.noise_scheduled {
            self.noise_scheduled = true;
            let dwell = SimDuration::from_micros(self.rng.u64_range(4_000, 12_000));
            self.events.schedule(self.now + dwell, Ev::NoiseTick);
        }
    }

    fn waf_for(&self, offset: u64, len: u64) -> f64 {
        if offset == self.last_write_end || len >= LARGE_WRITE {
            return self.cfg.waf_min;
        }
        let len = len.clamp(SMALL_WRITE, LARGE_WRITE) as f64;
        let t = (len.ln() - (SMALL_WRITE as f64).ln())
            / ((LARGE_WRITE as f64).ln() - (SMALL_WRITE as f64).ln());
        self.cfg.waf_max + t * (self.cfg.waf_min - self.cfg.waf_max)
    }

    fn begin_enter_standby(&mut self) {
        // powadapt-lint: allow(D5, reason = "callers transition here only after request_standby verified standby support")
        let enter = self.standby_cfg().expect("standby config").enter;
        let until = self.now + enter;
        self.phase = StandbyPhase::Entering { until };
        emit!(self.rec, self.now, self.track, EventKind::SpinDown);
        self.events.schedule(until, Ev::StandbyDone);
    }

    fn begin_wake(&mut self) {
        // powadapt-lint: allow(D5, reason = "waking is only reachable from standby phases, which require standby config")
        let exit = self.standby_cfg().expect("standby config").exit;
        let until = self.now + exit;
        self.phase = StandbyPhase::Exiting { until };
        self.standby_requested = false;
        emit!(self.rec, self.now, self.track, EventKind::SpinUp);
        self.events.schedule(until, Ev::StandbyDone);
    }

    fn admit_write(&mut self, p: Pending) {
        self.buffer_used += p.len;
        self.nand_debt += (p.len as f64 * p.waf).round() as u64;
        if self.buffer_used >= self.cfg.flush_watermark_bytes {
            self.flushing = true;
        }
        self.iface_queue.push_back(Transfer { pending: p });
    }

    fn buffer_fits(&self, len: u64) -> bool {
        self.buffer_used + len <= self.cfg.write_buffer_bytes
    }

    /// Starts one program op on `die` if there is debt and the governor
    /// allows it. Returns whether an op started.
    fn try_start_program(&mut self, die: usize) -> bool {
        if self.nand_debt == 0 || self.die_busy[die] {
            return false;
        }
        if !self.gov_allows(self.cfg.die_prog_w) {
            return false;
        }
        let unit = self.cfg.program_unit_bytes;
        let chunk = unit.min(self.nand_debt);
        let freed = if self.nand_debt == chunk {
            self.buffer_used
        } else {
            let f = chunk as u128 * self.buffer_used as u128 / self.nand_debt as u128;
            (f as u64).min(self.buffer_used)
        };
        self.buffer_used -= freed;
        self.nand_debt -= chunk;
        self.die_busy[die] = true;
        self.busy_prog += 1;
        let dur = self
            .cfg
            .program_op
            .mul_f64(chunk as f64 / unit as f64)
            .max(SimDuration::from_nanos(1));
        span!(
            self.rec,
            self.now,
            self.track,
            self.die_labels[die].program,
            dur
        );
        self.events.schedule(
            self.now + dur,
            Ev::DieDone {
                die,
                work: DieWork::Program,
            },
        );
        true
    }

    fn execute_write(&mut self, mut p: Pending) {
        p.waf = self.waf_for(p.offset, p.len);
        self.last_write_end = p.end();
        if self.buffer_fits(p.len) {
            self.admit_write(p);
        } else {
            self.buffer_waiters.push_back(p);
        }
    }

    fn execute_read(&mut self, p: Pending) {
        let page = self.cfg.page_bytes;
        let first = p.offset / page;
        let last = (p.end() - 1) / page;
        let dies = self.cfg.dies as u64;
        // Claim the slot up front so the per-page die work can reference
        // it; a fully cached read releases the slot before anyone sees it.
        let slot = self.reads.insert(ReadState {
            pending: p,
            remaining: 0,
        });
        let mut ops = 0usize;
        for pg in first..=last {
            if !self.cache.contains(pg) {
                let die = (pg % dies) as usize;
                self.die_q[die].push_back(slot);
                ops += 1;
            }
            self.cache.insert(pg);
        }
        if ops == 0 {
            self.reads.remove(slot);
            self.iface_queue.push_back(Transfer { pending: p });
        } else if let Some(rs) = self.reads.get_mut(slot) {
            rs.remaining = ops;
        }
    }

    fn finish(&mut self, p: Pending) {
        self.inflight_ids.remove(&p.id.0);
        emit!(
            self.rec,
            self.now,
            self.track,
            EventKind::IoComplete {
                id: p.id.0,
                dir: p.kind.obs_dir(),
                len: p.len,
                latency: self.now.duration_since(p.submitted),
            }
        );
        self.done.push(IoCompletion {
            id: p.id,
            kind: p.kind,
            len: p.len,
            submitted: p.submitted,
            completed: self.now,
        });
    }

    fn pump(&mut self) {
        match self.phase {
            StandbyPhase::Active => {}
            StandbyPhase::Standby => {
                if !self.cmd_queue.is_empty() {
                    self.begin_wake();
                }
                self.update_power();
                return;
            }
            _ => {
                self.update_power();
                return;
            }
        }

        let mut progress = true;
        while progress {
            progress = false;

            // Enter standby once fully drained, if requested.
            if self.standby_requested && self.is_fully_idle() {
                self.begin_enter_standby();
                self.update_power();
                return;
            }

            // Controller: one command at a time, gated by the cap.
            if !self.ctrl_busy && !self.cmd_queue.is_empty() && self.gov_allows_cmd() {
                if let Some(p) = self.cmd_queue.pop_front() {
                    self.ctrl_busy = true;
                    let dur = match p.kind {
                        IoKind::Read => self.cfg.cmd_read,
                        IoKind::Write => self.cfg.cmd_write,
                    };
                    self.events.schedule(self.now + dur, Ev::CmdDone(p));
                    progress = true;
                }
            }

            // Die reads.
            for die in 0..self.cfg.dies {
                if self.die_busy[die] || self.die_q[die].is_empty() {
                    continue;
                }
                if !self.gov_allows(self.cfg.die_read_w) {
                    break;
                }
                let Some(slot) = self.die_q[die].pop_front() else {
                    continue;
                };
                self.die_busy[die] = true;
                self.busy_read += 1;
                span!(
                    self.rec,
                    self.now,
                    self.track,
                    self.die_labels[die].read,
                    self.cfg.read_op
                );
                self.events.schedule(
                    self.now + self.cfg.read_op,
                    Ev::DieDone {
                        die,
                        work: DieWork::Read(slot),
                    },
                );
                self.update_power();
                progress = true;
            }

            // Flush: drain NAND debt onto free dies.
            if self.flushing {
                for die in 0..self.cfg.dies {
                    if self.nand_debt == 0 {
                        break;
                    }
                    if self.die_busy[die] {
                        continue;
                    }
                    if !self.try_start_program(die) {
                        break;
                    }
                    self.update_power();
                    progress = true;
                }
                if self.nand_debt == 0 {
                    self.flushing = false;
                }
            }

            // Host interface: one transfer at a time, FIFO.
            if !self.iface_busy {
                if let Some(x) = self.iface_queue.pop_front() {
                    self.iface_busy = true;
                    let secs = x.pending.len as f64 / self.cfg.interface_bw;
                    let dur = SimDuration::from_secs_f64(secs).max(SimDuration::from_nanos(1));
                    self.events.schedule(self.now + dur, Ev::IfaceDone(x));
                    progress = true;
                }
            }

            // Admit waiting writes as buffer space frees up.
            while let Some(front) = self.buffer_waiters.front() {
                if !self.buffer_fits(front.len) {
                    break;
                }
                if let Some(p) = self.buffer_waiters.pop_front() {
                    self.admit_write(p);
                    progress = true;
                }
            }
        }

        // Dirty data with an idle host: flush immediately when standby is
        // wanted, otherwise after the idle-flush delay.
        if self.nand_debt > 0 && !self.flushing && self.host_idle() {
            if self.standby_requested {
                self.flushing = true;
                self.pump_flush_only();
            } else if !self.idle_flush_pending {
                self.idle_flush_pending = true;
                self.events
                    .schedule(self.now + self.cfg.idle_flush_after, Ev::IdleFlush);
            }
        }
        self.update_power();
    }

    /// Starts programs for the flush path only (used when flushing begins
    /// outside the main pump loop to avoid recursion).
    fn pump_flush_only(&mut self) {
        for die in 0..self.cfg.dies {
            if self.nand_debt == 0 {
                break;
            }
            if self.die_busy[die] {
                continue;
            }
            if !self.try_start_program(die) {
                break;
            }
        }
        if self.nand_debt == 0 {
            self.flushing = false;
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::CmdDone(p) => {
                self.ctrl_busy = false;
                match p.kind {
                    IoKind::Write => self.execute_write(p),
                    IoKind::Read => self.execute_read(p),
                }
                self.pump();
            }
            Ev::IfaceDone(x) => {
                self.iface_busy = false;
                let p = x.pending;
                let post = match p.kind {
                    IoKind::Read => self.cfg.read_post,
                    IoKind::Write => self.cfg.write_commit,
                };
                if post.is_zero() {
                    self.finish(p);
                } else {
                    self.events.schedule(self.now + post, Ev::Complete(p));
                }
                self.pump();
            }
            Ev::Complete(p) => {
                self.finish(p);
                self.pump();
            }
            Ev::DieDone { die, work } => {
                self.die_busy[die] = false;
                match work {
                    DieWork::Read(slot) => {
                        self.busy_read -= 1;
                        let finished = {
                            let rs = self
                                .reads
                                .get_mut(slot)
                                // powadapt-lint: allow(D5, reason = "every DieDone::Read was scheduled with a ReadState; losing one would silently corrupt completion accounting")
                                .expect("read state exists for in-flight read");
                            rs.remaining -= 1;
                            rs.remaining == 0
                        };
                        if finished {
                            if let Some(rs) = self.reads.remove(slot) {
                                self.iface_queue.push_back(Transfer {
                                    pending: rs.pending,
                                });
                            }
                        }
                    }
                    DieWork::Program => {
                        self.busy_prog -= 1;
                    }
                }
                self.pump();
            }
            Ev::StandbyDone => {
                match self.phase {
                    StandbyPhase::Entering { until } if self.now >= until => {
                        self.phase = StandbyPhase::Standby;
                        // A wake requested mid-transition takes effect now.
                        if !self.standby_requested {
                            self.begin_wake();
                        }
                    }
                    StandbyPhase::Exiting { until } if self.now >= until => {
                        self.phase = StandbyPhase::Active;
                    }
                    _ => {}
                }
                self.pump();
            }
            Ev::NoiseTick => {
                self.noise_scheduled = false;
                if self.any_activity() || !self.cmd_queue.is_empty() {
                    // Background activity (GC bookkeeping, thermal effects)
                    // mostly adds power; clamp the downside tighter.
                    let sd = self.cfg.noise_sd_w;
                    self.noise_w = self.rng.normal(0.0, sd).clamp(-0.5 * sd, 2.0 * sd);
                    self.schedule_noise();
                } else {
                    self.noise_w = 0.0;
                }
                self.update_power();
            }
            Ev::RetryTick => {
                self.retry_pending = false;
                self.pump();
            }
            Ev::IdleFlush => {
                self.idle_flush_pending = false;
                if self.nand_debt > 0 && self.host_idle() {
                    self.flushing = true;
                }
                self.pump();
            }
        }
    }
}

impl StorageDevice for Ssd {
    fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn submit(&mut self, req: IoRequest) -> Result<(), DeviceError> {
        if req.len == 0 {
            return Err(DeviceError::ZeroLength);
        }
        if req.end() > self.spec.capacity() {
            return Err(DeviceError::OutOfRange {
                end: req.end(),
                capacity: self.spec.capacity(),
            });
        }
        if !self.inflight_ids.insert(req.id.0) {
            return Err(DeviceError::DuplicateRequest(req.id.0));
        }
        emit!(
            self.rec,
            self.now,
            self.track,
            EventKind::IoSubmit {
                id: req.id.0,
                dir: req.kind.obs_dir(),
                len: req.len,
            }
        );
        self.cmd_queue.push_back(Pending {
            id: req.id,
            kind: req.kind,
            offset: req.offset,
            len: req.len,
            submitted: self.now,
            waf: 1.0,
        });
        self.schedule_noise();
        self.pump();
        Ok(())
    }

    fn next_event(&mut self) -> Option<SimTime> {
        self.events.next_time()
    }

    // powadapt-lint: hot
    fn advance_to_into(&mut self, t: SimTime, out: &mut Vec<IoCompletion>) {
        assert!(
            t >= self.now,
            "advance_to {t} before device time {}",
            self.now
        );
        while let Some((te, ev)) = self.events.pop_at_or_before(t) {
            self.now = te;
            // powadapt-lint: allow(d9, reason = "event handlers append to recycled per-device queues; growth amortized")
            self.handle(ev);
        }
        self.now = t;
        // `append` drains `done` but keeps its allocation for reuse.
        out.append(&mut self.done);
    }

    fn power_w(&self) -> f64 {
        self.power_now
    }

    fn set_power_state(&mut self, ps: PowerStateId) -> Result<(), DeviceError> {
        match self.cfg.power_states.iter().position(|d| d.id == ps) {
            Some(i) => {
                if i != self.ps_index {
                    emit!(
                        self.rec,
                        self.now,
                        self.track,
                        EventKind::PowerStateTransition {
                            from: self.ps_index as u8,
                            to: i as u8,
                        }
                    );
                }
                self.ps_index = i;
                Ok(())
            }
            None => Err(DeviceError::UnknownPowerState(ps)),
        }
    }

    fn power_state(&self) -> PowerStateId {
        self.cfg.power_states[self.ps_index].id
    }

    fn power_states(&self) -> &[PowerStateDesc] {
        &self.cfg.power_states
    }

    fn request_standby(&mut self) -> Result<(), DeviceError> {
        self.request_standby_depth(StandbyDepth::Slumber)
    }

    fn request_standby_depth(&mut self, depth: StandbyDepth) -> Result<(), DeviceError> {
        let supported = match depth {
            StandbyDepth::Partial => self.cfg.partial.is_some(),
            StandbyDepth::Slumber => self.cfg.standby.is_some(),
        };
        if !supported {
            return Err(DeviceError::StandbyUnsupported);
        }
        match self.phase {
            StandbyPhase::Entering { .. } | StandbyPhase::Exiting { .. } => {
                Err(DeviceError::StandbyTransitionInProgress)
            }
            // Changing depth while asleep would need a wake + re-enter
            // cycle; callers do that explicitly via request_wake.
            StandbyPhase::Standby if self.depth != depth => {
                Err(DeviceError::StandbyTransitionInProgress)
            }
            StandbyPhase::Standby => Ok(()),
            StandbyPhase::Active => {
                self.depth = depth;
                self.standby_requested = true;
                self.pump();
                Ok(())
            }
        }
    }

    fn standby_depth(&self) -> StandbyDepth {
        self.depth
    }

    fn request_wake(&mut self) -> Result<(), DeviceError> {
        if self.cfg.standby.is_none() {
            return Err(DeviceError::StandbyUnsupported);
        }
        self.standby_requested = false;
        if self.phase == StandbyPhase::Standby {
            self.begin_wake();
            self.update_power();
        }
        Ok(())
    }

    fn standby_state(&self) -> StandbyState {
        self.phase.state()
    }

    fn standby_power_w(&self) -> Option<f64> {
        self.cfg.standby.as_ref().map(|s| s.standby_w)
    }

    fn inflight(&self) -> usize {
        self.inflight_ids.len()
    }

    fn set_recorder(&mut self, rec: RecorderHandle, track: &'static str) {
        self.rec = rec;
        self.track = track;
    }

    fn write_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        write_time(w, self.now);
        // The in-flight read table precedes the event and die queues:
        // those queues reference reads by arena slot, and a restore can
        // only translate the stable ids written here back into slots once
        // the table exists. Entries are ordered by id, not slot, so the
        // byte stream is independent of freelist history.
        let mut reads: Vec<(u64, &ReadState)> = self
            .reads
            .iter()
            .map(|(_, rs)| (rs.pending.id.0, rs))
            .collect();
        reads.sort_unstable_by_key(|&(id, _)| id);
        w.seq_len(reads.len());
        for (id, rs) in reads {
            w.u64(id);
            write_pending(w, &rs.pending);
            w.usize(rs.remaining);
        }
        self.events
            .write_state(w, |w, ev| write_ev(w, ev, &self.reads))?;
        Snapshot::write_state(&self.rng, w)?;
        w.f64(self.power_now);
        Snapshot::write_state(&self.rolling, w)?;
        w.usize(self.ps_index);
        snapcodec::write_standby_phase(w, self.phase);
        snapcodec::write_standby_depth(w, self.depth);
        w.bool(self.standby_requested);
        w.f64(self.noise_w);
        w.bool(self.noise_scheduled);
        w.bool(self.ctrl_busy);
        write_pendings(w, self.cmd_queue.iter());
        w.bool(self.iface_busy);
        w.seq_len(self.iface_queue.len());
        for t in &self.iface_queue {
            write_pending(w, &t.pending);
        }
        w.seq_len(self.die_busy.len());
        for &b in &self.die_busy {
            w.bool(b);
        }
        w.seq_len(self.die_q.len());
        for q in &self.die_q {
            w.seq_len(q.len());
            for &slot in q {
                w.u64(slot_id(&self.reads, slot)?);
            }
        }
        w.usize(self.busy_read);
        w.usize(self.busy_prog);
        w.u64(self.buffer_used);
        w.u64(self.nand_debt);
        w.bool(self.flushing);
        write_pendings(w, self.buffer_waiters.iter());
        w.u64(self.last_write_end);
        w.seq_len(self.cache.order.len());
        for &page in &self.cache.order {
            w.u64(page);
        }
        w.seq_len(self.inflight_ids.len());
        for &id in &self.inflight_ids {
            w.u64(id);
        }
        snapcodec::write_completions(w, &self.done);
        w.bool(self.retry_pending);
        w.bool(self.idle_flush_pending);
        Ok(())
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.now = read_time(r)?;
        let n = r.seq_len()?;
        self.reads.clear();
        let mut slot_of: BTreeMap<u64, usize> = BTreeMap::new();
        for _ in 0..n {
            let id = r.u64()?;
            let pending = read_pending(r)?;
            let remaining = r.usize()?;
            let slot = self.reads.insert(ReadState { pending, remaining });
            if slot_of.insert(id, slot).is_some() {
                return Err(SnapError::InvalidValue(format!("duplicate read id {id}")));
            }
        }
        self.events.read_state(r, |r| read_ev(r, &slot_of))?;
        Restore::read_state(&mut self.rng, r)?;
        self.power_now = r.f64()?;
        Restore::read_state(&mut self.rolling, r)?;
        let ps_index = r.usize()?;
        if ps_index >= self.cfg.power_states.len() {
            return Err(SnapError::InvalidValue(format!(
                "power state index {ps_index} out of range"
            )));
        }
        self.ps_index = ps_index;
        self.phase = snapcodec::read_standby_phase(r)?;
        self.depth = snapcodec::read_standby_depth(r)?;
        self.standby_requested = r.bool()?;
        self.noise_w = r.f64()?;
        self.noise_scheduled = r.bool()?;
        self.ctrl_busy = r.bool()?;
        self.cmd_queue = read_pendings(r)?;
        self.iface_busy = r.bool()?;
        let n = r.seq_len()?;
        self.iface_queue.clear();
        for _ in 0..n {
            self.iface_queue.push_back(Transfer {
                pending: read_pending(r)?,
            });
        }
        let n = r.seq_len()?;
        if n != self.die_busy.len() {
            return Err(SnapError::InvalidValue(format!(
                "die count {n} does not match configured {}",
                self.die_busy.len()
            )));
        }
        for b in &mut self.die_busy {
            *b = r.bool()?;
        }
        let n = r.seq_len()?;
        if n != self.die_q.len() {
            return Err(SnapError::InvalidValue(format!(
                "die queue count {n} does not match configured {}",
                self.die_q.len()
            )));
        }
        for q in &mut self.die_q {
            let m = r.seq_len()?;
            q.clear();
            for _ in 0..m {
                let id = r.u64()?;
                q.push_back(resolve_slot(&slot_of, id)?);
            }
        }
        self.busy_read = r.usize()?;
        self.busy_prog = r.usize()?;
        self.buffer_used = r.u64()?;
        self.nand_debt = r.u64()?;
        self.flushing = r.bool()?;
        self.buffer_waiters = read_pendings(r)?;
        self.last_write_end = r.u64()?;
        let n = r.seq_len()?;
        if n > self.cache.capacity {
            return Err(SnapError::InvalidValue(format!(
                "cache holds {n} pages, capacity {}",
                self.cache.capacity
            )));
        }
        let mut order = VecDeque::with_capacity(n);
        let mut set = BTreeSet::new();
        for _ in 0..n {
            let page = r.u64()?;
            if !set.insert(page) {
                return Err(SnapError::InvalidValue(format!(
                    "duplicate cached page {page}"
                )));
            }
            order.push_back(page);
        }
        self.cache.order = order;
        self.cache.set = set;
        let n = r.seq_len()?;
        self.inflight_ids.clear();
        for _ in 0..n {
            let id = r.u64()?;
            if !self.inflight_ids.insert(id) {
                return Err(SnapError::InvalidValue(format!(
                    "duplicate inflight id {id}"
                )));
            }
        }
        self.done = snapcodec::read_completions(r)?;
        self.retry_pending = r.bool()?;
        self.idle_flush_pending = r.bool()?;
        Ok(())
    }
}

fn write_pending(w: &mut SnapWriter, p: &Pending) {
    w.u64(p.id.0);
    snapcodec::write_io_kind(w, p.kind);
    w.u64(p.offset);
    w.u64(p.len);
    write_time(w, p.submitted);
    w.f64(p.waf);
}

fn read_pending(r: &mut SnapReader<'_>) -> Result<Pending, SnapError> {
    Ok(Pending {
        id: IoId(r.u64()?),
        kind: snapcodec::read_io_kind(r)?,
        offset: r.u64()?,
        len: r.u64()?,
        submitted: read_time(r)?,
        waf: r.f64()?,
    })
}

fn write_pendings<'a, I>(w: &mut SnapWriter, it: I)
where
    I: ExactSizeIterator<Item = &'a Pending>,
{
    w.seq_len(it.len());
    for p in it {
        write_pending(w, p);
    }
}

fn read_pendings(r: &mut SnapReader<'_>) -> Result<VecDeque<Pending>, SnapError> {
    let n = r.seq_len()?;
    let mut out = VecDeque::with_capacity(n);
    for _ in 0..n {
        out.push_back(read_pending(r)?);
    }
    Ok(out)
}

/// Translates an in-flight read's arena slot back to its stable id for
/// serialization.
fn slot_id(reads: &Slab<ReadState>, slot: usize) -> Result<u64, SnapError> {
    reads
        .get(slot)
        .map(|rs| rs.pending.id.0)
        .ok_or_else(|| SnapError::InvalidValue(format!("vacant read slot {slot} referenced")))
}

/// Translates a serialized read id back to the arena slot it occupies in
/// the restored `reads` table.
fn resolve_slot(slot_of: &BTreeMap<u64, usize>, id: u64) -> Result<usize, SnapError> {
    slot_of
        .get(&id)
        .copied()
        .ok_or_else(|| SnapError::InvalidValue(format!("unknown in-flight read id {id}")))
}

fn write_ev(w: &mut SnapWriter, ev: &Ev, reads: &Slab<ReadState>) -> Result<(), SnapError> {
    match ev {
        Ev::CmdDone(p) => {
            w.u8(0);
            write_pending(w, p);
        }
        Ev::IfaceDone(t) => {
            w.u8(1);
            write_pending(w, &t.pending);
        }
        Ev::Complete(p) => {
            w.u8(2);
            write_pending(w, p);
        }
        Ev::DieDone { die, work } => {
            w.u8(3);
            w.usize(*die);
            match work {
                DieWork::Read(slot) => {
                    w.u8(0);
                    w.u64(slot_id(reads, *slot)?);
                }
                DieWork::Program => w.u8(1),
            }
        }
        Ev::StandbyDone => w.u8(4),
        Ev::NoiseTick => w.u8(5),
        Ev::RetryTick => w.u8(6),
        Ev::IdleFlush => w.u8(7),
    }
    Ok(())
}

fn read_ev(r: &mut SnapReader<'_>, slot_of: &BTreeMap<u64, usize>) -> Result<Ev, SnapError> {
    Ok(match r.u8()? {
        0 => Ev::CmdDone(read_pending(r)?),
        1 => Ev::IfaceDone(Transfer {
            pending: read_pending(r)?,
        }),
        2 => Ev::Complete(read_pending(r)?),
        3 => {
            let die = r.usize()?;
            let work = match r.u8()? {
                0 => DieWork::Read(resolve_slot(slot_of, r.u64()?)?),
                1 => DieWork::Program,
                b => {
                    return Err(SnapError::InvalidValue(format!("die work byte {b}")));
                }
            };
            Ev::DieDone { die, work }
        }
        4 => Ev::StandbyDone,
        5 => Ev::NoiseTick,
        6 => Ev::RetryTick,
        7 => Ev::IdleFlush,
        b => return Err(SnapError::InvalidValue(format!("ssd event byte {b}"))),
    })
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::device::drain;
    use crate::io::{GIB, KIB};
    use crate::spec::{DeviceClass, Protocol};
    use powadapt_sim::SimTime;

    fn test_ssd() -> Ssd {
        let spec = DeviceSpec::new("T", "Test SSD", Protocol::Nvme, DeviceClass::Ssd, GIB);
        Ssd::new(spec, SsdConfig::default(), 42)
    }

    fn submit(dev: &mut Ssd, id: u64, kind: IoKind, offset: u64, len: u64) {
        dev.submit(IoRequest::new(IoId(id), kind, offset, len))
            .expect("valid request");
    }

    #[test]
    fn idle_power_is_floor() {
        let dev = test_ssd();
        assert_eq!(dev.power_w(), dev.config().idle_w);
    }

    #[test]
    fn single_read_completes_with_plausible_latency() {
        let mut dev = test_ssd();
        submit(&mut dev, 0, IoKind::Read, 0, 4 * KIB);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        let lat = done[0].latency();
        // cmd (2 us) + page read (70 us) + transfer (~1 us) + post (8 us).
        assert!(lat.as_micros() >= 70 && lat.as_micros() < 200, "{lat}");
        assert_eq!(dev.inflight(), 0);
    }

    #[test]
    fn single_write_acks_after_transfer_without_waiting_for_nand() {
        let mut dev = test_ssd();
        submit(&mut dev, 0, IoKind::Write, 0, 4 * KIB);
        // Run only until the completion is observed.
        let mut completed_at = None;
        while completed_at.is_none() {
            let t = dev.next_event().expect("events pending");
            for c in dev.advance_to(t) {
                completed_at = Some(c.completed);
            }
        }
        let lat = completed_at.unwrap().duration_since(SimTime::ZERO);
        // cmd (3 us) + transfer (~1.2 us) + commit (40 us) — less than a
        // program op (560 us).
        assert!(lat.as_micros() < 100, "{lat}");
    }

    #[test]
    fn write_leaves_nand_debt_then_drains() {
        let mut dev = test_ssd();
        submit(&mut dev, 0, IoKind::Write, 0, 8 * MIB);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        assert_eq!(dev.nand_debt(), 0, "flush fully drains");
        assert_eq!(dev.buffer_used(), 0);
        assert_eq!(dev.power_w(), dev.config().idle_w, "returns to idle");
    }

    #[test]
    fn reads_and_writes_report_correct_ids_and_kinds() {
        let mut dev = test_ssd();
        submit(&mut dev, 10, IoKind::Write, 0, 64 * KIB);
        submit(&mut dev, 11, IoKind::Read, 128 * MIB, 64 * KIB);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 2);
        let w = done.iter().find(|c| c.id == IoId(10)).unwrap();
        let r = done.iter().find(|c| c.id == IoId(11)).unwrap();
        assert_eq!(w.kind, IoKind::Write);
        assert_eq!(r.kind, IoKind::Read);
    }

    #[test]
    fn rejects_invalid_requests() {
        let mut dev = test_ssd();
        assert_eq!(
            dev.submit(IoRequest::new(IoId(0), IoKind::Read, 0, 0)),
            Err(DeviceError::ZeroLength)
        );
        assert!(matches!(
            dev.submit(IoRequest::new(IoId(0), IoKind::Read, GIB, 4 * KIB)),
            Err(DeviceError::OutOfRange { .. })
        ));
        submit(&mut dev, 1, IoKind::Read, 0, 4 * KIB);
        assert_eq!(
            dev.submit(IoRequest::new(IoId(1), IoKind::Read, 0, 4 * KIB)),
            Err(DeviceError::DuplicateRequest(1))
        );
    }

    #[test]
    fn power_rises_while_programming() {
        let mut dev = test_ssd();
        submit(&mut dev, 0, IoKind::Write, 0, 16 * MIB);
        let mut peak: f64 = 0.0;
        while let Some(t) = dev.next_event() {
            dev.advance_to(t);
            peak = peak.max(dev.power_w());
        }
        assert!(
            peak > dev.config().idle_w + 2.0,
            "peak {peak} should clearly exceed idle"
        );
    }

    #[test]
    fn sequential_writes_have_lower_waf_than_random_small() {
        let dev = test_ssd();
        // First write never counts as sequential.
        let w_small = dev.waf_for(12345 * 4096, 4 * KIB);
        let w_large = dev.waf_for(999 * MIB, 2 * MIB);
        assert!(w_small > w_large);
        assert!((w_large - dev.config().waf_min).abs() < 1e-9);
        assert!((w_small - dev.config().waf_max).abs() < 1e-9);
    }

    #[test]
    fn power_state_switching() {
        let mut dev = test_ssd();
        assert_eq!(dev.power_state(), PowerStateId(0));
        assert_eq!(
            dev.set_power_state(PowerStateId(9)),
            Err(DeviceError::UnknownPowerState(PowerStateId(9)))
        );
        assert_eq!(dev.power_states().len(), 1);
    }

    #[test]
    fn capped_device_limits_average_power() {
        let spec = DeviceSpec::new("T", "Test SSD", Protocol::Nvme, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.power_states = vec![
            PowerStateDesc::new(PowerStateId(0), 25.0),
            PowerStateDesc::new(PowerStateId(1), 8.0),
        ];
        cfg.noise_sd_w = 0.0;
        let mut dev = Ssd::new(spec, cfg, 7);
        dev.set_power_state(PowerStateId(1)).unwrap();
        // Saturate with writes.
        for i in 0..64 {
            submit(&mut dev, i, IoKind::Write, i * 4 * MIB, 4 * MIB);
        }
        // Measure average power over the busy period by sampling.
        let mut samples = Vec::new();
        let mut t = SimTime::ZERO;
        let step = SimDuration::from_micros(100);
        while dev.next_event().is_some() {
            t += step;
            dev.advance_to(t);
            samples.push(dev.power_w());
        }
        let busy: Vec<f64> = samples
            .iter()
            .copied()
            .filter(|&p| p > dev.config().idle_w + 0.01)
            .collect();
        assert!(!busy.is_empty());
        let avg = busy.iter().sum::<f64>() / busy.len() as f64;
        assert!(
            avg <= 8.0 * 1.15,
            "average busy power {avg} should respect the 8 W cap"
        );
    }

    #[test]
    fn uncapped_writes_finish_faster_than_capped() {
        let run = |cap: f64| -> SimTime {
            let spec = DeviceSpec::new("T", "Test SSD", Protocol::Nvme, DeviceClass::Ssd, GIB);
            let mut cfg = SsdConfig::default();
            cfg.power_states = vec![PowerStateDesc::new(PowerStateId(0), cap)];
            cfg.noise_sd_w = 0.0;
            let mut dev = Ssd::new(spec, cfg, 7);
            for i in 0..32 {
                submit(&mut dev, i, IoKind::Write, i * 8 * MIB, 8 * MIB);
            }
            drain(&mut dev);
            dev.now()
        };
        let fast = run(25.0);
        let slow = run(8.0);
        assert!(
            slow > fast,
            "capped run ({slow}) should take longer than uncapped ({fast})"
        );
    }

    #[test]
    fn reads_unaffected_by_cap_that_binds_writes() {
        let run_reads = |cap: f64| -> SimTime {
            let spec = DeviceSpec::new("T", "Test SSD", Protocol::Nvme, DeviceClass::Ssd, GIB);
            let mut cfg = SsdConfig::default();
            cfg.power_states = vec![PowerStateDesc::new(PowerStateId(0), cap)];
            cfg.noise_sd_w = 0.0;
            cfg.read_cache_pages = 0;
            let mut dev = Ssd::new(spec, cfg, 7);
            for i in 0..256 {
                submit(&mut dev, i, IoKind::Read, i * 2 * MIB, 256 * KIB);
            }
            drain(&mut dev);
            dev.now()
        };
        let uncapped = run_reads(25.0);
        let capped = run_reads(10.0);
        let ratio = capped.as_secs_f64() / uncapped.as_secs_f64();
        assert!(
            ratio < 1.1,
            "a 10 W cap should barely affect reads (ratio {ratio})"
        );
    }

    #[test]
    fn standby_unsupported_without_config() {
        let mut dev = test_ssd();
        assert_eq!(dev.request_standby(), Err(DeviceError::StandbyUnsupported));
        assert_eq!(dev.request_wake(), Err(DeviceError::StandbyUnsupported));
        assert_eq!(dev.standby_state(), StandbyState::Active);
    }

    #[test]
    fn standby_cycle_and_auto_wake() {
        use crate::power::StandbyConfig;
        let spec = DeviceSpec::new("E", "EVO", Protocol::Sata, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.idle_w = 0.35;
        cfg.noise_sd_w = 0.0;
        cfg.standby = Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_millis(300),
            exit: SimDuration::from_millis(400),
            transition_w: 0.6,
            wake_spike_w: 1.2,
        });
        let mut dev = Ssd::new(spec, cfg, 3);

        dev.request_standby().unwrap();
        // Transition consumes transition power.
        assert_eq!(dev.standby_state(), StandbyState::EnteringStandby);
        assert_eq!(dev.power_w(), 0.6);
        let t = dev.next_event().unwrap();
        dev.advance_to(t);
        assert_eq!(dev.standby_state(), StandbyState::Standby);
        assert_eq!(dev.power_w(), 0.17);

        // Submitting while in standby wakes the device automatically.
        submit(&mut dev, 0, IoKind::Read, 0, 4 * KIB);
        assert_eq!(dev.standby_state(), StandbyState::ExitingStandby);
        assert_eq!(dev.power_w(), 1.2);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        assert_eq!(dev.standby_state(), StandbyState::Active);
        // Wake latency dominates the request latency.
        assert!(done[0].latency().as_millis() >= 400);
    }

    #[test]
    fn explicit_wake_from_standby() {
        use crate::power::StandbyConfig;
        let spec = DeviceSpec::new("E", "EVO", Protocol::Sata, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.standby = Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_millis(100),
            exit: SimDuration::from_millis(100),
            transition_w: 0.6,
            wake_spike_w: 1.2,
        });
        cfg.noise_sd_w = 0.0;
        let mut dev = Ssd::new(spec, cfg, 3);
        dev.request_standby().unwrap();
        drain(&mut dev);
        assert_eq!(dev.standby_state(), StandbyState::Standby);
        dev.request_wake().unwrap();
        drain(&mut dev);
        assert_eq!(dev.standby_state(), StandbyState::Active);
    }

    #[test]
    fn standby_waits_for_outstanding_io() {
        use crate::power::StandbyConfig;
        let spec = DeviceSpec::new("E", "EVO", Protocol::Sata, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.standby = Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_millis(100),
            exit: SimDuration::from_millis(100),
            transition_w: 0.6,
            wake_spike_w: 1.2,
        });
        cfg.noise_sd_w = 0.0;
        let mut dev = Ssd::new(spec, cfg, 3);
        submit(&mut dev, 0, IoKind::Write, 0, 32 * MIB);
        dev.request_standby().unwrap();
        // Still active: the write (and its flush) must drain first.
        assert_eq!(dev.standby_state(), StandbyState::Active);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        assert_eq!(dev.standby_state(), StandbyState::Standby);
    }

    #[test]
    fn partial_depth_uses_its_own_parameters() {
        use crate::power::StandbyConfig;
        let spec = DeviceSpec::new("E", "EVO", Protocol::Sata, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.idle_w = 0.35;
        cfg.noise_sd_w = 0.0;
        cfg.standby = Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_millis(300),
            exit: SimDuration::from_millis(400),
            transition_w: 0.6,
            wake_spike_w: 1.2,
        });
        cfg.partial = Some(StandbyConfig {
            standby_w: 0.25,
            enter: SimDuration::from_micros(100),
            exit: SimDuration::from_micros(200),
            transition_w: 0.3,
            wake_spike_w: 0.5,
        });
        let mut dev = Ssd::new(spec, cfg, 3);

        dev.request_standby_depth(StandbyDepth::Partial).unwrap();
        assert_eq!(dev.standby_state(), StandbyState::EnteringStandby);
        assert_eq!(dev.standby_depth(), StandbyDepth::Partial);
        assert_eq!(dev.power_w(), 0.3);
        let t = dev.next_event().unwrap();
        dev.advance_to(t);
        assert_eq!(dev.standby_state(), StandbyState::Standby);
        assert_eq!(dev.power_w(), 0.25);

        // A deeper request while parked at PARTIAL needs an explicit wake.
        assert_eq!(
            dev.request_standby_depth(StandbyDepth::Slumber),
            Err(DeviceError::StandbyTransitionInProgress)
        );

        // Auto-wake on submit pays the (short) PARTIAL exit latency.
        submit(&mut dev, 0, IoKind::Read, 0, 4 * KIB);
        assert_eq!(dev.power_w(), 0.5);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        let lat = done[0].latency();
        assert!(lat.as_micros() >= 200 && lat.as_millis() < 5, "{lat}");
    }

    #[test]
    fn partial_unsupported_without_partial_config() {
        use crate::power::StandbyConfig;
        let spec = DeviceSpec::new("E", "EVO", Protocol::Sata, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.standby = Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_millis(100),
            exit: SimDuration::from_millis(100),
            transition_w: 0.6,
            wake_spike_w: 1.2,
        });
        cfg.noise_sd_w = 0.0;
        let mut dev = Ssd::new(spec, cfg, 3);
        assert_eq!(
            dev.request_standby_depth(StandbyDepth::Partial),
            Err(DeviceError::StandbyUnsupported)
        );
        dev.request_standby_depth(StandbyDepth::Slumber).unwrap();
    }

    #[test]
    fn sequential_small_reads_hit_the_page_cache() {
        let mut dev = test_ssd();
        // 16 sequential 4 KiB reads cover 4 pages; 12 of 16 should be hits.
        for i in 0..16u64 {
            submit(&mut dev, i, IoKind::Read, i * 4 * KIB, 4 * KIB);
        }
        let done = drain(&mut dev);
        assert_eq!(done.len(), 16);
        let hits = done.iter().filter(|c| c.latency().as_micros() < 65).count();
        assert!(hits >= 8, "expected most cache hits, got {hits}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut dev = test_ssd();
            for i in 0..64u64 {
                submit(
                    &mut dev,
                    i,
                    IoKind::Write,
                    (i * 977_777) % (GIB / 2),
                    64 * KIB,
                );
            }
            let done = drain(&mut dev);
            (
                dev.now(),
                done.iter().map(|c| c.completed.as_nanos()).sum::<u64>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn advance_to_is_monotonic() {
        let mut dev = test_ssd();
        dev.advance_to(SimTime::from_millis(5));
        assert_eq!(dev.now(), SimTime::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "advance_to")]
    fn advance_backwards_panics() {
        let mut dev = test_ssd();
        dev.advance_to(SimTime::from_millis(5));
        dev.advance_to(SimTime::from_millis(4));
    }
}
