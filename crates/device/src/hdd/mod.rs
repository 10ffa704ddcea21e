//! Event-driven hard-disk-drive simulator.
//!
//! A single actuator serves one media operation at a time. Each operation
//! pays a distance-dependent seek, a rotational delay (reduced when the
//! queue is deep, modeling NCQ rotational-position ordering), and a media
//! transfer. Writes acknowledge from a small cache that is drained with
//! shortest-seek-first scheduling (writes too large for the cache stream
//! straight to media); standby flushes the cache and spins the
//! platters down, and waking pays a multi-second spin-up — the paper's
//! §3.2.2 trade-off.

mod config;

pub use config::HddConfig;

use std::collections::{BTreeSet, VecDeque};

use powadapt_obs::{emit, span, EventKind, RecorderHandle};
use powadapt_sim::snapshot::{read_time, write_time};
use powadapt_sim::{EventQueue, SimDuration, SimRng, SimTime};
use powadapt_snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::device::StorageDevice;
use crate::error::DeviceError;
use crate::io::{IoCompletion, IoId, IoKind, IoRequest};
use crate::power::{PowerStateDesc, PowerStateId, StandbyPhase, StandbyState};
use crate::snapcodec;
use crate::spec::DeviceSpec;

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: IoId,
    kind: IoKind,
    offset: u64,
    len: u64,
    submitted: SimTime,
}

#[derive(Debug, Clone, Copy)]
enum MediaKind {
    /// A read that completes to the host when the media op finishes.
    ReadReq(Pending),
    /// Background drain of one write-cache entry.
    CacheDrain,
    /// A write larger than the cache can ever hold, streamed straight to
    /// media; completes to the host when the transfer finishes.
    WriteThrough(Pending),
}

#[derive(Debug, Clone, Copy)]
struct MediaOp {
    kind: MediaKind,
    offset: u64,
    len: u64,
    enqueued: SimTime,
}

#[derive(Debug)]
enum Ev {
    CmdDone(Pending),
    MediaPositioned(MediaOp),
    MediaDone(MediaOp),
    SpinDone,
    NoiseTick,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum MediaPhase {
    Idle,
    Positioning,
    Transferring,
}

/// A simulated spinning hard disk. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use powadapt_device::{catalog, StorageDevice};
///
/// let hdd = catalog::hdd_exos_7e2000(1);
/// // Idle power: spindle + electronics (3.75 W in the paper).
/// assert!((hdd.power_w() - 3.75).abs() < 0.01);
/// ```
#[derive(Debug)]
pub struct Hdd {
    // powadapt-lint: allow(d6, reason = "static device spec; the restorer constructs the device from it")
    spec: DeviceSpec,
    // powadapt-lint: allow(d6, reason = "static device configuration; the restorer constructs from it")
    cfg: HddConfig,
    now: SimTime,
    events: EventQueue<Ev>,
    rng: SimRng,

    power_now: f64,
    phase: StandbyPhase,
    standby_requested: bool,
    noise_w: f64,
    noise_scheduled: bool,

    ctrl_busy: bool,
    cmd_queue: VecDeque<Pending>,

    media_phase: MediaPhase,
    pending_media: VecDeque<MediaOp>,
    head_pos: u64,

    cache_used: u64,
    cache_waiters: VecDeque<Pending>,

    inflight_ids: BTreeSet<u64>,
    done: Vec<IoCompletion>,

    // Telemetry sink (captured from the global slot at construction;
    // write-only, never feeds back into device behavior).
    // powadapt-lint: allow(d6, reason = "telemetry sink; re-captured from the global slot at construction")
    rec: RecorderHandle,
    // powadapt-lint: allow(d6, reason = "telemetry label; re-derived at construction")
    track: &'static str,
    // Prebuilt media span labels: span emission clones a refcount
    // instead of converting a string per event.
    // powadapt-lint: allow(d6, reason = "telemetry labels; constant")
    lbl_seek: &'static str,
    // powadapt-lint: allow(d6, reason = "telemetry labels; constant")
    lbl_xfer: &'static str,
}

impl Hdd {
    /// Creates an HDD from a spec and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`HddConfig::validate`]);
    /// [`Hdd::try_new`] is the fallible equivalent.
    pub fn new(spec: DeviceSpec, cfg: HddConfig, seed: u64) -> Self {
        match Hdd::try_new(spec, cfg, seed) {
            Ok(hdd) => hdd,
            // powadapt-lint: allow(D5, reason = "documented panic-on-invalid-config constructor; the error path is try_new")
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: returns [`DeviceError::InvalidConfig`] instead
    /// of panicking when the configuration fails [`HddConfig::validate`].
    pub fn try_new(spec: DeviceSpec, cfg: HddConfig, seed: u64) -> Result<Self, DeviceError> {
        if let Err(e) = cfg.validate() {
            return Err(DeviceError::InvalidConfig(e));
        }
        let idle = cfg.idle_w();
        let track = powadapt_obs::intern(spec.label());
        Ok(Hdd {
            spec,
            cfg,
            now: SimTime::ZERO,
            events: EventQueue::new(),
            rng: SimRng::seed_from(seed),
            power_now: idle,
            phase: StandbyPhase::Active,
            standby_requested: false,
            noise_w: 0.0,
            noise_scheduled: false,
            ctrl_busy: false,
            cmd_queue: VecDeque::new(),
            media_phase: MediaPhase::Idle,
            pending_media: VecDeque::new(),
            head_pos: 0,
            cache_used: 0,
            cache_waiters: VecDeque::new(),
            inflight_ids: BTreeSet::new(),
            done: Vec::new(),
            rec: powadapt_obs::current(),
            track,
            lbl_seek: "media.seek",
            lbl_xfer: "media.xfer",
        })
    }

    /// The configuration the device was built with.
    pub fn config(&self) -> &HddConfig {
        &self.cfg
    }

    /// Bytes currently held in the write cache (diagnostic).
    pub fn cache_used(&self) -> u64 {
        self.cache_used
    }

    fn compute_power(&self) -> f64 {
        match self.phase {
            StandbyPhase::Entering { .. } => self.cfg.spin_down_w,
            StandbyPhase::Standby => self.cfg.standby_w,
            StandbyPhase::Exiting { .. } => self.cfg.spin_up_w,
            StandbyPhase::Active => {
                let mut p = self.cfg.idle_w();
                match self.media_phase {
                    MediaPhase::Positioning => p += self.cfg.seek_w,
                    MediaPhase::Transferring => p += self.cfg.xfer_w,
                    MediaPhase::Idle => {}
                }
                if self.media_phase != MediaPhase::Idle || self.ctrl_busy {
                    p += self.noise_w;
                }
                p.max(0.0)
            }
        }
    }

    fn update_power(&mut self) {
        self.power_now = self.compute_power();
    }

    fn schedule_noise(&mut self) {
        if self.cfg.noise_sd_w > 0.0 && !self.noise_scheduled {
            self.noise_scheduled = true;
            let dwell = SimDuration::from_micros(self.rng.u64_range(4_000, 12_000));
            self.events.schedule(self.now + dwell, Ev::NoiseTick);
        }
    }

    fn cache_fits(&self, len: u64) -> bool {
        self.cache_used + len <= self.cfg.write_cache_bytes
    }

    fn complete(&mut self, p: Pending) {
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

    fn admit_write(&mut self, p: Pending) {
        self.cache_used += p.len;
        self.pending_media.push_back(MediaOp {
            kind: MediaKind::CacheDrain,
            offset: p.offset,
            len: p.len,
            enqueued: self.now,
        });
        // Write-back cache: acknowledge as soon as the data is in DRAM.
        self.complete(p);
    }

    fn seek_time(&self, from: u64, to: u64) -> SimDuration {
        let d = from.abs_diff(to);
        if d == 0 {
            return SimDuration::ZERO;
        }
        let frac = (d as f64 / self.spec.capacity() as f64).clamp(0.0, 1.0);
        let span = self.cfg.max_seek.saturating_sub(self.cfg.min_seek);
        self.cfg.min_seek + span.mul_f64(frac.sqrt())
    }

    /// Picks the next media op: the oldest if it is starving, otherwise the
    /// one with the shortest seek from the current head position, scanning
    /// at most `ncq_window` queued operations.
    fn pick_media_op(&mut self) -> Option<MediaOp> {
        if self.pending_media.is_empty() {
            return None;
        }
        let window = self.cfg.ncq_window.min(self.pending_media.len());
        // Starvation guard: serve the oldest queued op if it has waited too
        // long.
        let oldest = self.pending_media[0];
        if self.now.saturating_duration_since(oldest.enqueued) >= self.cfg.max_op_age {
            return self.pending_media.pop_front();
        }
        let mut best = 0usize;
        let mut best_d = u64::MAX;
        for (i, op) in self.pending_media.iter().take(window).enumerate() {
            let d = op.offset.abs_diff(self.head_pos);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        self.pending_media.remove(best)
    }

    fn start_media_op(&mut self, op: MediaOp) {
        let seek = self.seek_time(self.head_pos, op.offset);
        let rot = if seek.is_zero() {
            SimDuration::ZERO
        } else {
            // NCQ rotational-position ordering: deeper queues land closer.
            let raw = self
                .rng
                .uniform_range(0.0, self.cfg.revolution().as_secs_f64());
            let depth = (self.pending_media.len() + 1) as f64;
            SimDuration::from_secs_f64(raw / (1.0 + 0.5 * depth.ln()))
        };
        let position = seek + rot;
        if position.is_zero() {
            self.begin_transfer(op);
        } else {
            self.media_phase = MediaPhase::Positioning;
            span!(self.rec, self.now, self.track, self.lbl_seek, position);
            self.events
                .schedule(self.now + position, Ev::MediaPositioned(op));
        }
    }

    fn begin_transfer(&mut self, op: MediaOp) {
        self.media_phase = MediaPhase::Transferring;
        let bw = self.cfg.media_bw_at(op.offset, self.spec.capacity());
        let dur = SimDuration::from_secs_f64(op.len as f64 / bw).max(SimDuration::from_nanos(1));
        span!(self.rec, self.now, self.track, self.lbl_xfer, dur);
        self.events.schedule(self.now + dur, Ev::MediaDone(op));
    }

    fn is_fully_idle(&self) -> bool {
        !self.ctrl_busy
            && self.cmd_queue.is_empty()
            && self.media_phase == MediaPhase::Idle
            && self.pending_media.is_empty()
            && self.cache_waiters.is_empty()
            && self.cache_used == 0
    }

    fn begin_spin_down(&mut self) {
        let until = self.now + self.cfg.spin_down;
        self.phase = StandbyPhase::Entering { until };
        emit!(self.rec, self.now, self.track, EventKind::SpinDown);
        self.events.schedule(until, Ev::SpinDone);
    }

    fn begin_spin_up(&mut self) {
        let until = self.now + self.cfg.spin_up;
        self.phase = StandbyPhase::Exiting { until };
        self.standby_requested = false;
        emit!(self.rec, self.now, self.track, EventKind::SpinUp);
        self.events.schedule(until, Ev::SpinDone);
    }

    fn pump(&mut self) {
        match self.phase {
            StandbyPhase::Active => {}
            StandbyPhase::Standby => {
                if !self.cmd_queue.is_empty() {
                    self.begin_spin_up();
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

            if self.standby_requested && self.is_fully_idle() {
                self.begin_spin_down();
                self.update_power();
                return;
            }

            // Controller.
            if !self.ctrl_busy {
                if let Some(p) = self.cmd_queue.pop_front() {
                    self.ctrl_busy = true;
                    self.events
                        .schedule(self.now + self.cfg.cmd_overhead, Ev::CmdDone(p));
                    progress = true;
                }
            }

            // Media.
            if self.media_phase == MediaPhase::Idle {
                if let Some(op) = self.pick_media_op() {
                    self.start_media_op(op);
                    progress = true;
                }
            }
        }
        self.update_power();
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::CmdDone(p) => {
                self.ctrl_busy = false;
                match p.kind {
                    IoKind::Write => {
                        if p.len > self.cfg.write_cache_bytes {
                            // Could never fit the cache: stream it
                            // straight to media instead of waiting for a
                            // drain that cannot make room.
                            self.pending_media.push_back(MediaOp {
                                kind: MediaKind::WriteThrough(p),
                                offset: p.offset,
                                len: p.len,
                                enqueued: self.now,
                            });
                        } else if self.cache_fits(p.len) {
                            self.admit_write(p);
                        } else {
                            self.cache_waiters.push_back(p);
                        }
                    }
                    IoKind::Read => {
                        self.pending_media.push_back(MediaOp {
                            kind: MediaKind::ReadReq(p),
                            offset: p.offset,
                            len: p.len,
                            enqueued: self.now,
                        });
                    }
                }
                self.pump();
            }
            Ev::MediaPositioned(op) => {
                self.begin_transfer(op);
                self.update_power();
            }
            Ev::MediaDone(op) => {
                self.media_phase = MediaPhase::Idle;
                self.head_pos = op.offset + op.len;
                match op.kind {
                    MediaKind::ReadReq(p) | MediaKind::WriteThrough(p) => self.complete(p),
                    MediaKind::CacheDrain => {
                        self.cache_used -= op.len;
                        while let Some(front) = self.cache_waiters.front() {
                            if !self.cache_fits(front.len) {
                                break;
                            }
                            if let Some(p) = self.cache_waiters.pop_front() {
                                self.admit_write(p);
                            }
                        }
                    }
                }
                self.pump();
            }
            Ev::SpinDone => {
                match self.phase {
                    StandbyPhase::Entering { until } if self.now >= until => {
                        self.phase = StandbyPhase::Standby;
                        // A wake requested mid-spin-down takes effect now.
                        if !self.standby_requested {
                            self.begin_spin_up();
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
                let busy = self.media_phase != MediaPhase::Idle
                    || self.ctrl_busy
                    || !self.cmd_queue.is_empty();
                if busy {
                    let sd = self.cfg.noise_sd_w;
                    self.noise_w = self.rng.normal(0.0, sd).clamp(-0.5 * sd, 2.0 * sd);
                    self.schedule_noise();
                } else {
                    self.noise_w = 0.0;
                }
                self.update_power();
            }
        }
    }
}

/// HDDs implement a single, unconstrained power state (no NVMe-style caps).
const HDD_POWER_STATES: [PowerStateDesc; 1] = [PowerStateDesc {
    id: PowerStateId(0),
    cap_w: f64::INFINITY,
}];

impl StorageDevice for Hdd {
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
        if ps == PowerStateId(0) {
            Ok(())
        } else {
            Err(DeviceError::UnknownPowerState(ps))
        }
    }

    fn power_state(&self) -> PowerStateId {
        PowerStateId(0)
    }

    fn power_states(&self) -> &[PowerStateDesc] {
        &HDD_POWER_STATES
    }

    fn request_standby(&mut self) -> Result<(), DeviceError> {
        match self.phase {
            StandbyPhase::Entering { .. } | StandbyPhase::Exiting { .. } => {
                Err(DeviceError::StandbyTransitionInProgress)
            }
            StandbyPhase::Standby => Ok(()),
            StandbyPhase::Active => {
                self.standby_requested = true;
                self.pump();
                Ok(())
            }
        }
    }

    fn request_wake(&mut self) -> Result<(), DeviceError> {
        self.standby_requested = false;
        if self.phase == StandbyPhase::Standby {
            self.begin_spin_up();
            self.update_power();
        }
        Ok(())
    }

    fn standby_state(&self) -> StandbyState {
        self.phase.state()
    }

    fn standby_power_w(&self) -> Option<f64> {
        Some(self.cfg.standby_w)
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
        self.events.write_state(w, write_ev)?;
        Snapshot::write_state(&self.rng, w)?;
        w.f64(self.power_now);
        snapcodec::write_standby_phase(w, self.phase);
        w.bool(self.standby_requested);
        w.f64(self.noise_w);
        w.bool(self.noise_scheduled);
        w.bool(self.ctrl_busy);
        write_pendings(w, self.cmd_queue.iter());
        w.u8(match self.media_phase {
            MediaPhase::Idle => 0,
            MediaPhase::Positioning => 1,
            MediaPhase::Transferring => 2,
        });
        w.seq_len(self.pending_media.len());
        for op in &self.pending_media {
            write_media_op(w, op);
        }
        w.u64(self.head_pos);
        w.u64(self.cache_used);
        write_pendings(w, self.cache_waiters.iter());
        w.seq_len(self.inflight_ids.len());
        for &id in &self.inflight_ids {
            w.u64(id);
        }
        snapcodec::write_completions(w, &self.done);
        Ok(())
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.now = read_time(r)?;
        self.events.read_state(r, read_ev)?;
        Restore::read_state(&mut self.rng, r)?;
        self.power_now = r.f64()?;
        self.phase = snapcodec::read_standby_phase(r)?;
        self.standby_requested = r.bool()?;
        self.noise_w = r.f64()?;
        self.noise_scheduled = r.bool()?;
        self.ctrl_busy = r.bool()?;
        self.cmd_queue = read_pendings(r)?;
        self.media_phase = match r.u8()? {
            0 => MediaPhase::Idle,
            1 => MediaPhase::Positioning,
            2 => MediaPhase::Transferring,
            b => {
                return Err(SnapError::InvalidValue(format!("media phase byte {b}")));
            }
        };
        let n = r.seq_len()?;
        self.pending_media.clear();
        for _ in 0..n {
            self.pending_media.push_back(read_media_op(r)?);
        }
        self.head_pos = r.u64()?;
        self.cache_used = r.u64()?;
        self.cache_waiters = read_pendings(r)?;
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
        Ok(())
    }
}

fn write_pending(w: &mut SnapWriter, p: &Pending) {
    w.u64(p.id.0);
    snapcodec::write_io_kind(w, p.kind);
    w.u64(p.offset);
    w.u64(p.len);
    write_time(w, p.submitted);
}

fn read_pending(r: &mut SnapReader<'_>) -> Result<Pending, SnapError> {
    Ok(Pending {
        id: IoId(r.u64()?),
        kind: snapcodec::read_io_kind(r)?,
        offset: r.u64()?,
        len: r.u64()?,
        submitted: read_time(r)?,
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

fn write_media_op(w: &mut SnapWriter, op: &MediaOp) {
    match &op.kind {
        MediaKind::ReadReq(p) => {
            w.u8(0);
            write_pending(w, p);
        }
        MediaKind::CacheDrain => w.u8(1),
        MediaKind::WriteThrough(p) => {
            w.u8(2);
            write_pending(w, p);
        }
    }
    w.u64(op.offset);
    w.u64(op.len);
    write_time(w, op.enqueued);
}

fn read_media_op(r: &mut SnapReader<'_>) -> Result<MediaOp, SnapError> {
    let kind = match r.u8()? {
        0 => MediaKind::ReadReq(read_pending(r)?),
        1 => MediaKind::CacheDrain,
        2 => MediaKind::WriteThrough(read_pending(r)?),
        b => {
            return Err(SnapError::InvalidValue(format!("media kind byte {b}")));
        }
    };
    Ok(MediaOp {
        kind,
        offset: r.u64()?,
        len: r.u64()?,
        enqueued: read_time(r)?,
    })
}

fn write_ev(w: &mut SnapWriter, ev: &Ev) -> Result<(), SnapError> {
    match ev {
        Ev::CmdDone(p) => {
            w.u8(0);
            write_pending(w, p);
        }
        Ev::MediaPositioned(op) => {
            w.u8(1);
            write_media_op(w, op);
        }
        Ev::MediaDone(op) => {
            w.u8(2);
            write_media_op(w, op);
        }
        Ev::SpinDone => w.u8(3),
        Ev::NoiseTick => w.u8(4),
    }
    Ok(())
}

fn read_ev(r: &mut SnapReader<'_>) -> Result<Ev, SnapError> {
    Ok(match r.u8()? {
        0 => Ev::CmdDone(read_pending(r)?),
        1 => Ev::MediaPositioned(read_media_op(r)?),
        2 => Ev::MediaDone(read_media_op(r)?),
        3 => Ev::SpinDone,
        4 => Ev::NoiseTick,
        b => return Err(SnapError::InvalidValue(format!("hdd event byte {b}"))),
    })
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::device::drain;
    use crate::io::{GIB, KIB, MIB};
    use crate::spec::{DeviceClass, Protocol};

    fn test_hdd() -> Hdd {
        let spec = DeviceSpec::new("H", "Test HDD", Protocol::Sata, DeviceClass::Hdd, 100 * GIB);
        let mut cfg = HddConfig::default();
        cfg.noise_sd_w = 0.0;
        Hdd::new(spec, cfg, 11)
    }

    fn submit(dev: &mut Hdd, id: u64, kind: IoKind, offset: u64, len: u64) {
        dev.submit(IoRequest::new(IoId(id), kind, offset, len))
            .expect("valid request");
    }

    #[test]
    fn idle_power_is_spindle_plus_electronics() {
        let dev = test_hdd();
        assert!((dev.power_w() - 3.75).abs() < 1e-9);
    }

    #[test]
    fn random_read_pays_seek_and_rotation() {
        let mut dev = test_hdd();
        submit(&mut dev, 0, IoKind::Read, 50 * GIB, 4 * KIB);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        let ms = done[0].latency().as_millis();
        assert!((2..40).contains(&ms), "random read took {ms} ms");
    }

    #[test]
    fn sequential_reads_stream_without_seeking() {
        let mut dev = test_hdd();
        // Prime the head position.
        submit(&mut dev, 0, IoKind::Read, 0, MIB);
        drain(&mut dev);
        // Now sequential reads from the head position.
        let mut off = MIB;
        for i in 1..=20u64 {
            submit(&mut dev, i, IoKind::Read, off, MIB);
            off += MIB;
        }
        let start = dev.now();
        let done = drain(&mut dev);
        assert_eq!(done.len(), 20);
        let elapsed = dev.now().duration_since(start).as_secs_f64();
        let bw = 20.0 * MIB as f64 / elapsed;
        assert!(
            (bw - dev.config().media_bw).abs() / dev.config().media_bw < 0.05,
            "sequential read bandwidth {bw} should approach the media rate"
        );
    }

    #[test]
    fn writes_ack_from_cache_quickly() {
        let mut dev = test_hdd();
        submit(&mut dev, 0, IoKind::Write, 50 * GIB, 4 * KIB);
        // The ack arrives long before the media drain finishes.
        let mut acked_at = None;
        while acked_at.is_none() {
            let t = dev.next_event().expect("pending events");
            for c in dev.advance_to(t) {
                acked_at = Some(c.completed);
            }
        }
        assert!(acked_at.unwrap().as_micros() < 500);
        // Cache still holds the data until drained.
        assert!(dev.cache_used() > 0);
        drain(&mut dev);
        assert_eq!(dev.cache_used(), 0);
    }

    #[test]
    fn oversized_write_streams_through_without_deadlock() {
        let mut dev = test_hdd();
        // 64 MiB against a 4 MiB cache: must bypass the cache entirely
        // and complete when the media transfer lands, not ack-from-cache.
        submit(&mut dev, 0, IoKind::Write, 10 * GIB, 64 * MIB);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].len, 64 * MIB);
        assert_eq!(dev.cache_used(), 0);
        // The latency covers at least the full media transfer.
        let media = SimDuration::from_secs_f64(64.0 * MIB as f64 / dev.cfg.media_bw);
        assert!(done[0].completed.duration_since(done[0].submitted) >= media);
    }

    #[test]
    fn cache_backpressure_throttles_writes() {
        let mut dev = test_hdd();
        let n = 16u64;
        for i in 0..n {
            // Large scattered writes exceeding the 4 MiB cache.
            submit(&mut dev, i, IoKind::Write, (i * 7919) % 90 * GIB, 2 * MIB);
        }
        let done = drain(&mut dev);
        assert_eq!(done.len(), n as usize);
        let max_lat = done.iter().map(|c| c.latency().as_millis()).max().unwrap();
        assert!(max_lat > 1, "later writes should wait for cache space");
    }

    #[test]
    fn deeper_queues_improve_random_throughput() {
        let run = |depth: u64| {
            let mut dev = test_hdd();
            let total = 64u64;
            let mut next = 0u64;
            let mut completed = 0u64;
            // Keep `depth` reads in flight.
            let offset_for = |i: u64| (i * 48_271 % 1000) * (90 * GIB / 1000);
            while next < depth.min(total) {
                submit(&mut dev, next, IoKind::Read, offset_for(next), 4 * KIB);
                next += 1;
            }
            while completed < total {
                let t = dev.next_event().expect("events pending");
                for _c in dev.advance_to(t) {
                    completed += 1;
                    if next < total {
                        submit(&mut dev, next, IoKind::Read, offset_for(next), 4 * KIB);
                        next += 1;
                    }
                }
            }
            dev.now().as_secs_f64()
        };
        let qd1 = run(1);
        let qd32 = run(32);
        assert!(
            qd32 < qd1 * 0.75,
            "NCQ should speed up random reads: qd1={qd1}s qd32={qd32}s"
        );
    }

    #[test]
    fn seek_power_shows_up_during_random_io() {
        let mut dev = test_hdd();
        for i in 0..32u64 {
            submit(&mut dev, i, IoKind::Read, (i * 104_729) % 90 * GIB, 4 * KIB);
        }
        let mut peak: f64 = 0.0;
        while let Some(t) = dev.next_event() {
            dev.advance_to(t);
            peak = peak.max(dev.power_w());
        }
        assert!((peak - (3.75 + 1.3)).abs() < 0.2, "peak {peak}");
    }

    #[test]
    fn spin_down_flushes_cache_first() {
        let mut dev = test_hdd();
        submit(&mut dev, 0, IoKind::Write, GIB, 2 * MIB);
        dev.request_standby().unwrap();
        assert_eq!(dev.standby_state(), StandbyState::Active, "flush first");
        drain(&mut dev);
        assert_eq!(dev.standby_state(), StandbyState::Standby);
        assert_eq!(dev.cache_used(), 0);
        assert!((dev.power_w() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn wake_from_standby_takes_seconds_and_draws_spinup_power() {
        let mut dev = test_hdd();
        dev.request_standby().unwrap();
        drain(&mut dev);
        assert_eq!(dev.standby_state(), StandbyState::Standby);
        let slept_until = dev.now();

        submit(&mut dev, 0, IoKind::Read, GIB, 4 * KIB);
        assert_eq!(dev.standby_state(), StandbyState::ExitingStandby);
        assert!((dev.power_w() - 5.2).abs() < 1e-9);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        let lat = done[0].completed.duration_since(slept_until);
        assert!(
            lat.as_secs_f64() >= 6.0,
            "IO to a spun-down disk waits for spin-up ({lat})"
        );
    }

    #[test]
    fn standby_transition_errors() {
        let mut dev = test_hdd();
        dev.request_standby().unwrap();
        // Entering now (idle): a second request while transitioning fails.
        assert_eq!(
            dev.request_standby(),
            Err(DeviceError::StandbyTransitionInProgress)
        );
        drain(&mut dev);
        // Standby: requesting standby again is a no-op Ok.
        assert_eq!(dev.request_standby(), Ok(()));
        dev.request_wake().unwrap();
        drain(&mut dev);
        assert_eq!(dev.standby_state(), StandbyState::Active);
    }

    #[test]
    fn rejects_invalid_requests() {
        let mut dev = test_hdd();
        assert_eq!(
            dev.submit(IoRequest::new(IoId(0), IoKind::Read, 0, 0)),
            Err(DeviceError::ZeroLength)
        );
        assert!(matches!(
            dev.submit(IoRequest::new(IoId(0), IoKind::Read, 100 * GIB, KIB)),
            Err(DeviceError::OutOfRange { .. })
        ));
    }

    #[test]
    fn power_state_interface_is_trivial() {
        let mut dev = test_hdd();
        assert_eq!(dev.power_state(), PowerStateId(0));
        assert!(dev.set_power_state(PowerStateId(0)).is_ok());
        assert!(dev.set_power_state(PowerStateId(1)).is_err());
        assert_eq!(dev.power_states().len(), 1);
        assert!(dev.power_states()[0].cap_w.is_infinite());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut dev = test_hdd();
            for i in 0..32u64 {
                submit(&mut dev, i, IoKind::Read, (i * 331) % 90 * GIB, 64 * KIB);
            }
            let done = drain(&mut dev);
            done.iter().map(|c| c.completed.as_nanos()).sum::<u64>()
        };
        assert_eq!(run(), run());
    }
}
