//! The [`Recorder`] sink trait, the cloneable [`RecorderHandle`] used at
//! emit sites, the process-global recorder slot, and the ring-buffered
//! [`EventLog`].
//!
//! Emit sites hold a `RecorderHandle` — a nullable `Arc` — and go through
//! the [`emit!`](crate::emit) macro, which checks [`RecorderHandle::
//! is_enabled`] *before* evaluating the event payload. With no recorder
//! installed the whole emit path is a branch on an `Option`, so tracing
//! support costs nothing when it is off.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use crate::event::{Event, EventKind};

/// A sink for telemetry events.
///
/// Recorders take `&self`: they are shared across threads (the parallel
/// sweep executor runs figure cells concurrently), so implementations
/// synchronize internally. Determinism contract: a recorder must not feed
/// anything back into the simulation — recording is strictly write-only
/// from the sim's point of view.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Record one event. Must not panic.
    fn record(&self, event: Event);
}

/// A cheap, cloneable, possibly-absent reference to a recorder.
///
/// The default handle is disabled; [`RecorderHandle::is_enabled`] is a
/// single `Option` check, which is what makes `emit!` free when tracing
/// is off.
#[derive(Debug, Clone, Default)]
pub struct RecorderHandle(Option<Arc<dyn Recorder>>);

impl RecorderHandle {
    /// A handle that records nothing.
    pub const fn disabled() -> Self {
        RecorderHandle(None)
    }

    /// A handle recording into `rec`.
    pub fn new(rec: Arc<dyn Recorder>) -> Self {
        RecorderHandle(Some(rec))
    }

    /// True when a recorder is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Forward an event to the recorder, if any.
    #[inline]
    pub fn record(&self, event: Event) {
        if let Some(r) = &self.0 {
            r.record(event);
        }
    }
}

/// The process-global recorder slot.
///
/// Devices and runners capture [`current()`] at construction, so installing
/// a recorder *before* building a figure traces the whole run without any
/// signature changes; explicit `set_recorder` calls override per component.
static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

fn read_global() -> Option<Arc<dyn Recorder>> {
    match GLOBAL.read() {
        Ok(g) => g.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    }
}

/// Puts `rec` in the global slot and returns the previous occupant.
fn swap_global(rec: Option<Arc<dyn Recorder>>) -> Option<Arc<dyn Recorder>> {
    let mut g = match GLOBAL.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    std::mem::replace(&mut *g, rec)
}

/// Install `rec` as the process-global recorder, returning the previous
/// one, if any.
pub fn install(rec: Arc<dyn Recorder>) -> Option<Arc<dyn Recorder>> {
    swap_global(Some(rec))
}

/// Remove and return the process-global recorder.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    swap_global(None)
}

/// Runs `f` with `rec` as the process-global recorder (none at all when
/// `rec` is `None`), then reinstates whichever recorder was installed
/// before — also when `f` panics.
pub fn with_recorder<T>(rec: Option<Arc<dyn Recorder>>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<dyn Recorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            swap_global(self.0.take());
        }
    }
    let _restore = Restore(swap_global(rec));
    f()
}

/// A handle to the currently installed global recorder (disabled when none
/// is installed). The handle snapshots the slot: later `install` calls do
/// not retarget handles already captured.
pub fn current() -> RecorderHandle {
    RecorderHandle(read_global())
}

#[derive(Debug)]
struct LogInner {
    events: VecDeque<Event>,
    /// Per-kind counters, dense by [`EventKind::index`]: the record hot
    /// path does one array add, never a keyed map lookup.
    counts: [u64; EventKind::COUNT],
    total: u64,
    dropped: u64,
}

impl LogInner {
    fn with_capacity(capacity: usize) -> Self {
        LogInner {
            // Reserved up front so a filling ring never pays reallocation
            // copies on the record path.
            events: VecDeque::with_capacity(capacity),
            counts: [0; EventKind::COUNT],
            total: 0,
            dropped: 0,
        }
    }
}

/// A bounded, thread-safe event ring buffer.
///
/// Holds the most recent `capacity` events; older events are dropped (and
/// counted) rather than growing without bound, so an `EventLog` can stay
/// attached to a long fleet run. Per-kind counts cover *all* events ever
/// recorded, including dropped ones — counting never saturates.
pub struct EventLog {
    inner: Mutex<LogInner>,
    // powadapt-lint: allow(d6, reason = "configured ring capacity; restore keeps the attached log's configuration")
    capacity: usize,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("EventLog")
            .field("capacity", &self.capacity)
            .field("len", &inner.events.len())
            .field("total", &inner.total)
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl EventLog {
    /// Default ring capacity: enough for a full `policy_eval` trace.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// An event log retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventLog {
            inner: Mutex::new(LogInner::with_capacity(capacity)),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, LogInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.lock().events.iter().cloned().collect()
    }

    /// Per-kind event counts over everything ever recorded (sorted by
    /// kind name; kinds never recorded are omitted).
    pub fn counts(&self) -> Vec<(String, u64)> {
        let counts = self.lock().counts;
        let mut out: Vec<(String, u64)> = EventKind::NAMES
            .iter()
            .zip(counts)
            .filter(|&(_, n)| n > 0)
            .map(|(&k, n)| (k.to_string(), n))
            .collect();
        out.sort();
        out
    }

    /// Total events ever recorded (including dropped).
    pub fn total(&self) -> u64 {
        self.lock().total
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Discard all retained events and counts, keeping the allocated
    /// ring: a cleared log re-fills without re-faulting its pages, which
    /// is what lets the overhead bench warm a recorder untimed.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.events.clear();
        inner.counts = [0; EventKind::COUNT];
        inner.total = 0;
        inner.dropped = 0;
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(Self::DEFAULT_CAPACITY)
    }
}

impl powadapt_snap::Snapshot for EventLog {
    /// Serializes the durable accounting — per-kind counts, lifetime
    /// total, eviction count — not the retained ring, which is a bounded
    /// debugging window rather than run state.
    fn write_state(
        &self,
        w: &mut powadapt_snap::SnapWriter,
    ) -> Result<(), powadapt_snap::SnapError> {
        let inner = self.lock();
        let mut counts: Vec<(&'static str, u64)> = EventKind::NAMES
            .iter()
            .zip(inner.counts)
            .filter(|&(_, n)| n > 0)
            .map(|(&k, n)| (k, n))
            .collect();
        counts.sort();
        w.u64(inner.total);
        w.u64(inner.dropped);
        w.seq_len(counts.len());
        for (k, v) in &counts {
            w.str(k);
            w.u64(*v);
        }
        Ok(())
    }
}

impl powadapt_snap::Restore for EventLog {
    /// Replaces this log's counters with the checkpointed ones, mapping
    /// each serialized kind name back to its dense index via
    /// [`EventKind::name_index`](crate::EventKind::name_index). Events
    /// recorded after the restore accumulate on top — no double-count, no
    /// reset.
    fn read_state(
        &mut self,
        r: &mut powadapt_snap::SnapReader<'_>,
    ) -> Result<(), powadapt_snap::SnapError> {
        let total = r.u64()?;
        let dropped = r.u64()?;
        let n = r.seq_len()?;
        let mut counts = [0u64; EventKind::COUNT];
        let mut seen = [false; EventKind::COUNT];
        let mut sum = 0u64;
        for _ in 0..n {
            let name = r.str()?;
            let idx = EventKind::name_index(&name).ok_or_else(|| {
                powadapt_snap::SnapError::InvalidValue(format!("unknown event kind {name:?}"))
            })?;
            let v = r.u64()?;
            if seen[idx] {
                return Err(powadapt_snap::SnapError::InvalidValue(format!(
                    "duplicate event kind {name:?}"
                )));
            }
            seen[idx] = true;
            counts[idx] = v;
            sum += v;
        }
        if sum != total {
            return Err(powadapt_snap::SnapError::InvalidValue(format!(
                "per-kind counts sum to {sum}, total says {total}"
            )));
        }
        let mut inner = self.lock();
        inner.counts = counts;
        inner.total = total;
        inner.dropped = dropped;
        Ok(())
    }
}

impl Recorder for EventLog {
    fn record(&self, event: Event) {
        let kind = event.kind.index();
        let mut inner = self.lock();
        inner.counts[kind] += 1;
        inner.total += 1;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use powadapt_sim::SimTime;

    fn ev(ns: u64) -> Event {
        Event {
            at: SimTime::from_nanos(ns),
            track: "t",
            kind: EventKind::SpinUp,
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = RecorderHandle::disabled();
        assert!(!h.is_enabled());
        h.record(ev(0)); // must not panic
    }

    #[test]
    fn ring_drops_oldest() {
        let log = EventLog::new(2);
        log.record(ev(1));
        log.record(ev(2));
        log.record(ev(3));
        let events: Vec<u64> = log.snapshot().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(events, vec![2, 3]);
        assert_eq!(log.total(), 3);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.counts(), vec![("spin_up".to_string(), 3)]);
    }

    #[test]
    fn handle_records_through_arc() {
        let log = Arc::new(EventLog::new(8));
        let h = RecorderHandle::new(log.clone());
        assert!(h.is_enabled());
        h.record(ev(7));
        assert_eq!(log.total(), 1);
    }

    #[test]
    fn event_log_counts_survive_snapshot_roundtrip() {
        use powadapt_snap::{Restore, SnapReader, SnapWriter, Snapshot};
        let log = EventLog::new(4);
        for _ in 0..3 {
            log.record(ev(1));
        }
        let mut w = SnapWriter::new();
        log.write_state(&mut w).unwrap();
        let payload = w.into_payload();

        let mut resumed = EventLog::new(4);
        let mut r = SnapReader::new(&payload);
        resumed.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(resumed.total(), 3);
        assert_eq!(resumed.counts(), log.counts());

        // New events accumulate on top of the restored counters.
        resumed.record(ev(9));
        assert_eq!(resumed.total(), 4);
        assert_eq!(resumed.counts(), vec![("spin_up".to_string(), 4)]);
    }

    #[test]
    fn event_log_restore_rejects_unknown_kind_and_bad_total() {
        use powadapt_snap::{Restore, SnapReader, SnapWriter};
        // Unknown kind name.
        let mut w = SnapWriter::new();
        w.u64(1);
        w.u64(0);
        w.seq_len(1);
        w.str("not_a_kind");
        w.u64(1);
        let payload = w.into_payload();
        let mut log = EventLog::new(4);
        let mut r = SnapReader::new(&payload);
        assert!(matches!(
            log.read_state(&mut r),
            Err(powadapt_snap::SnapError::InvalidValue(_))
        ));

        // Counts that do not sum to the recorded total.
        let mut w = SnapWriter::new();
        w.u64(5);
        w.u64(0);
        w.seq_len(1);
        w.str("spin_up");
        w.u64(2);
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload);
        assert!(matches!(
            log.read_state(&mut r),
            Err(powadapt_snap::SnapError::InvalidValue(_))
        ));
    }
}
