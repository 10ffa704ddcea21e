//! The metrics registry: counters, gauges, and sketch-backed histograms,
//! snapshotable as hand-rolled deterministic JSON.
//!
//! Everything lives behind one mutex, which is what makes multi-counter
//! updates ([`MetricsRegistry::inc_many`]) and [`MetricsRegistry::
//! snapshot`] *atomic*: a reader can never observe a torn set of totals,
//! no matter how many sweep workers are publishing. Keys are sorted
//! (`BTreeMap`) so snapshots and their JSON rendering are byte-stable.
//!
//! Histograms are [`Sketch`]es (log-bucket quantile sketches, γ =
//! [`crate::sketch::RELATIVE_ERROR`]) rather than stored-sample lists:
//! memory is O(buckets) regardless of stream length and the observe path
//! allocates nothing in steady state.

use std::fmt;
use std::sync::{Mutex, MutexGuard, OnceLock};

use powadapt_sim::{SimDuration, SimTime};

use std::collections::BTreeMap;

use crate::sketch::{Sketch, WindowedSketch};

#[derive(Debug, Clone)]
enum Histogram {
    /// Unwindowed: one sketch accumulating forever.
    Plain(Sketch),
    /// Sim-time-windowed: a slice-ring sketch that evicts in O(buckets).
    Windowed(WindowedSketch),
}

impl Histogram {
    fn fold(&self) -> Sketch {
        match self {
            Histogram::Plain(s) => s.clone(),
            Histogram::Windowed(w) => w.fold(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe registry of named counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Add `by` to counter `name` (created at zero on first use).
    ///
    /// Steady state (the counter exists) looks the key up by `&str` and
    /// allocates nothing; only the first increment of a name copies it.
    // powadapt-lint: hot
    pub fn inc(&self, name: &str, by: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                inner.counters.insert(name.to_string(), by); // powadapt-lint: allow(d9, reason = "first increment of a name registers the counter; every later inc takes the alloc-free lookup above")
            }
        }
    }

    /// Apply several counter deltas under one lock acquisition, so readers
    /// see either none or all of them — the executor publishes its
    /// per-sweep totals this way to keep session stats tear-free.
    pub fn inc_many(&self, deltas: &[(&str, u64)]) {
        let mut inner = self.lock();
        for (name, by) in deltas {
            match inner.counters.get_mut(*name) {
                Some(c) => *c += by,
                None => {
                    inner.counters.insert((*name).to_string(), *by);
                }
            }
        }
    }

    /// Set counter `name` to an absolute value.
    ///
    /// This is how lazily derived counters (the `events.<kind>` family,
    /// which mirrors the event log's per-kind totals) are published at
    /// read time instead of being re-counted on the record hot path.
    pub fn set_counter(&self, name: &str, value: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(c) => *c = value,
            None => {
                inner.counters.insert(name.to_string(), value);
            }
        }
    }

    /// Read counter `name` (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        inner.gauges.insert(name.to_string(), value);
    }

    /// Read gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Constrain histogram `name` to a sliding sim-time window.
    ///
    /// (Re)creates the histogram as a windowed sketch: set the window
    /// *before* observing — any previously recorded samples are dropped,
    /// since a plain sketch carries no per-sample timestamps to re-window.
    pub fn set_window(&self, name: &str, window: SimDuration) {
        let mut inner = self.lock();
        inner.histograms.insert(
            name.to_string(),
            Histogram::Windowed(WindowedSketch::new(window)),
        );
    }

    /// Record `value` at sim time `at` into histogram `name`.
    ///
    /// Steady state (the histogram exists) touches only fixed bucket
    /// arrays: no allocation, O(buckets) worst case for a window slice
    /// eviction.
    // powadapt-lint: hot
    pub fn observe(&self, name: &str, at: SimTime, value: f64) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(Histogram::Plain(s)) => s.observe(value),
            Some(Histogram::Windowed(w)) => w.observe(at.as_nanos(), value),
            None => {
                drop(inner);
                self.observe_new(name, value); // powadapt-lint: allow(d9, reason = "first observation of a name registers the histogram; every later observe takes the alloc-free path above")
            }
        }
    }

    /// Cold path of [`observe`](Self::observe): registers a fresh plain
    /// sketch under `name`. Runs once per histogram name.
    fn observe_new(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        let hist = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::Plain(Sketch::new()));
        match hist {
            Histogram::Plain(s) => s.observe(value),
            Histogram::Windowed(_) => {
                // Lost a race with a concurrent set_window: drop this one
                // sample rather than invent a timestamp for the window.
            }
        }
    }

    /// Atomically read every metric. Keys come out sorted; two snapshots
    /// of identical registry state render to identical JSON.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .filter_map(|(k, h)| {
                    let s = h.fold();
                    if s.is_empty() {
                        return None;
                    }
                    Some(HistogramSnapshot {
                        name: k.clone(),
                        count: s.count(),
                        min: s.min()?,
                        max: s.max()?,
                        mean: s.mean()?,
                        p50: s.percentile(50.0)?,
                        p95: s.percentile(95.0)?,
                        p99: s.percentile(99.0)?,
                    })
                })
                .collect(),
        }
    }

    /// Drop every metric.
    pub fn clear(&self) {
        *self.lock() = Inner::default();
    }
}

impl powadapt_snap::Snapshot for MetricsRegistry {
    /// Serializes the registry raw: counters, gauges, and each
    /// histogram's full sketch state (not percentile summaries), so a
    /// restored registry's windows keep evicting correctly and its
    /// snapshots stay byte-identical.
    fn write_state(
        &self,
        w: &mut powadapt_snap::SnapWriter,
    ) -> Result<(), powadapt_snap::SnapError> {
        let inner = self.lock();
        w.seq_len(inner.counters.len());
        for (k, &v) in &inner.counters {
            w.str(k);
            w.u64(v);
        }
        w.seq_len(inner.gauges.len());
        for (k, &v) in &inner.gauges {
            w.str(k);
            w.f64(v);
        }
        w.seq_len(inner.histograms.len());
        for (k, h) in &inner.histograms {
            w.str(k);
            match h {
                Histogram::Plain(s) => {
                    w.u8(0);
                    s.write_state(w)?;
                }
                Histogram::Windowed(ws) => {
                    w.u8(1);
                    ws.write_state(w)?;
                }
            }
        }
        Ok(())
    }
}

impl powadapt_snap::Restore for MetricsRegistry {
    /// Replaces the registry's contents with the checkpointed metrics;
    /// observations after the restore accumulate on top.
    fn read_state(
        &mut self,
        r: &mut powadapt_snap::SnapReader<'_>,
    ) -> Result<(), powadapt_snap::SnapError> {
        let mut fresh = Inner::default();
        let n = r.seq_len()?;
        for _ in 0..n {
            let k = r.str()?;
            let v = r.u64()?;
            if fresh.counters.insert(k.clone(), v).is_some() {
                return Err(powadapt_snap::SnapError::InvalidValue(format!(
                    "duplicate counter {k:?}"
                )));
            }
        }
        let n = r.seq_len()?;
        for _ in 0..n {
            let k = r.str()?;
            let v = r.f64()?;
            if fresh.gauges.insert(k.clone(), v).is_some() {
                return Err(powadapt_snap::SnapError::InvalidValue(format!(
                    "duplicate gauge {k:?}"
                )));
            }
        }
        let n = r.seq_len()?;
        for _ in 0..n {
            let k = r.str()?;
            let hist = match r.u8()? {
                0 => {
                    let mut s = Sketch::new();
                    s.read_state(r)?;
                    Histogram::Plain(s)
                }
                1 => {
                    let mut ws = WindowedSketch::new(SimDuration::ZERO);
                    ws.read_state(r)?;
                    Histogram::Windowed(ws)
                }
                tag => {
                    return Err(powadapt_snap::SnapError::InvalidValue(format!(
                        "unknown histogram tag {tag}"
                    )))
                }
            };
            if fresh.histograms.insert(k.clone(), hist).is_some() {
                return Err(powadapt_snap::SnapError::InvalidValue(format!(
                    "duplicate histogram {k:?}"
                )));
            }
        }
        *self.lock() = fresh;
        Ok(())
    }
}

/// The process-global metrics registry.
///
/// Long-lived infrastructure (the parallel sweep executor) publishes here;
/// per-run recorders keep their own [`MetricsRegistry`] instead.
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// Percentile summary of one histogram, derived from its sketch.
///
/// `min`/`max` are exact; `mean` and the percentiles are within the
/// sketch's relative-error bound ([`crate::sketch::RELATIVE_ERROR`]) of
/// the exact sample statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Samples summarized (post-windowing).
    pub count: u64,
    /// Smallest sample (exact).
    pub min: f64,
    /// Largest sample (exact).
    pub max: f64,
    /// Sketch-derived arithmetic mean.
    pub mean: f64,
    /// Sketch-estimated 50th percentile (interpolated ranks).
    pub p50: f64,
    /// Sketch-estimated 95th percentile.
    pub p95: f64,
    /// Sketch-estimated 99th percentile.
    pub p99: f64,
}

/// An atomic, sorted copy of a registry's state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, sorted by name. Empty histograms are omitted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of counter `name` in this snapshot (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Hand-rolled deterministic JSON: keys in sorted order, floats via
    /// `{:?}` (shortest round-trip form), no whitespace variability.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_entries(&mut out, &self.counters, |v| v.to_string());
        out.push_str("},\n  \"gauges\": {");
        push_entries(&mut out, &self.gauges, |v| format!("{v:?}"));
        out.push_str("},\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, &h.name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"min\": {:?}, \"max\": {:?}, \"mean\": {:?}, \
                 \"p50\": {:?}, \"p95\": {:?}, \"p99\": {:?}}}",
                h.count, h.min, h.max, h.mean, h.p50, h.p95, h.p99
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn push_entries<V: Copy>(out: &mut String, entries: &[(String, V)], render: impl Fn(V) -> String) {
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_string(out, k);
        out.push_str(": ");
        out.push_str(&render(*v));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

/// Append `s` as a JSON string literal, escaping the characters JSON
/// requires (quotes, backslashes, control bytes).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_inc_many() {
        let m = MetricsRegistry::new();
        m.inc("a", 2);
        m.inc_many(&[("a", 3), ("b", 1)]);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("b"), 1);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_json_stable() {
        let m = MetricsRegistry::new();
        m.inc("z", 1);
        m.inc("a", 2);
        m.set_gauge("power", 11.5);
        m.observe("lat", SimTime::from_nanos(10), 1.0);
        m.observe("lat", SimTime::from_nanos(20), 3.0);
        let s1 = m.snapshot();
        let s2 = m.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        assert_eq!(
            s1.counters,
            vec![("a".to_string(), 2), ("z".to_string(), 1)]
        );
        let json = s1.to_json();
        assert!(json.contains("\"a\": 2"));
        assert!(json.contains("\"power\": 11.5"));
        assert!(json.contains("\"count\": 2"));
    }

    #[test]
    fn windowed_histogram_evicts() {
        let m = MetricsRegistry::new();
        m.set_window("w", SimDuration::from_nanos(150));
        m.observe("w", SimTime::from_nanos(0), 1.0);
        m.observe("w", SimTime::from_nanos(50), 2.0);
        m.observe("w", SimTime::from_nanos(200), 3.0);
        let snap = m.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.count, 2); // the slice holding t=0 expired by t=200
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn json_escapes_strings() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\n");
        assert_eq!(s, "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn registry_snapshot_roundtrip_is_exact() {
        use powadapt_snap::{Restore, SnapReader, SnapWriter, Snapshot};
        let reg = MetricsRegistry::new();
        reg.inc("ios", 7);
        reg.set_gauge("power_w", 12.5);
        reg.set_window("lat", SimDuration::from_millis(10));
        for i in 0..20u64 {
            reg.observe("lat", SimTime::from_nanos(i * 1_000_000), i as f64);
        }
        reg.observe("plain", SimTime::ZERO, 42.0);
        let mut w = SnapWriter::new();
        reg.write_state(&mut w).unwrap();
        let payload = w.into_payload();

        let mut resumed = MetricsRegistry::new();
        let mut r = SnapReader::new(&payload);
        resumed.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(resumed.snapshot().to_json(), reg.snapshot().to_json());

        // The serialized form itself is byte-stable across the roundtrip.
        let mut again = SnapWriter::new();
        resumed.write_state(&mut again).unwrap();
        assert_eq!(again.into_payload(), payload);

        // The restored window keeps evicting: a far-future sample leaves
        // only itself in the 10 ms window.
        resumed.observe("lat", SimTime::from_nanos(1_000_000_000), 9.0);
        reg.observe("lat", SimTime::from_nanos(1_000_000_000), 9.0);
        assert_eq!(resumed.snapshot().to_json(), reg.snapshot().to_json());
    }
}
