//! IO statistics collected by the runner.

use std::error::Error;
use std::fmt;

use powadapt_device::{IoCompletion, IoKind, MIB};
use powadapt_sim::{SimDuration, SimTime, Summary};

/// Error from [`IoStats::from_completions`]: the measurement window ends
/// before it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvertedWindow {
    /// Claimed start of the window.
    pub from: SimTime,
    /// Claimed end of the window.
    pub to: SimTime,
}

impl fmt::Display for InvertedWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "measurement window inverted: from {} > to {}",
            self.from, self.to
        )
    }
}

impl Error for InvertedWindow {}

/// Aggregate statistics of the completions observed during an experiment's
/// measurement window.
///
/// # Examples
///
/// ```
/// use powadapt_io::IoStats;
/// use powadapt_sim::SimDuration;
///
/// let stats = IoStats::from_latencies_us(&[100.0, 120.0], 8192, SimDuration::from_millis(1));
/// assert_eq!(stats.ios(), 2);
/// assert!((stats.throughput_mibs() - 7.8125).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct IoStats {
    ios: u64,
    bytes: u64,
    elapsed: SimDuration,
    latencies: Option<Summary>,
}

impl IoStats {
    /// Builds stats from completions that fall inside the measurement
    /// window `[from, to]` (inclusive at both ends — the final completion
    /// of an experiment lands exactly on `to`); `elapsed` is `to - from`.
    ///
    /// # Errors
    ///
    /// Returns [`InvertedWindow`] if `from > to`.
    pub fn from_completions(
        completions: &[IoCompletion],
        from: SimTime,
        to: SimTime,
    ) -> Result<Self, InvertedWindow> {
        if from > to {
            return Err(InvertedWindow { from, to });
        }
        let mut bytes = 0u64;
        let mut lats = Vec::new();
        for c in completions {
            if c.completed >= from && c.completed <= to {
                bytes += c.len;
                lats.push(c.latency().as_nanos() as f64 / 1_000.0);
            }
        }
        Ok(IoStats {
            ios: lats.len() as u64,
            bytes,
            elapsed: to.duration_since(from),
            latencies: Summary::from_vec(lats),
        })
    }

    /// [`from_completions`](IoStats::from_completions) for all, read and
    /// write completions in one pass: returns `(total, reads, writes)`.
    /// Each equals the stats of the matching subset bit for bit, whatever
    /// the completion order.
    ///
    /// # Errors
    ///
    /// Returns [`InvertedWindow`] if `from > to`.
    pub(crate) fn by_kind<'a>(
        completions: impl IntoIterator<Item = &'a IoCompletion>,
        from: SimTime,
        to: SimTime,
    ) -> Result<(Self, Self, Self), InvertedWindow> {
        if from > to {
            return Err(InvertedWindow { from, to });
        }
        // Slot 0 takes every completion, slot 1 the reads, slot 2 the writes.
        let mut bytes = [0u64; 3];
        let mut lats: [Vec<f64>; 3] = Default::default();
        for c in completions {
            if c.completed >= from && c.completed <= to {
                let lat = c.latency().as_nanos() as f64 / 1_000.0;
                for k in [0, if c.kind == IoKind::Read { 1 } else { 2 }] {
                    bytes[k] += c.len;
                    lats[k].push(lat);
                }
            }
        }
        let [all, reads, writes] = std::array::from_fn(|k| IoStats {
            ios: lats[k].len() as u64,
            bytes: bytes[k],
            elapsed: to.duration_since(from),
            latencies: Summary::from_vec(std::mem::take(&mut lats[k])),
        });
        Ok((all, reads, writes))
    }

    /// Builds stats directly from a list of latencies (µs), a total byte
    /// count, and the elapsed window. Useful in tests and table builders.
    pub fn from_latencies_us(latencies_us: &[f64], bytes: u64, elapsed: SimDuration) -> Self {
        IoStats {
            ios: latencies_us.len() as u64,
            bytes,
            elapsed,
            latencies: Summary::from_samples(latencies_us),
        }
    }

    /// Number of completed IOs in the window.
    pub fn ios(&self) -> u64 {
        self.ios
    }

    /// Bytes transferred in the window.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Length of the measurement window.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Throughput in bytes per second (0 for an empty window).
    pub fn throughput_bps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        // powadapt-lint: allow(D3, reason = "exact-zero guard for an empty window; secs is a finite duration, never NaN")
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / secs
        }
    }

    /// Throughput in MiB/s — the unit of the paper's figures.
    pub fn throughput_mibs(&self) -> f64 {
        self.throughput_bps() / MIB as f64
    }

    /// IO operations per second.
    pub fn iops(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        // powadapt-lint: allow(D3, reason = "exact-zero guard for an empty window; secs is a finite duration, never NaN")
        if secs == 0.0 {
            0.0
        } else {
            self.ios as f64 / secs
        }
    }

    /// Latency summary in microseconds, if any IOs completed.
    pub fn latency_summary(&self) -> Option<&Summary> {
        self.latencies.as_ref()
    }

    /// Mean latency in microseconds (0 if no IOs completed).
    pub fn avg_latency_us(&self) -> f64 {
        self.latencies
            .as_ref()
            .map_or(0.0, powadapt_sim::Summary::mean)
    }

    /// 99th-percentile latency in microseconds (0 if no IOs completed).
    pub fn p99_latency_us(&self) -> f64 {
        self.latencies.as_ref().map_or(0.0, |s| s.percentile(99.0))
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} IOs, {:.1} MiB/s, {:.0} IOPS, lat avg {:.1} us p99 {:.1} us",
            self.ios,
            self.throughput_mibs(),
            self.iops(),
            self.avg_latency_us(),
            self.p99_latency_us()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_device::{IoId, IoKind};

    fn completion(id: u64, at_us: u64, lat_us: u64, len: u64) -> IoCompletion {
        IoCompletion {
            id: IoId(id),
            kind: IoKind::Read,
            len,
            submitted: SimTime::from_micros(at_us - lat_us),
            completed: SimTime::from_micros(at_us),
        }
    }

    #[test]
    fn window_filtering() {
        let cs = vec![
            completion(0, 100, 50, 4096),
            completion(1, 1_500, 60, 4096),
            completion(2, 3_000, 70, 4096), // outside window
        ];
        let s = IoStats::from_completions(&cs, SimTime::ZERO, SimTime::from_micros(2_999)).unwrap();
        assert_eq!(s.ios(), 2);
        assert_eq!(s.bytes(), 8192);
        let lat = s.latency_summary().unwrap();
        assert_eq!(lat.min(), 50.0);
        assert_eq!(lat.max(), 60.0);
    }

    #[test]
    fn throughput_and_iops() {
        let s = IoStats::from_latencies_us(&[10.0; 100], 100 * MIB, SimDuration::from_secs(1));
        assert!((s.throughput_mibs() - 100.0).abs() < 1e-9);
        assert!((s.iops() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn inverted_window_is_an_error() {
        let err = IoStats::from_completions(&[], SimTime::from_micros(5), SimTime::ZERO)
            .expect_err("inverted window must be rejected");
        assert_eq!(err.from, SimTime::from_micros(5));
        assert_eq!(err.to, SimTime::ZERO);
        assert!(err.to_string().contains("inverted"));
    }

    #[test]
    fn empty_window_is_all_zeros() {
        let s = IoStats::from_completions(&[], SimTime::ZERO, SimTime::ZERO).unwrap();
        assert_eq!(s.ios(), 0);
        assert_eq!(s.throughput_bps(), 0.0);
        assert_eq!(s.iops(), 0.0);
        assert_eq!(s.avg_latency_us(), 0.0);
        assert_eq!(s.p99_latency_us(), 0.0);
        assert!(s.latency_summary().is_none());
    }

    #[test]
    fn by_kind_matches_the_filtered_subsets() {
        let mut cs = vec![
            completion(0, 100, 50, 4096),
            completion(1, 1_500, 60, 8192),
            completion(2, 2_000, 70, 4096),
            completion(3, 3_000, 80, 4096), // outside window
        ];
        cs[1].kind = IoKind::Write;
        let (from, to) = (SimTime::ZERO, SimTime::from_micros(2_999));
        let (all, reads, writes) = IoStats::by_kind(cs.iter().rev(), from, to).unwrap();
        let subset = |kind: Option<IoKind>| {
            let cs: Vec<IoCompletion> = cs
                .iter()
                .copied()
                .filter(|c| kind.is_none_or(|k| c.kind == k))
                .collect();
            IoStats::from_completions(&cs, from, to).unwrap()
        };
        for (got, kind) in [
            (all, None),
            (reads, Some(IoKind::Read)),
            (writes, Some(IoKind::Write)),
        ] {
            let want = subset(kind);
            assert_eq!((got.ios(), got.bytes()), (want.ios(), want.bytes()));
            assert_eq!(got.latency_summary(), want.latency_summary());
        }
        assert!(IoStats::by_kind(&cs, to, from).is_err());
    }

    #[test]
    fn display_nonempty() {
        let s = IoStats::from_latencies_us(&[5.0], 4096, SimDuration::from_millis(1));
        assert!(s.to_string().contains("IOs"));
    }
}
