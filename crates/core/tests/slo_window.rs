//! Differential test of [`SloWindow`] against a reference model that keeps
//! its latencies sorted on every insert. The window defers sorting until
//! a query or a snapshot needs the order; every answer, the observation
//! count, the byte total and the snapshot bytes must stay bit-identical
//! to the model's.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use powadapt_core::SloWindow;
use powadapt_sim::percentile_of_sorted;
use powadapt_sim::units::Micros;
use powadapt_snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};

/// The always-sorted window: each observation is inserted after every
/// latency that is not greater than it.
#[derive(Debug, Default)]
struct Model {
    lat_us: Vec<f64>,
    bytes: u64,
}

impl Model {
    fn observe(&mut self, us: f64, bytes: u64) {
        if !us.is_finite() {
            return;
        }
        let at = self.lat_us.partition_point(|&l| l <= us);
        self.lat_us.insert(at, us);
        self.bytes += bytes;
    }

    fn percentile(&self, p: f64) -> Option<f64> {
        (!self.lat_us.is_empty()).then(|| percentile_of_sorted(&self.lat_us, p))
    }

    fn mean(&self) -> Option<f64> {
        (!self.lat_us.is_empty())
            .then(|| self.lat_us.iter().sum::<f64>() / self.lat_us.len() as f64)
    }

    fn state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.seq_len(self.lat_us.len());
        for &l in &self.lat_us {
            w.f64(l);
        }
        w.u64(self.bytes);
        w.into_payload()
    }
}

fn state(w: &SloWindow) -> Vec<u8> {
    let mut out = SnapWriter::new();
    w.write_state(&mut out).unwrap();
    out.into_payload()
}

fn restore(payload: &[u8]) -> Result<SloWindow, SnapError> {
    let mut w = SloWindow::new();
    let mut r = SnapReader::new(payload);
    w.read_state(&mut r)?;
    r.finish()?;
    Ok(w)
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// One step of a generated stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Observe(f64, u64),
    /// Compare every order-dependent answer (settles the window).
    Query,
    /// Snapshot both, compare the bytes, and continue from the restore.
    Cut,
}

/// Latencies drawn to collide: a coarse grid (duplicates), both zeros,
/// non-finite values, and arbitrary fractions.
fn latency(kind: u8, raw: u32) -> f64 {
    match kind {
        0..=3 => f64::from(raw % 40) * 0.25,
        4 => 0.0,
        5 => -0.0,
        6 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][raw as usize % 3],
        _ => f64::from(raw) / 7.0,
    }
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..40, 0u8..8, 0u32..100_000, 0u64..1 << 20).prop_map(
        |(which, kind, raw, bytes)| match which {
            0..=2 => Op::Query,
            3 => Op::Cut,
            _ => Op::Observe(latency(kind, raw), bytes),
        },
    )
}

fn check(w: &mut SloWindow, m: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(w.len(), m.lat_us.len());
    prop_assert_eq!(w.bytes(), m.bytes);
    for p in [50.0, 99.0, 99.9] {
        prop_assert_eq!(
            bits(w.percentile_latency(p).map(Micros::get)),
            bits(m.percentile(p)),
            "p{}",
            p
        );
    }
    prop_assert_eq!(bits(w.mean_latency().map(Micros::get)), bits(m.mean()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn window_matches_the_sorted_insert_model(ops in prop::collection::vec(op(), 0..400)) {
        let mut w = SloWindow::new();
        let mut m = Model::default();
        for op in ops {
            match op {
                Op::Observe(us, bytes) => {
                    w.observe(Micros::new(us), bytes);
                    m.observe(us, bytes);
                }
                Op::Query => check(&mut w, &m)?,
                Op::Cut => {
                    let bytes = state(&w);
                    prop_assert_eq!(&bytes, &m.state());
                    w = restore(&bytes).unwrap();
                }
            }
        }
        // Snapshot of the unsettled tail, then of the settled window.
        prop_assert_eq!(state(&w), m.state());
        check(&mut w, &m)?;
        prop_assert_eq!(state(&w), m.state());
    }
}

#[test]
fn restore_rejects_unsorted_and_non_finite_latencies() {
    let payload = |lat: &[f64]| {
        let mut w = SnapWriter::new();
        w.seq_len(lat.len());
        for &l in lat {
            w.f64(l);
        }
        w.u64(0);
        w.into_payload()
    };
    assert!(restore(&payload(&[1.0, 1.0, 2.0])).is_ok());
    assert!(matches!(
        restore(&payload(&[2.0, 1.0])),
        Err(SnapError::InvalidValue(m)) if m.contains("not sorted")
    ));
    assert!(matches!(
        restore(&payload(&[1.0, f64::NAN])),
        Err(SnapError::InvalidValue(m)) if m.contains("non-finite")
    ));
}

#[test]
fn equality_ignores_how_much_of_the_log_is_settled() {
    let mut a = SloWindow::new();
    let mut b = SloWindow::new();
    for us in [3.0, 1.0, 2.0] {
        a.observe(Micros::new(us), 1);
        b.observe(Micros::new(us), 1);
    }
    let _ = a.p99_latency();
    assert_eq!(a, b);
    b.observe(Micros::new(4.0), 1);
    assert_ne!(a, b);
}
