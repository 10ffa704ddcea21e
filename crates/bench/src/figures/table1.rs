//! Table 1: evaluated storage devices and their measured power ranges.

use powadapt_device::{catalog, drain, KIB, MIB};
use powadapt_io::{run_cells, run_experiment, JobSpec, ParallelConfig, SweepScale, Workload};
use powadapt_meter::PowerRig;
use powadapt_sim::{SimDuration, SimRng};

use crate::TABLE1_LABELS;

/// A Table 1 row: label, protocol, model, measured power range.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Device label ("SSD1", ...).
    pub label: String,
    /// Interface protocol name.
    pub protocol: String,
    /// Model name.
    pub model: String,
    /// Minimum measured power in watts (including standby where supported).
    pub min_w: f64,
    /// Maximum measured power in watts.
    pub max_w: f64,
}

/// Measures the power range of one device across representative workload
/// extremes, plus a standby segment where the device supports it.
pub fn measure_device(label: &str, scale: SweepScale, seed: u64) -> Row {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;

    // The workload extremes of the sweep: the lightest and heaviest shapes.
    let cells = [
        (Workload::RandRead, 4 * KIB, 1),
        (Workload::RandWrite, 4 * KIB, 1),
        (Workload::SeqRead, 2 * MIB, 64),
        (Workload::SeqWrite, 2 * MIB, 64),
        (Workload::RandWrite, 256 * KIB, 64),
    ];
    for (w, chunk, depth) in cells {
        let mut dev = catalog::by_label(label, seed).expect("known label");
        let job = JobSpec::new(w)
            .block_size(chunk)
            .io_depth(depth)
            .runtime(scale.runtime)
            .size_limit(scale.size_limit)
            .ramp(scale.ramp)
            .seed(seed);
        let r = run_experiment(dev.as_mut(), &job).expect("valid experiment");
        if let Some(s) = r.power.summary() {
            lo = lo.min(s.min());
            hi = hi.max(s.max());
        }
    }

    // Idle floor and, where supported, standby floor — the paper's minima
    // include the device's lowest-power state.
    let mut dev = catalog::by_label(label, seed).expect("known label");
    lo = lo.min(dev.power_w());
    if dev.standby_power_w().is_some() {
        dev.request_standby().expect("idle device accepts standby");
        drain(dev.as_mut());
        // Meter the standby level through the rig like any other segment.
        let mut rng = SimRng::seed_from(seed ^ 0xabcd);
        let mut rig = PowerRig::paper_rig(5.0, &mut rng);
        rig.restart_at(dev.now());
        let end = dev.now() + SimDuration::from_millis(200);
        let mut t = dev.now();
        while t < end {
            t = rig.next_sample();
            dev.advance_to(t);
            rig.sample(t, dev.power_w());
        }
        if let Some(s) = rig.trace().summary() {
            lo = lo.min(s.min());
        }
    }

    let spec = dev.spec();
    Row {
        label: spec.label().to_string(),
        protocol: spec.protocol().to_string(),
        model: spec.model().to_string(),
        min_w: lo,
        max_w: hi,
    }
}

/// Regenerates Table 1 for all four devices, measuring them in parallel
/// across the workers configured by the environment.
pub fn rows(scale: SweepScale, seed: u64) -> Vec<Row> {
    rows_with(scale, seed, &ParallelConfig::from_env())
}

/// [`rows`] with an explicit executor configuration. Each device's
/// measurement is self-seeded, so rows are identical for any worker count.
pub fn rows_with(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> Vec<Row> {
    run_cells(&TABLE1_LABELS, cfg, |_, label| {
        measure_device(label, scale, seed)
    })
}

/// Prints the table in the paper's layout.
pub fn run(scale: SweepScale, seed: u64) {
    println!("Table 1. Evaluated storage devices.");
    println!(
        "{:<6} {:<9} {:<22} Measured Power Range",
        "Label", "Protocol", "Model"
    );
    println!("{}", "-".repeat(64));
    for r in rows(scale, seed) {
        println!(
            "{:<6} {:<9} {:<22} {:.1}-{:.1} W",
            r.label, r.protocol, r.model, r.min_w, r.max_w
        );
    }
    println!();
    println!("Paper:  SSD1 3.5-13.5 W | SSD2 5-15.1 W | SSD3 1-3.5 W | HDD 1-5.3 W");
}
