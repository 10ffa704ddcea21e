//! The powadapt benchmark: host time of the simulator end to end, then
//! split by layer.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <fio_randwrite|fio_randread|placement> --seed N --seconds S --trace 0|1`,
//! run from the repository root. See `perfbench/README.md`.

mod args;
mod fio;
mod metrics;
mod placement;
mod reference;
mod rep;
mod stats;
mod tally;

use std::sync::Arc;
use std::time::Instant;

use powadapt_cluster::ClusterSim;
use powadapt_io::Workload as IoWorkload;
use powadapt_obs::TraceRecorder;

use args::{Args, Workload};
use rep::{timed, Mode, Rep};
use stats::{median, percentile, ratio};

/// Set-ups timed on their own before each repetition, on top of the one
/// every repetition times.
const EXTRA_SETUPS: usize = 9;
/// Fewest repetitions behind any median.
const MIN_REPS: usize = 3;
/// Repetitions with the program's recorder installed, so that its event
/// count is seen to repeat.
const RECORDED_REPS: usize = 2;

struct Bench {
    args: Args,
    golden: Option<placement::Golden>,
}

impl Bench {
    /// Distinct jobs the repetitions cycle through.
    fn cycle(&self) -> usize {
        match self.args.workload {
            Workload::FioRandwrite | Workload::FioRandread => 1,
            Workload::Placement => placement::CELLS,
        }
    }

    /// Repetition `k` of the workload.
    fn rep(&self, mode: Mode, cuts: bool, k: usize) -> Rep {
        let seed = self.args.seed;
        match self.args.workload {
            Workload::FioRandwrite => fio::rep(IoWorkload::RandWrite, seed, mode),
            Workload::FioRandread => fio::rep(IoWorkload::RandRead, seed, mode),
            Workload::Placement => {
                let seed = placement::cell_seed(seed, k);
                let golden = self.golden.as_ref().filter(|_| seed == args::GOLDEN_SEED);
                placement::rep(seed, mode, cuts, golden)
            }
        }
    }

    /// Host seconds of one set-up, built and dropped.
    fn setup_sample(&self) -> f64 {
        let seed = self.args.seed;
        match self.args.workload {
            Workload::FioRandwrite => timed(|| fio::setup(IoWorkload::RandWrite, seed, None)).1,
            Workload::FioRandread => timed(|| fio::setup(IoWorkload::RandRead, seed, None)).1,
            Workload::Placement => timed(|| ClusterSim::new(placement::spec(seed, None))).1,
        }
    }

    /// One measured repetition of job `k`, with [`EXTRA_SETUPS`] set-ups
    /// timed just before it.
    fn measured_rep(&self, mode: Mode, k: usize) -> Rep {
        let setups: Vec<f64> = (0..EXTRA_SETUPS).map(|_| self.setup_sample()).collect();
        let mut rep = self.rep(mode, true, k);
        rep.setups_s.extend(setups);
        rep
    }
}

/// Runs `run(0)`, `run(1)`, ... until `budget` host seconds have passed,
/// at least `min_reps` ran, in whole cycles of `cycle` jobs, with enough
/// slices for a p90 of each job — or until a check fails.
///
/// The host-speed reference is sampled before the first repetition and
/// after each one, into `refs`. A repetition's scale comes from the mean of
/// the two samples either side of it.
fn phase(
    budget: f64,
    min_reps: usize,
    cycle: usize,
    refs: &mut Vec<f64>,
    run: impl Fn(usize) -> Rep,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut samples = vec![reference::sample()];
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(run(reps.len()));
        samples.push(reference::sample());
        // Every repetition of a workload has as many slices.
        let slices = reps.len() / cycle * reps[0].slices_ms.len();
        let failed = reps.iter().any(|r| !r.failures.is_empty());
        if failed
            || (start.elapsed().as_secs_f64() >= budget
                && reps.len() >= min_reps
                && reps.len().is_multiple_of(cycle)
                && stats::enough_beyond(slices, 0.9))
        {
            break;
        }
    }
    // Repetition i ran between samples i and i + 1.
    for (i, rep) in reps.iter_mut().enumerate() {
        rep.scale = 2.0 * reference::NOMINAL_S / (samples[i] + samples[i + 1]);
    }
    refs.extend(samples);
    reps
}

/// Output checks across repetitions, and the totals for the result line.
#[derive(Debug, Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Folds in a repetition's own checks and simulated IOs, and checks it
    /// reproduced the digest and work counts of `reference`, an earlier
    /// run of the same job.
    fn add(&mut self, label: &str, rep: &Rep, reference: &Rep) {
        self.attempted += rep.checks + rep.served + rep.dropped;
        self.failed += rep.failures.len() as u64 + rep.dropped;
        self.failures
            .extend(rep.failures.iter().map(|f| format!("{label}: {f}")));
        self.check(rep.digest == reference.digest, || {
            format!(
                "{label}: digest {:016x} differs from the earlier run's {:016x}",
                rep.digest, reference.digest
            )
        });
        self.check(counts(rep) == counts(reference), || {
            format!(
                "{label}: work counts {:?} differ from {:?}",
                counts(rep),
                counts(reference)
            )
        });
    }
}

/// The deterministic work counts of a repetition; equal on every one.
fn counts(rep: &Rep) -> Vec<u64> {
    let mut c = vec![
        rep.served,
        rep.dropped,
        rep.snap_bytes,
        rep.checkpoints_ms.len() as u64,
        rep.slices_ms.len() as u64,
        rep.rebalance_rounds,
        rep.replans,
        rep.migrations,
        rep.migration_bytes,
        rep.obs_events,
    ];
    if let Some(t) = &rep.tally {
        c.extend([
            t.advance.calls(),
            t.advance_idle.get(),
            t.completions.get(),
            t.submit.calls(),
            t.next_event.calls(),
            t.power_w.calls(),
            t.control.calls(),
        ]);
    }
    c
}

/// Checks every repetition of job 0 against the straight run's digest,
/// and every later repetition of a job against that job's first one.
fn check_reps(verdict: &mut Verdict, label: &str, reps: &[Rep], cycle: usize, straight: &Rep) {
    for (i, rep) in reps.iter().enumerate() {
        let label = format!("{label} repetition {i}");
        let first = &reps[i % cycle];
        if i % cycle == 0 {
            verdict.check(rep.digest == straight.digest, || {
                format!(
                    "{label}: digest {:016x} differs from the straight run's {:016x}",
                    rep.digest, straight.digest
                )
            });
        }
        verdict.add(&label, rep, first);
    }
}

fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Host-time samples of `reps`, each scaled by its repetition's scale.
fn pooled(reps: &[&Rep], f: fn(&Rep) -> &[f64]) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| f(r).iter().map(|x| x * r.scale))
        .collect()
}

/// Host-time samples of `reps`, unscaled. Checkpoint round trips copy and
/// hash megabyte buffers, which the reference does not track: in two
/// five-run comparisons scaling raised their spread from 7% to 16–19%.
fn pooled_raw(reps: &[&Rep], f: fn(&Rep) -> &[f64]) -> Vec<f64> {
    reps.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// `stat` of each job's repetitions, and the median of that over the
/// cycle's jobs: a job whose seed makes it unusually heavy moves it less
/// than pooling every job's samples would.
fn per_job(reps: &[Rep], cycle: usize, stat: impl Fn(&[&Rep]) -> f64) -> f64 {
    let values: Vec<f64> = (0..cycle)
        .map(|j| stat(&reps.iter().skip(j).step_by(cycle).collect::<Vec<_>>()))
        .collect();
    median(&values)
}

/// The end-to-end metrics, host times scaled to the reference speed.
fn end_to_end(reps: &[Rep], cycle: usize, peak_rss_kib: f64) -> Vec<(&'static str, f64)> {
    let job_median = |f: fn(&Rep) -> f64| {
        per_job(reps, cycle, |job| {
            median(&job.iter().map(|r| f(r)).collect::<Vec<_>>())
        })
    };
    let all: Vec<&Rep> = reps.iter().collect();
    vec![
        ("wall_s", job_median(|r| r.scale * r.wall_s)),
        (
            "sim_ios_per_s",
            job_median(|r| ratio(r.served as f64, r.scale * r.wall_s)),
        ),
        (
            "slice_ms.p50",
            per_job(reps, cycle, |job| median(&pooled(job, |r| &r.slices_ms))),
        ),
        (
            "slice_ms.p90",
            // reps() gathers enough slices for a p90 unless a failed check
            // stopped it early, in which case the result is marked incorrect.
            per_job(reps, cycle, |job| {
                percentile(&pooled(job, |r| &r.slices_ms), 0.9).unwrap_or(0.0)
            }),
        ),
        ("setup_s", median(&pooled(&all, |r| &r.setups_s))),
        ("peak_rss_mb", peak_rss_kib / 1024.0),
        (
            "checkpoint_ms.p50",
            per_job(reps, cycle, |job| {
                median(&pooled_raw(job, |r| &r.checkpoints_ms))
            }),
        ),
    ]
}

/// The per-layer metrics, host times scaled to the reference speed.
///
/// Counts are those of one repetition (the first job of the cycle); the
/// recorded repetitions all run that job, and compare against the untraced
/// repetitions of it.
fn per_layer(
    workload: Workload,
    plain: &[Rep],
    traced: &[Rep],
    recorded: &[Rep],
    cycle: usize,
) -> Vec<(&'static str, f64)> {
    let first = &traced[0];
    let t = first
        .tally
        .as_ref()
        .expect("traced repetitions carry a tally");
    let op_s = |f: fn(&tally::Tally) -> f64| {
        med(traced, |r| r.scale * r.tally.as_ref().map_or(0.0, |t| f(t)))
    };
    let adv_s = op_s(|t| t.advance.secs());
    let wall = med(traced, |r| r.scale * r.wall_s);
    let plain_wall = med(plain, |r| r.scale * r.wall_s);
    let first_job: Vec<&Rep> = plain.iter().step_by(cycle).collect();
    let first_job_wall = median(
        &first_job
            .iter()
            .map(|r| r.scale * r.wall_s)
            .collect::<Vec<_>>(),
    );
    let self_s = med(traced, |r| r.scale * (r.wall_s - r.loop_device_s));
    // Each workload drives the devices through exactly one loop; the
    // other loop's metrics read 0.
    let (runner, cluster) = match workload {
        Workload::Placement => ((0.0, 0.0), (wall, self_s)),
        Workload::FioRandwrite | Workload::FioRandread => ((wall, self_s), (0.0, 0.0)),
    };
    let calls = t.advance.calls() as f64;
    vec![
        ("device.advance.calls", calls),
        (
            "device.advance.idle_frac",
            ratio(t.advance_idle.get() as f64, calls),
        ),
        ("device.advance.s", adv_s),
        ("device.advance.ns_per_call", ratio(adv_s * 1e9, calls)),
        (
            "device.events_per_io",
            ratio(calls, t.completions.get() as f64),
        ),
        ("device.submit.calls", t.submit.calls() as f64),
        ("device.submit.s", op_s(|t| t.submit.secs())),
        ("device.next_event.calls", t.next_event.calls() as f64),
        ("device.next_event.s", op_s(|t| t.next_event.secs())),
        ("device.power_w.calls", t.power_w.calls() as f64),
        ("device.power_w.s", op_s(|t| t.power_w.secs())),
        ("device.control.calls", t.control.calls() as f64),
        ("io.runner.s", runner.0),
        ("io.runner.self_s", runner.1),
        ("cluster.run_to.s", cluster.0),
        ("cluster.self_s", cluster.1),
        (
            "cluster.self_ns_per_io",
            ratio(cluster.1 * 1e9, first.served as f64),
        ),
        ("control.rebalance_rounds", first.rebalance_rounds as f64),
        ("control.replans", first.replans as f64),
        ("place.migrations", first.migrations as f64),
        ("place.migration_bytes", first.migration_bytes as f64),
        ("snap.snapshot.s", med(traced, |r| r.snapshot_s)),
        ("snap.resume.s", med(traced, |r| r.resume_s)),
        ("snap.bytes", first.snap_bytes as f64),
        ("obs.events", recorded[0].obs_events as f64),
        (
            "obs.overhead_frac",
            ratio(med(recorded, |r| r.scale * r.wall_s), first_job_wall) - 1.0,
        ),
        ("trace.overhead_frac", ratio(wall, plain_wall) - 1.0),
    ]
}

/// An untraced repetition of job 0 with the program's own recorder
/// installed.
fn recorded_rep(bench: &Bench) -> Rep {
    let rec = Arc::new(TraceRecorder::new(1 << 16));
    powadapt_obs::install(rec.clone());
    let mut rep = bench.rep(Mode::Plain, true, 0);
    powadapt_obs::uninstall();
    rep.obs_events = rec.log().total();
    rep
}

/// `VmHWM` of this process, in KiB (0 where `/proc` is unavailable).
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// The checked-out revision, read from `.git` without running git.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn main() {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    let golden = if args.workload == Workload::Placement {
        match placement::golden_for(args.seed) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("perfbench: {e} (run from the repository root)");
                std::process::exit(2);
            }
        }
    } else {
        None
    };
    let bench = Bench { args, golden };
    let args = &bench.args;

    // The straight run of job 0: it warms caches and allocators, and fixes
    // the digest every cut and resumed repetition of job 0 must reproduce.
    let straight = bench.rep(Mode::Plain, false, 0);
    // Read before the host-speed reference first runs: its own heap would
    // otherwise set the high-water mark.
    let peak_rss_kib = peak_rss_kib();
    let mut verdict = Verdict::default();
    verdict.add("straight run", &straight, &straight);

    let cycle = bench.cycle();
    let mut refs = Vec::new();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = phase(budget, MIN_REPS, cycle, &mut refs, |k| {
        bench.measured_rep(Mode::Plain, k)
    });
    check_reps(&mut verdict, "untraced", &plain, cycle, &straight);

    let values = if args.trace {
        let traced = phase(budget, MIN_REPS, cycle, &mut refs, |k| {
            bench.measured_rep(Mode::Traced, k)
        });
        check_reps(&mut verdict, "traced", &traced, cycle, &straight);
        let recorded = phase(0.0, RECORDED_REPS, 1, &mut refs, |_| recorded_rep(&bench));
        check_reps(&mut verdict, "recorded", &recorded, 1, &straight);
        metrics::in_order(
            &metrics::PER_LAYER,
            &per_layer(args.workload, &plain, &traced, &recorded, cycle),
        )
    } else {
        metrics::in_order(
            &metrics::END_TO_END,
            &end_to_end(&plain, cycle, peak_rss_kib),
        )
    };

    println!(
        "manifest: {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"git_rev\": \"{}\", \"profile\": \"{}\", \
         \"repetitions\": {}, \"slices\": {}, \"setup_samples\": {}, \
         \"reference_s\": {:.6}, \"time_scale\": {:.6}, \"digest\": \"{:016x}\"}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        git_rev(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        plain.len(),
        plain.iter().map(|r| r.slices_ms.len()).sum::<usize>(),
        plain.iter().map(|r| r.setups_s.len()).sum::<usize>(),
        median(&refs),
        med(&plain, |r| r.scale),
        straight.digest,
    );
    for (name, unit, value) in &values {
        println!("  {name:<28} {value:>18.6} {unit}");
    }
    println!(
        "  {:<28} {:>18.6} ({} failed of {} simulated IOs and checks)",
        "failed_frac",
        ratio(verdict.failed as f64, verdict.attempted as f64),
        verdict.failed,
        verdict.attempted
    );
    for f in &verdict.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let correct = verdict.failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, verdict.attempted, verdict.failed, &values)
    );
    if !correct {
        std::process::exit(1);
    }
}
