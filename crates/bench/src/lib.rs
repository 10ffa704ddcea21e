//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper;
//! this library holds the common scaffolding: device factories by label,
//! sweep scales, and table formatting.

// Tests assert on exact expected values: unwraps and bit-exact float
// comparisons are the point there, not a hazard (see workspace lints).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

use powadapt_device::{catalog, StorageDevice};
use powadapt_io::SweepScale;
use powadapt_sim::SimDuration;

pub mod checkpoint;
pub mod figures;
pub mod golden;

/// Labels of the Table 1 devices, in paper order.
pub const TABLE1_LABELS: [&str; 4] = ["SSD1", "SSD2", "SSD3", "HDD"];

/// Returns a factory closure producing fresh instances of the device with
/// the given paper label.
///
/// # Panics
///
/// Panics if the label is unknown.
pub fn factory_for(label: &str, seed: u64) -> impl Fn() -> Box<dyn StorageDevice> + '_ {
    // Validate eagerly so misuse fails fast.
    assert!(
        catalog::by_label(label, seed).is_some(),
        "unknown device label {label}"
    );
    move || catalog::by_label(label, seed).expect("label validated above")
}

/// The scale benchmarks run at, controlled by the `POWADAPT_SCALE`
/// environment variable: `paper` (60 s / 4 GiB, slow), `full` (4 s / 2 GiB),
/// or anything else / unset for `quick` (1.2 s / 4 GiB, 200 ms ramp).
pub fn bench_scale() -> SweepScale {
    // powadapt-lint: allow(D1, reason = "operator-facing scale knob like POWADAPT_WORKERS; at any fixed scale results are bit-identical, and the goldens pin the default")
    match std::env::var("POWADAPT_SCALE").as_deref() {
        Ok("paper") => SweepScale::paper(),
        Ok("full") => SweepScale {
            runtime: SimDuration::from_secs(4),
            size_limit: 2 * powadapt_device::GIB,
            ramp: SimDuration::from_millis(300),
        },
        _ => SweepScale {
            runtime: SimDuration::from_millis(1200),
            size_limit: 4 * powadapt_device::GIB,
            ramp: SimDuration::from_millis(200),
        },
    }
}

/// Applies a `--workers N` (or `-j N`, `--workers=N`) CLI flag by setting
/// `POWADAPT_WORKERS` for this process, so every sweep picks it up through
/// [`powadapt_io::ParallelConfig::from_env`]. A missing or non-integer
/// value prints a usage message and exits 2.
pub fn apply_cli_workers() {
    match parse_cli_workers(std::env::args().skip(1)) {
        Ok(Some(n)) => std::env::set_var("POWADAPT_WORKERS", n.to_string()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}\nusage: --workers N   (N >= 0; 0 = one worker per core)");
            std::process::exit(2);
        }
    }
}

/// Parses the worker count from CLI arguments (program name excluded):
/// `--workers N`, `-j N` or `--workers=N`, where `N` is a non-negative
/// integer (`0` means one worker per core). Unrelated arguments are
/// ignored and the last occurrence wins; `Ok(None)` means the flag is
/// absent.
///
/// # Errors
///
/// Returns a message naming the flag when its value is missing or is not
/// a non-negative integer.
fn parse_cli_workers(args: impl IntoIterator<Item = String>) -> Result<Option<usize>, String> {
    let mut args = args.into_iter();
    let mut workers = None;
    while let Some(a) = args.next() {
        let value = match a.as_str() {
            "--workers" | "-j" => Some(args.next().ok_or_else(|| format!("{a} needs a value"))?),
            _ => a.strip_prefix("--workers=").map(str::to_string),
        };
        if let Some(v) = value {
            let n = v
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("{a}: expected a non-negative integer, got {v:?}"))?;
            workers = Some(n);
        }
    }
    Ok(workers)
}

/// Returns the value of a `--name VALUE` or `--name=VALUE` CLI flag, if
/// present (last occurrence wins).
pub fn cli_flag_value(name: &str) -> Option<String> {
    let mut found = None;
    let mut args = std::env::args().skip(1);
    let prefix = format!("{name}=");
    while let Some(a) = args.next() {
        if a == name {
            found = args.next();
        } else if let Some(v) = a.strip_prefix(&prefix) {
            found = Some(v.to_string());
        }
    }
    found
}

/// Starts the process-wide trace session configured by `POWADAPT_TRACE`
/// and `--trace-out` (see [`powadapt_obs::TraceConfig::from_env_and_cli`]).
/// Call first thing in `main`, before any devices are built, so every
/// construction-time recorder capture sees the installed sink; hand the
/// returned session to [`finish_tracing`] at the end.
pub fn start_tracing() -> powadapt_obs::TraceSession {
    powadapt_obs::TraceSession::from_env()
}

/// Uninstalls the recorder and writes the configured trace outputs. A
/// failure to write is reported on stderr and never fails the figure run.
pub fn finish_tracing(session: powadapt_obs::TraceSession) {
    if let Err(e) = session.finish() {
        eprintln!("powadapt-obs: could not write trace output: {e}");
    }
}

/// Prints the process-wide executor counters to stderr (stdout stays
/// byte-identical across worker counts).
pub fn report_executor(context: &str) {
    let s = powadapt_io::session_stats();
    if s.sweeps > 0 {
        eprintln!("[{context}] executor: {s}");
    }
}

/// Prints a row of fixed-width cells (simple table formatting for the
/// figure binaries).
pub fn print_row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_resolve_all_table1_labels() {
        for l in TABLE1_LABELS {
            let f = factory_for(l, 1);
            assert_eq!(f().spec().label(), l);
        }
    }

    #[test]
    #[should_panic(expected = "unknown device label")]
    fn unknown_label_panics() {
        let _ = factory_for("SSD9", 1);
    }

    fn workers(args: &[&str]) -> Result<Option<usize>, String> {
        parse_cli_workers(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn cli_workers_accepts_non_negative_integers() {
        assert_eq!(workers(&[]), Ok(None));
        assert_eq!(workers(&["--check", "f.json"]), Ok(None));
        assert_eq!(workers(&["--workers", "4"]), Ok(Some(4)));
        assert_eq!(workers(&["-j", "0"]), Ok(Some(0)));
        assert_eq!(workers(&["--workers=2", "-j", "8"]), Ok(Some(8)));
    }

    #[test]
    fn cli_workers_rejects_junk_and_missing_values() {
        assert!(workers(&["--workers", "abc"]).is_err());
        assert!(workers(&["--workers=-1"]).is_err());
        assert!(workers(&["--workers="]).is_err());
        assert!(workers(&["-j", "2.5"]).is_err());
        assert!(workers(&["--workers"]).is_err());
        assert!(workers(&["--workers", "4", "-j"]).is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.257), "1.26");
    }
}
