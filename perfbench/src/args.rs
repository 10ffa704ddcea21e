//! Command-line parsing.

use std::fmt;

/// The seed the committed goldens were generated with, and the default.
pub const GOLDEN_SEED: u64 = 42;

pub const USAGE: &str = "usage: perfbench --workload <fio_randwrite|fio_randread|placement> \
[--seed N (default 42)] [--seconds N (default 10)] [--trace 0|1 (default 0)]";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig 10 random-write grid through `run_experiment`.
    FioRandwrite,
    /// The same grid with random reads.
    FioRandread,
    /// The canonical temperature-driven placement cluster.
    Placement,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FioRandwrite,
        Workload::FioRandread,
        Workload::Placement,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FioRandwrite => "fio_randwrite",
            Workload::FioRandread => "fio_randread",
            Workload::Placement => "placement",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds the measured repetitions must cover.
    pub seconds: f64,
    /// Run the traced pass that reports the per-layer metrics.
    pub trace: bool,
}

/// Parses `--flag value` pairs; `--workload` is required.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = GOLDEN_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be a non-negative integer, got {value:?}"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be positive, got {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn seed_defaults_to_the_golden_seed() {
        let a = parse(argv("--workload placement")).unwrap();
        assert_eq!(a.seed, GOLDEN_SEED);
        assert_eq!(a.workload, Workload::Placement);
        assert!(!a.trace);
    }

    #[test]
    fn full_command_line_parses() {
        let a = parse(argv(
            "--workload fio_randread --seed 18446744073709551615 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::FioRandread,
                seed: u64::MAX,
                seconds: 12.0,
                trace: true
            }
        );
    }

    #[test]
    fn bad_seeds_are_rejected() {
        for bad in ["-1", "1.5", "x", "18446744073709551616", ""] {
            let mut v = argv("--workload placement --seed");
            v.push(bad.to_string());
            assert!(parse(v).is_err(), "accepted seed {bad:?}");
        }
        assert!(parse(argv("--workload placement --seed")).is_err());
    }

    #[test]
    fn other_bad_arguments_are_rejected() {
        for bad in [
            "",
            "--workload nope",
            "--workload placement --trace 2",
            "--workload placement --seconds 0",
            "--workload placement --seconds nan",
            "--workload placement --bogus 1",
        ] {
            assert!(parse(argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
