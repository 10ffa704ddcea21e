//! Where each rule applies: path-level scoping and test-region detection.
//!
//! The rules are invariants about *shipped* simulation/measurement code,
//! so three kinds of source are exempt:
//!
//! - integration tests (`tests/` directories) and examples — never in a
//!   figure's data path,
//! - inline `#[cfg(test)]` modules and `#[test]` functions,
//! - an explicit per-file allowlist for the places whose whole job is the
//!   thing a rule forbids (the parallel executor owns the host clock).

use crate::diag::RuleId;
use crate::lexer::{Lexed, Tok, TokKind};

/// Files exempt from specific rules, with the reason recorded here so the
/// allowlist is reviewable in one place.
///
/// Keep this list short: inline `// powadapt-lint: allow(...)` is the
/// preferred mechanism because it sits next to the code it excuses. A
/// file-level entry is only for files whose *purpose* is the exemption.
pub const FILE_ALLOWLIST: &[(&str, RuleId, &str)] = &[
    (
        // The executor is the one component whose job is wall-clock timing
        // (the session busy-time counter) and host configuration (the
        // POWADAPT_WORKERS worker count). Nothing it derives from the clock
        // or environment feeds figure data — the golden fixtures prove
        // results are bit-identical across worker counts.
        "crates/io/src/parallel.rs",
        RuleId::D1,
        "parallel executor owns host timing and worker-count configuration",
    ),
    (
        // The kernel throughput bench exists to measure wall-clock time:
        // it times both event-queue kernels on one deterministic op
        // stream and reports events/sec. Nothing clock-derived feeds
        // figure data — BENCH_kernel.json is gated on the speedup ratio,
        // and the op stream itself is SimRng-seeded.
        "crates/bench/src/bin/kernel_bench.rs",
        RuleId::D1,
        "kernel bench's purpose is wall-clock throughput measurement",
    ),
    (
        // The observability overhead bench times the same deterministic
        // workload untraced vs. traced and gates on the wall-clock ratio.
        // Host time is the measurand, never an input: the workload is
        // SimRng-seeded and BENCH_obs.json is gated on the overhead
        // ratio, not on any absolute timing.
        "crates/bench/src/bin/obs_bench.rs",
        RuleId::D1,
        "obs bench's purpose is wall-clock overhead measurement",
    ),
];

/// Path predicates for one rule.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Is this file library/binary source (as opposed to tests or examples)?
fn is_shipped_source(path: &str) -> bool {
    !path.contains("/tests/")
        && !path.starts_with("tests/")
        && !path.contains("/examples/")
        && !path.starts_with("examples/")
}

/// Does `rule` apply to the file at `path` (workspace-relative, `/`
/// separated)? Test regions inside the file are handled separately by
/// [`TestRegions`].
pub fn rule_applies(rule: RuleId, path: &str) -> bool {
    if !is_shipped_source(path) {
        return false;
    }
    if FILE_ALLOWLIST
        .iter()
        .any(|(p, r, _)| *p == path && *r == rule)
    {
        return false;
    }
    let in_crates = |names: &[&str]| crate_of(path).is_some_and(|c| names.contains(&c));
    match rule {
        // Determinism is workspace-wide: any crate can end up in a
        // figure's data path.
        RuleId::D1 => true,
        // Result-producing crates per the issue: sim/device/core/model/
        // bench (io's maps never reach output, but its stats do — close
        // the gap by including io's stat modules). obs snapshots and
        // exports feed committed fixtures, so its iteration order must be
        // deterministic too, and cluster reports feed the cluster_eval
        // golden. snap serializes checkpoint state whose byte layout the
        // resume-equivalence goldens pin, so its encoding must be
        // deterministic as well. place decides routing and migration
        // plans that feed the placement_eval golden.
        RuleId::D2 => {
            in_crates(&[
                "sim", "device", "core", "model", "bench", "obs", "cluster", "snap", "place",
            ]) || path == "crates/io/src/stats.rs"
        }
        // Figure/statistics code: everything that orders, ranks, or
        // aggregates floats on the way to a figure.
        RuleId::D3 => {
            in_crates(&["model", "bench"])
                || matches!(
                    path,
                    "crates/sim/src/stats.rs"
                        | "crates/sim/src/rolling.rs"
                        | "crates/io/src/stats.rs"
                )
        }
        // Unit safety on public APIs of the measurement/model/control
        // crates.
        RuleId::D4 => in_crates(&["meter", "model", "core"]),
        // Error flow in the crates that own DeviceError and its
        // propagation (the cluster layer propagates it through
        // ClusterError). snap is fail-closed by contract: corrupt
        // checkpoints must surface as typed SnapErrors, never panics.
        // place's capacity accounting fails closed the same way.
        RuleId::D5 => in_crates(&["device", "io", "core", "cluster", "snap", "place"]),
        // Snapshot completeness covers every crate whose state rides in a
        // checkpoint: the sim kernel, devices, controllers, workloads,
        // obs, the cluster layer, the placement tier, and snap's own
        // codec machinery.
        RuleId::D6 => in_crates(&[
            "sim", "device", "core", "io", "obs", "cluster", "snap", "place",
        ]),
        // Unit-dimension flow: every crate that does arithmetic on the
        // Watts/Joules/Millis/Micros newtypes.
        RuleId::D7 => in_crates(&[
            "sim", "device", "io", "meter", "model", "core", "cluster", "place",
        ]),
        // Obs discipline: the registry lives in obs; emit!/span! call
        // sites live in every crate that records events.
        RuleId::D8 => in_crates(&["obs", "device", "io", "core", "cluster", "sim", "place"]),
        // Hot-path allocation is opt-in via the `hot` directive, so the
        // path scope is the whole workspace — the annotation itself is
        // the perimeter.
        RuleId::D9 => true,
        // Suppression hygiene follows the file, not a crate list.
        RuleId::S0 | RuleId::S1 => true,
    }
}

/// Line ranges (inclusive) covered by `#[cfg(test)]` items or `#[test]`
/// functions; rules skip findings inside them.
#[derive(Debug, Default)]
pub struct TestRegions {
    ranges: Vec<(u32, u32)>,
}

impl TestRegions {
    /// Is `line` inside a test-only region?
    pub fn contains(&self, line: u32) -> bool {
        self.ranges.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// Does an attribute token slice (the tokens between `#[` and `]`) gate
/// its item to test builds? Recognizes `test`, `cfg(test)`, and
/// `cfg(any(test, ...))`; `cfg(not(test))` is the opposite and is not
/// treated as test-gating.
fn attr_is_test_gate(attr: &[Tok]) -> bool {
    let has_test = attr
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "test");
    let has_not = attr
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "not");
    has_test && !has_not
}

/// Finds the test regions of a lexed file.
///
/// For every `#[test]`/`#[cfg(test)]` attribute, the region extends from
/// the attribute to the end of the annotated item: the matching `}` of
/// the item's first brace block, or the terminating `;` for brace-less
/// items (`#[cfg(test)] use ...;`).
pub fn find_test_regions(lexed: &Lexed) -> TestRegions {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Punct && toks[i].text == "#") {
            i += 1;
            continue;
        }
        // `#[ ... ]` — collect the attribute's tokens.
        let Some(open) = toks.get(i + 1) else { break };
        if !(open.kind == TokKind::Punct && open.text == "[") {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        let mut depth = 1i32;
        let mut j = i + 2;
        let attr_start = j;
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let attr = &toks[attr_start..j.saturating_sub(1)];
        if !attr_is_test_gate(attr) {
            i = j;
            continue;
        }
        // Walk forward to the item body: first `{` starts a brace block
        // to match; a `;` at brace depth 0 first means a brace-less item.
        let mut k = j;
        let mut end_line = start_line;
        let mut brace_depth = 0i32;
        let mut entered = false;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => {
                    brace_depth += 1;
                    entered = true;
                }
                "}" => {
                    brace_depth -= 1;
                    if entered && brace_depth == 0 {
                        end_line = toks[k].line;
                        k += 1;
                        break;
                    }
                }
                ";" if !entered && brace_depth == 0 => {
                    end_line = toks[k].line;
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if k >= toks.len() {
            end_line = toks.last().map_or(start_line, |t| t.line);
        }
        regions.push((start_line, end_line));
        i = k;
    }
    TestRegions { ranges: regions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_mod_is_a_region() {
        let src =
            "fn shipped() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn also_shipped() {}\n";
        let regions = find_test_regions(&lex(src));
        assert!(!regions.contains(1));
        assert!(regions.contains(2));
        assert!(regions.contains(4));
        assert!(regions.contains(5));
        assert!(!regions.contains(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_region() {
        let src = "#[cfg(not(test))]\nfn shipped() {}\n";
        let regions = find_test_regions(&lex(src));
        assert!(!regions.contains(2));
    }

    #[test]
    fn braceless_item() {
        let src = "#[cfg(test)]\nuse std::collections::HashSet;\nfn shipped() {}\n";
        let regions = find_test_regions(&lex(src));
        assert!(regions.contains(2));
        assert!(!regions.contains(3));
    }

    #[test]
    fn scoping_by_path() {
        assert!(rule_applies(RuleId::D2, "crates/device/src/ssd/mod.rs"));
        assert!(rule_applies(RuleId::D2, "crates/obs/src/metrics.rs"));
        assert!(rule_applies(RuleId::D1, "crates/obs/src/recorder.rs"));
        assert!(!rule_applies(RuleId::D2, "crates/io/src/parallel.rs"));
        assert!(!rule_applies(RuleId::D1, "crates/io/src/parallel.rs"));
        assert!(rule_applies(RuleId::D1, "crates/io/src/fleet.rs"));
        assert!(!rule_applies(
            RuleId::D5,
            "crates/device/tests/properties.rs"
        ));
        assert!(rule_applies(RuleId::D4, "crates/meter/src/rig.rs"));
        assert!(!rule_applies(RuleId::D4, "crates/device/src/device.rs"));
        assert!(rule_applies(RuleId::D1, "crates/cluster/src/sim.rs"));
        assert!(rule_applies(RuleId::D2, "crates/cluster/src/tree.rs"));
        assert!(rule_applies(RuleId::D5, "crates/cluster/src/sim.rs"));
        assert!(!rule_applies(RuleId::D4, "crates/cluster/src/tree.rs"));
        assert!(!rule_applies(
            RuleId::D5,
            "crates/cluster/tests/oversubscription.rs"
        ));
        assert!(rule_applies(RuleId::D1, "crates/snap/src/lib.rs"));
        assert!(rule_applies(RuleId::D2, "crates/snap/src/lib.rs"));
        assert!(rule_applies(RuleId::D5, "crates/snap/src/lib.rs"));
        assert!(!rule_applies(RuleId::D4, "crates/snap/src/lib.rs"));
        assert!(!rule_applies(RuleId::D5, "crates/snap/tests/properties.rs"));
        // The sim-kernel overhaul modules sit squarely inside the
        // perimeter: the calendar queue and slab arena order every event
        // in every figure's data path, and the kernel bench produces the
        // committed BENCH_kernel.json.
        assert!(rule_applies(RuleId::D1, "crates/sim/src/queue.rs"));
        assert!(rule_applies(RuleId::D2, "crates/sim/src/queue.rs"));
        assert!(rule_applies(RuleId::D1, "crates/sim/src/slab.rs"));
        assert!(rule_applies(RuleId::D2, "crates/sim/src/slab.rs"));
        assert!(rule_applies(
            RuleId::D2,
            "crates/bench/src/bin/kernel_bench.rs"
        ));
        // ... except D1: the kernel bench's purpose is wall-clock timing,
        // so it carries an allowlist entry like the parallel executor.
        assert!(!rule_applies(
            RuleId::D1,
            "crates/bench/src/bin/kernel_bench.rs"
        ));
        // The placement tier's routing and migration plans feed the
        // placement_eval golden, so it sits inside the perimeter.
        assert!(rule_applies(RuleId::D1, "crates/place/src/tier.rs"));
        assert!(rule_applies(RuleId::D2, "crates/place/src/tier.rs"));
        assert!(rule_applies(RuleId::D5, "crates/place/src/tier.rs"));
        assert!(!rule_applies(RuleId::D4, "crates/place/src/tier.rs"));
        assert!(!rule_applies(
            RuleId::D2,
            "crates/place/tests/properties.rs"
        ));
        // The differential harness is a test target, outside the perimeter.
        assert!(!rule_applies(RuleId::D2, "tests/queue_equivalence.rs"));
        assert!(!rule_applies(RuleId::D5, "tests/queue_equivalence.rs"));
        assert!(!rule_applies(RuleId::D2, "crates/sim/tests/properties.rs"));
    }

    #[test]
    fn semantic_rule_scoping_by_path() {
        // D6 covers exactly the crates whose state rides in a checkpoint.
        for p in [
            "crates/sim/src/queue.rs",
            "crates/device/src/ssd/mod.rs",
            "crates/core/src/controller.rs",
            "crates/io/src/openloop.rs",
            "crates/obs/src/recorder.rs",
            "crates/cluster/src/sim.rs",
            "crates/place/src/tier.rs",
            "crates/snap/src/lib.rs",
        ] {
            assert!(rule_applies(RuleId::D6, p), "D6 must cover {p}");
        }
        assert!(!rule_applies(RuleId::D6, "crates/model/src/lib.rs"));
        assert!(!rule_applies(
            RuleId::D6,
            "crates/bench/src/bin/kernel_bench.rs"
        ));

        // D7 covers every crate doing unit-newtype arithmetic.
        for p in [
            "crates/sim/src/units.rs",
            "crates/device/src/hdd/mod.rs",
            "crates/io/src/fleet.rs",
            "crates/meter/src/rig.rs",
            "crates/model/src/lib.rs",
            "crates/core/src/controller.rs",
            "crates/cluster/src/tenant.rs",
            "crates/place/src/tier.rs",
        ] {
            assert!(rule_applies(RuleId::D7, p), "D7 must cover {p}");
        }
        assert!(!rule_applies(RuleId::D7, "crates/obs/src/recorder.rs"));

        // D8 covers the registry's home plus every emitting crate.
        for p in [
            "crates/obs/src/recorder.rs",
            "crates/device/src/fault.rs",
            "crates/io/src/fleet.rs",
            "crates/core/src/controller.rs",
            "crates/cluster/src/sim.rs",
            "crates/sim/src/queue.rs",
            "crates/place/src/tier.rs",
        ] {
            assert!(rule_applies(RuleId::D8, p), "D8 must cover {p}");
        }
        assert!(!rule_applies(RuleId::D8, "crates/model/src/lib.rs"));

        // D9's path scope is the whole workspace — the hot annotation is
        // the perimeter — but never tests or examples.
        assert!(rule_applies(RuleId::D9, "crates/sim/src/queue.rs"));
        assert!(rule_applies(
            RuleId::D9,
            "crates/bench/src/bin/kernel_bench.rs"
        ));
        assert!(!rule_applies(RuleId::D9, "crates/sim/tests/properties.rs"));
        assert!(!rule_applies(
            RuleId::D9,
            "examples/cluster_oversubscription.rs"
        ));
    }
}
