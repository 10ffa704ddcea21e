//! Chrome `trace_event` JSON export, loadable in Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`.
//!
//! Mapping:
//!
//! - every distinct `track` becomes a named thread row (pid 1, one tid per
//!   track, sorted, so the layout is stable run-to-run);
//! - [`EventKind::Span`] becomes a complete (`"ph": "X"`) slice with
//!   microsecond `ts`/`dur` rendered as exact decimal nanofractions;
//! - [`EventKind::PowerSample`] becomes a counter (`"ph": "C"`) track, so
//!   Perfetto draws the rig's power waveform alongside the IO slices —
//!   the paper's Figure 3/6 timeline view, reproduced from a simulation;
//! - everything else becomes an instant (`"ph": "i"`) with its payload in
//!   `args`.
//!
//! All numbers are rendered with `{:?}` (shortest round-trip float form)
//! or as integers, so the same events always produce byte-identical JSON.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::metrics::push_json_string;

/// Microsecond timestamp with exact sub-microsecond fraction: Chrome's
/// `ts` unit is µs but fractional values are allowed; dividing by 1000
/// in decimal keeps nanosecond precision without float rounding.
fn micros(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        whole.to_string()
    } else {
        format!("{whole}.{frac:03}")
    }
}

fn push_common(out: &mut String, name: &str, ph: char, ts_ns: u64, tid: usize) {
    out.push_str("{\"name\": ");
    push_json_string(out, name);
    out.push_str(&format!(
        ", \"ph\": \"{ph}\", \"ts\": {}, \"pid\": 1, \"tid\": {tid}",
        micros(ts_ns)
    ));
}

fn push_args(out: &mut String, args: &[(&str, String)]) {
    out.push_str(", \"args\": {");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_string(out, k);
        out.push_str(": ");
        out.push_str(v);
    }
    out.push('}');
}

fn jstr(s: &str) -> String {
    let mut out = String::new();
    push_json_string(&mut out, s);
    out
}

/// Renders `events` as a Chrome `trace_event` JSON document.
pub fn chrome_trace(events: &[Event]) -> String {
    // Stable tid assignment: sorted track names.
    let mut tids: BTreeMap<&str, usize> = BTreeMap::new();
    for e in events {
        let next = tids.len();
        tids.entry(e.track).or_insert(next);
    }
    let mut tracks: Vec<&str> = tids.keys().copied().collect();
    tracks.sort_unstable();
    let tids: BTreeMap<&str, usize> = tracks.iter().enumerate().map(|(i, t)| (*t, i)).collect();

    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    let mut push_line = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(&line);
    };

    // Thread-name metadata first, in tid order.
    for track in &tracks {
        let tid = tids[track];
        let mut line = String::new();
        line.push_str("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, ");
        line.push_str(&format!("\"tid\": {tid}, \"args\": {{\"name\": "));
        push_json_string(&mut line, track);
        line.push_str("}}");
        push_line(line, &mut out);
    }

    for e in events {
        let tid = tids[e.track];
        let ns = e.at.as_nanos();
        let mut line = String::new();
        match &e.kind {
            EventKind::Span { label, dur } => {
                push_common(&mut line, label, 'X', ns, tid);
                line.push_str(&format!(", \"dur\": {}}}", micros(dur.as_nanos())));
            }
            EventKind::PowerSample { watts } => {
                // One counter track per source; Perfetto renders it as a
                // stepped waveform.
                push_common(&mut line, &format!("{} power (W)", e.track), 'C', ns, tid);
                push_args(&mut line, &[("watts", format!("{watts:?}"))]);
                line.push('}');
            }
            kind => {
                push_common(&mut line, kind.name(), 'i', ns, tid);
                line.push_str(", \"s\": \"t\"");
                push_args(&mut line, &instant_args(kind));
                line.push('}');
            }
        }
        push_line(line, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// Typed payload → `args` key/value pairs (values pre-rendered as JSON).
fn instant_args(kind: &EventKind) -> Vec<(&'static str, String)> {
    match kind {
        EventKind::IoSubmit { id, dir, len } => vec![
            ("id", id.to_string()),
            ("dir", jstr(dir.as_str())),
            ("len", len.to_string()),
        ],
        EventKind::IoComplete {
            id,
            dir,
            len,
            latency,
        } => vec![
            ("id", id.to_string()),
            ("dir", jstr(dir.as_str())),
            ("len", len.to_string()),
            ("latency_us", format!("{:?}", latency.as_secs_f64() * 1e6)),
        ],
        EventKind::IoError { id, error } => vec![("id", id.to_string()), ("error", jstr(error))],
        EventKind::ArrivalDropped { id } => vec![("id", id.to_string())],
        EventKind::PowerStateTransition { from, to } => {
            vec![("from", from.to_string()), ("to", to.to_string())]
        }
        EventKind::CapApplied { cap_w, power_w } => vec![
            ("cap_w", format!("{cap_w:?}")),
            ("power_w", format!("{power_w:?}")),
        ],
        EventKind::FaultInjected { fault } => vec![("fault", jstr(fault))],
        EventKind::ControllerDecision(d) => vec![
            ("budget_w", format!("{:?}", d.budget_w)),
            ("measured_w", format!("{:?}", d.measured_w)),
            ("expected_power_w", format!("{:?}", d.expected_power_w)),
            (
                "expected_throughput_bps",
                format!("{:?}", d.expected_throughput_bps),
            ),
            ("quarantined", jstr_list(&d.quarantined)),
            ("degraded", jstr_list(&d.degraded)),
        ],
        EventKind::BreakerTrip { node } | EventKind::BreakerRestore { node } => {
            vec![("node", jstr(node))]
        }
        EventKind::RebalanceDecision(d) => vec![
            ("node", jstr(&d.node)),
            ("cap_w", format!("{:?}", d.cap_w)),
            ("granted_w", format!("{:?}", d.granted_w)),
            ("demand_w", format!("{:?}", d.demand_w)),
        ],
        EventKind::EnergyAttributed(e) => vec![
            ("node", jstr(&e.node)),
            ("joules", format!("{:?}", e.joules)),
            ("stranded_w", format!("{:?}", e.stranded_w)),
        ],
        EventKind::ConservationViolation(v) => {
            vec![("node", jstr(&v.node)), ("detail", jstr(&v.detail))]
        }
        EventKind::SloBurnAlert { tenant, burn_rate } => vec![
            ("tenant", jstr(tenant)),
            ("burn_rate", format!("{burn_rate:?}")),
        ],
        EventKind::PlacementDecision {
            extent,
            primary,
            replicas,
        } => vec![
            ("extent", extent.to_string()),
            ("primary", primary.to_string()),
            ("replicas", replicas.to_string()),
        ],
        EventKind::MigrationStarted { extent, from, to }
        | EventKind::MigrationCompleted { extent, from, to } => vec![
            ("extent", extent.to_string()),
            ("from", from.to_string()),
            ("to", to.to_string()),
        ],
        EventKind::RoutedAround { id, skipped } => {
            vec![("id", id.to_string()), ("skipped", skipped.to_string())]
        }
        _ => Vec::new(),
    }
}

/// Renders `events` as deterministic JSON-lines: one object per event,
/// fixed key order (`at` in ns, `track`, `kind`, then the typed payload).
/// This is the machine-diffable companion to [`chrome_trace`] — the
/// `trace_query` CLI filters, summarizes, and diffs these files.
pub fn events_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str("{\"at\": ");
        out.push_str(&e.at.as_nanos().to_string());
        out.push_str(", \"track\": ");
        push_json_string(&mut out, e.track);
        out.push_str(", \"kind\": ");
        push_json_string(&mut out, e.kind.name());
        for (k, v) in jsonl_args(&e.kind) {
            out.push_str(", ");
            push_json_string(&mut out, k);
            out.push_str(": ");
            out.push_str(&v);
        }
        out.push_str("}\n");
    }
    out
}

/// Payload args for the JSONL export: like [`instant_args`], plus the
/// kinds the Chrome export renders specially.
fn jsonl_args(kind: &EventKind) -> Vec<(&'static str, String)> {
    match kind {
        EventKind::Span { label, dur } => vec![
            ("label", jstr(label)),
            ("dur_ns", dur.as_nanos().to_string()),
        ],
        EventKind::PowerSample { watts } => vec![("watts", format!("{watts:?}"))],
        kind => instant_args(kind),
    }
}

fn jstr_list(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_string(&mut out, item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IoDir;
    use powadapt_sim::{SimDuration, SimTime};

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn micros_renders_exact_fractions() {
        assert_eq!(micros(0), "0");
        assert_eq!(micros(1_000), "1");
        assert_eq!(micros(1_500), "1.500");
        assert_eq!(micros(42), "0.042");
    }

    #[test]
    fn trace_has_thread_names_spans_and_counters() {
        let events = vec![
            Event {
                at: at(1_000),
                track: "device0",
                kind: EventKind::Span {
                    label: "die0.program",
                    dur: SimDuration::from_micros(200),
                },
            },
            Event {
                at: at(2_000),
                track: "meter",
                kind: EventKind::PowerSample { watts: 11.25 },
            },
            Event {
                at: at(3_000),
                track: "device0",
                kind: EventKind::IoSubmit {
                    id: 9,
                    dir: IoDir::Write,
                    len: 4096,
                },
            },
        ];
        let json = chrome_trace(&events);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\": \"device0\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 200"));
        assert!(json.contains("meter power (W)"));
        assert!(json.contains("\"watts\": 11.25"));
        assert!(json.contains("\"io_submit\""));
        assert!(json.ends_with("]}\n"));
        // Deterministic: same events, same bytes.
        assert_eq!(json, chrome_trace(&events));
    }

    #[test]
    fn events_jsonl_is_one_object_per_line() {
        let events = vec![
            Event {
                at: at(1_000),
                track: "device0",
                kind: EventKind::IoSubmit {
                    id: 9,
                    dir: IoDir::Write,
                    len: 4096,
                },
            },
            Event {
                at: at(2_000),
                track: "meter",
                kind: EventKind::PowerSample { watts: 11.25 },
            },
            Event {
                at: at(3_000),
                track: "device0",
                kind: EventKind::Span {
                    label: "die0.program",
                    dur: SimDuration::from_micros(200),
                },
            },
        ];
        let jsonl = events_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"at\": 1000, \"track\": \"device0\", \"kind\": \"io_submit\", \
             \"id\": 9, \"dir\": \"write\", \"len\": 4096}"
        );
        assert!(lines[1].contains("\"watts\": 11.25"));
        assert!(lines[2].contains("\"dur_ns\": 200000"));
        assert_eq!(jsonl, events_jsonl(&events));
    }

    #[test]
    fn tids_are_sorted_by_track_name() {
        let events = vec![
            Event {
                at: at(0),
                track: "zeta",
                kind: EventKind::SpinUp,
            },
            Event {
                at: at(1),
                track: "alpha",
                kind: EventKind::SpinDown,
            },
        ];
        let json = chrome_trace(&events);
        let alpha = json.find("\"name\": \"alpha\"").unwrap_or(usize::MAX);
        let zeta = json.find("\"name\": \"zeta\"").unwrap_or(usize::MAX);
        assert!(alpha < zeta);
    }
}
