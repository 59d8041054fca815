//! The top-level cross-run comparison: dataset rows, remediation
//! tallies, trace first-divergence forensics, and (opt-in) telemetry.
//!
//! A [`RunDiff`] is what the `diff` CLI prints and what CI byte-compares:
//! both renderings ([`RunDiff::render_text`] and [`RunDiff::to_json`])
//! are deterministic functions of the two runs' artifacts, so running
//! the same comparison twice yields byte-identical output.
//!
//! The telemetry delta is deliberately *informational*: counters like
//! cache hits vary with worker count even when every probe outcome is
//! identical, so it never counts toward [`RunDiff::differences`] and is
//! only rendered when explicitly requested.

use std::fmt::Write as _;

use govdns_model::persist::{escape_into, parse, Value};
use govdns_telemetry::{
    HistogramSnapshot, QueryLedger, ScalarDelta, TelemetryDelta, TelemetrySnapshot,
};
use govdns_trace::{align_blocks, divergence_context, first_divergence, TraceLog};

use crate::dataset::{DatasetDiff, DomainRow};
use crate::smelldiff::{SmellDiff, SmellTransition};

/// How much surrounding timeline a first-divergence report carries.
const CONTEXT_RADIUS: usize = 3;

/// How many diverged domains get full timelines in text mode before the
/// rendering switches to a count (all of them are always in the JSON).
const DETAIL_CAP: usize = 5;

/// One aligned trace block pair that disagrees, with the first
/// disagreeing event and its surrounding timeline from both runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDivergence {
    /// The domain.
    pub domain: String,
    /// Position of the first disagreeing event in both streams.
    pub pos: usize,
    /// Run A's event at `pos` (rendered), if its stream reaches it.
    pub a_event: Option<String>,
    /// Run B's event at `pos` (rendered), if its stream reaches it.
    pub b_event: Option<String>,
    /// Run A's timeline around `pos`, divergent line marked.
    pub a_context: Vec<String>,
    /// Run B's timeline around `pos`, divergent line marked.
    pub b_context: Vec<String>,
}

/// Everything that differs between two trace files' domain blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDiff {
    /// Domain blocks aligned by name across the two files.
    pub aligned: usize,
    /// Aligned blocks whose event streams agree exactly.
    pub identical: usize,
    /// Domains only run A sampled, name order.
    pub only_a: Vec<String>,
    /// Domains only run B sampled, name order.
    pub only_b: Vec<String>,
    /// Aligned blocks that disagree, name order, each with its first
    /// divergence located.
    pub diverged: Vec<BlockDivergence>,
}

impl TraceDiff {
    /// Compares two trace logs block-by-block.
    pub fn compare(a: &TraceLog, b: &TraceLog) -> TraceDiff {
        let mut diff = TraceDiff::default();
        for pair in align_blocks(a, b) {
            match (pair.a, pair.b) {
                (Some(_), None) => diff.only_a.push(pair.domain.to_owned()),
                (None, Some(_)) => diff.only_b.push(pair.domain.to_owned()),
                (None, None) => {}
                (Some(ba), Some(bb)) => {
                    diff.aligned += 1;
                    match first_divergence(ba, bb) {
                        None => diff.identical += 1,
                        Some(d) => diff.diverged.push(BlockDivergence {
                            domain: pair.domain.to_owned(),
                            pos: d.pos,
                            a_event: d.a.as_ref().map(|e| e.render()),
                            b_event: d.b.as_ref().map(|e| e.render()),
                            a_context: divergence_context(ba, d.pos, CONTEXT_RADIUS),
                            b_context: divergence_context(bb, d.pos, CONTEXT_RADIUS),
                        }),
                    }
                }
            }
        }
        diff
    }

    /// Whether both files sampled the same domains with identical
    /// event streams.
    pub fn is_empty(&self) -> bool {
        self.only_a.is_empty() && self.only_b.is_empty() && self.diverged.is_empty()
    }

    /// Number of differing blocks.
    pub fn differences(&self) -> usize {
        self.only_a.len() + self.only_b.len() + self.diverged.len()
    }
}

/// Rendering filters for [`RunDiff::render_text`].
#[derive(Debug, Clone, Default)]
pub struct RenderOptions {
    /// Only show changed entries; skip the summary panels.
    pub only_changed: bool,
    /// Restrict per-domain detail (transitions, shifts, divergence
    /// timelines) to this domain, and lift the detail cap for it.
    pub domain: Option<String>,
}

/// The complete structured comparison of two campaign runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunDiff {
    /// Per-domain dataset comparison.
    pub dataset: DatasetDiff,
    /// Remediation-tally deltas (`remedies.json`), name order; empty
    /// when both runs prescribed identical remediation.
    pub remedies: Vec<ScalarDelta<u64>>,
    /// Smell-verdict transitions (`smells.json`), when both runs kept a
    /// smell report. Smell verdicts are worker-count-invariant, so this
    /// counts toward [`RunDiff::differences`] like remediation does.
    pub smells: Option<SmellDiff>,
    /// Trace comparison, when both runs kept a trace file.
    pub trace: Option<TraceDiff>,
    /// Telemetry delta, when requested. Informational only: counters
    /// vary with worker count even on identical probe outcomes, so this
    /// never counts toward [`RunDiff::differences`].
    pub telemetry: Option<TelemetryDelta>,
}

impl RunDiff {
    /// Whether the runs agree on everything that is expected to
    /// reproduce (dataset rows, remediation, trace streams).
    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
            && self.remedies.is_empty()
            && self.smells.as_ref().is_none_or(SmellDiff::is_empty)
            && self.trace.as_ref().is_none_or(TraceDiff::is_empty)
    }

    /// Number of reproducible-surface differences.
    pub fn differences(&self) -> usize {
        self.dataset.differences()
            + self.remedies.len()
            + self.smells.as_ref().map_or(0, SmellDiff::differences)
            + self.trace.as_ref().map_or(0, TraceDiff::differences)
    }

    /// Deterministic human-readable rendering.
    pub fn render_text(&self, opts: &RenderOptions) -> String {
        let mut out = String::new();
        let d = &self.dataset;
        let wants = |name: &str| opts.domain.as_deref().is_none_or(|want| want == name);
        if !opts.only_changed {
            let _ = writeln!(out, "domains measured:    {} vs {}", d.domains.0, d.domains.1);
            out.push_str("class totals (A -> B):\n");
            for (class, a, b) in &d.class_totals {
                let _ = writeln!(out, "  {:<13} {a} -> {b}", class.as_str());
            }
            let _ = writeln!(out, "degraded domains:    {} -> {}", d.degraded.0, d.degraded.1);
            let _ = writeln!(
                out,
                "delivery attempts:   {} -> {}",
                d.attempts_total.0, d.attempts_total.1
            );
            for (label, r) in [("A", &d.rtt.0), ("B", &d.rtt.1)] {
                let _ = writeln!(
                    out,
                    "elapsed-ms {label}:        mean {} p50 {} p90 {} p99 {} max {}",
                    r.mean_ms, r.p50_ms, r.p90_ms, r.p99_ms, r.max_ms
                );
            }
        }
        for (label, names) in [("only in A", &d.only_a), ("only in B", &d.only_b)] {
            if !names.is_empty() {
                let _ = writeln!(out, "{label} ({}):", names.len());
                for name in names.iter().filter(|n| wants(n)) {
                    let _ = writeln!(out, "  {name}");
                }
            }
        }
        if !d.transitions.is_empty() {
            let _ = writeln!(out, "class transitions ({}):", d.transitions.len());
            for t in d.transitions.iter().filter(|t| wants(&t.domain)) {
                let _ = writeln!(out, "  {:<40} {} -> {}", t.domain, t.from, t.to);
            }
        }
        if !d.shifts.is_empty() {
            let _ = writeln!(out, "numeric shifts ({}):", d.shifts.len());
            for s in d.shifts.iter().filter(|s| wants(&s.domain)) {
                let _ = writeln!(out, "  {:<40} {}", s.domain, shift_line(&s.a, &s.b));
            }
        }
        if !self.remedies.is_empty() {
            let _ = writeln!(out, "remediation deltas ({}):", self.remedies.len());
            for r in &self.remedies {
                let _ = writeln!(out, "  {:<30} {} -> {}", r.name, r.a, r.b);
            }
        }
        if let Some(s) = &self.smells {
            if !opts.only_changed || !s.is_empty() {
                let _ = writeln!(out, "smell verdicts:      {} -> {}", s.totals.0, s.totals.1);
            }
            let sections = [
                ("smells appeared", &s.appeared),
                ("smells resolved", &s.resolved),
                ("smell severity shifts", &s.shifted),
            ];
            for (label, list) in sections {
                if !list.is_empty() {
                    let _ = writeln!(out, "{label} ({}):", list.len());
                    for t in list.iter().filter(|t| wants(&t.domain)) {
                        let _ = writeln!(
                            out,
                            "  {:<40} {:<20} {} -> {}",
                            t.domain,
                            t.kind,
                            severity_cell(t.a),
                            severity_cell(t.b)
                        );
                    }
                }
            }
        }
        if let Some(t) = &self.trace {
            if !opts.only_changed || !t.is_empty() {
                let _ = writeln!(
                    out,
                    "trace blocks:        {} aligned, {} identical, {} diverged, {} unmatched",
                    t.aligned,
                    t.identical,
                    t.diverged.len(),
                    t.only_a.len() + t.only_b.len()
                );
            }
            let detailed: Vec<&BlockDivergence> =
                t.diverged.iter().filter(|b| wants(&b.domain)).collect();
            let cap = if opts.domain.is_some() { usize::MAX } else { DETAIL_CAP };
            for b in detailed.iter().take(cap) {
                let _ = writeln!(out, "first divergence in {} at event {}:", b.domain, b.pos);
                let _ = writeln!(out, "  run A:");
                for line in &b.a_context {
                    let _ = writeln!(out, "    {line}");
                }
                let _ = writeln!(out, "  run B:");
                for line in &b.b_context {
                    let _ = writeln!(out, "    {line}");
                }
            }
            if detailed.len() > cap {
                let _ = writeln!(
                    out,
                    "  ... {} more diverged domains (use --domain NAME for one, --json for all)",
                    detailed.len() - cap
                );
            }
        }
        if let Some(t) = &self.telemetry {
            out.push_str(&t.render_text());
        }
        if self.is_empty() {
            out.push_str("runs are identical\n");
        } else {
            let _ = writeln!(out, "total differences:   {}", self.differences());
        }
        out
    }

    /// Canonical JSON rendering: fixed field order, no whitespace —
    /// byte-stable for CI comparison. This is the machine gate artifact,
    /// so it carries only worker-count-invariant content: the
    /// cache-warmth-sensitive RTT distribution panels appear in the
    /// text rendering only, and two same-seed runs produce identical
    /// JSON diffs against any third run regardless of worker counts.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let d = &self.dataset;
        let _ = write!(out, "{{\"differences\":{}", self.differences());
        let _ = write!(out, ",\"dataset\":{{\"domains\":[{},{}]", d.domains.0, d.domains.1);
        json_names(&mut out, ",\"only_a\":", &d.only_a);
        json_names(&mut out, ",\"only_b\":", &d.only_b);
        out.push_str(",\"transitions\":[");
        for (i, t) in d.transitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"domain\":");
            escape_into(&t.domain, &mut out);
            let _ = write!(out, ",\"from\":\"{}\",\"to\":\"{}\"}}", t.from, t.to);
        }
        out.push_str("],\"shifts\":[");
        for (i, s) in d.shifts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"domain\":");
            escape_into(&s.domain, &mut out);
            out.push_str(",\"a\":");
            json_row(&mut out, &s.a);
            out.push_str(",\"b\":");
            json_row(&mut out, &s.b);
            out.push('}');
        }
        out.push_str("],\"class_totals\":[");
        for (i, (class, a, b)) in d.class_totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[\"{}\",{a},{b}]", class.as_str());
        }
        let _ = write!(out, "],\"degraded\":[{},{}]", d.degraded.0, d.degraded.1);
        let _ = write!(out, ",\"attempts\":[{},{}]", d.attempts_total.0, d.attempts_total.1);
        out.push_str("},\"remedies\":[");
        for (i, r) in self.remedies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            escape_into(&r.name, &mut out);
            let _ = write!(out, ",{},{}]", r.a, r.b);
        }
        out.push_str("],\"smells\":");
        match &self.smells {
            None => out.push_str("null"),
            Some(s) => {
                let _ = write!(out, "{{\"totals\":[{},{}]", s.totals.0, s.totals.1);
                let sections = [
                    (",\"appeared\":[", &s.appeared),
                    (",\"resolved\":[", &s.resolved),
                    (",\"shifted\":[", &s.shifted),
                ];
                for (key, list) in sections {
                    out.push_str(key);
                    for (i, t) in list.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        json_transition(&mut out, t);
                    }
                    out.push(']');
                }
                out.push('}');
            }
        }
        out.push_str(",\"trace\":");
        match &self.trace {
            None => out.push_str("null"),
            Some(t) => {
                let _ = write!(out, "{{\"aligned\":{},\"identical\":{}", t.aligned, t.identical);
                json_names(&mut out, ",\"only_a\":", &t.only_a);
                json_names(&mut out, ",\"only_b\":", &t.only_b);
                out.push_str(",\"diverged\":[");
                for (i, b) in t.diverged.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"domain\":");
                    escape_into(&b.domain, &mut out);
                    let _ = write!(out, ",\"pos\":{}", b.pos);
                    for (key, event) in [(",\"a\":", &b.a_event), (",\"b\":", &b.b_event)] {
                        out.push_str(key);
                        match event {
                            None => out.push_str("null"),
                            Some(text) => escape_into(text, &mut out),
                        }
                    }
                    out.push('}');
                }
                out.push_str("]}");
            }
        }
        out.push_str(",\"telemetry\":");
        match &self.telemetry {
            None => out.push_str("null"),
            Some(t) => {
                let _ = write!(out, "{{\"entries\":{},\"counters\":[", t.len());
                for (i, c) in t.counters.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('[');
                    escape_into(&c.name, &mut out);
                    let _ = write!(out, ",{},{}]", c.a, c.b);
                }
                out.push_str("]}");
            }
        }
        out.push('}');
        out
    }
}

/// The changed-field summary for a numeric shift, only naming fields
/// that moved. Restricted to the worker-count-invariant fields — the
/// cache-warmth-sensitive `queries`/`elapsed_ms` never appear here, so
/// the rendering is a function of the runs, not of how they were
/// parallelised (they still feed the aggregate RTT panels).
fn shift_line(a: &DomainRow, b: &DomainRow) -> String {
    let mut parts = Vec::new();
    let mut field = |name: &str, av: u64, bv: u64| {
        if av != bv {
            parts.push(format!("{name} {av}->{bv}"));
        }
    };
    field("rounds", a.rounds, b.rounds);
    field("attempts", a.attempts, b.attempts);
    field("servers", a.servers, b.servers);
    if a.degraded != b.degraded {
        parts.push(format!("degraded {}->{}", a.degraded, b.degraded));
    }
    parts.join(", ")
}

/// A shift row's JSON, invariant fields only (see [`shift_line`]).
fn json_row(out: &mut String, r: &DomainRow) {
    let _ = write!(
        out,
        "{{\"class\":\"{}\",\"degraded\":{},\"rounds\":{},\"attempts\":{},\"servers\":{}}}",
        r.class, r.degraded, r.rounds, r.attempts, r.servers
    );
}

/// An absent-side severity renders as `-` in text mode.
fn severity_cell(v: Option<u32>) -> String {
    v.map_or_else(|| "-".to_string(), |s| s.to_string())
}

/// A smell transition's JSON, absent severities as `null`.
fn json_transition(out: &mut String, t: &SmellTransition) {
    out.push_str("{\"domain\":");
    escape_into(&t.domain, out);
    out.push_str(",\"kind\":");
    escape_into(&t.kind, out);
    for (key, v) in [(",\"a\":", t.a), (",\"b\":", t.b)] {
        out.push_str(key);
        match v {
            None => out.push_str("null"),
            Some(s) => {
                let _ = write!(out, "{s}");
            }
        }
    }
    out.push('}');
}

fn json_names(out: &mut String, key: &str, names: &[String]) {
    out.push_str(key);
    out.push('[');
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(name, out);
    }
    out.push(']');
}

/// Re-parses a `TelemetrySnapshot::to_json` document back into the
/// fields the cross-run delta compares: counters, gauges, histogram
/// observation counts, and the ledger total. Stage timings, toplists,
/// and histogram distributions are not reconstructed — the delta never
/// reads them.
///
/// # Errors
///
/// Returns a message when the document is not a telemetry snapshot.
pub fn telemetry_from_json(text: &str) -> Result<TelemetrySnapshot, String> {
    let doc = parse(text)?;
    let mut snap = TelemetrySnapshot::default();
    let fields = |key: &str| -> Result<&[(String, Value)], String> {
        doc.get(key)
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("telemetry JSON lacks object {key:?}"))
    };
    for (name, value) in fields("counters")? {
        let v = value.as_u64().ok_or_else(|| format!("counter {name:?} is not a count"))?;
        snap.counters.insert(name.clone(), v);
    }
    for (name, value) in fields("gauges")? {
        let v = value.as_i64().ok_or_else(|| format!("gauge {name:?} is not an integer"))?;
        snap.gauges.insert(name.clone(), v);
    }
    for (name, value) in fields("histograms")? {
        let count = value
            .get("count")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("histogram {name:?} lacks a count"))?;
        snap.histograms.insert(
            name.clone(),
            HistogramSnapshot {
                bounds: Vec::new(),
                buckets: Vec::new(),
                count,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
            },
        );
    }
    if let Some(ledger) = doc.get("ledger").filter(|l| !matches!(l, Value::Null)) {
        let total = ledger.get("total").and_then(Value::as_u64).ok_or("ledger lacks a total")?;
        snap.ledger = Some(QueryLedger { total, ..QueryLedger::default() });
    }
    Ok(snap)
}

/// Parses a flat `{"name": count, ...}` document (the `remedies.json`
/// artifact) into name-sorted pairs.
///
/// # Errors
///
/// Returns a message when the document is not a flat count map.
pub fn counts_from_json(text: &str) -> Result<Vec<(String, u64)>, String> {
    let doc = parse(text)?;
    let fields = doc.as_obj().ok_or("expected a flat JSON object of counts")?;
    fields
        .iter()
        .map(|(name, value)| {
            value
                .as_u64()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("count {name:?} is not an integer"))
        })
        .collect()
}

/// Compares two remediation tallies (flat name → count maps read from
/// `remedies.json`), returning only the names whose counts differ.
pub fn remedies_delta(a: &[(String, u64)], b: &[(String, u64)]) -> Vec<ScalarDelta<u64>> {
    let names: std::collections::BTreeSet<&String> =
        a.iter().map(|(n, _)| n).chain(b.iter().map(|(n, _)| n)).collect();
    let lookup = |set: &[(String, u64)], name: &String| {
        set.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    };
    names
        .into_iter()
        .filter_map(|name| {
            let (av, bv) = (lookup(a, name), lookup(b, name));
            (av != bv).then(|| ScalarDelta { name: name.clone(), a: av, b: bv })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use govdns_trace::{DomainBlock, Step, TraceData, TraceEvent};

    fn block(domain: &str, texts: &[&str]) -> DomainBlock {
        DomainBlock {
            index: 0,
            domain: domain.into(),
            dropped: 0,
            events: texts
                .iter()
                .enumerate()
                .map(|(i, t)| TraceEvent {
                    seq: i as u32,
                    step: Step::ParentNs,
                    data: TraceData::Note { text: (*t).into() },
                })
                .collect(),
        }
    }

    fn log(blocks: Vec<DomainBlock>) -> TraceLog {
        TraceLog { domains: blocks, ..TraceLog::default() }
    }

    #[test]
    fn identical_logs_have_empty_trace_diff() {
        let a = log(vec![block("a.gov.zz", &["x", "y"]), block("b.gov.zz", &["z"])]);
        let t = TraceDiff::compare(&a, &a.clone());
        assert!(t.is_empty());
        assert_eq!((t.aligned, t.identical), (2, 2));
    }

    #[test]
    fn divergence_carries_both_timelines() {
        let a = log(vec![block("a.gov.zz", &["x", "y", "z"])]);
        let b = log(vec![block("a.gov.zz", &["x", "q", "z"])]);
        let t = TraceDiff::compare(&a, &b);
        assert_eq!(t.differences(), 1);
        let d = &t.diverged[0];
        assert_eq!(d.pos, 1);
        assert!(d.a_event.as_deref().unwrap().contains('y'));
        assert!(d.b_event.as_deref().unwrap().contains('q'));
        assert!(d.a_context.iter().any(|l| l.starts_with("> ")), "{:?}", d.a_context);
    }

    #[test]
    fn empty_rundiff_renders_identical_and_counts_zero() {
        let rd = RunDiff::default();
        assert!(rd.is_empty());
        assert_eq!(rd.differences(), 0);
        let text = rd.render_text(&RenderOptions::default());
        assert!(text.contains("runs are identical"), "{text}");
        let json = rd.to_json();
        assert!(json.starts_with("{\"differences\":0"), "{json}");
        assert_eq!(parse(&json).unwrap().get("differences").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn smell_transitions_count_as_differences() {
        let rd = RunDiff {
            smells: Some(SmellDiff {
                appeared: vec![SmellTransition {
                    domain: "a.gov.zz".into(),
                    kind: "lame_delegation".into(),
                    a: None,
                    b: Some(65),
                }],
                shifted: vec![SmellTransition {
                    domain: "b.gov.zz".into(),
                    kind: "single_homed_glue".into(),
                    a: Some(50),
                    b: Some(70),
                }],
                totals: (1, 2),
                ..SmellDiff::default()
            }),
            ..RunDiff::default()
        };
        assert!(!rd.is_empty());
        assert_eq!(rd.differences(), 2);
        let text = rd.render_text(&RenderOptions::default());
        assert!(text.contains("smells appeared (1):"), "{text}");
        assert!(text.contains("- -> 65"), "{text}");
        assert!(text.contains("50 -> 70"), "{text}");
        let json = rd.to_json();
        assert!(json.contains("\"smells\":{\"totals\":[1,2]"), "{json}");
        assert!(json.contains("\"kind\":\"lame_delegation\",\"a\":null,\"b\":65"), "{json}");
        parse(&json).expect("smell section stays parseable");
    }

    #[test]
    fn remedies_delta_reports_only_changes() {
        let a = vec![("removals".to_string(), 3u64), ("ns_fixes".to_string(), 1)];
        let b = vec![("removals".to_string(), 3u64), ("ns_fixes".to_string(), 4)];
        let d = remedies_delta(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].name, "ns_fixes");
        assert_eq!((d[0].a, d[0].b), (1, 4));
    }
}
