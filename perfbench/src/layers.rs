//! Per-layer metrics: the fixed list the traced run reports, and the
//! samples they are computed from.

use std::collections::BTreeMap;

use crate::spans::{self_times_ns, Recorder};
use crate::stats::median;

/// Every per-layer metric, in report order, with its unit. The README
/// next to this file maps each one to the end-to-end metric and the
/// workload it should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("world.generate_s", "s"),
    ("world.matchers_s", "s"),
    ("world.servers", "count"),
    ("world.pdns_entries", "count"),
    ("world.rss_mb", "MiB"),
    ("counterfactual.world_generations", "count"),
    ("counterfactual.world_share", "ratio"),
    ("seed.select_s", "s"),
    ("discovery.discover_s", "s"),
    ("discovery.domains", "count"),
    ("runner.campaign_s", "s"),
    ("runner.round1_s", "s"),
    ("runner.round2_s", "s"),
    ("runner.sink_wait_ns", "ns"),
    ("runner.sink_queue_depth", "count"),
    ("runner.bare_campaign_s", "s"),
    ("runner.sink_campaign_s", "s"),
    ("probe.queries", "count"),
    ("probe.retries", "count"),
    ("probe.timeouts", "count"),
    ("probe.answered_ratio", "ratio"),
    ("ratelimit.busiest_dst_queries", "count"),
    ("journal.bytes", "B"),
    ("journal.bytes_per_domain", "B"),
    ("journal.replay_s", "s"),
    ("trace.bytes", "B"),
    ("trace.read_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("analysis.longitudinal_s", "s"),
    ("analysis.yearly_s", "s"),
    ("analysis.per_country_s", "s"),
    ("analysis.churn_s", "s"),
    ("analysis.private_share_s", "s"),
    ("analysis.providers_s", "s"),
    ("analysis.replication_s", "s"),
    ("analysis.diversity_s", "s"),
    ("analysis.delegation_s", "s"),
    ("analysis.consistency_s", "s"),
    ("analysis.concentration_s", "s"),
    ("analysis.remedies_s", "s"),
    ("analysis.smells_s", "s"),
    ("analysis.total_s", "s"),
    ("analysis.rss_mb", "MiB"),
    ("report.render_s", "s"),
    ("report.csv_s", "s"),
    ("report.csv_bytes", "B"),
    ("counterfactual.baseline_s", "s"),
    ("counterfactual.enumerate_s", "s"),
    ("counterfactual.scenarios", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Raw per-layer observations, by metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Records one observation of `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_owned()).or_default().push(value);
    }

    /// Median of the observations of `name`, if any.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|xs| median(xs))
    }

    /// Adds every span's self time as a `<span name>_s` observation.
    pub fn add_spans(&mut self, rec: &Recorder) {
        for (span, self_ns) in rec.spans().iter().zip(self_times_ns(rec.spans())) {
            self.add(&format!("{}_s", span.name), self_ns as f64 / 1e9);
        }
    }
}

/// Resolves every [`PER_LAYER`] metric to its median.
///
/// # Errors
///
/// Names the first metric with no observation — a layer the run failed
/// to exercise.
pub fn resolve(samples: &Samples) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            samples
                .median(name)
                .map(|v| (name, unit, v))
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect()
}

/// Resident set size now (`VmRSS`) or at its peak (`VmHWM`), in MiB,
/// read from `/proc/self/status`.
pub fn rss_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_per_layer_metric_is_listed_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn spans_become_self_time_samples() {
        let mut rec = Recorder::new(true);
        rec.span("pass", |rec| rec.span("world.generate", |_| ()));
        let mut samples = Samples::default();
        samples.add_spans(&rec);
        assert!(samples.median("world.generate_s").is_some());
        assert!(samples.median("pass_s").is_some());
        assert!(resolve(&samples).unwrap_err().contains("world.matchers_s"));
    }

    #[test]
    fn rss_is_read_from_proc() {
        // Resident size first: the peak read afterwards can only be higher.
        let rss = rss_mb("VmRSS");
        assert!(rss > 0.0 && rss_mb("VmHWM") >= rss);
    }
}
