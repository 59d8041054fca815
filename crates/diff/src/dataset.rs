//! Per-domain dataset comparison: class transitions, numeric shifts,
//! and distribution summaries between two campaign outputs.
//!
//! The unit of comparison is the [`DatasetView`]: one row per domain,
//! keyed by name, carrying exactly the fields that compare meaningfully
//! across runs (outcome class, degradation, query/attempt/round counts,
//! simulated elapsed time). A view can be built from an in-memory
//! [`MeasurementDataset`] or re-parsed from the `canonical_json` file a
//! previous run left on disk — both constructions produce identical
//! rows, which is property-tested, so diffing a live run against an
//! archived one is exact.

use std::collections::BTreeMap;

use govdns_core::{DomainClass, MeasurementDataset};
use govdns_model::persist::{parse, Value};

/// One domain's comparable outcome.
///
/// Not every field is reproducible: `queries` and `elapsed_ms` count
/// the resolver's side lookups too, whose number depends on per-worker
/// cache warmth — they vary with the worker count even when every probe
/// outcome is identical. Shift detection therefore compares only the
/// invariant fields ([`DomainRow::invariant_eq`]); the volatile pair
/// feeds the distribution summaries instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainRow {
    /// Funnel outcome class.
    pub class: DomainClass,
    /// Whether the domain answered only degraded.
    pub degraded: bool,
    /// Queries this domain's probe sent.
    pub queries: u64,
    /// Probe rounds the record aggregates.
    pub rounds: u64,
    /// Total delivery attempts across every observation.
    pub attempts: u64,
    /// Total simulated waiting, milliseconds.
    pub elapsed_ms: u64,
    /// Nameservers probed.
    pub servers: u64,
}

impl DomainRow {
    /// Whether the worker-count-invariant fields agree: outcome class,
    /// degradation, delivery attempts, rounds, and the server set size.
    /// `queries`/`elapsed_ms` are excluded — cache-warmth noise.
    pub fn invariant_eq(&self, other: &DomainRow) -> bool {
        self.class == other.class
            && self.degraded == other.degraded
            && self.attempts == other.attempts
            && self.rounds == other.rounds
            && self.servers == other.servers
    }
}

/// A name-keyed, order-independent projection of a campaign's outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatasetView {
    /// Rows by domain name (lexicographic).
    pub rows: BTreeMap<String, DomainRow>,
}

impl DatasetView {
    /// Projects a live dataset.
    pub fn from_dataset(ds: &MeasurementDataset) -> DatasetView {
        let mut rows = BTreeMap::new();
        for p in &ds.probes {
            rows.insert(
                p.domain.to_string(),
                DomainRow {
                    class: p.class(),
                    degraded: p.degraded(),
                    queries: u64::from(p.queries),
                    rounds: u64::from(p.rounds),
                    attempts: p.attempts_total(),
                    elapsed_ms: u64::from(p.elapsed_ms),
                    servers: p.servers.len() as u64,
                },
            );
        }
        DatasetView { rows }
    }

    /// Re-parses the `canonical_json` rendering of a dataset into the
    /// same rows [`DatasetView::from_dataset`] would produce.
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not a canonical dataset.
    pub fn from_canonical_json(text: &str) -> Result<DatasetView, String> {
        let doc = parse(text)?;
        let row = |p: &Value| -> Result<(String, DomainRow), String> {
            let degraded = p.field("degraded", Value::as_bool)?;
            let parent_obs = p.field("parent_observations", Value::as_arr)?;
            let servers = p.field("servers", Value::as_arr)?;
            let mut attempts = observed_attempts(parent_obs)?;
            for s in servers {
                let obs = s.get("observations").and_then(Value::as_arr).unwrap_or(&[]);
                attempts = attempts.checked_add(observed_attempts(obs)?).ok_or(OVERFLOW)?;
            }
            let row = DomainRow {
                class: json_class(p, parent_obs, servers, degraded),
                degraded,
                queries: p.field("queries", Value::as_u64)?,
                rounds: p.field("rounds", Value::as_u64)?,
                attempts,
                elapsed_ms: p.field("elapsed_ms", Value::as_u64)?,
                servers: servers.len() as u64,
            };
            Ok((p.field("domain", Value::as_str)?.to_owned(), row))
        };
        Ok(DatasetView { rows: doc.list("probes", row)?.into_iter().collect() })
    }

    /// Per-class row tallies, funnel order.
    pub fn class_totals(&self) -> [(DomainClass, usize); 5] {
        let mut totals = DomainClass::all().map(|c| (c, 0usize));
        for row in self.rows.values() {
            if let Some(slot) = totals.iter_mut().find(|(c, _)| *c == row.class) {
                slot.1 += 1;
            }
        }
        totals
    }

    /// Rows flagged degraded.
    pub fn degraded_count(&self) -> usize {
        self.rows.values().filter(|r| r.degraded).count()
    }

    /// Sum of delivery attempts across all rows.
    pub fn attempts_total(&self) -> u64 {
        self.rows.values().fold(0u64, |sum, r| sum.saturating_add(r.attempts))
    }

    /// The elapsed-time (RTT-proxy) distribution across all rows.
    pub fn rtt_summary(&self) -> RttSummary {
        RttSummary::of(self.rows.values().map(|r| r.elapsed_ms))
    }

    /// Compares two views.
    pub fn diff(&self, other: &DatasetView) -> DatasetDiff {
        let mut diff = DatasetDiff {
            domains: (self.rows.len(), other.rows.len()),
            class_totals: {
                let a = self.class_totals();
                let b = other.class_totals();
                DomainClass::all().map(|c| {
                    let at = a.iter().find(|(k, _)| *k == c).map_or(0, |(_, n)| *n);
                    let bt = b.iter().find(|(k, _)| *k == c).map_or(0, |(_, n)| *n);
                    (c, at, bt)
                })
            },
            degraded: (self.degraded_count(), other.degraded_count()),
            attempts_total: (self.attempts_total(), other.attempts_total()),
            rtt: (self.rtt_summary(), other.rtt_summary()),
            ..DatasetDiff::default()
        };
        for (name, a) in &self.rows {
            match other.rows.get(name) {
                None => diff.only_a.push(name.clone()),
                Some(b) if a.class != b.class => diff.transitions.push(ClassTransition {
                    domain: name.clone(),
                    from: a.class,
                    to: b.class,
                }),
                Some(b) if !a.invariant_eq(b) => {
                    diff.shifts.push(NamedShift { domain: name.clone(), a: *a, b: *b });
                }
                Some(_) => {}
            }
        }
        for name in other.rows.keys() {
            if !self.rows.contains_key(name) {
                diff.only_b.push(name.clone());
            }
        }
        diff
    }
}

const OVERFLOW: &str = "attempt count overflows u64";

/// Sums the `attempts` fields of an observation array.
fn observed_attempts(observations: &[Value]) -> Result<u64, String> {
    observations.iter().try_fold(0u64, |sum, o| {
        sum.checked_add(o.field("attempts", Value::as_u64)?).ok_or_else(|| OVERFLOW.to_owned())
    })
}

/// Recomputes [`DomainClass`] from a canonical-JSON probe object using
/// the same predicates `DomainProbe::class` applies to live probes.
fn json_class(
    probe: &Value,
    parent_obs: &[Value],
    servers: &[Value],
    degraded: bool,
) -> DomainClass {
    let responded =
        |o: &Value| !matches!(o.get("class").and_then(Value::as_str), Some("timeout" | "skipped"));
    let parent_responsive = parent_obs.iter().any(responded);
    let parent_nonempty =
        probe.get("parent_ns").and_then(Value::as_arr).is_some_and(|ns| !ns.is_empty());
    let serves_zone = |s: &Value| {
        s.get("observations").and_then(Value::as_arr).is_some_and(|obs| {
            obs.iter().any(|o| o.get("class").is_some_and(|c| c.get("authoritative").is_some()))
        })
    };
    let has_authoritative = servers.iter().any(serves_zone);
    if !parent_responsive {
        DomainClass::Unreachable
    } else if !parent_nonempty {
        DomainClass::Removed
    } else if !has_authoritative {
        DomainClass::Stale
    } else if degraded {
        DomainClass::Degraded
    } else {
        DomainClass::Authoritative
    }
}

/// A domain whose outcome class changed between runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassTransition {
    /// The domain.
    pub domain: String,
    /// Run A's class.
    pub from: DomainClass,
    /// Run B's class.
    pub to: DomainClass,
}

/// Integer five-number-ish summary of the per-domain elapsed-time
/// distribution. All fields are exact integers (mean truncates), so the
/// summary is byte-stable across platforms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttSummary {
    /// Rows summarized.
    pub count: u64,
    /// Truncated mean, milliseconds.
    pub mean_ms: u64,
    /// Median (nearest-rank), milliseconds.
    pub p50_ms: u64,
    /// 90th percentile (nearest-rank), milliseconds.
    pub p90_ms: u64,
    /// 99th percentile (nearest-rank), milliseconds.
    pub p99_ms: u64,
    /// Largest value, milliseconds.
    pub max_ms: u64,
}

impl RttSummary {
    /// Summarizes an elapsed-time series.
    pub fn of(values: impl IntoIterator<Item = u64>) -> RttSummary {
        let mut sorted: Vec<u64> = values.into_iter().collect();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return RttSummary::default();
        }
        let n = sorted.len() as u64;
        let rank = |pct: u64| sorted[((n - 1) * pct / 100) as usize];
        RttSummary {
            count: n,
            // Summed wide: a mean of u64 values always fits a u64.
            mean_ms: (sorted.iter().map(|&v| u128::from(v)).sum::<u128>() / u128::from(n)) as u64,
            p50_ms: rank(50),
            p90_ms: rank(90),
            p99_ms: rank(99),
            max_ms: *sorted.last().expect("non-empty"),
        }
    }
}

/// Everything that differs between two dataset views, plus the summary
/// panels a reviewer reads even when nothing differs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetDiff {
    /// Row counts (run A, run B).
    pub domains: (usize, usize),
    /// Domains only run A measured, name order.
    pub only_a: Vec<String>,
    /// Domains only run B measured, name order.
    pub only_b: Vec<String>,
    /// Domains whose outcome class changed, name order.
    pub transitions: Vec<ClassTransition>,
    /// Domains whose class held but whose numbers moved, name order.
    pub shifts: Vec<NamedShift>,
    /// Per-class tallies `(class, run A, run B)`, funnel order.
    pub class_totals: [(DomainClass, usize, usize); 5],
    /// Degraded-domain counts.
    pub degraded: (usize, usize),
    /// Total delivery attempts.
    pub attempts_total: (u64, u64),
    /// Elapsed-time distribution summaries.
    pub rtt: (RttSummary, RttSummary),
}

/// A domain whose class held but whose numbers moved (attempt counts,
/// query totals, elapsed time, server sets, or the degraded flag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedShift {
    /// The domain.
    pub domain: String,
    /// Run A's row.
    pub a: DomainRow,
    /// Run B's row.
    pub b: DomainRow,
}

impl Default for DatasetDiff {
    fn default() -> Self {
        DatasetDiff {
            domains: (0, 0),
            only_a: Vec::new(),
            only_b: Vec::new(),
            transitions: Vec::new(),
            shifts: Vec::new(),
            class_totals: DomainClass::all().map(|c| (c, 0, 0)),
            degraded: (0, 0),
            attempts_total: (0, 0),
            rtt: (RttSummary::default(), RttSummary::default()),
        }
    }
}

impl DatasetDiff {
    /// Whether the two runs measured identical per-domain outcomes.
    pub fn is_empty(&self) -> bool {
        self.only_a.is_empty()
            && self.only_b.is_empty()
            && self.transitions.is_empty()
            && self.shifts.is_empty()
    }

    /// Number of differing domains.
    pub fn differences(&self) -> usize {
        self.only_a.len() + self.only_b.len() + self.transitions.len() + self.shifts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(class: DomainClass, attempts: u64) -> DomainRow {
        DomainRow {
            class,
            degraded: class == DomainClass::Degraded,
            queries: 4,
            rounds: 1,
            attempts,
            elapsed_ms: 10 * attempts,
            servers: 2,
        }
    }

    fn view(rows: &[(&str, DomainRow)]) -> DatasetView {
        DatasetView { rows: rows.iter().map(|(n, r)| ((*n).to_owned(), *r)).collect() }
    }

    #[test]
    fn self_diff_is_empty() {
        let v = view(&[
            ("a.gov.zz", row(DomainClass::Authoritative, 3)),
            ("b.gov.zz", row(DomainClass::Degraded, 7)),
        ]);
        let d = v.diff(&v);
        assert!(d.is_empty());
        assert_eq!(d.differences(), 0);
        assert_eq!(d.degraded, (1, 1));
    }

    #[test]
    fn transitions_and_shifts_are_separated() {
        let a = view(&[
            ("a.gov.zz", row(DomainClass::Authoritative, 3)),
            ("b.gov.zz", row(DomainClass::Authoritative, 3)),
            ("gone.gov.zz", row(DomainClass::Stale, 1)),
        ]);
        let b = view(&[
            ("a.gov.zz", row(DomainClass::Degraded, 3)),
            ("b.gov.zz", row(DomainClass::Authoritative, 9)),
            ("new.gov.zz", row(DomainClass::Unreachable, 1)),
        ]);
        let d = a.diff(&b);
        assert_eq!(d.only_a, vec!["gone.gov.zz"]);
        assert_eq!(d.only_b, vec!["new.gov.zz"]);
        assert_eq!(d.transitions.len(), 1);
        assert_eq!(d.transitions[0].domain, "a.gov.zz");
        assert_eq!(d.transitions[0].from, DomainClass::Authoritative);
        assert_eq!(d.transitions[0].to, DomainClass::Degraded);
        assert_eq!(d.shifts.len(), 1);
        assert_eq!(d.shifts[0].domain, "b.gov.zz");
        assert_eq!((d.shifts[0].a.attempts, d.shifts[0].b.attempts), (3, 9));
        assert_eq!(d.differences(), 4);
    }

    #[test]
    fn cache_warmth_noise_is_not_a_shift() {
        let a = view(&[("a.gov.zz", row(DomainClass::Authoritative, 3))]);
        let mut warmer = row(DomainClass::Authoritative, 3);
        warmer.queries += 5;
        warmer.elapsed_ms += 3_600;
        let b = view(&[("a.gov.zz", warmer)]);
        let d = a.diff(&b);
        assert!(d.is_empty(), "queries/elapsed_ms vary with worker count; not differences");
        assert_ne!(d.rtt.0, d.rtt.1, "but the distribution summary still reflects them");
    }

    #[test]
    fn rtt_summary_is_nearest_rank() {
        let s = RttSummary::of((1..=100).map(|v| v * 10));
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ms, 500, "rank 49 of 0..100 holds 50*10");
        assert_eq!(s.p90_ms, 900);
        assert_eq!(s.p99_ms, 990);
        assert_eq!(s.max_ms, 1000);
        assert_eq!(s.mean_ms, 505);
        assert_eq!(RttSummary::of([]), RttSummary::default());
    }
}
