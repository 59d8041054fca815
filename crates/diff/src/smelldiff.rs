//! Cross-run smell transitions: which operational smells appeared,
//! which were resolved, and whose severity moved — the smell-plane
//! sibling of [`DatasetView::diff`](crate::dataset::DatasetView::diff),
//! reusing the same conventions (domains keyed by name in `BTreeMap`s,
//! name-ordered output vectors, `is_empty`/`differences` counting)
//! rather than inventing a second delta format.
//!
//! The view is parsed straight from a `smells.json` canonical report,
//! with smell kinds as plain labels — this module deliberately does not
//! depend on the smell crate, so `govdns-smell` can in turn reuse this
//! crate's JSON parser.

use std::collections::BTreeMap;

use govdns_model::persist::{parse, Value};

/// The smell surface of one run: domain → smell label → severity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SmellView {
    /// Per-domain smell severities, keyed by domain then kind label.
    pub rows: BTreeMap<String, BTreeMap<String, u32>>,
}

/// One smell whose presence or severity changed between two runs.
/// `a`/`b` are the severities on each side; `None` means the smell was
/// absent there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmellTransition {
    /// The affected domain.
    pub domain: String,
    /// The smell's wire label (`lame_delegation`, ...).
    pub kind: String,
    /// Severity in run A, if present.
    pub a: Option<u32>,
    /// Severity in run B, if present.
    pub b: Option<u32>,
}

/// Everything that changed on the smell surface between two runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SmellDiff {
    /// Verdicts present only in run B (the smell appeared), ordered by
    /// `(domain, kind)`.
    pub appeared: Vec<SmellTransition>,
    /// Verdicts present only in run A (the smell was resolved), same
    /// order.
    pub resolved: Vec<SmellTransition>,
    /// Verdicts present on both sides with different severities.
    pub shifted: Vec<SmellTransition>,
    /// Total verdicts on each side.
    pub totals: (usize, usize),
}

impl SmellView {
    /// Parses the smell surface out of a canonical `smells.json`.
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not a smell report.
    pub fn from_canonical_json(text: &str) -> Result<SmellView, String> {
        let doc = parse(text)?;
        let mut rows: BTreeMap<String, BTreeMap<String, u32>> = BTreeMap::new();
        let verdict = |v: &Value| -> Result<(String, String, u32), String> {
            let text = |key: &str| v.field(key, Value::as_str).map(str::to_owned);
            let severity = v.field("severity", Value::as_int::<u32>)?;
            Ok((text("domain")?, text("kind")?, severity))
        };
        for (domain, kind, severity) in doc.list("verdicts", verdict)? {
            rows.entry(domain).or_default().insert(kind, severity);
        }
        Ok(SmellView { rows })
    }

    /// Total verdicts in the view.
    pub fn verdicts(&self) -> usize {
        self.rows.values().map(BTreeMap::len).sum()
    }

    /// Compares two smell surfaces; `self` is run A.
    pub fn diff(&self, other: &SmellView) -> SmellDiff {
        let mut diff =
            SmellDiff { totals: (self.verdicts(), other.verdicts()), ..SmellDiff::default() };
        let empty = BTreeMap::new();
        let domains: std::collections::BTreeSet<&String> =
            self.rows.keys().chain(other.rows.keys()).collect();
        for domain in domains {
            let a_row = self.rows.get(domain).unwrap_or(&empty);
            let b_row = other.rows.get(domain).unwrap_or(&empty);
            let kinds: std::collections::BTreeSet<&String> =
                a_row.keys().chain(b_row.keys()).collect();
            for kind in kinds {
                let (a, b) = (a_row.get(kind).copied(), b_row.get(kind).copied());
                let t = |a, b| SmellTransition { domain: domain.clone(), kind: kind.clone(), a, b };
                match (a, b) {
                    (None, Some(_)) => diff.appeared.push(t(a, b)),
                    (Some(_), None) => diff.resolved.push(t(a, b)),
                    (Some(av), Some(bv)) if av != bv => diff.shifted.push(t(a, b)),
                    _ => {}
                }
            }
        }
        diff
    }
}

impl SmellDiff {
    /// Whether both runs agree on every verdict and severity.
    pub fn is_empty(&self) -> bool {
        self.appeared.is_empty() && self.resolved.is_empty() && self.shifted.is_empty()
    }

    /// Number of differing `(domain, smell)` pairs.
    pub fn differences(&self) -> usize {
        self.appeared.len() + self.resolved.len() + self.shifted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(entries: &[(&str, &str, u32)]) -> SmellView {
        let mut rows: BTreeMap<String, BTreeMap<String, u32>> = BTreeMap::new();
        for &(domain, kind, severity) in entries {
            rows.entry(domain.to_owned()).or_default().insert(kind.to_owned(), severity);
        }
        SmellView { rows }
    }

    #[test]
    fn self_diff_is_empty() {
        let v = view(&[("a.gov.zz", "lame_delegation", 65), ("b.gov.zz", "single_homed_glue", 50)]);
        let d = v.diff(&v.clone());
        assert!(d.is_empty());
        assert_eq!(d.differences(), 0);
        assert_eq!(d.totals, (2, 2));
    }

    #[test]
    fn appeared_resolved_and_shifted_split_by_presence() {
        let a = view(&[("a.gov.zz", "lame_delegation", 65), ("b.gov.zz", "stale_parent_ns", 60)]);
        let b =
            view(&[("a.gov.zz", "lame_delegation", 100), ("c.gov.zz", "cyclic_dependency", 75)]);
        let d = a.diff(&b);
        assert_eq!(d.differences(), 3);
        assert_eq!(d.appeared.len(), 1);
        assert_eq!((d.appeared[0].domain.as_str(), d.appeared[0].b), ("c.gov.zz", Some(75)));
        assert_eq!(d.resolved.len(), 1);
        assert_eq!((d.resolved[0].domain.as_str(), d.resolved[0].a), ("b.gov.zz", Some(60)));
        assert_eq!(d.shifted.len(), 1);
        assert_eq!((d.shifted[0].a, d.shifted[0].b), (Some(65), Some(100)));
    }

    #[test]
    fn parses_canonical_verdicts() {
        let text = "{\"seed\":7,\"scale_ppm\":10000,\"verdicts\":[{\"domain\":\"a.gov.zz\",\"country\":\"zz\",\"kind\":\"lame_delegation\",\"severity\":65,\"detail\":\"d\",\"refactoring\":\"r\",\"evidence\":[]}],\"by_kind\":{\"lame_delegation\":1},\"domains_affected\":1,\"evidence_cited\":0}";
        let v = SmellView::from_canonical_json(text).expect("parses");
        assert_eq!(v.verdicts(), 1);
        assert_eq!(v.rows["a.gov.zz"]["lame_delegation"], 65);
        assert!(SmellView::from_canonical_json("{\"no\":1}").is_err());
    }
}
