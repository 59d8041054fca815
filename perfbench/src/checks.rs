//! Output checks: what each pass must produce for its timing to count.
//!
//! Only bytes that are invariant under the worker count are compared.
//! The dataset's canonical JSON, `dataset_summary.csv`, `telemetry*`
//! and the hostile journal and trace bytes all vary with `workers > 1`
//! (per-worker resolver caches and burst-triggered faults), so they are
//! never fingerprinted.

use std::collections::BTreeMap;
use std::path::Path;

/// FNV-1a, 64-bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// File name → fnv64 of its bytes.
pub type Fingerprints = BTreeMap<String, u64>;

/// Whether `name` is one of the paper's tables or figures (or the
/// concentration, smell and measurement-health sections), as written
/// by `Report::write_csv_bundle`.
pub fn is_paper_csv(name: &str) -> bool {
    name.ends_with(".csv")
        && (name.starts_with("fig")
            || name.starts_with("table")
            || matches!(name, "concentration.csv" | "smells.csv" | "measurement_health.csv"))
}

/// Fingerprints every paper CSV in `dir`.
///
/// # Errors
///
/// Returns the first I/O error met while listing or reading `dir`.
pub fn fingerprint_dir(dir: &Path) -> std::io::Result<Fingerprints> {
    let mut out = Fingerprints::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if is_paper_csv(&name) {
            out.insert(name, fnv64(&std::fs::read(entry.path())?));
        }
    }
    Ok(out)
}

/// Pinned fingerprints, keyed by `(seed, scale)`. One line per file:
/// `<seed> <scale> <file> <fnv64 as 16 hex digits>`; `#` starts a
/// comment.
///
/// # Errors
///
/// Names the first malformed line.
pub fn parse_pins(text: &str) -> Result<BTreeMap<(u64, String), Fingerprints>, String> {
    let mut pins: BTreeMap<(u64, String), Fingerprints> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parsed = match fields.as_slice() {
            [seed, scale, file, hash] if hash.len() == 16 => seed
                .parse::<u64>()
                .ok()
                .zip(u64::from_str_radix(hash, 16).ok())
                .map(|(seed, hash)| ((seed, (*scale).to_owned()), (*file).to_owned(), hash)),
            _ => None,
        };
        let Some((key, file, hash)) = parsed else {
            return Err(format!("pins line {}: cannot parse {line:?}", n + 1));
        };
        pins.entry(key).or_default().insert(file, hash);
    }
    Ok(pins)
}

/// Renders fingerprints as pin lines for `(seed, scale)`.
pub fn pin_lines(seed: u64, scale: &str, prints: &Fingerprints) -> String {
    prints.iter().map(|(file, hash)| format!("{seed} {scale} {file} {hash:016x}\n")).collect()
}

/// Compares a pass's fingerprints against the expected set: every
/// expected file present with the same hash, and no extra file.
///
/// # Errors
///
/// Lists every file that is missing, extra or different.
pub fn compare(expected: &Fingerprints, actual: &Fingerprints) -> Result<(), String> {
    let mut problems = Vec::new();
    for (file, want) in expected {
        match actual.get(file) {
            None => problems.push(format!("{file}: missing")),
            Some(got) if got != want => {
                problems.push(format!("{file}: fnv64 {got:016x}, expected {want:016x}"));
            }
            Some(_) => {}
        }
    }
    problems.extend(
        actual.keys().filter(|f| !expected.contains_key(*f)).map(|f| format!("{f}: unexpected")),
    );
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// Pass and failure counts across a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Passes attempted.
    pub attempted: u64,
    /// Passes that panicked, had an analysis failure, or failed a check.
    pub failed: u64,
}

impl Tally {
    /// Counts one pass with its verdict, reporting a failure on stderr.
    pub fn record(&mut self, what: &str, verdict: &Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("perfbench: {what} FAILED its output check: {why}");
        }
    }

    /// Failed passes divided by attempted passes.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_reference_values() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn paper_csv_selection_skips_worker_dependent_files() {
        for keep in
            ["fig02_03_yearly.csv", "table1_diversity.csv", "smells.csv", "concentration.csv"]
        {
            assert!(is_paper_csv(keep), "{keep}");
        }
        assert!(is_paper_csv("measurement_health.csv"));
        for skip in [
            "dataset_summary.csv",
            "telemetry_scalars.csv",
            "telemetry.prom",
            "analysis_failed.csv",
        ] {
            assert!(!is_paper_csv(skip), "{skip}");
        }
    }

    #[test]
    fn pins_round_trip_through_their_text_form() {
        let prints: Fingerprints =
            [("fig04.csv".to_owned(), 0x0123_4567_89ab_cdef), ("smells.csv".to_owned(), 7)].into();
        let pins = parse_pins(&format!("# comment\n{}", pin_lines(42, "0.10", &prints))).unwrap();
        assert_eq!(pins[&(42, "0.10".to_owned())], prints);
        assert!(parse_pins("42 0.10 fig04.csv nothex").is_err());
    }

    #[test]
    fn a_corrupted_pin_fails_the_pass_instead_of_passing_silently() {
        let actual: Fingerprints =
            [("fig04.csv".to_owned(), 0x0123_4567_89ab_cdef), ("smells.csv".to_owned(), 7)].into();
        let good = pin_lines(42, "0.10", &actual);
        // Flip one hex digit of the first pin.
        let bad = good.replacen("0123456789abcdef", "0123456789abcdee", 1);
        assert_ne!(good, bad);
        let mut tally = Tally::default();
        for text in [&good, &bad] {
            let pins = parse_pins(text).unwrap();
            tally.record("audit pass", &compare(&pins[&(42, "0.10".to_owned())], &actual));
        }
        assert_eq!(tally, Tally { attempted: 2, failed: 1 });
        assert_eq!(tally.failed_share(), 0.5);
    }

    #[test]
    fn missing_and_extra_files_fail() {
        let expected: Fingerprints = [("a.csv".to_owned(), 1)].into();
        let extra: Fingerprints = [("a.csv".to_owned(), 1), ("b.csv".to_owned(), 2)].into();
        assert!(compare(&expected, &extra).unwrap_err().contains("b.csv: unexpected"));
        assert!(compare(&extra, &expected).unwrap_err().contains("b.csv: missing"));
        assert!(compare(&expected, &expected).is_ok());
    }
}
