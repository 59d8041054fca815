//! The sweep engine: baseline campaign → scenario enumeration →
//! parallel counterfactual re-runs → ranked SPOF report.
//!
//! **Isolation.** A `SimNetwork` hosts one fault plan and accumulates
//! per-destination ordinals, so concurrent campaigns cannot share one.
//! The sweep generates its world once; every scenario campaign and
//! every recovery replay runs on its own [`SimNetwork::fork`] of that
//! world's network — the same servers with none of the baseline's
//! traffic, ordinals or faults, the state a freshly generated network
//! starts in. The rest of the world is read-only, so every scenario
//! probes the *same* internet minus its blast set. Scenarios are
//! embarrassingly parallel; the sweep fans them out over `workers`
//! threads.
//!
//! [`SimNetwork::fork`]: govdns_simnet::SimNetwork::fork
//!
//! **Determinism.** Inner campaigns run single-worker with the
//! worker-count-invariant configuration (no breakers, unlimited retry
//! budget), and every scenario outcome is keyed back to its enumeration
//! index before ranking — so the report's `canonical_json()` is
//! byte-identical at any sweep worker count.
//!
//! **Crash safety.** With a journal directory configured, each scenario
//! campaign write-ahead-journals into `<dir>/<scenario-id>.journal` and
//! resumes from it when the file already exists — the same machinery as
//! a normal campaign, one journal per scenario.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use govdns_core::{run_campaign, Campaign, JournalSpec, MeasurementDataset, RunnerConfig};
use govdns_diff::DatasetView;
use govdns_world::{WorldConfig, WorldGenerator};

use crate::recovery::{simulate_recovery, RecoveryConfig, RecoveryEntry};
use crate::scenario::{enumerate_scenarios, EnumerationConfig, PartialDial, Scenario};
use crate::spof::{is_dark, Darkened, SpofEntry, SpofReport};

/// Sweep parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// World seed: the sweep generates one world from it, and the
    /// baseline and every scenario probe that world.
    pub seed: u64,
    /// World scale, parts-per-million of paper scale.
    pub scale_ppm: u64,
    /// Scenario-level parallelism (inner campaigns are single-worker;
    /// this only affects wall-clock, never the report bytes).
    pub workers: usize,
    /// Scenario enumeration knobs.
    pub enumeration: EnumerationConfig,
    /// Only run scenarios whose id contains this substring.
    pub scenario_filter: Option<String>,
    /// Write-ahead journal directory: one `<scenario-id>.journal` per
    /// scenario, resumed from when present.
    pub journal_dir: Option<PathBuf>,
    /// Partial-outage dial: fail only `k/n` of every scenario's
    /// anycast sites instead of the whole blast set.
    pub partial: Option<PartialDial>,
    /// Degraded mode: convert every scenario's hard blackhole into a
    /// probabilistic drop at this rate (parts per million).
    pub degrade_ppm: Option<u32>,
    /// TTL-driven recovery modeling: replay each scenario's outage
    /// through a caching resolver and report per-domain time-to-dark /
    /// time-to-recover.
    pub recovery: Option<RecoveryConfig>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 7,
            scale_ppm: 10_000,
            workers: 1,
            enumeration: EnumerationConfig::default(),
            scenario_filter: None,
            journal_dir: None,
            partial: None,
            degrade_ppm: None,
            recovery: None,
        }
    }
}

impl SweepConfig {
    /// The worker-count-invariant inner campaign configuration: one
    /// worker, adaptive retries with no per-destination budget, no
    /// chaos, no breakers — plus the scenario layer under test.
    fn runner_config(&self, scenario: Option<&Scenario>) -> RunnerConfig {
        let journal = match (&self.journal_dir, scenario) {
            (Some(dir), Some(s)) => {
                Some(JournalSpec::new(dir.join(format!("{}.journal", sanitize(&s.id())))))
            }
            _ => None,
        };
        let resume_from =
            journal.as_ref().map(|spec| spec.path.clone()).filter(|path| path.exists());
        RunnerConfig {
            scenario: scenario.map(Scenario::spec),
            journal,
            resume_from,
            ..RunnerConfig::worker_invariant(1)
        }
    }
}

/// A scenario-id-derived filename: alphanumerics, dots, and dashes
/// survive; everything else becomes a dash.
fn sanitize(id: &str) -> String {
    id.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '-' })
        .collect()
}

/// Runs the baseline campaign, enumerates scenarios, re-runs the
/// campaign under each, and ranks the outcomes.
///
/// # Panics
///
/// Panics on journal I/O failure or when a scenario's journal belongs
/// to a different campaign or config.
pub fn run_sweep(config: &SweepConfig) -> SpofReport {
    let scale = config.scale_ppm as f64 / 1_000_000.0;
    let world = WorldGenerator::new(WorldConfig::small(config.seed).with_scale(scale)).generate();
    let matchers = world.catalog.matchers();
    let baseline = run_campaign(&Campaign::new(&world, &matchers), config.runner_config(None));
    let baseline_view = DatasetView::from_dataset(&baseline);

    let mut scenarios =
        enumerate_scenarios(&baseline, &matchers, &world.asn_db, config.enumeration);
    if let Some(filter) = &config.scenario_filter {
        scenarios.retain(|s| s.id().contains(filter.as_str()));
    }
    // Degraded-mode transforms, applied after the filter so the filter
    // matches the undecorated ids: the partial dial shrinks each blast
    // set to `k/n` of its sites, the degrade conversion swaps the hard
    // blackhole for a probabilistic drop. Both rewrite the subject, so
    // per-scenario journals never collide with the full-outage runs.
    if let Some(dial) = config.partial {
        scenarios = scenarios.iter().map(|s| s.dialed(dial)).collect();
    }
    if let Some(ppm) = config.degrade_ppm {
        scenarios = scenarios.iter().map(|s| s.degraded(ppm)).collect();
    }

    let countries = country_map(&baseline);
    if let Some(dir) = &config.journal_dir {
        std::fs::create_dir_all(dir).expect("create journal directory");
    }

    let next = AtomicUsize::new(0);
    let workers = config.workers.clamp(1, scenarios.len().max(1));
    let sweep_one = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(scenario) = scenarios.get(i) else { return done };
            let network = world.network.fork();
            let campaign = Campaign { network: &network, ..Campaign::new(&world, &matchers) };
            let dataset = run_campaign(&campaign, config.runner_config(Some(scenario)));
            let entry = score_scenario(scenario, &baseline_view, &dataset, &countries);
            // Recovery replays the outage through a caching resolver
            // over the domains this scenario darkened.
            let recovery = config.recovery.map(|cfg| {
                let track: Vec<(String, String)> =
                    entry.darkened.iter().map(|d| (d.domain.clone(), d.country.clone())).collect();
                simulate_recovery(&world, scenario, cfg, &track)
            });
            done.push((i, (entry, recovery)));
        }
    };
    let mut outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(sweep_one)).collect();
        handles.into_iter().flat_map(|h| h.join().expect("sweep workers do not panic")).collect()
    });
    outcomes.sort_unstable_by_key(|&(i, _)| i);

    let (entries, recovery): (Vec<SpofEntry>, Vec<Option<RecoveryEntry>>) =
        outcomes.into_iter().map(|(_, outcome)| outcome).unzip();
    SpofReport {
        seed: config.seed,
        scale_ppm: config.scale_ppm,
        baseline_domains: baseline_view.rows.len(),
        baseline_dark: baseline_view.rows.values().filter(|r| is_dark(r.class)).count(),
        entries,
        // `ranked()` re-threads these onto the ranked scenario order.
        recovery: recovery.into_iter().flatten().collect(),
    }
    .ranked()
}

/// Domain → country attribution, from the baseline's discovery stage.
fn country_map(baseline: &MeasurementDataset) -> BTreeMap<String, String> {
    baseline
        .discovered
        .iter()
        .map(|d| (d.name.to_string(), d.country.as_str().to_owned()))
        .collect()
}

/// Scores one scenario run against the baseline: class transitions via
/// the diff engine, darkened = resolvable → dark.
fn score_scenario(
    scenario: &Scenario,
    baseline_view: &DatasetView,
    dataset: &MeasurementDataset,
    countries: &BTreeMap<String, String>,
) -> SpofEntry {
    let view = DatasetView::from_dataset(dataset);
    let diff = baseline_view.diff(&view);
    let mut darkened: Vec<Darkened> = diff
        .transitions
        .iter()
        .filter(|t| !is_dark(t.from) && is_dark(t.to))
        .map(|t| Darkened {
            domain: t.domain.clone(),
            country: countries.get(&t.domain).cloned().unwrap_or_default(),
            from: t.from,
            to: t.to,
        })
        .collect();
    darkened.sort_by(|a, b| a.domain.cmp(&b.domain));
    let country_set: std::collections::BTreeSet<String> =
        darkened.iter().map(|d| d.country.clone()).collect();
    SpofEntry {
        id: scenario.id(),
        kind: scenario.kind,
        subject: scenario.subject.clone(),
        blast_addrs: scenario.blackhole_addrs.len(),
        blast_prefixes: scenario.blackhole_prefixes.len(),
        candidate_domains: scenario.candidate_domains,
        domains_darkened: darkened.len(),
        countries_darkened: country_set.len(),
        countries: country_set.into_iter().collect(),
        darkened,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_keeps_safe_chars_only() {
        assert_eq!(sanitize("provider:ns.cloudflare.com"), "provider-ns.cloudflare.com");
        assert_eq!(sanitize("prefix:10.1.2.0/24"), "prefix-10.1.2.0-24");
        assert_eq!(sanitize("asn:AS64500"), "asn-AS64500");
    }

    #[test]
    fn default_config_is_single_worker_invariant_shape() {
        let cfg = SweepConfig::default();
        let rc = cfg.runner_config(None);
        assert_eq!(rc.workers, 1);
        assert!(rc.chaos.is_none());
        assert!(rc.journal.is_none());
        assert_eq!(rc.retry.per_destination_budget, None);
    }
}
