//! Integration tests for the counterfactual sweep: exact darkening
//! semantics for provider outages, fork-vs-regeneration equivalence,
//! journaled resume, and worker-count invariance of the canonical
//! report.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use govdns_core::{run_campaign, Campaign, MeasurementDataset, RunnerConfig};
use govdns_counterfactual::{
    enumerate_scenarios, is_dark, run_sweep, EnumerationConfig, PartialDial, Scenario,
    ScenarioKind, SweepConfig,
};
use govdns_diff::DatasetView;
use govdns_world::{World, WorldConfig, WorldGenerator};

const SEED: u64 = 11;
const SCALE: f64 = 0.002;

fn tiny_world() -> World {
    WorldGenerator::new(WorldConfig::small(SEED).with_scale(SCALE)).generate()
}

/// The engine's worker-count-invariant inner configuration, rebuilt
/// through the public API.
fn invariant_config(scenario: Option<&Scenario>) -> RunnerConfig {
    RunnerConfig { scenario: scenario.map(Scenario::spec), ..RunnerConfig::worker_invariant(1) }
}

fn baseline(world: &World) -> MeasurementDataset {
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(world, &matchers);
    run_campaign(&campaign, invariant_config(None))
}

/// A provider outage darkens *exactly* the domains whose entire
/// baseline nameserver set sits inside the blast set — domains with
/// even one surviving nameserver stay resolvable, domains with none
/// go dark, and the delegation path is untouched.
#[test]
fn provider_outage_darkens_exactly_the_single_provider_domains() {
    let world = tiny_world();
    let base = baseline(&world);
    let matchers = world.catalog.matchers();
    let scenarios = enumerate_scenarios(
        &base,
        &matchers,
        &world.asn_db,
        EnumerationConfig { max_per_kind: 1, ..EnumerationConfig::default() },
    );
    let scenario = scenarios
        .iter()
        .find(|s| s.kind == ScenarioKind::Provider)
        .expect("the world has at least one outsourced provider");
    let blast: &BTreeSet<Ipv4Addr> = &scenario.blackhole_addrs;
    assert!(!blast.is_empty());

    let campaign = Campaign::new(&world, &matchers);
    let under = run_campaign(&campaign, invariant_config(Some(scenario)));

    let base_view = DatasetView::from_dataset(&base);
    let under_view = DatasetView::from_dataset(&under);
    let darkened: BTreeSet<String> = base_view
        .diff(&under_view)
        .transitions
        .iter()
        .filter(|t| !is_dark(t.from) && is_dark(t.to))
        .map(|t| t.domain.clone())
        .collect();
    assert!(!darkened.is_empty(), "the largest provider darkens someone");

    let mut checked_survivor = false;
    for probe in &base.probes {
        if is_dark(probe.class()) {
            continue; // already dark at baseline: cannot "darken".
        }
        // The provider blast set never includes registry servers, so
        // the delegation path is intact for every domain.
        assert!(probe.parent_addrs.iter().all(|a| !blast.contains(a)));
        let ns = probe.ns_addrs();
        let domain = probe.domain.to_string();
        if !ns.is_empty() && ns.iter().all(|a| blast.contains(a)) {
            assert!(darkened.contains(&domain), "{domain}: every NS in blast must go dark");
        } else {
            assert!(!darkened.contains(&domain), "{domain}: a surviving NS must keep it lit");
            checked_survivor |= ns.iter().any(|a| blast.contains(a));
        }
    }
    assert!(checked_survivor, "some multi-provider domain partially overlaps the blast");
}

/// A scenario campaign on a fork of an already-probed world's network
/// sees exactly what it would see on a freshly generated world: the
/// property that lets the sweep generate its world once.
#[test]
fn scenario_campaigns_on_a_fork_match_a_fresh_world() {
    let world = tiny_world();
    let matchers = world.catalog.matchers();
    let base = run_campaign(&Campaign::new(&world, &matchers), invariant_config(None));
    // One scenario of each kind keeps the fresh generations affordable.
    let enumeration = EnumerationConfig { max_per_kind: 1, ..EnumerationConfig::default() };
    let scenarios = enumerate_scenarios(&base, &matchers, &world.asn_db, enumeration);
    let kinds: BTreeSet<ScenarioKind> = scenarios.iter().map(|s| s.kind).collect();
    assert_eq!(kinds.len(), 4, "every scenario kind is enumerated: {kinds:?}");
    let half = PartialDial { k: 1, n: 2 };
    for scenario in &scenarios {
        for scenario in [scenario.clone(), scenario.dialed(half), scenario.degraded(950_000)] {
            let network = world.network.fork();
            let campaign = Campaign { network: &network, ..Campaign::new(&world, &matchers) };
            let forked = run_campaign(&campaign, invariant_config(Some(&scenario)));

            let fresh_world = tiny_world();
            let fresh_matchers = fresh_world.catalog.matchers();
            let fresh = run_campaign(
                &Campaign::new(&fresh_world, &fresh_matchers),
                invariant_config(Some(&scenario)),
            );
            assert_eq!(
                DatasetView::from_dataset(&forked),
                DatasetView::from_dataset(&fresh),
                "{}",
                scenario.id()
            );
        }
    }
}

/// A journaled sweep resumed from its own journals reports the exact
/// same bytes — the scenario campaigns replay instead of re-probing.
#[test]
fn journaled_sweep_resumes_byte_identically() {
    let dir = std::env::temp_dir().join(format!("govdns-cf-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SweepConfig {
        seed: SEED,
        scale_ppm: (SCALE * 1_000_000.0) as u64,
        workers: 1,
        enumeration: EnumerationConfig { max_per_kind: 1, ..EnumerationConfig::default() },
        scenario_filter: Some("provider:".to_owned()),
        journal_dir: Some(dir.clone()),
        ..SweepConfig::default()
    };
    let first = run_sweep(&config);
    let journals: Vec<_> = std::fs::read_dir(&dir)
        .expect("journal dir exists")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(journals.len(), 1, "one scenario, one journal: {journals:?}");

    let resumed = run_sweep(&config);
    assert_eq!(first.canonical_json(), resumed.canonical_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The report is a pure function of the sweep seed: scenario-level
/// parallelism never changes a byte of the canonical JSON.
#[test]
fn sweep_report_is_worker_count_invariant() {
    let config = SweepConfig {
        seed: SEED,
        scale_ppm: (SCALE * 1_000_000.0) as u64,
        workers: 1,
        enumeration: EnumerationConfig { max_per_kind: 2, ..EnumerationConfig::default() },
        scenario_filter: Some("asn:".to_owned()),
        journal_dir: None,
        ..SweepConfig::default()
    };
    let serial = run_sweep(&config);
    let parallel = run_sweep(&SweepConfig { workers: 4, ..config });
    assert_eq!(serial.canonical_json(), parallel.canonical_json());
    assert_eq!(serial.render_text(), parallel.render_text());
    assert_eq!(serial.to_csv(), parallel.to_csv());
}
