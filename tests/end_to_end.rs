//! Workspace-level integration tests: the full stack exercised through
//! the facade crate, including failure injection and determinism.

use govdns::prelude::*;
use govdns::world::{SensorConfig, WorldGenerator as WG};

fn tiny(seed: u64) -> govdns::world::World {
    WG::new(WorldConfig::small(seed).with_scale(0.01)).generate()
}

#[test]
fn full_pipeline_through_the_facade() {
    let world = tiny(99);
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);
    let report = Report::generate(&campaign, RunnerConfig::default());
    assert_eq!(report.dataset.seeds.len(), 193);
    assert!(report.funnel.queried > 400);
    assert!(report.funnel.child_responsive > 0);
    let text = report.render();
    assert!(text.contains("Table I"));
}

#[test]
fn pipeline_is_deterministic_without_loss() {
    let run = |seed: u64| {
        let world = tiny(seed);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let report = Report::generate(&campaign, RunnerConfig { workers: 4, ..Default::default() });
        (
            report.funnel,
            report.delegation.any_defective,
            report.consistency.comparable,
            report.active_replication.d1ns_total,
        )
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77), run(78), "different seeds should differ somewhere");
}

#[test]
fn packet_loss_triggers_second_round_retries() {
    let world = WG::new(WorldConfig::small(5).with_scale(0.01).with_loss_rate(0.25)).generate();
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);
    let report = Report::generate(&campaign, RunnerConfig::default());
    assert!(
        report.dataset.retried > 0,
        "25% loss should force second-round probes (got {})",
        report.dataset.retried
    );
    // Despite loss, the pipeline still finds plenty of healthy domains.
    assert!(report.funnel.child_responsive * 2 > report.funnel.parent_nonempty);
}

#[test]
fn imperfect_sensors_shrink_but_do_not_break_discovery() {
    let perfect = tiny(31);
    let lossy = WG::new(
        WorldConfig::small(31)
            .with_scale(0.01)
            .with_sensor(SensorConfig { coverage: 0.8, ..SensorConfig::realistic() }),
    )
    .generate();
    let count = |w: &govdns::world::World| {
        let matchers = w.catalog.matchers();
        let campaign = Campaign::new(w, &matchers);
        let seeds = govdns::core::seed::select_seeds(&campaign);
        govdns::core::discovery::discover(
            &campaign,
            &seeds,
            govdns::core::discovery::DiscoveryConfig::paper(w.collection_date),
        )
        .len()
    };
    let full = count(&perfect);
    let partial = count(&lossy);
    assert!(partial < full, "coverage 0.8 should lose domains: {partial} vs {full}");
    assert!(partial * 10 > full * 6, "but not most of them: {partial} vs {full}");
}

#[test]
fn traffic_accounting_is_plausible() {
    let world = tiny(12);
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);
    let report = Report::generate(&campaign, RunnerConfig { max_qps: 100, ..Default::default() });
    let t = report.dataset.traffic;
    assert!(t.queries_sent > 1_000);
    assert_eq!(t.responses_received + t.timeouts, t.queries_sent);
    // Responses are bigger than queries on average.
    assert!(t.bytes_received > t.bytes_sent);
    // Average response stays within typical UDP DNS sizes.
    let avg_resp = t.bytes_received / t.responses_received.max(1);
    assert!((20..512).contains(&avg_resp), "avg response {avg_resp} bytes");
}

#[test]
fn wire_format_roundtrips_through_the_facade() {
    use govdns::model::{wire, Message};
    let q = Message::query(7, "portal.gov.br".parse().unwrap(), RecordType::Ns);
    assert_eq!(wire::decode(&wire::encode(&q)).unwrap(), q);
}

#[test]
fn worker_count_does_not_change_results() {
    // Per-domain probes are independent; only scheduling differs.
    let outcome = |workers: usize| {
        let world = tiny(63);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let ds = govdns::core::run_campaign(
            &campaign,
            RunnerConfig { workers, ..RunnerConfig::default() },
        );
        let mut summary: Vec<(String, bool, usize)> = ds
            .probes
            .iter()
            .map(|p| (p.domain.to_string(), p.has_authoritative_answer(), p.ns_union().len()))
            .collect();
        summary.sort();
        summary
    };
    assert_eq!(outcome(1), outcome(8));
}

#[test]
fn runner_reports_lock_free_marker_and_worker_busy_spread() {
    let world = tiny(17);
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);
    let ds = govdns::core::run_campaign(
        &campaign,
        RunnerConfig { workers: 4, ..RunnerConfig::default() },
    );
    let gauges = &ds.telemetry.gauges;
    assert_eq!(gauges["runner.workers"], 4);
    assert_eq!(gauges["net.lock_free"], 1, "hot path advertises its lock-free accounting");

    // Every worker's busy time lands in the histogram and the spread
    // gauges: max >= min > 0, and the spread is max/min as a percentage
    // (so never below 100).
    let busy = &ds.telemetry.histograms["runner.worker_busy_ms"];
    assert_eq!(busy.count, 4, "one busy-time sample per worker");
    let max = gauges["runner.worker_busy_max_ms"];
    let min = gauges["runner.worker_busy_min_ms"];
    let spread = gauges["runner.worker_busy_spread_pct"];
    assert!(max >= min && min >= 0, "max {max} < min {min}");
    assert!(spread >= 100, "spread {spread} is max/min in percent");
}

#[test]
fn ethics_accounting_shows_bounded_hotspots() {
    let world = tiny(21);
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);
    let report = Report::generate(&campaign, RunnerConfig::default());
    assert!(report.busiest_server_queries > 0);
    // The busiest server (typically a root or a big gTLD) must stay a
    // bounded fraction of the campaign.
    let share = report.busiest_server_queries as f64 / report.dataset.traffic.queries_sent as f64;
    assert!(share < 0.35, "hotspot share {share}");
    assert!(report.render().contains("ethics accounting"));
}

mod consistency_properties {
    use govdns::core::analysis::consistency::{classify, ConsistencyClass};

    /// classify() must be a pure function of the two NS sets (plus
    /// addresses for the disjoint split): permuting input order never
    /// changes the class.
    #[test]
    fn classify_is_order_independent() {
        use govdns::prelude::*;
        let world = WorldGenerator::new(WorldConfig::small(5).with_scale(0.01)).generate();
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let ds = govdns::core::run_campaign(&campaign, RunnerConfig::default());
        let mut checked = 0;
        for p in &ds.probes {
            let Some(class) = classify(p) else { continue };
            let mut shuffled = p.clone();
            shuffled.parent_ns.reverse();
            shuffled.child_ns.reverse();
            shuffled.servers.reverse();
            assert_eq!(classify(&shuffled), Some(class));
            // Sanity: Equal iff the sets are equal.
            let pset: std::collections::BTreeSet<_> = p.parent_ns.iter().collect();
            let cset: std::collections::BTreeSet<_> = p.child_ns.iter().collect();
            assert_eq!(class == ConsistencyClass::Equal, pset == cset);
            checked += 1;
        }
        assert!(checked > 300, "checked {checked}");
    }
}

#[test]
fn csv_bundle_writes_all_tables() {
    let world = tiny(44);
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);
    let report = Report::generate(&campaign, RunnerConfig::default());
    let dir = std::env::temp_dir().join(format!("govdns-bundle-{}", std::process::id()));
    report.write_csv_bundle(&dir).unwrap();
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    for needle in [
        "fig02_03_yearly.csv",
        "table1_diversity.csv",
        "fig13_consistency.csv",
        "dataset_summary.csv",
        "concentration.csv",
    ] {
        assert!(files.iter().any(|f| f == needle), "missing {needle} in {files:?}");
    }
    assert!(files.len() >= 22);
    for needle in [
        "telemetry_scalars.csv",
        "telemetry_stages.csv",
        "telemetry_histograms.csv",
        "telemetry_toplists.csv",
        "telemetry_ledger.csv",
    ] {
        assert!(files.iter().any(|f| f == needle), "missing {needle} in {files:?}");
    }
    let ledger_csv = std::fs::read_to_string(dir.join("telemetry_ledger.csv")).unwrap();
    assert!(ledger_csv.contains("round:round1"), "ledger csv:\n{ledger_csv}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn telemetry_snapshot_covers_the_whole_pipeline() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let world = tiny(55);
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);
    let events = Arc::new(AtomicUsize::new(0));
    let seen = events.clone();
    let ctl = CampaignTelemetry::new().with_progress(50, move |e: ProgressEvent| {
        assert!(e.done <= e.total);
        assert!(e.queries_issued > 0);
        seen.fetch_add(1, Ordering::Relaxed);
    });
    let report = Report::generate_with(&campaign, RunnerConfig::default(), &ctl);
    let snap = &report.dataset.telemetry;

    // Per-stage wall-clock durations for every pipeline phase.
    for stage in ["seed", "discovery", "round1", "analysis", "probe.domain"] {
        let s = &snap.stages[stage];
        assert!(s.count > 0, "stage {stage} never ran");
        assert!(s.total_secs > 0.0, "stage {stage} has zero duration");
    }

    // At least four response-class counters, consistent with traffic.
    let classes: Vec<_> = snap.counters.keys().filter(|k| k.starts_with("probe.class.")).collect();
    assert!(classes.len() >= 4, "classes: {classes:?}");
    assert_eq!(
        snap.counter_total("net."),
        snap.counters["net.queries"]
            + snap.counters["net.replies"]
            + snap.counters["net.timeouts"]
            + snap.counters["net.lost"]
    );
    assert_eq!(snap.counters["net.queries"], report.dataset.traffic.queries_sent);

    // The query-latency histogram carries percentiles.
    let rtt = &snap.histograms["net.rtt_ms"];
    assert_eq!(rtt.count, report.dataset.traffic.queries_sent);
    assert!(rtt.p50() <= rtt.p90() && rtt.p90() <= rtt.p99());
    assert!(rtt.p99() <= rtt.max && rtt.min <= rtt.p50());

    // Top-N busiest destinations, busiest first.
    let top = &snap.toplists["busiest destinations"];
    assert!(!top.is_empty() && top.len() <= 10);
    assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    assert_eq!(top[0].1, report.busiest_server_queries);

    // The per-round query ledger reconciles with the rate limiter.
    let issued = ctl.limiter().expect("campaign ran").issued();
    let ledger = snap.ledger.as_ref().expect("campaign publishes a ledger");
    assert_eq!(ledger.total, issued);
    assert_eq!(ledger.per_round.values().sum::<u64>(), issued);
    assert!(ledger.per_round["round1"] > 0);
    assert_eq!(snap.counters["ratelimit.issued"], issued);

    // Progress events fired and the snapshot renders everywhere.
    assert!(events.load(Ordering::Relaxed) > 0, "no progress events");
    let text = report.render();
    assert!(text.contains("pipeline telemetry"));
    assert!(text.contains("query ledger"));
    assert!(snap.to_json().contains("\"ledger\""));
}

#[test]
fn telemetry_is_purely_observational() {
    // Instrumentation must not change what the pipeline measures: both
    // entry points produce the identical dataset. One worker keeps the
    // resolver-cache schedule (and hence traffic totals) deterministic.
    let config = RunnerConfig { workers: 1, ..RunnerConfig::default() };
    let run = |telemetry: bool| {
        let world = tiny(63);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let ds = if telemetry {
            govdns::core::run_campaign_with(&campaign, config.clone(), &CampaignTelemetry::new())
        } else {
            govdns::core::run_campaign(&campaign, config.clone())
        };
        let mut summary: Vec<(String, bool, usize)> = ds
            .probes
            .iter()
            .map(|p| (p.domain.to_string(), p.has_authoritative_answer(), p.ns_union().len()))
            .collect();
        summary.sort();
        (ds.traffic, summary)
    };
    assert_eq!(run(false), run(true));
}

mod chaos {
    use super::*;

    fn chaos_config(profile: ChaosProfile, seed: u64) -> RunnerConfig {
        // One worker keeps query interleaving (and hence burst-triggered
        // faults and per-worker resolver caches) deterministic.
        RunnerConfig {
            workers: 1,
            retry: RetryPolicy::adaptive(),
            chaos: Some(ChaosSpec { profile, seed }),
            ..RunnerConfig::default()
        }
    }

    /// The ISSUE's determinism contract: same campaign seed + same
    /// fault-plan seed ⇒ byte-identical canonical dataset encodings.
    #[test]
    fn identically_seeded_chaos_runs_are_byte_identical() {
        let run = || {
            let world = tiny(7);
            let matchers = world.catalog.matchers();
            let campaign = Campaign::new(&world, &matchers);
            Report::generate(&campaign, chaos_config(ChaosProfile::Flaky, 7))
                .dataset
                .canonical_json()
        };
        let first = run();
        assert_eq!(first, run(), "chaos run is not reproducible");
        // A different fault seed over the same world must actually
        // change something, or the faults are not wired in.
        let other = {
            let world = tiny(7);
            let matchers = world.catalog.matchers();
            let campaign = Campaign::new(&world, &matchers);
            Report::generate(&campaign, chaos_config(ChaosProfile::Flaky, 8))
                .dataset
                .canonical_json()
        };
        assert_ne!(first, other, "fault seed had no effect");
    }

    /// Injected flaps must be visible end to end: fault counters and
    /// retry telemetry fire, and the second round revives at least one
    /// domain that a flap had silenced.
    #[test]
    fn second_round_recovers_injected_flaps() {
        let world = tiny(7);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let report = Report::generate(&campaign, chaos_config(ChaosProfile::Flaky, 7));

        assert!(report.dataset.faults.flap_timeouts > 0, "no flaps injected");
        assert!(report.dataset.telemetry.counters["fault.flap_timeouts"] > 0);
        assert!(report.dataset.telemetry.counters["probe.retry.attempts"] > 0);
        assert!(
            report.health.recovered_in_round2 >= 1,
            "round 2 revived nothing: {:?}",
            report.health
        );
        assert!(report.health.degraded_domains >= report.health.recovered_in_round2);
        assert_eq!(report.remedies.flakiness_followups, report.health.degraded_domains);
        let text = report.render();
        assert!(text.contains("measurement health"));
        assert!(text.contains("flakiness follow-ups"));
    }

    /// The hostile preset exercises every fault kind, and the pipeline
    /// still resolves most of the population through the noise.
    #[test]
    fn hostile_profile_fires_every_fault_kind() {
        let world = tiny(7);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let report = Report::generate(&campaign, chaos_config(ChaosProfile::Hostile, 3));
        let f = report.dataset.faults;
        assert!(f.flap_timeouts > 0, "{f:?}");
        assert!(f.losses > 0, "{f:?}");
        assert!(f.truncated > 0, "{f:?}");
        assert!(f.delayed > 0, "{f:?}");
        assert!(
            report.funnel.child_responsive * 2 > report.funnel.parent_nonempty,
            "chaos should not erase the population: {:?}",
            report.funnel
        );
    }
}

mod crash_safety {
    use super::*;
    use govdns::core::{JournalReplay, JournalSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("govdns-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn run(seed: u64, config: RunnerConfig) -> govdns::core::MeasurementDataset {
        let world = tiny(seed);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        govdns::core::run_campaign(&campaign, config)
    }

    /// The tentpole contract: kill a journaled campaign halfway, resume
    /// from the journal, and the finished dataset is byte-identical to
    /// an uninterrupted run.
    #[test]
    fn kill_and_resume_is_byte_identical() {
        let journal = tmp("clean.journal");
        let base = RunnerConfig { workers: 1, ..RunnerConfig::default() };
        // Phase 1: half the campaign, then the simulated crash.
        let partial = run(
            63,
            RunnerConfig {
                journal: Some(JournalSpec {
                    checkpoint_every: 8,
                    ..JournalSpec::new(journal.clone())
                }),
                stop_after: Some(150),
                ..base.clone()
            },
        );
        assert_eq!(partial.probes.len(), 150, "stop_after did not stop");
        // Phase 2: resume from the journal, appending to it.
        let resumed = run(
            63,
            RunnerConfig {
                journal: Some(JournalSpec {
                    checkpoint_every: 8,
                    ..JournalSpec::new(journal.clone())
                }),
                resume_from: Some(journal.clone()),
                ..base.clone()
            },
        );
        let reference = run(63, base);
        assert!(resumed.probes.len() > 150, "resume did not continue");
        assert_eq!(
            resumed.canonical_json(),
            reference.canonical_json(),
            "resumed dataset diverged from the uninterrupted run"
        );
        // The journal itself records the resume boundary and completion.
        let replay = JournalReplay::load(&journal);
        assert_eq!(replay.resumes, 1);
        assert!(replay.completed, "finished campaign should close the journal");
        assert_eq!(replay.probes.len(), reference.probes.len());
        std::fs::remove_file(&journal).unwrap();
    }

    /// The same contract under hostile chaos with adaptive retries and
    /// guarded circuit breakers — the crash/resume boundary must not
    /// shift fault injection, retry spend, or breaker state.
    #[test]
    fn kill_and_resume_is_byte_identical_under_hostile_chaos() {
        let journal = tmp("hostile.journal");
        let base = RunnerConfig {
            workers: 1,
            retry: RetryPolicy::adaptive(),
            chaos: Some(ChaosSpec { profile: ChaosProfile::Hostile, seed: 3 }),
            breaker: BreakerPolicy::guarded(),
            ..RunnerConfig::default()
        };
        let partial = run(
            7,
            RunnerConfig {
                journal: Some(JournalSpec {
                    checkpoint_every: 5,
                    ..JournalSpec::new(journal.clone())
                }),
                stop_after: Some(117),
                ..base.clone()
            },
        );
        assert_eq!(partial.probes.len(), 117);
        let resumed = run(
            7,
            RunnerConfig {
                journal: Some(JournalSpec {
                    checkpoint_every: 5,
                    ..JournalSpec::new(journal.clone())
                }),
                resume_from: Some(journal.clone()),
                ..base.clone()
            },
        );
        let reference = run(7, base);
        assert_eq!(
            resumed.canonical_json(),
            reference.canonical_json(),
            "hostile-chaos resume diverged from the uninterrupted run"
        );
        std::fs::remove_file(&journal).unwrap();
    }

    /// A crash mid-append leaves a torn record at the journal's tail;
    /// the replayer drops it and the resume still converges.
    #[test]
    fn torn_journal_tail_is_dropped_on_resume() {
        let journal = tmp("torn.journal");
        let base = RunnerConfig { workers: 1, ..RunnerConfig::default() };
        run(
            63,
            RunnerConfig {
                journal: Some(JournalSpec {
                    checkpoint_every: 8,
                    ..JournalSpec::new(journal.clone())
                }),
                stop_after: Some(120),
                ..base.clone()
            },
        );
        // Tear the tail: a record the crash cut off mid-write.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
            f.write_all(b"J1 0123456789abcdef 000000ff\n{\"kind\":\"probe\",\"tr").unwrap();
        }
        let replay = JournalReplay::load(&journal);
        assert!(replay.dropped_bytes > 0, "torn tail not detected");
        assert_eq!(replay.probes.len(), 120, "torn tail corrupted valid records");
        let resumed = run(
            63,
            RunnerConfig {
                journal: Some(JournalSpec {
                    checkpoint_every: 8,
                    ..JournalSpec::new(journal.clone())
                }),
                resume_from: Some(journal.clone()),
                ..base.clone()
            },
        );
        let reference = run(63, base);
        assert_eq!(resumed.canonical_json(), reference.canonical_json());
        std::fs::remove_file(&journal).unwrap();
    }

    /// Regression for the retry ledger: resuming must restore — not
    /// re-charge — the limiter's per-round and per-destination retry
    /// accounting. A double-charge would show up as a ledger mismatch
    /// against the uninterrupted run.
    #[test]
    fn resume_does_not_double_charge_the_retry_ledger() {
        let journal = tmp("ledger.journal");
        let base = RunnerConfig {
            workers: 1,
            retry: RetryPolicy::adaptive(),
            chaos: Some(ChaosSpec { profile: ChaosProfile::Flaky, seed: 7 }),
            ..RunnerConfig::default()
        };
        let ledger_of = |config: RunnerConfig| {
            let world = tiny(7);
            let matchers = world.catalog.matchers();
            let campaign = Campaign::new(&world, &matchers);
            let ctl = CampaignTelemetry::new();
            let ds = govdns::core::run_campaign_with(&campaign, config, &ctl);
            let state = ctl.limiter().expect("campaign ran").export_state();
            (state, ds.canonical_json())
        };
        let (_, _) = ledger_of(RunnerConfig {
            journal: Some(JournalSpec { checkpoint_every: 8, ..JournalSpec::new(journal.clone()) }),
            stop_after: Some(117),
            ..base.clone()
        });
        let (resumed_ledger, resumed_json) = ledger_of(RunnerConfig {
            journal: Some(JournalSpec { checkpoint_every: 8, ..JournalSpec::new(journal.clone()) }),
            resume_from: Some(journal.clone()),
            ..base.clone()
        });
        let (full_ledger, full_json) = ledger_of(base);
        assert_eq!(resumed_json, full_json);
        assert_eq!(
            resumed_ledger, full_ledger,
            "resume double-charged (or dropped) limiter accounting"
        );
        std::fs::remove_file(&journal).unwrap();
    }

    /// Tripped breakers must be visible end to end: telemetry counters,
    /// the health section, the quarantined toplist, and the §V-B
    /// quarantine follow-ups.
    #[test]
    fn breakers_trip_under_hostile_chaos_and_surface_in_health() {
        let world = tiny(7);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let report = Report::generate(
            &campaign,
            RunnerConfig {
                workers: 1,
                retry: RetryPolicy::none(),
                chaos: Some(ChaosSpec { profile: ChaosProfile::Hostile, seed: 3 }),
                breaker: BreakerPolicy { failure_threshold: 2, cooldown_rounds: 1 },
                ..RunnerConfig::default()
            },
        );
        let counters = &report.dataset.telemetry.counters;
        assert!(counters["probe.breaker.tripped"] > 0, "no breaker tripped under hostile chaos");
        assert!(counters["probe.breaker.denied"] > 0, "open breakers denied nothing");
        assert_eq!(report.health.breaker_tripped, counters["probe.breaker.tripped"]);
        assert_eq!(report.health.breaker_denied, counters["probe.breaker.denied"]);
        assert!(!report.health.quarantined.is_empty(), "no quarantined destinations surfaced");
        assert!(
            report.dataset.telemetry.toplists.contains_key("quarantined destinations"),
            "quarantined toplist missing"
        );
        let text = report.render();
        assert!(text.contains("quarantined destinations"), "health section lacks quarantine");
        assert!(text.contains("breaker_tripped"));
    }

    /// A panicking analysis stage degrades the report to a partial one:
    /// every other section still renders, the failure is named in
    /// `analysis.failed`, and the CSV bundle omits only the dead stage.
    #[test]
    fn forced_analysis_panic_yields_a_partial_report() {
        use govdns::core::report::failpoint;
        let world = tiny(44);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        failpoint::arm("providers");
        let report = Report::generate(&campaign, RunnerConfig::default());
        failpoint::disarm();

        assert_eq!(report.analysis_failures.len(), 1, "{:?}", report.analysis_failures);
        assert_eq!(report.analysis_failures[0].stage, "providers");
        let text = report.render();
        assert!(text.contains("analysis.failed"), "partial report not flagged");
        assert!(text.contains("Table I"), "healthy sections must survive");
        assert!(text.contains("Fig 10"), "healthy sections must survive");
        assert!(
            text.contains("analysis stage `providers` panicked"),
            "dead section not annotated:\n{text}"
        );

        let dir = std::env::temp_dir().join(format!("govdns-partial-{}", std::process::id()));
        report.write_csv_bundle(&dir).unwrap();
        assert!(!dir.join("table2_major_providers.csv").exists(), "dead stage still wrote CSV");
        assert!(dir.join("table1_diversity.csv").exists());
        let failed_csv = std::fs::read_to_string(dir.join("analysis_failed.csv")).unwrap();
        assert!(failed_csv.contains("providers"), "{failed_csv}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

mod trace {
    use super::*;
    use govdns::core::BreakerPolicy;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("govdns-e2e-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A chaos configuration whose trace is worker-count invariant:
    /// the shared retry budget, REFUSED-burst ordinals, and breaker
    /// races are the only interleaving-sensitive inputs, so all are off.
    fn invariant_config(workers: usize, trace: Option<TraceSpec>) -> RunnerConfig {
        RunnerConfig {
            chaos: Some(ChaosSpec { profile: ChaosProfile::Flaky, seed: 7 }),
            trace,
            ..RunnerConfig::worker_invariant(workers)
        }
    }

    fn run(config: RunnerConfig) -> govdns::core::MeasurementDataset {
        let world = tiny(7);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        govdns::core::run_campaign(&campaign, config)
    }

    /// The tentpole determinism contract: identically seeded campaigns
    /// write byte-identical trace files at any worker count.
    #[test]
    fn trace_files_are_byte_identical_across_worker_counts() {
        let path_1 = tmp("w1.trace");
        let path_4 = tmp("w4.trace");
        run(invariant_config(1, Some(TraceSpec::new(&path_1).with_seed(7))));
        run(invariant_config(4, Some(TraceSpec::new(&path_4).with_seed(7))));
        let bytes_1 = std::fs::read(&path_1).unwrap();
        let bytes_4 = std::fs::read(&path_4).unwrap();
        assert!(!bytes_1.is_empty(), "empty trace file");
        assert_eq!(bytes_1, bytes_4, "trace files differ between 1 and 4 workers");

        let log = read_trace(&path_1).unwrap();
        assert!(log.completed, "no completion trailer");
        assert_eq!(log.dropped_bytes, 0, "torn tail in a clean run");
        let header = log.header.as_ref().unwrap();
        assert_eq!(log.domains.len() as u64, header.domains, "full sampling missed domains");
        assert!(log.events_total() > 0);
    }

    /// The flight recorder is an observer: enabling it must not change
    /// a single byte of the measurement dataset.
    #[test]
    fn tracing_does_not_change_the_dataset() {
        let untraced = run(invariant_config(1, None)).canonical_json();
        let path = tmp("observer.trace");
        let traced = run(invariant_config(1, Some(TraceSpec::new(&path).with_seed(7))));
        assert_eq!(untraced, traced.canonical_json(), "tracing perturbed the dataset");
    }

    /// A degraded domain's block must reconstruct the causal story —
    /// injected fault, backoff, eventual recovery — and the report must
    /// surface exemplar timelines from the trace.
    #[test]
    fn degraded_domain_timeline_reconstructs_the_causal_story() {
        let path = tmp("timeline.trace");
        let world = tiny(7);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let ctl = CampaignTelemetry::new();
        let config = invariant_config(1, Some(TraceSpec::new(&path).with_seed(7)));
        let report = Report::generate_with(&campaign, config, &ctl);
        assert!(report.health.degraded_domains > 0, "need a degraded domain to trace");
        assert!(
            !report.health.exemplars.is_empty(),
            "report did not surface exemplar timelines from the trace"
        );
        assert!(report.render().contains("exemplar degraded-domain timelines"));

        let log = read_trace(&path).unwrap();
        let block = report
            .dataset
            .probes
            .iter()
            .enumerate()
            .find(|(_, p)| p.degraded())
            .and_then(|(i, _)| log.domain(&report.dataset.discovered[i].name.to_string()))
            .expect("degraded domain missing from a fully sampled trace");
        let timeline = block.timeline().join("\n");
        assert!(timeline.contains("fault verdict="), "no injected fault in:\n{timeline}");
        assert!(timeline.contains("backoff"), "no retry backoff in:\n{timeline}");
        assert!(
            timeline.contains("class=authoritative") || timeline.contains("class=timeout"),
            "no terminal response class in:\n{timeline}"
        );
    }

    /// Tripping a circuit breaker dumps the flight recorder, capturing
    /// the events that led to quarantine.
    #[test]
    fn breaker_trip_dumps_the_flight_recorder() {
        let path = tmp("breaker.trace");
        let config = RunnerConfig {
            workers: 1,
            retry: RetryPolicy::adaptive(),
            chaos: Some(ChaosSpec { profile: ChaosProfile::Hostile, seed: 3 }),
            breaker: BreakerPolicy::guarded(),
            trace: Some(TraceSpec::new(&path).with_seed(3)),
            ..RunnerConfig::default()
        };
        let world = tiny(7);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let dataset = govdns::core::run_campaign(&campaign, config);
        assert!(
            dataset.telemetry.counters["probe.breaker.tripped"] > 0,
            "hostile run tripped no breakers"
        );
        let log = read_trace(&path).unwrap();
        let trips: Vec<_> = log.dumps.iter().filter(|d| d.trigger == "breaker_trip").collect();
        assert!(!trips.is_empty(), "no breaker_trip flight dump");
        for dump in trips {
            assert!(dump.domain.is_some(), "breaker dump lost its domain context");
            assert!(!dump.events.is_empty(), "breaker dump captured no events");
        }
    }
}

mod smells {
    use super::*;
    use govdns::smell::SmellReport;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("govdns-e2e-smell-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The worker-count-invariant chaos recipe with full trace sampling
    /// (see `mod trace`), so every verdict can cite trace events.
    fn smell_report(workers: usize, trace_name: &str) -> (Report, std::path::PathBuf) {
        let world = tiny(7);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let path = tmp(trace_name);
        let config = RunnerConfig {
            chaos: Some(ChaosSpec { profile: ChaosProfile::Flaky, seed: 7 }),
            trace: Some(TraceSpec::new(&path).with_seed(7)),
            ..RunnerConfig::worker_invariant(workers)
        };
        let ctl = CampaignTelemetry::new();
        (Report::generate_with(&campaign, config, &ctl), path)
    }

    /// The tentpole contract: identically seeded smell reports are
    /// byte-identical at any worker count, and the seed-7 world
    /// exercises every detector.
    #[test]
    fn smell_reports_are_byte_identical_across_worker_counts() {
        let (report_1, _) = smell_report(1, "w1.trace");
        let (report_8, _) = smell_report(8, "w8.trace");
        let json_1 = SmellReport::from_analysis(&report_1.smells, 7, 10_000).canonical_json();
        let json_8 = SmellReport::from_analysis(&report_8.smells, 7, 10_000).canonical_json();
        assert_eq!(json_1, json_8, "smell report differs between 1 and 8 workers");

        for kind in govdns::smell::SmellKind::all() {
            let count = report_1.smells.by_kind.get(kind.as_str()).copied().unwrap_or(0);
            assert!(count > 0, "detector {} found nothing on the seed-7 world", kind.as_str());
        }
        let round_trip = SmellReport::from_canonical_json(&json_1).unwrap();
        assert_eq!(round_trip.canonical_json(), json_1, "canonical JSON round trip drifted");
    }

    /// Every citation must resolve against the trace file it names: the
    /// `(domain, seq)` pair finds an event and the quoted line is that
    /// event's actual rendering.
    #[test]
    fn every_cited_trace_event_resolves_in_the_trace_file() {
        let (report, path) = smell_report(1, "evidence.trace");
        let log = read_trace(&path).unwrap();
        assert!(!report.smells.verdicts.is_empty(), "no verdicts to check");
        let mut citations = 0u64;
        for v in &report.smells.verdicts {
            let domain = v.domain.to_string();
            assert!(
                !v.evidence.is_empty(),
                "{domain} [{}]: no citations despite full trace sampling",
                v.kind.as_str()
            );
            for c in &v.evidence {
                let event = log
                    .resolve(&domain, c.seq)
                    .unwrap_or_else(|| panic!("{domain} seq {} cites no trace event", c.seq));
                assert_eq!(event.render(), c.line, "{domain} seq {}: stale quote", c.seq);
                citations += 1;
            }
        }
        assert_eq!(citations, report.smells.evidence_cited, "evidence tally drifted");
        // The smell pass feeds campaign telemetry and the Prometheus
        // exposition before the snapshot freezes.
        let snap = &report.dataset.telemetry;
        assert_eq!(snap.counters["smell.verdicts.total"], report.smells.verdicts.len() as u64);
        assert_eq!(snap.counters["smell.evidence.cited"], report.smells.evidence_cited);
        let prom = snap.render_prometheus();
        assert!(prom.contains("govdns_smell_verdicts_total"), "smell counters missing:\n{prom}");
    }
}

mod sink_pipeline {
    use super::*;
    use govdns::core::{JournalReplay, JournalSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("govdns-e2e-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn run(seed: u64, config: RunnerConfig) -> govdns::core::MeasurementDataset {
        let world = tiny(seed);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        govdns::core::run_campaign(&campaign, config)
    }

    /// The zero-contention contract: when a campaign's outstanding
    /// records fit the channel bound, workers hand them to the I/O
    /// threads and never wait — the backpressure meter stays at zero
    /// (structurally: fewer messages than channel slots can never
    /// fill the channel) and the runner advertises the lock-free sink
    /// path. On a starved box a bigger campaign may legitimately
    /// backpressure; that is the meter's job, not a failure.
    #[test]
    fn workers_never_wait_on_sink_io_within_the_channel_bound() {
        let journal = tmp("wait.journal");
        let trace = tmp("wait.trace");
        let ds = run(
            17,
            RunnerConfig {
                workers: 4,
                stop_after: Some(500),
                journal: Some(JournalSpec {
                    checkpoint_every: 8,
                    ..JournalSpec::new(journal.clone())
                }),
                trace: Some(TraceSpec::new(&trace).with_seed(17)),
                ..RunnerConfig::default()
            },
        );
        assert_eq!(ds.probes.len(), 500);
        let gauges = &ds.telemetry.gauges;
        assert_eq!(gauges["runner.sink_lock_free"], 1, "sink path not advertised lock-free");
        assert_eq!(gauges["runner.sink_wait_ns"], 0, "workers blocked on sink backpressure");
        assert!(gauges["runner.chunk_claims"] > 0, "no chunk claims recorded");
        assert!(gauges.contains_key("runner.sink_queue_depth"), "queue-depth gauge missing");
        std::fs::remove_file(&journal).unwrap();
        std::fs::remove_file(&trace).unwrap();
    }

    /// What the sinks promise about determinism: at a fixed worker
    /// count the dataset, journal, and trace file are byte-stable
    /// across identical runs, and the trace file is additionally
    /// byte-identical across worker counts. (Full dataset/journal
    /// bytes follow per-worker resolver-cache warmth — side-query
    /// tallies — so only the trace makes the cross-worker-count
    /// promise; see the chaos/trace examples.)
    #[test]
    fn sink_outputs_are_byte_stable_and_traces_worker_invariant() {
        let outputs = |workers: usize, tag: &str| {
            let journal = tmp(&format!("ident-{tag}.journal"));
            let trace = tmp(&format!("ident-{tag}.trace"));
            // One final merged checkpoint only (threshold above the
            // domain count): intermediate checkpoints sample in-flight
            // scheduler state, which is timing-dependent by design.
            let ds = run(
                7,
                RunnerConfig {
                    stop_after: Some(400),
                    chaos: Some(ChaosSpec { profile: ChaosProfile::Flaky, seed: 7 }),
                    journal: Some(JournalSpec {
                        checkpoint_every: 1_000_000,
                        ..JournalSpec::new(journal.clone())
                    }),
                    trace: Some(TraceSpec::new(&trace).with_seed(7)),
                    ..RunnerConfig::worker_invariant(workers)
                },
            );
            let j = std::fs::read(&journal).unwrap();
            let t = std::fs::read(&trace).unwrap();
            std::fs::remove_file(&journal).unwrap();
            std::fs::remove_file(&trace).unwrap();
            (ds.canonical_json(), j, t)
        };
        let (ds_a, j_a, t_a) = outputs(1, "w1a");
        let (ds_b, j_b, t_b) = outputs(1, "w1b");
        assert!(!j_a.is_empty() && !t_a.is_empty(), "empty sink output");
        assert_eq!(ds_a, ds_b, "dataset not byte-stable across identical runs");
        assert_eq!(j_a, j_b, "journal not byte-stable across identical runs");
        assert_eq!(t_a, t_b, "trace not byte-stable across identical runs");
        let (_, _, t_8) = outputs(8, "w8");
        assert_eq!(t_a, t_8, "trace file differs across worker counts");
    }

    /// The async sink's crash window: a hard kill can lose messages
    /// still queued behind the I/O thread, leaving the journal a valid
    /// but shorter prefix — fewer probes on disk than were completed.
    /// Resume must replay that prefix and still converge byte-for-byte
    /// with an uninterrupted run.
    #[test]
    fn resume_through_a_partially_drained_sink_queue() {
        let journal = tmp("drained.journal");
        let base = RunnerConfig { workers: 1, stop_after: Some(600), ..RunnerConfig::default() };
        run(
            63,
            RunnerConfig {
                journal: Some(JournalSpec {
                    checkpoint_every: 8,
                    ..JournalSpec::new(journal.clone())
                }),
                stop_after: Some(150),
                ..base.clone()
            },
        );
        // Chop complete trailing records off the journal — the bytes a
        // kill would have stranded in the sink channel. Each record is
        // a frame line plus a body line.
        let bytes = std::fs::read(&journal).unwrap();
        let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
        assert!(lines.len() > 40, "journal too short to truncate meaningfully");
        let truncated: Vec<u8> = lines[..lines.len() - 20].concat();
        std::fs::write(&journal, &truncated).unwrap();
        let replay = JournalReplay::load(&journal);
        assert!(replay.probes.len() < 150, "truncation did not shorten the prefix");
        assert_eq!(replay.dropped_bytes, 0, "whole-record truncation left a torn tail");
        let resumed = run(
            63,
            RunnerConfig {
                journal: Some(JournalSpec {
                    checkpoint_every: 8,
                    ..JournalSpec::new(journal.clone())
                }),
                resume_from: Some(journal.clone()),
                ..base.clone()
            },
        );
        let reference = run(63, base);
        assert_eq!(
            resumed.canonical_json(),
            reference.canonical_json(),
            "resume through a lost sink tail diverged"
        );
        std::fs::remove_file(&journal).unwrap();
    }
}

mod counterfactual {
    use super::*;
    use govdns::counterfactual::{enumerate_scenarios, is_dark, EnumerationConfig, ScenarioKind};
    use govdns::diff::DatasetView;
    use std::collections::BTreeSet;

    fn small(seed: u64) -> govdns::world::World {
        WG::new(WorldConfig::small(seed).with_scale(0.004)).generate()
    }

    fn invariant_config(scenario: Option<ScenarioSpec>, trace: Option<TraceSpec>) -> RunnerConfig {
        RunnerConfig { scenario, trace, ..RunnerConfig::worker_invariant(1) }
    }

    /// The headline counterfactual claim, end to end: killing the
    /// largest third-party DNS provider darkens government domains in
    /// *multiple countries* at once — and the run is fully observable
    /// (scenario marker in the trace, outage faults in the dataset).
    #[test]
    fn provider_outage_darkens_a_multi_country_set() {
        let world = small(7);
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let baseline = govdns::core::run_campaign(&campaign, invariant_config(None, None));
        assert_eq!(baseline.faults.outages, 0, "no blackholes without a scenario");

        let scenarios = enumerate_scenarios(
            &baseline,
            &matchers,
            &world.asn_db,
            EnumerationConfig { max_per_kind: 1, ..EnumerationConfig::default() },
        );
        let scenario = scenarios
            .iter()
            .find(|s| s.kind == ScenarioKind::Provider)
            .expect("the world outsources to at least one provider");

        let trace_path =
            std::env::temp_dir().join(format!("govdns-e2e-cf-{}.trace", std::process::id()));
        let spec = scenario.spec();
        let under = govdns::core::run_campaign(
            &campaign,
            invariant_config(Some(spec.clone()), Some(TraceSpec::new(&trace_path).with_seed(7))),
        );
        assert!(under.faults.outages > 0, "blackholed nameservers must surface as outage faults");

        let diff = DatasetView::from_dataset(&baseline).diff(&DatasetView::from_dataset(&under));
        let country_of: std::collections::BTreeMap<String, &str> =
            baseline.discovered.iter().map(|d| (d.name.to_string(), d.country.as_str())).collect();
        let countries: BTreeSet<&str> = diff
            .transitions
            .iter()
            .filter(|t| !is_dark(t.from) && is_dark(t.to))
            .filter_map(|t| country_of.get(&t.domain).copied())
            .collect();
        assert!(
            countries.len() >= 2,
            "provider {} must darken governments in multiple countries, got {countries:?}",
            scenario.subject
        );

        let log = read_trace(&trace_path).unwrap();
        assert!(
            log.stages.iter().any(|(k, v)| k == "scenario" && *v == spec.label),
            "scenario marker missing from trace stages: {:?}",
            log.stages
        );
        std::fs::remove_file(&trace_path).unwrap();
    }
}

/// Robustness: the headline rates hold across independent seeds (run
/// explicitly with `cargo test -- --ignored`; three worlds take a while).
#[test]
#[ignore = "slow: generates three worlds"]
fn headline_rates_hold_across_seeds() {
    for seed in [101, 202, 303] {
        let world = WG::new(WorldConfig::small(seed).with_scale(0.02)).generate();
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let report = Report::generate(&campaign, RunnerConfig::default());
        let multi = report.active_replication.multi_ns_share;
        assert!((95.0..100.0).contains(&multi), "seed {seed}: multi-NS {multi}");
        let equal = report.consistency.equal_pct;
        assert!((70.0..85.0).contains(&equal), "seed {seed}: P=C {equal}");
        let defective = report.delegation.any_defective_pct();
        assert!((20.0..38.0).contains(&defective), "seed {seed}: defective {defective}");
    }
}
