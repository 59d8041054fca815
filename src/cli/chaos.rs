//! `govdns chaos` and `govdns resume`: single-worker campaigns under
//! injected faults, and journaled campaigns that crash and resume.
//!
//! `chaos` runs the full pipeline against an internet with injected
//! faults (flapping servers, packet loss, REFUSED bursts, truncation,
//! latency spikes) and shows what the adaptive retry policy and the
//! second probe round recover. Its output is a pure function of `(seed,
//! profile, scale)`; running twice and diffing is the determinism smoke.
//!
//! `resume` journals every completed probe to a write-ahead log.
//! `--crash-after N` kills the process (exit 9, no cleanup) after N
//! probes; `--resume` replays the journal and finishes with a dataset
//! whose fingerprint matches a run that never crashed.

use std::path::PathBuf;
use std::process::ExitCode;

use govdns::model::persist::fnv64;
use govdns::prelude::*;

use super::with_campaign;
use crate::RunSpec;

fn breaker(spec: &RunSpec) -> BreakerPolicy {
    if spec.breaker {
        BreakerPolicy::guarded()
    } else {
        BreakerPolicy::none()
    }
}

pub fn chaos(spec: &RunSpec) -> Result<ExitCode, String> {
    let profile = spec.profile.unwrap_or(ChaosProfile::Flaky);
    // One worker keeps the query interleaving (and hence burst-triggered
    // faults and per-worker caches) deterministic.
    let config = RunnerConfig {
        workers: 1,
        retry: RetryPolicy::adaptive(),
        chaos: Some(ChaosSpec { profile, seed: spec.seed }),
        breaker: breaker(spec),
        ..RunnerConfig::default()
    };
    let report = with_campaign(spec, |campaign| Report::generate(campaign, config));

    println!("chaos profile: {profile} (seed {}, scale {})", spec.seed, spec.scale());
    println!();
    println!("== collection funnel ==");
    println!("queried:            {}", report.funnel.queried);
    println!("parent-responsive:  {}", report.funnel.parent_responsive);
    println!("parent-nonempty:    {}", report.funnel.parent_nonempty);
    println!("child-responsive:   {}", report.funnel.child_responsive);
    println!("second-round probes: {}", report.dataset.retried);
    println!();
    println!("== injected faults ==");
    let f = &report.dataset.faults;
    println!("flap timeouts: {}", f.flap_timeouts);
    println!("losses:        {}", f.losses);
    println!("refused:       {}", f.refused);
    println!("truncated:     {}", f.truncated);
    println!("delayed:       {}", f.delayed);
    println!("outcome-changing total: {}", f.injected());
    println!();
    println!("== measurement health ==");
    let h = &report.health;
    println!("degraded domains:    {} ({:.1}% of responsive)", h.degraded_domains, h.degraded_pct);
    println!("recovered in round 2: {}", h.recovered_in_round2);
    println!("retry attempts:      {}", h.retry_attempts);
    println!("retry recovered:     {}", h.retry_recovered);
    println!("retry exhausted:     {}", h.retry_exhausted);
    println!("retry budget denied: {}", h.retry_budget_denied);
    if !h.flaky_countries.is_empty() {
        println!("flakiest countries (responsive/degraded):");
        for &(c, total, degraded) in &h.flaky_countries {
            println!("  {c}  {total}/{degraded}");
        }
    }
    if spec.breaker {
        println!();
        println!("== circuit breakers ==");
        println!("tripped:          {}", h.breaker_tripped);
        println!("exchanges denied: {}", h.breaker_denied);
        println!("reclosed:         {}", h.breaker_reclosed);
        println!("reopened:         {}", h.breaker_reopened);
        if !h.quarantined.is_empty() {
            println!("quarantined destinations (denied exchanges):");
            for (dst, denied) in &h.quarantined {
                println!("  {dst}  {denied}");
            }
        }
    }
    println!();
    println!("== remediation ==");
    println!("flakiness follow-ups: {}", report.remedies.flakiness_followups);
    println!("quarantine follow-ups: {}", report.remedies.quarantine_followups);
    println!();
    print_dataset_fingerprint(&report.dataset);
    Ok(ExitCode::SUCCESS)
}

pub fn resume(spec: &RunSpec) -> Result<ExitCode, String> {
    let journal_path = spec.journal.clone().unwrap_or_else(|| PathBuf::from("campaign.journal"));
    if spec.resume {
        let replay = JournalReplay::load(&journal_path);
        println!("== journal replay ==");
        println!("records:        {}", replay.records);
        println!("probes replayed: {}", replay.probes.len());
        println!(
            "checkpoint:     {}",
            replay
                .checkpoint
                .as_ref()
                .map_or("none".to_owned(), |c| format!("at probe {}", c.probes_done)),
        );
        println!("dropped bytes:  {} (torn/corrupt tail)", replay.dropped_bytes);
        println!("prior resumes:  {}", replay.resumes);
        println!("completed:      {}", replay.completed);
        println!();
    }

    // One worker keeps the query interleaving deterministic, which is
    // what makes the resumed dataset *byte-identical* to an
    // uninterrupted one.
    let config = RunnerConfig {
        workers: 1,
        retry: if spec.profile.is_some() {
            RetryPolicy::adaptive()
        } else {
            RetryPolicy::default()
        },
        chaos: spec.profile.map(|profile| ChaosSpec { profile, seed: spec.seed }),
        breaker: breaker(spec),
        journal: Some(JournalSpec {
            checkpoint_every: 16,
            ..JournalSpec::new(journal_path.clone())
        }),
        resume_from: spec.resume.then(|| journal_path.clone()),
        ..RunnerConfig::default()
    };

    // The simulated crash: a hard exit from the progress callback — no
    // unwinding, no flushing beyond what the journal already forced.
    let ctl = match spec.crash_after {
        Some(limit) => CampaignTelemetry::new().with_progress(1, move |e: ProgressEvent| {
            if e.done >= limit {
                eprintln!("crash-after: killing the process at probe {} of {}", e.done, e.total);
                std::process::exit(9);
            }
        }),
        None => CampaignTelemetry::new(),
    };
    let dataset =
        with_campaign(spec, |campaign| govdns::core::run_campaign_with(campaign, config, &ctl));

    println!("== campaign ==");
    println!("probes:          {}", dataset.probes.len());
    println!("queries sent:    {}", dataset.traffic.queries_sent);
    println!("second-round probes: {}", dataset.retried);
    if dataset.faults.injected() > 0 {
        println!("injected faults: {}", dataset.faults.injected());
    }
    let counters = &dataset.telemetry.counters;
    for key in ["journal.replayed_probes", "journal.records_appended", "probe.breaker.tripped"] {
        if let Some(v) = counters.get(key) {
            println!("{key}: {v}");
        }
    }
    println!();
    print_dataset_fingerprint(&dataset);
    Ok(ExitCode::SUCCESS)
}

/// The closing line of the chaos and resume runs: a fingerprint of the
/// canonical dataset, equal for byte-identical datasets.
fn print_dataset_fingerprint(dataset: &MeasurementDataset) {
    let json = dataset.canonical_json();
    println!(
        "dataset fingerprint: {:016x} ({} bytes canonical)",
        fnv64(json.as_bytes()),
        json.len()
    );
}
