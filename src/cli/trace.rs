//! `govdns trace`: the flight recorder.
//!
//! **Run mode** (default) runs a traced flaky-chaos campaign, then
//! summarizes the trace: per-domain causal timelines, flight dumps, and
//! a fingerprint of the trace file itself. Its stdout never mentions
//! the worker count or a file path: identically seeded runs print
//! byte-identical output at any worker count, and the trace files they
//! write are byte-identical too. `--explain DOMAIN` replays the trace
//! events behind the domain's remedies and exits 1 when the trace never
//! sampled it; `--prom PATH` writes the Prometheus exposition.
//!
//! **Inspect mode** (`--inspect PATH`) reconstructs timelines from an
//! existing trace file, filtered by `--domain`, `--dst` and `--class`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use govdns::core::analysis::remedies::{plan_for, Remedy};
use govdns::core::DomainProbe;
use govdns::model::persist::fnv64;
use govdns::prelude::*;
use govdns::trace::{DomainBlock, TraceData, TraceEvent};

use super::{temp_trace, traced_flaky, with_campaign, write};
use crate::RunSpec;

pub fn trace(spec: &RunSpec) -> Result<ExitCode, String> {
    match &spec.inspect {
        Some(path) => inspect(path, spec),
        None => run(spec),
    }
}

/// Inspect mode: print timelines from an existing trace file.
fn inspect(path: &Path, spec: &RunSpec) -> Result<ExitCode, String> {
    let log = read_trace(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(h) = &log.header {
        println!(
            "trace: {} of {} domains sampled (sample {} ppm, flight capacity {}), complete: {}",
            log.domains.len(),
            h.domains,
            h.sample_ppm,
            h.flight_capacity,
            log.completed,
        );
    }
    if log.dropped_bytes > 0 {
        println!("torn tail: {} bytes dropped", log.dropped_bytes);
    }
    let keep = |e: &TraceEvent| {
        spec.class.as_ref().is_none_or(|want| e.class() == Some(want.as_str()))
            && spec.dst.is_none_or(|want| e.dst() == Some(want))
    };
    for block in &log.domains {
        if spec.domain.as_ref().is_some_and(|want| &block.domain != want) {
            continue;
        }
        let events: Vec<&TraceEvent> = block.events.iter().filter(|e| keep(e)).collect();
        if events.is_empty() {
            continue;
        }
        println!("\n{} (index {}, {} events):", block.domain, block.index, block.events.len());
        for e in events {
            println!("  {}", e.render());
        }
    }
    if !log.dumps.is_empty() {
        println!("\nflight dumps:");
        for d in &log.dumps {
            let domain = d.domain.as_deref().unwrap_or("-");
            println!("  {} domain={} events={}", d.trigger, domain, d.events.len());
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Run mode: a traced chaos campaign plus a deterministic summary.
fn run(spec: &RunSpec) -> Result<ExitCode, String> {
    let out = spec.out.clone().unwrap_or_else(|| temp_trace("trace"));
    let result = with_campaign(spec, |campaign| summarize(spec, campaign, &out));
    if spec.out.is_none() {
        let _ = std::fs::remove_file(&out);
    }
    result
}

fn summarize(spec: &RunSpec, campaign: &Campaign<'_>, out: &Path) -> Result<ExitCode, String> {
    let ctl = CampaignTelemetry::new();
    let report = Report::generate_with(campaign, traced_flaky(spec, out), &ctl);

    println!("traced chaos campaign: profile flaky, seed {}, scale {}", spec.seed, spec.scale());
    println!();
    println!("== campaign ==");
    println!("queried:             {}", report.funnel.queried);
    println!("parent-responsive:   {}", report.funnel.parent_responsive);
    println!("second-round probes: {}", report.dataset.retried);
    println!("degraded domains:    {}", report.health.degraded_domains);
    // NOT printed: traffic/fault totals and the dataset fingerprint.
    // Those count the resolver's internal queries too, whose number
    // depends on per-worker cache warmth — they vary with the worker
    // count even though every probe outcome (and the trace) does not.

    let log = read_trace(out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!();
    println!("== trace ==");
    let header = log.header.as_ref().ok_or("trace file has no header")?;
    println!("domains sampled:     {} of {}", log.domains.len(), header.domains);
    println!("events recorded:     {}", log.events_total());
    println!("complete:            {}", log.completed);
    let mut by_trigger: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &log.dumps {
        *by_trigger.entry(d.trigger.as_str()).or_insert(0) += 1;
    }
    for (trigger, n) in &by_trigger {
        println!("dumps[{trigger}]: {n}");
    }

    // One exemplar causal timeline, reconstructed from the trace file —
    // the first degraded domain (campaign order) that was sampled.
    let dataset = &report.dataset;
    let degraded = dataset.probes.iter().enumerate().find_map(|(i, probe)| {
        probe.degraded().then(|| log.domain(&dataset.discovered[i].name.to_string())).flatten()
    });
    if let Some(block) = degraded {
        println!();
        println!("== exemplar degraded-domain timeline ==");
        println!("{} ({} events):", block.domain, block.events.len());
        for line in block.timeline() {
            println!("  {line}");
        }
    }

    // Exits nonzero when `--explain` names a domain the trace never
    // sampled, so scripts can't mistake a typo for a clean explanation.
    let mut exit = ExitCode::SUCCESS;
    if let Some(name) = &spec.explain {
        let block = log.domain(name);
        let probe = dataset
            .discovered
            .iter()
            .position(|d| d.name.to_string() == *name)
            .and_then(|i| dataset.probes.get(i));
        match (block, probe) {
            (Some(block), Some(probe)) => explain(block, probe, campaign),
            _ => {
                eprintln!("error: --explain {name}: domain not found in the sampled trace");
                exit = ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &spec.prom {
        write(path, dataset.telemetry.render_prometheus())?;
    }

    println!();
    let bytes = std::fs::read(out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("trace fingerprint: {:016x} ({} bytes)", fnv64(&bytes), bytes.len());
    Ok(exit)
}

/// Explain a domain's remediation verdict by replaying the trace events
/// that support each remedy.
fn explain(block: &DomainBlock, probe: &DomainProbe, campaign: &Campaign<'_>) {
    println!();
    println!("== explain {} ==", block.domain);
    let plan = plan_for(probe, campaign);
    if plan.is_empty() {
        println!("no remediation needed; full timeline:");
        for line in block.timeline() {
            println!("  {line}");
        }
        return;
    }
    for remedy in &plan.remedies {
        println!("remedy: {remedy:?}");
        let support = supporting(remedy, block);
        if support.is_empty() {
            println!("  (no per-query trace events bear on this remedy)");
        }
        for e in support {
            println!("  {}", e.render());
        }
    }
}

/// The trace events that bear on a remedy: the replayed evidence an
/// operator would check before acting on the verdict.
fn supporting<'b>(remedy: &Remedy, block: &'b DomainBlock) -> Vec<&'b TraceEvent> {
    let pick = |f: &dyn Fn(&TraceEvent) -> bool| -> Vec<&'b TraceEvent> {
        block.events.iter().filter(|e| f(e)).collect()
    };
    match remedy {
        // Flakiness: the faults, backoffs, and denied retries that made
        // the domain answer only degraded.
        Remedy::MonitorFlakiness => pick(&|e| {
            matches!(
                e.data,
                TraceData::Fault { .. } | TraceData::Backoff { .. } | TraceData::RetryDenied { .. }
            )
        }),
        // A dead zone: every exchange that went unanswered.
        Remedy::RemoveDelegation => {
            pick(&|e| matches!(e.class(), Some("timeout" | "rejected" | "skipped")))
        }
        // Quarantine findings: the breaker decisions themselves.
        Remedy::Quarantined(_) => pick(&|e| {
            matches!(
                e.data,
                TraceData::BreakerDenied { .. }
                    | TraceData::BreakerTrial { .. }
                    | TraceData::Breaker { .. }
            )
        }),
        // Per-nameserver fixes: the resolution attempts and failed
        // exchanges involving that host's addresses.
        Remedy::DropNameserver(host) | Remedy::FixNameserverName(host) => {
            let host = host.to_string();
            pick(&|e| match &e.data {
                TraceData::Resolve { host: h, .. } => *h == host,
                _ => e.class().is_some_and(|c| c != "authoritative"),
            })
        }
        // Structural remedies (parent sync, replicas, placement,
        // registry locks, hijack reclaims) come from the probe's final
        // NS sets, not from individual query events.
        _ => Vec::new(),
    }
}
