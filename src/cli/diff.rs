//! `govdns diff`: record runs, compare them, replay the corpus.
//!
//! **`diff run`** runs a replay-safe traced flaky-chaos campaign and
//! archives its comparable artifacts into `--out` (default
//! `run-archive`): `dataset.json` (canonical dataset), `run.trace`,
//! `telemetry.json`, `remedies.json` and `smells.json`. The campaign
//! is worker-count invariant, so two runs with the same seed archive
//! byte-identical artifacts at any `--workers`. If an analysis stage
//! fails (e.g. under `GOVDNS_FAIL_ANALYSIS=providers`), the offending
//! domains are captured into `<--corpus-dir>/<--case>.json`.
//!
//! **`diff diff A B`** compares two archived runs, as text or `--json`,
//! deterministically; `--gate` exits 1 when the runs differ.
//!
//! **`diff replay CASE...`** re-executes regression-corpus cases against
//! a fresh simnet and byte-compares the replayed trace blocks to the
//! recording; it exits 1 on a mismatch.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use govdns::diff::{counts_from_json, remedies_delta, telemetry_from_json, SmellView};
use govdns::prelude::*;

use super::{traced_flaky, with_campaign, write};
use crate::RunSpec;

pub fn run(spec: &RunSpec) -> Result<ExitCode, String> {
    let out = spec.out.clone().unwrap_or_else(|| PathBuf::from("run-archive"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let trace_path = out.join("run.trace");
    let config = traced_flaky(spec, &trace_path);
    let (max_qps, retry, second_round) = (config.max_qps, config.retry, config.second_round);
    let flight_capacity =
        config.trace.as_ref().map_or(govdns::trace::DEFAULT_FLIGHT_CAPACITY, |t| t.flight_capacity);
    let ctl = CampaignTelemetry::new();
    let report = with_campaign(spec, |campaign| Report::generate_with(campaign, config, &ctl));

    write(&out.join("dataset.json"), report.dataset.canonical_json())?;
    write(&out.join("telemetry.json"), report.dataset.telemetry.to_json())?;
    write(&out.join("remedies.json"), remedies_json(&report))?;
    let smells = SmellReport::from_analysis(&report.smells, spec.seed, spec.scale_ppm);
    write(&out.join("smells.json"), smells.canonical_json())?;

    println!("archived run: seed {}, scale_ppm {}", spec.seed, spec.scale_ppm);
    println!("domains measured:  {}", report.funnel.queried);
    println!("degraded domains:  {}", report.health.degraded_domains);
    println!("analysis failures: {}", report.analysis_failures.len());

    let Some(dir) = spec.corpus_dir.as_ref().filter(|_| !report.analysis_failures.is_empty())
    else {
        return Ok(ExitCode::SUCCESS);
    };
    let trigger: Vec<String> =
        report.analysis_failures.iter().map(|f| format!("analysis_panic:{}", f.stage)).collect();
    let name = spec.case.clone().unwrap_or_else(|| format!("seed{}-fail", spec.seed));
    let setup = ReplaySetup {
        world_seed: spec.seed,
        scale_ppm: spec.scale_ppm,
        chaos: Some((ChaosProfile::Flaky, spec.seed)),
        max_qps,
        retry,
        second_round,
        flight_capacity,
    };
    let log = read_trace(&trace_path).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    match CorpusCase::capture(&name, &trigger.join(","), &setup, &report, &log) {
        Ok(case) => {
            let path = case.save(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            println!("corpus case captured: {} ({} domains)", path.display(), case.domains.len());
        }
        Err(reason) => println!("corpus capture skipped: {reason}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `remedies.json`: the report's remediation tallies as a flat,
/// fixed-order count map.
fn remedies_json(report: &Report) -> String {
    let r = &report.remedies;
    format!(
        "{{\"needing_action\":{},\"domains\":{},\"removals\":{},\"ns_fixes\":{},\
         \"synchronizations\":{},\"hijack_exposures\":{},\"placement_advice\":{},\
         \"flakiness_followups\":{},\"quarantine_followups\":{}}}",
        r.needing_action,
        r.domains,
        r.removals,
        r.ns_fixes,
        r.synchronizations,
        r.hijack_exposures,
        r.placement_advice,
        r.flakiness_followups,
        r.quarantine_followups,
    )
}

pub fn diff(spec: &RunSpec) -> Result<ExitCode, String> {
    let [a, b] = &spec.operands[..] else {
        return Err("diff needs two run directories".to_owned());
    };
    let diff = build_diff(Path::new(a), Path::new(b), spec.telemetry)?;
    if spec.json {
        println!("{}", diff.to_json());
    } else {
        let opts = RenderOptions { domain: spec.domain.clone(), only_changed: spec.only_changed };
        print!("{}", diff.render_text(&opts));
    }
    if spec.gate && !diff.is_empty() {
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn build_diff(a: &Path, b: &Path, telemetry: bool) -> Result<RunDiff, String> {
    let read = |path: PathBuf| -> Result<String, String> {
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let view_a = DatasetView::from_canonical_json(&read(a.join("dataset.json"))?)?;
    let view_b = DatasetView::from_canonical_json(&read(b.join("dataset.json"))?)?;
    let mut diff = RunDiff { dataset: view_a.diff(&view_b), ..RunDiff::default() };

    let remedies_a = a.join("remedies.json");
    let remedies_b = b.join("remedies.json");
    if remedies_a.exists() && remedies_b.exists() {
        diff.remedies = remedies_delta(
            &counts_from_json(&read(remedies_a)?)?,
            &counts_from_json(&read(remedies_b)?)?,
        );
    }

    let smells_a = a.join("smells.json");
    let smells_b = b.join("smells.json");
    if smells_a.exists() && smells_b.exists() {
        let view_a = SmellView::from_canonical_json(&read(smells_a)?)?;
        let view_b = SmellView::from_canonical_json(&read(smells_b)?)?;
        diff.smells = Some(view_a.diff(&view_b));
    }

    let trace_a = a.join("run.trace");
    let trace_b = b.join("run.trace");
    if trace_a.exists() && trace_b.exists() {
        let (log_a, log_b) = govdns::trace::read_trace_pair(&trace_a, &trace_b)
            .map_err(|e| format!("trace files: {e}"))?;
        diff.trace = Some(TraceDiff::compare(&log_a, &log_b));
    }

    if telemetry {
        diff.telemetry = Some(
            telemetry_from_json(&read(a.join("telemetry.json"))?)?
                .delta(&telemetry_from_json(&read(b.join("telemetry.json"))?)?),
        );
    }
    Ok(diff)
}

pub fn replay(spec: &RunSpec) -> Result<ExitCode, String> {
    let mut failed = false;
    for path in &spec.operands {
        let case = CorpusCase::load(Path::new(path))?;
        println!(
            "replaying {}: trigger {}, {} domains, world seed {}",
            case.name,
            case.trigger,
            case.domains.len(),
            case.setup.world_seed
        );
        let outcome = case.replay()?;
        if outcome.is_clean() {
            println!("  byte-identical: {} of {} domains", outcome.matched, outcome.domains);
            continue;
        }
        failed = true;
        println!(
            "  MISMATCH: {} of {} domains diverged",
            outcome.mismatches.len(),
            outcome.domains
        );
        for m in &outcome.mismatches {
            println!("  {}: {}", m.domain, m.detail);
        }
    }
    Ok(if failed { ExitCode::from(1) } else { ExitCode::SUCCESS })
}
