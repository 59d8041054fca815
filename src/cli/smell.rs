//! `govdns smell`: detect, filter and explain delegation smells with
//! trace-cited evidence.
//!
//! **`smell run`** runs a replay-safe traced flaky-chaos campaign,
//! passes the measured delegation graph through the smell detectors,
//! and prints the verdicts. The stdout never mentions worker counts or
//! file paths, so identically seeded runs print byte-identical output,
//! and `--out` writes byte-identical canonical JSON, at any
//! `--workers`. **`smell inspect SMELLS.json`** rereads an archived
//! report without re-running the campaign.
//!
//! Both modes take `--smell KIND` (`cyclic_dependency`,
//! `single_homed_glue`, `stale_parent_ns`, `provider_monoculture`,
//! `lame_delegation`) and `--explain DOMAIN`, which prints the domain's
//! verdicts with their evidence chains and exits 1 when it has none: a
//! typo never looks like a clean bill of health.

use std::process::ExitCode;

use govdns::prelude::*;

use super::{temp_trace, traced_flaky, with_campaign, write};
use crate::RunSpec;

pub fn run(spec: &RunSpec) -> Result<ExitCode, String> {
    // The trace file is what the evidence chains cite; a temp path
    // keeps the stdout path-free and therefore diffable across runs.
    let trace_path = temp_trace("smell");
    let config = traced_flaky(spec, &trace_path);
    let ctl = CampaignTelemetry::new();
    let report = with_campaign(spec, |campaign| Report::generate_with(campaign, config, &ctl));
    let _ = std::fs::remove_file(&trace_path);

    // An empty unfiltered verdict set on a chaos campaign means the
    // detectors never saw the graph (analysis panic, empty world) — fail
    // loudly rather than archive a hollow report.
    if report.smells.verdicts.is_empty() {
        eprintln!(
            "error: smell pass produced no verdicts (analysis failures: {})",
            report.analysis_failures.len()
        );
        return Ok(ExitCode::FAILURE);
    }

    let smells = SmellReport::from_analysis(&report.smells, spec.seed, spec.scale_ppm);
    if let Some(path) = &spec.out {
        write(path, smells.canonical_json())?;
    }
    if let Some(path) = &spec.csv {
        write(path, smells.to_csv())?;
    }
    Ok(present(spec, &smells))
}

pub fn inspect(spec: &RunSpec) -> Result<ExitCode, String> {
    let [path] = &spec.operands[..] else {
        return Err("inspect needs one smell report".to_owned());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report = SmellReport::from_canonical_json(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(present(spec, &report))
}

/// Applies the kind filter and prints the report (text or JSON), then
/// the optional drill-down. Exits 1 when `--explain` names a domain
/// with no verdicts.
fn present(spec: &RunSpec, report: &SmellReport) -> ExitCode {
    let report = match spec.smell {
        Some(kind) => report.filtered(kind),
        None => report.clone(),
    };
    if spec.json {
        println!("{}", report.canonical_json());
    } else {
        print!("{}", report.render_text());
    }
    if let Some(domain) = &spec.explain {
        let Some(text) = report.explain(domain) else {
            eprintln!("error: --explain {domain}: no verdicts for this domain");
            return ExitCode::FAILURE;
        };
        println!();
        print!("{text}");
    }
    ExitCode::SUCCESS
}
