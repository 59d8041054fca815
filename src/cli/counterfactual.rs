//! `govdns counterfactual`: sweep outage scenarios over a measured
//! baseline and rank the single points of failure.
//!
//! **`rank`** prints the ranked SPOF table, or with `--json` the
//! canonical JSON; `--out` also writes the JSON to a file and `--csv`
//! the CSV. The JSON is byte-identical across identically seeded runs
//! at any `--workers`. **`run`** also lists, per scenario, every domain
//! that went dark; `--scenario` keeps the scenarios whose id contains
//! it (`provider:`, `asn:AS64500`, `cctld:zz`, ...).
//!
//! Degraded modes: `--combo` adds compound (two-at-once) scenarios;
//! `--partial K/N` fails only `K` of every `N` anycast sites;
//! `--degrade PPM` swaps the hard blackhole for a probabilistic drop;
//! `--recovery-window`/`--recovery-step` model each outage through a
//! TTL-honoring resolver cache and append per-domain recovery
//! timelines. `--journal-dir` journals each scenario campaign and
//! resumes from existing journals.
//!
//! Both modes exit 1 when the sweep enumerates no scenarios: an empty
//! report upstream of a byte-comparison is a configuration error, not a
//! clean pass.

use std::process::ExitCode;

use govdns::counterfactual::{run_sweep, SweepConfig};

use super::write;
use crate::RunSpec;

pub fn rank(spec: &RunSpec) -> Result<ExitCode, String> {
    sweep(spec, false)
}

pub fn run(spec: &RunSpec) -> Result<ExitCode, String> {
    sweep(spec, true)
}

fn sweep(spec: &RunSpec, detail: bool) -> Result<ExitCode, String> {
    let config = SweepConfig {
        seed: spec.seed,
        scale_ppm: spec.scale_ppm,
        workers: spec.workers,
        enumeration: spec.enumeration,
        scenario_filter: spec.scenario.clone(),
        journal_dir: spec.journal_dir.clone(),
        partial: spec.partial,
        degrade_ppm: spec.degrade_ppm,
        recovery: spec.recovery,
    };
    let mut report = run_sweep(&config);
    if report.entries.is_empty() {
        eprintln!(
            "counterfactual: no scenarios enumerated (seed {}, scale_ppm {}, filter {:?}) — \
             an empty report would make every downstream byte-comparison vacuous",
            config.seed, config.scale_ppm, config.scenario_filter
        );
        return Ok(ExitCode::FAILURE);
    }
    if let Some(cc) = &spec.country {
        report = report.filtered_by_country(cc);
    }

    if spec.json {
        println!("{}", report.canonical_json());
    } else {
        print!("{}", report.render_text());
        if detail {
            for entry in report.entries.iter().filter(|e| !e.darkened.is_empty()) {
                println!("\n{} darkens {} domains:", entry.id, entry.domains_darkened);
                for d in &entry.darkened {
                    println!("  {} ({}) {} -> {}", d.domain, d.country, d.from, d.to);
                }
            }
        }
    }
    if let Some(path) = &spec.out {
        write(path, report.canonical_json())?;
    }
    if let Some(path) = &spec.csv {
        write(path, report.to_csv())?;
    }
    Ok(ExitCode::SUCCESS)
}
