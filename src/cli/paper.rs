//! The paper commands: `audit`, `hijack`, `country`, `remedies` and
//! `check`. All but `check` measure one world with clean probing at
//! `--workers` and read the resulting [`Report`].

use std::process::ExitCode;

use govdns::core::analysis::consistency::{classify, ConsistencyClass};
use govdns::core::analysis::longitudinal::Longitudinal;
use govdns::core::analysis::remedies;
use govdns::prelude::*;
use govdns::world::CountryCode;

use super::with_campaign;
use crate::RunSpec;

/// Runs the paper pipeline on the spec's world and hands `f` the
/// campaign and its report.
fn measure<R>(spec: &RunSpec, f: impl FnOnce(&Campaign<'_>, Report) -> R) -> R {
    eprintln!(
        "generating world (scale {}, seed {}, loss {})...",
        spec.scale(),
        spec.seed,
        spec.loss
    );
    with_campaign(spec, |campaign| {
        eprintln!("running campaign...");
        let config = RunnerConfig { workers: spec.workers, ..RunnerConfig::default() };
        f(campaign, Report::generate(campaign, config))
    })
}

/// Every table and figure of the paper; `--csv DIR` also writes each
/// table as CSV (the bundle behind EXPERIMENTS.md and `report_s010/`).
pub fn audit(spec: &RunSpec) -> Result<ExitCode, String> {
    let report = measure(spec, |_, report| report);
    println!("{}", report.render());
    if let Some(dir) = &spec.csv {
        report.write_csv_bundle(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        eprintln!("CSV tables written to {}", dir.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// The security story of §IV-C/D: defective delegations whose
/// nameserver domains are registrable, priced at the registrar, with
/// the government domains each exposes, then the subtler
/// inconsistency-only (parked) surface. Exits 2 on any exposure so
/// scripts can alert on it.
pub fn hijack(spec: &RunSpec) -> Result<ExitCode, String> {
    let report = measure(spec, |_, report| report);
    let d = &report.delegation;

    println!("== dangling NS domains registrable right now ==");
    let mut ranked: Vec<_> = d.available.iter().collect();
    ranked.sort_by(|a, b| {
        b.affected.len().cmp(&a.affected.len()).then(a.price_usd.total_cmp(&b.price_usd))
    });
    for a in &ranked {
        println!(
            "{:<28} {:>10.2} USD  exposes {} domain(s) in {} country(ies)",
            a.name.to_string(),
            a.price_usd,
            a.affected.len(),
            a.countries.len()
        );
        for victim in a.affected.iter().take(4) {
            println!("    -> {victim}");
        }
        if a.affected.len() > 4 {
            println!("    -> ... and {} more", a.affected.len() - 4);
        }
    }
    println!();
    println!(
        "total: {} registrable d_ns, {} exposed domains, {} countries; {} of the exposed domains are already fully dark",
        d.available.len(),
        d.affected_domains,
        d.affected_countries,
        d.affected_fully_stale
    );
    if let (Some(min), Some(max)) = (d.cost_cdf.min(), d.cost_cdf.max()) {
        println!(
            "attack budget: min {min:.2} USD, median {:.2} USD, max {max:.2} USD",
            d.cost_cdf.quantile(0.5),
        );
    }

    println!();
    println!("== parked/inconsistency-only surface (no defective delegation) ==");
    let c = &report.consistency;
    for p in &c.parked {
        println!(
            "{:<28} {:>10.2} USD  referenced (parent-side only) by {} domain(s)",
            p.name.to_string(),
            p.price_usd,
            p.affected.len()
        );
        for victim in &p.affected {
            println!("    -> {victim}");
        }
    }
    println!(
        "total: {} registrable d_ns over {} domains in {} countries (cheapest: {})",
        c.parked.len(),
        c.parked_affected_domains,
        c.parked_affected_countries,
        c.parked_min_price.map_or("-".to_owned(), |p| format!("{p:.2} USD")),
    );
    Ok(if d.available.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

/// Everything the pipeline knows about one country's government DNS:
/// its seed, replication, defects, consistency, worst offenders and
/// ten-year PDNS history.
pub fn country(spec: &RunSpec) -> Result<ExitCode, String> {
    let Ok(code) = spec.operand().parse::<CountryCode>() else {
        eprintln!("`{}` is not an ISO alpha-2 code", spec.operand());
        return Ok(ExitCode::FAILURE);
    };
    measure(spec, |campaign, report| {
        let country = campaign.countries.iter().find(|c| c.code == code);
        let seed = report.dataset.seeds.iter().find(|s| s.country == code);
        let (Some(country), Some(seed)) = (country, seed) else {
            eprintln!("{code} is not a UN member state in this world");
            return Ok(ExitCode::FAILURE);
        };
        println!("{} ({}) — {}", country.name, code, country.sub_region);
        println!("seed domain: {} ({:?})", seed.name, seed.kind);

        let probes: Vec<_> = report
            .dataset
            .probes_with_country()
            .filter(|&(_, c)| c == code)
            .map(|(p, _)| p)
            .collect();
        let responsive: Vec<_> = probes.iter().filter(|p| p.parent_nonempty()).collect();
        println!("domains probed: {}   with live delegation: {}", probes.len(), responsive.len());

        let single = responsive.iter().filter(|p| p.ns_union().len() == 1).count();
        let defective = responsive.iter().filter(|p| p.defective().0).count();
        let full = responsive.iter().filter(|p| p.defective().1).count();
        let disagree = responsive
            .iter()
            .filter(|p| classify(p).is_some_and(|c| c != ConsistencyClass::Equal))
            .count();
        println!("single-nameserver domains: {single}");
        println!("defective delegations: {defective} (fully dead: {full})");
        println!("parent/child disagreements: {disagree}");

        println!("\nmost fragile domains:");
        let mut worst: Vec<_> = responsive
            .iter()
            .filter(|p| p.defective().0)
            .map(|p| {
                let dead = p.servers.iter().filter(|s| s.is_defective()).count();
                (dead, p.servers.len(), &p.domain)
            })
            .collect();
        worst.sort_by_key(|&(dead, total, _)| std::cmp::Reverse((dead * 100) / total.max(1)));
        for (dead, total, domain) in worst.into_iter().take(10) {
            println!("  {domain}: {dead}/{total} nameservers defective");
        }

        let lon = Longitudinal::build(campaign, &report.dataset.seeds);
        println!("\nPDNS history (domains seen per year):");
        for year in Longitudinal::years() {
            let n = lon.active_in_year(year).filter(|h| h.country == code).count();
            let bar = "#".repeat((n / 2).min(60));
            println!("  {year}: {n:>5} {bar}");
        }
        Ok(ExitCode::SUCCESS)
    })
}

/// Remediation plans for broken domains, optionally for one country;
/// prints at most 50.
pub fn remedies(spec: &RunSpec) -> Result<ExitCode, String> {
    let filter: Option<CountryCode> = spec.operands.first().and_then(|s| s.parse().ok());
    measure(spec, |campaign, report| {
        let mut printed = 0;
        for (probe, country) in report.dataset.probes_with_country() {
            if filter.is_some_and(|c| c != country) || !probe.parent_nonempty() {
                continue;
            }
            let plan = remedies::plan_for(probe, campaign);
            if plan.is_empty() {
                continue;
            }
            println!("{} ({country}):", plan.domain);
            for r in &plan.remedies {
                println!("  - {r:?}");
            }
            printed += 1;
            if printed >= 50 {
                println!("... (truncated at 50 domains)");
                break;
            }
        }
        eprintln!(
            "{} of {} domains need action",
            report.remedies.needing_action, report.remedies.domains
        );
    });
    Ok(ExitCode::SUCCESS)
}

/// Lints a zone master file: parse errors exit 1, single-label NS
/// targets (almost always trailing-dot typos) warn and exit 2.
pub fn check(spec: &RunSpec) -> Result<ExitCode, String> {
    let path = spec.operand();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let zone = match govdns::model::zonefile::parse(&text) {
        Ok(zone) => zone,
        Err(e) => {
            eprintln!("{path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!("{}: OK — origin {}, {} rrsets", path, zone.origin(), zone.rrset_count());
    let mut warnings = 0;
    for set in zone.iter() {
        for target in set.ns_targets() {
            if target.level() == 1 {
                println!(
                    "warning: NS target `{target}` at {} is a single label — \
                     likely a trailing-dot typo",
                    set.name()
                );
                warnings += 1;
            }
        }
    }
    Ok(if warnings > 0 { ExitCode::from(2) } else { ExitCode::SUCCESS })
}
