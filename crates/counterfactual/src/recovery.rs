//! TTL-driven recovery modeling: how long a domain *stays* resolvable
//! into an outage on cache warmth alone, and how quickly it comes back
//! once the infrastructure returns.
//!
//! The campaign measures an outage's steady state (caches cold, every
//! query hits the blast set). Real outages are experienced through
//! resolver caches: a domain with freshly-cached NS and A records keeps
//! answering until the records' TTLs run out — *time to dark* — and a
//! recovering domain stays dark for as long as negative caching holds
//! its failures — *time to recover*.
//!
//! The model replays exactly that against the simulated internet:
//!
//! 1. **Warm-up** (virtual time 0, healthy network): resolve each
//!    tracked domain's NS set and the nameserver hosts' A records
//!    through a [`StubResolver`] with RFC 2308 negative caching on.
//! 2. **Outage**: install the scenario's fault plan and advance the
//!    resolver's virtual clock across the outage window in fixed
//!    steps, re-checking liveness at each sample. A domain goes dark
//!    at the first sample where its delegation no longer resolves —
//!    i.e. when cache warmth has drained.
//! 3. **Recovery**: lift the outage at the end of the window and keep
//!    sampling; a darkened domain has recovered at the first sample
//!    where resolution succeeds again (negative-cache holds push this
//!    past the lift).
//!
//! Everything is a pure function of (world seed, scenario, window,
//! step): domains are visited in sorted order on a single thread, so
//! the per-domain timelines are byte-stable at any sweep worker count.

use std::str::FromStr;

use govdns_model::{DomainName, RecordType};
use govdns_simnet::{FaultPlan, StubResolver};
use govdns_world::World;

use crate::scenario::Scenario;

/// Recovery-sweep knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Outage duration, virtual seconds. The default outlives the
    /// world's standard 3600-second TTLs, so warm caches drain inside
    /// the window.
    pub window_s: u64,
    /// Sample cadence, virtual seconds.
    pub step_s: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { window_s: 7200, step_s: 60 }
    }
}

/// How far past the outage lift the model keeps sampling domains that
/// have not yet recovered.
const RECOVERY_TAIL_CAP_S: u64 = 7200;

/// One domain's outage timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainRecovery {
    /// The domain.
    pub domain: String,
    /// The country whose government it belongs to.
    pub country: String,
    /// Virtual seconds into the outage at which the domain first
    /// failed to resolve (`None` = cache warmth outlived the window).
    pub dark_at_s: Option<u64>,
    /// Virtual seconds after the outage lift at which the domain
    /// resolved again (`None` = never went dark, or still dark at the
    /// sampling cap).
    pub recover_s: Option<u64>,
}

/// One scenario's recovery timelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEntry {
    /// Scenario identifier, `kind:subject`.
    pub id: String,
    /// Outage window sampled, virtual seconds.
    pub window_s: u64,
    /// Sample cadence, virtual seconds.
    pub step_s: u64,
    /// Per-domain timelines, sorted by domain.
    pub domains: Vec<DomainRecovery>,
}

/// Simulates one scenario's outage-and-recovery timeline over the
/// domains in `track` (`(domain, country)` pairs — typically the
/// scenario's darkened set).
///
/// The replay runs on its own fork of `world.network`, so the caller's
/// network keeps its traffic, ordinals and fault plan untouched, and
/// the result does not depend on what that network has carried.
///
/// # Panics
///
/// Panics if a tracked domain name does not parse.
pub fn simulate_recovery(
    world: &World,
    scenario: &Scenario,
    config: RecoveryConfig,
    track: &[(String, String)],
) -> RecoveryEntry {
    let network = world.network.fork();
    let resolver = StubResolver::new(&network, world.roots.clone()).with_negative_cache();
    let step = config.step_s.max(1);

    let mut domains: Vec<(DomainName, String, String)> = track
        .iter()
        .map(|(d, c)| {
            (DomainName::from_str(d).expect("recovery: domain name"), d.clone(), c.clone())
        })
        .collect();
    domains.sort_by(|a, b| a.1.cmp(&b.1));

    // Warm-up on the healthy network at t=0.
    for (name, _, _) in &domains {
        warm(&resolver, name);
    }

    // The outage: the scenario's fault layer, nothing else.
    let spec = scenario.spec();
    network.install_faults(Some(
        FaultPlan::new(0)
            .with_blackholed_addrs(spec.blackhole_addrs.iter().copied())
            .with_blackholed_prefixes(spec.blackhole_prefixes.iter().copied())
            .with_degraded_addrs(spec.degraded_addrs.iter().copied())
            .with_degraded_prefixes(spec.degraded_prefixes.iter().copied())
            .with_degrade_ppm(spec.degrade_ppm),
    ));

    let mut dark_at: Vec<Option<u64>> = vec![None; domains.len()];
    let mut t = step;
    while t <= config.window_s {
        resolver.set_clock_s(t);
        for (i, (name, _, _)) in domains.iter().enumerate() {
            if dark_at[i].is_none() && !alive(&resolver, name) {
                dark_at[i] = Some(t);
            }
        }
        t += step;
    }

    // The lift: faults gone, but negative caches (and any stale
    // positive warmth) still govern what resolves when.
    network.install_faults(None);
    let mut recover_s: Vec<Option<u64>> = vec![None; domains.len()];
    let mut t = config.window_s + step;
    while t <= config.window_s + RECOVERY_TAIL_CAP_S {
        resolver.set_clock_s(t);
        let mut pending = false;
        for (i, (name, _, _)) in domains.iter().enumerate() {
            if dark_at[i].is_none() || recover_s[i].is_some() {
                continue;
            }
            if alive(&resolver, name) {
                recover_s[i] = Some(t - config.window_s);
            } else {
                pending = true;
            }
        }
        if !pending {
            break;
        }
        t += step;
    }

    RecoveryEntry {
        id: scenario.id(),
        window_s: config.window_s,
        step_s: step,
        domains: domains
            .into_iter()
            .enumerate()
            .map(|(i, (_, domain, country))| DomainRecovery {
                domain,
                country,
                dark_at_s: dark_at[i],
                recover_s: recover_s[i],
            })
            .collect(),
    }
}

/// Pre-outage cache warm-up: the domain's NS set plus every listed
/// nameserver host's addresses.
fn warm(resolver: &StubResolver<'_>, name: &DomainName) {
    let Ok(ns) = resolver.resolve(name, RecordType::Ns) else { return };
    for host in ns.records.iter().filter_map(|r| r.data.as_ns()) {
        let _ = resolver.resolve(host, RecordType::A);
    }
}

/// Liveness through the resolver (cache included): the domain's NS set
/// resolves non-empty and at least one listed nameserver host resolves
/// to at least one address.
fn alive(resolver: &StubResolver<'_>, name: &DomainName) -> bool {
    let Ok(ns) = resolver.resolve(name, RecordType::Ns) else { return false };
    let hosts: Vec<&DomainName> = ns.records.iter().filter_map(|r| r.data.as_ns()).collect();
    if hosts.is_empty() {
        return false;
    }
    hosts
        .iter()
        .any(|h| resolver.resolve(h, RecordType::A).map(|a| !a.records.is_empty()).unwrap_or(false))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use govdns_model::Message;
    use govdns_world::{WorldConfig, WorldGenerator};

    use super::*;
    use crate::scenario::ScenarioKind;

    fn world() -> World {
        WorldGenerator::new(WorldConfig::small(11).with_scale(0.002)).generate()
    }

    /// A scenario blackholing every authoritative server the world
    /// announces — the harshest possible outage.
    fn total_outage(world: &World) -> Scenario {
        Scenario {
            kind: ScenarioKind::Provider,
            subject: "everything".to_owned(),
            blackhole_addrs: world.network.servers().map(|s| s.addr()).collect(),
            blackhole_prefixes: BTreeSet::new(),
            degraded_addrs: BTreeSet::new(),
            degraded_prefixes: BTreeSet::new(),
            degrade_ppm: 0,
            site_groups: Vec::new(),
            candidates: BTreeSet::new(),
            candidate_domains: 0,
        }
    }

    /// The first three ground-truth domains that actually resolve on
    /// the healthy network.
    fn tracked(world: &World) -> Vec<(String, String)> {
        let resolver = StubResolver::new(&world.network, world.roots.clone());
        world
            .truth()
            .domains
            .iter()
            .filter(|d| d.alive_2021 && alive(&resolver, &d.timeline.name))
            .take(3)
            .map(|d| (d.timeline.name.to_string(), d.timeline.country.as_str().to_owned()))
            .collect()
    }

    #[test]
    fn warm_caches_outlive_short_outages_and_drain_in_long_ones() {
        let w = world();
        let scenario = total_outage(&w);
        let track = tracked(&w);
        assert!(!track.is_empty(), "world has registered domains");

        // A 30-minute outage is invisible through 3600-second TTLs.
        let short =
            simulate_recovery(&w, &scenario, RecoveryConfig { window_s: 1800, step_s: 60 }, &track);
        assert!(short.domains.iter().all(|d| d.dark_at_s.is_none()), "{short:?}");

        // A 2-hour outage drains them; every tracked domain goes dark
        // after its TTL horizon and recovers shortly after the lift.
        let long =
            simulate_recovery(&w, &scenario, RecoveryConfig { window_s: 7200, step_s: 60 }, &track);
        for d in &long.domains {
            let dark = d.dark_at_s.expect("drained past the TTL horizon");
            assert!(dark >= 3600, "went dark before the TTL horizon: {d:?}");
            let rec = d.recover_s.expect("recovered after the lift");
            assert!(rec <= 600, "recovery is prompt once faults lift: {d:?}");
        }
    }

    #[test]
    fn recovery_timelines_are_deterministic() {
        let w = world();
        let scenario = total_outage(&w);
        let track = tracked(&w);
        let cfg = RecoveryConfig { window_s: 7200, step_s: 300 };
        let a = simulate_recovery(&w, &scenario, cfg, &track);
        let b = simulate_recovery(&w, &scenario, cfg, &track);
        assert_eq!(a, b);
    }

    #[test]
    fn recovery_leaves_the_callers_network_untouched() {
        let w = world();
        let scenario = total_outage(&w);
        // `tracked` resolves on the world's network, so it has carried
        // traffic before the call.
        let track = tracked(&w);
        let root = w.roots[0];
        let q = Message::query(1, DomainName::root(), RecordType::Ns);
        assert!(w.network.deliver(root, &q).reply().is_some());
        w.network.install_faults(Some(FaultPlan::new(0).with_blackholed_addrs([root])));
        let accounting =
            || (w.network.stats(), w.network.fault_stats(), w.network.per_destination_snapshot());
        let before = accounting();

        let cfg = RecoveryConfig { window_s: 7200, step_s: 300 };
        let first = simulate_recovery(&w, &scenario, cfg, &track);
        assert_eq!(accounting(), before);
        assert!(w.network.deliver(root, &q).reply().is_none(), "the caller's plan is kept");
        assert!(first.domains.iter().all(|d| d.dark_at_s.is_some()), "{first:?}");
        assert_eq!(simulate_recovery(&w, &scenario, cfg, &track), first);
    }
}
