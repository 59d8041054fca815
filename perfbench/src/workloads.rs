//! The three workloads, one pass each, and the census of every layer
//! that traced runs add. README.md in this directory says why each
//! workload exists and which metrics it is meant to move.

use std::path::{Path, PathBuf};
use std::time::Instant;

use govdns_core::analysis::concentration::ConcentrationAnalysis;
use govdns_core::analysis::consistency::ConsistencyAnalysis;
use govdns_core::analysis::delegation::DelegationAnalysis;
use govdns_core::analysis::diversity::DiversityTable;
use govdns_core::analysis::longitudinal::Longitudinal;
use govdns_core::analysis::providers::ProviderAnalysis;
use govdns_core::analysis::remedies::RemediationSummary;
use govdns_core::analysis::replication::{
    ActiveReplication, DomainsPerCountry, PrivateShare, SingleNsChurn, YearlyTotals,
};
use govdns_core::analysis::smells::SmellAnalysis;
use govdns_core::discovery::{discover, DiscoveryConfig};
use govdns_core::report::Report;
use govdns_core::seed::select_seeds;
use govdns_core::{
    run_campaign_with, BreakerPolicy, Campaign, CampaignTelemetry, ChaosSpec, JournalReplay,
    JournalSpec, MeasurementDataset, RetryPolicy, RunnerConfig,
};
use govdns_counterfactual::{
    enumerate_scenarios, run_sweep, EnumerationConfig, PartialDial, RecoveryConfig, SweepConfig,
};
use govdns_simnet::ChaosProfile;
use govdns_trace::{read_trace, TraceSpec};
use govdns_world::{ProviderMatcher, World, WorldConfig, WorldGenerator};

use crate::checks::{fingerprint_dir, fnv64, Fingerprints};
use crate::layers::{rss_mb, Samples};
use crate::spans::Recorder;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline run: campaign, every analysis, report.
    Audit,
    /// Probing under hostile chaos with both sinks on, read back.
    Hostile,
    /// The pinned counterfactual SPOF sweep.
    Sweep,
}

/// State shared by the passes of one benchmark process.
#[derive(Debug)]
pub struct Env {
    /// World seed (also the chaos and trace-sampling seed).
    pub seed: u64,
    /// Probing workers (or sweep scenario workers).
    pub workers: usize,
    /// Scratch directory for the files passes write.
    pub dir: PathBuf,
    /// Span recorder, enabled for traced passes.
    pub rec: Recorder,
    /// Per-layer observations from traced passes and the census.
    pub samples: Samples,
}

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// World generation plus provider matchers.
    pub setup_s: f64,
    /// From a built world to a checked result.
    pub run_s: f64,
    /// Queries sent per probed domain.
    pub queries_per_domain: f64,
    /// Peak resident set of the process at the end of the pass.
    pub peak_rss_mb: f64,
    /// World generations inside `run_s`.
    pub world_generations: usize,
    /// Fingerprints of the output that must equal the pins or a
    /// reference pass: the paper CSVs (`audit`), the SPOF report's
    /// canonical JSON (`sweep`), nothing (`hostile`, which checks
    /// itself).
    pub output: Fingerprints,
}

impl Pass {
    /// One line of `key=value` fields, how a pass run in a child
    /// process reports back.
    pub fn to_line(&self) -> String {
        let output: Vec<String> =
            self.output.iter().map(|(file, hash)| format!("{file}:{hash:016x}")).collect();
        format!(
            "pass setup_s={} run_s={} queries_per_domain={} peak_rss_mb={} world_generations={} \
             output={}",
            self.setup_s,
            self.run_s,
            self.queries_per_domain,
            self.peak_rss_mb,
            self.world_generations,
            output.join(",")
        )
    }

    /// Parses [`Pass::to_line`].
    ///
    /// # Errors
    ///
    /// Names what is missing or malformed.
    pub fn from_line(line: &str) -> Result<Pass, String> {
        let fields: std::collections::BTreeMap<&str, &str> = line
            .strip_prefix("pass ")
            .ok_or_else(|| format!("not a pass line: {line:?}"))?
            .split(' ')
            .filter_map(|kv| kv.split_once('='))
            .collect();
        let field =
            |key: &str| fields.get(key).copied().ok_or_else(|| format!("pass line lacks {key}"));
        let number =
            |key: &str| field(key)?.parse::<f64>().map_err(|_| format!("pass line: bad {key}"));
        let mut output = Fingerprints::new();
        for item in field("output")?.split(',').filter(|s| !s.is_empty()) {
            let (file, hash) = item.split_once(':').ok_or("pass line: bad output")?;
            let hash = u64::from_str_radix(hash, 16).map_err(|_| "pass line: bad output hash")?;
            output.insert(file.to_owned(), hash);
        }
        Ok(Pass {
            setup_s: number("setup_s")?,
            run_s: number("run_s")?,
            queries_per_domain: number("queries_per_domain")?,
            peak_rss_mb: number("peak_rss_mb")?,
            world_generations: field("world_generations")?
                .parse()
                .map_err(|_| "pass line: bad world_generations")?,
            output,
        })
    }
}

/// Sweep parameters of the CI recovery gate, pinned byte-for-byte in
/// `corpus/spof/recovery-seed7.json` at seed 7.
pub const SWEEP_PINNED_SEED: u64 = 7;
/// The sweep's output name in [`Pass::output`].
pub const SPOF_JSON: &str = "spof.json";
const SWEEP_SCALE_PPM: u64 = 2000;

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "audit" => Some(Workload::Audit),
            "hostile" => Some(Workload::Hostile),
            "sweep" => Some(Workload::Sweep),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Audit => "audit",
            Workload::Hostile => "hostile",
            Workload::Sweep => "sweep",
        }
    }

    /// World scale, as a fraction of paper scale.
    pub fn scale(self) -> f64 {
        match self {
            Workload::Audit => 0.10,
            Workload::Hostile => 0.05,
            Workload::Sweep => SWEEP_SCALE_PPM as f64 / 1e6,
        }
    }

    /// The workload's campaign configuration, sinks off. For `sweep`
    /// this is the sweep's own inner campaign configuration.
    fn runner_config(self, seed: u64, workers: usize) -> RunnerConfig {
        match self {
            Workload::Audit => RunnerConfig { workers, ..RunnerConfig::default() },
            // No circuit breakers: under hostile chaos the guarded
            // policy quarantines nearly every destination (about 98% of
            // exchanges skipped at scale 0.05), which leaves neither the
            // probe layer nor the journal's growth with scale to measure.
            Workload::Hostile => RunnerConfig {
                workers,
                retry: RetryPolicy::adaptive(),
                chaos: Some(ChaosSpec { profile: ChaosProfile::Hostile, seed }),
                breaker: BreakerPolicy::none(),
                ..RunnerConfig::default()
            },
            Workload::Sweep => sweep_baseline_config(),
        }
    }

    /// One measured pass.
    pub fn pass(self, env: &mut Env, tag: &str) -> Pass {
        match self {
            Workload::Audit => audit_pass(env, tag),
            Workload::Hostile => hostile_pass(env, tag),
            Workload::Sweep => sweep_pass(env),
        }
    }

    /// Set-up alone: world generation plus matchers, in seconds.
    pub fn setup_only(self, env: &mut Env) -> f64 {
        let t = Instant::now();
        drop(build_world(env, self.scale()));
        t.elapsed().as_secs_f64()
    }
}

/// The sweep's configuration: compound scenarios, a 1/2 partial dial
/// and recovery modeling (window 7200 s, step 600 s).
fn sweep_config(seed: u64, workers: usize) -> SweepConfig {
    SweepConfig {
        seed,
        scale_ppm: SWEEP_SCALE_PPM,
        workers,
        enumeration: EnumerationConfig { max_per_kind: 2, compound: true },
        partial: Some(PartialDial { k: 1, n: 2 }),
        recovery: Some(RecoveryConfig { window_s: 7200, step_s: 600 }),
        ..SweepConfig::default()
    }
}

/// The campaign configuration `run_sweep` uses for its baseline and
/// every scenario (single worker, unbudgeted adaptive retries).
fn sweep_baseline_config() -> RunnerConfig {
    RunnerConfig {
        workers: 1,
        retry: RetryPolicy { per_destination_budget: None, ..RetryPolicy::adaptive() },
        ..RunnerConfig::default()
    }
}

/// Generates the world and its provider matchers under `world.*` spans.
fn build_world(env: &mut Env, scale: f64) -> (World, Vec<ProviderMatcher>) {
    let seed = env.seed;
    let world = env.rec.span("world.generate", |_| {
        WorldGenerator::new(WorldConfig::small(seed).with_scale(scale)).generate()
    });
    let matchers = env.rec.span("world.matchers", |_| world.catalog.matchers());
    if env.rec.enabled() {
        env.samples.add("world.servers", world.network.server_count() as f64);
        env.samples.add("world.pdns_entries", world.pdns.len() as f64);
        env.samples.add("world.rss_mb", rss_mb("VmRSS"));
    }
    (world, matchers)
}

fn queries_per_domain(ds: &MeasurementDataset) -> f64 {
    ds.traffic.queries_sent as f64 / ds.probes.len().max(1) as f64
}

/// Probe, rate-limit and round samples of one campaign.
fn add_campaign_samples(samples: &mut Samples, ds: &MeasurementDataset) {
    let t = &ds.telemetry;
    let stage = |name: &str| t.stages.get(name).map_or(0.0, |s| s.total_secs);
    samples.add("runner.round1_s", stage("round1"));
    samples.add("runner.round2_s", stage("round2"));
    samples.add("probe.queries", ds.traffic.queries_sent as f64);
    samples
        .add("probe.retries", t.counters.get("probe.retry.attempts").copied().unwrap_or(0) as f64);
    samples.add("probe.timeouts", ds.traffic.timeouts as f64);
    samples.add(
        "probe.answered_ratio",
        ds.traffic.responses_received as f64 / ds.traffic.queries_sent.max(1) as f64,
    );
    let busiest = t.ledger.as_ref().map_or(0, |l| l.busiest_destination_queries);
    samples.add("ratelimit.busiest_dst_queries", busiest as f64);
}

fn audit_pass(env: &mut Env, tag: &str) -> Pass {
    let t0 = Instant::now();
    let (world, matchers) = build_world(env, Workload::Audit.scale());
    let setup_s = t0.elapsed().as_secs_f64();
    let campaign = Campaign::new(&world, &matchers);
    let config = Workload::Audit.runner_config(env.seed, env.workers);
    let csv_dir = env.dir.join(format!("audit-{tag}"));

    let t1 = Instant::now();
    let ctl = CampaignTelemetry::new();
    // Traced passes split `Report::generate_with` into its two public
    // halves so the campaign and the analyses get spans of their own.
    let report = if env.rec.enabled() {
        let ds = env.rec.span("runner.campaign", |_| run_campaign_with(&campaign, config, &ctl));
        let report = env.rec.span("analysis.total", |_| Report::from_dataset(&campaign, ds));
        env.samples.add("analysis.rss_mb", rss_mb("VmRSS"));
        report
    } else {
        Report::generate_with(&campaign, config, &ctl)
    };
    std::hint::black_box(env.rec.span("report.render", |_| report.render()));
    env.rec
        .span("report.csv", |_| report.write_csv_bundle(&csv_dir))
        .expect("write the CSV bundle");
    let prints = fingerprint_dir(&csv_dir).expect("read the CSV bundle back");
    assert!(
        report.analysis_failures.is_empty(),
        "analysis failures: {:?}",
        report.analysis_failures
    );
    let run_s = t1.elapsed().as_secs_f64();

    if env.rec.enabled() {
        add_campaign_samples(&mut env.samples, &report.dataset);
        env.samples.add("report.csv_bytes", dir_bytes(&csv_dir) as f64);
    }
    std::fs::remove_dir_all(&csv_dir).expect("remove the CSV bundle");
    Pass {
        setup_s,
        run_s,
        queries_per_domain: queries_per_domain(&report.dataset),
        peak_rss_mb: rss_mb("VmHWM"),
        world_generations: 0,
        output: prints,
    }
}

fn hostile_pass(env: &mut Env, tag: &str) -> Pass {
    let t0 = Instant::now();
    let (world, matchers) = build_world(env, Workload::Hostile.scale());
    let setup_s = t0.elapsed().as_secs_f64();
    let campaign = Campaign::new(&world, &matchers);
    let config = Workload::Hostile.runner_config(env.seed, env.workers);

    let t1 = Instant::now();
    let ds = sink_campaign(env, "runner.campaign", &campaign, config, &format!("hostile-{tag}"));
    let run_s = t1.elapsed().as_secs_f64();
    if env.rec.enabled() {
        add_campaign_samples(&mut env.samples, &ds);
    }
    Pass {
        setup_s,
        run_s,
        queries_per_domain: queries_per_domain(&ds),
        peak_rss_mb: rss_mb("VmHWM"),
        world_generations: 0,
        output: Fingerprints::new(),
    }
}

/// Runs `config` with a journal and a fully sampled trace, reads both
/// back and checks them against the returned dataset: the journal
/// replays as completed with no dropped bytes and the same probes, and
/// the trace holds one block per discovered domain, in order.
fn sink_campaign(
    env: &mut Env,
    span: &str,
    campaign: &Campaign<'_>,
    config: RunnerConfig,
    file_stem: &str,
) -> MeasurementDataset {
    let journal_path = env.dir.join(format!("{file_stem}.journal"));
    let trace_path = env.dir.join(format!("{file_stem}.trace"));
    let config = RunnerConfig {
        journal: Some(JournalSpec::new(&journal_path)),
        trace: Some(TraceSpec::new(&trace_path).with_seed(env.seed)),
        ..config
    };
    let ctl = CampaignTelemetry::new();
    let ds = env.rec.span(span, |_| run_campaign_with(campaign, config, &ctl));
    let replay = env.rec.span("journal.replay", |_| JournalReplay::load(&journal_path));
    let log = env.rec.span("trace.read", |_| read_trace(&trace_path)).expect("read the trace");

    assert!(replay.completed, "journal did not replay as completed");
    assert_eq!(replay.dropped_bytes, 0, "journal replay dropped bytes");
    assert!(replay.probes == ds.probes, "journal probes differ from the returned dataset");
    assert_eq!(log.domains.len(), ds.discovered.len(), "trace blocks vs discovered domains");
    for (block, domain) in log.domains.iter().zip(&ds.discovered) {
        assert_eq!(block.domain, domain.name.to_string(), "trace block order");
    }

    if env.rec.enabled() {
        let journal_bytes = file_bytes(&journal_path);
        let gauge = |name: &str| ds.telemetry.gauges.get(name).copied().unwrap_or(0) as f64;
        env.samples.add("journal.bytes", journal_bytes as f64);
        env.samples
            .add("journal.bytes_per_domain", journal_bytes as f64 / ds.probes.len().max(1) as f64);
        env.samples.add("trace.bytes", file_bytes(&trace_path) as f64);
        env.samples.add("runner.sink_wait_ns", gauge("runner.sink_wait_ns"));
        env.samples.add("runner.sink_queue_depth", gauge("runner.sink_queue_depth"));
    }
    std::fs::remove_file(&journal_path).expect("remove the journal");
    std::fs::remove_file(&trace_path).expect("remove the trace");
    ds
}

fn sweep_pass(env: &mut Env) -> Pass {
    let t0 = Instant::now();
    let (world, matchers) = build_world(env, Workload::Sweep.scale());
    let setup_s = t0.elapsed().as_secs_f64();
    // The sweep's load on the measured servers is that of its baseline
    // campaign. `run_sweep` keeps its datasets to itself, so the baseline
    // runs here on the set-up world, outside the timed region; the world
    // is dropped before the sweep builds its own.
    let baseline = run_campaign_with(
        &Campaign::new(&world, &matchers),
        sweep_baseline_config(),
        &CampaignTelemetry::new(),
    );
    drop((matchers, world));

    let t1 = Instant::now();
    let config = sweep_config(env.seed, env.workers);
    let report = env.rec.span("counterfactual.sweep", |_| run_sweep(&config));
    let json = report.canonical_json();
    let run_s = t1.elapsed().as_secs_f64();
    Pass {
        setup_s,
        run_s,
        queries_per_domain: queries_per_domain(&baseline),
        peak_rss_mb: rss_mb("VmHWM"),
        // One baseline world, then one per scenario and one more per
        // scenario for its recovery replay.
        world_generations: 1 + 2 * report.entries.len(),
        output: [(SPOF_JSON.to_owned(), fnv64(json.as_bytes()))].into(),
    }
}

/// Times every layer the workload's passes do not reach on their own,
/// on fresh worlds at the workload's seed and scale, so each traced run
/// reports the full per-layer list. Runs outside every pass and every
/// end-to-end metric.
pub fn census(workload: Workload, env: &mut Env) {
    let scale = workload.scale();
    let config = workload.runner_config(env.seed, env.workers);
    // Seed selection, discovery, the bare campaign and every analysis
    // stage, on one world.
    {
        let (world, matchers) = fresh_world(env, scale);
        let campaign = Campaign::new(&world, &matchers);
        let seeds = env.rec.span("seed.select", |_| select_seeds(&campaign));
        let discovered = env.rec.span("discovery.discover", |_| {
            discover(&campaign, &seeds, DiscoveryConfig::paper(campaign.collection_date))
        });
        env.samples.add("discovery.domains", discovered.len() as f64);
        let ctl = CampaignTelemetry::new();
        let ds = env
            .rec
            .span("runner.bare_campaign", |_| run_campaign_with(&campaign, config.clone(), &ctl));
        add_campaign_samples(&mut env.samples, &ds);
        time_analyses(env, &campaign, &ds);
        let report = env.rec.span("analysis.total", |_| Report::from_dataset(&campaign, ds));
        env.samples.add("analysis.rss_mb", rss_mb("VmRSS"));
        std::hint::black_box(env.rec.span("report.render", |_| report.render()));
        let csv_dir = env.dir.join("census-csv");
        env.rec
            .span("report.csv", |_| report.write_csv_bundle(&csv_dir))
            .expect("write the CSV bundle");
        env.samples.add("report.csv_bytes", dir_bytes(&csv_dir) as f64);
        std::fs::remove_dir_all(&csv_dir).expect("remove the CSV bundle");
    }
    // The same campaign with the journal and the trace on, at no more
    // than the hostile workload's scale: at audit scale the journal alone
    // is about 300 MB and reading it back peaks near 4 GiB.
    {
        let (world, matchers) = fresh_world(env, scale.min(Workload::Hostile.scale()));
        let campaign = Campaign::new(&world, &matchers);
        sink_campaign(env, "runner.sink_campaign", &campaign, config, "census");
    }
    // The counterfactual engine's baseline campaign and its scenario
    // enumeration.
    let (world, matchers) = fresh_world(env, scale);
    let campaign = Campaign::new(&world, &matchers);
    let ctl = CampaignTelemetry::new();
    let baseline = env.rec.span("counterfactual.baseline", |_| {
        run_campaign_with(&campaign, sweep_baseline_config(), &ctl)
    });
    let scenarios = env.rec.span("counterfactual.enumerate", |_| {
        enumerate_scenarios(&baseline, &matchers, &world.asn_db, sweep_config(0, 1).enumeration)
    });
    env.samples.add("counterfactual.scenarios", scenarios.len() as f64);
}

fn fresh_world(env: &mut Env, scale: f64) -> (World, Vec<ProviderMatcher>) {
    let seed = env.seed;
    let world = env.rec.span("census.world", |_| {
        WorldGenerator::new(WorldConfig::small(seed).with_scale(scale)).generate()
    });
    let matchers = world.catalog.matchers();
    (world, matchers)
}

/// Each analysis stage through its public entry point, as
/// `Report::from_dataset` runs them.
fn time_analyses(env: &mut Env, campaign: &Campaign<'_>, ds: &MeasurementDataset) {
    use std::hint::black_box;
    let rec = &mut env.rec;
    let lon = rec.span("analysis.longitudinal", |_| Longitudinal::build(campaign, &ds.seeds));
    black_box(rec.span("analysis.yearly", |_| YearlyTotals::compute_raw(campaign, &ds.seeds)));
    black_box(rec.span("analysis.per_country", |_| DomainsPerCountry::compute(&lon, 2020)));
    black_box(rec.span("analysis.churn", |_| SingleNsChurn::compute(&lon)));
    black_box(rec.span("analysis.private_share", |_| PrivateShare::compute(&lon)));
    black_box(rec.span("analysis.providers", |_| ProviderAnalysis::compute(&lon, campaign)));
    black_box(rec.span("analysis.replication", |_| ActiveReplication::compute(ds)));
    black_box(rec.span("analysis.diversity", |_| DiversityTable::compute(ds, campaign)));
    black_box(rec.span("analysis.delegation", |_| DelegationAnalysis::compute(ds, campaign)));
    black_box(rec.span("analysis.consistency", |_| ConsistencyAnalysis::compute(ds, campaign)));
    black_box(rec.span("analysis.concentration", |_| ConcentrationAnalysis::compute(ds, campaign)));
    black_box(rec.span("analysis.remedies", |_| RemediationSummary::compute(ds, campaign)));
    black_box(rec.span("analysis.smells", |_| SmellAnalysis::compute(ds, campaign)));
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.filter_map(Result::ok).map(|e| file_bytes(&e.path())).sum())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_lines_round_trip() {
        let pass = Pass {
            setup_s: 2.5,
            run_s: 6.123456789,
            queries_per_domain: 10.7,
            peak_rss_mb: 544.8,
            world_generations: 27,
            output: [("fig04.csv".to_owned(), 0x0123_4567_89ab_cdef), ("smells.csv".to_owned(), 7)]
                .into(),
        };
        assert_eq!(Pass::from_line(&pass.to_line()), Ok(pass.clone()));
        let empty = Pass { output: Fingerprints::new(), ..pass };
        assert_eq!(Pass::from_line(&empty.to_line()), Ok(empty));
        assert!(Pass::from_line("pass run_s=1").is_err());
    }
}
