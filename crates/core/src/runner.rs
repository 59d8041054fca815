//! The campaign runner: seeds → discovery → parallel probing → second
//! round → dataset.
//!
//! Observability: [`run_campaign_with`] accepts a [`CampaignTelemetry`]
//! that wires the whole pipeline into one
//! [`Registry`](govdns_telemetry::Registry) — per-stage wall-clock
//! spans, network counters, worker utilization, progress callbacks, and
//! the §III-D query ledger. The resulting snapshot is embedded in the
//! returned [`MeasurementDataset`].
//!
//! Crash safety: with [`RunnerConfig::journal`] set, every completed
//! probe is appended to a write-ahead journal (see
//! [`journal`](crate::journal)) and the full pipeline state is
//! checkpointed periodically. A campaign killed mid-flight is resumed
//! with [`RunnerConfig::resume_from`]: the runner replays the journal,
//! restores the checkpointed rate-limiter ledger, network accounting,
//! resolver cache, and breaker bank, and re-probes only the remainder.
//! With a single worker (and no baseline packet loss) the resumed
//! dataset is byte-identical to the uninterrupted run's
//! `canonical_json()` — the same determinism contract the chaos
//! machinery already guarantees.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use govdns_model::persist::fnv64;
use govdns_model::{DomainName, RecordType};
use govdns_simnet::{CacheEntry, ChaosProfile, FaultPlan, Prefix24};
use govdns_telemetry::{ProgressEvent, Registry};
use govdns_trace::{TraceSpec, Tracer};

use crate::discovery::{self, DiscoveryConfig};
use crate::journal::{Checkpoint, JournalHeader, JournalReplay, JournalSpec, JournalWriter};
use crate::probe::{BreakerBank, BreakerPolicy, DomainProbe, ProbeClient, RetryPolicy};
use crate::ratelimit::RateLimiter;
use crate::seed;
use crate::sink::{self, JournalSink};
use crate::{Campaign, MeasurementDataset};

/// Contiguous domains a worker claims per `fetch_add` when plenty of
/// work remains; near the tail every claim degrades to a single domain
/// so stragglers cannot strand unprobed work behind an idle worker.
const CLAIM_CHUNK: usize = 16;

/// Chaos selection for a campaign run: which named fault preset to
/// install on the network, under which seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChaosSpec {
    /// The fault preset.
    pub profile: ChaosProfile,
    /// Seed for the plan's deterministic fault decisions (independent of
    /// the world seed so the same internet can be stressed differently).
    pub seed: u64,
}

/// A counterfactual outage scenario layered on top of the (optional)
/// chaos plan for one campaign run: every query to the scenario's
/// destination set is hard-failed with `FaultKind::Outage`, while
/// decisions outside the set are untouched (the blackhole layer is
/// checked before — and independently of — the probabilistic rules).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScenarioSpec {
    /// Stable scenario label (e.g. `provider:dnsmadefast`), echoed into
    /// the journal header and the trace's stage markers.
    pub label: String,
    /// Individual addresses taken out by the scenario.
    pub blackhole_addrs: Vec<Ipv4Addr>,
    /// Whole /24s taken out — the anycast model: killing a prefix takes
    /// out every sibling site announced from it.
    pub blackhole_prefixes: Vec<Prefix24>,
    /// Individual addresses degraded (probabilistically dropped at
    /// `degrade_ppm`) instead of hard-failed.
    pub degraded_addrs: Vec<Ipv4Addr>,
    /// Whole /24s degraded at `degrade_ppm`.
    pub degraded_prefixes: Vec<Prefix24>,
    /// Drop rate for the degraded sets, in parts per million (`0` turns
    /// the degrade layer off even when the sets are non-empty).
    pub degrade_ppm: u32,
}

impl ScenarioSpec {
    /// Whether the scenario takes out nothing.
    pub fn is_empty(&self) -> bool {
        self.blackhole_addrs.is_empty()
            && self.blackhole_prefixes.is_empty()
            && (self.degrade_ppm == 0
                || (self.degraded_addrs.is_empty() && self.degraded_prefixes.is_empty()))
    }
}

/// Runner parameters.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Probe worker threads.
    pub workers: usize,
    /// Query-rate cap (queries per second, accounted not slept).
    pub max_qps: u32,
    /// Whether to run the second round for domains whose parent returned
    /// NS records but no nameserver authoritatively answered.
    pub second_round: bool,
    /// Per-destination soft cap for the query ledger (`None` = uncapped,
    /// an explicit choice rather than a zero sentinel): destinations
    /// that received at least this many queries are flagged in the
    /// ethics accounting.
    pub destination_cap: Option<u64>,
    /// How probe clients retry transient-looking failures.
    pub retry: RetryPolicy,
    /// Fault injection to install on the network for this run (`None` =
    /// clean delivery).
    pub chaos: Option<ChaosSpec>,
    /// Counterfactual outage to layer on top of the chaos plan (`None` =
    /// the measured world as-is). Shapes observations, so it is part of
    /// the journal's config echo: a scenario journal only resumes under
    /// the same scenario.
    pub scenario: Option<ScenarioSpec>,
    /// Per-destination circuit breakers: when enabled, destinations
    /// whose exchanges keep failing are quarantined — further exchanges
    /// are skipped (not sent, not charged) until a cooldown round
    /// admits a half-open trial.
    pub breaker: BreakerPolicy,
    /// Write-ahead journaling: where to persist completed probes and
    /// periodic state checkpoints (`None` = no journal).
    pub journal: Option<JournalSpec>,
    /// Resume a crashed campaign from this journal: replay its probes,
    /// restore its best checkpoint, and probe only the remainder.
    pub resume_from: Option<PathBuf>,
    /// Stop (gracefully) after this many completed probes, yielding a
    /// truncated dataset — the test/CI hook for simulating a campaign
    /// that dies mid-flight with its journal intact.
    pub stop_after: Option<usize>,
    /// Flight recorder: where to write the per-query trace file (`None`
    /// = tracing off). Tracing is strictly observational — the dataset
    /// is identical with or without it — so it is excluded from the
    /// journal's config echo like the other scheduling-only knobs.
    pub trace: Option<TraceSpec>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            workers: 8,
            max_qps: 200,
            second_round: true,
            destination_cap: None,
            retry: RetryPolicy::none(),
            chaos: None,
            scenario: None,
            breaker: BreakerPolicy::none(),
            journal: None,
            resume_from: None,
            stop_after: None,
            trace: None,
        }
    }
}

impl RunnerConfig {
    /// The worker-count-invariant configuration: `workers` probe
    /// workers, adaptive retries with no per-destination budget, and no
    /// circuit breakers.
    ///
    /// Workers claim domains in whatever order the scheduler hands them
    /// out, so any state that several probes share changes with the
    /// interleaving. A per-destination retry budget is such state (which
    /// probe gets the last retry depends on who reached the destination
    /// first), and so is a breaker (it trips on the interleaved sequence
    /// of failures). With both off, every exchange's outcome depends only
    /// on its own seeded fault decisions, and the trace file and the
    /// canonical dataset are byte-identical at any worker count. Chaos
    /// stays the caller's choice: pair this with no chaos or with a
    /// profile free of REFUSED bursts (`flaky`), whose per-destination
    /// ordinals are interleaving-sensitive too.
    pub fn worker_invariant(workers: usize) -> Self {
        RunnerConfig {
            workers,
            retry: RetryPolicy { per_destination_budget: None, ..RetryPolicy::adaptive() },
            breaker: BreakerPolicy::none(),
            ..RunnerConfig::default()
        }
    }

    /// A deterministic echo of every knob that shapes observations,
    /// stored in the journal header and byte-compared on resume.
    /// Worker count, journaling, tracing, and `stop_after` are
    /// deliberately excluded: they change scheduling (or pure
    /// observation), not observations.
    fn config_echo(&self, collection_date: govdns_model::SimDate) -> String {
        format!(
            "qps={} cap={:?} second_round={} retry={:?} chaos={:?} scenario={:?} breaker={:?} \
             date={}",
            self.max_qps,
            self.destination_cap,
            self.second_round,
            self.retry,
            self.chaos,
            self.scenario,
            self.breaker,
            collection_date
        )
    }
}

/// Observability control for a campaign run: the registry every pipeline
/// component records into, plus an optional progress callback.
pub struct CampaignTelemetry {
    registry: Registry,
    progress_every: usize,
    progress: Option<Box<dyn Fn(ProgressEvent) + Send + Sync>>,
    limiter: Mutex<Option<RateLimiter>>,
    tracer: Mutex<Option<Arc<Tracer>>>,
}

impl Default for CampaignTelemetry {
    fn default() -> Self {
        CampaignTelemetry {
            registry: Registry::new(),
            progress_every: 0,
            progress: None,
            limiter: Mutex::new(None),
            tracer: Mutex::new(None),
        }
    }
}

impl std::fmt::Debug for CampaignTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignTelemetry")
            .field("registry", &self.registry)
            .field("progress_every", &self.progress_every)
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .finish_non_exhaustive()
    }
}

impl CampaignTelemetry {
    /// A fresh registry with no progress callback.
    pub fn new() -> Self {
        CampaignTelemetry::default()
    }

    /// Invokes `callback` after every `every` probed domains (and once
    /// at the end of the probing stage).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    #[must_use]
    pub fn with_progress(
        mut self,
        every: usize,
        callback: impl Fn(ProgressEvent) + Send + Sync + 'static,
    ) -> Self {
        assert!(every > 0, "progress interval must be positive");
        self.progress_every = every;
        self.progress = Some(Box::new(callback));
        self
    }

    /// The registry the pipeline records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The rate limiter of the most recent run, once a campaign has
    /// started (useful for asserting ledger totals after the fact).
    pub fn limiter(&self) -> Option<RateLimiter> {
        self.limiter.lock().clone()
    }

    /// The flight recorder of the most recent run, when
    /// [`RunnerConfig::trace`] was set — report generation uses it to
    /// append analysis-panic dumps after the trace file is complete.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.lock().clone()
    }

    fn emit(&self, stage: &str, done: usize, total: usize, queries_issued: u64) {
        if let Some(cb) = &self.progress {
            cb(ProgressEvent { stage: stage.to_owned(), done, total, queries_issued });
        }
    }
}

/// Runs the full §III pipeline over a campaign's inputs.
pub fn run_campaign(campaign: &Campaign<'_>, config: RunnerConfig) -> MeasurementDataset {
    run_campaign_with(campaign, config, &CampaignTelemetry::default())
}

/// Runs the full §III pipeline, recording telemetry into `ctl`.
///
/// Telemetry is strictly observational: the probing behavior (and hence
/// the dataset) is identical with or without it.
///
/// # Panics
///
/// Panics if [`RunnerConfig::resume_from`] names a journal whose header
/// does not match this campaign (different discovered domains or a
/// different observation-shaping config), or if journal I/O fails.
pub fn run_campaign_with(
    campaign: &Campaign<'_>,
    config: RunnerConfig,
    ctl: &CampaignTelemetry,
) -> MeasurementDataset {
    let registry = ctl.registry.clone();
    campaign.network.attach_telemetry(&registry);

    let seed_span = registry.span("seed");
    let seeds = seed::select_seeds(campaign);
    seed_span.finish();

    let discovery_span = registry.span("discovery");
    let mut discovered =
        discovery::discover(campaign, &seeds, DiscoveryConfig::paper(campaign.collection_date));
    discovery_span.finish();

    // Chaos starts at the probing stage: discovery models registry /
    // zone-file inputs, which the injected network faults do not touch.
    // A counterfactual scenario layers its blackhole sets on top of the
    // chaos plan; the layering leaves every rule decision outside the
    // destination set bit-for-bit unchanged.
    let scenario = config.scenario.as_ref().filter(|s| !s.is_empty());
    if config.chaos.is_some() || scenario.is_some() {
        let base = match config.chaos {
            Some(chaos) => chaos.profile.plan(chaos.seed),
            None => FaultPlan::new(0),
        };
        let plan = match scenario {
            Some(s) => base
                .with_blackholed_addrs(s.blackhole_addrs.iter().copied())
                .with_blackholed_prefixes(s.blackhole_prefixes.iter().copied())
                .with_degraded_addrs(s.degraded_addrs.iter().copied())
                .with_degraded_prefixes(s.degraded_prefixes.iter().copied())
                .with_degrade_ppm(s.degrade_ppm),
            None => base,
        };
        campaign.network.install_faults(Some(plan));
    }

    let limiter = RateLimiter::with_telemetry(config.max_qps, config.destination_cap, &registry);
    *ctl.limiter.lock() = Some(limiter.clone());
    let bank = BreakerBank::new(config.breaker);
    let workers = config.workers.max(1);
    registry.gauge("runner.workers").set(workers as i64);
    // Marker gauge for dashboards and regression baselines: this build's
    // per-query hot path uses atomics + sharded tables, never a global
    // stats mutex or shared RNG.
    registry.gauge("net.lock_free").set(1);

    let total = discovered.len();
    let header = JournalHeader {
        names_fingerprint: names_fingerprint(&discovered),
        domains: total as u64,
        config_echo: config.config_echo(campaign.collection_date),
    };

    // Resume: replay the journal up to its best checkpoint and restore
    // every piece of state the checkpoint captured. Probes past the
    // checkpoint have no state snapshot to pair with, so they are
    // re-probed (the journal still shortened the rerun to the
    // checkpoint cadence).
    let mut replayed: Vec<DomainProbe> = Vec::new();
    let mut initial_cache = None;
    let mut initial_clock = 0u64;
    if let Some(resume_path) = &config.resume_from {
        let replay = JournalReplay::load(resume_path);
        assert_eq!(
            replay.header,
            header,
            "journal {} belongs to a different campaign or config",
            resume_path.display()
        );
        let resume_point = replay.checkpoint.as_ref().map_or(0, |cp| cp.probes_done) as usize;
        replayed = replay.probes;
        replayed.truncate(resume_point);
        if let Some(cp) = replay.checkpoint {
            limiter.restore_state(&cp.limiter);
            campaign.network.restore_accounting(cp.traffic, cp.faults, cp.net_per_destination);
            bank.restore(&cp.breakers);
            initial_cache = Some(cp.cache);
            initial_clock = cp.clock_s;
        }
        registry.counter("journal.replayed_probes").add(replayed.len() as u64);
        registry.counter("journal.dropped_bytes").add(replay.dropped_bytes);
        registry.counter("journal.resumes").add(replay.resumes + 1);
    }
    let resume_point = replayed.len();
    // Round-2 reconciliation: the `retried` tally (and the ledger's
    // retry budgets, restored above) must count the replayed probes'
    // second rounds exactly once — the runner is the only caller of
    // `retry_child_side`, so `rounds >= 2` is that marker.
    let replayed_retried = replayed.iter().filter(|p| p.rounds >= 2).count();

    // Journal continuation: appending to the journal we resumed from
    // needs only a resume marker; journaling a resumed campaign to a
    // *different* path makes the new journal self-contained by
    // re-journaling the replayed history and the restored state. The
    // set-up records are written on this thread; the writer then moves
    // into a dedicated sink I/O thread, and workers only ever send
    // completed probes down its bounded channel.
    let journal_writer: Option<JournalWriter> = match (&config.journal, &config.resume_from) {
        (Some(spec), Some(resume_path)) if &spec.path == resume_path => {
            let mut w =
                JournalWriter::append_to(&spec.path).with_flush_threshold(spec.flush_threshold);
            w.resumed(resume_point as u64);
            Some(w)
        }
        (Some(spec), _) => {
            let mut w = JournalWriter::create(&spec.path, &header)
                .with_flush_threshold(spec.flush_threshold);
            for (i, probe) in replayed.iter().enumerate() {
                w.probe(i as u64, probe);
            }
            if resume_point > 0 {
                w.checkpoint(&Checkpoint {
                    probes_done: resume_point as u64,
                    limiter: limiter.export_state(),
                    traffic: campaign.network.stats(),
                    faults: campaign.network.fault_stats(),
                    net_per_destination: campaign.network.per_destination_snapshot(),
                    cache: initial_cache.clone().unwrap_or_default(),
                    clock_s: initial_clock,
                    breakers: bank.snapshot(),
                });
                w.resumed(resume_point as u64);
            }
            Some(w)
        }
        (None, _) => None,
    };
    let journal: Option<Arc<JournalSink>> =
        journal_writer.map(|w| sink::spawn(w, resume_point as u64));
    let checkpoint_every = config.journal.as_ref().map_or(0, |s| s.checkpoint_every.max(1));

    // The flight recorder. Created after resume replay so the trace file
    // starts at the resume point; the sink's reorder buffer then writes
    // domain blocks in campaign index order regardless of worker count.
    let tracer: Option<Arc<Tracer>> = config
        .trace
        .as_ref()
        .map(|spec| Tracer::create(spec, total as u64, resume_point as u64).expect("trace I/O"));
    *ctl.tracer.lock() = tracer.clone();

    let probe_limit = config.stop_after.map_or(total, |s| s.clamp(resume_point, total));

    let mut prefill: Vec<Option<Arc<DomainProbe>>> =
        replayed.into_iter().map(|p| Some(Arc::new(p))).collect();
    prefill.resize_with(total, || None);
    let results: Vec<Mutex<Option<Arc<DomainProbe>>>> =
        prefill.into_iter().map(Mutex::new).collect();
    let next = AtomicUsize::new(resume_point);
    let completed = AtomicUsize::new(resume_point);
    let retried = AtomicUsize::new(replayed_retried);
    let chunk_claims = AtomicU64::new(0);
    let probed_counter = registry.counter("runner.domains_probed");
    let retried_counter = registry.counter("runner.retried");
    let busy_ms = registry.histogram_latency_ms("runner.worker_busy_ms");
    // Per-worker busy times in a lock-free slot array (one slot per
    // worker, each written exactly once at worker exit), so the
    // max/min spread across workers can be reported after the scope
    // drains without the diagnostic itself convoying the workers it
    // measures. A lopsided spread is the signature of workers
    // convoying on a shared lock.
    let busy_slots: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    // Per-worker resolver state, deposited once at worker exit and
    // merged into the journal's final checkpoint after the scope joins.
    type ExitState = (Vec<((DomainName, RecordType), CacheEntry)>, u64);
    let exit_state: Vec<Mutex<Option<ExitState>>> =
        (0..workers).map(|_| Mutex::new(None)).collect();

    let probing_span = registry.span("round1");
    if let Some(t) = &tracer {
        if let Some(s) = scenario {
            t.stage("scenario", &s.label);
        }
        t.stage("round1", "begin");
    }
    crossbeam::scope(|scope| {
        for w in 0..workers {
            // `move` closures so each worker knows its slot index;
            // shared state crosses as plain references.
            #[allow(clippy::redundant_locals)]
            let (discovered, registry, limiter, bank, tracer, initial_cache, journal) =
                (&discovered, &registry, &limiter, &bank, &tracer, &initial_cache, &journal);
            let (next, completed, retried, chunk_claims, results) =
                (&next, &completed, &retried, &chunk_claims, &results);
            let (probed_counter, retried_counter, busy_ms) =
                (&probed_counter, &retried_counter, &busy_ms);
            let (busy_slot, exit_slot, config) = (&busy_slots[w], &exit_state[w], &config);
            scope.spawn(move |_| {
                // One client (and resolver cache) per worker, as the real
                // pipeline sharded its query load. On resume every worker
                // starts from the checkpointed cache warmth.
                let mut client =
                    ProbeClient::new(campaign.network, campaign.roots.to_vec(), limiter.clone())
                        .with_telemetry(registry)
                        .with_retry(config.retry)
                        .with_breakers(bank.clone());
                if let Some(t) = tracer {
                    client = client.with_tracer(t.worker());
                }
                if let Some(cache) = initial_cache {
                    client.set_clock_s(initial_clock);
                    client.import_cache(cache.clone());
                }
                let capture = |done: u64| Checkpoint {
                    probes_done: done,
                    limiter: limiter.export_state(),
                    traffic: campaign.network.stats(),
                    faults: campaign.network.fault_stats(),
                    net_per_destination: campaign.network.per_destination_snapshot(),
                    cache: client.export_cache(),
                    clock_s: client.clock_s(),
                    breakers: bank.snapshot(),
                };
                let busy_start = Instant::now();
                // Chunk-claimed distribution: grab a contiguous run of
                // domains per `fetch_add` while work is plentiful, fall
                // back to single claims near the tail. With one worker
                // the visit order is the plain sequential order either
                // way.
                loop {
                    let remaining = probe_limit.saturating_sub(next.load(Ordering::Relaxed));
                    let chunk = if remaining < CLAIM_CHUNK * workers { 1 } else { CLAIM_CHUNK };
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= probe_limit {
                        break;
                    }
                    chunk_claims.fetch_add(1, Ordering::Relaxed);
                    let end = start.saturating_add(chunk).min(probe_limit);
                    for (i, slot) in results.iter().enumerate().take(end).skip(start) {
                        let Some(d) = discovered.get(i) else { break };
                        client.trace_begin(i as u64, &d.name);
                        let mut probe = client.probe(&d.name);
                        // Second round: parent listed nameservers, but no
                        // authoritative answer materialized — maybe
                        // transient (§III-B re-probes these).
                        if config.second_round
                            && probe.parent_nonempty()
                            && !probe.has_authoritative_answer()
                        {
                            let retry_span = registry.span("round2");
                            client.retry_child_side(&mut probe);
                            retry_span.finish();
                            retried.fetch_add(1, Ordering::Relaxed);
                            retried_counter.inc();
                        }
                        client.trace_end();
                        // Enqueue to the journal sink before reporting
                        // done: completion accounting never runs ahead
                        // of the record being accepted for append. The
                        // write itself is asynchronous — durability
                        // arrives at the sink thread's next flush
                        // boundary, the same checkpoint-bounded window
                        // the buffered writer always had.
                        let probe = Arc::new(probe);
                        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        if let Some(journal) = journal {
                            journal.item(i as u64, Arc::clone(&probe));
                            if done.is_multiple_of(checkpoint_every) {
                                journal.side(Box::new(capture(done as u64)));
                            }
                        }
                        *slot.lock() = Some(probe);
                        probed_counter.inc();
                        if ctl.progress_every > 0
                            && (done.is_multiple_of(ctl.progress_every) || done == probe_limit)
                        {
                            ctl.emit("probing", done, total, limiter.issued());
                        }
                    }
                }
                // Deposit this worker's resolver state for the final
                // merged checkpoint (written after the scope joins).
                if journal.is_some() {
                    *exit_slot.lock() = Some((client.export_cache(), client.clock_s()));
                }
                // Worker utilization: how long each worker spent probing.
                let elapsed_ms = busy_start.elapsed().as_secs_f64() * 1e3;
                busy_ms.record(elapsed_ms);
                busy_slot.store(elapsed_ms.to_bits(), Ordering::Relaxed);
            });
        }
    })
    .expect("probe workers do not panic");
    probing_span.finish();
    if let Some(t) = &tracer {
        t.stage("round1", "end");
        t.finish();
        registry.counter("trace.dumps_dropped").add(t.dumps_dropped());
    }

    // Worker-balance gauges: busiest and idlest worker, and their ratio
    // as a percentage (100 = perfectly even). Healthy lock-free probing
    // keeps the spread close to 100; a convoyed run drives it up.
    {
        let busy: Vec<f64> =
            busy_slots.iter().map(|s| f64::from_bits(s.load(Ordering::Relaxed))).collect();
        let max = busy.iter().copied().fold(0.0_f64, f64::max);
        let min = busy.iter().copied().fold(f64::INFINITY, f64::min);
        if max > 0.0 && min.is_finite() {
            registry.gauge("runner.worker_busy_max_ms").set(max.round() as i64);
            registry.gauge("runner.worker_busy_min_ms").set(min.round() as i64);
            match worker_busy_spread_pct(max, min) {
                Some(spread) => {
                    registry.gauge("runner.worker_busy_spread_pct").set(spread.round() as i64);
                }
                None => {
                    // The idlest worker finished in ~0 ms (a tiny
                    // campaign, not a convoy): a ratio against zero is
                    // noise, so flag it instead of faking a spread.
                    registry.gauge("runner.worker_busy_spread_unreliable").set(1);
                }
            }
        }
    }

    if let Some(sink) = &journal {
        // Join the sink thread (it drains the channel first) and write
        // the campaign's single exit checkpoint on this thread: every
        // worker's resolver cache merged into one deterministic union
        // (entries under the same key are identical — the cache is a
        // pure function of the world at a fixed virtual clock), so a
        // resume picks up the full warmth the run accumulated. With one
        // worker this is byte-for-byte the old per-worker exit
        // checkpoint.
        let mut w = sink.finish().expect("journal sink finished twice").writer;
        let mut cache: BTreeMap<(DomainName, RecordType), CacheEntry> = BTreeMap::new();
        let mut clock_s = initial_clock;
        for slot in &exit_state {
            if let Some((entries, clock)) = slot.lock().take() {
                clock_s = clock_s.max(clock);
                for (key, entry) in entries {
                    cache.entry(key).or_insert(entry);
                }
            }
        }
        w.checkpoint(&Checkpoint {
            probes_done: completed.load(Ordering::Relaxed) as u64,
            limiter: limiter.export_state(),
            traffic: campaign.network.stats(),
            faults: campaign.network.fault_stats(),
            net_per_destination: campaign.network.per_destination_snapshot(),
            cache: cache.into_iter().collect(),
            clock_s,
            breakers: bank.snapshot(),
        });
        if probe_limit == total {
            w.complete(total as u64);
        }
        registry.counter("journal.records_appended").add(w.records());
    }

    // Sink-pipeline health: total nanoseconds any worker spent blocked
    // on a full sink channel (zero = the worker path never waited on
    // output I/O), the deepest either queue got, and how many chunk
    // claims the distribution made. Always set, so tests can assert the
    // lock-free contract even on sink-less runs.
    {
        let mut wait_ns = 0u64;
        let mut depth_hwm = 0u64;
        if let Some(t) = &tracer {
            wait_ns += t.wait_ns();
            depth_hwm = depth_hwm.max(t.queue_high_water());
        }
        if let Some(s) = &journal {
            wait_ns += s.wait_ns();
            depth_hwm = depth_hwm.max(s.queue_high_water());
        }
        registry.gauge("runner.sink_wait_ns").set(wait_ns as i64);
        registry.gauge("runner.sink_queue_depth").set(depth_hwm as i64);
        registry.gauge("runner.chunk_claims").set(chunk_claims.load(Ordering::Relaxed) as i64);
        // Structural marker: workers reach every sink through bounded
        // channels, never a mutex.
        registry.gauge("runner.sink_lock_free").set(1);
    }

    // A graceful early stop yields a truncated dataset: the contiguous
    // prefix of completed probes, with the domain list cut to match.
    // The sink thread has joined, so each Arc is sole-owned and unwraps
    // without cloning.
    let mut probes: Vec<DomainProbe> = Vec::with_capacity(total);
    for slot in results {
        match slot.into_inner() {
            Some(p) => probes.push(Arc::try_unwrap(p).unwrap_or_else(|a| (*a).clone())),
            None => break,
        }
    }
    discovered.truncate(probes.len());

    registry.set_ledger(limiter.ledger());
    registry.set_toplist(
        "busiest destinations",
        campaign
            .network
            .busiest_destinations(10)
            .into_iter()
            .map(|(addr, count)| (addr.to_string(), count))
            .collect(),
    );
    if config.breaker.is_enabled() {
        registry.set_toplist(
            "quarantined destinations",
            bank.quarantined()
                .into_iter()
                .map(|(addr, denied)| (addr.to_string(), denied))
                .collect(),
        );
    }

    MeasurementDataset {
        seeds,
        discovered,
        probes,
        traffic: campaign.network.stats(),
        faults: campaign.network.fault_stats(),
        collection_date: campaign.collection_date,
        retried: retried.into_inner(),
        telemetry: registry.snapshot(),
    }
}

/// FNV-1a fingerprint of the discovered-domain list, in probing order —
/// the journal header's campaign identity.
fn names_fingerprint(discovered: &[crate::discovery::DiscoveredDomain]) -> u64 {
    let mut joined = String::new();
    for d in discovered {
        joined.push_str(&d.name.to_string());
        joined.push('\n');
    }
    fnv64(joined.as_bytes())
}

/// Worker-balance spread as a percentage of the idlest worker's busy
/// time (100 = perfectly even), or `None` when the idlest worker's time
/// is zero — dividing by ~0 yields an arbitrary huge number that would
/// read as a catastrophic convoy, so the gauge is left unset and a
/// `runner.worker_busy_spread_unreliable` marker is emitted instead.
fn worker_busy_spread_pct(max: f64, min: f64) -> Option<f64> {
    (min > 0.0).then_some((max / min) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::worker_busy_spread_pct;

    #[test]
    fn spread_is_ratio_of_busiest_to_idlest() {
        assert_eq!(worker_busy_spread_pct(200.0, 100.0), Some(200.0));
        assert_eq!(worker_busy_spread_pct(150.0, 150.0), Some(100.0));
    }

    #[test]
    fn zero_min_is_unreliable_not_a_sentinel() {
        // The old behaviour reported u16::MAX as if it were a measured
        // spread; a zero-busy idlest worker must yield no spread at all.
        assert_eq!(worker_busy_spread_pct(200.0, 0.0), None);
    }
}
