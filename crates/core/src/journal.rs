//! Write-ahead observation journal: crash-safe campaign persistence.
//!
//! Every completed [`DomainProbe`] is appended to an on-disk journal as
//! a checksummed JSON record, and the full mutable pipeline state
//! (rate-limiter ledger, network accounting, resolver cache, circuit
//! breakers) is checkpointed every few probes. A campaign killed
//! mid-flight is resumed by replaying the journal: the runner restores
//! the checkpointed state, fills in the already-probed domains, and
//! re-probes only the remainder — producing a dataset byte-identical to
//! the uninterrupted run (see `runner.rs`).
//!
//! # Record framing
//!
//! Records are `J1` frames of [`govdns_model::persist`]: a 29-byte
//! header (`J1`, the payload's FNV-1a 64 checksum and its length) and a
//! canonical-JSON payload. The payload is a single object with a
//! `"kind"` field: `header` (config echo + discovered-name fingerprint,
//! always first), `probe` (one observation), `checkpoint` (full pipeline
//! state), `resumed` (a resume boundary marker), or `complete` (clean
//! end-of-campaign). A torn or corrupt tail — the half-written record a
//! crash leaves behind — fails its frame test and is silently dropped;
//! everything before it is intact by construction (records are flushed
//! in order). A record that passes its checksum but fails to decode is
//! a version mismatch, and [`JournalReplay::load`] panics on it.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use govdns_model::persist::{parse, read_frame, write_frame, Value};
use govdns_model::{DomainName, RecordData, RecordType, ResourceRecord, Soa};
use govdns_simnet::{CacheEntry, FaultStats, TrafficStats};

use crate::probe::{
    BreakerPhase, BreakerSnapshot, DomainProbe, ResponseClass, ServerObservation, ServerProbe,
};
use crate::ratelimit::LimiterState;

/// Where (and how often) a campaign journals itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSpec {
    /// Journal file path (created/truncated at campaign start).
    pub path: PathBuf,
    /// Full-state checkpoint cadence, in completed probes. The journal
    /// also checkpoints once more when the probing loop drains.
    pub checkpoint_every: usize,
    /// Buffered probe bytes that trigger a flush
    /// ([`DEFAULT_FLUSH_THRESHOLD`] unless overridden). Zero degrades
    /// to a flush after every probe record — maximum durability, one
    /// write syscall per probe.
    pub flush_threshold: usize,
}

impl JournalSpec {
    /// A spec with the default checkpoint cadence (every 32 probes) and
    /// flush threshold.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JournalSpec {
            path: path.into(),
            checkpoint_every: 32,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
        }
    }

    /// Sets the probe append-buffer flush threshold (builder style).
    #[must_use]
    pub fn with_flush_threshold(mut self, bytes: usize) -> Self {
        self.flush_threshold = bytes;
        self
    }
}

/// The journal's first record: enough of the campaign's identity to
/// refuse resuming against a different campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// FNV-1a fingerprint of the discovered (sorted) domain list.
    pub names_fingerprint: u64,
    /// Number of domains the campaign will probe.
    pub domains: u64,
    /// A deterministic echo of every `RunnerConfig` knob that shapes
    /// observations (worker count excluded — it may legally differ
    /// between the crashed and the resuming run).
    pub config_echo: String,
}

/// A full-state checkpoint: everything the pipeline mutates while
/// probing, captured after `probes_done` completed probes.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Completed probes at capture time.
    pub probes_done: u64,
    /// Rate-limiter ledger (issued totals, per-round, per-destination,
    /// retry budgets).
    pub limiter: LimiterState,
    /// Network traffic accounting.
    pub traffic: TrafficStats,
    /// Injected-fault accounting.
    pub faults: FaultStats,
    /// Per-destination query counts (feeds `RefusedBurst` decisions and
    /// the busiest-destinations toplist).
    pub net_per_destination: Vec<(Ipv4Addr, u64)>,
    /// Stub-resolver cache entries, in export order (each carries its
    /// virtual-clock expiry).
    pub cache: Vec<((DomainName, RecordType), CacheEntry)>,
    /// The resolver's virtual clock at capture time, seconds. Campaigns
    /// leave it at zero; recovery sweeps advance it, and resume must
    /// restore it before re-importing the cache so expiry decisions
    /// replay identically. Old journals without the field decode as
    /// zero.
    pub clock_s: u64,
    /// Circuit-breaker bank state.
    pub breakers: Vec<BreakerSnapshot>,
}

/// Appends records to a journal file.
///
/// Probe appends are buffered (flushed once the buffer passes the
/// spec's flush threshold, [`DEFAULT_FLUSH_THRESHOLD`] by default) so a
/// high-throughput campaign does not pay one syscall + fsync-adjacent
/// flush per probe; every durability boundary — header, checkpoint,
/// resume marker, completion — flushes the buffer explicitly, so a kill
/// between probes can lose at most the tail written since the last
/// checkpoint, which is exactly the window checkpoint replay already
/// tolerates.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    records: u64,
    /// Framed records accepted but not yet written to the OS.
    buf: Vec<u8>,
    /// Buffered bytes that trigger a flush after a probe append.
    flush_threshold: usize,
}

/// Default buffered probe bytes that trigger a flush; checkpoints and
/// drops flush regardless of the threshold.
pub const DEFAULT_FLUSH_THRESHOLD: usize = 64 * 1024;

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes the header.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be created or written — a campaign
    /// that cannot persist its journal must fail loudly, not silently
    /// lose crash safety.
    pub fn create(path: &Path, header: &JournalHeader) -> Self {
        let file = File::create(path)
            .unwrap_or_else(|e| panic!("journal: cannot create {}: {e}", path.display()));
        let mut w = JournalWriter {
            file,
            path: path.to_path_buf(),
            records: 0,
            buf: Vec::new(),
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
        };
        w.write_record(&header_to_value(header));
        w.flush();
        w
    }

    /// Opens an existing journal for appending (the resume-in-place
    /// path); the caller has already validated its header.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be opened.
    pub fn append_to(path: &Path) -> Self {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("journal: cannot append to {}: {e}", path.display()));
        JournalWriter {
            file,
            path: path.to_path_buf(),
            records: 0,
            buf: Vec::new(),
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
        }
    }

    /// Overrides the probe append-buffer flush threshold (builder
    /// style). Zero flushes after every probe record.
    #[must_use]
    pub fn with_flush_threshold(mut self, bytes: usize) -> Self {
        self.flush_threshold = bytes;
        self
    }

    /// Appends one completed probe, with its position in the campaign's
    /// domain order. Buffered: becomes durable at the next flush point
    /// (a checkpoint, an explicit [`flush`](JournalWriter::flush), drop,
    /// or the buffer passing the flush threshold).
    pub fn probe(&mut self, index: u64, probe: &DomainProbe) {
        self.write_record(&Value::obj(vec![
            ("kind", "probe".into()),
            ("index", Value::Num(index)),
            ("probe", probe_to_value(probe)),
        ]));
        if self.buf.len() >= self.flush_threshold {
            self.flush();
        }
    }

    /// Appends a full-state checkpoint and flushes: checkpoints are the
    /// durability boundary a resumed campaign restarts from.
    pub fn checkpoint(&mut self, cp: &Checkpoint) {
        self.write_record(&checkpoint_to_value(cp));
        self.flush();
    }

    /// Marks a resume boundary: a fresh process picked the campaign up
    /// with `probes_done` observations already replayed. Flushes.
    pub fn resumed(&mut self, probes_done: u64) {
        self.write_record(&Value::obj(vec![
            ("kind", "resumed".into()),
            ("probes_done", Value::Num(probes_done)),
        ]));
        self.flush();
    }

    /// Marks a clean end of campaign after `probes` observations.
    /// Flushes.
    pub fn complete(&mut self, probes: u64) {
        self.write_record(&Value::obj(vec![
            ("kind", "complete".into()),
            ("probes", Value::Num(probes)),
        ]));
        self.flush();
    }

    /// Records written through this writer (excludes replayed history).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Writes every buffered record to the OS.
    ///
    /// # Panics
    ///
    /// Panics if the write fails — same loud-failure contract as
    /// [`create`](JournalWriter::create).
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.file
            .write_all(&self.buf)
            .and_then(|()| self.file.flush())
            .unwrap_or_else(|e| panic!("journal: write to {} failed: {e}", self.path.display()));
        self.buf.clear();
    }

    fn write_record(&mut self, value: &Value) {
        write_frame(&mut self.buf, b"J1", &value.to_json());
        self.records += 1;
    }
}

impl Drop for JournalWriter {
    /// Best-effort flush of any buffered tail; a panic mid-campaign
    /// still lands everything written so far, while a hard kill falls
    /// back to the last checkpoint as designed.
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            let _ = self.file.write_all(&self.buf).and_then(|()| self.file.flush());
            self.buf.clear();
        }
    }
}

/// Everything a journal replay recovered, ready for the runner to
/// resume from.
#[derive(Debug, Clone)]
pub struct JournalReplay {
    /// The validated header.
    pub header: JournalHeader,
    /// The contiguous prefix of completed probes (index 0..n in
    /// campaign domain order).
    pub probes: Vec<DomainProbe>,
    /// The most advanced checkpoint whose `probes_done` does not exceed
    /// the contiguous probe prefix.
    pub checkpoint: Option<Checkpoint>,
    /// Valid records read (all kinds).
    pub records: u64,
    /// Bytes of torn/corrupt tail dropped.
    pub dropped_bytes: u64,
    /// Resume boundaries already present in the journal.
    pub resumes: u64,
    /// Whether the journal ends in a clean `complete` record.
    pub completed: bool,
}

impl JournalReplay {
    /// Reads and validates a journal.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be read, does not begin with a valid
    /// header record, or contains a checksummed record that fails to
    /// decode (a format-version mismatch).
    pub fn load(path: &Path) -> Self {
        let bytes = std::fs::read(path)
            .unwrap_or_else(|e| panic!("journal: cannot read {}: {e}", path.display()));
        let mut offset = 0usize;
        let mut records: Vec<Value> = Vec::new();
        // A torn tail ends the walk; everything from it on is dropped.
        while let Some((payload, next)) = read_frame(&bytes, offset, b"J1") {
            let value = parse(payload).unwrap_or_else(|e| {
                panic!("journal: {} record {}: {e}", path.display(), records.len())
            });
            records.push(value);
            offset = next;
        }
        let dropped_bytes = (bytes.len() - offset) as u64;
        let first = records
            .first()
            .unwrap_or_else(|| panic!("journal: {} has no intact records", path.display()));
        assert_eq!(
            first.get("kind").and_then(Value::as_str),
            Some("header"),
            "journal: {} does not begin with a header record",
            path.display()
        );
        let header = expect_decoded(path, 0, header_from_value(first));

        let mut probes: Vec<DomainProbe> = Vec::new();
        let mut checkpoint: Option<Checkpoint> = None;
        let mut resumes = 0u64;
        let mut completed = false;
        for (i, record) in records.iter().enumerate().skip(1) {
            match record.get("kind").and_then(Value::as_str) {
                Some("probe") => {
                    let index = expect_decoded(path, i, record.field("index", Value::as_u64));
                    // Only the contiguous prefix is trustworthy: with a
                    // single worker this is every record, with many it
                    // is everything up to the first gap.
                    if index == probes.len() as u64 {
                        probes.push(expect_decoded(
                            path,
                            i,
                            record.field("probe", probe_from_value),
                        ));
                    }
                }
                Some("checkpoint") => {
                    let cp = expect_decoded(path, i, checkpoint_from_value(record));
                    if cp.probes_done <= probes.len() as u64
                        && checkpoint.as_ref().is_none_or(|b| cp.probes_done >= b.probes_done)
                    {
                        checkpoint = Some(cp);
                    }
                }
                Some("resumed") => resumes += 1,
                Some("complete") => completed = true,
                kind => panic!("journal: unknown record kind {kind:?}"),
            }
        }
        JournalReplay {
            header,
            probes,
            checkpoint,
            records: records.len() as u64,
            dropped_bytes,
            resumes,
            completed,
        }
    }
}

// ---------------------------------------------------------------------
// Codecs. Encoders build objects with keys in a fixed order; decoders
// look keys up by name and return an error naming the field path on
// absence or a type mismatch — a checksummed record that does not
// decode is a format-version mismatch, not a torn write.
// ---------------------------------------------------------------------

type Decoded<T> = Result<T, String>;

/// Unwraps a decoded record: a checksummed record that does not decode
/// is a format-version mismatch, and replay fails loudly.
fn expect_decoded<T>(path: &Path, record: usize, result: Decoded<T>) -> T {
    result.unwrap_or_else(|e| panic!("journal: {} record {record}: {e}", path.display()))
}

fn name_to_value(name: &DomainName) -> Value {
    Value::Str(name.to_string())
}

fn name(value: &Value) -> Option<DomainName> {
    value.as_str()?.parse().ok()
}

fn names_to_value(names: &[DomainName]) -> Value {
    Value::Arr(names.iter().map(name_to_value).collect())
}

fn addr_to_value(addr: Ipv4Addr) -> Value {
    Value::Str(addr.to_string())
}

fn addr(value: &Value) -> Option<Ipv4Addr> {
    value.as_str()?.parse().ok()
}

fn addrs_to_value(addrs: &[Ipv4Addr]) -> Value {
    Value::Arr(addrs.iter().map(|&a| addr_to_value(a)).collect())
}

fn addr_counts_to_value(counts: &[(Ipv4Addr, u64)]) -> Value {
    Value::Arr(
        counts
            .iter()
            .map(|&(addr, n)| Value::Arr(vec![addr_to_value(addr), Value::Num(n)]))
            .collect(),
    )
}

fn addr_count(value: &Value) -> Option<(Ipv4Addr, u64)> {
    match value.as_arr()? {
        [a, n] => Some((addr(a)?, n.as_u64()?)),
        _ => None,
    }
}

fn header_to_value(header: &JournalHeader) -> Value {
    Value::obj(vec![
        ("kind", "header".into()),
        ("names_fingerprint", Value::Num(header.names_fingerprint)),
        ("domains", Value::Num(header.domains)),
        ("config_echo", header.config_echo.as_str().into()),
    ])
}

fn header_from_value(value: &Value) -> Decoded<JournalHeader> {
    Ok(JournalHeader {
        names_fingerprint: value.field("names_fingerprint", Value::as_u64)?,
        domains: value.field("domains", Value::as_u64)?,
        config_echo: value.field("config_echo", Value::as_str)?.to_owned(),
    })
}

fn class_to_value(class: &ResponseClass) -> Value {
    let tag = |t: &str| ("t", Value::from(t));
    match class {
        ResponseClass::Authoritative(targets) => {
            Value::obj(vec![tag("auth"), ("targets", names_to_value(targets))])
        }
        ResponseClass::Referral { cut, targets, glue } => Value::obj(vec![
            tag("referral"),
            ("cut", name_to_value(cut)),
            ("targets", names_to_value(targets)),
            (
                "glue",
                Value::Arr(
                    glue.iter()
                        .map(|(host, addr)| {
                            Value::Arr(vec![name_to_value(host), addr_to_value(*addr)])
                        })
                        .collect(),
                ),
            ),
        ]),
        ResponseClass::Empty(rcode) => {
            Value::obj(vec![tag("empty"), ("rcode", Value::Num(u64::from(*rcode)))])
        }
        ResponseClass::Rejected(rcode) => {
            Value::obj(vec![tag("rejected"), ("rcode", Value::Num(u64::from(*rcode)))])
        }
        ResponseClass::Truncated => Value::obj(vec![tag("truncated")]),
        ResponseClass::Timeout => Value::obj(vec![tag("timeout")]),
        ResponseClass::Skipped => Value::obj(vec![tag("skipped")]),
    }
}

fn class_from_value(value: &Value) -> Decoded<ResponseClass> {
    Ok(match value.field("t", Value::as_str)? {
        "auth" => ResponseClass::Authoritative(value.list("targets", name)?),
        "referral" => ResponseClass::Referral {
            cut: value.field("cut", name)?,
            targets: value.list("targets", name)?,
            glue: value.list("glue", |pair| match pair.as_arr()? {
                [host, a] => Some((name(host)?, addr(a)?)),
                _ => None,
            })?,
        },
        "empty" => ResponseClass::Empty(value.field("rcode", Value::as_int)?),
        "rejected" => ResponseClass::Rejected(value.field("rcode", Value::as_int)?),
        "truncated" => ResponseClass::Truncated,
        "timeout" => ResponseClass::Timeout,
        "skipped" => ResponseClass::Skipped,
        t => return Err(format!("unknown response class tag {t:?}")),
    })
}

fn observation_to_value(o: &ServerObservation) -> Value {
    Value::obj(vec![
        ("addr", addr_to_value(o.addr)),
        ("class", class_to_value(&o.class)),
        ("attempts", Value::Num(u64::from(o.attempts))),
    ])
}

fn observation_from_value(value: &Value) -> Decoded<ServerObservation> {
    Ok(ServerObservation {
        addr: value.field("addr", addr)?,
        class: value.field("class", class_from_value)?,
        attempts: value.field("attempts", Value::as_int)?,
    })
}

fn server_to_value(s: &ServerProbe) -> Value {
    Value::obj(vec![
        ("host", name_to_value(&s.host)),
        ("in_parent", Value::Bool(s.in_parent)),
        ("in_child", Value::Bool(s.in_child)),
        ("addrs", addrs_to_value(&s.addrs)),
        ("observations", Value::Arr(s.observations.iter().map(observation_to_value).collect())),
        ("recovered_in_round2", Value::Bool(s.recovered_in_round2)),
    ])
}

fn server_from_value(value: &Value) -> Decoded<ServerProbe> {
    Ok(ServerProbe {
        host: value.field("host", name)?,
        in_parent: value.field("in_parent", Value::as_bool)?,
        in_child: value.field("in_child", Value::as_bool)?,
        addrs: value.list("addrs", addr)?,
        observations: value.list("observations", observation_from_value)?,
        recovered_in_round2: value.field("recovered_in_round2", Value::as_bool)?,
    })
}

/// Full-fidelity SOA codec: all seven fields round-trip (the dataset's
/// `canonical_json` prints only three, which is not enough to rebuild
/// the in-memory record).
fn soa_to_value(soa: &Soa) -> Value {
    Value::obj(vec![
        ("mname", name_to_value(&soa.mname)),
        ("rname", name_to_value(&soa.rname)),
        ("serial", Value::Num(u64::from(soa.serial))),
        ("refresh", Value::Num(u64::from(soa.refresh))),
        ("retry", Value::Num(u64::from(soa.retry))),
        ("expire", Value::Num(u64::from(soa.expire))),
        ("minimum", Value::Num(u64::from(soa.minimum))),
    ])
}

fn soa_from_value(value: &Value) -> Decoded<Soa> {
    Ok(Soa {
        mname: value.field("mname", name)?,
        rname: value.field("rname", name)?,
        serial: value.field("serial", Value::as_int)?,
        refresh: value.field("refresh", Value::as_int)?,
        retry: value.field("retry", Value::as_int)?,
        expire: value.field("expire", Value::as_int)?,
        minimum: value.field("minimum", Value::as_int)?,
    })
}

fn probe_to_value(p: &DomainProbe) -> Value {
    Value::obj(vec![
        ("domain", name_to_value(&p.domain)),
        ("parent_zone", p.parent_zone.as_ref().map_or(Value::Null, name_to_value)),
        ("parent_addrs", addrs_to_value(&p.parent_addrs)),
        (
            "parent_observations",
            Value::Arr(p.parent_observations.iter().map(observation_to_value).collect()),
        ),
        ("parent_ns", names_to_value(&p.parent_ns)),
        ("child_ns", names_to_value(&p.child_ns)),
        ("servers", Value::Arr(p.servers.iter().map(server_to_value).collect())),
        ("soa", p.soa.as_ref().map_or(Value::Null, soa_to_value)),
        ("queries", Value::Num(u64::from(p.queries))),
        ("elapsed_ms", Value::Num(u64::from(p.elapsed_ms))),
        ("rounds", Value::Num(u64::from(p.rounds))),
    ])
}

fn probe_from_value(value: &Value) -> Decoded<DomainProbe> {
    Ok(DomainProbe {
        domain: value.field("domain", name)?,
        parent_zone: value.opt_field("parent_zone", name)?,
        parent_addrs: value.list("parent_addrs", addr)?,
        parent_observations: value.list("parent_observations", observation_from_value)?,
        parent_ns: value.list("parent_ns", name)?,
        child_ns: value.list("child_ns", name)?,
        servers: value.list("servers", server_from_value)?,
        soa: value.opt_field("soa", soa_from_value)?,
        queries: value.field("queries", Value::as_int)?,
        elapsed_ms: value.field("elapsed_ms", Value::as_int)?,
        rounds: value.field("rounds", Value::as_int)?,
    })
}

fn record_data_to_value(data: &RecordData) -> Value {
    let (tag, v) = match data {
        RecordData::A(a) => ("a", addr_to_value(*a)),
        RecordData::Ns(n) => ("ns", name_to_value(n)),
        RecordData::Cname(n) => ("cname", name_to_value(n)),
        RecordData::Soa(s) => ("soa", soa_to_value(s)),
        RecordData::Ptr(n) => ("ptr", name_to_value(n)),
        RecordData::Txt(t) => ("txt", t.as_str().into()),
        RecordData::Aaaa(a) => ("aaaa", Value::Str(a.to_string())),
    };
    Value::obj(vec![("t", tag.into()), ("v", v)])
}

fn record_data_from_value(value: &Value) -> Decoded<RecordData> {
    Ok(match value.field("t", Value::as_str)? {
        "a" => RecordData::A(value.field("v", addr)?),
        "ns" => RecordData::Ns(value.field("v", name)?),
        "cname" => RecordData::Cname(value.field("v", name)?),
        "soa" => RecordData::Soa(value.field("v", soa_from_value)?),
        "ptr" => RecordData::Ptr(value.field("v", name)?),
        "txt" => RecordData::Txt(value.field("v", Value::as_str)?.to_owned()),
        "aaaa" => RecordData::Aaaa(value.field("v", |v| v.as_str()?.parse().ok())?),
        t => return Err(format!("unknown record data tag {t:?}")),
    })
}

fn resource_record_to_value(rr: &ResourceRecord) -> Value {
    Value::obj(vec![
        ("name", name_to_value(&rr.name)),
        ("ttl", Value::Num(u64::from(rr.ttl))),
        ("data", record_data_to_value(&rr.data)),
    ])
}

fn resource_record_from_value(value: &Value) -> Decoded<ResourceRecord> {
    Ok(ResourceRecord {
        name: value.field("name", name)?,
        ttl: value.field("ttl", Value::as_int)?,
        data: value.field("data", record_data_from_value)?,
    })
}

fn limiter_to_value(state: &LimiterState) -> Value {
    Value::obj(vec![
        ("issued", Value::Num(state.issued)),
        ("per_round", Value::Arr(state.per_round.iter().map(|&n| Value::Num(n)).collect())),
        ("per_destination", addr_counts_to_value(&state.per_destination)),
        ("per_destination_retries", addr_counts_to_value(&state.per_destination_retries)),
    ])
}

fn limiter_from_value(value: &Value) -> Decoded<LimiterState> {
    let rounds = value.list("per_round", Value::as_u64)?;
    Ok(LimiterState {
        issued: value.field("issued", Value::as_u64)?,
        per_round: rounds.try_into().map_err(|_| "per_round must have 5 slots".to_owned())?,
        per_destination: value.list("per_destination", addr_count)?,
        per_destination_retries: value.list("per_destination_retries", addr_count)?,
    })
}

fn breaker_to_value(s: &BreakerSnapshot) -> Value {
    Value::obj(vec![
        ("addr", addr_to_value(s.addr)),
        ("phase", s.phase.as_str().into()),
        ("consecutive_failures", Value::Num(u64::from(s.consecutive_failures))),
        ("opened_rank", Value::Num(u64::from(s.opened_rank))),
        ("trips", Value::Num(s.trips)),
        ("denied", Value::Num(s.denied)),
    ])
}

fn breaker_from_value(value: &Value) -> Decoded<BreakerSnapshot> {
    Ok(BreakerSnapshot {
        addr: value.field("addr", addr)?,
        phase: value.field("phase", |p| BreakerPhase::parse(p.as_str()?))?,
        consecutive_failures: value.field("consecutive_failures", Value::as_int)?,
        opened_rank: value.field("opened_rank", Value::as_int)?,
        trips: value.field("trips", Value::as_u64)?,
        denied: value.field("denied", Value::as_u64)?,
    })
}

fn checkpoint_to_value(cp: &Checkpoint) -> Value {
    let t = &cp.traffic;
    let f = &cp.faults;
    Value::obj(vec![
        ("kind", "checkpoint".into()),
        ("probes_done", Value::Num(cp.probes_done)),
        ("limiter", limiter_to_value(&cp.limiter)),
        (
            "traffic",
            Value::obj(vec![
                ("queries_sent", Value::Num(t.queries_sent)),
                ("responses_received", Value::Num(t.responses_received)),
                ("timeouts", Value::Num(t.timeouts)),
                ("bytes_sent", Value::Num(t.bytes_sent)),
                ("bytes_received", Value::Num(t.bytes_received)),
                ("total_wait_ms", Value::Num(t.total_wait_ms)),
            ]),
        ),
        (
            "faults",
            Value::obj(vec![
                ("flap_timeouts", Value::Num(f.flap_timeouts)),
                ("losses", Value::Num(f.losses)),
                ("refused", Value::Num(f.refused)),
                ("truncated", Value::Num(f.truncated)),
                ("delayed", Value::Num(f.delayed)),
                ("outages", Value::Num(f.outages)),
            ]),
        ),
        ("net_per_destination", addr_counts_to_value(&cp.net_per_destination)),
        (
            "cache",
            Value::Arr(
                cp.cache
                    .iter()
                    .map(|((name, rtype), entry)| {
                        Value::Arr(vec![
                            name_to_value(name),
                            Value::Num(u64::from(rtype.code())),
                            Value::Arr(
                                entry.records.iter().map(resource_record_to_value).collect(),
                            ),
                            Value::Num(entry.expires_at_s),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("clock_s", Value::Num(cp.clock_s)),
        ("breakers", Value::Arr(cp.breakers.iter().map(breaker_to_value).collect())),
    ])
}

/// One cache entry: `[name, type code, records, expiry]`. Pre-expiry
/// journals wrote triples, whose entries were captured at virtual time
/// zero — their expiry is recomputed from the records' smallest TTL
/// (the formula the resolver applied at insert time).
fn cache_entry_from_value(value: &Value) -> Decoded<((DomainName, RecordType), CacheEntry)> {
    let parts = value.as_arr().ok_or("cache entry is not a tuple")?;
    let (key, code, records, expiry) = match parts {
        [key, code, records] => (key, code, records, None),
        [key, code, records, expiry] => (key, code, records, Some(expiry)),
        _ => return Err(format!("cache entry has {} elements", parts.len())),
    };
    let key = name(key).ok_or("bad cache key")?;
    let rtype = code.as_int().and_then(RecordType::from_code).ok_or("bad cache record type")?;
    let records = records
        .as_arr()
        .ok_or("cache records are not an array")?
        .iter()
        .map(resource_record_from_value)
        .collect::<Decoded<Vec<_>>>()?;
    let expires_at_s = match expiry {
        Some(v) => v.as_u64().ok_or("bad cache entry expiry")?,
        None => u64::from(records.iter().map(|r| r.ttl).min().unwrap_or(LEGACY_NEGATIVE_TTL_S)),
    };
    Ok(((key, rtype), CacheEntry { expires_at_s, records }))
}

fn checkpoint_from_value(value: &Value) -> Decoded<Checkpoint> {
    let traffic = |t: &Value| -> Decoded<TrafficStats> {
        Ok(TrafficStats {
            queries_sent: t.field("queries_sent", Value::as_u64)?,
            responses_received: t.field("responses_received", Value::as_u64)?,
            timeouts: t.field("timeouts", Value::as_u64)?,
            bytes_sent: t.field("bytes_sent", Value::as_u64)?,
            bytes_received: t.field("bytes_received", Value::as_u64)?,
            total_wait_ms: t.field("total_wait_ms", Value::as_u64)?,
        })
    };
    let faults = |f: &Value| -> Decoded<FaultStats> {
        Ok(FaultStats {
            flap_timeouts: f.field("flap_timeouts", Value::as_u64)?,
            losses: f.field("losses", Value::as_u64)?,
            refused: f.field("refused", Value::as_u64)?,
            truncated: f.field("truncated", Value::as_u64)?,
            delayed: f.field("delayed", Value::as_u64)?,
            outages: f.field("outages", Value::as_u64)?,
        })
    };
    Ok(Checkpoint {
        probes_done: value.field("probes_done", Value::as_u64)?,
        limiter: value.field("limiter", limiter_from_value)?,
        traffic: value.field("traffic", traffic)?,
        faults: value.field("faults", faults)?,
        net_per_destination: value.list("net_per_destination", addr_count)?,
        cache: value.list("cache", cache_entry_from_value)?,
        // Journals from before the virtual clock have no clock field.
        clock_s: value.opt_field("clock_s", Value::as_u64)?.unwrap_or(0),
        breakers: value.list("breakers", breaker_from_value)?,
    })
}

/// The negative-caching TTL the resolver assigns an empty (NODATA)
/// answer when the reply carries no SOA — used to reconstruct expiry
/// for legacy (pre-expiry) journal cache entries with no records.
const LEGACY_NEGATIVE_TTL_S: u32 = 3600;

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn sample_probe(idx: u8) -> DomainProbe {
        DomainProbe {
            domain: n(&format!("gov{idx}.zz")),
            parent_zone: Some(n("zz")),
            parent_addrs: vec![Ipv4Addr::new(10, 0, 0, idx)],
            parent_observations: vec![ServerObservation {
                addr: Ipv4Addr::new(10, 0, 0, idx),
                class: ResponseClass::Referral {
                    cut: n(&format!("gov{idx}.zz")),
                    targets: vec![n("ns1.gov.zz")],
                    glue: vec![(n("ns1.gov.zz"), Ipv4Addr::new(10, 1, 0, 1))],
                },
                attempts: 1,
            }],
            parent_ns: vec![n("ns1.gov.zz")],
            child_ns: vec![n("ns1.gov.zz")],
            servers: vec![ServerProbe {
                host: n("ns1.gov.zz"),
                in_parent: true,
                in_child: true,
                addrs: vec![Ipv4Addr::new(10, 1, 0, 1)],
                observations: vec![
                    ServerObservation {
                        addr: Ipv4Addr::new(10, 1, 0, 1),
                        class: ResponseClass::Authoritative(vec![n("ns1.gov.zz")]),
                        attempts: 2,
                    },
                    ServerObservation {
                        addr: Ipv4Addr::new(10, 1, 0, 2),
                        class: ResponseClass::Skipped,
                        attempts: 0,
                    },
                ],
                recovered_in_round2: idx % 2 == 0,
            }],
            soa: Some(Soa {
                mname: n("ns1.gov.zz"),
                rname: n("hostmaster.gov.zz"),
                serial: 77,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 3600,
            }),
            queries: 12,
            elapsed_ms: 340,
            rounds: 2,
        }
    }

    fn sample_checkpoint(done: u64) -> Checkpoint {
        Checkpoint {
            probes_done: done,
            limiter: LimiterState {
                issued: 42,
                per_round: [30, 4, 2, 5, 1],
                per_destination: vec![(Ipv4Addr::new(10, 1, 0, 1), 9)],
                per_destination_retries: vec![(Ipv4Addr::new(10, 1, 0, 1), 2)],
            },
            traffic: TrafficStats {
                queries_sent: 42,
                responses_received: 40,
                timeouts: 2,
                bytes_sent: 2000,
                bytes_received: 4000,
                total_wait_ms: 900,
            },
            faults: FaultStats {
                flap_timeouts: 1,
                losses: 0,
                refused: 2,
                truncated: 0,
                delayed: 3,
                outages: 4,
            },
            net_per_destination: vec![(Ipv4Addr::new(10, 0, 0, 1), 11)],
            cache: vec![(
                (n("ns1.gov.zz"), RecordType::A),
                CacheEntry {
                    expires_at_s: 3600,
                    records: vec![ResourceRecord::new(
                        n("ns1.gov.zz"),
                        3600,
                        RecordData::A(Ipv4Addr::new(10, 1, 0, 1)),
                    )],
                },
            )],
            clock_s: 120,
            breakers: vec![BreakerSnapshot {
                addr: Ipv4Addr::new(10, 1, 0, 2),
                phase: BreakerPhase::Open,
                consecutive_failures: 3,
                opened_rank: 1,
                trips: 1,
                denied: 4,
            }],
        }
    }

    fn header() -> JournalHeader {
        JournalHeader {
            names_fingerprint: 0xdead_beef,
            domains: 2,
            config_echo: "qps=200 cap=none".to_string(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("govdns-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.journal", std::process::id()))
    }

    #[test]
    fn probe_records_round_trip_with_full_fidelity() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path, &header());
        w.probe(0, &sample_probe(0));
        w.probe(1, &sample_probe(1));
        w.checkpoint(&sample_checkpoint(2));
        w.complete(2);
        assert_eq!(w.records(), 5, "header + 2 probes + checkpoint + complete");
        drop(w);

        let replay = JournalReplay::load(&path);
        assert_eq!(replay.header, header());
        assert_eq!(replay.probes, vec![sample_probe(0), sample_probe(1)]);
        assert_eq!(replay.checkpoint, Some(sample_checkpoint(2)));
        assert_eq!(replay.records, 5);
        assert_eq!(replay.dropped_bytes, 0);
        assert!(replay.completed);
        assert_eq!(replay.resumes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_earlier_records_survive() {
        let path = tmp("torn");
        let mut w = JournalWriter::create(&path, &header());
        w.probe(0, &sample_probe(0));
        w.checkpoint(&sample_checkpoint(1));
        w.probe(1, &sample_probe(1));
        drop(w);

        // Chop the last record mid-payload: the crash case.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 37]).unwrap();
        let replay = JournalReplay::load(&path);
        assert_eq!(replay.probes, vec![sample_probe(0)]);
        assert_eq!(replay.checkpoint, Some(sample_checkpoint(1)));
        assert!(replay.dropped_bytes > 0);
        assert!(!replay.completed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_checksum_stops_the_replay_at_the_damage() {
        let path = tmp("corrupt");
        let mut w = JournalWriter::create(&path, &header());
        w.probe(0, &sample_probe(0));
        // Probe appends are buffered; flush so the on-disk length marks
        // the boundary before the record we are about to damage.
        w.flush();
        let before_flip = std::fs::metadata(&path).unwrap().len() as usize;
        w.probe(1, &sample_probe(1));
        w.checkpoint(&sample_checkpoint(2));
        drop(w);

        // Flip one payload byte of probe record 1: its checksum fails,
        // and everything after it (the checkpoint) is unreachable.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[before_flip + 40] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let replay = JournalReplay::load(&path);
        assert_eq!(replay.probes, vec![sample_probe(0)]);
        assert_eq!(replay.checkpoint, None, "the checkpoint sits past the corruption");
        std::fs::remove_file(&path).unwrap();
    }

    /// The journal's mutation suite: every truncation and every
    /// single-bit flip past the header record drops a torn tail and
    /// keeps the intact prefix. Checksummed schema garbage is out of
    /// scope: `load` documents that it panics on it.
    #[test]
    fn every_truncation_and_bit_flip_past_the_header_drops_a_torn_tail() {
        let path = tmp("mutations");
        let mut w = JournalWriter::create(&path, &header());
        w.probe(0, &sample_probe(0));
        w.checkpoint(&sample_checkpoint(1));
        w.probe(1, &sample_probe(1));
        w.complete(2);
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        let mut bounds = vec![0];
        while let Some((_, next)) = read_frame(&bytes, *bounds.last().unwrap(), b"J1") {
            bounds.push(next);
        }
        assert_eq!(bounds.len(), 6, "five intact records");
        let intact_before = |at: usize| *bounds.iter().rev().find(|&&b| b <= at).unwrap();
        let mutant = tmp("mutant");
        let load = |b: &[u8]| {
            std::fs::write(&mutant, b).unwrap();
            JournalReplay::load(&mutant)
        };
        for end in bounds[1]..bytes.len() {
            let replay = load(&bytes[..end]);
            assert_eq!(replay.dropped_bytes, (end - intact_before(end)) as u64, "cut at {end}");
        }
        for bit in bounds[1] * 8..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let dropped = (bytes.len() - intact_before(bit / 8)) as u64;
            assert_eq!(load(&flipped).dropped_bytes, dropped, "bit {bit} flipped");
        }
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&mutant).unwrap();
    }

    #[test]
    fn best_checkpoint_never_exceeds_the_contiguous_probe_prefix() {
        let path = tmp("best-checkpoint");
        let mut w = JournalWriter::create(&path, &header());
        w.probe(0, &sample_probe(0));
        w.checkpoint(&sample_checkpoint(1));
        // An out-of-order record (a parallel worker raced ahead) leaves
        // a gap: index 2 without index 1.
        w.probe(2, &sample_probe(2));
        w.checkpoint(&sample_checkpoint(3));
        drop(w);

        let replay = JournalReplay::load(&path);
        assert_eq!(replay.probes.len(), 1, "index 2 is past the gap");
        assert_eq!(replay.checkpoint.unwrap().probes_done, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_encoding_is_byte_stable_across_sharded_exports() {
        use crate::ratelimit::{QueryRound, RateLimiter};

        // Book the same traffic into two limiters in different orders:
        // the sharded ledgers fill in different sequences, but both
        // exports — and therefore the framed checkpoint records built
        // from them — must be byte-identical.
        let dsts: Vec<Ipv4Addr> = (0..60u32).map(|i| Ipv4Addr::from(0x0a01_0000 | i)).collect();
        let forward = RateLimiter::new(100);
        for &d in &dsts {
            forward.acquire_for(QueryRound::Round1, Some(d));
        }
        let backward = RateLimiter::new(100);
        for &d in dsts.iter().rev() {
            backward.acquire_for(QueryRound::Round1, Some(d));
        }
        let encode = |limiter: &RateLimiter| {
            let cp = Checkpoint { limiter: limiter.export_state(), ..sample_checkpoint(3) };
            let mut out = String::new();
            checkpoint_to_value(&cp).encode(&mut out);
            out
        };
        assert_eq!(encode(&forward), encode(&backward));

        // And a restore from the encoded form re-exports identically:
        // the journal round-trip cannot perturb shard placement.
        let cp = Checkpoint { limiter: forward.export_state(), ..sample_checkpoint(3) };
        let mut encoded = String::new();
        checkpoint_to_value(&cp).encode(&mut encoded);
        let decoded = checkpoint_from_value(&parse(&encoded).unwrap()).unwrap();
        let restored = RateLimiter::new(100);
        restored.restore_state(&decoded.limiter);
        assert_eq!(restored.export_state(), cp.limiter);
    }

    #[test]
    fn legacy_checkpoints_without_expiry_or_clock_still_decode() {
        // Pre-expiry journals wrote cache entries as triples and had no
        // clock field. Synthesize that shape by stripping the modern
        // encoding and check the decoder reconstructs: clock zero, and
        // expiry = the entry's smallest record TTL (what the resolver
        // would have computed at virtual time zero).
        let modern = checkpoint_to_value(&sample_checkpoint(2));
        let Value::Obj(fields) = modern else { panic!("checkpoint encodes as an object") };
        let legacy = Value::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "clock_s")
                .map(|(k, v)| {
                    if k != "cache" {
                        return (k, v);
                    }
                    let Value::Arr(entries) = v else { panic!("cache encodes as an array") };
                    let triples = entries
                        .into_iter()
                        .map(|e| {
                            let Value::Arr(mut parts) = e else { panic!("cache entry tuple") };
                            parts.truncate(3);
                            Value::Arr(parts)
                        })
                        .collect();
                    (k, Value::Arr(triples))
                })
                .collect(),
        );
        let decoded = checkpoint_from_value(&legacy).unwrap();
        assert_eq!(decoded.clock_s, 0);
        assert_eq!(decoded.cache.len(), 1);
        assert_eq!(decoded.cache[0].1.expires_at_s, 3600, "min record TTL from time zero");
        assert_eq!(decoded.cache[0].1.records, sample_checkpoint(2).cache[0].1.records);
    }

    #[test]
    fn append_resumed_marker_counts_on_reload() {
        let path = tmp("resumed");
        let mut w = JournalWriter::create(&path, &header());
        w.probe(0, &sample_probe(0));
        drop(w);
        let mut w = JournalWriter::append_to(&path);
        w.resumed(1);
        w.probe(1, &sample_probe(1));
        drop(w);

        let replay = JournalReplay::load(&path);
        assert_eq!(replay.resumes, 1);
        assert_eq!(replay.probes.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_flush_threshold_degrades_to_per_record_flush_with_identical_bytes() {
        let buffered_path = tmp("threshold-buffered");
        let eager_path = tmp("threshold-eager");
        let mut buffered = JournalWriter::create(&buffered_path, &header());
        let mut eager = JournalWriter::create(&eager_path, &header()).with_flush_threshold(0);
        for i in 0..4u8 {
            buffered.probe(u64::from(i), &sample_probe(i));
            eager.probe(u64::from(i), &sample_probe(i));
            // The eager writer is durable after every probe append; the
            // buffered one still holds everything past the header.
            let on_disk = std::fs::metadata(&eager_path).unwrap().len();
            let accepted = std::fs::metadata(&buffered_path).unwrap().len() as usize
                + buffered_pending(&buffered);
            assert_eq!(on_disk as usize, accepted, "eager journal flushes per record");
        }
        assert!(buffered_pending(&buffered) > 0, "default threshold is still buffering");
        buffered.complete(4);
        eager.complete(4);
        drop(buffered);
        drop(eager);

        let a = std::fs::read(&buffered_path).unwrap();
        let b = std::fs::read(&eager_path).unwrap();
        assert_eq!(a, b, "flush cadence must never change journal bytes");
        std::fs::remove_file(&buffered_path).unwrap();
        std::fs::remove_file(&eager_path).unwrap();
    }

    fn buffered_pending(w: &JournalWriter) -> usize {
        w.buf.len()
    }
}
