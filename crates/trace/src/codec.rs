//! Deterministic JSON encoding for trace records.
//!
//! Records are built and parsed with the shared canonical JSON of
//! [`govdns_model::persist`], so the encoding is byte-stable across
//! platforms and runs — the trace determinism CI gate literally `cmp`s
//! two trace files. The per-event hot path ([`write_event`]) writes
//! straight into a string instead of building a value tree. Decoding is
//! total: a record that passed its frame checksum but does not match the
//! schema is an `Err`, never a panic.

use std::net::Ipv4Addr;

use govdns_model::persist::{escape_into, parse, Value};

use crate::event::{DomainBlock, FlightDump, Step, TraceData, TraceEvent};

fn addr(v: &Value) -> Option<Ipv4Addr> {
    v.as_str()?.parse().ok()
}

fn string(v: &Value) -> Option<String> {
    v.as_str().map(str::to_owned)
}

// ---------------------------------------------------------- event codec

/// Writes one event object straight into `out` — no intermediate value
/// tree. Domain blocks dominate a trace file's bytes, and this runs on
/// the worker thread for every sampled event, so it avoids the per-field
/// key allocations of the generic [`Value`] path. Field order matches
/// [`event_from_value`]'s expectations and must stay byte-stable.
fn write_event(e: &TraceEvent, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"seq\":{},\"step\":\"{}\"", e.seq, e.step.as_str());
    match &e.data {
        TraceData::Send { dst, attempt } => {
            let _ = write!(out, ",\"kind\":\"send\",\"dst\":\"{dst}\",\"attempt\":{attempt}");
        }
        TraceData::Fault { dst, attempt, verdict, extra_ms } => {
            let _ = write!(out, ",\"kind\":\"fault\",\"dst\":\"{dst}\",\"attempt\":{attempt}");
            out.push_str(",\"verdict\":");
            escape_into(verdict, out);
            let _ = write!(out, ",\"extra_ms\":{extra_ms}");
        }
        TraceData::Response { dst, attempt, class, ms } => {
            let _ = write!(out, ",\"kind\":\"response\",\"dst\":\"{dst}\",\"attempt\":{attempt}");
            out.push_str(",\"class\":");
            escape_into(class, out);
            let _ = write!(out, ",\"ms\":{ms}");
        }
        TraceData::Referral { cut, targets } => {
            out.push_str(",\"kind\":\"referral\",\"cut\":");
            escape_into(cut, out);
            let _ = write!(out, ",\"targets\":{targets}");
        }
        TraceData::Resolve { host, addrs } => {
            out.push_str(",\"kind\":\"resolve\",\"host\":");
            escape_into(host, out);
            out.push_str(",\"addrs\":[");
            for (i, a) in addrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{a}\"");
            }
            out.push(']');
        }
        TraceData::Charge { round, dst } => {
            out.push_str(",\"kind\":\"charge\",\"round\":");
            escape_into(round, out);
            if let Some(dst) = dst {
                let _ = write!(out, ",\"dst\":\"{dst}\"");
            }
        }
        TraceData::RetryDenied { dst } => {
            let _ = write!(out, ",\"kind\":\"retry_denied\",\"dst\":\"{dst}\"");
        }
        TraceData::Backoff { dst, attempt, ms } => {
            let _ = write!(
                out,
                ",\"kind\":\"backoff\",\"dst\":\"{dst}\",\"attempt\":{attempt},\"ms\":{ms}"
            );
        }
        TraceData::BreakerDenied { dst } => {
            let _ = write!(out, ",\"kind\":\"breaker_denied\",\"dst\":\"{dst}\"");
        }
        TraceData::BreakerTrial { dst } => {
            let _ = write!(out, ",\"kind\":\"breaker_trial\",\"dst\":\"{dst}\"");
        }
        TraceData::Breaker { dst, transition } => {
            let _ = write!(out, ",\"kind\":\"breaker\",\"dst\":\"{dst}\"");
            out.push_str(",\"transition\":");
            escape_into(transition, out);
        }
        TraceData::Note { text } => {
            out.push_str(",\"kind\":\"note\",\"text\":");
            escape_into(text, out);
        }
    }
    out.push('}');
}

fn write_events(events: &[TraceEvent], out: &mut String) {
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(e, out);
    }
    out.push(']');
}

/// Encodes a `domain` record from a borrowed block — the per-domain hot
/// path [`Tracer::submit`](crate::Tracer::submit) runs on the worker
/// thread, outside the sink lock.
pub(crate) fn encode_domain(block: &DomainBlock) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + block.events.len() * 96);
    let _ = write!(out, "{{\"kind\":\"domain\",\"index\":{},\"domain\":", block.index);
    escape_into(&block.domain, &mut out);
    if block.dropped > 0 {
        let _ = write!(out, ",\"dropped\":{}", block.dropped);
    }
    out.push_str(",\"events\":");
    write_events(&block.events, &mut out);
    out.push('}');
    out
}

/// Encodes a `dump` record from a borrowed flight dump (worker-side,
/// at trigger time).
pub(crate) fn encode_dump(dump: &FlightDump) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + dump.events.len() * 96);
    out.push_str("{\"kind\":\"dump\",\"trigger\":");
    escape_into(&dump.trigger, &mut out);
    if let Some(index) = dump.index {
        let _ = write!(out, ",\"index\":{index}");
    }
    if let Some(domain) = &dump.domain {
        out.push_str(",\"domain\":");
        escape_into(domain, &mut out);
    }
    let _ = write!(out, ",\"ord\":{}", dump.ord);
    out.push_str(",\"events\":");
    write_events(&dump.events, &mut out);
    out.push('}');
    out
}

fn event_from_value(v: &Value) -> Result<TraceEvent, String> {
    let seq = v.field("seq", Value::as_int)?;
    let step = v.field("step", |s| Step::parse(s.as_str()?))?;
    let dst = || v.field("dst", addr);
    let attempt = || v.field("attempt", Value::as_int);
    let text = |key: &str| v.field(key, string);
    let num = |key: &str| v.field(key, Value::as_u64);
    let data = match v.field("kind", Value::as_str)? {
        "send" => TraceData::Send { dst: dst()?, attempt: attempt()? },
        "fault" => TraceData::Fault {
            dst: dst()?,
            attempt: attempt()?,
            verdict: text("verdict")?,
            extra_ms: num("extra_ms")?,
        },
        "response" => TraceData::Response {
            dst: dst()?,
            attempt: attempt()?,
            class: text("class")?,
            ms: num("ms")?,
        },
        "referral" => TraceData::Referral { cut: text("cut")?, targets: num("targets")? },
        "resolve" => TraceData::Resolve { host: text("host")?, addrs: v.list("addrs", addr)? },
        "charge" => TraceData::Charge { round: text("round")?, dst: v.opt_field("dst", addr)? },
        "retry_denied" => TraceData::RetryDenied { dst: dst()? },
        "backoff" => TraceData::Backoff { dst: dst()?, attempt: attempt()?, ms: num("ms")? },
        "breaker_denied" => TraceData::BreakerDenied { dst: dst()? },
        "breaker_trial" => TraceData::BreakerTrial { dst: dst()? },
        "breaker" => TraceData::Breaker { dst: dst()?, transition: text("transition")? },
        "note" => TraceData::Note { text: text("text")? },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(TraceEvent { seq, step, data })
}

// --------------------------------------------------------- record codec

/// One framed record in a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// File header: always the first frame.
    Header {
        /// Format version (currently 1).
        version: u64,
        /// Sampling seed.
        seed: u64,
        /// Sampling rate in parts per million.
        sample_ppm: u64,
        /// Flight-recorder ring capacity (events per domain).
        flight_capacity: u64,
        /// Campaign domain count.
        domains: u64,
    },
    /// A runner stage boundary (`begin`/`end`), written single-threaded.
    Stage {
        /// Stage name (`round1`, ...).
        name: String,
        /// `begin` or `end`.
        mark: String,
    },
    /// The campaign resumed from a journal at this domain index.
    Resume {
        /// First freshly probed domain index.
        from: u64,
    },
    /// All events of one sampled domain.
    Domain(DomainBlock),
    /// A flight-recorder snapshot.
    Dump(FlightDump),
    /// Trailer: probing finished and the sink was flushed.
    Complete {
        /// Sampled domain blocks written.
        domains: u64,
        /// Events written across all blocks.
        events: u64,
        /// Flight dumps written.
        dumps: u64,
    },
}

impl TraceRecord {
    /// Byte-stable JSON encoding (one line, no whitespace).
    pub fn encode(&self) -> String {
        let value = match self {
            TraceRecord::Header { version, seed, sample_ppm, flight_capacity, domains } => {
                Value::obj(vec![
                    ("kind", "header".into()),
                    ("version", Value::Num(*version)),
                    ("seed", Value::Num(*seed)),
                    ("sample_ppm", Value::Num(*sample_ppm)),
                    ("flight_capacity", Value::Num(*flight_capacity)),
                    ("domains", Value::Num(*domains)),
                ])
            }
            TraceRecord::Stage { name, mark } => Value::obj(vec![
                ("kind", "stage".into()),
                ("name", name.as_str().into()),
                ("mark", mark.as_str().into()),
            ]),
            TraceRecord::Resume { from } => {
                Value::obj(vec![("kind", "resume".into()), ("from", Value::Num(*from))])
            }
            TraceRecord::Domain(block) => return encode_domain(block),
            TraceRecord::Dump(dump) => return encode_dump(dump),
            TraceRecord::Complete { domains, events, dumps } => Value::obj(vec![
                ("kind", "complete".into()),
                ("domains", Value::Num(*domains)),
                ("events", Value::Num(*events)),
                ("dumps", Value::Num(*dumps)),
            ]),
        };
        value.to_json()
    }

    /// Decodes a record that already passed its frame checksum.
    ///
    /// # Errors
    ///
    /// Returns a message when the payload is not well-formed JSON or
    /// does not match the record schema.
    pub fn decode(json: &str) -> Result<TraceRecord, String> {
        let v = parse(json)?;
        let num = |key: &str| v.field(key, Value::as_u64);
        let text = |key: &str| v.field(key, string);
        let events = || v.list("events", event_from_value);
        Ok(match v.field("kind", Value::as_str)? {
            "header" => TraceRecord::Header {
                version: num("version")?,
                seed: num("seed")?,
                sample_ppm: num("sample_ppm")?,
                flight_capacity: num("flight_capacity")?,
                domains: num("domains")?,
            },
            "stage" => TraceRecord::Stage { name: text("name")?, mark: text("mark")? },
            "resume" => TraceRecord::Resume { from: num("from")? },
            "domain" => TraceRecord::Domain(DomainBlock {
                index: num("index")?,
                domain: text("domain")?,
                dropped: v.opt_field("dropped", Value::as_int)?.unwrap_or(0),
                events: events()?,
            }),
            "dump" => TraceRecord::Dump(FlightDump {
                trigger: text("trigger")?,
                index: v.opt_field("index", Value::as_u64)?,
                domain: v.opt_field("domain", string)?,
                ord: v.field("ord", Value::as_int)?,
                events: events()?,
            }),
            "complete" => TraceRecord::Complete {
                domains: num("domains")?,
                events: num("events")?,
                dumps: num("dumps")?,
            },
            other => return Err(format!("unknown record kind {other:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Step;

    fn sample_block() -> DomainBlock {
        DomainBlock {
            index: 7,
            domain: "portal.gov.zz".into(),
            dropped: 0,
            events: vec![
                TraceEvent {
                    seq: 0,
                    step: Step::ParentNs,
                    data: TraceData::Charge { round: "round1".into(), dst: None },
                },
                TraceEvent {
                    seq: 1,
                    step: Step::ParentNs,
                    data: TraceData::Send { dst: "198.41.0.4".parse().unwrap(), attempt: 0 },
                },
                TraceEvent {
                    seq: 2,
                    step: Step::Referral,
                    data: TraceData::Referral { cut: "gov.zz".into(), targets: 2 },
                },
                TraceEvent {
                    seq: 3,
                    step: Step::AddrResolve,
                    data: TraceData::Resolve {
                        host: "ns1.gov.zz".into(),
                        addrs: vec!["192.0.2.1".parse().unwrap()],
                    },
                },
                TraceEvent {
                    seq: 4,
                    step: Step::ChildNs,
                    data: TraceData::Fault {
                        dst: "192.0.2.1".parse().unwrap(),
                        attempt: 0,
                        verdict: "flap".into(),
                        extra_ms: 0,
                    },
                },
                TraceEvent {
                    seq: 5,
                    step: Step::ChildNs,
                    data: TraceData::Response {
                        dst: "192.0.2.1".parse().unwrap(),
                        attempt: 0,
                        class: "timeout".into(),
                        ms: 900,
                    },
                },
            ],
        }
    }

    #[test]
    fn records_roundtrip_byte_identically() {
        let records = vec![
            TraceRecord::Header {
                version: 1,
                seed: 7,
                sample_ppm: 1_000_000,
                flight_capacity: 512,
                domains: 600,
            },
            TraceRecord::Stage { name: "round1".into(), mark: "begin".into() },
            TraceRecord::Resume { from: 150 },
            TraceRecord::Domain(sample_block()),
            TraceRecord::Dump(FlightDump {
                trigger: "retry_exhausted".into(),
                index: Some(7),
                domain: Some("portal.gov.zz".into()),
                ord: 0,
                events: sample_block().events,
            }),
            TraceRecord::Dump(FlightDump {
                trigger: "analysis_panic:providers".into(),
                index: None,
                domain: None,
                ord: 0,
                events: vec![],
            }),
            TraceRecord::Complete { domains: 600, events: 40_000, dumps: 3 },
        ];
        for r in records {
            let json = r.encode();
            let back = TraceRecord::decode(&json).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.encode(), json, "re-encode not byte-identical");
        }
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let err = TraceRecord::decode("{\"kind\":\"mystery\"}").unwrap_err();
        assert!(err.contains("unknown record kind"), "{err}");
    }
}
