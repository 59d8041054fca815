//! Every reader of persisted bytes is total. Bit flips, truncation at
//! every offset, and well-formed documents with the wrong schema (frames
//! re-checksummed, so they reach the decoder) yield an `Err` or a
//! dropped torn tail — never a panic. The journal's own mutation test
//! lives next to its private fixtures in `govdns-core`'s `journal.rs`.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use govdns::diff::{telemetry_from_json, CorpusCase, DatasetView, SmellView};
use govdns::model::persist::{parse, read_frame, write_frame, Value};
use govdns::smell::SmellReport;
use govdns::telemetry::Registry;
use govdns::trace::{read_trace, FlightDump, TraceData, TraceLog, TraceRecord, TraceSpec, Tracer};

/// Two canonical dataset probes: one unreachable, one authoritative.
const DATASET: &str = r#"{"probes":[{"domain":"agri22.central1.gov.th","parent_zone":"th","parent_addrs":["16.87.0.1","16.87.0.2"],"parent_observations":[{"addr":"16.87.0.1","attempts":3,"class":"timeout"},{"addr":"16.87.0.2","attempts":3,"class":"timeout"}],"parent_ns":[],"child_ns":[],"servers":[],"soa":null,"queries":10,"elapsed_ms":29556,"rounds":1,"degraded":false},{"domain":"budget4.gov.cl","parent_zone":"gov.cl","parent_addrs":["16.28.1.1","16.29.1.1"],"parent_observations":[{"addr":"16.28.1.1","attempts":1,"class":{"authoritative":["ns1.gov.cl"]}},{"addr":"16.29.1.1","attempts":1,"class":{"referral":{"cut":"budget4.gov.cl","targets":["ns1.gov.cl"],"glue":[["ns1.gov.cl","16.28.1.1"]]}}}],"parent_ns":["ns1.gov.cl"],"child_ns":["ns1.gov.cl"],"servers":[{"host":"ns1.gov.cl","in_parent":true,"in_child":true,"recovered_in_round2":false,"addrs":["16.28.1.1"],"observations":[{"addr":"16.28.1.1","attempts":1,"class":{"authoritative":["ns1.gov.cl"]}}]}],"soa":{"mname":"ns1.gov.cl","rname":"hostmaster.budget4.gov.cl","serial":1},"queries":8,"elapsed_ms":1365,"rounds":1,"degraded":false}]}"#;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("govdns-reader-mutations-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs `read`, failing the test with `what` named if it panics.
fn no_panic<T>(what: impl Fn() -> String, read: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(read)).unwrap_or_else(|_| panic!("reader panicked on {}", what()))
}

/// Values a schema mutation substitutes for a node.
fn garbage() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Bool(true),
        Value::Num(0),
        Value::Num(u64::MAX),
        Value::Float(-1.0),
        Value::Float(1.5),
        Value::from(""),
        Value::from("x"),
        Value::Arr(Vec::new()),
        Value::Obj(Vec::new()),
    ]
}

/// Every document one edit away from `v`: one node replaced by garbage,
/// or one array element or object field removed.
fn schema_mutants(v: &Value) -> Vec<Value> {
    let mut out: Vec<Value> = garbage().into_iter().filter(|g| g != v).collect();
    match v {
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let mut removed = items.clone();
                removed.remove(i);
                out.push(Value::Arr(removed));
                for m in schema_mutants(item) {
                    let mut edited = items.clone();
                    edited[i] = m;
                    out.push(Value::Arr(edited));
                }
            }
        }
        Value::Obj(fields) => {
            for (i, (_, item)) in fields.iter().enumerate() {
                let mut removed = fields.clone();
                removed.remove(i);
                out.push(Value::Obj(removed));
                for m in schema_mutants(item) {
                    let mut edited = fields.clone();
                    edited[i].1 = m;
                    out.push(Value::Obj(edited));
                }
            }
        }
        _ => {}
    }
    out
}

/// Every single-bit flip of `bytes` that is still UTF-8.
fn utf8_bit_flips(bytes: &[u8]) -> impl Iterator<Item = (usize, String)> + '_ {
    (0..bytes.len() * 8).filter_map(move |bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        String::from_utf8(flipped).ok().map(|s| (bit, s))
    })
}

/// The mutation suite for a reader of one JSON document: the document
/// itself reads, every proper prefix is an `Err`, and no bit flip or
/// schema mutant panics.
fn check_json_reader<T>(name: &str, doc: &str, read: impl Fn(&str) -> Result<T, String>) {
    if let Err(e) = read(doc) {
        panic!("{name}: the unmutated document does not read: {e}");
    }
    for end in (0..doc.len()).filter(|&end| doc.is_char_boundary(end)) {
        let r = no_panic(|| format!("{name} truncated at {end}"), || read(&doc[..end]));
        assert!(r.is_err(), "{name}: the prefix of {end} bytes read as a whole document");
    }
    for (bit, flipped) in utf8_bit_flips(doc.as_bytes()) {
        let _ = no_panic(|| format!("{name} with bit {bit} flipped"), || read(&flipped));
    }
    for mutant in schema_mutants(&parse(doc).unwrap()) {
        let text = mutant.to_json();
        let _ = no_panic(|| format!("{name} schema mutant {text}"), || read(&text));
    }
}

#[test]
fn shared_parser_is_total() {
    let doc = r#"{"a":[0,18446744073709551615,-2,3.5e1,true,false,null],"s":"q\"\\\n\t\r\u0001é/","o":{"":{}}}"#;
    check_json_reader("parse", doc, parse);
}

#[test]
fn smell_and_diff_readers_are_total() {
    let archived = std::fs::read_to_string("corpus/smell/smells-seed7.json").unwrap();
    let mut report = SmellReport::from_canonical_json(&archived).unwrap();
    report.analysis.verdicts.truncate(2);
    let smells = report.canonical_json();
    check_json_reader("SmellReport", &smells, SmellReport::from_canonical_json);
    check_json_reader("SmellView", &smells, SmellView::from_canonical_json);

    let archived = std::fs::read_to_string("corpus/providers-seed7.json").unwrap();
    let mut case = CorpusCase::from_json(&archived).unwrap();
    case.domains.truncate(1);
    let Ok(TraceRecord::Domain(mut block)) = TraceRecord::decode(&case.domains[0].payload) else {
        panic!("corpus payloads are domain blocks");
    };
    block.events.truncate(4);
    case.domains[0].payload = TraceRecord::Domain(block).encode();
    check_json_reader("CorpusCase", &case.to_json(), CorpusCase::from_json);

    // The view's own summaries (attempt totals, RTT mean) sum untrusted
    // counts too.
    check_json_reader("DatasetView", DATASET, |text| {
        DatasetView::from_canonical_json(text).map(|view| view.diff(&view))
    });

    let registry = Registry::new();
    registry.counter("probe.queries").add(12);
    registry.gauge("runner.sink_queue_depth").set(-3);
    registry.histogram_latency_ms("probe.rtt_ms").record(12.5);
    let telemetry = registry.snapshot().to_json();
    check_json_reader("telemetry", &telemetry, telemetry_from_json);
}

/// A small but complete trace: every event kind, a flight dump, stage
/// marks and the completion trailer.
fn sample_trace() -> Vec<u8> {
    let path = tmp("sample.trace");
    let tracer = Tracer::create(&TraceSpec::new(&path), 2, 0).unwrap();
    let dst = "192.0.2.1".parse().unwrap();
    let mut w = tracer.worker();
    w.begin(0, &"a.gov.zz".parse().unwrap());
    w.emit(TraceData::Charge { round: "round1".into(), dst: Some(dst) });
    w.emit(TraceData::Send { dst, attempt: 0 });
    w.dump("retry_exhausted");
    w.emit(TraceData::Fault { dst, attempt: 0, verdict: "flap".into(), extra_ms: 5 });
    w.emit(TraceData::Response { dst, attempt: 0, class: "timeout".into(), ms: 900 });
    w.emit(TraceData::Backoff { dst, attempt: 1, ms: 200 });
    w.emit(TraceData::Referral { cut: "gov.zz".into(), targets: 2 });
    w.emit(TraceData::Resolve { host: "ns1.gov.zz".into(), addrs: vec![dst] });
    w.end();
    w.begin(1, &"b.gov.zz".parse().unwrap());
    w.emit(TraceData::RetryDenied { dst });
    w.emit(TraceData::BreakerDenied { dst });
    w.emit(TraceData::BreakerTrial { dst });
    w.emit(TraceData::Breaker { dst, transition: "closed->open".into() });
    w.emit(TraceData::Note { text: "q\"\\\n".into() });
    w.end();
    tracer.stage("round1", "end");
    tracer.finish();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// Offsets where frames start, plus the end of the last frame.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = vec![0];
    while let Some((_, next)) = read_frame(bytes, *offsets.last().unwrap(), b"T1") {
        offsets.push(next);
    }
    offsets
}

fn read_trace_bytes(what: impl Fn() -> String, bytes: &[u8]) -> io::Result<TraceLog> {
    let path = tmp(&format!("mutant-{:?}.trace", std::thread::current().id()));
    std::fs::write(&path, bytes).unwrap();
    let log = no_panic(what, || read_trace(&path));
    std::fs::remove_file(&path).unwrap();
    log
}

/// `bytes` with frame `k`'s payload replaced and re-checksummed, so the
/// replacement reaches the record decoder.
fn reframed(bytes: &[u8], bounds: &[usize], k: usize, payload: &str) -> Vec<u8> {
    let mut out = bytes[..bounds[k]].to_vec();
    write_frame(&mut out, b"T1", payload);
    out.extend_from_slice(&bytes[bounds[k + 1]..]);
    out
}

fn assert_invalid_data(r: io::Result<TraceLog>, what: &str) {
    match r {
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
        Ok(_) => panic!("{what}: read as a valid trace"),
    }
}

#[test]
fn read_trace_drops_torn_tails_and_rejects_checksummed_garbage() {
    let bytes = sample_trace();
    let whole = read_trace_bytes(|| "the sample trace".into(), &bytes).unwrap();
    assert!(whole.completed && whole.dropped_bytes == 0 && whole.domains.len() == 2);
    assert_eq!(whole.dumps.len(), 1);
    let bounds = frame_boundaries(&bytes);
    assert_eq!(*bounds.last().unwrap(), bytes.len());

    // A crash mid-append: everything past the last whole frame drops.
    for end in 0..bytes.len() {
        let log = read_trace_bytes(|| format!("trace truncated at {end}"), &bytes[..end]).unwrap();
        let intact = bounds.iter().rev().find(|&&b| b <= end).unwrap();
        assert_eq!(log.dropped_bytes, (end - intact) as u64, "truncated at {end}");
    }

    // Corruption: every single-bit flip fails its frame's checksum or
    // header test, and the rest of the file drops.
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let log = read_trace_bytes(|| format!("trace bit {bit} flipped"), &flipped).unwrap();
        assert!(log.dropped_bytes > 0, "bit {bit} flip went undetected");
    }

    // Checksummed garbage reaches the decoder and must come back as
    // `InvalidData`, never a panic.
    for k in 0..bounds.len() - 1 {
        let (payload, _) = read_frame(&bytes, bounds[k], b"T1").unwrap();
        for end in 0..payload.len() {
            if payload.is_char_boundary(end) {
                let mutant = reframed(&bytes, &bounds, k, &payload[..end]);
                let what = format!("frame {k} payload cut at {end}");
                assert_invalid_data(read_trace_bytes(|| what.clone(), &mutant), &what);
            }
        }
        for (bit, flipped) in utf8_bit_flips(payload.as_bytes()) {
            let mutant = reframed(&bytes, &bounds, k, &flipped);
            let _ = read_trace_bytes(|| format!("frame {k} payload bit {bit} flipped"), &mutant);
        }
        for m in schema_mutants(&parse(payload).unwrap()) {
            let text = m.to_json();
            let mutant = reframed(&bytes, &bounds, k, &text);
            if let Err(e) = read_trace_bytes(|| format!("frame {k} schema mutant {text}"), &mutant)
            {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "frame {k} mutant {text}: {e}");
            }
        }
    }
}

#[test]
fn checksummed_frames_that_once_panicked_read_trace_are_errors() {
    let header = TraceRecord::Header {
        version: 1,
        seed: 0,
        sample_ppm: 1_000_000,
        flight_capacity: 16,
        domains: 1,
    };
    for payload in [r#"{"kind":"bogus"}"#, "[]", r#"{"kind":"stage","name":"\u00"#] {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"T1", &header.encode());
        write_frame(&mut bytes, b"T1", payload);
        assert_invalid_data(read_trace_bytes(|| payload.into(), &bytes), payload);
    }
    // A dump whose ordinal overflows `u32` is a schema error too.
    let dump = TraceRecord::Dump(FlightDump {
        trigger: "t".into(),
        index: None,
        domain: None,
        ord: 0,
        events: Vec::new(),
    })
    .encode()
    .replace("\"ord\":0", "\"ord\":4294967296");
    assert!(TraceRecord::decode(&dump).unwrap_err().contains("\"ord\""));
}
