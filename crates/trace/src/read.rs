//! Reading a trace file back: frames → records → causal timelines.
//!
//! The reader applies the same torn-tail discipline as the journal
//! replayer: it walks `T1` frames until one fails its header, length,
//! or checksum test, keeps everything before the tear, and reports the
//! remainder as [`TraceLog::dropped_bytes`].

use std::io;
use std::path::Path;

use govdns_model::persist::read_frame;

use crate::codec::TraceRecord;
use crate::event::{DomainBlock, FlightDump};

/// The header frame's fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version.
    pub version: u64,
    /// Sampling seed.
    pub seed: u64,
    /// Sampling rate, parts per million.
    pub sample_ppm: u64,
    /// Flight-recorder ring capacity.
    pub flight_capacity: u64,
    /// Campaign domain count.
    pub domains: u64,
}

/// A decoded trace file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceLog {
    /// The header frame, when the file has one.
    pub header: Option<TraceHeader>,
    /// Stage boundaries in file order, as `(name, mark)`.
    pub stages: Vec<(String, String)>,
    /// The resume marker, when the campaign resumed from a journal.
    pub resume_from: Option<u64>,
    /// Sampled domain blocks, in campaign index order.
    pub domains: Vec<DomainBlock>,
    /// Flight-recorder dumps, in file order (sorted by
    /// `(domain index, ordinal)` at write time).
    pub dumps: Vec<FlightDump>,
    /// Whether the completion trailer was seen.
    pub completed: bool,
    /// Bytes after the last valid frame (a torn tail, if nonzero).
    pub dropped_bytes: u64,
}

impl TraceLog {
    /// The block for a domain, if it was sampled.
    pub fn domain(&self, name: &str) -> Option<&DomainBlock> {
        self.domains.iter().find(|b| b.domain == name)
    }

    /// Total events across all domain blocks.
    pub fn events_total(&self) -> u64 {
        self.domains.iter().map(|b| b.events.len() as u64).sum()
    }

    /// Resolves an evidence citation `(domain, seq)` to the recorded
    /// event it names. `None` means the citation is dangling: the domain
    /// was never sampled, or the ring dropped that sequence number.
    pub fn resolve(&self, domain: &str, seq: u32) -> Option<&crate::event::TraceEvent> {
        self.domain(domain).and_then(|b| b.event(seq))
    }
}

/// Reads and decodes a trace file, dropping any torn tail.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be read, and
/// [`io::ErrorKind::InvalidData`] if a frame passes its checksum but
/// fails to decode (corruption that happens to fail the checksum lands
/// in [`TraceLog::dropped_bytes`] instead).
pub fn read_trace(path: impl AsRef<Path>) -> io::Result<TraceLog> {
    let bytes = std::fs::read(path)?;
    let mut log = TraceLog::default();
    let mut offset = 0usize;
    while let Some((payload, next)) = read_frame(&bytes, offset, b"T1") {
        let record = TraceRecord::decode(payload).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("trace frame at byte {offset}: {e}"))
        })?;
        match record {
            TraceRecord::Header { version, seed, sample_ppm, flight_capacity, domains } => {
                log.header =
                    Some(TraceHeader { version, seed, sample_ppm, flight_capacity, domains });
            }
            TraceRecord::Stage { name, mark } => log.stages.push((name, mark)),
            TraceRecord::Resume { from } => log.resume_from = Some(from),
            TraceRecord::Domain(block) => log.domains.push(block),
            TraceRecord::Dump(dump) => log.dumps.push(dump),
            TraceRecord::Complete { .. } => log.completed = true,
        }
        offset = next;
    }
    log.dropped_bytes = (bytes.len() - offset) as u64;
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use govdns_model::persist::write_frame;

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("govdns-trace-read-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.trace");
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            b"T1",
            &TraceRecord::Stage { name: "round1".into(), mark: "begin".into() }.encode(),
        );
        buf.extend_from_slice(b"T1 0123456789abcdef 000000ff\n{\"kind\":\"dom");
        std::fs::write(&path, &buf).unwrap();
        let log = read_trace(&path).unwrap();
        assert_eq!(log.stages, vec![("round1".to_string(), "begin".to_string())]);
        assert!(log.dropped_bytes > 0);
        assert!(!log.completed);
    }
}
