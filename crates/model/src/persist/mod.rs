//! Persistence primitives shared by every file the pipeline writes and
//! reads back: the write-ahead journal (`J1` frames), the flight
//! recorder's trace file (`T1` frames), and the canonical JSON reports
//! (dataset, telemetry, corpus cases, SPOF and smell reports).
//!
//! * [`fnv64`] — FNV-1a 64 over bytes: frame checksums and run
//!   fingerprints.
//! * [`write_frame`] / [`read_frame`] — checksummed, length-prefixed
//!   record framing with torn-tail detection.
//! * [`Value`], [`escape_into`], [`parse`] — a canonical JSON writer and
//!   one strict, total, linear-time parser.
//! * [`OrderedSink`] — a bounded channel into a dedicated I/O thread
//!   that consumes indexed items strictly in index order.
//!
//! Everything read from disk is untrusted: [`read_frame`] and [`parse`]
//! return `None` / `Err` on any malformed input and never panic.
//!
//! ```
//! use govdns_model::persist::{parse, read_frame, write_frame, Value};
//!
//! let record = Value::obj(vec![("kind", Value::from("probe")), ("index", Value::Num(7))]);
//! let mut file = Vec::new();
//! write_frame(&mut file, b"J1", &record.to_json());
//! let (payload, next) = read_frame(&file, 0, b"J1").unwrap();
//! assert_eq!(next, file.len());
//! assert_eq!(parse(payload).unwrap(), record);
//! // A torn tail fails its frame test instead of panicking.
//! assert!(read_frame(&file[..file.len() - 1], 0, b"J1").is_none());
//! ```

mod frame;
mod json;
mod sink;

pub use frame::{read_frame, write_frame};
pub use json::{escape_into, parse, Decoded, Quoted, Value};
pub use sink::{OrderedSink, SinkConsumer};

/// FNV-1a, 64-bit, over raw bytes.
///
/// ```
/// assert_eq!(govdns_model::persist::fnv64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(govdns_model::persist::fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
