//! Checksummed record framing.
//!
//! ```text
//! <2-byte magic> <16-hex fnv64(payload)> <8-hex payload length>\n
//! <payload>\n
//! ```
//!
//! The journal uses magic `J1`, the trace file `T1`. A reader walks
//! frames until one fails its magic, header, length, trailer, UTF-8 or
//! checksum test and treats the rest of the file as a torn tail: the
//! half-written record a crash leaves behind. Records are appended in
//! order, so everything before the tear is intact.

use std::io::Write as _;

use super::fnv64;

/// Bytes in a frame header: magic, space, 16 hex digits, space, 8 hex
/// digits, newline.
const FRAME_HEADER_LEN: usize = 29;

/// Appends one framed payload to `out`.
pub fn write_frame(out: &mut Vec<u8>, magic: &[u8; 2], payload: &str) {
    let bytes = payload.as_bytes();
    out.extend_from_slice(magic);
    let _ = writeln!(out, " {:016x} {:08x}", fnv64(bytes), bytes.len());
    out.extend_from_slice(bytes);
    out.push(b'\n');
}

/// Reads the frame starting at `offset`; returns its payload and the
/// offset of the next frame, or `None` on a torn or corrupt frame.
pub fn read_frame<'b>(bytes: &'b [u8], offset: usize, magic: &[u8; 2]) -> Option<(&'b str, usize)> {
    let head = bytes.get(offset..offset.checked_add(FRAME_HEADER_LEN)?)?;
    if head[..2] != magic[..] || head[2] != b' ' || head[19] != b' ' || head[28] != b'\n' {
        return None;
    }
    // Lowercase only, as written: every single-bit flip of a header
    // digit then fails the frame instead of re-reading as the same value.
    let hex = |field: &[u8]| {
        let lower = |b: &u8| b.is_ascii_digit() || (b'a'..=b'f').contains(b);
        let digits = std::str::from_utf8(field).ok().filter(|s| s.as_bytes().iter().all(lower))?;
        u64::from_str_radix(digits, 16).ok()
    };
    let sum = hex(&head[3..19])?;
    let len = usize::try_from(hex(&head[20..28])?).ok()?;
    let start = offset + FRAME_HEADER_LEN;
    let end = start.checked_add(len)?;
    let payload = bytes.get(start..end)?;
    if bytes.get(end) != Some(&b'\n') || fnv64(payload) != sum {
        return None;
    }
    Some((std::str::from_utf8(payload).ok()?, end + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_torn_or_foreign_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"T1", "{\"kind\":\"stage\"}");
        write_frame(&mut buf, b"T1", "second");
        let (p1, next) = read_frame(&buf, 0, b"T1").unwrap();
        assert_eq!(p1, "{\"kind\":\"stage\"}");
        let (p2, end) = read_frame(&buf, next, b"T1").unwrap();
        assert_eq!((p2, end), ("second", buf.len()));
        assert!(read_frame(&buf, 0, b"J1").is_none(), "magic is part of the frame");

        // A record the crash cut off mid-write.
        buf.extend_from_slice(b"T1 0123456789abcdef 000000ff\n{\"kind\":\"dom");
        assert!(read_frame(&buf, end, b"T1").is_none());

        // A flipped payload byte fails the checksum.
        let mut flipped = buf.clone();
        flipped[FRAME_HEADER_LEN + 2] ^= 0x01;
        assert!(read_frame(&flipped, 0, b"T1").is_none());
    }
}
