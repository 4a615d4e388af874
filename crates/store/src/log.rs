//! The append-only, CRC-checksummed record log.
//!
//! On-disk framing, per record:
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────┐
//! │ len: u32LE │ crc: u32LE │ payload (len B)  │
//! └────────────┴────────────┴──────────────────┘
//! ```
//!
//! `crc` is the CRC-32 of the length field *and* the payload, so a bit
//! flip anywhere in a record — including one that rewrites `len` and
//! would otherwise send the scanner off into the weeds — fails the
//! check. Recovery ([`recover`]) scans from the start and keeps the
//! **longest valid prefix**: it stops at the first record whose header is
//! truncated, whose length overruns the image, or whose checksum
//! mismatches. It never panics, whatever bytes it is handed.

use crate::crc::crc32_update;

/// Framing overhead per record (length + checksum).
pub const RECORD_HEADER: usize = 8;

/// Upper bound on a single record's payload; a parsed length above this
/// is treated as corruption, not an allocation request.
pub const MAX_RECORD: usize = 1 << 24;

/// Append one framed record to `out`.
///
/// # Panics
/// Panics if `payload` is longer than `MAX_RECORD` (16 MiB).
pub fn append_record(out: &mut Vec<u8>, payload: &[u8]) {
    append_frame(out, &[payload]);
}

/// Append one framed record whose payload is `parts` end to end, written
/// straight into `out`: the checksum streams over the length bytes and
/// then each part, so no framed copy of the record is ever built.
///
/// # Panics
/// Panics if the payload is longer than `MAX_RECORD` (16 MiB).
pub(crate) fn append_frame(out: &mut Vec<u8>, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    assert!(len <= MAX_RECORD, "record over MAX_RECORD");
    let len_bytes = (len as u32).to_le_bytes();
    let crc = (parts.iter()).fold(crc32_update(!0, &len_bytes), |crc, part| {
        crc32_update(crc, part)
    });
    out.reserve(RECORD_HEADER + len);
    out.extend_from_slice(&len_bytes);
    out.extend_from_slice(&(crc ^ !0).to_le_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
}

/// What a recovery scan found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Payloads of every valid record, in log order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of the image covered by valid records.
    pub valid_bytes: usize,
    /// Bytes past the last valid record (torn tail, corruption, junk).
    pub discarded_bytes: usize,
}

impl Recovery {
    /// True if the whole image parsed as valid records.
    pub fn is_clean(&self) -> bool {
        self.discarded_bytes == 0
    }
}

/// The end offset of the record at `at`, if it is whole and its checksum
/// holds.
fn scan_one(image: &[u8], at: usize) -> Option<usize> {
    let Some(&[l0, l1, l2, l3, c0, c1, c2, c3]) = image.get(at..at + RECORD_HEADER) else {
        return None;
    };
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let crc = u32::from_le_bytes([c0, c1, c2, c3]);
    let remaining = image.len() - at;
    if len > MAX_RECORD || len > remaining - RECORD_HEADER {
        return None;
    }
    let end = at + RECORD_HEADER + len;
    let checked = crc32_update(
        crc32_update(!0, &image[at..at + 4]),
        &image[at + RECORD_HEADER..end],
    );
    (checked ^ !0 == crc).then_some(end)
}

/// The longest valid prefix of `image` (see module docs).
pub fn recover(image: &[u8]) -> Recovery {
    let mut out = Recovery::default();
    let mut at = 0;
    while let Some(end) = scan_one(image, at) {
        out.records.push(image[at + RECORD_HEADER..end].to_vec());
        at = end;
    }
    out.valid_bytes = at;
    out.discarded_bytes = image.len() - at;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;

    /// The framing as first written, one temporary buffer per step: the
    /// reference the streaming writer is held to.
    fn append_record_buffered(out: &mut Vec<u8>, payload: &[u8]) {
        let len = payload.len() as u32;
        let mut framed = Vec::with_capacity(RECORD_HEADER + payload.len());
        framed.extend_from_slice(&len.to_le_bytes());
        let mut checked = Vec::with_capacity(4 + payload.len());
        checked.extend_from_slice(&len.to_le_bytes());
        checked.extend_from_slice(payload);
        framed.extend_from_slice(&crc32(&checked).to_le_bytes());
        framed.extend_from_slice(payload);
        out.extend_from_slice(&framed);
    }

    #[test]
    fn streaming_writer_frames_exactly_as_the_buffered_one() {
        let mut x: u64 = 0x2003_0A25;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let (mut streamed, mut buffered) = (Vec::new(), Vec::new());
        for _ in 0..500 {
            let payload: Vec<u8> = (0..next() % 300).map(|_| next() as u8).collect();
            append_record(&mut streamed, &payload);
            append_record_buffered(&mut buffered, &payload);
            // A payload given in parts frames as the same bytes whole.
            let cut = next() % (payload.len() + 1);
            let mut parted = Vec::new();
            append_frame(&mut parted, &[&payload[..cut], &payload[cut..]]);
            assert_eq!(parted, buffered[buffered.len() - parted.len()..]);
        }
        assert_eq!(streamed, buffered);
        assert_eq!(recover(&streamed).records.len(), 500);
    }

    fn image(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            append_record(&mut out, p);
        }
        out
    }

    #[test]
    fn round_trip() {
        let img = image(&[b"alpha", b"", b"gamma-gamma"]);
        let rec = recover(&img);
        assert!(rec.is_clean());
        assert_eq!(
            rec.records,
            vec![b"alpha".to_vec(), vec![], b"gamma-gamma".to_vec()]
        );
        assert_eq!(rec.valid_bytes, img.len());
    }

    #[test]
    fn truncation_at_every_offset_yields_a_valid_prefix() {
        let img = image(&[b"one", b"two-two", b"three"]);
        let full = recover(&img).records;
        for cut in 0..=img.len() {
            let rec = recover(&img[..cut]);
            assert!(rec.records.len() <= full.len());
            assert_eq!(rec.records[..], full[..rec.records.len()], "cut at {cut}");
            assert_eq!(rec.valid_bytes + rec.discarded_bytes, cut);
        }
    }

    #[test]
    fn any_single_bit_flip_never_adds_a_phantom_record() {
        let img = image(&[b"first", b"second"]);
        let full = recover(&img).records;
        for byte in 0..img.len() {
            for bit in 0..8 {
                let mut bad = img.clone();
                bad[byte] ^= 1 << bit;
                let rec = recover(&bad);
                // Every recovered record is one of the originals, in
                // prefix order (a flip can only shorten the valid run).
                assert!(rec.records.len() <= full.len(), "flip {byte}:{bit}");
                assert_eq!(
                    rec.records[..],
                    full[..rec.records.len()],
                    "flip {byte}:{bit}"
                );
            }
        }
    }

    #[test]
    fn hostile_garbage_never_panics() {
        let mut junk = Vec::new();
        let mut x: u64 = 0x1234_5678;
        for _ in 0..4096 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            junk.push((x >> 56) as u8);
        }
        let _ = recover(&junk);
        // A length field pointing far past the image must not allocate.
        let mut lie = Vec::new();
        lie.extend_from_slice(&u32::MAX.to_le_bytes());
        lie.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(recover(&lie).records.len(), 0);
    }
}
