//! Binary wire format for protocol messages.
//!
//! The simulator moves typed values between nodes, but a real deployment
//! needs a concrete encoding. [`Wire`] defines one:
//! length-prefixed frames (u32 big-endian length, then the payload), with
//! primitive big-endian `put_*` / length-checked `get_*` helpers that
//! protocol crates use to implement [`Wire`] for their message enums. A
//! decoder advances a `&[u8]` cursor; an encoder writes into a [`Sink`]:
//! a `Vec<u8>` keeps the bytes ([`frame`]), a [`Counter`] only counts them
//! ([`frame_len`]), so the format is written once and the simulator meters
//! a message without building its frame. Round-trip and property tests
//! exercise the full protocol encoding and hold the count equal to the frame.

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum tag byte was not recognized.
    BadTag(u8),
    /// A length field exceeded sanity bounds.
    BadLength(u64),
    /// String payload was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated message"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::BadLength(l) => write!(f, "implausible length {l}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Maximum accepted collection length — a defensive bound against corrupt
/// frames allocating gigabytes.
pub const MAX_LEN: u64 = 16 * 1024 * 1024;

/// Where an encoder writes its bytes.
pub trait Sink {
    /// Append `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`Sink`] that keeps no bytes, only their number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Sink for Counter {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

/// Types with a binary wire encoding.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `buf`.
    fn encode<S: Sink>(&self, buf: &mut S);
    /// Decode a value, consuming exactly its bytes from `buf`.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

/// Frame a message: u32 BE length prefix + payload. The prefix is
/// reserved first and patched once the payload is encoded in place; the
/// initial capacity holds a typical protocol message (~40 bytes), so most
/// frames are one allocation.
pub fn frame<M: Wire>(msg: &M) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&[0; 4]);
    msg.encode(&mut out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_be_bytes());
    out
}

/// The length of [`frame`]`(msg)`, counted without building it.
pub fn frame_len<M: Wire>(msg: &M) -> u64 {
    let mut len = Counter(4);
    msg.encode(&mut len);
    len.0
}

/// Strip a frame and decode its message. Returns the message and any
/// remaining bytes after the frame.
pub fn deframe<M: Wire>(mut buf: &[u8]) -> Result<(M, &[u8]), CodecError> {
    let len = get_u32(&mut buf)? as usize;
    let (mut payload, rest) = buf.split_at_checked(len).ok_or(CodecError::Truncated)?;
    let msg = M::decode(&mut payload)?;
    if !payload.is_empty() {
        return Err(CodecError::BadLength(payload.len() as u64));
    }
    Ok((msg, rest))
}

// --------------------------------------------------------------- helpers

/// Take the next `N` bytes off the cursor, checking length.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = buf.split_first_chunk().ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Write a `u8`.
pub fn put_u8(buf: &mut impl Sink, v: u8) {
    buf.put(&[v]);
}

/// Write a `u32` (big-endian).
pub fn put_u32(buf: &mut impl Sink, v: u32) {
    buf.put(&v.to_be_bytes());
}

/// Write a `u64` (big-endian).
pub fn put_u64(buf: &mut impl Sink, v: u64) {
    buf.put(&v.to_be_bytes());
}

/// Write an `f64` (big-endian IEEE-754 bits).
pub fn put_f64(buf: &mut impl Sink, v: f64) {
    buf.put(&v.to_be_bytes());
}

/// Read a `u8`, checking length.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    take(buf).map(u8::from_be_bytes)
}

/// Read a `u32` (big-endian), checking length.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, CodecError> {
    take(buf).map(u32::from_be_bytes)
}

/// Read a `u64` (big-endian), checking length.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    take(buf).map(u64::from_be_bytes)
}

/// Read an `f64` (big-endian IEEE-754 bits), checking length.
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, CodecError> {
    take(buf).map(f64::from_be_bytes)
}

/// Write a length-prefixed string.
pub fn put_str(buf: &mut impl Sink, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.put(s.as_bytes());
}

/// Read a length-prefixed string.
pub fn get_str(buf: &mut &[u8]) -> Result<String, CodecError> {
    let len = get_u32(buf)? as u64;
    if len > MAX_LEN {
        return Err(CodecError::BadLength(len));
    }
    let (raw, rest) = buf
        .split_at_checked(len as usize)
        .ok_or(CodecError::Truncated)?;
    *buf = rest;
    String::from_utf8(raw.to_vec()).map_err(|_| CodecError::BadUtf8)
}

/// Write a length-prefixed list.
pub fn put_seq<S: Sink, T>(buf: &mut S, items: &[T], mut f: impl FnMut(&mut S, &T)) {
    put_u32(buf, items.len() as u32);
    for it in items {
        f(buf, it);
    }
}

/// Read a length-prefixed list.
pub fn get_seq<T>(
    buf: &mut &[u8],
    mut f: impl FnMut(&mut &[u8]) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let len = get_u32(buf)? as u64;
    if len > MAX_LEN {
        return Err(CodecError::BadLength(len));
    }
    let mut out = Vec::with_capacity(len.min(1024) as usize);
    for _ in 0..len {
        out.push(f(buf)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ping {
        id: u64,
        tag: String,
        data: Vec<u32>,
    }

    impl Wire for Ping {
        fn encode<S: Sink>(&self, buf: &mut S) {
            put_u64(buf, self.id);
            put_str(buf, &self.tag);
            put_seq(buf, &self.data, |b, v| put_u32(b, *v));
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Ping {
                id: get_u64(buf)?,
                tag: get_str(buf)?,
                data: get_seq(buf, get_u32)?,
            })
        }
    }

    /// A hand-built frame around `payload`, for payloads no `Ping` encodes to.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn round_trip_big_endian() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u32(&mut buf, 0x0102_0304);
        put_u64(&mut buf, 0x0506_0708_090A_0B0C);
        put_f64(&mut buf, 0.75);
        // Most significant byte first; 0.75 is 0x3FE8_0000_0000_0000.
        assert_eq!(buf[..5], [0xAB, 1, 2, 3, 4]);
        assert_eq!(buf[5..13], [5, 6, 7, 8, 9, 10, 11, 12]);
        assert_eq!(buf[13..], [0x3F, 0xE8, 0, 0, 0, 0, 0, 0]);
        let mut cur = buf.as_slice();
        assert_eq!(get_u8(&mut cur), Ok(0xAB));
        assert_eq!(get_u32(&mut cur), Ok(0x0102_0304));
        assert_eq!(get_u64(&mut cur), Ok(0x0506_0708_090A_0B0C));
        assert_eq!(get_f64(&mut cur), Ok(0.75));
        assert_eq!(get_u8(&mut cur), Err(CodecError::Truncated));
    }

    #[test]
    fn roundtrip() {
        let p = Ping {
            id: 77,
            tag: "hello λ".to_string(),
            data: vec![1, 2, 3, u32::MAX],
        };
        let framed = frame(&p);
        let (decoded, rest) = deframe::<Ping>(&framed).unwrap();
        assert_eq!(decoded, p);
        assert!(rest.is_empty());
    }

    #[test]
    fn counted_length_is_the_frame_length() {
        for data in [vec![], vec![7], vec![1, 2, 3, u32::MAX]] {
            let p = Ping {
                id: 3,
                tag: "τ".repeat(data.len()),
                data,
            };
            assert_eq!(frame_len(&p), frame(&p).len() as u64);
        }
    }

    #[test]
    fn deframe_leaves_following_bytes() {
        let p = Ping {
            id: 1,
            tag: "x".into(),
            data: vec![],
        };
        let mut bytes = frame(&p);
        bytes.extend_from_slice(&frame(&p));
        let (m1, rest) = deframe::<Ping>(&bytes).unwrap();
        let (m2, rest2) = deframe::<Ping>(rest).unwrap();
        assert_eq!(m1, m2);
        assert!(rest2.is_empty());
    }

    #[test]
    fn truncated_frame_detected() {
        let p = Ping {
            id: 1,
            tag: "abc".into(),
            data: vec![9],
        };
        let full = frame(&p);
        for cut in [0, 2, 4, full.len() - 1] {
            assert_eq!(
                deframe::<Ping>(&full[..cut]).unwrap_err(),
                CodecError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_in_frame_detected() {
        // Craft a frame whose declared length exceeds the encoded message.
        let p = Ping {
            id: 1,
            tag: "".into(),
            data: vec![],
        };
        let mut payload = Vec::new();
        p.encode(&mut payload);
        put_u8(&mut payload, 0xFF); // extra byte inside the frame
        assert!(matches!(
            deframe::<Ping>(&framed(&payload)),
            Err(CodecError::BadLength(_))
        ));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 5);
        put_u32(&mut payload, 2);
        payload.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8
        put_u32(&mut payload, 0);
        assert_eq!(
            deframe::<Ping>(&framed(&payload)).unwrap_err(),
            CodecError::BadUtf8
        );
    }

    #[test]
    fn implausible_length_rejected() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 5);
        put_u32(&mut payload, u32::MAX); // string "length" of 4 GiB
        assert!(matches!(
            deframe::<Ping>(&framed(&payload)),
            Err(CodecError::BadLength(_))
        ));
    }

    #[test]
    fn error_display() {
        assert_eq!(format!("{}", CodecError::Truncated), "truncated message");
        assert!(format!("{}", CodecError::BadTag(9)).contains('9'));
    }
}
