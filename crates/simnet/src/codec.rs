//! Binary wire format for protocol messages.
//!
//! The simulator moves typed values between nodes, but a real deployment
//! needs a concrete encoding. [`Wire`] defines one:
//! length-prefixed frames (u32 big-endian length, then the payload), with
//! primitive helpers over `bytes::{Buf, BufMut}` that protocol crates use
//! to implement [`Wire`] for their message enums. Round-trip property
//! tests in `ars-core` exercise the full protocol encoding.

use bytes::{Buf, BufMut, Bytes, BytesMut};

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

/// Types with a binary wire encoding.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decode a value, consuming exactly its bytes from `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError>;
}

/// Frame a message: u32 BE length prefix + payload.
pub fn frame<M: Wire>(msg: &M) -> Bytes {
    let mut payload = BytesMut::new();
    msg.encode(&mut payload);
    let mut out = BytesMut::with_capacity(4 + payload.len());
    out.put_u32(payload.len() as u32);
    out.extend_from_slice(&payload);
    out.freeze()
}

/// Strip a frame and decode its message. Returns the message and any
/// remaining bytes after the frame.
pub fn deframe<M: Wire>(mut buf: Bytes) -> Result<(M, Bytes), CodecError> {
    if buf.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u32() as usize;
    if buf.len() < len {
        return Err(CodecError::Truncated);
    }
    let mut payload = buf.split_to(len);
    let msg = M::decode(&mut payload)?;
    if !payload.is_empty() {
        return Err(CodecError::BadLength(payload.len() as u64));
    }
    Ok((msg, buf))
}

// --------------------------------------------------------------- helpers

/// Read a `u8`, checking length.
pub fn get_u8(buf: &mut Bytes) -> Result<u8, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u8())
}

/// Read a `u32` (big-endian), checking length.
pub fn get_u32(buf: &mut Bytes) -> Result<u32, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u32())
}

/// Read a `u64` (big-endian), checking length.
pub fn get_u64(buf: &mut Bytes) -> Result<u64, CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u64())
}

/// Write a length-prefixed string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Read a length-prefixed string.
pub fn get_str(buf: &mut Bytes) -> Result<String, CodecError> {
    let len = get_u32(buf)? as u64;
    if len > MAX_LEN {
        return Err(CodecError::BadLength(len));
    }
    if (buf.remaining() as u64) < len {
        return Err(CodecError::Truncated);
    }
    let raw = buf.split_to(len as usize);
    String::from_utf8(raw.to_vec()).map_err(|_| CodecError::BadUtf8)
}

/// Write a length-prefixed list.
pub fn put_seq<T>(buf: &mut BytesMut, items: &[T], mut f: impl FnMut(&mut BytesMut, &T)) {
    buf.put_u32(items.len() as u32);
    for it in items {
        f(buf, it);
    }
}

/// Read a length-prefixed list.
pub fn get_seq<T>(
    buf: &mut Bytes,
    mut f: impl FnMut(&mut Bytes) -> Result<T, CodecError>,
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
        fn encode(&self, buf: &mut BytesMut) {
            buf.put_u64(self.id);
            put_str(buf, &self.tag);
            put_seq(buf, &self.data, |b, v| b.put_u32(*v));
        }
        fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
            Ok(Ping {
                id: get_u64(buf)?,
                tag: get_str(buf)?,
                data: get_seq(buf, get_u32)?,
            })
        }
    }

    #[test]
    fn roundtrip() {
        let p = Ping {
            id: 77,
            tag: "hello λ".to_string(),
            data: vec![1, 2, 3, u32::MAX],
        };
        let framed = frame(&p);
        let (decoded, rest) = deframe::<Ping>(framed).unwrap();
        assert_eq!(decoded, p);
        assert!(rest.is_empty());
    }

    #[test]
    fn deframe_leaves_following_bytes() {
        let p = Ping {
            id: 1,
            tag: "x".into(),
            data: vec![],
        };
        let mut bytes = BytesMut::new();
        bytes.extend_from_slice(&frame(&p));
        bytes.extend_from_slice(&frame(&p));
        let (m1, rest) = deframe::<Ping>(bytes.freeze()).unwrap();
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
            let partial = full.slice(..cut);
            assert_eq!(
                deframe::<Ping>(partial).unwrap_err(),
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
        let mut payload = BytesMut::new();
        p.encode(&mut payload);
        payload.put_u8(0xFF); // extra byte inside the frame
        let mut framed = BytesMut::new();
        framed.put_u32(payload.len() as u32);
        framed.extend_from_slice(&payload);
        assert!(matches!(
            deframe::<Ping>(framed.freeze()),
            Err(CodecError::BadLength(_))
        ));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut payload = BytesMut::new();
        payload.put_u64(5);
        payload.put_u32(2);
        payload.put_slice(&[0xFF, 0xFE]); // invalid UTF-8
        payload.put_u32(0);
        let mut framed = BytesMut::new();
        framed.put_u32(payload.len() as u32);
        framed.extend_from_slice(&payload);
        assert_eq!(
            deframe::<Ping>(framed.freeze()).unwrap_err(),
            CodecError::BadUtf8
        );
    }

    #[test]
    fn implausible_length_rejected() {
        let mut payload = BytesMut::new();
        payload.put_u64(5);
        payload.put_u32(u32::MAX); // string "length" of 4 GiB
        let mut framed = BytesMut::new();
        framed.put_u32(payload.len() as u32);
        framed.extend_from_slice(&payload);
        assert!(matches!(
            deframe::<Ping>(framed.freeze()),
            Err(CodecError::BadLength(_))
        ));
    }

    #[test]
    fn error_display() {
        assert_eq!(format!("{}", CodecError::Truncated), "truncated message");
        assert!(format!("{}", CodecError::BadTag(9)).contains('9'));
    }
}
