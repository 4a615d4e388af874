//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! The paper hashes peer addresses into the identifier space with SHA-1
//! [FIPS180-1]. SHA-1 is of course no longer collision-resistant for
//! adversarial inputs; here it is used exactly as Chord uses it — as a
//! well-distributed deterministic map from peer addresses to ring
//! positions — for which it remains perfectly serviceable.

/// Initial chaining value per FIPS 180-1.
const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Streaming SHA-1 hasher.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::new()
    }
}

impl Sha1 {
    /// A hasher over the empty message.
    pub fn new() -> Sha1 {
        Sha1 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Feed message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self
            .len
            .checked_add(data.len() as u64)
            .expect("SHA-1 message too long");
        // Fill the partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.process_block(&block);
                self.buf_len = 0;
            } else {
                // Buffer still partial ⇒ the input is exhausted; falling
                // through would clobber buf_len with the (empty) remainder.
                debug_assert!(data.is_empty());
                return;
            }
        }
        // Whole blocks straight from the input.
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            self.process_block(block.try_into().unwrap());
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finish and produce the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.checked_mul(8).expect("SHA-1 message too long");
        // Padding, written in place: 0x80, zeros, 64-bit big-endian bit
        // length. `update` leaves `buf_len < 64`, so the marker always fits;
        // the length needs a block of its own when fewer than 8 bytes remain.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buf;
            self.process_block(&block);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.process_block(&block);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn process_block(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        compress(&mut self.state, w);
    }
}

/// The SHA-1 compression function over one block, given as its sixteen
/// big-endian words: four 20-round stages over a 16-word rolling message
/// schedule (`w[t]` for `t ≥ 16` overwrites `w[t − 16]`, the oldest word it
/// is derived from).
fn compress(state: &mut [u32; 5], mut w: [u32; 16]) {
    /// Rounds `ts` (one stage: same constant `k`, same function `f`).
    #[inline(always)]
    fn stage(
        v: &mut [u32; 5],
        w: &mut [u32; 16],
        ts: std::ops::Range<usize>,
        k: u32,
        f: impl Fn(u32, u32, u32) -> u32,
    ) {
        for t in ts {
            if t >= 16 {
                w[t & 15] = (w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15])
                    .rotate_left(1);
            }
            let [a, b, c, d, e] = *v;
            let temp = a
                .rotate_left(5)
                .wrapping_add(f(b, c, d))
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(w[t & 15]);
            *v = [temp, a, b.rotate_left(30), c, d];
        }
    }
    let mut v = *state;
    stage(&mut v, &mut w, 0..20, 0x5A82_7999, |b, c, d| {
        (b & c) | (!b & d)
    });
    stage(&mut v, &mut w, 20..40, 0x6ED9_EBA1, |b, c, d| b ^ c ^ d);
    stage(&mut v, &mut w, 40..60, 0x8F1B_BCDC, |b, c, d| {
        (b & c) | (b & d) | (c & d)
    });
    stage(&mut v, &mut w, 60..80, 0xCA62_C1D6, |b, c, d| b ^ c ^ d);
    for (s, x) in state.iter_mut().zip(v) {
        *s = s.wrapping_add(x);
    }
}

/// One-shot SHA-1 of a byte slice.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// Truncate a SHA-1 digest to a 32-bit identifier (big-endian first word),
/// as the paper's 32-bit identifier space requires.
pub fn sha1_u32(data: &[u8]) -> u32 {
    let d = sha1(data);
    u32::from_be_bytes([d[0], d[1], d[2], d[3]])
}

/// [`sha1_u32`] of the four big-endian bytes of `word` — the message every
/// uniformised identifier placement hashes. A 4-byte message and its padding
/// are one block whose words are known up front (`word`, the `0x80` marker,
/// zeros, the bit length 32), so this runs the compression function once on
/// them and never touches the streaming buffer.
pub fn sha1_u32_of_word(word: u32) -> u32 {
    let mut w = [0u32; 16];
    w[0] = word;
    w[1] = 0x8000_0000;
    w[15] = 32;
    let mut state = H0;
    compress(&mut state, w);
    state[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8; 20]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha1(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        for chunk in [1usize, 3, 63, 64, 65, 200] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn exact_block_boundary_message() {
        // 64-byte message exercises the "padding adds a whole new block" path.
        let data = [0x41u8; 64];
        let d1 = sha1(&data);
        let mut h = Sha1::new();
        h.update(&data[..32]);
        h.update(&data[32..]);
        assert_eq!(h.finalize(), d1);
    }

    #[test]
    fn known_answers_where_the_padding_branches() {
        // Zero-filled messages either side of "the length still fits in this
        // block" (55 | 56), at a whole block (64) and one short of the second
        // boundary (119 = 64 + 55).
        for (len, digest) in [
            (55, "8e8832c642a6a38c74c17fc92ccedc266c108e6c"),
            (56, "9438e360f578e12c0e0e8ed28e2c125c1cefee16"),
            (64, "c8d7d0ef0eedfa82d2ea1aa592845b9a6d4b02b7"),
            (119, "85634f17f58bda0e4f0515dfb68bc1af922a031f"),
        ] {
            assert_eq!(hex(&sha1(&vec![0u8; len])), digest, "{len} zero bytes");
        }
    }

    #[test]
    fn every_short_length_streams_to_the_oneshot_digest() {
        let data: Vec<u8> = (0..130u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=130 {
            let oneshot = sha1(&data[..len]);
            for chunk in [1usize, 7, 64] {
                let mut h = Sha1::new();
                for c in data[..len].chunks(chunk) {
                    h.update(c);
                }
                assert_eq!(h.finalize(), oneshot, "length {len}, chunk size {chunk}");
            }
        }
    }

    #[test]
    fn placement_hash_known_answers() {
        for (word, id) in [
            (0u32, 0x9069_ca78u32),
            (1, 0x479e_04f3),
            (7, 0x41a5_3770),
            (0xdead_beef, 0xd78f_8bb9),
            (0xffff_ffff, 0xd9be_6524),
        ] {
            assert_eq!(sha1_u32(&word.to_be_bytes()), id, "streaming, {word:#x}");
            assert_eq!(sha1_u32_of_word(word), id, "one block, {word:#x}");
        }
    }

    #[test]
    fn one_block_entry_equals_streaming() {
        let mut word = 0x2003_0105u32;
        for _ in 0..10_000 {
            // xorshift32: full-period, so the sample has no repeats.
            word ^= word << 13;
            word ^= word >> 17;
            word ^= word << 5;
            let mut h = Sha1::new();
            h.update(&word.to_be_bytes());
            let d = h.finalize();
            assert_eq!(
                sha1_u32_of_word(word),
                u32::from_be_bytes([d[0], d[1], d[2], d[3]]),
                "{word:#x}"
            );
        }
    }

    #[test]
    fn sha1_u32_is_first_word() {
        let d = sha1(b"abc");
        assert_eq!(
            sha1_u32(b"abc"),
            u32::from_be_bytes([d[0], d[1], d[2], d[3]])
        );
        assert_eq!(sha1_u32(b"abc"), 0xa9993e36);
    }

    #[test]
    fn distinct_inputs_distinct_ids() {
        use std::collections::HashSet;
        let ids: HashSet<u32> = (0..10_000)
            .map(|i| sha1_u32(format!("peer-{i}").as_bytes()))
            .collect();
        // Collisions in a 32-bit space over 10k draws: expected ~0.01;
        // allow a couple.
        assert!(ids.len() >= 9_998, "too many collisions: {}", ids.len());
    }
}
