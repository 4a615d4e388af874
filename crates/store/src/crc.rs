//! CRC-32 (IEEE 802.3 polynomial), hand-rolled so the crate stays
//! dependency-free. Table-driven, one byte per step — plenty fast for the
//! simulated-disk volumes this crate handles, and bit-for-bit the
//! standard `crc32` every other tool computes.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 of `data` (standard init `!0`, final xor `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(!0, data) ^ !0
}

/// Streaming update: feed successive chunks, starting from `!0`, and
/// finish with `^ !0`. [`crc32`] is the one-shot convenience.
pub(crate) fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = crc32(data);
        let mut state = !0;
        for chunk in data.chunks(7) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ !0, whole);
    }

    #[test]
    fn single_bit_flip_always_detected() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} missed");
            }
        }
    }
}
