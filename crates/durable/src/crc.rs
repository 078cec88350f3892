//! CRC-32 (IEEE 802.3) over byte slices.
//!
//! The WAL needs a checksum that detects bit rot and torn interior
//! writes; it does not need cryptographic strength. CRC-32 with the
//! reflected polynomial `0xEDB88320` is the standard choice (zip, PNG,
//! ethernet) and is implemented here table-driven with the table built
//! at compile time, so the crate stays zero-dependency.

/// The reflected CRC-32/IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, one step of the shift register per byte.
const TABLE: [u32; 256] = build_table();

#[expect(
    clippy::cast_possible_truncation,
    reason = "the table index i < 256 fits u32"
)]
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32/IEEE of `bytes` (init `!0`, final xor `!0`, reflected).
///
/// Matches the checksum produced by zlib's `crc32()` for the same
/// input, so externally-written segments can be cross-checked.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(!0, bytes) ^ !0
}

/// Feeds `bytes` into a running (pre-final-xor) CRC state.
///
/// Start from `!0`; xor with `!0` when done. [`crc32`] wraps the common
/// one-shot case; this incremental form lets the WAL checksum a record
/// kind byte and payload without concatenating them.
#[must_use]
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    for &b in bytes {
        let index = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[index];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"hello, durable world";
        for split in 0..data.len() {
            let state = crc32_update(!0, &data[..split]);
            let state = crc32_update(state, &data[split..]);
            assert_eq!(state ^ !0, crc32(data));
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data = b"settlement day 17";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at byte {byte} bit {bit}");
                copy[byte] ^= 1 << bit;
            }
        }
    }
}
