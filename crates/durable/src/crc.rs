//! CRC-32 (IEEE 802.3) over byte slices.
//!
//! The WAL needs a checksum that detects bit rot and torn interior
//! writes; it does not need cryptographic strength. CRC-32 with the
//! reflected polynomial `0xEDB88320` is the standard choice (zip, PNG,
//! ethernet). It runs slicing-by-8: eight 256-entry tables, built at
//! compile time, fold eight input bytes per step with eight independent
//! lookups instead of eight dependent ones. The bytewise loop over the
//! first table finishes the tail under eight bytes and is the
//! reference the tests hold the fast path to. Safe code only, no
//! dependencies.

/// The reflected CRC-32/IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table, one step of the shift register
/// per byte; `TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so a byte `k` positions ahead of the end of an 8-byte
/// block is folded in one lookup.
const TABLES: [[u32; 256]; 8] = build_tables();

#[expect(
    clippy::cast_possible_truncation,
    reason = "the table index i < 256 fits u32"
)]
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
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
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    bytewise(crc, blocks.remainder())
}

/// One table lookup per byte: the tail of [`crc32_update`] and the
/// reference its eight-byte steps must agree with.
fn bytewise(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    for &b in bytes {
        let index = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLES[0][index];
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
    fn slicing_matches_the_bytewise_reference() {
        // Seeded xorshift bytes; every length 0..=256 at every start
        // offset 0..8, so each block alignment and tail length occurs.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let data: Vec<u8> = (0..264)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[0]
            })
            .collect();
        for start in 0..8 {
            for len in 0..=256 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32_update(!0, slice),
                    bytewise(!0, slice),
                    "start {start}, len {len}"
                );
            }
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
