//! Binary snapshot codec: bit-exact serialization for checkpoint
//! types headed to durable storage.
//!
//! A payload is one format byte, [`FORMAT`], then the value in the
//! workspace serde's positional form ([`serde::Encode`] /
//! [`serde::Decode`]): each field in declaration order, written
//! straight into the output buffer and read straight back — no
//! intermediate tree, no field names, no type tags. Integers are
//! little-endian at their own width, lengths are `u32` counts, an
//! enum is its variant index, and every float is its raw 8-byte
//! IEEE-754 image. The center's standing `last_raw` map legitimately
//! holds whatever bit patterns households sent — NaN and ±∞ included,
//! which admission quarantines but the replay detector must remember
//! verbatim — so encode → decode is the identity **bit for bit** for
//! every value the workspace can construct.
//!
//! Nothing in a payload names its fields, so the layout *is* the
//! declaration: adding, removing, reordering or retyping a field of a
//! journaled type changes the format, and logs written before the
//! change no longer decode.
//!
//! Decoding is total: [`decode`] returns `None`, never panics, on
//! truncation, trailing bytes, an unknown enum index, a bool byte other
//! than 0 or 1, invalid UTF-8, out-of-order map keys, a count above
//! [`MAX_LEN`] or above the bytes left, or a payload that does not
//! start with [`FORMAT`]. No allocation is sized by an unchecked count.
//! Map keys must be strictly ascending, so decode then encode gives
//! back every accepted payload byte for byte. Integrity is the storage
//! layer's job (the WAL checksums every record); this codec's job is
//! only shape.
//!
//! ```
//! use enki_serve::snapshot;
//!
//! let state = vec![(1u64, f64::NAN), (2, 0.5)];
//! let bytes = snapshot::encode(&state);
//! let back: Vec<(u64, f64)> = snapshot::decode(&bytes).expect("well-formed");
//! assert_eq!(back[0].1.to_bits(), f64::NAN.to_bits());
//! assert_eq!(back[1], (2, 0.5));
//! ```

use serde::bin::Reader;
use serde::{Decode, Encode};

/// The first byte of every payload. It lies outside the tags 0–8 of
/// the retired tagged form, whose payloads therefore fail to decode
/// instead of being misread.
pub const FORMAT: u8 = 0xE1;

/// Cap on any single count (strings, sequences, maps), same spirit as
/// the wire codec's frame cap: a corrupt count must not translate into
/// a giant allocation.
pub const MAX_LEN: u32 = 64 * 1024 * 1024;

/// Encodes a value to the binary snapshot form.
#[must_use]
pub fn encode<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(value, &mut out);
    out
}

/// Encodes a value into `out`, replacing its contents and keeping its
/// capacity, so a caller that encodes repeatedly reuses one buffer.
pub fn encode_into<T: Encode + ?Sized>(value: &T, out: &mut Vec<u8>) {
    out.clear();
    out.push(FORMAT);
    value.encode(out);
}

/// Decodes a binary snapshot back into a typed value. Returns `None`
/// for any malformed input (see the module docs).
#[must_use]
pub fn decode<T: Decode>(bytes: &[u8]) -> Option<T> {
    let (&FORMAT, body) = bytes.split_first()? else {
        return None;
    };
    let mut input = Reader::new(body, MAX_LEN);
    let value = T::decode(&mut input)?;
    input.is_empty().then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{IngestConfig, IngestFrontEnd};
    use crate::shed::ShedCost;

    #[test]
    fn primitives_roundtrip_bit_exact() {
        let values: Vec<f64> = vec![
            0.0,
            -0.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(0x7FF8_DEAD_BEEF_0001), // NaN with payload
        ];
        for v in values {
            let bytes = encode(&v);
            let back: f64 = decode(&bytes).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} must survive bit-exactly");
        }
        let bytes = encode(&u64::MAX);
        assert_eq!(decode::<u64>(&bytes).unwrap(), u64::MAX);
        let bytes = encode(&(-42i64));
        assert_eq!(decode::<i64>(&bytes).unwrap(), -42);
        let bytes = encode("snapshot ✓");
        assert_eq!(decode::<String>(&bytes).unwrap(), "snapshot ✓");
    }

    #[test]
    fn ingest_checkpoint_roundtrips() {
        let mut front = IngestFrontEnd::new(IngestConfig::default(), 11);
        let batch = crate::codec::Batch {
            day: 3,
            deadline: 40,
            reports: vec![enki_core::validation::RawReport::new(
                enki_core::household::HouseholdId::new(9),
                enki_core::validation::RawPreference::new(f64::NAN, 22.0, -0.0),
            )],
        };
        let frame = crate::codec::encode_frame(&batch).unwrap();
        let _ = front.offer_bytes(0, &frame, &mut |_| ShedCost::Fresh);
        let checkpoint = front.checkpoint();
        let bytes = encode(&checkpoint);
        let back = decode::<crate::ingest::IngestCheckpoint>(&bytes).unwrap();
        // NaN fields break PartialEq; byte equality is the real claim.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn decode_is_total_on_garbage() {
        // No prefix of a valid encoding, nor any single-bit flip of it,
        // may panic.
        let checkpoint = IngestFrontEnd::new(IngestConfig::default(), 5).checkpoint();
        let bytes = encode(&checkpoint);
        for cut in 0..bytes.len() {
            assert!(decode::<crate::ingest::IngestCheckpoint>(&bytes[..cut]).is_none());
        }
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let _ = decode::<crate::ingest::IngestCheckpoint>(&bad);
        }
        assert!(decode::<Vec<u64>>(&[FORMAT, 255, 255, 255, 255]).is_none());
        assert!(decode::<String>(&[FORMAT, 2, 0, 0, 0, 0xFF, 0xFE]).is_none());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&7u64);
        bytes.push(0);
        assert!(decode::<u64>(&bytes).is_none());
    }

    #[test]
    fn a_payload_in_another_format_is_refused() {
        let bytes = encode(&7u64);
        assert!(decode::<u64>(&bytes).is_some());
        assert!(decode::<u64>(&[]).is_none());
        // The retired tagged form began with a tag in 0..=8; a `u64`
        // was tag 4 and eight bytes.
        for tag in 0..=8 {
            let mut old = vec![tag];
            old.extend_from_slice(&7u64.to_le_bytes());
            assert!(decode::<u64>(&old).is_none(), "tag {tag}");
        }
    }
}
