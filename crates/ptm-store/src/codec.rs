//! Binary encoding of traffic records (version 1).
//!
//! ```text
//! u64 location | u32 period | u64 bitmap length (bits) | packed bitmap bytes
//! ```
//!
//! All integers little-endian. The bitmap bytes use
//! [`ptm_core::Bitmap::to_bytes`]'s stable layout.

use ptm_core::bitmap::Bitmap;
use ptm_core::encoding::LocationId;
use ptm_core::params::BitmapSize;
use ptm_core::record::{PeriodId, TrafficRecord};

/// Storage-layer errors.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A frame failed its CRC check at the given byte offset.
    CorruptFrame {
        /// Byte offset of the frame header in the file.
        offset: u64,
    },
    /// The record payload inside a (checksum-valid) frame is malformed.
    MalformedRecord {
        /// Why the payload could not be decoded.
        reason: String,
    },
    /// The file does not start with the archive magic/version.
    BadHeader,
    /// A record size in the payload is not a power of two.
    BadBitmapSize(usize),
    /// A failed commit could not be rolled back; the archive refuses
    /// appends until rebuilt ([`crate::Archive::compact`]) or reopened.
    Wedged,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(err) => write!(f, "archive i/o error: {err}"),
            Self::CorruptFrame { offset } => write!(f, "corrupt frame at offset {offset}"),
            Self::MalformedRecord { reason } => write!(f, "malformed record: {reason}"),
            Self::BadHeader => write!(f, "not a ptm archive (bad magic or version)"),
            Self::BadBitmapSize(size) => write!(f, "bitmap size {size} is not a power of two"),
            Self::Wedged => {
                write!(
                    f,
                    "archive wedged after failed rollback; compact or reopen required"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

fn le_u32(bytes: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(raw)
}

fn le_u64(bytes: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(raw)
}

/// Encodes a record payload (no framing).
pub fn encode_record(record: &TrafficRecord) -> Vec<u8> {
    let bitmap_bytes = record.bitmap().to_bytes();
    let mut out = Vec::with_capacity(20 + bitmap_bytes.len());
    out.extend_from_slice(&record.location().get().to_le_bytes());
    out.extend_from_slice(&record.period().get().to_le_bytes());
    out.extend_from_slice(&(record.len() as u64).to_le_bytes());
    out.extend_from_slice(&bitmap_bytes);
    out
}

/// Reads just the `(location, period)` key from an encoded payload without
/// decoding the bitmap — the segment store's index builder scans committed
/// frames with this, so recovery cost is independent of bitmap size.
///
/// # Errors
///
/// [`StoreError::MalformedRecord`] if the payload is shorter than the
/// fixed-width key prefix.
pub fn peek_key(payload: &[u8]) -> Result<(LocationId, PeriodId), StoreError> {
    if payload.len() < 20 {
        return Err(StoreError::MalformedRecord {
            reason: format!("{} byte payload", payload.len()),
        });
    }
    Ok((
        LocationId::new(le_u64(&payload[0..8])),
        PeriodId::new(le_u32(&payload[8..12])),
    ))
}

/// Decodes a record payload.
///
/// # Errors
///
/// [`StoreError::MalformedRecord`] for truncated or inconsistent payloads;
/// [`StoreError::BadBitmapSize`] for non-power-of-two record sizes.
pub fn decode_record(payload: &[u8]) -> Result<TrafficRecord, StoreError> {
    if payload.len() < 20 {
        return Err(StoreError::MalformedRecord {
            reason: format!("{} byte payload", payload.len()),
        });
    }
    let location = le_u64(&payload[0..8]);
    let period = le_u32(&payload[8..12]);
    let len = le_u64(&payload[12..20]) as usize;
    // Checked before the byte count, so a bad size reports as one.
    BitmapSize::new(len).map_err(StoreError::BadBitmapSize)?;
    let expected_bytes = len.div_ceil(8);
    let rest = &payload[20..];
    if rest.len() != expected_bytes {
        return Err(StoreError::MalformedRecord {
            reason: format!("bitmap needs {expected_bytes} bytes, found {}", rest.len()),
        });
    }
    let bitmap = Bitmap::from_bytes(len, rest).map_err(|err| StoreError::MalformedRecord {
        reason: format!("bitmap rejected: {err}"),
    })?;
    TrafficRecord::from_bitmap(LocationId::new(location), PeriodId::new(period), bitmap)
        .map_err(|_| StoreError::BadBitmapSize(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ptm_core::encoding::{EncodingScheme, VehicleSecrets};
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn sample_record(seed: u64) -> TrafficRecord {
        let scheme = EncodingScheme::new(seed, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut record = TrafficRecord::new(
            LocationId::new(12),
            PeriodId::new(3),
            BitmapSize::new(2048).expect("pow2"),
        );
        for _ in 0..500 {
            let v = VehicleSecrets::generate(&mut rng, 3);
            record.encode(&scheme, &v);
        }
        record
    }

    #[test]
    fn roundtrip() {
        let record = sample_record(1);
        let bytes = encode_record(&record);
        let back = decode_record(&bytes).expect("roundtrip");
        assert_eq!(back, record);
    }

    #[test]
    fn truncated_payload_rejected() {
        let record = sample_record(2);
        let bytes = encode_record(&record);
        for cut in [0usize, 10, 19, bytes.len() - 1] {
            assert!(decode_record(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn non_power_of_two_size_rejected() {
        let record = sample_record(3);
        let mut bytes = encode_record(&record);
        bytes[12..20].copy_from_slice(&1000u64.to_le_bytes());
        assert!(matches!(
            decode_record(&bytes),
            Err(StoreError::BadBitmapSize(1000))
        ));
    }

    /// The per-bit reconstruction `decode_record` used before it wrapped
    /// the decoded bitmap directly; the reference the fast path must match.
    fn decode_record_per_bit(payload: &[u8]) -> Result<TrafficRecord, StoreError> {
        if payload.len() < 20 {
            return Err(StoreError::MalformedRecord {
                reason: format!("{} byte payload", payload.len()),
            });
        }
        let location = le_u64(&payload[0..8]);
        let period = le_u32(&payload[8..12]);
        let len = le_u64(&payload[12..20]) as usize;
        let size = BitmapSize::new(len).map_err(StoreError::BadBitmapSize)?;
        let expected_bytes = len.div_ceil(8);
        let rest = &payload[20..];
        if rest.len() != expected_bytes {
            return Err(StoreError::MalformedRecord {
                reason: format!("bitmap needs {expected_bytes} bytes, found {}", rest.len()),
            });
        }
        let bitmap = Bitmap::from_bytes(len, rest).map_err(|err| StoreError::MalformedRecord {
            reason: format!("bitmap rejected: {err}"),
        })?;
        let mut record = TrafficRecord::new(LocationId::new(location), PeriodId::new(period), size);
        for idx in (0..len).filter(|&i| bitmap.get(i)) {
            record.set_reported_index(idx);
        }
        Ok(record)
    }

    /// Both decoders' outcomes in one comparable form: the record, or the
    /// error's variant and contents.
    fn outcome(result: Result<TrafficRecord, StoreError>) -> Result<TrafficRecord, String> {
        result.map_err(|err| format!("{err:?}"))
    }

    /// A payload of `2^pow` bits whose bytes are random, thinned by
    /// AND-ing `thin` further random bytes in (0: about half the bits set).
    fn random_payload(pow: u32, seed: u64, thin: u32) -> Vec<u8> {
        let len = 1usize << pow;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut bytes = vec![0u8; len.div_ceil(8)];
        rng.fill_bytes(&mut bytes);
        for _ in 0..thin {
            for byte in bytes.iter_mut() {
                *byte &= rng.gen::<u8>();
            }
        }
        if len < 8 {
            bytes[0] &= (1u8 << len) - 1;
        }
        let mut payload = Vec::with_capacity(20 + bytes.len());
        payload.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
        payload.extend_from_slice(&rng.gen::<u32>().to_le_bytes());
        payload.extend_from_slice(&(len as u64).to_le_bytes());
        payload.extend_from_slice(&bytes);
        payload
    }

    proptest! {
        #[test]
        fn decode_matches_per_bit_reference(
            pow in 0u32..21,
            seed in any::<u64>(),
            thin in 0u32..6,
        ) {
            let payload = random_payload(pow, seed, thin);
            let fast = decode_record(&payload).expect("valid payload");
            let reference = decode_record_per_bit(&payload).expect("valid payload");
            prop_assert_eq!(&fast, &reference);
            prop_assert_eq!(encode_record(&fast), payload);
        }

        #[test]
        fn damaged_payloads_fail_like_the_reference(
            pow in 0u32..13,
            seed in any::<u64>(),
            damage in 0u32..3,
            pick in any::<u64>(),
        ) {
            let mut payload = random_payload(pow, seed, 0);
            match damage {
                // Truncate anywhere, header included.
                0 => payload.truncate((pick % payload.len() as u64) as usize),
                // Claim another length: non-powers of two, wrong byte counts.
                1 => payload[12..20].copy_from_slice(&(pick % (1 << 14)).to_le_bytes()),
                // Flip any bit of the bitmap, including padding past `len`.
                _ => {
                    let bit = (pick % ((payload.len() - 20) as u64 * 8)) as usize;
                    payload[20 + bit / 8] ^= 1 << (bit % 8);
                }
            }
            prop_assert_eq!(
                outcome(decode_record(&payload)),
                outcome(decode_record_per_bit(&payload))
            );
        }
    }

    #[test]
    fn rejections_keep_their_variants() {
        // A set bit past `len` in the last byte of a sub-byte record.
        for (len, byte) in [(1u64, 0b10u8), (2, 0b100), (4, 0b1_0000)] {
            let mut payload = random_payload(len.trailing_zeros(), len, 0);
            payload[20] |= byte;
            let fast = decode_record(&payload);
            assert!(
                matches!(fast, Err(StoreError::MalformedRecord { .. })),
                "len {len}"
            );
            assert_eq!(outcome(fast), outcome(decode_record_per_bit(&payload)));
        }
        // A byte-aligned record cannot hide a bit past `len`; a trailing
        // byte is a wrong byte count.
        let mut payload = random_payload(5, 32, 0);
        payload.push(1);
        let fast = decode_record(&payload);
        assert!(matches!(fast, Err(StoreError::MalformedRecord { .. })));
        assert_eq!(outcome(fast), outcome(decode_record_per_bit(&payload)));
        // Zero and non-power-of-two lengths.
        for len in [0u64, 3, 24, 1000] {
            let mut payload = random_payload(5, len, 0);
            payload[12..20].copy_from_slice(&len.to_le_bytes());
            let fast = decode_record(&payload);
            assert!(
                matches!(fast, Err(StoreError::BadBitmapSize(n)) if n as u64 == len),
                "len {len}"
            );
            assert_eq!(outcome(fast), outcome(decode_record_per_bit(&payload)));
        }
    }

    #[test]
    fn error_display() {
        let err = StoreError::CorruptFrame { offset: 42 };
        assert!(err.to_string().contains("42"));
        let err = StoreError::BadHeader;
        assert!(err.to_string().contains("magic"));
    }
}
