//! Read-only scanner for the v1 single-file archive.
//!
//! Storage engine v1 kept every record in one append-only file. The
//! segment store ([`crate::segment`]) replaced it; this scanner remains so
//! [`SegmentStore::open_or_migrate`](crate::SegmentStore::open_or_migrate)
//! can read an old file once and migrate it. File layout:
//!
//! ```text
//! header:  "PTMA" (4) | version u16 = 1 | reserved u16
//! frame:   payload length u32 | crc32(payload) u32 | payload bytes
//! ```
//!
//! The scan distinguishes two failure shapes:
//!
//! * a **torn tail** — the process died mid-append; the final frame is
//!   incomplete. The scan keeps everything before it and reports the
//!   number of torn bytes.
//! * **mid-file corruption** — a checksum fails with complete frames after
//!   it; that is media damage, surfaced as [`StoreError::CorruptFrame`]
//!   rather than silently dropped.
//!
//! The scan never writes: the migration deletes the v1 file once its
//! segment copy is durable, torn tail and all.

use crate::codec::{decode_record, StoreError};
use crate::crc32::crc32;
use crate::segment::{le_u16, le_u32, read_exact_or_eof, ReadOutcome};
use ptm_core::record::TrafficRecord;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

const MAGIC: [u8; 4] = *b"PTMA";
const VERSION: u16 = 1;
const HEADER_LEN: u64 = 8;
/// Upper bound on a single frame payload (largest sane record is a 2^26-bit
/// bitmap = 8 MiB).
const MAX_PAYLOAD: u32 = 32 * 1024 * 1024;

/// What scanning a v1 archive found.
#[derive(Debug)]
pub(crate) struct V1Scan {
    /// Records decoded from intact frames, in file order.
    pub(crate) records: Vec<TrafficRecord>,
    /// Bytes of a torn final frame (0 after a clean shutdown).
    pub(crate) torn_bytes: u64,
}

/// Validates every frame of the v1 archive at `path` and decodes its
/// records.
///
/// # Errors
///
/// * [`StoreError::BadHeader`] if the file is not a v1 archive;
/// * [`StoreError::CorruptFrame`] on mid-file checksum failure or an
///   implausible frame length;
/// * record decode and I/O failures.
pub(crate) fn scan_v1(path: &Path) -> Result<V1Scan, StoreError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);

    let mut header = [0u8; 8];
    reader
        .read_exact(&mut header)
        .map_err(|_| StoreError::BadHeader)?;
    if header[0..4] != MAGIC || le_u16(&header[4..6]) != VERSION {
        return Err(StoreError::BadHeader);
    }

    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    let mut torn_bytes = 0u64;
    loop {
        let mut frame_header = [0u8; 8];
        match read_exact_or_eof(&mut reader, &mut frame_header)? {
            ReadOutcome::Eof => break,
            ReadOutcome::Partial => {
                torn_bytes = file_len - offset;
                break;
            }
            ReadOutcome::Full => {}
        }
        let len = le_u32(&frame_header[0..4]);
        let expected_crc = le_u32(&frame_header[4..8]);
        if len > MAX_PAYLOAD {
            // An absurd length is corruption of the header itself.
            return Err(StoreError::CorruptFrame { offset });
        }
        let mut payload = vec![0u8; len as usize];
        match read_exact_or_eof(&mut reader, &mut payload)? {
            ReadOutcome::Full => {}
            ReadOutcome::Eof | ReadOutcome::Partial => {
                torn_bytes = file_len - offset;
                break;
            }
        }
        if crc32(&payload) != expected_crc {
            // Distinguish a torn tail (nothing after this frame) from
            // mid-file damage: if this frame reaches EOF exactly, treat it
            // as torn; otherwise it is corruption.
            if offset + 8 + len as u64 >= file_len {
                torn_bytes = file_len - offset;
                break;
            }
            return Err(StoreError::CorruptFrame { offset });
        }
        records.push(decode_record(&payload)?);
        offset += 8 + len as u64;
    }
    Ok(V1Scan {
        records,
        torn_bytes,
    })
}

/// Writes a v1 archive holding `records` — the test-side stand-in for the
/// retired v1 writer, byte-identical to what it produced.
#[cfg(test)]
pub(crate) fn write_v1(path: &Path, records: &[TrafficRecord]) -> std::io::Result<()> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    for record in records {
        let payload = crate::codec::encode_record(record);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
    }
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::StoreHooks;
    use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
    use ptm_core::params::BitmapSize;
    use ptm_core::record::PeriodId;
    use ptm_fault::{sites, FaultAction, FaultPlan, Rule};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("ptm-store-test-{}-{name}", std::process::id()));
        path
    }

    fn sample_records(count: u32) -> Vec<TrafficRecord> {
        let scheme = EncodingScheme::new(9, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        (0..count)
            .map(|p| {
                let mut record = TrafficRecord::new(
                    LocationId::new(7),
                    PeriodId::new(p),
                    BitmapSize::new(1024).expect("pow2"),
                );
                for _ in 0..200 {
                    let v = VehicleSecrets::generate(&mut rng, 3);
                    record.encode(&scheme, &v);
                }
                record
            })
            .collect()
    }

    /// Chops `bytes` off the end of the file (a simulated crash mid-write).
    fn chop(path: &Path, bytes: u64) {
        let len = std::fs::metadata(path).expect("meta").len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .expect("open rw");
        file.set_len(len - bytes).expect("truncate");
    }

    #[test]
    fn write_then_recover_roundtrip() {
        let path = temp_path("roundtrip");
        let records = sample_records(5);
        write_v1(&path, &records).expect("write v1");
        let scan = scan_v1(&path).expect("scan");
        assert_eq!(scan.records, records);
        assert_eq!(scan.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_recovered() {
        let path = temp_path("torn");
        let records = sample_records(3);
        write_v1(&path, &records).expect("write v1");
        // Chop 10 bytes off the final frame's payload.
        chop(&path, 10);
        let len = std::fs::metadata(&path).expect("meta").len();

        let scan = scan_v1(&path).expect("scan survives torn tail");
        assert_eq!(scan.records, records[..2].to_vec());
        assert!(scan.torn_bytes > 0);
        // Read-only: the torn bytes are reported, not truncated away.
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), len);
        assert_eq!(scan_v1(&path).expect("rescan").torn_bytes, scan.torn_bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_all_torn_final_frame_recovers_prefix() {
        let path = temp_path("append-all-torn");
        let records = sample_records(5);
        write_v1(&path, &records).expect("write v1");
        let last = crate::codec::encode_record(&records[4]).len() as u64 + 8;
        // The v1 writer committed a batch with one `append_all`; a crash
        // anywhere inside the batch's final frame — header included —
        // keeps exactly the four complete frames before it.
        for cut in [1, 7, last - 4, last - 1] {
            write_v1(&path, &records).expect("rewrite v1");
            chop(&path, cut);
            let scan = scan_v1(&path).expect("scan survives torn frame");
            assert_eq!(scan.records, records[..4].to_vec(), "cut {cut}");
            assert_eq!(scan.torn_bytes, last - cut, "cut {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_an_error_not_a_skip() {
        let path = temp_path("corrupt");
        write_v1(&path, &sample_records(3)).expect("write v1");
        // Flip a payload byte in the FIRST frame (complete frames follow).
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[30] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        match scan_v1(&path) {
            Err(StoreError::CorruptFrame { offset }) => assert_eq!(offset, 8),
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        // An implausible length word is corruption too, not a torn tail.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[30] ^= 0xFF;
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            scan_v1(&path),
            Err(StoreError::CorruptFrame { offset: 8 })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_rejected() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTANARCHIVE").expect("write");
        assert!(matches!(scan_v1(&path), Err(StoreError::BadHeader)));
        // A segment file's header is not a v1 header either.
        std::fs::write(&path, b"PTMS\x02\x00\x00\x00").expect("write");
        assert!(matches!(scan_v1(&path), Err(StoreError::BadHeader)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_archive_roundtrip() {
        let path = temp_path("empty");
        write_v1(&path, &[]).expect("write v1");
        let scan = scan_v1(&path).expect("scan");
        assert!(scan.records.is_empty());
        assert_eq!(scan.torn_bytes, 0);
        // A zero-byte file has no header at all.
        std::fs::write(&path, b"").expect("write");
        assert!(matches!(scan_v1(&path), Err(StoreError::BadHeader)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn estimates_survive_persistence() {
        // Archive a whole campaign, scan it back, and estimate from the
        // scanned records: byte-identical behaviour.
        let path = temp_path("estimate");
        let scheme = EncodingScheme::new(11, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let commons: Vec<VehicleSecrets> = (0..300)
            .map(|_| VehicleSecrets::generate(&mut rng, 3))
            .collect();
        let mut originals = Vec::new();
        for p in 0..5u32 {
            let mut record = TrafficRecord::new(
                LocationId::new(3),
                PeriodId::new(p),
                BitmapSize::new(4096).expect("pow2"),
            );
            for v in &commons {
                record.encode(&scheme, v);
            }
            for _ in 0..1500 {
                let v = VehicleSecrets::generate(&mut rng, 3);
                record.encode(&scheme, &v);
            }
            originals.push(record);
        }
        write_v1(&path, &originals).expect("write v1");
        let scan = scan_v1(&path).expect("scan");
        let from_disk = ptm_core::point::PointEstimator::new()
            .estimate(&scan.records)
            .expect("estimate");
        let from_memory = ptm_core::point::PointEstimator::new()
            .estimate(&originals)
            .expect("estimate");
        assert_eq!(from_disk, from_memory);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disabled_hooks_are_inert() {
        let hooks = StoreHooks::disabled();
        assert!(!hooks.is_active());
        let plan = FaultPlan::builder(1)
            .rule(sites::STORE_WRITE, Rule::nth(1, FaultAction::Reset))
            .build()
            .expect("plan");
        assert!(StoreHooks::from_plan(&plan).is_active());
    }
}
