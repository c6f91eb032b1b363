//! Durable storage for traffic records.
//!
//! The paper's central server accumulates one record per RSU per period
//! indefinitely ("at a later time, other people … may gain access to the
//! records", Sec. II-B — i.e. records outlive the collection process). This
//! crate provides the archive that makes that real:
//!
//! * [`codec`] — a compact, versioned binary encoding of
//!   [`ptm_core::record::TrafficRecord`];
//! * [`crc32`] — a from-scratch slicing-by-8 CRC-32 (IEEE) for frame
//!   integrity;
//! * [`io`] — the pluggable [`io::StorageIo`] backend the store writes
//!   through, with a fault-injecting decorator ([`io::HookedIo`]) wired to
//!   [`ptm_fault`] for chaos testing (see `docs/FAULTS.md`).
//!
//! The segmented archive (`docs/STORAGE.md`, storage engine v2) layers on
//! top of the same codec and fault boundary:
//!
//! * [`segment`] — the [`segment::SegmentStore`]: writes rotate through
//!   size-bounded segment files, sealed segments carry a footer
//!   [`index::SegmentIndex`], and `open()` reads manifest + indexes instead
//!   of replaying every record. Commits are transactional: a failed
//!   append rolls the active segment back to the last good frame, so an
//!   acked batch is never ahead of durable state;
//! * [`manifest`] — the CRC-checked [`manifest::Manifest`] naming the live
//!   segment set, committed atomically (temp file + rename);
//! * [`index`] — per-segment `location → period → frame offset` maps;
//! * [`cache`] — the fixed-capacity [`cache::PageCache`] historical reads
//!   go through (pin/unpin, deterministic LRU, hit/miss metrics);
//! * [`compact`] — crash-safe background compaction: small or superseded
//!   segments merge into one, published by a single manifest swap.
//!
//! Storage engine v1 kept every record in one append-only file. Only a
//! read-only scanner for it remains:
//! [`segment::SegmentStore::open_or_migrate`] reads such a file once and
//! replaces it with a segment directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Production code must propagate errors, not abort: unwrap/expect are
// test-only conveniences (enforced by `cargo clippy -p ptm-store
// -- -D warnings` in scripts/ci.sh).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod archive;
pub mod cache;
pub mod codec;
pub mod compact;
pub mod crc32;
pub mod index;
pub mod io;
pub mod manifest;
pub mod segment;

pub use cache::PageCache;
pub use codec::StoreError;
pub use compact::CompactionReport;
pub use index::SegmentIndex;
pub use io::{StorageIo, StoreHooks};
pub use manifest::Manifest;
pub use segment::{OpenedStore, SegmentStore, StoreOptions, SyncPolicy};
