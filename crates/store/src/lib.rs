//! # lems-store — log-structured mailbox persistence
//!
//! The write-ahead-log backend behind `lems-core`'s
//! [`MailStore`] trait, plus the
//! [`DurabilityConfig`] deployments use to pick a backend:
//!
//! * [`codec`] — checksummed, length-prefixed, schema-versioned record
//!   frames with torn-tail detection;
//! * [`segment`] — the segment device abstraction: a simulated disk with
//!   an explicit durable/volatile boundary ([`MemSegments`]) and a
//!   file-per-segment directory device ([`FileSegments`]);
//! * [`wal`] — [`WalStore`] itself: append-only logging, segment rotation,
//!   chunked compaction, crash/recovery with exact replay.
//!
//! The durability claim this crate exists to make falsifiable: with
//! [`SyncPolicy::PerRecord`], every acknowledged deposit survives a server
//! crash — including one that leaves a torn write on the device — because
//! the acknowledgement never leaves before the record is on durable media.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use
)]
// A dropped store/WAL `Result` is a build error, not a lint finding.
#![deny(unused_must_use)]

pub mod codec;
pub mod segment;
pub mod wal;

use lems_core::store::{MailStore, MemStore};

pub use codec::{Record, WAL_SCHEMA_VERSION};
pub use segment::{FileSegments, MemSegments, SegmentIo};
pub use wal::{SyncPolicy, WalConfig, WalStore};

/// Why a store operation or recovery failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The segment device failed.
    Io(String),
    /// A checksum-valid region of the log failed to decode, or garbage
    /// appeared before the end of the final segment.
    Corrupt {
        /// Segment containing the bad bytes.
        segment: u64,
        /// Byte offset of the first bad frame.
        offset: usize,
        /// What failed.
        detail: String,
    },
    /// The log was written by a newer schema than this build supports.
    SchemaVersion {
        /// Version found on the log.
        found: u16,
        /// Newest version this build can replay.
        supported: u16,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "segment io error: {e}"),
            StoreError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "wal corruption in segment {segment} at byte {offset}: {detail}"
            ),
            StoreError::SchemaVersion { found, supported } => write!(
                f,
                "wal schema version {found} is newer than supported {supported}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Which persistence backend a deployment's servers use.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum DurabilityConfig {
    /// Fiat-stable in-memory storage — the historical simulation model:
    /// a crash pauses the server and loses nothing.
    #[default]
    Ideal,
    /// RAM-only storage: a crash wipes mailboxes, reservations, and the
    /// forward journal. The counterexample backend.
    Volatile,
    /// Write-ahead-logged storage over a simulated segment device.
    Wal(WalConfig),
}

/// Builds a fresh backend for one server per `cfg`.
pub fn make_store(cfg: &DurabilityConfig) -> Box<dyn MailStore> {
    match cfg {
        DurabilityConfig::Ideal => Box::new(MemStore::stable()),
        DurabilityConfig::Volatile => Box::new(MemStore::volatile()),
        DurabilityConfig::Wal(wal_cfg) => {
            // A fresh in-memory device can always be opened.
            match WalStore::open(Box::new(MemSegments::new()), wal_cfg.clone()) {
                Ok(store) => Box::new(store),
                Err(_) => Box::new(MemStore::stable()),
            }
        }
    }
}
