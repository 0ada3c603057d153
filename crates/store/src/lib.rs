//! # lems-store — mailbox persistence
//!
//! [`Store`], the one implementation of `lems-core`'s [`MailStore`]
//! trait, plus the [`DurabilityConfig`] that picks what a crash keeps of
//! it: everything, nothing, or a write-ahead log's durable prefix.
//!
//! * [`codec`] — checksummed, length-prefixed, schema-versioned record
//!   frames with torn-tail detection;
//! * `segment` — the segment device abstraction and its one device, a
//!   simulated disk with an explicit durable/volatile boundary
//!   (`MemSegments`);
//! * [`wal`] — the log: append-only records, segment rotation, chunked
//!   compaction, exact replay;
//! * `store` — [`Store`]: the state, its mode, and the rule that a write
//!   is logged only when the state reports that it changed something.
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
mod segment;
mod store;
pub mod wal;

use lems_core::store::MailStore;

pub use store::Store;
pub use wal::{SyncPolicy, WalConfig};

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
    /// The log was written by another schema than the one this build
    /// replays.
    SchemaVersion {
        /// Version found on the log.
        found: u16,
        /// The one version this build can replay.
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
                "wal schema version {found} is not the supported {supported}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// What a crash keeps of a deployment's stores.
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

/// A fresh [`Store`] for one server per `cfg`, behind the trait.
pub fn make_store(cfg: &DurabilityConfig) -> Box<dyn MailStore> {
    Box::new(Store::new(cfg))
}
