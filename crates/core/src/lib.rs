//! # lems-core — shared mail-domain types
//!
//! The vocabulary common to all three mail-system designs of
//! *"Designing Large Electronic Mail Systems"* (Bahaa-El-Din & Yuen,
//! ICDCS 1988):
//!
//! * [`name`] — hierarchical `region.host.user` names (§3.1.1);
//! * [`message`] — messages, ids, and delivery status;
//! * [`mailbox`] — server-side stable storage for undelivered mail
//!   (§3.1.2c);
//! * [`store`] — the [`MailStore`](store::MailStore) persistence trait
//!   behind those mailboxes, with the in-memory backends (the
//!   write-ahead-log backend lives in `lems-store`);
//! * [`user`] — users and their ordered authority-server lists;
//! * [`directory`] — the partitioned, partially replicated name database
//!   (§2): one table per region, which the region's servers share;
//! * [`workload`] — synthetic Poisson/Zipf mail traffic for experiments.
//!
//! System-specific machinery lives in `lems-syntax` (System 1),
//! `lems-locindep` (System 2), and `lems-attr` (System 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// A dropped store/WAL `Result` is a build error, not a lint finding.
#![deny(unused_must_use)]

pub mod directory;
pub mod mailbox;
pub mod message;
pub mod name;
pub mod store;
pub mod user;
pub mod workload;

pub use directory::DirectoryError;
pub use message::MessageId;
pub use name::MailName;
pub use user::UserId;
