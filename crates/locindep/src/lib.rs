//! # lems-locindep — System 2: limited location-independent access
//!
//! The second design of *"Designing Large Electronic Mail Systems"*
//! (Bahaa-El-Din & Yuen, ICDCS 1988), §3.2: names keep the
//! `region.host.user` shape but `host` is only the user's *primary*
//! location — inside a region, users "can move freely and can send or
//! receive messages from any host … without having to change names".
//!
//! * [`subgroup`] — hash-based sub-group name resolution and the
//!   rehash-to-reconfigure mechanism (§3.2.2b, §3.2.3c);
//! * [`tracking`] — cooperative user-location tracking among the region's
//!   servers (§3.2.2c);
//! * `deploy` — the running System-2 protocol: `lems-syntax`'s mail
//!   path wired with a hashed placement and login tracking;
//! * [`delivery`] — delivery-cost accounting, including the
//!   remote-access / redirect / rename trade-off for cross-region moves
//!   (§3.2.4) measured by the C5 experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::wildcard_enum_match_arm
)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::wildcard_enum_match_arm,
        reason = "the determinism bans of clippy.toml and the match rule fence non-test code"
    )
)]

pub mod delivery;
pub(crate) mod deploy;
pub mod subgroup;
pub mod tracking;

pub use deploy::roaming_deployment;
pub use subgroup::SubgroupMap;
pub use tracking::RegionTracker;
