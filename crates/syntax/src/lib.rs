//! # lems-syntax — System 1: mail with syntax-directed naming
//!
//! The first of the three designs in *"Designing Large Electronic Mail
//! Systems"* (Bahaa-El-Din & Yuen, ICDCS 1988): users carry
//! location-dependent `region.host.user` names, and every mail-system
//! function keys off the syntax of those names.
//!
//! * [`cost`] — the `TC_ij = C_ij·W1 + (Q(ρ)+z)·W2` connection-cost model
//!   with its M/M/1 waiting-time estimate (§3.1.1);
//! * [`assign`] — the load-balancing server-assignment algorithm:
//!   nearest-server initialisation (Tables 1, 3) plus the iterative
//!   balancing loop (Table 2);
//! * [`resolve`] — syntax-directed name resolution with region forwarding
//!   (§3.1.2b);
//! * [`getmail`] — the GetMail retrieval algorithm (§3.1.2c), written once
//!   as a step machine run two ways: by a synchronous loop over an
//!   analytic store, with the poll-everything baseline and the paper's
//!   "≈ one poll, no mail lost" guarantees, and by the host actor below;
//! * [`actors`] — the full simulated system: host/user-interface and
//!   server actors, connection setup with failover, store-and-forward
//!   delivery, notifications, and the GetMail machine driven over real
//!   timeouts and retransmissions — wired from a [`Placement`], so
//!   System 2 (`lems-locindep`) runs on the same actors with a hashed
//!   placement and login tracking;
//! * [`cache`] — the §4.1 "caching capability": LRU+TTL resolution
//!   caching with reconfiguration-aware invalidation;
//! * [`reconfig`] — add/delete users, hosts, servers with rebalancing
//!   (§3.1.3);
//! * [`migrate`] — rename + redirect + notify for migrating users
//!   (§3.1.4).

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

pub mod actors;
pub mod assign;
pub mod cache;
pub mod cost;
pub mod getmail;
pub mod migrate;
pub mod reconfig;
pub mod resolve;

pub use actors::{
    ChaosError, DeliveryStats, Deployment, DeploymentConfig, LinkChaos, MailMsg, Partition,
    Placement, ServerFailurePlan, SessionConfig,
};
pub use assign::{
    balance, initialize, solve, Assignment, AssignmentProblem, BalanceOptions, BalanceReport,
};
pub use cache::{CacheStats, ResolutionCache};
pub use cost::{CostModel, ServerSpec};
pub use getmail::{GetMailState, PlanStore, ProbeReply, Prober, RetrievalOutcome};
pub use migrate::{migrate_user, MigrationOutcome, Redirect, RedirectTable};
pub use reconfig::{ReconfigReport, Reconfigurator};
pub use resolve::{Resolution, SyntaxResolver};
