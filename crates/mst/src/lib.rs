//! # lems-mst — distributed minimum-weight spanning trees
//!
//! The machinery behind attribute-based mail distribution (§3.3.1A of
//! *"Designing Large Electronic Mail Systems"*, Bahaa-El-Din & Yuen,
//! ICDCS 1988):
//!
//! * `messages` — the Gallager–Humblet–Spira message alphabet;
//! * [`ghs`] — a faithful implementation of the distributed GHS MST
//!   algorithm \[GAL83\] over the `lems-sim` actor engine, verified
//!   edge-for-edge against centralized Kruskal;
//! * [`backbone`] — the paper's modification: a backbone MST connecting
//!   the regions through gateway nodes plus a local MST per region
//!   (Fig. 2), built both centrally and with the real distributed
//!   protocol;
//! * [`broadcast`] — broadcast and convergecast over the tree with parent
//!   timeouts masking dead subtrees, and the §3.3.1B cost analysis
//!   (MST vs flooding vs unicast, per-region cost tables for flow
//!   control).

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

pub mod backbone;
pub mod broadcast;
pub mod ghs;
pub(crate) mod messages;
