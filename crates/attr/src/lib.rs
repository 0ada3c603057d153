//! # lems-attr — System 3: attribute-based mail
//!
//! The third and most flexible design of *"Designing Large Electronic
//! Mail Systems"* (Bahaa-El-Din & Yuen, ICDCS 1988), §3.3: recipients are
//! identified by *attributes* rather than precise names, enabling
//! directory lookup, information exchange, and mass distribution.
//!
//! * [`attribute`] — typed, multi-valued attributes with per-attribute
//!   visibility (the paper's privacy requirement);
//! * [`fuzzy`] — edit-distance and Soundex matching for misspelled-name
//!   lookups;
//! * [`query`] — the boolean query language over attributes;
//! * [`registry`] — per-server attribute databases, stored by column the
//!   way a query reads them;
//! * [`search`] — distributed search: broadcast the query over the
//!   backbone+local MST, convergecast summary responses (§3.3.1A);
//! * [`mod@distribute`] — mass distribution with the §3.3.1B
//!   cost-estimation table and budget-based flow control.

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

pub mod attribute;
pub mod distribute;
pub mod fuzzy;
pub mod query;
pub mod registry;
pub mod search;

pub use attribute::{AttrKey, AttrValue, Attribute, AttributeSet, RequesterContext, Visibility};
pub use distribute::{distribute, estimate, DistributionEstimate, DistributionOutcome};
pub use fuzzy::{classify, edit_distance, soundex, MatchQuality};
pub use query::{Predicate, Query};
pub use registry::AttributeRegistry;
pub use search::{AttributeNetwork, SearchOutcome};
