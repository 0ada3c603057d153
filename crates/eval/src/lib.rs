//! # lems-eval — the §4 evaluation criteria
//!
//! *"Designing Large Electronic Mail Systems"* (Bahaa-El-Din & Yuen,
//! ICDCS 1988) closes with criteria for evaluating mail systems:
//! **efficiency**, **reliability**, **flexibility**, and **cost**. This
//! crate turns those into a concrete metrics framework:
//!
//! * [`criteria`] — one struct per criterion plus the combined
//!   [`criteria::Scorecard`];
//! * [`report`] — the side-by-side comparison table (the C7 experiment's
//!   output format).

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

pub mod criteria;
pub mod report;

pub use criteria::{rank, Cost, CriteriaWeights, Efficiency, Flexibility, Reliability, Scorecard};
pub use report::comparison_table;
