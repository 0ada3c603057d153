//! # lems-bench — experiment harness
//!
//! Regenerates every table and figure of *"Designing Large Electronic
//! Mail Systems"* (Bahaa-El-Din & Yuen, ICDCS 1988) plus the paper's
//! quantitative claims; see `DESIGN.md` for the experiment index
//! (FIG1/FIG2, T1–T3, C1–C8) and the `repro-*` binaries for the runnable
//! entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::missing_panics_doc,
    reason = "experiment drivers fail fast; the panic family is not denied here either"
)]

pub mod assign_exp;
pub mod cache_exp;
pub mod getmail_exp;
pub mod locindep_exp;
pub mod mst_exp;
pub mod render;
pub mod scale_exp;
pub mod scorecard_exp;
