//! # lems — Large Electronic Mail Systems
//!
//! A production-quality Rust reproduction of *"Designing Large Electronic
//! Mail Systems"* (Wael Bahaa-El-Din & Hsi-Tung Yuen, ICDCS 1988): three
//! complete designs for continent-scale electronic mail, built over a
//! deterministic discrete-event simulator.
//!
//! ## The three systems
//!
//! * **System 1 — syntax-directed naming** ([`syntax`]): location-bound
//!   `region.host.user` names; the load-balancing server-assignment
//!   algorithm; syntax-directed resolution with regional forwarding; the
//!   GetMail retrieval algorithm whose polls-per-check is ≈ 1 and which
//!   never loses mail under server failures.
//! * **System 2 — limited location-independent access** ([`locindep`]):
//!   hash-based sub-group resolution, cooperative location tracking,
//!   rehash-based reconfiguration, and the remote-access / redirect /
//!   rename migration trade-off.
//! * **System 3 — attribute-based mail** ([`attr`]): typed attributes with
//!   privacy, fuzzy directory lookup, and mass distribution over a
//!   backbone+local minimum spanning tree built by the distributed
//!   Gallager–Humblet–Spira protocol ([`mst`]).
//!
//! ## Substrates
//!
//! * [`sim`] — deterministic discrete-event engine (actors, timers,
//!   failures, seeded RNG, statistics);
//! * [`net`] — weighted graphs, shortest paths, centralized MSTs,
//!   multi-region topologies, transport;
//! * [`core`] — names, messages, mailboxes, directories, workloads;
//! * [`store`] — durable mailbox storage: the one `MailStore`, `Store`,
//!   whose mode says what a crash keeps (everything, nothing, or the
//!   durable prefix of its crash-recoverable write-ahead log).
//!
//! ## Quickstart
//!
//! ```
//! use lems::net::generators::fig1;
//! use lems::syntax::{solve, AssignmentProblem, BalanceOptions, CostModel, ServerSpec};
//!
//! // Reproduce Table 1 -> Table 2 of the paper:
//! let f = fig1();
//! let p = AssignmentProblem::from_topology(
//!     &f.topology, &f.users_per_host,
//!     ServerSpec::paper_example(), CostModel::paper_example());
//! let (assignment, report) = solve(&p, BalanceOptions::default());
//! assert!(assignment.overloaded(&p).is_empty());
//! assert!(report.final_cost < report.initial_cost);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/` for the
//! `repro` binary that regenerates every table and figure of the paper
//! (indexed in `DESIGN.md` and `EXPERIMENTS.md`).

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

pub use lems_attr as attr;
pub use lems_core as core;
pub use lems_locindep as locindep;
pub use lems_mst as mst;
pub use lems_net as net;
pub use lems_sim as sim;
pub use lems_store as store;
pub use lems_syntax as syntax;
