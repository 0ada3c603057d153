//! # lems-net — network substrate for large electronic mail systems
//!
//! The paper models the mail network as "a connected undirected graph with
//! computers as nodes and the communication links as the edges; each edge
//! is assigned a finite weight cost" (§3.3.1A). This crate provides that
//! model and the classic algorithms the mail systems rely on:
//!
//! * [`graph`] — undirected weighted graphs with exact integer weights;
//! * [`shortest_path`] — Dijkstra and all-pairs distance tables (the
//!   "shortest-path zero-load algorithm" used to initialise the §3.1.1
//!   server-assignment costs);
//! * [`cost_matrix`] — the flat host→server block of that table, built
//!   once (one parallel Dijkstra per server) and shared by assignment,
//!   reconfiguration, and GetMail authority-list construction;
//! * [`mst`] — centralized Kruskal spanning trees, the verification
//!   oracle for the distributed GHS algorithm in `lems-mst`;
//! * [`topology`] — hosts, servers, and regions on top of the graph;
//! * [`generators`] — the paper's Fig. 1 / Table 3 worked examples and
//!   synthetic multi-region networks;
//! * [`transport`] — node-to-actor binding and topology-derived delays for
//!   the `lems-sim` engine.

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

pub mod cost_matrix;
pub mod error;
pub mod generators;
pub mod graph;
pub mod mst;
pub mod shortest_path;
pub mod topology;
pub mod transport;

pub use graph::NodeId;
pub use topology::{NodeKind, RegionId, Topology};
