//! # lems-sim — deterministic discrete-event simulation kernel
//!
//! Simulation substrate for the `lems` workspace, a reproduction of
//! *"Designing Large Electronic Mail Systems"* (Bahaa-El-Din & Yuen,
//! ICDCS 1988). The paper evaluated its algorithms "using simulation"; this
//! crate provides that simulator as a reusable library:
//!
//! * [`time`] — integer simulated time in paper "time units";
//! * [`queue`] — the future-event list with deterministic FIFO tie-breaks:
//!   an amortized-O(1) calendar queue;
//! * [`pool`] — the generation-checked payload slab behind the queue;
//! * [`actor`] — message-passing actors with timers, matching the delivery
//!   model assumed by the paper (finite, in-sequence, error-free links);
//! * [`failure`] — planned and random crash/repair injection;
//! * [`linkfault`] — link outages, partitions, loss, duplication and delay
//!   jitter;
//! * [`sched`] — pluggable schedulers: FIFO replay, seeded schedule
//!   fuzzing, and exhaustive small-scope interleaving exploration;
//! * [`prof`] — a deterministic kernel profiler (dispatch attribution,
//!   queue health) that changes no output byte;
//! * [`rng`] — seeded, forkable randomness so runs reproduce exactly;
//! * [`trace`] — bounded in-memory event tracing;
//! * [`span`] — causal message-lifecycle spans with a conservation auditor;
//! * [`metrics`] — counters, summaries, time-weighted gauges, log-scale
//!   latency histograms, and the per-actor registries that name and merge
//!   them.
//!
//! Everything is deterministic by construction: a run is a pure function of
//! its seed and configuration. There is one engine, [`actor::ActorSim`],
//! and it is single-threaded: every event of every experiment pops from the
//! one calendar queue and runs its handler on the calling thread.
//!
//! # Examples
//!
//! ```
//! use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx};
//! use lems_sim::time::SimDuration;
//!
//! struct Echo;
//! impl Actor for Echo {
//!     type Msg = &'static str;
//!     fn on_message(&mut self, from: ActorId, msg: &'static str, ctx: &mut Ctx<'_, &'static str>) {
//!         if msg == "ping" && from != ActorId::EXTERNAL {
//!             ctx.send(from, "pong", SimDuration::from_units(1.0));
//!         }
//!     }
//! }
//!
//! let mut sim = ActorSim::new(7);
//! let echo = sim.add_actor(Echo);
//! sim.inject(echo, "ping", SimDuration::from_units(0.5));
//! assert!(sim.run_to_quiescence_bounded(1_000));
//! assert_eq!(sim.counters().delivered.get(), 1);
//! ```

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

pub mod actor;
pub mod failure;
pub mod linkfault;
pub mod metrics;
pub mod pool;
pub mod prof;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod span;
pub mod time;
pub mod trace;
