//! tivchaos: deterministic fault injection for the serving stack, plus
//! the paper's motivating applications run live against it.
//!
//! Two halves, one discipline:
//!
//! * [`fault`] + [`harness`] — a chaos harness driving a real
//!   multi-replica [`tivgate::Deployment`] through scripted faults
//!   (replica crash and restart mid-epoch, withheld epoch publishes)
//!   while a client counts availability and staleness in epochs
//!   against their SLOs. Faults fire at batch boundaries of a seeded
//!   workload, so availability and staleness are **pure functions of
//!   the fault plan** — the chaos run is reproducible, and recovery is
//!   checked **bit-exactly**: a
//!   restarted replica must answer byte-identically to one that never
//!   crashed (the `wire_equivalence` discipline, extended to failure).
//! * [`apps`] — the applications from the paper's introduction
//!   (server selection, overlay-multicast parent choice) promoted from
//!   illustrative examples to measured end-to-end workloads: every
//!   routing decision is made from estimates served live over the wire
//!   by a deployment, TIV-aware vs TIV-oblivious vs oracle, with the
//!   savings attributed to severity bins via
//!   [`tivroute::SavingsBySeverity`].
//!
//! The harness deliberately spawns **no threads of its own**: the
//! deployment already owns the serving and publishing threads, and a
//! single loop sending batches back to back through per-replica clients
//! is both sufficient to answer the SLO questions and trivially
//! deterministic. It counts; it times nothing: wire and serve timing
//! are tivmark's `tivgate.*` and `tivserve.*` layers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod apps;
pub mod fault;
pub mod harness;

pub use apps::{run_overlay_multicast, run_server_selection, AppConfig, AppReport};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use harness::{run_chaos, ChaosConfig, ChaosReport, SloSpec};
