//! tivgate: the wire-protocol serving layer.
//!
//! Everything below this crate answers TIV queries in-process
//! ([`tivserve`] holds the epoch snapshots and batch APIs). This crate
//! puts those answers on a socket without changing a single bit of
//! them:
//!
//! - [`proto`] — the compact length-prefixed binary protocol
//!   (versioned frames, `f64`s as IEEE bit patterns, structured error
//!   frames);
//! - [`conn`] — sans-IO per-connection buffers (frame reassembly,
//!   partial-write resume, backpressure marks);
//! - [`server`] — the non-blocking TCP replica loop on the in-tree
//!   `mio` readiness shim;
//! - [`client`] — a blocking client with raw-frame access for
//!   byte-level testing;
//! - [`front`] — consistent-hash dispatch of batches across replicas;
//! - [`deploy`] — the [`Deployment`] builder: N full-copy replicas
//!   plus an [`EpochSource`](tivserve::epoch::EpochSource)-driven
//!   publisher in one handle, with the replica crash/restart and
//!   publish-fault hooks the chaos harness drives.
//!
//! Timing the wire — codec, framing, dispatch, socket residual, paced
//! open-loop load — is the benchmark's job (tivmark's `tivgate.*`
//! layer, `benchmark/`); `repro chaos` drives a live deployment.
//!
//! The crate's contract — pinned by the `wire_equivalence` integration
//! suite — is that a query answered over the wire is **byte-identical**
//! to the same query answered by a direct [`tivserve`] call against an
//! equal snapshot, across replica counts and across epoch publishes.
//! That is achievable (rather than merely aspirational) because
//! answers are pure functions of `(snapshot, query, config)` and the
//! codec is a bijection on the value space the service produces.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod conn;
pub mod deploy;
pub mod front;
pub mod proto;
pub mod server;
pub mod testutil;

pub use client::GateClient;
pub use deploy::{Deployment, DeploymentHandle};
pub use front::{Front, HashRing};
pub use proto::{to_node_pairs, to_wire_pairs, ErrorCode, Request, Response, WirePair};
pub use server::{GateConfig, GateHandle, GateServer, GateStats};
