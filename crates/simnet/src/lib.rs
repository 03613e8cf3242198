//! # `simnet` — deterministic discrete-event network simulation
//!
//! This crate is the execution substrate for the overlay systems in the
//! workspace (Vivaldi, Meridian and their TIV-aware variants). It
//! provides:
//!
//! * a virtual clock and a deterministic event queue ([`sim`]) —
//!   nothing consumes it today; it is kept for the whole-deployment
//!   simulator of ROADMAP slice 10b,
//! * a simulated network that answers round-trip probes from a delay
//!   matrix, with optional measurement jitter and full **probe
//!   accounting** ([`net`]) — the paper reports Meridian improvements
//!   together with their probing-overhead cost (+5–6%), so counting
//!   probes is a first-class concern.
//!
//! Determinism is a design goal inherited from the measurement study we
//! reproduce: every simulation is a pure function of (delay matrix,
//! seed), so every figure regenerates bit-identically. The same
//! contract extends to the parallel kernels layer (`tivpar`) the
//! analysis crates run on — parallelism never changes a result, so a
//! simulation followed by an analysis is reproducible end to end at
//! any thread count.
//!
//! | module | provides |
//! |---|---|
//! | [`sim`] | [`SimTime`], [`EventQueue`], [`Simulation`] driver |
//! | [`net`] | [`Network`], [`JitterModel`], [`ProbeStats`] accounting |
//! | [`churn`] | [`ChurnProcess`]: diurnal drift, congestion spikes, node churn — deterministic observation streams for the incremental epoch pipeline |
//!
//! ```
//! use delayspace::DelayMatrix;
//! use simnet::net::{Network, JitterModel};
//!
//! let mut m = DelayMatrix::new(2);
//! m.set(0, 1, 42.0);
//! let mut net = Network::new(&m, JitterModel::None, 7);
//! assert_eq!(net.probe(0, 1), Some(42.0));
//! assert_eq!(net.stats().total(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod churn;
pub mod net;
pub mod sim;

pub use churn::{ChurnConfig, ChurnProcess, EdgeSample, TickReport};
pub use net::{JitterModel, Network, ProbeStats};
pub use sim::{EventQueue, SimTime, Simulation};
