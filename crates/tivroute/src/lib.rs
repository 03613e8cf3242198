//! # `tivroute` — TIV-exploiting one-hop detour routing
//!
//! The paper's central payoff is that triangle inequality violations
//! are not just noise to be tolerated: when
//! `d(a,c) > d(a,b) + d(b,c)`, the violation is an *opportunity* — an
//! overlay can beat the direct path `a→c` by relaying through `b`.
//! The rest of this workspace measures TIVs ([`tivcore::severity`]),
//! embeds around them (`vivaldi`, `ides`) and serves edge estimates
//! (`tivserve`); this crate is the application layer that finally
//! *uses* a TIV to route around it.
//!
//! Two entry points:
//!
//! * [`DetourTable::compute`] — the batch kernel: for every ordered
//!   pair `(a, c)`, the `k` relays minimizing `d(a,b) + d(b,c)`,
//!   parallelized over source rows with [`tivpar`] and **bit-identical
//!   at every thread count** (pinned by `tivoid`'s `route_equivalence`
//!   integration test).
//! * [`best_detour`] — the single-pair scan the serving layer's
//!   route query runs; it returns exactly the table's rank-0
//!   relay (same ordering, same tie-break), so cached online answers
//!   and offline tables never disagree.
//!
//! [`DetourStats`] summarises the gains: the CDF of latency savings,
//! the fraction of edges with a beneficial detour, and savings binned
//! by TIV severity. By construction, an edge has a beneficial one-hop
//! detour **iff** its severity is positive — the severity metric counts
//! witnesses `b` with `d(a,b) + d(b,c) < d(a,c)`, and each such witness
//! is a relay that beats the direct path — so the detour layer is the
//! operational face of the severity analysis.
//!
//! ```
//! use delayspace::matrix::DelayMatrix;
//! use tivroute::{best_detour, DetourTable};
//!
//! // A severe TIV: the long edge (0,2) has a 10 ms relay path via 1.
//! let mut m = DelayMatrix::new(3);
//! m.set(0, 1, 5.0);
//! m.set(1, 2, 5.0);
//! m.set(0, 2, 100.0);
//!
//! let table = DetourTable::compute(&m, 2, 1);
//! let gain = table.gain(&m, 0, 2).unwrap();
//! assert_eq!(gain.relay, 1);
//! assert_eq!(gain.saving_ms, 90.0);
//! assert_eq!(best_detour(&m, 0, 2).unwrap().relay, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod detour;
pub mod stats;

pub use detour::{best_detour, sampled_detour, DetourGain, DetourTable, Relay};
pub use stats::{DetourStats, SavingsBySeverity};
