//! # `tivserve` — the TIV-aware estimation service
//!
//! The analysis layers of this workspace *compute* the paper's signals
//! (predicted RTTs, prediction ratios, TIV severity, alert states);
//! this crate *serves* them, the way the paper's §5 deployments assume
//! an online component applications can query. The design is built
//! around three ideas:
//!
//! 1. **Immutable epoch snapshots** ([`snapshot::EpochSnapshot`]):
//!    a frozen `(delay matrix, Vivaldi embedding, per-node
//!    [`TivMonitor`](tivcore::TivMonitor) summaries)` triple, plus the
//!    exact severity and detour tables, behind an `Arc`, swapped
//!    wholesale when a new epoch is published — readers never lock
//!    while computing and never observe a half-updated state.
//! 2. **Batch-first reads** ([`service::TivServe`]): all kinds go
//!    through **one query surface** — [`TivServe::query`] over
//!    [`query::QueryBatch`] / [`query::ReplyBatch`] — and one path:
//!    range-check the pairs, then one [`tivpar::par_map_rows`] of the
//!    snapshot's per-pair function (inline for small batches). Every
//!    answer is a pure function of the snapshot, so results are
//!    **bit-identical at every fan-out width**.
//! 3. **One dense epoch builder** ([`flux::FluxBuilder`]): streamed
//!    RTT observations update per-node hysteresis monitors (reusing
//!    `tivcore::monitor`) and the working matrix, and each epoch
//!    refines only the dirty nodes' coordinates and repairs the exact
//!    severity and detour tables edge by edge — O(n) per changed edge
//!    plus O(n) per pair whose answer can move, with a bit-identical
//!    full rebuild past a dirtiness threshold (see `tivflux` and
//!    `ARCHITECTURE.md`). The background engine
//!    ([`epoch::spawn_with`]) publishes without stalling readers, and
//!    observations arriving *during* a publish are buffered into the
//!    next epoch, never dropped.
//!
//! [`loadgen`] generates Zipf-skewed workloads and holds the one
//! percentile rule; it times nothing. Serving is timed from outside
//! the program by tivmark (`benchmark/`): its `tivserve.*` layer and
//! its wire workloads, whose query and observation lists come from
//! [`loadgen::generate`].
//!
//! ```
//! use delayspace::synth::{Dataset, InternetDelaySpace};
//! use tivserve::epoch::EpochConfig;
//! use tivserve::flux::FluxBuilder;
//! use tivserve::query::QueryBatch;
//! use tivserve::service::{ServeConfig, TivServe};
//!
//! let m = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(40).build(7).into_matrix();
//! let cfg = EpochConfig { bootstrap_rounds: 15, ..EpochConfig::default() };
//! let (_builder, snapshot) = FluxBuilder::bootstrap(m, cfg);
//! let service = TivServe::new(ServeConfig::default(), snapshot);
//! let answers = service.query(&QueryBatch::Estimate(vec![(0, 1), (2, 3)])).into_estimates();
//! assert_eq!(answers.len(), 2);
//! assert!(answers[0].predicted >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod epoch;
pub mod flux;
pub mod loadgen;
pub mod query;
pub mod service;
pub mod snapshot;

pub use epoch::{spawn_with, EpochConfig, EpochSource, EpochStream, Feed, FeedSender, Observation};
pub use flux::{BuildOutcome, FluxBuilder, FluxConfig};
pub use loadgen::{percentile, WorkloadConfig};
pub use query::{QueryBatch, ReplyBatch, SeverityEstimate};
pub use service::{CacheStats, ServeConfig, TivServe};
pub use snapshot::{DenseParts, EdgeEstimate, EpochSnapshot, EstimateConfig, RouteEstimate};
