//! # `tivserve` — the sharded TIV-aware estimation service
//!
//! The analysis layers of this workspace *compute* the paper's signals
//! (predicted RTTs, prediction ratios, TIV severity, alert states);
//! this crate *serves* them, the way the paper's §5 deployments assume
//! an online component applications can query. The design is built
//! around three ideas:
//!
//! 1. **Immutable epoch snapshots** ([`snapshot::EpochSnapshot`]):
//!    a frozen `(delay matrix, Vivaldi embedding, per-node
//!    [`TivMonitor`](tivcore::TivMonitor) summaries)` triple behind an
//!    `Arc`, swapped wholesale when a new epoch is published — readers
//!    never lock while computing and never observe a half-updated
//!    state.
//! 2. **Hash-sharded, batch-first reads** ([`service::TivServe`]):
//!    queries are hash-sharded by the ordered pair (never by the
//!    source alone, which concentrates Zipf-hot sources on one shard);
//!    each shard owns bounded LRU caches of edge and route results.
//!    All kinds go through **one query surface** —
//!    [`TivServe::query`] over [`query::QueryBatch`] /
//!    [`query::ReplyBatch`] — which fans a batch across shards with
//!    one [`tivpar`] worker per shard. Every answer is a pure function
//!    of the snapshot, so results are **bit-identical at every shard
//!    count**.
//! 3. **A background epoch builder** ([`epoch::EpochBuilder`]):
//!    streamed RTT observations update per-node hysteresis monitors
//!    (reusing `tivcore::monitor`) and the working matrix; a rebuilt
//!    snapshot is published without stalling readers — and
//!    observations arriving *during* a publish are buffered into the
//!    next epoch, never dropped.
//! 4. **Incremental epochs** ([`flux::FluxBuilder`]): the delta
//!    builder keeps the O(n³) derived analyses (exact severity, detour
//!    table) materialised across epochs and repairs only the rows
//!    dirtied since the last publish (falling back to a full rebuild
//!    past a dirtiness threshold), so a lightly-churning space pays
//!    O(dirty·n²) per epoch instead of O(n³). Both paths are
//!    bit-identical — see `tivflux` and `ARCHITECTURE.md`.
//! 5. **A sparse million-node path** ([`sparse`]): snapshots over a
//!    [`delayspace::SparseDelayStore`] of *observed edges*, answering
//!    sampled severity (with confidence intervals) and sampled detour
//!    queries in O(witnesses) per pair — the same
//!    [`epoch::spawn_with`] loop streams sparse epochs, never
//!    materialising n².
//!
//! [`loadgen`] generates Zipf-skewed closed-loop workloads and
//! measures throughput and batch-latency percentiles; the `repro
//! serve` subcommand drives it and tivmark (`benchmark/`) generates
//! its query and observation lists with it.
//!
//! ```
//! use delayspace::synth::{Dataset, InternetDelaySpace};
//! use tivserve::epoch::{EpochBuilder, EpochConfig};
//! use tivserve::query::QueryBatch;
//! use tivserve::service::{ServeConfig, TivServe};
//!
//! let m = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(40).build(7).into_matrix();
//! let cfg = EpochConfig { bootstrap_rounds: 15, ..EpochConfig::default() };
//! let (_builder, snapshot) = EpochBuilder::bootstrap(m, cfg);
//! let service = TivServe::new(ServeConfig::default(), snapshot);
//! let answers = service.query(&QueryBatch::Estimate(vec![(0, 1), (2, 3)])).into_estimates();
//! assert_eq!(answers.len(), 2);
//! assert!(answers[0].predicted >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod epoch;
pub mod flux;
pub mod loadgen;
pub mod query;
pub mod service;
pub mod snapshot;
pub mod sparse;

pub use cache::CacheStats;
pub use epoch::{
    spawn_with, EpochBuilder, EpochConfig, EpochSource, EpochStream, Feed, FeedSender, Observation,
};
pub use flux::{BuildOutcome, FluxBuilder, FluxConfig};
pub use loadgen::{
    percentile, ClosedLoopReport, LoadReport, LoadSpec, ObservePath, WorkloadConfig,
};
pub use query::{QueryBatch, ReplyBatch, SeverityEstimate};
pub use service::{ServeConfig, TivServe};
pub use snapshot::{
    DenseParts, EdgeEstimate, EpochSnapshot, EstimateConfig, RouteEstimate, ServedSnapshot,
};
pub use sparse::{SparseEpochBuilder, SparseServe, SparseSnapshot};
