//! # `experiments` — the figure-regeneration harness
//!
//! One function per figure of the IMC'07 TIV paper, each returning a
//! [`figure::Figure`] with the same series the paper plots, plus notes
//! comparing measured headline numbers against the paper's. The
//! [`suite`] module enumerates all experiments for the `repro` binary
//! (`cargo run -p tiv-experiments --bin repro -- all`).
//!
//! | module | paper section | figures |
//! |---|---|---|
//! | [`sec2`] | §2 TIV analysis | 1–9 |
//! | [`sec3`] | §3 impact on Vivaldi/Meridian | 10–14 |
//! | [`sec4`] | §4 strawman solutions | 15–18 |
//! | [`sec5`] | §5 TIV alert mechanism | 19–25 |
//!
//! Supporting modules: [`lab`] caches the expensive per-dataset
//! artifacts (space, severity, embedding) behind every figure, and the
//! figure pairs 20/21 and 22/23 that each come out of one computation;
//! [`scale`] sizes every experiment (`Tiny`/`Small`/`Paper`);
//! [`figure`] is the series/CSV output type; [`report`] renders the
//! headline-number comparison; [`penalty`] and [`ablations`] hold the
//! shared penalty metrics and the beyond-the-paper sweeps; [`serve`]
//! builds the sharded `tivserve` estimation service the equivalence
//! suites compare (its timing is tivmark's `tivserve.*` layer, not a
//! subcommand); [`route`] runs the TIV-exploiting one-hop detour
//! search (the `repro route` subcommand); [`churn`] drives the
//! incremental epoch pipeline against a churning delay space (the
//! `repro churn` subcommand); [`chaos`] injects deterministic faults
//! into a live multi-replica `tivgate` deployment and runs the
//! TIV-aware application workloads against it (the `repro chaos`
//! subcommand); [`sparse`] sweeps sampled-severity accuracy against
//! the exact kernel and sparse-store memory against the dense matrix
//! (the `repro sparse` subcommand).
//!
//! Batches fan out over worker threads with [`suite::run_many`] (the
//! `repro` binary's `--threads` flag). Its workers share one `Lab`, so
//! each artifact is still built once per batch, and take figure ids by
//! work stealing; every figure is a pure function of `(scale, seed)`, so
//! fan-out never changes a result.
//!
//! ```
//! use experiments::lab::Lab;
//! use experiments::scale::ExperimentScale;
//!
//! let lab = Lab::new(ExperimentScale::Tiny, 7);
//! let fig = experiments::sec2::fig2(&lab);
//! assert_eq!(fig.series.len(), 4); // one CDF per data set
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablations;
pub mod chaos;
pub mod churn;
pub mod figure;
pub mod lab;
pub mod penalty;
pub mod report;
pub mod route;
pub mod scale;
pub mod sec2;
pub mod sec3;
pub mod sec4;
pub mod sec5;
pub mod serve;
pub mod sparse;
pub mod suite;

pub use figure::{Figure, Series};
pub use lab::Lab;
pub use scale::ExperimentScale;
