//! # `tivcore` — TIV analysis, the TIV alert mechanism, and TIV-aware
//! neighbor selection
//!
//! This crate is the primary contribution of the reproduced paper
//! ("Towards Network Triangle Inequality Violation Aware Distributed
//! Systems", IMC 2007):
//!
//! * [`severity`] — the per-edge **TIV severity metric** of Section 2.1
//!   and the delay-space analyses of Section 2.2 (severity CDFs,
//!   severity-vs-length, cluster structure, proximity experiment);
//! * [`alert`] — the **TIV alert mechanism** of Section 5.1: flag edges
//!   whose embedding prediction ratio is far below 1 as likely severe
//!   TIV causers, with the accuracy/recall trade-off of Figures 20–21;
//! * [`filter`] — the naive global severity filter strawman of
//!   Section 4.3;
//! * [`dynvivaldi`] — **dynamic-neighbor Vivaldi** (Section 5.2):
//!   iterative alert-driven neighbor-set refinement;
//! * [`tivmeridian`] — **TIV-aware Meridian** (Section 5.3): dual ring
//!   placement and alert-driven query restart.
//!
//! ```
//! use delayspace::synth::{Dataset, InternetDelaySpace};
//! use tivcore::severity::Severity;
//!
//! let space = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(80).build(1);
//! let sev = Severity::compute(space.matrix(), 0);
//! // Most edges violate little, a few violate a lot (Figure 2).
//! let cdf = sev.cdf(space.matrix());
//! assert!(cdf.median() <= cdf.quantile(0.99));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod alert;
pub mod dynvivaldi;
pub mod filter;
pub mod metrics;
pub mod monitor;
pub mod severity;
pub mod tivmeridian;

pub use alert::{
    accuracy_recall_sweep, accuracy_recall_sweeps, ratio_severity_bins, AlertQuality, TivAlert,
};
pub use dynvivaldi::{DynVivaldiConfig, IterationRecord};
pub use filter::EdgeMask;
pub use metrics::{closest_neighbor_loss, relative_rank_loss, PredictorMetrics};
pub use monitor::{MonitorConfig, MonitorSummary, TivMonitor};
pub use severity::{
    estimate_severity, estimate_severity_ci, estimate_severity_ci_batch, proximity_experiment,
    triangulation_ratios, ProximityResult, Severity, SeverityEstimate,
};
pub use tivmeridian::{build_tiv_aware, tiv_aware_query, TivMeridianConfig};
