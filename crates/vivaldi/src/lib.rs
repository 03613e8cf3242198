//! # `vivaldi` — decentralized network coordinates
//!
//! A from-scratch implementation of Vivaldi (Dabek, Cox, Kaashoek,
//! Morris — SIGCOMM 2004), the network-embedding neighbor-selection
//! mechanism studied by the paper, plus:
//!
//! * [`trace`] — per-edge prediction traces and oscillation-range
//!   tracking (Figures 10 and 11 of the IMC'07 paper),
//! * [`lat`] — the localized-adjustment-term extension of Lee et
//!   al. (Figure 16),
//! * [`embedding`] — frozen coordinate snapshots with prediction-ratio
//!   queries, the input of the TIV alert mechanism.
//!
//! ```
//! use delayspace::synth::{Dataset, InternetDelaySpace};
//! use simnet::net::{JitterModel, Network};
//! use vivaldi::{VivaldiConfig, VivaldiSystem};
//!
//! let space = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(60).build(1);
//! let m = space.matrix();
//! let mut sys = VivaldiSystem::new(VivaldiConfig::default(), m.len(), 1);
//! let mut net = Network::new(m, JitterModel::None, 1);
//! sys.run_rounds(&mut net, 50);
//! let emb = sys.embedding();
//! assert!(emb.predicted(0, 1) >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod coord;
pub mod embedding;
pub mod gnp;
pub mod lat;
pub mod system;
pub mod trace;

pub use coord::Coord;
pub use embedding::Embedding;
pub use gnp::{GnpConfig, GnpModel};
pub use lat::LatModel;
pub use system::{RunStats, VivaldiConfig, VivaldiSystem};
pub use trace::{EdgeTrace, OscillationTracker};
