//! # `meridian` — a lightweight network location service
//!
//! A from-scratch implementation of Meridian (Wong, Slivkins, Sirer —
//! SIGCOMM 2005), the recursive-probing neighbor-selection mechanism
//! studied by the IMC'07 TIV paper:
//!
//! * [`rings`] — per-node concentric ring structure (`α`, `s`, `k`),
//! * [`overlay`] — the ring-construction stage, with the edge-filter and
//!   custom-placement hooks the paper's experiments need,
//! * [`query`] — the recursive closest-neighbor query with the `β`
//!   acceptance threshold and switchable termination rule,
//! * [`misplace`] — the ring-misplacement analysis of Figure 13.
//!
//! ```
//! use delayspace::synth::{Dataset, InternetDelaySpace};
//! use meridian::{BuildOptions, MeridianConfig, MeridianOverlay, Termination};
//! use simnet::net::{JitterModel, Network};
//!
//! let space = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(50).build(1);
//! let m = space.matrix();
//! let mut net = Network::new(m, JitterModel::None, 1);
//! let overlay = MeridianOverlay::build(
//!     MeridianConfig::default(),
//!     (0..25).collect(),
//!     &mut net,
//!     1,
//!     &BuildOptions::default(),
//! );
//! let res = meridian::closest_neighbor(&overlay, &mut net, 0, 40, Termination::Beta)
//!     .expect("target measurable");
//! assert!(overlay.contains(res.selected));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod misplace;
pub mod overlay;
pub mod query;
pub mod rings;

pub use misplace::{misplacement_by_delay, pair_misplacement, PairMisplacement};
pub use overlay::{BuildOptions, MeridianOverlay, Placement};
pub use query::{closest_neighbor, QueryResult, Termination};
pub use rings::{MeridianConfig, MeridianNode, RingMember};
