//! # `ides` — delay prediction by matrix factorization
//!
//! A from-scratch implementation of IDES (Mao & Saul, IMC 2004), the
//! strawman of Section 4.2 of the IMC'07 TIV paper. IDES assigns each
//! node an *outgoing* and an *incoming* vector and predicts the delay
//! `i → j` as their inner product — a model that is not constrained by
//! the triangle inequality and so can, in principle, represent TIVs.
//!
//! * [`linalg`] — the minimal dense-matrix type ([`Mat`]) plus the
//!   parallel products and solvers everything else is built on; no
//!   external linear-algebra crates are used,
//! * [`svd`] — truncated SVD by power iteration with deflation,
//! * [`nmf`] — non-negative factorization by Lee–Seung multiplicative
//!   updates,
//! * [`model`] — the [`IdesModel`] predictor over either backend,
//!   including the deployable landmark variant the paper evaluates.
//!
//! The factorization inner loops run on the [`tivpar`] kernels layer:
//! [`nmf::factorize`] and [`svd::truncated_svd`] take an explicit
//! worker count and are bit-identical at every thread count.
//!
//! ```
//! use delayspace::synth::{Dataset, InternetDelaySpace};
//! use ides::{Factorization, IdesModel};
//!
//! let space = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(40).build(1);
//! let model = IdesModel::fit(space.matrix(), 8, Factorization::Svd, 1);
//! let predicted = model.predicted(0, 1);
//! assert!(predicted >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod linalg;
pub mod model;
pub mod nmf;
pub mod svd;

pub use linalg::Mat;
pub use model::{Factorization, IdesModel};
pub use nmf::{factorize, Nmf};
pub use svd::{truncated_svd, SingularTriplet};
