//! # `tivflux` — the incremental epoch engine
//!
//! The reproduced paper's central observation about *time* is that TIVs
//! are not static: severities drift as delays drift, so a TIV-aware
//! system must keep its derived state fresh under a continuous stream
//! of RTT observations. The serving layer's first epoch builder (since
//! deleted) recomputed everything from scratch on every publish — an
//! O(n³) stall per epoch. This crate owns the machinery that makes epochs
//! *incremental*:
//!
//! * [`DirtySet`] ([`dirty`]) — tracks which edges changed since it was
//!   last cleared (each once, with its delay at that clear) and which
//!   rows they dirty, with O(1) marking.
//! * [`DerivedState`] ([`repair`]) — the two O(n³) analyses an epoch
//!   snapshot carries (the exact TIV-severity matrix and the k-best
//!   detour table), with an edge-delta `repair_edges` path: an edge
//!   change can only affect pairs touching one of its endpoints, and
//!   of those only the ones whose severity sum or detour list it can
//!   actually move are redone, with the full pass's kernels. The
//!   repaired state is **bit-identical** to a from-scratch recompute.
//!   The older row path (`repair`, O(|D|·n²)) stays as its reference.
//! * [`refine_embedding`] and [`refine_nodes`] ([`refine`]) — a
//!   deterministic, dirty-local coordinate refinement: each dirty node
//!   re-solves its coordinate against the *previous* epoch's frozen
//!   embedding, so the update is a pure per-row function, parallelises
//!   over the dirty set, is bit-identical at every thread count, and can
//!   be done a few nodes at a time as their rows change. The solve
//!   reads the previous embedding through a [`FrozenEmbedding`], a flat
//!   copy its caller makes once per epoch.
//! * [`RebuildPolicy`] ([`repair`]) — the fallback rule: past a
//!   dirtiness threshold a row-by-row repair does more bookkeeping than
//!   a from-scratch pass, so the builder switches to a full rebuild.
//!   The policy may only ever change *cost*, never *results* — which is
//!   exactly what the `flux_equivalence` integration test in `tivoid`
//!   pins across dirtiness fractions and thread counts.
//!
//! The serving-layer glue (the delta epoch builder folding observation
//! streams into successive snapshots) lives in `tivserve::flux`; the
//! time-varying delay models that *generate* churning observation
//! streams live in `simnet::churn`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dirty;
pub mod refine;
pub mod repair;

pub use dirty::DirtySet;
pub use refine::{refine_embedding, refine_nodes, FrozenEmbedding, RefineConfig};
pub use repair::{BuildKind, DerivedState, RebuildPolicy};
