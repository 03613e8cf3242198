//! # `tivoid` — the facade over the TIV workspace
//!
//! One crate to depend on: re-exports every layer of the
//! conf_imc_WangZN07 reproduction under stable module paths
//! (`tivoid::delayspace`, `tivoid::vivaldi`, …) and bundles the
//! commonly-used types into a [`prelude`]. The workspace's runnable
//! `examples/` live here.
//!
//! | layer | crate | what it provides |
//! |---|---|---|
//! | parallelism | [`tivpar`] | scoped-thread chunked map/fill kernels, `TIV_THREADS` resolution |
//! | substrate | [`delayspace`] | delay matrices, synthetic TIV-rich generator, clustering, APSP, stats |
//! | execution | [`simnet`] | deterministic simulated network with probe accounting |
//! | embeddings | [`vivaldi`], [`ides`] | network coordinates; matrix-factorization prediction |
//! | overlay | [`meridian`] | concentric-ring closest-neighbor location service |
//! | core | [`tivcore`] | TIV severity, the TIV alert mechanism, TIV-aware selection |
//! | routing | [`tivroute`] | k-best one-hop detour search, detour-gain statistics |
//! | incremental | [`tivflux`] | dirty-row tracking, delta repair of the O(n³) analyses, rebuild policy |
//! | serving | [`tivserve`] | sharded, epoch-snapshot estimation + routing service, incremental epoch builder, load generator |
//! | wire | [`tivgate`] | length-prefixed binary protocol, non-blocking gate server, consistent-hash multi-replica front, `Deployment` builder |
//! | chaos | [`tivchaos`] | deterministic fault injection against a live deployment, bit-exact recovery checks, live application workloads |
//! | harness | [`experiments`] | one function per figure of the paper, `repro` binary |
//!
//! Every O(n³) kernel (severity, APSP, the alert sweeps, the
//! factorization updates) runs on [`tivpar`] and is **bit-identical at
//! every thread count**; set `TIV_THREADS` to pin the worker count
//! process-wide. See `ARCHITECTURE.md` for the paper-to-code map.
//!
//! ```
//! use tivoid::prelude::*;
//!
//! let space = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(60).build(7);
//! let m = space.matrix();
//! let sev = Severity::compute(m, 0);
//! assert!(sev.violating_triangle_fraction() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use delayspace;
pub use experiments;
pub use ides;
pub use meridian;
pub use simnet;
pub use tivchaos;
pub use tivcore;
pub use tivflux;
pub use tivgate;
pub use tivpar;
pub use tivroute;
pub use tivserve;
pub use vivaldi;

pub mod prelude {
    //! The types and functions nearly every user of the workspace
    //! touches, importable in one line.

    pub use delayspace::apsp::ShortestPaths;
    pub use delayspace::cluster::{ClusterConfig, ClusterId, Clustering};
    pub use delayspace::matrix::{DelayMatrix, NodeId};
    pub use delayspace::rng::DetRng;
    pub use delayspace::stats::{BinnedStats, Cdf, Percentiles};
    pub use delayspace::synth::{Dataset, InternetDelaySpace, SynthConfig};

    pub use simnet::net::{JitterModel, Network, ProbeStats};

    pub use tivpar::resolve_threads;

    pub use vivaldi::{Embedding, VivaldiConfig, VivaldiSystem};

    pub use ides::{Factorization, IdesModel};

    pub use meridian::{
        closest_neighbor, BuildOptions, MeridianConfig, MeridianOverlay, QueryResult, Termination,
    };

    pub use tivcore::dynvivaldi::{self, DynVivaldiConfig};
    pub use tivcore::severity::{estimate_severity, proximity_experiment, Severity};
    pub use tivcore::tivmeridian::{build_tiv_aware, tiv_aware_query, TivMeridianConfig};
    pub use tivcore::{EdgeMask, MonitorConfig, MonitorSummary, TivAlert, TivMonitor};

    pub use tivroute::{best_detour, DetourGain, DetourStats, DetourTable};

    pub use tivflux::{BuildKind, DerivedState, DirtySet, RebuildPolicy, RefineConfig};

    pub use tivserve::{
        EdgeEstimate, EpochConfig, EpochSnapshot, EstimateConfig, FluxBuilder, FluxConfig,
        Observation, RouteEstimate, ServeConfig, TivServe, WorkloadConfig,
    };

    pub use tivgate::{
        Deployment, DeploymentHandle, Front, GateClient, GateConfig, GateServer, Request, Response,
    };

    pub use tivchaos::{
        run_chaos, run_overlay_multicast, run_server_selection, AppConfig, AppReport, ChaosConfig,
        ChaosReport, FaultKind, FaultPlan, SloSpec,
    };
}
