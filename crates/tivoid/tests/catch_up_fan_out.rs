//! Which epoch catch-ups fan out over the `tivpar` pool. A catch-up of
//! one changed edge — a settle or a close under a steady feed — runs on
//! the builder's own thread, so the pool's workers stay off the CPUs a
//! deployment's request path is using; a backlog of several edges still
//! fans out over `FluxConfig::threads`.
//!
//! The pool's counters are process-global, so this file holds a single
//! test: no other test can run a region while it counts.

use tivoid::delayspace::matrix::DelayMatrix;
use tivoid::delayspace::synth::{Dataset, InternetDelaySpace};
use tivoid::tivflux::BuildKind;
use tivoid::tivpar;
use tivoid::tivserve::epoch::{EpochConfig, Observation};
use tivoid::tivserve::flux::{FluxBuilder, FluxConfig};

fn ds2(n: usize, seed: u64) -> DelayMatrix {
    InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed).into_matrix()
}

/// Parallel regions the pool has run since the process started.
fn regions() -> usize {
    tivpar::pool::stats().regions_run
}

#[test]
fn a_one_edge_catch_up_runs_inline_and_a_backlog_fans_out() {
    // 160 nodes: a 16-edge backlog dirties at most 32 rows, under the
    // default policy's full-rebuild threshold of 40.
    let m = ds2(160, 3);
    let cfg = FluxConfig {
        epoch: EpochConfig { bootstrap_rounds: 10, seed: 3, ..EpochConfig::default() },
        threads: 2,
        ..FluxConfig::default()
    };
    let (mut builder, _epoch0) = FluxBuilder::bootstrap(m, cfg);

    builder.ingest(Observation { src: 3, dst: 9, rtt_ms: 500.0 });
    assert_eq!(builder.dirty_rows(), 2, "the observation was meant to move an edge");
    let before = regions();
    builder.settle();
    assert_eq!(regions(), before, "a one-edge settle ran on the pool");

    builder.ingest(Observation { src: 11, dst: 20, rtt_ms: 400.0 });
    let before = regions();
    builder.build();
    assert_eq!(regions(), before, "a one-edge close ran on the pool");
    assert_eq!(builder.last_outcome().expect("built").dirty_rows, 4);

    for k in 0..16 {
        builder.ingest(Observation { src: k, dst: k + 40, rtt_ms: 300.0 + k as f64 });
    }
    let before = regions();
    builder.build();
    let outcome = builder.last_outcome().expect("built");
    assert_eq!((outcome.kind, outcome.dirty_rows), (BuildKind::Incremental, 32));
    assert!(regions() > before, "a 16-edge backlog did not fan out");
}
