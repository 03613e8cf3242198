//! Cross-shard equivalence of the `tivserve` service (ISSUE-3
//! acceptance): the exact same closed-loop workload, replayed against
//! services that differ only in shard count, must produce
//! **bit-identical batched answers** — the sharding and the per-shard
//! caches are allowed to change latency, never a result. The services
//! are built through `experiments::serve::build_service`, the same
//! construction path `repro serve` uses, so this pins the CLI surface
//! too.

use tivoid::experiments::serve::{build_service, ServeOptions};
use tivoid::tivserve::loadgen::{self, ObservePath};
use tivoid::tivserve::query::{QueryBatch, ReplyBatch};
use tivoid::tivserve::snapshot::EdgeEstimate;
use tivoid::tivserve::TivServe;

/// Shard counts compared against the unsharded single-thread path.
const SHARDS: [usize; 3] = [1, 2, 4];

fn opts() -> ServeOptions {
    ServeOptions {
        nodes: 200,
        queries: 2_000,
        batch: 64,
        observe_frac: 0.15,
        // Force the fan-out path even for these small batches — the
        // whole point here is to pin the *sharded* code against the
        // serial reference.
        parallel_threshold: 0,
        ..ServeOptions::default()
    }
}

/// Field-by-field bit comparison (`==` on f64 would already be exact,
/// but comparing the raw bits makes the promise explicit and catches
/// `-0.0` vs `0.0` drift).
fn assert_bit_identical(a: &EdgeEstimate, b: &EdgeEstimate, what: &str) {
    assert_eq!(a.epoch, b.epoch, "{what}: epoch");
    assert_eq!(a.predicted.to_bits(), b.predicted.to_bits(), "{what}: predicted");
    assert_eq!(a.measured.map(f64::to_bits), b.measured.map(f64::to_bits), "{what}: measured");
    assert_eq!(a.ratio.map(f64::to_bits), b.ratio.map(f64::to_bits), "{what}: ratio");
    assert_eq!(a.severity.map(f64::to_bits), b.severity.map(f64::to_bits), "{what}: severity");
    assert_eq!(a.alert, b.alert, "{what}: alert");
}

fn run_queries(service: &TivServe, batches: &[loadgen::QueryBatch]) -> Vec<Vec<EdgeEstimate>> {
    let (report, answers) = loadgen::run_closed_loop(service, batches, ObservePath::Drop);
    assert_eq!(report.load.queries, batches.iter().map(|b| b.pairs.len()).sum::<usize>());
    answers
}

#[test]
fn sharded_batches_match_the_unsharded_single_thread_path() {
    let o = opts();
    let (reference_service, _, matrix) = build_service(&o, 1);
    let batches = loadgen::generate(&o.workload(), &matrix);
    let reference = run_queries(&reference_service, &batches);
    for shards in SHARDS {
        let (service, _, m) = build_service(&o, shards);
        assert_eq!(m, matrix, "matrix must not depend on shard count");
        let got = run_queries(&service, &batches);
        assert_eq!(got.len(), reference.len());
        for (bi, (gb, rb)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(gb.len(), rb.len(), "batch {bi} length at {shards} shards");
            for (qi, (g, r)) in gb.iter().zip(rb).enumerate() {
                assert_bit_identical(g, r, &format!("{shards} shards, batch {bi}, query {qi}"));
            }
        }
    }
}

#[test]
fn equivalence_survives_epoch_publishes() {
    // Fold the same observation stream into every service's builder at
    // the same points (synchronously, so the publish happens between
    // the same two batches everywhere) and re-check equivalence across
    // epochs — including monitor-driven alert state.
    let o = ServeOptions { epoch_every: 0, ..opts() };
    let services: Vec<_> = SHARDS.iter().map(|&s| build_service(&o, s)).collect();
    let matrix = services[0].2.clone();
    let batches = loadgen::generate(&o.workload(), &matrix);
    let mid = batches.len() / 2;
    let mut all_answers: Vec<Vec<Vec<EdgeEstimate>>> = SHARDS.iter().map(|_| Vec::new()).collect();
    for (si, (service, builder, _)) in services.into_iter().enumerate() {
        let mut builder = builder;
        for (bi, batch) in batches.iter().enumerate() {
            if bi == mid {
                // Same fold point for every service: ingest everything
                // seen so far, publish the next epoch.
                for earlier in &batches[..mid] {
                    for &obs in &earlier.observations {
                        builder.ingest(obs);
                    }
                }
                service.publish(builder.build());
            }
            let reply = service.query(&QueryBatch::Estimate(batch.pairs.clone()));
            all_answers[si].push(reply.into_estimates());
        }
        assert_eq!(service.epoch(), 1, "one epoch published");
    }
    let (reference, rest) = all_answers.split_first().expect("at least one shard count");
    for (k, got) in rest.iter().enumerate() {
        for (bi, (gb, rb)) in got.iter().zip(reference).enumerate() {
            for (qi, (g, r)) in gb.iter().zip(rb).enumerate() {
                assert_bit_identical(
                    g,
                    r,
                    &format!("{} shards, batch {bi}, query {qi}", SHARDS[k + 1]),
                );
            }
        }
    }
    // The epoch boundary is visible in the answers.
    assert_eq!(reference[0][0].epoch, 0);
    assert_eq!(reference[mid][0].epoch, 1);
}

/// The severity and alert projections of `pairs`, severities as bit
/// patterns.
fn projections(service: &TivServe, pairs: &[(usize, usize)]) -> (Vec<Option<u64>>, Vec<bool>) {
    let ReplyBatch::Severity(sev) = service.query(&QueryBatch::Severity(pairs.to_vec())) else {
        panic!("severity query answered with another kind");
    };
    let ReplyBatch::Alerts(alerts) = service.query(&QueryBatch::Alerts(pairs.to_vec())) else {
        panic!("alerts query answered with another kind");
    };
    (sev.into_iter().map(|s| s.map(f64::to_bits)).collect(), alerts)
}

#[test]
fn severity_and_alert_projections_are_consistent_across_shards() {
    let o = opts();
    let (matrix_service, _, matrix) = build_service(&o, 1);
    let pairs: Vec<_> = matrix.edges().map(|(i, j, _)| (i, j)).take(500).collect();
    let (sev1, alerts1) = projections(&matrix_service, &pairs);
    for shards in [2usize, 4] {
        let (service, _, _) = build_service(&o, shards);
        let (sev, alerts) = projections(&service, &pairs);
        assert_eq!(sev, sev1, "severity diverged at {shards} shards");
        assert_eq!(alerts, alerts1, "alerts diverged at {shards} shards");
    }
}

/// Sharding by the ordered pair must spread a Zipf-skewed stream's hot
/// sources evenly (hashing the source alone pinned them to one shard).
/// A pure function of (workload, hash), so it is bounded here rather
/// than left to a timing: the source-only hash costs 1.1-1.8x on this
/// workload, the pair hash measures <= 1.06.
#[test]
fn zipf_workload_occupies_every_shard_evenly() {
    let o = ServeOptions {
        nodes: 256,
        queries: 4_000,
        batch: 64,
        observe_frac: 0.0,
        seed: 0xB16_B00B5,
        ..ServeOptions::default()
    };
    let (_, _, matrix) = build_service(&o, 1);
    let pairs: Vec<_> =
        loadgen::generate(&o.workload(), &matrix).into_iter().flat_map(|b| b.pairs).collect();
    for shards in [2usize, 4, 8] {
        let (service, _, _) = build_service(&o, shards);
        let hist = service.shard_histogram(&pairs);
        let mean = pairs.len() as f64 / shards as f64;
        let max_over_mean = hist.iter().copied().max().unwrap_or(0) as f64 / mean;
        assert!(
            max_over_mean <= 1.1,
            "shard occupancy skewed at {shards} shards: max/mean {max_over_mean:.3} ({hist:?}) — \
             did the shard hash stop covering both endpoints?"
        );
    }
}
