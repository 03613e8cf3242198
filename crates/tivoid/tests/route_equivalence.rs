//! Equivalence pins for the detour-routing layer (ISSUE-4 acceptance):
//!
//! * [`DetourTable::compute`] is **bit-identical across thread counts
//!   {1, 2, 4, 7}** — the search parallelises over source rows like
//!   every other `tivpar` kernel, so the worker count may change
//!   latency, never a relay or a delay bit;
//! * `TivServe::query` over `QueryBatch::Route` is **bit-identical
//!   across shard counts {1, 2, 4}** — the same closed-loop query
//!   stream, replayed against services differing only in shard count,
//!   produces identical route answers (and they all equal the serial
//!   `snapshot.route` loop);
//! * the online answer (`EpochSnapshot::route` → `best_detour`) and
//!   the offline table agree on every pair, so a deployment can mix
//!   online route answers with batch-computed tables freely.

use proptest::prelude::*;
use tivoid::experiments::serve::{build_service, ServeOptions};
use tivoid::prelude::*;
use tivoid::tivserve::loadgen;
use tivoid::tivserve::query::QueryBatch;

/// The non-serial worker counts the table property sweeps.
const THREADS: [usize; 3] = [2, 4, 7];

/// Shard counts compared against the unsharded single-thread path.
const SHARDS: [usize; 3] = [1, 2, 4];

fn ds2(n: usize, seed: u64) -> DelayMatrix {
    InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed).into_matrix()
}

fn routes(service: &TivServe, pairs: &[(usize, usize)]) -> Vec<RouteEstimate> {
    service.query(&QueryBatch::Route(pairs.to_vec())).into_routes()
}

/// Field-by-field bit comparison of route answers.
fn assert_route_bit_identical(a: &RouteEstimate, b: &RouteEstimate, what: &str) {
    assert_eq!(a.epoch, b.epoch, "{what}: epoch");
    assert_eq!(a.direct_ms.map(f64::to_bits), b.direct_ms.map(f64::to_bits), "{what}: direct");
    assert_eq!(a.relay, b.relay, "{what}: relay");
    assert_eq!(a.via_ms.map(f64::to_bits), b.via_ms.map(f64::to_bits), "{what}: via");
    assert_eq!(a.saving_ms.map(f64::to_bits), b.saving_ms.map(f64::to_bits), "{what}: saving");
    assert_eq!(
        a.saving_frac.map(f64::to_bits),
        b.saving_frac.map(f64::to_bits),
        "{what}: saving_frac"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn detour_table_bit_identical_across_thread_counts(
        n in 30usize..80,
        seed in 0u64..1_000,
        k in 1usize..6,
    ) {
        let m = ds2(n, seed);
        let serial = DetourTable::compute(&m, k, 1);
        for &t in &THREADS {
            let par = DetourTable::compute(&m, k, t);
            for a in 0..n {
                for c in 0..n {
                    let sr: Vec<_> = serial.relays(a, c).collect();
                    let pr: Vec<_> = par.relays(a, c).collect();
                    prop_assert_eq!(sr.len(), pr.len(), "rank count ({},{}) at {} threads", a, c, t);
                    for (s, p) in sr.iter().zip(&pr) {
                        prop_assert_eq!(s.relay, p.relay, "relay ({},{}) at {} threads", a, c, t);
                        prop_assert_eq!(
                            s.via_ms.to_bits(), p.via_ms.to_bits(),
                            "via ({},{}) at {} threads", a, c, t
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn online_route_matches_offline_table(n in 20usize..60, seed in 0u64..1_000) {
        let m = ds2(n, seed);
        let table = DetourTable::compute(&m, 3, 0);
        for a in 0..n {
            for c in 0..n {
                let online = best_detour(&m, a, c);
                let offline = table.best(a, c);
                prop_assert_eq!(
                    online.map(|r| (r.relay, r.via_ms.to_bits())),
                    offline.map(|r| (r.relay, r.via_ms.to_bits())),
                    "pair ({},{})", a, c
                );
            }
        }
    }
}

#[test]
fn route_batches_match_the_unsharded_single_thread_path() {
    // The exact same query stream the estimate-equivalence test uses,
    // answered as route queries, across shard counts — and pinned
    // against the serial snapshot.route reference loop.
    let o = ServeOptions {
        nodes: 200,
        queries: 2_000,
        batch: 64,
        observe_frac: 0.15,
        // Force the fan-out path even for these small batches — the
        // point is to pin the *sharded* code against the serial
        // reference.
        parallel_threshold: 0,
        ..ServeOptions::default()
    };
    let (reference_service, _, matrix) = build_service(&o, 1);
    let batches = loadgen::generate(&o.workload(), &matrix);
    let snapshot = reference_service.snapshot();
    let reference: Vec<Vec<RouteEstimate>> =
        batches.iter().map(|b| routes(&reference_service, &b.pairs)).collect();
    // The unsharded service equals the serial evaluation loop.
    for (bi, batch) in batches.iter().enumerate() {
        for (qi, &(a, c)) in batch.pairs.iter().enumerate() {
            assert_route_bit_identical(
                &reference[bi][qi],
                &snapshot.route(a, c),
                &format!("serial reference, batch {bi}, query {qi}"),
            );
        }
    }
    // And every shard count equals the unsharded service.
    for shards in SHARDS {
        let (service, _, m) = build_service(&o, shards);
        assert_eq!(m, matrix, "matrix must not depend on shard count");
        for (bi, batch) in batches.iter().enumerate() {
            let got = routes(&service, &batch.pairs);
            assert_eq!(got.len(), reference[bi].len());
            for (qi, (g, r)) in got.iter().zip(&reference[bi]).enumerate() {
                assert_route_bit_identical(
                    g,
                    r,
                    &format!("{shards} shards, batch {bi}, query {qi}"),
                );
            }
        }
    }
}

#[test]
fn route_equivalence_survives_epoch_publishes() {
    // Publish a rebuilt snapshot mid-stream at the same point for every
    // shard count: the route answers must stay identical across shard
    // counts and visibly switch epochs at the boundary.
    let o = ServeOptions {
        nodes: 120,
        queries: 1_000,
        batch: 50,
        observe_frac: 0.15,
        parallel_threshold: 0,
        ..ServeOptions::default()
    };
    let services: Vec<_> = SHARDS.iter().map(|&s| build_service(&o, s)).collect();
    let matrix = services[0].2.clone();
    let batches = loadgen::generate(&o.workload(), &matrix);
    let mid = batches.len() / 2;
    let mut all_answers: Vec<Vec<Vec<RouteEstimate>>> = SHARDS.iter().map(|_| Vec::new()).collect();
    for (si, (service, builder, _)) in services.into_iter().enumerate() {
        let mut builder = builder;
        for (bi, batch) in batches.iter().enumerate() {
            if bi == mid {
                for earlier in &batches[..mid] {
                    for &obs in &earlier.observations {
                        builder.ingest(obs);
                    }
                }
                service.publish(builder.build());
            }
            all_answers[si].push(routes(&service, &batch.pairs));
        }
        assert_eq!(service.epoch(), 1, "one epoch published");
    }
    let (reference, rest) = all_answers.split_first().expect("at least one shard count");
    for (k, got) in rest.iter().enumerate() {
        for (bi, (gb, rb)) in got.iter().zip(reference).enumerate() {
            for (qi, (g, r)) in gb.iter().zip(rb).enumerate() {
                assert_route_bit_identical(
                    g,
                    r,
                    &format!("{} shards, batch {bi}, query {qi}", SHARDS[k + 1]),
                );
            }
        }
    }
    assert_eq!(reference[0][0].epoch, 0);
    assert_eq!(reference[mid][0].epoch, 1);
}
