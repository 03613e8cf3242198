//! Wire equivalence (ISSUE-7 headline): answers served over real TCP
//! sockets are **bit-identical** to in-process [`TivServe`] calls —
//! across replica counts, across an epoch publish mid-stream, and down
//! to the raw frame bytes.
//!
//! Why this is testable at all: a serving answer is a pure function of
//! `(snapshot, query, config)`, a [`Deployment`] seeds every replica
//! with a clone of the same snapshot, and the fixtures in
//! [`tivgate::testutil`] are pure functions of fixed seeds — so a
//! reference service built independently in this process holds exactly
//! the snapshot the replicas hold behind their sockets, and a reference
//! builder fed the same observations builds exactly the epoch the
//! deployment's engine publishes. The codec carries every `f64` as its
//! IEEE bit pattern, so "equal" here means `to_bits()` equal, not
//! approximately equal: the comparison is `call_frame(request) ==
//! encode_response(direct_answer)` on whole frames.

use tivoid::tivgate::client::GateClient;
use tivoid::tivgate::proto::{encode_response, Request, Response};
use tivoid::tivgate::testutil::{fast_epochs, small_builder, small_matrix, SMALL_NODES};
use tivoid::tivgate::{Deployment, DeploymentHandle, Front};
use tivoid::tivserve::epoch::Observation;
use tivoid::tivserve::flux::FluxBuilder;
use tivoid::tivserve::loadgen::{generate, WorkloadConfig};
use tivoid::tivserve::query::QueryBatch;
use tivoid::tivserve::service::{ServeConfig, TivServe};

/// Witness budget the sampled-severity comparisons use everywhere in
/// this suite.
const WITNESSES: u32 = 8;

/// The seeded query set: Zipf-skewed batches from the shared workload
/// generator, the same stream every run.
fn query_batches() -> Vec<Vec<(usize, usize)>> {
    let cfg = WorkloadConfig {
        queries: 240,
        batch: 24,
        observe_frac: 0.0,
        seed: 1234,
        ..WorkloadConfig::default()
    };
    generate(&cfg, &small_matrix()).into_iter().map(|b| b.pairs).collect()
}

/// The five query kinds over one pair set.
fn kinds(pairs: &[(usize, usize)]) -> [QueryBatch; 5] {
    [
        QueryBatch::Estimate(pairs.to_vec()),
        QueryBatch::Route(pairs.to_vec()),
        QueryBatch::Severity(pairs.to_vec()),
        QueryBatch::Alerts(pairs.to_vec()),
        QueryBatch::SampledSeverity { pairs: pairs.to_vec(), witnesses: WITNESSES },
    ]
}

/// Asserts that every replica's raw wire answer for every batch equals,
/// byte for byte, the frame an in-process reference service's direct
/// answer encodes to — for all five query kinds.
fn assert_wire_matches_direct(
    clients: &mut [GateClient],
    reference: &TivServe,
    batches: &[Vec<(usize, usize)>],
    id_base: u32,
) {
    for (bi, pairs) in batches.iter().enumerate() {
        let id = id_base + bi as u32;
        for query in kinds(pairs) {
            let want = encode_response(&Response::from_reply(id, reference.query(&query)));
            for (ri, client) in clients.iter_mut().enumerate() {
                let got = client.call_frame(&Request::from_query(id, &query)).expect("wire query");
                assert_eq!(
                    got, want,
                    "replica {ri}, batch {bi}: wire frame differs from in-process encoding \
                     ({query:?})"
                );
            }
        }
    }
}

/// A batch of observations to force the next epoch; in range, no
/// self-loops, positive RTTs.
fn epoch_observations() -> Vec<Observation> {
    (0..12)
        .map(|k| Observation {
            src: k % SMALL_NODES,
            dst: (k + 7) % SMALL_NODES,
            rtt_ms: 30.0 + k as f64,
        })
        .collect()
}

/// A deployment of `replicas` fixture replicas whose engine publishes
/// only on [`DeploymentHandle::publish_now`], and the serve config its
/// replicas run.
fn deployment(replicas: usize) -> (DeploymentHandle, ServeConfig) {
    let (builder, snapshot, serve_cfg) = small_builder();
    let handle = Deployment::new(snapshot, serve_cfg)
        .replicas(replicas)
        .publisher(builder, usize::MAX)
        .spawn()
        .expect("spawn deployment");
    (handle, serve_cfg)
}

/// Streams [`epoch_observations`] into the deployment's engine and
/// publishes them as epoch 1 into every replica.
fn publish_next_epoch(handle: &DeploymentHandle) {
    let feed = handle.feed().expect("publisher attached");
    for obs in epoch_observations() {
        feed.observe(obs).expect("engine alive");
    }
    assert_eq!(handle.publish_now(), Some(1), "all replicas advance to epoch 1");
}

/// The core scenario at one replica count: compare at epoch 0, publish
/// a new snapshot into every replica *and* the reference mid-stream,
/// compare again at epoch 1.
fn wire_equivalence_at(replicas: usize) {
    let (handle, serve_cfg) = deployment(replicas);
    // The reference service and its builder are bootstrapped
    // independently from the same seeds — the purity of the fixtures is
    // exactly what is under test here.
    let (mut reference_builder, snap) = FluxBuilder::bootstrap(small_matrix(), fast_epochs());
    let reference = TivServe::new(serve_cfg, snap);
    let mut clients: Vec<GateClient> =
        handle.addrs().into_iter().map(|a| GateClient::connect(a).expect("connect")).collect();
    let batches = query_batches();

    // Epoch 0: every replica, every batch, every kind, byte-identical.
    assert_wire_matches_direct(&mut clients, &reference, &batches, 0);

    // Mid-stream epoch publish: the same observations through the
    // deployment's engine into the replicas, and through the reference
    // builder into the reference.
    publish_next_epoch(&handle);
    for obs in epoch_observations() {
        reference_builder.ingest(obs);
    }
    assert_eq!(reference.publish(reference_builder.build()), 1, "reference advances to epoch 1");

    // Epoch 1: the answers changed (they now carry the new epoch), and
    // the wire still matches the in-process encoding byte for byte.
    assert_wire_matches_direct(&mut clients, &reference, &batches, 10_000);

    // The front's scatter/gather over the ring reassembles the same
    // answers in pair order — compare through the codec so f64s are
    // compared by bit pattern.
    let mut front = Front::connect(&handle.addrs()).expect("front connect");
    for pairs in &batches {
        for query in kinds(pairs) {
            let via_front = front.query(&query).expect("front query");
            assert_eq!(
                encode_response(&Response::from_reply(7, via_front)),
                encode_response(&Response::from_reply(7, reference.query(&query))),
                "front reassembly differs from in-process answers ({query:?})"
            );
        }
    }

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn wire_equals_in_process_with_one_replica() {
    wire_equivalence_at(1);
}

#[test]
fn wire_equals_in_process_with_two_replicas() {
    wire_equivalence_at(2);
}

#[test]
fn wire_equals_in_process_with_four_replicas() {
    wire_equivalence_at(4);
}

/// The epoch boundary itself is visible and consistent over the wire:
/// pings before the publish report epoch 0 on every replica, pings
/// after report epoch 1 on every replica — no replica lags.
#[test]
fn epoch_publish_is_atomic_at_batch_boundaries() {
    let (handle, _) = deployment(3);
    let mut clients: Vec<GateClient> =
        handle.addrs().iter().map(|&a| GateClient::connect(a).expect("connect")).collect();
    // `(epoch, nodes)` as each replica's Pong reports it.
    let mut pongs = || -> Vec<(u64, u32)> {
        (1..)
            .zip(clients.iter_mut())
            .map(|(id, c)| match c.call(&Request::Ping { id }).expect("ping") {
                Response::Pong { epoch, nodes, .. } => (epoch, nodes),
                other => panic!("ping {id} answered with {other:?}"),
            })
            .collect()
    };
    for (epoch, nodes) in pongs() {
        assert_eq!(epoch, 0);
        assert_eq!(nodes as usize, SMALL_NODES);
    }
    publish_next_epoch(&handle);
    for (epoch, _) in pongs() {
        assert_eq!(epoch, 1, "a replica lagged behind the publish");
    }
    handle.shutdown().expect("clean shutdown");
}
