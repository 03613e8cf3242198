//! Query equivalence (ISSUE-8 satellite): the single
//! [`TivServe::query`] entry point answers **bit-identically** across
//! shard counts and across repeated calls, for every kind including
//! sampled severity. (That the bytes those answers encode to never
//! moved is `tivgate`'s `codec_props` golden-frame test.)
//!
//! The comparison is canonical: both sides are lifted into a wire
//! [`Response`] via [`Response::from_reply`] and encoded, so every
//! `f64` is compared by IEEE bit pattern and the check covers exactly
//! the value space the protocol can carry.

use tivoid::experiments::serve::{build_service, ServeOptions};
use tivoid::tivgate::proto::{encode_response, Response};
use tivoid::tivserve::loadgen;
use tivoid::tivserve::query::{QueryBatch, ReplyBatch};
use tivoid::tivserve::TivServe;

/// Shard counts the enum surface is pinned across.
const SHARDS: [usize; 3] = [1, 2, 4];

/// Witness budget for the sampled kind (small enough to actually
/// sample at 200 nodes).
const WITNESSES: u32 = 12;

fn opts() -> ServeOptions {
    ServeOptions {
        nodes: 200,
        queries: 1_200,
        batch: 48,
        observe_frac: 0.0,
        // Force the fan-out path even for small batches — the sharded
        // code must be pinned, not the serial shortcut.
        parallel_threshold: 0,
        ..ServeOptions::default()
    }
}

/// Canonical bit-exact form of a reply: its encoded wire frame.
fn frame(reply: ReplyBatch) -> Vec<u8> {
    encode_response(&Response::from_reply(1, reply))
}

/// The five query kinds over one pair set.
fn kinds(pairs: &[(usize, usize)]) -> Vec<QueryBatch> {
    vec![
        QueryBatch::Estimate(pairs.to_vec()),
        QueryBatch::Route(pairs.to_vec()),
        QueryBatch::Severity(pairs.to_vec()),
        QueryBatch::Alerts(pairs.to_vec()),
        QueryBatch::SampledSeverity { pairs: pairs.to_vec(), witnesses: WITNESSES },
    ]
}

fn batches(service_opts: &ServeOptions) -> Vec<Vec<(usize, usize)>> {
    let (_, _, matrix) = build_service(service_opts, 1);
    loadgen::generate(&service_opts.workload(), &matrix).into_iter().map(|b| b.pairs).collect()
}

/// The enum surface is a pure function of `(snapshot, query, config)`:
/// shard count must never leak into an answer, for any kind.
#[test]
fn query_enum_is_bit_identical_across_shard_counts() {
    let o = opts();
    let services: Vec<TivServe> = SHARDS.iter().map(|&s| build_service(&o, s).0).collect();
    for pairs in batches(&o) {
        for query in kinds(&pairs) {
            let mut frames = services.iter().map(|s| frame(s.query(&query)));
            let reference = frames.next().expect("at least one shard count");
            for (k, got) in frames.enumerate() {
                assert_eq!(
                    got,
                    reference,
                    "{} shards diverged from 1 shard on {query:?}",
                    SHARDS[k + 1]
                );
            }
        }
    }
}

/// Sampled answers are deterministic (same snapshot, same query, same
/// bits) and their witness default resolves to the configured budget.
#[test]
fn sampled_severity_is_deterministic_and_defaults_to_config() {
    let o = opts();
    let (service, _, _) = build_service(&o, 4);
    let pairs = batches(&o).into_iter().next().expect("at least one batch");
    let query = QueryBatch::SampledSeverity { pairs: pairs.clone(), witnesses: WITNESSES };
    assert_eq!(frame(service.query(&query)), frame(service.query(&query)));
    // witnesses: 0 means "use the service's configured budget".
    let implicit = QueryBatch::SampledSeverity { pairs: pairs.clone(), witnesses: 0 };
    let explicit = QueryBatch::SampledSeverity {
        pairs,
        witnesses: o.serve_config(4).estimate.severity_witnesses as u32,
    };
    assert_eq!(frame(service.query(&implicit)), frame(service.query(&explicit)));
}
