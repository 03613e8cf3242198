//! The common serving fixture of the three wire workloads.
//!
//! `InternetDelaySpace::preset(Ds2).with_nodes(n).build(seed)` →
//! `FluxBuilder::bootstrap(matrix, FluxConfig::default())` (snapshots
//! carry `DerivedState`, so Route is table-served) →
//! `Deployment::new(snapshot, ServeConfig::default())` with the default
//! `GateConfig` — exactly what a user gets: **the benchmark sets no
//! tuning knob**. Queries and observations come from
//! `tivserve::loadgen::generate` with the benchmark's seed; the program
//! only ever sees generated inputs.

use delayspace::matrix::{DelayMatrix, NodeId};
use delayspace::synth::{Dataset, InternetDelaySpace};
use std::io;
use tivgate::client::GateClient;
use tivgate::deploy::{Deployment, DeploymentHandle};
use tivgate::front::{Front, HashRing};
use tivgate::proto::{encode_response, Request, Response};
use tivserve::epoch::Observation;
use tivserve::flux::{FluxBuilder, FluxConfig};
use tivserve::loadgen::{self, WorkloadConfig};
use tivserve::query::{QueryBatch, ReplyBatch};
use tivserve::service::{ServeConfig, TivServe};
use tivserve::snapshot::EpochSnapshot;

/// Observations per published epoch (`Deployment::publisher(_, 16)`).
pub const OBS_PER_EPOCH: usize = 16;

/// Observations fed per second while a feeder runs: 5 epochs/s, at most
/// 32 dirty rows (~3 % of 1024) per epoch, so the builder stays on the
/// repair path and is ~20 % busy.
pub const FEED_RATE: f64 = 80.0;

/// Witness budget of the sampled-severity batches.
pub const SAMPLED_WITNESSES: u32 = 64;

/// Which query kinds a workload's batches carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kinds {
    /// Every batch is an Estimate batch.
    Estimate,
    /// Batch `i` is Estimate, Route, SampledSeverity for `i % 3` = 0, 1, 2.
    Cycle,
}

/// The traffic shape of one wire workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Pairs per batch.
    pub batch: usize,
    /// Zipf exponent of the source nodes (0 = uniform).
    pub zipf_s: f64,
    /// Query kinds.
    pub kinds: Kinds,
    /// Replicas; with more than one the client is a [`Front`].
    pub replicas: usize,
    /// Batches in the generated list the loop cycles through.
    pub list_batches: usize,
    /// Feed observations while the loop runs (writes beside reads).
    pub feed_during_run: bool,
    /// What every replica's share of every batch must do in `TivServe`:
    /// take the shard fan-out (`true`) or stay inline (`false`). Checked
    /// against the generated list in every set-up ([`fanout_share`]), so
    /// a workload can never sit on the boundary between the two modes
    /// unnoticed.
    pub fans_out: bool,
}

/// A running deployment plus everything the loop and the checks need.
pub struct Fixture {
    /// The synthesized delay matrix.
    pub matrix: DelayMatrix,
    /// The running deployment (replicas + publisher).
    pub handle: DeploymentHandle<FluxBuilder>,
    /// A copy of the bootstrapped builder, kept for the end-of-run
    /// replay the final answers are checked against.
    pub replay: FluxBuilder,
    /// The generated query list.
    pub queries: Vec<QueryBatch>,
    /// The generated observation list.
    pub observations: Vec<Observation>,
    /// What the query list does to `parallel_threshold` once split over
    /// the replicas ([`fanout_share`]).
    pub fanout: (f64, usize, usize),
}

/// The delay matrix every serving workload starts from.
pub fn synth_matrix(nodes: usize, seed: u64) -> DelayMatrix {
    InternetDelaySpace::preset(Dataset::Ds2).with_nodes(nodes).build(seed).into_matrix()
}

/// The query list of `shape`: a pure function of `(shape, seed, matrix)`.
pub fn generate_queries(shape: &Shape, seed: u64, matrix: &DelayMatrix) -> Vec<QueryBatch> {
    let cfg = WorkloadConfig {
        queries: shape.list_batches * shape.batch,
        batch: shape.batch,
        zipf_s: shape.zipf_s,
        observe_frac: 0.0,
        jitter_sigma: 0.0,
        seed,
    };
    loadgen::generate(&cfg, matrix)
        .into_iter()
        .enumerate()
        .map(|(i, b)| match (shape.kinds, i % 3) {
            (Kinds::Estimate, _) | (Kinds::Cycle, 0) => QueryBatch::Estimate(b.pairs),
            (Kinds::Cycle, 1) => QueryBatch::Route(b.pairs),
            (Kinds::Cycle, _) => {
                QueryBatch::SampledSeverity { pairs: b.pairs, witnesses: SAMPLED_WITNESSES }
            }
        })
        .collect()
}

/// At least `count` jittered observations of measured pairs, from the
/// same generator (its observation half), on a seed stream of their own.
pub fn generate_observations(
    shape: &Shape,
    seed: u64,
    matrix: &DelayMatrix,
    count: usize,
) -> Vec<Observation> {
    let cfg = WorkloadConfig {
        // At observe_frac 0.5 every second draw is an observation; 3x
        // leaves room for unmeasured pairs falling back to queries.
        queries: 3 * count + 64,
        batch: 64,
        zipf_s: shape.zipf_s,
        observe_frac: 0.5,
        seed: seed ^ 0x0b5e_7ca7,
        ..WorkloadConfig::default()
    };
    let mut obs: Vec<Observation> =
        loadgen::generate(&cfg, matrix).into_iter().flat_map(|b| b.observations).collect();
    assert!(obs.len() >= count, "generator yielded {} of {count} observations", obs.len());
    obs.truncate(count);
    obs
}

/// A batch of `query`'s kind over other pairs.
fn rebatch(query: &QueryBatch, pairs: Vec<(NodeId, NodeId)>) -> QueryBatch {
    match query {
        QueryBatch::Estimate(_) => QueryBatch::Estimate(pairs),
        QueryBatch::Route(_) => QueryBatch::Route(pairs),
        QueryBatch::Severity(_) => QueryBatch::Severity(pairs),
        QueryBatch::Alerts(_) => QueryBatch::Alerts(pairs),
        QueryBatch::SampledSeverity { witnesses, .. } => {
            QueryBatch::SampledSeverity { pairs, witnesses: *witnesses }
        }
    }
}

/// `Front`'s split, from outside: each replica's share of the batch, in
/// pair order, empty shares left out.
pub fn ring_split(ring: &HashRing, query: &QueryBatch) -> Vec<(usize, QueryBatch)> {
    let mut owned: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); ring.replicas()];
    for &(a, c) in query.pairs() {
        owned[ring.replica_for((a as u32, c as u32))].push((a, c));
    }
    owned
        .into_iter()
        .enumerate()
        .filter(|(_, pairs)| !pairs.is_empty())
        .map(|(replica, pairs)| (replica, rebatch(query, pairs)))
        .collect()
}

/// The share of the per-replica shares of `queries` — what a replica's
/// `TivServe` actually gets once the client has split a batch over
/// `replicas` — that reach the default `parallel_threshold` and so take
/// the shard fan-out, plus the smallest and the largest share seen.
pub fn fanout_share(queries: &[QueryBatch], replicas: usize) -> (f64, usize, usize) {
    let threshold = ServeConfig::default().parallel_threshold;
    let ring = HashRing::new(replicas);
    let (mut shares, mut fanned) = (0u64, 0u64);
    let (mut least, mut most) = (usize::MAX, 0);
    for query in queries {
        for (_, share) in ring_split(&ring, query) {
            shares += 1;
            fanned += u64::from(share.len() >= threshold);
            least = least.min(share.len());
            most = most.max(share.len());
        }
    }
    (fanned as f64 / shares.max(1) as f64, least.min(most), most)
}

impl Fixture {
    /// Synthesizes, bootstraps, spawns and generates — the part of
    /// set-up that does not depend on a connection.
    pub fn start(shape: &Shape, nodes: usize, seed: u64, obs_count: usize) -> io::Result<Fixture> {
        let matrix = synth_matrix(nodes, seed);
        let (builder, snapshot) = FluxBuilder::bootstrap(matrix.clone(), FluxConfig::default());
        let replay = builder.clone();
        let handle = Deployment::new(snapshot, ServeConfig::default())
            .replicas(shape.replicas)
            .publisher(builder, OBS_PER_EPOCH)
            .spawn()?;
        let queries = generate_queries(shape, seed, &matrix);
        let observations = generate_observations(shape, seed, &matrix, obs_count);
        let fanout = fanout_share(&queries, shape.replicas);
        Ok(Fixture { matrix, handle, replay, queries, observations, fanout })
    }

    /// The snapshot replica 0 currently serves.
    pub fn snapshot(&self) -> EpochSnapshot {
        let service = self.handle.service(0).expect("replica 0 is up");
        (*service.snapshot()).clone()
    }

    /// An in-process service over the replicas' current snapshot, with
    /// the configuration the replicas run.
    pub fn reference(&self) -> TivServe {
        TivServe::new(ServeConfig::default(), self.snapshot())
    }
}

/// The connection(s) the one generator thread drives: a single
/// [`GateClient`] for one replica, a [`Front`] (one connection per
/// replica) for more.
pub enum Client {
    /// One connection to the one replica.
    Direct(GateClient),
    /// Consistent-hash scatter/gather over the replicas.
    Front(Front),
}

impl Client {
    /// Connects the way `shape` calls for.
    pub fn connect(fixture: &Fixture) -> io::Result<Client> {
        let addrs = fixture.handle.addrs();
        if addrs.len() == 1 {
            Ok(Client::Direct(GateClient::connect(addrs[0])?))
        } else {
            Ok(Client::Front(Front::connect(&addrs)?))
        }
    }

    /// One closed-loop round trip.
    pub fn query(&mut self, id: u32, query: &QueryBatch) -> io::Result<ReplyBatch> {
        match self {
            Client::Direct(c) => c.query(id, query),
            Client::Front(f) => f.query(query),
        }
    }
}

/// The wire frame an in-process reply encodes to — byte equality of two
/// of these is exact equality of the answers (`f64`s travel as bit
/// patterns).
pub fn reply_bytes(id: u32, reply: ReplyBatch) -> Vec<u8> {
    encode_response(&Response::from_reply(id, reply))
}

/// The epoch a reply was answered at (`None` for kinds that do not
/// carry one).
pub fn reply_epoch(reply: &ReplyBatch) -> Option<u64> {
    match reply {
        ReplyBatch::Estimate(v) => v.first().map(|e| e.epoch),
        ReplyBatch::Route(v) => v.first().map(|r| r.epoch),
        _ => None,
    }
}

/// Outcome of a byte-identity check: comparisons made, mismatches found.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checked {
    /// Comparisons made.
    pub attempted: u64,
    /// Mismatches, I/O errors and error frames.
    pub failed: u64,
}

impl Checked {
    /// Counts one comparison.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally to this one.
    pub fn absorb(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Correctness before (and after) timing: wire replies byte-identical
/// to `reference.query` on the same snapshot — the first batches of
/// every kind the list carries, against **each replica directly** and
/// **through the workload's own client** (the `Front` when there are
/// two replicas). Uses fresh connections for the per-replica half, so
/// the loop's own connections stay the only ones open while timing.
pub fn check_wire_identity(
    fixture: &Fixture,
    client: &mut Client,
    reference: &TivServe,
    per_kind: usize,
) -> Checked {
    let mut out = Checked::default();
    // Three consecutive batches cover every kind of a cycling list.
    let sample: Vec<&QueryBatch> = fixture.queries.iter().take(3 * per_kind).collect();
    for addr in fixture.handle.addrs() {
        let mut direct = match GateClient::connect(addr) {
            Ok(c) => c,
            Err(_) => {
                out.note(false);
                continue;
            }
        };
        for (i, q) in sample.iter().enumerate() {
            let id = i as u32 + 1;
            let want = reply_bytes(id, reference.query(q));
            let got = direct.call_frame(&Request::from_query(id, q));
            out.note(got.is_ok_and(|frame| frame == want));
        }
    }
    for q in sample {
        let want = reply_bytes(0, reference.query(q));
        let got = client.query(0, q).map(|reply| reply_bytes(0, reply));
        out.note(got.is_ok_and(|bytes| bytes == want));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            batch: 16,
            zipf_s: 1.2,
            kinds: Kinds::Cycle,
            replicas: 1,
            list_batches: 30,
            feed_during_run: false,
            fans_out: false,
        }
    }

    #[test]
    fn generated_inputs_are_a_pure_function_of_the_seed() {
        let m = synth_matrix(64, 5);
        assert_eq!(m, synth_matrix(64, 5));
        let (a, b) = (generate_queries(&shape(), 5, &m), generate_queries(&shape(), 5, &m));
        assert_eq!(a, b);
        assert_ne!(a, generate_queries(&shape(), 6, &m), "another seed, other queries");
        let (oa, ob) = (
            generate_observations(&shape(), 5, &m, 100),
            generate_observations(&shape(), 5, &m, 100),
        );
        assert_eq!(oa, ob);
        assert_eq!(oa.len(), 100);
        assert_ne!(oa, generate_observations(&shape(), 6, &m, 100));
        assert_ne!(m, synth_matrix(64, 6), "another seed, another delay space");
    }

    #[test]
    fn a_cycling_list_carries_every_kind_in_turn() {
        let m = synth_matrix(64, 1);
        let q = generate_queries(&shape(), 1, &m);
        assert_eq!(q.len(), 30);
        assert!(q.iter().all(|b| b.len() == 16));
        assert!(matches!(q[0], QueryBatch::Estimate(_)));
        assert!(matches!(q[1], QueryBatch::Route(_)));
        assert!(matches!(q[2], QueryBatch::SampledSeverity { witnesses: SAMPLED_WITNESSES, .. }));
        assert!(matches!(q[3], QueryBatch::Estimate(_)));
        let only = generate_queries(&Shape { kinds: Kinds::Estimate, ..shape() }, 1, &m);
        assert!(only.iter().all(|b| matches!(b, QueryBatch::Estimate(_))));
    }

    #[test]
    fn the_ring_split_is_the_fronts_split() {
        let ring = HashRing::new(2);
        let pairs: Vec<(NodeId, NodeId)> =
            (0..300).map(|i| (i % 499, (i * 7 + 1 + i % 499) % 500)).collect();
        let query = QueryBatch::SampledSeverity { pairs: pairs.clone(), witnesses: 64 };
        let shares = ring_split(&ring, &query);
        assert_eq!(shares.iter().map(|(_, q)| q.len()).sum::<usize>(), pairs.len());
        for (replica, share) in &shares {
            assert!(matches!(share, QueryBatch::SampledSeverity { witnesses: 64, .. }));
            for &(a, c) in share.pairs() {
                assert_eq!(ring.replica_for((a as u32, c as u32)), *replica);
            }
        }
        // One replica: one share, the whole batch in order.
        let whole = ring_split(&HashRing::new(1), &query);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].1, query);
    }

    #[test]
    fn fanout_share_counts_what_each_replica_gets_not_what_the_client_sends() {
        let m = synth_matrix(64, 4);
        let threshold = ServeConfig::default().parallel_threshold;
        // Batches of exactly the threshold: whole, every one fans out;
        // split over two replicas, none does.
        let at = Shape { batch: threshold, list_batches: 8, ..shape() };
        let queries = generate_queries(&at, 4, &m);
        assert_eq!(fanout_share(&queries, 1), (1.0, threshold, threshold));
        let (share, least, most) = fanout_share(&queries, 2);
        assert_eq!(share, 0.0);
        assert!(least <= most && most < threshold);
        // Four times the threshold: every half is clearly above it.
        let above = Shape { batch: 4 * threshold, list_batches: 8, ..shape() };
        let (share, least, _) = fanout_share(&generate_queries(&above, 4, &m), 2);
        assert_eq!(share, 1.0);
        assert!(least >= threshold);
    }

    #[test]
    fn generated_observations_are_valid_inputs_to_the_builder() {
        let m = synth_matrix(64, 2);
        for o in generate_observations(&shape(), 2, &m, 200) {
            assert!(o.src < 64 && o.dst < 64 && o.src != o.dst);
            assert!(o.rtt_ms.is_finite() && o.rtt_ms > 0.0);
        }
    }
}
