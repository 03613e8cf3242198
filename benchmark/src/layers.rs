//! The traced run: per-layer metrics, every layer timed from outside.
//!
//! `--trace 1` repeats the workload's own loop with a span around every
//! call into a layer; numbers come from the spans and from nothing else.
//! Every per-layer metric has a [`Home`]: the loop-level `tivgate` and
//! `tivserve` numbers are measured on each wire workload and carry its
//! traffic shape, the open-loop ladder runs on `wire_small`, the epoch
//! path is probed on `churn_mixed`'s deployment, the kernels and the
//! suite's sections on `paper_suite` — each probe once, where the layer
//! does its work. The driver's contract still wants every name from
//! every traced run: a metric away from home is printed as 0 and named
//! in a `#` line; a metric missing *at* home fails the run.
//!
//! On the wire the same batch stream alternates between two paths, one
//! batch each: through `Front::query` as a whole (`tivgate.front_query`),
//! and through the benchmark's own staged copy of it — `HashRing` split,
//! then per replica `encode_request` → write + read of the reply frame →
//! `decode_response`. Every staged share is then **replayed on the same
//! bytes** through the public server-side functions against a mirror
//! service that has seen the same requests in the same order (so its
//! caches are in the state the replica's were): `Connection::ingest` +
//! `next_frame`, `decode_request`, `server::handle_body`,
//! `encode_response`, `Connection::queue`/`unsent`/`advance`. What the
//! round trip took beyond those stages is `socket_residual_us`:
//! syscalls, loopback, wake-ups.

use crate::affinity::{self, Awake, SharedCpu};
use crate::feed::Feeder;
use crate::fixture::{
    generate_observations, generate_queries, reply_epoch, ring_split, Checked, Client, Fixture,
    Shape, FEED_RATE, OBS_PER_EPOCH, SAMPLED_WITNESSES,
};
use crate::openloop::{self, Rung};
use crate::report::{Metric, Outcome};
use crate::trace::{Recorder, NONE};
use crate::wire::{self, Loop, Plan};
use crate::{stats, suite, Sizing};
use delayspace::apsp::ShortestPaths;
use delayspace::matrix::{DelayMatrix, NodeId};
use delayspace::synth::{Dataset, InternetDelaySpace};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tivgate::client::GateClient;
use tivgate::conn::Connection;
use tivgate::front::{Front, HashRing};
use tivgate::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use tivgate::server::{handle_body, GateStats};
use tivserve::epoch::{EpochBuilder, EpochConfig};
use tivserve::query::QueryBatch;
use tivserve::service::{ServeConfig, TivServe};
use tivserve::snapshot::EpochSnapshot;

/// Where a per-layer metric is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Home {
    /// The workload's own traced loop: every wire workload.
    Loop,
    /// The open-loop ladder: `wire_small`.
    Ladder,
    /// The epoch path on a fed deployment: `churn_mixed`.
    Epochs,
    /// The kernels and the suite's sections: `paper_suite`.
    Kernels,
}

impl Home {
    /// True when `workload` measures the metrics that live here.
    pub fn is(self, workload: &str) -> bool {
        match self {
            Home::Loop => crate::shape_of(workload).is_some(),
            Home::Ladder => workload == "wire_small",
            Home::Epochs => workload == "churn_mixed",
            Home::Kernels => workload == "paper_suite",
        }
    }
}

/// Every per-layer metric, `layer.metric`, with its unit and its home —
/// the order of `BENCHMARK.json`'s `per_layer` list.
pub const PER_LAYER: [(&str, &str, Home); 72] = [
    // tivgate: the client side of the loop and the replayed server side.
    ("tivgate.encode_request_ns", "ns", Home::Loop),
    ("tivgate.decode_response_ns", "ns", Home::Loop),
    ("tivgate.client_roundtrip_us", "us", Home::Loop),
    ("tivgate.frame_ns", "ns", Home::Loop),
    ("tivgate.decode_request_ns", "ns", Home::Loop),
    ("tivgate.handle_body_ns", "ns", Home::Loop),
    ("tivgate.encode_response_ns", "ns", Home::Loop),
    ("tivgate.queue_flush_ns", "ns", Home::Loop),
    ("tivgate.socket_residual_us", "us", Home::Loop),
    ("tivgate.requests_served", "count", Home::Loop),
    ("tivgate.backpressure_pauses", "count", Home::Loop),
    ("tivgate.error_frames", "count", Home::Loop),
    ("tivgate.bytes_per_batch_req", "B", Home::Loop),
    ("tivgate.bytes_per_batch_resp", "B", Home::Loop),
    ("tivgate.batch_p99_us", "us", Home::Loop),
    ("tivgate.budget_gap_share", "ratio", Home::Loop),
    ("tivgate.trace_overhead", "ratio", Home::Loop),
    // tivgate: queueing, from the open-loop ladder.
    ("tivgate.open_p50_us_2k", "us", Home::Ladder),
    ("tivgate.open_p50_us_4k", "us", Home::Ladder),
    ("tivgate.open_p50_us_8k", "us", Home::Ladder),
    ("tivgate.open_p99_us_4k", "us", Home::Ladder),
    ("tivgate.late_share_8k", "ratio", Home::Ladder),
    ("tivgate.max_lag_us_8k", "us", Home::Ladder),
    // tivgate: the front.
    ("tivgate.front_query_us", "us", Home::Loop),
    ("tivgate.ring_split_ns", "ns", Home::Loop),
    ("tivgate.front_overhead_us", "us", Home::Loop),
    ("tivgate.frames_per_batch", "count", Home::Loop),
    // tivserve: reads.
    ("tivserve.query_ns", "ns", Home::Loop),
    ("tivserve.query_estimate_ns", "ns", Home::Loop),
    ("tivserve.query_route_ns", "ns", Home::Loop),
    ("tivserve.query_sampled_ns", "ns", Home::Loop),
    ("tivserve.snapshot_eval_ns", "ns", Home::Loop),
    ("tivserve.dispatch_overhead_ns", "ns", Home::Loop),
    ("tivserve.cache_hit_rate", "ratio", Home::Loop),
    ("tivserve.shard_occupancy_max_over_mean", "ratio", Home::Loop),
    ("tivserve.fanout_share", "ratio", Home::Loop),
    // tivserve: epochs.
    ("tivserve.post_publish_first_batch_us", "us", Home::Epochs),
    ("tivserve.ingest_ns_per_obs", "ns", Home::Epochs),
    ("tivserve.flux_build_ms", "ms", Home::Epochs),
    ("tivserve.flux_build_full_ms", "ms", Home::Epochs),
    ("tivserve.epoch_build_ms", "ms", Home::Epochs),
    ("tivserve.publish_us", "us", Home::Epochs),
    ("tivserve.flush_ms", "ms", Home::Epochs),
    ("tivserve.epochs_published", "count", Home::Epochs),
    ("tivserve.builds_incremental", "count", Home::Epochs),
    ("tivserve.builds_full", "count", Home::Epochs),
    ("tivserve.dirty_fraction_mean", "ratio", Home::Epochs),
    // The kernels, one probe each.
    ("tivflux.repair_ms", "ms", Home::Epochs),
    ("tivflux.rebuild_ms", "ms", Home::Epochs),
    ("tivflux.refine_ms", "ms", Home::Epochs),
    ("tivcore.severity_ms", "ms", Home::Kernels),
    ("tivcore.severity_repair_rows_ms", "ms", Home::Epochs),
    ("tivcore.sampled_severity_ns_per_pair", "ns", Home::Kernels),
    ("tivcore.alert_sweep_ms", "ms", Home::Kernels),
    ("tivroute.detour_table_ms", "ms", Home::Kernels),
    ("tivroute.detour_repair_rows_ms", "ms", Home::Epochs),
    ("tivroute.best_detour_ns", "ns", Home::Kernels),
    ("delayspace.synth_ms", "ms", Home::Kernels),
    ("delayspace.apsp_ms", "ms", Home::Kernels),
    ("vivaldi.embed_ms", "ms", Home::Kernels),
    ("meridian.build_ms", "ms", Home::Kernels),
    ("meridian.query_us", "us", Home::Kernels),
    ("ides.svd_ms", "ms", Home::Kernels),
    ("ides.nmf_ms", "ms", Home::Kernels),
    // The paper suite, by section.
    ("experiments.sec2_s", "s", Home::Kernels),
    ("experiments.sec3_s", "s", Home::Kernels),
    ("experiments.sec4_s", "s", Home::Kernels),
    ("experiments.sec5_s", "s", Home::Kernels),
    ("experiments.slowest_fig_s", "s", Home::Kernels),
    ("experiments.suite_pass_s", "s", Home::Kernels),
    ("tivpar.severity_speedup_nproc", "ratio", Home::Kernels),
    ("tivpar.suite_speedup_nproc", "ratio", Home::Kernels),
];

/// Metric name → value, filled as the probes run.
type Values = BTreeMap<&'static str, f64>;

/// Where the trace of `workload` is written: `out/` inside the
/// benchmark's own directory.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("trace-{workload}.jsonl"))
}

/// Runs the traced run of `workload` and reports every per-layer metric.
pub fn run(workload: &str, sizing: &Sizing, seed: u64) -> Outcome {
    let mut rec = Recorder::new();
    let mut values = Values::new();
    let mut tally = Checked::default();
    match crate::shape_of(workload) {
        Some(shape) => {
            let wire =
                wire_layers(workload, shape, sizing, seed, &mut rec, &mut values, &mut tally);
            if let Err(e) = wire {
                eprintln!("tivmark: {workload}: traced wire run: {e}");
                tally.note(false);
            }
        }
        None => {
            kernel_layers(sizing, seed, &mut rec, &mut values);
            suite_layers(sizing, seed, &mut rec, &mut values, &mut tally);
        }
    }

    let path = trace_path(workload);
    match rec.write_jsonl(&path) {
        Ok(()) => println!("# {workload}: {} spans, trace in {}", rec.len(), path.display()),
        Err(e) => {
            eprintln!("tivmark: {workload}: writing {}: {e}", path.display());
            tally.note(false);
        }
    }
    let mut elsewhere = Vec::new();
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, home)| {
            let value = match (values.get(name), home.is(workload)) {
                (Some(&value), _) => value,
                (None, true) => {
                    eprintln!("tivmark: {workload}: {name} was not measured");
                    tally.note(false);
                    0.0
                }
                (None, false) => {
                    elsewhere.push(name);
                    0.0
                }
            };
            Metric::new(name, unit, value)
        })
        .collect();
    if !elsewhere.is_empty() {
        println!("# {workload}: measured on another workload, 0 here: {}", elsewhere.join(" "));
    }
    Outcome { attempted: tally.attempted, failed: tally.failed, metrics }
}

// ---------------------------------------------------------------------
// The wire loop, traced.
// ---------------------------------------------------------------------

/// One replica's mirror: in-process services over the replica's
/// snapshot that are fed exactly the requests the replica gets, plus the
/// sans-IO connection state the replayed frames go through.
struct Mirror {
    /// Answers through `server::handle_body`.
    served: TivServe,
    /// Answers through `TivServe::query` directly.
    direct: TivServe,
    conn: Connection,
    stats: GateStats,
}

impl Mirror {
    fn new(snapshot: &EpochSnapshot) -> Mirror {
        Mirror {
            served: TivServe::new(ServeConfig::default(), snapshot.clone()),
            direct: TivServe::new(ServeConfig::default(), snapshot.clone()),
            conn: Connection::new(),
            stats: GateStats::default(),
        }
    }
}

/// The span name of a direct `TivServe::query` call, by kind.
fn query_span(query: &QueryBatch) -> &'static str {
    match query {
        QueryBatch::Route(_) => "tivserve.query_route",
        QueryBatch::SampledSeverity { .. } => "tivserve.query_sampled",
        _ => "tivserve.query_estimate",
    }
}

/// A bare `EpochSnapshot` loop over the batch: what the answers cost
/// with no grouping, no LRU and no scatter around them.
fn snapshot_eval(snapshot: &EpochSnapshot, query: &QueryBatch) {
    let cfg = ServeConfig::default().estimate;
    match query {
        QueryBatch::Route(pairs) => {
            for &(a, c) in pairs {
                black_box(snapshot.route(a, c));
            }
        }
        QueryBatch::SampledSeverity { pairs, witnesses } => {
            for &(a, c) in pairs {
                black_box(snapshot.sampled_severity(a, c, *witnesses as usize, &cfg));
            }
        }
        other => {
            for &(a, c) in other.pairs() {
                black_box(snapshot.evaluate(a, c, &cfg));
            }
        }
    }
}

/// The epoch a response frame was answered at.
fn response_epoch(resp: &Response) -> Option<u64> {
    match resp {
        Response::Estimate { items, .. } => items.first().map(|e| e.epoch),
        Response::Route { items, .. } => items.first().map(|r| r.epoch),
        _ => None,
    }
}

/// The traced loop's connections, mirrors and the samples spans do not
/// carry.
struct Tracer<'f> {
    fixture: &'f Fixture,
    front: Front,
    direct: Vec<GateClient>,
    ring: HashRing,
    mirrors: Vec<Mirror>,
    /// Epoch the mirrors serve.
    mirror_epoch: u64,
    batches: u64,
    /// Per staged batch: the slower replica's encode + round trip + decode, µs.
    slower_share_us: Vec<f64>,
    /// Per staged batch: frames sent.
    frames: Vec<f64>,
    /// Per staged batch: request / response bytes.
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
    /// Round trip of the first batch answered at a new epoch, µs.
    post_publish_us: Vec<f64>,
    error_frames: u64,
    /// Replayed response bytes compared with the live frame.
    replayed: Checked,
}

impl<'f> Tracer<'f> {
    /// Connects a `Front` plus one direct client per replica. The two
    /// paths never have a request in flight at the same time: the loop
    /// alternates between them batch by batch.
    fn connect(fixture: &'f Fixture) -> io::Result<Tracer<'f>> {
        let addrs = fixture.handle.addrs();
        let snapshot = fixture.snapshot();
        Ok(Tracer {
            fixture,
            front: Front::connect(&addrs)?,
            direct: addrs.iter().map(|&a| GateClient::connect(a)).collect::<io::Result<_>>()?,
            ring: HashRing::new(addrs.len()),
            mirrors: addrs.iter().map(|_| Mirror::new(&snapshot)).collect(),
            mirror_epoch: snapshot.epoch(),
            batches: 0,
            slower_share_us: Vec::new(),
            frames: Vec::new(),
            req_bytes: Vec::new(),
            resp_bytes: Vec::new(),
            post_publish_us: Vec::new(),
            error_frames: 0,
            replayed: Checked::default(),
        })
    }

    /// Brings the mirrors to the snapshot the replicas serve now.
    fn sync_mirrors(&mut self) {
        for (r, mirror) in self.mirrors.iter().enumerate() {
            let Some(service) = self.fixture.handle.service(r) else { continue };
            let snapshot = service.snapshot();
            self.mirror_epoch = snapshot.epoch();
            mirror.served.publish((*snapshot).clone());
            mirror.direct.publish((*snapshot).clone());
        }
    }

    /// What a reply's epoch means for freshness and for the mirrors.
    fn saw_epoch(&mut self, epoch: Option<u64>, took_ns: f64, feeder: &mut Feeder, now_ns: u64) {
        let Some(epoch) = epoch else { return };
        feeder.fresh.saw(epoch, now_ns);
        if epoch > self.mirror_epoch {
            self.post_publish_us.push(took_ns / 1e3);
            self.sync_mirrors();
        }
    }

    /// The traced closed loop; same contract as [`Loop::run`].
    fn run(
        &mut self,
        rec: &mut Recorder,
        lp: &mut Loop<'_>,
        dur: Duration,
        feeder: &mut Feeder,
        feed: bool,
        until_fresh: bool,
    ) {
        let start = Instant::now();
        while start.elapsed() < dur && (!until_fresh || feeder.fresh.waiting()) {
            if feed {
                feeder.tick(lp.now_ns());
            }
            let (id, query) = lp.next();
            lp.attempted += 1;
            let ok = if self.batches % 2 == 0 {
                self.via_front(rec, lp, id, query, feeder)
            } else {
                self.staged(rec, lp, id, query, feeder)
            };
            self.batches += 1;
            lp.failed += u64::from(!ok);
        }
    }

    /// One batch through `Front::query`, as one span.
    fn via_front(
        &mut self,
        rec: &mut Recorder,
        lp: &Loop<'_>,
        id: u32,
        query: &QueryBatch,
        feeder: &mut Feeder,
    ) -> bool {
        let span = rec.begin("tivgate.front_query", NONE, id);
        let reply = self.front.query(query);
        let took = rec.end(span);
        match reply {
            Ok(r) if r.answers(query) && r.len() == query.len() => {
                self.saw_epoch(reply_epoch(&r), took, feeder, lp.now_ns());
                true
            }
            _ => false,
        }
    }

    /// One batch through the staged copy of the front, then replayed.
    fn staged(
        &mut self,
        rec: &mut Recorder,
        lp: &Loop<'_>,
        id: u32,
        query: &QueryBatch,
        feeder: &mut Feeder,
    ) -> bool {
        let batch = rec.begin("tivgate.batch", NONE, id);
        let shares = rec.time("tivgate.ring_split", batch, id, || ring_split(&self.ring, query));
        let mut answered = Vec::with_capacity(shares.len());
        let (mut slower_ns, mut req_bytes, mut resp_bytes) = (0.0f64, 0usize, 0usize);
        let mut ok = true;
        for (replica, share) in shares {
            let t0 = Instant::now();
            let req = rec.time("tivgate.encode_request", batch, id, || {
                encode_request(&Request::from_query(id, &share))
            });
            let client = &mut self.direct[replica];
            let frame = rec.time("tivgate.client_roundtrip", batch, id, || {
                client.send_bytes(&req).and_then(|()| client.recv_frame())
            });
            let Ok(frame) = frame else {
                ok = false;
                continue;
            };
            let resp =
                rec.time("tivgate.decode_response", batch, id, || decode_response(&frame[4..]));
            slower_ns = slower_ns.max(t0.elapsed().as_nanos() as f64);
            req_bytes += req.len();
            resp_bytes += frame.len();
            match resp {
                Ok(resp) if !matches!(resp, Response::Error { .. }) && resp.id() == id => {
                    answered.push((replica, share, req, frame, resp));
                }
                _ => {
                    self.error_frames += 1;
                    ok = false;
                }
            }
        }
        let took = rec.end(batch);
        self.slower_share_us.push(slower_ns / 1e3);
        self.frames.push(answered.len() as f64);
        self.req_bytes.push(req_bytes as f64);
        self.resp_bytes.push(resp_bytes as f64);
        let epoch = answered.iter().find_map(|(.., resp)| response_epoch(resp));
        self.saw_epoch(epoch, took, feeder, lp.now_ns());
        for (replica, share, req, frame, resp) in &answered {
            ok &= self.replay(rec, id, *replica, share, req, frame, resp);
        }
        ok
    }

    /// Replays one share on the same bytes through the public
    /// server-side functions, against the replica's mirror.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &mut self,
        rec: &mut Recorder,
        id: u32,
        replica: usize,
        share: &QueryBatch,
        req: &[u8],
        frame: &[u8],
        resp: &Response,
    ) -> bool {
        let mirror = &mut self.mirrors[replica];
        let span = rec.begin("replay", NONE, id);
        let body = rec.time("tivgate.frame", span, id, || {
            mirror.conn.ingest(req);
            mirror.conn.next_frame()
        });
        let Ok(Some(body)) = body else {
            rec.end(span);
            return false;
        };
        let decoded = rec.time("tivgate.decode_request", span, id, || decode_request(&body));
        let (wire, _fatal) = rec.time("tivgate.handle_body", span, id, || {
            handle_body(&mirror.served, &body, &mirror.stats)
        });
        black_box(rec.time("tivgate.encode_response", span, id, || encode_response(resp)));
        rec.time("tivgate.queue_flush", span, id, || {
            mirror.conn.queue(&wire);
            let n = mirror.conn.unsent().len();
            mirror.conn.advance(n);
        });
        black_box(rec.time(query_span(share), span, id, || mirror.direct.query(share)));
        let snapshot = mirror.direct.snapshot();
        rec.time("tivserve.snapshot_eval", span, id, || snapshot_eval(&snapshot, share));
        rec.end(span);
        // Answered at the mirrors' epoch, the replayed bytes are the live
        // frame (a reply without an epoch field cannot be compared: a
        // publish may have landed between the two).
        if response_epoch(resp) == Some(snapshot.epoch()) {
            self.replayed.note(wire == frame);
        }
        decoded.is_ok()
    }
}

/// Hits and lookups of every replica's estimate and route caches.
fn cache_counts(fixture: &Fixture) -> (u64, u64) {
    let mut hits = 0;
    let mut lookups = 0;
    for r in 0..fixture.handle.replicas() {
        let Some(service) = fixture.handle.service(r) else { continue };
        for stats in [service.cache_stats(), service.route_cache_stats()] {
            hits += stats.hits;
            lookups += stats.hits + stats.misses;
        }
    }
    (hits, lookups)
}

/// The 16-pair Estimate frames of the ladder, request id = position.
fn ladder_frames(matrix: &DelayMatrix, seed: u64, count: usize) -> Vec<Vec<u8>> {
    let shape = Shape { list_batches: count, ..wire::WIRE_SMALL };
    generate_queries(&shape, seed, matrix)
        .iter()
        .enumerate()
        .map(|(i, q)| encode_request(&Request::from_query(i as u32, q)))
        .collect()
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The workload's loop traced and the end-of-run checks; on
/// `wire_small` the ladder, on `churn_mixed` the epoch probes, on the
/// same deployment.
fn wire_layers(
    workload: &str,
    shape: &Shape,
    sizing: &Sizing,
    seed: u64,
    rec: &mut Recorder,
    values: &mut Values,
    tally: &mut Checked,
) -> io::Result<()> {
    let plan = Plan { setups: 1, ..sizing.plan() };
    let (mut fixture, mut client) = wire::set_up(shape, &plan, seed, tally)?;
    let feed = fixture.handle.feed().expect("publisher attached");
    let mut feeder = Feeder::new(feed, std::mem::take(&mut fixture.observations), FEED_RATE);
    let during = shape.feed_during_run;
    let slice = Duration::from_secs_f64(plan.traced_slice_s);

    let (attempted, failed) = {
        let mut lp = Loop::new(&fixture.queries);
        // As in the untraced run, but without the change of CPU: the
        // slices of a traced run are only compared with each other.
        let cpus = affinity::allowed_cpus();
        let (shared_cpu, pinned) = SharedCpu::pin_on(cpus.first());
        let awake = shape.fans_out.then(|| Awake::keep(&cpus));
        lp.run(&mut client, Duration::from_secs_f64(plan.warmup_s), &mut feeder, during, false);
        // One untraced slice in the same process: the base of
        // `trace_overhead` and of the closed-loop p99.
        let untraced = lp.run(&mut client, slice, &mut feeder, during, false);
        drop(client);

        let mut tracer = Tracer::connect(&fixture)?;
        let (hits0, lookups0) = cache_counts(&fixture);
        for _ in 0..2 {
            tracer.run(rec, &mut lp, slice, &mut feeder, during, false);
        }
        let (hits1, lookups1) = cache_counts(&fixture);
        stage_values(rec, &tracer, &untraced, values);
        values.insert(
            "tivserve.cache_hit_rate",
            (hits1 - hits0) as f64 / (lookups1 - lookups0).max(1) as f64,
        );
        if workload == "wire_small" {
            // The budget identity, in the repo's own style
            // (`observations == delivered + undelivered`): the three
            // client stages account for the traced batch to within 10 %.
            tally.note(values["tivgate.budget_gap_share"] <= 0.10);
        }
        // Keep reading until the last closed epoch shows up (2 s at most).
        tracer.run(rec, &mut lp, Duration::from_secs(2), &mut feeder, false, true);
        feeder.fresh.expire(u64::MAX);
        // Every pinned thread gets its mask back: what follows runs
        // against an unpinned deployment.
        drop(awake);
        drop(shared_cpu);
        println!(
            "# {workload}: traced {} batches; request path pinned: {pinned}; trace_overhead {:.3}",
            tracer.batches, values["tivgate.trace_overhead"]
        );

        kind_fill(rec, &tracer, &fixture.queries, values);
        if during {
            values.insert(
                "tivserve.post_publish_first_batch_us",
                stats::median(&tracer.post_publish_us),
            );
        }
        let mirror_errors: u64 = tracer
            .mirrors
            .iter()
            .map(|m| m.stats.error_frames.load(std::sync::atomic::Ordering::Relaxed))
            .sum();
        values.insert("tivgate.error_frames", (tracer.error_frames + mirror_errors) as f64);
        tally.absorb(tracer.replayed);
        tally.failed += tracer.error_frames + mirror_errors;
        (lp.attempted, lp.failed)
    };
    tally.attempted += attempted + feeder.fresh.closed() + feeder.sent as u64;
    tally.failed += failed + feeder.fresh.overdue + feeder.undelivered;

    if Home::Ladder.is(workload) {
        ladder(&fixture, sizing, seed, rec, values, tally)?;
    }

    let served = fixture.handle.service(0).expect("replica 0 is up");
    let sample: Vec<(NodeId, NodeId)> =
        fixture.queries.iter().take(256).flat_map(|q| q.pairs().iter().copied()).collect();
    let histogram = served.shard_histogram(&sample);
    let occupancy: Vec<f64> = histogram.iter().map(|&c| c as f64).collect();
    values.insert(
        "tivserve.shard_occupancy_max_over_mean",
        occupancy.iter().copied().fold(0.0, f64::max) / mean(&occupancy).max(1.0),
    );
    values.insert("tivserve.fanout_share", fixture.fanout.0);

    let mut checker = Client::connect(&fixture)?;
    let counts = wire::check_final_state(&mut fixture, &mut checker, &feeder, tally);
    drop(checker);
    if Home::Epochs.is(workload) {
        values.insert("tivserve.epochs_published", counts.epochs_published as f64);
        values.insert("tivserve.builds_incremental", counts.builds_incremental as f64);
        values.insert("tivserve.builds_full", counts.builds_full as f64);
        values.insert("tivserve.dirty_fraction_mean", counts.dirty_fraction_mean);
        epoch_layers(&fixture, shape, seed, rec, values);
    }
    values.insert("tivgate.requests_served", fixture.handle.requests_served() as f64);
    values.insert("tivgate.backpressure_pauses", fixture.handle.backpressure_pauses() as f64);
    fixture.handle.shutdown()
}

/// The open-loop ladder against replica 0: three rungs of 16-pair
/// Estimate batches on the one generator thread. Nothing is pinned here:
/// a generator that never sleeps must not share a CPU with the serving
/// loop it loads.
fn ladder(
    fixture: &Fixture,
    sizing: &Sizing,
    seed: u64,
    rec: &mut Recorder,
    values: &mut Values,
    tally: &mut Checked,
) -> io::Result<()> {
    let rung_s = (sizing.seconds / 10.0).max(0.3);
    let frames = ladder_frames(&fixture.matrix, seed, (8000.0 * rung_s) as usize);
    let addr = fixture.handle.addrs()[0];
    let mut rungs: Vec<Rung> = Vec::new();
    for (rate, name) in [
        (2000.0, "tivgate.ladder_2k"),
        (4000.0, "tivgate.ladder_4k"),
        (8000.0, "tivgate.ladder_8k"),
    ] {
        let rung =
            rec.time(name, NONE, NONE, || openloop::run_rung(addr, &frames, rate, rung_s))?;
        tally.attempted += rung.attempted;
        tally.failed += rung.failed;
        rungs.push(rung);
    }
    values.insert("tivgate.open_p50_us_2k", rungs[0].p50_us());
    values.insert("tivgate.open_p50_us_4k", rungs[1].p50_us());
    values.insert("tivgate.open_p50_us_8k", rungs[2].p50_us());
    values.insert("tivgate.open_p99_us_4k", rungs[1].p99_us());
    values.insert("tivgate.late_share_8k", rungs[2].late_share);
    values.insert("tivgate.max_lag_us_8k", rungs[2].max_lag_us);
    Ok(())
}

/// The loop-level `tivgate` and `tivserve` numbers, from the spans of
/// the traced slices.
fn stage_values(rec: &Recorder, tracer: &Tracer<'_>, untraced: &wire::Slice, values: &mut Values) {
    let ns = |name: &str| rec.median_ns(name);
    values.insert("tivgate.encode_request_ns", ns("tivgate.encode_request"));
    values.insert("tivgate.decode_response_ns", ns("tivgate.decode_response"));
    values.insert("tivgate.client_roundtrip_us", ns("tivgate.client_roundtrip") / 1e3);
    values.insert("tivgate.frame_ns", ns("tivgate.frame"));
    values.insert("tivgate.decode_request_ns", ns("tivgate.decode_request"));
    values.insert("tivgate.handle_body_ns", ns("tivgate.handle_body"));
    values.insert("tivgate.encode_response_ns", ns("tivgate.encode_response"));
    values.insert("tivgate.queue_flush_ns", ns("tivgate.queue_flush"));
    // By construction: the replayed server stages plus the residual are
    // the client's round trip (`handle_body` contains the decode, the
    // query and the encode).
    let replayed = ns("tivgate.frame") + ns("tivgate.handle_body") + ns("tivgate.queue_flush");
    values.insert("tivgate.socket_residual_us", (ns("tivgate.client_roundtrip") - replayed) / 1e3);
    values.insert("tivgate.bytes_per_batch_req", mean(&tracer.req_bytes));
    values.insert("tivgate.bytes_per_batch_resp", mean(&tracer.resp_bytes));
    values.insert("tivgate.batch_p99_us", stats::quantile(&untraced.lat_us, 0.99));
    // What of a staged batch its stages do not cover (loop and recorder).
    values.insert(
        "tivgate.budget_gap_share",
        rec.median_self_ns("tivgate.batch") / rec.median_ns("tivgate.batch").max(1.0),
    );
    let mut traced = rec.durations("tivgate.batch");
    traced.extend(rec.durations("tivgate.front_query"));
    values.insert("tivgate.trace_overhead", stats::median(&traced) / 1e3 / untraced.p50_us());

    values.insert("tivgate.front_query_us", ns("tivgate.front_query") / 1e3);
    values.insert("tivgate.ring_split_ns", ns("tivgate.ring_split"));
    values.insert(
        "tivgate.front_overhead_us",
        ns("tivgate.front_query") / 1e3 - stats::median(&tracer.slower_share_us),
    );
    values.insert("tivgate.frames_per_batch", mean(&tracer.frames));

    let mut queries = Vec::new();
    for name in ["tivserve.query_estimate", "tivserve.query_route", "tivserve.query_sampled"] {
        queries.extend(rec.durations(name));
    }
    let query_ns = stats::median(&queries);
    values.insert("tivserve.query_ns", query_ns);
    values.insert("tivserve.snapshot_eval_ns", ns("tivserve.snapshot_eval"));
    values.insert("tivserve.dispatch_overhead_ns", query_ns - ns("tivserve.snapshot_eval"));
}

/// `TivServe::query` per kind. A workload whose list does not carry a
/// kind gets it from a short probe: its own pairs, asked as that kind,
/// against the mirror.
fn kind_fill(rec: &mut Recorder, tracer: &Tracer<'_>, queries: &[QueryBatch], values: &mut Values) {
    let mirror = &tracer.mirrors[0].direct;
    type MakeBatch = fn(Vec<(NodeId, NodeId)>) -> QueryBatch;
    let kinds: [(&'static str, &'static str, MakeBatch); 3] = [
        ("tivserve.query_estimate", "tivserve.query_estimate_ns", QueryBatch::Estimate),
        ("tivserve.query_route", "tivserve.query_route_ns", QueryBatch::Route),
        ("tivserve.query_sampled", "tivserve.query_sampled_ns", |pairs| {
            QueryBatch::SampledSeverity { pairs, witnesses: SAMPLED_WITNESSES }
        }),
    ];
    for (span, metric, make) in kinds {
        if !rec.has(span) {
            for q in queries.iter().take(128) {
                let probe = make(q.pairs().to_vec());
                black_box(rec.time(span, NONE, NONE, || mirror.query(&probe)));
            }
        }
        values.insert(metric, rec.median_ns(span));
    }
}

// ---------------------------------------------------------------------
// The epoch path, stage by stage.
// ---------------------------------------------------------------------

/// Sorted, de-duplicated endpoints of `observations`.
fn dirty_rows(observations: &[tivserve::epoch::Observation]) -> Vec<NodeId> {
    let mut rows: Vec<NodeId> = observations.iter().flat_map(|o| [o.src, o.dst]).collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// ingest → repair-or-rebuild → publish → flush, and the kernels under
/// the repair, each timed on its own against the fixture's matrix.
fn epoch_layers(
    fixture: &Fixture,
    shape: &Shape,
    seed: u64,
    rec: &mut Recorder,
    values: &mut Values,
) {
    let matrix = &fixture.matrix;
    let epochs = 5;
    let burst = matrix.len() / 2;
    let observations =
        generate_observations(shape, seed ^ 0xfeed, matrix, epochs * OBS_PER_EPOCH + burst);
    let (steady, burst) = observations.split_at(epochs * OBS_PER_EPOCH);

    // The repair regime: the 16-observation epochs the feeder produces.
    let mut builder = fixture.replay.clone();
    let mut snapshot = None;
    for group in steady.chunks(OBS_PER_EPOCH) {
        for &obs in group {
            rec.time("tivserve.ingest", NONE, NONE, || builder.ingest(obs));
        }
        snapshot = Some(rec.time("tivserve.flux_build", NONE, NONE, || builder.build()));
    }
    let snapshot = snapshot.expect("at least one epoch");
    // A burst that dirties enough rows for the policy to rebuild.
    for &obs in burst {
        builder.ingest(obs);
    }
    black_box(rec.time("tivserve.flux_build_full", NONE, NONE, || builder.build()));
    // The classic builder, for comparison: re-embeds everything.
    let (mut classic, _) = EpochBuilder::bootstrap(matrix.clone(), EpochConfig::default());
    for &obs in &steady[..OBS_PER_EPOCH] {
        classic.ingest(obs);
    }
    black_box(rec.time("tivserve.epoch_build", NONE, NONE, || classic.build()));
    drop(classic);

    let sink = TivServe::new(ServeConfig::default(), snapshot.clone());
    for _ in 0..5 {
        let next = snapshot.clone();
        rec.time("tivserve.publish", NONE, NONE, || sink.publish(next));
    }
    // `FeedSender::flush` round trip on the live deployment: nothing is
    // pending, so this is the engine's fixed cost — an empty build,
    // a publish into every replica, the ack.
    for _ in 0..3 {
        black_box(rec.time("tivserve.flush", NONE, NONE, || fixture.handle.publish_now()));
    }
    values.insert("tivserve.ingest_ns_per_obs", rec.median_ns("tivserve.ingest"));
    values.insert("tivserve.flux_build_ms", ms(rec.median_ns("tivserve.flux_build")));
    values.insert("tivserve.flux_build_full_ms", ms(rec.median_ns("tivserve.flux_build_full")));
    values.insert("tivserve.epoch_build_ms", ms(rec.median_ns("tivserve.epoch_build")));
    values.insert("tivserve.publish_us", rec.median_ns("tivserve.publish") / 1e3);
    values.insert("tivserve.flush_ms", ms(rec.median_ns("tivserve.flush")));

    // The kernels under one repaired epoch, on the same dirty set.
    let group = &steady[..OBS_PER_EPOCH];
    let dirty = dirty_rows(group);
    let mut changed = matrix.clone();
    for obs in group {
        changed.set(obs.src, obs.dst, obs.rtt_ms);
    }
    let derived = tivflux::DerivedState::compute(matrix, 1, 0);
    for _ in 0..3 {
        let mut state = derived.clone();
        rec.time("tivflux.repair", NONE, NONE, || state.repair(&changed, &dirty, 0));
    }
    let mut state = derived;
    rec.time("tivflux.rebuild", NONE, NONE, || state.rebuild(&changed, 0));
    drop(state);
    let embedding = snapshot.embedding();
    for _ in 0..3 {
        black_box(rec.time("tivflux.refine", NONE, NONE, || {
            tivflux::refine_embedding(
                embedding,
                &changed,
                &dirty,
                &tivflux::RefineConfig::default(),
                0,
            )
        }));
    }
    let severity = tivcore::Severity::compute(matrix, 0);
    for _ in 0..3 {
        let mut sev = severity.clone();
        rec.time("tivcore.severity_repair_rows", NONE, NONE, || {
            sev.repair_rows(&changed, &dirty, 0)
        });
    }
    drop(severity);
    let table = tivroute::DetourTable::compute(matrix, 1, 0);
    for _ in 0..3 {
        let mut t = table.clone();
        rec.time("tivroute.detour_repair_rows", NONE, NONE, || t.repair_rows(&changed, &dirty, 0));
    }
    values.insert("tivflux.repair_ms", ms(rec.median_ns("tivflux.repair")));
    values.insert("tivflux.rebuild_ms", ms(rec.median_ns("tivflux.rebuild")));
    values.insert("tivflux.refine_ms", ms(rec.median_ns("tivflux.refine")));
    values.insert(
        "tivcore.severity_repair_rows_ms",
        ms(rec.median_ns("tivcore.severity_repair_rows")),
    );
    values
        .insert("tivroute.detour_repair_rows_ms", ms(rec.median_ns("tivroute.detour_repair_rows")));
}

// ---------------------------------------------------------------------
// The kernels the paper suite is made of.
// ---------------------------------------------------------------------

/// Seeded distinct-endpoint pairs over `0..n`.
fn probe_pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|i| ((i * 7919) % n, (i * 104_729 + 1 + (i * 7919) % n) % n))
        .filter(|&(a, c)| a != c)
        .collect()
}

/// One probe per kernel at the suite's own DS² size (800 nodes at
/// `Small`), all with `threads = 0` as the suite calls them.
fn kernel_layers(sizing: &Sizing, seed: u64, rec: &mut Recorder, values: &mut Values) {
    use meridian::{closest_neighbor, BuildOptions, MeridianConfig, MeridianOverlay, Termination};
    use simnet::net::{JitterModel, Network};
    let n = sizing.suite.nodes(Dataset::Ds2);
    let space = rec.time("delayspace.synth", NONE, NONE, || {
        InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed)
    });
    let matrix = space.into_matrix();
    black_box(rec.time("delayspace.apsp", NONE, NONE, || ShortestPaths::compute(&matrix, 0)));

    let mut severity = None;
    for _ in 0..3 {
        severity = Some(
            rec.time("tivcore.severity", NONE, NONE, || tivcore::Severity::compute(&matrix, 0)),
        );
    }
    let severity = severity.expect("computed");
    for _ in 0..2 {
        black_box(rec.time("tivcore.severity_serial", NONE, NONE, || {
            tivcore::Severity::compute(&matrix, 1)
        }));
    }
    let pairs = probe_pairs(n, 4096);
    rec.time("tivcore.sampled_severity_batch", NONE, NONE, || {
        for (i, &(a, c)) in pairs.iter().enumerate() {
            black_box(tivcore::estimate_severity_ci(&matrix, a, c, 64, seed + i as u64));
        }
    });

    let mut system = vivaldi::VivaldiSystem::new(vivaldi::VivaldiConfig::default(), n, seed);
    let mut net = Network::new(&matrix, JitterModel::None, seed);
    rec.time("vivaldi.embed", NONE, NONE, || {
        system.run_rounds(&mut net, 300);
    });
    let embedding = system.embedding();
    let thresholds: Vec<f64> = (1..=20).map(|i| f64::from(i) * 0.05).collect();
    black_box(rec.time("tivcore.alert_sweep", NONE, NONE, || {
        tivcore::accuracy_recall_sweep(&embedding, &matrix, &severity, 0.10, &thresholds)
    }));

    black_box(rec.time("tivroute.detour_table", NONE, NONE, || {
        tivroute::DetourTable::compute(&matrix, 1, 0)
    }));
    let few = &pairs[..pairs.len().min(512)];
    rec.time("tivroute.best_detour_batch", NONE, NONE, || {
        for &(a, c) in few {
            black_box(tivroute::best_detour(&matrix, a, c));
        }
    });

    let members: Vec<NodeId> = (0..n / 2).collect();
    let mut net = Network::new(&matrix, JitterModel::None, seed);
    let overlay = rec.time("meridian.build", NONE, NONE, || {
        MeridianOverlay::build(
            MeridianConfig::default(),
            members,
            &mut net,
            seed,
            &BuildOptions::default(),
        )
    });
    for target in (n / 2..n).take(200) {
        black_box(rec.time("meridian.query", NONE, NONE, || {
            closest_neighbor(&overlay, &mut net, target % (n / 2), target, Termination::Beta)
        }));
    }

    // The full-matrix fits are the oracle the suite compares against and
    // cost seconds at 800 nodes; 300 keep the probe in proportion.
    let corner = matrix.submatrix(&(0..n.min(300)).collect::<Vec<NodeId>>());
    black_box(rec.time("ides.svd", NONE, NONE, || {
        ides::IdesModel::fit(&corner, 10, ides::Factorization::Svd, seed)
    }));
    black_box(rec.time("ides.nmf", NONE, NONE, || {
        ides::IdesModel::fit(&corner, 10, ides::Factorization::Nmf, seed)
    }));

    let ns = |name: &str| rec.median_ns(name);
    values.insert("delayspace.synth_ms", ms(ns("delayspace.synth")));
    values.insert("delayspace.apsp_ms", ms(ns("delayspace.apsp")));
    values.insert("tivcore.severity_ms", ms(ns("tivcore.severity")));
    values.insert(
        "tivpar.severity_speedup_nproc",
        ns("tivcore.severity_serial") / ns("tivcore.severity").max(1.0),
    );
    values.insert(
        "tivcore.sampled_severity_ns_per_pair",
        ns("tivcore.sampled_severity_batch") / pairs.len() as f64,
    );
    values.insert("vivaldi.embed_ms", ms(ns("vivaldi.embed")));
    values.insert("tivcore.alert_sweep_ms", ms(ns("tivcore.alert_sweep")));
    values.insert("tivroute.detour_table_ms", ms(ns("tivroute.detour_table")));
    values.insert("tivroute.best_detour_ns", ns("tivroute.best_detour_batch") / few.len() as f64);
    values.insert("meridian.build_ms", ms(ns("meridian.build")));
    values.insert("meridian.query_us", ns("meridian.query") / 1e3);
    values.insert("ides.svd_ms", ms(ns("ides.svd")));
    values.insert("ides.nmf_ms", ms(ns("ides.nmf")));
}

// ---------------------------------------------------------------------
// The paper suite, by section.
// ---------------------------------------------------------------------

/// One serial and one parallel pass: the sections' shares of a pass, the
/// slowest figure, and what the pool buys the suite as a whole.
fn suite_layers(
    sizing: &Sizing,
    seed: u64,
    rec: &mut Recorder,
    values: &mut Values,
    tally: &mut Checked,
) {
    let serial =
        rec.time("experiments.pass_serial", NONE, NONE, || suite::pass(sizing.suite, seed, 1));
    let parallel = rec.time("experiments.pass", NONE, NONE, || suite::pass(sizing.suite, seed, 0));
    tally.attempted += parallel.outcomes.len() as u64;
    tally.failed += suite::mismatches(&suite::csvs(&serial), &parallel);
    let mut sections = [0.0f64; 4];
    for outcome in &parallel.outcomes {
        sections[suite::section_of(&outcome.id)] += outcome.seconds;
    }
    values.insert("experiments.sec2_s", sections[0]);
    values.insert("experiments.sec3_s", sections[1]);
    values.insert("experiments.sec4_s", sections[2]);
    values.insert("experiments.sec5_s", sections[3]);
    values.insert(
        "experiments.slowest_fig_s",
        parallel.outcomes.iter().map(|o| o.seconds).fold(0.0, f64::max),
    );
    values.insert("experiments.suite_pass_s", parallel.wall_s);
    values.insert("tivpar.suite_speedup_nproc", serial.wall_s / parallel.wall_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in PER_LAYER {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(name.contains('.'), "{name} does not say which layer it measures");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn every_metric_has_one_home_workload_kind_and_every_workload_measures_some() {
        for workload in crate::WORKLOADS {
            assert!(PER_LAYER.iter().any(|&(.., home)| home.is(workload)), "{workload}");
        }
        // The ladder is `wire_small`'s alone, the epoch path `churn_mixed`'s,
        // the kernels `paper_suite`'s; the loop is every wire workload's.
        let homes = |home: Home| crate::WORKLOADS.iter().filter(|w| home.is(w)).count();
        assert_eq!(homes(Home::Loop), 3);
        assert_eq!(homes(Home::Ladder), 1);
        assert_eq!(homes(Home::Epochs), 1);
        assert_eq!(homes(Home::Kernels), 1);
        assert!(!Home::Loop.is("paper_suite"));
    }

    #[test]
    fn probe_pairs_never_pair_a_node_with_itself() {
        for n in [2, 150, 800] {
            let pairs = probe_pairs(n, 1000);
            assert!(!pairs.is_empty());
            assert!(pairs.iter().all(|&(a, c)| a != c && a < n && c < n));
        }
    }
}
