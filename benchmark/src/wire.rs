//! The three wire workloads: one generator thread, a closed loop with
//! one batch outstanding, at most two connections.
//!
//! | workload      | batch | sources  | kinds                      | client              | writes   |
//! |---------------|-------|----------|----------------------------|---------------------|----------|
//! | `wire_small`  | 16    | Zipf 1.2 | Estimate                   | 1 `GateClient`      | none     |
//! | `wire_bulk`   | 1024  | uniform  | Estimate → Route → Sampled | `Front`, 2 replicas | none     |
//! | `churn_mixed` | 64    | Zipf 0.9 | Estimate                   | 1 `GateClient`      | 80 obs/s |
//!
//! Every deployment has the `FluxBuilder` publisher attached, so all
//! three get the same end-of-run check; only `churn_mixed` feeds it.

use crate::affinity::{self, Awake, SharedCpu};
use crate::feed::Feeder;
use crate::fixture::{
    check_wire_identity, reply_epoch, Checked, Client, Fixture, Kinds, Shape, FEED_RATE,
    OBS_PER_EPOCH,
};
use crate::stats;
use std::io;
use std::time::{Duration, Instant};
use tivflux::BuildKind;
use tivserve::query::QueryBatch;
use tivserve::service::{ServeConfig, TivServe};

/// `wire_small`: per-frame cost is at least two thirds of each round
/// trip; `tivserve` mostly hits its caches and the kernels idle.
pub const WIRE_SMALL: Shape = Shape {
    batch: 16,
    zipf_s: 1.2,
    kinds: Kinds::Estimate,
    replicas: 1,
    // 262 144 pairs: the distinct ones fit the default LRUs (4 x 65 536).
    list_batches: 16_384,
    feed_during_run: false,
    fans_out: false,
};

/// `wire_bulk`: snapshot evaluation, cache misses, shard fan-out and the
/// sampled-severity kernel do most of the work; per-frame cost is
/// amortised 32x; the only workload through `Front`/`HashRing`.
pub const WIRE_BULK: Shape = Shape {
    // `Front` splits a batch over the two replicas by `HashRing` before
    // any `TivServe` sees it: 1024 pairs arrive as two shares of 512 +- 16
    // (one sigma), every one of them 16 sigma above the default
    // `parallel_threshold` of 256. (The issue's 512 arrives as 256 +- 11:
    // on the boundary, about half the shares inline.)
    batch: 1024,
    zipf_s: 0.0,
    kinds: Kinds::Cycle,
    replicas: 2,
    // 3072 x 1024 = 3.1 M uniform pairs, a third of them per kind: each
    // cached kind cycles through ~1 M pairs, about 2x what the two
    // replicas' LRUs hold together (4x one replica's), so a cyclic pass
    // keeps missing.
    list_batches: 3_072,
    feed_during_run: false,
    fans_out: true,
};

/// `churn_mixed`: writes beside reads — ingest → repair → assemble →
/// publish → cache clear while the read loop continues.
pub const CHURN_MIXED: Shape = Shape {
    batch: 64,
    zipf_s: 0.9,
    kinds: Kinds::Estimate,
    replicas: 1,
    list_batches: 8_192,
    feed_during_run: true,
    fans_out: false,
};

/// How long and how often one run measures.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Nodes of the serving fixture.
    pub nodes: usize,
    /// Times the whole set-up is repeated (`setup_s` is their median).
    pub setups: usize,
    /// Untimed warm-up of the loop: caches fill, pool threads start.
    pub warmup_s: f64,
    /// Timed slices.
    pub slices: usize,
    /// Seconds per slice.
    pub slice_s: f64,
    /// Seconds per slice of the traced run, which only ever compares
    /// slices of one process with each other and wants them long.
    pub traced_slice_s: f64,
    /// Seconds of feeding before freshness samples count (see
    /// [`Feeder::settled_fresh_ms`]).
    pub settle_s: f64,
}

impl Plan {
    /// Observations to generate for `shape`: whole epochs only, enough
    /// for warm-up and slices with room to spare; none for a read-only
    /// workload.
    pub fn observations(&self, shape: &Shape) -> usize {
        if !shape.feed_during_run {
            return 0;
        }
        let feed_s = self.warmup_s + self.slices as f64 * self.slice_s + 1.0;
        ((feed_s * FEED_RATE).ceil() as usize).div_ceil(OBS_PER_EPOCH) * OBS_PER_EPOCH
    }
}

/// One timed slice of the closed loop.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    /// Round-trip time of every batch, µs.
    pub lat_us: Vec<f64>,
    /// Pairs answered.
    pub pairs: u64,
    /// Wall time of the slice.
    pub elapsed_s: f64,
}

impl Slice {
    /// Median batch round trip, µs.
    pub fn p50_us(&self) -> f64 {
        stats::median(&self.lat_us)
    }

    /// Pairs answered per second.
    pub fn pairs_per_s(&self) -> f64 {
        self.pairs as f64 / self.elapsed_s
    }
}

/// The loop's position in the query list plus its failure tally.
pub struct Loop<'a> {
    queries: &'a [QueryBatch],
    cursor: usize,
    origin: Instant,
    /// Batches sent.
    pub attempted: u64,
    /// I/O errors, error frames, wrong-kind or short replies.
    pub failed: u64,
}

impl<'a> Loop<'a> {
    /// A loop starting at the head of `queries`.
    pub fn new(queries: &'a [QueryBatch]) -> Loop<'a> {
        Loop { queries, cursor: 0, origin: Instant::now(), attempted: 0, failed: 0 }
    }

    /// Nanoseconds on the loop's clock (the feeder's clock).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The next batch of the cyclic list and its request id.
    pub fn next(&mut self) -> (u32, &'a QueryBatch) {
        let q = &self.queries[self.cursor % self.queries.len()];
        self.cursor += 1;
        (self.cursor as u32, q)
    }

    /// Runs the closed loop for `dur` (or, with `until_fresh`, until the
    /// feeder has no epoch left waiting), feeding due observations
    /// between batches when `feed` is set.
    pub fn run(
        &mut self,
        client: &mut Client,
        dur: Duration,
        feeder: &mut Feeder,
        feed: bool,
        until_fresh: bool,
    ) -> Slice {
        let mut slice = Slice::default();
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            if t0 - start >= dur || (until_fresh && !feeder.fresh.waiting()) {
                slice.elapsed_s = (t0 - start).as_secs_f64();
                return slice;
            }
            if feed {
                feeder.tick(self.now_ns());
            }
            let (id, q) = self.next();
            let reply = client.query(id, q);
            slice.lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            self.attempted += 1;
            match reply {
                Ok(r) if r.answers(q) && r.len() == q.len() => {
                    slice.pairs += q.len() as u64;
                    if let Some(epoch) = reply_epoch(&r) {
                        feeder.fresh.saw(epoch, self.now_ns());
                    }
                }
                _ => self.failed += 1,
            }
        }
    }
}

/// What the publisher did, reconstructed by replaying the same
/// observations through a copy of the bootstrapped builder (the live
/// builder is owned by the publisher thread; the replay is bit-identical
/// to it, which the final-answer check proves).
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochCounts {
    /// Epochs the publisher built on the 16-observation threshold.
    pub epochs_published: u64,
    /// Of those, repaired row by row.
    pub builds_incremental: u64,
    /// Of those, rebuilt from scratch.
    pub builds_full: u64,
    /// Mean dirty-row fraction going into a build.
    pub dirty_fraction_mean: f64,
}

/// Everything an untraced wire run measured.
pub struct WireRun {
    /// The timed slices.
    pub slices: Vec<Slice>,
    /// One sample per epoch that became visible once the publisher had
    /// settled, ms (none on a read-only workload).
    pub fresh_ms: Vec<f64>,
    /// One sample per set-up, s.
    pub setup_s: Vec<f64>,
    /// Share, smallest and largest of the per-replica shares that take
    /// the shard fan-out (`fixture::fanout_share`).
    pub fanout: (f64, usize, usize),
    /// Operations attempted: batches, byte comparisons, epochs, observations.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The publisher's work.
    pub epochs: EpochCounts,
    /// Whether the request path shared one CPU in every slice (see `affinity`).
    pub pinned: bool,
}

/// Sets the fixture up once: everything a user waits for before the
/// first query can be trusted (synth, bootstrap, spawn, generate,
/// connect, byte-identity check) — and the check that the generated
/// traffic is the traffic the workload is documented to be: every
/// replica's share of every batch on the side of `parallel_threshold`
/// the shape names.
pub fn set_up(
    shape: &Shape,
    plan: &Plan,
    seed: u64,
    tally: &mut Checked,
) -> io::Result<(Fixture, Client)> {
    let fixture = Fixture::start(shape, plan.nodes, seed, plan.observations(shape))?;
    let mut client = Client::connect(&fixture)?;
    tally.absorb(check_wire_identity(&fixture, &mut client, &fixture.reference(), 4));
    tally.note(fixture.fanout.0 == if shape.fans_out { 1.0 } else { 0.0 });
    Ok((fixture, client))
}

/// After the loop: the publisher must have built exactly
/// ⌊observations ÷ 16⌋ epochs; then `publish_now()` and the final wire
/// answers must be byte-identical to an in-process replay of the same
/// observation list through a copy of the bootstrapped builder.
pub fn check_final_state(
    fixture: &mut Fixture,
    client: &mut Client,
    feeder: &Feeder,
    tally: &mut Checked,
) -> EpochCounts {
    let sent = feeder.sent_observations();
    let expected = (sent.len() / OBS_PER_EPOCH) as u64;
    tally.note(fixture.handle.latest_epoch() == expected);
    tally.note(fixture.handle.publish_now() == Some(expected + 1));

    let mut counts = EpochCounts { epochs_published: expected, ..EpochCounts::default() };
    let mut dirty_sum = 0.0;
    for group in sent.chunks(OBS_PER_EPOCH) {
        for &obs in group {
            fixture.replay.ingest(obs);
        }
        if group.len() == OBS_PER_EPOCH {
            fixture.replay.build();
            let outcome = fixture.replay.last_outcome().expect("just built");
            match outcome.kind {
                BuildKind::Incremental => counts.builds_incremental += 1,
                BuildKind::Full => counts.builds_full += 1,
            }
            dirty_sum += outcome.dirty_fraction;
        }
    }
    counts.dirty_fraction_mean = dirty_sum / expected.max(1) as f64;
    // The flush builds whatever is pending (possibly nothing) as one
    // more epoch.
    let replayed = TivServe::new(ServeConfig::default(), fixture.replay.build());
    tally.absorb(check_wire_identity(fixture, client, &replayed, 4));
    counts
}

/// Runs one wire workload untraced.
pub fn run(shape: &Shape, plan: &Plan, seed: u64) -> io::Result<WireRun> {
    let mut tally = Checked::default();
    let mut setup_s = Vec::with_capacity(plan.setups);
    let mut timed_set_up = || {
        let t0 = Instant::now();
        let ready = set_up(shape, plan, seed, &mut tally);
        setup_s.push(t0.elapsed().as_secs_f64());
        ready
    };
    let (mut fixture, mut client) = timed_set_up()?;
    for _ in 1..plan.setups {
        // The earlier fixture is gone before the next one is built.
        drop(client);
        fixture.handle.shutdown()?;
        (fixture, client) = timed_set_up()?;
    }

    let feed = fixture.handle.feed().expect("publisher attached");
    let mut feeder = Feeder::new(feed, std::mem::take(&mut fixture.observations), FEED_RATE);
    let mut lp = Loop::new(&fixture.queries);
    let during = shape.feed_during_run;
    // Asked before the first pin: a pinned thread is allowed one CPU.
    let cpus = affinity::allowed_cpus();
    let (mut shared_cpu, mut pinned) = SharedCpu::pin_on(cpus.first());
    // Only the fan-out wakes threads on other CPUs (see `Awake`).
    let awake = shape.fans_out.then(|| Awake::keep(&cpus));

    lp.run(&mut client, Duration::from_secs_f64(plan.warmup_s), &mut feeder, during, false);
    let slice = Duration::from_secs_f64(plan.slice_s);
    let mut slices = Vec::with_capacity(plan.slices);
    for i in 0..plan.slices {
        if cpus.len() > 1 {
            // The request path moves on to the next CPU (see `affinity`);
            // the guard before it restores the masks first.
            drop(shared_cpu);
            let (guard, ok) = SharedCpu::pin_on(cpus.get(i % cpus.len()));
            shared_cpu = guard;
            pinned &= ok;
        }
        slices.push(lp.run(&mut client, slice, &mut feeder, during, false));
    }
    // Keep reading until the last closed epoch shows up (2 s at most).
    lp.run(&mut client, Duration::from_secs(2), &mut feeder, false, true);
    feeder.fresh.expire(u64::MAX);
    drop(awake);
    drop(shared_cpu);

    let (attempted, failed) = (lp.attempted, lp.failed);
    let epochs = check_final_state(&mut fixture, &mut client, &feeder, &mut tally);
    drop(client);
    fixture.handle.shutdown()?;

    Ok(WireRun {
        slices,
        fresh_ms: feeder.settled_fresh_ms(plan.settle_s),
        setup_s,
        fanout: fixture.fanout,
        attempted: attempted + tally.attempted + feeder.fresh.closed() + feeder.sent as u64,
        failed: failed + tally.failed + feeder.fresh.overdue + feeder.undelivered,
        epochs,
        pinned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan small enough for a unit test: 64 nodes, two 0.15 s slices.
    fn tiny() -> Plan {
        Plan {
            nodes: 64,
            setups: 2,
            warmup_s: 0.05,
            slices: 2,
            slice_s: 0.15,
            traced_slice_s: 0.15,
            settle_s: 0.0,
        }
    }

    #[test]
    fn observations_are_generated_in_whole_epochs_and_only_for_a_fed_workload() {
        let n = tiny().observations(&CHURN_MIXED);
        assert!(n > 0 && n % OBS_PER_EPOCH == 0, "{n} observations");
        // Warm-up and slices at the feed rate are covered.
        assert!(n as f64 >= (0.05 + 2.0 * 0.15) * FEED_RATE);
        assert_eq!(tiny().observations(&WIRE_SMALL), 0);
        assert_eq!(tiny().observations(&WIRE_BULK), 0);
    }

    #[test]
    fn a_tiny_run_of_each_shape_checks_out_end_to_end() {
        let shapes = [
            Shape { list_batches: 64, ..WIRE_SMALL },
            // Shares of ~48 pairs: through the `Front`, but inline.
            Shape { list_batches: 48, batch: 96, fans_out: false, ..WIRE_BULK },
            Shape { list_batches: 64, ..CHURN_MIXED },
        ];
        for shape in &shapes {
            let run = run(shape, &tiny(), 11).expect("the deployment comes up");
            assert_eq!(run.failed, 0, "{shape:?}");
            assert_eq!(run.setup_s.len(), 2);
            assert_eq!(run.slices.len(), 2);
            assert!(run.slices.iter().all(|s| s.pairs > 0 && s.p50_us() > 0.0));
            // Every epoch the publisher closed showed up in a wire answer,
            // and the replay counted the same epochs; a read-only
            // workload publishes none.
            assert_eq!(run.fresh_ms.len() as u64, run.epochs.epochs_published);
            assert_eq!(run.epochs.epochs_published >= 1, shape.feed_during_run);
            assert_eq!(
                run.epochs.builds_incremental + run.epochs.builds_full,
                run.epochs.epochs_published
            );
            assert_eq!(run.fanout.0, 0.0);
        }
    }
}
