//! The epoch engine: streams RTT observations into a builder and
//! publishes the snapshots it builds.
//!
//! Readers only ever see immutable [`EpochSnapshot`]s; all mutation
//! lives in a builder behind the [`EpochSource`] trait. There is one
//! dense builder, [`FluxBuilder`]: each observation updates the source
//! node's [`TivMonitor`](tivcore::TivMonitor) (the paper's §5.1
//! hysteresis alarm, reused verbatim) against the current embedding's
//! prediction and folds the smoothed RTT back into the working matrix;
//! each build freezes everything into the next snapshot, which the
//! caller publishes into a [`TivServe`](crate::TivServe) — readers
//! never stall, they just keep answering from the previous epoch until
//! the swap.
//!
//! [`spawn_with`] runs the fold on a background thread fed by a
//! [`Feed`] channel, settling the builder whenever the feed runs dry
//! and publishing every `observations_per_epoch` observations into an
//! arbitrary publish closure — there is exactly one copy of the
//! drain/publish loop, and every deployment shape (one in-process
//! service, the chaos-capable multi-replica `tivgate::Deployment`) is
//! a closure over it. A [`FeedSender`] streams observations in and can
//! force a synchronous build+publish with [`FeedSender::flush`].

use crate::flux::FluxBuilder;
use crate::snapshot::EpochSnapshot;
use delayspace::matrix::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use tivcore::MonitorConfig;
use vivaldi::VivaldiConfig;

/// One streamed RTT measurement: `src` measured `rtt_ms` to `dst`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observation {
    /// The measuring node.
    pub src: NodeId,
    /// The measured peer.
    pub dst: NodeId,
    /// The measured round-trip time, ms (must be finite and positive).
    pub rtt_ms: f64,
}

impl Observation {
    /// True when a builder over `n` nodes can fold this observation in:
    /// distinct endpoints below `n` and a finite, positive RTT. Every
    /// builder's `ingest` panics on anything else, so the publish
    /// engine ([`spawn_with`]) checks this first and drops (and counts)
    /// what fails.
    pub fn is_valid(&self, n: usize) -> bool {
        self.src < n
            && self.dst < n
            && self.src != self.dst
            && self.rtt_ms.is_finite()
            && self.rtt_ms > 0.0
    }
}

/// Epoch-building parameters.
#[derive(Clone, Copy, Debug)]
pub struct EpochConfig {
    /// Hysteresis monitor configuration (per node).
    pub monitor: MonitorConfig,
    /// Vivaldi parameters of the bootstrap embedding.
    pub vivaldi: VivaldiConfig,
    /// Rounds of the bootstrap embedding.
    pub bootstrap_rounds: usize,
    /// Seed of the bootstrap embedding.
    pub seed: u64,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            monitor: MonitorConfig::default(),
            vivaldi: VivaldiConfig::default(),
            bootstrap_rounds: 60,
            seed: 0,
        }
    }
}

/// What the publish engine ([`spawn_with`]) drives: something that
/// folds streamed observations into successive [`EpochSnapshot`]s.
/// [`FluxBuilder`] is the one builder; the trait lets a test stand a
/// recording fake in its place.
pub trait EpochSource: Send + 'static {
    /// Number of nodes the builder covers (what
    /// [`Observation::is_valid`] checks against).
    fn node_count(&self) -> usize;
    /// Folds one observation into the working state.
    fn ingest(&mut self, obs: Observation);
    /// Observations folded in since the last [`build`](Self::build).
    fn pending(&self) -> usize;
    /// Does ahead of the build whatever of the epoch's work the
    /// observations folded in so far allow, so that the build has less
    /// left to do. [`spawn_with`] calls it whenever the feed runs dry
    /// mid-epoch. Must not change what the next build returns.
    fn settle(&mut self);
    /// Total observations ever folded in — the no-loss accounting the
    /// observe/publish interleaving regression tests assert on.
    fn ingested_total(&self) -> u64;
    /// Builds and returns the next snapshot, resetting `pending`.
    fn build(&mut self) -> EpochSnapshot;
}

/// Kept only because tivmark's `tivserve.epoch_build` layer imports
/// the name (`benchmark/src/layers.rs`), which now times a
/// [`FluxBuilder`] build. ROADMAP slice 1b retires that layer, and
/// slice 1c then deletes the alias. Nothing in `crates/` may use it.
pub type EpochBuilder = FluxBuilder;

/// One message into the publish engine's feed channel.
///
/// The unified publish path is message-driven: observations and
/// control both travel the same FIFO channel, so a
/// [`flush`](FeedSender::flush) publishes exactly the observations
/// sent before it — no racing control side-channel.
pub enum Feed {
    /// One streamed RTT measurement to fold into the working state.
    Observe(Observation),
    /// Force a build+publish now (even with zero pending
    /// observations); the engine acks with the published epoch.
    Flush(mpsc::Sender<u64>),
    /// Shut the engine down even while other senders are still alive
    /// (pending observations get their tail publish first).
    Close,
}

/// Sending half of a publish engine's feed channel; clone freely.
///
/// Dropping every `FeedSender` (and the owning
/// [`EpochStream`] via [`join`](EpochStream::join)) shuts the engine
/// down after a tail publish of any pending observations.
#[derive(Clone)]
pub struct FeedSender {
    tx: mpsc::Sender<Feed>,
}

impl FeedSender {
    /// Streams one observation to the engine. `Err(obs)` hands the
    /// observation back when the engine is gone — callers count these
    /// as *undelivered* in the `observations == delivered +
    /// undelivered` accounting identity.
    pub fn observe(&self, obs: Observation) -> Result<(), Observation> {
        self.tx.send(Feed::Observe(obs)).map_err(|e| match e.0 {
            Feed::Observe(obs) => obs,
            Feed::Flush(_) | Feed::Close => unreachable!("sent an observation"),
        })
    }

    /// Forces a build+publish of everything observed so far and blocks
    /// until it lands, returning the published epoch (`None` when the
    /// engine is gone). Publishes even with zero pending observations,
    /// so deployments can advance epochs deterministically.
    pub fn flush(&self) -> Option<u64> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx.send(Feed::Flush(ack_tx)).ok()?;
        ack_rx.recv().ok()
    }

    /// Tells the engine to shut down **now**, without waiting for
    /// every sender clone to be dropped. FIFO like everything else on
    /// the feed: observations sent before the close are still folded
    /// in (and tail-published); anything sent after it fails as
    /// undelivered once the engine exits. This is what lets a
    /// [`Deployment`](../../tivgate/deploy/struct.Deployment.html)
    /// shut down deterministically while harness code still holds
    /// live `FeedSender` clones.
    pub fn close(&self) {
        let _ = self.tx.send(Feed::Close);
    }

    /// A sender with no engine behind it: every delivery fails. Lets
    /// harness code model a crashed/shut-down builder without spawning
    /// one.
    pub fn disconnected() -> FeedSender {
        let (tx, _) = mpsc::channel();
        FeedSender { tx }
    }

    /// A raw feed pair for harnesses that drain the channel
    /// themselves instead of spawning an engine.
    pub fn channel() -> (FeedSender, mpsc::Receiver<Feed>) {
        let (tx, rx) = mpsc::channel();
        (FeedSender { tx }, rx)
    }
}

/// Handle to a background epoch-builder (publish engine) thread.
pub struct EpochStream<B: EpochSource = FluxBuilder> {
    tx: FeedSender,
    handle: std::thread::JoinHandle<B>,
    rejected: Arc<AtomicU64>,
}

impl<B: EpochSource> EpochStream<B> {
    /// The feed sender; clone freely. Dropping every sender (and this
    /// handle via [`join`](Self::join)) shuts the engine down.
    pub fn sender(&self) -> FeedSender {
        self.tx.clone()
    }

    /// Observations the engine dropped so far because they failed
    /// [`Observation::is_valid`]. Exact once the feed is quiet: a
    /// returned [`FeedSender::flush`] has counted everything sent
    /// before it.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Closes the stream, waits for the engine thread to publish any
    /// tail observations, and returns the builder.
    pub fn join(self) -> B {
        drop(self.tx);
        self.handle.join().expect("epoch builder thread panicked")
    }
}

/// Spawns **the** publish engine on a background thread: it drains the
/// feed, and each time `observations_per_epoch` observations have been
/// folded in (or a [`Feed::Flush`] arrives) it builds the next
/// snapshot and hands it to `publish`. Remaining observations are
/// published as a final epoch on shutdown (all senders dropped).
///
/// This is the single copy of the drain/publish loop every deployment
/// shape goes through: `|s| { service.publish(s); }` feeds one
/// in-process [`TivServe`](crate::TivServe), and `tivgate::Deployment`
/// routes each snapshot through its per-replica fault gates — each is
/// just a different `publish` closure.
///
/// A build-and-publish can take a while (a full O(n³) rebuild when the
/// dense builder's policy falls back to one); observations that arrive
/// during it are **never dropped** — they queue in the channel and are
/// folded into the *next* epoch on the following loop pass. The loop drains the channel
/// non-blockingly between publishes so a burst arriving mid-build is
/// absorbed in one sweep, and the no-loss accounting
/// (`ingested_total == observations sent`) is pinned by the
/// observe/publish interleaving regression tests.
///
/// Whenever that drain empties the channel before the epoch is full,
/// the feed is idle, and the loop calls [`EpochSource::settle`] before
/// it blocks again: the dense builder then writes and repairs the edges
/// changed so far, so an epoch's build is left with its last
/// observations only. A burst is still drained first and settled once.
///
/// An observation that fails [`Observation::is_valid`] (a self-loop, an
/// out-of-range node, a NaN, infinite or non-positive RTT) is dropped
/// and counted in [`EpochStream::rejected`] before it reaches
/// `ingest`, whose documented panic would otherwise stop publishing
/// for good.
pub fn spawn_with<B: EpochSource>(
    mut builder: B,
    observations_per_epoch: usize,
    mut publish: impl FnMut(EpochSnapshot) + Send + 'static,
) -> EpochStream<B> {
    assert!(observations_per_epoch >= 1, "need at least one observation per epoch");
    let (tx, rx) = mpsc::channel::<Feed>();
    let rejected = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&rejected);
    // tivlint: allow(pool-discipline, "one long-lived background epoch-builder thread, not a parallel kernel; build determinism is pinned by the observe/publish interleaving tests")
    let handle = std::thread::spawn(move || {
        // A statistic that publishes no other data: Relaxed suffices.
        let fold = |builder: &mut B, obs: Observation| {
            if obs.is_valid(builder.node_count()) {
                builder.ingest(obs);
            } else {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        };
        let flush =
            |builder: &mut B, publish: &mut dyn FnMut(EpochSnapshot), ack: mpsc::Sender<u64>| {
                let snapshot = builder.build();
                let epoch = snapshot.epoch();
                publish(snapshot);
                // The flusher may have given up waiting; that is its
                // business, the publish already happened.
                let _ = ack.send(epoch);
            };
        'run: loop {
            // Block for the next message; a closed channel (every
            // sender dropped) or an explicit close ends the stream.
            match rx.recv() {
                Err(_) | Ok(Feed::Close) => break 'run,
                Ok(Feed::Flush(ack)) => {
                    flush(&mut builder, &mut publish, ack);
                    continue 'run;
                }
                Ok(Feed::Observe(obs)) => fold(&mut builder, obs),
            }
            // Absorb whatever else is already buffered — including
            // anything that arrived while the previous build/publish
            // was running — up to the epoch boundary, without blocking.
            while builder.pending() < observations_per_epoch {
                match rx.try_recv() {
                    Ok(Feed::Observe(obs)) => fold(&mut builder, obs),
                    // A flush queued mid-batch publishes exactly what
                    // preceded it (FIFO), then draining resumes.
                    Ok(Feed::Flush(ack)) => flush(&mut builder, &mut publish, ack),
                    // A close queued mid-batch still honours FIFO: what
                    // preceded it tail-publishes below, then we exit.
                    Ok(Feed::Close) => break 'run,
                    Err(_) => break,
                }
            }
            if builder.pending() >= observations_per_epoch {
                publish(builder.build());
            } else {
                builder.settle();
            }
        }
        if builder.pending() > 0 {
            publish(builder.build());
        }
        builder
    });
    EpochStream { tx: FeedSender { tx }, handle, rejected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBatch;
    use crate::service::{ServeConfig, TivServe};
    use delayspace::matrix::DelayMatrix;
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use std::time::Duration;

    /// The engine publishing into one in-process service.
    fn spawn_into(service: &Arc<TivServe>, builder: FluxBuilder, per_epoch: usize) -> EpochStream {
        let service = Arc::clone(service);
        spawn_with(builder, per_epoch, move |snapshot| {
            service.publish(snapshot);
        })
    }

    fn ds2(n: usize, seed: u64) -> DelayMatrix {
        InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed).into_matrix()
    }

    fn cfg() -> EpochConfig {
        EpochConfig { bootstrap_rounds: 20, seed: 3, ..EpochConfig::default() }
    }

    #[test]
    fn bootstrap_yields_epoch_zero() {
        let (builder, snap) = FluxBuilder::bootstrap(ds2(30, 1), cfg());
        assert_eq!(snap.epoch(), 0);
        assert_eq!(builder.epoch(), 0);
        assert_eq!(builder.pending(), 0);
        assert_eq!(snap.len(), 30);
    }

    #[test]
    fn ingest_then_build_advances_epoch_deterministically() {
        let m = ds2(30, 2);
        let (mut a, _) = FluxBuilder::bootstrap(m.clone(), cfg());
        let (mut b, _) = FluxBuilder::bootstrap(m, cfg());
        let obs = [
            Observation { src: 0, dst: 5, rtt_ms: 80.0 },
            Observation { src: 0, dst: 5, rtt_ms: 90.0 },
            Observation { src: 7, dst: 2, rtt_ms: 33.0 },
        ];
        for &o in &obs {
            a.ingest(o);
            b.ingest(o);
        }
        assert_eq!(a.pending(), 3);
        let sa = a.build();
        let sb = b.build();
        assert_eq!(sa.epoch(), 1);
        assert_eq!(a.pending(), 0);
        // Same inputs, same snapshot — matrices and coordinates match.
        assert_eq!(sa.matrix(), sb.matrix());
        for i in 0..30 {
            for j in 0..30 {
                assert_eq!(
                    sa.embedding().predicted(i, j).to_bits(),
                    sb.embedding().predicted(i, j).to_bits()
                );
            }
        }
    }

    #[test]
    fn observations_move_the_matrix_and_raise_alerts() {
        let (mut builder, snap) = FluxBuilder::bootstrap(ds2(30, 4), cfg());
        // Repeatedly report a much larger RTT than the snapshot has for
        // (3, 9): the smoothed matrix entry climbs and, because the
        // prediction ratio collapses, the monitor alerts.
        let original = snap.matrix().get(3, 9).unwrap();
        let reported = (original + 50.0) * 20.0;
        for _ in 0..8 {
            builder.ingest(Observation { src: 3, dst: 9, rtt_ms: reported });
        }
        let next = builder.build();
        let updated = next.matrix().get(3, 9).unwrap();
        assert!(updated > original, "smoothed RTT {updated} should exceed original {original}");
        let summary = next.monitor_summary(3, 9).expect("peer tracked");
        assert!(summary.alerted, "collapsed ratio must alert: {summary:?}");
        assert!(next.evaluate(3, 9, &crate::snapshot::EstimateConfig::default()).alert);
    }

    #[test]
    fn background_stream_publishes_epochs() {
        let (builder, snap) = FluxBuilder::bootstrap(ds2(30, 5), cfg());
        let service = Arc::new(TivServe::new(ServeConfig::default(), snap));
        let stream = spawn_into(&service, builder, 4);
        let tx = stream.sender();
        for k in 0..10 {
            let src = k % 7;
            tx.observe(Observation { src, dst: src + 10, rtt_ms: 40.0 + k as f64 }).unwrap();
        }
        drop(tx);
        let builder = stream.join();
        // 10 observations at 4 per epoch: two full epochs plus a tail
        // publish of the remaining two.
        assert_eq!(builder.epoch(), 3);
        assert_eq!(service.epoch(), 3);
        assert_eq!(builder.pending(), 0);
    }

    #[test]
    fn interleaved_observe_publish_loses_nothing() {
        // Regression test for the publish-swap path: observations keep
        // streaming while epochs publish, and every single one must be
        // folded into *some* epoch — none dropped on the floor during a
        // swap. The builder thread is deliberately forced through many
        // small epochs so sends race publishes constantly.
        let (builder, snap) = FluxBuilder::bootstrap(ds2(30, 8), cfg());
        let service = Arc::new(TivServe::new(ServeConfig::default(), snap));
        let stream = spawn_into(&service, builder, 3);
        let tx = stream.sender();
        let sent = 200u64;
        for k in 0..sent {
            let src = (k % 9) as usize;
            tx.observe(Observation { src, dst: src + 11, rtt_ms: 30.0 + (k % 40) as f64 }).unwrap();
            if k % 7 == 0 {
                // Interleave some reads so publishes overlap queries too.
                let _ = service.query(&QueryBatch::Estimate(vec![(0, 1)]));
            }
        }
        drop(tx);
        let builder = stream.join();
        assert_eq!(builder.ingested_total(), sent, "observations were dropped");
        assert_eq!(builder.pending(), 0, "tail observations not published");
        // Epoch arithmetic: every observation landed in some epoch.
        assert!(builder.epoch() >= sent / 3, "too few epochs published");
        assert_eq!(service.epoch(), builder.epoch());
    }

    #[test]
    fn synchronous_interleave_accounts_every_observation() {
        let (mut builder, _) = FluxBuilder::bootstrap(ds2(20, 9), cfg());
        let mut sent = 0u64;
        for round in 0..10u64 {
            for k in 0..(round % 4 + 1) {
                let src = ((round + k) % 5) as usize;
                builder.ingest(Observation { src, dst: src + 7, rtt_ms: 25.0 + k as f64 });
                sent += 1;
            }
            let snap = builder.build(); // publish boundary
            assert_eq!(snap.epoch(), round + 1);
            assert_eq!(builder.pending(), 0);
        }
        assert_eq!(builder.ingested_total(), sent);
    }

    #[test]
    fn flush_forces_synchronous_publishes() {
        let (builder, snap) = FluxBuilder::bootstrap(ds2(30, 10), cfg());
        let service = Arc::new(TivServe::new(ServeConfig::default(), snap));
        // Threshold far above anything sent: only flushes publish.
        let stream = spawn_into(&service, builder, 1_000_000);
        let tx = stream.sender();
        // Flush with nothing pending still advances the epoch.
        assert_eq!(tx.flush(), Some(1));
        assert_eq!(service.epoch(), 1);
        for k in 0..5 {
            tx.observe(Observation { src: k, dst: k + 8, rtt_ms: 25.0 + k as f64 }).unwrap();
        }
        // FIFO: the flush publishes exactly the five observations
        // queued before it, synchronously.
        assert_eq!(tx.flush(), Some(2));
        assert_eq!(service.epoch(), 2);
        // join() drops only the stream's own sender; our live clone
        // must signal close (or be dropped) before the engine exits.
        tx.close();
        let builder = stream.join();
        assert_eq!(builder.ingested_total(), 5);
        assert_eq!(builder.pending(), 0, "flush left nothing unpublished");
        assert_eq!(builder.epoch(), 2, "no tail publish after a clean flush");
    }

    #[test]
    fn poisoned_observations_are_dropped_and_counted() {
        let (builder, snap) = FluxBuilder::bootstrap(ds2(30, 12), cfg());
        let service = Arc::new(TivServe::new(ServeConfig::default(), snap));
        let stream = spawn_into(&service, builder, 1_000_000);
        let tx = stream.sender();
        let poison = [
            Observation { src: 3, dst: 3, rtt_ms: 10.0 },
            Observation { src: 3, dst: 30, rtt_ms: 10.0 },
            Observation { src: 3, dst: 4, rtt_ms: 0.0 },
            Observation { src: 3, dst: 4, rtt_ms: -1.0 },
            Observation { src: 3, dst: 4, rtt_ms: f64::NAN },
            Observation { src: 3, dst: 4, rtt_ms: f64::INFINITY },
        ];
        let mut valid = 0u64;
        for (epoch, &bad) in (1u64..).zip(&poison) {
            for k in 0..4 {
                if k == 2 {
                    tx.observe(bad).unwrap();
                }
                tx.observe(Observation { src: k, dst: k + 10, rtt_ms: 30.0 + epoch as f64 })
                    .unwrap();
                valid += 1;
            }
            assert_eq!(tx.flush(), Some(epoch), "publishing stopped after {bad:?}");
            assert_eq!(service.epoch(), epoch);
        }
        assert_eq!(stream.rejected(), 6);
        tx.close();
        let builder = stream.join();
        assert_eq!(builder.ingested_total(), valid);
    }

    /// What the engine asked of a [`Counting`] source.
    #[derive(Debug, PartialEq)]
    enum Call {
        Ingest,
        Settle { pending: usize },
        Build,
    }

    /// A flux builder that reports each call the engine makes, and
    /// whose first ingest waits for a go-ahead, so that a test can queue
    /// a burst behind it.
    struct Counting {
        inner: FluxBuilder,
        calls: mpsc::Sender<Call>,
        hold: Option<mpsc::Receiver<()>>,
    }

    impl Counting {
        fn report(&self, call: Call) {
            self.calls.send(call).expect("the test outlives the engine");
        }
    }

    impl EpochSource for Counting {
        fn node_count(&self) -> usize {
            EpochSource::node_count(&self.inner)
        }
        fn ingest(&mut self, obs: Observation) {
            if let Some(hold) = self.hold.take() {
                hold.recv().expect("the test releases the first ingest");
            }
            self.inner.ingest(obs);
            self.report(Call::Ingest);
        }
        fn pending(&self) -> usize {
            self.inner.pending()
        }
        fn ingested_total(&self) -> u64 {
            self.inner.ingested_total()
        }
        fn settle(&mut self) {
            self.report(Call::Settle { pending: self.inner.pending() });
            self.inner.settle();
        }
        fn build(&mut self) -> EpochSnapshot {
            self.report(Call::Build);
            self.inner.build()
        }
    }

    #[test]
    fn spawn_with_settles_once_the_feed_is_idle() {
        let (inner, _) = FluxBuilder::bootstrap(ds2(30, 13), cfg());
        let (calls_tx, calls) = mpsc::channel();
        let (go, hold) = mpsc::channel();
        let source = Counting { inner, calls: calls_tx, hold: Some(hold) };
        let stream = spawn_with(source, 4, |_| {});
        let tx = stream.sender();
        let next = || calls.recv_timeout(Duration::from_secs(60)).expect("the engine stalled");
        let obs = |k: usize| Observation { src: k, dst: k + 10, rtt_ms: 30.0 + k as f64 };
        // A burst: the first ingest holds the engine until the whole
        // epoch is queued, so it is drained in one sweep and built
        // without a settle in between.
        for k in 0..4 {
            tx.observe(obs(k)).unwrap();
        }
        go.send(()).unwrap();
        for _ in 0..4 {
            assert_eq!(next(), Call::Ingest);
        }
        assert_eq!(next(), Call::Build);
        // One observation, then silence: the engine settles it before
        // it waits for the next.
        tx.observe(obs(4)).unwrap();
        assert_eq!(next(), Call::Ingest);
        assert_eq!(next(), Call::Settle { pending: 1 });
        tx.observe(obs(5)).unwrap();
        assert_eq!(next(), Call::Ingest);
        assert_eq!(next(), Call::Settle { pending: 2 });
        tx.close();
        let source = stream.join();
        // The close tail-publishes the two settled observations.
        assert_eq!(calls.try_iter().collect::<Vec<_>>(), vec![Call::Build]);
        assert_eq!(source.inner.ingested_total(), 6);
        assert_eq!(source.inner.epoch(), 2);
    }

    #[test]
    fn disconnected_sender_reports_undelivered() {
        let tx = FeedSender::disconnected();
        let obs = Observation { src: 0, dst: 1, rtt_ms: 10.0 };
        assert_eq!(tx.observe(obs), Err(obs));
        assert_eq!(tx.flush(), None);
    }

    #[test]
    #[should_panic(expected = "self-observation")]
    fn self_observation_rejected() {
        let (mut builder, _) = FluxBuilder::bootstrap(ds2(10, 6), cfg());
        builder.ingest(Observation { src: 2, dst: 2, rtt_ms: 10.0 });
    }
}
