//! The deployment API: replicas + publisher in one builder, with the
//! fault hooks the chaos harness drives.
//!
//! A [`Deployment`] spawns one [`TivServe`] + gate per replica, each
//! seeded with a **clone of the same [`EpochSnapshot`]** — replicas are
//! full copies, not partitions, so any replica answers any pair
//! identically — and optionally the publish engine that feeds them:
//!
//! ```no_run
//! # use tivgate::deploy::Deployment;
//! # use tivserve::{EpochBuilder, EpochConfig, ServeConfig};
//! # use delayspace::synth::{Dataset, InternetDelaySpace};
//! let m = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(64).build(7).into_matrix();
//! let (builder, snapshot) = EpochBuilder::bootstrap(m, EpochConfig::default());
//! let handle = Deployment::new(snapshot, ServeConfig::default())
//!     .replicas(2)
//!     .publisher(builder, 500)
//!     .spawn()
//!     .unwrap();
//! ```
//!
//! The returned [`DeploymentHandle`] is the replica-lifecycle surface:
//! [`crash`](DeploymentHandle::crash) and
//! [`restart`](DeploymentHandle::restart) take replicas down and bring
//! them back mid-epoch, [`skip_publishes`](DeploymentHandle::skip_publishes)
//! models delayed/dropped epoch publishes per replica, and
//! [`publish_now`](DeploymentHandle::publish_now) forces a
//! deterministic epoch boundary (a synchronous build+publish through
//! the engine's [`Feed`](tivserve::epoch::Feed) channel).
//!
//! **Why recovery is bit-exact.** Replicas are full copies of one
//! snapshot, every answer is a pure function of `(snapshot, query,
//! config)`, and the deployment retains the latest *built* snapshot.
//! A restart reconstructs the replica's [`TivServe`] from that
//! retained snapshot through the one validated constructor surface
//! ([`ServedSnapshot::assemble`]) — so a restarted replica holds
//! byte-for-byte the state of a replica that never crashed, which the
//! `chaos_equivalence` suite pins at the wire level.
//!
//! Publishing goes through **the** single engine loop
//! ([`tivserve::epoch::spawn_with`]); the deployment is just a publish
//! closure that routes each built snapshot through the per-replica
//! fault gates. A publish has reached every live, un-gated replica
//! before [`publish_now`](DeploymentHandle::publish_now) returns, so a
//! caller that publishes at a batch boundary sees every later query —
//! on every replica and on any in-process reference fed the same
//! snapshot — answer from the new epoch; the `wire_equivalence` suite
//! stands on that synchrony. Shard loss is a crash that is never
//! restarted: the remaining full-copy replicas keep answering every
//! pair.

use crate::server::{GateConfig, GateHandle, GateServer};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use tivserve::epoch::{spawn_with, EpochSource, EpochStream, FeedSender};
use tivserve::service::{ServeConfig, TivServe};
use tivserve::snapshot::{EpochSnapshot, ServedSnapshot};
use tivserve::EpochBuilder;

/// One replica's slot in the deployment: its in-process service and
/// gate while up, `None` of each while crashed, plus its publish-fault
/// gate and the epoch it last applied.
struct Slot {
    service: Option<Arc<TivServe>>,
    gate: Option<GateHandle>,
    /// Publishes still to be withheld from this replica (the
    /// delayed/dropped-publish fault).
    skip: usize,
    /// Epoch this replica last applied.
    epoch: u64,
}

/// Shared deployment state: the slots plus the latest *built*
/// snapshot, retained so a restart can rebuild a replica exactly.
struct ClusterState {
    slots: Vec<Slot>,
    latest: EpochSnapshot,
    publishes_skipped: u64,
}

struct Cluster {
    state: Mutex<ClusterState>,
}

impl Cluster {
    fn lock(&self) -> MutexGuard<'_, ClusterState> {
        self.state.lock().expect("deployment state poisoned")
    }

    /// The deployment's publish path: retain the snapshot as `latest`,
    /// then push a clone into every live replica whose fault gate is
    /// open. A withheld publish is *not* queued — the next publish
    /// supersedes it wholesale (snapshots are full states, so a
    /// delayed full-snapshot publish arriving after its successor is
    /// indistinguishable from a dropped one).
    fn publish(&self, snapshot: EpochSnapshot) {
        let mut st = self.lock();
        let ClusterState { slots, publishes_skipped, .. } = &mut *st;
        for slot in slots {
            if slot.skip > 0 {
                slot.skip -= 1;
                *publishes_skipped += 1;
                continue;
            }
            if let Some(service) = &slot.service {
                slot.epoch = service.publish(snapshot.clone());
            }
        }
        st.latest = snapshot;
    }
}

/// Builder for a multi-replica gate deployment — the construction
/// path behind `repro gate`, `repro chaos` and the chaos harness. See
/// the [module docs](self) for the full story.
pub struct Deployment<B: EpochSource<Snapshot = EpochSnapshot> = EpochBuilder> {
    snapshot: EpochSnapshot,
    serve_cfg: ServeConfig,
    gate_cfg: GateConfig,
    replicas: usize,
    publisher: Option<(B, usize)>,
}

impl Deployment {
    /// Starts describing a deployment serving `snapshot` with one
    /// replica and no publisher.
    pub fn new(snapshot: EpochSnapshot, serve_cfg: ServeConfig) -> Deployment {
        Deployment {
            snapshot,
            serve_cfg,
            gate_cfg: GateConfig::default(),
            replicas: 1,
            publisher: None,
        }
    }
}

impl<B: EpochSource<Snapshot = EpochSnapshot>> Deployment<B> {
    /// Serves `replicas` full-copy replicas (≥ 1).
    pub fn replicas(mut self, replicas: usize) -> Self {
        assert!(replicas >= 1, "a deployment needs at least one replica");
        self.replicas = replicas;
        self
    }

    /// Overrides the per-replica gate configuration.
    pub fn gate(mut self, gate_cfg: GateConfig) -> Self {
        self.gate_cfg = gate_cfg;
        self
    }

    /// Attaches a background publisher: `builder` folds streamed
    /// observations and a snapshot is built and published into every
    /// replica each `observations_per_epoch` observations (or on
    /// [`publish_now`](DeploymentHandle::publish_now)).
    pub fn publisher<B2: EpochSource<Snapshot = EpochSnapshot>>(
        self,
        builder: B2,
        observations_per_epoch: usize,
    ) -> Deployment<B2> {
        Deployment {
            snapshot: self.snapshot,
            serve_cfg: self.serve_cfg,
            gate_cfg: self.gate_cfg,
            replicas: self.replicas,
            publisher: Some((builder, observations_per_epoch)),
        }
    }

    /// Spawns the deployment: one [`TivServe`] + gate per replica,
    /// each seeded with a clone of the snapshot, plus the publish
    /// engine when a publisher was attached.
    pub fn spawn(self) -> io::Result<DeploymentHandle<B>> {
        let mut slots = Vec::with_capacity(self.replicas);
        for _ in 0..self.replicas {
            let service = Arc::new(TivServe::new(self.serve_cfg, self.snapshot.clone()));
            let gate = GateServer::spawn(Arc::clone(&service), self.gate_cfg.clone())?;
            slots.push(Slot {
                service: Some(service),
                gate: Some(gate),
                skip: 0,
                epoch: self.snapshot.epoch(),
            });
        }
        let cluster = Arc::new(Cluster {
            state: Mutex::new(ClusterState { slots, latest: self.snapshot, publishes_skipped: 0 }),
        });
        let mut handle = DeploymentHandle {
            cluster,
            serve_cfg: self.serve_cfg,
            gate_cfg: self.gate_cfg,
            publisher: None,
            feed: None,
        };
        if let Some((builder, observations_per_epoch)) = self.publisher {
            let sink = Arc::clone(&handle.cluster);
            let stream =
                spawn_with(builder, observations_per_epoch, move |snapshot: EpochSnapshot| {
                    sink.publish(snapshot);
                });
            handle.feed = Some(stream.sender());
            handle.publisher = Some(stream);
        }
        Ok(handle)
    }
}

/// A running deployment: the replica-lifecycle and fault-injection
/// surface. Obtained from [`Deployment::spawn`].
pub struct DeploymentHandle<B: EpochSource<Snapshot = EpochSnapshot> = EpochBuilder> {
    cluster: Arc<Cluster>,
    serve_cfg: ServeConfig,
    gate_cfg: GateConfig,
    publisher: Option<EpochStream<B>>,
    feed: Option<FeedSender>,
}

impl<B: EpochSource<Snapshot = EpochSnapshot>> DeploymentHandle<B> {
    /// Replica slot count (up or down).
    pub fn replicas(&self) -> usize {
        self.cluster.lock().slots.len()
    }

    /// The bound address of replica `i`, `None` while it is down.
    pub fn addr(&self, replica: usize) -> Option<SocketAddr> {
        self.cluster.lock().slots[replica].gate.as_ref().map(GateHandle::addr)
    }

    /// Addresses of every *live* replica, in slot order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.cluster
            .lock()
            .slots
            .iter()
            .filter_map(|s| s.gate.as_ref().map(GateHandle::addr))
            .collect()
    }

    /// The in-process service of replica `i`, `None` while it is down
    /// (equivalence tests compare wire answers against these).
    pub fn service(&self, replica: usize) -> Option<Arc<TivServe>> {
        self.cluster.lock().slots[replica].service.clone()
    }

    /// The observation feed of the attached publisher (`None` when the
    /// deployment was spawned without one).
    pub fn feed(&self) -> Option<FeedSender> {
        self.feed.clone()
    }

    /// Forces a synchronous build+publish through the engine and
    /// returns the published epoch; `None` without a publisher. The
    /// publish lands before this returns, so callers can advance
    /// epochs at deterministic points in their own timeline.
    pub fn publish_now(&self) -> Option<u64> {
        self.feed.as_ref()?.flush()
    }

    /// Epoch of the latest *built* snapshot (what a healthy replica
    /// serves).
    pub fn latest_epoch(&self) -> u64 {
        self.cluster.lock().latest.epoch()
    }

    /// Epoch replica `i` last applied, `None` while it is down.
    pub fn replica_epoch(&self, replica: usize) -> Option<u64> {
        let st = self.cluster.lock();
        let slot = &st.slots[replica];
        slot.service.as_ref().map(|_| slot.epoch)
    }

    /// Staleness of replica `i` in epochs behind the latest built
    /// snapshot, `None` while it is down.
    pub fn staleness_epochs(&self, replica: usize) -> Option<u64> {
        let st = self.cluster.lock();
        let slot = &st.slots[replica];
        slot.service.as_ref().map(|_| st.latest.epoch().saturating_sub(slot.epoch))
    }

    /// Total publishes withheld so far by
    /// [`skip_publishes`](Self::skip_publishes) fault gates.
    pub fn publishes_skipped(&self) -> u64 {
        self.cluster.lock().publishes_skipped
    }

    /// Crashes replica `i`: its gate stops accepting and serving (open
    /// connections see EOF), its service drops out of the publish
    /// fan-out. Errors when the replica is already down.
    pub fn crash(&self, replica: usize) -> io::Result<()> {
        let gate = {
            let mut st = self.cluster.lock();
            let slot = &mut st.slots[replica];
            let gate = slot.gate.take().ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotConnected, format!("replica {replica} is down"))
            })?;
            slot.service = None;
            gate
            // Joining the serving loop below must not hold the state
            // lock: a publish landing mid-crash would deadlock.
        };
        gate.shutdown()
    }

    /// Restarts replica `i` from the retained latest-built snapshot,
    /// returning its new address. The service state is rebuilt through
    /// the one validated constructor surface
    /// ([`ServedSnapshot::assemble`] via `into_parts`), so the
    /// invariants are re-checked on every recovery and the restarted
    /// replica's answers are byte-identical to a replica that never
    /// crashed. Clears any pending publish-fault gate. Errors when the
    /// replica is still up.
    pub fn restart(&self, replica: usize) -> io::Result<SocketAddr> {
        let mut st = self.cluster.lock();
        if st.slots[replica].gate.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("replica {replica} is still up"),
            ));
        }
        let (epoch, parts) = st.latest.clone().into_parts();
        let snapshot = EpochSnapshot::assemble(epoch, parts);
        let service = Arc::new(TivServe::new(self.serve_cfg, snapshot));
        let gate = GateServer::spawn(Arc::clone(&service), self.gate_cfg.clone())?;
        let addr = gate.addr();
        st.slots[replica] = Slot { service: Some(service), gate: Some(gate), skip: 0, epoch };
        Ok(addr)
    }

    /// Withholds the next `n` publishes from replica `i` (the
    /// delayed/dropped-publish fault). Snapshots are full states, so a
    /// publish delayed past its successor is equivalent to a dropped
    /// one — the replica simply serves a stale epoch until a publish
    /// gets through, which is exactly the staleness the chaos SLOs
    /// measure.
    pub fn skip_publishes(&self, replica: usize, n: usize) {
        self.cluster.lock().slots[replica].skip = n;
    }

    /// Aggregate requests served across *live* replicas' gates.
    pub fn requests_served(&self) -> u64 {
        self.total(|g| g.stats().requests_served.load(Ordering::Relaxed))
    }

    /// Aggregate backpressure pauses across *live* replicas' gates.
    pub fn backpressure_pauses(&self) -> u64 {
        self.total(|g| g.stats().backpressure_pauses.load(Ordering::Relaxed))
    }

    fn total(&self, pick: impl Fn(&GateHandle) -> u64) -> u64 {
        self.cluster.lock().slots.iter().filter_map(|s| s.gate.as_ref()).map(pick).sum()
    }

    /// Joins the publisher (publishing any tail observations first),
    /// then shuts every live replica down, surfacing the first error.
    pub fn shutdown(mut self) -> io::Result<()> {
        // An explicit close, not just dropping our sender: harness
        // code may still hold `feed()` clones, and the engine must
        // exit without waiting for them.
        if let Some(feed) = self.feed.take() {
            feed.close();
        }
        if let Some(stream) = self.publisher.take() {
            let _ = stream.join();
        }
        let gates: Vec<GateHandle> = {
            let mut st = self.cluster.lock();
            st.slots.iter_mut().filter_map(|s| s.gate.take()).collect()
        };
        let mut first_err = None;
        for gate in gates {
            if let Err(e) = gate.shutdown() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::GateClient;
    use crate::proto::{Request, Response};
    use crate::testutil::small_builder;
    use tivserve::epoch::Observation;
    use tivserve::query::QueryBatch;

    #[test]
    fn deployment_serves_and_publishes_like_a_replica_set() {
        let (builder, snap, serve_cfg) = small_builder();
        let handle =
            Deployment::new(snap, serve_cfg).replicas(2).publisher(builder, 4).spawn().unwrap();
        assert_eq!(handle.replicas(), 2);
        assert_eq!(handle.addrs().len(), 2);
        let feed = handle.feed().expect("publisher attached");
        for k in 0..10u64 {
            let src = (k % 6) as usize;
            feed.observe(Observation { src, dst: src + 8, rtt_ms: 35.0 + k as f64 }).unwrap();
        }
        // Deterministic boundary: everything above lands in epoch order
        // (10 observations at 4/epoch: two threshold publishes, then
        // this flush publishes the remaining two).
        let epoch = handle.publish_now().expect("engine alive");
        assert_eq!(epoch, 3);
        assert_eq!(handle.latest_epoch(), 3);
        for i in 0..2 {
            assert_eq!(handle.replica_epoch(i), Some(3));
            assert_eq!(handle.staleness_epochs(i), Some(0));
        }
        // Replicas answer identically (full copies of one snapshot).
        let pairs = vec![(0u32, 1u32), (5, 9), (2, 14)];
        let expect = handle
            .service(0)
            .unwrap()
            .query(&QueryBatch::Estimate(vec![(0, 1), (5, 9), (2, 14)]))
            .into_estimates();
        for addr in handle.addrs() {
            let mut client = GateClient::connect(addr).unwrap();
            let Response::Estimate { items, .. } =
                client.call(&Request::Estimate { id: 1, pairs: pairs.clone() }).unwrap()
            else {
                panic!("wrong kind");
            };
            assert_eq!(items, expect);
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn crash_restart_recovers_bit_exactly() {
        let (builder, snap, serve_cfg) = small_builder();
        let handle =
            Deployment::new(snap, serve_cfg).replicas(2).publisher(builder, 1000).spawn().unwrap();
        let feed = handle.feed().unwrap();
        feed.observe(Observation { src: 0, dst: 3, rtt_ms: 44.0 }).unwrap();
        assert_eq!(handle.publish_now(), Some(1));
        // Crash replica 1 mid-epoch, keep publishing into replica 0.
        handle.crash(1).unwrap();
        assert_eq!(handle.addr(1), None);
        assert_eq!(handle.replica_epoch(1), None);
        assert_eq!(handle.addrs().len(), 1);
        feed.observe(Observation { src: 2, dst: 7, rtt_ms: 51.0 }).unwrap();
        assert_eq!(handle.publish_now(), Some(2));
        // Restart: the replica rejoins at the latest epoch.
        let addr = handle.restart(1).unwrap();
        assert_eq!(handle.replica_epoch(1), Some(2));
        assert_eq!(handle.staleness_epochs(1), Some(0));
        // Wire answers of the restarted replica equal the
        // never-crashed replica 0, byte-for-byte.
        let pairs = vec![(0u32, 3u32), (2, 7), (4, 11)];
        let req = Request::Estimate { id: 9, pairs };
        let mut crashed = GateClient::connect(addr).unwrap();
        let mut control = GateClient::connect(handle.addr(0).unwrap()).unwrap();
        assert_eq!(
            crashed.call_frame(&req).unwrap(),
            control.call_frame(&req).unwrap(),
            "restarted replica must answer byte-identically"
        );
        handle.shutdown().unwrap();
    }

    #[test]
    fn skip_publishes_leaves_a_replica_stale_until_healed() {
        let (builder, snap, serve_cfg) = small_builder();
        let handle =
            Deployment::new(snap, serve_cfg).replicas(2).publisher(builder, 1000).spawn().unwrap();
        let feed = handle.feed().unwrap();
        handle.skip_publishes(1, 2);
        for epoch in 1..=2u64 {
            feed.observe(Observation { src: 0, dst: 5, rtt_ms: 40.0 + epoch as f64 }).unwrap();
            assert_eq!(handle.publish_now(), Some(epoch));
        }
        // Replica 0 is current; replica 1 was gated out of both.
        assert_eq!(handle.replica_epoch(0), Some(2));
        assert_eq!(handle.replica_epoch(1), Some(0));
        assert_eq!(handle.staleness_epochs(1), Some(2));
        assert_eq!(handle.publishes_skipped(), 2);
        // The stale replica still *serves* (availability), just older.
        let mut client = GateClient::connect(handle.addr(1).unwrap()).unwrap();
        let Response::Pong { epoch, .. } = client.call(&Request::Ping { id: 1 }).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(epoch, 0);
        // The gate expires; the next publish catches the replica up.
        feed.observe(Observation { src: 1, dst: 9, rtt_ms: 33.0 }).unwrap();
        assert_eq!(handle.publish_now(), Some(3));
        assert_eq!(handle.replica_epoch(1), Some(3));
        assert_eq!(handle.staleness_epochs(1), Some(0));
        handle.shutdown().unwrap();
    }

    #[test]
    fn crash_errors_are_explicit() {
        let (_builder, snap, serve_cfg) = small_builder();
        let handle = Deployment::new(snap, serve_cfg).replicas(1).spawn().unwrap();
        assert!(handle.publish_now().is_none(), "no publisher attached");
        assert!(handle.feed().is_none());
        assert!(handle.restart(0).is_err(), "restarting an up replica is an error");
        handle.crash(0).unwrap();
        assert!(handle.crash(0).is_err(), "double crash is an error");
        assert!(handle.addrs().is_empty());
        handle.restart(0).unwrap();
        handle.shutdown().unwrap();
    }
}
