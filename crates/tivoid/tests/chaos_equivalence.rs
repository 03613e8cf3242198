//! Chaos equivalence (ISSUE-10 headline): a replica crashed and
//! restarted **mid-epoch, under live traffic** answers byte-identically
//! to a replica that never crashed — extending the wire-equivalence
//! discipline across failure and recovery.
//!
//! Why this is testable at all: a serving answer is a pure function of
//! `(snapshot, query, config)`, every replica of a [`Deployment`]
//! holds a full copy of the same snapshot, and a restart rebuilds its
//! service from the latest built snapshot through the one validated
//! constructor surface (`EpochSnapshot::into_parts` →
//! `EpochSnapshot::assemble`). There is nothing a crash is allowed to
//! change, so "recovered" means `call_frame` equality on whole frames —
//! every `f64` compared by its IEEE bit pattern, not approximately.

use tivoid::tivgate::client::GateClient;
use tivoid::tivgate::deploy::Deployment;
use tivoid::tivgate::proto::Request;
use tivoid::tivgate::testutil::{small_builder, small_matrix, SMALL_NODES};
use tivoid::tivserve::epoch::Observation;
use tivoid::tivserve::loadgen::{generate, WorkloadConfig};

/// The seeded probe set: Zipf-skewed batches from the shared workload
/// generator, the same stream every run.
fn probe_batches() -> Vec<Vec<(u32, u32)>> {
    let cfg = WorkloadConfig {
        queries: 120,
        batch: 24,
        observe_frac: 0.0,
        seed: 4321,
        ..WorkloadConfig::default()
    };
    generate(&cfg, &small_matrix())
        .into_iter()
        .map(|b| b.pairs.iter().map(|&(a, c)| (a as u32, c as u32)).collect())
        .collect()
}

/// Observations that force the next epoch to differ from the current
/// one; in range, no self-loops, positive RTTs.
fn epoch_observations(salt: usize) -> Vec<Observation> {
    (0..12)
        .map(|k| Observation {
            src: (k + salt) % SMALL_NODES,
            dst: (k + salt + 7) % SMALL_NODES,
            rtt_ms: 30.0 + (k + salt) as f64,
        })
        .collect()
}

/// All five typed request kinds for one probe batch — recovery must be
/// bit-exact for every answer shape, not just estimates.
fn requests_for(id: u32, pairs: &[(u32, u32)]) -> Vec<Request> {
    vec![
        Request::Estimate { id, pairs: pairs.to_vec() },
        Request::Route { id, pairs: pairs.to_vec() },
        Request::Severity { id, pairs: pairs.to_vec() },
        Request::Alerts { id, pairs: pairs.to_vec() },
        Request::SampledSeverity { id, witnesses: 8, pairs: pairs.to_vec() },
    ]
}

/// Collects the raw wire frames one replica answers for the whole
/// probe set.
fn frames_of(client: &mut GateClient, batches: &[Vec<(u32, u32)>]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for (bi, pairs) in batches.iter().enumerate() {
        for req in requests_for(bi as u32, pairs) {
            frames.push(client.call_frame(&req).expect("wire call"));
        }
    }
    frames
}

/// The multi-replica scenario: crash the last replica mid-epoch while
/// traffic keeps flowing and observations keep arriving, publish an
/// epoch it never sees, restart it, and require its answers byte-equal
/// a never-crashed control replica's.
fn crash_recovery_equivalence_at(replicas: usize) {
    assert!(replicas >= 2, "the scenario needs a never-crashed control");
    let (builder, snapshot, serve_cfg) = small_builder();
    let handle = Deployment::new(snapshot, serve_cfg)
        .replicas(replicas)
        // The threshold never fires on its own; epochs advance only on
        // the explicit publish_now() calls below.
        .publisher(builder, usize::MAX / 2)
        .spawn()
        .expect("spawn deployment");
    let feed = handle.feed().expect("deployment has a publisher");
    let batches = probe_batches();
    let victim = replicas - 1;
    let control = 0;

    // Epoch 0, everyone up: all replicas agree frame-for-frame.
    let mut clients: Vec<GateClient> = (0..replicas)
        .map(|r| GateClient::connect(handle.addr(r).expect("replica up")).expect("connect"))
        .collect();
    let epoch0_control = frames_of(&mut clients[control], &batches);
    for (r, client) in clients.iter_mut().enumerate().skip(1) {
        assert_eq!(
            frames_of(client, &batches),
            epoch0_control,
            "replica {r} disagrees with the control at epoch 0"
        );
    }

    // Mid-epoch: half the observations land, then the victim crashes.
    let obs = epoch_observations(0);
    for &o in &obs[..obs.len() / 2] {
        feed.observe(o).expect("publisher is live");
    }
    handle.crash(victim).expect("crash victim");

    // Traffic keeps flowing on the survivors, the rest of the epoch's
    // observations arrive, and an epoch the victim never sees is
    // published.
    for &o in &obs[obs.len() / 2..] {
        feed.observe(o).expect("publisher is live");
    }
    let epoch = handle.publish_now().expect("forced publish");
    assert_eq!(epoch, 1);
    let survivor_frames = frames_of(&mut clients[control], &batches);
    assert_ne!(
        survivor_frames, epoch0_control,
        "the published epoch must change the answers (else recovery is untestable)"
    );
    assert_eq!(handle.replica_epoch(victim), None, "victim is down");

    // Restart: the victim rebuilds from the latest built snapshot and
    // must answer byte-identically to the control — no replay, no
    // catch-up traffic, no second publish.
    handle.restart(victim).expect("restart victim");
    assert_eq!(handle.replica_epoch(victim), Some(1), "restart lands on the latest epoch");
    let mut revived =
        GateClient::connect(handle.addr(victim).expect("victim up")).expect("connect");
    assert_eq!(
        frames_of(&mut revived, &batches),
        survivor_frames,
        "restarted replica {victim} differs from the never-crashed control"
    );

    // And the next epoch reaches old and new replicas alike.
    for o in epoch_observations(3) {
        feed.observe(o).expect("publisher is live");
    }
    assert_eq!(handle.publish_now(), Some(2));
    let control_e2 = frames_of(&mut clients[control], &batches);
    assert_eq!(
        frames_of(&mut revived, &batches),
        control_e2,
        "restarted replica diverged on the post-recovery epoch"
    );

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn crash_recovery_is_bitexact_with_two_replicas() {
    crash_recovery_equivalence_at(2);
}

#[test]
fn crash_recovery_is_bitexact_with_four_replicas() {
    crash_recovery_equivalence_at(4);
}

/// With a single replica there is no control to compare against, so
/// the discipline degrades to self-equivalence: frames recorded before
/// the crash must be reproduced exactly after the restart, because the
/// restart rebuilds from the same retained snapshot.
#[test]
fn single_replica_restart_reproduces_its_own_frames() {
    let (builder, snapshot, serve_cfg) = small_builder();
    let handle = Deployment::new(snapshot, serve_cfg)
        .replicas(1)
        .publisher(builder, usize::MAX / 2)
        .spawn()
        .expect("spawn deployment");
    let feed = handle.feed().expect("deployment has a publisher");
    let batches = probe_batches();

    // Advance off the bootstrap epoch so the retained snapshot is one
    // the publisher built, then record the pre-crash answers.
    for o in epoch_observations(0) {
        feed.observe(o).expect("publisher is live");
    }
    assert_eq!(handle.publish_now(), Some(1));
    let mut client = GateClient::connect(handle.addr(0).expect("up")).expect("connect");
    let before = frames_of(&mut client, &batches);

    handle.crash(0).expect("crash");
    assert!(handle.addrs().is_empty(), "the whole deployment is down");
    handle.restart(0).expect("restart");
    assert_eq!(handle.replica_epoch(0), Some(1));

    let mut revived = GateClient::connect(handle.addr(0).expect("up")).expect("connect");
    assert_eq!(
        frames_of(&mut revived, &batches),
        before,
        "single-replica restart failed to reproduce its own pre-crash frames"
    );
    handle.shutdown().expect("clean shutdown");
}

/// The full harness, driven through the facade: the standard fault
/// plan (crash, restart, withheld publishes, heal) under live load
/// must report bit-exact recovery and hold its SLOs.
#[test]
fn chaos_harness_confirms_recovery_under_the_standard_plan() {
    use tivoid::prelude::{run_chaos, ChaosConfig, FaultPlan};

    let cfg = ChaosConfig {
        nodes: 48,
        replicas: 2,
        queries: 1_200,
        batch: 50,
        publish_every_batches: 4,
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::standard(cfg.replicas, cfg.queries / cfg.batch);
    let report = run_chaos(&cfg, &plan).expect("chaos run");
    assert!(report.recovered_bitexact, "recovery must be bit-exact: {report}");
    assert!(report.slo_ok(), "standard plan must hold the default SLOs: {report}");
    assert!(report.unavailable_batches > 0, "the crash window must be visible");
}
