//! The chaos harness: a scripted fault plan driven against a real
//! multi-replica deployment.
//!
//! One single-threaded loop sends a seeded Zipf workload's batches back
//! to back to a [`Deployment`] over real sockets, applying the plan's
//! faults at batch boundaries and forcing epoch publishes on a fixed
//! batch cadence ([`DeploymentHandle::publish_now`] is synchronous, so
//! the epoch timeline is deterministic too). Each batch targets the
//! replica `batch_index % replicas`; a batch whose replica is down is
//! counted unavailable without any I/O — which makes
//! `unavailable_batches` and `max_staleness_epochs` exact,
//! plan-determined counts. The harness counts; it times nothing
//! (tivmark's `tivgate.*` and `tivserve.*` layers do).
//!
//! After the workload run the harness heals the deployment and
//! performs the **bit-exact recovery check**: every replica —
//! restarted or not — must answer probe frames byte-identically to a
//! replica the plan never crashed. This extends the repo's
//! wire-equivalence discipline across failure and recovery: a restart
//! rebuilds state from the retained snapshot through the one
//! validated constructor surface, so there is nothing a crash is
//! allowed to change.

use crate::fault::{FaultKind, FaultPlan};
use delayspace::synth::{Dataset, InternetDelaySpace};
use std::fmt;
use std::io;
use std::time::Duration;
use tivgate::client::GateClient;
use tivgate::deploy::{Deployment, DeploymentHandle};
use tivgate::proto::{to_wire_pairs, Request, Response};
use tivserve::loadgen::{generate, QueryBatch, WorkloadConfig};
use tivserve::service::ServeConfig;
use tivserve::FluxBuilder;

/// Service-level objectives a chaos run is held to.
#[derive(Clone, Copy, Debug)]
pub struct SloSpec {
    /// Minimum fraction of workload batches that must be answered.
    pub min_availability: f64,
    /// Maximum epochs any answered batch may lag the latest built
    /// snapshot.
    pub max_staleness_epochs: u64,
}

impl Default for SloSpec {
    fn default() -> Self {
        // The standard plan keeps one of >= 2 replicas down for a
        // quarter of the run: availability bottoms out at
        // 1 - (1/4)/replicas. 0.85 holds from 2 replicas up with
        // margin; two gated publishes bound staleness at 2.
        SloSpec { min_availability: 0.85, max_staleness_epochs: 3 }
    }
}

/// Everything a chaos run can tune.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Nodes in the synthetic DS²-style delay space.
    pub nodes: usize,
    /// Deployment replicas.
    pub replicas: usize,
    /// Total edge queries of the workload.
    pub queries: usize,
    /// Queries per batch.
    pub batch: usize,
    /// Fraction of operations that are RTT observations, in `[0, 1)`.
    pub observe_frac: f64,
    /// Force an epoch publish every this many batches (0 disables the
    /// publisher entirely). Batch-cadence publishing keeps the epoch
    /// timeline — and with it the staleness measurements — a pure
    /// function of the plan.
    pub publish_every_batches: usize,
    /// Master seed (space, embedding, workload).
    pub seed: u64,
    /// Objectives the report is checked against.
    pub slo: SloSpec,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            nodes: 192,
            replicas: 3,
            queries: 6_000,
            batch: 64,
            observe_frac: 0.1,
            publish_every_batches: 8,
            seed: 42,
            slo: SloSpec::default(),
        }
    }
}

/// The outcome of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Queries answered.
    pub queries_answered: usize,
    /// Observations the workload attempted to stream.
    pub observations: usize,
    /// Observations that could not be delivered to the epoch builder
    /// (its feed was closed — e.g. the builder thread died). Always 0
    /// in a healthy run; surfaced instead of silently discarded so a
    /// wedged builder cannot masquerade as a fresh one.
    pub observations_undelivered: usize,
    /// Deployment replicas.
    pub replicas: usize,
    /// Workload batches scheduled, answered or not.
    pub batches_total: usize,
    /// Batches that found their replica down (no I/O attempted) or
    /// failed on the wire. Deterministic given the plan.
    pub unavailable_batches: usize,
    /// Batches that failed on the wire despite the replica being
    /// nominally up (included in `unavailable_batches`).
    pub wire_failures: usize,
    /// Epochs force-published during the run.
    pub epochs_published: u64,
    /// Worst staleness (epochs behind the latest build) any answered
    /// batch observed. Deterministic given the plan.
    pub max_staleness_epochs: u64,
    /// Publishes withheld by skip-publish fault gates.
    pub publishes_skipped: u64,
    /// Crashes injected.
    pub crashes: usize,
    /// Restarts injected (heals included).
    pub restarts: usize,
    /// Whether every replica answered the post-heal probe frames
    /// byte-identically to a never-crashed control replica.
    pub recovered_bitexact: bool,
    /// The objectives the run was held to.
    pub slo: SloSpec,
}

impl ChaosReport {
    /// Fraction of scheduled batches answered.
    pub fn availability(&self) -> f64 {
        if self.batches_total == 0 {
            1.0
        } else {
            1.0 - self.unavailable_batches as f64 / self.batches_total as f64
        }
    }

    /// Whether the availability objective held.
    pub fn availability_ok(&self) -> bool {
        self.availability() >= self.slo.min_availability
    }

    /// Whether the staleness objective held.
    pub fn staleness_ok(&self) -> bool {
        self.max_staleness_epochs <= self.slo.max_staleness_epochs
    }

    /// Whether every objective held, recovery included.
    pub fn slo_ok(&self) -> bool {
        self.availability_ok() && self.staleness_ok() && self.recovered_bitexact
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos: {} replicas, {} batches — availability {:.1}% ({} unavailable, \
             {} wire failures) [SLO >= {:.1}%: {}]",
            self.replicas,
            self.batches_total,
            self.availability() * 100.0,
            self.unavailable_batches,
            self.wire_failures,
            self.slo.min_availability * 100.0,
            if self.availability_ok() { "ok" } else { "VIOLATED" },
        )?;
        writeln!(
            f,
            "  staleness: max {} epochs behind ({} published, {} withheld) [SLO <= {}: {}]",
            self.max_staleness_epochs,
            self.epochs_published,
            self.publishes_skipped,
            self.slo.max_staleness_epochs,
            if self.staleness_ok() { "ok" } else { "VIOLATED" },
        )?;
        writeln!(
            f,
            "  faults: {} crash(es), {} restart(s) — recovery bit-exact: {}",
            self.crashes,
            self.restarts,
            if self.recovered_bitexact { "yes" } else { "NO" },
        )?;
        write!(
            f,
            "  served: {} queries, {} observations ({} undelivered)",
            self.queries_answered, self.observations, self.observations_undelivered,
        )
    }
}

/// Applies one fault to the live deployment.
fn apply_fault(
    handle: &DeploymentHandle,
    kind: FaultKind,
    crashes: &mut usize,
    restarts: &mut usize,
) -> io::Result<()> {
    match kind {
        FaultKind::Crash { replica } => {
            handle.crash(replica)?;
            *crashes += 1;
        }
        FaultKind::Restart { replica } => {
            handle.restart(replica)?;
            *restarts += 1;
        }
        FaultKind::SkipPublishes { replica, publishes } => {
            handle.skip_publishes(replica, publishes);
        }
        FaultKind::Heal => {
            for r in 0..handle.replicas() {
                if handle.addr(r).is_none() {
                    handle.restart(r)?;
                    *restarts += 1;
                }
                handle.skip_publishes(r, 0);
            }
        }
    }
    Ok(())
}

/// Heals the deployment (every replica up, no publish gates), levels
/// all replicas onto one epoch, and checks every replica's probe
/// answers byte-equal a never-crashed control's.
fn check_bitexact_recovery(
    handle: &DeploymentHandle,
    plan: &FaultPlan,
    batches: &[QueryBatch],
    restarts: &mut usize,
) -> io::Result<bool> {
    for r in 0..handle.replicas() {
        if handle.addr(r).is_none() {
            handle.restart(r)?;
            *restarts += 1;
        }
        handle.skip_publishes(r, 0);
    }
    let control = plan.never_crashed(handle.replicas())[0];
    let mut clients = Vec::with_capacity(handle.replicas());
    for r in 0..handle.replicas() {
        clients.push(GateClient::connect(handle.addr(r).expect("healed replica is up"))?);
    }
    let probe = |clients: &mut Vec<GateClient>,
                 include: &dyn Fn(usize) -> bool|
     -> io::Result<bool> {
        for (bi, batch) in batches.iter().take(4).enumerate() {
            let req =
                Request::Estimate { id: 0x7000 + bi as u32, pairs: to_wire_pairs(&batch.pairs) };
            let want = clients[control].call_frame(&req)?;
            for (r, client) in clients.iter_mut().enumerate() {
                if r == control || !include(r) {
                    continue;
                }
                if client.call_frame(&req)? != want {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    };
    // Pass 1: every replica already at the latest epoch — which every
    // restarted replica is, since restart rebuilds from the retained
    // snapshot — must answer like the control *before* a fresh publish
    // could mask a bad rebuild. Only possible when the control itself
    // is current.
    let latest = handle.latest_epoch();
    if handle.replica_epoch(control) == Some(latest) {
        let current: Vec<bool> =
            (0..handle.replicas()).map(|r| handle.replica_epoch(r) == Some(latest)).collect();
        if !probe(&mut clients, &|r| current[r])? {
            return Ok(false);
        }
    }
    // Pass 2: level publish-gated (stale) replicas onto one epoch and
    // compare everyone.
    handle.publish_now();
    probe(&mut clients, &|_| true)
}

/// Runs the full chaos experiment: spawn the deployment, play the
/// workload through the plan's faults, heal, and verify bit-exact
/// recovery. Errors surface I/O failures of the harness itself (a
/// fault that fails to inject, a probe that fails post-heal) — faults
/// *experienced by the workload* are counted, not errors. An invalid
/// plan or a config that cannot be run (fewer than two nodes, no
/// replica, a zero batch, or an `observe_frac` outside `[0, 1)`) is
/// rejected with `InvalidInput` before anything starts.
pub fn run_chaos(cfg: &ChaosConfig, plan: &FaultPlan) -> io::Result<ChaosReport> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidInput, e);
    plan.validate(cfg.replicas).map_err(invalid)?;
    if cfg.nodes < 2
        || cfg.replicas == 0
        || cfg.batch == 0
        || !(0.0..1.0).contains(&cfg.observe_frac)
    {
        return Err(invalid(format!(
            "unrunnable config: nodes {}, replicas {}, batch {}, observe_frac {:?}",
            cfg.nodes, cfg.replicas, cfg.batch, cfg.observe_frac
        )));
    }
    let matrix = InternetDelaySpace::preset(Dataset::Ds2)
        .with_nodes(cfg.nodes)
        .build(cfg.seed)
        .into_matrix();
    let epoch_cfg = tivserve::EpochConfig { seed: cfg.seed, ..tivserve::EpochConfig::default() };
    let (builder, snapshot) = FluxBuilder::bootstrap(matrix.clone(), epoch_cfg);
    let batches = generate(
        &WorkloadConfig {
            queries: cfg.queries,
            batch: cfg.batch,
            observe_frac: cfg.observe_frac,
            seed: cfg.seed,
            ..WorkloadConfig::default()
        },
        &matrix,
    );
    let with_publisher = cfg.publish_every_batches > 0;
    let deployment = Deployment::new(snapshot, ServeConfig::default()).replicas(cfg.replicas);
    let handle = if with_publisher {
        // The observation threshold never fires on its own: epochs
        // advance only on the harness's forced batch-cadence publishes,
        // keeping the epoch timeline plan-deterministic.
        deployment.publisher(builder, usize::MAX / 2).spawn()?
    } else {
        deployment.spawn()?
    };
    let feed = handle.feed();

    let mut clients: Vec<Option<GateClient>> = (0..cfg.replicas).map(|_| None).collect();
    let mut crashes = 0usize;
    let mut restarts = 0usize;
    let mut unavailable = 0usize;
    let mut wire_failures = 0usize;
    let mut epochs_published = 0u64;
    let mut max_staleness = 0u64;
    let mut queries_answered = 0usize;
    let mut observations = 0usize;
    let mut undelivered = 0usize;

    for (bi, batch) in batches.iter().enumerate() {
        for event in plan.events_at(bi) {
            apply_fault(&handle, event.kind, &mut crashes, &mut restarts)?;
            if let FaultKind::Crash { replica } | FaultKind::Restart { replica } = event.kind {
                clients[replica] = None; // the old connection is dead either way
            }
        }
        if with_publisher
            && bi > 0
            && bi % cfg.publish_every_batches == 0
            && handle.publish_now().is_some()
        {
            epochs_published += 1;
        }
        if let Some(feed) = &feed {
            for &obs in &batch.observations {
                observations += 1;
                if feed.observe(obs).is_err() {
                    undelivered += 1;
                }
            }
        } else {
            observations += batch.observations.len();
        }
        let replica = bi % cfg.replicas;
        let Some(addr) = handle.addr(replica) else {
            unavailable += 1;
            continue;
        };
        if clients[replica].is_none() {
            match GateClient::connect(addr) {
                Ok(c) => {
                    let _ = c.set_read_timeout(Some(Duration::from_millis(2_000)));
                    clients[replica] = Some(c);
                }
                Err(_) => {
                    unavailable += 1;
                    wire_failures += 1;
                    continue;
                }
            }
        }
        let req = Request::Estimate { id: bi as u32, pairs: to_wire_pairs(&batch.pairs) };
        match clients[replica].as_mut().expect("connected above").call(&req) {
            Ok(Response::Estimate { items, .. }) => {
                queries_answered += items.len();
                let latest = handle.latest_epoch();
                for item in &items {
                    max_staleness = max_staleness.max(latest.saturating_sub(item.epoch));
                }
            }
            Ok(_) | Err(_) => {
                // Error frame or transport failure: the batch goes
                // unanswered and the connection is rebuilt lazily.
                unavailable += 1;
                wire_failures += 1;
                clients[replica] = None;
            }
        }
    }
    let recovered_bitexact = check_bitexact_recovery(&handle, plan, &batches, &mut restarts)?;
    let publishes_skipped = handle.publishes_skipped();
    handle.shutdown()?;
    Ok(ChaosReport {
        queries_answered,
        observations,
        observations_undelivered: undelivered,
        replicas: cfg.replicas,
        batches_total: batches.len(),
        unavailable_batches: unavailable,
        wire_failures,
        epochs_published,
        max_staleness_epochs: max_staleness,
        publishes_skipped,
        crashes,
        restarts,
        recovered_bitexact,
        slo: cfg.slo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosConfig {
        ChaosConfig {
            nodes: 48,
            replicas: 2,
            queries: 1_200,
            batch: 50,
            publish_every_batches: 4,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn faultless_run_is_fully_available_and_current() {
        let report = run_chaos(&tiny(), &FaultPlan::none()).expect("chaos run");
        assert_eq!(report.unavailable_batches, 0);
        assert_eq!(report.wire_failures, 0);
        assert!((report.availability() - 1.0).abs() < 1e-12);
        // Staleness can reach 1 transiently (the batch right after a
        // forced publish may answer from the previous epoch on a
        // replica the publish reached after the query) — but here
        // publishes are synchronous, so even that cannot happen.
        assert_eq!(report.max_staleness_epochs, 0);
        assert!(report.recovered_bitexact);
        assert!(report.slo_ok(), "faultless run violates its own SLOs: {report}");
        assert!(report.epochs_published > 0);
        assert_eq!(report.observations_undelivered, 0);
    }

    #[test]
    fn standard_plan_degrades_and_recovers_deterministically() {
        let cfg = tiny();
        let batches_total = cfg.queries / cfg.batch;
        let plan = FaultPlan::standard(cfg.replicas, batches_total);
        let a = run_chaos(&cfg, &plan).expect("chaos run");
        let b = run_chaos(&cfg, &plan).expect("chaos run");
        // Availability and staleness are pure functions of the plan.
        assert_eq!(a.unavailable_batches, b.unavailable_batches);
        assert_eq!(a.max_staleness_epochs, b.max_staleness_epochs);
        assert_eq!(a.publishes_skipped, b.publishes_skipped);
        assert!(a.unavailable_batches > 0, "the crash window must cost batches");
        assert!(a.max_staleness_epochs > 0, "the publish gate must show up as staleness");
        assert_eq!(a.wire_failures, 0, "down replicas are skipped without I/O");
        assert!(a.recovered_bitexact, "restart must recover bit-exactly");
        assert!(a.slo_ok(), "standard plan must stay within default SLOs: {a}");
        assert!(a.crashes == 1 && a.restarts >= 1);
    }

    #[test]
    fn invalid_plans_are_rejected_up_front() {
        let cfg = tiny();
        let bad = FaultPlan {
            events: vec![crate::fault::FaultEvent {
                at_batch: 0,
                kind: FaultKind::Crash { replica: 7 },
            }],
        };
        let err = run_chaos(&cfg, &bad).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn degenerate_configs_are_rejected_up_front() {
        let mut bad: Vec<ChaosConfig> =
            [0, 1].into_iter().map(|nodes| ChaosConfig { nodes, ..tiny() }).collect();
        bad.push(ChaosConfig { replicas: 0, ..tiny() });
        bad.push(ChaosConfig { batch: 0, ..tiny() });
        for observe_frac in [1.0, -0.1, f64::NAN] {
            bad.push(ChaosConfig { observe_frac, ..tiny() });
        }
        for cfg in bad {
            let err = run_chaos(&cfg, &FaultPlan::none()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{cfg:?}");
        }
    }
}
