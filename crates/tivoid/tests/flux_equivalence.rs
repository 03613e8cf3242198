//! Incremental-vs-full equivalence of the `tivflux` epoch pipeline
//! (ISSUE-5 acceptance): the same observation state, built through the
//! incremental repair path and through the full-rebuild path, must
//! produce **bit-identical** snapshots — matrix, embedding, exact
//! severity, detour-served routes — across dirtiness fractions
//! {0%, 1%, 10%, 100%}, thread counts {1, 2, 4} and service shard
//! counts {1, 2, 4}. The rebuild-policy threshold (and the thread and
//! shard layout) are pure cost knobs; this test is what makes that a
//! contract rather than an intention — the same discipline as
//! `parallel_equivalence`, `serve_equivalence` and `route_equivalence`.
//!
//! Under the builder, the edge-delta repair (`DerivedState::
//! repair_edges`) is also pinned on its own against `DerivedState::
//! compute`, epoch after epoch, on inputs built to break it: tiny
//! spaces, ties, zeros, cleared edges, and edges changed twice or
//! changed back within one epoch.

use tivoid::delayspace::matrix::DelayMatrix;
use tivoid::delayspace::synth::{Dataset, InternetDelaySpace};
use tivoid::tivflux::{BuildKind, DerivedState, DirtySet, RebuildPolicy};
use tivoid::tivserve::epoch::{EpochConfig, Observation};
use tivoid::tivserve::flux::{FluxBuilder, FluxConfig};
use tivoid::tivserve::query::QueryBatch;
use tivoid::tivserve::service::{ServeConfig, TivServe};
use tivoid::tivserve::snapshot::EpochSnapshot;

/// Nodes in the test space (severity and detour passes are O(n³)).
const N: usize = 120;
/// Thread counts every path is swept over.
const THREADS: [usize; 3] = [1, 2, 4];
/// Shard counts the served answers are compared across.
const SHARDS: [usize; 3] = [1, 2, 4];
/// Dirtiness fractions of the acceptance matrix.
const FRACTIONS: [f64; 4] = [0.0, 0.01, 0.10, 1.0];

fn matrix() -> DelayMatrix {
    InternetDelaySpace::preset(Dataset::Ds2).with_nodes(N).build(11).into_matrix()
}

fn cfg(policy: RebuildPolicy, threads: usize) -> FluxConfig {
    FluxConfig {
        epoch: EpochConfig { bootstrap_rounds: 25, seed: 7, ..EpochConfig::default() },
        policy,
        threads,
        ..FluxConfig::default()
    }
}

/// Two epochs of observations whose dirty set is exactly the first
/// `ceil(frac * N)` rows: chained pairs inside that node prefix. An
/// empty fraction produces empty epochs (the 0% case — builds with
/// nothing to do must also agree).
fn observation_epochs(frac: f64) -> Vec<Vec<Observation>> {
    let rows = ((frac * N as f64).ceil() as usize).min(N);
    (0..2u64)
        .map(|epoch| {
            (0..rows.saturating_sub(1))
                .map(|i| Observation {
                    src: i,
                    dst: i + 1,
                    rtt_ms: 30.0 + ((i as u64 * 11 + epoch * 17) % 70) as f64,
                })
                .collect()
        })
        .collect()
}

fn assert_snapshots_bit_identical(a: &EpochSnapshot, b: &EpochSnapshot, what: &str) {
    assert_eq!(a.epoch(), b.epoch(), "{what}: epoch");
    assert_eq!(a.matrix(), b.matrix(), "{what}: matrix");
    for i in 0..N {
        for j in 0..N {
            assert_eq!(
                a.embedding().predicted(i, j).to_bits(),
                b.embedding().predicted(i, j).to_bits(),
                "{what}: embedding diverged at ({i},{j})"
            );
            assert_eq!(
                a.exact_severity(i, j).map(f64::to_bits),
                b.exact_severity(i, j).map(f64::to_bits),
                "{what}: exact severity diverged at ({i},{j})"
            );
            assert_eq!(a.route(i, j), b.route(i, j), "{what}: route diverged at ({i},{j})");
        }
    }
}

/// Runs the two observation epochs through a builder and returns both
/// snapshots plus the build kinds the policy picked.
fn run(policy: RebuildPolicy, threads: usize, frac: f64) -> (Vec<EpochSnapshot>, Vec<BuildKind>) {
    let (mut builder, _) = FluxBuilder::bootstrap(matrix(), cfg(policy, threads));
    let mut snaps = Vec::new();
    let mut kinds = Vec::new();
    for epoch in observation_epochs(frac) {
        for obs in epoch {
            builder.ingest(obs);
        }
        snaps.push(builder.build());
        kinds.push(builder.last_outcome().expect("build ran").kind);
    }
    (snaps, kinds)
}

#[test]
fn incremental_equals_full_rebuild_across_dirtiness_and_threads() {
    for &frac in &FRACTIONS {
        // The reference: full rebuild on one thread.
        let (reference, ref_kinds) = run(RebuildPolicy::always_full(), 1, frac);
        assert!(ref_kinds.iter().all(|&k| k == BuildKind::Full));
        for &threads in &THREADS {
            let (incr, kinds) = run(RebuildPolicy::always_incremental(), threads, frac);
            assert!(
                kinds.iter().all(|&k| k == BuildKind::Incremental),
                "policy must keep the incremental path at {frac} dirtiness"
            );
            for (e, (si, sr)) in incr.iter().zip(&reference).enumerate() {
                assert_snapshots_bit_identical(
                    si,
                    sr,
                    &format!("{:.0}% dirty, {threads} threads, epoch {}", frac * 100.0, e + 1),
                );
            }
            // The full path must also be thread-count invariant.
            let (full, _) = run(RebuildPolicy::always_full(), threads, frac);
            for (e, (sf, sr)) in full.iter().zip(&reference).enumerate() {
                assert_snapshots_bit_identical(
                    sf,
                    sr,
                    &format!(
                        "{:.0}% dirty, full path, {threads} threads, epoch {}",
                        frac * 100.0,
                        e + 1
                    ),
                );
            }
        }
    }
}

#[test]
fn default_policy_switches_paths_without_changing_results() {
    // The default 25% threshold: 1% dirt repairs, 100% dirt rebuilds —
    // and both land bit-identical to the forced-path runs above, so the
    // *served* state never betrays which path built it.
    let (_, kinds_low) = run(RebuildPolicy::default(), 2, 0.01);
    assert!(kinds_low.iter().all(|&k| k == BuildKind::Incremental), "{kinds_low:?}");
    let (_, kinds_high) = run(RebuildPolicy::default(), 2, 1.0);
    assert!(kinds_high.iter().all(|&k| k == BuildKind::Full), "{kinds_high:?}");

    let (defaults, _) = run(RebuildPolicy::default(), 2, 0.10);
    let (reference, _) = run(RebuildPolicy::always_full(), 1, 0.10);
    for (e, (sd, sr)) in defaults.iter().zip(&reference).enumerate() {
        assert_snapshots_bit_identical(sd, sr, &format!("default policy, epoch {}", e + 1));
    }
}

#[test]
fn served_answers_are_shard_and_path_invariant() {
    // Wrap the final snapshots of both paths in services at every shard
    // count and replay one query batch: estimate and route answers must
    // be bit-identical everywhere.
    let frac = 0.10;
    let (incr, _) = run(RebuildPolicy::always_incremental(), 2, frac);
    let (full, _) = run(RebuildPolicy::always_full(), 4, frac);
    let pairs: Vec<(usize, usize)> = (0..N)
        .flat_map(|a| [(a, (a + 1) % N), (a, (a * 7 + 3) % N)])
        .filter(|&(a, c)| a != c)
        .collect();
    let reference_service = TivServe::new(
        ServeConfig { shards: 1, ..ServeConfig::default() },
        incr.last().unwrap().clone(),
    );
    let (estimate_q, route_q) = (QueryBatch::Estimate(pairs.clone()), QueryBatch::Route(pairs));
    let ref_estimates = reference_service.query(&estimate_q);
    let ref_routes = reference_service.query(&route_q);
    for snapshot in [incr.last().unwrap(), full.last().unwrap()] {
        for &shards in &SHARDS {
            let service = TivServe::new(
                ServeConfig { shards, parallel_threshold: 0, ..ServeConfig::default() },
                snapshot.clone(),
            );
            assert_eq!(
                service.query(&estimate_q),
                ref_estimates,
                "estimates diverged at {shards} shards"
            );
            assert_eq!(service.query(&route_q), ref_routes, "routes diverged at {shards} shards");
        }
    }
}

/// SplitMix64: the adversarial test's own seeded stream.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    /// A delay from a tiny alphabet (0 to 4 ms), so equal `via` sums,
    /// zero delays and exact triangle equalities are common; `None`
    /// (unmeasured) one time in six.
    fn delay(&mut self) -> Option<f64> {
        (self.below(6) != 0).then(|| self.below(5) as f64)
    }

    fn edge(&mut self, n: usize) -> (usize, usize) {
        let a = self.below(n);
        (a, (a + 1 + self.below(n - 1)) % n)
    }
}

/// Writes `d` (`None` clears) to `edge` and records it the way
/// `FluxBuilder::ingest` does: only when the stored bits move.
fn write(m: &mut DelayMatrix, dirty: &mut DirtySet, (a, b): (usize, usize), d: Option<f64>) {
    let before = m.raw(a, b);
    match d {
        Some(d) => m.set(a, b, d),
        None => m.clear(a, b),
    }
    if m.raw(a, b).to_bits() != before.to_bits() {
        dirty.mark_change(a, b, before);
    }
}

fn assert_derived_bit_identical(got: &DerivedState, want: &DerivedState, what: &str) {
    let n = want.len();
    assert_eq!(got.len(), n, "{what}: size");
    let relays = |d: &DerivedState, i, j| -> Vec<(usize, u64)> {
        d.detour.relays(i, j).map(|r| (r.relay, r.via_ms.to_bits())).collect()
    };
    for i in 0..n {
        for j in 0..n {
            let (gs, ws) = (&got.severity, &want.severity);
            assert_eq!(
                gs.severity(i, j).map(f64::to_bits),
                ws.severity(i, j).map(f64::to_bits),
                "{what}: severity at ({i},{j})"
            );
            assert_eq!(gs.count(i, j), ws.count(i, j), "{what}: count at ({i},{j})");
            assert_eq!(relays(got, i, j), relays(want, i, j), "{what}: detours at ({i},{j})");
        }
    }
}

#[test]
fn edge_repair_equals_compute_on_adversarial_epochs() {
    let mut epochs = 0;
    for n in [3usize, 4, 5, 64] {
        for k in [1usize, 2, 5] {
            for threads in THREADS {
                let mut rng = Mix((n * 100 + k * 10 + threads) as u64);
                let mut m = DelayMatrix::from_fn(n, |_, _| rng.delay());
                let mut state = DerivedState::compute(&m, k, threads);
                let mut dirty = DirtySet::new(n);
                for epoch in 1..=6 {
                    for _ in 0..1 + rng.below(if n > 5 { 12 } else { 4 }) {
                        let edge = rng.edge(n);
                        match rng.below(4) {
                            // One write: a new delay, a zero, or a clear.
                            0 | 1 => write(&mut m, &mut dirty, edge, rng.delay()),
                            // The same edge changed twice.
                            2 => {
                                write(&mut m, &mut dirty, edge, rng.delay());
                                write(&mut m, &mut dirty, edge, rng.delay());
                            }
                            // Changed, then put back to its start value.
                            _ => {
                                let start = m.get(edge.0, edge.1);
                                write(&mut m, &mut dirty, edge, rng.delay());
                                write(&mut m, &mut dirty, edge, start);
                            }
                        }
                    }
                    state.repair_edges(&m, dirty.changed_edges(), threads);
                    dirty.clear();
                    let what = format!("n = {n}, k = {k}, {threads} threads, epoch {epoch}");
                    assert_derived_bit_identical(&state, &DerivedState::compute(&m, k, 1), &what);
                    epochs += 1;
                }
            }
        }
    }
    assert!(epochs >= 200, "only {epochs} epochs checked");
}
