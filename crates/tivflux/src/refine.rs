//! Dirty-local embedding refinement.
//!
//! A full Vivaldi re-run is a *global* iterative process: every node's
//! coordinate depends on every other node's trajectory, so it cannot be
//! recomputed for a subset of nodes without changing the answer for all
//! of them. The incremental epoch pipeline therefore defines its
//! per-epoch embedding update differently: each **dirty** node
//! re-solves its own coordinate against the *previous* epoch's frozen
//! embedding by deterministic spring relaxation over its measured
//! matrix row, and clean nodes keep their coordinates.
//!
//! The update of node `i` is a pure function of `(matrix row i,
//! previous embedding, config)` — it never reads another dirty node's
//! in-progress coordinate — so it parallelises over the dirty set with
//! [`tivpar`] and is bit-identical at every thread count, and the
//! rebuild-policy fallback (which recomputes severity and detours from
//! scratch) runs the *same* embedding update: the policy can change
//! cost, never results.

use delayspace::matrix::{DelayMatrix, NodeId};
use vivaldi::{Coord, Embedding};

/// Tuning of the dirty-node coordinate refinement.
#[derive(Clone, Copy, Debug)]
pub struct RefineConfig {
    /// Relaxation sweeps per dirty node. Each sweep accumulates the
    /// spring force of every measured neighbor (against its *previous*
    /// coordinate) and applies the mean displacement once.
    pub iterations: usize,
    /// Base step of the first sweep; sweep `t` uses `step / (t + 1)`
    /// (the classic damped schedule, so the solve cannot oscillate).
    pub step: f64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig { iterations: 12, step: 0.5 }
    }
}

/// Refines the coordinates of exactly the `dirty` nodes of `prev`
/// against the current `matrix`, keeping every clean node's coordinate
/// bit-identical. Uses up to `threads` workers over the dirty set
/// ([`tivpar::resolve_threads`] semantics).
///
/// # Panics
/// Panics when the matrix and embedding disagree on the node count, or
/// when `dirty` is not strictly increasing or names a node `>= n`.
pub fn refine_embedding(
    prev: &Embedding,
    matrix: &DelayMatrix,
    dirty: &[NodeId],
    cfg: &RefineConfig,
    threads: usize,
) -> Embedding {
    let mut next = prev.clone();
    refine_nodes(prev, matrix, dirty, cfg, threads, &mut next);
    next
}

/// Refines exactly the `nodes` like [`refine_embedding`], but writes
/// each node's coordinate into `next` and leaves every other node of
/// `next` as it is: the form for a caller that keeps its own
/// coordinate buffer and refines a few nodes at a time. A node's update
/// reads only its matrix row and `prev`, so refining a set over several
/// calls, each node again whenever its row changed, leaves `next` as
/// one call over the final matrix would.
///
/// # Panics
/// Panics when the matrix, `prev` and `next` disagree on the node
/// count or the dimensionality, or when `nodes` is not strictly
/// increasing or names a node `>= n`.
pub fn refine_nodes(
    prev: &Embedding,
    matrix: &DelayMatrix,
    nodes: &[NodeId],
    cfg: &RefineConfig,
    threads: usize,
    next: &mut Embedding,
) {
    let n = matrix.len();
    assert_eq!(prev.len(), n, "embedding covers {} of {n} nodes", prev.len());
    assert_eq!(next.len(), n, "coordinate buffer covers {} of {n} nodes", next.len());
    assert!(nodes.windows(2).all(|w| w[0] < w[1]), "dirty rows must be strictly increasing");
    if let Some(&last) = nodes.last() {
        assert!(last < n, "dirty row {last} outside {n} nodes");
    }
    let refined: Vec<Coord> =
        tivpar::par_map_rows(nodes.len(), threads, |k| refine_node(prev, matrix, nodes[k], cfg));
    for (&i, c) in nodes.iter().zip(refined) {
        next.set_coord(i, c);
    }
}

/// Re-solves one node's coordinate against the frozen `prev` embedding:
/// damped spring relaxation over the node's measured row, in fixed
/// neighbor order, so the result is a pure deterministic function of
/// `(row, prev, cfg)`.
fn refine_node(prev: &Embedding, matrix: &DelayMatrix, i: NodeId, cfg: &RefineConfig) -> Coord {
    let row = matrix.row(i);
    let dims = prev.coord(i).dims();
    let mut x: Vec<f64> = prev.coord(i).as_slice().to_vec();
    // Heights model per-node access delay; a row change does not move
    // the access link, so the height is carried through unchanged (the
    // default plain model has height 0 everywhere anyway).
    let h = prev.coord(i).height();
    let mut delta = vec![0.0f64; dims];
    for sweep in 0..cfg.iterations {
        let gain = cfg.step / (sweep as f64 + 1.0);
        delta.fill(0.0);
        let mut neighbors = 0usize;
        for (j, &d) in row.iter().enumerate() {
            if j == i || d.is_nan() {
                continue;
            }
            let other = prev.coord(j);
            let ov = other.as_slice();
            let mut norm2 = 0.0f64;
            for (a, b) in x.iter().zip(ov) {
                norm2 += (a - b) * (a - b);
            }
            let norm = norm2.sqrt();
            let dist = norm + h + other.height();
            let err = d - dist; // positive: spring too short, push away
            if norm > 1e-12 {
                for ((dv, a), b) in delta.iter_mut().zip(&x).zip(ov) {
                    *dv += err * (a - b) / norm;
                }
            } else {
                // Coincident planar points: a deterministic unit
                // direction along the first axis (the global Vivaldi
                // system breaks such ties randomly; the refinement must
                // stay a pure function of its inputs).
                delta[0] += err;
            }
            neighbors += 1;
        }
        if neighbors == 0 {
            break; // fully unmeasured row: nothing to solve against
        }
        let scale = gain / neighbors as f64;
        for (c, dv) in x.iter_mut().zip(&delta) {
            *c += scale * dv;
        }
    }
    Coord::with_height(x, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use simnet::net::{JitterModel, Network};
    use vivaldi::{VivaldiConfig, VivaldiSystem};

    fn fixture(n: usize, seed: u64) -> (DelayMatrix, Embedding) {
        let m = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed).into_matrix();
        let mut sys = VivaldiSystem::new(VivaldiConfig::default(), n, seed);
        let mut net = Network::new(&m, JitterModel::None, seed);
        sys.run_rounds(&mut net, 60);
        (m, sys.embedding())
    }

    fn row_abs_error(emb: &Embedding, m: &DelayMatrix, i: NodeId) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for j in 0..m.len() {
            if j == i {
                continue;
            }
            if let Some(d) = m.get(i, j) {
                total += (emb.predicted(i, j) - d).abs();
                count += 1;
            }
        }
        total / count.max(1) as f64
    }

    #[test]
    fn clean_nodes_keep_their_coordinates() {
        let (mut m, emb) = fixture(40, 1);
        m.set(3, 9, m.get(3, 9).unwrap() * 4.0);
        let refined = refine_embedding(&emb, &m, &[3, 9], &RefineConfig::default(), 2);
        for i in 0..40 {
            if i == 3 || i == 9 {
                continue;
            }
            assert_eq!(refined.coord(i), emb.coord(i), "clean node {i} moved");
        }
        assert_ne!(refined.coord(3), emb.coord(3), "dirty node should move");
    }

    #[test]
    fn refinement_reduces_the_dirty_rows_error() {
        let (mut m, emb) = fixture(60, 3);
        // Shift node 7's whole row: scale every measured delay.
        for j in 0..60 {
            if j != 7 {
                if let Some(d) = m.get(7, j) {
                    m.set(7, j, d * 1.6);
                }
            }
        }
        let stale = row_abs_error(&emb, &m, 7);
        let refined = refine_embedding(&emb, &m, &[7], &RefineConfig::default(), 1);
        let fresh = row_abs_error(&refined, &m, 7);
        assert!(
            fresh < stale,
            "refinement should reduce the dirty row's error: {fresh:.2} !< {stale:.2}"
        );
    }

    #[test]
    fn bit_identical_across_thread_counts_and_independent_per_node() {
        let (mut m, emb) = fixture(50, 5);
        m.set(1, 2, 250.0);
        m.set(20, 40, 3.0);
        let dirty = vec![1usize, 2, 20, 40];
        let cfg = RefineConfig::default();
        let serial = refine_embedding(&emb, &m, &dirty, &cfg, 1);
        for t in [2usize, 4, 7] {
            let par = refine_embedding(&emb, &m, &dirty, &cfg, t);
            for i in 0..50 {
                let (a, b) = (serial.coord(i).as_slice(), par.coord(i).as_slice());
                let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb, "coords diverged at node {i}, {t} threads");
            }
        }
        // Per-node independence: refining {1} alone gives node 1 the
        // same coordinate as refining the whole dirty set (every solve
        // reads only the previous embedding, never a peer's update).
        let solo = refine_embedding(&emb, &m, &[1], &cfg, 1);
        assert_eq!(solo.coord(1), serial.coord(1));
    }

    #[test]
    fn empty_dirty_set_is_identity() {
        let (m, emb) = fixture(30, 7);
        let out = refine_embedding(&emb, &m, &[], &RefineConfig::default(), 4);
        for i in 0..30 {
            assert_eq!(out.coord(i), emb.coord(i));
        }
    }

    #[test]
    fn fully_unmeasured_row_stays_put() {
        let (mut m, emb) = fixture(20, 9);
        for j in 0..20 {
            m.clear(5, j);
        }
        let out = refine_embedding(&emb, &m, &[5], &RefineConfig::default(), 1);
        assert_eq!(out.coord(5), emb.coord(5));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_dirty_set_rejected() {
        let (m, emb) = fixture(10, 1);
        refine_embedding(&emb, &m, &[2, 1], &RefineConfig::default(), 1);
    }
}
