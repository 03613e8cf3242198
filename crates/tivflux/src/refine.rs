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
//!
//! The solve reads the previous embedding through a
//! [`FrozenEmbedding`], a flat dimension-major copy made once per
//! epoch, and works over tiles of neighbours so its distance, error and
//! spring-term lanes vectorise; it adds the terms in ascending
//! neighbour order, so it is the per-neighbour loop to the bit.

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
    refine_nodes(&FrozenEmbedding::new(prev), matrix, dirty, cfg, threads, &mut next);
    next
}

/// Refines exactly the `nodes` like [`refine_embedding`], against the
/// [`FrozenEmbedding`] layout of the previous embedding, but writes
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
    prev: &FrozenEmbedding,
    matrix: &DelayMatrix,
    nodes: &[NodeId],
    cfg: &RefineConfig,
    threads: usize,
    next: &mut Embedding,
) {
    let n = matrix.len();
    assert_eq!(prev.n, n, "embedding covers {} of {n} nodes", prev.n);
    assert_eq!(next.len(), n, "coordinate buffer covers {} of {n} nodes", next.len());
    assert!(nodes.windows(2).all(|w| w[0] < w[1]), "dirty rows must be strictly increasing");
    if let Some(&last) = nodes.last() {
        assert!(last < n, "dirty row {last} outside {n} nodes");
    }
    let refined: Vec<Coord> = tivpar::par_map_rows(nodes.len(), threads, |k| {
        refine_node(prev, matrix.row(nodes[k]), nodes[k], cfg)
    });
    for (&i, c) in nodes.iter().zip(refined) {
        next.set_coord(i, c);
    }
}

/// Neighbours per tile of the refinement kernel: each lane pass over a
/// tile (distances, errors, spring terms) runs across this many
/// neighbours at once, so it vectorises.
const TILE: usize = 64;

/// Axes per block of the refinement kernel: the displacement is
/// accumulated up to `AXES` axes at a time, in registers, one
/// independent sum per axis.
const AXES: usize = 8;

/// A frozen embedding laid out for [`refine_nodes`]: every axis of
/// every node in one flat, dimension-major buffer (axis `k` of node `j`
/// at `k · n + j`) and the heights beside it, so the kernel reads each
/// axis as a contiguous run over neighbours. Holds the same bits as the
/// embedding it was made from.
#[derive(Clone, Debug)]
pub struct FrozenEmbedding {
    n: usize,
    dims: usize,
    axes: Vec<f64>,
    heights: Vec<f64>,
}

impl FrozenEmbedding {
    /// Lays `embedding` out flat, one `O(n · dims)` copy.
    pub fn new(embedding: &Embedding) -> Self {
        let n = embedding.len();
        let dims = embedding.coord(0).dims();
        let mut axes = vec![0.0; dims * n];
        for (j, c) in embedding.coords().iter().enumerate() {
            for (k, &v) in c.as_slice().iter().enumerate() {
                axes[k * n + j] = v;
            }
        }
        let heights = embedding.coords().iter().map(Coord::height).collect();
        FrozenEmbedding { n, dims, axes, heights }
    }

    /// Axis `k` of every node.
    fn axis(&self, k: usize) -> &[f64] {
        &self.axes[k * self.n..(k + 1) * self.n]
    }
}

/// Re-solves node `i`'s coordinate against the frozen `prev` embedding:
/// damped spring relaxation over the node's measured `row`, so the
/// result is a pure deterministic function of `(row, prev, cfg)`.
///
/// Each sweep computes, per tile of neighbours, every lane's distance,
/// error and spring terms at once, and then adds the terms to the
/// displacement in ascending neighbour order. Each lane keeps the
/// operation order of the textbook per-neighbour loop, and a skipped
/// lane (the node itself, an unmeasured delay) or a coincident point's
/// unused axis contributes `-0.0`, the one addend that changes no sum,
/// so the result is the textbook loop's to the bit.
fn refine_node(prev: &FrozenEmbedding, row: &[f64], i: NodeId, cfg: &RefineConfig) -> Coord {
    let (n, dims) = (prev.n, prev.dims);
    let mut x: Vec<f64> = (0..dims).map(|k| prev.axis(k)[i]).collect();
    // Heights model per-node access delay; a row change does not move
    // the access link, so the height is carried through unchanged (the
    // default plain model has height 0 everywhere anyway).
    let h = prev.heights[i];
    let measured: Vec<bool> = row.iter().enumerate().map(|(j, d)| j != i && !d.is_nan()).collect();
    let neighbors = measured.iter().filter(|&&m| m).count();
    if neighbors == 0 {
        return Coord::with_height(x, h); // fully unmeasured row: nothing to solve against
    }
    let mut delta = vec![0.0f64; dims];
    let (mut norm, mut err) = ([0.0f64; TILE], [0.0f64; TILE]);
    // One block of axes' spring terms over a tile, axis-major.
    let mut terms = [[0.0f64; TILE]; AXES];
    for sweep in 0..cfg.iterations {
        let gain = cfg.step / (sweep as f64 + 1.0);
        delta.fill(0.0);
        for start in (0..n).step_by(TILE) {
            let end = (start + TILE).min(n);
            let lanes = end - start;
            let (d, heights, measured) =
                (&row[start..end], &prev.heights[start..end], &measured[start..end]);
            let (norm, err) = (&mut norm[..lanes], &mut err[..lanes]);
            norm.fill(0.0);
            for (k, &a) in x.iter().enumerate() {
                for (s, &b) in norm.iter_mut().zip(&prev.axis(k)[start..end]) {
                    *s += (a - b) * (a - b);
                }
            }
            for (((s, e), &dj), &hj) in norm.iter_mut().zip(err.iter_mut()).zip(d).zip(heights) {
                *s = s.sqrt();
                *e = dj - (*s + h + hj); // positive: spring too short, push away
            }
            for block in (0..dims).step_by(AXES) {
                let width = (dims - block).min(AXES);
                for (kk, out) in terms[..width].iter_mut().enumerate() {
                    let k = block + kk;
                    let (a, axis) = (x[k], &prev.axis(k)[start..end]);
                    let inputs = norm.iter().zip(err.iter()).zip(axis).zip(measured);
                    for ((((&s, &e), &b), &m), t) in inputs.zip(&mut out[..lanes]) {
                        let spring = e * (a - b) / s;
                        // Coincident planar points: a deterministic unit
                        // direction along the first axis (the global
                        // Vivaldi system breaks such ties randomly; the
                        // refinement must stay a pure function of its
                        // inputs).
                        let coincident = if k == 0 { e } else { -0.0 };
                        let term = if s > 1e-12 { spring } else { coincident };
                        *t = if m { term } else { -0.0 };
                    }
                }
                let sums = &mut delta[block..block + width];
                match width {
                    1 => add_terms::<1>(sums, &terms, lanes),
                    2 => add_terms::<2>(sums, &terms, lanes),
                    3 => add_terms::<3>(sums, &terms, lanes),
                    4 => add_terms::<4>(sums, &terms, lanes),
                    5 => add_terms::<5>(sums, &terms, lanes),
                    6 => add_terms::<6>(sums, &terms, lanes),
                    7 => add_terms::<7>(sums, &terms, lanes),
                    _ => add_terms::<AXES>(sums, &terms, lanes),
                }
            }
        }
        let scale = gain / neighbors as f64;
        for (c, dv) in x.iter_mut().zip(&delta) {
            *c += scale * dv;
        }
    }
    Coord::with_height(x, h)
}

/// Adds `W` axes' spring terms, lane by lane in ascending order, to
/// their running sums `delta`: `W` independent sums the compiler keeps
/// in registers.
fn add_terms<const W: usize>(delta: &mut [f64], terms: &[[f64; TILE]; AXES], lanes: usize) {
    let mut sums = [0.0f64; W];
    sums.copy_from_slice(delta);
    // `min` tells the compiler every `t[l]` is in bounds.
    for l in 0..lanes.min(TILE) {
        for (sum, t) in sums.iter_mut().zip(terms) {
            *sum += t[l];
        }
    }
    delta.copy_from_slice(&sums);
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

    /// The textbook refinement the tiled kernel replaced: one neighbour
    /// at a time, reading the embedding's coordinates directly. The
    /// reference [`refine_node`] is pinned against, bit for bit.
    fn textbook_refine_node(
        prev: &Embedding,
        matrix: &DelayMatrix,
        i: NodeId,
        cfg: &RefineConfig,
    ) -> Coord {
        let row = matrix.row(i);
        let dims = prev.coord(i).dims();
        let mut x: Vec<f64> = prev.coord(i).as_slice().to_vec();
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
                let err = d - dist;
                if norm > 1e-12 {
                    for ((dv, a), b) in delta.iter_mut().zip(&x).zip(ov) {
                        *dv += err * (a - b) / norm;
                    }
                } else {
                    delta[0] += err;
                }
                neighbors += 1;
            }
            if neighbors == 0 {
                break;
            }
            let scale = gain / neighbors as f64;
            for (c, dv) in x.iter_mut().zip(&delta) {
                *c += scale * dv;
            }
        }
        Coord::with_height(x, h)
    }

    /// A coordinate's bits: its axes, then its height.
    fn bits(c: &Coord) -> Vec<u64> {
        c.as_slice().iter().chain([&c.height()]).map(|v| v.to_bits()).collect()
    }

    /// Refines every node of `nodes` with the tiled kernel and asserts
    /// each matches the textbook loop to the bit.
    fn assert_matches_textbook(emb: &Embedding, m: &DelayMatrix, nodes: &[NodeId], what: &str) {
        let cfg = RefineConfig::default();
        let frozen = FrozenEmbedding::new(emb);
        for &i in nodes {
            let tiled = refine_node(&frozen, m.row(i), i, &cfg);
            let textbook = textbook_refine_node(emb, m, i, &cfg);
            assert_eq!(bits(&tiled), bits(&textbook), "{what}: node {i}");
        }
    }

    /// A deterministic value in `[0, 1)` from `(seed, k)` (splitmix64).
    fn unit(seed: u64, k: u64) -> f64 {
        let mut z =
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k.wrapping_add(0x632B_E59B_D9B4_E019);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / 2f64.powi(64)
    }

    /// An `n`-node matrix of delays in `[1, 300)` with about one entry
    /// in eight unmeasured, and a `dims`-dimensional embedding of it,
    /// with heights when `heights` holds. Node 1 sits on node 0 (a
    /// coincident point), and node 2 shares node 0's first axis.
    fn synthetic(n: usize, dims: usize, heights: bool, seed: u64) -> (DelayMatrix, Embedding) {
        let m = DelayMatrix::from_fn(n, |i, j| {
            let k = (i * n + j) as u64;
            (unit(seed, 2 * k) >= 0.125).then(|| 1.0 + 299.0 * unit(seed, 2 * k + 1))
        });
        let coord = |i: usize| {
            let axis = |k: usize| 200.0 * unit(seed ^ 0xC0, (i * dims + k) as u64) - 100.0;
            let h = if heights { 20.0 * unit(seed ^ 0x4E, i as u64) } else { 0.0 };
            Coord::with_height((0..dims).map(axis).collect(), h)
        };
        let mut coords: Vec<Coord> = (0..n).map(coord).collect();
        if n > 1 {
            coords[1] = coords[0].clone();
        }
        if n > 2 {
            let mut v = coords[2].as_slice().to_vec();
            v[0] = coords[0].as_slice()[0];
            coords[2] = Coord::with_height(v, coords[2].height());
        }
        (m, Embedding::new(coords))
    }

    #[test]
    fn the_tiled_kernel_matches_the_textbook_loop_bit_for_bit() {
        for n in [1, 2, TILE - 1, TILE, TILE + 1, 2 * TILE + 1] {
            for dims in [1, 2, 5, 9] {
                for heights in [false, true] {
                    let (m, emb) = synthetic(n, dims, heights, (n * 31 + dims) as u64);
                    let all: Vec<NodeId> = (0..n).collect();
                    let what = format!("n {n}, dims {dims}, heights {heights}");
                    assert_matches_textbook(&emb, &m, &all, &what);
                }
            }
        }
        // Paper scale, every node of a DS² fixture with moved rows.
        let (mut m, emb) = fixture(1024, 17);
        for (i, j) in [(0, 1), (5, 700), (511, 512), (1023, 3)] {
            m.set(i, j, m.get(i, j).unwrap_or(80.0) * 1.7);
        }
        m.clear(9, 10);
        let all: Vec<NodeId> = (0..1024).collect();
        assert_matches_textbook(&emb, &m, &all, "DS², n 1024");
    }

    #[test]
    fn the_tiled_kernel_keeps_unmeasured_lanes_coincident_points_and_a_negative_zero_term() {
        let (mut m, emb) = synthetic(TILE + 3, 5, false, 7);
        // Node 0's row: its own lane, a NaN on each side of a tile edge,
        // and a coincident node 1 (the `1e-12` branch).
        for j in [TILE - 1, TILE, TILE + 2] {
            m.clear(0, j);
        }
        let x = emb.coord(0);
        assert_eq!(emb.coord(1), x, "node 1 must sit on node 0");
        // Node 2 shares node 0's first axis; measure it as nearer than
        // predicted, so its first-axis term is `-0.0`: `err < 0` times
        // `+0.0`. Node 1 is unmeasured, so node 2 is node 0's first
        // contributing neighbour.
        m.clear(0, 1);
        let (a, b) = (x.as_slice()[0], emb.coord(2).as_slice()[0]);
        assert_eq!((a - b).to_bits(), 0f64.to_bits());
        let d = 0.5 * x.distance(emb.coord(2));
        m.set(0, 2, d);
        let norm = x.distance(emb.coord(2));
        let first = (d - norm) * (a - b) / norm;
        assert_eq!(first.to_bits(), (-0.0f64).to_bits(), "the first term must be -0.0");
        assert_matches_textbook(&emb, &m, &[0], "negative-zero first term");
        // And node 1 measured again: the coincident branch on lane 1.
        m.set(0, 1, 40.0);
        assert_matches_textbook(&emb, &m, &[0, 1, 2], "coincident and NaN lanes");
        // A row unmeasured but for the node's own lane, and a lone
        // measured neighbour on the last lane of a tile.
        for j in 0..m.len() {
            m.clear(3, j);
        }
        m.set(3, TILE - 1, 12.0);
        assert_matches_textbook(&emb, &m, &[3], "one neighbour");
    }

    #[test]
    fn refine_embedding_matches_the_textbook_loop_at_every_thread_count() {
        let (mut m, emb) = synthetic(2 * TILE + 1, 5, true, 23);
        m.set(4, TILE + 3, 250.0);
        m.clear(17, 18);
        let dirty = [0usize, 1, 4, 17, 18, TILE + 3, 2 * TILE];
        let cfg = RefineConfig::default();
        for threads in [1usize, 2, 4] {
            let refined = refine_embedding(&emb, &m, &dirty, &cfg, threads);
            for i in 0..m.len() {
                let want = if dirty.contains(&i) {
                    textbook_refine_node(&emb, &m, i, &cfg)
                } else {
                    emb.coord(i).clone()
                };
                assert_eq!(bits(refined.coord(i)), bits(&want), "node {i}, {threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_dirty_set_rejected() {
        let (m, emb) = fixture(10, 1);
        refine_embedding(&emb, &m, &[2, 1], &RefineConfig::default(), 1);
    }
}
