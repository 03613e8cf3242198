//! The k-best one-hop detour search.
//!
//! For an ordered pair `(a, c)`, a *detour* is a relay `b` (distinct
//! from both endpoints) whose two measured hops give an alternative
//! path delay `via = d(a,b) + d(b,c)`. The search keeps the `k`
//! relays with the smallest `via` — ties broken by the smaller relay
//! id, so the ranking is a total order and the whole computation is a
//! pure function of `(matrix, k)`.
//!
//! The exact table is O(n³) like the severity kernel, and parallelises
//! identically: every output row (one source node) is independent, so
//! [`DetourTable::compute`] fans rows out over [`tivpar`] and is
//! bit-identical at every thread count.

use delayspace::matrix::{DelayMatrix, NodeId};

/// Sentinel marking an unused relay slot in the table's backing store.
const NO_RELAY: u32 = u32::MAX;

/// One ranked relay for an ordered pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Relay {
    /// The relay node `b`.
    pub relay: NodeId,
    /// The detour delay `d(a,b) + d(b,c)` in milliseconds.
    pub via_ms: f64,
}

/// The detour gain of one edge: the best relay compared against the
/// measured direct path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetourGain {
    /// The best relay.
    pub relay: NodeId,
    /// Detour delay through the relay (ms).
    pub via_ms: f64,
    /// Measured direct delay (ms).
    pub direct_ms: f64,
    /// `direct - via` in ms; positive iff the detour beats the direct
    /// path (i.e. the edge is part of a triangle inequality violation).
    pub saving_ms: f64,
    /// `saving_ms / direct_ms` (0 when the direct delay is zero).
    pub saving_frac: f64,
}

impl DetourGain {
    /// True when the detour strictly beats the direct path.
    pub fn beneficial(&self) -> bool {
        self.saving_ms > 0.0
    }
}

/// The k-best one-hop detours of every ordered pair of a delay space.
#[derive(Clone, Debug)]
pub struct DetourTable {
    n: usize,
    k: usize,
    /// Row-major `[a][c][rank]` relay ids; [`NO_RELAY`] marks unused
    /// slots (ranks are filled left to right, so used slots are a
    /// prefix).
    relays: Vec<u32>,
    /// Detour delays, parallel to `relays` (NaN in unused slots).
    via: Vec<f64>,
}

impl DetourTable {
    /// Computes the `k` best relays for every ordered pair, using up to
    /// `threads` workers (0 = auto, [`tivpar::resolve_threads`]
    /// semantics).
    ///
    /// The result is bit-identical at every thread count: each output
    /// row depends only on the input matrix.
    ///
    /// # Panics
    /// Panics when `k` is zero or the matrix has 2³²−1 nodes or more.
    pub fn compute(m: &DelayMatrix, k: usize, threads: usize) -> Self {
        assert!(k >= 1, "a detour table needs k >= 1");
        let n = m.len();
        assert!((n as u64) < NO_RELAY as u64, "node ids must fit in u32");
        let mut relays = vec![NO_RELAY; n * n * k];
        let mut via = vec![f64::NAN; n * n * k];
        // The delay matrix is symmetric and the relay scan visits
        // witnesses in the same ascending order for (a,c) and (c,a), so
        // the two pairs' k-best lists are bit-identical (the argument
        // `repair_rows` already uses to patch destinations). Compute
        // only c > a and mirror the lower triangle: half the O(n³k)
        // work, with the pool's stealing absorbing the triangular row
        // skew.
        tivpar::par_fill_rows2(&mut relays, &mut via, n, threads, |a, rrow, vrow| {
            detour_row_from(m, k, a, a + 1, rrow, vrow)
        });
        for a in 1..n {
            let (done_r, row_r) = relays.split_at_mut(a * n * k);
            let (done_v, row_v) = via.split_at_mut(a * n * k);
            for c in 0..a {
                let src = (c * n + a) * k;
                row_r[c * k..(c + 1) * k].copy_from_slice(&done_r[src..src + k]);
                row_v[c * k..(c + 1) * k].copy_from_slice(&done_v[src..src + k]);
            }
        }
        DetourTable { n, k, relays, via }
    }

    /// Repairs the table after `m` changed on edges incident to the
    /// `dirty` nodes: recomputes exactly those source rows (in parallel
    /// over the dirty set, [`tivpar::resolve_threads`] semantics) and
    /// patches the dirty destination slots of every clean row by
    /// symmetry.
    ///
    /// The k-best list of `(a, c)` reads only delays incident to `a` or
    /// `c` (`via = d(a,b) + d(b,c)`), so an edge change can only affect
    /// pairs touching one of its endpoints; and the relay scan visits
    /// witnesses in the same ascending order for `(a, c)` and `(c, a)`
    /// over a symmetric matrix, so the mirrored slots are bit-identical.
    /// After this repair the table equals `DetourTable::compute(m, k, _)`
    /// from scratch, bit for bit — pinned by `tivoid`'s
    /// `flux_equivalence` test.
    ///
    /// # Panics
    /// Panics when the matrix size differs from the table's, or when
    /// `dirty` is not strictly increasing or names a node `>= n`.
    pub fn repair_rows(&mut self, m: &DelayMatrix, dirty: &[NodeId], threads: usize) {
        let (n, k) = (self.n, self.k);
        assert_eq!(m.len(), n, "matrix has {} nodes, table covers {n}", m.len());
        assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty rows must be strictly increasing");
        if let Some(&last) = dirty.last() {
            assert!(last < n, "dirty row {last} outside {n} nodes");
        }
        // Recompute each dirty source row with the full pass's kernel on
        // the full pass's scratch initial state (empty slots).
        let rows: Vec<(Vec<u32>, Vec<f64>)> = tivpar::par_map_rows(dirty.len(), threads, |i| {
            let a = dirty[i];
            let mut rrow = vec![NO_RELAY; n * k];
            let mut vrow = vec![f64::NAN; n * k];
            detour_row(m, k, a, &mut rrow, &mut vrow);
            (rrow, vrow)
        });
        for (i, (rrow, vrow)) in rows.into_iter().enumerate() {
            let a = dirty[i];
            self.relays[a * n * k..(a + 1) * n * k].copy_from_slice(&rrow);
            self.via[a * n * k..(a + 1) * n * k].copy_from_slice(&vrow);
        }
        // Mirror the dirty destinations into every clean source row.
        let mut is_dirty = vec![false; n];
        for &d in dirty {
            is_dirty[d] = true;
        }
        for a in (0..n).filter(|&a| !is_dirty[a]) {
            for &d in dirty {
                for slot in 0..k {
                    self.relays[(a * n + d) * k + slot] = self.relays[(d * n + a) * k + slot];
                    self.via[(a * n + d) * k + slot] = self.via[(d * n + a) * k + slot];
                }
            }
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the table covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `k` the table was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The ranked relays of `(a, c)`, best first (possibly empty).
    pub fn relays(&self, a: NodeId, c: NodeId) -> impl Iterator<Item = Relay> + '_ {
        let base = (a * self.n + c) * self.k;
        let ids = &self.relays[base..base + self.k];
        let via = &self.via[base..base + self.k];
        ids.iter()
            .zip(via)
            .take_while(|(&r, _)| r != NO_RELAY)
            .map(|(&r, &v)| Relay { relay: r as NodeId, via_ms: v })
    }

    /// The best relay of `(a, c)`, when any two-hop path is measured.
    pub fn best(&self, a: NodeId, c: NodeId) -> Option<Relay> {
        self.relays(a, c).next()
    }

    /// The best relay of `(a, c)` compared against the direct path of
    /// `m` (which must be the matrix the table was computed from).
    /// `None` when the direct edge is unmeasured or no relay exists.
    pub fn gain(&self, m: &DelayMatrix, a: NodeId, c: NodeId) -> Option<DetourGain> {
        let direct_ms = m.get(a, c)?;
        let best = self.best(a, c)?;
        let saving_ms = direct_ms - best.via_ms;
        let saving_frac = if direct_ms > 0.0 { saving_ms / direct_ms } else { 0.0 };
        Some(DetourGain {
            relay: best.relay,
            via_ms: best.via_ms,
            direct_ms,
            saving_ms,
            saving_frac,
        })
    }
}

/// Fills one source row of the table: for every destination `c`, the
/// `k` best relays of `(a, c)` by `(via, relay id)` order, written as a
/// prefix of the pair's `k` slots — the kernel
/// [`DetourTable::repair_rows`] runs per dirty row.
fn detour_row(m: &DelayMatrix, k: usize, a: usize, rrow: &mut [u32], vrow: &mut [f64]) {
    detour_row_from(m, k, a, 0, rrow, vrow);
}

/// Fills destinations `from..n` of source row `a` (slots below `from`
/// are left untouched). `DetourTable::compute` passes `from == a + 1`
/// to do only the upper triangle; the lower triangle is mirrored
/// afterwards.
fn detour_row_from(
    m: &DelayMatrix,
    k: usize,
    a: usize,
    from: usize,
    rrow: &mut [u32],
    vrow: &mut [f64],
) {
    let n = m.len();
    let row_a = m.row(a);
    for c in from..n {
        if c == a {
            continue; // no detour to yourself; slots stay empty
        }
        let base = c * k;
        detour_pair(row_a, m.row(c), a, c, k, &mut rrow[base..base + k], &mut vrow[base..base + k]);
    }
}

/// The k-best scan for one ordered pair, writing the ranked relays as a
/// prefix of the `k` `rslots`/`vslots`.
///
/// Two phases, both visiting relays in ascending `b` order (which is
/// what makes the list — ties broken by smaller relay id — a pure
/// function of the matrix):
///
/// 1. until the list holds `k` entries, every measured relay inserts;
/// 2. once full, a relay inserts only if it *strictly* beats the
///    current worst (`vslots[k-1]`): an equal `via` loses the id
///    tiebreak to every already-inserted relay (their ids are all
///    smaller), and a NaN (unmeasured hop) fails the comparison. So
///    the hot path is one add and one plain `f64` compare against a
///    cached copy of the worst slot — no `total_cmp`, no NaN branch,
///    no insertion-scan — and the full `ranks_before` insertion only
///    runs on the rare strict improvement. The candidates that insert,
///    and the order they insert in, are exactly the naive scan's,
///    keeping the table bit-identical.
///
/// (A 32-wide tiled `any(via < worst)` pre-scan was tried here first,
/// mirroring the severity kernel: it loses. Severity's threshold is
/// fixed per pair, but the k-best threshold is the *running* 4th-best,
/// loose enough through most of the scan that ~80% of tiles contained
/// a candidate at n=256 — the pre-scan was pure overhead.)
fn detour_pair(
    row_a: &[f64],
    row_c: &[f64],
    a: usize,
    c: usize,
    k: usize,
    rslots: &mut [u32],
    vslots: &mut [f64],
) {
    let n = row_a.len();
    let mut len = 0usize;
    let mut b = 0usize;
    // Phase 1: fill the list.
    while b < n && len < k {
        if b != a && b != c {
            let alt = row_a[b] + row_c[b];
            if !alt.is_nan() {
                // Insertion position among the current best, ordered by
                // (via, relay id). Scanning from the end keeps the
                // common no-op case cheap.
                let mut pos = len;
                while pos > 0 && ranks_before(alt, b as u32, vslots[pos - 1], rslots[pos - 1]) {
                    pos -= 1;
                }
                len += 1;
                for slot in (pos + 1..len).rev() {
                    rslots[slot] = rslots[slot - 1];
                    vslots[slot] = vslots[slot - 1];
                }
                rslots[pos] = b as u32;
                vslots[pos] = alt;
            }
        }
        b += 1;
    }
    // Phase 2: full list — only a strict improvement on the worst slot
    // can insert (ties lose the id tiebreak), so the hot path is one
    // add and one plain f64 compare per relay.
    let mut worst = vslots[k - 1];
    while b < n {
        let alt = row_a[b] + row_c[b];
        if alt < worst && b != a && b != c {
            let mut pos = k;
            while pos > 0 && ranks_before(alt, b as u32, vslots[pos - 1], rslots[pos - 1]) {
                pos -= 1;
            }
            for slot in (pos + 1..k).rev() {
                rslots[slot] = rslots[slot - 1];
                vslots[slot] = vslots[slot - 1];
            }
            rslots[pos] = b as u32;
            vslots[pos] = alt;
            worst = vslots[k - 1];
        }
        b += 1;
    }
}

/// The ranking order of the search: smaller detour delay first, ties by
/// smaller relay id. Total over the finite `via` values the scan feeds
/// it, which is what makes the k-best list (and every consumer)
/// deterministic.
fn ranks_before(via_a: f64, relay_a: u32, via_b: f64, relay_b: u32) -> bool {
    match via_a.total_cmp(&via_b) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Equal => relay_a < relay_b,
        std::cmp::Ordering::Greater => false,
    }
}

/// The single-pair scan: the best relay of `(a, c)` by the same
/// `(via, relay id)` order the table uses, so this returns exactly
/// [`DetourTable::best`] without building the table. This is the
/// kernel behind the serving layer's route query.
pub fn best_detour(m: &DelayMatrix, a: NodeId, c: NodeId) -> Option<Relay> {
    if a == c {
        return None; // matches the table: self pairs have no detour
    }
    let n = m.len();
    let (row_a, row_c) = (m.row(a), m.row(c));
    let mut best: Option<(f64, usize)> = None;
    for b in 0..n {
        if b == a || b == c {
            continue;
        }
        let alt = row_a[b] + row_c[b];
        if alt.is_nan() {
            continue;
        }
        // Strict improvement only: ties keep the earlier (smaller) id.
        if best.map_or(true, |(bv, _)| alt.total_cmp(&bv).is_lt()) {
            best = Some((alt, b));
        }
    }
    best.map(|(via_ms, relay)| Relay { relay, via_ms })
}

/// Sampled single-pair detour search, generic over any
/// [`DelayStore`](delayspace::DelayStore): the best relay among `k`
/// witnesses drawn uniformly (without replacement) from `S \ {a, c}`,
/// ranked by the same `(via, relay id)` order as [`best_detour`].
///
/// This is the million-node variant of the detour search: on a sparse
/// store it costs `2k` lookups instead of an `O(n)` row scan, and a
/// candidate with an unmeasured hop yields a NaN `via` that is skipped
/// exactly as in the dense scan. With `k ≥ n − 2` every witness is
/// examined, so the result equals [`best_detour`] on the same data. The
/// witness sample is a pure function of `(seed, n, k)` — the same
/// deterministic stream at any thread count.
pub fn sampled_detour<S: delayspace::DelayStore>(
    store: &S,
    a: NodeId,
    c: NodeId,
    k: usize,
    seed: u64,
) -> Option<Relay> {
    use delayspace::rng;
    if a == c {
        return None; // matches the table: self pairs have no detour
    }
    let n = store.len();
    if n <= 2 {
        return None;
    }
    let k = k.min(n - 2);
    let mut r = rng::sub_rng(seed, "route/sample");
    let mut best: Option<(f64, usize)> = None;
    for idx in rng::sample_indices(&mut r, n - 2, k) {
        // Map 0..n-2 onto node ids skipping a and c (the severity
        // estimator's mapping, so the two samplers agree on witnesses).
        let (lo, hi) = if a < c { (a, c) } else { (c, a) };
        let mut b = idx;
        if b >= lo {
            b += 1;
        }
        if b >= hi {
            b += 1;
        }
        let alt = store.raw(a, b) + store.raw(c, b);
        if alt.is_nan() {
            continue;
        }
        if best.map_or(true, |(bv, bb)| ranks_before(alt, b as u32, bv, bb as u32)) {
            best = Some((alt, b));
        }
    }
    best.map(|(via_ms, relay)| Relay { relay, via_ms })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiv_triangle() -> DelayMatrix {
        let mut m = DelayMatrix::new(3);
        m.set(0, 1, 5.0);
        m.set(1, 2, 5.0);
        m.set(0, 2, 100.0);
        m
    }

    #[test]
    fn finds_the_obvious_relay() {
        let m = tiv_triangle();
        let t = DetourTable::compute(&m, 2, 1);
        let best = t.best(0, 2).unwrap();
        assert_eq!(best.relay, 1);
        assert_eq!(best.via_ms, 10.0);
        // Symmetric matrix: the reverse direction agrees.
        assert_eq!(t.best(2, 0), Some(best));
        // The short edges only have the long detour through 2 (or 0).
        assert_eq!(t.best(0, 1), Some(Relay { relay: 2, via_ms: 105.0 }));
        // Self pairs have no detour.
        assert_eq!(t.best(0, 0), None);
    }

    #[test]
    fn gain_measures_savings() {
        let m = tiv_triangle();
        let t = DetourTable::compute(&m, 1, 1);
        let g = t.gain(&m, 0, 2).unwrap();
        assert_eq!(g.saving_ms, 90.0);
        assert!((g.saving_frac - 0.9).abs() < 1e-12);
        assert!(g.beneficial());
        // The short edge's best detour is worse than direct.
        let g01 = t.gain(&m, 0, 1).unwrap();
        assert_eq!(g01.saving_ms, -100.0);
        assert!(!g01.beneficial());
    }

    #[test]
    fn k_best_are_sorted_and_distinct() {
        let m = DelayMatrix::from_complete_fn(20, |i, j| ((i * 7 + j * 13) % 50) as f64 + 1.0);
        let t = DetourTable::compute(&m, 5, 1);
        for a in 0..20 {
            for c in 0..20 {
                let rs: Vec<Relay> = t.relays(a, c).collect();
                if a == c {
                    assert!(rs.is_empty());
                    continue;
                }
                assert_eq!(rs.len(), 5);
                for w in rs.windows(2) {
                    assert!(
                        w[0].via_ms < w[1].via_ms
                            || (w[0].via_ms == w[1].via_ms && w[0].relay < w[1].relay),
                        "ranking out of order at ({a},{c}): {w:?}"
                    );
                }
                for r in &rs {
                    assert!(r.relay != a && r.relay != c);
                    assert_eq!(r.via_ms, m.raw(a, r.relay) + m.raw(r.relay, c));
                }
            }
        }
    }

    #[test]
    fn best_detour_matches_table_rank_zero() {
        let m = DelayMatrix::from_complete_fn(30, |i, j| ((i * 31 + j * 17) % 97) as f64 + 0.5);
        let t = DetourTable::compute(&m, 3, 1);
        for a in 0..30 {
            for c in 0..30 {
                assert_eq!(best_detour(&m, a, c), t.best(a, c), "pair ({a},{c})");
            }
        }
    }

    #[test]
    fn equal_via_ties_break_by_relay_id() {
        // Relays 1 and 2 both give via = 20; rank 0 must be relay 1.
        let mut m = DelayMatrix::new(4);
        m.set(0, 3, 100.0);
        m.set(0, 1, 10.0);
        m.set(1, 3, 10.0);
        m.set(0, 2, 10.0);
        m.set(2, 3, 10.0);
        let t = DetourTable::compute(&m, 2, 1);
        let rs: Vec<Relay> = t.relays(0, 3).collect();
        assert_eq!(rs[0], Relay { relay: 1, via_ms: 20.0 });
        assert_eq!(rs[1], Relay { relay: 2, via_ms: 20.0 });
        assert_eq!(best_detour(&m, 0, 3), Some(rs[0]));
    }

    #[test]
    fn missing_hops_are_skipped() {
        let mut m = tiv_triangle();
        m.clear(0, 1); // relay 1 loses a hop: (0,2) now has no detour
        let t = DetourTable::compute(&m, 2, 1);
        assert_eq!(t.best(0, 2), None);
        assert_eq!(best_detour(&m, 0, 2), None);
        // Gain over an unmeasured direct edge is also None.
        let mut m2 = tiv_triangle();
        m2.clear(0, 2);
        let t2 = DetourTable::compute(&m2, 2, 1);
        assert!(t2.best(0, 2).is_some());
        assert_eq!(t2.gain(&m2, 0, 2), None);
    }

    #[test]
    fn parallel_matches_serial() {
        let m = DelayMatrix::from_fn(40, |i, j| {
            ((i + j) % 7 != 0).then(|| ((i * 13 + j * 29) % 83) as f64 + 1.0)
        });
        let serial = DetourTable::compute(&m, 4, 1);
        for t in [2usize, 4, 7] {
            let par = DetourTable::compute(&m, 4, t);
            assert_eq!(par.relays, serial.relays, "relays diverged at {t} threads");
            let sb: Vec<u64> = serial.via.iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u64> = par.via.iter().map(|v| v.to_bits()).collect();
            assert_eq!(pb, sb, "via delays diverged at {t} threads");
        }
    }

    #[test]
    fn repair_rows_matches_full_recompute() {
        let mut m = DelayMatrix::from_fn(50, |i, j| {
            ((i + j) % 9 != 0).then(|| ((i * 17 + j * 23) % 71) as f64 + 1.0)
        });
        let mut table = DetourTable::compute(&m, 3, 2);
        // Grow, shrink, clear and newly-measure edges; the dirty set is
        // the incident nodes.
        m.set(2, 30, 500.0);
        m.set(11, 44, 0.5);
        m.clear(30, 12);
        m.set(9, 18, 3.0);
        let dirty = vec![2usize, 9, 11, 12, 18, 30, 44];
        for threads in [1usize, 2, 4] {
            let mut repaired = table.clone();
            repaired.repair_rows(&m, &dirty, threads);
            let full = DetourTable::compute(&m, 3, 1);
            assert_eq!(repaired.relays, full.relays, "relays diverged at {threads} threads");
            let rb: Vec<u64> = repaired.via.iter().map(|v| v.to_bits()).collect();
            let fb: Vec<u64> = full.via.iter().map(|v| v.to_bits()).collect();
            assert_eq!(rb, fb, "via delays diverged at {threads} threads");
        }
        // An empty dirty set is a no-op.
        let before = table.relays.clone();
        table.repair_rows(&DelayMatrix::from_fn(50, |_, _| Some(1.0)), &[], 1);
        assert_eq!(table.relays, before);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn repair_rejects_unsorted_dirty_set() {
        let m = tiv_triangle();
        let mut t = DetourTable::compute(&m, 1, 1);
        t.repair_rows(&m, &[1, 1], 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn repair_rejects_out_of_range_row() {
        let m = tiv_triangle();
        let mut t = DetourTable::compute(&m, 1, 1);
        t.repair_rows(&m, &[3], 1);
    }

    #[test]
    fn empty_and_tiny_matrices() {
        let t = DetourTable::compute(&DelayMatrix::new(0), 3, 1);
        assert!(t.is_empty());
        let t2 = DetourTable::compute(&DelayMatrix::new(2), 3, 1);
        assert_eq!(t2.best(0, 1), None); // no third node to relay through
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        DetourTable::compute(&DelayMatrix::new(3), 0, 1);
    }

    #[test]
    fn sampled_detour_at_full_k_equals_exact() {
        use delayspace::synth::{Dataset, InternetDelaySpace};
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(40).build(23);
        let m = s.matrix();
        for (a, c) in [(0usize, 1usize), (3, 17), (30, 9), (12, 12)] {
            let exact = best_detour(m, a, c);
            let sampled = sampled_detour(m, a, c, m.len(), 7);
            assert_eq!(sampled, exact, "full-sample detour diverged on ({a},{c})");
        }
    }

    #[test]
    fn sampled_detour_is_bit_identical_on_sparse_store() {
        use delayspace::store::SparseDelayStore;
        use delayspace::synth::{Dataset, InternetDelaySpace};
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(50).build(19);
        let m = s.matrix();
        let sparse = SparseDelayStore::from_matrix(m);
        for seed in 0..6u64 {
            for (a, c) in [(0usize, 5usize), (7, 44), (20, 21)] {
                let dense = sampled_detour(m, a, c, 8, seed);
                let via_sparse = sampled_detour(&sparse, a, c, 8, seed);
                match (dense, via_sparse) {
                    (Some(d), Some(s)) => {
                        assert_eq!(d.relay, s.relay);
                        assert_eq!(d.via_ms.to_bits(), s.via_ms.to_bits());
                    }
                    (d, s) => assert_eq!(d, s),
                }
            }
        }
    }

    #[test]
    fn sampled_detour_is_deterministic_and_skips_missing_hops() {
        let mut m = DelayMatrix::new(5);
        m.set(0, 1, 50.0);
        m.set(0, 2, 10.0);
        m.set(1, 2, 10.0);
        // Relays 3 and 4 have no measured hops: NaN via, always skipped.
        let a = sampled_detour(&m, 0, 1, 3, 42);
        let b = sampled_detour(&m, 0, 1, 3, 42);
        assert_eq!(a, b, "same seed must give the same relay");
        if let Some(r) = a {
            assert_eq!(r.relay, 2);
            assert_eq!(r.via_ms, 20.0);
        }
        assert_eq!(sampled_detour(&m, 1, 1, 3, 42), None);
        assert_eq!(sampled_detour(&DelayMatrix::new(2), 0, 1, 3, 42), None);
    }
}
