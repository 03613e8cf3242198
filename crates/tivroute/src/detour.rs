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
//!
//! The delay matrix is symmetric and the scan visits relays in the same
//! ascending order for `(a, c)` and `(c, a)`, so the two k-best lists
//! are bit-identical. The table therefore stores each unordered pair
//! once, `k` slots at `k ·` [`tivpar::upper_index`]`(n, min, max)` in a
//! packed upper triangle (the diagonal's slots stay empty): the
//! symmetry lives in that index, and no pass mirrors a list.

use delayspace::matrix::{DelayMatrix, NodeId};

/// Sentinel marking an unused relay slot in the table's backing store.
const NO_RELAY: u32 = u32::MAX;

/// Relay-scan tile width for [`detour_pair`]'s phase 2, the same 32 as
/// the severity kernel's witness tile: two 256-byte row tiles stay in
/// L1 across the pre-pass and the exact loop.
const WITNESS_TILE: usize = 32;

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

/// The k-best one-hop detours of every pair of a delay space, stored
/// once per unordered pair.
#[derive(Debug)]
pub struct DetourTable {
    n: usize,
    k: usize,
    /// `[pair][rank]` relay ids, pairs in packed upper-triangle order
    /// ([`tivpar::upper_index`]); [`NO_RELAY`] marks unused slots
    /// (ranks are filled left to right, so used slots are a prefix).
    relays: Vec<u32>,
    /// Detour delays, parallel to `relays` (NaN in unused slots).
    via: Vec<f64>,
}

impl Clone for DetourTable {
    fn clone(&self) -> Self {
        DetourTable { n: self.n, k: self.k, relays: self.relays.clone(), via: self.via.clone() }
    }

    /// Copies `source` into the existing buffers instead of allocating
    /// new ones (what the derived `clone_from` would do).
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.k = source.k;
        self.relays.clone_from(&source.relays);
        self.via.clone_from(&source.via);
    }
}

impl DetourTable {
    /// Computes the `k` best relays for every pair, using up to
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
        let slots = n * (n + 1) / 2 * k;
        let mut relays = vec![NO_RELAY; slots];
        let mut via = vec![f64::NAN; slots];
        // Packed row a holds the pairs (a, a..n): half the O(n³k) work
        // of a square table, with the pool's stealing absorbing the
        // triangular row skew.
        tivpar::par_fill_upper2(&mut relays, &mut via, n, threads, |a, rrow, vrow| {
            for ((c, rslots), vslots) in (a..n).zip(rrow.chunks_mut(k)).zip(vrow.chunks_mut(k)) {
                detour_of(m, a, c, rslots, vslots);
            }
        });
        DetourTable { n, k, relays, via }
    }

    /// The first slot of the unordered pair `{a, c}`.
    fn base(&self, a: NodeId, c: NodeId) -> usize {
        tivpar::upper_index(self.n, a.min(c), a.max(c)) * self.k
    }

    /// Resident bytes of the table (the `DelayStore::memory_bytes`
    /// count for derived state): `12 · k · n(n+1)/2`.
    pub fn memory_bytes(&self) -> usize {
        self.relays.len() * std::mem::size_of::<u32>() + self.via.len() * std::mem::size_of::<f64>()
    }

    /// Repairs the table after `m` changed on edges incident to the
    /// `dirty` nodes: rescans every pair with a dirty endpoint (in
    /// parallel over the dirty set, [`tivpar::resolve_threads`]
    /// semantics) with the full pass's kernel.
    ///
    /// The k-best list of `(a, c)` reads only delays incident to `a` or
    /// `c` (`via = d(a,b) + d(b,c)`), so an edge change can only affect
    /// pairs touching one of its endpoints. After this repair the table
    /// equals `DetourTable::compute(m, k, _)` from scratch, bit for bit
    /// — pinned by `tivoid`'s `flux_equivalence` test.
    ///
    /// This is the O(|D|·n²·k) row path. The epoch builder runs
    /// [`DetourTable::repair_edges`] instead; this one stays as the
    /// reference the edge kernel is tested against and as the kernel
    /// the benchmark's `tivroute.detour_repair_rows_ms` probe times
    /// (a benchmark-only change re-points that probe at the edge path).
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
        // Rescan every pair {d, x} of each dirty node d with the full
        // pass's kernel on the full pass's initial state (empty slots).
        let rows: Vec<(Vec<u32>, Vec<f64>)> = tivpar::par_map_rows(dirty.len(), threads, |i| {
            let d = dirty[i];
            let mut rrow = vec![NO_RELAY; n * k];
            let mut vrow = vec![f64::NAN; n * k];
            for ((x, rslots), vslots) in (0..n).zip(rrow.chunks_mut(k)).zip(vrow.chunks_mut(k)) {
                detour_of(m, d.min(x), d.max(x), rslots, vslots);
            }
            (rrow, vrow)
        });
        for (&d, (rrow, vrow)) in dirty.iter().zip(rows) {
            for x in 0..n {
                let base = self.base(d, x);
                self.relays[base..base + k].copy_from_slice(&rrow[x * k..(x + 1) * k]);
                self.via[base..base + k].copy_from_slice(&vrow[x * k..(x + 1) * k]);
            }
        }
    }

    /// Repairs the table after `m` changed on exactly the `changed`
    /// edges, each given once as `(a, b, before)` (the `before` delay
    /// is not needed here). Every other entry of `m` must be unchanged.
    ///
    /// A changed edge `{a, c}` moves only relay `c` of the pairs
    /// `(a, x)` and relay `a` of the pairs `(c, x)`. For each such pair
    /// and relay:
    ///
    /// * a relay already in the pair's list may have got worse, so the
    ///   pair is rescanned with the full pass's kernel (O(n), with
    ///   probability about k/n);
    /// * otherwise it ranked behind the whole list before, so it enters
    ///   only if its new `via` ranks ahead of the k-th entry or the list
    ///   has room, by the same `(via, relay id)` order (O(k)).
    ///
    /// `(a, x)` and `(x, a)` share one list. Both steps keep the list
    /// equal to the k best of the delays seen so far, and no float is
    /// accumulated, so after the last edge the table equals
    /// `DetourTable::compute(m, k, _)` bit for bit. Cost O(|changed|·n·k).
    ///
    /// # Panics
    /// Panics when the matrix size differs from the table's, or when a
    /// changed edge is a self-loop or names a node `>= n`.
    pub fn repair_edges(&mut self, m: &DelayMatrix, changed: &[(NodeId, NodeId, f64)]) {
        let n = self.n;
        assert_eq!(m.len(), n, "matrix has {} nodes, table covers {n}", m.len());
        for &(a, c, _) in changed {
            assert!(a < n && c < n, "changed edge ({a},{c}) outside {n} nodes");
            assert_ne!(a, c, "changed edge ({a},{a}) is a self-loop");
            for x in (0..n).filter(|&x| x != a && x != c) {
                self.repair_relay(m, a, x, c);
                self.repair_relay(m, c, x, a);
            }
        }
    }

    /// Brings the list of `{u, x}` up to date with relay `r`'s current
    /// `via`.
    fn repair_relay(&mut self, m: &DelayMatrix, u: NodeId, x: NodeId, r: NodeId) {
        let (base, k, id) = (self.base(u, x), self.k, r as u32);
        let rslots = &mut self.relays[base..base + k];
        let vslots = &mut self.via[base..base + k];
        if rslots.contains(&id) {
            rslots.fill(NO_RELAY);
            vslots.fill(f64::NAN);
            detour_of(m, u.min(x), u.max(x), rslots, vslots);
        } else {
            let alt = m.raw(u, r) + m.raw(r, x);
            if alt.is_nan() {
                return; // unmeasured hop: never listed
            }
            let len = rslots.iter().take_while(|&&s| s != NO_RELAY).count();
            let mut pos = len;
            while pos > 0 && ranks_before(alt, id, vslots[pos - 1], rslots[pos - 1]) {
                pos -= 1;
            }
            if pos == k {
                return; // behind a full list: nothing moves
            }
            for slot in (pos + 1..(len + 1).min(k)).rev() {
                rslots[slot] = rslots[slot - 1];
                vslots[slot] = vslots[slot - 1];
            }
            rslots[pos] = id;
            vslots[pos] = alt;
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
        let base = self.base(a, c);
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

/// Fills the empty `rslots`/`vslots` of the pair `(a, c)`, `a <= c`,
/// with its k best relays by `(via, relay id)` order: the one kernel
/// behind [`DetourTable::compute`] and both repairs. The diagonal has
/// no detour, so its slots stay empty.
fn detour_of(m: &DelayMatrix, a: usize, c: usize, rslots: &mut [u32], vslots: &mut [f64]) {
    if a != c {
        detour_pair(m.row(a), m.row(c), a, c, rslots.len(), rslots, vslots);
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
///    the test is one add and one plain `f64` compare against a cached
///    copy of the worst slot — no `total_cmp`, no NaN branch, no
///    insertion-scan — and the full `ranks_before` insertion only runs
///    on the rare strict improvement.
///
/// Phase 2 is tiled like the severity kernel: a branch-free pre-pass
/// ORs `via < worst` across a [`WITNESS_TILE`]-wide block, with `worst`
/// as it stands at the tile's start, and only flagged tiles run the
/// exact per-relay loop. `worst` only falls inside a tile, so a relay
/// the pre-pass rejects could never have inserted. With the default
/// k = 1 at n = 1024 about 16% of tiles are flagged (docs/PERFORMANCE.md,
/// "The k-best detour scan uses the same tiles"). The candidates that
/// insert, and the order they insert in, are exactly the naive scan's,
/// keeping the table bit-identical.
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
    // can insert (ties lose the id tiebreak). Tiles end on multiples of
    // WITNESS_TILE; a tile with no `via < worst` lane is skipped whole.
    let mut worst = vslots[k - 1];
    while b < n {
        let b1 = ((b / WITNESS_TILE + 1) * WITNESS_TILE).min(n);
        let mut any = false;
        for (&ab, &cb) in row_a[b..b1].iter().zip(&row_c[b..b1]) {
            any |= ab + cb < worst;
        }
        if any {
            for b in b..b1 {
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
            }
        }
        b = b1;
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
/// [`DetourTable::best`] without building the table. It is the
/// independent reference for the table, and the serving layer's route
/// query falls back to it when a snapshot carries no derived state.
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
    fn repair_edges_matches_repair_rows() {
        // Small integer delays: plenty of equal-`via` ties.
        let start = DelayMatrix::from_fn(50, |i, j| {
            ((i + j) % 9 != 0).then(|| ((i * 17 + j * 23) % 71) as f64 + 1.0)
        });
        // Grown, zeroed, cleared, newly measured, changed and put back.
        let mut m = start.clone();
        m.set(2, 30, 500.0);
        m.set(11, 44, 0.0);
        m.clear(30, 12);
        m.set(9, 18, 3.0);
        let edges = [(2usize, 30usize), (11, 44), (30, 12), (9, 18), (5, 6)];
        let changed: Vec<_> = edges.iter().map(|&(a, b)| (a, b, start.raw(a, b))).collect();
        for k in [1usize, 3, 5] {
            let table = DetourTable::compute(&start, k, 1);
            let mut by_rows = table.clone();
            by_rows.repair_rows(&m, &[2, 5, 6, 9, 11, 12, 18, 30, 44], 1);
            let mut by_edges = table;
            by_edges.repair_edges(&m, &changed);
            assert_eq!(by_edges.relays, by_rows.relays, "relays diverged at k = {k}");
            let eb: Vec<u64> = by_edges.via.iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u64> = by_rows.via.iter().map(|v| v.to_bits()).collect();
            assert_eq!(eb, rb, "via delays diverged at k = {k}");
        }
    }

    #[test]
    fn clone_from_reuses_the_destination_buffers() {
        let src = DetourTable::compute(&tiv_triangle(), 2, 1);
        let mut dst = DetourTable::compute(&DelayMatrix::from_complete_fn(3, |_, _| 1.0), 2, 1);
        let buffers = (dst.relays.as_ptr(), dst.via.as_ptr());
        dst.clone_from(&src);
        assert_eq!((dst.relays.as_ptr(), dst.via.as_ptr()), buffers, "clone_from reallocated");
        assert_eq!(dst.best(0, 2), Some(Relay { relay: 1, via_ms: 10.0 }));
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
}
