//! The TIV severity metric (Section 2.1) and the severity analyses of
//! Section 2.2.
//!
//! For nodes `A, C` in a delay space `S`, the severity of edge `AC` is
//!
//! ```text
//! severity(AC) = Σ_B d(A,C) / (d(A,B) + d(B,C))   /   |S|
//! ```
//!
//! summed over exactly the witnesses `B` with
//! `d(A,B) + d(B,C) < d(A,C)`. A severity of 0 means the edge causes no
//! violation; the metric grows both with the *number* of violations the
//! edge causes and with their *triangulation ratios*, which is why the
//! paper prefers it over either ingredient alone.
//!
//! The exact computation is O(n³); we parallelise over rows with the
//! shared [`tivpar`] kernels layer (each output row is independent, so
//! results are bit-identical at every thread count) and exploit
//! NaN-propagation to skip missing entries without branches.
//!
//! The metric is defined on *unordered* edges, so [`Severity`] stores
//! each pair `{i, j}` once, in a packed upper triangle that includes the
//! diagonal ([`tivpar::upper_index`]): n(n+1)/2 entries instead of n².
//! Symmetry lives in that index — every accessor maps `(i, j)` and
//! `(j, i)` to the same slot — so no pass ever mirrors a value, and
//! every value stored is the one the kernel computes for `i <= j`.

use delayspace::matrix::{DelayMatrix, NodeId};
use delayspace::rng;
use delayspace::stats::{BinnedStats, Cdf};
use delayspace::store::{DelayStore, NodePair};
use std::cmp::Ordering;

/// Severity and violation-count tables for every edge of a delay
/// space, stored once per unordered pair.
#[derive(Debug)]
pub struct Severity {
    n: usize,
    /// Severity per unordered pair, packed upper triangle with the
    /// diagonal ([`tivpar::upper_index`]); NaN = missing.
    sev: Vec<f64>,
    /// Number of witnesses B violating through each pair, same layout.
    cnt: Vec<u32>,
}

impl Clone for Severity {
    fn clone(&self) -> Self {
        Severity { n: self.n, sev: self.sev.clone(), cnt: self.cnt.clone() }
    }

    /// Copies `source` into the existing buffers instead of allocating
    /// new ones (what the derived `clone_from` would do).
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.sev.clone_from(&source.sev);
        self.cnt.clone_from(&source.cnt);
    }
}

impl Severity {
    /// Computes severity for every measured edge, using up to `threads`
    /// workers (0 = auto: the `TIV_THREADS` environment variable, else
    /// available parallelism — see [`tivpar::resolve_threads`]).
    ///
    /// The result is bit-identical at every thread count: each output
    /// row depends only on the input matrix.
    pub fn compute(m: &DelayMatrix, threads: usize) -> Self {
        Self::compute_gated(m, threads, ungated)
    }

    /// [`Severity::compute`], skipping the witness scan of every pair
    /// the `best_via` gate rules out.
    ///
    /// `best_via(a, c)`, called with `a < c`, must return a lower bound
    /// on `d(a,b) + d(b,c)` over the relays `b ∉ {a, c}` with both legs
    /// measured (`+inf` when there is none): the rank-0 `via` of a
    /// detour table built from `m` is exactly that. A pair whose bound
    /// is `>= d(a,c)` has no violating witness, so it is written as
    /// `(0.0, 0)` without a scan, which is what the scan would return.
    /// Returning a value `>= d(a,c)` for a pair that has a violating
    /// witness gives wrong answers. The result is otherwise
    /// bit-identical to [`Severity::compute`].
    pub fn compute_gated(
        m: &DelayMatrix,
        threads: usize,
        best_via: impl Fn(NodeId, NodeId) -> f64 + Sync,
    ) -> Self {
        let n = m.len();
        let pairs = n * (n + 1) / 2;
        let mut sev = vec![f64::NAN; pairs];
        let mut cnt = vec![0u32; pairs];
        // Packed row a holds the pairs (a, a..n): half the O(n³) work
        // of a square table, and row costs shrink with `a`, which is
        // exactly the skew the pool's work stealing absorbs.
        tivpar::par_fill_upper2(&mut sev, &mut cnt, n, threads, |a, srow, crow| {
            for (c, (s, k)) in (a..n).zip(srow.iter_mut().zip(crow)) {
                (*s, *k) = severity_of(m, a, c, &best_via);
            }
        });
        Severity { n, sev, cnt }
    }

    /// The packed slot of the unordered pair `{i, j}`.
    fn slot(&self, i: NodeId, j: NodeId) -> usize {
        tivpar::upper_index(self.n, i.min(j), i.max(j))
    }

    /// Resident bytes of the two tables (the `DelayStore::memory_bytes`
    /// count for derived state): `12 · n(n+1)/2`.
    pub fn memory_bytes(&self) -> usize {
        self.sev.len() * std::mem::size_of::<f64>() + self.cnt.len() * std::mem::size_of::<u32>()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Severity of edge `(i, j)`; `None` when the edge is unmeasured.
    pub fn severity(&self, i: NodeId, j: NodeId) -> Option<f64> {
        let v = self.sev[self.slot(i, j)];
        (!v.is_nan()).then_some(v)
    }

    /// Number of violations edge `(i, j)` causes (witness count).
    pub fn count(&self, i: NodeId, j: NodeId) -> u32 {
        self.cnt[self.slot(i, j)]
    }

    /// Iterator over `(i, j, severity)` for measured unordered edges.
    ///
    /// The severity of an edge is `NaN` when it was not measured in the
    /// matrix this `Severity` was computed from — which happens whenever
    /// `m` carries measurements the severity pass never saw (an epoch
    /// builder folding in fresh observations, a mask being lifted).
    /// Consumers that aggregate ([`Severity::cdf`],
    /// [`Severity::worst_edges`], [`Severity::by_delay_bins`]) skip
    /// those entries rather than choke on them.
    pub fn edges<'a>(
        &'a self,
        m: &'a DelayMatrix,
    ) -> impl Iterator<Item = (NodeId, NodeId, f64)> + 'a {
        m.edges().map(move |(i, j, _)| (i, j, self.sev[self.slot(i, j)]))
    }

    /// CDF of edge severities (Figure 2). Edges without a computed
    /// severity (NaN) are skipped.
    pub fn cdf(&self, m: &DelayMatrix) -> Cdf {
        // Cdf::from_samples drops non-finite samples, so NaN severities
        // of newly-measured edges can never poison the distribution.
        Cdf::from_samples(self.edges(m).map(|(_, _, s)| s))
    }

    /// Severity versus edge delay, in `bin_ms`-wide bins (Figures 4–7).
    /// Edges without a computed severity (NaN) are skipped.
    pub fn by_delay_bins(&self, m: &DelayMatrix, bin_ms: f64, max_ms: f64) -> BinnedStats {
        // BinnedStats::build drops non-finite y-values for the same
        // reason cdf() relies on from_samples doing it.
        BinnedStats::build(
            m.edges().map(|(i, j, d)| (d, self.sev[self.slot(i, j)])),
            bin_ms,
            max_ms,
        )
    }

    /// The fraction of all triangles (unordered node triples with all
    /// three edges measured) that violate the triangle inequality.
    ///
    /// Only the *longest* edge of a triangle can violate, so each
    /// violating triangle is witnessed exactly once across the count
    /// table: `frac = Σ_{i<j} cnt(i,j) / C(n,3)` (the diagonal counts
    /// are zero, so the sum runs over the whole packed table).
    ///
    /// The paper reports ≈ 12% for DS².
    pub fn violating_triangle_fraction(&self) -> f64 {
        if self.n < 3 {
            return 0.0;
        }
        let viol: u64 = self.cnt.iter().map(|&c| c as u64).sum();
        let n = self.n as f64;
        let triangles = n * (n - 1.0) * (n - 2.0) / 6.0;
        viol as f64 / triangles
    }

    /// The `frac` (e.g. 0.2 = worst 20%) of measured edges with the
    /// highest severity, as unordered pairs sorted by descending
    /// severity, ties in [`Severity::edges`] order. Edges of `m` without
    /// a computed severity (NaN — see [`Severity::edges`]) are excluded
    /// before the fraction is taken.
    ///
    /// The k-th worst severity is selected in place among the severities
    /// alone; only the k edges kept — every edge above it and the first
    /// at it — are collected and sorted.
    pub fn worst_edges(&self, m: &DelayMatrix, frac: f64) -> Vec<(NodeId, NodeId)> {
        assert!((0.0..=1.0).contains(&frac), "fraction {frac} outside [0,1]");
        let rated = || self.edges(m).filter(|(_, _, s)| !s.is_nan());
        let mut scores: Vec<f64> = Vec::with_capacity(rated().count());
        scores.extend(rated().map(|(_, _, s)| s));
        let k = ((scores.len() as f64) * frac).round() as usize;
        if k == 0 {
            return Vec::new();
        }
        // total_cmp, not partial_cmp().unwrap(): even though NaNs are
        // filtered above, a comparator that cannot panic keeps this
        // safe against any future source of non-finite severities.
        let (above, &mut cut, _) = scores.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        let mut ties = k - above.iter().filter(|s| s.total_cmp(&cut).is_gt()).count();
        drop(scores);
        let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(k);
        edges.extend(rated().filter(|(_, _, s)| match s.total_cmp(&cut) {
            Ordering::Greater => true,
            Ordering::Equal if ties > 0 => {
                ties -= 1;
                true
            }
            _ => false,
        }));
        edges.sort_by(|a, b| b.2.total_cmp(&a.2));
        edges.into_iter().map(|(i, j, _)| (i, j)).collect()
    }

    /// Repairs the tables after `m` changed on edges incident to the
    /// `dirty` nodes: recomputes every pair with a dirty endpoint (in
    /// parallel over the dirty set, [`tivpar::resolve_threads`]
    /// semantics), each with the full pass's kernel on `(min, max)`.
    ///
    /// Severity is a pure, symmetric function of the matrix in which an
    /// edge change can only affect pairs touching one of its endpoints
    /// (`severity(a,c)` reads delays incident to `a` or `c` only), so
    /// after this repair the result is **bit-identical** to
    /// `Severity::compute(m, _)` from scratch — the incremental epoch
    /// pipeline's core invariant, pinned by `tivoid`'s
    /// `flux_equivalence` test.
    ///
    /// This is the O(|D|·n²) row path. The epoch builder runs
    /// [`Severity::repair_edges`] instead; this one stays as the
    /// reference the edge kernel is tested against and as the kernel
    /// the benchmark's `tivcore.severity_repair_rows_ms` probe times
    /// (a benchmark-only change re-points that probe at the edge path).
    ///
    /// # Panics
    /// Panics when the matrix size differs from this instance's, or
    /// when `dirty` is not strictly increasing or names a node `>= n`.
    pub fn repair_rows(&mut self, m: &DelayMatrix, dirty: &[NodeId], threads: usize) {
        let n = self.n;
        assert_eq!(m.len(), n, "matrix has {} nodes, severity covers {n}", m.len());
        assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty rows must be strictly increasing");
        if let Some(&last) = dirty.last() {
            assert!(last < n, "dirty row {last} outside {n} nodes");
        }
        // Recompute every pair {d, x} of each dirty node d from the
        // current matrix, exactly as the full pass computes it.
        let rows: Vec<Vec<(f64, u32)>> = tivpar::par_map_rows(dirty.len(), threads, |k| {
            let d = dirty[k];
            (0..n).map(|x| severity_of(m, d.min(x), d.max(x), &ungated)).collect()
        });
        for (&d, row) in dirty.iter().zip(rows) {
            for (x, (s, count)) in row.into_iter().enumerate() {
                let p = self.slot(d, x);
                (self.sev[p], self.cnt[p]) = (s, count);
            }
        }
    }

    /// Repairs the tables after `m` changed on exactly the `changed`
    /// edges, each given once as `(a, b, before)`: `before` is the delay
    /// of `{a, b}` in the matrix this instance was computed from (NaN =
    /// unmeasured then). Every other entry of `m` must be unchanged.
    ///
    /// A witness that does not violate adds nothing to a pair's
    /// witness sum. So a pair keeps its exact bits unless
    /// its direct edge changed, or a changed edge is one of its witness
    /// legs and that witness violates with the old delays or with the
    /// new ones: only then can its sequence of floating-point additions
    /// differ. Those pairs are collected, sorted, and re-summed with the
    /// full pass's kernel (in parallel, [`tivpar::resolve_threads`]
    /// semantics), so the result is **bit-identical** to
    /// `Severity::compute(m, _)`. The scan costs O(|changed|·n); each
    /// re-summed pair costs O(n).
    ///
    /// # Panics
    /// Panics when the matrix size differs from this instance's, or
    /// when a changed edge is a self-loop or names a node `>= n`.
    pub fn repair_edges(
        &mut self,
        m: &DelayMatrix,
        changed: &[(NodeId, NodeId, f64)],
        threads: usize,
    ) {
        self.repair_edges_gated(m, changed, threads, ungated);
    }

    /// [`Severity::repair_edges`], skipping the re-sum of every listed
    /// pair the `best_via` gate rules out. The gate's contract is
    /// [`Severity::compute_gated`]'s, on the current matrix `m`:
    /// returning a value `>= d(a,c)` for a pair that has a violating
    /// witness gives wrong answers.
    pub fn repair_edges_gated(
        &mut self,
        m: &DelayMatrix,
        changed: &[(NodeId, NodeId, f64)],
        threads: usize,
        best_via: impl Fn(NodeId, NodeId) -> f64 + Sync,
    ) {
        let n = self.n;
        assert_eq!(m.len(), n, "matrix has {} nodes, severity covers {n}", m.len());
        // The endpoints' rows as they were: current rows with every
        // changed entry put back to its `before` value.
        let mut slot = vec![usize::MAX; n];
        let mut old = Vec::new();
        for &(a, b, _) in changed {
            assert!(a < n && b < n, "changed edge ({a},{b}) outside {n} nodes");
            assert_ne!(a, b, "changed edge ({a},{a}) is a self-loop");
            for v in [a, b] {
                if slot[v] == usize::MAX {
                    slot[v] = old.len() / n;
                    old.extend_from_slice(m.row(v));
                }
            }
        }
        for &(a, b, before) in changed {
            old[slot[a] * n + b] = before;
            old[slot[b] * n + a] = before;
        }
        let old_row = |v: NodeId| &old[slot[v] * n..(slot[v] + 1) * n];
        let mut pairs = Vec::new();
        for &(a, c, before) in changed {
            pairs.push((a.min(c), a.max(c)));
            let (old_a, old_c, row_a, row_c) = (old_row(a), old_row(c), m.row(a), m.row(c));
            let now = row_a[c];
            for x in (0..n).filter(|&x| x != a && x != c) {
                // Pair {a, x} through witness c, then {c, x} through a.
                if before + old_c[x] < old_a[x] || now + row_c[x] < row_a[x] {
                    pairs.push((a.min(x), a.max(x)));
                }
                if before + old_a[x] < old_c[x] || now + row_a[x] < row_c[x] {
                    pairs.push((c.min(x), c.max(x)));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let sums = tivpar::par_map_rows(pairs.len(), threads, |i| {
            let (u, x) = pairs[i];
            severity_of(m, u, x, &best_via)
        });
        for (&(u, x), (s, count)) in pairs.iter().zip(sums) {
            let p = self.slot(u, x);
            (self.sev[p], self.cnt[p]) = (s, count);
        }
    }

    /// Mean violation count for edges within the same cluster versus
    /// edges crossing clusters (the paper: 80 within vs 206 across for
    /// DS²). Noise-cluster edges count as crossing.
    pub fn cluster_violation_counts(
        &self,
        m: &DelayMatrix,
        clustering: &delayspace::cluster::Clustering,
    ) -> ClusterViolationCounts {
        let mut within = (0u64, 0u64); // (sum, edges)
        let mut across = (0u64, 0u64);
        for (i, j, _) in m.edges() {
            let c = self.cnt[self.slot(i, j)] as u64;
            if clustering.same_cluster(i, j) {
                within.0 += c;
                within.1 += 1;
            } else {
                across.0 += c;
                across.1 += 1;
            }
        }
        ClusterViolationCounts {
            mean_within: if within.1 > 0 { within.0 as f64 / within.1 as f64 } else { 0.0 },
            mean_across: if across.1 > 0 { across.0 as f64 / across.1 as f64 } else { 0.0 },
            edges_within: within.1 as usize,
            edges_across: across.1 as usize,
        }
    }
}

/// Result of [`Severity::cluster_violation_counts`].
#[derive(Clone, Copy, Debug)]
pub struct ClusterViolationCounts {
    /// Mean violations caused by an intra-cluster edge.
    pub mean_within: f64,
    /// Mean violations caused by a cross-cluster (or noise) edge.
    pub mean_across: f64,
    /// Number of intra-cluster edges.
    pub edges_within: usize,
    /// Number of cross-cluster edges.
    pub edges_across: usize,
}

/// Witness-scan tile width for [`severity_pair`]. 32 f64s = 256 bytes =
/// 4 cache lines per input row: small enough that a tile of both rows
/// stays in L1 across the pre-scan and the detail pass, wide enough to
/// amortise the per-tile bookkeeping and fill SIMD lanes.
const WITNESS_TILE: usize = 32;

/// The severity inner kernel for one pair: scans all witnesses `b` with
/// `alt = d(a,b) + d(b,c)`; a violation needs `alt < dac`. Missing
/// delays are NaN, and NaN fails every comparison, so missing witnesses
/// drop out without branching. Returns the ratio sum (unnormalised) and
/// the violation count.
///
/// The scan is tiled: a branch-free pre-pass ORs `alt < dac` across a
/// [`WITNESS_TILE`]-wide block — two adds and a compare per lane, which
/// autovectorises — and only tiles containing a violation run the
/// detail pass. On DS² at n = 1024, 83.8% of measured pairs have no
/// violating witness at all and only 14.7% of tiles are flagged; the
/// flagged tiles sit in the other 16.2% of pairs, where ~44% of lanes
/// violate (docs/PERFORMANCE.md, "Severity: a branch-free detail loop,
/// gated by the detour table"). A per-lane `if alt < dac` is a coin
/// flip there, so the detail pass has no branch: it first fills a
/// stack tile with every lane's term, `dac / alt` where `b` violates
/// and `+0.0` where it does not (no loop-carried dependency, so the
/// divide vectorises), and counts the hits; then it adds the terms into
/// `sum` serially in ascending `b`. `sum` starts at `+0.0` and only
/// receives non-negative terms, so it is never `-0.0` and adding a
/// `+0.0` leaves its bits alone: the violating terms are added in the
/// naive scan's order and the result is bit-identical to it.
#[inline]
fn severity_pair(row_a: &[f64], row_c: &[f64], dac: f64) -> (f64, u32) {
    let n = row_a.len();
    let mut sum = 0.0f64;
    let mut count = 0u32;
    let mut b0 = 0;
    while b0 < n {
        let b1 = (b0 + WITNESS_TILE).min(n);
        let (tile_a, tile_c) = (&row_a[b0..b1], &row_c[b0..b1]);
        let mut any = false;
        for (&ab, &cb) in tile_a.iter().zip(tile_c) {
            any |= ab + cb < dac;
        }
        if any {
            let mut terms = [0.0f64; WITNESS_TILE];
            let mut hits = 0u32;
            for ((t, &ab), &cb) in terms.iter_mut().zip(tile_a).zip(tile_c) {
                let alt = ab + cb;
                // b == a or b == c gives alt == dac, which is not < dac.
                let hit = alt < dac;
                *t = if hit { dac / alt } else { 0.0 };
                hits += u32::from(hit);
            }
            for &t in &terms[..b1 - b0] {
                sum += t;
            }
            count += hits;
        }
        b0 = b1;
    }
    (sum, count)
}

/// The gate of the ungated entry points: a bound below every `d(a,c)`,
/// so no pair is ruled out.
fn ungated(_: NodeId, _: NodeId) -> f64 {
    f64::NEG_INFINITY
}

/// The stored `(severity, count)` of the pair `(a, c)`, `a <= c`: the
/// one kernel behind every entry point. The diagonal is `(0, 0)` and an
/// unmeasured edge `(NaN, 0)`; a pair the `best_via` gate rules out
/// (see [`Severity::compute_gated`]) is `(0, 0)` without a scan.
fn severity_of(
    m: &DelayMatrix,
    a: usize,
    c: usize,
    best_via: &impl Fn(NodeId, NodeId) -> f64,
) -> (f64, u32) {
    if a == c {
        return (0.0, 0);
    }
    let dac = m.raw(a, c);
    if dac.is_nan() {
        return (f64::NAN, 0);
    }
    if best_via(a, c) >= dac {
        return (0.0, 0);
    }
    let (sum, count) = severity_pair(m.row(a), m.row(c), dac);
    (sum / m.len() as f64, count)
}

/// The triangulation ratios of one edge (Figure 1): for edge `(a, c)`,
/// the ratio `d(a,c) / (d(a,b) + d(b,c))` over **all** witnesses `b`
/// (violating or not), sorted ascending. The severity is proportional
/// to the area above ratio = 1 under this curve's CDF.
pub fn triangulation_ratios(m: &DelayMatrix, a: NodeId, c: NodeId) -> Vec<f64> {
    let Some(dac) = m.get(a, c) else { return Vec::new() };
    let mut out = Vec::with_capacity(m.len());
    for b in 0..m.len() {
        if b == a || b == c {
            continue;
        }
        let (row_ab, row_cb) = (m.raw(a, b), m.raw(c, b));
        let alt = row_ab + row_cb;
        if !alt.is_nan() && alt > 0.0 {
            out.push(dac / alt);
        }
    }
    out.sort_by(f64::total_cmp);
    out
}

/// Estimates the severity of one edge from a random sample of `k`
/// witnesses instead of all `n` (an unbiased estimator of the exact
/// metric: the witness sum is scaled by `n/k` before the `1/|S|`
/// normalisation, so both cancel to a mean over sampled witnesses).
///
/// The exact metric needs the full delay matrix — global information no
/// deployed node has. A node that can measure `d(A,B)` and ask `B` for
/// `d(B,C)` can compute this estimate with `2k` measurements, which is
/// what a practical TIV-severity monitor would do. Accuracy improves
/// as `O(1/√k)`.
///
/// Generic over any [`DelayStore`]: on a dense matrix this is the
/// estimator the service's `SampledSeverity` query runs (the
/// wire-equivalence suite depends on its bits), and on a
/// [`SparseDelayStore`](delayspace::SparseDelayStore) it is the
/// million-node estimator: unmeasured witness legs are `NaN`, fail the
/// violation comparison, and drop out exactly as missing dense entries
/// always have.
pub fn estimate_severity<S: DelayStore>(
    store: &S,
    a: NodeId,
    c: NodeId,
    k: usize,
    seed: u64,
) -> Option<f64> {
    let dac = store.get(a, c)?;
    let (sum, sampled) = witness_sum(store, a, c, dac, k, seed, |_| {});
    Some(mean_severity(sum, sampled, store.len()))
}

/// The witness loop both sampled estimators share: draws the witnesses
/// of `(a, c)` and sums `d(a,c)/alt` over those that violate the
/// triangle, in draw order, handing each term to `each` too. Returns
/// `(sum, witnesses sampled)`.
fn witness_sum<S: DelayStore>(
    store: &S,
    a: NodeId,
    c: NodeId,
    dac: f64,
    k: usize,
    seed: u64,
    mut each: impl FnMut(f64),
) -> (f64, usize) {
    let witnesses =
        rng::sample_witnesses(&mut rng::sub_rng(seed, "severity/estimate"), store.len(), a, c, k);
    let sampled = witnesses.len();
    let mut sum = 0.0;
    for b in witnesses {
        let alt = store.raw(a, b) + store.raw(c, b);
        if alt < dac {
            let x = dac / alt;
            sum += x;
            each(x);
        }
    }
    (sum, sampled)
}

/// The mean over sampled witnesses ≈ the mean over all witnesses = the
/// exact severity up to the (n-2)/n boundary factor, which is included.
/// Zero when nothing was sampled.
fn mean_severity(sum: f64, sampled: usize, n: usize) -> f64 {
    if sampled == 0 {
        return 0.0;
    }
    sum / sampled as f64 * (n - 2) as f64 / n as f64
}

/// A sampled severity estimate with a 95% confidence interval.
///
/// Produced by [`estimate_severity_ci`]; the `point` field is
/// bit-identical to what [`estimate_severity`] returns for the same
/// `(store, a, c, k, seed)` — the CI machinery rides along without
/// perturbing the estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeverityEstimate {
    /// The point estimate (same value as [`estimate_severity`]).
    pub point: f64,
    /// Lower 95% confidence bound, clamped at 0 (severity is ≥ 0).
    pub ci_lo: f64,
    /// Upper 95% confidence bound.
    pub ci_hi: f64,
    /// Number of witnesses actually sampled (≤ k, ≤ n − 2).
    pub sampled: u32,
}

/// z for a two-sided 95% normal confidence interval.
const Z95: f64 = 1.96;

/// Like [`estimate_severity`], but also returns a 95% confidence
/// interval from the sample standard deviation of the per-witness
/// contributions.
///
/// The half-width is `z · s/√m` scaled by the finite-population
/// correction `√((N−m)/(N−1))` for sampling the `N = n−2` witnesses
/// without replacement — so at full sampling (`k ≥ n−2`) the interval
/// collapses to the exact answer, and the width shrinks as `O(1/√k)` in
/// between (the monotonicity the CI proptest pins). With fewer than two
/// samples the width is reported as 0 (no variance information).
///
/// Returns `None` when the edge `(a, c)` itself is unmeasured.
pub fn estimate_severity_ci<S: DelayStore>(
    store: &S,
    a: NodeId,
    c: NodeId,
    k: usize,
    seed: u64,
) -> Option<SeverityEstimate> {
    let dac = store.get(a, c)?;
    let n = store.len();
    // The same draws and summation order as estimate_severity, so the
    // point is bit-identical; the sum of squares feeds only the interval.
    let mut sum_sq = 0.0;
    let (sum, sampled) = witness_sum(store, a, c, dac, k, seed, |x| sum_sq += x * x);
    let point = mean_severity(sum, sampled, n);
    let half = if sampled >= 2 {
        // Sample variance of the per-witness contributions (non-negative
        // despite rounding), with the without-replacement correction.
        // Two samples imply n ≥ 4, so N = n − 2 > 1.
        let (m_f, big_n) = (sampled as f64, (n - 2) as f64);
        let var = ((sum_sq - sum * sum / m_f) / (m_f - 1.0)).max(0.0);
        let fpc = ((big_n - m_f) / (big_n - 1.0)).max(0.0);
        Z95 * (var / m_f * fpc).sqrt() * (big_n / n as f64)
    } else {
        0.0
    };
    Some(SeverityEstimate {
        point,
        ci_lo: (point - half).max(0.0),
        ci_hi: point + half,
        sampled: sampled as u32,
    })
}

/// Estimates a whole batch of edges with [`estimate_severity_ci`] in
/// parallel, using up to `threads` workers ([`tivpar::resolve_threads`]
/// semantics).
///
/// Edge `i` of the batch is estimated exactly as
/// `estimate_severity_ci(store, a, c, k, seed + i)`: the per-edge seed
/// offset decorrelates the witness samples across edges while keeping
/// the output a pure function of `(store, edges, k, seed)`, independent
/// of the thread count. This is the kernel a severity monitor sweeping
/// its whole peer set runs.
pub fn estimate_severity_ci_batch<S: DelayStore + Sync>(
    store: &S,
    edges: &[NodePair],
    k: usize,
    seed: u64,
    threads: usize,
) -> Vec<Option<SeverityEstimate>> {
    tivpar::par_map_rows(edges.len(), threads, |i| {
        let (a, c) = edges[i];
        estimate_severity_ci(store, a, c, k, seed.wrapping_add(i as u64))
    })
}

/// The proximity experiment of Figure 9: severity differences between
/// each sampled edge and (a) its *nearest-pair* edge, (b) a *random-pair*
/// edge.
#[derive(Clone, Debug)]
pub struct ProximityResult {
    /// |severity(AB) − severity(AnBn)| per sampled edge.
    pub nearest_pair_diffs: Cdf,
    /// |severity(AB) − severity(XY)| for a random measured edge XY.
    pub random_pair_diffs: Cdf,
}

/// Runs the proximity experiment over `samples` random measured edges.
///
/// For an edge `AB`, the nearest-pair edge is `AnBn` where `An`/`Bn`
/// are the delay-nearest neighbors of `A`/`B`. Pairs whose nearest-pair
/// edge is unmeasured or degenerate (`An == Bn`) are skipped.
pub fn proximity_experiment(
    m: &DelayMatrix,
    sev: &Severity,
    samples: usize,
    seed: u64,
) -> ProximityResult {
    use rand::Rng;
    let mut r = rng::sub_rng(seed, "proximity");
    let edges: Vec<(NodeId, NodeId)> = m.edges().map(|(i, j, _)| (i, j)).collect();
    assert!(!edges.is_empty(), "no measured edges");
    // Precompute nearest neighbors once.
    let nearest: Vec<Option<NodeId>> =
        (0..m.len()).map(|i| m.nearest_neighbor(i).map(|(j, _)| j)).collect();

    let mut near_diffs = Vec::with_capacity(samples);
    let mut rand_diffs = Vec::with_capacity(samples);
    let mut attempts = 0usize;
    while near_diffs.len() < samples && attempts < samples * 20 {
        attempts += 1;
        let (a, b) = edges[r.gen_range(0..edges.len())];
        let Some(s_ab) = sev.severity(a, b) else { continue };
        let (Some(an), Some(bn)) = (nearest[a], nearest[b]) else { continue };
        if an == bn {
            continue;
        }
        let Some(s_near) = sev.severity(an, bn) else { continue };
        let (x, y) = edges[r.gen_range(0..edges.len())];
        let Some(s_rand) = sev.severity(x, y) else { continue };
        near_diffs.push((s_ab - s_near).abs());
        rand_diffs.push((s_ab - s_rand).abs());
    }
    ProximityResult {
        nearest_pair_diffs: Cdf::from_samples(near_diffs),
        random_pair_diffs: Cdf::from_samples(rand_diffs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::cluster::{ClusterConfig, Clustering};
    use delayspace::synth::{Dataset, InternetDelaySpace};

    fn tiv_triangle() -> DelayMatrix {
        let mut m = DelayMatrix::new(3);
        m.set(0, 1, 5.0);
        m.set(1, 2, 5.0);
        m.set(0, 2, 100.0);
        m
    }

    #[test]
    fn severity_matches_hand_computation() {
        let m = tiv_triangle();
        let sev = Severity::compute(&m, 1);
        // Edge (0,2): witness 1 gives alt = 10 < 100, ratio 10. |S| = 3.
        assert!((sev.severity(0, 2).unwrap() - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(sev.count(0, 2), 1);
        // The short edges cause no violations.
        assert_eq!(sev.severity(0, 1), Some(0.0));
        assert_eq!(sev.severity(1, 2), Some(0.0));
        assert_eq!(sev.count(0, 1), 0);
    }

    #[test]
    fn metric_space_has_zero_severity() {
        let m = DelayMatrix::from_complete_fn(15, |i, j| 10.0 * i.abs_diff(j) as f64);
        let sev = Severity::compute(&m, 2);
        for (_, _, s) in sev.edges(&m) {
            assert_eq!(s, 0.0);
        }
        assert_eq!(sev.violating_triangle_fraction(), 0.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(70).build(3);
        let a = Severity::compute(s.matrix(), 1);
        let b = Severity::compute(s.matrix(), 4);
        for (i, j, sa) in a.edges(s.matrix()) {
            let sb = b.sev[b.slot(i, j)];
            assert_eq!(sa, sb);
            assert_eq!(a.count(i, j), b.count(i, j));
        }
    }

    #[test]
    fn violating_fraction_of_single_tiv() {
        let sev = Severity::compute(&tiv_triangle(), 1);
        // 1 triangle, violated.
        assert_eq!(sev.violating_triangle_fraction(), 1.0);
    }

    #[test]
    fn ds2_preset_violation_fraction_is_plausible() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(150).build(21);
        let sev = Severity::compute(s.matrix(), 0);
        let frac = sev.violating_triangle_fraction();
        // Paper: ~12% for DS². Accept a generous band at small n.
        assert!((0.03..0.40).contains(&frac), "violating fraction {frac}");
    }

    #[test]
    fn worst_edges_sorted_and_sized() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(60).build(5);
        let sev = Severity::compute(s.matrix(), 0);
        let worst = sev.worst_edges(s.matrix(), 0.1);
        let total = s.matrix().edges().count();
        assert_eq!(worst.len(), ((total as f64) * 0.1).round() as usize);
        // First edge must have max severity.
        let max = sev.edges(s.matrix()).map(|(_, _, v)| v).fold(f64::MIN, f64::max);
        let (i, j) = worst[0];
        assert_eq!(sev.severity(i, j), Some(max));
    }

    #[test]
    fn worst_edges_match_the_full_sort() {
        // The full stable sort `worst_edges` replaced. Delays from a
        // small set give many tied severities; edges measured after the
        // severity pass read NaN.
        let reference = |sev: &Severity, m: &DelayMatrix, frac: f64| {
            let mut edges: Vec<_> = sev.edges(m).filter(|e| !e.2.is_nan()).collect();
            edges.sort_by(|a, b| b.2.total_cmp(&a.2));
            edges.truncate(((edges.len() as f64) * frac).round() as usize);
            edges.into_iter().map(|(i, j, _)| (i, j)).collect::<Vec<_>>()
        };
        let full = DelayMatrix::from_complete_fn(60, |i, j| [10.0, 20.0, 30.0, 70.0][(i * j) % 4]);
        let mut m = DelayMatrix::from_fn(60, |i, j| full.get(i, j).filter(|_| (i + j) % 9 != 0));
        let sev = Severity::compute(&m, 0);
        for (i, j, d) in full.edges().filter(|&(i, j, _)| (i + j) % 9 == 0) {
            m.set(i, j, d);
        }
        assert!(sev.edges(&m).any(|e| e.2.is_nan()));
        let violating = sev.edges(&m).filter(|e| e.2 > 0.0).count();
        let distinct = {
            let mut v: Vec<u64> = sev.edges(&m).map(|e| e.2.to_bits()).collect();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(distinct * 4 < violating, "too few ties: {distinct} values, {violating} edges");
        for frac in [0.0, 0.01, 0.05, 0.2, 0.37, 0.5, 0.9, 1.0] {
            assert_eq!(sev.worst_edges(&m, frac), reference(&sev, &m, frac), "frac {frac}");
        }
    }

    #[test]
    fn cross_cluster_edges_violate_more_often() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(200).build(33);
        let m = s.matrix();
        let sev = Severity::compute(m, 0);
        let cl = Clustering::compute(m, &ClusterConfig::default());
        let counts = sev.cluster_violation_counts(m, &cl);
        assert!(counts.edges_within > 0 && counts.edges_across > 0);
        assert!(
            counts.mean_across > counts.mean_within,
            "cross {} should exceed within {}",
            counts.mean_across,
            counts.mean_within
        );
    }

    #[test]
    fn triangulation_ratios_sorted_and_correct() {
        let m = tiv_triangle();
        let ratios = triangulation_ratios(&m, 0, 2);
        assert_eq!(ratios, vec![10.0]); // only witness 1: 100/(5+5)
        let ratios_short = triangulation_ratios(&m, 0, 1);
        assert_eq!(ratios_short, vec![5.0 / 105.0]);
    }

    #[test]
    fn proximity_diffs_have_samples() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(100).build(9);
        let sev = Severity::compute(s.matrix(), 0);
        let prox = proximity_experiment(s.matrix(), &sev, 500, 1);
        assert!(prox.nearest_pair_diffs.len() > 400);
        assert_eq!(prox.nearest_pair_diffs.len(), prox.random_pair_diffs.len());
        // Differences are non-negative by construction.
        assert!(prox.nearest_pair_diffs.quantile(0.0) >= 0.0);
    }

    #[test]
    fn nearest_pairs_only_slightly_more_similar() {
        // The paper's finding: nearest-pair edges are only *slightly*
        // more similar than random pairs. Check the medians are within
        // a small factor rather than dramatically apart.
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(150).build(41);
        let sev = Severity::compute(s.matrix(), 0);
        let prox = proximity_experiment(s.matrix(), &sev, 1000, 2);
        let mn = prox.nearest_pair_diffs.median();
        let mr = prox.random_pair_diffs.median();
        assert!(mn <= mr * 1.5 + 0.01, "nearest median {mn} vs random {mr}");
    }

    #[test]
    fn estimate_converges_to_exact() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(200).build(51);
        let m = s.matrix();
        let sev = Severity::compute(m, 0);
        // Pick a genuinely severe edge so relative error is meaningful.
        let (a, c) = sev.worst_edges(m, 0.01)[0];
        let exact = sev.severity(a, c).unwrap();
        // Average several estimates at growing k: error shrinks.
        let avg_err = |k: usize| {
            let mut total = 0.0;
            for seed in 0..16 {
                let est = estimate_severity(m, a, c, k, seed).unwrap();
                total += (est - exact).abs();
            }
            total / 16.0
        };
        let coarse = avg_err(10);
        let fine = avg_err(150);
        assert!(
            fine < coarse,
            "estimator not converging: err(k=10)={coarse:.4}, err(k=150)={fine:.4}"
        );
        assert!(fine < exact * 0.5, "estimate too far off: {fine} vs exact {exact}");
    }

    #[test]
    fn estimate_with_all_witnesses_matches_exact() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(60).build(53);
        let m = s.matrix();
        let sev = Severity::compute(m, 0);
        for (a, c, exact) in sev.edges(m).take(50) {
            // k = n-2 samples every witness exactly once.
            let est = estimate_severity(m, a, c, m.len(), 1).unwrap();
            assert!(
                (est - exact).abs() < 1e-9,
                "full-sample estimate {est} != exact {exact} for ({a},{c})"
            );
        }
    }

    #[test]
    fn batch_estimate_matches_single_calls() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(80).build(17);
        let m = s.matrix();
        let edges: Vec<_> = m.edges().map(|(i, j, _)| (i, j)).take(40).collect();
        for threads in [1, 4] {
            let batch = estimate_severity_ci_batch(m, &edges, 12, 9, threads);
            assert_eq!(batch.len(), edges.len());
            for (i, &(a, c)) in edges.iter().enumerate() {
                let single = estimate_severity(m, a, c, 12, 9 + i as u64);
                assert_eq!(batch[i].map(|e| e.point.to_bits()), single.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn estimate_of_zero_severity_edge_is_zero() {
        let m = DelayMatrix::from_complete_fn(20, |i, j| 10.0 * i.abs_diff(j) as f64);
        for seed in 0..8 {
            assert_eq!(estimate_severity(&m, 0, 10, 8, seed), Some(0.0));
        }
    }

    #[test]
    fn consumers_survive_edges_measured_after_the_severity_pass() {
        // Regression test: the severity matrix is seeded with NaN, and
        // an edge measured *after* the pass (the epoch builder folding
        // in a fresh observation, a sparser sampling matrix) keeps that
        // NaN. worst_edges used to feed it to partial_cmp().unwrap()
        // and panic; cdf/by_delay_bins must also skip it, not fold it
        // into the aggregates.
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(40).build(11);
        let mut sparse = s.matrix().clone();
        // Hold out a band of edges from the severity pass...
        for j in 1..sparse.len() {
            sparse.clear(0, j);
        }
        let sev = Severity::compute(&sparse, 1);
        // ...then hand the consumers the fully-measured matrix, as a
        // service whose matrix keeps growing would.
        let full = s.matrix();
        let measured: Vec<_> = sev.edges(full).filter(|(_, _, v)| !v.is_nan()).collect();
        let held_out = full.edges().count() - measured.len();
        assert!(held_out > 0, "fixture must contain newly-measured edges");

        let worst = sev.worst_edges(full, 1.0); // used to panic here
        assert_eq!(worst.len(), measured.len(), "NaN edges must not count toward the fraction");
        assert!(worst.iter().all(|&(i, _)| i != 0), "held-out edges must be excluded");
        // Descending order over the retained edges.
        let ranked: Vec<f64> = worst.iter().map(|&(i, j)| sev.severity(i, j).unwrap()).collect();
        assert!(ranked.windows(2).all(|w| w[0] >= w[1]));

        assert_eq!(sev.cdf(full).len(), measured.len());
        let binned = sev.by_delay_bins(full, 50.0, 2_000.0);
        let samples: usize = binned.bins.iter().filter_map(|b| b.stats.map(|st| st.count)).sum();
        assert!(samples <= measured.len(), "binned stats must skip NaN severities");
    }

    #[test]
    fn repair_rows_matches_full_recompute() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(90).build(13);
        let mut m = s.matrix().clone();
        let mut sev = Severity::compute(&m, 2);
        // Mutate a handful of edges: grown, shrunk, cleared, and one
        // newly measured — the dirty set is the incident nodes.
        m.set(3, 40, m.get(3, 40).unwrap() * 6.0);
        m.set(17, 60, 0.25);
        m.clear(40, 61);
        let dirty = vec![3usize, 17, 40, 60, 61];
        for threads in [1usize, 2, 4] {
            let mut repaired = sev.clone();
            repaired.repair_rows(&m, &dirty, threads);
            let full = Severity::compute(&m, 1);
            for i in 0..90 {
                for j in 0..90 {
                    let (p, q) = (repaired.slot(i, j), full.slot(i, j));
                    assert_eq!(
                        repaired.sev[p].to_bits(),
                        full.sev[q].to_bits(),
                        "severity diverged at ({i},{j}), {threads} threads"
                    );
                    assert_eq!(repaired.cnt[p], full.cnt[q]);
                }
            }
        }
        // An empty dirty set is a no-op.
        let before = sev.sev.clone();
        sev.repair_rows(s.matrix(), &[], 4);
        assert_eq!(sev.sev.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), {
            before.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        });
    }

    #[test]
    fn repair_edges_matches_repair_rows() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(90).build(13);
        let mut start = s.matrix().clone();
        start.clear(5, 6);
        let sev = Severity::compute(&start, 2);
        // Grown, shrunk to zero, cleared, newly measured, and one edge
        // changed and put back within the epoch.
        let mut m = start.clone();
        m.set(3, 40, m.get(3, 40).unwrap() * 6.0);
        m.set(17, 60, 0.0);
        m.clear(40, 61);
        m.set(5, 6, 12.0);
        let changed: Vec<_> = [(3usize, 40usize), (17, 60), (40, 61), (5, 6), (8, 9)]
            .iter()
            .map(|&(a, b)| (a, b, start.raw(a, b)))
            .collect();
        let mut by_rows = sev.clone();
        by_rows.repair_rows(&m, &[3, 5, 6, 8, 9, 17, 40, 60, 61], 1);
        for threads in [1usize, 2, 4] {
            let mut by_edges = sev.clone();
            by_edges.repair_edges(&m, &changed, threads);
            let bits = |s: &Severity| s.sev.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&by_edges), bits(&by_rows), "severity diverged, {threads} threads");
            assert_eq!(by_edges.cnt, by_rows.cnt, "counts diverged, {threads} threads");
        }
    }

    #[test]
    fn gated_entry_points_match_the_ungated_ones() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(90).build(13);
        let mut start = s.matrix().clone();
        start.clear(5, 6);
        let mut m = start.clone();
        m.set(3, 40, m.get(3, 40).unwrap() * 6.0);
        m.set(17, 60, 0.0);
        m.clear(40, 61);
        m.set(5, 6, 12.0);
        let changed: Vec<_> = [(3usize, 40usize), (17, 60), (40, 61), (5, 6)]
            .iter()
            .map(|&(a, b)| (a, b, start.raw(a, b)))
            .collect();
        // The exact gate: the smallest measured two-hop delay, by brute force.
        fn best_via(m: &DelayMatrix) -> impl Fn(NodeId, NodeId) -> f64 + Sync + '_ {
            move |a, c| {
                (0..m.len())
                    .filter(|&b| b != a && b != c)
                    .map(|b| m.raw(a, b) + m.raw(b, c))
                    .filter(|v| !v.is_nan())
                    .fold(f64::INFINITY, f64::min)
            }
        }
        let bits =
            |s: &Severity| (s.sev.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), s.cnt.clone());
        let want = bits(&Severity::compute(&m, 1));
        assert!(want.1.iter().any(|&c| c > 0) && want.1.contains(&0));
        for threads in [1usize, 2] {
            assert_eq!(bits(&Severity::compute_gated(&m, threads, best_via(&m))), want);
            let mut repaired = Severity::compute_gated(&start, threads, best_via(&start));
            repaired.repair_edges_gated(&m, &changed, threads, best_via(&m));
            assert_eq!(bits(&repaired), want, "repair_edges_gated, {threads} threads");
        }
        // A gate that lies rules out pairs that do violate.
        let lying = Severity::compute_gated(&m, 1, |_, _| f64::INFINITY);
        assert!(lying.cnt.iter().all(|&c| c == 0));
    }

    #[test]
    fn clone_from_reuses_the_destination_buffers() {
        let src = Severity::compute(&tiv_triangle(), 1);
        let mut dst = Severity::compute(&DelayMatrix::from_complete_fn(3, |_, _| 1.0), 1);
        let buffers = (dst.sev.as_ptr(), dst.cnt.as_ptr());
        dst.clone_from(&src);
        assert_eq!((dst.sev.as_ptr(), dst.cnt.as_ptr()), buffers, "clone_from reallocated");
        assert_eq!(dst.count(0, 2), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn repair_rejects_unsorted_dirty_set() {
        let m = tiv_triangle();
        let mut sev = Severity::compute(&m, 1);
        sev.repair_rows(&m, &[2, 1], 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn repair_rejects_out_of_range_row() {
        let m = tiv_triangle();
        let mut sev = Severity::compute(&m, 1);
        sev.repair_rows(&m, &[7], 1);
    }

    #[test]
    fn missing_edges_have_no_severity() {
        let mut m = tiv_triangle();
        m.clear(0, 2);
        let sev = Severity::compute(&m, 1);
        assert_eq!(sev.severity(0, 2), None);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = DelayMatrix::new(0);
        let sev = Severity::compute(&m, 1);
        assert!(sev.is_empty());
        assert_eq!(sev.violating_triangle_fraction(), 0.0);
    }

    #[test]
    fn sparse_store_estimate_is_bit_identical_to_dense() {
        use delayspace::store::SparseDelayStore;
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(60).build(29);
        let m = s.matrix();
        let sparse = SparseDelayStore::from_matrix(m);
        let edges: Vec<_> = m.edges().map(|(i, j, _)| (i, j)).take(40).collect();
        for (i, &(a, c)) in edges.iter().enumerate() {
            let dense = estimate_severity(m, a, c, 12, 7 + i as u64);
            let via_sparse = estimate_severity(&sparse, a, c, 12, 7 + i as u64);
            assert_eq!(
                dense.map(f64::to_bits),
                via_sparse.map(f64::to_bits),
                "sparse estimate diverged on ({a},{c})"
            );
        }
        let dense_batch = estimate_severity_ci_batch(m, &edges, 12, 7, 2);
        let sparse_batch = estimate_severity_ci_batch(&sparse, &edges, 12, 7, 2);
        assert_eq!(dense_batch, sparse_batch);
    }

    #[test]
    fn ci_point_is_bit_identical_to_plain_estimate() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(80).build(31);
        let m = s.matrix();
        let edges: Vec<_> = m.edges().map(|(i, j, _)| (i, j)).take(60).collect();
        let with_ci = estimate_severity_ci_batch(m, &edges, 16, 3, 2);
        for (i, (&(a, c), e)) in edges.iter().zip(&with_ci).enumerate() {
            let p = estimate_severity(m, a, c, 16, 3 + i as u64).unwrap();
            let e = e.unwrap();
            assert_eq!(p.to_bits(), e.point.to_bits(), "point diverged on edge {i}");
            assert!(e.ci_lo <= e.point && e.point <= e.ci_hi, "point outside CI on edge {i}");
            assert!(e.ci_lo >= 0.0 && e.ci_hi.is_finite());
        }
    }

    #[test]
    fn ci_collapses_at_full_sampling() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(50).build(37);
        let m = s.matrix();
        let sev = Severity::compute(m, 0);
        for (a, c, exact) in sev.edges(m).take(30) {
            let e = estimate_severity_ci(m, a, c, m.len(), 5).unwrap();
            assert_eq!(e.sampled as usize, m.len() - 2);
            assert_eq!(e.ci_hi - e.ci_lo, 0.0, "full sample must have zero-width CI");
            assert!((e.point - exact).abs() < 1e-9, "{} vs exact {exact}", e.point);
        }
    }

    #[test]
    fn ci_is_degenerate_on_tiny_spaces() {
        let m = DelayMatrix::from_complete_fn(2, |_, _| 7.0);
        let e = estimate_severity_ci(&m, 0, 1, 8, 1).unwrap();
        assert_eq!((e.point, e.ci_lo, e.ci_hi, e.sampled), (0.0, 0.0, 0.0, 0));
        let mut holed = DelayMatrix::new(4);
        holed.set(0, 1, 5.0);
        assert!(estimate_severity_ci(&holed, 2, 3, 8, 1).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// CI width shrinks as the sampling rate grows: averaged over
        /// every edge of a TIV-rich space and several seeds, the mean
        /// 95% interval width at each doubling of k is no wider than at
        /// the previous k (`O(1/√k)` plus the finite-population
        /// correction), and full sampling collapses it to zero exactly.
        #[test]
        fn ci_width_shrinks_with_sampling_rate((n, space_seed) in (24usize..48, 0u64..1000)) {
            let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(space_seed);
            let m = s.matrix();
            let edges: Vec<_> = m.edges().map(|(i, j, _)| (i, j)).collect();
            let mean_width = |k: usize| {
                let mut total = 0.0;
                let mut count = 0usize;
                for seed in 0..4u64 {
                    for e in estimate_severity_ci_batch(m, &edges, k, seed * 977, 1) {
                        let e = e.unwrap();
                        total += e.ci_hi - e.ci_lo;
                        count += 1;
                    }
                }
                total / count as f64
            };
            let widths: Vec<f64> = [2usize, 4, 8, 16].iter().map(|&k| mean_width(k)).collect();
            for w in widths.windows(2) {
                prop_assert!(
                    w[1] <= w[0] * 1.10 + 1e-12,
                    "CI width grew with k: {:?}", widths
                );
            }
            prop_assert_eq!(mean_width(n), 0.0, "full sampling must collapse the CI");
        }
    }
}
