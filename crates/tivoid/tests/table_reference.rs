//! The severity and detour tables against an independent reference.
//!
//! Both tables store each unordered pair once, in a packed upper
//! triangle, and every accessor maps `(i, j)` and `(j, i)` to the same
//! slot. This suite checks that layout against obviously-right
//! implementations that know nothing about it:
//!
//! * a textbook triple-loop severity (§2.1: ascending witnesses, strict
//!   `<`, ratio sum over `|S|`);
//! * a brute-force k-best relay scan (collect every measured two-hop
//!   path, sort by `(via, relay id)`, keep `k`).
//!
//! Every accessor (`severity`, `count`, `relays`, `best`, `gain`) is
//! read in both orientations and on the diagonal, bit for bit, for
//! n ∈ {0, 1, 2, 3, 5, 33}, k ∈ {1, 2, 5} and 1, 2 and 4 threads, on
//! adversarial matrices: equal-`via` ties, zero delays, missing (NaN)
//! edges and exact triangle equality. The two repair paths of each
//! table are checked against the same reference. The detour scan's
//! 32-relay tiles get their own sweep at n ∈ {31, 32, 33, 64, 65, 97},
//! with equal-`via` ties straddling the tile edges. The derived state's
//! severity pass, which its detour table gates, is checked against the
//! same reference on all of these sizes, from scratch and repaired.
//!
//! Last, the severity aggregates, the full severity table (ungated and
//! gated) and the detour table of a seeded DS² space (n = 200) are
//! pinned to the bits of earlier code.

use tivoid::prelude::*;
use tivoid::tivroute::detour::Relay;

const SIZES: [usize; 6] = [0, 1, 2, 3, 5, 33];
const KS: [usize; 3] = [1, 2, 5];
const THREADS: [usize; 3] = [1, 2, 4];

/// SplitMix64 finaliser: a fixed hash for the mixed generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The adversarial matrices, by name.
fn matrices(n: usize) -> Vec<(&'static str, DelayMatrix)> {
    // Exact triangle equality everywhere (points on a line), with one
    // edge raised so that it violates through every inner witness.
    let mut line = DelayMatrix::from_complete_fn(n, |i, j| 10.0 * i.abs_diff(j) as f64);
    if n >= 2 {
        line.set(0, n - 1, 10.0 * n as f64);
    }
    vec![
        // Four distinct delays: equal-via ties on almost every pair.
        (
            "ties",
            DelayMatrix::from_complete_fn(n, |i, j| ((i * 7 + j * 13) % 4) as f64 * 10.0 + 10.0),
        ),
        (
            "zeros",
            DelayMatrix::from_complete_fn(n, |i, j| {
                if (i + 2 * j) % 3 == 0 {
                    0.0
                } else {
                    ((i * j) % 5) as f64 + 1.0
                }
            }),
        ),
        (
            "holes",
            DelayMatrix::from_fn(n, |i, j| {
                ((i * 3 + j) % 4 != 0).then(|| ((i * 11 + j * 5) % 9) as f64 + 0.5)
            }),
        ),
        ("equality", line),
        (
            "mixed",
            DelayMatrix::from_fn(n, |i, j| {
                let h = mix((i * 1000 + j) as u64);
                match h % 8 {
                    0 => None,
                    1 => Some(0.0),
                    2..=4 => Some(((h >> 8) % 3) as f64 * 5.0),
                    _ => Some((h >> 11) as f64 / (1u64 << 53) as f64 * 300.0),
                }
            }),
        ),
    ]
}

/// Textbook severity of `(a, c)`: `(severity, violations)`, with the
/// diagonal `(Some(0), 0)` and an unmeasured edge `(None, 0)`.
fn ref_severity(m: &DelayMatrix, a: NodeId, c: NodeId) -> (Option<f64>, u32) {
    if a == c {
        return (Some(0.0), 0);
    }
    let Some(dac) = m.get(a, c) else { return (None, 0) };
    let (mut sum, mut count) = (0.0f64, 0u32);
    for b in 0..m.len() {
        if b == a || b == c {
            continue;
        }
        if let (Some(ab), Some(bc)) = (m.get(a, b), m.get(b, c)) {
            let alt = ab + bc;
            if alt < dac {
                sum += dac / alt;
                count += 1;
            }
        }
    }
    (Some(sum / m.len() as f64), count)
}

/// Brute-force k-best relays of `(a, c)`: every measured two-hop path,
/// sorted by `(via, relay id)`, first `k` kept.
fn ref_relays(m: &DelayMatrix, a: NodeId, c: NodeId, k: usize) -> Vec<Relay> {
    if a == c {
        return Vec::new();
    }
    let mut all: Vec<Relay> = (0..m.len())
        .filter(|&b| b != a && b != c)
        .filter_map(|b| Some(Relay { relay: b, via_ms: m.get(a, b)? + m.get(b, c)? }))
        .collect();
    all.sort_by(|x, y| x.via_ms.total_cmp(&y.via_ms).then(x.relay.cmp(&y.relay)));
    all.truncate(k);
    all
}

fn relay_bits(rs: impl IntoIterator<Item = Relay>) -> Vec<(NodeId, u64)> {
    rs.into_iter().map(|r| (r.relay, r.via_ms.to_bits())).collect()
}

fn gain_bits(g: Option<DetourGain>) -> Option<[u64; 5]> {
    g.map(|g| {
        let f = [g.via_ms, g.direct_ms, g.saving_ms, g.saving_frac];
        [g.relay as u64, f[0].to_bits(), f[1].to_bits(), f[2].to_bits(), f[3].to_bits()]
    })
}

/// Every accessor of both tables, both orientations and the diagonal,
/// against the reference on `m`.
fn check(sev: &Severity, table: &DetourTable, m: &DelayMatrix, what: &str) {
    let (n, k) = (m.len(), table.k());
    assert_eq!((sev.len(), table.len()), (n, n), "{what}: size");
    for a in 0..n {
        for c in 0..n {
            let (s, count) = ref_severity(m, a, c);
            let at = format!("{what} at ({a},{c})");
            assert_eq!(sev.severity(a, c).map(f64::to_bits), s.map(f64::to_bits), "{at}: severity");
            assert_eq!(sev.count(a, c), count, "{at}: count");
            let want = ref_relays(m, a, c, k);
            assert_eq!(relay_bits(table.relays(a, c)), relay_bits(want.clone()), "{at}: relays");
            assert_eq!(
                relay_bits(table.best(a, c)),
                relay_bits(want.first().copied()),
                "{at}: best"
            );
            let gain = m.get(a, c).zip(want.first()).map(|(direct_ms, best)| {
                let saving_ms = direct_ms - best.via_ms;
                DetourGain {
                    relay: best.relay,
                    via_ms: best.via_ms,
                    direct_ms,
                    saving_ms,
                    saving_frac: if direct_ms > 0.0 { saving_ms / direct_ms } else { 0.0 },
                }
            });
            assert_eq!(gain_bits(table.gain(m, a, c)), gain_bits(gain), "{at}: gain");
        }
    }
}

#[test]
fn full_tables_match_the_reference() {
    for n in SIZES {
        for (name, m) in matrices(n) {
            for threads in THREADS {
                let sev = Severity::compute(&m, threads);
                for k in KS {
                    let table = DetourTable::compute(&m, k, threads);
                    check(&sev, &table, &m, &format!("{name} n={n} k={k} threads={threads}"));
                }
            }
        }
    }
}

/// `m` with a few edges changed: each listed edge toggles between
/// measured and unmeasured or changes its delay. Returns the earlier
/// matrix and the `(a, b, before)` list the edge repairs take.
fn earlier(m: &DelayMatrix) -> (DelayMatrix, Vec<(NodeId, NodeId, f64)>) {
    let n = m.len();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for (a, b) in [(0, 1), (1, n - 1), (0, n / 2), (n - 1, n - 2), (2, 3)] {
        if a < n
            && b < n
            && a != b
            && !edges.iter().any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
        {
            edges.push((a, b));
        }
    }
    let mut before = m.clone();
    for (i, &(a, b)) in edges.iter().enumerate() {
        match m.get(a, b) {
            Some(_) if i % 2 == 0 => before.clear(a, b),
            Some(d) => before.set(a, b, d * 3.0 + 1.0),
            None => before.set(a, b, 7.0),
        }
    }
    let changed = edges.iter().map(|&(a, b)| (a, b, before.raw(a, b))).collect();
    (before, changed)
}

#[test]
fn repaired_tables_match_the_reference() {
    for n in SIZES.into_iter().filter(|&n| n >= 2) {
        for (name, m) in matrices(n) {
            let (before, changed) = earlier(&m);
            let mut dirty: Vec<NodeId> = changed.iter().flat_map(|&(a, b, _)| [a, b]).collect();
            dirty.sort_unstable();
            dirty.dedup();
            for threads in THREADS {
                for k in KS {
                    let what = format!("{name} n={n} k={k} threads={threads}");
                    let (mut sev, mut table) = (
                        Severity::compute(&before, threads),
                        DetourTable::compute(&before, k, threads),
                    );
                    sev.repair_rows(&m, &dirty, threads);
                    table.repair_rows(&m, &dirty, threads);
                    check(&sev, &table, &m, &format!("{what}, repair_rows"));
                    let (mut sev, mut table) = (
                        Severity::compute(&before, threads),
                        DetourTable::compute(&before, k, threads),
                    );
                    sev.repair_edges(&m, &changed, threads);
                    table.repair_edges(&m, &changed);
                    check(&sev, &table, &m, &format!("{what}, repair_edges"));
                }
            }
        }
    }
}

/// Sizes around the detour scan's 32-relay tile: one short of a tile,
/// exactly one, one lane into the next, and two and three tiles.
const TILE_SIZES: [usize; 6] = [31, 32, 33, 64, 65, 97];

/// Equal-`via` ties on both sides of a tile edge: every pair outside
/// {31, 32, 63, 64} reaches relays 31 and 32 at `via` 10 and relays 63
/// and 64 at `via` 5, over a hashed background of 20–59 ms.
fn tile_ties(n: usize) -> DelayMatrix {
    let hop = |t: NodeId| match t {
        31 | 32 => Some(5.0),
        63 | 64 => Some(2.5),
        _ => None,
    };
    DelayMatrix::from_complete_fn(n, |i, j| match (hop(i), hop(j)) {
        (Some(x), None) | (None, Some(x)) => x,
        (Some(x), Some(y)) => x + y,
        (None, None) => (mix((i.min(j) * 1000 + i.max(j)) as u64) % 40) as f64 + 20.0,
    })
}

/// The tiled k-best scan against the reference where tiles begin and
/// end. `check` reads every pair, so the endpoints `a` and `c` sit on
/// every lane of every tile, lanes 0, 31 and 32 included.
#[test]
fn detour_tiles_match_the_reference() {
    for n in TILE_SIZES {
        let mut all = matrices(n);
        all.push(("tile ties", tile_ties(n)));
        for (name, m) in all {
            let (before, changed) = earlier(&m);
            for threads in [1, 2] {
                let sev = Severity::compute(&m, threads);
                for k in KS {
                    let what = format!("{name} n={n} k={k} threads={threads}");
                    check(&sev, &DetourTable::compute(&m, k, threads), &m, &what);
                    let mut table = DetourTable::compute(&before, k, threads);
                    table.repair_edges(&m, &changed);
                    check(&sev, &table, &m, &format!("{what}, repair_edges"));
                }
            }
        }
    }
}

/// The derived state's severity pass is gated by its detour table: a
/// pair whose best relay does not strictly beat the direct edge is
/// written as zero without a witness scan. Both of its paths, from
/// scratch and the edge repair (detour table first, then the gated
/// re-sums), against the textbook loop. `equality` puts the best `via`
/// exactly on `d(a,c)`, the gate's boundary; `holes` and `mixed` leave
/// direct edges and witness legs unmeasured; `zeros` makes `alt == 0`,
/// a `+inf` term.
#[test]
fn derived_state_matches_the_reference() {
    for n in SIZES.into_iter().chain(TILE_SIZES) {
        let mut all = matrices(n);
        all.push(("tile ties", tile_ties(n)));
        for (name, m) in all {
            for threads in THREADS {
                for k in KS {
                    let what = format!("{name} n={n} k={k} threads={threads}");
                    let state = DerivedState::compute(&m, k, threads);
                    check(&state.severity, &state.detour, &m, &format!("{what}, compute"));
                    if n < 2 {
                        continue;
                    }
                    let (before, changed) = earlier(&m);
                    let mut state = DerivedState::compute(&before, k, threads);
                    state.repair_edges(&m, &changed, threads);
                    check(&state.severity, &state.detour, &m, &format!("{what}, repair_edges"));
                }
            }
        }
    }
}

/// FNV-1a over 64-bit words: one number for a long aggregate.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01B3))
}

#[test]
fn ds2_aggregates_keep_their_bits() {
    let m = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(200).build(33).into_matrix();
    let sev = Severity::compute(&m, 0);
    let cdf = sev.cdf(&m);
    let quantiles: Vec<u64> = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        .iter()
        .map(|&q| cdf.quantile(q).to_bits())
        .collect();
    let worst = sev.worst_edges(&m, 0.05);
    let clusters =
        sev.cluster_violation_counts(&m, &Clustering::compute(&m, &ClusterConfig::default()));
    let bins = sev.by_delay_bins(&m, 25.0, 1_000.0);
    let bin_words = bins.bins.iter().flat_map(|b| {
        let s = b.stats.map_or([u64::MAX; 4], |s| {
            [s.p10.to_bits(), s.p50.to_bits(), s.p90.to_bits(), s.count as u64]
        });
        [b.lo.to_bits(), b.hi.to_bits()].into_iter().chain(s)
    });
    let got = [
        ("cdf.len", cdf.len() as u64),
        ("cdf.quantiles", fnv(quantiles.iter().copied())),
        ("cdf.median", cdf.median().to_bits()),
        ("violating_triangle_fraction", sev.violating_triangle_fraction().to_bits()),
        ("worst_edges.len", worst.len() as u64),
        ("worst_edges", fnv(worst.iter().flat_map(|&(i, j)| [i as u64, j as u64]))),
        ("cluster.mean_within", clusters.mean_within.to_bits()),
        ("cluster.mean_across", clusters.mean_across.to_bits()),
        ("cluster.edges_within", clusters.edges_within as u64),
        ("cluster.edges_across", clusters.edges_across as u64),
        ("by_delay_bins.len", bins.bins.len() as u64),
        ("by_delay_bins", fnv(bin_words)),
    ];
    // Captured from the square-table code on the same space and seed.
    let pinned = [
        ("cdf.len", 19_818),
        ("cdf.quantiles", 17_993_169_777_847_822_981),
        ("cdf.median", 0),
        ("violating_triangle_fraction", 4_597_146_228_982_631_100),
        ("worst_edges.len", 991),
        ("worst_edges", 10_799_294_735_464_473_994),
        ("cluster.mean_within", 4_611_409_674_504_940_203),
        ("cluster.mean_across", 4_626_434_862_577_839_724),
        ("cluster.edges_within", 6_144),
        ("cluster.edges_across", 13_674),
        ("by_delay_bins.len", 40),
        ("by_delay_bins", 2_535_188_617_738_495_699),
    ];
    assert_eq!(got, pinned);
}

#[test]
fn ds2_detour_table_keeps_its_bits() {
    let m = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(200).build(33).into_matrix();
    let n = m.len();
    let got = [1usize, 3].map(|k| {
        let table = DetourTable::compute(&m, k, 0);
        let listed: Vec<Relay> = (0..n)
            .flat_map(|a| (0..n).map(move |c| (a, c)))
            .flat_map(|(a, c)| table.relays(a, c))
            .collect();
        let words = listed.iter().flat_map(|r| [r.relay as u64, r.via_ms.to_bits()]);
        (k, listed.len(), fnv(words))
    });
    // Captured from the untiled phase-2 scan (one plain compare per
    // relay) on the same space and seed, before the tiled pre-scan.
    let pinned = [(1, 39_800, 9_932_745_319_522_500_609), (3, 119_400, 10_123_905_188_138_453_493)];
    assert_eq!(got, pinned);
}

#[test]
fn ds2_severity_table_keeps_its_bits() {
    let m = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(200).build(33).into_matrix();
    let n = m.len();
    let cells = |sev: &Severity| {
        let words = (0..n).flat_map(|a| (a..n).map(move |c| (a, c))).flat_map(|(a, c)| {
            [sev.severity(a, c).map_or(u64::MAX, f64::to_bits), sev.count(a, c) as u64]
        });
        fnv(words)
    };
    let got = [cells(&Severity::compute(&m, 0)), cells(&DerivedState::compute(&m, 1, 1).severity)];
    // Captured from the parent commit's kernel on the same space and
    // seed, before the detail loop went branch-free and the derived
    // state's severity pass was gated by its detour table: every cell,
    // so a masked lane that added -0.0 instead of +0.0 shows here.
    let pinned = [8_893_279_185_267_546_439; 2];
    assert_eq!(got, pinned);
}
