//! Synthetic Internet delay-space generation.
//!
//! The paper analyses four measured delay matrices (DS² 4000, Meridian
//! 2500, p2psim 1740, PlanetLab 229). Those matrices are not
//! redistributable, so this module synthesises delay spaces that
//! reproduce the *mechanism* behind the measured TIV structure, as
//! identified by the paper and by Zheng et al. \[39\]: interdomain routing
//! policy inflates the direct path between some node pairs while two-hop
//! detours through well-connected nodes stay short.
//!
//! The generative model:
//!
//! 1. **Geography.** Nodes belong to a few major clusters (continents)
//!    placed on a 2-D plane whose Euclidean distance is calibrated in
//!    round-trip milliseconds, plus a uniform "noise" population between
//!    clusters. This reproduces the cluster structure of Figure 3.
//! 2. **Access links.** Each node pays a log-normal last-mile access
//!    delay on every path. A small *remote* population (satellite /
//!    badly connected hosts) pays a very large access delay; edges to
//!    those nodes are long but their alternatives are equally long, so
//!    they violate little — this reproduces the shortest-path jump past
//!    ~550 ms in Figure 8 and the severity fall-off at the far right of
//!    Figure 4.
//! 3. **Routing inflation.** Each edge is independently inflated with an
//!    edge-type-dependent probability by a truncated-Pareto factor.
//!    Inflated edges are exactly the TIV causers: their direct delay
//!    exceeds the two-hop alternatives that avoided inflation.
//!    Cross-cluster edges are inflated more often (intercontinental
//!    routing has many alternative paths — §2.2 of the paper) but the
//!    per-violation ratios stay moderate, while a rare intra-cluster
//!    inflation produces the short-edge / high-ratio outliers.
//!
//! Triangle-inequality behaviour is therefore an *emergent* property of
//! routing inflation, exactly as in the Internet, rather than being
//! painted onto individual triangles.

use crate::matrix::{DelayMatrix, NodeId};
use crate::rng::{self, DetRng};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The four measured data sets of the paper plus a pure-metric control.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// DS²-like: 4000 nodes, three continental clusters, moderate tails.
    Ds2,
    /// Meridian-2500-like: many stub networks, the heaviest severity tail
    /// of the four sets (Figure 6 reaches severity ≈ 20).
    Meridian,
    /// p2psim-1740-like: the mildest tail (Figure 5 tops out near 3).
    P2pSim,
    /// PlanetLab-229-like: small academic overlay, moderate-heavy tail.
    PlanetLab,
    /// Pure Euclidean control: geography and access links only, **no**
    /// routing inflation, hence zero TIVs. Used for the "artificial
    /// Euclidean matrix" baseline of Figure 14.
    Euclidean,
}

impl Dataset {
    /// The node count of the measured data set this preset mimics.
    pub fn paper_nodes(self) -> usize {
        match self {
            Dataset::Ds2 => 4000,
            Dataset::Meridian => 2500,
            Dataset::P2pSim => 1740,
            Dataset::PlanetLab => 229,
            Dataset::Euclidean => 4000,
        }
    }

    /// Short machine-readable name used in figure outputs.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Ds2 => "DS2",
            Dataset::Meridian => "Meridian",
            Dataset::P2pSim => "p2psim",
            Dataset::PlanetLab => "PlanetLab",
            Dataset::Euclidean => "Euclidean",
        }
    }

    /// All four measured-data presets (excludes the Euclidean control).
    pub fn measured() -> [Dataset; 4] {
        [Dataset::Ds2, Dataset::Meridian, Dataset::P2pSim, Dataset::PlanetLab]
    }
}

/// One major cluster (continent) of the synthetic geography.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Fraction of non-noise nodes in this cluster.
    pub weight: f64,
    /// Cluster centre on the delay-calibrated plane (ms).
    pub center: (f64, f64),
    /// Gaussian radius of the cluster (ms).
    pub radius_ms: f64,
}

/// Full parameterisation of the generator. Construct via
/// [`InternetDelaySpace::preset`] and adjust with the builder methods.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of nodes to generate.
    pub n: usize,
    /// The major clusters. Weights are normalised internally.
    pub clusters: Vec<ClusterSpec>,
    /// Fraction of nodes scattered uniformly between clusters
    /// ("noise cluster" in the paper's terminology).
    pub noise_frac: f64,
    /// Fraction of nodes with satellite-grade access delays.
    pub remote_frac: f64,
    /// Median of the log-normal last-mile access delay (ms, one-way
    /// contribution applied twice per path end).
    pub access_median_ms: f64,
    /// Log-space sigma of the access delay.
    pub access_sigma: f64,
    /// Uniform range of remote-node access delay (ms).
    pub remote_access_range: (f64, f64),
    /// Probability that an intra-cluster edge is routing-inflated.
    pub p_inflate_intra: f64,
    /// Probability that a cross-cluster edge is routing-inflated.
    pub p_inflate_cross: f64,
    /// Pareto tail index of the inflation factor (smaller = heavier).
    pub inflation_alpha: f64,
    /// Truncation cap of the inflation factor.
    pub inflation_cap: f64,
    /// Probability that a cross-cluster edge suffers *pathological*
    /// inflation instead (severe routing anomalies: the measured DS²
    /// data contains edges with triangulation ratios near 10). These
    /// are the "worst 1%" edges of Figures 20–21.
    pub p_extreme: f64,
    /// Uniform range of the pathological inflation factor.
    pub extreme_range: (f64, f64),
    /// Fraction of unordered pairs left unmeasured.
    pub missing_frac: f64,
    /// Multiplicative measurement-noise sigma (0 disables).
    pub jitter_frac: f64,
}

impl SynthConfig {
    /// Overrides the node count (presets default to the paper's sizes).
    pub fn with_nodes(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Overrides the missing-measurement fraction.
    pub fn with_missing(mut self, frac: f64) -> Self {
        self.missing_frac = frac;
        self
    }

    /// Generates the delay space deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if the configuration is structurally invalid (no clusters,
    /// nonpositive n, fractions outside \[0,1\]).
    pub fn build(self, seed: u64) -> InternetDelaySpace {
        InternetDelaySpace::generate(self, seed)
    }
}

/// A generated delay space: the delay matrix plus the ground truth the
/// generator knows (cluster assignment, positions, access delays,
/// inflation factors).
///
/// Ground truth is exposed for *validation only* — the systems under
/// test (Vivaldi, Meridian, the alert mechanism) never see it.
#[derive(Clone, Debug)]
pub struct InternetDelaySpace {
    config: SynthConfig,
    matrix: DelayMatrix,
    /// Planted cluster of each node (`None` = noise cluster).
    true_cluster: Vec<Option<usize>>,
    /// Node positions on the delay plane.
    positions: Vec<(f64, f64)>,
    /// Per-node access delay (ms).
    access: Vec<f64>,
    /// True iff the node is in the remote (satellite) population.
    remote: Vec<bool>,
    /// Number of unordered edges that received routing inflation.
    inflated_edges: usize,
}

impl InternetDelaySpace {
    /// The preset configuration for a paper data set. Node count
    /// defaults to the measured set's size; use
    /// [`SynthConfig::with_nodes`] to scale down for quick runs.
    pub fn preset(ds: Dataset) -> SynthConfig {
        // Continental geometry shared by all presets: NA / EU / Asia with
        // inter-centre RTTs of roughly 95 / 170 / 165 ms.
        let clusters = vec![
            ClusterSpec { weight: 0.45, center: (0.0, 0.0), radius_ms: 18.0 },
            ClusterSpec { weight: 0.33, center: (95.0, 0.0), radius_ms: 15.0 },
            ClusterSpec { weight: 0.22, center: (60.0, 160.0), radius_ms: 22.0 },
        ];
        let base = SynthConfig {
            n: ds.paper_nodes(),
            clusters,
            noise_frac: 0.07,
            // Enough satellite-grade hosts that the far delay bins
            // (> 550 ms) are dominated by genuinely-far edges rather
            // than inflated ones — this is what produces the paper's
            // severity fall-off at the far right of Figure 4 and the
            // shortest-path jump of Figure 8.
            remote_frac: 0.045,
            access_median_ms: 4.0,
            access_sigma: 0.8,
            remote_access_range: (430.0, 680.0),
            p_inflate_intra: 0.06,
            p_inflate_cross: 0.22,
            inflation_alpha: 1.8,
            inflation_cap: 2.6,
            p_extreme: 0.006,
            extreme_range: (4.0, 9.0),
            missing_frac: 0.004,
            jitter_frac: 0.0,
        };
        match ds {
            Dataset::Ds2 => base,
            Dataset::Meridian => SynthConfig {
                // Heavier tail: many stub networks behind slow transit.
                inflation_alpha: 1.1,
                inflation_cap: 5.0,
                p_inflate_cross: 0.25,
                p_inflate_intra: 0.08,
                p_extreme: 0.012,
                extreme_range: (5.0, 12.0),
                ..base
            },
            Dataset::P2pSim => SynthConfig {
                // King-method measurements between DNS servers: well
                // connected, mild violations.
                inflation_alpha: 2.6,
                inflation_cap: 2.1,
                p_inflate_cross: 0.16,
                remote_frac: 0.012,
                p_extreme: 0.001,
                extreme_range: (3.0, 5.0),
                ..base
            },
            Dataset::PlanetLab => SynthConfig {
                // Small academic overlay; GREN links are fast but a few
                // sites route badly, giving a moderately heavy tail.
                inflation_alpha: 1.4,
                inflation_cap: 4.0,
                p_inflate_cross: 0.20,
                noise_frac: 0.05,
                missing_frac: 0.01,
                p_extreme: 0.008,
                extreme_range: (4.0, 8.0),
                ..base
            },
            Dataset::Euclidean => SynthConfig {
                // No inflation, no remote hosts: a true metric space.
                p_inflate_intra: 0.0,
                p_inflate_cross: 0.0,
                remote_frac: 0.0,
                missing_frac: 0.0,
                p_extreme: 0.0,
                ..base
            },
        }
    }

    fn generate(config: SynthConfig, seed: u64) -> Self {
        assert!(config.n > 0, "node count must be positive");
        assert!(!config.clusters.is_empty(), "need at least one cluster");
        for f in [
            config.noise_frac,
            config.remote_frac,
            config.p_inflate_intra,
            config.p_inflate_cross,
            config.p_extreme,
            config.missing_frac,
        ] {
            assert!((0.0..=1.0).contains(&f), "fraction {f} outside [0,1]");
        }
        assert!(config.inflation_cap >= 1.0, "inflation cap must be >= 1");
        assert!(
            config.p_extreme == 0.0 || config.extreme_range.0 >= 1.0,
            "extreme inflation must not deflate"
        );

        let n = config.n;
        let mut r_geo = rng::sub_rng(seed, "synth/geo");
        let mut r_access = rng::sub_rng(seed, "synth/access");
        let mut r_route = rng::sub_rng(seed, "synth/route");
        let mut r_missing = rng::sub_rng(seed, "synth/missing");

        // --- 1. Geography -------------------------------------------------
        let wsum: f64 = config.clusters.iter().map(|c| c.weight).sum();
        assert!(wsum > 0.0, "cluster weights must sum to a positive value");
        let (true_cluster, positions) = Self::place_nodes(&config, wsum, &mut r_geo);

        // --- 2. Access links ----------------------------------------------
        let mut access = Vec::with_capacity(n);
        let mut remote = Vec::with_capacity(n);
        for _ in 0..n {
            let is_remote = r_access.gen_bool(config.remote_frac);
            remote.push(is_remote);
            let a = if is_remote {
                let (lo, hi) = config.remote_access_range;
                r_access.gen_range(lo..hi)
            } else {
                rng::lognormal(&mut r_access, config.access_median_ms, config.access_sigma)
            };
            access.push(a);
        }

        // --- 3. Routing inflation + matrix assembly -----------------------
        let mut matrix = DelayMatrix::new(n);
        let mut inflated_edges = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                if config.missing_frac > 0.0 && r_missing.gen_bool(config.missing_frac) {
                    // Unmeasured pair; stays NaN.
                    // (Consume the routing stream anyway so that the set
                    // of inflated edges is independent of missingness.)
                    let _ = r_route.gen::<f64>();
                    continue;
                }
                let (xi, yi) = positions[i];
                let (xj, yj) = positions[j];
                let geo = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
                let mut d = geo + access[i] + access[j];
                let cross = true_cluster[i] != true_cluster[j]
                    || true_cluster[i].is_none()
                    || true_cluster[j].is_none();
                let p = if cross { config.p_inflate_cross } else { config.p_inflate_intra };
                let u: f64 = r_route.gen();
                if cross && u < config.p_extreme {
                    // Pathological routing anomaly: the direct path is
                    // several times longer than the geography warrants.
                    let (lo, hi) = config.extreme_range;
                    let f = r_route.gen_range(lo..hi);
                    inflated_edges += 1;
                    d *= f;
                } else if u < p {
                    let f = rng::pareto(&mut r_route, config.inflation_alpha, config.inflation_cap);
                    if f > 1.0 + 1e-9 {
                        inflated_edges += 1;
                    }
                    d *= f;
                }
                if config.jitter_frac > 0.0 {
                    let z = rng::sample_standard_normal(&mut r_route);
                    d *= (1.0 + config.jitter_frac * z).max(0.2);
                }
                // Floor: even co-located hosts measure some delay.
                matrix.set(i, j, d.max(0.1));
            }
        }

        InternetDelaySpace {
            config,
            matrix,
            true_cluster,
            positions,
            access,
            remote,
            inflated_edges,
        }
    }

    #[allow(clippy::type_complexity)]
    fn place_nodes(
        config: &SynthConfig,
        wsum: f64,
        r: &mut DetRng,
    ) -> (Vec<Option<usize>>, Vec<(f64, f64)>) {
        let n = config.n;
        // Bounding box of the cluster centres, padded, for noise nodes.
        let (mut xmin, mut xmax, mut ymin, mut ymax) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for c in &config.clusters {
            xmin = xmin.min(c.center.0);
            xmax = xmax.max(c.center.0);
            ymin = ymin.min(c.center.1);
            ymax = ymax.max(c.center.1);
        }
        let pad = 30.0;
        let (xmin, xmax) = (xmin - pad, xmax + pad);
        let (ymin, ymax) = (ymin - pad, ymax + pad);

        let mut true_cluster = Vec::with_capacity(n);
        let mut positions = Vec::with_capacity(n);
        for _ in 0..n {
            if r.gen_bool(config.noise_frac) {
                true_cluster.push(None);
                positions.push((r.gen_range(xmin..xmax), r.gen_range(ymin..ymax)));
                continue;
            }
            // Pick a cluster by weight.
            let mut pick = r.gen_range(0.0..wsum);
            let mut idx = 0;
            for (ci, c) in config.clusters.iter().enumerate() {
                if pick < c.weight {
                    idx = ci;
                    break;
                }
                pick -= c.weight;
            }
            let c = &config.clusters[idx];
            let dx = rng::sample_standard_normal(r) * c.radius_ms;
            let dy = rng::sample_standard_normal(r) * c.radius_ms;
            true_cluster.push(Some(idx));
            positions.push((c.center.0 + dx, c.center.1 + dy));
        }
        (true_cluster, positions)
    }

    /// The generated delay matrix.
    pub fn matrix(&self) -> &DelayMatrix {
        &self.matrix
    }

    /// Consumes the space, returning the matrix.
    pub fn into_matrix(self) -> DelayMatrix {
        self.matrix
    }

    /// The configuration that produced this space.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Ground-truth cluster of each node (`None` = noise). Validation
    /// only; systems under test must not read this.
    pub fn true_clusters(&self) -> &[Option<usize>] {
        &self.true_cluster
    }

    /// Ground-truth plane positions (validation only).
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// Per-node access delays (validation only).
    pub fn access_delays(&self) -> &[f64] {
        &self.access
    }

    /// Whether each node is in the remote/satellite population.
    pub fn remote_flags(&self) -> &[bool] {
        &self.remote
    }

    /// Number of unordered edges that received routing inflation.
    pub fn inflated_edge_count(&self) -> usize {
        self.inflated_edges
    }

    /// Nodes of the i-th largest planted cluster.
    pub fn cluster_members(&self, idx: usize) -> Vec<NodeId> {
        self.true_cluster
            .iter()
            .enumerate()
            .filter_map(|(i, c)| (*c == Some(idx)).then_some(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(ds: Dataset, n: usize, seed: u64) -> InternetDelaySpace {
        InternetDelaySpace::preset(ds).with_nodes(n).build(seed)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small(Dataset::Ds2, 60, 9);
        let b = small(Dataset::Ds2, 60, 9);
        assert_eq!(a.matrix(), b.matrix());
        assert_eq!(a.true_clusters(), b.true_clusters());
    }

    #[test]
    fn different_seeds_differ() {
        let a = small(Dataset::Ds2, 60, 1);
        let b = small(Dataset::Ds2, 60, 2);
        assert_ne!(a.matrix(), b.matrix());
    }

    #[test]
    fn matrix_invariants_hold() {
        for ds in Dataset::measured() {
            let s = small(ds, 80, 5);
            s.matrix().check_invariants().unwrap();
        }
    }

    #[test]
    fn euclidean_preset_has_no_tivs() {
        let s = small(Dataset::Euclidean, 70, 3);
        let m = s.matrix();
        assert_eq!(s.inflated_edge_count(), 0);
        // Exhaustively check the triangle inequality.
        let n = m.len();
        for a in 0..n {
            for c in (a + 1)..n {
                let dac = m.get(a, c).unwrap();
                for b in 0..n {
                    if b == a || b == c {
                        continue;
                    }
                    let alt = m.get(a, b).unwrap() + m.get(b, c).unwrap();
                    assert!(dac <= alt + 1e-9, "TIV in Euclidean preset: d({a},{c})={dac} > {alt}");
                }
            }
        }
    }

    #[test]
    fn measured_presets_do_have_tivs() {
        let s = small(Dataset::Ds2, 120, 11);
        let m = s.matrix();
        assert!(s.inflated_edge_count() > 0);
        let n = m.len();
        let mut violations = 0usize;
        'outer: for a in 0..n {
            for c in (a + 1)..n {
                let Some(dac) = m.get(a, c) else { continue };
                for b in 0..n {
                    if b == a || b == c {
                        continue;
                    }
                    let (Some(dab), Some(dbc)) = (m.get(a, b), m.get(b, c)) else { continue };
                    if dac > dab + dbc {
                        violations += 1;
                        if violations > 10 {
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(violations > 10, "expected TIVs in DS2 preset");
    }

    #[test]
    fn intra_cluster_delays_are_short() {
        let s = small(Dataset::Ds2, 300, 17);
        let m = s.matrix();
        let mut intra = Vec::new();
        let mut cross = Vec::new();
        for (i, j, d) in m.edges() {
            match (s.true_clusters()[i], s.true_clusters()[j]) {
                (Some(a), Some(b)) if a == b => intra.push(d),
                (Some(_), Some(_)) => cross.push(d),
                _ => {}
            }
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let mi = med(&mut intra);
        let mc = med(&mut cross);
        assert!(mi < mc, "intra median {mi} should be below cross median {mc}");
        assert!(mi < 120.0, "intra median {mi} too large");
        assert!(mc > 80.0, "cross median {mc} too small");
    }

    #[test]
    fn missing_fraction_is_respected() {
        let cfg = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(200).with_missing(0.05);
        let s = cfg.build(23);
        let cov = s.matrix().coverage();
        assert!((0.93..0.97).contains(&cov), "coverage {cov}");
    }

    #[test]
    fn remote_nodes_have_long_edges() {
        let s = small(Dataset::Ds2, 400, 29);
        let m = s.matrix();
        let remote: Vec<usize> = (0..m.len()).filter(|&i| s.remote_flags()[i]).collect();
        if remote.is_empty() {
            return; // tiny sample may contain none; other seeds cover it
        }
        let i = remote[0];
        let mean_remote =
            crate::stats::mean((0..m.len()).filter(|&j| j != i).filter_map(|j| m.get(i, j)));
        let mean_all = crate::stats::mean(m.edges().map(|(_, _, d)| d));
        assert!(
            mean_remote > mean_all,
            "remote node mean {mean_remote} should exceed global mean {mean_all}"
        );
    }

    #[test]
    fn preset_sizes_match_paper() {
        assert_eq!(Dataset::Ds2.paper_nodes(), 4000);
        assert_eq!(Dataset::Meridian.paper_nodes(), 2500);
        assert_eq!(Dataset::P2pSim.paper_nodes(), 1740);
        assert_eq!(Dataset::PlanetLab.paper_nodes(), 229);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_nodes_rejected() {
        InternetDelaySpace::preset(Dataset::Ds2).with_nodes(0).build(1);
    }

    #[test]
    fn cluster_members_partition_non_noise_nodes() {
        let s = small(Dataset::Ds2, 150, 31);
        let total: usize = (0..3).map(|c| s.cluster_members(c).len()).sum();
        let noise = s.true_clusters().iter().filter(|c| c.is_none()).count();
        assert_eq!(total + noise, 150);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_config() -> impl Strategy<Value = SynthConfig> {
        (5usize..60, 0.0f64..0.3, 0.0f64..0.1, 0.0f64..0.4, 1.0f64..4.0, 0.0f64..0.05).prop_map(
            |(n, noise, remote, p_cross, cap, missing)| SynthConfig {
                n,
                noise_frac: noise,
                remote_frac: remote,
                p_inflate_cross: p_cross,
                inflation_cap: cap,
                missing_frac: missing,
                ..InternetDelaySpace::preset(Dataset::Ds2)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn any_config_produces_valid_matrix(cfg in arb_config(), seed in 0u64..1000) {
            let space = cfg.build(seed);
            space.matrix().check_invariants().unwrap();
            prop_assert_eq!(space.matrix().len(), space.config().n);
            prop_assert_eq!(space.true_clusters().len(), space.config().n);
            prop_assert_eq!(space.access_delays().len(), space.config().n);
        }

        #[test]
        fn delays_are_positive_and_bounded(cfg in arb_config(), seed in 0u64..1000) {
            let space = cfg.build(seed);
            // All delays positive, and bounded by geometry × worst-case
            // inflation (loose sanity cap).
            for (_, _, d) in space.matrix().edges() {
                prop_assert!(d > 0.0);
                prop_assert!(d < 50_000.0, "implausible delay {d}");
            }
        }

        #[test]
        fn zero_inflation_means_metric(seed in 0u64..200) {
            let cfg = SynthConfig {
                p_inflate_intra: 0.0,
                p_inflate_cross: 0.0,
                p_extreme: 0.0,
                remote_frac: 0.0,
                missing_frac: 0.0,
                n: 20,
                ..InternetDelaySpace::preset(Dataset::Ds2)
            };
            let space = cfg.build(seed);
            prop_assert_eq!(space.inflated_edge_count(), 0);
            let m = space.matrix();
            for a in 0..20usize {
                for c in (a + 1)..20 {
                    let dac = m.get(a, c).unwrap();
                    for b in 0..20 {
                        if b == a || b == c { continue; }
                        let alt = m.get(a, b).unwrap() + m.get(b, c).unwrap();
                        prop_assert!(dac <= alt + 1e-9, "TIV without inflation");
                    }
                }
            }
        }
    }
}
