//! Overlay construction: the ring-building stage of Meridian.
//!
//! A subset of the node population participates as Meridian nodes; the
//! rest act as clients. Each Meridian node measures its delay to the
//! candidate members it is given (costing probes, which we account) and
//! files them into rings.
//!
//! Two hooks parameterise construction for the paper's experiments:
//!
//! * an **edge filter** — the naive severity-filter strawman of
//!   Section 4.3 forbids using the worst-TIV edges for ring
//!   construction;
//! * a **placement hook** — the TIV-aware variant of Section 5.3 also
//!   places suspicious members into a *second* ring (by predicted
//!   delay). Every member's primary entry is filed by measured delay;
//!   the hook only names the optional supplementary entry of each
//!   member that survives capacity enforcement.
//!
//! Each candidate is distinct (members are asserted distinct and the
//! owner is never its own candidate), so the primary rings are filled
//! by appending, without the duplicate scan of
//! [`MeridianNode::insert`].

use crate::rings::{MeridianConfig, MeridianNode, RingMember};
use delayspace::matrix::NodeId;
use delayspace::rng;
use rand::seq::SliceRandom;
use simnet::net::Network;

/// Decides which ring entries a measured member produces. Every member
/// gets one *primary* entry in the ring chosen by its measured delay,
/// recorded under that delay; the primaries compete for the ring's `k`
/// slots.
///
/// `Custom` adds *supplementary* entries: after capacity enforcement it
/// is called once per retained primary member with `(owner, member,
/// measured_delay)` and may return one extra `(ring, recorded_delay)`
/// entry. The TIV-aware dual placement of Section 5.3 returns one filed
/// under the member's *predicted* delay, which is what makes it visible
/// to query annuli the measured delay misses. Supplementary entries
/// enlarge rings ("in the worst case, a ring member will be placed into
/// two rings") rather than evicting regular members; one that names the
/// member's own primary ring is ignored.
pub enum Placement<'a> {
    /// Standard Meridian: primary entries only.
    ByMeasuredDelay,
    /// Primary entries plus the hook's supplementary ones (TIV-aware
    /// dual placement).
    Custom(&'a dyn Fn(NodeId, NodeId, f64) -> Option<(usize, f64)>),
}

/// Options for overlay construction.
pub struct BuildOptions<'a> {
    /// How many candidate members each node measures. `None` = all
    /// other Meridian nodes (the paper's idealized 200-node setting);
    /// `Some(g)` = a random gossip sample of `g` candidates (the
    /// normal setting).
    pub gossip_sample: Option<usize>,
    /// Edges that ring construction may use; `None` = all measured
    /// edges. Filtered edges are simply never measured (Section 4.3).
    pub edge_filter: Option<&'a dyn Fn(NodeId, NodeId) -> bool>,
    /// Ring placement rule.
    pub placement: Placement<'a>,
}

impl Default for BuildOptions<'_> {
    fn default() -> Self {
        BuildOptions {
            gossip_sample: None,
            edge_filter: None,
            placement: Placement::ByMeasuredDelay,
        }
    }
}

/// A constructed Meridian overlay.
pub struct MeridianOverlay {
    config: MeridianConfig,
    /// Participating Meridian nodes (delay-matrix ids).
    members: Vec<NodeId>,
    /// Ring state per member, parallel to `members`.
    nodes: Vec<MeridianNode>,
    /// Matrix id → index into `members`/`nodes`.
    index: Vec<Option<usize>>,
}

impl MeridianOverlay {
    /// Builds the overlay among `members`, measuring through `net`
    /// (probes are counted against each ring owner).
    ///
    /// # Panics
    /// Panics when fewer than two members are given or a member id is
    /// out of range.
    pub fn build(
        config: MeridianConfig,
        members: Vec<NodeId>,
        net: &mut Network<'_>,
        seed: u64,
        opts: &BuildOptions<'_>,
    ) -> Self {
        assert!(members.len() >= 2, "Meridian needs at least two overlay nodes");
        let n = net.len();
        assert!(members.iter().all(|&m| m < n), "member id out of range");
        let mut r = rng::sub_rng(seed, "meridian/build");
        let mut index = vec![None; n];
        for (i, &m) in members.iter().enumerate() {
            assert!(index[m].is_none(), "duplicate member {m}");
            index[m] = Some(i);
        }

        let mut nodes = Vec::with_capacity(members.len());
        for &owner in &members {
            let mut node = MeridianNode::new(owner, &config);
            // Candidate set: all other members, or a gossip sample.
            let mut candidates: Vec<NodeId> =
                members.iter().copied().filter(|&m| m != owner).collect();
            if let Some(g) = opts.gossip_sample {
                candidates.shuffle(&mut r);
                candidates.truncate(g);
            }
            for member in candidates {
                if let Some(filter) = opts.edge_filter {
                    if !filter(owner, member) {
                        continue;
                    }
                }
                let Some(d) = net.probe(owner, member) else { continue };
                node.push_distinct(config.ring_index(d), RingMember { node: member, delay: d });
            }
            node.enforce_capacity(&config, &mut r);
            // Supplementary (dual) placements apply to the *retained*
            // ring members only — each of a node's O(k·rings) members
            // may gain at most one extra entry, bounding both the ring
            // growth and the resulting extra query probes (the paper
            // reports ≈ +6%). They do not compete for the k primary
            // slots.
            if let Placement::Custom(f) = &opts.placement {
                let retained: Vec<RingMember> = node.members().collect();
                for m in retained {
                    if let Some((ring, delay)) = f(owner, m.node, m.delay) {
                        node.insert(ring, RingMember { node: m.node, delay });
                    }
                }
            }
            nodes.push(node);
        }

        MeridianOverlay { config, members, nodes, index }
    }

    /// The overlay configuration.
    pub fn config(&self) -> &MeridianConfig {
        &self.config
    }

    /// Participating node ids.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Ring state of overlay node with matrix id `id`, if it
    /// participates.
    pub fn node(&self, id: NodeId) -> Option<&MeridianNode> {
        self.index.get(id).copied().flatten().map(|i| &self.nodes[i])
    }

    /// True when `id` is an overlay member.
    pub fn contains(&self, id: NodeId) -> bool {
        self.index.get(id).copied().flatten().is_some()
    }

    /// Iterates over all ring states.
    pub fn nodes(&self) -> impl Iterator<Item = &MeridianNode> {
        self.nodes.iter()
    }

    /// Mean number of primary ring members per overlay node.
    pub fn mean_member_count(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.member_count()).sum::<usize>() as f64 / self.nodes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::matrix::DelayMatrix;
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use simnet::net::JitterModel;

    fn grid_matrix(n: usize) -> DelayMatrix {
        DelayMatrix::from_complete_fn(n, |i, j| 3.0 * i.abs_diff(j) as f64)
    }

    #[test]
    fn build_places_all_members_without_sampling() {
        let m = grid_matrix(10);
        let mut net = Network::new(&m, JitterModel::None, 1);
        let ov = MeridianOverlay::build(
            MeridianConfig::default(),
            (0..10).collect(),
            &mut net,
            1,
            &BuildOptions::default(),
        );
        // Every node measured the 9 others.
        assert_eq!(net.stats().total(), 90);
        for &id in ov.members() {
            assert_eq!(ov.node(id).unwrap().member_count(), 9);
        }
    }

    #[test]
    fn members_land_in_correct_rings() {
        let m = grid_matrix(6);
        let mut net = Network::new(&m, JitterModel::None, 1);
        let ov = MeridianOverlay::build(
            MeridianConfig::default(),
            (0..6).collect(),
            &mut net,
            1,
            &BuildOptions::default(),
        );
        let cfg = ov.config();
        let node0 = ov.node(0).unwrap();
        // Node 3 is 9 ms from node 0 → ring_index(9) = 4 ((8,16]).
        let ring = cfg.ring_index(9.0);
        assert!(node0.ring(ring).iter().any(|m| m.node == 3));
    }

    #[test]
    fn gossip_sample_limits_candidates() {
        let m = grid_matrix(20);
        let mut net = Network::new(&m, JitterModel::None, 2);
        let ov = MeridianOverlay::build(
            MeridianConfig::default(),
            (0..20).collect(),
            &mut net,
            2,
            &BuildOptions { gossip_sample: Some(5), ..Default::default() },
        );
        assert_eq!(net.stats().total(), 100);
        for &id in ov.members() {
            assert!(ov.node(id).unwrap().member_count() <= 5);
        }
    }

    #[test]
    fn edge_filter_excludes_members() {
        let m = grid_matrix(8);
        let mut net = Network::new(&m, JitterModel::None, 3);
        // Forbid every edge touching node 7.
        let filter = |a: NodeId, b: NodeId| a != 7 && b != 7;
        let ov = MeridianOverlay::build(
            MeridianConfig::default(),
            (0..8).collect(),
            &mut net,
            3,
            &BuildOptions { edge_filter: Some(&filter), ..Default::default() },
        );
        for &id in ov.members() {
            if id != 7 {
                assert!(
                    ov.node(id).unwrap().members().all(|m| m.node != 7),
                    "node {id} still knows 7"
                );
            } else {
                assert_eq!(ov.node(7).unwrap().member_count(), 0);
            }
        }
    }

    #[test]
    fn custom_placement_can_duplicate() {
        let m = grid_matrix(5);
        let mut net = Network::new(&m, JitterModel::None, 4);
        let dual = |_o: NodeId, _m: NodeId, d: f64| {
            let cfg = MeridianConfig::default();
            let a = cfg.ring_index(d);
            let b = (a + 1).min(cfg.num_rings);
            (a != b).then_some((b, d * 2.0))
        };
        let ov = MeridianOverlay::build(
            MeridianConfig::default(),
            (0..5).collect(),
            &mut net,
            4,
            &BuildOptions { placement: Placement::Custom(&dual), ..Default::default() },
        );
        // Each node placed each of the 4 others twice.
        assert_eq!(ov.node(0).unwrap().member_count(), 8);
    }

    /// The placement hook `build` used to take: every entry of a probed
    /// candidate, the primary first.
    type AllEntries<'a> = &'a dyn Fn(NodeId, NodeId, f64) -> Vec<(usize, f64)>;

    /// The construction `build` replaced: every candidate filed through
    /// `insert`'s duplicate scan, and a placement hook that returns the
    /// primary entry first and is called for every probed candidate.
    fn build_reference(
        config: MeridianConfig,
        members: &[NodeId],
        net: &mut Network<'_>,
        seed: u64,
        gossip_sample: Option<usize>,
        edge_filter: Option<&dyn Fn(NodeId, NodeId) -> bool>,
        placement: Option<AllEntries<'_>>,
    ) -> Vec<MeridianNode> {
        let mut r = rng::sub_rng(seed, "meridian/build");
        let mut nodes = Vec::new();
        for &owner in members {
            let mut node = MeridianNode::new(owner, &config);
            let mut candidates: Vec<NodeId> =
                members.iter().copied().filter(|&m| m != owner).collect();
            if let Some(g) = gossip_sample {
                candidates.shuffle(&mut r);
                candidates.truncate(g);
            }
            for member in candidates {
                if edge_filter.is_some_and(|f| !f(owner, member)) {
                    continue;
                }
                let Some(d) = net.probe(owner, member) else { continue };
                let (ring, delay) = match placement {
                    None => (config.ring_index(d), d),
                    Some(f) => f(owner, member, d)[0],
                };
                node.insert(ring, RingMember { node: member, delay });
            }
            node.enforce_capacity(&config, &mut r);
            if let Some(f) = placement {
                let retained: Vec<RingMember> = node.members().collect();
                for m in retained {
                    for (ring, delay) in f(owner, m.node, m.delay).into_iter().skip(1) {
                        node.insert(ring, RingMember { node: m.node, delay });
                    }
                }
            }
            nodes.push(node);
        }
        nodes
    }

    #[test]
    fn build_matches_the_scanning_reference() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(120).build(8);
        let m = s.matrix();
        let cfg = MeridianConfig::default();
        let members: Vec<NodeId> = (0..120).filter(|i| i % 4 != 1).collect();
        let filter = |a: NodeId, b: NodeId| (a * 7 + b * 7) % 5 != 0;
        // The TIV-aware dual placement's shape, over a stand-in
        // prediction: a member whose predicted/measured ratio leaves
        // [0.6, 2] is also filed by its predicted delay.
        let predicted = |o: NodeId, x: NodeId| ((o * 13 + x * 29) % 400) as f64 + 0.5;
        let extra = move |o: NodeId, x: NodeId, d: f64| {
            let ratio = predicted(o, x) / d;
            let ring = cfg.ring_index(predicted(o, x));
            (!(0.6..=2.0).contains(&ratio) && ring != cfg.ring_index(d))
                .then(|| (ring, predicted(o, x)))
        };
        let old_dual = move |o: NodeId, x: NodeId, d: f64| {
            let mut entries = vec![(cfg.ring_index(d), d)];
            entries.extend(extra(o, x, d));
            entries
        };
        let cases: [(&str, BuildOptions<'_>); 4] = [
            ("full", BuildOptions::default()),
            ("gossip", BuildOptions { gossip_sample: Some(30), ..Default::default() }),
            ("filter", BuildOptions { edge_filter: Some(&filter), ..Default::default() }),
            (
                "dual",
                BuildOptions {
                    gossip_sample: Some(60),
                    placement: Placement::Custom(&extra),
                    ..Default::default()
                },
            ),
        ];
        for (name, opts) in cases {
            let mut net = Network::new(m, JitterModel::None, 5);
            let ov = MeridianOverlay::build(cfg, members.clone(), &mut net, 5, &opts);
            let mut ref_net = Network::new(m, JitterModel::None, 5);
            let want = build_reference(
                cfg,
                &members,
                &mut ref_net,
                5,
                opts.gossip_sample,
                opts.edge_filter,
                matches!(opts.placement, Placement::Custom(_))
                    .then_some(&old_dual as AllEntries<'_>),
            );
            assert_eq!(net.stats().total(), ref_net.stats().total(), "{name}");
            assert_eq!(ov.nodes().count(), want.len(), "{name}");
            let mut dual_entries = 0;
            for (got, want) in ov.nodes().zip(&want) {
                assert_eq!(got.id, want.id, "{name}");
                for ring in 1..=cfg.num_rings {
                    let at = format!("{name}: node {} ring {ring}", got.id);
                    assert_eq!(got.ring(ring), want.ring(ring), "{at}");
                }
                let mut ids: Vec<NodeId> = got.members().map(|x| x.node).collect();
                ids.sort_unstable();
                ids.dedup();
                dual_entries += got.member_count() - ids.len();
            }
            // Only the dual placement files a member twice, and it must.
            assert_eq!(dual_entries > 0, name == "dual", "{name}: {dual_entries} dual entries");
        }
    }

    #[test]
    fn overlay_on_synthetic_space_is_deterministic() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(60).build(6);
        let m = s.matrix();
        let build = |seed| {
            let mut net = Network::new(m, JitterModel::None, seed);
            MeridianOverlay::build(
                MeridianConfig::default(),
                (0..30).collect(),
                &mut net,
                seed,
                &BuildOptions { gossip_sample: Some(10), ..Default::default() },
            )
        };
        let a = build(9);
        let b = build(9);
        for &id in a.members() {
            let (na, nb) = (a.node(id).unwrap(), b.node(id).unwrap());
            for ring in 1..=a.config().num_rings {
                assert_eq!(na.ring(ring), nb.ring(ring));
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn duplicate_members_rejected() {
        let m = grid_matrix(4);
        let mut net = Network::new(&m, JitterModel::None, 1);
        MeridianOverlay::build(
            MeridianConfig::default(),
            vec![0, 1, 1],
            &mut net,
            1,
            &BuildOptions::default(),
        );
    }

    #[test]
    fn non_member_lookup_is_none() {
        let m = grid_matrix(6);
        let mut net = Network::new(&m, JitterModel::None, 1);
        let ov = MeridianOverlay::build(
            MeridianConfig::default(),
            vec![0, 1, 2],
            &mut net,
            1,
            &BuildOptions::default(),
        );
        assert!(ov.node(5).is_none());
        assert!(!ov.contains(5));
        assert!(ov.contains(1));
    }
}
