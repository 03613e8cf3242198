//! Concentric ring structure of a Meridian node.
//!
//! Each Meridian node organises the other overlay members it knows about
//! into a finite number of concentric, non-overlapping rings based on
//! its measured delay to them. Ring `i` (1-based) has inner radius
//! `α·s^(i−1)` and outer radius `α·s^i`; the paper uses `α = 1 ms`,
//! `s = 2`, 11 rings and at most `k = 16` members per ring.

use delayspace::matrix::NodeId;
use delayspace::rng::DetRng;
use rand::seq::SliceRandom;

/// Static parameters of the Meridian overlay.
#[derive(Clone, Copy, Debug)]
pub struct MeridianConfig {
    /// Innermost ring outer radius `α` in ms (paper: 1).
    pub alpha: f64,
    /// Multiplicative ring growth factor `s` (paper: 2).
    pub s: f64,
    /// Number of rings (paper: 11 → outermost radius 2048 ms).
    pub num_rings: usize,
    /// Maximum primary members per ring (paper: 16).
    pub k: usize,
    /// Acceptance threshold `β` of the recursive query (paper: 0.5).
    pub beta: f64,
}

impl Default for MeridianConfig {
    fn default() -> Self {
        MeridianConfig { alpha: 1.0, s: 2.0, num_rings: 11, k: 16, beta: 0.5 }
    }
}

impl MeridianConfig {
    /// The 1-based ring index for a measured delay, clamped into
    /// `[1, num_rings]`: ring `i` covers `(α·s^(i−1), α·s^i]`; delays at
    /// or below `α` land in ring 1 and delays beyond the outermost
    /// radius are kept in the outermost ring (the paper keeps far nodes
    /// rather than dropping them).
    pub fn ring_index(&self, delay_ms: f64) -> usize {
        assert!(delay_ms >= 0.0 && delay_ms.is_finite(), "bad delay {delay_ms}");
        if delay_ms <= self.alpha {
            return 1;
        }
        let i = (delay_ms / self.alpha).log(self.s).ceil() as usize;
        i.clamp(1, self.num_rings)
    }

    /// Outer radius of ring `i` (1-based).
    pub fn outer_radius(&self, i: usize) -> f64 {
        self.alpha * self.s.powi(i as i32)
    }
}

/// One member entry of a ring: the overlay peer and the owner's measured
/// delay to it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RingMember {
    /// The peer's node id in the delay-matrix universe.
    pub node: NodeId,
    /// The owner's measured RTT to the peer (ms).
    pub delay: f64,
}

/// The ring state of one Meridian node.
#[derive(Clone, Debug)]
pub struct MeridianNode {
    /// This node's id in the delay-matrix universe.
    pub id: NodeId,
    /// Primary members, `rings[i]` holding ring `i+1` (≤ k entries each).
    rings: Vec<Vec<RingMember>>,
}

impl MeridianNode {
    /// An empty node.
    pub fn new(id: NodeId, cfg: &MeridianConfig) -> Self {
        MeridianNode { id, rings: vec![Vec::new(); cfg.num_rings] }
    }

    /// Inserts `member` into ring `ring` (1-based) without capacity
    /// enforcement; call [`MeridianNode::enforce_capacity`] after bulk
    /// insertion. Duplicate (node, ring) pairs are ignored.
    pub fn insert(&mut self, ring: usize, member: RingMember) {
        assert!((1..=self.rings.len()).contains(&ring), "ring {ring} out of range");
        let slot = &mut self.rings[ring - 1];
        if !slot.iter().any(|m| m.node == member.node) {
            slot.push(member);
        }
    }

    /// Appends `member` to ring `ring` (1-based) without
    /// [`MeridianNode::insert`]'s duplicate scan: the caller files each
    /// node at most once per ring.
    pub(crate) fn push_distinct(&mut self, ring: usize, member: RingMember) {
        let slot = &mut self.rings[ring - 1];
        debug_assert!(slot.iter().all(|m| m.node != member.node), "{} filed twice", member.node);
        slot.push(member);
    }

    /// Applies the `k` capacity limit: shuffles each over-full ring and
    /// keeps its first `k` members, a uniform random subset.
    ///
    /// Meridian proper maximises ring-member hypervolume when evicting;
    /// a uniform random subset preserves the property the paper's
    /// analysis depends on (rings keep a delay-representative sample)
    /// without the coordinate machinery, and is the standard
    /// simplification (noted in DESIGN.md §1).
    pub fn enforce_capacity(&mut self, cfg: &MeridianConfig, rng: &mut DetRng) {
        for ring in &mut self.rings {
            if ring.len() > cfg.k {
                ring.shuffle(rng);
                ring.truncate(cfg.k);
            }
        }
    }

    /// Primary members of ring `i` (1-based).
    pub fn ring(&self, i: usize) -> &[RingMember] {
        &self.rings[i - 1]
    }

    /// Number of rings.
    pub fn num_rings(&self) -> usize {
        self.rings.len()
    }

    /// All primary members across rings.
    pub fn members(&self) -> impl Iterator<Item = RingMember> + '_ {
        self.rings.iter().flatten().copied()
    }

    /// Total primary member count.
    pub fn member_count(&self) -> usize {
        self.rings.iter().map(Vec::len).sum()
    }

    /// Ring entries whose recorded delay lies within
    /// `[(1−β)·d, (1+β)·d]` — the candidates the recursive query asks to
    /// probe a target at distance `d` (Meridian queries "ring members
    /// whose distances are within (1−β)d and (1+β)d").
    ///
    /// A peer dual-placed by the TIV-aware construction appears as two
    /// entries with different recorded delays; at most one of them
    /// matches a given annulus, and query loops deduplicate by node id
    /// before probing.
    pub fn members_in_annulus(&self, d: f64, beta: f64) -> Vec<RingMember> {
        let lo = (1.0 - beta) * d;
        let hi = (1.0 + beta) * d;
        let mut out: Vec<RingMember> = Vec::new();
        for m in self.members() {
            if m.delay >= lo && m.delay <= hi && !out.iter().any(|x| x.node == m.node) {
                out.push(m);
            }
        }
        out
    }

    /// Primary members of every ring whose radius range intersects
    /// `[(1−β)·d, (1+β)·d]`, each peer once: a superset of
    /// [`MeridianNode::members_in_annulus`], the set the recursive query
    /// probes. The ring granularity matters: a member misfiled by a TIV
    /// is invisible to queries whose annulus misses its ring, and the
    /// TIV-aware dual placement of Section 5.3 works precisely by also
    /// filing suspicious members in the ring their *predicted* delay
    /// selects.
    pub fn members_in_overlapping_rings(
        &self,
        cfg: &MeridianConfig,
        d: f64,
        beta: f64,
    ) -> Vec<RingMember> {
        let lo = (1.0 - beta) * d;
        let hi = (1.0 + beta) * d;
        let first = cfg.ring_index(lo.max(0.0));
        let last = cfg.ring_index(hi);
        let mut out = Vec::new();
        for ring in first..=last {
            for &m in self.ring(ring) {
                // The same peer can sit in two rings (dual placement);
                // report it once.
                if !out.iter().any(|x: &RingMember| x.node == m.node) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// Fraction of rings (among those that would be populated in an
    /// unfiltered build) that hold fewer than `threshold` members.
    /// Used to quantify the ring under-population caused by the naive
    /// severity filter (Section 4.3: "certain rings of a Meridian node
    /// may become under-populated by up to 50%").
    pub fn underpopulated_rings(&self, threshold: usize) -> usize {
        self.rings.iter().filter(|r| !r.is_empty() && r.len() < threshold).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::rng;

    #[test]
    fn ring_index_boundaries() {
        let cfg = MeridianConfig::default(); // alpha=1, s=2, 11 rings
        assert_eq!(cfg.ring_index(0.0), 1);
        assert_eq!(cfg.ring_index(1.0), 1);
        assert_eq!(cfg.ring_index(1.5), 1);
        assert_eq!(cfg.ring_index(2.0), 1); // (1,2] is ring 1
        assert_eq!(cfg.ring_index(2.1), 2);
        assert_eq!(cfg.ring_index(4.0), 2);
        assert_eq!(cfg.ring_index(1000.0), 10);
        assert_eq!(cfg.ring_index(2048.0), 11);
        assert_eq!(cfg.ring_index(1e6), 11); // clamped
    }

    #[test]
    fn ring_index_matches_radii() {
        let cfg = MeridianConfig::default();
        for i in 1..=cfg.num_rings {
            let outer = cfg.outer_radius(i);
            assert_eq!(cfg.ring_index(outer), i);
            if i < cfg.num_rings {
                assert_eq!(cfg.ring_index(outer * 1.001), i + 1);
            }
        }
    }

    #[test]
    fn insert_deduplicates() {
        let cfg = MeridianConfig::default();
        let mut node = MeridianNode::new(0, &cfg);
        node.insert(3, RingMember { node: 7, delay: 5.0 });
        node.insert(3, RingMember { node: 7, delay: 5.0 });
        assert_eq!(node.ring(3).len(), 1);
        // Same node in a *different* ring is allowed (dual placement of
        // the TIV-aware variant).
        node.insert(5, RingMember { node: 7, delay: 20.0 });
        assert_eq!(node.member_count(), 2);
    }

    #[test]
    fn capacity_enforcement_keeps_k_and_demotes_l() {
        let cfg = MeridianConfig { k: 4, ..MeridianConfig::default() };
        let mut node = MeridianNode::new(0, &cfg);
        // Ring 1 is at capacity: it must keep its order and draw nothing,
        // or ring 2's shuffle below would differ from the reference's.
        let full: Vec<RingMember> = (0..4).map(|i| RingMember { node: i, delay: 0.5 }).collect();
        let inserted: Vec<RingMember> =
            (0..10).map(|i| RingMember { node: 100 + i, delay: 3.0 }).collect();
        for &m in &full {
            node.insert(1, m);
        }
        for &m in &inserted {
            node.insert(2, m);
        }
        let mut r = rng::rng(1);
        node.enforce_capacity(&cfg, &mut r);
        // The figures depend on these exact draws: one shuffle of the
        // whole over-full ring with the caller's generator, then its
        // first k.
        let mut want = inserted;
        want.shuffle(&mut rng::rng(1));
        want.truncate(cfg.k);
        assert_eq!(node.ring(1), &full[..]);
        assert_eq!(node.ring(2), &want[..]);
    }

    #[test]
    fn annulus_selects_by_measured_delay() {
        let cfg = MeridianConfig::default();
        let mut node = MeridianNode::new(0, &cfg);
        for (n, d) in [(1, 10.0), (2, 40.0), (3, 60.0), (4, 200.0)] {
            node.insert(cfg.ring_index(d), RingMember { node: n, delay: d });
        }
        // d = 100, beta = 0.5 → annulus [50, 150].
        let sel = node.members_in_annulus(100.0, 0.5);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].node, 3);
    }

    #[test]
    fn underpopulation_counts_nonempty_thin_rings() {
        let cfg = MeridianConfig::default();
        let mut node = MeridianNode::new(0, &cfg);
        node.insert(1, RingMember { node: 1, delay: 0.5 });
        node.insert(2, RingMember { node: 2, delay: 3.0 });
        node.insert(2, RingMember { node: 3, delay: 3.5 });
        assert_eq!(node.underpopulated_rings(2), 1); // ring 1 only
        assert_eq!(node.underpopulated_rings(3), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ring_zero_is_invalid() {
        let cfg = MeridianConfig::default();
        let mut node = MeridianNode::new(0, &cfg);
        node.insert(0, RingMember { node: 1, delay: 1.0 });
    }

    #[test]
    fn overlapping_rings_superset_of_annulus() {
        let cfg = MeridianConfig::default();
        let mut node = MeridianNode::new(0, &cfg);
        for (n, d) in [(1, 3.0), (2, 9.0), (3, 40.0), (4, 300.0), (5, 1.2)] {
            node.insert(cfg.ring_index(d), RingMember { node: n, delay: d });
        }
        for d in [5.0, 20.0, 77.0, 250.0] {
            let ann = node.members_in_annulus(d, 0.5);
            let rings = node.members_in_overlapping_rings(&cfg, d, 0.5);
            for m in &ann {
                assert!(
                    rings.iter().any(|x| x.node == m.node),
                    "annulus member {} missing from ring overlap at d={d}",
                    m.node
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ring_index_is_monotone_and_bounded(d1 in 0.0f64..5000.0, d2 in 0.0f64..5000.0) {
            let cfg = MeridianConfig::default();
            let (r1, r2) = (cfg.ring_index(d1), cfg.ring_index(d2));
            prop_assert!((1..=cfg.num_rings).contains(&r1));
            if d1 <= d2 {
                prop_assert!(r1 <= r2, "ring_index not monotone: {d1}→{r1}, {d2}→{r2}");
            }
        }

        #[test]
        fn delays_within_ring_radii(d in 1.0f64..2000.0) {
            let cfg = MeridianConfig::default();
            let r = cfg.ring_index(d);
            // Within the covered range, the delay lies below the ring's
            // outer radius (clamping handles the rest).
            if d <= cfg.outer_radius(cfg.num_rings) {
                prop_assert!(d <= cfg.outer_radius(r) + 1e-9);
                if r > 1 {
                    prop_assert!(d > cfg.outer_radius(r - 1) - 1e-9);
                }
            }
        }

        #[test]
        fn capacity_never_exceeded_after_enforcement(
            delays in proptest::collection::vec(0.5f64..2000.0, 0..80),
            k in 1usize..8,
        ) {
            let cfg = MeridianConfig { k, ..MeridianConfig::default() };
            let mut node = MeridianNode::new(0, &cfg);
            for (i, &d) in delays.iter().enumerate() {
                node.insert(cfg.ring_index(d), RingMember { node: 100 + i, delay: d });
            }
            let mut r = delayspace::rng::rng(1);
            node.enforce_capacity(&cfg, &mut r);
            for ring in 1..=cfg.num_rings {
                prop_assert!(node.ring(ring).len() <= k);
            }
        }

        #[test]
        fn annulus_members_respect_bounds(
            delays in proptest::collection::vec(0.5f64..2000.0, 0..50),
            d in 1.0f64..1500.0,
            beta in 0.05f64..0.95,
        ) {
            let cfg = MeridianConfig::default();
            let mut node = MeridianNode::new(0, &cfg);
            for (i, &delay) in delays.iter().enumerate() {
                node.insert(cfg.ring_index(delay), RingMember { node: i, delay });
            }
            for m in node.members_in_annulus(d, beta) {
                prop_assert!(m.delay >= (1.0 - beta) * d - 1e-9);
                prop_assert!(m.delay <= (1.0 + beta) * d + 1e-9);
            }
        }
    }
}
