//! TIV-aware Meridian (Section 5.3).
//!
//! Two straight-forward applications of the TIV alert mechanism, both
//! fed by an independent embedding (we use Vivaldi, as the paper does):
//!
//! * **Ring construction** — when the prediction ratio of the edge from
//!   a Meridian node to a prospective ring member falls outside the safe
//!   band `[ts, tl]`, the member is placed into rings by *both* its
//!   measured and its predicted delay (worst case: two rings). A
//!   severely shrunk edge suggests the measured delay is
//!   routing-inflated, so the member also belongs "closer in"; an edge
//!   stretched beyond `tl` suggests the opposite.
//! * **Query restart** — when the recursive query would terminate, the
//!   current node checks the prediction ratio of its edge to the target;
//!   if it is below `ts` (a likely severe TIV), it restarts the member
//!   selection around the *predicted* delay instead and continues.
//!
//! The paper uses `ts = 0.6`, `tl = 2` and reports modest penalty
//! improvements at +5–6% probing overhead (Figures 24–25).

use delayspace::matrix::NodeId;
use meridian::{BuildOptions, MeridianConfig, MeridianOverlay, Placement, QueryResult};
use simnet::net::Network;
use vivaldi::Embedding;

/// Thresholds of the TIV-aware extensions.
#[derive(Clone, Copy, Debug)]
pub struct TivMeridianConfig {
    /// The base Meridian parameters.
    pub base: MeridianConfig,
    /// Lower prediction-ratio threshold `ts` (paper: 0.6).
    pub ts: f64,
    /// Upper prediction-ratio threshold `tl` (paper: 2.0).
    pub tl: f64,
}

impl Default for TivMeridianConfig {
    fn default() -> Self {
        TivMeridianConfig { base: MeridianConfig::default(), ts: 0.6, tl: 2.0 }
    }
}

/// Builds a Meridian overlay with TIV-aware dual ring placement.
///
/// `emb` is the independent embedding providing prediction ratios;
/// `gossip_sample` as in [`BuildOptions`].
pub fn build_tiv_aware(
    cfg: &TivMeridianConfig,
    members: Vec<NodeId>,
    emb: &Embedding,
    net: &mut Network<'_>,
    seed: u64,
    gossip_sample: Option<usize>,
) -> MeridianOverlay {
    let base = cfg.base;
    let (ts, tl) = (cfg.ts, cfg.tl);
    let place = move |owner: NodeId, member: NodeId, measured: f64| -> Option<(usize, f64)> {
        if measured <= 0.0 {
            return None;
        }
        let predicted = emb.predicted(owner, member);
        let ratio = predicted / measured;
        if ratio < ts || ratio > tl {
            // The extra entry is *recorded under the predicted delay*:
            // that is what lets a query whose annulus misses the
            // (TIV-distorted) measured delay still consider the member.
            let predicted = predicted.max(0.1);
            let by_predicted = base.ring_index(predicted);
            if by_predicted != base.ring_index(measured) {
                return Some((by_predicted, predicted));
            }
        }
        None
    };
    MeridianOverlay::build(
        base,
        members,
        net,
        seed,
        &BuildOptions { gossip_sample, edge_filter: None, placement: Placement::Custom(&place) },
    )
}

/// Runs the TIV-aware recursive query: standard β-terminated recursion,
/// plus the restart rule described in the module docs. Each visited
/// node may trigger at most one restart (bounding the extra probes).
pub fn tiv_aware_query(
    overlay: &MeridianOverlay,
    emb: &Embedding,
    net: &mut Network<'_>,
    start: NodeId,
    target: NodeId,
    cfg: &TivMeridianConfig,
) -> Option<QueryResult> {
    let beta = overlay.config().beta;
    let mut current = start;
    let mut d = net.probe(start, target)?;
    let mut target_probes = 1u64;
    let mut best = (current, d);
    let mut hops = 0usize;
    let mut visited = vec![current];
    // The paper's mechanism restarts the member selection once when the
    // query is about to stop at a suspected TIV edge. One restart per
    // query bounds the extra probes, but not to the paper's +5–6%:
    // `repro all` (Small, seed 42) measures +33.7% for fig 24 and
    // +16.0% for fig 25. ROADMAP 13b traces the gap.
    let mut restarts_left = 1u32;

    loop {
        let node = overlay.node(current).expect("query at a non-member node");
        let mut next: Option<(NodeId, f64)> = None;
        let mut probed: Vec<NodeId> = Vec::new();
        let consider = |candidates: Vec<meridian::RingMember>,
                        probed: &mut Vec<NodeId>,
                        net: &mut Network<'_>,
                        next: &mut Option<(NodeId, f64)>,
                        best: &mut (NodeId, f64),
                        target_probes: &mut u64| {
            for m in candidates {
                if probed.contains(&m.node) {
                    continue;
                }
                probed.push(m.node);
                *target_probes += 1;
                let Some(dm) = net.probe(m.node, target) else { continue };
                if dm < best.1 {
                    *best = (m.node, dm);
                }
                if next.map_or(true, |(_, nd)| dm < nd) {
                    *next = Some((m.node, dm));
                }
            }
        };

        consider(
            node.members_in_annulus(d, beta),
            &mut probed,
            net,
            &mut next,
            &mut best,
            &mut target_probes,
        );

        let mut stop = match next {
            Some((_, nd)) => nd > beta * d,
            None => true,
        };

        if stop && restarts_left > 0 {
            // TIV-alert restart: is the edge current→target suspiciously
            // shrunk in the embedding?
            let predicted = emb.predicted(current, target);
            if d > 0.0 && predicted / d < cfg.ts {
                restarts_left -= 1;
                consider(
                    node.members_in_annulus(predicted.max(0.1), beta),
                    &mut probed,
                    net,
                    &mut next,
                    &mut best,
                    &mut target_probes,
                );
                // After the restart, resume the normal rule.
                stop = match next {
                    Some((_, nd)) => nd > beta * d,
                    None => true,
                };
            }
        }

        let Some((next_node, next_d)) = next else { break };
        if stop || visited.contains(&next_node) {
            break;
        }
        visited.push(next_node);
        current = next_node;
        d = next_d;
        hops += 1;
    }

    Some(QueryResult { selected: best.0, selected_delay: best.1, hops, target_probes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::matrix::DelayMatrix;
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use meridian::{closest_neighbor, Termination};
    use simnet::net::JitterModel;
    use vivaldi::{VivaldiConfig, VivaldiSystem};

    fn embed(m: &DelayMatrix, seed: u64) -> Embedding {
        let mut sys = VivaldiSystem::new(
            VivaldiConfig { neighbors: 16, ..VivaldiConfig::default() },
            m.len(),
            seed,
        );
        let mut net = Network::new(m, JitterModel::None, seed);
        sys.run_rounds(&mut net, 120);
        sys.embedding()
    }

    #[test]
    fn dual_placement_creates_extra_ring_entries() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(80).build(3);
        let m = s.matrix();
        let emb = embed(m, 3);
        let members: Vec<NodeId> = (0..40).collect();
        let cfg = TivMeridianConfig::default();
        let mut net_a = Network::new(m, JitterModel::None, 1);
        let plain = MeridianOverlay::build(
            cfg.base,
            members.clone(),
            &mut net_a,
            1,
            &BuildOptions::default(),
        );
        let mut net_b = Network::new(m, JitterModel::None, 1);
        let aware = build_tiv_aware(&cfg, members, &emb, &mut net_b, 1, None);
        // TIV-aware construction never has fewer entries, and on a TIV
        // data set should have strictly more somewhere.
        assert!(aware.mean_member_count() >= plain.mean_member_count());
        assert!(
            aware.mean_member_count() > plain.mean_member_count(),
            "no dual placements happened on a TIV-rich data set"
        );
    }

    #[test]
    fn tiv_query_returns_probed_member_with_true_delay() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(60).build(5);
        let m = s.matrix();
        let emb = embed(m, 5);
        let cfg = TivMeridianConfig::default();
        let mut net = Network::new(m, JitterModel::None, 2);
        let overlay = build_tiv_aware(&cfg, (0..30).collect(), &emb, &mut net, 2, None);
        for target in 31..40 {
            let res = tiv_aware_query(&overlay, &emb, &mut net, 0, target, &cfg).unwrap();
            assert!(overlay.contains(res.selected));
            assert_eq!(res.selected_delay, m.get(res.selected, target).unwrap());
        }
    }

    #[test]
    fn probe_accounting_is_exact() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(50).build(7);
        let m = s.matrix();
        let emb = embed(m, 7);
        let cfg = TivMeridianConfig::default();
        let mut net = Network::new(m, JitterModel::None, 3);
        let overlay = build_tiv_aware(&cfg, (0..25).collect(), &emb, &mut net, 3, None);
        let before = net.stats().total();
        let res = tiv_aware_query(&overlay, &emb, &mut net, 0, 40, &cfg).unwrap();
        assert_eq!(net.stats().total() - before, res.target_probes);
    }

    #[test]
    fn restart_can_rescue_a_tiv_stranded_query() {
        // Construct a scenario where plain Meridian stops at a bad node
        // but the alert-driven restart finds a closer one. Topology:
        // start S, target T with d(S,T)=100 but an embedding that says
        // ~30 (shrunk, ratio 0.3 < ts). A member M sits 30 from S
        // (inside the predicted annulus [15,45] but outside the measured
        // annulus [50,150]) and only 8 from T.
        let mut m = DelayMatrix::new(4);
        // ids: S=0, M=1, far member F=2, T=3
        m.set(0, 3, 100.0);
        m.set(0, 1, 30.0);
        m.set(0, 2, 400.0);
        m.set(1, 3, 8.0);
        m.set(2, 3, 390.0);
        m.set(1, 2, 380.0);
        // Hand-build an embedding that shrinks (S,T) to 30.
        use vivaldi::Coord;
        let emb = Embedding::new(vec![
            Coord::from_vec(vec![0.0, 0.0]),
            Coord::from_vec(vec![30.0, 0.0]),
            Coord::from_vec(vec![400.0, 0.0]),
            Coord::from_vec(vec![30.0, 5.0]), // predicted d(S,T) ≈ 30.4
        ]);
        let cfg = TivMeridianConfig::default();
        let mut net = Network::new(&m, JitterModel::None, 4);
        let overlay =
            MeridianOverlay::build(cfg.base, vec![0, 1, 2], &mut net, 4, &BuildOptions::default());
        // Plain query from S: annulus [50,150] of S contains nobody
        // (M at 30, F at 400) → returns S itself at 100.
        let plain = closest_neighbor(&overlay, &mut net, 0, 3, Termination::Beta).unwrap();
        assert_eq!(plain.selected, 0);
        // TIV-aware query: ratio 30.4/100 < 0.6 → restart around 30.4:
        // annulus [15.2, 45.6] contains M → M probes T (8 ms) → found.
        let aware = tiv_aware_query(&overlay, &emb, &mut net, 0, 3, &cfg).unwrap();
        assert_eq!(aware.selected, 1);
        assert_eq!(aware.selected_delay, 8.0);
        assert!(aware.target_probes > plain.target_probes);
    }

    #[test]
    fn safe_band_edges_get_single_placement() {
        // With thresholds wide open (ts=0, tl=∞) placement is identical
        // to plain Meridian.
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(40).build(11);
        let m = s.matrix();
        let emb = embed(m, 11);
        let cfg = TivMeridianConfig { ts: 0.0, tl: f64::INFINITY, ..Default::default() };
        let mut net_a = Network::new(m, JitterModel::None, 6);
        let aware = build_tiv_aware(&cfg, (0..20).collect(), &emb, &mut net_a, 6, None);
        let mut net_b = Network::new(m, JitterModel::None, 6);
        let plain = MeridianOverlay::build(
            cfg.base,
            (0..20).collect(),
            &mut net_b,
            6,
            &BuildOptions::default(),
        );
        assert_eq!(aware.mean_member_count(), plain.mean_member_count());
    }
}
