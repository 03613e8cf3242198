//! The query surface: one request enum, one reply enum.
//!
//! The service answers [`TivServe::query`](crate::TivServe::query) over
//! [`QueryBatch`]/[`ReplyBatch`], the wire layer converts frames to and
//! from these enums, and every layer above (gate dispatch, front
//! scatter/gather, client) passes them through untouched — so a new
//! estimator (like the sampled-severity kind the million-node path
//! needed) is **one new variant**, not a new method per layer.
//!
//! Every variant carries its pairs as [`NodePair`]s — the shared pair
//! alias — and every reply vector is in input pair order. Replies are
//! pure functions of `(snapshot, query, config)`, so the equivalence
//! suites can pin `query` bit-identical at every shard count and
//! byte-identical over the wire. Call sites that know which kind they
//! asked unwrap the reply with [`ReplyBatch::into_estimates`] /
//! [`ReplyBatch::into_routes`].

use crate::snapshot::{EdgeEstimate, RouteEstimate};
use delayspace::NodePair;
pub use tivcore::SeverityEstimate;

/// One batch request against the service — the single query surface.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryBatch {
    /// Full edge estimates (prediction, ratio, severity, alert).
    Estimate(Vec<NodePair>),
    /// Best one-hop detours with predicted savings.
    Route(Vec<NodePair>),
    /// Sampled severities only (the estimate's severity projection).
    Severity(Vec<NodePair>),
    /// TIV alert states only (the estimate's alert projection).
    Alerts(Vec<NodePair>),
    /// Sampled severities with 95% confidence intervals, at an explicit
    /// witness budget (`witnesses == 0` uses the service's configured
    /// default). The million-node query kind: answerable from a sparse
    /// store in `O(witnesses)` per pair.
    SampledSeverity {
        /// The queried pairs.
        pairs: Vec<NodePair>,
        /// Witnesses sampled per pair (0 = service default).
        witnesses: u32,
    },
}

impl QueryBatch {
    /// The queried pairs, whatever the kind.
    pub fn pairs(&self) -> &[NodePair] {
        match self {
            QueryBatch::Estimate(pairs)
            | QueryBatch::Route(pairs)
            | QueryBatch::Severity(pairs)
            | QueryBatch::Alerts(pairs)
            | QueryBatch::SampledSeverity { pairs, .. } => pairs,
        }
    }

    /// Number of queried pairs.
    pub fn len(&self) -> usize {
        self.pairs().len()
    }

    /// True when the batch queries nothing.
    pub fn is_empty(&self) -> bool {
        self.pairs().is_empty()
    }
}

/// The answers to one [`QueryBatch`], kind for kind, in pair order.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplyBatch {
    /// Answers to [`QueryBatch::Estimate`].
    Estimate(Vec<EdgeEstimate>),
    /// Answers to [`QueryBatch::Route`].
    Route(Vec<RouteEstimate>),
    /// Answers to [`QueryBatch::Severity`] (`None` = unmeasured edge).
    Severity(Vec<Option<f64>>),
    /// Answers to [`QueryBatch::Alerts`].
    Alerts(Vec<bool>),
    /// Answers to [`QueryBatch::SampledSeverity`] (`None` = unmeasured
    /// edge).
    SampledSeverity(Vec<Option<SeverityEstimate>>),
}

impl ReplyBatch {
    /// Number of answers.
    pub fn len(&self) -> usize {
        match self {
            ReplyBatch::Estimate(v) => v.len(),
            ReplyBatch::Route(v) => v.len(),
            ReplyBatch::Severity(v) => v.len(),
            ReplyBatch::Alerts(v) => v.len(),
            ReplyBatch::SampledSeverity(v) => v.len(),
        }
    }

    /// True when the reply holds no answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `self` answers the kind `query` asks.
    pub fn answers(&self, query: &QueryBatch) -> bool {
        matches!(
            (query, self),
            (QueryBatch::Estimate(_), ReplyBatch::Estimate(_))
                | (QueryBatch::Route(_), ReplyBatch::Route(_))
                | (QueryBatch::Severity(_), ReplyBatch::Severity(_))
                | (QueryBatch::Alerts(_), ReplyBatch::Alerts(_))
                | (QueryBatch::SampledSeverity { .. }, ReplyBatch::SampledSeverity(_))
        )
    }

    /// The answers to a [`QueryBatch::Estimate`].
    ///
    /// # Panics
    /// Panics on any other kind: `query` answers kind for kind, so a
    /// mismatch is a bug at the call site.
    pub fn into_estimates(self) -> Vec<EdgeEstimate> {
        match self {
            ReplyBatch::Estimate(items) => items,
            other => panic!("expected an Estimate reply, got {other:?}"),
        }
    }

    /// The answers to a [`QueryBatch::Route`].
    ///
    /// # Panics
    /// Panics on any other kind, as [`into_estimates`](Self::into_estimates).
    pub fn into_routes(self) -> Vec<RouteEstimate> {
        match self {
            ReplyBatch::Route(items) => items,
            other => panic!("expected a Route reply, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_and_lengths_cover_every_variant() {
        let pairs = vec![(0usize, 1usize), (2, 3)];
        let queries = [
            QueryBatch::Estimate(pairs.clone()),
            QueryBatch::Route(pairs.clone()),
            QueryBatch::Severity(pairs.clone()),
            QueryBatch::Alerts(pairs.clone()),
            QueryBatch::SampledSeverity { pairs: pairs.clone(), witnesses: 8 },
        ];
        for q in &queries {
            assert_eq!(q.pairs(), &pairs[..]);
            assert_eq!(q.len(), 2);
            assert!(!q.is_empty());
        }
        assert!(QueryBatch::Estimate(Vec::new()).is_empty());
    }

    #[test]
    fn answers_matches_kinds_diagonally() {
        let q = QueryBatch::Severity(vec![(0, 1)]);
        assert!(ReplyBatch::Severity(vec![None]).answers(&q));
        assert!(!ReplyBatch::Alerts(vec![true]).answers(&q));
        let sq = QueryBatch::SampledSeverity { pairs: vec![(0, 1)], witnesses: 0 };
        assert!(ReplyBatch::SampledSeverity(vec![None]).answers(&sq));
        assert!(!ReplyBatch::Severity(vec![None]).answers(&sq));
    }

    #[test]
    #[should_panic(expected = "expected an Estimate reply")]
    fn typed_accessor_rejects_a_foreign_kind() {
        ReplyBatch::Alerts(vec![true]).into_estimates();
    }
}
