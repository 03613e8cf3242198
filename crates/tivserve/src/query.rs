//! The query surface: one request enum, one reply enum.
//!
//! The service answers [`TivServe::query`](crate::TivServe::query) over
//! [`QueryBatch`]/[`ReplyBatch`], the wire layer converts frames to and
//! from these enums, and every layer above (gate dispatch, client, the
//! front's split and gather through [`QueryBatch::select`] and
//! [`ReplyBatch::gather`]) passes them through untouched — so a new
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
    /// default), in `O(witnesses)` per pair.
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

    /// The share of this batch holding the pairs at `indices`, in that
    /// order, of the same kind (and witness budget).
    /// [`ReplyBatch::gather`] puts the shares' answers back together.
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> QueryBatch {
        let pick =
            |pairs: &[NodePair]| -> Vec<NodePair> { indices.iter().map(|&i| pairs[i]).collect() };
        match self {
            QueryBatch::Estimate(p) => QueryBatch::Estimate(pick(p)),
            QueryBatch::Route(p) => QueryBatch::Route(pick(p)),
            QueryBatch::Severity(p) => QueryBatch::Severity(pick(p)),
            QueryBatch::Alerts(p) => QueryBatch::Alerts(pick(p)),
            QueryBatch::SampledSeverity { pairs, witnesses } => {
                QueryBatch::SampledSeverity { pairs: pick(pairs), witnesses: *witnesses }
            }
        }
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

    /// The reply to the whole of `query`, reassembled from the replies
    /// to its shares: each share is the indices it
    /// [`select`](QueryBatch::select)ed and the reply to it. Answers
    /// come back in `query`'s pair order; with no shares the reply is
    /// empty, of `query`'s kind.
    ///
    /// # Panics
    /// Panics unless every reply [`answers`](Self::answers) `query` with
    /// one answer per index and the shares cover every pair once.
    pub fn gather(query: &QueryBatch, shares: Vec<(Vec<usize>, ReplyBatch)>) -> ReplyBatch {
        fn place<T>(
            len: usize,
            shares: Vec<(Vec<usize>, ReplyBatch)>,
            items: fn(ReplyBatch) -> Option<Vec<T>>,
        ) -> Vec<T> {
            let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(len).collect();
            for (indices, reply) in shares {
                let answers = items(reply).expect("a share answered another kind");
                assert_eq!(answers.len(), indices.len(), "a share answered a different length");
                for (i, answer) in indices.into_iter().zip(answers) {
                    assert!(slots[i].replace(answer).is_none(), "pair {i} answered twice");
                }
            }
            slots.into_iter().map(|slot| slot.expect("every pair answered")).collect()
        }
        let len = query.len();
        match query {
            QueryBatch::Estimate(_) => ReplyBatch::Estimate(place(len, shares, |r| match r {
                ReplyBatch::Estimate(v) => Some(v),
                _ => None,
            })),
            QueryBatch::Route(_) => ReplyBatch::Route(place(len, shares, |r| match r {
                ReplyBatch::Route(v) => Some(v),
                _ => None,
            })),
            QueryBatch::Severity(_) => ReplyBatch::Severity(place(len, shares, |r| match r {
                ReplyBatch::Severity(v) => Some(v),
                _ => None,
            })),
            QueryBatch::Alerts(_) => ReplyBatch::Alerts(place(len, shares, |r| match r {
                ReplyBatch::Alerts(v) => Some(v),
                _ => None,
            })),
            QueryBatch::SampledSeverity { .. } => {
                ReplyBatch::SampledSeverity(place(len, shares, |r| match r {
                    ReplyBatch::SampledSeverity(v) => Some(v),
                    _ => None,
                }))
            }
        }
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

    #[test]
    fn selected_shares_gather_back_into_the_whole_reply() {
        use crate::epoch::EpochConfig;
        use crate::flux::FluxBuilder;
        use crate::service::{ServeConfig, TivServe};
        use delayspace::synth::{Dataset, InternetDelaySpace};
        let m = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(30).build(5).into_matrix();
        let cfg = EpochConfig { bootstrap_rounds: 10, ..EpochConfig::default() };
        let service = TivServe::new(ServeConfig::default(), FluxBuilder::bootstrap(m, cfg).1);
        let pairs: Vec<NodePair> = (0..40).map(|i| (i % 30, (i * 7 + 1) % 30)).collect();
        let queries = [
            QueryBatch::Estimate(pairs.clone()),
            QueryBatch::Route(pairs.clone()),
            QueryBatch::Severity(pairs.clone()),
            QueryBatch::Alerts(pairs.clone()),
            QueryBatch::SampledSeverity { pairs: pairs.clone(), witnesses: 0 },
            QueryBatch::SampledSeverity { pairs, witnesses: 24 },
        ];
        for query in &queries {
            // Three interleaved shares: pair i goes to share i % 3.
            let shares = (0..3)
                .map(|s| {
                    let indices: Vec<usize> = (s..query.len()).step_by(3).collect();
                    let reply = service.query(&query.select(&indices));
                    (indices, reply)
                })
                .collect();
            assert_eq!(ReplyBatch::gather(query, shares), service.query(query), "{query:?}");
            let empty = ReplyBatch::gather(&query.select(&[]), Vec::new());
            assert!(empty.is_empty() && empty.answers(query), "{query:?} gave {empty:?}");
        }
    }
}
