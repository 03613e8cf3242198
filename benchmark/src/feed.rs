//! The write side of a wire workload: a paced observation feed and the
//! freshness bookkeeping.
//!
//! The generator thread feeds the seeded observation list through
//! `DeploymentHandle::feed()` at a fixed rate between batches; the
//! publisher closes an epoch every [`OBS_PER_EPOCH`] observations, so
//! **epoch k holds observations 16(k−1) .. 16k**. Freshness of epoch k
//! is the time from *sending* its last observation to the first wire
//! answer whose `epoch` field reaches k — ingest, repair, assemble,
//! publish, cache clear and the read that finally sees it.

use crate::fixture::OBS_PER_EPOCH;
use tivserve::epoch::{FeedSender, Observation};

/// An epoch not visible in a wire answer this long after its last
/// observation was sent counts as a failed operation.
pub const VISIBLE_WITHIN_NS: u64 = 2_000_000_000;

/// Which observation closed which epoch, and when each became visible.
#[derive(Debug, Default)]
pub struct Freshness {
    /// Send time (ns) of the last observation of epoch `i + 1`.
    closed_ns: Vec<u64>,
    /// Epochs `1..=seen` have been observed in a wire answer (or given
    /// up on).
    seen: usize,
    /// One sample per epoch seen in time: (when its last observation was
    /// sent, ns; how long it then took to become visible, ms).
    pub samples: Vec<(u64, f64)>,
    /// Epochs that took longer than [`VISIBLE_WITHIN_NS`].
    pub overdue: u64,
}

impl Freshness {
    /// Records that observation `index` (0-based, in feed order) was
    /// sent at `t_ns`; the 16th, 32nd, … close epochs 1, 2, ….
    pub fn sent(&mut self, index: usize, t_ns: u64) {
        if (index + 1) % OBS_PER_EPOCH == 0 {
            debug_assert_eq!(self.closed_ns.len() + 1, (index + 1) / OBS_PER_EPOCH);
            self.closed_ns.push(t_ns);
        }
    }

    /// Records that a wire answer carried `epoch` at `t_ns`: every
    /// closed epoch up to it that was still waiting becomes visible now.
    pub fn saw(&mut self, epoch: u64, t_ns: u64) {
        let upto = (epoch as usize).min(self.closed_ns.len());
        while self.seen < upto {
            let waited = t_ns.saturating_sub(self.closed_ns[self.seen]);
            if waited > VISIBLE_WITHIN_NS {
                self.overdue += 1;
            } else {
                self.samples.push((self.closed_ns[self.seen], waited as f64 / 1e6));
            }
            self.seen += 1;
        }
    }

    /// The samples of epochs closed at `since_ns` or later, ms.
    pub fn samples_ms(&self, since_ns: u64) -> Vec<f64> {
        self.samples.iter().filter(|&&(closed, _)| closed >= since_ns).map(|&(_, ms)| ms).collect()
    }

    /// Epochs closed so far.
    pub fn closed(&self) -> u64 {
        self.closed_ns.len() as u64
    }

    /// True while a closed epoch has not shown up in an answer yet.
    pub fn waiting(&self) -> bool {
        self.seen < self.closed_ns.len()
    }

    /// Gives up on epochs still invisible at `t_ns` past their limit
    /// (the end-of-run sweep; each one is a failed operation).
    pub fn expire(&mut self, t_ns: u64) {
        while self.seen < self.closed_ns.len()
            && t_ns.saturating_sub(self.closed_ns[self.seen]) > VISIBLE_WITHIN_NS
        {
            self.overdue += 1;
            self.seen += 1;
        }
    }
}

/// Feeds the observation list at a fixed rate on the caller's clock.
pub struct Feeder {
    feed: FeedSender,
    observations: Vec<Observation>,
    interval_ns: u64,
    /// Schedule origin (ns on the caller's clock), set by the first tick.
    origin_ns: Option<u64>,
    /// Observations handed to the feed so far.
    pub sent: usize,
    /// Observations the feed refused (publisher gone) — failed operations.
    pub undelivered: u64,
    /// The bookkeeping.
    pub fresh: Freshness,
}

impl Feeder {
    /// A feeder of `observations` at `rate` per second.
    pub fn new(feed: FeedSender, observations: Vec<Observation>, rate: f64) -> Feeder {
        Feeder {
            feed,
            observations,
            interval_ns: (1e9 / rate) as u64,
            origin_ns: None,
            sent: 0,
            undelivered: 0,
            fresh: Freshness::default(),
        }
    }

    /// Freshness of the epochs closed `settle_s` or more after feeding
    /// began, ms. The publisher's first builds are not its steady state:
    /// they fault in ~35 MB of fresh snapshot memory each (expensive on a
    /// nested-virtualised box: 0.4-0.6 s against 0.08 s later) and the
    /// epochs that queue behind them drain over the next second or two.
    pub fn settled_fresh_ms(&self, settle_s: f64) -> Vec<f64> {
        let origin = self.origin_ns.unwrap_or(0);
        self.fresh.samples_ms(origin + (settle_s * 1e9) as u64)
    }

    /// The observations sent so far, in feed order.
    pub fn sent_observations(&self) -> &[Observation] {
        &self.observations[..self.sent]
    }

    /// Sends every observation that is due at `now_ns`.
    pub fn tick(&mut self, now_ns: u64) {
        let origin = *self.origin_ns.get_or_insert(now_ns);
        while self.sent < self.observations.len()
            && origin + self.sent as u64 * self.interval_ns <= now_ns
        {
            if self.feed.observe(self.observations[self.sent]).is_err() {
                self.undelivered += 1;
            }
            self.fresh.sent(self.sent, now_ns);
            self.sent += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_k_is_closed_by_observation_16k_minus_1() {
        let mut f = Freshness::default();
        for i in 0..40 {
            f.sent(i, 1_000 * i as u64);
        }
        // Observations 0..16 → epoch 1, 16..32 → epoch 2; 32..40 is an
        // open group and closes nothing.
        assert_eq!(f.closed(), 2);
        assert_eq!(f.closed_ns, vec![15_000, 31_000]);
        assert!(f.waiting());
    }

    #[test]
    fn freshness_runs_from_the_closing_send_to_the_first_answer_at_that_epoch() {
        let mut f = Freshness::default();
        for i in 0..32 {
            f.sent(i, 1_000_000 * i as u64); // one observation per ms
        }
        f.saw(0, 20_000_000); // an answer still at the bootstrap epoch
        assert!(f.samples.is_empty());
        f.saw(1, 60_000_000);
        assert_eq!(f.samples_ms(0), vec![45.0]); // 60 ms − 15 ms
        f.saw(1, 70_000_000); // the same epoch again: no second sample
        assert_eq!(f.samples.len(), 1);
        // An answer that skips ahead makes every waiting epoch visible.
        f.saw(5, 81_000_000);
        assert_eq!(f.samples_ms(0), vec![45.0, 50.0]);
        // Only epoch 2 closed at 31 ms or later.
        assert_eq!(f.samples_ms(31_000_000), vec![50.0]);
        assert!(!f.waiting());
        assert_eq!(f.overdue, 0);
    }

    #[test]
    fn an_epoch_invisible_for_two_seconds_is_a_failure_not_a_sample() {
        let mut f = Freshness::default();
        for i in 0..32 {
            f.sent(i, 0);
        }
        f.saw(1, VISIBLE_WITHIN_NS + 1);
        assert_eq!(f.overdue, 1);
        assert!(f.samples.is_empty());
        f.expire(VISIBLE_WITHIN_NS); // not yet past the limit
        assert!(f.waiting());
        f.expire(VISIBLE_WITHIN_NS + 1);
        assert_eq!(f.overdue, 2);
        assert!(!f.waiting());
    }

    #[test]
    fn the_feeder_paces_on_the_callers_clock() {
        let (tx, rx) = FeedSender::channel();
        let obs = vec![Observation { src: 0, dst: 1, rtt_ms: 10.0 }; 40];
        let mut feeder = Feeder::new(tx, obs, 1000.0); // one per ms
        feeder.tick(5_000_000); // first tick sets the origin: one due
        assert_eq!(feeder.sent, 1);
        feeder.tick(5_000_000 + 9_500_000);
        assert_eq!(feeder.sent, 10);
        feeder.tick(5_000_000 + 15_000_000);
        assert_eq!(feeder.sent, 16);
        assert_eq!(feeder.fresh.closed(), 1);
        feeder.tick(5_000_000 + 1_000_000_000); // the list runs out: feeding just stops
        assert_eq!(feeder.sent, 40);
        assert_eq!(feeder.fresh.closed(), 2);
        assert_eq!(rx.try_iter().count(), 40);
        assert_eq!(feeder.undelivered, 0);
    }
}
