//! Deterministic fault plans: what breaks, and exactly when.
//!
//! Faults are scheduled **at batch boundaries** of the harness's
//! seeded workload, not at wall-clock times — so which batches find
//! their replica down, and how many epochs a gated replica lags, are
//! pure functions of the plan. That determinism is what lets the
//! harness check `unavailable_batches` and `max_staleness_epochs` as
//! exact counts instead of noisy rates.

use std::fmt;

/// What happens to the deployment at a scheduled batch boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Take a replica down: its gate stops accepting and serving
    /// (open connections see EOF), and it drops out of the publish
    /// fan-out. A crash never healed is shard loss — the remaining
    /// full-copy replicas keep answering every pair.
    Crash {
        /// Replica slot to take down.
        replica: usize,
    },
    /// Bring a crashed replica back, rebuilt from the latest built
    /// snapshot through the validated constructor surface.
    Restart {
        /// Replica slot to bring back.
        replica: usize,
    },
    /// Withhold the next `publishes` epoch publishes from a replica —
    /// the delayed/dropped-publish fault. Snapshots are full states,
    /// so a publish delayed past its successor is equivalent to a
    /// dropped one; the replica serves a stale epoch until a publish
    /// gets through.
    SkipPublishes {
        /// Replica slot whose publishes are withheld.
        replica: usize,
        /// How many consecutive publishes to withhold.
        publishes: usize,
    },
    /// Restart every crashed replica and clear every publish gate.
    Heal,
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Workload batch index at whose boundary the fault fires (before
    /// the batch is sent).
    pub at_batch: usize,
    /// What fires.
    pub kind: FaultKind,
}

/// A deterministic fault schedule for one chaos run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Events, sorted by [`FaultEvent::at_batch`].
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a plain measured run with no faults.
    pub fn none() -> FaultPlan {
        FaultPlan { events: Vec::new() }
    }

    /// The standard scenario over `batches` workload batches: crash
    /// the last replica a quarter in, gate two publishes away from it
    /// after its mid-run restart, and heal before the run ends — so a
    /// single run exercises crash, restart, staleness and recovery.
    /// With one replica there is no crash to survive (and no
    /// never-crashed control to compare against), so the plan
    /// degrades to the publish-fault portion alone.
    pub fn standard(replicas: usize, batches: usize) -> FaultPlan {
        assert!(replicas >= 1, "a plan needs at least one replica");
        let victim = replicas - 1;
        let mut events = Vec::new();
        if replicas >= 2 {
            events.push(FaultEvent {
                at_batch: batches / 4,
                kind: FaultKind::Crash { replica: victim },
            });
            events.push(FaultEvent {
                at_batch: batches / 2,
                kind: FaultKind::Restart { replica: victim },
            });
        }
        events.push(FaultEvent {
            at_batch: batches * 5 / 8,
            kind: FaultKind::SkipPublishes { replica: victim, publishes: 2 },
        });
        events.push(FaultEvent { at_batch: batches * 7 / 8, kind: FaultKind::Heal });
        FaultPlan { events }
    }

    /// Every event scheduled at `batch`, in plan order.
    pub fn events_at(&self, batch: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.at_batch == batch)
    }

    /// Replicas never targeted by a [`FaultKind::Crash`] — the
    /// bit-exact recovery check needs at least one as its control.
    pub fn never_crashed(&self, replicas: usize) -> Vec<usize> {
        (0..replicas)
            .filter(|&r| {
                !self
                    .events
                    .iter()
                    .any(|e| matches!(e.kind, FaultKind::Crash { replica } if replica == r))
            })
            .collect()
    }

    /// Checks the plan is well-formed for a `replicas`-wide
    /// deployment: events sorted by batch, replica indices in range,
    /// crash/restart alternating per replica (no double crash, no
    /// restart of an up replica), and at least one replica never
    /// crashed (the recovery check's control).
    pub fn validate(&self, replicas: usize) -> Result<(), String> {
        if self.events.windows(2).any(|w| w[0].at_batch > w[1].at_batch) {
            return Err("fault events must be sorted by at_batch".into());
        }
        let mut down = vec![false; replicas];
        for e in &self.events {
            match e.kind {
                FaultKind::Crash { replica } => {
                    let slot = down
                        .get_mut(replica)
                        .ok_or_else(|| format!("crash targets replica {replica} of {replicas}"))?;
                    if *slot {
                        return Err(format!(
                            "replica {replica} crashed twice without a restart (batch {})",
                            e.at_batch
                        ));
                    }
                    *slot = true;
                }
                FaultKind::Restart { replica } => {
                    let slot = down.get_mut(replica).ok_or_else(|| {
                        format!("restart targets replica {replica} of {replicas}")
                    })?;
                    if !*slot {
                        return Err(format!(
                            "replica {replica} restarted while up (batch {})",
                            e.at_batch
                        ));
                    }
                    *slot = false;
                }
                FaultKind::SkipPublishes { replica, publishes } => {
                    if replica >= replicas {
                        return Err(format!(
                            "skip-publishes targets replica {replica} of {replicas}"
                        ));
                    }
                    if publishes == 0 {
                        return Err("skip-publishes of zero publishes is a no-op".into());
                    }
                }
                FaultKind::Heal => down.iter_mut().for_each(|d| *d = false),
            }
        }
        if self.never_crashed(replicas).is_empty() {
            return Err("every replica crashes at some point — the bit-exact recovery \
                        check needs one never-crashed control replica"
                .into());
        }
        Ok(())
    }

    /// Count of events of each lifecycle kind `(crashes, restarts)`,
    /// heals expanded into the restarts they imply at validation time.
    pub fn crash_restart_counts(&self) -> (usize, usize) {
        let crashes =
            self.events.iter().filter(|e| matches!(e.kind, FaultKind::Crash { .. })).count();
        let restarts = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Restart { .. } | FaultKind::Heal))
            .count();
        (crashes, restarts)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return write!(f, "no faults");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match e.kind {
                FaultKind::Crash { replica } => write!(f, "crash r{replica}@{}", e.at_batch)?,
                FaultKind::Restart { replica } => write!(f, "restart r{replica}@{}", e.at_batch)?,
                FaultKind::SkipPublishes { replica, publishes } => {
                    write!(f, "skip {publishes} publishes r{replica}@{}", e.at_batch)?
                }
                FaultKind::Heal => write!(f, "heal@{}", e.at_batch)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_plan_validates_and_keeps_a_control_replica() {
        for replicas in [1usize, 2, 3, 4] {
            let plan = FaultPlan::standard(replicas, 80);
            plan.validate(replicas).expect("standard plan is well-formed");
            assert!(plan.never_crashed(replicas).contains(&0), "replica 0 is always the control");
        }
        // With >= 2 replicas the standard plan exercises a crash.
        let (crashes, restarts) = FaultPlan::standard(3, 80).crash_restart_counts();
        assert_eq!(crashes, 1);
        assert!(restarts >= 1);
    }

    #[test]
    fn validate_rejects_malformed_plans() {
        let double_crash = FaultPlan {
            events: vec![
                FaultEvent { at_batch: 1, kind: FaultKind::Crash { replica: 1 } },
                FaultEvent { at_batch: 2, kind: FaultKind::Crash { replica: 1 } },
            ],
        };
        assert!(double_crash.validate(2).unwrap_err().contains("twice"));

        let restart_up = FaultPlan {
            events: vec![FaultEvent { at_batch: 1, kind: FaultKind::Restart { replica: 0 } }],
        };
        assert!(restart_up.validate(2).unwrap_err().contains("while up"));

        let out_of_range = FaultPlan {
            events: vec![FaultEvent { at_batch: 1, kind: FaultKind::Crash { replica: 5 } }],
        };
        assert!(out_of_range.validate(2).is_err());

        let unsorted = FaultPlan {
            events: vec![
                FaultEvent { at_batch: 9, kind: FaultKind::Heal },
                FaultEvent { at_batch: 1, kind: FaultKind::Heal },
            ],
        };
        assert!(unsorted.validate(2).unwrap_err().contains("sorted"));

        let no_control = FaultPlan {
            events: vec![
                FaultEvent { at_batch: 1, kind: FaultKind::Crash { replica: 0 } },
                FaultEvent { at_batch: 2, kind: FaultKind::Crash { replica: 1 } },
            ],
        };
        assert!(no_control.validate(2).unwrap_err().contains("control"));
    }

    #[test]
    fn heal_counts_as_a_restart_opportunity() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent { at_batch: 1, kind: FaultKind::Crash { replica: 1 } },
                FaultEvent { at_batch: 3, kind: FaultKind::Heal },
                FaultEvent { at_batch: 5, kind: FaultKind::Crash { replica: 1 } },
            ],
        };
        plan.validate(3).expect("heal brings the replica back up");
    }
}
