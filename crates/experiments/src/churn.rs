//! The `repro churn` experiment: drive the incremental epoch pipeline
//! against a deterministically churning delay space and report
//! staleness, freshness and the work each epoch folds in.
//!
//! The pipeline under test is the full incremental stack: a
//! [`simnet::churn::ChurnProcess`] drifts the true delays (diurnal
//! drift, congestion spikes, node churn) and emits each tick's
//! observation stream; a [`tivserve::flux::FluxBuilder`] folds the
//! stream in, tracking changed edges and dirty rows; every few ticks it
//! builds the next epoch — repairing only the pairs of the exact
//! severity matrix and detour table the changed edges can move, or
//! falling back to a full rebuild when churn spikes — and publishes it
//! into a [`TivServe`]. The experiment
//! measures what the paper's deployment sections care about:
//!
//! * **staleness** — mean relative error between the *served* epoch's
//!   delays and the world's current true delays, per tick;
//! * **freshness** — the fraction of edges observed within the last
//!   epoch window, and the mean age of each edge's last observation;
//! * **epoch work** — the matrix-changing observations each epoch
//!   build folds in, split by incremental vs full, with the dirty-row
//!   fraction that drove the policy's choice.
//!
//! Every output is a pure function of the options: nothing here reads
//! a clock. Build latency is timed by the benchmark (tivmark's
//! `churn_mixed` workload), not by this experiment.

use crate::figure::{Figure, Series};
use delayspace::matrix::DelayMatrix;
use delayspace::synth::{Dataset, InternetDelaySpace};
use simnet::churn::{ChurnConfig, ChurnProcess};
use std::fmt;
use tivflux::{BuildKind, RebuildPolicy};
use tivserve::epoch::{EpochConfig, Observation};
use tivserve::flux::{FluxBuilder, FluxConfig};
use tivserve::service::{ServeConfig, TivServe};

/// Everything the `churn` subcommand can tune.
#[derive(Clone, Copy, Debug)]
pub struct ChurnOptions {
    /// Nodes in the synthetic DS²-style delay space.
    pub nodes: usize,
    /// Ticks of churned world time to simulate.
    pub ticks: usize,
    /// Ticks between epoch builds (the publish cadence).
    pub epoch_ticks: usize,
    /// Observations sampled per tick.
    pub obs_per_tick: usize,
    /// Per-node churn-reset probability per tick.
    pub churn_prob: f64,
    /// Expected congestion spikes per tick.
    pub spike_rate: f64,
    /// Diurnal drift amplitude.
    pub diurnal_amp: f64,
    /// Dirty-row fraction at which the builder falls back to a full
    /// rebuild.
    pub full_rebuild_fraction: f64,
    /// Relays kept per pair in the detour table.
    pub detour_k: usize,
    /// Worker threads (0 = auto, `tivpar::resolve_threads`).
    pub threads: usize,
    /// Master seed (space, embedding, churn process).
    pub seed: u64,
}

impl Default for ChurnOptions {
    fn default() -> Self {
        // Every observed edge dirties *both* endpoint rows (the matrix
        // is symmetric), so the steady-state dirty fraction is roughly
        // `2 · obs · epoch_ticks / nodes`. The defaults keep that
        // comfortably under the 25% fallback threshold — steady epochs
        // repair incrementally — while a node-churn reset's
        // re-measurement burst (64 edges ≈ 65 dirty rows) punches
        // through it, so a default run exercises both paths.
        ChurnOptions {
            nodes: 256,
            ticks: 48,
            epoch_ticks: 2,
            obs_per_tick: 12,
            churn_prob: 0.002,
            spike_rate: 2.0,
            diurnal_amp: 0.15,
            full_rebuild_fraction: 0.25,
            detour_k: 1,
            threads: 0,
            seed: 42,
        }
    }
}

impl ChurnOptions {
    /// The churn-process shape these options imply.
    pub fn churn_config(&self) -> ChurnConfig {
        ChurnConfig {
            diurnal_amp: self.diurnal_amp,
            spike_rate: self.spike_rate,
            churn_prob: self.churn_prob,
            obs_per_tick: self.obs_per_tick,
            seed: self.seed,
            ..ChurnConfig::default()
        }
    }

    /// The incremental-builder configuration these options imply.
    pub fn flux_config(&self) -> FluxConfig {
        FluxConfig {
            epoch: EpochConfig { seed: self.seed, ..EpochConfig::default() },
            detour_k: self.detour_k,
            policy: RebuildPolicy { full_rebuild_fraction: self.full_rebuild_fraction },
            threads: self.threads,
            ..FluxConfig::default()
        }
    }
}

/// One epoch build's record.
#[derive(Clone, Copy, Debug)]
pub struct EpochRecord {
    /// Epoch number.
    pub epoch: u64,
    /// Tick the build ran at.
    pub tick: u64,
    /// Repair or full rebuild.
    pub kind: BuildKind,
    /// Dirty rows going into the build.
    pub dirty_rows: usize,
    /// Dirty-row fraction.
    pub dirty_fraction: f64,
    /// Matrix-changing observations the build folded in (repeats of an
    /// edge included): [`tivserve::flux::BuildOutcome::edge_marks`].
    pub edge_marks: usize,
}

/// The outcome `repro churn` prints and writes.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// The options the run used.
    pub opts: ChurnOptions,
    /// Per-epoch build records, in order.
    pub epochs: Vec<EpochRecord>,
    /// Mean served staleness (relative error) over all ticks.
    pub mean_staleness: f64,
    /// Served staleness at the final tick.
    pub final_staleness: f64,
    /// Fraction of edges observed within the final epoch window.
    pub final_fresh_fraction: f64,
    /// Mean age (ticks) of each edge's last observation, final tick.
    pub final_mean_age: f64,
    /// The figures (`churn-staleness`, `churn-rebuild`), ready for CSV
    /// export.
    pub figures: Vec<Figure>,
}

impl ChurnReport {
    /// Build records of one kind.
    pub fn builds_of(&self, kind: BuildKind) -> Vec<&EpochRecord> {
        self.epochs.iter().filter(|e| e.kind == kind).collect()
    }

    /// Mean matrix-changing observations per build of one kind (`None`
    /// when no such build ran).
    pub fn mean_edge_marks(&self, kind: BuildKind) -> Option<f64> {
        let builds = self.builds_of(kind);
        if builds.is_empty() {
            return None;
        }
        Some(builds.iter().map(|e| e.edge_marks as f64).sum::<f64>() / builds.len() as f64)
    }
}

impl fmt::Display for ChurnReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.opts;
        writeln!(
            f,
            "tivflux churn: {} nodes, {} ticks (epoch every {}), {} obs/tick, seed {}",
            o.nodes, o.ticks, o.epoch_ticks, o.obs_per_tick, o.seed
        )?;
        let incr = self.builds_of(BuildKind::Incremental).len();
        let full = self.builds_of(BuildKind::Full).len();
        writeln!(
            f,
            "  epochs: {} built ({incr} incremental, {full} full; fallback at {:.0}% dirty)",
            self.epochs.len(),
            o.full_rebuild_fraction * 100.0
        )?;
        if let Some(marks) = self.mean_edge_marks(BuildKind::Incremental) {
            writeln!(f, "  incremental build: {marks:.1} changed observations mean")?;
        }
        if let Some(marks) = self.mean_edge_marks(BuildKind::Full) {
            writeln!(f, "  full rebuild:      {marks:.1} changed observations mean")?;
        }
        writeln!(
            f,
            "  staleness: {:.2}% mean, {:.2}% final (served vs true delays)",
            self.mean_staleness * 100.0,
            self.final_staleness * 100.0
        )?;
        writeln!(
            f,
            "  freshness: {:.1}% of edges observed within the last epoch window, \
             mean observation age {:.1} ticks",
            self.final_fresh_fraction * 100.0,
            self.final_mean_age
        )?;
        for fig in &self.figures {
            write!(f, "{}", fig.summary())?;
        }
        Ok(())
    }
}

/// Mean relative error between the served snapshot's matrix and the
/// churn process's current true delays, over all measured edges.
fn staleness(served: &DelayMatrix, world: &ChurnProcess) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for (i, j, served_ms) in served.edges() {
        if let Some(truth) = world.true_delay(i, j) {
            if truth > 0.0 {
                total += (served_ms - truth).abs() / truth;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Runs the full churn experiment.
pub fn run_churn(opts: &ChurnOptions) -> ChurnReport {
    assert!(opts.epoch_ticks >= 1, "epochs need at least one tick");
    assert!(opts.ticks >= 1, "nothing to simulate without ticks");
    let matrix = InternetDelaySpace::preset(Dataset::Ds2)
        .with_nodes(opts.nodes)
        .build(opts.seed)
        .into_matrix();
    let n = matrix.len();
    let mut world = ChurnProcess::new(&matrix, opts.churn_config());
    let (mut builder, snapshot) = FluxBuilder::bootstrap(matrix, opts.flux_config());
    let service = TivServe::new(ServeConfig::default(), snapshot);

    // Last tick each unordered edge was observed (0 = never).
    let mut last_obs = vec![0u64; n * n];
    let mut staleness_curve = Vec::with_capacity(opts.ticks);
    let mut fresh_curve = Vec::with_capacity(opts.ticks);
    let mut epochs = Vec::new();

    for t in 1..=opts.ticks {
        let tick = world.advance();
        for s in &tick.samples {
            builder.ingest(Observation { src: s.a, dst: s.b, rtt_ms: s.rtt_ms });
            last_obs[s.a * n + s.b] = tick.tick;
            last_obs[s.b * n + s.a] = tick.tick;
        }
        if t % opts.epoch_ticks == 0 {
            service.publish(builder.build());
            let o = builder.last_outcome().expect("build just ran");
            epochs.push(EpochRecord {
                epoch: o.epoch,
                tick: tick.tick,
                kind: o.kind,
                dirty_rows: o.dirty_rows,
                dirty_fraction: o.dirty_fraction,
                edge_marks: o.edge_marks,
            });
        }
        let snap = service.snapshot();
        staleness_curve.push((tick.tick as f64, staleness(snap.matrix(), &world)));
        // Freshness of the observation stream at this tick.
        let (mut fresh, mut age_total, mut edges) = (0usize, 0.0f64, 0usize);
        for (i, j, _) in snap.matrix().edges() {
            let seen = last_obs[i * n + j];
            let age = tick.tick - seen; // never-seen edges carry full age
            if seen > 0 && age < opts.epoch_ticks as u64 {
                fresh += 1;
            }
            age_total += age as f64;
            edges += 1;
        }
        fresh_curve.push((tick.tick as f64, fresh as f64 / edges.max(1) as f64));
        if t == opts.ticks {
            let final_mean_age = age_total / edges.max(1) as f64;
            let staleness_fig = Figure::new(
                "churn-staleness",
                "Served staleness under churn (DS2)",
                "tick",
                "mean relative error vs true delays",
            )
            .with_series(Series::new("served staleness", staleness_curve.clone()))
            .with_series(Series::new("fresh-edge fraction", fresh_curve.clone()))
            .with_note(format!(
                "epoch every {} ticks; {} observations/tick over {} edges",
                opts.epoch_ticks, opts.obs_per_tick, edges
            ));
            let rebuild_fig = Figure::new(
                "churn-rebuild",
                "Epoch build work under churn (DS2)",
                "epoch",
                "matrix-changing observations folded in",
            )
            .with_series(Series::new(
                "incremental repair",
                epochs
                    .iter()
                    .filter(|e| e.kind == BuildKind::Incremental)
                    .map(|e| (e.epoch as f64, e.edge_marks as f64))
                    .collect(),
            ))
            .with_series(Series::new(
                "full rebuild",
                epochs
                    .iter()
                    .filter(|e| e.kind == BuildKind::Full)
                    .map(|e| (e.epoch as f64, e.edge_marks as f64))
                    .collect(),
            ))
            .with_note(format!(
                "fallback past {:.0}% dirty rows; dirty fractions per epoch: {}",
                opts.full_rebuild_fraction * 100.0,
                epochs
                    .iter()
                    .map(|e| format!("{:.0}%", e.dirty_fraction * 100.0))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
            let mean_staleness =
                staleness_curve.iter().map(|&(_, s)| s).sum::<f64>() / staleness_curve.len() as f64;
            return ChurnReport {
                opts: *opts,
                epochs,
                mean_staleness,
                final_staleness: staleness_curve.last().map_or(0.0, |&(_, s)| s),
                final_fresh_fraction: fresh_curve.last().map_or(0.0, |&(_, s)| s),
                final_mean_age,
                figures: vec![staleness_fig, rebuild_fig],
            };
        }
    }
    unreachable!("loop returns on its final tick");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChurnOptions {
        ChurnOptions {
            nodes: 60,
            ticks: 8,
            epoch_ticks: 2,
            obs_per_tick: 120,
            threads: 1,
            ..ChurnOptions::default()
        }
    }

    #[test]
    fn run_churn_builds_epochs_and_reports() {
        let report = run_churn(&tiny());
        assert_eq!(report.epochs.len(), 4, "8 ticks at 2 per epoch");
        // 120 observations a tick: every epoch folds in changes.
        assert!(report.epochs.iter().all(|e| e.edge_marks > 0), "{:?}", report.epochs);
        assert!(report.mean_staleness >= 0.0 && report.mean_staleness < 1.0);
        assert!(report.final_fresh_fraction > 0.0, "some edges must have been observed");
        assert_eq!(report.figures.len(), 2);
        assert!(!report.figures[0].series[0].points.is_empty());
        let text = report.to_string();
        assert!(text.contains("staleness"), "summary missing staleness: {text}");
        for fig in &report.figures {
            assert!(fig.to_csv().lines().count() > 1, "{} CSV empty", fig.id);
        }
    }

    #[test]
    fn observing_keeps_staleness_bounded() {
        // With a heavy observation stream, the served state must track
        // the drifting world far better than a frozen epoch-0 snapshot
        // would.
        let opts = ChurnOptions {
            nodes: 50,
            ticks: 12,
            epoch_ticks: 2,
            obs_per_tick: 2_000, // ~1.6x the edge count per tick
            churn_prob: 0.0,
            spike_rate: 0.0,
            threads: 1,
            ..ChurnOptions::default()
        };
        let tracked = run_churn(&opts);
        let frozen = run_churn(&ChurnOptions { obs_per_tick: 0, ..opts });
        assert!(
            tracked.final_staleness < frozen.final_staleness,
            "observations must reduce staleness: {:.3} !< {:.3}",
            tracked.final_staleness,
            frozen.final_staleness
        );
    }

    #[test]
    fn churn_burst_triggers_the_full_rebuild_fallback() {
        // Reset every node every tick: the dirty fraction saturates and
        // the policy must fall back to full rebuilds.
        let opts = ChurnOptions {
            nodes: 40,
            ticks: 2,
            epoch_ticks: 1,
            obs_per_tick: 400,
            churn_prob: 1.0,
            threads: 1,
            ..ChurnOptions::default()
        };
        let report = run_churn(&opts);
        assert!(
            report.builds_of(BuildKind::Full).len() == report.epochs.len(),
            "saturated dirtiness should force full rebuilds: {:?}",
            report.epochs
        );
        // And with no churn and a sparse observation stream (few rows
        // touched per epoch), every build stays incremental.
        let calm =
            run_churn(&ChurnOptions { churn_prob: 0.0, spike_rate: 0.0, obs_per_tick: 3, ..opts });
        assert!(
            calm.builds_of(BuildKind::Incremental).len() == calm.epochs.len(),
            "sparse dirtiness should stay incremental: {:?}",
            calm.epochs
        );
    }

    #[test]
    fn report_is_deterministic() {
        // Every figure, build record and summary line is a pure
        // function of the options: no clock is read.
        let a = run_churn(&tiny());
        let b = run_churn(&tiny());
        for (x, y) in a.figures.iter().zip(&b.figures) {
            assert_eq!(x.to_csv(), y.to_csv(), "{} differs between runs", x.id);
        }
        assert_eq!(a.epochs.len(), b.epochs.len());
        assert_eq!(a.mean_staleness.to_bits(), b.mean_staleness.to_bits());
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(
                (x.kind, x.dirty_rows, x.tick, x.edge_marks),
                (y.kind, y.dirty_rows, y.tick, y.edge_marks)
            );
        }
        assert_eq!(a.to_string(), b.to_string());
    }
}
