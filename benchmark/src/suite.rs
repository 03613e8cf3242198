//! `paper_suite`: the paper's own reproduction, pass after pass.
//!
//! `experiments::suite::run_many(ALL_IDS, Small, seed, 0)` regenerates
//! all 25 figures; every bit of that work is in `tivcore`, `delayspace`,
//! `vivaldi`, `meridian`, `ides`, `simnet` and `tivpar` and none of it
//! in the wire, so a kernel or pool change shows here (and in
//! `setup_s`) while a wire change must leave it flat.
//!
//! Set-up is the serial reference pass (`threads = 1`) whose CSVs every
//! later pass (`threads = 0`) is compared against, figure by figure —
//! correctness before timing and on every timed pass.

use experiments::suite::{run_many, RunOutcome, ALL_IDS};
use experiments::ExperimentScale;
use std::time::Instant;

/// One pass over all 25 figures.
pub struct Pass {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Per-figure outcomes, in paper order.
    pub outcomes: Vec<RunOutcome>,
}

/// The figure ids as `run_many` takes them.
pub fn ids() -> Vec<String> {
    ALL_IDS.iter().map(|s| s.to_string()).collect()
}

/// Runs one pass at `threads` workers (0 = auto).
pub fn pass(scale: ExperimentScale, seed: u64, threads: usize) -> Pass {
    let t0 = Instant::now();
    let outcomes = run_many(&ids(), scale, seed, threads);
    Pass { wall_s: t0.elapsed().as_secs_f64(), outcomes }
}

/// The CSV of every figure of a pass (`None` for a figure that did not
/// run — which is a failure wherever it is compared).
pub fn csvs(pass: &Pass) -> Vec<Option<String>> {
    pass.outcomes.iter().map(|o| o.output.as_ref().map(|out| out.figure.to_csv())).collect()
}

/// Figures of `pass` whose CSV differs from the reference.
pub fn mismatches(reference: &[Option<String>], pass: &Pass) -> u64 {
    let got = csvs(pass);
    let differing =
        reference.iter().zip(&got).filter(|(want, got)| want.is_none() || want != got).count();
    (differing + reference.len().abs_diff(got.len())) as u64
}

/// Everything an untraced `paper_suite` run measured.
pub struct SuiteRun {
    /// Wall time of each serial reference pass (the set-up), s.
    pub setup_s: Vec<f64>,
    /// The timed passes.
    pub passes: Vec<Pass>,
    /// Figures compared against the reference.
    pub attempted: u64,
    /// Figures that differed or did not run.
    pub failed: u64,
}

/// Runs the workload: `setups` serial reference passes, one warm-up
/// pass, then timed passes until `seconds` have been measured (three at
/// least).
pub fn run(scale: ExperimentScale, seed: u64, setups: usize, seconds: f64) -> SuiteRun {
    let mut setup_s = Vec::new();
    let mut reference = Vec::new();
    for _ in 0..setups.max(1) {
        let serial = pass(scale, seed, 1);
        setup_s.push(serial.wall_s);
        reference = csvs(&serial);
    }
    let figures = reference.len() as u64;
    // The warm-up pass starts the pool threads and is compared too.
    let mut failed = mismatches(&reference, &pass(scale, seed, 0));
    let mut attempted = figures;
    let mut passes = Vec::new();
    let mut measured = 0.0;
    while measured < seconds || passes.len() < 3 {
        let p = pass(scale, seed, 0);
        failed += mismatches(&reference, &p);
        attempted += figures;
        measured += p.wall_s;
        passes.push(p);
    }
    SuiteRun { setup_s, passes, attempted, failed }
}

/// Which paper section a figure id belongs to (§2: 1–9, §3: 10–14,
/// §4: 15–18, §5: 19–25), as an index 0..4.
pub fn section_of(id: &str) -> usize {
    match id.trim_start_matches("fig").parse::<u32>().unwrap_or(0) {
        0..=9 => 0,
        10..=14 => 1,
        15..=18 => 2,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_follow_the_paper() {
        let counts = ALL_IDS.iter().fold([0usize; 4], |mut acc, id| {
            acc[section_of(id)] += 1;
            acc
        });
        assert_eq!(counts, [9, 5, 4, 7]);
    }

    #[test]
    fn a_parallel_pass_reproduces_the_serial_csvs_and_a_changed_one_is_caught() {
        let serial = pass(ExperimentScale::Tiny, 3, 1);
        let reference = csvs(&serial);
        assert_eq!(reference.len(), 25);
        assert!(reference.iter().all(Option::is_some));
        let parallel = pass(ExperimentScale::Tiny, 3, 0);
        assert_eq!(mismatches(&reference, &parallel), 0);
        let mut tampered = reference.clone();
        tampered[4] = Some("x,y\n".to_string());
        tampered[9] = None;
        assert_eq!(mismatches(&tampered, &parallel), 2);
    }
}
