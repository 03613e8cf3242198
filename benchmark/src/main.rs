//! `tivmark` — the repo's one benchmark.
//!
//! ```text
//! tivmark --seed <u64>                      all four workloads, one JSON document
//! tivmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!                                           one workload, in this process (the driver's form)
//! tivmark --selfcheck                       two full sets A/B/B/A against the bounds
//! tivmark --smoke                           all four workloads, tiny and short
//! ```
//!
//! Every run prints each metric as `workload name unit value` and, as
//! the last line of standard output, one JSON object. See `README.md`
//! for what each workload and metric is for.

#![deny(unsafe_code)]

mod affinity;
mod feed;
mod fixture;
mod layers;
mod openloop;
mod report;
mod stats;
mod suite;
mod trace;
mod wire;

use experiments::ExperimentScale;
use report::{Metric, Outcome};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The four workloads; the names are the contract later issues cite.
pub const WORKLOADS: [&str; 4] = ["wire_small", "wire_bulk", "churn_mixed", "paper_suite"];

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 20;

/// How big and how long: the full benchmark or the smoke run.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Nodes of the serving fixture.
    pub nodes: usize,
    /// Scale of the figure suite.
    pub suite: ExperimentScale,
    /// Seconds the timed slices (or suite passes) cover.
    pub seconds: f64,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// The smoke run: tiny inputs, one short slice.
    pub smoke: bool,
}

impl Sizing {
    fn new(seconds: u64, smoke: bool) -> Sizing {
        if smoke {
            Sizing { nodes: 128, suite: ExperimentScale::Tiny, seconds: 1.0, setups: 1, smoke }
        } else {
            Sizing {
                nodes: 1024,
                suite: ExperimentScale::Small,
                seconds: seconds as f64,
                // Five: the first set-up of a process is cold (fresh heap
                // pages, no pool threads yet), and after an idle minute
                // so is the machine — the first *two* then read 1.25-1.36 s
                // against 0.77 s. The median of three was one or the other.
                setups: 5,
                smoke,
            }
        }
    }

    /// The closed loop's plan: up to twenty slices covering `seconds`
    /// (a traced run cuts the same seconds in seven).
    pub fn plan(&self) -> wire::Plan {
        let slices = if self.smoke { 1 } else { (self.seconds as usize).clamp(1, 20) };
        wire::Plan {
            nodes: self.nodes,
            setups: self.setups,
            warmup_s: if self.smoke { 0.2 } else { 2.0 },
            slices,
            slice_s: self.seconds / slices as f64,
            traced_slice_s: self.seconds / slices.min(7) as f64,
            settle_s: if self.smoke { 0.0 } else { 2.0 },
        }
    }
}

/// The wire shape behind a workload name (`None` for `paper_suite`).
pub fn shape_of(workload: &str) -> Option<&'static fixture::Shape> {
    match workload {
        "wire_small" => Some(&wire::WIRE_SMALL),
        "wire_bulk" => Some(&wire::WIRE_BULK),
        "churn_mixed" => Some(&wire::CHURN_MIXED),
        _ => None,
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The six end-to-end metrics of `workload`, in `BENCHMARK.json` order.
///
/// The driver's contract wants every workload to print every metric, and
/// the issue's table gives `fresh_p50_ms` to `churn_mixed` alone and
/// `suite_pass_s` to `paper_suite` alone, and the suite no batches or
/// queries. A cell the table does not list (`None` here) is a
/// placeholder, not a measurement of that metric: it repeats the
/// workload's own primary metric — `batch_p50_us` on the wire,
/// `suite_pass_s` on the suite — in the cell's unit (as a rate, its
/// inverse), so it can only move when a gated cell of the same workload
/// moves, and `--selfcheck` skips it.
fn end_to_end(workload: &str, primary_s: f64, values: [Option<f64>; 6]) -> Vec<Metric> {
    report::END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, value)| {
            debug_assert_eq!(value.is_some(), spec.gates(workload), "{workload} {}", spec.name);
            let value = value.unwrap_or(match spec.unit {
                "us" => primary_s * 1e6,
                "ms" => primary_s * 1e3,
                "1/s" => 1.0 / primary_s,
                _ => primary_s,
            });
            Metric::new(spec.name, spec.unit, value)
        })
        .collect()
}

/// One untraced wire workload → its end-to-end metrics.
fn run_wire(workload: &str, shape: &fixture::Shape, sizing: &Sizing, seed: u64) -> Outcome {
    let run = match wire::run(shape, &sizing.plan(), seed) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("tivmark: {workload}: {e}");
            return Outcome::broken();
        }
    };
    // Read before the statistics below copy and sort a million latencies.
    let peak_rss_mb = peak_rss_mb();
    let all_lat: Vec<f64> = run.slices.iter().flat_map(|s| s.lat_us.iter().copied()).collect();
    let tail = stats::supported_tail(all_lat.len());
    println!(
        "# {workload}: {} batches in {} slices; p{:.1} {:.1} us; {} freshness samples; \
         {} epochs published ({} repaired, {} rebuilt); request path pinned: {}",
        all_lat.len(),
        run.slices.len(),
        tail * 100.0,
        stats::quantile(&all_lat, tail),
        run.fresh_ms.len(),
        run.epochs.epochs_published,
        run.epochs.builds_incremental,
        run.epochs.builds_full,
        run.pinned,
    );
    let per_slice: Vec<String> = run
        .slices
        .iter()
        .map(|s| format!("{:.2}/{:.1}k", s.p50_us(), s.pairs_per_s() / 1e3))
        .collect();
    println!("# {workload}: per slice p50 us / k pairs per s: {}", per_slice.join(" "));
    let set_ups: Vec<String> = run.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("# {workload}: set-ups, s: {}", set_ups.join(" "));
    let (fanned, least, most) = run.fanout;
    println!(
        "# {workload}: per-replica shares of {least}..{most} pairs, a share of {fanned:.3} of them \
         takes the shard fan-out (parallel_threshold {})",
        tivserve::service::ServeConfig::default().parallel_threshold
    );
    let p50_us = stats::best_quartile(&run.slices, wire::Slice::p50_us, true);
    let fresh = shape.feed_during_run.then(|| stats::median(&run.fresh_ms));
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: end_to_end(
            workload,
            p50_us / 1e6,
            [
                Some(p50_us),
                Some(stats::best_quartile(&run.slices, wire::Slice::pairs_per_s, false)),
                fresh,
                None,
                Some(stats::median(&run.setup_s)),
                Some(peak_rss_mb),
            ],
        ),
    }
}

/// Untraced `paper_suite` → its end-to-end metrics.
fn run_suite(sizing: &Sizing, seed: u64) -> Outcome {
    // A set-up here is a whole serial pass: two of them, not five.
    let run = suite::run(sizing.suite, seed, sizing.setups.min(2), sizing.seconds);
    let walls: Vec<String> = run.passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!("# paper_suite: {} timed passes, s: {}", run.passes.len(), walls.join(" "));
    let set_ups: Vec<String> = run.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("# paper_suite: set-ups, s: {}", set_ups.join(" "));
    let pass_s = stats::slice_median(&run.passes, |p| p.wall_s);
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: end_to_end(
            "paper_suite",
            pass_s,
            [
                None,
                None,
                None,
                Some(pass_s),
                Some(stats::median(&run.setup_s)),
                Some(peak_rss_mb()),
            ],
        ),
    }
}

/// Runs one workload in this process.
fn run_workload(workload: &str, sizing: &Sizing, seed: u64, traced: bool) -> Outcome {
    if traced {
        return layers::run(workload, sizing, seed);
    }
    match shape_of(workload) {
        Some(shape) => run_wire(workload, shape, sizing, seed),
        None => run_suite(sizing, seed),
    }
}

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds =
                    value("whole seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            // `--trace`, `--trace 1`, `--trace 0`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// Re-executes this binary for one workload, so its `setup_s` and
/// `peak_rss_mb` belong to that workload alone and its pool threads and
/// heap never colour the next. Returns the child's outcome.
fn run_child(workload: &str, args: &Args) -> Outcome {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("tivmark: cannot find my own executable: {e}");
            return Outcome::broken();
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr passes through.
    match cmd.stderr(std::process::Stdio::inherit()).output() {
        Ok(out) => {
            let text = String::from_utf8_lossy(&out.stdout);
            for line in text.lines().filter(|l| l.starts_with('#')) {
                println!("{line}");
            }
            match report::parse_lines(workload, &text) {
                // A child that found wrong answers exits non-zero and
                // still reports; one that reports nothing is broken.
                Some(outcome) if out.status.success() || outcome.failed > 0 => outcome,
                _ => {
                    eprintln!("tivmark: {workload}: child ended with {}", out.status);
                    Outcome::broken()
                }
            }
        }
        Err(e) => {
            eprintln!("tivmark: {workload}: cannot start the child: {e}");
            Outcome::broken()
        }
    }
}

/// One full set: every workload in a child process, in `order`.
fn run_set(order: &[&str], args: &Args) -> Vec<(String, Outcome)> {
    order
        .iter()
        .map(|&w| {
            let t0 = Instant::now();
            let outcome = run_child(w, args);
            report::print_lines(w, &outcome);
            println!("# {w}: run took {:.1} s", t0.elapsed().as_secs_f64());
            (w.to_string(), outcome)
        })
        .collect()
}

/// `--selfcheck`: two full sets of the same code, workloads interleaved
/// A/B/B/A, each end-to-end metric's relative difference held against
/// its bound. Exits non-zero on a breach or a failed operation.
fn selfcheck(args: &Args) -> ExitCode {
    let forward: Vec<&str> = WORKLOADS.to_vec();
    let backward: Vec<&str> = WORKLOADS.iter().rev().copied().collect();
    let first = run_set(&forward, args);
    let second = run_set(&backward, args);
    let mut ok = true;
    let (mut measured, mut unresolved) = (0, 0);
    println!("# selfcheck: workload metric first second worsening issue_bound bound verdict");
    for (workload, a) in &first {
        let b = &second.iter().find(|(w, _)| w == workload).expect("same workloads").1;
        ok &= a.failed == 0 && b.failed == 0 && a.attempted > 0 && b.attempted > 0;
        for ma in &a.metrics {
            let Some(mb) = b.metrics.iter().find(|m| m.name == ma.name) else { continue };
            let Some(spec) = report::END_TO_END.iter().find(|s| s.name == ma.name) else {
                continue;
            };
            // Either set may be the "parent": the difference must hold
            // its bound in both directions. A placeholder cell gates
            // nothing.
            let worse = stats::worsening(ma.value, mb.value, spec.lower_is_better)
                .max(stats::worsening(mb.value, ma.value, spec.lower_is_better));
            let verdict = if !spec.gates(workload) {
                "placeholder"
            } else if worse <= spec.issue_bound {
                "ok"
            } else if worse <= spec.bound {
                // Two runs of the same code further apart than the
                // issue's bound: on this box, today, a difference of
                // that size is not a finding.
                "unresolved"
            } else {
                "BREACH"
            };
            ok &= verdict != "BREACH";
            measured += u32::from(verdict != "placeholder");
            unresolved += u32::from(verdict == "unresolved");
            println!(
                "selfcheck {workload} {} {} {} {:+.4} {:.2} {:.2} {verdict}",
                ma.name,
                report::number(ma.value),
                report::number(mb.value),
                worse,
                spec.issue_bound,
                spec.bound,
            );
        }
    }
    println!(
        "# selfcheck: {}; {unresolved} of {measured} measured cells beyond the issue's bound",
        if ok { "no breach" } else { "FAILED" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("tivmark: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck(&args);
    }
    if let Some(workload) = &args.workload {
        let sizing = Sizing::new(args.seconds, args.smoke);
        let outcome = run_workload(workload, &sizing, args.seed, args.trace);
        report::print_lines(workload, &outcome);
        println!("{}", report::outcome_json(&outcome));
        return if outcome.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    let t0 = Instant::now();
    let set = run_set(&WORKLOADS, &args);
    println!("# all workloads took {:.1} s", t0.elapsed().as_secs_f64());
    println!("{}", report::set_json(&set, args.seed));
    if set.iter().all(|(_, o)| o.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cell_the_issue_does_not_list_repeats_the_primary_metric_and_gates_nothing() {
        let value = |metrics: &[Metric], name: &str| {
            metrics.iter().find(|m| m.name == name).expect("every metric printed").value
        };
        // A wire workload: primary = batch p50 (20 us).
        let wire = end_to_end(
            "wire_small",
            20e-6,
            [Some(20.0), Some(800e3), None, None, Some(0.8), Some(250.0)],
        );
        assert_eq!(wire.len(), report::END_TO_END.len());
        assert_eq!(value(&wire, "queries_per_s"), 800e3);
        assert_eq!(value(&wire, "fresh_p50_ms"), 20e-6 * 1e3);
        assert_eq!(value(&wire, "suite_pass_s"), 20e-6);
        // The suite: primary = pass time (1.5 s); as a rate, passes per second.
        let suite =
            end_to_end("paper_suite", 1.5, [None, None, None, Some(1.5), Some(2.4), Some(120.0)]);
        assert_eq!(value(&suite, "batch_p50_us"), 1.5e6);
        assert_eq!(value(&suite, "queries_per_s"), 1.0 / 1.5);
        assert_eq!(value(&suite, "fresh_p50_ms"), 1.5e3);
        assert!(suite.iter().all(|m| m.value > 0.0));
        // Exactly the issue's table gates.
        let gated = |workload: &str| -> Vec<&str> {
            report::END_TO_END.iter().filter(|s| s.gates(workload)).map(|s| s.name).collect()
        };
        let both = ["batch_p50_us", "queries_per_s", "setup_s", "peak_rss_mb"];
        assert_eq!(gated("wire_small"), both);
        assert_eq!(gated("wire_bulk"), both);
        assert_eq!(gated("churn_mixed").len(), 5);
        assert_eq!(gated("paper_suite"), ["suite_pass_s", "setup_s", "peak_rss_mb"]);
    }
}
