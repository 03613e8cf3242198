//! `repro` — regenerate the paper's figures and drive the serving stack.
//!
//! ```text
//! repro <figN | all> [--full] [--seed S] [--out DIR] [--threads N]
//! repro route [--nodes N] [--k K] [--threads T] [--seed S] [--out DIR]
//! repro churn [--nodes N] [--ticks T] [--epoch-ticks E] [--obs O]
//!             [--churn-prob P] [--spike-rate R] [--diurnal-amp A]
//!             [--threshold F] [--k K] [--threads T] [--seed S]
//!             [--out DIR]
//! repro chaos [--nodes N] [--replicas R] [--queries Q] [--batch B]
//!             [--observe F] [--publish-every K] [--seed S]
//!             [--no-faults] [--no-apps]
//! repro sparse [--nodes N] [--pairs P] [--scale-nodes M]
//!              [--degree D] [--threads T] [--seed S] [--out DIR]
//! ```
//!
//! * `figN` — one experiment id (fig1 … fig25), or `all`.
//! * `--full` — run at the paper's data-set sizes (DS² = 4000 nodes;
//!   the severity pass is O(n³), expect minutes).
//! * `--seed S` — master seed (default 42).
//! * `--out DIR` — write `figN.csv` (and side artifacts such as the
//!   Figure 3 PGM) into DIR; otherwise only the console summary is
//!   printed.
//! * `--threads N` — fan experiments out over N workers (default 0 =
//!   auto: the `TIV_THREADS` environment variable, else the machine's
//!   available parallelism). Results are identical at any thread
//!   count, and every thread count shares one artifact cache: each
//!   delay space, severity matrix, embedding and figure pair is built
//!   once per run, by the first worker to ask. `--threads 1` keeps the
//!   classic serial loop, streaming each figure as it finishes.
//!
//! `repro route` runs the TIV-exploiting one-hop detour search over a
//! DS²-style space and prints the detour-gain summary; with `--out` it
//! writes the `route-savings` and `route-vs-severity` figure CSVs. See
//! `experiments::route`.
//!
//! `repro churn` drives the incremental epoch pipeline (`tivflux` +
//! `tivserve::flux`) against a deterministically churning delay space
//! and prints staleness/freshness and per-epoch build-work figures; with
//! `--out` it writes the `churn-staleness` and `churn-rebuild` CSVs.
//! See `experiments::churn`.
//!
//! `repro chaos` drives the deterministic fault-injection harness
//! (`tivchaos`) against a live multi-replica deployment — crash and
//! restart mid-epoch, withheld publishes), checks availability/
//! staleness SLOs and bit-exact recovery, then
//! runs the TIV-aware application workloads (server selection, overlay
//! multicast) live against the same stack. Exits non-zero if any SLO
//! is violated. See `experiments::chaos`.
//!
//! `repro sparse` sweeps the sampled-severity estimator against the
//! exact kernel on a dense ground truth (mean error, 95% CI width and
//! coverage per sampling rate) and builds sparse stores at growing n
//! to show their memory staying sublinear in n²; with `--out` it
//! writes the `sparse-accuracy` and `sparse-scaling` CSVs. See
//! `experiments::sparse`.

use experiments::chaos::{run_chaos_experiment, ChaosOptions};
use experiments::churn::{run_churn, ChurnOptions};
use experiments::figure::Figure;
use experiments::lab::Lab;
use experiments::route::{run_route, RouteOptions};
use experiments::scale::ExperimentScale;
use experiments::sparse::{run_sparse, SparseOptions};
use experiments::suite;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    ids: Vec<String>,
    scale: ExperimentScale,
    seed: u64,
    out: Option<PathBuf>,
    report: Option<PathBuf>,
    threads: usize,
}

/// Takes the value following `flag` off `argv` and parses it — the one
/// flag-value rule every subcommand parser shares.
fn value<T: std::str::FromStr>(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = argv.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("bad {flag} value: {e}"))
}

/// Prints a command-line error and fails the command.
fn fail(e: String) -> ExitCode {
    eprintln!("{e}");
    ExitCode::FAILURE
}

/// Writes each figure as `<id>.csv` into `dir` (created first) and
/// prints its path; without `--out` there is nothing to write.
fn write_figures(dir: Option<PathBuf>, figures: &[Figure]) -> ExitCode {
    let Some(dir) = dir else {
        return ExitCode::SUCCESS;
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for fig in figures {
        let path = dir.join(format!("{}.csv", fig.id));
        if let Err(e) = std::fs::write(&path, fig.to_csv()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("figure written to {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Parses the flags of the `route` subcommand into [`RouteOptions`]
/// plus the optional output directory.
fn parse_route_args(
    mut argv: impl Iterator<Item = String>,
) -> Result<(RouteOptions, Option<PathBuf>), String> {
    let mut opts = RouteOptions::default();
    let mut out = None;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--nodes" => opts.nodes = value(&mut argv, "--nodes")?,
            "--k" => opts.k = value(&mut argv, "--k")?,
            "--threads" => opts.threads = value(&mut argv, "--threads")?,
            "--seed" => opts.seed = value(&mut argv, "--seed")?,
            "--out" => out = Some(PathBuf::from(argv.next().ok_or("--out needs a directory")?)),
            other => {
                return Err(format!(
                    "unknown route argument: {other}\n\
                     usage: repro route [--nodes N] [--k K] [--threads T] [--seed S] [--out DIR]"
                ))
            }
        }
    }
    if opts.nodes < 3 {
        return Err("--nodes must be at least 3 (a detour needs a relay)".to_string());
    }
    if opts.k < 1 {
        return Err("--k must be at least 1".to_string());
    }
    Ok((opts, out))
}

/// Parses the flags of the `churn` subcommand into [`ChurnOptions`]
/// plus the optional output directory.
fn parse_churn_args(
    mut argv: impl Iterator<Item = String>,
) -> Result<(ChurnOptions, Option<PathBuf>), String> {
    let mut opts = ChurnOptions::default();
    let mut out = None;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--nodes" => opts.nodes = value(&mut argv, "--nodes")?,
            "--ticks" => opts.ticks = value(&mut argv, "--ticks")?,
            "--epoch-ticks" => opts.epoch_ticks = value(&mut argv, "--epoch-ticks")?,
            "--obs" => opts.obs_per_tick = value(&mut argv, "--obs")?,
            "--churn-prob" => opts.churn_prob = value(&mut argv, "--churn-prob")?,
            "--spike-rate" => opts.spike_rate = value(&mut argv, "--spike-rate")?,
            "--diurnal-amp" => opts.diurnal_amp = value(&mut argv, "--diurnal-amp")?,
            "--threshold" => opts.full_rebuild_fraction = value(&mut argv, "--threshold")?,
            "--k" => opts.detour_k = value(&mut argv, "--k")?,
            "--threads" => opts.threads = value(&mut argv, "--threads")?,
            "--seed" => opts.seed = value(&mut argv, "--seed")?,
            "--out" => out = Some(PathBuf::from(argv.next().ok_or("--out needs a directory")?)),
            other => {
                return Err(format!(
                    "unknown churn argument: {other}\n\
                     usage: repro churn [--nodes N] [--ticks T] [--epoch-ticks E] [--obs O] \
                     [--churn-prob P] [--spike-rate R] [--diurnal-amp A] [--threshold F] \
                     [--k K] [--threads T] [--seed S] [--out DIR]"
                ))
            }
        }
    }
    if opts.nodes < 3 {
        return Err("--nodes must be at least 3".to_string());
    }
    if opts.ticks < 1 || opts.epoch_ticks < 1 {
        return Err("--ticks and --epoch-ticks must be at least 1".to_string());
    }
    if !(0.0..=1.0).contains(&opts.churn_prob) {
        return Err("--churn-prob must be in [0, 1]".to_string());
    }
    if !(0.0..1.0).contains(&opts.diurnal_amp) {
        return Err("--diurnal-amp must be in [0, 1)".to_string());
    }
    if !opts.spike_rate.is_finite() || opts.spike_rate < 0.0 {
        return Err("--spike-rate must be a finite non-negative rate".to_string());
    }
    if opts.detour_k < 1 {
        return Err("--k must be at least 1".to_string());
    }
    if !opts.full_rebuild_fraction.is_finite() || opts.full_rebuild_fraction < 0.0 {
        return Err("--threshold must be a finite non-negative fraction".to_string());
    }
    Ok((opts, out))
}

/// Parses the flags of the `sparse` subcommand into [`SparseOptions`]
/// plus the optional output directory.
fn parse_sparse_args(
    mut argv: impl Iterator<Item = String>,
) -> Result<(SparseOptions, Option<PathBuf>), String> {
    let mut opts = SparseOptions::default();
    let mut out = None;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--nodes" => opts.nodes = value(&mut argv, "--nodes")?,
            "--pairs" => opts.pairs = value(&mut argv, "--pairs")?,
            "--scale-nodes" => opts.scale_nodes = value(&mut argv, "--scale-nodes")?,
            "--degree" => opts.degree = value(&mut argv, "--degree")?,
            "--threads" => opts.threads = value(&mut argv, "--threads")?,
            "--seed" => opts.seed = value(&mut argv, "--seed")?,
            "--out" => out = Some(PathBuf::from(argv.next().ok_or("--out needs a directory")?)),
            other => {
                return Err(format!(
                    "unknown sparse argument: {other}\n\
                     usage: repro sparse [--nodes N] [--pairs P] [--scale-nodes M] \
                     [--degree D] [--threads T] [--seed S] [--out DIR]"
                ))
            }
        }
    }
    if opts.nodes < 4 {
        return Err("--nodes must be at least 4".to_string());
    }
    if opts.pairs < 1 {
        return Err("--pairs must be at least 1".to_string());
    }
    if opts.scale_nodes < 8 {
        return Err("--scale-nodes must be at least 8".to_string());
    }
    if opts.degree < 1 {
        return Err("--degree must be at least 1".to_string());
    }
    Ok((opts, out))
}

/// Parses the flags of the `chaos` subcommand into [`ChaosOptions`].
fn parse_chaos_args(mut argv: impl Iterator<Item = String>) -> Result<ChaosOptions, String> {
    let mut opts = ChaosOptions::default();
    let c = &mut opts.chaos;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--nodes" => c.nodes = value(&mut argv, "--nodes")?,
            "--replicas" => c.replicas = value(&mut argv, "--replicas")?,
            "--queries" => c.queries = value(&mut argv, "--queries")?,
            "--batch" => c.batch = value(&mut argv, "--batch")?,
            "--observe" => c.observe_frac = value(&mut argv, "--observe")?,
            "--publish-every" => c.publish_every_batches = value(&mut argv, "--publish-every")?,
            "--seed" => c.seed = value(&mut argv, "--seed")?,
            "--no-faults" => opts.no_faults = true,
            "--no-apps" => opts.no_apps = true,
            other => {
                return Err(format!(
                    "unknown chaos argument: {other}\n\
                     usage: repro chaos [--nodes N] [--replicas R] [--queries Q] [--batch B] \
                     [--observe F] [--publish-every K] [--seed S] [--no-faults] \
                     [--no-apps]"
                ))
            }
        }
    }
    if c.nodes < 8 {
        return Err("--nodes must be at least 8".to_string());
    }
    if c.replicas < 1 {
        return Err("--replicas must be at least 1".to_string());
    }
    if c.batch < 1 {
        return Err("--batch must be at least 1".to_string());
    }
    if c.queries / c.batch < 8 {
        return Err("--queries must cover at least 8 batches".to_string());
    }
    if !(0.0..1.0).contains(&c.observe_frac) {
        return Err("--observe must be in [0, 1)".to_string());
    }
    Ok(opts)
}

/// Runs the `chaos` subcommand end to end.
fn run_chaos_command(argv: impl Iterator<Item = String>) -> ExitCode {
    let opts = match parse_chaos_args(argv) {
        Ok(opts) => opts,
        Err(e) => return fail(e),
    };
    match run_chaos_experiment(&opts) {
        Ok(summary) => {
            println!("{summary}");
            if summary.report.slo_ok() {
                ExitCode::SUCCESS
            } else {
                eprintln!("chaos run violated its SLOs");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("chaos run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the `churn` subcommand end to end.
fn run_churn_command(argv: impl Iterator<Item = String>) -> ExitCode {
    let (opts, out) = match parse_churn_args(argv) {
        Ok(parsed) => parsed,
        Err(e) => return fail(e),
    };
    let report = run_churn(&opts);
    print!("{report}");
    write_figures(out, &report.figures)
}

/// Runs the `sparse` subcommand end to end.
fn run_sparse_command(argv: impl Iterator<Item = String>) -> ExitCode {
    let (opts, out) = match parse_sparse_args(argv) {
        Ok(parsed) => parsed,
        Err(e) => return fail(e),
    };
    let report = run_sparse(&opts);
    print!("{report}");
    write_figures(out, &report.figures)
}

/// Runs the `route` subcommand end to end.
fn run_route_command(argv: impl Iterator<Item = String>) -> ExitCode {
    let (opts, out) = match parse_route_args(argv) {
        Ok(parsed) => parsed,
        Err(e) => return fail(e),
    };
    let report = run_route(&opts);
    print!("{report}");
    write_figures(out, &report.figures)
}

fn parse_args() -> Result<Args, String> {
    let mut ids = Vec::new();
    let mut scale = ExperimentScale::Small;
    let mut seed = 42u64;
    let mut out = None;
    let mut report = None;
    let mut threads = 0usize;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--full" => scale = ExperimentScale::Paper,
            "--tiny" => scale = ExperimentScale::Tiny,
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                threads = v.parse().map_err(|e| format!("bad thread count: {e}"))?;
            }
            "--out" => out = Some(PathBuf::from(argv.next().ok_or("--out needs a directory")?)),
            "--report" => {
                let v = argv.next().ok_or("--report needs a file path")?;
                report = Some(PathBuf::from(v));
            }
            "all" => ids.extend(suite::ALL_IDS.iter().map(|s| s.to_string())),
            "ablations" => ids.extend(suite::ABLATION_IDS.iter().map(|s| s.to_string())),
            id if id.starts_with("fig") || id.starts_with("ablation-") => ids.push(id.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if ids.is_empty() && report.is_none() {
        return Err(format!(
            "usage: repro <figN | all | ablations> [--full] [--seed S] [--out DIR] \
             [--report FILE] [--threads N]\n\
             \x20      repro route [--nodes N] [--k K] [--threads T] [--seed S] [--out DIR] \
             (run the detour search)\n\
             \x20      repro churn [--nodes N] [--ticks T] [--epoch-ticks E] [--obs O] ... \
             (run the incremental epoch pipeline under churn)\n\
             \x20      repro chaos [--nodes N] [--replicas R] [--no-faults] [--no-apps] ... \
             (inject faults into a live deployment and verify recovery)\n\
             \x20      repro sparse [--nodes N] [--pairs P] [--scale-nodes M] [--degree D] ... \
             (sweep sampled-severity accuracy and sparse-store scaling)\n\
             figures: {}\n\
             ablations: {}",
            suite::ALL_IDS.join(" "),
            suite::ABLATION_IDS.join(" ")
        ));
    }
    Ok(Args { ids, scale, seed, out, report, threads })
}

/// Prints one experiment outcome and writes its artifacts.
fn emit(
    id: &str,
    output: Option<experiments::suite::ExperimentOutput>,
    seconds: f64,
    args: &Args,
    failed: &mut bool,
) {
    let Some(out) = output else {
        eprintln!("unknown experiment id: {id}");
        *failed = true;
        return;
    };
    print!("{}", out.figure.summary());
    println!("    ({seconds:.1}s)");
    if let Some(dir) = &args.out {
        let csv = dir.join(format!("{id}.csv"));
        if let Err(e) = std::fs::write(&csv, out.figure.to_csv()) {
            eprintln!("cannot write {}: {e}", csv.display());
            *failed = true;
        }
        for (ext, contents) in &out.artifacts {
            let path = dir.join(format!("{id}.{ext}"));
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("cannot write {}: {e}", path.display());
                *failed = true;
            }
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("route") => {
            argv.next();
            return run_route_command(argv);
        }
        Some("churn") => {
            argv.next();
            return run_churn_command(argv);
        }
        Some("chaos") => {
            argv.next();
            return run_chaos_command(argv);
        }
        Some("sparse") => {
            argv.next();
            return run_sparse_command(argv);
        }
        _ => {}
    }
    drop(argv);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let workers = tivpar::resolve_threads(args.threads).min(args.ids.len().max(1));
    // The full budget flows into this lab's kernels (serial path and
    // --report); the fan-out path hands the unclamped budget to
    // run_many, which splits it between workers and their kernels.
    let lab = Lab::with_threads(args.scale, args.seed, args.threads);
    let mut failed = false;
    if workers > 1 {
        // Fan out; outcomes (and prints) arrive in input order once the
        // batch completes.
        println!("running {} experiments on {workers} workers", args.ids.len());
        for outcome in suite::run_many(&args.ids, args.scale, args.seed, args.threads) {
            emit(&outcome.id, outcome.output, outcome.seconds, &args, &mut failed);
        }
    } else {
        // Serial: stream each figure as it finishes, sharing one
        // artifact cache that --report below can reuse.
        for id in &args.ids {
            let outcome = suite::run_timed(id, &lab);
            emit(&outcome.id, outcome.output, outcome.seconds, &args, &mut failed);
        }
    }
    if let Some(path) = &args.report {
        // The fan-out's workers share a lab of run_many's own, so a
        // parallel run leaves this cache cold and the report recomputes
        // what it needs; say so rather than looking hung.
        if workers > 1 && !args.ids.is_empty() {
            println!("generating report (fresh artifact cache; --threads 1 would reuse the run's)");
        }
        let report = experiments::report::generate(&lab);
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("cannot write {}: {e}", path.display());
            failed = true;
        } else {
            println!("report written to {}", path.display());
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
