//! What a run prints: `workload name unit value` lines and one JSON
//! object as the last line of standard output.

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// The value as measured, with all its digits.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric { name: name.to_string(), unit: unit.to_string(), value }
    }
}

/// The result of one workload run.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Operations attempted: batches, byte comparisons, epochs,
    /// observations, figures.
    pub attempted: u64,
    /// Operations that failed: I/O errors, error frames, wrong or
    /// missing answers, epochs not visible within 2 s, figures that
    /// differ from the serial reference.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// A run that could not even start: one operation, failed.
    pub fn broken() -> Outcome {
        Outcome { attempted: 1, failed: 1, metrics: Vec::new() }
    }

    /// True when every output checked was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// An end-to-end metric's contract (mirrors `BENCHMARK.json`; a unit
/// test holds the two together).
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by before the
    /// driver rejects a change (`BENCHMARK.json`): what this box can hold
    /// on a bad day, see README "Bounds".
    pub bound: f64,
    /// The issue's bound: within it two results count as the same;
    /// between it and `bound` a difference is *unresolved* on this box.
    pub issue_bound: f64,
    /// The workloads the metric is measured on (the issue's table).
    /// Elsewhere the cell is a placeholder — see [`EndToEnd::gates`].
    pub measured_on: &'static [&'static str],
}

impl EndToEnd {
    /// True when the metric is a measurement on `workload`. The driver's
    /// contract wants a number from every workload for every metric;
    /// where the metric does not exist the cell repeats the workload's
    /// own primary metric in this metric's unit (`main.rs`), gates
    /// nothing in `--selfcheck`, and is never to be cited.
    pub fn gates(&self, workload: &str) -> bool {
        self.measured_on.contains(&workload)
    }
}

const WIRE: &[&str] = &["wire_small", "wire_bulk", "churn_mixed"];
const ALL: &[&str] = &crate::WORKLOADS;

/// The six end-to-end metrics. The issue's seventh, `failed_share`, is
/// the `failed` ÷ `attempted` pair of the result object: it must stay 0,
/// and the driver's contract asks for metrics that are never 0.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "batch_p50_us", unit: "us", lower_is_better: true, bound: 0.25, issue_bound: 0.1, measured_on: WIRE },
    EndToEnd { name: "queries_per_s", unit: "1/s", lower_is_better: false, bound: 0.25, issue_bound: 0.1, measured_on: WIRE },
    EndToEnd { name: "fresh_p50_ms", unit: "ms", lower_is_better: true, bound: 0.25, issue_bound: 0.1, measured_on: &["churn_mixed"] },
    EndToEnd { name: "suite_pass_s", unit: "s", lower_is_better: true, bound: 0.25, issue_bound: 0.1, measured_on: &["paper_suite"] },
    EndToEnd { name: "setup_s", unit: "s", lower_is_better: true, bound: 0.25, issue_bound: 0.2, measured_on: ALL },
    EndToEnd { name: "peak_rss_mb", unit: "MB", lower_is_better: true, bound: 0.1, issue_bound: 0.1, measured_on: ALL },
];

/// A float as JSON: every digit Rust needs to round-trip it; a
/// non-finite value (a bug) becomes 0 rather than invalid JSON.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints `workload name unit value` for every metric plus the two
/// operation counts — the line format a parent `tivmark` reads back.
pub fn print_lines(workload: &str, outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("{workload} {} {} {}", m.name, m.unit, number(m.value));
    }
    println!("{workload} attempted count {}", outcome.attempted);
    println!("{workload} failed count {}", outcome.failed);
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("{workload} failed_share ratio {}", number(share));
}

/// Reads a child's [`print_lines`] output back.
pub fn parse_lines(workload: &str, text: &str) -> Option<Outcome> {
    let mut outcome = Outcome { attempted: 0, failed: 0, metrics: Vec::new() };
    let mut counted = 0;
    for line in text.lines() {
        let mut words = line.split_whitespace();
        if words.next() != Some(workload) {
            continue;
        }
        let (Some(name), Some(unit), Some(value), None) =
            (words.next(), words.next(), words.next(), words.next())
        else {
            continue;
        };
        match (name, unit) {
            ("attempted", "count") => {
                outcome.attempted = value.parse().ok()?;
                counted += 1;
            }
            ("failed", "count") => {
                outcome.failed = value.parse().ok()?;
                counted += 1;
            }
            ("failed_share", _) => {}
            _ => outcome.metrics.push(Metric::new(name, unit, value.parse().ok()?)),
        }
    }
    (counted == 2).then_some(outcome)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-workload result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn outcome_json(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

/// The all-workloads document: one result object per workload.
pub fn set_json(set: &[(String, Outcome)], seed: u64) -> String {
    let body: Vec<String> =
        set.iter().map(|(w, o)| format!("\"{w}\": {}", outcome_json(o))).collect();
    let correct = set.iter().all(|(_, o)| o.correct());
    format!(
        "{{\"seed\": {seed}, \"nproc\": {}, \"correct\": {correct}, \"workloads\": {{{}}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("batch_p50_us", "us", 75.25),
                Metric::new("queries_per_s", "1/s", 201_234.5),
            ],
        }
    }

    #[test]
    fn the_result_object_has_exactly_the_contract_keys() {
        assert_eq!(
            outcome_json(&sample()),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"batch_p50_us\": {\"value\": 75.25, \"unit\": \"us\"}, \
             \"queries_per_s\": {\"value\": 201234.5, \"unit\": \"1/s\"}}}"
        );
        let failed = Outcome { failed: 3, ..sample() };
        assert!(outcome_json(&failed).starts_with("{\"correct\": false, "));
        assert!(!Outcome::broken().correct());
    }

    #[test]
    fn a_parent_reads_back_exactly_what_a_child_printed() {
        // What `print_lines` writes for `sample()`, between other output.
        let text = "# wire_small: 10 batches\n\
                    wire_small batch_p50_us us 75.25\n\
                    wire_small queries_per_s 1/s 201234.5\n\
                    wire_small attempted count 1000\n\
                    wire_small failed count 0\n\
                    wire_small failed_share ratio 0\n\
                    {\"correct\": true}\n";
        assert_eq!(parse_lines("wire_small", text), Some(sample()));
        // Another workload's lines are not ours; a child that died before
        // its counts is not a result.
        assert_eq!(parse_lines("wire_bulk", text), None);
        assert_eq!(parse_lines("wire_small", "wire_small batch_p50_us us 75.25\n"), None);
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_valid_json() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
    }

    #[test]
    fn benchmark_json_and_the_table_agree() {
        let json = include_str!("../../BENCHMARK.json");
        for spec in &END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                spec.name,
                spec.unit,
                if spec.lower_is_better { "lower" } else { "higher" },
                spec.bound
            );
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        assert_eq!(json.matches("\"bound\"").count(), END_TO_END.len());
        for workload in crate::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        }
        for (name, unit, _) in crate::layers::PER_LAYER {
            let line = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + crate::layers::PER_LAYER.len()
        );
    }
}
