//! The run report: operation counts, metrics with the sample count behind
//! each percentile, correctness checks, and host facts. The last line of
//! standard output is the one-line summary (`correct`, `attempted`,
//! `failed`, `metrics`); the whole report is also written as JSON beside
//! the run's other outputs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

#[derive(Default)]
struct OpCount {
    attempted: u64,
    failed: u64,
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
    /// Printed and written to the report, left out of the summary line.
    report_only: bool,
}

#[derive(Default)]
pub struct Report {
    ops: BTreeMap<String, OpCount>,
    metrics: Vec<Metric>,
    checks: Vec<(String, bool, String)>,
    facts: BTreeMap<String, String>,
}

impl Report {
    /// Count operations of one type.
    pub fn ops(&mut self, op: &str, attempted: u64, failed: u64) {
        let c = self.ops.entry(op.to_string()).or_default();
        c.attempted += attempted;
        c.failed += failed;
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, None);
    }

    /// A metric read off `samples` observations (a percentile or median).
    pub fn metric_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, Some(samples));
    }

    /// A metric for the report only, not the summary line (see the
    /// README for which and why).
    pub fn report_only(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, Some(samples));
        self.metrics.last_mut().expect("just pushed").report_only = true;
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            report_only: false,
        });
    }

    /// Record a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        eprintln!(
            "check {name}: {} {detail}",
            if ok { "ok" } else { "FAILED" }
        );
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.insert(key.to_string(), value.to_string());
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.1)
    }

    fn totals(&self) -> (u64, u64) {
        self.ops
            .values()
            .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
    }

    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.report_only)
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The one-line summary: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary_line(&self) -> String {
        let (attempted, failed) = self.totals();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
            self.correct(),
            self.metrics_json()
        )
    }

    /// Human-readable lines for standard output, ahead of the summary.
    pub fn print_table(&self) {
        for (k, v) in &self.facts {
            println!("fact {k} = {v}");
        }
        for (op, c) in &self.ops {
            println!("ops {op}: attempted {} failed {}", c.attempted, c.failed);
        }
        for m in &self.metrics {
            let tag = if m.report_only { ", report only" } else { "" };
            match m.samples {
                Some(n) => println!(
                    "metric {} = {:.6} {} (n = {n}{tag})",
                    m.name, m.value, m.unit
                ),
                None => println!("metric {} = {:.6} {}", m.name, m.value, m.unit),
            }
        }
    }

    /// The full report as JSON.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("{\n");
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let _ = writeln!(s, "  \"host\": {{{}}},", facts.join(", "));
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|(k, c)| {
                format!(
                    "{}: {{\"attempted\": {}, \"failed\": {}}}",
                    json_str(k),
                    c.attempted,
                    c.failed
                )
            })
            .collect();
        let _ = writeln!(s, "  \"ops\": {{{}}},", ops.join(", "));
        let samples: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| m.samples.map(|n| format!("{}: {n}", json_str(&m.name))))
            .collect();
        let _ = writeln!(s, "  \"samples\": {{{}}},", samples.join(", "));
        let extra: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.report_only)
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        let _ = writeln!(s, "  \"report_only\": {{{}}},", extra.join(", "));
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(n, ok, d)| {
                format!(
                    "{{\"name\": {}, \"ok\": {ok}, \"detail\": {}}}",
                    json_str(n),
                    json_str(d)
                )
            })
            .collect();
        let _ = writeln!(s, "  \"checks\": [{}],", checks.join(", "));
        let _ = writeln!(s, "  \"summary\": {}", self.summary_line());
        s.push_str("}\n");
        std::fs::write(path, s)
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON with all its digits (non-finite values, which a
/// broken measurement could produce, become `null` and fail a reader's
/// parse loudly rather than passing as a number).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn summary_has_the_four_keys() {
        let mut r = Report::default();
        r.ops("knn", 10, 0);
        r.ops("insert", 5, 1);
        r.metric_n("query_p50_ms", 1.25, "ms", 10);
        r.check("sorted", true, "");
        assert_eq!(
            r.summary_line(),
            "{\"correct\": true, \"attempted\": 15, \"failed\": 1, \"metrics\": \
             {\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.check("oracle", false, "mismatch");
        assert!(!r.correct());
    }
}
