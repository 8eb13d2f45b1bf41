//! The run's result: metrics with units and sample counts, the failure log,
//! the provenance stamp, and the final one-line JSON summary.

use std::fmt::Write as _;

/// Longest reply excerpt kept in the failure log.
const EXCERPT: usize = 200;
/// Failure-log lines printed in full; the rest are counted.
const LOG_LINES: usize = 100;

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// Everything one run reports.
pub struct Report {
    workload: String,
    /// Rows or requests attempted.
    pub attempted: u64,
    /// Attempts that failed, were refused, went unanswered or were wrong.
    pub failed: u64,
    /// Attempts whose output contradicted its reference.
    pub wrong: u64,
    log: Vec<String>,
    metrics: Vec<Metric>,
    details: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            log: Vec::new(),
            metrics: Vec::new(),
            details: Vec::new(),
        }
    }

    /// Counts one attempt that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempt that failed and logs it. `wrong` marks an output
    /// that contradicts its reference (as opposed to an error or refusal).
    pub fn fail(&mut self, op: &str, id: &str, why: &str, reply: &str, wrong: bool) {
        self.attempted += 1;
        self.note_failure(op, id, why, reply, wrong);
    }

    /// Logs a failure of an attempt already counted.
    pub fn note_failure(&mut self, op: &str, id: &str, why: &str, reply: &str, wrong: bool) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
        if self.log.len() < LOG_LINES {
            let excerpt: String = reply.trim_end().chars().take(EXCERPT).collect();
            self.log.push(format!(
                "fail workload={} op={op} id={id} why={why} reply={excerpt}",
                self.workload
            ));
        }
    }

    /// Adds a metric. `note` carries its sample count and how it was formed.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds a free-form detail line to the human-readable report.
    pub fn detail(&mut self, line: String) {
        self.details.push(line);
    }

    /// `1 - failed/attempted`.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }

    /// Prints the human-readable report (every line starts with `# `), the
    /// stamp, and as the last line the JSON summary of the metrics named in
    /// `keep`.
    pub fn print(&self, stamp: &str, keep: &[&str]) {
        let mut out = String::new();
        for line in &self.details {
            let _ = writeln!(out, "# {line}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "# metric {} = {} {} ({})",
                m.name, m.value, m.unit, m.note
            );
        }
        for line in &self.log {
            let _ = writeln!(out, "# {line}");
        }
        if self.failed as usize > self.log.len() {
            let _ = writeln!(
                out,
                "# ... {} more failures",
                self.failed as usize - self.log.len()
            );
        }
        let _ = writeln!(
            out,
            "# result workload={} attempted={} failed={} wrong={} {stamp}",
            self.workload, self.attempted, self.failed, self.wrong
        );
        let mut json = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.wrong == 0,
            self.attempted,
            self.failed
        );
        let mut first = true;
        for m in self
            .metrics
            .iter()
            .filter(|m| keep.contains(&m.name.as_str()))
        {
            if !first {
                json.push_str(", ");
            }
            first = false;
            let _ = write!(
                json,
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        let _ = writeln!(out, "{json}");
        print!("{out}");
    }

    pub fn has_metric(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// The first `(name, unit)` in `wanted` whose metric carries another unit.
    pub fn unit_mismatch<'a>(&self, wanted: &[(&'a str, &'a str)]) -> Option<(&'a str, &'a str)> {
        wanted.iter().copied().find(|(name, unit)| {
            self.metrics
                .iter()
                .any(|m| m.name == *name && m.unit != *unit)
        })
    }
}

/// A percentile's note: its sample count and how many samples lie beyond
/// it, flagged when fewer than ten do.
pub fn quantile_note(q: Option<crate::stats::Quantile>, what: &str) -> String {
    match q {
        None => format!("{what}; n=0"),
        Some(q) => format!(
            "{what}; n={} beyond={}{}",
            q.n,
            q.beyond,
            if q.beyond < 10 {
                " (thin: fewer than 10 beyond)"
            } else {
                ""
            }
        ),
    }
}
