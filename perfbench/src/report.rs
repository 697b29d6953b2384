//! Metrics and the result line.

use std::fmt::Write as _;

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Human-readable context (percentile, sample count, meaning).
    pub note: String,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted (at least 1 for a run that measured anything).
    pub attempted: u64,
    /// Ops whose output failed its check, or that errored or were refused.
    pub failed: u64,
    /// Metrics for the result line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed in the table only.
    pub extra: Vec<Metric>,
    /// Reasons of the first few failures.
    pub errors: Vec<String>,
}

impl Report {
    /// Record one op's check result.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Add a result-line metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Add a table-only figure.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// All ops passed their checks and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable table: result-line metrics, then table-only ones.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(
                out,
                "{:<28} {:>16} {:<6} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        for e in &self.errors {
            let _ = writeln!(out, "FAILED: {e}");
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value": …, "unit": …}`).
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit of the measurement (`null` if not
/// finite, which also makes the run incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_keeps_digits_and_flags_failures() {
        let mut r = Report::default();
        r.record(Ok(()));
        r.metric("setup_s", 0.123456789, "s", "");
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}}}"
        );
        r.record(Err("boom".into()));
        assert!(!r.correct());
        assert!(r.table().contains("FAILED: boom"));
    }
}
