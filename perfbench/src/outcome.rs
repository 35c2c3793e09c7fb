//! What one workload run reports, and how it is printed.

use crate::catalog::{unit, END_TO_END, PER_LAYER};
use crate::stats::{p99, tail, P99_MIN_SAMPLES};
use std::collections::BTreeMap;

/// Counts, problems, metrics and notes of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs attempted in the measured phase.
    pub attempted: u64,
    /// Jobs among them that failed any check.
    pub failed: u64,
    /// Every correctness problem seen (set-up included).
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// On a name the catalogue does not list (a benchmark bug).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(unit(name).is_some(), "metric `{name}` is not catalogued");
        self.metrics.insert(name, value);
    }

    /// Adds a printed note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one failed job.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Records the problems of one job's checks; a job with any problem
    /// counts once as failed.
    pub fn check(&mut self, what: &str, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    /// Records end-to-end figures: as metrics in a timed run, as a note in
    /// a traced one (the difference between the two is the tracing
    /// overhead).
    pub fn end_to_end(&mut self, traced: bool, figures: &[(&'static str, f64)]) {
        if traced {
            let list: Vec<String> = figures.iter().map(|(n, v)| format!("{n}={v:.6}")).collect();
            self.note(format!("end-to-end under tracing: {}", list.join(" ")));
        } else {
            for &(name, value) in figures {
                self.metric(name, value);
            }
        }
    }

    /// Notes the job-latency tail of `ms` by the percentile rule, and the
    /// p99 where there are enough samples for one.
    pub fn tail_note(&mut self, ms: &[f64]) {
        let tail = tail(ms).map_or_else(
            || "none (fewer than 11 samples)".to_string(),
            |(p, v)| format!("p{p} = {v:.3} ms"),
        );
        let p99 = p99(ms).map_or_else(
            || format!("refused (needs >= {P99_MIN_SAMPLES} samples)"),
            |v| format!("{v:.3} ms"),
        );
        self.note(format!(
            "job latency: samples={} tail {tail}; job_ms_p99 {p99}",
            ms.len()
        ));
    }

    /// True when every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The human-readable report and the final JSON line for `--trace`
    /// `traced`. Every catalogued metric of the mode is emitted; a layer
    /// the workload does not exercise is `0`, listed on a `# n/a` line.
    #[must_use]
    pub fn render(&self, traced: bool) -> (Vec<String>, String) {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut lines = Vec::new();
        let mut absent = Vec::new();
        let mut json = Vec::new();
        for &(name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    absent.push(name);
                    0.0
                }
            };
            lines.push(format!("{name:<34} {value:>18.6} {unit}"));
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                render_number(value)
            ));
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        lines.push(format!(
            "{:<34} {frac:>18.6} ratio  ({} of {} attempted)",
            "failed_frac", self.failed, self.attempted
        ));
        if !absent.is_empty() {
            lines.push(format!(
                "# n/a (layer not exercised, reported as 0): {}",
                absent.join(" ")
            ));
        }
        let json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        (lines, json)
    }
}

/// A finite number in JSON form with all its digits.
fn render_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Bytes as MiB.
#[must_use]
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / f64::from(1u32 << 20)
}

/// Arithmetic mean (`0` when empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_emits_every_catalogued_metric_as_json() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.metric("nodes_per_s", 1234.5);
        let (lines, json) = o.render(false);
        assert!(lines.iter().any(|l| l.starts_with("# n/a")));
        let value = serde_json::from_str(&json).expect("result line is JSON");
        let metrics = crate::host::field(&value, "metrics").expect("metrics");
        for (name, _) in END_TO_END {
            assert!(crate::host::field(metrics, name).is_some(), "{name}");
        }
        assert_eq!(
            crate::host::field(&value, "correct"),
            Some(&serde::Value::Bool(true))
        );
    }

    #[test]
    fn any_problem_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check("job", vec!["mismatch".into()]);
        assert!(!o.correct());
        assert_eq!(o.failed, 1);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
