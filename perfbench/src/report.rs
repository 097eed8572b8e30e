//! Result records: metrics with units, output-check tallies, run metadata,
//! and the JSON renderings of the result line and the result file.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `campaign_s` or `msgsim.simulate_s`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `MB`, `count`.
    pub unit: &'static str,
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted: simulation runs, requests and output checks.
    pub attempted: u64,
    /// Operations that failed or were refused: quarantined runs, non-200
    /// responses and output mismatches.
    pub failed: u64,
    /// Human-readable description of every failure.
    pub failures: Vec<String>,
    /// Metrics of the result line, in report order.
    pub metrics: Vec<Metric>,
    /// Further measurements, written to the result file only.
    pub extras: Vec<Metric>,
    /// Sample counts behind medians and percentiles, by metric name.
    pub samples: Vec<(String, usize)>,
    /// Output checks that ran, with what they showed.
    pub checks: Vec<String>,
    /// Raw samples behind the medians, by metric name.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Adds a measurement for the result file only.
    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.push(Metric { name: name.into(), value, unit });
    }

    /// Records the sample count behind `name`.
    pub fn samples(&mut self, name: impl Into<String>, n: usize) {
        self.samples.push((name.into(), n));
    }

    /// Records the raw samples behind `name` (and their count).
    pub fn series(&mut self, name: impl Into<String>, xs: &[f64]) {
        let name = name.into();
        self.samples(name.clone(), xs.len());
        self.series.push((name, xs.to_vec()));
    }

    /// Counts `n` attempted operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Runs one output check: counts it, and records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.ok(1);
            self.checks.push(format!("ok: {what}"));
        } else {
            self.fail(format!("mismatch: {what}"));
        }
    }

    /// True when every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of metric or extra `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().chain(&self.extras).find(|m| m.name == name).map(|m| m.value)
    }

    /// The one-line result the benchmark prints last:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The detailed result file: metadata, metrics, sample counts, checks.
    pub fn result_file(&self, meta: &[(String, String)]) -> String {
        let mut out = String::from("{\n  \"meta\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}: {}", json_string(k), json_string(v));
        }
        let _ = write!(
            out,
            "\n  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        write_metrics(&mut out, &self.metrics);
        out.push_str("\n  },\n  \"extras\": {");
        write_metrics(&mut out, &self.extras);
        out.push_str("\n  },\n  \"samples\": {");
        for (i, (k, n)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}: {n}", json_string(k));
        }
        out.push_str("\n  },\n  \"series\": {");
        for (i, (k, xs)) in self.series.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let xs: Vec<String> = xs.iter().map(|&x| json_number(x)).collect();
            let _ = write!(out, "{sep}    {}: [{}]", json_string(k), xs.join(", "));
        }
        out.push_str("\n  },\n  \"checks\": [");
        write_strings(&mut out, &self.checks);
        out.push_str("\n  ],\n  \"failures\": [");
        write_strings(&mut out, &self.failures);
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn write_strings(out: &mut String, items: &[String]) {
    for (i, c) in items.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    {}", json_string(c));
    }
}

fn write_metrics(out: &mut String, metrics: &[Metric]) {
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
}

/// A finite JSON number with every digit `f64` carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
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

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Percentile of `xs` by linear interpolation between closest ranks
/// (`dls_metrics::percentile` on a sorted copy).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    dls_metrics::percentile(&sorted, q)
}

/// 64-bit FNV-1a digest of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident set of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's CPU model name.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.ok(3);
        r.metric("campaign_s", 1.25, "s");
        r.metric("setup_s", 0.5, "s");
        let line = r.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"campaign_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, "a");
        r.check(false, "b");
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(digest(b""), "cbf29ce484222325");
    }
}
