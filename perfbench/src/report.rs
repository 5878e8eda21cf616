//! The result of one benchmark run: metrics, output checks, sample counts,
//! and the provenance that lets a number be read in context.

use std::fmt::Write as _;

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations that failed (shed, rejected, unfinished) plus failed
    /// checks.
    pub failed: u64,
    /// A line per failed check or failed operation class.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// `(what, count)`: how many samples each reported figure rests on.
    pub samples: Vec<(String, u64)>,
}

impl Outcome {
    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count `n` failed operations of class `what` (no-op when 0).
    pub fn fail_ops(&mut self, n: u64, what: &str) {
        if n > 0 {
            self.failed += n;
            self.failures.push(format!("{n} {what}"));
        }
    }

    /// One output check: attempted, and failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.into());
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a sample count.
    pub fn samples(&mut self, what: &str, count: u64) {
        self.samples.push((what.to_string(), count));
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line.
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (a failed run's empty ratio) read 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance line printed before the result: enough context to tell
/// whether two numbers were measured on comparable hosts and builds.
pub fn provenance_json(
    workload: &str,
    seed: u64,
    trace: bool,
    load_start: f64,
    load_end: f64,
    outcome: &Outcome,
) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let samples = outcome
        .samples
        .iter()
        .map(|(what, n)| format!("{}: {n}", json_string(what)))
        .collect::<Vec<_>>()
        .join(", ");
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"host_cores\": {cores}, \
         \"git_rev\": {}, \"rustc\": {}, \"loadavg_start\": {}, \"loadavg_end\": {}, \
         \"error_rate\": {}, \"samples\": {{{samples}}}}}}}",
        json_string(workload),
        u8::from(trace),
        json_string(&git_rev()),
        json_string(env!("PERFBENCH_RUSTC")),
        json_number(load_start),
        json_number(load_end),
        json_number(error_rate),
    )
}

/// The checkout's git revision, or `unknown` outside a git work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The one-minute load average, or -1 where `/proc/loadavg` is missing.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// `VmHWM` (peak resident set) of this process, in KiB.
pub fn self_peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
