//! Metrics, percentiles, the machine record and the result line.

use std::fmt::Write as _;

use crate::workload::Run;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        // A value that is not a number would make the result line invalid JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name: name.into(), value, unit }
    }
}

/// Nearest-rank percentile of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[f64], fraction: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (fraction * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Throughput and latency of one closed-loop phase. Throughput is pairs
/// over the whole timed clock, and the percentiles are over all of its
/// calls. The host's speed drifts over seconds; averaging the whole phase
/// evens that out better than a median over windows of it, which kept
/// about twice the run-to-run spread on the same runs.
pub struct LoopFigures {
    pub pairs_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub calls: usize,
}

pub fn loop_figures(run: &Run) -> LoopFigures {
    let mut latencies: Vec<f64> = run.latencies_ms.iter().map(|&ms| f64::from(ms)).collect();
    latencies.sort_by(f64::total_cmp);
    LoopFigures {
        pairs_per_s: run.pairs as f64 / run.timed.as_secs_f64(),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        calls: latencies.len(),
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A field of `/proc/self/status` (Linux), without its trailing unit.
pub fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with(&format!("{field}:")))?;
    Some(line[field.len() + 1..].trim().trim_end_matches(" kB").to_string())
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").and_then(|kb| kb.parse::<f64>().ok()).map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git work tree.
pub fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            let packed = read(".git/packed-refs")?;
            let line = packed.lines().find(|line| line.ends_with(reference))?;
            Some(line.split_whitespace().next()?.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
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

pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("{}:{{\"value\":{},\"unit\":\"{}\"}}", json_string(&m.name), m.value, m.unit)
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}
