//! Small measurement helpers: quantiles, process memory, and the JSON
//! result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Records one metric. Names are unique; a repeat is a harness bug.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.0.push((name, value, unit));
    }

    /// The final line: `{"correct": true, "attempted": .., "failed": ..,
    /// "metrics": {name: {"value": .., "unit": ..}}}`. Only written after
    /// every output check passed, so `correct` is always true here.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they only arise from a
            // harness bug, which `run.py` rejects as a malformed line.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every significant digit and always has a `.` or
        // an exponent, e.g. `1.0`, `0.0123`, `1e-7`.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The `q`-quantile of `samples` (nearest rank on the sorted copy).
/// Empty input gives 0.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn status_kb(field: &str) -> std::io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("no {field} in /proc/self/status")))
}

/// This process's peak resident set (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> std::io::Result<u64> {
    Ok(status_kb("VmHWM:")? * 1024)
}

/// This process's current resident set (`VmRSS`), in bytes.
pub fn rss_bytes() -> std::io::Result<u64> {
    Ok(status_kb("VmRSS:")? * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.5, "ms");
        m.put("b", 2.0, "count");
        assert_eq!(
            m.result_line(3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
