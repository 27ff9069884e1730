//! The result of one benchmark run, its statistics helpers, and the output
//! format: a human-readable table followed by one JSON line.

use std::fmt::Write as _;

use prophet_mc::Series;

/// One run's outcome: correctness, operation counts and named metrics.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
    /// Operations attempted (sweeps, refreshes, set-ups, replay checks).
    pub attempted: u64,
    /// Operations that errored or gave a wrong answer.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one operation and whether it went wrong; a wrong one is also
    /// described in the notes so the failure is diagnosable from stdout.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Every metric must be a finite number for the JSON line.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// Print the table, then the JSON line last.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{:<34} {error_rate:>18} ratio", "error_rate");
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>18.6} {unit}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples strictly above the nearest-rank `q` percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// FNV-1a over the bit patterns of a value stream: a graph digest that
/// changes if any plotted value changes in any bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold a rendered graph: every series in graph order, weeks ascending.
    pub fn fold(&mut self, graph: &[Series]) {
        for series in graph {
            for point in &series.points {
                self.push(point.y);
            }
        }
    }

    fn push(&mut self, x: f64) {
        for byte in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&xs), 100.0);
        assert_eq!(percentile(&xs, 0.95), 190.0);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
