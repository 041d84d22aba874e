//! Measurement helpers shared by the workloads: wall clock, sample
//! statistics, the per-check digest, peak memory and the metric record
//! printed on the result line.

use std::rc::Rc;
use std::time::{Duration, Instant};

use tagwatch_core::{MonitorReport, Verdict};
use tagwatch_obs::span::Clock;

/// Wall clock injected into the span recorder for traced runs.
pub struct WallClock(Instant);

impl WallClock {
    pub fn shared() -> Rc<dyn Clock> {
        Rc::new(WallClock(Instant::now()))
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `p` (0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// FNV-1a over the per-check tuple (verdict, frame size, mismatched
/// slots, simulated air time), folded in check order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckDigest(u64);

impl CheckDigest {
    pub fn new() -> Self {
        CheckDigest(0xcbf2_9ce4_8422_2325)
    }

    pub fn fold(&mut self, report: &MonitorReport) {
        let verdict: u64 = match report.verdict {
            Verdict::Intact => 0,
            Verdict::NotIntact => 1,
            Verdict::Desynced { .. } => 2,
        };
        let air = report.elapsed.map_or(u64::MAX, |d| d.as_micros());
        for word in [
            verdict,
            report.frame_size,
            report.mismatched_slots as u64,
            air,
        ] {
            for byte in word.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    pub fn hex(self) -> String {
        format!("fnv1a:{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MiB, from the kernel's
/// `VmHWM` line for the process itself.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading process status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in process status")?;
    Ok(kb / 1024.0)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run hands back to `main` for printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed (digest mismatches, unclean reports).
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal of `v` (every digit kept); non-finite
/// values cannot appear in JSON and are rendered as 0.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
