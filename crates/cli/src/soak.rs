//! The `soak` subcommand: drive the long-horizon soak harness and
//! write its JSON report for CI regression tracking.

use std::path::PathBuf;

use tagwatch_analytics::soak::{run_soak_with, SoakConfig};
use tagwatch_analytics::{run_soak_durable_observed, DurableConfig, Policy, TickProtocol};
use tagwatch_obs::{to_prometheus_text, Obs};
use tagwatch_sim::StorageFaultPlan;

use crate::parse::CliError;

fn to_cli<E: std::fmt::Display>(e: E) -> CliError {
    CliError {
        message: e.to_string(),
    }
}

/// Reads and validates a `tagwatch-policy v1` document from disk,
/// pointing diagnostics at the file path.
pub(crate) fn load_policy(path: &str) -> Result<Policy, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError {
        message: format!("cannot read policy file `{path}`: {e}"),
    })?;
    Policy::parse_named(&text, path).map_err(to_cli)
}

/// Writes `content` to `path`, creating parent directories.
pub(crate) fn write_artifact(path: &str, content: &str) -> Result<(), CliError> {
    let path = PathBuf::from(path);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(to_cli)?;
        }
    }
    std::fs::write(&path, content).map_err(to_cli)
}

/// The wall clock of the CLI's I/O shell: monotonic nanoseconds since
/// construction. Injected into the span recorder only on explicit
/// request (`--spans-wall`) because wall-decorated span artifacts are
/// *not* byte-stable — the library layers below never see this type,
/// which is what keeps the d1 determinism lint clean.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: std::time::Instant,
}

impl WallClock {
    /// Anchors the clock at "now".
    #[must_use]
    pub fn new() -> Self {
        WallClock {
            epoch: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl tagwatch_obs::Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Everything the `soak` subcommand was asked to do; mirrors
/// [`crate::parse::Command::Soak`] field for field.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakCmd {
    /// Root seed (the whole run is deterministic in it).
    pub seed: u64,
    /// Monitoring ticks to drive.
    pub ticks: u64,
    /// Routine-tick protocol (`true` = UTRP).
    pub utrp: bool,
    /// Report path override (default `results/soak_<seed>.json`).
    pub report: Option<String>,
    /// Where to write the metrics snapshot, if anywhere.
    pub metrics_out: Option<String>,
    /// Where to write the flight-recorder JSONL trace, if anywhere.
    pub trace_out: Option<String>,
    /// Where to write the Prometheus text exposition, if anywhere.
    pub prom_out: Option<String>,
    /// Where to write the span-tree JSONL, if anywhere.
    pub spans_out: Option<String>,
    /// Decorate spans with wall-clock nanoseconds (artifact is then
    /// not byte-stable).
    pub spans_wall: bool,
    /// Where to persist the durable write-ahead log, if anywhere.
    pub wal_out: Option<String>,
    /// Scripted crash: stop just before this tick.
    pub crash_at: Option<u64>,
    /// Path of a `tagwatch-policy v1` document to run under.
    pub policy: Option<String>,
    /// Worker threads for the session's round engine.
    pub threads: u64,
}

impl Default for SoakCmd {
    /// The parser's defaults for a bare `tagwatch-cli soak`.
    fn default() -> Self {
        SoakCmd {
            seed: 1,
            ticks: 5000,
            utrp: true,
            report: None,
            metrics_out: None,
            trace_out: None,
            prom_out: None,
            spans_out: None,
            spans_wall: false,
            wal_out: None,
            crash_at: None,
            policy: None,
            threads: 1,
        }
    }
}

/// Runs a soak and writes the JSON report (default path
/// `results/soak_<seed>.json`). Exits non-zero — via the returned
/// error — if any invariant was violated, so CI fails loudly.
///
/// The run is always instrumented: `--metrics-out` exports the full
/// metrics snapshot (violation and quarantine counts included, so the
/// exit status has queryable context), `--trace-out` the
/// flight-recorder JSONL window, `--prom-out` the Prometheus text
/// exposition of the whole registry, and `--spans-out` the cost-clock
/// span tree. All four artifacts are byte-deterministic in the seed
/// (spans excepted under `--spans-wall`, which decorates them with
/// I/O-shell wall-clock nanoseconds). On a violation the artifacts
/// are written *before* the error returns.
///
/// With `--wal-out` the run goes through the durable engine (same tick
/// sequence, same report, same telemetry) and persists its write-ahead
/// log — flushed before everything else, so even a violation exit
/// leaves a resumable artifact on disk. `--crash-at T` additionally
/// kills the run just before tick `T`, leaving exactly the bytes a
/// power cut at that instant would: the command then exits 0 (the kill
/// was scripted, not a failure) and points at `tagwatch-cli recover`.
///
/// # Errors
///
/// Returns a [`CliError`] for invalid configs, report I/O failures, or
/// invariant violations.
pub fn run_soak_command(cmd: SoakCmd) -> Result<String, CliError> {
    let SoakCmd {
        seed,
        ticks,
        utrp,
        report: report_path,
        metrics_out,
        trace_out,
        prom_out,
        spans_out,
        spans_wall,
        wal_out,
        crash_at,
        policy: policy_path,
        threads,
    } = cmd;
    let threads = usize::try_from(threads.max(1)).unwrap_or(usize::MAX);
    let policy = policy_path.as_deref().map(load_policy).transpose()?;
    let config = SoakConfig {
        seed,
        ticks,
        protocol: match &policy {
            Some(p) => p.protocol,
            None if utrp => TickProtocol::Utrp,
            None => TickProtocol::Trp,
        },
        ..SoakConfig::default()
    };
    let obs = Obs::new();
    if spans_wall {
        // Wall time enters here, at the I/O shell, and nowhere deeper.
        obs.set_span_clock(std::rc::Rc::new(WallClock::new()));
    }
    let report = if let Some(wal_path) = &wal_out {
        let mut fault = StorageFaultPlan::new();
        if let Some(t) = crash_at {
            fault = fault.crash_at_tick(t);
        }
        let durable = DurableConfig {
            soak: config,
            fault,
            policy: policy.clone(),
            ..DurableConfig::default()
        };
        let outcome = run_soak_durable_observed(&durable, &obs).map_err(to_cli)?;
        // The WAL lands on disk first: a violation (or the scripted
        // crash) must still leave a resumable artifact behind.
        tagwatch_store::io::write_bytes(wal_path, &outcome.wal).map_err(to_cli)?;
        match outcome.report {
            Some(report) => report,
            None => {
                let tick = outcome.interrupted_at.unwrap_or(0);
                return Ok(format!(
                    "soak interrupted at tick {tick} (scripted crash)\n\
                     WAL: {wal_path} ({} bytes)\n\
                     resume with: tagwatch-cli recover {wal_path}\n",
                    outcome.wal.len(),
                ));
            }
        }
    } else {
        let policy = policy.clone().unwrap_or_else(|| config.derive_policy());
        run_soak_with(&config, &policy, &obs, threads).map_err(to_cli)?
    };

    let path: PathBuf = match report_path {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from(format!("results/soak_{seed}.json")),
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(to_cli)?;
        }
    }
    std::fs::write(&path, report.to_json()).map_err(to_cli)?;
    if let Some(p) = &metrics_out {
        write_artifact(p, &obs.snapshot_json())?;
    }
    if let Some(p) = &trace_out {
        write_artifact(p, &obs.flight_jsonl())?;
    }
    if let Some(p) = &prom_out {
        write_artifact(p, &to_prometheus_text(&obs))?;
    }
    if let Some(p) = &spans_out {
        write_artifact(p, &obs.spans_jsonl())?;
    }

    let c = &report.counts;
    let pct = |q: f64| {
        report
            .latency_percentile(q)
            .map_or_else(|| "-".to_owned(), |v| format!("{v:.1}"))
    };
    let mut out = format!(
        "soak: {} {} ticks, seed {} -> {}\n\
         verdicts: {} intact / {} alarms / {} desynced\n\
         incidents: {} thefts, {} desync bursts, {} crashes\n\
         recoveries: {} resyncs, {} escalations ({} noise-only), {} quarantines\n\
         audits: {} ({:.2} per 1000 ticks, max {} in any 100 ticks)\n\
         recovery latency: {} samples, p50 {}, p90 {}, p99 {}\n\
         digest: fnv1a:{:016x}\n",
        match config.protocol {
            TickProtocol::Utrp => "UTRP",
            TickProtocol::Trp => "TRP",
        },
        ticks,
        seed,
        path.display(),
        c.intact,
        c.alarms,
        c.desynced,
        c.thefts,
        c.desync_bursts,
        c.crashes,
        c.resyncs,
        c.escalations,
        c.false_escalations,
        c.quarantines,
        c.audits,
        report.audit_rate_per_1000(),
        report.max_audits_in_window(100),
        report.recovery_latencies.len(),
        pct(0.50),
        pct(0.90),
        pct(0.99),
        report.digest(),
    );
    if let (Some(policy), Some(path)) = (&policy, &policy_path) {
        out.push_str(&format!("policy: site `{}` from {path}\n", policy.site));
    }
    out.push_str(&format!(
        "telemetry: {} violations, {} quarantine events, metrics digest fnv64:{:016x}\n",
        obs.counter(obs.m.soak_violations),
        obs.counter(obs.m.quarantine_events),
        obs.snapshot_digest(),
    ));
    if let Some(dump) = &report.flight_dump {
        out.push_str(&format!(
            "flight dump latched ({}): {} event(s) retained\n",
            dump.reason,
            dump.jsonl.lines().count(),
        ));
    }
    if !report.is_clean() {
        out.push_str("\nINVARIANT VIOLATIONS:\n");
        for v in &report.violations {
            out.push_str(&format!("  - {v}\n"));
        }
        return Err(CliError { message: out });
    }
    out.push_str("all soak invariants held\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_command_writes_a_report_and_summarizes() {
        let dir = std::env::temp_dir().join("tagwatch-soak-cli-test");
        let path = dir.join("soak_cli.json");
        let out = run_soak_command(SoakCmd {
            seed: 3,
            ticks: 60,
            report: Some(path.to_string_lossy().into_owned()),
            ..SoakCmd::default()
        })
        .expect("soak should be clean");
        assert!(out.contains("all soak invariants held"), "{out}");
        assert!(out.contains("digest: fnv1a:"));
        assert!(out.contains("telemetry: 0 violations"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"violations\": []"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn soak_command_exports_deterministic_telemetry_artifacts() {
        let dir = std::env::temp_dir().join("tagwatch-soak-cli-telemetry-test");
        let paths = |tag: &str, ext: &str| dir.join(format!("{tag}.{ext}"));
        let mut artifacts = Vec::new();
        for tag in ["a", "b"] {
            let (metrics, trace, prom, spans) = (
                paths(tag, "metrics.json"),
                paths(tag, "trace.jsonl"),
                paths(tag, "prom.txt"),
                paths(tag, "spans.jsonl"),
            );
            run_soak_command(SoakCmd {
                seed: 5,
                ticks: 50,
                report: Some(paths(tag, "report.json").to_string_lossy().into_owned()),
                metrics_out: Some(metrics.to_string_lossy().into_owned()),
                trace_out: Some(trace.to_string_lossy().into_owned()),
                prom_out: Some(prom.to_string_lossy().into_owned()),
                spans_out: Some(spans.to_string_lossy().into_owned()),
                ..SoakCmd::default()
            })
            .expect("soak should be clean");
            artifacts.push((
                std::fs::read_to_string(&metrics).unwrap(),
                std::fs::read_to_string(&trace).unwrap(),
                std::fs::read_to_string(&prom).unwrap(),
                std::fs::read_to_string(&spans).unwrap(),
            ));
        }
        assert_eq!(artifacts[0], artifacts[1], "telemetry must be seed-stable");
        assert!(artifacts[0]
            .0
            .contains("\"schema\": \"tagwatch-obs-metrics-v1\""));
        assert!(artifacts[0].1.contains("\"type\":\"tick_completed\""));
        assert!(artifacts[0]
            .2
            .contains("# TYPE tagwatch_rounds_total counter"));
        assert!(artifacts[0].3.contains("\"kind\":\"session\""));
        assert!(
            artifacts[0].3.contains("\"wall_ns\":null"),
            "no --spans-wall: spans must stay undecorated"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spans_wall_decorates_the_span_artifact() {
        let dir = std::env::temp_dir().join("tagwatch-soak-cli-wall-test");
        let spans = dir.join("wall_spans.jsonl");
        run_soak_command(SoakCmd {
            seed: 5,
            ticks: 20,
            report: Some(dir.join("report.json").to_string_lossy().into_owned()),
            spans_out: Some(spans.to_string_lossy().into_owned()),
            spans_wall: true,
            ..SoakCmd::default()
        })
        .expect("soak should be clean");
        let jsonl = std::fs::read_to_string(&spans).unwrap();
        assert!(
            !jsonl.contains("\"wall_ns\":null"),
            "--spans-wall must stamp every span"
        );
        assert!(jsonl.contains("\"wall_ns\":"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn soak_command_rejects_zero_ticks() {
        assert!(run_soak_command(SoakCmd {
            ticks: 0,
            report: Some("/tmp/unused.json".into()),
            ..SoakCmd::default()
        })
        .is_err());
    }

    #[test]
    fn soak_command_persists_a_recoverable_wal() {
        let dir = std::env::temp_dir().join("tagwatch-soak-cli-wal-test");
        let report = dir.join("report.json");
        let wal = dir.join("run.wal");
        let out = run_soak_command(SoakCmd {
            seed: 3,
            ticks: 60,
            report: Some(report.to_string_lossy().into_owned()),
            wal_out: Some(wal.to_string_lossy().into_owned()),
            ..SoakCmd::default()
        })
        .expect("soak should be clean");
        assert!(out.contains("all soak invariants held"), "{out}");
        let bytes = std::fs::read(&wal).unwrap();
        assert_eq!(&bytes[..4], b"TWAL");
        let resumed = tagwatch_analytics::resume_soak_durable(&bytes).unwrap();
        assert!(resumed.recovery.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashed_soak_writes_wal_and_reports_interruption() {
        let dir = std::env::temp_dir().join("tagwatch-soak-cli-crash-test");
        let wal = dir.join("crashed.wal");
        let out = run_soak_command(SoakCmd {
            seed: 3,
            ticks: 60,
            wal_out: Some(wal.to_string_lossy().into_owned()),
            crash_at: Some(33),
            ..SoakCmd::default()
        })
        .expect("a scripted crash is not a command failure");
        assert!(out.contains("interrupted at tick 33"), "{out}");
        assert!(out.contains("tagwatch-cli recover"), "{out}");
        assert!(wal.exists(), "the WAL must survive the kill");
        std::fs::remove_dir_all(&dir).ok();
    }
}
