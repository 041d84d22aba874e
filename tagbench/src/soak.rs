//! The durable incident probe of `fleet-small`'s traced run: one soak
//! of the default `SoakConfig` shape (n = 60, UTRP, Markov channel,
//! desync bursts every 40 ticks, a theft at tick 250, scripted
//! truncations), 300 ticks, run through `run_soak_durable` with a
//! checkpoint every 25 ticks, then crashed before its last tick and
//! resumed from the WAL bytes.
//!
//! The durable entry point covers a whole run, so per-tick numbers come
//! from the span tree, decorated with a wall clock supplied here through
//! `Obs::set_span_clock`, joined by ordinal to the report's log, and
//! from the `Obs` counters. The probe feeds the incident
//! (`core.server.mismatch_*`, `resync_success_ratio`), durable
//! (`analytics.durable.*`) and store (`store.*`) layer metrics.
//!
//! The soak is not a timed workload of its own. Its host time is
//! dominated by desync diagnosis on mismatched ticks, and on a 2-vCPU
//! VM on a shared host that code's speed drifted far more than the
//! site workloads': the same 300-tick soak took 2.3 s to 4.4 s in
//! consecutive runs in one process, and ten-run spreads of its tick
//! rate reached 0.33 of the median, above the largest bound a metric
//! may have.

use std::time::Instant;

use tagwatch_analytics::durable::{
    resume_soak_durable_observed, run_soak_durable, run_soak_durable_observed, DurableConfig,
};
use tagwatch_analytics::soak::{run_soak, SoakConfig, SoakReport};
use tagwatch_obs::Obs;
use tagwatch_sim::StorageFaultPlan;
use tagwatch_store::recovery::recover;

use crate::measure::{mean, median, metric, ms, Metric, WallClock};

/// Soak seeds the probe picks from: 1 (the `SoakConfig` default) and 2.
const SEEDS: [u64; 2] = [1, 2];
/// Report digests for `soak --seed <s> --ticks 300`, pinned in
/// `results/soak_golden_digest.txt` and the CLI docs.
const GOLDEN: [u64; 2] = [0xd2dd_6208_cb69_4c8f, 0xb78d_d539_e3f3_7513];
const TICKS: u64 = 300;
/// The scripted crash pre-empts the last tick, so the resume replays
/// the longest journal tail a 25-tick checkpoint interval allows.
const CRASH_TICK: u64 = TICKS - 1;
const CHECKPOINT_EVERY: u64 = 25;
const PARSE_REPS: usize = 5;
/// Plain, durable and traced soak runs per probe, alternating.
const ROUNDS: usize = 2;

/// What the probe measured.
pub struct Probe {
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

fn durable(seed: u64, fault: StorageFaultPlan) -> DurableConfig {
    DurableConfig {
        soak: SoakConfig {
            seed,
            ticks: TICKS,
            ..SoakConfig::default()
        },
        checkpoint_every: CHECKPOINT_EVERY,
        fault,
        policy: None,
    }
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// One node of the span JSONL.
struct Span {
    id: u64,
    parent: Option<u64>,
    kind: String,
    ordinal: u64,
    wall_ms: f64,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

fn parse_spans(jsonl: &str) -> Result<Vec<Span>, String> {
    jsonl
        .lines()
        .filter(|l| l.starts_with("{\"span\""))
        .map(|l| {
            let num = |key: &str| -> Result<u64, String> {
                field(l, key)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("span line without {key}: {l}"))
            };
            Ok(Span {
                id: num("span")?,
                parent: field(l, "parent").and_then(|v| v.parse().ok()),
                kind: field(l, "kind").unwrap_or_default().to_string(),
                ordinal: num("ordinal")?,
                wall_ms: num("wall_ns")? as f64 / 1e6,
            })
        })
        .collect()
}

/// Wall times of the tick spans, in ordinal order.
fn tick_walls(spans: &[Span]) -> Vec<f64> {
    let mut ticks: Vec<&Span> = spans.iter().filter(|s| s.kind == "tick").collect();
    ticks.sort_by_key(|s| s.ordinal);
    ticks.iter().map(|t| t.wall_ms).collect()
}

/// Whether every round span hangs off a tick span, so the tick walls
/// cover all round work.
fn rounds_under_ticks(spans: &[Span]) -> bool {
    let ticks: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == "tick")
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.kind == "round")
        .all(|s| s.parent.is_some_and(|p| ticks.contains(&p)))
}

/// A tick whose check came back intact on the first round, with no
/// resync, quarantine or escalation.
fn clean_line(line: &str) -> bool {
    line.split(' ').any(|w| w == "events=C") && line.split(' ').any(|w| w == "verdict=intact")
}

/// Checks a completed report: clean, with the pinned digest.
fn check_report(index: usize, report: Option<&SoakReport>) -> Result<(), String> {
    let seed = SEEDS[index];
    match report {
        Some(r) if !r.is_clean() => Err(format!("soak seed {seed}: {:?}", r.violations)),
        Some(r) if r.digest() != GOLDEN[index] => Err(format!(
            "soak seed {seed}: digest {:016x}, pinned {:016x}",
            r.digest(),
            GOLDEN[index]
        )),
        Some(_) => Ok(()),
        None => Err(format!("soak seed {seed}: no report")),
    }
}

/// Runs the probe on the soak seed `seed` picks.
pub fn probe(seed: u64) -> Result<Probe, String> {
    let index = (seed % SEEDS.len() as u64) as usize;
    let s = SEEDS[index];
    let full_config = durable(s, StorageFaultPlan::new());
    let mut errors = Vec::new();

    // Plain, durable and traced runs alternate, so the ratios between
    // them compare runs made close together.
    let (mut plain_ms, mut durable_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let plain = run_soak(&full_config.soak).map_err(err)?;
        plain_ms.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        let full = run_soak_durable(&full_config).map_err(err)?;
        durable_ms.push(ms(t0.elapsed()));
        let obs = Obs::new();
        obs.set_span_clock(WallClock::shared());
        let traced = run_soak_durable_observed(&full_config, &obs).map_err(err)?;
        for report in [Some(&plain), full.report.as_ref(), traced.report.as_ref()] {
            if let Err(e) = check_report(index, report) {
                errors.push(e);
            }
        }
        last = Some((full.wal, traced, obs));
    }
    let (wal, traced, obs) = last.ok_or("the probe ran no round")?;
    let traced_report = traced.report.ok_or("traced soak returned no report")?;

    let crash = run_soak_durable(&durable(
        s,
        StorageFaultPlan::new().crash_at_tick(CRASH_TICK),
    ))
    .map_err(err)?;
    let mut parse_ms = Vec::with_capacity(PARSE_REPS);
    for _ in 0..PARSE_REPS {
        let t0 = Instant::now();
        let recovered = recover(&crash.wal).map_err(err)?;
        parse_ms.push(ms(t0.elapsed()));
        std::hint::black_box(recovered);
    }
    let resume_obs = Obs::new();
    resume_obs.set_span_clock(WallClock::shared());
    let resumed = resume_soak_durable_observed(&crash.wal, &resume_obs).map_err(err)?;
    if let Err(e) = check_report(index, Some(&resumed.report)) {
        errors.push(format!("after crash and resume: {e}"));
    }

    let spans = parse_spans(&obs.spans_jsonl())?;
    let ticks = tick_walls(&spans);
    if ticks.len() as u64 != TICKS
        || traced_report.log.len() as u64 != TICKS
        || !rounds_under_ticks(&spans)
    {
        errors.push(format!(
            "{} tick spans and {} log lines for {TICKS} ticks",
            ticks.len(),
            traced_report.log.len()
        ));
    }
    let (mut clean_ms, mut mismatch_ms) = (Vec::new(), Vec::new());
    for (wall, line) in ticks.iter().zip(&traced_report.log) {
        if clean_line(line) {
            clean_ms.push(*wall);
        } else {
            mismatch_ms.push(*wall);
        }
    }
    let tick_total: f64 = ticks.iter().sum();
    let mismatch_total: f64 = mismatch_ms.iter().sum();
    let replayed: Vec<f64> = tick_walls(&parse_spans(&resume_obs.spans_jsonl())?)
        .into_iter()
        .take(resumed.replayed_ticks as usize)
        .collect();
    let resync_ticks = obs.histogram(obs.m.resync_depth).count() as f64;
    let resync_ok = obs.counter(obs.m.resync_successes) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (plain_ms, durable_ms) = (median(&plain_ms), median(&durable_ms));

    let metrics = vec![
        metric(
            "core.server.mismatch_tick_share",
            ratio(mismatch_ms.len() as f64, ticks.len() as f64),
            "ratio",
        ),
        metric(
            "core.server.mismatch_time_share",
            ratio(mismatch_total, tick_total),
            "ratio",
        ),
        metric(
            "core.server.mismatch_tick_ms_p50",
            median(&mismatch_ms),
            "ms",
        ),
        metric("core.server.clean_tick_ms_p50", median(&clean_ms), "ms"),
        metric(
            "core.server.resync_success_ratio",
            ratio(resync_ok, resync_ticks),
            "ratio",
        ),
        metric(
            "analytics.durable.journal_overhead",
            durable_ms / plain_ms - 1.0,
            "ratio",
        ),
        metric(
            "analytics.durable.replayed_ticks",
            resumed.replayed_ticks as f64,
            "count",
        ),
        metric(
            "analytics.durable.replay_ms_per_tick",
            mean(&replayed),
            "ms",
        ),
        metric("store.recovery.parse_ms", median(&parse_ms), "ms"),
        metric(
            "store.wal.bytes_per_check",
            wal.len() as f64 / TICKS as f64,
            "B",
        ),
    ];
    let notes = vec![format!(
        "incident probe, soak seed {s}: {} clean and {} mismatched ticks, {resync_ok} of \
         {resync_ticks} resync ticks recovered; run_soak {plain_ms:.1} ms, durable \
         {durable_ms:.1} ms; {} ticks replayed after the crash",
        clean_ms.len(),
        mismatch_ms.len(),
        resumed.replayed_ticks
    )];
    Ok(Probe {
        metrics,
        errors,
        notes,
    })
}

/// The probe's metrics on a workload whose traced run does not run it.
pub fn unmeasured() -> Vec<Metric> {
    [
        ("core.server.mismatch_tick_share", "ratio"),
        ("core.server.mismatch_time_share", "ratio"),
        ("core.server.mismatch_tick_ms_p50", "ms"),
        ("core.server.clean_tick_ms_p50", "ms"),
        ("core.server.resync_success_ratio", "ratio"),
        ("analytics.durable.journal_overhead", "ratio"),
        ("analytics.durable.replayed_ticks", "count"),
        ("analytics.durable.replay_ms_per_tick", "ms"),
        ("store.recovery.parse_ms", "ms"),
        ("store.wal.bytes_per_check", "B"),
    ]
    .into_iter()
    .map(|(name, unit)| metric(name, 0.0, unit))
    .collect()
}
