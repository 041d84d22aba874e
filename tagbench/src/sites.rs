//! `fleet-small` and `site-large`: closed-loop UTRP checks against
//! `MonitoringSession`s over intact floors and an ideal channel.
//!
//! One caller ticks the sites round-robin and issues the next check
//! only after the previous verdict. The untraced run times whole
//! session ticks; the traced run drives a twin set of sites through
//! `issue_utrp_challenge` → `run_utrp_scratch_observed` →
//! `verify_utrp_with` (the order `Utrp::run_round` uses), times each
//! call from outside, and asserts that every report equals the
//! session's.
//!
//! Sessions scan on the scalar engine. The pooled engine is exercised
//! on the first checks of every run at `POOL_THREADS`: in the untraced
//! run for the thread-invariance digest, in the traced run for the
//! `analytics.pool.*` layer metrics. It is kept out of the timed
//! window because its per-announcement hand-off between two workers
//! stalls whenever the host deschedules either vCPU, which made
//! 2-thread check times swing by 2x between runs on a 2-vCPU VM.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tagwatch_analytics::{
    MonitoringSession, Policy, PooledEngine, SessionEvent, SessionLadderState, TickProtocol,
};
use tagwatch_core::registry::RegistrySnapshot;
use tagwatch_core::{MonitorReport, MonitorServer, RoundExecutor, ServerConfig};
use tagwatch_obs::Obs;
use tagwatch_sim::TagPopulation;

use crate::measure::{
    beyond, mean, median, metric, ms, peak_rss_mb, percentile, CheckDigest, Outcome,
};

const ALPHA: f64 = 0.95;
/// Worker threads of the pooled-engine pass.
const POOL_THREADS: usize = 2;

/// A workload's generated inputs and run parameters.
pub struct Shape {
    /// `(n, m)` per site.
    sites: Vec<(usize, u64)>,
    /// Set-ups per run; `setup_s` is their median.
    setup_reps: usize,
    /// Checks replayed on the pooled engine.
    pool_checks: u64,
    /// Fewest checks a measurement window may hold, so that the tail
    /// percentile always has at least ten samples beyond it.
    min_checks: u64,
    tail_pct: f64,
    /// Whether the traced run also runs the durable incident probe.
    incident_probe: bool,
}

/// 64 sites, `n` log-uniform in [250, 4000] and `m` uniform in
/// [2, 20]. Both are drawn stratified, one draw in each 1/64 of the
/// range, and the `m` strata are paired with the `n` strata by a fixed
/// stride, so the fleet's total work barely moves between seeds.
pub fn fleet_small(seed: u64) -> Shape {
    const SITES: usize = 64;
    // Coprime with 64: a fixed Latin pairing of n strata to m strata.
    const STRIDE: usize = 27;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee_75a1_1000_0001);
    let (lo, hi) = (250f64.ln(), 4000f64.ln());
    let sites = (0..SITES)
        .map(|i| {
            let u: f64 = rng.gen();
            let n = (lo + (hi - lo) * (i as f64 + u) / SITES as f64)
                .exp()
                .round() as usize;
            let v: f64 = rng.gen();
            let stratum = (i * STRIDE) % SITES;
            let m = 2 + (19.0 * (stratum as f64 + v) / SITES as f64) as u64;
            (n, m.min(20))
        })
        .collect();
    Shape {
        sites,
        setup_reps: 3,
        pool_checks: SITES as u64,
        min_checks: 1024,
        tail_pct: 99.0,
        incident_probe: true,
    }
}

/// One site, n = 10 000, m = 10 (an Eq. 3 frame of 7 037 slots).
pub fn site_large() -> Shape {
    Shape {
        sites: vec![(10_000, 10)],
        setup_reps: 7,
        pool_checks: 8,
        min_checks: 100,
        tail_pct: 90.0,
        incident_probe: false,
    }
}

fn site_rng(seed: u64, site: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (site as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A site's physical floor and server, both drawn from the site's RNG.
fn site_inputs(
    seed: u64,
    index: usize,
    (n, m): (usize, u64),
) -> Result<(TagPopulation, MonitorServer, StdRng), String> {
    let mut rng = site_rng(seed, index);
    let floor = TagPopulation::with_random_ids(n, &mut rng);
    let server = MonitorServer::new(floor.ids(), m, ALPHA).map_err(|e| e.to_string())?;
    Ok((floor, server, rng))
}

fn expect_intact(report: MonitorReport) -> Result<MonitorReport, String> {
    if report.verdict.is_intact() {
        Ok(report)
    } else {
        Err(format!("intact floor checked as {report}"))
    }
}

/// A site driven through the session API (the untraced path).
struct Site {
    session: MonitoringSession,
    floor: TagPopulation,
    rng: StdRng,
}

impl Site {
    fn check(&mut self) -> Result<MonitorReport, String> {
        match self.session.tick(&mut self.floor, &mut self.rng) {
            Ok(SessionEvent::Checked(report)) => Ok(report.clone()),
            Ok(other) => Err(format!("unexpected session event {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Builds every site and runs its warm-up check.
fn build_fleet(shape: &Shape, seed: u64, threads: usize) -> Result<Vec<Site>, String> {
    let mut fleet = Vec::with_capacity(shape.sites.len());
    for (i, &spec) in shape.sites.iter().enumerate() {
        let (floor, server, rng) = site_inputs(seed, i, spec)?;
        let mut session = MonitoringSession::builder(server)
            .protocol(TickProtocol::Utrp)
            .build();
        session.set_threads(threads);
        let mut site = Site {
            session,
            floor,
            rng,
        };
        expect_intact(site.check()?)?;
        fleet.push(site);
    }
    Ok(fleet)
}

/// Per-check wall times of the traced path's three calls.
#[derive(Default)]
struct Phases {
    issue_ms: Vec<f64>,
    field_ms: Vec<f64>,
    verify_ms: Vec<f64>,
}

impl Phases {
    fn total_ms(&self) -> f64 {
        self.issue_ms
            .iter()
            .chain(&self.field_ms)
            .chain(&self.verify_ms)
            .sum()
    }
}

/// A site driven call by call (the traced path).
struct ManualSite {
    server: MonitorServer,
    engine: PooledEngine,
    floor: TagPopulation,
    rng: StdRng,
}

impl ManualSite {
    fn check(
        &mut self,
        executor: &RoundExecutor,
        obs: &Obs,
        phases: &mut Phases,
    ) -> Result<MonitorReport, String> {
        let timing = self.server.config().timing;
        let t0 = Instant::now();
        let challenge = self
            .server
            .issue_utrp_challenge(&mut self.rng)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let response = executor
            .run_utrp_scratch_observed(
                &mut self.floor,
                &challenge,
                &timing,
                &mut self.rng,
                &mut self.engine,
                obs,
            )
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let report = self
            .server
            .verify_utrp_with(challenge, &response, &mut self.engine)
            .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        phases.issue_ms.push(ms(t1 - t0));
        phases.field_ms.push(ms(t2 - t1));
        phases.verify_ms.push(ms(t3 - t2));
        Ok(report)
    }
}

/// Builds the call-by-call twin of [`build_fleet`], warm-up included.
fn build_manual(
    shape: &Shape,
    seed: u64,
    threads: usize,
    executor: &RoundExecutor,
) -> Result<Vec<ManualSite>, String> {
    let quiet = Obs::disabled();
    let mut fleet = Vec::with_capacity(shape.sites.len());
    for (i, &spec) in shape.sites.iter().enumerate() {
        let (floor, server, rng) = site_inputs(seed, i, spec)?;
        let mut site = ManualSite {
            server,
            engine: PooledEngine::new(threads),
            floor,
            rng,
        };
        expect_intact(site.check(executor, &quiet, &mut Phases::default())?)?;
        fleet.push(site);
    }
    Ok(fleet)
}

/// What a run of checks saw.
struct Window {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    elapsed: Duration,
    check_ms: Vec<f64>,
    /// Check times by site.
    site_ms: Vec<Vec<f64>>,
    air_us: u64,
    digest: CheckDigest,
    /// Digest after the first `prefix` checks.
    prefix_digest: Option<CheckDigest>,
    prefix: u64,
    /// Every check's report, `None` where the check failed.
    reports: Vec<Option<MonitorReport>>,
    /// Warm-restart times by site, one per fleet pass.
    restart_ms: Vec<Vec<f64>>,
}

impl Window {
    fn new(prefix: u64) -> Self {
        Window {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            elapsed: Duration::ZERO,
            check_ms: Vec::new(),
            site_ms: Vec::new(),
            air_us: 0,
            digest: CheckDigest::new(),
            prefix_digest: None,
            prefix,
            reports: Vec::new(),
            restart_ms: Vec::new(),
        }
    }

    fn record(&mut self, site: usize, result: Result<MonitorReport, String>, took: Duration) {
        self.attempted += 1;
        match result.and_then(expect_intact) {
            Ok(report) => {
                self.check_ms.push(ms(took));
                push_at(&mut self.site_ms, site, ms(took));
                self.air_us += report.elapsed.map_or(0, |d| d.as_micros());
                self.digest.fold(&report);
                self.reports.push(Some(report));
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("check {}: {e}", self.attempted));
                }
                self.reports.push(None);
            }
        }
        if self.attempted == self.prefix {
            self.prefix_digest = Some(self.digest);
        }
    }
}

fn push_at(by_site: &mut Vec<Vec<f64>>, site: usize, sample: f64) {
    if by_site.len() <= site {
        by_site.resize_with(site + 1, Vec::new);
    }
    by_site[site].push(sample);
}

/// Percentile of each site's own samples that the gated host-time
/// metrics read.
const SITE_PCT: f64 = 90.0;

/// Sum over sites of each site's [`SITE_PCT`] sample: the time of a
/// fleet pass in which every site runs at its 90th-percentile speed.
///
/// On a shared 2-vCPU host the same code runs in a fast and a slow
/// mode, about 1.8x apart, for seconds to minutes at a time, and the
/// share of a run spent in each varies from run to run. A per-site
/// median or mean moves with that share; a high per-site percentile
/// lands in the slow mode whenever it covers a tenth of the run, which
/// held on almost every run measured (see `README.md`, Noise).
fn pass_ms(by_site: &[Vec<f64>]) -> f64 {
    by_site.iter().map(|v| percentile(v, SITE_PCT)).sum()
}

/// Ticks the sessions round-robin and stops at the first pass boundary
/// after `window` with at least `min_checks` checks done. With
/// `restarts`, every pass ends with a timed warm restart of each site,
/// so restart samples span the window like the checks do.
fn run_sessions(
    fleet: &mut [Site],
    window: Duration,
    min_checks: u64,
    prefix: u64,
    restarts: bool,
) -> Window {
    let mut w = Window::new(prefix);
    let start = Instant::now();
    while w.attempted < min_checks || start.elapsed() < window {
        for (i, site) in fleet.iter_mut().enumerate() {
            let t0 = Instant::now();
            let result = site.check();
            w.record(i, result, t0.elapsed());
        }
        if restarts {
            for (i, image) in capture(fleet).iter().enumerate() {
                let t0 = Instant::now();
                match restore(std::slice::from_ref(image)) {
                    Ok(restored) => {
                        push_at(&mut w.restart_ms, i, ms(t0.elapsed()));
                        drop(restored);
                    }
                    Err(e) => w.errors.push(format!("warm restart of site {i}: {e}")),
                }
            }
        }
    }
    w.elapsed = start.elapsed();
    w
}

/// A site's durable image: registry snapshot text, ladder, policy.
type Image = (String, SessionLadderState, Policy);

fn capture(fleet: &[Site]) -> Vec<Image> {
    fleet
        .iter()
        .map(|s| {
            (
                s.session.server().snapshot().to_text(),
                s.session.ladder_state(),
                s.session.policy().clone(),
            )
        })
        .collect()
}

/// Warm restart from durable images.
fn restore(images: &[Image]) -> Result<Vec<MonitoringSession>, String> {
    images
        .iter()
        .map(|(text, ladder, policy)| {
            let snapshot = RegistrySnapshot::from_text(text).map_err(|e| e.to_string())?;
            let server = MonitorServer::from_snapshot(snapshot, ServerConfig::default())
                .map_err(|e| e.to_string())?;
            Ok(MonitoringSession::restore(server, policy.clone(), ladder))
        })
        .collect()
}

/// Checks that each site restored from its image makes the same next
/// check as the original.
fn check_restore(fleet: &mut [Site], errors: &mut Vec<String>) -> Result<(), String> {
    let restored = restore(&capture(fleet))?;
    for (i, (site, mut session)) in fleet.iter_mut().zip(restored).enumerate() {
        let mut floor = site.floor.clone();
        let mut rng = site.rng.clone();
        let again = match session.tick(&mut floor, &mut rng) {
            Ok(SessionEvent::Checked(r)) => Some(r.clone()),
            _ => None,
        };
        if again.is_none() || again != site.check().ok() {
            errors.push(format!(
                "site {i}: restored session diverged from the original"
            ));
        }
    }
    Ok(())
}

/// Runs the first `count` checks call by call, round-robin, and
/// compares each report with the session run's.
fn run_manual(
    fleet: &mut [ManualSite],
    count: u64,
    expected: &[Option<MonitorReport>],
    obs: &Obs,
    phases: &mut Phases,
) -> Window {
    let executor = RoundExecutor::ideal();
    let mut w = Window::new(count);
    'run: loop {
        for (i, site) in fleet.iter_mut().enumerate() {
            if w.attempted >= count {
                break 'run;
            }
            let k = w.attempted as usize;
            let t0 = Instant::now();
            let result =
                site.check(&executor, obs, phases)
                    .and_then(|report| match expected.get(k) {
                        Some(Some(e)) if *e == report => Ok(report),
                        _ => Err(format!("report differs from the session's: {report}")),
                    });
            w.record(i, result, t0.elapsed());
        }
    }
    w
}

/// The untraced run: set-up, the measurement window, a warm-restart
/// probe, and the thread-invariance digest check.
pub fn run(shape: &Shape, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(shape.setup_reps);
    let mut fleet = Vec::new();
    for _ in 0..shape.setup_reps {
        drop(fleet);
        let t0 = Instant::now();
        fleet = build_fleet(shape, seed, 1)?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let window = Duration::from_secs(seconds);
    let w = run_sessions(
        &mut fleet,
        window,
        shape.min_checks,
        shape.pool_checks,
        true,
    );
    let rss = peak_rss_mb()?;
    let mut errors = w.errors.clone();
    check_restore(&mut fleet, &mut errors)?;
    drop(fleet);

    // Thread invariance: the first checks replayed on fresh sessions
    // with the pooled engine must digest identically.
    let mut pooled = build_fleet(shape, seed, POOL_THREADS)?;
    let pw = run_sessions(
        &mut pooled,
        Duration::ZERO,
        shape.pool_checks,
        shape.pool_checks,
        false,
    );
    drop(pooled);
    if pw.failed > 0 || pw.prefix_digest != w.prefix_digest {
        errors.push(format!(
            "digest of the first {} checks differs between 1 and {POOL_THREADS} threads: {} vs {}",
            shape.pool_checks,
            w.prefix_digest.map_or("none".into(), CheckDigest::hex),
            pw.prefix_digest.map_or("none".into(), CheckDigest::hex),
        ));
    }

    let checks = w.check_ms.len().max(1) as f64;
    let notes = vec![
        format!(
            "{} checks ({} failed) over {:.3} s, {} site(s), scalar engine",
            w.attempted,
            w.failed,
            w.elapsed.as_secs_f64(),
            shape.sites.len(),
        ),
        format!(
            "check_ms_tail is p{} of {} checks ({} beyond it); \
             check_ms_p50 {} (not gated: it follows the host's speed mode)",
            shape.tail_pct,
            w.check_ms.len(),
            beyond(w.check_ms.len(), shape.tail_pct),
            percentile(&w.check_ms, 50.0),
        ),
        format!(
            "checks_per_s from per-site p{SITE_PCT} check times; \
             over all check time it was {}",
            w.check_ms.len() as f64 / (w.check_ms.iter().sum::<f64>() / 1e3),
        ),
        format!(
            "digest {}; first {} checks {} at 1 and {} at {POOL_THREADS} threads",
            w.digest.hex(),
            shape.pool_checks,
            w.prefix_digest.map_or("none".into(), CheckDigest::hex),
            pw.prefix_digest.map_or("none".into(), CheckDigest::hex),
        ),
        format!(
            "failed_check_share {}",
            w.failed as f64 / w.attempted.max(1) as f64
        ),
    ];
    let metrics = vec![
        metric(
            "checks_per_s",
            w.site_ms.len() as f64 / (pass_ms(&w.site_ms) / 1e3),
            "1/s",
        ),
        metric(
            "check_ms_tail",
            percentile(&w.check_ms, shape.tail_pct),
            "ms",
        ),
        metric("air_ms_per_check", w.air_us as f64 / 1e3 / checks, "ms"),
        metric("recover_ms", pass_ms(&w.restart_ms), "ms"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    Ok(Outcome {
        attempted: w.attempted,
        failed: w.failed,
        errors,
        metrics,
        notes,
    })
}

/// The traced run: the session path untraced for half the window, then
/// the same checks call by call with per-layer timing, then the first
/// checks again on the pooled engine.
pub fn run_traced(shape: &Shape, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let executor = RoundExecutor::ideal();
    let mut fleet = build_fleet(shape, seed, 1)?;
    let mut manual = build_manual(shape, seed, 1, &executor)?;
    let mut pooled = build_manual(shape, seed, POOL_THREADS, &executor)?;

    let untraced = run_sessions(
        &mut fleet,
        Duration::from_secs(seconds) / 2,
        shape.sites.len() as u64,
        0,
        false,
    );
    drop(fleet);

    let obs = Obs::metrics_only();
    let mut phases = Phases::default();
    let traced = run_manual(
        &mut manual,
        untraced.attempted,
        &untraced.reports,
        &obs,
        &mut phases,
    );
    let warm_fallbacks: u64 = pooled.iter().map(|s| s.engine.scalar_fallbacks()).sum();
    let mut pool_phases = Phases::default();
    let pool = run_manual(
        &mut pooled,
        shape.pool_checks.min(untraced.attempted),
        &untraced.reports,
        &Obs::metrics_only(),
        &mut pool_phases,
    );
    let fallbacks: u64 = pooled
        .iter()
        .map(|s| s.engine.scalar_fallbacks())
        .sum::<u64>()
        - warm_fallbacks;
    let threads = pooled.first().map_or(1, |s| s.engine.threads());

    let k = traced.attempted.max(1) as f64;
    let issue: f64 = phases.issue_ms.iter().sum();
    let field: f64 = phases.field_ms.iter().sum();
    let probes = obs.counter(obs.m.probes_total) as f64;
    let filtered = obs.counter(obs.m.probes_filtered) as f64;
    let untraced_total: f64 = untraced.check_ms.iter().sum();
    let traced_total = phases.total_ms();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let field_p50 = percentile(&phases.field_ms, 50.0);
    let pool_field_p50 = percentile(&pool_phases.field_ms, 50.0);

    let mut metrics = vec![
        metric(
            "core.frame.size_ms_p50",
            percentile(&phases.issue_ms, 50.0),
            "ms",
        ),
        metric("core.frame.share", ratio(issue, traced_total), "ratio"),
        metric("core.engine.field_ms_p50", field_p50, "ms"),
        metric("core.engine.probes_per_check", probes / k, "count"),
        metric("core.engine.ns_per_probe", ratio(field * 1e6, probes), "ns"),
        metric("core.engine.filter_ratio", ratio(filtered, probes), "ratio"),
        metric(
            "core.server.verify_ms_p50",
            percentile(&phases.verify_ms, 50.0),
            "ms",
        ),
        metric("analytics.pool.threads", threads as f64, "count"),
        metric("analytics.pool.scalar_fallbacks", fallbacks as f64, "count"),
        metric("analytics.pool.field_ms_p50", pool_field_p50, "ms"),
        metric(
            "analytics.pool.speedup",
            ratio(field_p50, pool_field_p50),
            "ratio",
        ),
        metric(
            "analytics.session.self_ms",
            mean(&untraced.check_ms) - traced_total / k,
            "ms",
        ),
    ];
    metrics.push(metric(
        "obs.trace_overhead",
        ratio(traced_total, untraced_total) - 1.0,
        "ratio",
    ));

    let mut errors = untraced.errors;
    errors.extend(traced.errors);
    errors.extend(pool.errors);
    let mut notes = vec![format!(
        "{} checks through the session, then call by call ({} differ) and {} on the \
         {threads}-thread pool ({} differ)",
        untraced.attempted, traced.failed, pool.attempted, pool.failed
    )];
    if shape.incident_probe {
        let probe = crate::soak::probe(seed)?;
        metrics.extend(probe.metrics);
        errors.extend(probe.errors);
        notes.extend(probe.notes);
    } else {
        metrics.extend(crate::soak::unmeasured());
    }
    Ok(Outcome {
        attempted: untraced.attempted,
        failed: untraced.failed + traced.failed + pool.failed,
        errors,
        metrics,
        notes,
    })
}
