//! Long-horizon soak testing of the monitoring session.
//!
//! A soak run drives a [`MonitoringSession`] for thousands of ticks
//! against a randomly evolving channel (a [`MarkovChannel`] over
//! calm/degraded/storm levels) with periodic scripted incidents —
//! counter-desync bursts, response truncations ("crashes"), and thefts
//! — while an in-loop *operator* performs the physical audits the
//! session requests (counter resyncs, quarantine releases, recovery of
//! stolen tags after identification names them).
//!
//! After **every tick** the driver checks three global invariants:
//!
//! 1. **No silent false "intact"** — an above-tolerance theft is
//!    detected (escalation names *exactly* the stolen tags, with no
//!    unresolved stragglers) within
//!    [`SoakConfig::detection_deadline`] ticks, and an intact verdict
//!    never coexists with residual slot mismatches.
//! 2. **Quarantine converges** — only scripted burst victims or
//!    once-stolen tags are ever quarantined, and the operator's
//!    audit/release loop always drains the quarantine set by the end
//!    of the run.
//! 3. **Bounded audit frequency** — every physical audit is
//!    attributable to an incident (an active theft, a scripted burst
//!    or crash, or a non-calm channel level) within
//!    [`SoakConfig::attribution_window`] ticks; calm, incident-free
//!    operation never pages the operator.
//!
//! The run is fully deterministic in [`SoakConfig::seed`]: channel
//! evolution, incident scheduling, and protocol randomness draw from
//! disjoint [`SeedSequence`] streams, so the per-tick event log (and
//! its FNV-1a digest, and the JSON report) are byte-identical across
//! runs and machines. The report feeds CI regression tracking of
//! recovery-latency and audit-frequency distributions.

use rand::rngs::StdRng;

use tagwatch_core::utrp::attributed_round;
use tagwatch_core::{
    CoreError, MonitorServer, RegistrySnapshot, RoundExecutor, ServerConfig, Verdict,
};
use tagwatch_obs::{fnv1a_lines, json_escape, json_f64, FlightDump, Obs, ObsEvent, VerdictKind};
use tagwatch_sim::{Counter, FaultPlan, MarkovChannel, SeedSequence, Tag, TagId, TagPopulation};
use tagwatch_store::checkpoint::CheckpointDoc;
use tagwatch_store::StoreError;

use crate::histogram::{percentile, Histogram};
use crate::policy::Policy;
use crate::session::{MonitoringSession, SessionEvent, SessionLadderState, TickProtocol};

/// Parameters of one soak run. All randomness derives from `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakConfig {
    /// Root seed: two runs with equal configs are byte-identical.
    pub seed: u64,
    /// Number of monitoring ticks to drive.
    pub ticks: u64,
    /// Registered population size.
    pub n: usize,
    /// Missing-tag tolerance `m`.
    pub m: u64,
    /// Required detection confidence `α`.
    pub alpha: f64,
    /// Protocol for routine ticks. Desync bursts are only scripted for
    /// [`TickProtocol::Utrp`] (TRP has no counters to desynchronize).
    pub protocol: TickProtocol,
    /// Ticks between scripted fault bursts (0 disables bursts).
    pub burst_period: u64,
    /// Ticks between scripted thefts (0 disables thefts).
    pub theft_period: u64,
    /// Tags stolen per theft; must exceed `m` so detection is owed.
    pub theft_size: usize,
    /// Invariant 1 bound: ticks within which a theft must be named.
    pub detection_deadline: u64,
    /// Server-side desync diagnosis window (must cover one round's
    /// announcement advance, roughly `n + 1`, for crash recovery).
    pub desync_window: u64,
    /// Invariant 3 bound: how many ticks after an incident (or a
    /// non-calm channel level) an audit remains attributable to it.
    pub attribution_window: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 1,
            ticks: 2000,
            n: 60,
            m: 2,
            alpha: 0.95,
            protocol: TickProtocol::Utrp,
            burst_period: 40,
            theft_period: 250,
            theft_size: 3,
            detection_deadline: 20,
            desync_window: 96,
            attribution_window: 5,
        }
    }
}

impl SoakConfig {
    /// The policy a config-only soak runs under: the legacy defaults
    /// carrying the config's protocol and desync window — exactly the
    /// ladder the pre-policy driver hardcoded, so config-driven runs
    /// keep their digests byte-for-byte.
    #[must_use]
    pub fn derive_policy(&self) -> Policy {
        Policy {
            protocol: self.protocol,
            desync_window: self.desync_window,
            ..Policy::default()
        }
    }

    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.ticks == 0 {
            return Err(CoreError::InvalidParams {
                reason: "soak needs at least one tick".into(),
            });
        }
        if self.theft_period > 0 && self.theft_size as u64 <= self.m {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "theft_size {} must exceed tolerance m={} for detection to be owed",
                    self.theft_size, self.m
                ),
            });
        }
        if self.theft_size >= self.n {
            return Err(CoreError::InvalidParams {
                reason: "theft_size must leave tags on the floor".into(),
            });
        }
        if self.theft_period > 0 && self.detection_deadline == 0 {
            return Err(CoreError::InvalidParams {
                reason: "detection_deadline must be positive when thefts are scheduled".into(),
            });
        }
        Ok(())
    }
}

/// Per-category tallies of a soak run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoakCounts {
    /// Ticks whose final verdict was intact.
    pub intact: u64,
    /// Ticks whose final verdict was a [`Verdict::NotIntact`] alarm.
    pub alarms: u64,
    /// Ticks whose final verdict was still desynced (retry budget
    /// exhausted — should stay rare).
    pub desynced: u64,
    /// In-tick desync recoveries (resync + fresh re-challenge).
    pub resyncs: u64,
    /// Quarantine events.
    pub quarantines: u64,
    /// Escalations that named a non-empty missing set.
    pub escalations: u64,
    /// Escalations triggered by channel noise alone (empty missing set).
    pub false_escalations: u64,
    /// Scripted thefts.
    pub thefts: u64,
    /// Scripted counter-desync bursts.
    pub desync_bursts: u64,
    /// Scripted response truncations (reader/link crashes).
    pub crashes: u64,
    /// Operator physical audits (counter resyncs + quarantine
    /// releases + post-theft recoveries).
    pub audits: u64,
}

/// The outcome of one soak run: counters, distributions, the
/// deterministic event log, and any invariant violations.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// The configuration that produced this report.
    pub config: SoakConfig,
    /// Per-category tallies.
    pub counts: SoakCounts,
    /// Ticks spent in each channel level, in level order.
    pub level_ticks: Vec<(String, u64)>,
    /// Recovery latency (ticks from incident start to the first
    /// subsequent intact tick) per resolved incident, in order.
    pub recovery_latencies: Vec<u64>,
    /// Tick indices at which the operator audited.
    pub audit_ticks: Vec<u64>,
    /// Invariant violations (empty on a healthy run).
    pub violations: Vec<String>,
    /// One line per tick; the determinism contract is that this log is
    /// byte-identical across runs of the same config.
    pub log: Vec<String>,
    /// The flight-recorder postmortem, when an instrumented run
    /// ([`run_soak_with`]) tripped a failure trigger (invariant
    /// violation, desync, or quarantine). Always `None` for
    /// uninstrumented runs.
    pub flight_dump: Option<FlightDump>,
}

impl SoakReport {
    /// FNV-1a digest of the event log — the regression fingerprint CI
    /// compares across runs of the same seed.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a_lines(&self.log)
    }

    /// Whether all three invariants held for the entire run.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Recovery-latency percentile (nearest rank), if any incident
    /// resolved.
    #[must_use]
    pub fn latency_percentile(&self, q: f64) -> Option<f64> {
        let samples: Vec<f64> = self.recovery_latencies.iter().map(|&l| l as f64).collect();
        percentile(&samples, q)
    }

    /// Audits per 1000 ticks.
    #[must_use]
    pub fn audit_rate_per_1000(&self) -> f64 {
        if self.config.ticks == 0 {
            return 0.0;
        }
        self.counts.audits as f64 * 1000.0 / self.config.ticks as f64
    }

    /// Maximum number of audits inside any window of `window` ticks —
    /// the "bounded audit frequency" statistic CI tracks.
    #[must_use]
    pub fn max_audits_in_window(&self, window: u64) -> u64 {
        let mut max = 0u64;
        let mut lo = 0usize;
        for hi in 0..self.audit_ticks.len() {
            while self.audit_ticks[hi] - self.audit_ticks[lo] >= window {
                lo += 1;
            }
            max = max.max((hi - lo + 1) as u64);
        }
        max
    }

    /// Serializes the report as a self-contained JSON document (no
    /// external serializer: the schema is documented in `docs/SOAK.md`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let protocol = match c.protocol {
            TickProtocol::Trp => "trp",
            TickProtocol::Utrp => "utrp",
        };
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"config\": {{\"seed\": {}, \"ticks\": {}, \"n\": {}, \"m\": {}, \
             \"alpha\": {}, \"protocol\": \"{}\", \"burst_period\": {}, \
             \"theft_period\": {}, \"theft_size\": {}, \"detection_deadline\": {}, \
             \"desync_window\": {}, \"attribution_window\": {}}},\n",
            c.seed,
            c.ticks,
            c.n,
            c.m,
            json_f64(c.alpha),
            protocol,
            c.burst_period,
            c.theft_period,
            c.theft_size,
            c.detection_deadline,
            c.desync_window,
            c.attribution_window,
        ));
        let k = &self.counts;
        out.push_str(&format!(
            "  \"counts\": {{\"intact\": {}, \"alarms\": {}, \"desynced\": {}, \
             \"resyncs\": {}, \"quarantines\": {}, \"escalations\": {}, \
             \"false_escalations\": {}, \"thefts\": {}, \"desync_bursts\": {}, \
             \"crashes\": {}, \"audits\": {}}},\n",
            k.intact,
            k.alarms,
            k.desynced,
            k.resyncs,
            k.quarantines,
            k.escalations,
            k.false_escalations,
            k.thefts,
            k.desync_bursts,
            k.crashes,
            k.audits,
        ));
        out.push_str("  \"channel_ticks\": {");
        for (i, (name, ticks)) in self.level_ticks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", json_escape(name), ticks));
        }
        out.push_str("},\n");

        let hi = (self.config.detection_deadline.max(10)) as f64;
        let mut hist = Histogram::new(0.0, hi, 10);
        hist.extend(self.recovery_latencies.iter().map(|&l| l as f64));
        let lat_json = |q: f64| self.latency_percentile(q).map_or("null".into(), json_f64);
        // Exact quantiles come from the retained samples; the `_est`
        // variants are what the same fixed-bucket estimator a live
        // scrape sees would report, so operators can calibrate
        // dashboard quantiles against ground truth.
        let est_json = |q: f64| hist.percentile(q).map_or("null".into(), json_f64);
        out.push_str(&format!(
            "  \"recovery_latency\": {{\"samples\": {}, \"p50\": {}, \"p90\": {}, \
             \"p99\": {}, \"p50_est\": {}, \"p90_est\": {}, \"p99_est\": {}, \
             \"max\": {}, \"histogram\": [",
            self.recovery_latencies.len(),
            lat_json(0.50),
            lat_json(0.90),
            lat_json(0.99),
            est_json(0.50),
            est_json(0.90),
            est_json(0.99),
            self.recovery_latencies
                .iter()
                .max()
                .map_or("null".into(), u64::to_string),
        ));
        for (i, count) in hist.bins().iter().enumerate() {
            let (lo, up) = hist.bin_range(i);
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"lo\": {}, \"hi\": {}, \"count\": {}}}",
                json_f64(lo),
                json_f64(up),
                count
            ));
        }
        out.push_str("]},\n");

        out.push_str(&format!(
            "  \"audit_frequency\": {{\"audits\": {}, \"per_1000_ticks\": {}, \
             \"max_in_100_ticks\": {}}},\n",
            self.counts.audits,
            json_f64(self.audit_rate_per_1000()),
            self.max_audits_in_window(100),
        ));

        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(v)));
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"digest\": \"fnv1a:{:016x}\"\n", self.digest()));
        out.push_str("}\n");
        out
    }
}

/// A scripted incident currently awaiting recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpenIncident {
    /// A desync burst at the given tick (victim lags the mirror by 1).
    Burst { start: u64 },
    /// A truncated response at the given tick.
    Crash { start: u64 },
}

impl OpenIncident {
    fn start(self) -> u64 {
        match self {
            OpenIncident::Burst { start } | OpenIncident::Crash { start } => start,
        }
    }
}

/// The soak driver: the session under test, the world around it, and
/// the operator's bookkeeping. `pub(crate)` so the durable twin
/// (`crate::durable`) can drive it tick by tick around WAL appends.
pub(crate) struct SoakDriver<'a> {
    config: SoakConfig,
    obs: &'a Obs,
    session: MonitoringSession,
    floor: TagPopulation,
    markov: MarkovChannel,
    tick_rng: StdRng,
    markov_rng: StdRng,
    sched_rng: StdRng,
    counts: SoakCounts,
    level_ticks: Vec<u64>,
    latencies: Vec<u64>,
    audit_ticks: Vec<u64>,
    violations: Vec<String>,
    log: Vec<String>,
    /// Tags currently off the floor (theft in progress).
    stolen: Vec<Tag>,
    theft_start: Option<u64>,
    ever_stolen: Vec<TagId>,
    burst_victims: Vec<TagId>,
    open_incident: Option<OpenIncident>,
    /// A desync burst owed but deferred until a calm tick.
    pending_desync_burst: bool,
    last_burst: Option<u64>,
    last_crash: Option<u64>,
    last_noncalm: Option<u64>,
    log_cursor: usize,
    /// Transient per-tick flag: this tick's audits breached the
    /// policy's audit budget (reset at the top of every step, rendered
    /// into the tick's log line — never checkpointed, since captures
    /// happen at tick boundaries).
    audit_alert: bool,
}

impl<'a> SoakDriver<'a> {
    /// The policy the session is interpreting.
    pub(crate) fn policy(&self) -> &Policy {
        self.session.policy()
    }

    /// Sets the session round engine's worker-thread count. An
    /// execution knob, deliberately **not** a [`SoakConfig`] field:
    /// the config is serialized into durable WAL records, and thread
    /// count must never influence (or be implied by) a replay — every
    /// digest is byte-identical at any thread count.
    pub(crate) fn set_threads(&mut self, threads: usize) {
        self.session.set_threads(threads);
    }

    /// A driver for `config` interpreting `policy` (see
    /// [`SoakConfig::derive_policy`] for the config-only default).
    /// The stored config copy is normalized to the policy's protocol
    /// and desync window, so incident scheduling and the report's
    /// config JSON agree with what the session actually interprets.
    pub(crate) fn with_policy(
        config: &SoakConfig,
        policy: Policy,
        obs: &'a Obs,
    ) -> Result<Self, CoreError> {
        let mut config = *config;
        config.protocol = policy.protocol;
        config.desync_window = policy.desync_window;
        let seeds = SeedSequence::new(config.seed);
        let floor = TagPopulation::with_sequential_ids(config.n);
        let server_config = ServerConfig {
            desync_window: policy.desync_window,
            ..ServerConfig::default()
        };
        let server =
            MonitorServer::with_config(floor.ids(), config.m, config.alpha, server_config)?;
        let session = MonitoringSession::new(server, policy);
        let markov = MarkovChannel::presets();
        let levels = markov.levels().len();
        // The whole run is one session span; every tick span nests
        // under it. `finish` closes it (and any stragglers).
        obs.span_open(tagwatch_obs::SpanKind::Session);
        Ok(SoakDriver {
            config,
            obs,
            session,
            floor,
            markov,
            tick_rng: seeds.rng_for(0),
            markov_rng: seeds.rng_for(1),
            sched_rng: seeds.rng_for(2),
            counts: SoakCounts::default(),
            level_ticks: vec![0; levels],
            latencies: Vec::new(),
            audit_ticks: Vec::new(),
            violations: Vec::new(),
            log: Vec::new(),
            stolen: Vec::new(),
            theft_start: None,
            ever_stolen: Vec::new(),
            burst_victims: Vec::new(),
            open_incident: None,
            pending_desync_burst: false,
            last_burst: None,
            last_crash: None,
            last_noncalm: None,
            log_cursor: 0,
            audit_alert: false,
        })
    }

    /// Invariant 3: is an audit at tick `t` attributable to an incident
    /// or to channel noise within the attribution window?
    fn audit_attributable(&self, t: u64) -> bool {
        let w = self.config.attribution_window;
        let recent = |at: Option<u64>| at.is_some_and(|s| t.saturating_sub(s) <= w);
        self.theft_start.is_some()
            || recent(self.last_burst)
            || recent(self.last_crash)
            || recent(self.last_noncalm)
    }

    /// Records an invariant violation and fires the observability
    /// postmortem triggers: the violation counter, an
    /// [`ObsEvent::InvariantViolated`] event, and the flight-recorder
    /// dump latch (first trigger wins, so the retained window is the
    /// one closest to the original fault).
    fn violate(&mut self, t: u64, invariant: u8, message: String) {
        self.obs.inc(self.obs.m.soak_violations);
        self.obs
            .emit(ObsEvent::InvariantViolated { tick: t, invariant });
        self.obs.capture_dump("invariant_violation");
        self.violations.push(message);
    }

    /// Records one operator audit at tick `t`, checking invariant 3.
    /// `released` is how many quarantined tags the audit returned to
    /// service; `latency_ticks` how long the audited condition stood.
    fn record_audit(&mut self, t: u64, what: &str, released: u64, latency_ticks: u64) {
        self.counts.audits += 1;
        self.audit_ticks.push(t);
        self.obs.inc(self.obs.m.audits_total);
        self.obs
            .observe(self.obs.m.audit_latency_ticks, latency_ticks as f64);
        self.obs.emit(ObsEvent::AuditCompleted {
            released,
            latency_ticks,
        });
        if let Some(budget) = self.session.policy().audit_budget {
            let window = self.session.policy().audit_window;
            let floor = t.saturating_sub(window.saturating_sub(1));
            let in_window = self
                .audit_ticks
                .iter()
                .filter(|&&tick| tick >= floor)
                .count() as u64;
            if in_window > u64::from(budget) {
                self.obs.emit(ObsEvent::PolicyAlert {
                    tick: t,
                    audits: in_window,
                    budget: u64::from(budget),
                    window,
                });
                self.audit_alert = true;
            }
        }
        if !self.audit_attributable(t) {
            let message = format!(
                "I3 violated at tick {t}: {what} audit with no incident or channel noise \
                 within the last {} ticks",
                self.config.attribution_window
            );
            self.violate(t, 3, message);
        }
    }

    /// Operator pre-tick pass: release audited quarantined tags and
    /// re-trust the counter mirror when the previous tick left it
    /// unsynchronized. Both are physical audits.
    fn operator_pass(&mut self, t: u64) -> Result<(), CoreError> {
        let quarantined = self.session.quarantined();
        if !quarantined.is_empty() {
            // The driver records the audit itself (`record_audit`).
            let released = self
                .session
                .release_quarantined(quarantined, 1, &Obs::disabled());
            // The operator drains the quarantine on the tick after it
            // filled, so the audited condition stood for one tick.
            self.record_audit(
                t,
                &format!("quarantine release of {} tag(s)", released.len()),
                released.len() as u64,
                1,
            );
        }
        if !self.session.server().counters_synced() {
            self.session.audit_resync(&self.floor)?;
            self.record_audit(t, "counter resync", 0, 1);
        }
        Ok(())
    }

    /// Starts a theft: removes `theft_size` random tags from the floor.
    fn start_theft(&mut self, t: u64) -> Result<(), CoreError> {
        let taken = self
            .floor
            .remove_random(self.config.theft_size, &mut self.sched_rng)
            .map_err(|e| CoreError::InvalidParams {
                reason: format!("soak theft failed: {e}"),
            })?;
        for tag in &taken {
            if !self.ever_stolen.contains(&tag.id()) {
                self.ever_stolen.push(tag.id());
            }
        }
        self.stolen = taken;
        self.theft_start = Some(t);
        self.counts.thefts += 1;
        Ok(())
    }

    /// Scripts a counter-desync burst for this tick, if possible: a
    /// dry run of the exact challenge the session is about to issue
    /// (same server state, cloned RNG) attributes the expected round,
    /// and the victim — the lowest-ID tag that replies — loses the
    /// round's *final* announcement. The round verifies intact, but the
    /// victim's counter silently lags the mirror by one, and the next
    /// round diagnoses exactly that tag. Repeat victims accumulate
    /// strikes and get quarantined, which is what invariant 2 watches.
    ///
    /// Only scripted on calm ticks: under a noisy channel the realized
    /// announcement schedule can diverge from the dry run and the fault
    /// would land on the wrong announcement.
    fn script_desync_burst(&mut self, t: u64) -> Result<Option<FaultPlan>, CoreError> {
        let mut preview_rng = self.tick_rng.clone();
        let server = self.session.server();
        let challenge = server.issue_utrp_challenge(&mut preview_rng)?;
        let registry = server.snapshot().entries;
        let (dry, attribution) = attributed_round(&registry, &challenge)?;
        let Some(victim) = attribution.iter().flatten().copied().min() else {
            return Ok(None); // nobody replies: defer the burst
        };
        if !self.burst_victims.contains(&victim) {
            self.burst_victims.push(victim);
        }
        self.counts.desync_bursts += 1;
        self.last_burst = Some(t);
        self.open_incident = Some(OpenIncident::Burst { start: t });
        self.pending_desync_burst = false;
        Ok(Some(
            FaultPlan::new().lose_announcement(dry.announcements - 1, [victim]),
        ))
    }

    /// Scripts a response truncation ("the reader crashed after the
    /// field round; the response was cut off in transit").
    fn script_crash(&mut self, t: u64) -> FaultPlan {
        self.counts.crashes += 1;
        self.last_crash = Some(t);
        self.open_incident = Some(OpenIncident::Crash { start: t });
        FaultPlan::new().truncate_response(8)
    }

    /// Decides this tick's scripted incident (at most one) and returns
    /// the fault plan to hand the executor.
    fn schedule_incidents(&mut self, t: u64, calm: bool) -> Result<Option<FaultPlan>, CoreError> {
        let SoakConfig {
            theft_period,
            burst_period,
            ..
        } = self.config;

        if self.stolen.is_empty() && theft_period > 0 && t > 0 && t.is_multiple_of(theft_period) {
            self.start_theft(t)?;
            return Ok(None); // the theft itself is the incident
        }
        if self.theft_start.is_some() || self.open_incident.is_some() {
            return Ok(None); // one incident at a time
        }
        if burst_period > 0 && t > 0 && t.is_multiple_of(burst_period) {
            // Alternate desync bursts and crashes; TRP has no counters,
            // so every TRP burst is a crash.
            let want_desync = self.config.protocol == TickProtocol::Utrp
                && (self.counts.desync_bursts + self.counts.crashes).is_multiple_of(2);
            if want_desync {
                self.pending_desync_burst = true;
            } else {
                return Ok(Some(self.script_crash(t)));
            }
        }
        if self.pending_desync_burst && calm {
            return self.script_desync_burst(t);
        }
        Ok(None)
    }

    /// Digests the session events this tick appended, enforcing the
    /// invariants they witness. Returns the tick's final verdict tag
    /// and a compact event trace for the log line.
    fn scan_events(&mut self, t: u64) -> Result<(String, String), CoreError> {
        let events: Vec<SessionEvent> = self.session.log()[self.log_cursor..].to_vec();
        self.log_cursor = self.session.log().len();

        let mut verdict = String::from("-");
        let mut trace = String::new();
        for event in &events {
            match event {
                SessionEvent::Checked(report) => {
                    match report.verdict {
                        Verdict::Intact => {
                            self.counts.intact += 1;
                            verdict = "intact".into();
                            // Invariant 1 (exactness): intact means zero
                            // residual mismatches, always.
                            if report.mismatched_slots != 0 {
                                let message = format!(
                                    "I1 violated at tick {t}: intact verdict with {} \
                                     mismatched slots",
                                    report.mismatched_slots
                                );
                                self.violate(t, 1, message);
                            }
                        }
                        Verdict::NotIntact => {
                            self.counts.alarms += 1;
                            verdict = "alarm".into();
                        }
                        Verdict::Desynced { .. } => {
                            self.counts.desynced += 1;
                            verdict = "desynced".into();
                        }
                    }
                    trace.push('C');
                }
                SessionEvent::Resynced { .. } => {
                    self.counts.resyncs += 1;
                    trace.push('R');
                }
                SessionEvent::Quarantined { tags } => {
                    self.counts.quarantines += 1;
                    trace.push('Q');
                    // Invariant 2 (attribution): every quarantine traces
                    // to a scripted desync victim, a theft, or channel
                    // noise within the window. A lost reply whose
                    // hypothesized lag-slot collides into an occupied
                    // slot is diagnosed as a single-tag lag on an
                    // innocent tag — indistinguishable at the bitstring
                    // level — so noisy ticks legitimately strike
                    // bystanders; calm incident-free operation must not.
                    let w = self.config.attribution_window;
                    let noisy = self.last_noncalm.is_some_and(|s| t.saturating_sub(s) <= w);
                    for &tag in tags {
                        if !self.burst_victims.contains(&tag)
                            && !self.ever_stolen.contains(&tag)
                            && !noisy
                        {
                            let message = format!(
                                "I2 violated at tick {t}: tag {tag} quarantined without a \
                                 scripted desync, theft, or channel noise against it"
                            );
                            self.violate(t, 2, message);
                        }
                    }
                }
                SessionEvent::Escalated {
                    missing,
                    unresolved,
                    ..
                } => {
                    trace.push('E');
                    if let Some(start) = self.theft_start {
                        self.counts.escalations += 1;
                        // Invariant 1 (detection): identification must
                        // name exactly the stolen tags.
                        let mut expected: Vec<TagId> = self.stolen.iter().map(Tag::id).collect();
                        expected.sort_unstable();
                        if *missing != expected || !unresolved.is_empty() {
                            let message = format!(
                                "I1 violated at tick {t}: escalation named {missing:?} \
                                 (unresolved {unresolved:?}), expected {expected:?}"
                            );
                            self.violate(t, 1, message);
                        }
                        self.recover_theft(t, start)?;
                    } else if missing.is_empty() && unresolved.is_empty() {
                        // Channel noise double-alarmed; identification
                        // correctly found nothing missing.
                        self.counts.false_escalations += 1;
                    } else {
                        let message = format!(
                            "I1 violated at tick {t}: escalation named {missing:?} \
                             (unresolved {unresolved:?}) with nothing stolen"
                        );
                        self.violate(t, 1, message);
                    }
                }
            }
        }
        Ok((verdict, trace))
    }

    /// Ends a theft after identification named it: the operator
    /// retrieves the tags, returns them to the floor, and audits the
    /// counters (the mirror kept advancing announcements the stolen
    /// tags never heard).
    fn recover_theft(&mut self, t: u64, start: u64) -> Result<(), CoreError> {
        for tag in std::mem::take(&mut self.stolen) {
            self.floor
                .insert(tag)
                .map_err(|e| CoreError::InvalidParams {
                    reason: format!("soak reinsert failed: {e}"),
                })?;
        }
        self.session.audit_resync(&self.floor)?;
        self.record_audit(t, "post-theft recovery", 0, t - start + 1);
        self.theft_start = None;
        self.latencies.push(t - start + 1);
        Ok(())
    }

    fn run(mut self) -> Result<SoakReport, CoreError> {
        for t in 0..self.config.ticks {
            self.step(t)?;
        }
        Ok(self.finish())
    }

    /// Runs exactly one soak tick: the loop body of [`run`](Self::run),
    /// extracted verbatim so the durable twin can interleave WAL
    /// appends (and scripted crashes) between ticks. Appends one line
    /// to the log.
    pub(crate) fn step(&mut self, t: u64) -> Result<(), CoreError> {
        // Bracket the tick in a span; close on the error path too so a
        // failed tick never leaves the recorder's stack misaligned.
        self.obs.span_open(tagwatch_obs::SpanKind::Tick);
        let result = self.step_inner(t);
        self.obs.span_close();
        result
    }

    fn step_inner(&mut self, t: u64) -> Result<(), CoreError> {
        {
            self.audit_alert = false;

            // 1. The world moves: channel level for this tick.
            let level = self.markov.step(&mut self.markov_rng);
            let level_name = level.name.clone();
            let state = self.markov.state();
            self.level_ticks[state] += 1;
            let calm = self.markov.channel().is_ideal();
            if !calm {
                self.last_noncalm = Some(t);
            }

            // 2. The operator reacts to what the previous tick left.
            self.operator_pass(t)?;

            // 3. Scripted incidents for this tick.
            let plan = self.schedule_incidents(t, calm)?;

            // 4. One monitoring tick through the channel + fault plan.
            let executor = RoundExecutor::new(self.markov.channel(), plan);
            self.session
                .tick_with(&mut self.floor, &executor, &mut self.tick_rng, self.obs)?;

            // 5. Digest the tick's events; enforce invariants.
            let (verdict, trace) = self.scan_events(t)?;
            self.obs.inc(self.obs.m.soak_ticks);
            self.obs.emit(ObsEvent::TickCompleted {
                tick: t,
                verdict: match verdict.as_str() {
                    "intact" => VerdictKind::Intact,
                    "desynced" => VerdictKind::Desynced,
                    _ => VerdictKind::NotIntact,
                },
            });

            // 6. Close out burst/crash incidents on the first intact
            //    tick after they fired.
            if let Some(incident) = self.open_incident {
                if t > incident.start() && verdict == "intact" {
                    self.latencies.push(t - incident.start());
                    self.open_incident = None;
                }
            }

            // 7. Invariant 1 (deadline): a theft may not stay unnamed.
            if let Some(start) = self.theft_start {
                if t - start >= self.config.detection_deadline {
                    let message = format!(
                        "I1 violated at tick {t}: theft from tick {start} still undetected \
                         after {} ticks",
                        self.config.detection_deadline
                    );
                    self.violate(t, 1, message);
                    self.recover_theft(t, start)?;
                }
            }

            self.log.push(format!(
                "t={t:05} level={level_name} events={} verdict={verdict}{}",
                if trace.is_empty() { "-" } else { &trace },
                if self.audit_alert {
                    " alert=audit-budget"
                } else {
                    ""
                }
            ));
        }
        Ok(())
    }

    /// Post-loop wrap-up of [`run`](Self::run), extracted verbatim:
    /// drains any final-tick quarantine, checks convergence, and
    /// assembles the report.
    pub(crate) fn finish(mut self) -> SoakReport {
        // Invariant 2 (convergence): the operator loop drains the
        // quarantine every tick, so only a quarantine on the *final*
        // tick (whose attribution was already checked above) can be
        // left; the operator's closing audit releases it. Anything the
        // release does not clear would be a convergence failure.
        let leftover = self.session.quarantined();
        if !leftover.is_empty() {
            self.counts.audits += 1;
            self.audit_ticks.push(self.config.ticks - 1);
            self.obs.inc(self.obs.m.audits_total);
            self.obs.observe(self.obs.m.audit_latency_ticks, 1.0);
            self.obs.emit(ObsEvent::AuditCompleted {
                released: leftover.len() as u64,
                latency_ticks: 1,
            });
            self.session
                .release_quarantined(leftover, 1, &Obs::disabled());
        }
        if !self.session.quarantined().is_empty() {
            let message = format!(
                "I2 violated: quarantine failed to converge; {:?} still held at end of run",
                self.session.quarantined()
            );
            self.violate(self.config.ticks - 1, 2, message);
        }

        // Seal the span tree: the session span opened in the
        // constructor, plus anything an aborted tick left open.
        self.obs.span_close_all();

        let level_ticks = self
            .markov
            .levels()
            .iter()
            .zip(&self.level_ticks)
            .map(|(level, &ticks)| (level.name.clone(), ticks))
            .collect();
        SoakReport {
            config: self.config,
            counts: self.counts,
            level_ticks,
            recovery_latencies: self.latencies,
            audit_ticks: self.audit_ticks,
            violations: self.violations,
            log: self.log,
            flight_dump: self.obs.dump(),
        }
    }

    /// The log line [`step`](Self::step) appended last (empty before
    /// the first tick) — what the durable twin records per tick.
    pub(crate) fn last_log_line(&self) -> &str {
        self.log.last().map_or("", String::as_str)
    }

    /// Replaces the log wholesale with lines recovered from a WAL's
    /// tick records. Recovery calls this right after
    /// [`from_checkpoint`](Self::from_checkpoint) so the report's log
    /// covers tick 0 even though the driver restarted mid-run.
    pub(crate) fn seed_log(&mut self, lines: Vec<String>) {
        self.log = lines;
    }

    /// Serializes the driver's complete durable state — everything
    /// that influences ticks `>= next_tick` — into a checkpoint
    /// document. The per-tick log is deliberately absent: recovery
    /// rebuilds it from the WAL's tick records via
    /// [`seed_log`](Self::seed_log).
    ///
    /// # Errors
    ///
    /// Structurally infallible for a live driver (no section name or
    /// line it emits violates the document grammar); any
    /// [`StoreError`] surfacing here indicates a bug, propagated
    /// rather than swallowed.
    pub(crate) fn capture_checkpoint(&self, next_tick: u64) -> Result<CheckpointDoc, StoreError> {
        let rng_line = |name: &str, state: [u64; 4]| {
            format!(
                "{name} {:016x} {:016x} {:016x} {:016x}",
                state[0], state[1], state[2], state[3]
            )
        };
        let mut doc = CheckpointDoc::new();
        doc.push_section("meta", [format!("next_tick {next_tick}")])?;
        doc.push_section(
            "rng",
            [
                rng_line("tick", self.tick_rng.state()),
                rng_line("markov", self.markov_rng.state()),
                rng_line("sched", self.sched_rng.state()),
            ],
        )?;
        doc.push_section("markov", [format!("state {}", self.markov.state())])?;
        doc.push_section(
            "registry",
            self.session
                .server()
                .snapshot()
                .to_text()
                .lines()
                .map(str::to_owned),
        )?;
        let ladder = self.session.ladder_state();
        let mut ladder_lines = vec![format!("alarms {}", ladder.consecutive_alarms)];
        for (id, strikes) in &ladder.desync_strikes {
            ladder_lines.push(format!("strike {:024x} {strikes}", id.as_u128()));
        }
        for id in &ladder.quarantined {
            ladder_lines.push(format!("quarantined {:024x}", id.as_u128()));
        }
        doc.push_section("ladder", ladder_lines)?;
        doc.push_section("policy", self.session.policy().to_flat_lines())?;
        doc.push_section("floor", self.floor.iter().map(tag_line))?;
        doc.push_section("stolen", self.stolen.iter().map(tag_line))?;
        doc.push_section(
            "incidents",
            [
                format!("theft_start {}", opt_line(self.theft_start)),
                format!(
                    "open {}",
                    match self.open_incident {
                        None => "none".to_string(),
                        Some(OpenIncident::Burst { start }) => format!("burst {start}"),
                        Some(OpenIncident::Crash { start }) => format!("crash {start}"),
                    }
                ),
                format!(
                    "pending_desync_burst {}",
                    u8::from(self.pending_desync_burst)
                ),
                format!("last_burst {}", opt_line(self.last_burst)),
                format!("last_crash {}", opt_line(self.last_crash)),
                format!("last_noncalm {}", opt_line(self.last_noncalm)),
            ],
        )?;
        doc.push_section(
            "ever_stolen",
            self.ever_stolen
                .iter()
                .map(|id| format!("{:024x}", id.as_u128())),
        )?;
        doc.push_section(
            "burst_victims",
            self.burst_victims
                .iter()
                .map(|id| format!("{:024x}", id.as_u128())),
        )?;
        let k = &self.counts;
        doc.push_section(
            "counts",
            [
                format!("intact {}", k.intact),
                format!("alarms {}", k.alarms),
                format!("desynced {}", k.desynced),
                format!("resyncs {}", k.resyncs),
                format!("quarantines {}", k.quarantines),
                format!("escalations {}", k.escalations),
                format!("false_escalations {}", k.false_escalations),
                format!("thefts {}", k.thefts),
                format!("desync_bursts {}", k.desync_bursts),
                format!("crashes {}", k.crashes),
                format!("audits {}", k.audits),
            ],
        )?;
        doc.push_section("level_ticks", self.level_ticks.iter().map(u64::to_string))?;
        doc.push_section("latencies", self.latencies.iter().map(u64::to_string))?;
        doc.push_section("audit_ticks", self.audit_ticks.iter().map(u64::to_string))?;
        doc.push_section("violations", self.violations.iter().cloned())?;
        Ok(doc)
    }

    /// Rebuilds a driver from a checkpoint captured by
    /// [`capture_checkpoint`](Self::capture_checkpoint), such that
    /// stepping it from the checkpoint's `next_tick` is byte-identical
    /// to the uninterrupted run. `config` and `obs` are the run's
    /// non-durable context (the config also rides in the WAL's own
    /// config record; the caller decodes it before calling this).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidSection`] for any section that is
    /// missing or holds lines [`capture_checkpoint`]
    /// (Self::capture_checkpoint) could not have written — recovery
    /// feeds this checksummed bytes, so failures indicate version skew
    /// rather than disk corruption.
    pub(crate) fn from_checkpoint(
        config: &SoakConfig,
        obs: &'a Obs,
        doc: &CheckpointDoc,
    ) -> Result<Self, StoreError> {
        // The policy rides in the checkpoint so recovery replays under
        // exactly the ladder the run started with; checkpoints written
        // before the policy engine fall back to the config-derived
        // legacy defaults (which is what those runs executed under).
        let policy = match doc.section("policy") {
            Some(lines) => Policy::from_flat_lines(lines)
                .map_err(|e| invalid(format!("checkpoint policy: {e}")))?,
            None => config.derive_policy(),
        };
        let mut config = *config;
        config.protocol = policy.protocol;
        config.desync_window = policy.desync_window;

        let registry_text = section(doc, "registry")?.join("\n");
        let snapshot = RegistrySnapshot::from_text(&registry_text)
            .map_err(|e| invalid(format!("checkpoint registry: {e}")))?;
        let server_config = ServerConfig {
            desync_window: policy.desync_window,
            ..ServerConfig::default()
        };
        let server = MonitorServer::from_snapshot(snapshot, server_config)
            .map_err(|e| invalid(format!("checkpoint registry rejected: {e}")))?;

        let mut ladder = SessionLadderState::default();
        for line in section(doc, "ladder")? {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("alarms") => {
                    ladder.consecutive_alarms = parse_num(parts.next(), "ladder alarms")? as u32;
                }
                Some("strike") => {
                    let id = parse_id(parts.next(), "ladder strike id")?;
                    let strikes = parse_num(parts.next(), "ladder strike count")? as u32;
                    ladder.desync_strikes.push((id, strikes));
                }
                Some("quarantined") => {
                    ladder
                        .quarantined
                        .push(parse_id(parts.next(), "ladder quarantined id")?);
                }
                _ => return Err(invalid(format!("unknown ladder line `{line}`"))),
            }
        }
        let session = MonitoringSession::restore(server, policy, &ladder);

        let mut markov = MarkovChannel::presets();
        let state_line = single_line(doc, "markov")?;
        let state = parse_num(state_line.strip_prefix("state "), "markov state")? as usize;
        markov
            .restore_state(state)
            .map_err(|e| invalid(format!("checkpoint markov state: {e}")))?;

        let rng_lines = section(doc, "rng")?;
        let rng_state = |idx: usize, name: &str| -> Result<StdRng, StoreError> {
            let line = rng_lines
                .get(idx)
                .ok_or_else(|| invalid(format!("checkpoint rng missing `{name}` line")))?;
            let rest = line
                .strip_prefix(name)
                .ok_or_else(|| invalid(format!("checkpoint rng line {idx} is not `{name}`")))?;
            let mut state = [0u64; 4];
            let mut words = rest.split_whitespace();
            for slot in &mut state {
                let word = words
                    .next()
                    .ok_or_else(|| invalid(format!("checkpoint rng `{name}` too short")))?;
                *slot = u64::from_str_radix(word, 16)
                    .map_err(|_| invalid(format!("checkpoint rng `{name}` bad word")))?;
            }
            Ok(StdRng::from_state(state))
        };
        let tick_rng = rng_state(0, "tick")?;
        let markov_rng = rng_state(1, "markov")?;
        let sched_rng = rng_state(2, "sched")?;

        let mut floor = TagPopulation::new();
        for line in section(doc, "floor")? {
            floor
                .insert(parse_tag(line)?)
                .map_err(|e| invalid(format!("checkpoint floor: {e}")))?;
        }
        let stolen = section(doc, "stolen")?
            .iter()
            .map(|line| parse_tag(line))
            .collect::<Result<Vec<Tag>, StoreError>>()?;

        let incidents = section(doc, "incidents")?;
        let keyed = |idx: usize, key: &str| -> Result<&str, StoreError> {
            incidents
                .get(idx)
                .and_then(|line| line.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
                .ok_or_else(|| invalid(format!("checkpoint incidents missing `{key}`")))
        };
        let theft_start = parse_opt(keyed(0, "theft_start")?, "theft_start")?;
        let open_incident = match keyed(1, "open")?.split_whitespace().collect::<Vec<_>>()[..] {
            ["none"] => None,
            ["burst", start] => Some(OpenIncident::Burst {
                start: parse_num(Some(start), "open burst start")?,
            }),
            ["crash", start] => Some(OpenIncident::Crash {
                start: parse_num(Some(start), "open crash start")?,
            }),
            _ => return Err(invalid("checkpoint incidents bad `open` line".into())),
        };
        let pending_desync_burst =
            parse_num(Some(keyed(2, "pending_desync_burst")?), "pending flag")? != 0;
        let last_burst = parse_opt(keyed(3, "last_burst")?, "last_burst")?;
        let last_crash = parse_opt(keyed(4, "last_crash")?, "last_crash")?;
        let last_noncalm = parse_opt(keyed(5, "last_noncalm")?, "last_noncalm")?;

        let ids = |name: &str| -> Result<Vec<TagId>, StoreError> {
            section(doc, name)?
                .iter()
                .map(|line| parse_id(Some(line), name))
                .collect()
        };
        let ever_stolen = ids("ever_stolen")?;
        let burst_victims = ids("burst_victims")?;

        let count_lines = section(doc, "counts")?;
        let count = |idx: usize, key: &str| -> Result<u64, StoreError> {
            let line = count_lines
                .get(idx)
                .ok_or_else(|| invalid(format!("checkpoint counts missing `{key}`")))?;
            parse_num(line.strip_prefix(key).map(str::trim), key)
        };
        let counts = SoakCounts {
            intact: count(0, "intact")?,
            alarms: count(1, "alarms")?,
            desynced: count(2, "desynced")?,
            resyncs: count(3, "resyncs")?,
            quarantines: count(4, "quarantines")?,
            escalations: count(5, "escalations")?,
            false_escalations: count(6, "false_escalations")?,
            thefts: count(7, "thefts")?,
            desync_bursts: count(8, "desync_bursts")?,
            crashes: count(9, "crashes")?,
            audits: count(10, "audits")?,
        };

        let nums = |name: &str| -> Result<Vec<u64>, StoreError> {
            section(doc, name)?
                .iter()
                .map(|line| parse_num(Some(line), name))
                .collect()
        };
        let level_ticks = nums("level_ticks")?;
        if level_ticks.len() != markov.levels().len() {
            return Err(invalid(format!(
                "checkpoint level_ticks has {} entries, channel has {} levels",
                level_ticks.len(),
                markov.levels().len()
            )));
        }
        let latencies = nums("latencies")?;
        let audit_ticks = nums("audit_ticks")?;
        let violations = section(doc, "violations")?.to_vec();

        // A restored run gets its own session span (span trees are
        // in-memory only — they do not ride the checkpoint).
        obs.span_open(tagwatch_obs::SpanKind::Session);

        Ok(SoakDriver {
            config,
            obs,
            session,
            floor,
            markov,
            tick_rng,
            markov_rng,
            sched_rng,
            counts,
            level_ticks,
            latencies,
            audit_ticks,
            violations,
            log: Vec::new(),
            stolen,
            theft_start,
            ever_stolen,
            burst_victims,
            open_incident,
            pending_desync_burst,
            last_burst,
            last_crash,
            last_noncalm,
            log_cursor: 0,
            audit_alert: false,
        })
    }
}

/// The checkpoint's `meta` cursor: the tick the restored driver must
/// execute next (its capture preceded that tick's step).
pub(crate) fn checkpoint_next_tick(doc: &CheckpointDoc) -> Result<u64, StoreError> {
    let line = single_line(doc, "meta")?;
    parse_num(line.strip_prefix("next_tick "), "meta next_tick")
}

fn invalid(message: String) -> StoreError {
    StoreError::InvalidSection { message }
}

fn section<'d>(doc: &'d CheckpointDoc, name: &str) -> Result<&'d [String], StoreError> {
    doc.section(name)
        .ok_or_else(|| invalid(format!("checkpoint missing @section {name}")))
}

fn single_line<'d>(doc: &'d CheckpointDoc, name: &str) -> Result<&'d str, StoreError> {
    let lines = section(doc, name)?;
    match lines {
        [line] => Ok(line),
        _ => Err(invalid(format!(
            "checkpoint @section {name} must hold exactly one line"
        ))),
    }
}

fn parse_num(field: Option<&str>, what: &str) -> Result<u64, StoreError> {
    field
        .and_then(|v| v.trim().parse::<u64>().ok())
        .ok_or_else(|| invalid(format!("checkpoint bad {what}")))
}

fn parse_id(field: Option<&str>, what: &str) -> Result<TagId, StoreError> {
    field
        .and_then(|v| u128::from_str_radix(v.trim(), 16).ok())
        .map(TagId::new)
        .ok_or_else(|| invalid(format!("checkpoint bad {what}")))
}

fn parse_opt(value: &str, what: &str) -> Result<Option<u64>, StoreError> {
    if value == "none" {
        Ok(None)
    } else {
        parse_num(Some(value), what).map(Some)
    }
}

fn tag_line(tag: &Tag) -> String {
    format!(
        "{:024x} {} {}",
        tag.id().as_u128(),
        tag.counter().get(),
        u8::from(tag.is_detuned())
    )
}

fn parse_tag(line: &str) -> Result<Tag, StoreError> {
    let mut parts = line.split_whitespace();
    let id = parse_id(parts.next(), "tag id")?;
    let counter = parse_num(parts.next(), "tag counter")?;
    let detuned = parse_num(parts.next(), "tag detuned flag")? != 0;
    let mut tag = Tag::with_counter(id, Counter::new(counter));
    tag.set_detuned(detuned);
    Ok(tag)
}

fn opt_line(value: Option<u64>) -> String {
    value.map_or_else(|| "none".to_string(), |v| v.to_string())
}

/// Runs one deterministic soak and returns its report. See the module
/// docs for the channel model, incident schedule, and invariants.
///
/// [`run_soak_with`] under the config-derived policy, a disabled
/// [`Obs`], and the scalar engine: same log, same digest, same report.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] for inconsistent configs, and
/// propagates protocol errors (none are expected on a healthy run —
/// every fault the driver scripts is one the session recovers from).
pub fn run_soak(config: &SoakConfig) -> Result<SoakReport, CoreError> {
    run_soak_with(config, &config.derive_policy(), &Obs::disabled(), 1)
}

/// Runs one soak under an explicit declarative [`Policy`], recording
/// telemetry into `obs`, with the session's round engine scanning on
/// `threads` workers.
///
/// The policy's protocol and desync window override the config's (the
/// config still supplies the fleet shape and incident schedule), so
/// the report's config JSON reflects what actually ran; running under
/// [`SoakConfig::derive_policy`] is byte-identical to [`run_soak`].
/// Rounds, verdicts, resyncs, audits, and per-tick outcomes stream into
/// `obs`'s metrics and flight ring, and any invariant violation (as
/// well as any desync or quarantine inside the session) latches a
/// flight-recorder dump — returned on the report as
/// [`SoakReport::flight_dump`] — for postmortem inspection. Thread
/// count is an execution knob, not part of [`SoakConfig`]: the report
/// — log, digest, counts — is byte-identical at any value (1 = the
/// scalar engine), which `tests/determinism_digests.rs` pins against
/// the committed goldens.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] for inconsistent configs or a
/// policy that fails [`Policy::validate`], and propagates protocol
/// errors as [`run_soak`] does.
pub fn run_soak_with(
    config: &SoakConfig,
    policy: &Policy,
    obs: &Obs,
    threads: usize,
) -> Result<SoakReport, CoreError> {
    config.validate()?;
    policy.validate().map_err(|e| CoreError::InvalidParams {
        reason: format!("policy rejected: {e}"),
    })?;
    let mut driver = SoakDriver::with_policy(config, policy.clone(), obs)?;
    driver.set_threads(threads);
    driver.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(protocol: TickProtocol) -> SoakConfig {
        SoakConfig {
            ticks: 120,
            burst_period: 25,
            theft_period: 60,
            protocol,
            ..SoakConfig::default()
        }
    }

    #[test]
    fn utrp_soak_is_clean_and_exercises_every_incident_kind() {
        let report = run_soak(&short(TickProtocol::Utrp)).unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.counts.thefts >= 1);
        assert!(report.counts.desync_bursts + report.counts.crashes >= 2);
        assert!(report.counts.escalations >= 1, "{:?}", report.counts);
        assert!(!report.recovery_latencies.is_empty());
        assert_eq!(report.log.len(), 120);
    }

    #[test]
    fn trp_soak_is_clean() {
        let report = run_soak(&short(TickProtocol::Trp)).unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.counts.crashes >= 1);
        assert_eq!(report.counts.desync_bursts, 0, "TRP has no counters");
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let config = short(TickProtocol::Utrp);
        let a = run_soak(&config).unwrap();
        let b = run_soak(&config).unwrap();
        assert_eq!(a.log, b.log);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_soak(&short(TickProtocol::Utrp)).unwrap();
        let b = run_soak(&SoakConfig {
            seed: 2,
            ..short(TickProtocol::Utrp)
        })
        .unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn report_json_has_the_documented_sections() {
        let report = run_soak(&SoakConfig {
            ticks: 30,
            theft_period: 0,
            burst_period: 10,
            ..SoakConfig::default()
        })
        .unwrap();
        let json = report.to_json();
        for key in [
            "\"config\"",
            "\"counts\"",
            "\"channel_ticks\"",
            "\"recovery_latency\"",
            "\"audit_frequency\"",
            "\"violations\"",
            "\"digest\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("fnv1a:"));
    }

    #[test]
    fn observed_soak_matches_plain_and_fills_metrics() {
        let config = short(TickProtocol::Utrp);
        let plain = run_soak(&config).unwrap();
        let obs = Obs::new();
        let observed = run_soak_with(&config, &config.derive_policy(), &obs, 1).unwrap();
        assert_eq!(plain.log, observed.log);
        assert_eq!(plain.digest(), observed.digest());
        assert_eq!(plain.counts, observed.counts);
        assert!(plain.flight_dump.is_none(), "disabled obs never dumps");

        assert_eq!(obs.counter(obs.m.soak_ticks), config.ticks);
        assert_eq!(obs.counter(obs.m.soak_violations), 0);
        assert_eq!(obs.counter(obs.m.audits_total), observed.counts.audits);
        assert_eq!(obs.counter(obs.m.resync_attempts), observed.counts.resyncs);
        assert!(obs.counter(obs.m.rounds_utrp) >= config.ticks);
        assert_eq!(
            obs.counter(obs.m.verify_intact),
            observed.counts.intact,
            "final-verdict intact ticks are verified intact exactly once"
        );
        // The scripted desync bursts tripped the first-wins dump latch.
        let dump = observed.flight_dump.expect("bursts latch a desync dump");
        assert_eq!(dump.reason, "desync");
        assert!(dump.jsonl.contains("\"type\":\"tick_completed\""));
    }

    #[test]
    fn invariant_violation_dumps_are_byte_identical_across_runs() {
        // A 1-tick deadline is only met when the theft tick and the
        // next both alarm (escalation needs 2 consecutive alarms); at
        // α=0.5 the frames are small enough that some theft in this
        // seeded run deterministically slips past and trips I1. TRP
        // keeps desync/quarantine triggers out of the way, so the
        // violation itself owns the first-wins dump latch.
        let config = SoakConfig {
            ticks: 100,
            alpha: 0.5,
            protocol: TickProtocol::Trp,
            burst_period: 0,
            theft_period: 10,
            detection_deadline: 1,
            ..SoakConfig::default()
        };
        let obs_a = Obs::new();
        let obs_b = Obs::new();
        let a = run_soak_with(&config, &config.derive_policy(), &obs_a, 1).unwrap();
        let b = run_soak_with(&config, &config.derive_policy(), &obs_b, 1).unwrap();
        assert!(!a.is_clean(), "deadline of 1 must violate I1");
        assert!(a.violations.iter().any(|v| v.starts_with("I1")));
        assert!(obs_a.counter(obs_a.m.soak_violations) >= 1);

        let dump_a = a.flight_dump.expect("violation latches the dump");
        let dump_b = b.flight_dump.expect("violation latches the dump");
        assert_eq!(dump_a.reason, "invariant_violation");
        assert_eq!(dump_a, dump_b, "postmortems must be byte-identical");
        assert!(dump_a.jsonl.contains("\"type\":\"invariant_violated\""));
        assert_eq!(obs_a.snapshot_json(), obs_b.snapshot_json());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let under_tolerance = SoakConfig {
            theft_size: 2,
            m: 2,
            ..SoakConfig::default()
        };
        assert!(run_soak(&under_tolerance).is_err());
        let zero_ticks = SoakConfig {
            ticks: 0,
            ..SoakConfig::default()
        };
        assert!(run_soak(&zero_ticks).is_err());
    }

    #[test]
    fn derived_default_policy_is_byte_identical_to_config_run() {
        let config = short(TickProtocol::Utrp);
        let legacy = run_soak(&config).unwrap();
        let policy = config.derive_policy();
        let declared = run_soak_with(&config, &policy, &Obs::disabled(), 1).unwrap();
        assert_eq!(legacy.log, declared.log);
        assert_eq!(legacy.digest(), declared.digest());
        assert_eq!(legacy.to_json(), declared.to_json());
    }

    #[test]
    fn non_default_policy_changes_the_run() {
        let config = short(TickProtocol::Utrp);
        let legacy = run_soak(&config).unwrap();
        let mut policy = config.derive_policy();
        policy.alarms_to_escalate = 4;
        let declared = run_soak_with(&config, &policy, &Obs::disabled(), 1).unwrap();
        assert_ne!(
            legacy.digest(),
            declared.digest(),
            "raising the escalation threshold must change the tick log"
        );
    }

    #[test]
    fn policy_protocol_overrides_config_protocol() {
        let config = short(TickProtocol::Utrp);
        let mut policy = config.derive_policy();
        policy.protocol = TickProtocol::Trp;
        let report = run_soak_with(&config, &policy, &Obs::disabled(), 1).unwrap();
        assert_eq!(
            report.counts.desync_bursts, 0,
            "TRP has no counters, so no bursts can be scripted"
        );
        assert!(report.to_json().contains("\"protocol\": \"trp\""));
    }

    #[test]
    fn degenerate_policy_is_rejected_by_the_soak_entry_point() {
        let config = short(TickProtocol::Utrp);
        let mut policy = config.derive_policy();
        policy.alarms_to_escalate = 0;
        let err = run_soak_with(&config, &policy, &Obs::disabled(), 1).unwrap_err();
        assert!(
            format!("{err}").contains("policy rejected"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn audit_budget_breach_marks_the_log_and_emits_policy_alert() {
        let config = short(TickProtocol::Utrp);
        let mut policy = config.derive_policy();
        policy.audit_budget = Some(0);
        policy.desyncs_to_quarantine = None; // budget 0 + quarantine is degenerate
        let obs = Obs::new();
        let report = run_soak_with(&config, &policy, &obs, 1).unwrap();
        assert!(
            report.counts.audits > 0,
            "the scripted incidents must force audits"
        );
        assert!(
            report
                .log
                .iter()
                .any(|l| l.ends_with(" alert=audit-budget")),
            "a zero budget must flag every auditing tick: {:?}",
            report.log
        );
        // The first-wins dump latches at the first desync, before any
        // audit; the breach events land in the ring's retained window.
        assert!(
            obs.flight_jsonl().contains("\"type\":\"policy_alert\""),
            "breach events must reach the flight recorder"
        );
    }

    #[test]
    fn max_audits_in_window_slides_correctly() {
        let mut report = run_soak(&SoakConfig {
            ticks: 10,
            theft_period: 0,
            burst_period: 0,
            ..SoakConfig::default()
        })
        .unwrap();
        report.audit_ticks = vec![1, 2, 3, 200, 201, 500];
        assert_eq!(report.max_audits_in_window(100), 3);
        assert_eq!(report.max_audits_in_window(2), 2);
        report.audit_ticks.clear();
        assert_eq!(report.max_audits_in_window(100), 0);
    }
}
