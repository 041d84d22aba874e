//! Continuous monitoring sessions with escalation.
//!
//! The paper's protocols are single rounds; an actual deployment runs
//! them on a schedule and must decide what to do when a round alarms.
//! [`MonitoringSession`] implements the operational loop the
//! introduction implies:
//!
//! 1. **Routine** ticks run cheap TRP rounds (or UTRP when the reader
//!    is untrusted), dispatched through the protocol-generic
//!    [`Protocol`] trait and executed by a [`RoundExecutor`] — ideal by
//!    default ([`MonitoringSession::tick`]), or carrying a lossy
//!    channel and scripted faults ([`MonitoringSession::tick_with`]).
//! 2. A UTRP tick that comes back [`tagwatch_core::Verdict::Desynced`]
//!    is **retried**: the session applies the server's diagnosed
//!    counter hypothesis
//!    ([`MonitorServer::resync_from_hypothesis`]) and re-challenges
//!    with *fresh nonces* (challenges are consumed by value, so a
//!    replay is unrepresentable), up to a bounded retry budget.
//!    Suspect tags accumulate **desync strikes**; repeat offenders are
//!    **quarantined** for physical audit.
//! 3. A configurable number of **consecutive alarms** (to ride out
//!    transient blocking) escalates to **identification** — the
//!    iterative bitstring protocol of `tagwatch_core::identify` — which
//!    names the missing tags without ever collecting IDs on the air.
//!    A desynced round that exhausts its retry budget counts toward
//!    this ladder too: faults may cost retries or page an operator,
//!    but never produce a silent false "intact".
//! 4. The session keeps an auditable event log, and exposes the two
//!    operator actions long-horizon drivers need:
//!    [`audit_resync`](MonitoringSession::audit_resync) (a physical
//!    audit that re-trusts the counter mirror) and
//!    [`release_quarantined`](MonitoringSession::release_quarantined)
//!    (returning audited tags to service).
//!
//! The ladder is a **policy interpreter**: every threshold it consults
//! comes from a declarative [`Policy`] (see [`crate::policy`]), and
//! each decision it takes — an in-tick resync retry, a quarantine, an
//! escalation, an audited release — is recorded as a [`PolicyAction`]
//! on the session's [policy trace](MonitoringSession::policy_trace)
//! alongside the event log. Build a [`Policy`] directly (struct
//! update over [`Policy::default`], a parsed `tagwatch-policy v1`
//! document, or the fluent [`SessionBuilder`] knobs).

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;

use tagwatch_core::identify::{identify_missing, IdentifyConfig};
use tagwatch_core::protocol::{Protocol, Trp, Utrp};
use tagwatch_core::trp::observed_bitstring;
use tagwatch_core::{CoreError, MonitorReport, MonitorServer, RoundExecutor};
use tagwatch_obs::{Obs, ObsEvent};
use tagwatch_sim::{TagId, TagPopulation};

use crate::policy::{EscalateAction, Policy, PolicyAction};
use crate::pool::PooledEngine;

/// Which protocol routine ticks use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TickProtocol {
    /// Trusted reader: plain TRP rounds.
    Trp,
    /// Untrusted reader: UTRP rounds (counter mirror maintained).
    Utrp,
}

/// Fluent builder for [`MonitoringSession`]: wraps a server and a
/// [`Policy`] seeded with the documented defaults, so the common
/// knobs chain directly without spelling out a whole document. For
/// anything the knobs don't cover (site label, audit budgets,
/// escalation action), build the [`Policy`] by struct update or parse
/// a `tagwatch-policy v1` document and pass it to
/// [`SessionBuilder::policy`].
#[derive(Debug)]
pub struct SessionBuilder {
    server: MonitorServer,
    policy: Policy,
}

impl SessionBuilder {
    /// Applies one knob mutation to the policy under construction.
    fn apply(mut self, f: impl FnOnce(&mut Policy)) -> Self {
        f(&mut self.policy);
        self
    }

    /// Replaces the whole policy at once (e.g. a parsed document).
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Protocol for routine ticks (default [`TickProtocol::Trp`]).
    #[must_use]
    pub fn protocol(self, protocol: TickProtocol) -> Self {
        self.apply(|p| p.protocol = protocol)
    }

    /// Consecutive alarming ticks before escalation (default 2).
    #[must_use]
    pub fn alarms_to_escalate(self, count: u32) -> Self {
        self.apply(|p| p.alarms_to_escalate = count)
    }

    /// In-tick desync re-challenge budget (default 3).
    #[must_use]
    pub fn max_desync_retries(self, count: u32) -> Self {
        self.apply(|p| p.max_desync_retries = count)
    }

    /// Desync strikes before quarantine (default 2; values `<= 1`
    /// quarantine on the first offense).
    #[must_use]
    pub fn desyncs_to_quarantine(self, count: u32) -> Self {
        self.apply(|p| p.desyncs_to_quarantine = Some(count.max(1)))
    }

    /// Identification configuration for escalations.
    #[must_use]
    pub fn identify(self, config: IdentifyConfig) -> Self {
        self.apply(|p| p.identify = config)
    }

    /// Finalizes the session.
    #[must_use]
    pub fn build(self) -> MonitoringSession {
        MonitoringSession::new(self.server, self.policy)
    }
}

/// One entry in the session's audit log.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// A routine round completed (intact or alarming).
    Checked(MonitorReport),
    /// A round came back desynced; the session applied the server's
    /// diagnosed hypothesis to the counter mirror and (while the retry
    /// budget lasted) re-challenged with fresh nonces.
    Resynced {
        /// 1-based resync count within the current tick.
        attempt: u32,
        /// The hypothesis's suspect tags (empty for a uniform mirror
        /// lag, e.g. after a reader crash lost a round's advance).
        suspects: Vec<TagId>,
    },
    /// Tags crossed the desync-strike threshold and were quarantined
    /// for physical audit.
    Quarantined {
        /// The newly quarantined tags.
        tags: Vec<TagId>,
    },
    /// Consecutive alarms crossed the threshold; identification ran and
    /// produced a verdict on every tag.
    Escalated {
        /// Tags proven missing.
        missing: Vec<TagId>,
        /// Tags left unresolved within the round budget (normally
        /// empty).
        unresolved: Vec<TagId>,
        /// Slots the identification cost.
        slots_used: u64,
    },
}

impl SessionEvent {
    /// Whether this event should page an operator. A [`Resynced`]
    /// recovery is routine; a [`Quarantined`] tag needs a physical
    /// audit. [`Checked`] events defer to
    /// [`Verdict::is_alarm`](tagwatch_core::Verdict::is_alarm) through
    /// the report, keeping the alarm notion consistent across layers.
    ///
    /// [`Resynced`]: SessionEvent::Resynced
    /// [`Quarantined`]: SessionEvent::Quarantined
    /// [`Checked`]: SessionEvent::Checked
    #[must_use]
    pub fn is_alarm(&self) -> bool {
        match self {
            SessionEvent::Checked(report) => report.is_alarm(),
            SessionEvent::Resynced { .. } => false,
            SessionEvent::Quarantined { .. } => true,
            SessionEvent::Escalated {
                missing,
                unresolved,
                ..
            } => !missing.is_empty() || !unresolved.is_empty(),
        }
    }

    /// The desync suspects carried by this event, if any: the
    /// session-layer view of
    /// [`Verdict::suspects`](tagwatch_core::Verdict::suspects).
    #[must_use]
    pub fn suspects(&self) -> &[TagId] {
        match self {
            SessionEvent::Checked(report) => report.verdict.suspects(),
            SessionEvent::Resynced { suspects, .. } => suspects,
            _ => &[],
        }
    }
}

/// The escalation-ladder state a [`MonitoringSession`] must carry
/// across a restart: everything beyond the server itself that
/// influences future ticks. Collections are in ascending tag order, so
/// captures of behaviorally identical sessions are identical values —
/// the property checkpoint digests rely on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionLadderState {
    /// Alarming ticks since the last intact tick or escalation.
    pub consecutive_alarms: u32,
    /// Desync strikes per suspect tag, ascending by tag.
    pub desync_strikes: Vec<(TagId, u32)>,
    /// Tags quarantined for physical audit, ascending.
    pub quarantined: Vec<TagId>,
}

/// A long-running monitoring loop over one tag set, interpreting a
/// declarative [`Policy`].
#[derive(Debug)]
pub struct MonitoringSession {
    server: MonitorServer,
    policy: Policy,
    consecutive_alarms: u32,
    desync_strikes: BTreeMap<TagId, u32>,
    quarantined: BTreeSet<TagId>,
    log: Vec<SessionEvent>,
    // The interpreter's decision record: one PolicyAction per ladder
    // decision, parallel to (and as unbounded as) the event log.
    policy_trace: Vec<PolicyAction>,
    // Reusable field-round state: every tick runs its UTRP round in
    // this engine, so a long-lived session allocates round buffers
    // once instead of once per tick. Single-threaded by default (the
    // scalar engine, byte-identical to the pre-pool sessions);
    // `set_threads` swaps in a persistent worker pool for large
    // populations without changing any observable.
    engine: PooledEngine,
}

impl MonitoringSession {
    /// Starts a session under a declarative [`Policy`]. Prefer
    /// [`MonitoringSession::builder`] or a parsed policy document in
    /// new code; this remains the primitive they finalize into.
    #[must_use]
    pub fn new(server: MonitorServer, policy: Policy) -> Self {
        MonitoringSession {
            server,
            policy,
            consecutive_alarms: 0,
            desync_strikes: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            log: Vec::new(),
            policy_trace: Vec::new(),
            engine: PooledEngine::new(1),
        }
    }

    /// Captures the session's escalation-ladder state for a durable
    /// checkpoint. The audit log is deliberately *not* captured:
    /// drivers consume it through a cursor within a tick, so at a tick
    /// boundary the retained prefix is purely diagnostic and a
    /// restored session may start from an empty log.
    #[must_use]
    pub fn ladder_state(&self) -> SessionLadderState {
        SessionLadderState {
            consecutive_alarms: self.consecutive_alarms,
            desync_strikes: self
                .desync_strikes
                .iter()
                .map(|(&id, &strikes)| (id, strikes))
                .collect(),
            quarantined: self.quarantined.iter().copied().collect(),
        }
    }

    /// Rebuilds a session from a restored server and a captured ladder
    /// — the warm-restart twin of [`MonitoringSession::new`]. The
    /// restored session starts with an empty audit log and fresh round
    /// scratch; continuing from it is behaviorally indistinguishable
    /// from the uninterrupted session (same verdicts, same RNG draws,
    /// same events appended from here on).
    #[must_use]
    pub fn restore(server: MonitorServer, policy: Policy, ladder: &SessionLadderState) -> Self {
        MonitoringSession {
            server,
            policy,
            consecutive_alarms: ladder.consecutive_alarms,
            desync_strikes: ladder.desync_strikes.iter().copied().collect(),
            quarantined: ladder.quarantined.iter().copied().collect(),
            log: Vec::new(),
            policy_trace: Vec::new(),
            engine: PooledEngine::new(1),
        }
    }

    /// Sets how many worker threads the session's round engine scans
    /// with. `1` (the default) is the scalar engine; higher counts
    /// swap in a persistent worker pool whose shards split the
    /// active-tag arrays. Purely an execution knob: every observable —
    /// verdicts, logs, digests, RNG stream — is byte-identical at any
    /// thread count, so this is deliberately *not* part of the
    /// declarative [`Policy`] (and never serialized into durable
    /// state).
    pub fn set_threads(&mut self, threads: usize) {
        if self.engine.threads() != threads.max(1) {
            self.engine = PooledEngine::new(threads);
        }
    }

    /// Worker threads the round engine currently scans with (1 =
    /// scalar).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Starts a session builder over `server`, with every policy knob
    /// at its documented default.
    #[must_use]
    pub fn builder(server: MonitorServer) -> SessionBuilder {
        SessionBuilder {
            server,
            policy: Policy::default(),
        }
    }

    /// The underlying server (counters, history, policy).
    #[must_use]
    pub fn server(&self) -> &MonitorServer {
        &self.server
    }

    /// The session's effective declarative policy.
    #[must_use]
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The audit log, oldest first.
    #[must_use]
    pub fn log(&self) -> &[SessionEvent] {
        &self.log
    }

    /// The declarative decisions the policy interpreter has taken,
    /// oldest first — one [`PolicyAction`] per ladder decision (resync
    /// retry, quarantine, escalation, audited release), parallel to
    /// the event log.
    #[must_use]
    pub fn policy_trace(&self) -> &[PolicyAction] {
        &self.policy_trace
    }

    /// Alarming ticks since the last intact tick or escalation.
    #[must_use]
    pub fn consecutive_alarms(&self) -> u32 {
        self.consecutive_alarms
    }

    /// Desync strikes recorded against one tag.
    #[must_use]
    pub fn desync_strikes(&self, id: TagId) -> u32 {
        self.desync_strikes.get(&id).copied().unwrap_or(0)
    }

    /// Tags currently quarantined for physical audit, ascending.
    #[must_use]
    pub fn quarantined(&self) -> Vec<TagId> {
        self.quarantined.iter().copied().collect()
    }

    /// Operator action: a **physical audit** of the floor. Reads every
    /// present tag's true counter into the server mirror
    /// ([`MonitorServer::resync_counters`]), which re-trusts the mirror
    /// after an alarming UTRP round left it unsynchronized. Tags not on
    /// the floor (e.g. stolen) keep their mirrored values; once they
    /// return, audit again.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTag`] if the floor holds a tag the
    /// server never registered.
    pub fn audit_resync(&mut self, floor: &TagPopulation) -> Result<(), CoreError> {
        self.server
            .resync_counters(floor.iter().map(|t| (t.id(), t.counter())))
    }

    /// Operator action: returns audited tags to service — removes them
    /// from quarantine and clears their desync strikes. Returns the
    /// tags that were actually quarantined (unknown/unquarantined IDs
    /// are ignored).
    ///
    /// A non-empty release is logged on the policy trace as
    /// [`PolicyAction::ReleaseAudited`], and recorded into `obs`: the
    /// audit is counted along with the time the released tags spent
    /// quarantined (`latency_ticks`, tracked by the driver).
    pub fn release_quarantined<I: IntoIterator<Item = TagId>>(
        &mut self,
        tags: I,
        latency_ticks: u64,
        obs: &Obs,
    ) -> Vec<TagId> {
        let mut released = Vec::new();
        for tag in tags {
            if self.quarantined.remove(&tag) {
                self.desync_strikes.remove(&tag);
                released.push(tag);
            }
        }
        if !released.is_empty() {
            self.policy_trace.push(PolicyAction::ReleaseAudited {
                released: released.len(),
            });
            obs.inc(obs.m.audits_total);
            obs.observe(obs.m.audit_latency_ticks, latency_ticks as f64);
            obs.set_gauge(obs.m.quarantine_occupancy, self.quarantined.len() as u64);
            obs.emit(ObsEvent::AuditCompleted {
                released: released.len() as u64,
                latency_ticks,
            });
        }
        released
    }

    /// Records one desync strike per suspect and returns the tags that
    /// just crossed the policy's quarantine threshold (always empty
    /// when the policy disables quarantine — strikes still accumulate
    /// for diagnostics).
    fn strike(&mut self, suspects: &[TagId]) -> Vec<TagId> {
        let mut newly = Vec::new();
        for &tag in suspects {
            let strikes = self.desync_strikes.entry(tag).or_insert(0);
            *strikes += 1;
            let Some(threshold) = self.policy.desyncs_to_quarantine else {
                continue;
            };
            if *strikes >= threshold.max(1) && self.quarantined.insert(tag) {
                newly.push(tag);
            }
        }
        newly
    }

    /// Runs one scheduled check over the ideal channel with no faults
    /// and no observer: [`tick_with`](MonitoringSession::tick_with)
    /// under [`RoundExecutor::ideal`] and [`Obs::disabled`],
    /// byte-identically.
    ///
    /// # Errors
    ///
    /// See [`tick_with`](MonitoringSession::tick_with).
    pub fn tick<R: Rng + ?Sized>(
        &mut self,
        floor: &mut TagPopulation,
        rng: &mut R,
    ) -> Result<&SessionEvent, CoreError> {
        self.tick_with(floor, &RoundExecutor::ideal(), rng, &Obs::disabled())
    }

    /// Runs one scheduled check against the physical floor through
    /// `executor`, interpreting the session's [`Policy`]: escalation
    /// when the alarm threshold is reached, in-tick desync recovery,
    /// strike-driven quarantine. Returns the event appended to the
    /// log. Round and verdict telemetry flows into `obs` and every
    /// ladder decision is recorded into it as it climbs; with a
    /// disabled [`Obs`] the tick is behaviorally identical — same log,
    /// same RNG stream — so drivers thread one code path and pay for
    /// telemetry only when it is on.
    ///
    /// A UTRP check that comes back [`Verdict::Desynced`] is recovered
    /// in-tick: the diagnosed hypothesis is applied to the counter
    /// mirror and the check reruns with a *fresh* challenge, up to
    /// [`Policy::max_desync_retries`] times. Each recovery logs a
    /// [`SessionEvent::Resynced`] (and a [`PolicyAction::RetryResync`]
    /// on the policy trace) and strikes the suspects; a desync that
    /// outlives the budget counts as an alarming tick. An observed
    /// quarantine transition is a postmortem trigger: it latches the
    /// flight-recorder dump (first trigger wins).
    ///
    /// Escalation runs the policy's [`EscalateAction`]:
    /// [`Identify`](EscalateAction::Identify) re-scans over the ideal
    /// channel (a deliberate, controlled re-inventory rather than the
    /// routine round's radio conditions);
    /// [`Report`](EscalateAction::Report) records the escalation with
    /// empty verdicts and spends no identification rounds.
    ///
    /// [`Verdict::Desynced`]: tagwatch_core::Verdict::Desynced
    ///
    /// # Errors
    ///
    /// Propagates protocol errors (e.g. a desynchronized counter mirror
    /// when ticking with UTRP — resolve via
    /// [`audit_resync`](MonitoringSession::audit_resync)).
    pub fn tick_with<R: Rng + ?Sized>(
        &mut self,
        floor: &mut TagPopulation,
        executor: &RoundExecutor,
        rng: &mut R,
        obs: &Obs,
    ) -> Result<&SessionEvent, CoreError> {
        let report = match self.policy.protocol {
            TickProtocol::Trp => Trp.run_round(
                &mut self.server,
                floor,
                executor,
                &mut self.engine,
                rng,
                obs,
            )?,
            TickProtocol::Utrp => {
                let mut attempt = 0u32;
                let report = loop {
                    let report = Utrp.run_round(
                        &mut self.server,
                        floor,
                        executor,
                        &mut self.engine,
                        rng,
                        obs,
                    )?;
                    if !report.verdict.is_desynced() {
                        break report;
                    }
                    // Diagnosed desync: apply the hypothesis so
                    // monitoring can continue, strike the suspects, and
                    // re-challenge with fresh nonces while the retry
                    // budget lasts.
                    let suspects = self.server.resync_from_hypothesis()?;
                    attempt += 1;
                    self.policy_trace.push(PolicyAction::RetryResync {
                        attempt,
                        suspects: suspects.len(),
                    });
                    obs.inc(obs.m.resync_attempts);
                    obs.emit(ObsEvent::Resynced {
                        attempt: u64::from(attempt),
                        suspects: suspects.len() as u64,
                    });
                    self.log.push(SessionEvent::Resynced {
                        attempt,
                        suspects: suspects.clone(),
                    });
                    let newly = self.strike(&suspects);
                    if !newly.is_empty() {
                        if let Some(threshold) = self.policy.desyncs_to_quarantine {
                            self.policy_trace.push(PolicyAction::Quarantine {
                                tags: newly.len(),
                                threshold,
                            });
                        }
                        obs.inc(obs.m.quarantine_events);
                        obs.set_gauge(obs.m.quarantine_occupancy, self.quarantined.len() as u64);
                        obs.emit(ObsEvent::Quarantined {
                            tags: newly.len() as u64,
                            occupancy: self.quarantined.len() as u64,
                        });
                        obs.capture_dump("quarantine");
                        self.log.push(SessionEvent::Quarantined { tags: newly });
                    }
                    if attempt > self.policy.max_desync_retries {
                        break report;
                    }
                };
                if attempt > 0 {
                    obs.observe(obs.m.resync_depth, f64::from(attempt));
                    if !report.verdict.is_desynced() {
                        obs.inc(obs.m.resync_successes);
                    }
                }
                report
            }
        };

        // A desync that exhausted its retries never silently passes —
        // it climbs the same ladder as an alarm.
        if report.is_alarm() || report.verdict.is_desynced() {
            self.consecutive_alarms += 1;
        } else {
            self.consecutive_alarms = 0;
        }

        if self.consecutive_alarms >= self.policy.alarms_to_escalate {
            let after_alarms = self.consecutive_alarms;
            self.consecutive_alarms = 0;
            self.policy_trace.push(PolicyAction::Escalate {
                action: self.policy.escalate_action,
                after_alarms,
            });
            let (missing, unresolved, slots_used) = match self.policy.escalate_action {
                EscalateAction::Identify => {
                    let registry = self.server.registered_ids();
                    let audible: Vec<TagId> = floor
                        .iter()
                        .filter(|t| !t.is_detuned())
                        .map(|t| t.id())
                        .collect();
                    let outcome =
                        identify_missing(&registry, self.policy.identify, rng, |challenge| {
                            Ok(observed_bitstring(&audible, challenge))
                        })?;
                    (outcome.missing, outcome.unresolved, outcome.slots_used)
                }
                EscalateAction::Report => (Vec::new(), Vec::new(), 0),
            };
            obs.inc(obs.m.escalations);
            obs.emit(ObsEvent::Escalated {
                missing: missing.len() as u64,
                unresolved: unresolved.len() as u64,
                slots_used,
            });
            self.log.push(SessionEvent::Checked(report));
            self.log.push(SessionEvent::Escalated {
                missing,
                unresolved,
                slots_used,
            });
        } else {
            self.log.push(SessionEvent::Checked(report));
        }
        // lint:allow(s2-panic): a SessionEvent was pushed on every branch directly above
        Ok(self.log.last().expect("just pushed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_core::utrp::run_honest_reader;

    fn session(n: usize, m: u64, policy: Policy) -> (MonitoringSession, TagPopulation) {
        let floor = TagPopulation::with_sequential_ids(n);
        let server = MonitorServer::new(floor.ids(), m, 0.95).unwrap();
        (MonitoringSession::new(server, policy), floor)
    }

    #[test]
    fn quiet_floor_never_escalates() {
        let (mut session, mut floor) = session(200, 5, Policy::default());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..15 {
            let event = session.tick(&mut floor, &mut rng).unwrap();
            assert!(!event.is_alarm());
        }
        assert_eq!(session.log().len(), 15);
        assert!(session
            .log()
            .iter()
            .all(|e| matches!(e, SessionEvent::Checked(_))));
    }

    #[test]
    fn persistent_theft_escalates_and_names_the_tags() {
        let (mut session, mut floor) = session(300, 5, Policy::default());
        let mut rng = StdRng::seed_from_u64(2);

        // Warm-up tick, then the theft.
        session.tick(&mut floor, &mut rng).unwrap();
        let stolen = floor.remove_random(8, &mut rng).unwrap();
        let mut stolen_ids: Vec<TagId> = stolen.iter().map(|t| t.id()).collect();
        stolen_ids.sort_unstable();

        // Tick until escalation (2 consecutive alarms at default policy;
        // each alarming tick has prob > 0.95, so a handful of ticks
        // suffice deterministically under this seed).
        let mut escalated = None;
        for _ in 0..10 {
            session.tick(&mut floor, &mut rng).unwrap();
            if let Some(SessionEvent::Escalated { missing, .. }) = session.log().last() {
                escalated = Some(missing.clone());
                break;
            }
        }
        let missing = escalated.expect("escalation never happened");
        assert_eq!(missing, stolen_ids);
    }

    #[test]
    fn transient_blocking_rides_out_below_threshold() {
        let policy = Policy {
            alarms_to_escalate: 3,
            ..Policy::default()
        };
        let (mut session, mut floor) = session(200, 5, policy);
        let mut rng = StdRng::seed_from_u64(3);
        let ids = floor.ids();

        // One tick with a blocked tag (may alarm), then unblock.
        floor.get_mut(ids[0]).unwrap().set_detuned(true);
        session.tick(&mut floor, &mut rng).unwrap();
        floor.get_mut(ids[0]).unwrap().set_detuned(false);

        // Healthy ticks reset the counter; no escalation ever fires.
        for _ in 0..5 {
            session.tick(&mut floor, &mut rng).unwrap();
        }
        assert_eq!(session.consecutive_alarms(), 0);
        assert!(session
            .log()
            .iter()
            .all(|e| matches!(e, SessionEvent::Checked(_))));
    }

    #[test]
    fn utrp_sessions_maintain_the_counter_mirror() {
        let policy = Policy {
            protocol: TickProtocol::Utrp,
            ..Policy::default()
        };
        let (mut session, mut floor) = session(100, 3, policy);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let event = session.tick(&mut floor, &mut rng).unwrap();
            assert!(!event.is_alarm());
        }
        // Mirror still exact.
        for tag in floor.iter() {
            assert_eq!(
                session.server().counter_of(tag.id()).unwrap(),
                tag.counter()
            );
        }
    }

    #[test]
    fn desynced_tick_resyncs_and_rechallenges() {
        use tagwatch_core::ServerConfig;
        // A round runs in the field but its response never reaches the
        // server: the mirror lags the whole population uniformly.
        let mut floor = TagPopulation::with_sequential_ids(60);
        let config = ServerConfig {
            desync_window: 64,
            ..ServerConfig::default()
        };
        let server = MonitorServer::with_config(floor.ids(), 3, 0.9, config).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let timing = server.config().timing;
        let lost = server.issue_utrp_challenge(&mut rng).unwrap();
        run_honest_reader(&mut floor, &lost, &timing).unwrap();

        let policy = Policy {
            protocol: TickProtocol::Utrp,
            ..Policy::default()
        };
        let mut session = MonitoringSession::new(server, policy);
        let event = session.tick(&mut floor, &mut rng).unwrap();
        // The tick self-healed: resync + fresh challenge ended intact.
        assert!(
            matches!(event, SessionEvent::Checked(r) if r.verdict.is_intact()),
            "{event:?}"
        );
        assert_eq!(session.consecutive_alarms(), 0);
        assert!(session.log().iter().any(|e| matches!(
            e,
            SessionEvent::Resynced { suspects, .. } if suspects.is_empty()
        )));
        assert!(
            session.quarantined().is_empty(),
            "uniform lag has no suspects"
        );
        for _ in 0..3 {
            assert!(!session.tick(&mut floor, &mut rng).unwrap().is_alarm());
        }
    }

    #[test]
    fn repeated_desync_suspect_is_quarantined_then_released() {
        use tagwatch_core::faulty::run_honest_reader_with;
        use tagwatch_core::utrp::attributed_round;
        use tagwatch_core::ServerConfig;
        use tagwatch_sim::{Channel, Counter, FaultPlan};

        let mut floor = TagPopulation::with_sequential_ids(25);
        let config = ServerConfig {
            desync_window: 8,
            ..ServerConfig::default()
        };
        let mut server = MonitorServer::with_config(floor.ids(), 2, 0.9, config).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let timing = server.config().timing;

        // Round 1 (outside the session): the first-slot replier misses
        // the round's last announcement — the round verifies intact but
        // its counter silently falls one behind the mirror.
        let ch1 = server.issue_utrp_challenge(&mut rng).unwrap();
        let registry: Vec<(TagId, Counter)> = server
            .registered_ids()
            .into_iter()
            .map(|id| (id, Counter::ZERO))
            .collect();
        let (dry, attribution) = attributed_round(&registry, &ch1).unwrap();
        let first_slot = dry.bitstring.iter_ones().next().unwrap();
        let victim = attribution[first_slot][0];
        let plan = FaultPlan::new().lose_announcement(dry.announcements - 1, [victim]);
        let response = run_honest_reader_with(
            &mut floor,
            &ch1,
            &timing,
            &Channel::ideal(),
            &plan,
            &mut rng,
        )
        .unwrap();
        assert!(server
            .verify_utrp(ch1, &response)
            .unwrap()
            .verdict
            .is_intact());

        // First offense quarantines under this policy.
        let mut session = MonitoringSession::builder(server)
            .protocol(TickProtocol::Utrp)
            .desyncs_to_quarantine(1)
            .build();
        let event = session.tick(&mut floor, &mut rng).unwrap();
        assert!(
            matches!(event, SessionEvent::Checked(r) if r.verdict.is_intact()),
            "{event:?}"
        );
        assert!(session.log().iter().any(|e| matches!(
            e,
            SessionEvent::Resynced { suspects, .. } if suspects == &[victim]
        )));
        assert!(session.log().iter().any(|e| matches!(
            e,
            SessionEvent::Quarantined { tags } if tags == &[victim]
        )));
        assert_eq!(session.quarantined(), vec![victim]);
        assert_eq!(session.desync_strikes(victim), 1);
        // The interpreter recorded its decisions declaratively.
        assert!(session.policy_trace().contains(&PolicyAction::RetryResync {
            attempt: 1,
            suspects: 1
        }));
        assert!(session.policy_trace().contains(&PolicyAction::Quarantine {
            tags: 1,
            threshold: 1
        }));

        // The operator audits the tag and returns it to service.
        let released = session.release_quarantined([victim, TagId::new(999)], 0, &Obs::disabled());
        assert_eq!(released, vec![victim]);
        assert!(session.quarantined().is_empty());
        assert_eq!(session.desync_strikes(victim), 0);
        assert_eq!(
            session.policy_trace().last(),
            Some(&PolicyAction::ReleaseAudited { released: 1 })
        );
    }

    #[test]
    fn zero_retry_budget_counts_desync_toward_escalation() {
        use tagwatch_core::ServerConfig;
        let mut floor = TagPopulation::with_sequential_ids(60);
        let config = ServerConfig {
            desync_window: 64,
            ..ServerConfig::default()
        };
        let server = MonitorServer::with_config(floor.ids(), 3, 0.9, config).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let timing = server.config().timing;
        let lost = server.issue_utrp_challenge(&mut rng).unwrap();
        run_honest_reader(&mut floor, &lost, &timing).unwrap();

        let policy = Policy {
            protocol: TickProtocol::Utrp,
            max_desync_retries: 0,
            alarms_to_escalate: 3,
            ..Policy::default()
        };
        let mut session = MonitoringSession::new(server, policy);
        let event = session.tick(&mut floor, &mut rng).unwrap();
        // No retry: the desynced report stands and climbs the ladder...
        assert!(
            matches!(event, SessionEvent::Checked(r) if r.verdict.is_desynced()),
            "{event:?}"
        );
        assert_eq!(session.consecutive_alarms(), 1);
        // ...but the mirror was still recovered, so the next tick is
        // intact and resets the counter.
        let event = session.tick(&mut floor, &mut rng).unwrap();
        assert!(!event.is_alarm());
        assert_eq!(session.consecutive_alarms(), 0);
    }

    #[test]
    fn escalation_resets_the_alarm_counter() {
        let policy = Policy {
            alarms_to_escalate: 1,
            ..Policy::default()
        };
        let (mut session, mut floor) = session(150, 2, policy);
        let mut rng = StdRng::seed_from_u64(5);
        floor.remove_random(5, &mut rng).unwrap();
        session.tick(&mut floor, &mut rng).unwrap();
        assert!(matches!(
            session.log().last(),
            Some(SessionEvent::Escalated { .. })
        ));
        assert_eq!(session.consecutive_alarms(), 0);
    }

    #[test]
    fn builders_mirror_the_documented_defaults() {
        let floor = TagPopulation::with_sequential_ids(20);
        let server = MonitorServer::new(floor.ids(), 1, 0.9).unwrap();
        let session = MonitoringSession::builder(server).build();
        assert_eq!(*session.policy(), Policy::default());

        let expected = Policy {
            protocol: TickProtocol::Utrp,
            alarms_to_escalate: 4,
            max_desync_retries: 1,
            desyncs_to_quarantine: Some(7),
            ..Policy::default()
        };
        let floor = TagPopulation::with_sequential_ids(20);
        let server = MonitorServer::new(floor.ids(), 1, 0.9).unwrap();
        let session = MonitoringSession::builder(server)
            .protocol(TickProtocol::Utrp)
            .alarms_to_escalate(4)
            .max_desync_retries(1)
            .desyncs_to_quarantine(7)
            .build();
        // The fluent knobs build exactly the declarative policy.
        assert_eq!(*session.policy(), expected);
    }

    #[test]
    fn tick_is_byte_identical_to_tick_with_ideal_executor() {
        // The unified-executor regression: the convenience tick and an
        // explicit ideal executor must produce identical logs, server
        // histories, and RNG streams.
        use rand::Rng as _;
        for protocol in [TickProtocol::Trp, TickProtocol::Utrp] {
            let policy = Policy {
                protocol,
                ..Policy::default()
            };
            let (mut a, mut floor_a) = session(120, 3, policy.clone());
            let (mut b, mut floor_b) = session(120, 3, policy);
            let mut rng_a = StdRng::seed_from_u64(31);
            let mut rng_b = StdRng::seed_from_u64(31);
            let ideal = RoundExecutor::ideal();
            for _ in 0..4 {
                a.tick(&mut floor_a, &mut rng_a).unwrap();
                b.tick_with(&mut floor_b, &ideal, &mut rng_b, &Obs::disabled())
                    .unwrap();
            }
            assert_eq!(a.log(), b.log(), "{protocol:?}");
            assert_eq!(a.server().history(), b.server().history());
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG diverged");
        }
    }

    #[test]
    fn observed_tick_matches_plain_and_counts_rounds() {
        use rand::Rng as _;
        use tagwatch_obs::Obs;
        for (protocol, enabled) in [
            (TickProtocol::Trp, true),
            (TickProtocol::Trp, false),
            (TickProtocol::Utrp, true),
            (TickProtocol::Utrp, false),
        ] {
            let policy = Policy {
                protocol,
                ..Policy::default()
            };
            let (mut a, mut floor_a) = session(120, 3, policy.clone());
            let (mut b, mut floor_b) = session(120, 3, policy);
            let mut rng_a = StdRng::seed_from_u64(31);
            let mut rng_b = StdRng::seed_from_u64(31);
            let ideal = RoundExecutor::ideal();
            let obs = if enabled { Obs::new() } else { Obs::disabled() };
            for _ in 0..4 {
                a.tick_with(&mut floor_a, &ideal, &mut rng_a, &Obs::disabled())
                    .unwrap();
                b.tick_with(&mut floor_b, &ideal, &mut rng_b, &obs).unwrap();
            }
            assert_eq!(a.log(), b.log(), "{protocol:?} enabled={enabled}");
            assert_eq!(a.server().history(), b.server().history());
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG diverged");
            let expected = if enabled { 4 } else { 0 };
            assert_eq!(obs.counter(obs.m.rounds_total), expected);
        }
    }

    #[test]
    fn observed_desync_records_resync_telemetry() {
        use tagwatch_core::ServerConfig;
        use tagwatch_obs::Obs;
        let mut floor = TagPopulation::with_sequential_ids(60);
        let config = ServerConfig {
            desync_window: 64,
            ..ServerConfig::default()
        };
        let server = MonitorServer::with_config(floor.ids(), 3, 0.9, config).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let timing = server.config().timing;
        let lost = server.issue_utrp_challenge(&mut rng).unwrap();
        run_honest_reader(&mut floor, &lost, &timing).unwrap();

        let policy = Policy {
            protocol: TickProtocol::Utrp,
            ..Policy::default()
        };
        let mut session = MonitoringSession::new(server, policy);
        let obs = Obs::new();
        let ideal = RoundExecutor::ideal();
        let event = session
            .tick_with(&mut floor, &ideal, &mut rng, &obs)
            .unwrap();
        assert!(matches!(event, SessionEvent::Checked(r) if r.verdict.is_intact()));
        assert_eq!(obs.counter(obs.m.resync_attempts), 1);
        assert_eq!(obs.counter(obs.m.resync_successes), 1);
        assert_eq!(obs.counter(obs.m.verify_desynced), 1);
        assert_eq!(obs.counter(obs.m.verify_intact), 1);
        // The desync latched a postmortem dump with the lead-up events.
        let dump = obs.dump().expect("desync latches the flight dump");
        assert_eq!(dump.reason, "desync");
    }

    #[test]
    fn observed_quarantine_latches_dump_and_audit_records_latency() {
        use tagwatch_core::faulty::run_honest_reader_with;
        use tagwatch_core::utrp::attributed_round;
        use tagwatch_core::ServerConfig;
        use tagwatch_obs::Obs;
        use tagwatch_sim::{Channel, Counter, FaultPlan};

        let mut floor = TagPopulation::with_sequential_ids(25);
        let config = ServerConfig {
            desync_window: 8,
            ..ServerConfig::default()
        };
        let mut server = MonitorServer::with_config(floor.ids(), 2, 0.9, config).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let timing = server.config().timing;

        let ch1 = server.issue_utrp_challenge(&mut rng).unwrap();
        let registry: Vec<(TagId, Counter)> = server
            .registered_ids()
            .into_iter()
            .map(|id| (id, Counter::ZERO))
            .collect();
        let (dry, attribution) = attributed_round(&registry, &ch1).unwrap();
        let first_slot = dry.bitstring.iter_ones().next().unwrap();
        let victim = attribution[first_slot][0];
        let plan = FaultPlan::new().lose_announcement(dry.announcements - 1, [victim]);
        let response = run_honest_reader_with(
            &mut floor,
            &ch1,
            &timing,
            &Channel::ideal(),
            &plan,
            &mut rng,
        )
        .unwrap();
        assert!(server
            .verify_utrp(ch1, &response)
            .unwrap()
            .verdict
            .is_intact());

        let mut session = MonitoringSession::builder(server)
            .protocol(TickProtocol::Utrp)
            .desyncs_to_quarantine(1)
            .build();
        let obs = Obs::new();
        let ideal = RoundExecutor::ideal();
        session
            .tick_with(&mut floor, &ideal, &mut rng, &obs)
            .unwrap();
        assert_eq!(session.quarantined(), vec![victim]);
        assert_eq!(obs.counter(obs.m.quarantine_events), 1);
        assert_eq!(obs.gauge(obs.m.quarantine_occupancy), 1);
        // The desync verdict fired first, so the first-wins latch names
        // it; the quarantine trigger is a no-op afterwards.
        assert!(obs.dump().is_some());

        let released = session.release_quarantined([victim], 3, &obs);
        assert_eq!(released, vec![victim]);
        assert_eq!(obs.counter(obs.m.audits_total), 1);
        assert_eq!(obs.gauge(obs.m.quarantine_occupancy), 0);
        assert!(obs
            .flight_jsonl()
            .contains("\"type\":\"audit_completed\",\"released\":1,\"latency_ticks\":3"));
    }

    #[test]
    fn ladder_capture_restore_is_a_warm_restart() {
        use rand::Rng as _;
        use tagwatch_core::ServerConfig;

        let policy = Policy {
            protocol: TickProtocol::Utrp,
            desyncs_to_quarantine: Some(1),
            ..Policy::default()
        };
        let (mut original, mut floor_a) = session(80, 3, policy.clone());
        let mut rng_a = StdRng::seed_from_u64(21);
        for _ in 0..3 {
            original.tick(&mut floor_a, &mut rng_a).unwrap();
        }

        // Capture at a tick boundary, rebuild, and continue both.
        let ladder = original.ladder_state();
        let server =
            MonitorServer::from_snapshot(original.server().snapshot(), ServerConfig::default())
                .unwrap();
        let mut restored = MonitoringSession::restore(server, policy, &ladder);
        assert_eq!(restored.ladder_state(), ladder);
        assert!(restored.log().is_empty(), "restored log starts empty");

        let mut floor_b = floor_a.clone();
        let mut rng_b = rng_a.clone();
        let before = original.log().len();
        for _ in 0..4 {
            original.tick(&mut floor_a, &mut rng_a).unwrap();
            restored.tick(&mut floor_b, &mut rng_b).unwrap();
        }
        assert_eq!(&original.log()[before..], restored.log());
        assert_eq!(original.ladder_state(), restored.ladder_state());
        assert_eq!(original.server().snapshot(), restored.server().snapshot());
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG diverged");
    }

    #[test]
    fn faulty_tick_with_truncation_alarms_and_audit_recovers() {
        use tagwatch_core::ServerConfig;
        use tagwatch_sim::{Channel, FaultPlan};

        let mut floor = TagPopulation::with_sequential_ids(60);
        let config = ServerConfig {
            desync_window: 128,
            ..ServerConfig::default()
        };
        let server = MonitorServer::with_config(floor.ids(), 3, 0.9, config).unwrap();
        let mut session = MonitoringSession::builder(server)
            .protocol(TickProtocol::Utrp)
            .alarms_to_escalate(10)
            .build();
        let mut rng = StdRng::seed_from_u64(8);

        // Truncated response: an alarm, never an error or silent pass.
        let truncating = RoundExecutor::new(
            Channel::ideal(),
            Some(FaultPlan::new().truncate_response(8)),
        );
        let event = session
            .tick_with(&mut floor, &truncating, &mut rng, &Obs::disabled())
            .unwrap();
        assert!(event.is_alarm());

        // The spent challenge advanced the field but not the mirror; the
        // next clean tick diagnoses the uniform lead and self-heals.
        let event = session.tick(&mut floor, &mut rng).unwrap();
        assert!(
            matches!(event, SessionEvent::Checked(r) if r.verdict.is_intact()),
            "{event:?}"
        );

        // audit_resync is idempotent on a healthy floor.
        session.audit_resync(&floor).unwrap();
        assert!(session.server().counters_synced());
        assert!(!session.tick(&mut floor, &mut rng).unwrap().is_alarm());
    }

    #[test]
    fn observed_tick_is_byte_identical_to_unobserved() {
        use rand::Rng as _;
        use tagwatch_obs::Obs;
        let policy = Policy {
            protocol: TickProtocol::Utrp,
            ..Policy::default()
        };
        let (mut a, mut floor_a) = session(120, 3, policy.clone());
        let (mut b, mut floor_b) = session(120, 3, policy);
        let mut rng_a = StdRng::seed_from_u64(31);
        let mut rng_b = StdRng::seed_from_u64(31);
        let ideal = RoundExecutor::ideal();
        let obs_a = Obs::new();
        for _ in 0..4 {
            a.tick_with(&mut floor_a, &ideal, &mut rng_a, &obs_a)
                .unwrap();
            b.tick_with(&mut floor_b, &ideal, &mut rng_b, &Obs::disabled())
                .unwrap();
        }
        assert_eq!(a.log(), b.log());
        assert_eq!(a.policy_trace(), b.policy_trace());
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG diverged");
        assert!(obs_a.counter(obs_a.m.rounds_total) > 0);
        assert_eq!(
            a.release_quarantined([TagId::new(0)], 1, &obs_a),
            b.release_quarantined([TagId::new(0)], 1, &Obs::disabled())
        );
    }

    #[test]
    fn report_escalation_spends_no_identification_rounds() {
        let policy = Policy {
            alarms_to_escalate: 1,
            escalate_action: EscalateAction::Report,
            ..Policy::default()
        };
        let floor = TagPopulation::with_sequential_ids(150);
        let server = MonitorServer::new(floor.ids(), 2, 0.95).unwrap();
        let mut session = MonitoringSession::new(server, policy);
        let mut floor = floor;
        let mut rng = StdRng::seed_from_u64(5);
        floor.remove_random(5, &mut rng).unwrap();
        session.tick(&mut floor, &mut rng).unwrap();
        // The ladder topped out, but the policy prescribes a log-only
        // escalation: no identification ran, no tags were named.
        assert!(matches!(
            session.log().last(),
            Some(SessionEvent::Escalated {
                missing,
                unresolved,
                slots_used: 0
            }) if missing.is_empty() && unresolved.is_empty()
        ));
        assert!(session.policy_trace().contains(&PolicyAction::Escalate {
            action: EscalateAction::Report,
            after_alarms: 1
        }));
    }

    #[test]
    fn quarantine_off_accumulates_strikes_without_quarantining() {
        let policy = Policy {
            desyncs_to_quarantine: None,
            ..Policy::default()
        };
        let floor = TagPopulation::with_sequential_ids(10);
        let server = MonitorServer::new(floor.ids(), 2, 0.95).unwrap();
        let mut session = MonitoringSession::new(server, policy);
        let tag = floor.ids()[0];
        for _ in 0..5 {
            assert!(session.strike(&[tag]).is_empty());
        }
        assert_eq!(session.desync_strikes(tag), 5);
        assert!(session.quarantined().is_empty());
    }
}
