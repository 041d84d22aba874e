//! Protocol-generic round execution.
//!
//! TRP and UTRP share a lifecycle — issue a challenge, run the round in
//! the field through a [`RoundExecutor`], verify the response — but the
//! concrete calls differ per protocol, and before this module every
//! consumer (the session layer, the CLI scenarios, the soak driver)
//! spelled both arms out by hand. [`Protocol`] captures the lifecycle
//! once; [`Trp`] and [`Utrp`] are its two implementations, and callers
//! like `MonitoringSession` dispatch statically on them.
//!
//! One deliberate semantic lives here rather than in the server: a
//! response so malformed that verification *errors* with
//! [`CoreError::ResponseShapeMismatch`] (e.g. scripted truncation in
//! transit) is reported as a [`Verdict::NotIntact`] alarm instead of
//! propagating the error. The challenge is already spent, so field
//! counters may have advanced while the mirror did not — exactly the
//! fail-safe posture the fault matrix expects: transport corruption may
//! cost a false alarm, never a silent false "intact". Faultless
//! executors can never produce a shape mismatch, so the mapping is
//! unobservable on the fault-free path.

use rand::Rng;

use tagwatch_obs::{Obs, ObsEvent};
use tagwatch_sim::TagPopulation;

use crate::engine::RoundEngine;
use crate::error::CoreError;
use crate::executor::RoundExecutor;
use crate::server::MonitorServer;
use crate::verdict::{MonitorReport, ProtocolKind, Verdict};

/// One monitoring protocol's challenge → field round → verify cycle.
///
/// The `run_round` method is generic over the RNG, so the trait is not
/// object-safe; consumers dispatch statically (e.g. by matching a
/// protocol-kind enum), which also keeps the hot Monte-Carlo paths
/// monomorphized.
pub trait Protocol {
    /// Which protocol this is.
    fn kind(&self) -> ProtocolKind;

    /// Runs one full round: issue a challenge from `server`, execute it
    /// over `floor` through `executor`, verify, and return the report.
    ///
    /// `scratch` is the caller's reusable round engine (a
    /// [`RoundScratch`](crate::engine::RoundScratch) or the pooled sharded engine in
    /// `tagwatch-analytics`): long-running drivers pass the same
    /// engine every tick so rounds stop churning the allocator, and
    /// UTRP rounds drive both the field simulation and the server's
    /// mirror prediction through it. It never affects semantics — a
    /// fresh engine, a reused one, and any thread count produce
    /// byte-identical rounds. TRP rounds carry no re-seed state and
    /// leave it untouched.
    ///
    /// `obs` receives the round's telemetry: a round span around the
    /// whole cycle, the executor's round metrics, and the verification
    /// outcome (verdict counters, hamming-distance histogram, a
    /// `verified` flight event, and an automatic flight dump on a
    /// [`Verdict::Desynced`] outcome). The report does not depend on
    /// it; pass [`Obs::disabled`] for none, at the cost of a handful of
    /// untaken branches.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors other than the response-shape mapping
    /// described in the module docs (e.g. [`CoreError::CounterDesync`]
    /// when issuing a UTRP challenge over an untrusted mirror).
    fn run_round<E: RoundEngine, R: Rng + ?Sized>(
        &self,
        server: &mut MonitorServer,
        floor: &mut TagPopulation,
        executor: &RoundExecutor,
        scratch: &mut E,
        rng: &mut R,
        obs: &Obs,
    ) -> Result<MonitorReport, CoreError>;
}

/// Records one verification outcome into the registry and flight
/// ring. A desynced verdict is a dump trigger: the mirror disagreed
/// with the field, and the event window leading up to it is exactly
/// what a postmortem needs.
fn record_report(obs: &Obs, report: &MonitorReport) {
    if !obs.enabled() {
        return;
    }
    match &report.verdict {
        Verdict::Intact => obs.inc(obs.m.verify_intact),
        Verdict::NotIntact => obs.inc(obs.m.verify_alarm),
        Verdict::Desynced { .. } => obs.inc(obs.m.verify_desynced),
    }
    // Verification re-walks the mirror frame slot by slot, so the
    // phase's deterministic cost is the frame size; it issues no
    // scan-engine probes.
    obs.span_phase(tagwatch_obs::Phase::Verify, report.frame_size, 0);
    obs.observe(obs.m.hamming_distance, report.mismatched_slots as f64);
    obs.emit(ObsEvent::Verified {
        proto: report.protocol.obs_kind(),
        verdict: report.verdict.obs_kind(),
        mismatched: report.mismatched_slots as u64,
        late: report.late,
    });
    if report.verdict.is_desynced() {
        obs.capture_dump("desync");
    }
}

/// A malformed response (wrong bitstring length) is an alarm, not an
/// error: the fail-safe mapping described in the module docs.
fn alarm_on_shape_mismatch(
    result: Result<MonitorReport, CoreError>,
    protocol: ProtocolKind,
    frame_size: u64,
) -> Result<MonitorReport, CoreError> {
    match result {
        Err(CoreError::ResponseShapeMismatch { .. }) => Ok(MonitorReport {
            protocol,
            verdict: Verdict::NotIntact,
            frame_size,
            mismatched_slots: 0,
            late: false,
            elapsed: None,
        }),
        other => other,
    }
}

/// The Trusted Reader Protocol (paper §4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Trp;

impl Protocol for Trp {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Trp
    }

    fn run_round<E: RoundEngine, R: Rng + ?Sized>(
        &self,
        server: &mut MonitorServer,
        floor: &mut TagPopulation,
        executor: &RoundExecutor,
        _scratch: &mut E,
        rng: &mut R,
        obs: &Obs,
    ) -> Result<MonitorReport, CoreError> {
        // The round span brackets challenge, field round and verify so
        // phase costs inside attribute to it; close on error paths too.
        obs.span_open(tagwatch_obs::SpanKind::Round);
        let result = (|| {
            let challenge = server.issue_trp_challenge(rng)?;
            let f = challenge.frame_size().get();
            let bs = executor.run_trp_observed(floor, &challenge, rng, obs)?;
            let report =
                alarm_on_shape_mismatch(server.verify_trp(challenge, &bs), ProtocolKind::Trp, f)?;
            record_report(obs, &report);
            Ok(report)
        })();
        obs.span_close();
        result
    }
}

/// The Untrusted Reader Protocol (paper §5), with an honest reader in
/// the field (the adversarial-reader analysis lives in `tagwatch-attack`
/// and the Monte-Carlo harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Utrp;

impl Protocol for Utrp {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Utrp
    }

    fn run_round<E: RoundEngine, R: Rng + ?Sized>(
        &self,
        server: &mut MonitorServer,
        floor: &mut TagPopulation,
        executor: &RoundExecutor,
        scratch: &mut E,
        rng: &mut R,
        obs: &Obs,
    ) -> Result<MonitorReport, CoreError> {
        obs.span_open(tagwatch_obs::SpanKind::Round);
        let result = (|| {
            let timing = server.config().timing;
            let challenge = server.issue_utrp_challenge(rng)?;
            let f = challenge.frame_size().get();
            let response = executor
                .run_utrp_scratch_observed(floor, &challenge, &timing, rng, scratch, obs)?;
            let report = alarm_on_shape_mismatch(
                server.verify_utrp_with(challenge, &response, scratch),
                ProtocolKind::Utrp,
                f,
            )?;
            record_report(obs, &report);
            Ok(report)
        })();
        obs.span_close();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoundScratch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::{Channel, FaultPlan};

    fn setup(n: usize, m: u64) -> (MonitorServer, TagPopulation) {
        let floor = TagPopulation::with_sequential_ids(n);
        let server = MonitorServer::new(floor.ids(), m, 0.95).unwrap();
        (server, floor)
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(Trp.kind(), ProtocolKind::Trp);
        assert_eq!(Utrp.kind(), ProtocolKind::Utrp);
    }

    #[test]
    fn trp_round_over_ideal_executor_matches_manual_flow() {
        let (mut manual_server, floor) = setup(120, 4);
        let (mut protocol_server, mut protocol_floor) = setup(120, 4);

        // Manual flow (the pre-refactor call sequence)...
        let mut rng_a = StdRng::seed_from_u64(9);
        let challenge = manual_server.issue_trp_challenge(&mut rng_a).unwrap();
        let bs = crate::trp::observed_bitstring(&floor.ids(), &challenge);
        let manual = manual_server.verify_trp(challenge, &bs).unwrap();

        // ...and the protocol-generic flow under the same seed.
        let mut rng_b = StdRng::seed_from_u64(9);
        let generic = Trp
            .run_round(
                &mut protocol_server,
                &mut protocol_floor,
                &RoundExecutor::ideal(),
                &mut RoundScratch::new(),
                &mut rng_b,
                &Obs::disabled(),
            )
            .unwrap();
        assert_eq!(manual, generic);
        assert!(generic.verdict.is_intact());
    }

    #[test]
    fn utrp_round_maintains_the_mirror() {
        let (mut server, mut floor) = setup(80, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..3 {
            let report = Utrp
                .run_round(
                    &mut server,
                    &mut floor,
                    &RoundExecutor::ideal(),
                    &mut RoundScratch::new(),
                    &mut rng,
                    &Obs::disabled(),
                )
                .unwrap();
            assert!(report.verdict.is_intact());
        }
        for tag in floor.iter() {
            assert_eq!(server.counter_of(tag.id()).unwrap(), tag.counter());
        }
    }

    #[test]
    fn truncated_response_is_an_alarm_not_an_error() {
        use crate::server::ServerConfig;
        let mut floor = TagPopulation::with_sequential_ids(50);
        // Diagnosis needs a window covering a whole lost round's
        // announcement advance (up to ~n).
        let config = ServerConfig {
            desync_window: 128,
            ..ServerConfig::default()
        };
        let mut server = MonitorServer::with_config(floor.ids(), 2, 0.95, config).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let executor = RoundExecutor::new(
            Channel::ideal(),
            Some(FaultPlan::new().truncate_response(8)),
        );
        let report = Utrp
            .run_round(
                &mut server,
                &mut floor,
                &executor,
                &mut RoundScratch::new(),
                &mut rng,
                &Obs::disabled(),
            )
            .unwrap();
        assert!(report.is_alarm());
        assert!(report.verdict.is_alarm());
        // The challenge was spent against the field but never verified:
        // the field advanced while the mirror did not, so the *next*
        // clean round is diagnosed as a uniform mirror lag.
        let next = Utrp
            .run_round(
                &mut server,
                &mut floor,
                &RoundExecutor::ideal(),
                &mut RoundScratch::new(),
                &mut rng,
                &Obs::disabled(),
            )
            .unwrap();
        assert!(
            matches!(&next.verdict, Verdict::Desynced { suspects } if suspects.is_empty()),
            "{next:?}"
        );

        let trp_report = Trp
            .run_round(
                &mut server,
                &mut floor,
                &executor,
                &mut RoundScratch::new(),
                &mut rng,
                &Obs::disabled(),
            )
            .unwrap();
        assert!(trp_report.is_alarm(), "TRP truncation must alarm too");
    }

    #[test]
    fn theft_beyond_tolerance_alarms() {
        let (mut server, mut floor) = setup(200, 3);
        let mut rng = StdRng::seed_from_u64(2);
        floor.remove_random(4, &mut rng).unwrap();
        let report = Trp
            .run_round(
                &mut server,
                &mut floor,
                &RoundExecutor::ideal(),
                &mut RoundScratch::new(),
                &mut rng,
                &Obs::disabled(),
            )
            .unwrap();
        assert!(report.is_alarm());
    }
}
