//! Acceptance gates for deterministic span tracing: the phase rollup
//! must account for the engine's cost-clock totals *exactly* (the
//! telescoping slot identity), and span artifacts must be
//! byte-identical across runs and thread counts — same contract the
//! metrics snapshot already honors.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagwatch_analytics::soak::{run_soak_with, SoakConfig};
use tagwatch_analytics::{MonitoringSession, Policy, TickProtocol};
use tagwatch_core::executor::RoundExecutor;
use tagwatch_core::server::MonitorServer;
use tagwatch_obs::{to_prometheus_text, Obs, Phase};
use tagwatch_sim::TagPopulation;

fn session(n: usize, protocol: TickProtocol) -> (MonitoringSession, TagPopulation) {
    let floor = TagPopulation::with_sequential_ids(n);
    let server = MonitorServer::new(floor.ids(), 3, 0.95).expect("valid server");
    let policy = Policy {
        protocol,
        ..Policy::default()
    };
    (MonitoringSession::new(server, policy), floor)
}

/// The telescoping identity: every slot the executor charges to
/// `slots_total` is attributed to exactly one of min-scan / re-seed
/// (a reply at relative slot `rel` elapses `rel + 1` slots of its
/// sub-frame, silence elapses the remainder), and every probe to one
/// of them as well. The rollup must match the counters to the slot —
/// 100% attribution, comfortably above the 95% acceptance floor.
#[test]
fn utrp_rollup_attributes_every_slot_and_probe() {
    let (mut session, mut floor) = session(500, TickProtocol::Utrp);
    let mut rng = StdRng::seed_from_u64(9);
    let ideal = RoundExecutor::ideal();
    let obs = Obs::new();
    for _ in 0..12 {
        session
            .tick_with(&mut floor, &ideal, &mut rng, &obs)
            .expect("tick runs");
    }
    let rollup = obs.span_rollup();
    let scan_slots = rollup.phase(Phase::MinScan).slots + rollup.phase(Phase::ReSeed).slots;
    let scan_probes = rollup.phase(Phase::MinScan).probes + rollup.phase(Phase::ReSeed).probes;
    assert!(obs.counter(obs.m.slots_total) > 0, "rounds actually ran");
    assert_eq!(
        scan_slots,
        obs.counter(obs.m.slots_total),
        "min-scan + re-seed slots must telescope to slots_total exactly"
    );
    assert_eq!(
        scan_probes,
        obs.counter(obs.m.probes_total),
        "phase probes must cover the engine's probe total exactly"
    );
    // The verify mirror re-walks every frame, so its slot cost equals
    // the field rounds' slot total.
    assert_eq!(
        rollup.phase(Phase::Verify).slots,
        obs.counter(obs.m.slots_total)
    );
    assert_eq!(
        rollup.phase(Phase::SubFrameSetup).entries,
        rollup.phase(Phase::MinScan).entries + rollup.phase(Phase::ReSeed).entries,
        "one sub-frame setup per announcement"
    );
}

/// Same identity for the trusted-reader protocol: a TRP round is one
/// framed announcement whose whole frame is min-scan cost.
#[test]
fn trp_rollup_attributes_every_slot() {
    let (mut session, mut floor) = session(300, TickProtocol::Trp);
    let mut rng = StdRng::seed_from_u64(17);
    let ideal = RoundExecutor::ideal();
    let obs = Obs::new();
    for _ in 0..8 {
        session
            .tick_with(&mut floor, &ideal, &mut rng, &obs)
            .expect("tick runs");
    }
    let rollup = obs.span_rollup();
    assert!(obs.counter(obs.m.slots_total) > 0);
    assert_eq!(
        rollup.phase(Phase::MinScan).slots,
        obs.counter(obs.m.slots_total)
    );
    assert_eq!(rollup.phase(Phase::ReSeed).slots, 0, "TRP never re-seeds");
    assert_eq!(
        rollup.phase(Phase::Verify).slots,
        obs.counter(obs.m.slots_total)
    );
}

/// Span artifacts ride the cost clock, not wall time, so the JSONL
/// tree — parents, ordinals, per-phase costs — must be byte-identical
/// across runs and across thread counts, pool engaged or not.
#[test]
fn span_jsonl_is_byte_identical_across_runs_and_threads() {
    let config = SoakConfig {
        seed: 11,
        ticks: 6,
        n: 10_000,
        protocol: TickProtocol::Utrp,
        ..SoakConfig::default()
    };
    let mut baseline: Option<String> = None;
    for threads in [1usize, 1, 3] {
        let obs = Obs::new();
        run_soak_with(&config, &config.derive_policy(), &obs, threads).expect("soak runs");
        let jsonl = obs.spans_jsonl();
        assert!(
            jsonl.lines().count() > config.ticks as usize,
            "tree holds at least one span per tick plus the rollup"
        );
        match &baseline {
            Some(expected) => assert_eq!(
                &jsonl, expected,
                "span tree must be byte-identical (threads={threads})"
            ),
            None => baseline = Some(jsonl),
        }
    }
}

/// The Prometheus body is a rendering of the same registry the golden
/// digest pins, so at the golden configuration it must be
/// byte-identical across runs and thread counts too.
#[test]
fn prometheus_text_is_byte_identical_across_runs_and_threads() {
    let config = SoakConfig {
        seed: 7,
        ticks: 50,
        ..SoakConfig::default()
    };
    let mut baseline: Option<String> = None;
    for threads in [1usize, 1, 2, 3] {
        let obs = Obs::new();
        run_soak_with(&config, &config.derive_policy(), &obs, threads).expect("soak runs");
        let body = to_prometheus_text(&obs);
        assert!(body.contains("# TYPE tagwatch_rounds_total counter"));
        match &baseline {
            Some(expected) => assert_eq!(
                &body, expected,
                "prometheus body must be byte-identical (threads={threads})"
            ),
            None => baseline = Some(body),
        }
    }
}

/// Tick spans nest under the session span and the rollup counts every
/// tick, even though fault-plan rounds run outside the engine's
/// observed fast path.
#[test]
fn soak_span_tree_has_session_and_tick_structure() {
    let config = SoakConfig {
        seed: 3,
        ticks: 5,
        ..SoakConfig::default()
    };
    let obs = Obs::new();
    run_soak_with(&config, &config.derive_policy(), &obs, 1).expect("soak runs");
    let rollup = obs.span_rollup();
    assert_eq!(rollup.ticks, 5);
    let jsonl = obs.spans_jsonl();
    assert!(jsonl.contains("\"kind\":\"session\""));
    assert!(jsonl.contains("\"kind\":\"tick\""));
    assert!(jsonl.contains("\"kind\":\"round\""));
    assert!(
        !jsonl.contains("\"open\":true"),
        "finish must close every span"
    );
    assert!(
        jsonl.contains("\"wall_ns\":null"),
        "no clock injected: wall decoration stays null"
    );
}
