//! Structured telemetry events.
//!
//! [`ObsEvent`] is the flight-recorder vocabulary: one compact,
//! heap-free variant per protocol-level happening (a round completing,
//! a verdict, a resync rung, a quarantine transition, a soak invariant
//! tripping). Events deliberately carry plain integers rather than
//! domain types so this crate stays a leaf — the layers above map
//! their richer types down when they emit into the bounded
//! [`FlightRecorder`](crate::FlightRecorder).

use std::fmt::Write as _;

/// Which protocol an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoKind {
    /// Trusted Reader Protocol.
    Trp,
    /// Untrusted Reader Protocol.
    Utrp,
}

impl ProtoKind {
    /// Lower-case wire name used in JSONL exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProtoKind::Trp => "trp",
            ProtoKind::Utrp => "utrp",
        }
    }
}

/// A verdict, flattened for telemetry (suspect lists stay in the
/// domain layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// No evidence of missing tags.
    Intact,
    /// Alarm: the response is inconsistent with an intact population.
    NotIntact,
    /// The mismatch is explained by counter desynchronization.
    Desynced,
}

impl VerdictKind {
    /// Lower-case wire name used in JSONL exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            VerdictKind::Intact => "intact",
            VerdictKind::NotIntact => "not_intact",
            VerdictKind::Desynced => "desynced",
        }
    }
}

/// One flight-recorder event. All variants are `Copy` and heap-free:
/// emitting an event is a couple of word writes into the ring, never
/// an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObsEvent {
    /// A field round finished (either protocol, any executor).
    RoundCompleted {
        /// Protocol that ran the round.
        proto: ProtoKind,
        /// Frame size of the round.
        frame: u64,
        /// Occupied (reply) slots observed.
        occupied: u64,
        /// UTRP re-seeds performed (0 for TRP).
        reseeds: u64,
        /// Simulated scanning time in microseconds (0 when the round
        /// carries no timing, e.g. TRP).
        elapsed_us: u64,
    },
    /// The server verified a response.
    Verified {
        /// Protocol verified.
        proto: ProtoKind,
        /// The flattened verdict.
        verdict: VerdictKind,
        /// Hamming distance between expected and observed bitstrings.
        mismatched: u64,
        /// Whether the response missed the round deadline.
        late: bool,
    },
    /// A resync ladder rung succeeded.
    Resynced {
        /// 1-based attempt number that succeeded.
        attempt: u64,
        /// Suspects carried by the accepted desync hypothesis.
        suspects: u64,
    },
    /// Tags entered quarantine.
    Quarantined {
        /// Tags quarantined by this transition.
        tags: u64,
        /// Total quarantine occupancy afterwards.
        occupancy: u64,
    },
    /// The session escalated to full identification.
    Escalated {
        /// Missing tags named by identification.
        missing: u64,
        /// Alarmed-but-unattributed tags.
        unresolved: u64,
        /// Identification slots consumed.
        slots_used: u64,
    },
    /// A quarantine audit completed.
    AuditCompleted {
        /// Tags released back to monitored status.
        released: u64,
        /// Ticks the audited tags spent quarantined.
        latency_ticks: u64,
    },
    /// One soak tick finished.
    TickCompleted {
        /// Tick index.
        tick: u64,
        /// The tick's verdict.
        verdict: VerdictKind,
    },
    /// A soak invariant was violated (the postmortem trigger).
    InvariantViolated {
        /// Tick at which the violation was detected.
        tick: u64,
        /// Invariant number (1–3, matching `SoakReport` docs).
        invariant: u8,
    },
    /// A declarative policy limit was breached (e.g. the audit budget
    /// for the trailing window was exhausted). Advisory: the session
    /// keeps running, but the breach is on the record.
    PolicyAlert {
        /// Tick at which the breach was detected.
        tick: u64,
        /// Audits observed inside the trailing window.
        audits: u64,
        /// The policy's budget for that window.
        budget: u64,
        /// Window length in ticks.
        window: u64,
    },
    /// Durable-state recovery excised a damaged WAL tail (the
    /// attributable trace of a crash or corruption — a recovered run
    /// is never silently presented as an uninterrupted one).
    StoreRecovered {
        /// Corruption classification code (`tagwatch-store`'s
        /// `CorruptionKind::code`).
        kind: u8,
        /// Byte offset where the damage began (= intact prefix
        /// length).
        offset: u64,
        /// Trailing bytes dropped to restore a valid log.
        dropped: u64,
    },
}

impl ObsEvent {
    /// Appends this event as one JSON object line (no trailing
    /// newline) with the given sequence number. Field order is fixed,
    /// all values are integers, strings or booleans — byte-stable
    /// across runs and platforms.
    pub fn write_json(&self, seq: u64, out: &mut String) {
        let _ = match *self {
            ObsEvent::RoundCompleted {
                proto,
                frame,
                occupied,
                reseeds,
                elapsed_us,
            } => write!(
                out,
                "{{\"seq\":{seq},\"type\":\"round_completed\",\"proto\":\"{}\",\"frame\":{frame},\"occupied\":{occupied},\"reseeds\":{reseeds},\"elapsed_us\":{elapsed_us}}}",
                proto.name()
            ),
            ObsEvent::Verified {
                proto,
                verdict,
                mismatched,
                late,
            } => write!(
                out,
                "{{\"seq\":{seq},\"type\":\"verified\",\"proto\":\"{}\",\"verdict\":\"{}\",\"mismatched\":{mismatched},\"late\":{late}}}",
                proto.name(),
                verdict.name()
            ),
            ObsEvent::Resynced { attempt, suspects } => write!(
                out,
                "{{\"seq\":{seq},\"type\":\"resynced\",\"attempt\":{attempt},\"suspects\":{suspects}}}"
            ),
            ObsEvent::Quarantined { tags, occupancy } => write!(
                out,
                "{{\"seq\":{seq},\"type\":\"quarantined\",\"tags\":{tags},\"occupancy\":{occupancy}}}"
            ),
            ObsEvent::Escalated {
                missing,
                unresolved,
                slots_used,
            } => write!(
                out,
                "{{\"seq\":{seq},\"type\":\"escalated\",\"missing\":{missing},\"unresolved\":{unresolved},\"slots_used\":{slots_used}}}"
            ),
            ObsEvent::AuditCompleted {
                released,
                latency_ticks,
            } => write!(
                out,
                "{{\"seq\":{seq},\"type\":\"audit_completed\",\"released\":{released},\"latency_ticks\":{latency_ticks}}}"
            ),
            ObsEvent::TickCompleted { tick, verdict } => write!(
                out,
                "{{\"seq\":{seq},\"type\":\"tick_completed\",\"tick\":{tick},\"verdict\":\"{}\"}}",
                verdict.name()
            ),
            ObsEvent::InvariantViolated { tick, invariant } => write!(
                out,
                "{{\"seq\":{seq},\"type\":\"invariant_violated\",\"tick\":{tick},\"invariant\":{invariant}}}"
            ),
            ObsEvent::PolicyAlert {
                tick,
                audits,
                budget,
                window,
            } => write!(
                out,
                "{{\"seq\":{seq},\"type\":\"policy_alert\",\"tick\":{tick},\"audits\":{audits},\"budget\":{budget},\"window\":{window}}}"
            ),
            ObsEvent::StoreRecovered {
                kind,
                offset,
                dropped,
            } => write!(
                out,
                "{{\"seq\":{seq},\"type\":\"store_recovered\",\"kind\":{kind},\"offset\":{offset},\"dropped\":{dropped}}}"
            ),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_stable() {
        let mut out = String::new();
        ObsEvent::RoundCompleted {
            proto: ProtoKind::Utrp,
            frame: 64,
            occupied: 12,
            reseeds: 11,
            elapsed_us: 1500,
        }
        .write_json(3, &mut out);
        assert_eq!(
            out,
            "{\"seq\":3,\"type\":\"round_completed\",\"proto\":\"utrp\",\"frame\":64,\"occupied\":12,\"reseeds\":11,\"elapsed_us\":1500}"
        );
    }

    #[test]
    fn store_recovered_json_is_stable() {
        let mut out = String::new();
        ObsEvent::StoreRecovered {
            kind: 3,
            offset: 4096,
            dropped: 17,
        }
        .write_json(9, &mut out);
        assert_eq!(
            out,
            "{\"seq\":9,\"type\":\"store_recovered\",\"kind\":3,\"offset\":4096,\"dropped\":17}"
        );
    }

    #[test]
    fn policy_alert_json_is_stable() {
        let mut out = String::new();
        ObsEvent::PolicyAlert {
            tick: 42,
            audits: 6,
            budget: 5,
            window: 100,
        }
        .write_json(11, &mut out);
        assert_eq!(
            out,
            "{\"seq\":11,\"type\":\"policy_alert\",\"tick\":42,\"audits\":6,\"budget\":5,\"window\":100}"
        );
    }

    #[test]
    fn verdicts_and_protocols_have_wire_names() {
        assert_eq!(VerdictKind::NotIntact.name(), "not_intact");
        assert_eq!(ProtoKind::Trp.name(), "trp");
    }
}
