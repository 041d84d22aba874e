//! # tagwatch-analytics
//!
//! The experiment harness behind the reproduction of the paper's
//! evaluation (§6):
//!
//! * [`montecarlo`] — single-trial bodies for each experiment (TRP
//!   detection, UTRP-vs-colluders detection, collect-all cost, false
//!   alarms).
//! * [`experiments`] — the full figure sweeps (Figs. 4–7) over the
//!   paper's `n`/`m` grid, with per-trial seed derivation so results
//!   are independent of thread count and machine.
//! * [`parallel`] — deterministic multi-core fan-out.
//! * [`pool`] — the persistent sharded round engine: worker-owned
//!   active-array shards behind parked threads, bit-identical to the
//!   scalar engine at every thread count.
//! * [`stats`] — summaries and Wilson intervals for detection rates.
//! * [`report`] — aligned tables, CSV, and spark-line rendering used by
//!   the `fig4`…`fig7` binaries in `tagwatch-bench`.
//! * [`policy`] — declarative per-site monitoring policy: the
//!   versioned `tagwatch-policy v1` text document (thresholds, audit
//!   budgets, desync windows, escalation actions) that the session
//!   interprets.
//! * [`session`] — the operational layer: continuous monitoring with
//!   alarm-threshold escalation to missing-tag identification,
//!   interpreting a [`Policy`].
//! * [`soak`] — long-horizon soak runs: thousands of session ticks
//!   against a Markov-evolving channel with scripted incident bursts,
//!   invariant checks after every tick, and a deterministic JSON
//!   report for CI regression tracking.
//! * [`durable`] — crash-safe soak twins: every tick journaled to a
//!   `tagwatch-store` write-ahead log with periodic checkpoints, so a
//!   run killed at any tick resumes to a byte-identical report, and
//!   corrupted WAL tails are excised with an attributable trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod durable;
pub mod experiments;
pub mod histogram;
pub mod montecarlo;
pub mod parallel;
pub mod policy;
pub mod pool;
pub mod report;
pub mod session;
pub mod soak;
pub mod stats;

pub use durable::{
    resume_soak_durable, resume_soak_durable_observed, run_soak_durable, run_soak_durable_observed,
    DurableConfig, DurableError, DurableOutcome, ResumeOutcome,
};
pub use experiments::{
    budget_sweep, fig4, fig4_time, fig5, fig6, fig7, pad_ablation, BudgetSweepRow, Fig4Row,
    Fig4TimeRow, Fig5Row, Fig6Row, Fig7Row, PadAblationRow, SweepConfig,
};
pub use histogram::{percentile, Histogram};
pub use montecarlo::{
    collect_all_slots_trial, trp_detection_trial, trp_false_alarm_trial, utrp_detection_cell,
    utrp_detection_trial,
};
pub use parallel::{parallel_count, parallel_map, worker_threads};
pub use policy::{EscalateAction, Policy, PolicyAction, PolicyError, POLICY_HEADER};
pub use pool::{PooledEngine, POOL_THRESHOLD};
pub use report::{sparkline, Table};
pub use session::{
    MonitoringSession, SessionBuilder, SessionEvent, SessionLadderState, TickProtocol,
};
pub use soak::{run_soak, run_soak_with, SoakConfig, SoakCounts, SoakReport};
pub use stats::{Proportion, Summary};
