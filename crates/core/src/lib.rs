//! # tagwatch-core
//!
//! The monitoring protocols of Tan, Sheng & Li, *"How to Monitor for
//! Missing RFID Tags"* (ICDCS 2008): detect that **more than `m`** of
//! `n` registered RFID tags are missing, with confidence **≥ α**,
//! *without collecting a single tag ID over the air*.
//!
//! ## The idea
//!
//! Low-cost tags pick their framed-slotted-ALOHA reply slot
//! deterministically: `sn = h(id ⊕ r) mod f`. A server that knows every
//! ID can therefore precompute the exact occupancy bitstring an intact
//! set must produce for any challenge `(f, r)` — so the reader only
//! reports one bit per slot, and a single frame replaces a full
//! inventory. Frame sizing (how large must `f` be so that `m + 1`
//! missing tags are noticed with probability `> α`) is Theorem 1 /
//! Eq. 2, implemented in [`math`] and [`frame`].
//!
//! ## The two protocols
//!
//! * [`trp`] — **Trusted Reader Protocol**: the single-frame scheme
//!   above.
//! * [`utrp`] — **Untrusted Reader Protocol**: hardens TRP against a
//!   dishonest reader colluding with an accomplice who holds the stolen
//!   tags, via per-reply re-seeding, tag hardware counters, and a
//!   response deadline (Theorems 3–5 / Eq. 3).
//!
//! The [`server`] module ties everything into a challenge/verify
//! lifecycle with a counter mirror; [`bitstring`], [`nonce`], [`timer`],
//! [`params`], and [`verdict`] are the supporting vocabulary.
//!
//! ## Quick start
//!
//! ```rust
//! use rand::SeedableRng;
//! use tagwatch_core::{trp, MonitorServer};
//! use tagwatch_sim::{TagId, TagPopulation};
//!
//! # fn main() -> Result<(), tagwatch_core::CoreError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! // Server registers 1000 tags; tolerate 10 missing at 95% confidence.
//! let ids: Vec<TagId> = (1..=1000u64).map(TagId::from).collect();
//! let mut server = MonitorServer::new(ids, 10, 0.95)?;
//!
//! // The physical population (simulated), with 11 tags stolen.
//! let mut warehouse = TagPopulation::with_sequential_ids(1000);
//! warehouse.remove_random(11, &mut rng)?;
//!
//! // One challenge, one frame, one bitstring — no IDs on the air.
//! let challenge = server.issue_trp_challenge(&mut rng)?;
//! let bs = trp::observed_bitstring(&warehouse.ids(), &challenge);
//! let report = server.verify_trp(challenge, &bs)?;
//! // With the Eq. 2 frame size this raises an alarm with prob > 0.95.
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitstring;
pub mod engine;
pub mod error;
pub mod executor;
pub mod faulty;
pub mod frame;
pub mod groups;
pub mod identify;
pub mod math;
pub mod nonce;
pub mod params;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod timer;
pub mod trp;
pub mod utrp;
pub mod verdict;

pub use bitstring::Bitstring;
pub use engine::{
    batched_min_scan, sequential_min_scan, RoundEngine, RoundScratch, ScanJob, ScanParams,
    ScanStats, SubframeCursor, SCAN_BATCH,
};
pub use error::CoreError;
pub use executor::RoundExecutor;
pub use faulty::{run_device_round_with, run_honest_reader_with, simulate_round_with};
pub use frame::{
    trp_detection_at, trp_frame_size, trp_frame_size_with_model, utrp_frame_size, UtrpSizing,
};
pub use groups::{GroupedAudit, GroupedMonitor, GroupedReport};
pub use identify::{identify_missing, Identifier, IdentifyConfig, IdentifyOutcome};
pub use math::{detection_probability, utrp_detection_probability, EmptySlotModel};
pub use nonce::{NonceCursor, NonceSequence};
pub use params::MonitorParams;
pub use protocol::{Protocol, Trp, Utrp};
pub use registry::RegistrySnapshot;
pub use server::{MonitorServer, ResyncHypothesis, ServerConfig};
pub use timer::ResponseTimer;
pub use trp::TrpChallenge;
pub use utrp::{UtrpChallenge, UtrpParticipant, UtrpResponse};
pub use verdict::{MonitorReport, ProtocolKind, Verdict};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::bitstring::Bitstring;
    pub use crate::error::CoreError;
    pub use crate::executor::RoundExecutor;
    pub use crate::faulty::{run_device_round_with, run_honest_reader_with, simulate_round_with};
    pub use crate::frame::{trp_frame_size, utrp_frame_size, UtrpSizing};
    pub use crate::math::{detection_probability, utrp_detection_probability, EmptySlotModel};
    pub use crate::nonce::NonceSequence;
    pub use crate::params::MonitorParams;
    pub use crate::protocol::Protocol;
    pub use crate::server::{MonitorServer, ResyncHypothesis, ServerConfig};
    pub use crate::timer::ResponseTimer;
    pub use crate::trp::{self, TrpChallenge};
    pub use crate::utrp::{self, UtrpChallenge, UtrpResponse};
    pub use crate::verdict::{MonitorReport, ProtocolKind, Verdict};
}
