//! The unified round-execution entry point.
//!
//! Before this module existed the workspace had *two* parallel families
//! of round executors: the fault-free paths
//! ([`trp::observed_bitstring`], [`utrp::run_honest_reader`]) and the
//! fault-aware ones in [`crate::faulty`], and every caller — sessions,
//! tests, CLI scenarios — chose between them by hand. [`RoundExecutor`]
//! collapses that choice behind one value: a [`Channel`] plus an
//! `Option<&FaultPlan>`. Callers run rounds through the executor and
//! never branch on faultiness again.
//!
//! The **faultless-delegation contract** carries over from
//! [`crate::faulty`]: with an ideal channel and no (or an empty) plan,
//! every method delegates to its fault-free counterpart, producing
//! byte-identical output and consuming **zero** randomness from the
//! caller's RNG. The regression tests in this module pin that contract
//! for both protocols.
//!
//! [`trp::observed_bitstring`]: crate::trp::observed_bitstring
//! [`utrp::run_honest_reader`]: crate::utrp::run_honest_reader

use rand::Rng;

use tagwatch_obs::{Obs, ObsEvent, ProtoKind};
use tagwatch_sim::hash::slot_for;
use tagwatch_sim::tag::TagReply;
use tagwatch_sim::{Channel, FaultPlan, TagPopulation, TimingModel};

use crate::bitstring::Bitstring;
use crate::engine::{RoundEngine, RoundScratch};
use crate::error::CoreError;
use crate::faulty::run_honest_reader_with;
use crate::trp::{observed_bitstring, TrpChallenge};
use crate::utrp::{run_honest_reader_scratch, UtrpChallenge, UtrpResponse};

/// One configured way of executing protocol rounds: a radio channel and
/// an optional scripted fault plan.
///
/// The executor is cheap to clone and carries no per-round state; the
/// plan applies to *every* round run through it, so drivers that script
/// one-shot fault bursts swap the plan (or the whole executor) between
/// ticks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundExecutor {
    channel: Channel,
    plan: Option<FaultPlan>,
}

impl RoundExecutor {
    /// The ideal executor: lossless channel, no faults. Rounds run
    /// through it are byte-identical to the fault-free paths.
    #[must_use]
    pub fn ideal() -> Self {
        RoundExecutor::default()
    }

    /// An executor over `channel` with an optional scripted `plan`.
    #[must_use]
    pub fn new(channel: Channel, plan: Option<FaultPlan>) -> Self {
        RoundExecutor { channel, plan }
    }

    /// The executor's channel.
    #[must_use]
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// The scripted plan, if any.
    #[must_use]
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Replaces the scripted plan (e.g. between soak ticks).
    pub fn set_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
    }

    /// Whether rounds through this executor can differ from the
    /// fault-free paths at all.
    #[must_use]
    pub fn is_faultless(&self) -> bool {
        self.channel.is_ideal() && self.plan.as_ref().is_none_or(FaultPlan::is_empty)
    }

    /// Runs one TRP round over the audible (non-detuned) tags of
    /// `floor` and returns the occupancy bitstring the reader reports.
    ///
    /// Faultless: identical to
    /// [`observed_bitstring`] over the
    /// audible IDs, with no RNG consumption. Otherwise each audible tag
    /// that hears the broadcast (announcement 0 of the plan) transmits
    /// in its hash slot; scripted reply loss, the probabilistic channel,
    /// a scripted reader crash, and scripted truncation shape the
    /// result. TRP has no re-seeds or counters, so a truncated
    /// bitstring is the only shape-level fault (the server rejects it
    /// as [`CoreError::ResponseShapeMismatch`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for an invalid fault plan.
    pub fn run_trp<R: Rng + ?Sized>(
        &self,
        floor: &TagPopulation,
        challenge: &TrpChallenge,
        rng: &mut R,
    ) -> Result<Bitstring, CoreError> {
        let audible: Vec<tagwatch_sim::TagId> = floor
            .iter()
            .filter(|t| !t.is_detuned())
            .map(|t| t.id())
            .collect();
        if self.is_faultless() {
            return Ok(observed_bitstring(&audible, challenge));
        }
        let empty = FaultPlan::new();
        let plan = self.plan.as_ref().unwrap_or(&empty);
        plan.validate().map_err(|e| CoreError::InvalidParams {
            reason: format!("invalid fault plan: {e}"),
        })?;

        let f = challenge.frame_size();
        let nonce = challenge.plan().nonce();
        let downlink_loss = self.channel.config().downlink_loss_prob;
        // Slot -> transmissions. TRP broadcasts exactly one announcement
        // (index 0); a tag that misses it stays silent for the round.
        let mut slots: Vec<Vec<TagReply>> = vec![Vec::new(); f.as_usize()];
        for &id in &audible {
            if plan.misses_announcement(0, id) {
                continue;
            }
            if downlink_loss > 0.0 && rng.gen_bool(downlink_loss) {
                continue;
            }
            slots[slot_for(id, nonce, f) as usize].push(TagReply::Presence { bits: 0 });
        }

        let mut bs = Bitstring::zeros(f.as_usize());
        for (i, transmissions) in slots.iter_mut().enumerate() {
            if plan.reply_lost_at(i as u64) {
                transmissions.clear();
            }
            let occupied = if self.channel.is_ideal() {
                !transmissions.is_empty()
            } else {
                self.channel.resolve_slot(transmissions, rng).is_occupied()
            };
            if occupied {
                bs.set(i, true)?;
            }
            if plan.crash_slot().is_some_and(|s| i as u64 >= s) {
                // Reader dies; the rest of the frame reads empty.
                break;
            }
        }
        Ok(match plan.truncation() {
            Some(len) if (len as usize) < bs.len() => {
                Bitstring::from_bools(&bs.to_bools()[..len as usize])
            }
            _ => bs,
        })
    }

    /// Runs one honest-reader UTRP round over `floor`, advancing each
    /// tag's counter by the announcements it actually heard.
    ///
    /// Faultless: delegates to
    /// [`run_honest_reader`](crate::utrp::run_honest_reader)
    /// (byte-identical, no RNG consumption); otherwise to
    /// [`run_honest_reader_with`].
    ///
    /// # Errors
    ///
    /// Propagates executor errors (exhausted nonce sequence, invalid
    /// plan scalars).
    pub fn run_utrp<R: Rng + ?Sized>(
        &self,
        floor: &mut TagPopulation,
        challenge: &UtrpChallenge,
        timing: &TimingModel,
        rng: &mut R,
    ) -> Result<UtrpResponse, CoreError> {
        let mut scratch = RoundScratch::new();
        self.run_utrp_scratch_observed(
            floor,
            challenge,
            timing,
            rng,
            &mut scratch,
            &Obs::disabled(),
        )
    }

    /// [`RoundExecutor::run_trp`] with telemetry: records round,
    /// slot-outcome and frame-size metrics and emits a
    /// round-completed flight event. With a disabled `obs` this is
    /// exactly `run_trp` plus one untaken branch; the round result is
    /// identical either way.
    ///
    /// # Errors
    ///
    /// Same as [`RoundExecutor::run_trp`].
    pub fn run_trp_observed<R: Rng + ?Sized>(
        &self,
        floor: &TagPopulation,
        challenge: &TrpChallenge,
        rng: &mut R,
        obs: &Obs,
    ) -> Result<Bitstring, CoreError> {
        let bs = self.run_trp(floor, challenge, rng)?;
        if obs.enabled() {
            let frame = bs.len() as u64;
            let occupied = bs.count_ones() as u64;
            obs.inc(obs.m.rounds_total);
            obs.inc(obs.m.rounds_trp);
            obs.add(obs.m.slots_total, frame);
            obs.add(obs.m.slots_occupied, occupied);
            obs.set_gauge(obs.m.last_frame_size, frame);
            obs.observe(obs.m.frame_size, frame as f64);
            // One framed announcement, then the reader walks every
            // slot: the whole frame is min-scan cost on the cost
            // clock. TRP never touches the probe engine.
            obs.span_phase(tagwatch_obs::Phase::SubFrameSetup, 0, 0);
            obs.span_phase(tagwatch_obs::Phase::MinScan, frame, 0);
            obs.emit(ObsEvent::RoundCompleted {
                proto: ProtoKind::Trp,
                frame,
                occupied,
                reseeds: 0,
                elapsed_us: 0,
            });
        }
        Ok(bs)
    }

    /// [`RoundExecutor::run_utrp`] through a caller-owned
    /// [`RoundEngine`] (a [`RoundScratch`] or the pooled sharded
    /// engine), so long-running drivers (sessions, soak loops) reuse
    /// the round buffers tick after tick instead of reallocating.
    /// Identical semantics at any thread count; the engine only serves
    /// the faultless fast path — scripted-fault rounds are cold and
    /// keep their own state.
    ///
    /// When `obs` is enabled, records round, slot-outcome, re-seed,
    /// frame-size and elapsed-time metrics (plus probe/candidate-filter
    /// totals on the faultless fast path) and emits a round-completed
    /// flight event. The round result is bit-identical either way, and
    /// with a disabled `obs` the telemetry costs one untaken branch.
    ///
    /// # Errors
    ///
    /// Same as [`RoundExecutor::run_utrp`].
    pub fn run_utrp_scratch_observed<E: RoundEngine, R: Rng + ?Sized>(
        &self,
        floor: &mut TagPopulation,
        challenge: &UtrpChallenge,
        timing: &TimingModel,
        rng: &mut R,
        scratch: &mut E,
        obs: &Obs,
    ) -> Result<UtrpResponse, CoreError> {
        let response = if self.is_faultless() {
            run_honest_reader_scratch(floor, challenge, timing, scratch, obs)?
        } else {
            let empty = FaultPlan::new();
            let plan = self.plan.as_ref().unwrap_or(&empty);
            run_honest_reader_with(floor, challenge, timing, &self.channel, plan, rng)?
        };
        if obs.enabled() {
            let frame = response.bitstring.len() as u64;
            let occupied = response.bitstring.count_ones() as u64;
            let reseeds = response.announcements.saturating_sub(1);
            obs.inc(obs.m.rounds_total);
            obs.inc(obs.m.rounds_utrp);
            obs.add(obs.m.slots_total, frame);
            obs.add(obs.m.slots_occupied, occupied);
            obs.add(obs.m.reseeds_total, reseeds);
            obs.set_gauge(obs.m.last_frame_size, frame);
            obs.observe(obs.m.frame_size, frame as f64);
            obs.observe(
                obs.m.round_elapsed_ms,
                response.elapsed.as_micros() as f64 / 1000.0,
            );
            obs.emit(ObsEvent::RoundCompleted {
                proto: ProtoKind::Utrp,
                frame,
                occupied,
                reseeds,
                elapsed_us: response.elapsed.as_micros(),
            });
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utrp::run_honest_reader;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::{ChannelConfig, FrameSize, Nonce, TagId};

    fn trp_challenge(f: u64, r: u64) -> TrpChallenge {
        TrpChallenge::new(tagwatch_sim::aloha::FramePlan::new(
            FrameSize::new(f).unwrap(),
            Nonce::new(r),
        ))
    }

    fn utrp_challenge(f: u64, seed: u64) -> UtrpChallenge {
        let mut rng = StdRng::seed_from_u64(seed);
        UtrpChallenge::generate(FrameSize::new(f).unwrap(), &TimingModel::gen2(), &mut rng)
    }

    #[test]
    fn faultless_trp_is_byte_identical_and_rng_free() {
        // The pre-refactor fault-free path and the unified executor must
        // agree bit-for-bit when no faults are configured.
        let mut floor = TagPopulation::with_sequential_ids(80);
        let ids = floor.ids();
        floor.get_mut(ids[5]).unwrap().set_detuned(true);
        for (f, r) in [(128u64, 7u64), (300, 99), (64, 1)] {
            let ch = trp_challenge(f, r);
            let audible: Vec<TagId> = floor
                .iter()
                .filter(|t| !t.is_detuned())
                .map(|t| t.id())
                .collect();
            let legacy = observed_bitstring(&audible, &ch);
            let mut rng = StdRng::seed_from_u64(123);
            let unified = RoundExecutor::ideal()
                .run_trp(&floor, &ch, &mut rng)
                .unwrap();
            assert_eq!(legacy, unified, "f={f} r={r}");
            let mut fresh = StdRng::seed_from_u64(123);
            assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>(), "RNG was consumed");
        }
        // An executor holding Some(empty plan) still counts as faultless.
        let with_empty = RoundExecutor::new(Channel::ideal(), Some(FaultPlan::new()));
        assert!(with_empty.is_faultless());
    }

    #[test]
    fn set_plan_swaps_faults_between_rounds() {
        let mut ex = RoundExecutor::ideal();
        assert!(ex.is_faultless());
        ex.set_plan(Some(FaultPlan::new().lose_replies_at(0)));
        assert!(!ex.is_faultless());
        assert!(ex.plan().is_some());
        // Clearing the plan restores the fault-free fast path.
        ex.set_plan(None);
        assert!(ex.is_faultless());
        assert!(ex.plan().is_none());
    }

    #[test]
    fn faultless_utrp_is_byte_identical_and_rng_free() {
        let ch = utrp_challenge(200, 2);
        let timing = TimingModel::gen2();
        let mut legacy_floor = TagPopulation::with_sequential_ids(60);
        let mut unified_floor = TagPopulation::with_sequential_ids(60);
        let legacy = run_honest_reader(&mut legacy_floor, &ch, &timing).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let unified = RoundExecutor::ideal()
            .run_utrp(&mut unified_floor, &ch, &timing, &mut rng)
            .unwrap();
        assert_eq!(legacy, unified);
        for (a, b) in legacy_floor.iter().zip(unified_floor.iter()) {
            assert_eq!(a.counter(), b.counter(), "counter of {}", a.id());
        }
        let mut fresh = StdRng::seed_from_u64(77);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>(), "RNG was consumed");
    }

    #[test]
    fn faulty_utrp_matches_the_direct_fault_path() {
        // The executor is a facade, not a third engine: under faults it
        // must agree exactly with run_honest_reader_with.
        let ch = utrp_challenge(150, 3);
        let timing = TimingModel::gen2();
        let plan = FaultPlan::new()
            .lose_replies_at(2)
            .lose_announcement(1, [TagId::new(3)]);
        let channel = Channel::with_config(ChannelConfig {
            downlink_loss_prob: 0.03,
            ..ChannelConfig::default()
        })
        .unwrap();

        let mut direct_floor = TagPopulation::with_sequential_ids(40);
        let mut rng_direct = StdRng::seed_from_u64(5);
        let direct = run_honest_reader_with(
            &mut direct_floor,
            &ch,
            &timing,
            &channel,
            &plan,
            &mut rng_direct,
        )
        .unwrap();

        let mut exec_floor = TagPopulation::with_sequential_ids(40);
        let mut rng_exec = StdRng::seed_from_u64(5);
        let exec = RoundExecutor::new(channel, Some(plan))
            .run_utrp(&mut exec_floor, &ch, &timing, &mut rng_exec)
            .unwrap();

        assert_eq!(direct, exec);
        for (a, b) in direct_floor.iter().zip(exec_floor.iter()) {
            assert_eq!(a.counter(), b.counter());
        }
    }

    #[test]
    fn trp_scripted_faults_shape_the_bitstring() {
        let floor = TagPopulation::with_sequential_ids(30);
        let ch = trp_challenge(100, 11);
        let mut rng = StdRng::seed_from_u64(1);
        let clean = RoundExecutor::ideal()
            .run_trp(&floor, &ch, &mut rng)
            .unwrap();
        let first = clean.iter_ones().next().unwrap() as u64;

        // Losing the first occupied slot's replies clears exactly it.
        let lossy = RoundExecutor::new(
            Channel::ideal(),
            Some(FaultPlan::new().lose_replies_at(first)),
        );
        let out = lossy.run_trp(&floor, &ch, &mut rng).unwrap();
        assert!(!out.get(first as usize).unwrap());
        assert_eq!(out.count_ones(), clean.count_ones() - 1);

        // A crash empties everything past the crash slot.
        let crashed = RoundExecutor::new(
            Channel::ideal(),
            Some(FaultPlan::new().crash_after_slot(10)),
        );
        let out = crashed.run_trp(&floor, &ch, &mut rng).unwrap();
        assert_eq!(out.len(), 100);
        for i in 11..100 {
            assert!(!out.get(i).unwrap(), "bit {i} survived the crash");
        }

        // Truncation shortens the response (a shape fault for verify).
        let truncated = RoundExecutor::new(
            Channel::ideal(),
            Some(FaultPlan::new().truncate_response(13)),
        );
        let out = truncated.run_trp(&floor, &ch, &mut rng).unwrap();
        assert_eq!(out.len(), 13);
    }

    #[test]
    fn trp_missed_broadcast_silences_the_tag() {
        let floor = TagPopulation::with_sequential_ids(10);
        let ch = trp_challenge(64, 4);
        let victim = floor.ids()[0];
        let mut rng = StdRng::seed_from_u64(0);
        let clean = RoundExecutor::ideal()
            .run_trp(&floor, &ch, &mut rng)
            .unwrap();
        let deaf = RoundExecutor::new(
            Channel::ideal(),
            Some(FaultPlan::new().lose_announcement(0, [victim])),
        );
        let out = deaf.run_trp(&floor, &ch, &mut rng).unwrap();
        // The victim's slot may be shared, so the count drops by 0 or 1
        // but never grows — and the victim alone cannot occupy its slot.
        assert!(out.count_ones() <= clean.count_ones());
        let others: Vec<TagId> = floor.ids().into_iter().filter(|&id| id != victim).collect();
        assert_eq!(out, observed_bitstring(&others, &ch));
    }
}
