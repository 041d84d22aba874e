//! The struct-of-arrays UTRP round engine.
//!
//! [`crate::utrp::SubsetRound`] — the original engine — keeps an
//! array-of-structs `Vec<UtrpParticipant>` and walks it through an
//! index indirection (`active: Vec<usize>`) on every announcement. At
//! million-tag populations that layout is the bottleneck: each probe
//! gathers a 24-byte struct through a second cache line, re-folds the
//! 128-bit tag ID, wraps the counter in a newtype, and ends in a
//! 64-bit hardware division — tens of cycles per tag, hundreds of
//! thousands of tags, re-scanned after *every* reply.
//!
//! [`RoundScratch`] re-states the same round over three contiguous
//! arrays:
//!
//! * `folded[i]` — the tag's ID pre-folded to 64 bits (done **once** at
//!   load, not once per announcement),
//! * `bases[i]` — the tag's pre-round counter as a raw `u64`,
//! * `orig[i]` — the tag's index in the caller's load order (for
//!   attribution and stable reporting).
//!
//! Retired tags are removed by `swap_remove` on all three arrays, so
//! the active set stays dense and every scan is a single linear pass.
//! Two further observations keep the inner loop branch-light:
//!
//! * Counters advance **uniformly** (+1 per announcement heard), so the
//!   effective counter is `base + announcements` — no per-tag writes
//!   mid-round, and when every base is equal (the steady state of a
//!   synced deployment) the whole counter term collapses into the
//!   announcement key: one [`mix64`] per tag instead of two.
//! * The `mod f` reduction uses [`FastMod`] — Lemire's exact remainder
//!   by multiplication — which is bit-identical to `%` (see its docs),
//!   so outcomes, soak digests, and recorded experiments are unchanged.
//!
//! ## Scanner injection
//!
//! The per-announcement minimum scan is expressed as a [`ScanJob`] so
//! the reduction runs over any slice of the active arrays without
//! `tagwatch-core` growing a thread-pool dependency. Production runs
//! one kernel — [`ScanJob::scan_range_batched`], the two-pass blocked
//! scan behind [`batched_min_scan`] — in observed and unobserved
//! rounds alike, and in every shard of the pooled engine in
//! `tagwatch-analytics`; it always accumulates probe accounting into a
//! [`ScanStats`], which unobserved callers simply drop.
//! [`ScanJob::scan_range`] and [`sequential_min_scan`] are the
//! element-at-a-time reference the debug cross-check and the tests
//! compare it against. A sharded scan merges deterministically —
//! global minimum slot first, then shards in index order — so member
//! lists come out identical to the sequential scan's and results are
//! scanner-independent by construction; the differential tests pin it.
//!
//! ## Engine injection
//!
//! One level up, a whole round executor is pluggable through the
//! [`RoundEngine`] trait (load / run / bitstring / announcements):
//! [`RoundScratch`] is the scalar implementation, and the pooled
//! sharded engine in `tagwatch-analytics` implements the same trait
//! bit-identically, so executors, protocols, the server's verify
//! mirror, and sessions never know which engine they drive. The serial
//! skeleton both engines share — nonce order, sub-frame shrinking,
//! uniform-key collapse — lives in [`SubframeCursor`].
//!
//! ## Semantics
//!
//! Byte-identical to [`crate::utrp::simulate_round_reference`], the
//! literal Algs. 6–7 execution: same bitstring, same announcement
//! count, same post-round counters. The differential and property
//! tests in [`crate::utrp`] pin the agreement across population sizes,
//! frame shapes, counter states, and mute subsets.

use tagwatch_sim::hash::{mix64, FastMod};
use tagwatch_sim::{Counter, FrameSize, TagId, TagPopulation};

use crate::bitstring::Bitstring;
use crate::error::CoreError;
use crate::nonce::{NonceCursor, NonceSequence};
use crate::utrp::UtrpParticipant;

/// One announcement's minimum-slot scan over the active arrays.
///
/// A scanner receives the job plus a member buffer and must return the
/// minimal slot any active tag chose (`None` when no tag is active),
/// filling the buffer with the *active-array indices* of every tag that
/// chose that slot, in ascending index order.
#[derive(Debug)]
pub struct ScanJob<'a> {
    folded: &'a [u64],
    bases: &'a [u64],
    nonce: u64,
    advance: u64,
    uniform_key: Option<u64>,
    frame: FastMod,
}

/// One announcement's scan parameters: the nonce, the counter advance,
/// the optional collapsed uniform key, and the sub-frame reducer.
///
/// Produced by [`SubframeCursor::announce`] and consumed by
/// [`ScanJob::new`]. All fields are plain `Copy` data, so a parallel
/// driver can ship a `ScanParams` to worker-owned shards by value and
/// every shard builds the *same* job over its own slice — the basis of
/// the pooled engine's bit-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanParams {
    /// The announcement nonce `r`.
    pub nonce: u64,
    /// The counter advance for this announcement (1-based ordinal).
    pub advance: u64,
    /// The pre-collapsed announcement key when every active base
    /// counter is equal: `r ⊕ mix64(base + advance)`.
    pub uniform_key: Option<u64>,
    /// The sub-frame reducer (divisor = slots remaining).
    pub frame: FastMod,
}

impl<'a> ScanJob<'a> {
    /// Builds a scan job over caller-owned active arrays.
    ///
    /// `folded` and `bases` must be the same length and aligned
    /// (element `i` of both describes the same tag). A sharded driver
    /// passes each worker's own slices here with the `ScanParams` of
    /// the current announcement; because every scanner bottoms out in
    /// the same per-tag probe, shard scans are bit-identical to the
    /// corresponding range of a sequential scan.
    #[must_use]
    pub fn new(folded: &'a [u64], bases: &'a [u64], params: &ScanParams) -> Self {
        debug_assert_eq!(folded.len(), bases.len(), "active arrays must be aligned");
        ScanJob {
            folded,
            bases,
            nonce: params.nonce,
            advance: params.advance,
            uniform_key: params.uniform_key,
            frame: params.frame,
        }
    }
}

impl ScanJob<'_> {
    /// Number of active tags in the scan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.folded.len()
    }

    /// Whether no tags are active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.folded.is_empty()
    }

    /// The sub-frame reducer (divisor = slots remaining).
    #[must_use]
    pub fn frame(&self) -> FastMod {
        self.frame
    }

    /// Scans `lo..hi` of the active arrays, returning the minimal slot
    /// in that range and pushing the (global) active indices of its
    /// members onto `members` in ascending order. `members` is cleared
    /// first; probe accounting accumulates into `stats`.
    ///
    /// This is the element-at-a-time reference: the debug build
    /// cross-checks every [`ScanJob::scan_range_batched`] call against
    /// it, and the tests compare the production kernel to it. Every
    /// strategy computes the same per-tag slots:
    /// `mix64(folded ⊕ r ⊕ mix64(base + advance)) mod f`, with the
    /// counter term pre-collapsed into the key when all bases are
    /// equal.
    ///
    /// # Panics
    ///
    /// Panics if `lo..hi` is out of bounds for the active arrays.
    pub fn scan_range(
        &self,
        lo: usize,
        hi: usize,
        members: &mut Vec<u32>,
        stats: &mut ScanStats,
    ) -> Option<u64> {
        members.clear();
        let folded = &self.folded[lo..hi];
        let frame = self.frame;
        let mut best = u64::MAX;
        // Candidate pre-filter: once a best slot exists, a probe whose
        // Lemire fraction exceeds `threshold` is guaranteed to land
        // strictly above it (see `FastMod::candidate_threshold`), so the
        // exact remainder and the best/members bookkeeping are skipped.
        // The filter is conservative — sub-threshold probes are
        // verified with the exact remainder — so the scan is
        // bit-identical to the unfiltered one.
        let mut threshold = u128::MAX;
        stats.probes += (hi - lo) as u64;
        for (j, &fv) in folded.iter().enumerate() {
            let frac = frame.frac(mix64(fv ^ self.key(lo + j)));
            if frac > threshold {
                stats.filtered += 1;
                continue;
            }
            let s = frame.rem_of_frac(frac);
            if s < best {
                best = s;
                threshold = frame.candidate_threshold(s);
                members.clear();
                members.push((lo + j) as u32);
            } else if s == best {
                members.push((lo + j) as u32);
            }
        }
        // The pre-filter may only skip probes that land strictly above
        // the running best: an unfiltered re-scan must agree on both
        // the minimum slot and the full replier set.
        #[cfg(debug_assertions)]
        {
            let slot_of = |j: usize| frame.rem(mix64(self.folded[j] ^ self.key(j)));
            let brute = (lo..hi).map(slot_of).min();
            debug_assert_eq!(
                brute,
                if members.is_empty() { None } else { Some(best) },
                "candidate pre-filter must preserve the exact minimum"
            );
            if let Some(min) = brute {
                let full: Vec<u32> = (lo..hi)
                    .filter(|&j| slot_of(j) == min)
                    .map(|j| j as u32)
                    .collect();
                debug_assert_eq!(
                    &full, members,
                    "candidate pre-filter must preserve the replier set"
                );
            }
        }
        if members.is_empty() {
            None
        } else {
            Some(best)
        }
    }

    /// The per-tag announcement key of active index `i`: the collapsed
    /// uniform key, or `r ⊕ mix64(base + advance)`.
    fn key(&self, i: usize) -> u64 {
        match self.uniform_key {
            Some(key) => key,
            None => self.nonce ^ mix64(self.bases[i].wrapping_add(self.advance)),
        }
    }

    /// [`ScanJob::scan_range`] restructured as a batched two-pass
    /// kernel over fixed blocks of [`SCAN_BATCH`] tags — the production
    /// scan of every engine, observed or not. Bit-identical by
    /// construction, probe accounting included: the debug build
    /// cross-checks every call's slot, members, and `stats` delta
    /// against [`ScanJob::scan_range`].
    ///
    /// Pass 1 is a straight-line loop with no data-dependent branches
    /// — `mix64` → Lemire fraction into a stack buffer — which the
    /// compiler can unroll and autovectorize. Pass 2 only runs when a
    /// branch-free reduction finds a fraction at or below the
    /// block-entry candidate threshold; it then replays the exact
    /// element-order selection of the sequential kernel over the
    /// block's buffered fractions.
    ///
    /// Why skipping whole blocks is exact: the candidate threshold
    /// only ever *decreases* (it is updated exactly when a new minimum
    /// is found), so the threshold at block entry is an upper bound on
    /// the threshold the sequential scan would hold at any element of
    /// the block. If every fraction in the block exceeds the entry
    /// threshold, the sequential scan would have filtered every one of
    /// those probes too — so a skipped block adds its length to
    /// `filtered` — and since filtered probes never update `best`,
    /// `members`, or the threshold, dropping the block leaves the scan
    /// state untouched, exactly as the sequential kernel would. Blocks
    /// with at least one candidate take pass 2, which performs the
    /// identical updates (and filter counts) in the identical order.
    /// The accounting is one add per skipped block and one per
    /// filtered probe of a candidate block — rare once the threshold
    /// has settled — so the kernel always counts.
    ///
    /// # Panics
    ///
    /// Panics if `lo..hi` is out of bounds for the active arrays.
    pub fn scan_range_batched(
        &self,
        lo: usize,
        hi: usize,
        members: &mut Vec<u32>,
        stats: &mut ScanStats,
    ) -> Option<u64> {
        members.clear();
        let frame = self.frame;
        let mut best = u64::MAX;
        let mut threshold = u128::MAX;
        let mut filtered = 0u64;
        let mut fracs = [0u128; SCAN_BATCH];
        let mut base_j = lo;
        while base_j < hi {
            let block_hi = (base_j + SCAN_BATCH).min(hi);
            let block = &self.folded[base_j..block_hi];
            let n = block.len();
            // Pass 1: hash → fraction, straight-line.
            match self.uniform_key {
                Some(key) => {
                    for (k, &fv) in block.iter().enumerate() {
                        fracs[k] = frame.frac(mix64(fv ^ key));
                    }
                }
                None => {
                    let bases = &self.bases[base_j..block_hi];
                    for (k, (&fv, &bv)) in block.iter().zip(bases).enumerate() {
                        let ct = mix64(bv.wrapping_add(self.advance));
                        fracs[k] = frame.frac(mix64(fv ^ self.nonce ^ ct));
                    }
                }
            }
            // Branch-free candidate detection against the block-entry
            // threshold (a strict upper bound on every element-time
            // threshold; see above).
            let mut any = false;
            for &fr in &fracs[..n] {
                any |= fr <= threshold;
            }
            if any {
                // Pass 2: the sequential kernel's exact selection, in
                // element order, over the buffered fractions.
                for (k, &fr) in fracs[..n].iter().enumerate() {
                    if fr > threshold {
                        filtered += 1;
                        continue;
                    }
                    let s = frame.rem_of_frac(fr);
                    if s < best {
                        best = s;
                        threshold = frame.candidate_threshold(s);
                        members.clear();
                        members.push((base_j + k) as u32);
                    } else if s == best {
                        members.push((base_j + k) as u32);
                    }
                }
            } else {
                filtered += n as u64;
            }
            base_j = block_hi;
        }
        let result = if members.is_empty() { None } else { Some(best) };
        let delta = ScanStats {
            probes: (hi - lo) as u64,
            filtered,
        };
        #[cfg(debug_assertions)]
        {
            let mut check_members = Vec::new();
            let mut check_stats = ScanStats::default();
            let check = self.scan_range(lo, hi, &mut check_members, &mut check_stats);
            debug_assert_eq!(
                check, result,
                "batched kernel must match the sequential scan"
            );
            debug_assert_eq!(
                &check_members, members,
                "batched kernel must preserve the replier set"
            );
            debug_assert_eq!(
                check_stats, delta,
                "batched kernel must count probes as the sequential scan does"
            );
        }
        stats.merge(delta);
        result
    }
}

/// Probe accounting from a scan: the raw material for the telemetry
/// layer's probe / candidate-filter hit-rate metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Per-tag slot probes evaluated.
    pub probes: u64,
    /// Probes the candidate pre-filter skipped before the exact
    /// remainder.
    pub filtered: u64,
}

impl ScanStats {
    /// Adds `other`'s counts into `self` (the reduction step when
    /// shards count independently).
    pub fn merge(&mut self, other: ScanStats) {
        self.probes += other.probes;
        self.filtered += other.filtered;
    }
}

/// Block length of the batched probe kernel
/// ([`ScanJob::scan_range_batched`]): fractions for this many tags are
/// buffered on the stack per pass-1 sweep. 64 × 16 bytes = one KiB —
/// comfortably L1-resident — and long enough for the compiler to
/// unroll pass 1 aggressively.
pub const SCAN_BATCH: usize = 64;

/// The reference scanner: one linear pass over the whole active set.
pub fn sequential_min_scan(job: &ScanJob<'_>, members: &mut Vec<u32>) -> Option<u64> {
    job.scan_range(0, job.len(), members, &mut ScanStats::default())
}

/// The default scanner: the batched two-pass kernel over the whole
/// active set ([`ScanJob::scan_range_batched`]), bit-identical to
/// [`sequential_min_scan`] by construction.
pub fn batched_min_scan(job: &ScanJob<'_>, members: &mut Vec<u32>) -> Option<u64> {
    job.scan_range_batched(0, job.len(), members, &mut ScanStats::default())
}

/// Records one announcement's span phases by the cost clock: a
/// sub-frame setup, then the opening min-scan (announcement 1) or a
/// re-seed. `rel` is the announcement's winning relative slot in the
/// sub-frame `frame` and `probes` the scan's probe count. Slots charged
/// per announcement telescope exactly to the frame size: a reply at
/// relative slot `rel` elapses `rel + 1` slots of its sub-frame;
/// silence elapses the whole remaining sub-frame (the divisor) and
/// ends the round. Every engine records through this one function, so
/// span trees are engine- and thread-count-invariant.
pub fn record_scan_phases(
    obs: &tagwatch_obs::Obs,
    announcement: u64,
    rel: Option<u64>,
    frame: FastMod,
    probes: u64,
) {
    if !obs.spans_enabled() {
        return;
    }
    let slots = rel.map_or_else(|| frame.divisor(), |r| r + 1);
    obs.span_phase(tagwatch_obs::Phase::SubFrameSetup, 0, 0);
    let phase = if announcement == 1 {
        tagwatch_obs::Phase::MinScan
    } else {
        tagwatch_obs::Phase::ReSeed
    };
    obs.span_phase(phase, slots, probes);
}

/// Per-announcement sub-frame bookkeeping of one UTRP round: nonce
/// consumption order, announcement counting, the uniform-key collapse,
/// the global-slot mapping, and the shrinking sub-frame reducer.
///
/// [`RoundScratch::run`] and the pooled engine in `tagwatch-analytics`
/// both drive their rounds through this one struct, so the serial
/// skeleton of the round — everything *except* the min-scan itself —
/// has a single source of truth and cannot drift between the scalar
/// and sharded implementations.
#[derive(Debug, Clone)]
pub struct SubframeCursor {
    total: u64,
    subframe_start: u64,
    announcements: u64,
    frame: FastMod,
    done: bool,
}

impl SubframeCursor {
    /// Starts a round over frame size `f`: no announcements yet, the
    /// sub-frame is the whole frame.
    #[must_use]
    pub fn new(f: FrameSize) -> Self {
        SubframeCursor {
            total: f.get(),
            subframe_start: 0,
            announcements: 0,
            frame: FastMod::new(f),
            done: false,
        }
    }

    /// Announcements made so far.
    #[must_use]
    pub fn announcements(&self) -> u64 {
        self.announcements
    }

    /// Whether the round is over (frame exhausted or explicit
    /// [`SubframeCursor::finish`]).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Starts the next announcement: consumes a nonce, advances the
    /// announcement count, and returns the scan parameters for the
    /// current sub-frame (collapsing the counter term into the key
    /// when `uniform_base` says every base is equal).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonceSequenceExhausted`] if `nonces` has
    /// run out.
    pub fn announce(
        &mut self,
        nonces: &mut NonceCursor<'_>,
        uniform_base: Option<u64>,
    ) -> Result<ScanParams, CoreError> {
        let r = nonces.next_nonce()?.as_u64();
        self.announcements += 1;
        let advance = self.announcements;
        Ok(ScanParams {
            nonce: r,
            advance,
            uniform_key: uniform_base.map(|base| r ^ mix64(base.wrapping_add(advance))),
            frame: self.frame,
        })
    }

    /// Records the winning relative slot of the current announcement
    /// and returns the global frame slot. Shrinks the sub-frame to the
    /// slots after the winner; when none remain the round is done.
    pub fn record_reply(&mut self, rel: u64) -> u64 {
        let global = self.subframe_start + rel;
        debug_assert!(global < self.total, "reply slot must lie within the frame");
        let remaining = self.total - (global + 1);
        if remaining == 0 {
            self.done = true;
        } else {
            self.subframe_start = global + 1;
            self.frame = FastMod::from_divisor(remaining);
        }
        global
    }

    /// Ends the round after a silent announcement (no active tag
    /// replied: the rest of the frame is silence).
    pub fn finish(&mut self) {
        self.done = true;
    }
}

/// Reusable round state: the struct-of-arrays active set, the member
/// buffers, and the output bitstring, all retained across rounds so a
/// long monitoring session performs no per-round allocation in steady
/// state (buffers grow to the population size once and stay).
///
/// Typical use:
///
/// ```rust
/// use rand::SeedableRng;
/// use tagwatch_core::engine::RoundScratch;
/// use tagwatch_core::utrp::UtrpChallenge;
/// use tagwatch_sim::{Counter, FrameSize, TagId, TimingModel};
///
/// # fn main() -> Result<(), tagwatch_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let ch = UtrpChallenge::generate(FrameSize::new(64)?, &TimingModel::gen2(), &mut rng);
///
/// let mut scratch = RoundScratch::new();
/// scratch.load_pairs((1..=20u64).map(|i| (TagId::from(i), Counter::ZERO)));
/// let announcements = scratch.run(ch.frame_size(), ch.nonces())?;
/// assert_eq!(scratch.bitstring().len(), 64);
/// assert!(announcements >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RoundScratch {
    folded: Vec<u64>,
    bases: Vec<u64>,
    orig: Vec<u32>,
    members: Vec<u32>,
    members_orig: Vec<u32>,
    bitstring: Bitstring,
    announcements: u64,
    uniform_base: Option<u64>,
    loaded: u32,
}

impl Default for RoundScratch {
    fn default() -> Self {
        RoundScratch::new()
    }
}

impl RoundScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        RoundScratch {
            folded: Vec::new(),
            bases: Vec::new(),
            orig: Vec::new(),
            members: Vec::new(),
            members_orig: Vec::new(),
            bitstring: Bitstring::zeros(0),
            announcements: 0,
            uniform_base: None,
            loaded: 0,
        }
    }

    /// Loads the round's participants from `(id, counter, mute)`
    /// triples. Mute tags never enter the active arrays (they cannot
    /// reply) but still occupy a load index, so attribution indices
    /// always refer to the caller's original order.
    pub fn load<I: IntoIterator<Item = (TagId, Counter, bool)>>(&mut self, parts: I) {
        self.folded.clear();
        self.bases.clear();
        self.orig.clear();
        self.loaded = 0;
        let mut uniform = true;
        let mut first_base: Option<u64> = None;
        for (id, ct, mute) in parts {
            let index = self.loaded;
            self.loaded += 1;
            if mute {
                continue;
            }
            let base = ct.get();
            match first_base {
                None => first_base = Some(base),
                Some(b) if b != base => uniform = false,
                Some(_) => {}
            }
            self.folded.push(id.fold64());
            self.bases.push(base);
            self.orig.push(index);
        }
        self.uniform_base = if uniform { first_base } else { None };
    }

    /// Loads from [`UtrpParticipant`]s (counters at pre-round values).
    pub fn load_participants(&mut self, parts: &[UtrpParticipant]) {
        self.load(parts.iter().map(|p| (p.id, p.counter, p.mute)));
    }

    /// Loads from `(id, counter)` pairs — e.g. the server's registry
    /// mirror iterated in place, with no intermediate `Vec`.
    pub fn load_pairs<I: IntoIterator<Item = (TagId, Counter)>>(&mut self, pairs: I) {
        self.load(pairs.into_iter().map(|(id, ct)| (id, ct, false)));
    }

    /// Loads from a physical tag population (detuned tags are mute).
    pub fn load_population(&mut self, population: &TagPopulation) {
        self.load(
            population
                .iter()
                .map(|t| (t.id(), t.counter(), t.is_detuned())),
        );
    }

    /// How many participants the last load saw (including mute ones).
    #[must_use]
    pub fn loaded(&self) -> usize {
        self.loaded as usize
    }

    /// The occupancy bitstring of the last run.
    #[must_use]
    pub fn bitstring(&self) -> &Bitstring {
        &self.bitstring
    }

    /// Moves the last run's bitstring out (the scratch keeps an empty
    /// one and re-grows on the next run — use when the caller needs an
    /// owned artifact, e.g. a reader response).
    #[must_use]
    pub fn take_bitstring(&mut self) -> Bitstring {
        std::mem::replace(&mut self.bitstring, Bitstring::zeros(0))
    }

    /// Announcements made by the last run.
    #[must_use]
    pub fn announcements(&self) -> u64 {
        self.announcements
    }

    /// Runs one UTRP round over the loaded participants with the
    /// default batched kernel ([`batched_min_scan`], bit-identical to
    /// the sequential reference scan), returning the announcement
    /// count. The bitstring is left in [`RoundScratch::bitstring`].
    ///
    /// Counters are **not** written back anywhere — the round's only
    /// counter effect is uniform (+announcements for every loaded tag,
    /// mute included), which the caller applies to its own store.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonceSequenceExhausted`] if `nonces` is
    /// shorter than the frame.
    pub fn run(&mut self, f: FrameSize, nonces: &NonceSequence) -> Result<u64, CoreError> {
        self.run_with(f, nonces, batched_min_scan)
    }

    /// [`RoundScratch::run`] with an injected scanner (e.g. the
    /// [`sequential_min_scan`] reference).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonceSequenceExhausted`] if `nonces` is
    /// shorter than the frame.
    pub fn run_with<S>(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        scanner: S,
    ) -> Result<u64, CoreError>
    where
        S: FnMut(&ScanJob<'_>, &mut Vec<u32>) -> Option<u64>,
    {
        self.run_inner(f, nonces, scanner, |_, _| {})
    }

    /// [`RoundScratch::run`] with telemetry: when `obs` is enabled the
    /// round runs the same batched kernel with its probe accounting
    /// kept, recording probe and candidate-filter totals and the
    /// per-announcement span phases; when disabled it is exactly
    /// [`RoundScratch::run`]. Either way the round result is
    /// bit-identical to the uninstrumented one.
    ///
    /// # Errors
    ///
    /// As [`RoundScratch::run`].
    pub fn run_observed(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        obs: &tagwatch_obs::Obs,
    ) -> Result<u64, CoreError> {
        if !obs.enabled() {
            return self.run(f, nonces);
        }
        let mut stats = ScanStats::default();
        let mut announcement = 0u64;
        let announcements = self.run_with(f, nonces, |job, members| {
            announcement += 1;
            let probes_before = stats.probes;
            let rel = job.scan_range_batched(0, job.len(), members, &mut stats);
            record_scan_phases(
                obs,
                announcement,
                rel,
                job.frame(),
                stats.probes - probes_before,
            );
            rel
        })?;
        obs.add(obs.m.probes_total, stats.probes);
        obs.add(obs.m.probes_filtered, stats.filtered);
        Ok(announcements)
    }

    /// [`RoundScratch::run_with`], invoking `on_reply(global_slot,
    /// orig_indices)` for every occupied slot, with the replying tags'
    /// original load indices in ascending order — the engine behind
    /// slot attribution.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonceSequenceExhausted`] if `nonces` is
    /// shorter than the frame.
    pub fn run_attributed_with<S, F>(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        scanner: S,
        on_reply: F,
    ) -> Result<u64, CoreError>
    where
        S: FnMut(&ScanJob<'_>, &mut Vec<u32>) -> Option<u64>,
        F: FnMut(u64, &[u32]),
    {
        self.run_inner(f, nonces, scanner, on_reply)
    }

    fn run_inner<S, F>(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        mut scanner: S,
        mut on_reply: F,
    ) -> Result<u64, CoreError>
    where
        S: FnMut(&ScanJob<'_>, &mut Vec<u32>) -> Option<u64>,
        F: FnMut(u64, &[u32]),
    {
        self.bitstring.reset(f.as_usize());
        self.announcements = 0;
        let mut cursor = nonces.cursor();
        let mut walk = SubframeCursor::new(f);

        // Zero-alloc contract: the active arrays only shrink during a
        // round (swap_remove), so their capacity must never move.
        #[cfg(debug_assertions)]
        let caps = (
            self.folded.capacity(),
            self.bases.capacity(),
            self.orig.capacity(),
        );

        loop {
            let params = walk.announce(&mut cursor, self.uniform_base)?;
            self.announcements = walk.announcements();
            let job = ScanJob::new(&self.folded, &self.bases, &params);
            let Some(rel) = scanner(&job, &mut self.members) else {
                // No active tag replies: the rest of the frame is
                // silence and the round ends (counters advanced once
                // for this final announcement, as in the reference).
                break;
            };

            let global = walk.record_reply(rel);
            self.bitstring.set(global as usize, true)?;

            // Attribution wants original load indices ascending; the
            // member buffer holds active indices (ascending by scanner
            // contract, but active order is scrambled by swap_remove).
            self.members_orig.clear();
            self.members_orig
                .extend(self.members.iter().map(|&i| self.orig[i as usize]));
            self.members_orig.sort_unstable();
            on_reply(global, &self.members_orig);

            // Retire the repliers: swap-remove in descending index
            // order keeps earlier indices valid.
            debug_assert!(
                self.members.windows(2).all(|w| w[0] < w[1]),
                "scanner contract: member indices strictly ascending"
            );
            debug_assert!(
                self.members
                    .last()
                    .is_none_or(|&mi| (mi as usize) < self.folded.len()),
                "scanner contract: member indices within the active arrays"
            );
            for &mi in self.members.iter().rev() {
                let i = mi as usize;
                self.folded.swap_remove(i);
                self.bases.swap_remove(i);
                self.orig.swap_remove(i);
            }
            debug_assert!(
                self.folded.len() == self.bases.len() && self.folded.len() == self.orig.len(),
                "active arrays must retire in lockstep"
            );

            if walk.is_done() {
                break;
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            caps,
            (
                self.folded.capacity(),
                self.bases.capacity(),
                self.orig.capacity(),
            ),
            "a round must not reallocate the active arrays"
        );
        Ok(self.announcements)
    }
}

/// A pluggable executor of one UTRP round: load an active set, run the
/// round, read back the bitstring and announcement count.
///
/// [`RoundScratch`] is the canonical scalar implementation;
/// `tagwatch-analytics` provides `PooledEngine`, a sharded multi-core
/// implementation over a persistent worker pool. Executors, protocols,
/// the server's verify mirror, and sessions are generic over this
/// trait, which makes parallelism an implementation detail: every
/// implementation must be **bit-identical** to [`RoundScratch`] —
/// same bitstring, same announcement count, same observed probe totals
/// — at any thread count. The differential and property tests pin it.
pub trait RoundEngine {
    /// Loads the round's participants from `(id, counter, mute)`
    /// triples. Mute tags never reply but still occupy a load index,
    /// so attribution indices always refer to the caller's original
    /// order.
    fn load<I: IntoIterator<Item = (TagId, Counter, bool)>>(&mut self, parts: I);

    /// Runs one UTRP round over the loaded participants, returning the
    /// announcement count; the bitstring is left in
    /// [`RoundEngine::bitstring`]. Counters are not written back — the
    /// round's only counter effect is uniform (+announcements per
    /// loaded tag), which the caller applies to its own store.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonceSequenceExhausted`] if `nonces` is
    /// shorter than the frame.
    fn run(&mut self, f: FrameSize, nonces: &NonceSequence) -> Result<u64, CoreError>;

    /// [`RoundEngine::run`] with telemetry: when `obs` is enabled the
    /// implementation additionally records probe and candidate-filter
    /// totals. The round result must be bit-identical either way, and
    /// the probe total must be shard- and thread-invariant (it is
    /// `Σ active_i` for any exact engine).
    ///
    /// # Errors
    ///
    /// As [`RoundEngine::run`].
    fn run_observed(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        obs: &tagwatch_obs::Obs,
    ) -> Result<u64, CoreError>;

    /// The occupancy bitstring of the last run.
    fn bitstring(&self) -> &Bitstring;

    /// Moves the last run's bitstring out, leaving an empty one.
    fn take_bitstring(&mut self) -> Bitstring;

    /// Announcements made by the last run.
    fn announcements(&self) -> u64;

    /// Loads from [`UtrpParticipant`]s (counters at pre-round values).
    fn load_participants(&mut self, parts: &[UtrpParticipant]) {
        self.load(parts.iter().map(|p| (p.id, p.counter, p.mute)));
    }

    /// Loads from `(id, counter)` pairs — e.g. the server's registry
    /// mirror iterated in place.
    fn load_pairs<I: IntoIterator<Item = (TagId, Counter)>>(&mut self, pairs: I) {
        self.load(pairs.into_iter().map(|(id, ct)| (id, ct, false)));
    }

    /// Loads from a physical tag population (detuned tags are mute).
    fn load_population(&mut self, population: &TagPopulation) {
        self.load(
            population
                .iter()
                .map(|t| (t.id(), t.counter(), t.is_detuned())),
        );
    }
}

impl RoundEngine for RoundScratch {
    fn load<I: IntoIterator<Item = (TagId, Counter, bool)>>(&mut self, parts: I) {
        RoundScratch::load(self, parts);
    }

    fn run(&mut self, f: FrameSize, nonces: &NonceSequence) -> Result<u64, CoreError> {
        RoundScratch::run(self, f, nonces)
    }

    fn run_observed(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        obs: &tagwatch_obs::Obs,
    ) -> Result<u64, CoreError> {
        RoundScratch::run_observed(self, f, nonces, obs)
    }

    fn bitstring(&self) -> &Bitstring {
        RoundScratch::bitstring(self)
    }

    fn take_bitstring(&mut self) -> Bitstring {
        RoundScratch::take_bitstring(self)
    }

    fn announcements(&self) -> u64 {
        RoundScratch::announcements(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utrp::{simulate_round_reference, UtrpChallenge};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::TimingModel;

    fn challenge(f: u64, seed: u64) -> UtrpChallenge {
        let mut rng = StdRng::seed_from_u64(seed);
        UtrpChallenge::generate(FrameSize::new(f).unwrap(), &TimingModel::gen2(), &mut rng)
    }

    fn mixed_parts(n: u64) -> Vec<UtrpParticipant> {
        (1..=n)
            .map(|i| {
                let mut p = UtrpParticipant::new(TagId::from(i), Counter::new(i % 5));
                p.mute = i % 13 == 0;
                p
            })
            .collect()
    }

    #[test]
    fn scratch_matches_reference_and_reuses_buffers() {
        let mut scratch = RoundScratch::new();
        for (n, f_raw, seed) in [(1u64, 4u64, 1u64), (30, 64, 2), (120, 90, 3), (90, 256, 4)] {
            let ch = challenge(f_raw, seed);
            let parts = mixed_parts(n);
            let mut reference = parts.clone();
            let expected =
                simulate_round_reference(&mut reference, ch.frame_size(), ch.nonces()).unwrap();

            scratch.load_participants(&parts);
            let announcements = scratch.run(ch.frame_size(), ch.nonces()).unwrap();
            assert_eq!(*scratch.bitstring(), expected.bitstring, "n={n} f={f_raw}");
            assert_eq!(announcements, expected.announcements, "n={n} f={f_raw}");
        }
    }

    #[test]
    fn uniform_counter_key_collapse_is_exact() {
        // All-equal bases take the one-mix64 fast path; shifting a
        // single tag's counter forces the general path. Both must agree
        // with the reference bit-for-bit.
        let ch = challenge(128, 7);
        for bump in [0u64, 1] {
            let mut parts: Vec<UtrpParticipant> = (1..=60u64)
                .map(|i| UtrpParticipant::new(TagId::from(i), Counter::new(41)))
                .collect();
            parts[17].counter = Counter::new(41 + bump);
            let mut reference = parts.clone();
            let expected =
                simulate_round_reference(&mut reference, ch.frame_size(), ch.nonces()).unwrap();
            let mut scratch = RoundScratch::new();
            scratch.load_participants(&parts);
            scratch.run(ch.frame_size(), ch.nonces()).unwrap();
            assert_eq!(*scratch.bitstring(), expected.bitstring, "bump={bump}");
            assert_eq!(scratch.announcements(), expected.announcements);
        }
    }

    #[test]
    fn attribution_reports_orig_indices_ascending() {
        let ch = challenge(50, 9);
        // Dense population so some slots collide.
        let parts: Vec<UtrpParticipant> = (1..=120u64)
            .map(|i| UtrpParticipant::new(TagId::from(i), Counter::ZERO))
            .collect();
        let mut scratch = RoundScratch::new();
        scratch.load_participants(&parts);
        let mut seen: Vec<u32> = Vec::new();
        let mut slots: Vec<u64> = Vec::new();
        scratch
            .run_attributed_with(
                ch.frame_size(),
                ch.nonces(),
                sequential_min_scan,
                |slot, members| {
                    assert!(!members.is_empty());
                    assert!(members.windows(2).all(|w| w[0] < w[1]), "not ascending");
                    slots.push(slot);
                    seen.extend_from_slice(members);
                },
            )
            .unwrap();
        // Slots strictly increase (each reply ends a sub-frame).
        assert!(slots.windows(2).all(|w| w[0] < w[1]));
        // Every non-mute participant replies exactly once.
        seen.sort_unstable();
        let expected: Vec<u32> = (0..120).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn chunked_scan_merge_equals_sequential() {
        // Simulate a parallel scanner in-process: scan fixed chunks,
        // merge by (min slot, chunk index order). Must equal the
        // sequential scanner on every announcement of a real round.
        let ch = challenge(96, 11);
        let parts = mixed_parts(200);

        let mut seq = RoundScratch::new();
        seq.load_participants(&parts);
        seq.run(ch.frame_size(), ch.nonces()).unwrap();
        let seq_bs = seq.take_bitstring();
        let seq_announced = seq.announcements();

        let mut chunked = RoundScratch::new();
        chunked.load_participants(&parts);
        let mut chunk_members: Vec<u32> = Vec::new();
        chunked
            .run_with(ch.frame_size(), ch.nonces(), |job, members| {
                members.clear();
                let mut best: Option<u64> = None;
                let chunk = 17;
                let mut lo = 0;
                while lo < job.len() {
                    let hi = (lo + chunk).min(job.len());
                    let mut stats = ScanStats::default();
                    if let Some(m) = job.scan_range(lo, hi, &mut chunk_members, &mut stats) {
                        match best {
                            Some(b) if m > b => {}
                            Some(b) if m == b => members.extend_from_slice(&chunk_members),
                            _ => {
                                best = Some(m);
                                members.clear();
                                members.extend_from_slice(&chunk_members);
                            }
                        }
                    }
                    lo = hi;
                }
                best
            })
            .unwrap();
        assert_eq!(*chunked.bitstring(), seq_bs);
        assert_eq!(chunked.announcements(), seq_announced);
    }

    #[test]
    fn batched_kernel_matches_sequential_scan() {
        // Full rounds driven by the batched kernel vs the sequential
        // reference, across sizes straddling SCAN_BATCH boundaries
        // (empty tail block, exact multiple, one-over) and both the
        // uniform-key and general counter paths.
        for (n, f_raw, seed) in [
            (1u64, 8u64, 21u64),
            (63, 64, 22),
            (64, 64, 23),
            (65, 96, 24),
            (200, 128, 25),
            (513, 256, 26),
        ] {
            let ch = challenge(f_raw, seed);
            for mixed in [false, true] {
                let parts: Vec<UtrpParticipant> = if mixed {
                    mixed_parts(n)
                } else {
                    (1..=n)
                        .map(|i| UtrpParticipant::new(TagId::from(i), Counter::new(3)))
                        .collect()
                };
                let mut seq = RoundScratch::new();
                seq.load_participants(&parts);
                seq.run_with(ch.frame_size(), ch.nonces(), sequential_min_scan)
                    .unwrap();
                let mut bat = RoundScratch::new();
                bat.load_participants(&parts);
                bat.run_with(ch.frame_size(), ch.nonces(), batched_min_scan)
                    .unwrap();
                assert_eq!(*bat.bitstring(), *seq.bitstring(), "n={n} mixed={mixed}");
                assert_eq!(bat.announcements(), seq.announcements());
            }
        }
    }

    #[test]
    fn subframe_cursor_replays_reference_bookkeeping() {
        // Drive a round "by hand" through SubframeCursor + ScanJob::new
        // over scratch-owned slices — the exact shape of the pooled
        // driver — and compare to RoundScratch::run.
        let ch = challenge(128, 31);
        let parts = mixed_parts(150);
        let mut expected = RoundScratch::new();
        expected.load_participants(&parts);
        expected.run(ch.frame_size(), ch.nonces()).unwrap();

        // Build each job from announce()'s ScanParams over hand-owned
        // arrays to prove the cursor produces the same parameters
        // run_inner does.
        let mut cursor = ch.nonces().cursor();
        let mut walk = SubframeCursor::new(ch.frame_size());
        let mut bits = Bitstring::zeros(ch.frame_size().as_usize());
        let mut folded: Vec<u64> = (0..150u64)
            .filter(|i| (i + 1) % 13 != 0)
            .map(|i| TagId::from(i + 1).fold64())
            .collect();
        let mut bases: Vec<u64> = (0..150u64)
            .filter(|i| (i + 1) % 13 != 0)
            .map(|i| (i + 1) % 5)
            .collect();
        let mut members = Vec::new();
        loop {
            let params = walk.announce(&mut cursor, None).unwrap();
            let job = ScanJob::new(&folded, &bases, &params);
            let mut stats = ScanStats::default();
            let Some(rel) = job.scan_range_batched(0, job.len(), &mut members, &mut stats) else {
                break;
            };
            let global = walk.record_reply(rel);
            bits.set(global as usize, true).unwrap();
            for &mi in members.iter().rev() {
                folded.swap_remove(mi as usize);
                bases.swap_remove(mi as usize);
            }
            if walk.is_done() {
                break;
            }
        }
        assert_eq!(bits, *expected.bitstring());
        assert_eq!(walk.announcements(), expected.announcements());
    }

    #[test]
    fn all_mute_or_empty_loads_announce_once() {
        let ch = challenge(16, 5);
        let mut scratch = RoundScratch::new();
        scratch.load_pairs(std::iter::empty());
        assert_eq!(scratch.run(ch.frame_size(), ch.nonces()).unwrap(), 1);
        assert_eq!(scratch.bitstring().count_ones(), 0);

        let mut muted = mixed_parts(5);
        for p in &mut muted {
            p.mute = true;
        }
        scratch.load_participants(&muted);
        assert_eq!(scratch.loaded(), 5);
        assert_eq!(scratch.run(ch.frame_size(), ch.nonces()).unwrap(), 1);
        assert_eq!(scratch.bitstring().count_ones(), 0);
    }
}
