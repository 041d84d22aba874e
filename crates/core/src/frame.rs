//! Optimal frame sizing (paper Eq. 2 and Eq. 3).
//!
//! Scanning time is proportional to the frame size, so the server wants
//! the *minimal* `f` meeting the accuracy constraint:
//!
//! * TRP (Eq. 2): `f* = min{f : g(n, m+1, f) > α}` — by Theorem 2,
//!   satisfying the worst case `x = m + 1` satisfies every `x > m`.
//! * UTRP (Eq. 3): the minimal `f` whose colluder-aware detection
//!   probability exceeds `α`, plus a small safety pad (the paper adds
//!   5–10 slots because Theorem 3's horizon is an expectation).
//!
//! Both detection probabilities are monotone non-decreasing in `f`
//! (verified in the math-module tests), so the search gallops to an
//! upper bound and binary-searches down, then takes one extra local
//! scan to guard against any floating-point non-monotonicity at the
//! boundary.

use tagwatch_sim::FrameSize;

use crate::error::CoreError;
use crate::math::binomial::LnFactorial;
use crate::math::detection::{detection_probability_with, EmptySlotModel};
use crate::math::utrp::utrp_detection_probability_with;
use crate::params::MonitorParams;

/// UTRP sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UtrpSizing {
    /// The colluders' synchronization budget `c` in slots. The paper's
    /// evaluation uses `c = 20`.
    pub sync_budget: u64,
    /// Safety pad added to the minimal feasible frame (paper §6 adds
    /// "a very small number of slots (between 5–10)" to absorb the
    /// expectation approximation in Theorem 3).
    pub safety_pad: u64,
}

impl Default for UtrpSizing {
    fn default() -> Self {
        UtrpSizing {
            sync_budget: 20,
            safety_pad: 8,
        }
    }
}

/// Finds the minimal `f ≥ lo` with `feasible(f)`, assuming monotone
/// feasibility; `None` if nothing up to [`FrameSize::MAX`] works.
///
/// `FnMut` so the predicate can grow its log-factorial table as the
/// gallop widens.
fn min_feasible<F: FnMut(u64) -> bool>(lo: u64, mut feasible: F) -> Option<u64> {
    let cap = FrameSize::MAX;
    let lo = lo.max(1);
    // Gallop for a feasible upper bound.
    let mut hi = lo;
    while !feasible(hi) {
        if hi >= cap {
            return None;
        }
        hi = (hi * 2).min(cap);
    }
    // Bisect on (infeasible, hi]; lo − 1 is below the range, treated as
    // infeasible.
    let mut infeasible = lo - 1;
    while hi - infeasible > 1 {
        let mid = infeasible + (hi - infeasible) / 2;
        if mid == 0 || !feasible(mid) {
            infeasible = mid;
        } else {
            hi = mid;
        }
    }
    // Guard: walk down through any floating-point non-monotone blip.
    while hi > lo && feasible(hi - 1) {
        hi -= 1;
    }
    Some(hi)
}

/// Eq. 2: the minimal TRP frame size for the given parameters.
///
/// ```rust
/// use tagwatch_core::{trp_frame_size, MonitorParams};
///
/// let params = MonitorParams::new(1000, 10, 0.95)?;
/// let f = trp_frame_size(&params)?;
/// assert!(f.get() > 0);
/// # Ok::<(), tagwatch_core::CoreError>(())
/// ```
///
/// # Errors
///
/// Returns [`CoreError::NoFeasibleFrame`] if no frame up to
/// [`FrameSize::MAX`] satisfies the constraint (practically unreachable
/// for valid [`MonitorParams`]).
pub fn trp_frame_size(params: &MonitorParams) -> Result<FrameSize, CoreError> {
    trp_frame_size_with_model(params, EmptySlotModel::Poisson)
}

/// [`trp_frame_size`] with an explicit empty-slot model.
///
/// # Errors
///
/// Same as [`trp_frame_size`].
pub fn trp_frame_size_with_model(
    params: &MonitorParams,
    model: EmptySlotModel,
) -> Result<FrameSize, CoreError> {
    let n = params.population();
    let x = params.worst_case_missing();
    let alpha = params.confidence();

    // Detection at frame f needs ln-factorials up to f (and n ≥ x).
    // Grow ahead of the gallop in power-of-two steps so a search that
    // overshoots its starting guess extends the same table instead of
    // rebuilding it (growth is bit-identical to a direct build, see
    // `LnFactorial::grow_to`).
    let mut table = LnFactorial::up_to(0);
    let mut table_cap = (4 * n).clamp(64, FrameSize::MAX);
    loop {
        table.grow_to(table_cap);
        let feasible =
            |f: u64| f <= table_cap && detection_probability_with(&table, n, x, f, model) > alpha;
        match min_feasible(1, feasible) {
            Some(f) if f <= table_cap => {
                return FrameSize::new(f).map_err(CoreError::from);
            }
            _ => {
                if table_cap >= FrameSize::MAX {
                    return Err(CoreError::NoFeasibleFrame {
                        n,
                        m: params.tolerance(),
                    });
                }
                table_cap = (table_cap * 2).min(FrameSize::MAX);
            }
        }
    }
}

/// The TRP detection probability achieved at a given frame size — the
/// quantity Fig. 5 plots against the `α` line.
#[must_use]
pub fn trp_detection_at(params: &MonitorParams, f: FrameSize) -> f64 {
    crate::math::detection::detection_probability(
        params.population(),
        params.worst_case_missing(),
        f.get(),
        EmptySlotModel::Poisson,
    )
}

/// Eq. 3: the minimal UTRP frame size (plus the configured safety pad)
/// for the given parameters and collusion budget.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] when `n ≤ m + 1` (no valid
/// colluder split exists) and [`CoreError::NoFeasibleFrame`] if nothing
/// up to [`FrameSize::MAX`] works.
pub fn utrp_frame_size(params: &MonitorParams, sizing: UtrpSizing) -> Result<FrameSize, CoreError> {
    let n = params.population();
    let m = params.tolerance();
    let alpha = params.confidence();
    if m + 1 >= n {
        return Err(CoreError::InvalidParams {
            reason: format!(
                "utrp sizing needs n > m + 1 (got n = {n}, m = {m}) so both colluders hold tags"
            ),
        });
    }
    let mut table = LnFactorial::up_to(0);
    let feasible = |f: u64| {
        utrp_detection_probability_with(
            &mut table,
            n,
            m,
            f,
            sizing.sync_budget,
            EmptySlotModel::Poisson,
        ) > alpha
    };
    let f = min_feasible(1, feasible).ok_or(CoreError::NoFeasibleFrame { n, m })?;
    FrameSize::new(f + sizing.safety_pad).map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::utrp::utrp_detection_probability;

    fn params(n: u64, m: u64) -> MonitorParams {
        MonitorParams::new(n, m, 0.95).unwrap()
    }

    #[test]
    fn trp_frame_meets_constraint_minimally() {
        for &(n, m) in &[(100u64, 5u64), (500, 10), (1000, 20), (2000, 30)] {
            let p = params(n, m);
            let f = trp_frame_size(&p).unwrap().get();
            let at = |f: u64| {
                crate::math::detection::detection_probability(n, m + 1, f, EmptySlotModel::Poisson)
            };
            assert!(at(f) > 0.95, "n={n} m={m}: g({f}) = {}", at(f));
            if f > 1 {
                assert!(
                    at(f - 1) <= 0.95,
                    "n={n} m={m}: f={f} not minimal, g({}) = {}",
                    f - 1,
                    at(f - 1)
                );
            }
        }
    }

    #[test]
    fn trp_frame_shrinks_with_tolerance() {
        // Fig. 4's headline: larger tolerance → smaller frames.
        let f5 = trp_frame_size(&params(1000, 5)).unwrap().get();
        let f10 = trp_frame_size(&params(1000, 10)).unwrap().get();
        let f30 = trp_frame_size(&params(1000, 30)).unwrap().get();
        assert!(f5 > f10 && f10 > f30, "{f5} > {f10} > {f30} violated");
    }

    #[test]
    fn trp_frame_grows_roughly_linearly_in_population() {
        let f500 = trp_frame_size(&params(500, 10)).unwrap().get() as f64;
        let f1000 = trp_frame_size(&params(1000, 10)).unwrap().get() as f64;
        let f2000 = trp_frame_size(&params(2000, 10)).unwrap().get() as f64;
        let r1 = f1000 / f500;
        let r2 = f2000 / f1000;
        assert!(
            (1.3..=2.7).contains(&r1) && (1.3..=2.7).contains(&r2),
            "growth ratios {r1}, {r2} not roughly linear"
        );
    }

    #[test]
    fn trp_beats_collect_all_slot_count() {
        // Fig. 4: TRP uses fewer slots than n (collect-all needs at
        // least n slots to hear every tag) once tolerance is loose.
        let f = trp_frame_size(&params(2000, 30)).unwrap().get();
        assert!(f < 2000, "f = {f}");
    }

    #[test]
    fn stricter_confidence_needs_bigger_frames() {
        let loose = trp_frame_size(&MonitorParams::new(800, 10, 0.90).unwrap())
            .unwrap()
            .get();
        let strict = trp_frame_size(&MonitorParams::new(800, 10, 0.99).unwrap())
            .unwrap()
            .get();
        assert!(strict > loose, "{strict} <= {loose}");
    }

    #[test]
    fn utrp_frame_exceeds_trp_frame() {
        // Fig. 6: collusion resistance costs slots, but not many.
        for &(n, m) in &[(500u64, 5u64), (1000, 10), (2000, 30)] {
            let p = params(n, m);
            let trp = trp_frame_size(&p).unwrap().get();
            let utrp = utrp_frame_size(&p, UtrpSizing::default()).unwrap().get();
            assert!(utrp >= trp, "n={n} m={m}: utrp {utrp} < trp {trp}");
            assert!(
                utrp < 3 * trp + 200,
                "n={n} m={m}: utrp overhead implausibly large ({utrp} vs {trp})"
            );
        }
    }

    #[test]
    fn utrp_meets_constraint_after_pad_removal() {
        let p = params(1000, 10);
        let sizing = UtrpSizing::default();
        let f = utrp_frame_size(&p, sizing).unwrap().get();
        let unpadded = f - sizing.safety_pad;
        let d = utrp_detection_probability(
            1000,
            10,
            unpadded,
            sizing.sync_budget,
            EmptySlotModel::Poisson,
        );
        assert!(d > 0.95, "detection at unpadded frame {unpadded}: {d}");
        if unpadded > 1 {
            let d_prev = utrp_detection_probability(
                1000,
                10,
                unpadded - 1,
                sizing.sync_budget,
                EmptySlotModel::Poisson,
            );
            assert!(d_prev <= 0.95, "not minimal: {d_prev} at {}", unpadded - 1);
        }
    }

    #[test]
    fn utrp_frame_grows_with_sync_budget() {
        let p = params(1000, 10);
        let small = utrp_frame_size(
            &p,
            UtrpSizing {
                sync_budget: 5,
                safety_pad: 0,
            },
        )
        .unwrap()
        .get();
        let large = utrp_frame_size(
            &p,
            UtrpSizing {
                sync_budget: 80,
                safety_pad: 0,
            },
        )
        .unwrap()
        .get();
        assert!(large > small, "c=80 → {large} <= c=5 → {small}");
    }

    #[test]
    fn utrp_rejects_degenerate_split() {
        let p = MonitorParams::new(6, 5, 0.95).unwrap();
        assert!(matches!(
            utrp_frame_size(&p, UtrpSizing::default()),
            Err(CoreError::InvalidParams { .. })
        ));
    }

    #[test]
    fn trp_detection_at_reports_probability() {
        let p = params(500, 5);
        let f = trp_frame_size(&p).unwrap();
        let d = trp_detection_at(&p, f);
        assert!(d > 0.95 && d <= 1.0);
    }

    #[test]
    fn strict_monitoring_m_zero() {
        // m = 0, α = 0.99 (§4.3's "strict" example) must size cleanly.
        let p = MonitorParams::new(300, 0, 0.99).unwrap();
        let f = trp_frame_size(&p).unwrap().get();
        let g = crate::math::detection::detection_probability(300, 1, f, EmptySlotModel::Poisson);
        assert!(g > 0.99, "g({f}) = {g}");
    }

    #[test]
    fn tiny_population_sizes() {
        let p = MonitorParams::new(2, 0, 0.5).unwrap();
        let f = trp_frame_size(&p).unwrap();
        assert!(f.get() >= 1);
    }
}
