//! Property-based tests for the protocol layer's math and state.

use proptest::prelude::*;

use tagwatch_core::math::binomial::{binomial_terms, binomial_window, LnFactorial};
use tagwatch_core::math::detection::{detection_probability, EmptySlotModel};
use tagwatch_core::math::utrp::{sync_horizon, utrp_detection_probability};
use tagwatch_core::registry::RegistrySnapshot;
use tagwatch_core::{MonitorParams, NonceSequence};
use tagwatch_sim::{Counter, TagId};

proptest! {
    // ---------------- binomial machinery ----------------

    #[test]
    fn pmf_is_normalized(n in 1u64..400, p in 0.0f64..1.0) {
        let t = LnFactorial::up_to(n);
        let total: f64 = (0..=n).map(|k| t.binomial_pmf(n, p, k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8, "sum = {total}");
    }

    #[test]
    fn windowed_mass_is_nearly_total(n in 1u64..3_000, p in 0.001f64..0.999) {
        let t = LnFactorial::up_to(n);
        let mass: f64 = binomial_terms(&t, n, p, 12.0).map(|(_, pm)| pm).sum();
        prop_assert!((mass - 1.0).abs() < 1e-7, "windowed mass = {mass}");
    }

    #[test]
    fn window_bounds_are_ordered_and_clamped(n in 0u64..10_000, p in 0.0f64..1.0, s in 0.1f64..20.0) {
        let (lo, hi) = binomial_window(n, p, s);
        prop_assert!(lo <= hi);
        prop_assert!(hi <= n);
    }

    #[test]
    fn ln_choose_symmetry(n in 0u64..500, k in 0u64..500) {
        let t = LnFactorial::up_to(n.max(1));
        if k <= n {
            let a = t.ln_choose(n, k);
            let b = t.ln_choose(n, n - k);
            prop_assert!((a - b).abs() < 1e-9);
        } else {
            prop_assert_eq!(t.ln_choose(n, k), f64::NEG_INFINITY);
        }
    }

    // ---------------- detection probability ----------------

    #[test]
    fn g_is_a_probability(n in 1u64..2_000, x_frac in 0.0f64..1.0, f in 1u64..4_000) {
        let x = ((n as f64) * x_frac) as u64;
        for model in [EmptySlotModel::Poisson, EmptySlotModel::Exact] {
            let g = detection_probability(n, x, f, model);
            prop_assert!((0.0..=1.0).contains(&g), "g = {g}");
        }
    }

    #[test]
    fn g_monotone_in_x(n in 10u64..800, f in 10u64..2_000, x1 in 1u64..40, x2 in 1u64..40) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let hi = hi.min(n);
        let lo = lo.min(hi);
        let g_lo = detection_probability(n, lo, f, EmptySlotModel::Poisson);
        let g_hi = detection_probability(n, hi, f, EmptySlotModel::Poisson);
        prop_assert!(g_hi >= g_lo - 1e-9, "x={lo}:{g_lo} vs x={hi}:{g_hi}");
    }

    #[test]
    fn poisson_and_exact_stay_close(n in 50u64..1_500, m in 0u64..30, f_mult in 1u64..4) {
        let x = m + 1;
        if x < n {
            let f = (n * f_mult).max(32);
            let a = detection_probability(n, x, f, EmptySlotModel::Poisson);
            let b = detection_probability(n, x, f, EmptySlotModel::Exact);
            prop_assert!((a - b).abs() < 0.02, "poisson {a} vs exact {b}");
        }
    }

    // ---------------- utrp analysis ----------------

    #[test]
    fn utrp_detection_is_a_probability(n in 10u64..1_000, m in 0u64..8, f in 1u64..2_000, c in 0u64..50) {
        if m + 1 < n {
            let d = utrp_detection_probability(n, m, f, c, EmptySlotModel::Poisson);
            prop_assert!((0.0..=1.0).contains(&d), "d = {d}");
        }
    }

    #[test]
    fn utrp_detection_never_beats_unsynced_bound(n in 20u64..500, m in 0u64..5, f in 50u64..1_500) {
        // More collusion can only hurt detection.
        if m + 1 < n {
            let none = utrp_detection_probability(n, m, f, 0, EmptySlotModel::Poisson);
            let some = utrp_detection_probability(n, m, f, 25, EmptySlotModel::Poisson);
            prop_assert!(some <= none + 1e-9, "c=25 {some} > c=0 {none}");
        }
    }

    #[test]
    fn sync_horizon_scales_linearly_in_budget(n in 10u64..1_000, m in 0u64..9, f in 10u64..5_000, c in 1u64..100) {
        if m < n {
            let one = sync_horizon(n, m, f, 1);
            let many = sync_horizon(n, m, f, c);
            prop_assert!((many - one * c as f64).abs() < 1e-6 * many.max(1.0));
        }
    }

    // ---------------- params ----------------

    #[test]
    fn params_validation_is_total(n in 0u64..10_000, m in 0u64..10_000, alpha in -1.0f64..2.0) {
        match MonitorParams::new(n, m, alpha) {
            Ok(p) => {
                prop_assert!(n > 0 && m < n && alpha > 0.0 && alpha < 1.0);
                prop_assert_eq!(p.population(), n);
                prop_assert_eq!(p.worst_case_missing(), m + 1);
            }
            Err(_) => {
                prop_assert!(n == 0 || m >= n || alpha <= 0.0 || alpha >= 1.0 || alpha.is_nan());
            }
        }
    }

    // ---------------- registry codec ----------------

    #[test]
    fn snapshot_text_round_trips(
        m in 0u64..50,
        alpha_milli in 1u64..999,
        synced in any::<bool>(),
        entries in prop::collection::btree_map(any::<u128>(), any::<u64>(), 0..60),
    ) {
        let snap = RegistrySnapshot {
            tolerance: m,
            alpha: alpha_milli as f64 / 1000.0,
            counters_synced: synced,
            entries: entries
                .into_iter()
                .map(|(id, ct)| (TagId::new(id), Counter::new(ct)))
                .collect(),
        };
        let back = RegistrySnapshot::from_text(&snap.to_text()).unwrap();
        prop_assert_eq!(back, snap);
    }

    // ---------------- nonce sequences ----------------

    #[test]
    fn nonce_sequences_from_equal_seeds_agree(len in 0usize..128, seed in any::<u64>()) {
        use rand::SeedableRng;
        let a = NonceSequence::generate(len, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let b = NonceSequence::generate(len, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(a, b);
    }

    // ---------------- SoA round engine ----------------

    #[test]
    fn soa_engine_matches_reference_on_random_rounds(
        counters in prop::collection::vec(0u64..1_000, 1..200),
        f in 1u64..300,
        mute_mod in 2u64..20,
        nonce_seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        use tagwatch_core::utrp::{
            simulate_round, simulate_round_reference, UtrpChallenge, UtrpParticipant,
        };
        use tagwatch_core::RoundScratch;
        use tagwatch_sim::{FrameSize, TimingModel};

        // Random population: ids dense, counters arbitrary (uniform
        // bases sometimes — exercising the key-collapse fast path —
        // and scattered otherwise), a modular mute subset.
        let mut rng = rand::rngs::StdRng::seed_from_u64(nonce_seed);
        let ch = UtrpChallenge::generate(
            FrameSize::new(f).unwrap(),
            &TimingModel::gen2(),
            &mut rng,
        );
        let mut fast: Vec<UtrpParticipant> = counters
            .iter()
            .enumerate()
            .map(|(i, &ct)| {
                let mut p = UtrpParticipant::new(TagId::from(i as u64 + 1), Counter::new(ct));
                p.mute = (i as u64).is_multiple_of(mute_mod);
                p
            })
            .collect();
        let pristine = fast.clone();
        let mut reference = fast.clone();

        let a = simulate_round(&mut fast, ch.frame_size(), ch.nonces()).unwrap();
        let b = simulate_round_reference(&mut reference, ch.frame_size(), ch.nonces()).unwrap();
        prop_assert_eq!(&a, &b, "outcome diverged");
        prop_assert_eq!(&fast, &reference, "counters diverged");

        // A reused scratch must agree with the one-shot path too.
        let mut scratch = RoundScratch::new();
        for _ in 0..2 {
            scratch.load_participants(&pristine);
            let announcements = scratch.run(ch.frame_size(), ch.nonces()).unwrap();
            prop_assert_eq!(scratch.bitstring(), &a.bitstring);
            prop_assert_eq!(announcements, a.announcements);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn batched_kernel_counts_exactly_like_the_sequential_reference(
        size_index in 0usize..6,
        lo_raw in 0usize..=4097,
        hi_raw in 0usize..=4097,
        f_exp in 0.0f64..5.0,
        per_tag_bases in any::<bool>(),
        advance in 1u64..1_000,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        use tagwatch_core::{ScanJob, ScanParams, ScanStats};
        use tagwatch_sim::hash::{mix64, FastMod};

        // Sizes straddle the SCAN_BATCH = 64 block boundaries.
        let size = [0usize, 1, 63, 64, 65, 4097][size_index];
        // Frames log-uniform over 1..=10⁵: dense and sparse scans alike.
        let f = 10f64.powf(f_exp).round().max(1.0) as u64;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let folded: Vec<u64> = (0..size).map(|_| rng.gen()).collect();
        let uniform_base: u64 = rng.gen_range(0..1_000);
        let bases: Vec<u64> = (0..size)
            .map(|_| if per_tag_bases { rng.gen_range(0..1_000) } else { uniform_base })
            .collect();
        let nonce: u64 = rng.gen();
        let params = ScanParams {
            nonce,
            advance,
            uniform_key: (!per_tag_bases)
                .then(|| nonce ^ mix64(uniform_base.wrapping_add(advance))),
            frame: FastMod::from_divisor(f),
        };
        let job = ScanJob::new(&folded, &bases, &params);
        // Ragged ranges: any lo..hi inside the active arrays, so block
        // boundaries land mid-range and tail blocks are partial.
        let (a, b) = (lo_raw % (size + 1), hi_raw % (size + 1));
        let (lo, hi) = (a.min(b), a.max(b));

        // Start both from the same non-zero totals: scans accumulate.
        let mut seq_stats = ScanStats { probes: 7, filtered: 3 };
        let mut bat_stats = seq_stats;
        let mut seq_members = vec![u32::MAX; 3];
        let mut bat_members = vec![u32::MAX; 5];
        let seq = job.scan_range(lo, hi, &mut seq_members, &mut seq_stats);
        let bat = job.scan_range_batched(lo, hi, &mut bat_members, &mut bat_stats);
        prop_assert_eq!(bat, seq, "minimum slot");
        prop_assert_eq!(&bat_members, &seq_members, "replier set");
        prop_assert_eq!(bat_stats, seq_stats, "probe accounting");
        prop_assert_eq!(seq_stats.probes, 7 + (hi - lo) as u64);
    }
}
