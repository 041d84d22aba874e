//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use tagwatch_sim::epc::Sgtin96;
use tagwatch_sim::hash::mix64;
use tagwatch_sim::tag::{SlotMode, Tag};
use tagwatch_sim::time::SimDuration;
use tagwatch_sim::{slot_for, Counter, FrameSize, Nonce, SeedSequence, TagId, TagPopulation};

proptest! {
    // ---------------- time ----------------

    #[test]
    fn duration_sub_add_round_trip(a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let d = SimDuration::from_micros(hi) - SimDuration::from_micros(lo);
        prop_assert_eq!(d + SimDuration::from_micros(lo), SimDuration::from_micros(hi));
    }

    // ---------------- identity ----------------

    #[test]
    fn tag_id_display_parse_round_trip(raw in any::<u128>()) {
        let id = TagId::new(raw);
        let parsed: TagId = id.to_string().parse().unwrap();
        prop_assert_eq!(parsed, id);
    }

    #[test]
    fn frame_size_validation_is_total(raw in any::<u64>()) {
        match FrameSize::new(raw) {
            Ok(f) => {
                prop_assert!((1..=FrameSize::MAX).contains(&raw));
                prop_assert_eq!(f.get(), raw);
            }
            Err(_) => prop_assert!(raw == 0 || raw > FrameSize::MAX),
        }
    }

    #[test]
    fn frame_shrink_matches_arithmetic(f in 1u64..10_000, used in 0u64..12_000) {
        let frame = FrameSize::new(f).unwrap();
        match frame.shrink_by(used) {
            Some(s) => prop_assert_eq!(s.get(), f - used),
            None => prop_assert!(used >= f),
        }
    }

    // ---------------- hashing ----------------

    #[test]
    fn mix64_is_injective_on_pairs(a in any::<u64>(), b in any::<u64>()) {
        if a != b {
            prop_assert_ne!(mix64(a), mix64(b));
        }
    }

    #[test]
    fn slot_choice_is_pure(id in any::<u128>(), r in any::<u64>(), f in 1u64..1_000_000) {
        let f = FrameSize::new(f).unwrap();
        let s1 = slot_for(TagId::new(id), Nonce::new(r), f);
        let s2 = slot_for(TagId::new(id), Nonce::new(r), f);
        prop_assert_eq!(s1, s2);
        prop_assert!(s1 < f.get());
    }

    // ---------------- tag state machine ----------------

    #[test]
    fn tag_replies_exactly_in_its_slot(id in any::<u64>(), r in any::<u64>(), f in 1u64..256) {
        let f = FrameSize::new(f).unwrap();
        let mut tag = Tag::new(TagId::from(id));
        let slot = tag.on_frame(f, Nonce::new(r), SlotMode::Plain);
        let replies = (0..f.get())
            .filter(|&sn| {
                let mut t = tag.clone();
                t.on_slot(sn, false).is_some()
            })
            .count();
        prop_assert_eq!(replies, 1);
        prop_assert_eq!(tag.pending_slot(), Some(slot));
    }

    #[test]
    fn counted_mode_advances_counter_per_announcement(
        id in any::<u64>(),
        rounds in 1usize..20,
        f in 1u64..64,
    ) {
        let f = FrameSize::new(f).unwrap();
        let mut tag = Tag::new(TagId::from(id));
        for k in 1..=rounds {
            tag.on_frame(f, Nonce::new(k as u64), SlotMode::Counted);
            prop_assert_eq!(tag.counter(), Counter::new(k as u64));
        }
    }

    // ---------------- population ----------------

    #[test]
    fn remove_random_preserves_partition(n in 1usize..300, k in 0usize..300, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pop = TagPopulation::with_sequential_ids(n);
        let k = k.min(n);
        let removed = pop.remove_random(k, &mut rng).unwrap();
        prop_assert_eq!(removed.len(), k);
        prop_assert_eq!(pop.len(), n - k);
        for tag in &removed {
            prop_assert!(!pop.contains(tag.id()));
        }
        // Nothing invented: every removed id was an original.
        for tag in &removed {
            prop_assert!(tag.id().as_u128() >= 1 && tag.id().as_u128() <= n as u128);
        }
    }

    // ---------------- seeds ----------------

    #[test]
    fn seed_children_never_collide_with_parent_stream(root in any::<u64>(), i in 0u64..1_000, j in 0u64..1_000) {
        let s = SeedSequence::new(root);
        if i != j {
            prop_assert_ne!(s.seed_for(i), s.seed_for(j));
        }
    }

    // ---------------- sgtin ----------------

    #[test]
    fn sgtin_round_trips(
        filter in 0u8..8,
        partition in 0u8..7,
        cp in any::<u64>(),
        ir in any::<u64>(),
        serial in 0u64..(1u64<<38),
    ) {
        // Mask fields into range for the chosen partition.
        let widths = [(40u32, 4u32), (37, 7), (34, 10), (30, 14), (27, 17), (24, 20), (20, 24)];
        let (cpb, irb) = widths[partition as usize];
        let cp = cp & ((1u64 << cpb) - 1);
        let ir = ir & ((1u64 << irb) - 1);
        let s = Sgtin96::new(filter, partition, cp, ir, serial).unwrap();
        prop_assert_eq!(Sgtin96::decode(s.encode()).unwrap(), s);
    }
}
