//! Device-level integration: readers, tags and channel working together,
//! with timing invariants under both timing models.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tagwatch_sim::aloha::FramePlan;
use tagwatch_sim::prelude::*;

fn plan(f: u64, r: u64) -> FramePlan {
    FramePlan::new(FrameSize::new(f).unwrap(), Nonce::new(r))
}

#[test]
fn a_full_inventory_day_on_one_reader() {
    // Morning presence check, midday collection, evening presence check
    // — one reader accumulating clock and slots across heterogeneous
    // rounds.
    let mut reader = Reader::new(ReaderConfig {
        timing: TimingModel::gen2(),
        seed: 0,
    });
    let mut floor = TagPopulation::with_sequential_ids(120);
    let channel = Channel::ideal();

    let morning = reader
        .run_presence_frame(&plan(256, 1), &floor, &channel)
        .unwrap();
    assert!(morning.stats().occupancy() > 0.0);

    let midday = reader
        .run_collection_frame(&plan(512, 2), &mut floor, &channel)
        .unwrap();
    assert!(!midday.collected.is_empty());

    floor.reset_inventory();
    let evening = reader
        .run_presence_frame(&plan(256, 3), &floor, &channel)
        .unwrap();
    assert_eq!(evening.occupancy_bits().len(), 256);

    // Three frames ran: the slot counter and the clock are the sums
    // over exactly those three executions.
    let executions = [&morning, &midday.execution, &evening];
    let slots: u64 = executions.iter().map(|e| e.plan().frame_size().get()).sum();
    assert_eq!(slots, 256 + 512 + 256);
    assert_eq!(reader.slots_used(), slots);
    let expected: SimDuration = executions.iter().map(|e| e.duration()).sum();
    assert_eq!(reader.clock(), expected);
}

#[test]
fn uniform_timing_equates_slots_and_micros() {
    // The paper's cost model: duration == slot count exactly.
    let mut reader = Reader::new(ReaderConfig::default());
    let floor = TagPopulation::with_sequential_ids(50);
    let exec = reader
        .run_presence_frame(&plan(128, 9), &floor, &Channel::ideal())
        .unwrap();
    assert_eq!(exec.duration().as_micros(), 128);
}

#[test]
fn gen2_duration_decomposes_by_outcome_kind() {
    let timing = TimingModel::gen2();
    let mut reader = Reader::new(ReaderConfig {
        timing,
        ..ReaderConfig::default()
    });
    let floor = TagPopulation::with_sequential_ids(300);
    let exec = reader
        .run_presence_frame(&plan(200, 4), &floor, &Channel::ideal())
        .unwrap();
    let stats = exec.stats();
    let expected = timing.frame_announce
        + timing.slot_broadcast * 200
        + timing.empty_slot * stats.empty
        + timing.presence_reply * stats.singles
        + timing.collision_slot * stats.collisions;
    assert_eq!(exec.duration(), expected);
}

#[test]
fn multiround_collection_drains_large_population() {
    // Collection rounds with shrinking frames until everyone is read —
    // the substrate loop underlying collect-all, driven manually.
    let mut reader = Reader::new(ReaderConfig::default());
    let mut floor = TagPopulation::with_sequential_ids(1_000);
    let channel = Channel::ideal();
    let mut collected = 0usize;
    let mut rng = StdRng::seed_from_u64(5);
    let mut round = 0u64;
    while collected < 1_000 {
        use rand::Rng;
        let remaining = (1_000 - collected).max(1) as u64;
        let p = FramePlan::new(FrameSize::new(remaining).unwrap(), Nonce::new(rng.gen()));
        let out = reader
            .run_collection_frame(&p, &mut floor, &channel)
            .unwrap();
        collected += out.collected.len();
        round += 1;
        assert!(round < 100, "failed to converge");
    }
    assert_eq!(collected, 1_000);
}

#[test]
fn capture_heavy_channel_speeds_up_collection() {
    let run_rounds = |capture: f64| -> u32 {
        let channel = Channel::with_config(ChannelConfig {
            capture_prob: capture,
            ..ChannelConfig::default()
        })
        .unwrap();
        let mut reader = Reader::new(ReaderConfig {
            seed: 11,
            ..ReaderConfig::default()
        });
        let mut floor = TagPopulation::with_sequential_ids(400);
        let mut rng = StdRng::seed_from_u64(11);
        let mut collected = 0usize;
        let mut rounds = 0u32;
        while collected < 400 && rounds < 200 {
            use rand::Rng;
            let remaining = (400 - collected).max(1) as u64;
            let p = FramePlan::new(FrameSize::new(remaining).unwrap(), Nonce::new(rng.gen()));
            collected += reader
                .run_collection_frame(&p, &mut floor, &channel)
                .unwrap()
                .collected
                .len();
            rounds += 1;
        }
        assert_eq!(collected, 400);
        rounds
    };
    assert!(run_rounds(0.95) <= run_rounds(0.0));
}

#[test]
fn every_slot_of_the_frame_is_resolved() {
    let mut reader = Reader::new(ReaderConfig::default());
    let floor = TagPopulation::with_sequential_ids(10);
    let exec = reader
        .run_presence_frame(&plan(32, 2), &floor, &Channel::ideal())
        .unwrap();
    assert_eq!(exec.outcomes().len(), 32);
    assert_eq!(exec.stats().total(), 32);
}

#[test]
fn seed_sequence_drives_reproducible_multi_reader_fleets() {
    // Two "sites" running the same experiment from the same root seed
    // must agree bit-for-bit even with noisy channels.
    let run_site = || {
        let seeds = SeedSequence::new(314);
        let channel = Channel::with_config(ChannelConfig {
            reply_loss_prob: 0.1,
            ..ChannelConfig::default()
        })
        .unwrap();
        let mut occupancies = Vec::new();
        for trial in 0..5u64 {
            let mut reader = Reader::new(ReaderConfig {
                seed: seeds.seed_for(trial),
                ..ReaderConfig::default()
            });
            let floor = TagPopulation::with_sequential_ids(64);
            let exec = reader
                .run_presence_frame(&plan(128, trial), &floor, &channel)
                .unwrap();
            occupancies.push(exec.occupancy_bits());
        }
        occupancies
    };
    assert_eq!(run_site(), run_site());
}

#[test]
fn detuned_then_restored_tag_reappears() {
    let mut reader = Reader::new(ReaderConfig::default());
    let mut floor = TagPopulation::with_sequential_ids(1);
    let id = floor.ids()[0];
    let channel = Channel::ideal();

    floor.get_mut(id).unwrap().set_detuned(true);
    let silent = reader
        .run_presence_frame(&plan(8, 1), &floor, &channel)
        .unwrap();
    assert_eq!(silent.stats().singles, 0);

    floor.get_mut(id).unwrap().set_detuned(false);
    let audible = reader
        .run_presence_frame(&plan(8, 1), &floor, &channel)
        .unwrap();
    assert_eq!(audible.stats().singles, 1);
}
