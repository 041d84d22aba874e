//! Byte-level pin of the reader's observable output on a noisy channel.
//!
//! Reply loss, phantom replies and capture all draw from the reader's
//! RNG once per slot, so this digest fixes the slot-resolution order,
//! the air-time billing of both frame kinds, and the reader's running
//! clock and slot counter. Any change to how a frame is driven that
//! alters one bit of that output changes the digest.

use tagwatch_sim::aloha::FramePlan;
use tagwatch_sim::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(hash: &mut u64, text: &str) {
    for &byte in text.as_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

#[test]
fn noisy_channel_reader_output_is_pinned() {
    let channel = Channel::with_config(ChannelConfig {
        reply_loss_prob: 0.1,
        phantom_reply_prob: 0.05,
        capture_prob: 0.5,
        ..ChannelConfig::default()
    })
    .unwrap();
    let mut reader = Reader::new(ReaderConfig {
        timing: TimingModel::gen2(),
        seed: 9,
    });
    let mut floor = TagPopulation::with_sequential_ids(300);

    let mut hash = FNV_OFFSET;
    for k in 0..6u64 {
        let plan = FramePlan::new(FrameSize::new(200 + 17 * k).unwrap(), Nonce::new(1000 + k));
        let presence = reader.run_presence_frame(&plan, &floor, &channel).unwrap();
        fold(
            &mut hash,
            &format!(
                "{:?}|{}",
                presence.outcomes(),
                presence.duration().as_micros()
            ),
        );
        let round = reader
            .run_collection_frame(&plan, &mut floor, &channel)
            .unwrap();
        fold(
            &mut hash,
            &format!(
                "{:?}|{:?}|{}",
                round.execution.outcomes(),
                round.collected,
                round.collided_slots
            ),
        );
    }
    fold(
        &mut hash,
        &format!("{}|{}", reader.clock().as_micros(), reader.slots_used()),
    );

    assert_eq!(format!("{hash:016x}"), "5f63530d59e94b26");
}
