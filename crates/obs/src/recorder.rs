//! The flight recorder: a bounded ring of recent events.
//!
//! Production systems don't log everything forever — they keep the
//! last N structured events in a ring and dump it when something goes
//! wrong. [`FlightRecorder`] is that ring for [`ObsEvent`]s: push is
//! O(1) and allocation-free once the ring is full (drop-oldest, with a
//! dropped counter so truncation is visible), and
//! [`FlightRecorder::to_jsonl`] serializes the surviving window
//! byte-stably for postmortems and CI diffing.

use std::collections::VecDeque;

use crate::event::ObsEvent;

/// Default ring capacity: enough for thousands of round/tick events —
/// a generous postmortem window — while bounding memory to a few
/// hundred kilobytes.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// A bounded, drop-oldest ring buffer of sequence-stamped events.
///
/// Sequence numbers are assigned at push time, start at 0, and never
/// reset — after drops, the first retained event's `seq` tells a
/// reader exactly how much history is missing.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<(u64, ObsEvent)>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// Creates a recorder with [`DEFAULT_RING_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs a positive capacity");
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: ObsEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((self.next_seq, event));
        self.next_seq += 1;
    }

    /// Events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted to respect the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed (retained + dropped).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Iterates over retained `(seq, event)` pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, ObsEvent)> {
        self.ring.iter()
    }

    /// Discards all retained events (sequence numbering continues).
    pub fn clear(&mut self) {
        self.dropped += self.ring.len() as u64;
        self.ring.clear();
    }

    /// Serializes the retained window as JSONL: one event object per
    /// line, oldest first, trailing newline after every line. Two
    /// recorders that saw the same pushes produce byte-identical
    /// output.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.ring.len() * 64);
        for &(seq, ref event) in &self.ring {
            event.write_json(seq, &mut out);
            out.push('\n');
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::VerdictKind;

    fn tick(t: u64) -> ObsEvent {
        ObsEvent::TickCompleted {
            tick: t,
            verdict: VerdictKind::Intact,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut fr = FlightRecorder::with_capacity(3);
        for t in 0..5 {
            fr.push(tick(t));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        assert_eq!(fr.total_recorded(), 5);
        let seqs: Vec<u64> = fr.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, [2, 3, 4], "oldest survivors reveal the gap");
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let mut fr = FlightRecorder::new();
        fr.push(tick(0));
        fr.push(tick(1));
        let text = fr.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        assert!(text.starts_with("{\"seq\":0,\"type\":\"tick_completed\""));
    }

    #[test]
    fn same_pushes_same_bytes() {
        let build = || {
            let mut fr = FlightRecorder::with_capacity(4);
            for t in 0..9 {
                fr.push(tick(t));
            }
            fr.to_jsonl()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn clear_keeps_sequence_monotonic() {
        let mut fr = FlightRecorder::new();
        fr.push(tick(0));
        fr.clear();
        assert!(fr.is_empty());
        fr.push(tick(1));
        assert_eq!(fr.iter().next().unwrap().0, 1);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_panics() {
        let _ = FlightRecorder::with_capacity(0);
    }
}
