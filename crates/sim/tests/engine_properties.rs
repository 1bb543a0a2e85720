//! Property tests of the event queue: random schedule / dispatch / peek
//! interleavings must pop in exactly the order a naive sorted-vec
//! reference model produces, on fresh and on recycled engines.
//!
//! Driven by `SplitMix64::cases` instead of `proptest` (crates.io is
//! unreachable in the build environment).

use extrap_sim::Engine;
use extrap_time::{SplitMix64, TimeNs};

const CASES: u64 = 64;
const STEPS: usize = 400;

/// The naive reference model: a flat vector of `(time, seq, payload)`
/// scanned linearly for the minimum on every pop.
#[derive(Default)]
struct NaiveQueue {
    now: u64,
    next_seq: u64,
    pending: Vec<(u64, u64, u32)>,
}

impl NaiveQueue {
    fn schedule(&mut self, at: u64, payload: u32) {
        assert!(at >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq, payload));
    }

    fn next(&mut self) -> Option<(u64, u32)> {
        let i = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(time, seq, _))| (time, seq))
            .map(|(i, _)| i)?;
        let (time, _, payload) = self.pending.remove(i);
        self.now = time;
        Some((time, payload))
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending
            .iter()
            .min_by_key(|&&(time, seq, _)| (time, seq))
            .map(|&(time, _, _)| time)
    }
}

/// Drives a random schedule / dispatch / peek interleaving through the
/// engine and the naive model simultaneously, asserting they agree at
/// every step.  The delay distribution mixes dense ties, mid-range
/// spreads, and rare huge jumps.
fn interleaving(rng: &mut SplitMix64) {
    let mut eng: Engine<u32> = Engine::new();
    let mut naive = NaiveQueue::default();
    let mut payload = 0u32;

    for _ in 0..STEPS {
        match rng.below(10) {
            // ~60%: schedule at now + random delay (0 allowed —
            // equal-time FIFO ordering is part of the contract).
            0..=5 => {
                let delay = match rng.below(16) {
                    // Dense: lots of collisions and small gaps.
                    0..=11 => rng.below(50),
                    // Mid-range spread.
                    12..=14 => rng.below(100_000),
                    // Rare huge jump: sparse far horizon.
                    _ => rng.below(1 << 40),
                };
                let at = naive.now + delay;
                payload += 1;
                eng.schedule(TimeNs(at), payload);
                naive.schedule(at, payload);
            }
            // ~30%: dispatch one event.
            6..=8 => {
                assert_eq!(eng.peek_time().map(TimeNs::as_ns), naive.peek_time());
                assert_eq!(eng.next().map(|(t, p)| (t.as_ns(), p)), naive.next());
            }
            // ~10%: check the pending-event count invariant.
            _ => {
                assert_eq!(eng.len(), naive.pending.len());
                assert_eq!(eng.is_empty(), naive.pending.is_empty());
            }
        }
    }

    // Drain both queues: the tails must agree element-for-element.
    loop {
        let want = naive.next();
        assert_eq!(eng.next().map(|(t, p)| (t.as_ns(), p)), want);
        if want.is_none() {
            break;
        }
    }
    assert_eq!(eng.len(), 0);
}

#[test]
fn random_interleavings_match_the_naive_reference_model() {
    for mut rng in SplitMix64::cases(0x51AB, CASES) {
        interleaving(&mut rng);
    }
}

#[test]
fn reused_engines_still_match_the_model() {
    // The sweep scratch recycles one engine across many simulations via
    // reset; a recycled engine must behave exactly like a fresh one, even
    // when the previous run left events behind.
    let mut eng: Engine<u32> = Engine::new();
    for mut rng in SplitMix64::cases(0x7E57, CASES) {
        eng.reset();
        eng.reserve(rng.below(64) as usize);
        let mut naive = NaiveQueue::default();
        let mut payload = 0u32;
        for _ in 0..100 {
            if rng.below(3) != 0 {
                let at = naive.now + rng.below(1000);
                payload += 1;
                eng.schedule(TimeNs(at), payload);
                naive.schedule(at, payload);
            } else {
                assert_eq!(eng.next().map(|(t, p)| (t.as_ns(), p)), naive.next());
            }
        }
        assert_eq!(eng.len(), naive.pending.len());
    }
}

#[test]
fn dispatch_order_is_stable_across_identical_runs() {
    let run = |seed: u64| {
        let mut rng = SplitMix64::new(seed);
        let mut eng: Engine<u64> = Engine::new();
        let mut out = Vec::new();
        for i in 0..200u64 {
            eng.schedule(TimeNs(rng.below(40)), i);
        }
        while let Some((t, e)) = eng.next() {
            out.push((t, e));
            if e % 3 == 0 && out.len() < 400 {
                eng.schedule(TimeNs(t.as_ns() + rng.below(20)), e + 10_000);
            }
        }
        out
    };
    assert_eq!(run(0xDEAD), run(0xDEAD));
    assert_ne!(run(0xDEAD), run(0xBEEF), "different seeds diverge");
}
