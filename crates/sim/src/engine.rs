//! The event queue and simulation clock.
//!
//! Pending events live in one binary min-heap whose entries carry the
//! `(time, seq)` ordering key packed into a single `u128` next to the
//! payload, so scheduling and dispatching never leave the heap's
//! contiguous storage and never touch a side table.  `seq` is the
//! schedule order, which makes equal-time events pop FIFO.
//!
//! A dispatched root stays in place until the queue is touched again:
//! a simulator handler typically schedules one follow-up event per
//! event it handles, and that event simply takes the root's slot, so
//! the pop and the push cost one sift instead of two.  The pop order is
//! the same `(time, seq)` order either way.
//!
//! Events cannot be cancelled: simulators guard stale events with their
//! own generation counters and drop them on dispatch, which costs less
//! than paying per-event cancellation bookkeeping on every schedule.
//! The heap's storage is kept across [`Engine::reset`], so a recycled
//! engine schedules without allocating once it has reached its peak
//! occupancy (or once [`Engine::reserve`] has sized it).

use extrap_time::TimeNs;

/// One pending event: the packed `(time, seq)` key and the payload.
#[derive(Clone, Copy)]
struct Entry<E> {
    key: u128,
    payload: E,
}

impl<E> Entry<E> {
    /// `TimeNs` is a transparent `u64` with numeric ordering, so packing
    /// time into the high half and `seq` into the low half makes one
    /// wide compare exactly lexicographic.
    #[inline]
    fn new(time: TimeNs, seq: u64, payload: E) -> Entry<E> {
        Entry {
            key: ((time.0 as u128) << 64) | seq as u128,
            payload,
        }
    }

    #[inline]
    fn time(&self) -> TimeNs {
        TimeNs((self.key >> 64) as u64)
    }
}

/// A deterministic discrete-event engine over payloads of type `E`.
///
/// The driver loop is owned by the caller:
///
/// ```
/// use extrap_sim::Engine;
/// use extrap_time::TimeNs;
///
/// let mut eng: Engine<&str> = Engine::new();
/// eng.schedule(TimeNs(30), "c");
/// eng.schedule(TimeNs(10), "a");
/// eng.schedule(TimeNs(10), "b"); // a tie fires in schedule order
/// let mut order = Vec::new();
/// while let Some((t, e)) = eng.next() {
///     order.push((t.as_ns(), e));
/// }
/// assert_eq!(order, vec![(10, "a"), (10, "b"), (30, "c")]);
/// ```
pub struct Engine<E> {
    now: TimeNs,
    next_seq: u64,
    heap: Vec<Entry<E>>,
    /// `heap[0]` has been dispatched but not yet removed: the next
    /// schedule overwrites it, the next dispatch removes it.
    root_taken: bool,
    dispatched: u64,
}

impl<E: Copy> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

// Payloads are `Copy`: simulator events are small value types, and the
// bound lets the sifts move elements hole-style (one write per level)
// like `std::collections::BinaryHeap`.
impl<E: Copy> Engine<E> {
    /// Creates an engine with the clock at zero and an empty queue.
    pub fn new() -> Engine<E> {
        Engine {
            now: TimeNs::ZERO,
            next_seq: 0,
            heap: Vec::new(),
            root_taken: false,
            dispatched: 0,
        }
    }

    /// The current simulation time (the timestamp of the last dispatched
    /// event).
    #[inline]
    pub fn now(&self) -> TimeNs {
        self.now
    }

    /// Number of events dispatched so far (simulator work metric).
    #[inline]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Clears the clock, the queue, and all counters while keeping the
    /// queue's allocation, so one engine can be recycled across many
    /// simulations (the sweep engine's per-worker scratch does exactly
    /// this).
    pub fn reset(&mut self) {
        self.now = TimeNs::ZERO;
        self.next_seq = 0;
        self.heap.clear();
        self.root_taken = false;
        self.dispatched = 0;
    }

    /// Ensures room for at least `additional` more pending events
    /// without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — schedules must never
    /// rewind the clock.
    #[inline]
    pub fn schedule(&mut self, at: TimeNs, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry::new(at, seq, payload);
        if self.root_taken {
            // Pop and push in one sift: the new entry takes the
            // dispatched root's slot.
            self.root_taken = false;
            self.sift_down_into_root(entry);
        } else {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    #[allow(clippy::should_implement_trait)] // the driver loop reads naturally as `while eng.next()`
    #[inline]
    pub fn next(&mut self) -> Option<(TimeNs, E)> {
        if self.root_taken {
            self.root_taken = false;
            let last = self.heap.pop().expect("the taken root is still stored");
            if !self.heap.is_empty() {
                self.sift_down_into_root(last);
            }
        }
        let top = *self.heap.first()?;
        self.root_taken = true;
        let time = top.time();
        debug_assert!(time >= self.now);
        self.now = time;
        self.dispatched += 1;
        Some((time, top.payload))
    }

    /// The timestamp of the next event, without dispatching it.
    pub fn peek_time(&self) -> Option<TimeNs> {
        let next = if self.root_taken {
            // With the root dispatched, its smaller child is next.
            self.heap.iter().skip(1).take(2).min_by_key(|e| e.key)
        } else {
            self.heap.first()
        };
        next.map(Entry::time)
    }

    /// Count of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.root_taken)
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ----- heap internals ---------------------------------------------

    fn sift_up(&mut self, mut i: usize) {
        let moved = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key <= moved.key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = moved;
    }

    /// Places `moved` into the (vacated) root slot and restores the
    /// heap, `BinaryHeap`-style: unless `moved` is already the minimum,
    /// walk a hole all the way to a leaf, always promoting the smaller
    /// child (one comparison per level instead of two), then sift
    /// `moved` back up.  Entries placed here (the heap's tail, or an
    /// event scheduled some time ahead) usually belong near the leaves,
    /// so the trailing sift-up is short.
    fn sift_down_into_root(&mut self, moved: Entry<E>) {
        let len = self.heap.len();
        let stays = |c: usize| c >= len || moved.key < self.heap[c].key;
        if stays(1) && stays(2) {
            self.heap[0] = moved;
            return;
        }
        let mut i = 0;
        loop {
            let child = 2 * i + 1;
            if child >= len {
                break;
            }
            // Which child is smaller is a coin flip the branch predictor
            // cannot learn, so pick it without a branch.
            let right = child + 1;
            let smaller =
                child + usize::from(right < len && self.heap[right].key < self.heap[child].key);
            self.heap[i] = self.heap[smaller];
            i = smaller;
        }
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key <= moved.key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_time::DurationNs;

    #[test]
    fn fifo_at_equal_times() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..10 {
            eng.schedule(TimeNs(5), i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| eng.next().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn time_ordering_wins_over_insertion() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule(TimeNs(100), "late");
        eng.schedule(TimeNs(1), "early");
        assert_eq!(eng.next().unwrap().1, "early");
        assert_eq!(eng.next().unwrap().1, "late");
        assert_eq!(eng.now(), TimeNs(100));
    }

    #[test]
    fn key_packing_is_lexicographic() {
        let a = Entry::new(TimeNs(1), u64::MAX, ());
        let b = Entry::new(TimeNs(2), 0, ());
        assert!(a.key < b.key);
        assert_eq!(a.time(), TimeNs(1));
        assert_eq!(Entry::new(TimeNs(u64::MAX), 7, ()).time(), TimeNs(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule(TimeNs(10), 1);
        eng.next();
        eng.schedule(TimeNs(5), 2);
    }

    #[test]
    fn peek_reports_the_next_time() {
        let mut eng: Engine<u8> = Engine::new();
        assert_eq!(eng.peek_time(), None);
        eng.schedule(TimeNs(2), 2);
        eng.schedule(TimeNs(1), 1);
        assert_eq!(eng.peek_time(), Some(TimeNs(1)));
        assert_eq!(eng.len(), 2);
        assert_eq!(eng.next(), Some((TimeNs(1), 1)));
        assert_eq!(eng.peek_time(), Some(TimeNs(2)));
    }

    #[test]
    fn dispatched_root_is_invisible_until_replaced() {
        let mut eng: Engine<u8> = Engine::new();
        for (t, e) in [(3, 3), (1, 1), (2, 2)] {
            eng.schedule(TimeNs(t), e);
        }
        assert_eq!(eng.next(), Some((TimeNs(1), 1)));
        assert_eq!((eng.len(), eng.peek_time()), (2, Some(TimeNs(2))));
        // The follow-up event takes the dispatched root's slot; one that
        // sorts first must still pop first.
        eng.schedule(TimeNs(1), 4);
        assert_eq!((eng.len(), eng.peek_time()), (3, Some(TimeNs(1))));
        let rest: Vec<u8> = std::iter::from_fn(|| eng.next().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![4, 2, 3]);
        assert_eq!((eng.len(), eng.peek_time()), (0, None));
    }

    #[test]
    fn dispatched_counts_every_pop() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule(TimeNs(1), 1);
        eng.schedule(TimeNs(2), 2);
        while eng.next().is_some() {}
        assert_eq!(eng.dispatched(), 2);
        assert!(eng.is_empty());
    }

    #[test]
    fn reset_recycles_the_engine() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule(TimeNs(10), 1);
        eng.schedule(TimeNs(20), 2);
        eng.next();
        eng.reset();
        assert_eq!(eng.now(), TimeNs::ZERO);
        assert_eq!(eng.dispatched(), 0);
        assert_eq!(eng.len(), 0);
        // A full re-run behaves exactly like a fresh engine.
        eng.schedule(TimeNs(5), 7);
        assert_eq!(eng.next(), Some((TimeNs(5), 7)));
    }

    #[test]
    fn reserve_keeps_capacity_across_reset() {
        let mut eng: Engine<u64> = Engine::new();
        eng.reserve(64);
        let cap = eng.heap.capacity();
        assert!(cap >= 64);
        for i in 0..64 {
            eng.schedule(TimeNs(i % 5), i);
        }
        eng.reset();
        assert_eq!(eng.heap.capacity(), cap, "reset keeps the allocation");
    }

    #[test]
    fn interleaved_schedule_and_dispatch_is_deterministic() {
        // Two identical runs produce identical dispatch sequences.
        let run = || {
            let mut eng: Engine<u64> = Engine::new();
            let mut out = Vec::new();
            for i in 0..50u64 {
                eng.schedule(TimeNs(i % 7), i);
            }
            while let Some((t, e)) = eng.next() {
                out.push((t, e));
                if e % 5 == 0 && out.len() < 100 {
                    eng.schedule(t + DurationNs(3), e + 1000);
                }
            }
            out
        };
        assert_eq!(run(), run());
    }
}
