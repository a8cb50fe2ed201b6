//! The timing wheel: the asynchronous engine's zero-allocation event
//! plane.
//!
//! The α executor's in-flight events used to live in a global
//! `BinaryHeap<Reverse<(time, seq, node, port)>>` with every envelope
//! parked in a `BTreeMap` on the side — `O(log k)` sift per event plus a
//! tree allocation per message. But the event population is *horizon
//! bounded*: every delay a compiled [`DelayModel`] sampler draws is in
//! `1..=bound`, so at any instant `t` all pending events lie in
//! `(t, t + bound]` — at most `bound` distinct arrival times. A circular
//! array of `bound + 1` buckets therefore holds every pending event at a
//! unique `time % (bound + 1)` slot, and the heap's comparison work
//! disappears:
//!
//! * **push** is O(1): append to the FIFO of bucket `at % horizon`;
//! * **pop** is O(1) amortized: drain the current bucket in FIFO order,
//!   then advance the cursor to the next non-empty bucket (the scan is
//!   bounded by the horizon and touches only bucket headers: 16 bytes of
//!   cursors plus one inline event slot);
//! * **order is exactly the heap's**: arrival times ascend bucket by
//!   bucket, and within one bucket FIFO order *is* global insertion
//!   order — the heap's `seq` tiebreak — because insertion sequence
//!   numbers increase monotonically over the run. No `seq` needs to be
//!   stored at all.
//!
//! Storage is the flat plane's queue machinery (`plane::PortQueues` with
//! buckets as "ports"): a bucket's oldest event sits inline in its
//! header, the events behind it are strung eight to a chunk on intrusive
//! `u32` links, and chunks recycle through a free list, so the wheel
//! performs **zero heap allocations** once the slab has grown to the
//! run's high-water mark. The envelope travels *inside* its wheel entry
//! — the old side-table of parked envelopes (and its per-insert
//! tree-node allocation) is gone entirely.
//!
//! The wheel is generic and crate-private: the engine instantiates it
//! with its envelope type, and `tests::wheel_order_equals_heap_order`
//! drives it head-to-head against the heap it replaced.
//!
//! [`DelayModel`]: crate::sched::DelayModel

use crate::plane::PortQueues;

/// Ceiling on the bucket count: a bucket header holds 16 bytes of
/// cursors plus one inline `Option<T>` (16 bytes in all only for a
/// zero-sized `T`), so a horizon of 2²⁴ would already cost 2²⁴ headers
/// of at least 16 bytes — 256 MiB and up. Delays are *virtual* time
/// units — real workloads use small bounds — and the engine sizes the
/// wheel off the sampler's *compiled* per-port maximum (at most the
/// model's declared [`DelayModel::bound`](crate::sched::DelayModel::bound),
/// and tighter for the per-port models), so hitting this means a
/// genuinely pathological `max_delay`.
const MAX_HORIZON: u64 = 1 << 24;

/// A horizon-bounded timing wheel over items of type `T`.
///
/// Items are scheduled at absolute times strictly greater than the
/// cursor and at most `max_delay` ahead of it; [`EventWheel::pop_next`]
/// returns them in `(time, insertion order)` order — bit-identical to a
/// min-heap keyed by `(time, global sequence number)`.
#[derive(Clone, Debug)]
pub(crate) struct EventWheel<T> {
    /// One chunked FIFO per bucket; bucket `b` holds the events arriving
    /// at times `≡ b (mod horizon)`.
    buckets: PortQueues<T>,
    /// Number of buckets, `max_delay + 1`.
    horizon: u64,
    /// Current virtual time: the arrival time of the most recently
    /// popped event (0 before any pop).
    cursor: u64,
    /// Most events ever pending at once — the run's occupancy
    /// high-water mark, surfaced to the observability plane.
    high_water: u64,
}

impl<T> EventWheel<T> {
    /// A wheel accepting delays of `1..=max_delay` time units.
    ///
    /// # Panics
    ///
    /// Panics if `max_delay` is 0 (the synchronizer needs positive link
    /// delays) or absurdly large (a horizon of `max_delay + 1 ≥ 2²⁴`
    /// buckets; wheel memory is `O(max_delay)` bucket headers).
    #[must_use]
    pub fn new(max_delay: u64) -> Self {
        assert!(max_delay >= 1, "EventWheel needs a positive delay bound");
        assert!(
            max_delay + 1 < MAX_HORIZON,
            "EventWheel bound {max_delay} is out of range: the wheel would need ≥ 2^24 \
             buckets (memory grows with the delay bound)"
        );
        let horizon = max_delay + 1;
        Self { buckets: PortQueues::new(horizon as usize), horizon, cursor: 0, high_water: 0 }
    }

    /// The current virtual time (arrival time of the last popped event).
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Events scheduled and not yet popped.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.buckets.queued()
    }

    /// Most events ever pending at once over the wheel's lifetime.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Schedules `item` to arrive at absolute time `at`.
    ///
    /// `at` must lie in `(cursor, cursor + max_delay]` — guaranteed by
    /// construction when `at = now + delay` with a bounded positive
    /// delay. Never allocates once the chunk slab is warm.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies outside that window: its bucket would hold
    /// events of another time, and pops would come out of order.
    #[inline]
    pub fn schedule(&mut self, at: u64, item: T) {
        assert!(
            at > self.cursor && at - self.cursor < self.horizon,
            "event at {at} outside the wheel window ({}, {}]",
            self.cursor,
            self.cursor + self.horizon - 1
        );
        self.buckets.push((at % self.horizon) as u32, item);
        self.high_water = self.high_water.max(self.buckets.queued());
    }

    /// Visits every pending event in delivery order — ascending arrival
    /// time, FIFO within a time — **without** draining the wheel,
    /// passing each event's arrival time *relative to the cursor*.
    /// Relative times make the sweep time-shift invariant, which is what
    /// lets the interleaving explorer's state fingerprint identify
    /// states that differ only by when (in absolute virtual time) they
    /// were reached.
    pub(crate) fn for_each_pending(&self, mut f: impl FnMut(u64, &T)) {
        // Pending arrivals lie in `[cursor, cursor + horizon)`: schedule
        // requires `at > cursor` at insert time, but the cursor may have
        // advanced onto a bucket since.
        for rel in 0..self.horizon {
            let bucket = ((self.cursor + rel) % self.horizon) as u32;
            self.buckets.for_each(bucket, |item| f(rel, item));
        }
    }

    /// Pops the next event in `(time, insertion order)` order, advancing
    /// the cursor to its arrival time. Returns `None` when no events are
    /// pending (the cursor stays put, so a later [`EventWheel::schedule`]
    /// resumes from the current virtual time).
    #[inline]
    pub fn pop_next(&mut self) -> Option<(u64, T)> {
        if self.buckets.queued() == 0 {
            return None;
        }
        loop {
            let bucket = (self.cursor % self.horizon) as u32;
            if let Some(item) = self.buckets.pop(bucket) {
                return Some((self.cursor, item));
            }
            // Bounded scan: some bucket within the horizon is non-empty.
            self.cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn drains_in_time_then_fifo_order() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        w.schedule(3, 30);
        w.schedule(1, 10);
        w.schedule(3, 31);
        w.schedule(2, 20);
        let mut got = Vec::new();
        while let Some(e) = w.pop_next() {
            got.push(e);
        }
        assert_eq!(got, vec![(1, 10), (2, 20), (3, 30), (3, 31)]);
        assert_eq!(w.cursor(), 3);
        assert!(w.pop_next().is_none());
        assert_eq!(w.high_water(), 4, "all four events were pending at once");
    }

    #[test]
    fn wraps_around_the_horizon_many_times() {
        let mut w: EventWheel<u64> = EventWheel::new(3);
        // A self-sustaining chain: each pop schedules the next event a
        // few units ahead, cycling through every bucket repeatedly.
        w.schedule(1, 0);
        let mut hops = 0u64;
        let mut last_time = 0;
        while hops < 1000 {
            let (t, k) = w.pop_next().expect("chain is alive");
            assert!(t > last_time || hops == 0);
            last_time = t;
            hops += 1;
            if hops < 1000 {
                w.schedule(t + 1 + (k % 3), k + 1);
            }
        }
        assert_eq!(w.pending(), 0);
        assert!(last_time >= 1000 / 3);
    }

    #[test]
    fn empty_pop_keeps_cursor_for_resume() {
        let mut w: EventWheel<u8> = EventWheel::new(5);
        w.schedule(4, 1);
        assert_eq!(w.pop_next(), Some((4, 1)));
        assert_eq!(w.pop_next(), None);
        assert_eq!(w.cursor(), 4);
        // Resume exactly like the engine does after a drive boundary:
        // schedule relative to the preserved cursor.
        w.schedule(w.cursor() + 2, 2);
        assert_eq!(w.pop_next(), Some((6, 2)));
    }

    #[test]
    #[should_panic(expected = "positive delay bound")]
    fn zero_bound_is_rejected() {
        let _ = EventWheel::<u8>::new(0);
    }

    #[test]
    #[should_panic(expected = "outside the wheel window")]
    fn schedule_at_the_cursor_is_rejected() {
        let mut w: EventWheel<u8> = EventWheel::new(4);
        w.schedule(2, 1);
        assert_eq!(w.pop_next(), Some((2, 1)));
        w.schedule(2, 2);
    }

    #[test]
    #[should_panic(expected = "outside the wheel window")]
    fn schedule_past_the_horizon_is_rejected() {
        // Horizon 5: time 5 shares bucket 0 with the cursor's time 0.
        let mut w: EventWheel<u8> = EventWheel::new(4);
        w.schedule(5, 7);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The satellite contract: wheel-drain order ≡ heap-pop order for
        /// random (pulse, seq, port)-style event streams at random
        /// horizons. The reference is the exact structure the engine used
        /// to run on — `BinaryHeap<Reverse<(time, seq, payload)>>` — and
        /// the stream interleaves schedule and pop like the live engine
        /// (every handled event may schedule a few more within the
        /// bound), so the equivalence covers mid-drain insertion, not
        /// just batch loading.
        #[test]
        fn wheel_order_equals_heap_order(
            max_delay in 1u64..50,
            stream_seed in 0u64..10_000,
            initial in 1usize..40,
            fanout in 0usize..4,
        ) {
            let mut rng = crate::rng::splitmix64(stream_seed | 1);
            let mut draw = |bound: u64| {
                rng = crate::rng::splitmix64(rng);
                1 + rng % bound
            };

            let mut wheel: EventWheel<u64> = EventWheel::new(max_delay);
            let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;

            // Seed both structures with the same burst at time 0.
            for _ in 0..initial {
                let at = draw(max_delay);
                wheel.schedule(at, seq);
                heap.push(Reverse((at, seq, seq)));
                seq += 1;
            }

            let mut budget = 4000usize;
            loop {
                let from_heap = heap.pop();
                let from_wheel = wheel.pop_next();
                match (from_heap, from_wheel) {
                    (None, None) => break,
                    (Some(Reverse((ht, hseq, hpayload))), Some((wt, wpayload))) => {
                        prop_assert_eq!(ht, wt, "arrival times diverge");
                        prop_assert_eq!(hpayload, wpayload, "tiebreak order diverges");
                        prop_assert_eq!(hseq, hpayload, "heap payload is its seq");
                        // Mimic the engine: a handled event schedules a
                        // few successors within the bound.
                        if budget > 0 {
                            for _ in 0..fanout {
                                budget -= 1;
                                let at = ht + draw(max_delay);
                                wheel.schedule(at, seq);
                                heap.push(Reverse((at, seq, seq)));
                                seq += 1;
                                if budget == 0 {
                                    break;
                                }
                            }
                        }
                    }
                    (h, w) => prop_assert!(false, "one side drained early: {h:?} vs {w:?}"),
                }
            }
            prop_assert_eq!(wheel.pending(), 0);
        }
    }
}
