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
//! disappears (a hashed timing wheel, Varghese and Lauck, SOSP 1987):
//!
//! * **push** is O(1): append to the FIFO of the event's bucket;
//! * **pop** is O(1) amortized: drain the current bucket in FIFO order,
//!   then advance the cursor to the next non-empty bucket (the scan is
//!   bounded by the horizon and reads only 16-byte bucket headers);
//! * **order is exactly the heap's**: arrival times ascend bucket by
//!   bucket, and within one bucket FIFO order *is* global insertion
//!   order — the heap's `seq` tiebreak — because insertion sequence
//!   numbers increase monotonically over the run. No `seq` needs to be
//!   stored at all.
//!
//! # Storage
//!
//! A bucket's FIFO is a chain of blocks of [`BLOCK`] event slots, drawn
//! from one free-listed pool that all buckets share. A push writes the
//! next slot of its bucket's tail block, taking a block from the pool
//! when the tail is full; a pop moves the event out of the head block's
//! next slot and leaves the slot uninitialized (nothing is written
//! back), and a block whose last event leaves goes back to the pool.
//! Deep buckets thus read and write their events sequentially and touch
//! the pool once per [`BLOCK`] events. The pool only grows, one block at
//! a time, so its size follows the most events ever pending at once,
//! and once it is warm the wheel performs **zero heap allocations**. The
//! envelope travels *inside* its event — the old side-table of parked
//! envelopes (and its per-insert tree-node allocation) is gone entirely.
//!
//! The engine fills the wheel with fewer events than it has envelopes in
//! flight: a broadcast is one event per distinct delay its copies drew
//! (a *delay run*, `sched::sync`), delivered copy by copy when popped. A
//! run takes one slot where its copies took one each, in the bucket and
//! at the place they would have taken, so pop order is unchanged. The
//! wheel counts events, not envelopes: the run profile's occupancy comes
//! from the wire's envelope count.
//!
//! [`EventWheel::new`] allocates no block, and a clone copies the
//! pending events only, each bucket's into one block cut to fit them:
//! the interleaving explorer forks engines whose wheels hold a handful
//! of events, and a full block per bucket would cost it more than the
//! events do.
//!
//! The wheel is generic and crate-private: the engine instantiates it
//! with its envelope type, and `tests::wheel_order_equals_heap_order`
//! drives it head-to-head against the heap it replaced.
//!
//! [`DelayModel`]: crate::sched::DelayModel

use std::mem::MaybeUninit;

/// Ceiling on the bucket count: a bucket header holds 16 bytes of
/// cursors, so a horizon of 2²⁴ would already cost 256 MiB of headers
/// before a single event is pending. Delays are *virtual* time units —
/// real workloads use small bounds — and the engine sizes the wheel off
/// the sampler's *compiled* per-port maximum (at most the model's
/// declared [`DelayModel::bound`](crate::sched::DelayModel::bound), and
/// tighter for the per-port models), so hitting this means a genuinely
/// pathological `max_delay`.
const MAX_HORIZON: u64 = 1 << 24;

/// Event slots per pooled block: 12 KiB for the α engine's 48-byte
/// events (`DistNearClique`'s), so a hop to the next block or back to
/// the pool comes once per 256 events.
const BLOCK: usize = 256;

/// Null block link: an empty bucket's head and tail, the free list's
/// end.
const NIL: u32 = u32::MAX;

/// One pooled block of event slots: [`BLOCK`] of them, or in a clone as
/// many as its bucket held (see the `Clone` impl). Which slots hold an
/// event is known only from the bucket cursors.
type Block<T> = Box<[MaybeUninit<T>]>;

/// One bucket's FIFO: the block chain between two cursors.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    /// The block holding the oldest event (`NIL` when the bucket is
    /// empty).
    head: u32,
    /// The block holding the newest event (`NIL` when the bucket is
    /// empty).
    tail: u32,
    /// Slot of the oldest event within `head`.
    head_off: u32,
    /// Next slot to fill within `tail`.
    tail_off: u32,
}

impl Bucket {
    const EMPTY: Self = Bucket { head: NIL, tail: NIL, head_off: 0, tail_off: 0 };
}

/// A horizon-bounded timing wheel over items of type `T`.
///
/// Items are scheduled at absolute times strictly greater than the
/// cursor and at most `max_delay` ahead of it; [`EventWheel::pop_next`]
/// returns them in `(time, insertion order)` order — bit-identical to a
/// min-heap keyed by `(time, global sequence number)`.
pub(crate) struct EventWheel<T> {
    /// One FIFO per bucket; bucket `b` holds the events arriving at
    /// times `≡ b (mod horizon)`.
    buckets: Vec<Bucket>,
    /// The block pool, in use or free. Block `i`'s link is `next[i]`.
    blocks: Vec<Block<T>>,
    /// Per block: the next block of its bucket's chain, or of the free
    /// list.
    next: Vec<u32>,
    /// Head of the free-block list.
    free: u32,
    /// Number of buckets, `max_delay + 1`.
    horizon: u64,
    /// Current virtual time: the arrival time of the most recently
    /// popped event (0 before any pop).
    cursor: u64,
    /// The cursor's bucket, `cursor % horizon`, kept in step with the
    /// cursor so that neither push nor pop divides.
    slot: usize,
    /// Events scheduled and not yet popped.
    pending: u64,
}

impl<T> EventWheel<T> {
    /// A wheel accepting delays of `1..=max_delay` time units. Allocates
    /// the bucket headers only; blocks come on first use.
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
        Self {
            buckets: vec![Bucket::EMPTY; horizon as usize],
            blocks: Vec::new(),
            next: Vec::new(),
            free: NIL,
            horizon,
            cursor: 0,
            slot: 0,
            pending: 0,
        }
    }

    /// The current virtual time (arrival time of the last popped event).
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Events scheduled and not yet popped.
    #[cfg(test)]
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Schedules `item` to arrive at absolute time `at`.
    ///
    /// `at` must lie in `(cursor, cursor + max_delay]` — guaranteed by
    /// construction when `at = now + delay` with a bounded positive
    /// delay. Never allocates once the block pool is warm.
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
        let mut b = self.slot + (at - self.cursor) as usize;
        if b >= self.buckets.len() {
            b -= self.buckets.len();
        }
        let Bucket { tail, tail_off, .. } = self.buckets[b];
        // An empty bucket's tail is `NIL`, which names no block.
        let room =
            self.blocks.get(tail as usize).is_some_and(|block| (tail_off as usize) < block.len());
        let (tail, off) = if room { (tail, tail_off) } else { (self.grow(b), 0) };
        self.blocks[tail as usize][off as usize].write(item);
        self.buckets[b].tail_off = off + 1;
        self.pending += 1;
    }

    /// Hangs a block from the pool (a new one if the pool has none free)
    /// at the end of bucket `b`'s chain, and returns it.
    fn grow(&mut self, b: usize) -> u32 {
        let block = if self.free == NIL {
            // Block ids are `u32`s below `NIL`.
            assert!(self.blocks.len() < NIL as usize, "the wheel's block pool is full");
            self.blocks.push(Box::new_uninit_slice(BLOCK));
            self.next.push(NIL);
            (self.blocks.len() - 1) as u32
        } else {
            let block = self.free;
            self.free = self.next[block as usize];
            self.next[block as usize] = NIL;
            block
        };
        let bucket = &mut self.buckets[b];
        if bucket.head == NIL {
            bucket.head = block;
            bucket.head_off = 0;
        } else {
            self.next[bucket.tail as usize] = block;
        }
        bucket.tail = block;
        block
    }

    /// Bucket `b`'s pending events, oldest first.
    fn events(&self, b: usize) -> impl Iterator<Item = &T> + '_ {
        let Bucket { head, tail, head_off, tail_off } = self.buckets[b];
        let mut at = (head != NIL).then_some((head, head_off as usize));
        let segments = std::iter::from_fn(move || {
            let (block, off) = at?;
            let slots = &self.blocks[block as usize];
            if block == tail {
                at = None;
                Some(&slots[off..tail_off as usize])
            } else {
                at = Some((self.next[block as usize], 0));
                Some(&slots[off..])
            }
        });
        // SAFETY: the segments run from the head cursor to the tail
        // cursor along the chain, which is where the bucket's pending
        // events are.
        segments.flatten().map(|slot| unsafe { slot.assume_init_ref() })
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
            let b = (self.slot + rel as usize) % self.buckets.len();
            self.events(b).for_each(|event| f(rel, event));
        }
    }

    /// Pops the next event in `(time, insertion order)` order, advancing
    /// the cursor to its arrival time. Returns `None` when no events are
    /// pending (the cursor stays put, so a later [`EventWheel::schedule`]
    /// resumes from the current virtual time).
    #[inline]
    pub fn pop_next(&mut self) -> Option<(u64, T)> {
        if self.pending == 0 {
            return None;
        }
        // Bounded scan: some bucket within the horizon is non-empty.
        while self.buckets[self.slot].head == NIL {
            self.cursor += 1;
            self.slot += 1;
            if self.slot == self.buckets.len() {
                self.slot = 0;
            }
        }
        let bucket = &mut self.buckets[self.slot];
        let (head, off) = (bucket.head, bucket.head_off as usize);
        let slots = &self.blocks[head as usize];
        // SAFETY: a non-empty bucket's head cursor points at its oldest
        // pending event, and the cursor moves past the slot below, so the
        // event is read out exactly once.
        let item = unsafe { slots[off].assume_init_read() };
        bucket.head_off += 1;
        let drained = if head == bucket.tail && bucket.head_off == bucket.tail_off {
            *bucket = Bucket::EMPTY;
            true
        } else if off + 1 == slots.len() {
            bucket.head = self.next[head as usize];
            bucket.head_off = 0;
            true
        } else {
            false
        };
        if drained {
            self.next[head as usize] = self.free;
            self.free = head;
        }
        self.pending -= 1;
        Some((self.cursor, item))
    }
}

/// A clone holds the pending events only: each non-empty bucket's in one
/// block cut to fit them, packed from its first slot. The original's
/// free blocks are not copied, so forking a wheel that holds a few
/// events costs a few small allocations. The interleaving explorer forks
/// whole engines through this; a clone that runs on draws full blocks,
/// and its cut blocks join its pool once drained.
impl<T: Clone> Clone for EventWheel<T> {
    fn clone(&self) -> Self {
        let mut copy = Self {
            buckets: vec![Bucket::EMPTY; self.buckets.len()],
            blocks: Vec::new(),
            next: Vec::new(),
            free: NIL,
            horizon: self.horizon,
            cursor: self.cursor,
            slot: self.slot,
            pending: 0,
        };
        for b in 0..self.buckets.len() {
            let len = self.events(b).count();
            if len == 0 {
                continue;
            }
            let tail_off = u32::try_from(len).expect("a bucket holds fewer than 2^32 events");
            let mut block = Box::new_uninit_slice(len);
            for (slot, event) in block.iter_mut().zip(self.events(b)) {
                slot.write(event.clone());
            }
            let id = copy.blocks.len() as u32;
            copy.blocks.push(block);
            copy.next.push(NIL);
            copy.buckets[b] = Bucket { head: id, tail: id, head_off: 0, tail_off };
            copy.pending += len as u64;
        }
        copy
    }
}

/// Pending events are popped, and so dropped once each; the blocks'
/// slots hold nothing else that needs dropping.
impl<T> Drop for EventWheel<T> {
    fn drop(&mut self) {
        if std::mem::needs_drop::<T>() {
            while self.pop_next().is_some() {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::rc::Rc;

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

    /// A wheel driven in lockstep with the heap it replaced: every item
    /// is its insertion sequence number.
    struct Mirror {
        wheel: EventWheel<u64>,
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        seq: u64,
    }

    impl Mirror {
        fn new(max_delay: u64) -> Self {
            Self { wheel: EventWheel::new(max_delay), heap: BinaryHeap::new(), seq: 0 }
        }

        /// Schedules `count` items `delay` after the cursor.
        fn schedule(&mut self, delay: u64, count: usize) {
            let at = self.wheel.cursor() + delay;
            for _ in 0..count {
                self.wheel.schedule(at, self.seq);
                self.heap.push(Reverse((at, self.seq)));
                self.seq += 1;
            }
        }

        /// Pops `count` items from both sides and checks they agree.
        fn drain(&mut self, count: usize) {
            for _ in 0..count {
                let Reverse(expected) = self.heap.pop().expect("the heap has items left");
                assert_eq!(self.wheel.pop_next(), Some(expected));
            }
        }
    }

    /// Blocks on bucket `b`'s chain.
    fn chain<T>(w: &EventWheel<T>, b: usize) -> usize {
        let mut block = w.buckets[b].head;
        let mut count = 0;
        while block != NIL {
            count += 1;
            block = if block == w.buckets[b].tail { NIL } else { w.next[block as usize] };
        }
        count
    }

    /// Blocks the pending events occupy, one chain per bucket.
    fn blocks_in_use<T>(w: &EventWheel<T>) -> usize {
        (0..w.buckets.len()).map(|b| chain(w, b)).sum()
    }

    #[test]
    fn a_deep_bucket_chains_blocks_and_reuses_them() {
        let mut m = Mirror::new(3);
        // One bucket past three blocks, with a shallow one on each side.
        m.schedule(1, 5);
        m.schedule(2, 3 * BLOCK + 7);
        m.schedule(3, 5);
        assert_eq!(blocks_in_use(&m.wheel), 6, "the deep bucket chains four blocks");
        let pool = m.wheel.blocks.len();
        assert_eq!(pool, 6);
        // Drain the shallow bucket and the deep one, hop by hop.
        m.drain(5 + 3 * BLOCK + 7);
        assert_eq!(blocks_in_use(&m.wheel), 1, "drained blocks left their bucket");
        // Refill the same bucket (time 2 + horizon) just as deep: every
        // block it needs comes back out of the pool.
        m.drain(2);
        m.schedule(3, 3 * BLOCK + 7);
        m.schedule(1, 9);
        assert_eq!(chain(&m.wheel, 2), 4);
        assert_eq!(m.wheel.blocks.len(), pool, "a refill draws recycled blocks only");
        m.drain(3 + 9 + 3 * BLOCK + 7);
        assert_eq!(m.wheel.pending(), 0);
        assert_eq!(m.wheel.pop_next(), None);
        assert_eq!(blocks_in_use(&m.wheel), 0);
    }

    #[test]
    fn a_clone_mid_drain_pops_what_the_original_pops() {
        let mut m = Mirror::new(4);
        m.schedule(1, 2 * BLOCK + 3);
        m.schedule(2, 11);
        m.schedule(4, BLOCK);
        // Leave the current bucket partly drained, past its first hop.
        m.drain(BLOCK + 40);
        let mut copy = m.wheel.clone();
        assert_eq!((copy.cursor(), copy.pending()), (m.wheel.cursor(), m.wheel.pending()));
        // The copy holds the pending events, one block per bucket cut to
        // fit; no free block.
        assert_eq!(copy.free, NIL);
        assert_eq!((copy.blocks.len(), blocks_in_use(&copy)), (3, 3));
        let slots: usize = copy.blocks.iter().map(|block| block.len()).sum();
        assert_eq!(slots as u64, copy.pending());
        let sweep = |w: &EventWheel<u64>| {
            let mut seen = Vec::new();
            w.for_each_pending(|rel, &item| seen.push((rel, item)));
            seen
        };
        assert_eq!(sweep(&copy), sweep(&m.wheel));
        assert_eq!(sweep(&copy).len() as u64, m.wheel.pending());
        // Both go on identically, across the bucket that wraps around.
        for (delay, count) in [(3, BLOCK + 1), (4, 2)] {
            let at = copy.cursor() + delay;
            for i in 0..count as u64 {
                copy.schedule(at, m.seq + i);
            }
            m.schedule(delay, count);
        }
        while let Some(event) = copy.pop_next() {
            assert_eq!(m.wheel.pop_next(), Some(event));
        }
        assert_eq!(m.wheel.pop_next(), None);
    }

    /// Records its drops in a shared ledger; a clone is tagged apart.
    #[derive(Debug)]
    struct Tracked {
        id: u64,
        ledger: Rc<RefCell<Vec<u64>>>,
    }

    const CLONED: u64 = 1 << 32;

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Self { id: self.id | CLONED, ledger: Rc::clone(&self.ledger) }
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.ledger.borrow_mut().push(self.id);
        }
    }

    #[test]
    fn pending_items_drop_exactly_once() {
        let ledger = Rc::new(RefCell::new(Vec::new()));
        let mut w: EventWheel<Tracked> = EventWheel::new(3);
        let mut id = 0;
        for (at, count) in [(1, 3), (2, 2 * BLOCK + 5), (3, 4)] {
            for _ in 0..count {
                w.schedule(at, Tracked { id, ledger: Rc::clone(&ledger) });
                id += 1;
            }
        }
        // Pop into the deep bucket, past one hop.
        let popped = 3 + BLOCK + 2;
        for _ in 0..popped {
            drop(w.pop_next());
        }
        assert_eq!(ledger.borrow().len(), popped);
        let copy = w.clone();
        drop(w);
        drop(copy);
        let mut drops = ledger.borrow().clone();
        drops.sort_unstable();
        let originals = 0..id;
        let copies = (popped as u64..id).map(|i| i | CLONED);
        assert_eq!(drops, originals.chain(copies).collect::<Vec<_>>());
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
