//! The flat message plane: CSR topology, slab-backed port queues, and the
//! sharded delivery machinery behind [`Engine::Flat`](crate::Engine::Flat).
//!
//! # Layout
//!
//! Every directed edge `(u, v)` is a *slot*: a dense `u32` id assigned in
//! CSR order (`slot = offsets[u] + port`), mirroring [`graphs::Graph`]'s
//! own layout. Delivery routing collapses into a single flat array,
//! [`Topology::route`]: indexed by the sender's slot, one 12-byte record
//! carries the destination slot, destination node, and destination shard
//! — phase A performs no pointer chasing and no random lookups at all
//! (sender slots are visited in order).
//!
//! # Queues
//!
//! Each outgoing per-port FIFO is one [`PortQ`] header: 16 bytes of
//! cursors plus its oldest message, stored inline. Messages queued behind
//! that one overflow into a per-shard slab: fixed-size chunks strung on
//! intrusive `u32` links, recycled through a free list. A CONGEST port
//! rarely holds more than one message, so the common case never touches
//! the slab, and pushes and pops never allocate once the chunk pool is
//! warm. Non-empty ports are tracked in a bitset whose scan order *is*
//! port order, so delivery costs `O(active ports)` with no sorted-insert
//! on push (the old engine's `Outbox` paid `O(degree)` per first push on
//! a port).
//!
//! # Delivery without a sort
//!
//! Messages arrive grouped by **sender** and must be consumed grouped by
//! **receiver** — a transpose of the round's whole message volume, which
//! for large rounds is memory-bound. Each receiver shard runs a counting
//! pass over the buffers addressed to it (a lone shard, over its own
//! queues), prefix-sums per-node bucket offsets, and places every message
//! exactly once into a flat per-round buffer. Protocols step directly on
//! the bucket slices; there are no per-node inbox vectors to fill or
//! clear.
//!
//! The placement is stable, and its input already arrives in canonical
//! order, so no bucket is ever sorted. Delivery visits sender slots in
//! increasing order: a lone shard scans its active-port bitset, and a
//! receiver shard reads its transfer buffers in sender-shard order, each
//! filled by one such scan over a contiguous node range. A receiver's
//! senders therefore arrive in increasing node order, and
//! [`Topology::compile`] lists every node's neighbors in increasing order,
//! so that is the receiver's port order; a LOCAL train leaves its port's
//! queue in one piece, FIFO. Every bucket is thus sorted by port, FIFO
//! within each port — for one shard or many, in CONGEST or LOCAL, which
//! is what makes runs bit-identical across shard counts.

use std::sync::{Mutex, MutexGuard};

use graphs::{EdgeStream, Graph};

use crate::message::Message;
use crate::protocol::Port;

/// Messages per overflow chunk. Chunks hold only the messages queued
/// behind a port's inline head, so they serve deep queues: LOCAL trains,
/// the α wheel's buckets and inboxes. Eight keeps a chunk of small
/// messages within one or two cache lines while bounding per-queue slack
/// to seven slots.
pub(crate) const CHUNK: usize = 8;

/// Null link / "no chunk" marker.
const NIL: u32 = u32::MAX;

/// A delivery record produced by phase A: `(destination slot, destination
/// node, payload)`. The node is precomputed so the receiver never does a
/// random owner lookup; the order of entries carries the canonical inbox
/// order (see the module docs).
pub(crate) type Entry<M> = (u32, u32, M);

/// Routing record for one directed port, indexed by *sender* slot.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Route {
    /// The same physical edge seen from the receiving side.
    pub dest_slot: u32,
    /// The node owning `dest_slot`.
    pub dest_node: u32,
    /// The shard owning `dest_node`.
    pub dest_shard: u16,
}

/// Flattened CSR topology of the network, shared read-only by all shards.
///
/// Exactly two arrays: `n + 1` port-range offsets and one 12-byte
/// `Route` record per directed port. This is the entire per-topology
/// routing state of the flat engine — [`Topology::heap_bytes`] reports
/// its size, and the scale tier budgets against it.
///
/// Constructed either from a materialized [`Graph`]
/// ([`Topology::from_graph`]) or directly from a restartable
/// [`EdgeStream`] ([`Topology::from_edge_stream`]) without ever holding
/// an intermediate edge list.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Port-range offsets per node, length `n + 1`; `offsets[n]` is the
    /// total number of directed ports (2m).
    pub(crate) offsets: Box<[u32]>,
    /// Routing record per directed port, indexed by sender slot.
    pub(crate) route: Box<[Route]>,
}

impl Topology {
    /// Builds the flat tables for `graph`, sharded into `shards` node
    /// ranges (each spanning `ceil(n / shards)` consecutive nodes — the
    /// same split `Engine::Flat { shards }` uses). [`Graph::edges`]
    /// already yields the sorted `u < v` pairs a stream delivers, so the
    /// graph is compiled by the same two counted passes as
    /// [`Topology::from_edge_stream`], with no edge list in between.
    ///
    /// # Panics
    ///
    /// Panics if the graph has ≥ `u32::MAX` directed edges or `shards`
    /// exceeds `u16::MAX`.
    #[must_use]
    pub fn from_graph(graph: &Graph, shards: usize) -> Self {
        Self::compile(graph.node_count(), shards, graph)
    }

    /// Builds the flat tables directly from a restartable [`EdgeStream`],
    /// sharded like [`Topology::from_graph`], in two counted passes:
    /// degree counting, an in-place prefix sum, then a placement pass
    /// that writes both directions of every edge straight into the final
    /// route array. Peak memory is the final CSR plus one `u32` cursor
    /// per node — no intermediate edge list, no `Graph`.
    ///
    /// For the same instance this is bit-identical to
    /// [`Topology::from_graph`] on the materialized graph: a
    /// lexicographically sorted stream delivers each node's neighbors in
    /// increasing order, which is exactly the CSR slot order.
    ///
    /// # Panics
    ///
    /// Panics if the stream yields ≥ `u32::MAX` directed edges, `shards`
    /// exceeds `u16::MAX`, or the stream violates its contract (edges
    /// not strictly sorted / out of range, or the replay pass disagrees
    /// with the counting pass).
    #[must_use]
    pub fn from_edge_stream(stream: &mut dyn EdgeStream, shards: usize) -> Self {
        Self::compile(stream.node_count(), shards, stream)
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed ports (2m).
    #[must_use]
    pub fn port_count(&self) -> usize {
        self.route.len()
    }

    /// Heap bytes held by the routing tables: `4(n + 1)` for the offsets
    /// plus 12 per directed port.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.route.len() * std::mem::size_of::<Route>()
    }

    /// The one CSR compiler behind both constructors, over the edges of
    /// an `n`-node topology.
    fn compile(n: usize, shards: usize, mut source: impl Replay) -> Self {
        assert!(shards <= u16::MAX as usize, "shard count {shards} exceeds u16 range");
        let chunk = n.div_ceil(shards.max(1)).max(1);

        // Pass 1: count degrees into offsets[w + 1]. The sortedness
        // assert doubles as a uniqueness check (strictly increasing pairs
        // cannot repeat), so no dedup structure is ever needed.
        let mut offsets = vec![0u32; n + 1];
        let mut prev: Option<(usize, usize)> = None;
        let mut total: u64 = 0;
        for (u, v) in source.edges() {
            assert!(u < v && v < n, "stream edge ({u}, {v}) must satisfy u < v < n = {n}");
            assert!(prev < Some((u, v)), "edge stream must be strictly lexicographically sorted");
            prev = Some((u, v));
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
            total += 2;
        }
        assert!(
            total < u64::from(u32::MAX),
            "topology has {total} directed edges; flat plane is limited to u32 slots"
        );
        for w in 0..n {
            offsets[w + 1] += offsets[w];
        }

        // Pass 2: replay the edges and place both directions of each at
        // its node's next free slot. Sorted replay hands every node its
        // neighbors in increasing order, so slot assignment — and each
        // record's back-pointing `dest_slot` — is the graph's CSR order.
        // Delivery's unsorted inboxes rely on that order (module docs).
        let mut route = vec![Route::default(); total as usize];
        let mut cursor = vec![0u32; n];
        let mut placed: u64 = 0;
        for (u, v) in source.edges() {
            let slot_u = offsets[u] + cursor[u];
            cursor[u] += 1;
            let slot_v = offsets[v] + cursor[v];
            cursor[v] += 1;
            debug_assert!(slot_u < offsets[u + 1] && slot_v < offsets[v + 1]);
            route[slot_u as usize] =
                Route { dest_slot: slot_v, dest_node: v as u32, dest_shard: (v / chunk) as u16 };
            route[slot_v as usize] =
                Route { dest_slot: slot_u, dest_node: u as u32, dest_shard: (u / chunk) as u16 };
            placed += 2;
        }
        assert_eq!(placed, total, "edge stream must replay identically on its second pass");

        Self { offsets: offsets.into_boxed_slice(), route: route.into_boxed_slice() }
    }

    /// Resolves node `from`'s local `port` to `(sender slot, destination
    /// node, destination's local port)` — the one place the CSR
    /// back-port arithmetic lives (payload and control envelopes must
    /// route identically).
    #[inline]
    pub fn resolve(&self, from: usize, port: usize) -> (usize, u32, u32) {
        let slot = self.offsets[from] as usize + port;
        let route = self.route[slot];
        let back = route.dest_slot - self.offsets[route.dest_node as usize];
        (slot, route.dest_node, back)
    }
}

/// An edge source [`Topology::compile`] reads twice: every call to
/// `edges` yields each undirected edge `(u, v)`, `u < v`, in strictly
/// increasing lexicographic order, identically.
trait Replay {
    fn edges(&mut self) -> impl Iterator<Item = (usize, usize)> + '_;
}

/// [`Graph::edges`] already yields the sorted pairs — no edge list.
impl Replay for &Graph {
    fn edges(&mut self) -> impl Iterator<Item = (usize, usize)> + '_ {
        Graph::edges(self)
    }
}

impl Replay for &mut dyn EdgeStream {
    fn edges(&mut self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.reset();
        std::iter::from_fn(|| self.next_edge())
    }
}

/// One outgoing FIFO: the oldest message inline, later ones on a chain of
/// chunks. 16 bytes of cursors plus one `Option<M>` per port.
#[derive(Clone, Debug)]
struct PortQ<M> {
    /// The FIFO head, when it arrived at an empty port. `push` fills it
    /// only while `len == 0`, so a `Some` is always the oldest message.
    first: Option<M>,
    /// First chunk of the chain (`NIL` when the chain is empty).
    head: u32,
    /// Last chunk of the chain (`NIL` when the chain is empty).
    tail: u32,
    /// Queued message count, `first` included.
    len: u32,
    /// Next slot to pop within `head`.
    head_off: u8,
    /// Next slot to fill within `tail`.
    tail_off: u8,
}

impl<M> PortQ<M> {
    const EMPTY: Self =
        PortQ { first: None, head: NIL, tail: NIL, len: 0, head_off: 0, tail_off: 0 };
}

/// A pooled block of queue slots.
#[derive(Clone, Debug)]
struct Chunk<M> {
    slots: [Option<M>; CHUNK],
    next: u32,
}

impl<M> Chunk<M> {
    fn new() -> Self {
        Self { slots: std::array::from_fn(|_| None), next: NIL }
    }
}

/// A set of per-port FIFOs: the queue half of the flat plane, shared by
/// every engine. The synchronous [`Shard`] embeds one per node range; the
/// asynchronous executor ([`crate::asynch`]) owns a single set covering
/// the whole port space — one queue implementation, three engines. The
/// element type is unconstrained: the α engine also reuses this
/// machinery for structures that queue things other than application
/// messages (the timing wheel's in-flight envelopes and the rotating
/// per-pulse inboxes — see [`crate::sched::EventWheel`]).
///
/// A message pushed onto an empty port is stored inline in its
/// [`PortQ`]; only messages queued behind it go to the chunk slab. A
/// CONGEST port rarely holds more than one message, so it rarely touches
/// a chunk, while deep queues (wheel buckets, inboxes) pay one branch per
/// operation.
#[derive(Clone, Debug)]
pub(crate) struct PortQueues<M> {
    /// Queue state per local port.
    ports: Vec<PortQ<M>>,
    /// Chunk slab shared by the overflow chains of this set.
    chunks: Vec<Chunk<M>>,
    /// Head of the free-chunk list.
    free_head: u32,
    /// Bitset over local ports with queued messages; scan order = port
    /// order = sender order.
    active: Vec<u64>,
    /// Total messages queued across the set (O(1) quiescence checks).
    queued: u64,
    /// Most messages ever queued at once — the occupancy high-water
    /// mark, surfaced to the observability plane.
    high_water: u64,
}

impl<M> PortQueues<M> {
    /// An empty queue set over `port_count` ports.
    pub fn new(port_count: usize) -> Self {
        Self {
            ports: std::iter::repeat_with(|| PortQ::EMPTY).take(port_count).collect(),
            chunks: Vec::new(),
            free_head: NIL,
            active: vec![0u64; port_count.div_ceil(64)],
            queued: 0,
            high_water: 0,
        }
    }

    /// Messages queued across all ports.
    #[inline]
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// Most messages ever queued at once over the set's lifetime.
    #[inline]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Messages queued on local port `p`.
    #[inline]
    pub fn len(&self, p: u32) -> u32 {
        self.ports[p as usize].len
    }

    fn alloc_chunk(&mut self) -> u32 {
        if self.free_head != NIL {
            let c = self.free_head;
            self.free_head = self.chunks[c as usize].next;
            self.chunks[c as usize].next = NIL;
            c
        } else {
            self.chunks.push(Chunk::new());
            (self.chunks.len() - 1) as u32
        }
    }

    /// Enqueues `msg` on local port `p`. Allocates only while the chunk
    /// pool is still growing toward the steady-state watermark, and never
    /// for a message that finds its port empty.
    pub fn push(&mut self, p: u32, msg: M) {
        let q = &mut self.ports[p as usize];
        q.len += 1;
        if q.len == 1 {
            q.first = Some(msg);
            self.active[p as usize / 64] |= 1u64 << (p % 64);
        } else {
            self.push_chain(p, msg);
        }
        self.queued += 1;
        self.high_water = self.high_water.max(self.queued);
    }

    /// Appends `msg` to port `p`'s chunk chain (cursors only; the caller
    /// counts it).
    fn push_chain(&mut self, p: u32, msg: M) {
        let PortQ { tail, tail_off, .. } = self.ports[p as usize];
        let (tail, tail_off) = if tail == NIL {
            let c = self.alloc_chunk();
            let q = &mut self.ports[p as usize];
            q.head = c;
            q.tail = c;
            q.head_off = 0;
            (c, 0u8)
        } else if tail_off as usize == CHUNK {
            let c = self.alloc_chunk();
            self.chunks[tail as usize].next = c;
            self.ports[p as usize].tail = c;
            (c, 0u8)
        } else {
            (tail, tail_off)
        };
        self.chunks[tail as usize].slots[tail_off as usize] = Some(msg);
        self.ports[p as usize].tail_off = tail_off + 1;
    }

    /// Visits port `p`'s queued messages in FIFO order **without**
    /// draining them: the inline head first, then the chunk chain from
    /// its head cursor. The interleaving explorer's state fingerprint
    /// hashes queue contents through this — destructive iteration would
    /// perturb the very state being identified.
    pub fn for_each(&self, p: u32, mut f: impl FnMut(&M)) {
        let q = &self.ports[p as usize];
        if let Some(msg) = &q.first {
            f(msg);
        }
        let mut chunk = q.head;
        let mut off = q.head_off as usize;
        let mut remaining = q.len - u32::from(q.first.is_some());
        while remaining > 0 {
            let c = &self.chunks[chunk as usize];
            let msg = c.slots[off].as_ref().expect("queue cursor spans filled slots");
            f(msg);
            remaining -= 1;
            off += 1;
            if off == CHUNK && remaining > 0 {
                chunk = c.next;
                off = 0;
            }
        }
    }

    /// Number of ports in the set.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Dequeues from local port `p`: the inline head if present, else the
    /// chain's head, recycling exhausted chunks.
    pub fn pop(&mut self, p: u32) -> Option<M> {
        let q = &mut self.ports[p as usize];
        if q.len == 0 {
            return None;
        }
        q.len -= 1;
        self.queued -= 1;
        if q.len == 0 {
            self.active[p as usize / 64] &= !(1u64 << (p % 64));
        }
        if let Some(msg) = q.first.take() {
            return Some(msg);
        }
        let head = q.head;
        let msg = self.chunks[head as usize].slots[q.head_off as usize]
            .take()
            .expect("queue cursor points at a filled slot");
        q.head_off += 1;
        if q.len == 0 {
            // Return the whole (single remaining) chain to the free list.
            self.chunks[q.tail as usize].next = self.free_head;
            self.free_head = head;
            *q = PortQ::EMPTY;
        } else if q.head_off as usize == CHUNK {
            q.head = self.chunks[head as usize].next;
            q.head_off = 0;
            self.chunks[head as usize].next = self.free_head;
            self.free_head = head;
        }
        Some(msg)
    }
}

/// One round's payload-delivery counters: a shard meters its deliveries
/// here, and the network folds each shard's into [`crate::Metrics`]
/// after the parallel phases join.
#[derive(Debug, Default)]
pub(crate) struct RoundDelta {
    /// Payload messages delivered this round.
    pub messages: u64,
    /// Payload bits delivered this round.
    pub bits: u64,
    /// Widest payload message delivered this round, in bits.
    pub max_bits: usize,
}

impl RoundDelta {
    /// Folds one delivered payload of `bits` width in.
    #[inline]
    fn record(&mut self, bits: usize) {
        self.messages += 1;
        self.bits += bits as u64;
        self.max_bits = self.max_bits.max(bits);
    }
}

/// Locks one transfer cell. A round's two phases never contend for a
/// cell, so this fails only if another shard's thread panicked.
fn lock<M>(cell: &Mutex<Vec<Entry<M>>>) -> MutexGuard<'_, Vec<Entry<M>>> {
    cell.lock().expect("transfer cell lock")
}

/// The message-plane state owned by one worker: the outgoing queues of a
/// contiguous node range and the receiver-side bucket store. A sharded
/// round hands messages between shards through the network's transfer
/// cells, one per (sender shard, receiver shard) pair:
/// [`Shard::drain_active`] fills its row of them, and
/// [`Shard::bucket_incoming`] empties its column.
#[derive(Debug)]
pub(crate) struct Shard<M> {
    /// First node of the range.
    pub node_lo: usize,
    /// One past the last node of the range.
    pub node_hi: usize,
    /// Global id of the first port in the range.
    pub port_lo: u32,
    /// The range's outgoing per-port FIFOs.
    pub queues: PortQueues<M>,
    /// Per-local-node message counts for the counting pass, then prefix-
    /// summed into bucket cursors.
    cursor: Vec<u32>,
    /// Per-local-node bucket start offsets into [`Self::bucket`]
    /// (`node_hi - node_lo + 1` entries once built).
    pub starts: Vec<u32>,
    /// The round's messages, bucketed by receiving node, each bucket in
    /// port order and FIFO within a port. Protocols step directly on these
    /// slices.
    pub bucket: Vec<(Port, M)>,
    /// This round's delivery counters, merged into [`crate::Metrics`]
    /// after the parallel phases join.
    pub delta: RoundDelta,
}

impl<M: Message> Shard<M> {
    /// An empty shard for nodes `node_lo..node_hi` with ports
    /// `port_lo..port_hi`.
    pub fn new(node_lo: usize, node_hi: usize, port_lo: u32, port_hi: u32) -> Self {
        let port_count = (port_hi - port_lo) as usize;
        let node_count = node_hi - node_lo;
        Self {
            node_lo,
            node_hi,
            port_lo,
            queues: PortQueues::new(port_count),
            cursor: vec![0u32; node_count],
            starts: vec![0u32; node_count + 1],
            bucket: Vec::new(),
            delta: RoundDelta::default(),
        }
    }

    /// Messages queued across all ports of this shard.
    #[inline]
    pub fn queued(&self) -> u64 {
        self.queues.queued()
    }

    /// Enqueues `msg` on local port `p`.
    #[cfg(test)]
    pub fn push(&mut self, p: u32, msg: M) {
        self.queues.push(p, msg);
    }

    /// Dequeues from local port `p`.
    #[cfg(test)]
    pub fn pop(&mut self, p: u32) -> Option<M> {
        self.queues.pop(p)
    }

    /// Delivery phase A: drains this shard's active ports — one message
    /// per port when `congest`, whole queues otherwise — routing each
    /// message into its destination shard's cell of `row` and metering
    /// it in [`Self::delta`]. The row stays locked for the call only.
    pub fn drain_active<'a>(
        &mut self,
        topo: &Topology,
        congest: bool,
        row: impl IntoIterator<Item = &'a Mutex<Vec<Entry<M>>>>,
    ) where
        M: 'a,
    {
        let mut out: Vec<_> = row.into_iter().map(lock).collect();
        for wi in 0..self.queues.active.len() {
            // Pops may clear bits of the word being scanned; the snapshot
            // is taken before any pop of this word, so each active port is
            // visited exactly once, in port order.
            let mut word = self.queues.active[wi];
            while word != 0 {
                let p = (wi * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                let route = topo.route[(self.port_lo + p) as usize];
                while let Some(msg) = self.queues.pop(p) {
                    self.delta.record(msg.bit_size());
                    out[route.dest_shard as usize].push((route.dest_slot, route.dest_node, msg));
                    if congest {
                        break;
                    }
                }
            }
        }
    }

    /// Single-shard delivery: straight from the port queues into the
    /// bucket store, touching each payload exactly once (no transfer
    /// buffers).
    ///
    /// Pass 1 counts deliverable messages per receiving node without
    /// reading any payload (one per active port under `congest`, the
    /// whole queue length otherwise); after [`Self::layout_buckets`],
    /// pass 2 pops each message and writes it directly at its bucket
    /// cursor. Sender slots are visited in increasing order, so each
    /// bucket comes out in canonical order (see the module docs). The
    /// result is identical to `drain_active` + `bucket_incoming` — same
    /// buckets, same metering — just with half the memory traffic.
    pub fn deliver_direct(&mut self, topo: &Topology, congest: bool) {
        debug_assert_eq!(self.node_lo, 0, "direct delivery requires the single-shard layout");

        let node_count = self.node_hi - self.node_lo;
        self.cursor[..node_count].fill(0);
        let mut total = 0usize;
        for wi in 0..self.queues.active.len() {
            let mut word = self.queues.active[wi];
            while word != 0 {
                let p = (wi * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                let route = topo.route[(self.port_lo + p) as usize];
                let deliverable = if congest { 1 } else { self.queues.len(p) };
                self.cursor[route.dest_node as usize] += deliverable;
                total += deliverable as usize;
            }
        }

        let bucket_ptr = self.layout_buckets(total);
        let mut placed = 0usize;
        for wi in 0..self.queues.active.len() {
            let mut word = self.queues.active[wi];
            while word != 0 {
                let p = (wi * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                let route = topo.route[(self.port_lo + p) as usize];
                let port = (route.dest_slot - topo.offsets[route.dest_node as usize]) as usize;
                while let Some(msg) = self.queues.pop(p) {
                    self.delta.record(msg.bit_size());
                    let local = route.dest_node as usize;
                    let pos = self.cursor[local];
                    self.cursor[local] = pos + 1;
                    placed += 1;
                    debug_assert!((pos as usize) < total);
                    // SAFETY: pos < total <= capacity; the prefix-summed
                    // cursors make positions distinct across the loop.
                    unsafe { std::ptr::write(bucket_ptr.add(pos as usize), (port, msg)) };
                    if congest {
                        break;
                    }
                }
            }
        }
        debug_assert_eq!(placed, total);
        // SAFETY: all `total` positions were just initialized (`placed`
        // equals `total`: pass 2 pops exactly what pass 1 counted).
        unsafe { self.bucket.set_len(total) };
        debug_assert!(self.buckets_in_port_order());
    }

    /// Delivery phase B: buckets the round's messages addressed to this
    /// shard — `column`, its transfer cells in sender-shard order, locked
    /// for the call — by receiving node, and leaves every cell empty with
    /// its capacity kept for the next round.
    ///
    /// Three linear passes (count, prefix-sum, place) move each payload
    /// exactly once. The placement is stable and reads the cells in
    /// sender-shard order, so each bucket keeps the canonical order the
    /// senders' scans produced (see the module docs), whatever the shard
    /// count. After this call, node `node_lo + i`'s inbox is
    /// `bucket[starts[i]..starts[i + 1]]`.
    pub fn bucket_incoming<'a>(
        &mut self,
        topo: &Topology,
        column: impl IntoIterator<Item = &'a Mutex<Vec<Entry<M>>>>,
    ) where
        M: 'a,
    {
        let mut incoming: Vec<_> = column.into_iter().map(lock).collect();
        let node_count = self.node_hi - self.node_lo;
        self.cursor[..node_count].fill(0);
        let mut total = 0usize;
        for buf in incoming.iter() {
            total += buf.len();
            for &(_, dest_node, _) in buf.iter() {
                self.cursor[dest_node as usize - self.node_lo] += 1;
            }
        }

        // Place every message exactly once into its bucket range. The
        // buffers' lengths are zeroed before the raw reads so an unwind
        // can at worst leak the tail, never double-drop; the writes go to
        // `bucket`'s spare capacity and `set_len` runs only after every
        // position 0..total has been written (the prefix-summed cursors
        // enumerate each position exactly once).
        let bucket_ptr = self.layout_buckets(total);
        for buf in incoming.iter_mut() {
            let len = buf.len();
            // SAFETY: shrinking only; elements are moved out below.
            unsafe { buf.set_len(0) };
            let src = buf.as_ptr();
            for i in 0..len {
                // SAFETY: `i` is below the pre-`set_len` length, and each
                // element is read exactly once across the loop.
                let (slot, dest_node, msg) = unsafe { std::ptr::read(src.add(i)) };
                let local = dest_node as usize - self.node_lo;
                let port = (slot - topo.offsets[dest_node as usize]) as usize;
                let pos = self.cursor[local];
                self.cursor[local] = pos + 1;
                debug_assert!((pos as usize) < total);
                // SAFETY: pos < total <= capacity, and positions are
                // distinct across the loop (see above).
                unsafe { std::ptr::write(bucket_ptr.add(pos as usize), (port, msg)) };
            }
        }
        // SAFETY: all `total` positions were just initialized.
        unsafe { self.bucket.set_len(total) };
        debug_assert!(self.buckets_in_port_order());
    }

    /// The bucket layout both deliveries share: prefix-sums the per-node
    /// counts in `cursor` into `starts` and resets each cursor to its
    /// bucket's start, then empties `bucket` with room for `total`
    /// entries and returns the pointer the placement pass writes through.
    fn layout_buckets(&mut self, total: usize) -> *mut (Port, M) {
        let node_count = self.node_hi - self.node_lo;
        let mut acc = 0u32;
        for i in 0..node_count {
            self.starts[i] = acc;
            acc += self.cursor[i];
            self.cursor[i] = self.starts[i];
        }
        self.starts[node_count] = acc;
        debug_assert_eq!(acc as usize, total);
        self.bucket.clear();
        self.bucket.reserve(total);
        self.bucket.as_mut_ptr()
    }

    /// `true` if every bucket lists its ports in non-decreasing order:
    /// the canonical inbox order both deliveries produce without sorting.
    fn buckets_in_port_order(&self) -> bool {
        self.starts.windows(2).all(|range| {
            let bucket = &self.bucket[range[0] as usize..range[1] as usize];
            bucket.windows(2).all(|pair| pair[0].0 <= pair[1].0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Ping;
    use graphs::GraphBuilder;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn shard_for(ports: u32) -> Shard<Ping> {
        Shard::new(0, 1, 0, ports)
    }

    #[test]
    fn fifo_per_port_across_chunks() {
        #[derive(Clone, Debug)]
        struct N(usize);
        impl Message for N {
            fn bit_size(&self) -> usize {
                8
            }
        }
        let mut s: Shard<N> = Shard::new(0, 1, 0, 2);
        for i in 0..3 * CHUNK {
            s.push(0, N(i));
        }
        s.push(1, N(999));
        assert_eq!(s.queued(), 3 * CHUNK as u64 + 1);
        for i in 0..3 * CHUNK {
            assert_eq!(s.pop(0).unwrap().0, i);
        }
        assert!(s.pop(0).is_none());
        assert_eq!(s.pop(1).unwrap().0, 999);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn chunks_recycle_no_unbounded_growth() {
        let mut s = shard_for(1);
        for _ in 0..100 {
            for _ in 0..2 * CHUNK {
                s.push(0, Ping);
            }
            while s.pop(0).is_some() {}
        }
        // Steady state: the pool high-water mark is one burst's worth.
        assert!(s.queues.chunks.len() <= 3, "pool grew to {} chunks", s.queues.chunks.len());
    }

    #[test]
    fn inline_head_hands_over_to_the_chain() {
        let mut q: PortQueues<u32> = PortQueues::new(1);
        q.push(0, 0);
        assert!(q.chunks.is_empty(), "a message at an empty port stays inline");
        // Queue a two-chunk chain behind the inline head.
        let chained = 1..=CHUNK as u32 + 1;
        for i in chained.clone() {
            q.push(0, i);
        }
        assert_eq!(q.chunks.len(), 2);
        // Pop the slot while the chain is non-empty; the next push must
        // queue behind the chain, not refill the slot.
        assert_eq!(q.pop(0), Some(0));
        q.push(0, 100);
        let mut seen = Vec::new();
        q.for_each(0, |&m| seen.push(m));
        let expected: Vec<u32> = chained.chain([100]).collect();
        assert_eq!(seen, expected);
        let mut drained = Vec::new();
        while let Some(m) = q.pop(0) {
            drained.push(m);
        }
        assert_eq!(drained, expected);
        assert_eq!((q.len(0), q.queued(), q.active[0]), (0, 0, 0));
        // Empty again: the next message goes inline and both chunks wait
        // on the free list.
        q.push(0, 7);
        assert_eq!(q.chunks.len(), 2);
        assert!(q.ports[0].first.is_some() && q.ports[0].head == NIL);
        assert_eq!(q.pop(0), Some(7));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `PortQueues` against one `VecDeque` per port, over random push
        /// and pop bursts up to three chunks long: popped values, `len`,
        /// `queued`, `high_water`, `for_each` order and the active bits
        /// agree after every burst. In a `shallow` case a push only lands
        /// on an empty port (CONGEST traffic), and no chunk may exist
        /// while no port has ever held two messages.
        #[test]
        fn queues_match_a_vecdeque_model(
            port_count in 1usize..5,
            shallow in any::<bool>(),
            bursts in prop::collection::vec((0usize..4, 1usize..3 * CHUNK + 2, any::<bool>()), 1..120),
        ) {
            let mut q: PortQueues<u64> = PortQueues::new(port_count);
            let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); port_count];
            let (mut next, mut high_water, mut ever_deep) = (0u64, 0u64, false);
            for (port, burst, is_push) in bursts {
                let p = port % port_count;
                for _ in 0..burst {
                    if is_push && (!shallow || model[p].is_empty()) {
                        q.push(p as u32, next);
                        model[p].push_back(next);
                        next += 1;
                    } else {
                        prop_assert_eq!(q.pop(p as u32), model[p].pop_front());
                    }
                    let queued: usize = model.iter().map(VecDeque::len).sum();
                    high_water = high_water.max(queued as u64);
                    ever_deep |= model[p].len() > 1;
                    prop_assert!(ever_deep || q.chunks.is_empty(), "a chunk held a lone message");
                }
                let queued: usize = model.iter().map(VecDeque::len).sum();
                prop_assert_eq!(q.queued(), queued as u64);
                prop_assert_eq!(q.high_water(), high_water);
                for (i, fifo) in model.iter().enumerate() {
                    prop_assert_eq!(q.len(i as u32) as usize, fifo.len());
                    let mut seen = Vec::new();
                    q.for_each(i as u32, |&m| seen.push(m));
                    prop_assert!(seen.iter().eq(fifo.iter()), "port {i}: for_each order");
                    let active = q.active[i / 64] >> (i % 64) & 1 == 1;
                    prop_assert_eq!(active, !fifo.is_empty(), "port {i}: active bit");
                }
            }
            prop_assert!(!shallow || q.chunks.is_empty());
        }
    }

    #[test]
    fn active_bits_track_queues() {
        let mut s = shard_for(130);
        s.push(0, Ping);
        s.push(129, Ping);
        assert_eq!(s.queues.active[0], 1);
        assert_eq!(s.queues.active[2], 0b10);
        s.pop(0);
        assert_eq!(s.queues.active[0], 0);
        s.pop(129);
        assert_eq!(s.queues.active[2], 0);
    }

    #[test]
    fn topology_routes_both_directions() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let topo = Topology::from_graph(&g, 2);
        // Node 0 port 0 → node 1 port 0; node 1 has ports 1 (to 0) and 2
        // (to 2); node 2 port 3 (to 1).
        assert_eq!(topo.offsets.as_ref(), &[0, 1, 3, 4]);
        let dest_slots: Vec<u32> = topo.route.iter().map(|r| r.dest_slot).collect();
        let dest_nodes: Vec<u32> = topo.route.iter().map(|r| r.dest_node).collect();
        let dest_shards: Vec<u16> = topo.route.iter().map(|r| r.dest_shard).collect();
        assert_eq!(dest_slots, vec![1, 0, 3, 2]);
        assert_eq!(dest_nodes, vec![1, 0, 2, 1]);
        // chunk = 2: nodes 0..2 in shard 0, node 2 in shard 1.
        assert_eq!(dest_shards, vec![0, 0, 1, 0]);
    }

    #[test]
    fn stream_build_matches_graph_build() {
        use graphs::generators::{GnpStream, VecEdgeStream};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        fn assert_same(a: &Topology, b: &Topology) {
            assert_eq!(a.offsets, b.offsets);
            assert_eq!(a.route.len(), b.route.len());
            for (x, y) in a.route.iter().zip(b.route.iter()) {
                assert_eq!(
                    (x.dest_slot, x.dest_node, x.dest_shard),
                    (y.dest_slot, y.dest_node, y.dest_shard)
                );
            }
        }

        // The hand-checked 3-node path, on the uneven 2-shard split.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let mut s = VecEdgeStream::from_graph(&g);
        assert_same(&Topology::from_graph(&g, 2), &Topology::from_edge_stream(&mut s, 2));

        // A random instance, on even and uneven splits.
        let (n, p, seed) = (80, 0.1, 9u64);
        let g = graphs::generators::gnp(n, p, &mut StdRng::seed_from_u64(seed));
        let mut s = GnpStream::new(n, p, seed);
        for shards in [1, 3] {
            assert_same(
                &Topology::from_graph(&g, shards),
                &Topology::from_edge_stream(&mut s, shards),
            );
        }
        assert_eq!(Topology::from_graph(&g, 1).heap_bytes(), 4 * (n + 1) + 12 * 2 * g.edge_count());
    }

    #[test]
    #[should_panic(expected = "strictly lexicographically sorted")]
    fn stream_build_rejects_unsorted_replay() {
        struct Unsorted(usize);
        impl EdgeStream for Unsorted {
            fn node_count(&self) -> usize {
                3
            }
            fn reset(&mut self) {
                self.0 = 0;
            }
            fn next_edge(&mut self) -> Option<(usize, usize)> {
                self.0 += 1;
                match self.0 {
                    1 => Some((1, 2)),
                    2 => Some((0, 1)),
                    _ => None,
                }
            }
        }
        let _ = Topology::from_edge_stream(&mut Unsorted(0), 1);
    }

    #[test]
    fn drain_congest_takes_one_per_port() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        let topo = Topology::from_graph(&g, 1);
        let mut s: Shard<Ping> = Shard::new(0, 2, 0, 2);
        let cell = Mutex::new(Vec::new());
        s.push(0, Ping);
        s.push(0, Ping);
        s.drain_active(&topo, true, [&cell]);
        assert_eq!(cell.lock().unwrap().len(), 1);
        assert_eq!(s.queued(), 1);
        s.drain_active(&topo, false, [&cell]);
        let out = cell.into_inner().unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(s.queued(), 0);
        // Both land on dest slot 1 of node 1 (in separate rounds).
        assert_eq!(out[0].0, 1);
        assert_eq!(out[0].1, 1);
        assert_eq!(out[1].0, 1);
    }

    #[test]
    fn buckets_keep_port_then_train_order() {
        #[derive(Clone, Debug)]
        struct N(u32);
        impl Message for N {
            fn bit_size(&self) -> usize {
                8
            }
        }
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let topo = Topology::from_graph(&g, 1);
        let mut s: Shard<N> = Shard::new(0, 3, 0, 4);
        // Deliveries to node 1 (slots 1 and 2) in sender order, the only
        // order `drain_active` produces: node 0's message, then node 2's
        // two-message train.
        let cell = Mutex::new(vec![(1, 1, N(10)), (2, 1, N(30)), (2, 1, N(31))]);
        s.bucket_incoming(&topo, [&cell]);
        assert_eq!(s.starts[..4], [0, 0, 3, 3]);
        let got: Vec<(usize, u32)> = s.bucket.iter().map(|(p, m)| (*p, m.0)).collect();
        assert_eq!(got, vec![(0, 10), (1, 30), (1, 31)]);
        assert!(cell.lock().unwrap().is_empty(), "incoming buffer drained");
    }
}
