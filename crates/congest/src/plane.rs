//! The flat message plane: CSR topology, slab-backed port queues, and the
//! sharded delivery machinery behind [`Engine::Flat`](crate::Engine::Flat).
//!
//! # Layout
//!
//! Every directed edge `(u, v)` is a *slot*: a dense `u32` id assigned in
//! CSR order (`slot = offsets[u] + port`), mirroring [`graphs::Graph`]'s
//! own layout. Delivery routing collapses into a single flat array,
//! [`Topology::route`]: indexed by the sender's slot, one 12-byte record
//! carries the receiver's local port, the destination node, and the
//! destination shard — phase A performs no pointer chasing and no random
//! lookups at all (sender slots are visited in order), and the receiving
//! side reads its port straight from the record.
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
//! On the flat engine a node's whole-row broadcast usually costs one
//! message, not `degree` of them. Each node of a [`Shard`] has one
//! *record* slot, preallocated at build ([`Outgoing`]). A broadcast from
//! a node whose ports are all empty is stored there once, and delivery
//! expands it over the node's CSR row. A pending record counts as
//! `degree` queued messages. When the node sends or broadcasts again
//! before delivery, the record is first written out into its port
//! queues, so every port's FIFO order is what per-port copies give. On
//! `nc_flat_5k`, records carry 99.7% of the messages. The α engine keeps
//! per-port copies ([`NodeOut::ports`]): its ports deliver one by one
//! under their own delays.
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
//! increasing order: a shard walks its senders node by node
//! ([`Outgoing::drain`]), expanding a node's record over its CSR row in
//! port order or else popping the node's window of the active-port
//! bitset. A lone shard places straight from that walk, and a receiver
//! shard reads its transfer buffers in sender-shard order, each filled by
//! one such walk over a contiguous node range. A receiver's senders
//! therefore arrive in increasing node order, and
//! [`Topology::compile`] lists every node's neighbors in increasing order,
//! so that is the receiver's port order; a LOCAL train leaves its port's
//! queue in one piece, FIFO. Every bucket is thus sorted by port, FIFO
//! within each port — for one shard or many, in CONGEST or LOCAL, which
//! is what makes runs bit-identical across shard counts.
//!
//! # Write-combined placement
//!
//! The placement pass is a scatter: each entry goes to its receiver's
//! bucket cursor, one of thousands of write streams. Every plain store
//! to a line that is not cached first reads that line from memory (a
//! read for ownership), and on `nc_flat_5k`, with 5,000 receivers and
//! 32-byte entries, that cost 22–31 ns per entry against ~5 ns for a
//! sequential write. So, where it can, a shard *stages* its placement,
//! as radix partitioning does (Wassenberg and Sanders, "Engineering a
//! Multi-core Radix Sort", Euro-Par 2011):
//!
//! - Each receiving node has one 64-byte staging line, and every entry is
//!   first written into its receiver's line, at the slot its bucket
//!   position has within a cache line. The lines of a shard that stages
//!   total at most [`STAGE_BUDGET`], so they stay in L2.
//! - The bucket store ([`Buckets`]) puts its first entry on a cache
//!   line. When an entry completes a store line that lies wholly inside
//!   its receiver's bucket, the staged line goes out with non-temporal
//!   stores, which skip the read for ownership.
//! - A bucket's head and tail lines are shared with its neighbors. Their
//!   entries are copied with plain stores: the head's when its line
//!   completes, the tail's once the pass ends. One `sfence` then orders
//!   the non-temporal stores before anything else.
//!
//! Buckets stay dense and in the same order, so every inbox is what the
//! plain scatter writes, bit for bit. A shard stages only on x86-64, for
//! entries `(Port, M)` whose size divides 64 and messages without drop
//! glue, and only while its lines fit the budget; otherwise it runs the
//! plain scatter ([`stages`] decides, from nothing but these facts).
//! Both paths are measured (perfbench, alternating pairs, 2 CPUs). On
//! `nc_flat_5k` (one shard of 5,000 nodes, 320 KB of lines) staging
//! took the run from 14.82 s to 9.75 s, medians of 10 pairs. With the
//! budget lifted, `gossip_stream_1m` (two shards of 500,000 nodes,
//! 32 MB of lines each) staged too, and got slower: 3.38 s to 3.77 s
//! over 3 pairs, with its peak RSS up from 938 MB to 1,091 MB, since
//! lines that miss the cache cost what they were meant to save.

use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr::copy_nonoverlapping;
use std::sync::{Mutex, MutexGuard};

use graphs::{EdgeStream, Graph};

use crate::message::Message;
use crate::protocol::Port;

/// Messages per overflow chunk. Chunks hold only the messages queued
/// behind a port's inline head, so they serve deep queues: LOCAL trains
/// and the α engine's inboxes. Eight keeps a chunk of small messages
/// within one or two cache lines while bounding per-queue slack to seven
/// slots.
pub(crate) const CHUNK: usize = 8;

/// Null link / "no chunk" marker.
const NIL: u32 = u32::MAX;

/// Bytes per cache line: the unit of write-combined placement.
const LINE: usize = 64;

/// Most bytes of staging lines one shard may hold, one line per receiving
/// node, so 16,384 nodes: half the 2 MiB L2 of the Xeon it was measured
/// on, leaving room for the cursors and the streams the placement reads
/// (module docs, "Write-combined placement").
const STAGE_BUDGET: usize = 1 << 20;

/// A delivery record produced by phase A: `(receiver's local port,
/// destination node, payload)`. Both are precomputed so the receiver
/// does no random lookup; the order of entries carries the canonical
/// inbox order (see the module docs).
pub(crate) type Entry<M> = (u32, u32, M);

/// Routing record for one directed port, indexed by *sender* slot.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Route {
    /// The same physical edge seen from the receiving side: its local
    /// port at `dest_node`, which is the port a delivered message
    /// carries into the inbox.
    pub back_port: u32,
    /// The receiving node.
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
        // its node's next free port. Sorted replay hands every node its
        // neighbors in increasing order, so port assignment — and each
        // record's `back_port` — is the graph's CSR order. Delivery's
        // unsorted inboxes rely on that order (module docs).
        let mut route = vec![Route::default(); total as usize];
        let mut cursor = vec![0u32; n];
        let mut placed: u64 = 0;
        for (u, v) in source.edges() {
            let (port_u, port_v) = (cursor[u], cursor[v]);
            cursor[u] += 1;
            cursor[v] += 1;
            let (slot_u, slot_v) = (offsets[u] + port_u, offsets[v] + port_v);
            debug_assert!(slot_u < offsets[u + 1] && slot_v < offsets[v + 1]);
            route[slot_u as usize] =
                Route { back_port: port_v, dest_node: v as u32, dest_shard: (v / chunk) as u16 };
            route[slot_v as usize] =
                Route { back_port: port_u, dest_node: u as u32, dest_shard: (u / chunk) as u16 };
            placed += 2;
        }
        assert_eq!(placed, total, "edge stream must replay identically on its second pass");

        Self { offsets: offsets.into_boxed_slice(), route: route.into_boxed_slice() }
    }

    /// Resolves node `from`'s local `port` to `(sender slot, destination
    /// node, destination's local port)` — one route lookup, shared by
    /// payload and control envelopes so both route identically.
    #[inline]
    pub fn resolve(&self, from: usize, port: usize) -> (usize, u32, u32) {
        let slot = self.offsets[from] as usize + port;
        let route = self.route[slot];
        (slot, route.dest_node, route.back_port)
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
/// element type is unconstrained: the α engine also queues its rotating
/// per-pulse inboxes here. Its timing wheel keeps in-flight envelopes in
/// pooled blocks of its own ([`crate::sched::EventWheel`]): its buckets
/// hold ~10⁵ events each, where a port holds one or two.
///
/// A message pushed onto an empty port is stored inline in its
/// [`PortQ`]; only messages queued behind it go to the chunk slab. A
/// CONGEST port rarely holds more than one message, so it rarely touches
/// a chunk, while deep queues (LOCAL trains, inboxes) pay one branch per
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

    /// `true` if local port `p` holds a message: one bit of the active
    /// set, no queue header read.
    #[inline]
    pub fn is_active(&self, p: u32) -> bool {
        self.active[p as usize / 64] & (1u64 << (p % 64)) != 0
    }

    /// `true` if no local port in `lo..hi` holds a message.
    fn is_clear(&self, lo: u32, hi: u32) -> bool {
        (lo / 64..hi.div_ceil(64)).all(|wi| self.active[wi as usize] & window(wi, lo, hi) == 0)
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

/// The bits of active-port word `wi` that fall in ports `lo..hi`, for a
/// word that holds at least one port below `hi`.
#[inline]
fn window(wi: u32, lo: u32, hi: u32) -> u64 {
    let first = wi * 64;
    let from = if lo > first { !0u64 << (lo - first) } else { !0 };
    let below = if hi - first < 64 { (1u64 << (hi - first)) - 1 } else { !0 };
    from & below
}

/// One node's window into a queue set, where its context's sends land:
/// its ports `base..base + degree`, and on the flat engine its broadcast
/// record slot (module docs, "Queues").
#[derive(Debug)]
pub(crate) struct NodeOut<'a, M> {
    queues: &'a mut PortQueues<M>,
    /// Local offset of the node's port 0 within `queues`.
    base: u32,
    /// The node's record slot and its shard's count of recorded
    /// messages, or `None` where every broadcast is queued per port.
    record: Option<(&'a mut Option<M>, &'a mut u64)>,
}

impl<'a, M: Clone> NodeOut<'a, M> {
    /// A window without a record slot: the α engine's, whose ports
    /// deliver one by one.
    pub fn ports(queues: &'a mut PortQueues<M>, base: u32) -> Self {
        Self { queues, base, record: None }
    }

    /// Enqueues `msg` on `port`, behind the copy a pending record holds
    /// for it.
    #[inline]
    pub fn send(&mut self, degree: usize, port: usize, msg: M) {
        self.write_out(degree);
        self.queues.push(self.base + port as u32, msg);
    }

    /// Enqueues a copy of `msg` on each of the node's `degree` ports: as
    /// its record, if it has a slot, no pending record and no queued
    /// message, and otherwise as one copy per port.
    pub fn broadcast(&mut self, degree: usize, msg: M) {
        let (base, hi) = (self.base, self.base + degree as u32);
        if let Some((slot, recorded)) = &mut self.record {
            if slot.is_none() && degree > 0 && self.queues.is_clear(base, hi) {
                **slot = Some(msg);
                **recorded += degree as u64;
                return;
            }
        }
        self.write_out(degree);
        self.copies(degree, &msg);
    }

    /// Turns a pending record into one copy per port, so that what the
    /// node sends next queues behind it.
    fn write_out(&mut self, degree: usize) {
        let Some((slot, recorded)) = &mut self.record else { return };
        let Some(msg) = slot.take() else { return };
        **recorded -= degree as u64;
        self.copies(degree, &msg);
    }

    /// Enqueues a copy of `msg` on each of the node's `degree` ports.
    fn copies(&mut self, degree: usize, msg: &M) {
        for p in self.base..self.base + degree as u32 {
            self.queues.push(p, msg.clone());
        }
    }
}

/// What a shard's nodes have sent and not yet delivered: a FIFO per port,
/// and a record slot per node (module docs, "Queues").
#[derive(Debug)]
pub(crate) struct Outgoing<M> {
    /// The range's outgoing per-port FIFOs.
    pub queues: PortQueues<M>,
    /// Each local node's pending broadcast, if it has one. A node with a
    /// record has no message queued on any port.
    records: Vec<Option<M>>,
    /// Messages the pending records stand for: each its node's degree.
    recorded: u64,
}

impl<M: Message> Outgoing<M> {
    fn new(node_count: usize, port_count: usize) -> Self {
        Self {
            queues: PortQueues::new(port_count),
            records: std::iter::repeat_with(|| None).take(node_count).collect(),
            recorded: 0,
        }
    }

    /// Messages queued or recorded, a record counting as its node's
    /// degree.
    #[inline]
    pub fn queued(&self) -> u64 {
        self.queues.queued() + self.recorded
    }

    /// Local node `local`'s window, its ports starting at local port
    /// `base`.
    #[inline]
    pub fn node(&mut self, local: usize, base: u32) -> NodeOut<'_, M> {
        NodeOut {
            queues: &mut self.queues,
            base,
            record: Some((&mut self.records[local], &mut self.recorded)),
        }
    }

    /// The sender walk both deliveries share. Visits the nodes of the
    /// range starting at node `node_lo` and port `port_lo` in order, and
    /// hands `sink` each message that leaves this round with its route,
    /// metered in `delta`. A pending record expands over its node's CSR
    /// row, one copy per port; any other node's window of the active-port
    /// bitset is popped, one message per port when `congest` and whole
    /// queues otherwise. Either way sender slots come in increasing order
    /// (module docs, "Delivery without a sort").
    #[inline(always)]
    fn drain(
        &mut self,
        topo: &Topology,
        (node_lo, port_lo): (usize, u32),
        congest: bool,
        delta: &mut RoundDelta,
        mut sink: impl FnMut(Route, M),
    ) {
        for (i, record) in self.records.iter_mut().enumerate() {
            let (lo, hi) = (topo.offsets[node_lo + i], topo.offsets[node_lo + i + 1]);
            let row = &topo.route[lo as usize..hi as usize];
            if let Some(msg) = record.take() {
                self.recorded -= row.len() as u64;
                delta.record_copies(msg.bit_size(), row.len());
                for &route in row {
                    sink(route, msg.clone());
                }
                continue;
            }
            let (lo, hi) = (lo - port_lo, hi - port_lo);
            for wi in lo / 64..hi.div_ceil(64) {
                // Pops clear bits of the word being scanned; the snapshot
                // is taken before any pop of this word, so each active
                // port is visited exactly once, in port order.
                let mut word = self.queues.active[wi as usize] & window(wi, lo, hi);
                while word != 0 {
                    let p = wi * 64 + word.trailing_zeros();
                    word &= word - 1;
                    let route = row[(p - lo) as usize];
                    while let Some(msg) = self.queues.pop(p) {
                        delta.record(msg.bit_size());
                        sink(route, msg);
                        if congest {
                            break;
                        }
                    }
                }
            }
        }
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
        self.record_copies(bits, 1);
    }

    /// Folds `copies ≥ 1` delivered payloads of `bits` width each in.
    #[inline]
    fn record_copies(&mut self, bits: usize, copies: usize) {
        self.messages += copies as u64;
        self.bits += (bits * copies) as u64;
        self.max_bits = self.max_bits.max(bits);
    }
}

/// The buffer one sender shard fills for one receiver shard. Two shards'
/// threads write neighboring cells in the same phase, so each cell owns
/// a 128-byte pair of cache lines: a shared line, or one the adjacent-line
/// prefetcher pulls in, would bounce between their cores (false sharing).
#[repr(align(128))]
pub(crate) struct TransferCell<M>(pub Mutex<Vec<Entry<M>>>);

impl<M> TransferCell<M> {
    /// Locks the cell. A round's two phases never contend for a cell, so
    /// this fails only if another shard's thread panicked.
    fn lock(&self) -> MutexGuard<'_, Vec<Entry<M>>> {
        self.0.lock().expect("transfer cell lock")
    }
}

/// The message-plane state owned by one worker: the outgoing queues and
/// records of a contiguous node range and the receiver-side bucket store.
/// A sharded round hands messages between shards through the network's
/// transfer cells, one per (sender shard, receiver shard) pair:
/// [`Shard::drain_active`] fills its row of them, and
/// [`Shard::bucket_incoming`] empties its column. Each shard's thread
/// writes its own shard's counters and queue headers per message, so a
/// shard owns its cache lines as a [`TransferCell`] does.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct Shard<M> {
    /// First node of the range.
    pub node_lo: usize,
    /// One past the last node of the range.
    pub node_hi: usize,
    /// Global id of the first port in the range.
    pub port_lo: u32,
    /// The range's sent, undelivered messages.
    pub outgoing: Outgoing<M>,
    /// Per-local-node message counts for the counting pass, then prefix-
    /// summed into bucket cursors.
    cursor: Vec<u32>,
    /// Per-local-node bucket start offsets into [`Self::bucket`]
    /// (`node_hi - node_lo + 1` entries once built).
    pub starts: Vec<u32>,
    /// The round's messages, bucketed by receiving node, each bucket in
    /// port order and FIFO within a port. Protocols step directly on these
    /// slices.
    pub bucket: Buckets<M>,
    /// One staging line per local node when this shard stages its
    /// placement, none otherwise (see [`stages`]).
    stage: Vec<Line>,
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
        let stage = if stages::<M>(node_count) {
            vec![Line { _bytes: [MaybeUninit::uninit(); LINE] }; node_count]
        } else {
            Vec::new()
        };
        Self {
            node_lo,
            node_hi,
            port_lo,
            outgoing: Outgoing::new(node_count, port_count),
            cursor: vec![0u32; node_count],
            starts: vec![0u32; node_count + 1],
            bucket: Buckets::new(),
            stage,
            delta: RoundDelta::default(),
        }
    }

    /// Messages queued or recorded across this shard, a record counting
    /// as its node's degree.
    #[inline]
    pub fn queued(&self) -> u64 {
        self.outgoing.queued()
    }

    /// Enqueues `msg` on local port `p`.
    #[cfg(test)]
    pub fn push(&mut self, p: u32, msg: M) {
        self.outgoing.queues.push(p, msg);
    }

    /// Dequeues from local port `p`.
    #[cfg(test)]
    pub fn pop(&mut self, p: u32) -> Option<M> {
        self.outgoing.queues.pop(p)
    }

    /// Delivery phase A: drains this shard's senders — a record whole,
    /// and one message per active port when `congest` or whole queues
    /// otherwise — routing each message into its destination shard's
    /// cell of `row` and metering it in [`Self::delta`]. The row stays
    /// locked for the call only.
    pub fn drain_active<'a>(
        &mut self,
        topo: &Topology,
        congest: bool,
        row: impl IntoIterator<Item = &'a TransferCell<M>>,
    ) where
        M: 'a,
    {
        let mut out: Vec<_> = row.into_iter().map(TransferCell::lock).collect();
        let range = (self.node_lo, self.port_lo);
        self.outgoing.drain(topo, range, congest, &mut self.delta, |route, msg| {
            out[route.dest_shard as usize].push((route.back_port, route.dest_node, msg));
        });
    }

    /// Single-shard delivery: straight from the port queues and records
    /// into the bucket store, touching each payload exactly once (no
    /// transfer buffers).
    ///
    /// Pass 1 counts deliverable messages per receiving node without
    /// reading any payload (one per port of a record's row, one per
    /// active port under `congest`, the whole queue length otherwise);
    /// after [`Self::layout_buckets`], pass 2 walks the senders
    /// ([`Outgoing::drain`]) and places each message at its bucket
    /// cursor. Sender slots are visited in increasing order, so each
    /// bucket comes out in canonical order (see the module docs). The
    /// result is identical to `drain_active` + `bucket_incoming` — same
    /// buckets, same metering — just with half the memory traffic.
    pub fn deliver_direct(&mut self, topo: &Topology, congest: bool) {
        debug_assert_eq!(self.node_lo, 0, "direct delivery requires the single-shard layout");

        let node_count = self.node_hi - self.node_lo;
        self.cursor[..node_count].fill(0);
        let mut total = 0usize;
        for (u, record) in self.outgoing.records.iter().enumerate() {
            if record.is_some() {
                let row = &topo.route[topo.offsets[u] as usize..topo.offsets[u + 1] as usize];
                for route in row {
                    self.cursor[route.dest_node as usize] += 1;
                }
                total += row.len();
            }
        }
        let queues = &self.outgoing.queues;
        for wi in 0..queues.active.len() {
            let mut word = queues.active[wi];
            while word != 0 {
                let p = (wi * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                let route = topo.route[(self.port_lo + p) as usize];
                let deliverable = if congest { 1 } else { queues.len(p) };
                self.cursor[route.dest_node as usize] += deliverable;
                total += deliverable as usize;
            }
        }

        self.layout_buckets(total);
        let mut place =
            Placer::new(&mut self.bucket, &mut self.stage, &mut self.cursor, &self.starts);
        let range = (self.node_lo, self.port_lo);
        self.outgoing.drain(topo, range, congest, &mut self.delta, |route, msg| {
            place.put(route.dest_node as usize, (route.back_port as Port, msg));
        });
        place.finish();
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
    /// `bucket.entries()[starts[i]..starts[i + 1]]`.
    pub fn bucket_incoming<'a>(&mut self, column: impl IntoIterator<Item = &'a TransferCell<M>>)
    where
        M: 'a,
    {
        let mut incoming: Vec<_> = column.into_iter().map(TransferCell::lock).collect();
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
        // can at worst leak the tail, never double-drop.
        self.layout_buckets(total);
        let mut place =
            Placer::new(&mut self.bucket, &mut self.stage, &mut self.cursor, &self.starts);
        for buf in incoming.iter_mut() {
            let len = buf.len();
            // SAFETY: shrinking only; elements are moved out below.
            unsafe { buf.set_len(0) };
            let src = buf.as_ptr();
            for i in 0..len {
                // SAFETY: `i` is below the pre-`set_len` length, and each
                // element is read exactly once across the loop.
                let (back_port, dest_node, msg) = unsafe { std::ptr::read(src.add(i)) };
                place.put(dest_node as usize - self.node_lo, (back_port as Port, msg));
            }
        }
        place.finish();
        debug_assert!(self.buckets_in_port_order());
    }

    /// The bucket layout both deliveries share: prefix-sums the per-node
    /// counts in `cursor` into `starts` and resets each cursor to its
    /// bucket's start.
    fn layout_buckets(&mut self, total: usize) {
        let node_count = self.node_hi - self.node_lo;
        let mut acc = 0u32;
        for i in 0..node_count {
            self.starts[i] = acc;
            acc += self.cursor[i];
            self.cursor[i] = self.starts[i];
        }
        self.starts[node_count] = acc;
        debug_assert_eq!(acc as usize, total);
    }

    /// `true` if every bucket lists its ports in non-decreasing order:
    /// the canonical inbox order both deliveries produce without sorting.
    fn buckets_in_port_order(&self) -> bool {
        self.starts.windows(2).all(|range| {
            let bucket = &self.bucket.entries()[range[0] as usize..range[1] as usize];
            bucket.windows(2).all(|pair| pair[0].0 <= pair[1].0)
        })
    }
}

/// Whether a shard of `nodes` receiving nodes stages the placement of
/// `M`'s entries (module docs, "Write-combined placement"). It does on
/// x86-64, when an entry's size divides a cache line, so no entry
/// straddles one; when `M` has no drop glue, so a staged copy owns
/// nothing a panic could leak; and when one staging line per node fits
/// [`STAGE_BUDGET`], so the lines stay in L2.
fn stages<M>(nodes: usize) -> bool {
    cfg!(target_arch = "x86_64")
        && LINE.is_multiple_of(size_of::<(Port, M)>())
        && !std::mem::needs_drop::<M>()
        && nodes * LINE <= STAGE_BUDGET
}

/// One cache line of raw storage: a receiving node's staging line.
#[derive(Clone, Debug)]
#[repr(align(64))]
struct Line {
    _bytes: [MaybeUninit<u8>; LINE],
}

/// Sixteen bytes of raw bucket storage, aligned no wider than the system
/// allocator's own blocks.
#[derive(Debug)]
#[repr(align(16))]
struct Block {
    _bytes: [MaybeUninit<u8>; 16],
}

/// The bucket store: one round's entries, bucketed by receiving node,
/// from a cache-line boundary inside its allocation, so an entry whose
/// size divides 64 never straddles a line and a staged line can be
/// written whole.
#[derive(Debug)]
pub(crate) struct Buckets<M> {
    /// Raw storage, with room to skip to an aligned first entry. The
    /// `Vec` itself stays empty; its capacity holds the entries. Its
    /// blocks are 16-byte aligned so that growth goes through the system
    /// allocator's `realloc`: a wider alignment is reallocated by
    /// allocate, copy and free, and on glibc each free of a large block
    /// raises the mmap threshold, which made `nc_flat_5k`'s second run
    /// in one process peak 4.5 MB higher.
    raw: Vec<Block>,
    /// Bytes from the allocation's start to the first entry.
    offset: usize,
    /// Initialized entries from there.
    len: usize,
    /// The store owns its entries.
    _entries: PhantomData<(Port, M)>,
}

impl<M> Buckets<M> {
    fn new() -> Self {
        Self { raw: Vec::new(), offset: 0, len: 0, _entries: PhantomData }
    }

    /// The round's entries; [`Shard::starts`] cuts them into inboxes.
    pub fn entries(&self) -> &[(Port, M)] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: the store is allocated (it holds entries), `offset`
        // aligns the first one, and `len` entries from there are
        // initialized.
        unsafe {
            std::slice::from_raw_parts(
                self.raw.as_ptr().cast::<u8>().add(self.offset).cast(),
                self.len,
            )
        }
    }

    /// Drops the entries and makes room for `total`, returning where the
    /// first one goes.
    fn reset(&mut self, total: usize) -> *mut (Port, M) {
        self.clear();
        let align = LINE.max(align_of::<(Port, M)>());
        let bytes = total * size_of::<(Port, M)>() + align;
        // The `Vec` is empty, so growth moves no entries.
        self.raw.reserve(bytes.div_ceil(size_of::<Block>()));
        let start = self.raw.as_mut_ptr().cast::<u8>();
        self.offset = start.addr().next_multiple_of(align) - start.addr();
        // SAFETY: `offset < align`, and the reservation holds `align`
        // bytes of slack in front of the entries.
        unsafe { start.add(self.offset).cast() }
    }

    fn clear(&mut self) {
        let len = std::mem::take(&mut self.len);
        if len > 0 {
            // SAFETY: the store is allocated and holds `len` initialized
            // entries from `offset`. `len` is zeroed first, so an unwind
            // from a drop cannot reach them again.
            unsafe {
                let first = self.raw.as_mut_ptr().cast::<u8>().add(self.offset).cast::<(Port, M)>();
                std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(first, len));
            }
        }
    }
}

impl<M> Drop for Buckets<M> {
    fn drop(&mut self) {
        self.clear();
    }
}

/// The placement pass both deliveries share: [`Placer::put`] writes each
/// entry at its receiver's bucket cursor, through the receiver's staging
/// line when the shard stages, and [`Placer::finish`] completes the
/// store (module docs, "Write-combined placement").
struct Placer<'a, M> {
    /// The bucket store, whose length is set once every entry is placed.
    bucket: &'a mut Buckets<M>,
    /// Where the store's first entry goes.
    base: *mut (Port, M),
    /// One staging line per local node, or none for the plain scatter.
    stage: &'a mut [Line],
    /// Each local node's next bucket position.
    cursor: &'a mut [u32],
    /// Each local node's bucket start, then the total.
    starts: &'a [u32],
}

impl<'a, M> Placer<'a, M> {
    /// Entries per staging line. Only a staging shard uses it, and there
    /// an entry's size divides [`LINE`].
    const PER_LINE: usize = LINE / size_of::<(Port, M)>();

    /// Empties `bucket` for the round whose layout `starts` and `cursor`
    /// hold, and places through `stage` unless it is empty.
    fn new(
        bucket: &'a mut Buckets<M>,
        stage: &'a mut [Line],
        cursor: &'a mut [u32],
        starts: &'a [u32],
    ) -> Self {
        let base = bucket.reset(starts[starts.len() - 1] as usize);
        Self { bucket, base, stage, cursor, starts }
    }

    /// Places `entry` at local node `local`'s next bucket position.
    #[inline(always)]
    fn put(&mut self, local: usize, entry: (Port, M)) {
        let pos = self.cursor[local] as usize;
        self.cursor[local] += 1;
        debug_assert!(pos < self.starts[local + 1] as usize, "node {local} overfilled its bucket");
        if self.stage.is_empty() {
            // SAFETY: `pos` lies in `local`'s bucket, inside the store's
            // capacity, and the prefix-summed cursors hand out each
            // position once.
            unsafe { self.base.add(pos).write(entry) };
            return;
        }
        let slot = pos % Self::PER_LINE;
        let line = (&raw mut self.stage[local]).cast::<(Port, M)>();
        // SAFETY: a staging line holds `PER_LINE` entries, and `slot` is
        // below that.
        unsafe { line.add(slot).write(entry) };
        if slot + 1 < Self::PER_LINE {
            return;
        }
        // The entry completed the store line `first..=pos`.
        let first = pos + 1 - Self::PER_LINE;
        let start = self.starts[local] as usize;
        if first >= start {
            // SAFETY: the whole store line lies in `local`'s bucket and
            // is staged complete. `base` is line-aligned and `first` a
            // multiple of `PER_LINE`, so the target is one aligned line
            // inside the store's capacity, and no other store writes it.
            unsafe { stream_line(line.cast(), self.base.add(first).cast()) };
        } else {
            // The bucket's head line, shared with the buckets before it:
            // copy this bucket's part with plain stores.
            // SAFETY: positions `start..=pos` are `local`'s, staged at
            // slots `start - first..PER_LINE` of its line.
            unsafe {
                copy_nonoverlapping(line.add(start - first), self.base.add(start), pos + 1 - start)
            };
        }
    }

    /// Copies every bucket's staged tail line with plain stores, fences
    /// the non-temporal stores, and sets the store's length.
    fn finish(self) {
        // Cursors only count up from their bucket's start, so this also
        // shows that no bucket overran into the next: every position
        // below the total was written exactly once.
        assert!(
            self.cursor.iter().zip(&self.starts[1..]).all(|(cursor, end)| cursor == end),
            "a bucket was not filled to its end"
        );
        if !self.stage.is_empty() {
            for (local, range) in self.starts.windows(2).enumerate() {
                let (start, end) = (range[0] as usize, range[1] as usize);
                let first = start.max(end - end % Self::PER_LINE);
                let line = (&raw const self.stage[local]).cast::<(Port, M)>();
                // SAFETY: positions `first..end` are `local`'s last, and
                // they are staged in its line, from slot
                // `first % PER_LINE` on, since its last whole line went
                // out.
                unsafe {
                    copy_nonoverlapping(
                        line.add(first % Self::PER_LINE),
                        self.base.add(first),
                        end - first,
                    );
                }
            }
            // SAFETY: `sfence` needs SSE, which every x86-64 CPU has.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                std::arch::x86_64::_mm_sfence()
            };
        }
        self.bucket.len = self.starts[self.starts.len() - 1] as usize;
    }
}

/// Writes one staged cache line to its bucket-store line with
/// non-temporal stores, which skip the read for ownership that a plain
/// store to an uncached line costs. [`Placer::finish`]'s `sfence` orders
/// them.
///
/// # Safety
///
/// `src` must be readable and `dst` writable for [`LINE`] bytes, both
/// 64-byte aligned, and the two must not overlap.
#[inline(always)]
unsafe fn stream_line(src: *const u8, dst: *mut u8) {
    // SAFETY: the caller's contract covers the four aligned 16-byte loads
    // and stores. Staged entries may hold uninitialized padding; `asm!`
    // reads the bytes opaquely, where loading them into `__m128i` values
    // in Rust would be undefined behaviour.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::asm!(
            "movdqa {a}, xmmword ptr [{src}]",
            "movdqa {b}, xmmword ptr [{src} + 16]",
            "movdqa {c}, xmmword ptr [{src} + 32]",
            "movdqa {d}, xmmword ptr [{src} + 48]",
            "movntdq xmmword ptr [{dst}], {a}",
            "movntdq xmmword ptr [{dst} + 16], {b}",
            "movntdq xmmword ptr [{dst} + 32], {c}",
            "movntdq xmmword ptr [{dst} + 48], {d}",
            src = in(reg) src,
            dst = in(reg) dst,
            a = out(xmm_reg) _,
            b = out(xmm_reg) _,
            c = out(xmm_reg) _,
            d = out(xmm_reg) _,
            options(nostack, preserves_flags),
        );
    }
    // SAFETY: the caller's contract. (Unreached: only x86-64 stages.)
    #[cfg(not(target_arch = "x86_64"))]
    unsafe {
        copy_nonoverlapping(src, dst, LINE)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Ping;
    use graphs::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
        assert!(
            s.outgoing.queues.chunks.len() <= 3,
            "pool grew to {} chunks",
            s.outgoing.queues.chunks.len()
        );
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
        assert_eq!(s.outgoing.queues.active[0], 1);
        assert_eq!(s.outgoing.queues.active[2], 0b10);
        s.pop(0);
        assert_eq!(s.outgoing.queues.active[0], 0);
        s.pop(129);
        assert_eq!(s.outgoing.queues.active[2], 0);
    }

    #[test]
    fn topology_routes_both_directions() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let topo = Topology::from_graph(&g, 2);
        // Slot 0 (node 0 port 0) → node 1 port 0; node 1 has slots 1 (port
        // 0, to node 0) and 2 (port 1, to node 2); slot 3 (node 2 port 0)
        // → node 1 port 1.
        assert_eq!(topo.offsets.as_ref(), &[0, 1, 3, 4]);
        let back_ports: Vec<u32> = topo.route.iter().map(|r| r.back_port).collect();
        let dest_nodes: Vec<u32> = topo.route.iter().map(|r| r.dest_node).collect();
        let dest_shards: Vec<u16> = topo.route.iter().map(|r| r.dest_shard).collect();
        assert_eq!(back_ports, vec![0, 0, 0, 1]);
        assert_eq!(dest_nodes, vec![1, 0, 2, 1]);
        // chunk = 2: nodes 0..2 in shard 0, node 2 in shard 1.
        assert_eq!(dest_shards, vec![0, 0, 1, 0]);
    }

    #[test]
    fn stream_build_matches_graph_build() {
        use graphs::generators::{GnpStream, VecEdgeStream};

        fn assert_same(a: &Topology, b: &Topology) {
            assert_eq!(a.offsets, b.offsets);
            assert_eq!(a.route.len(), b.route.len());
            for (x, y) in a.route.iter().zip(b.route.iter()) {
                assert_eq!(
                    (x.back_port, x.dest_node, x.dest_shard),
                    (y.back_port, y.dest_node, y.dest_shard)
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
        let cell = TransferCell(Mutex::new(Vec::new()));
        s.push(0, Ping);
        s.push(0, Ping);
        s.drain_active(&topo, true, [&cell]);
        assert_eq!(cell.lock().len(), 1);
        assert_eq!(s.queued(), 1);
        s.drain_active(&topo, false, [&cell]);
        let out = cell.0.into_inner().unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(s.queued(), 0);
        // Both land on port 0 of node 1 (in separate rounds).
        assert_eq!(out[0].0, 0);
        assert_eq!(out[0].1, 1);
        assert_eq!(out[1].0, 0);
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
        // On the path 0 - 1 - 2: deliveries to node 1 (ports 0 and 1) in
        // sender order, the only order `drain_active` produces: node 0's
        // message, then node 2's two-message train.
        let mut s: Shard<N> = Shard::new(0, 3, 0, 4);
        let cell = TransferCell(Mutex::new(vec![(0, 1, N(10)), (1, 1, N(30)), (1, 1, N(31))]));
        s.bucket_incoming([&cell]);
        assert_eq!(s.starts[..4], [0, 0, 3, 3]);
        let got: Vec<(usize, u32)> = s.bucket.entries().iter().map(|(p, m)| (*p, m.0)).collect();
        assert_eq!(got, vec![(0, 10), (1, 30), (1, 31)]);
        assert!(cell.lock().is_empty(), "incoming buffer drained");
    }

    /// A message the delivery model can tell apart by its tag. `Ping`
    /// carries none, so its inboxes are checked by port alone.
    trait Tagged: Message + PartialEq {
        fn tagged(tag: u32) -> Self;
    }

    impl Tagged for Ping {
        fn tagged(_: u32) -> Self {
            Ping
        }
    }

    /// 16-byte entries, 4 bytes of them padding.
    #[derive(Clone, Debug, PartialEq)]
    struct Short(u32);

    /// 24-byte entries, which do not tile a cache line.
    #[derive(Clone, Debug, PartialEq)]
    struct Wide([u64; 2]);

    /// 32-byte entries with 7 bytes of padding, the shape of
    /// `DistNearClique`'s.
    #[derive(Clone, Debug, PartialEq)]
    struct Padded {
        ids: [u64; 2],
        tag: u8,
    }

    /// 32-byte entries whose message owns heap memory (drop glue).
    #[derive(Clone, Debug, PartialEq)]
    struct Owned(Vec<u32>);

    /// 256-byte entries aligned beyond a cache line.
    #[derive(Clone, Debug, PartialEq)]
    #[repr(align(128))]
    struct Aligned(u32);

    impl Message for Short {
        fn bit_size(&self) -> usize {
            32
        }
    }

    impl Message for Wide {
        fn bit_size(&self) -> usize {
            128
        }
    }

    impl Message for Padded {
        fn bit_size(&self) -> usize {
            136
        }
    }

    impl Message for Owned {
        fn bit_size(&self) -> usize {
            32 * self.0.len()
        }
    }

    impl Message for Aligned {
        fn bit_size(&self) -> usize {
            32
        }
    }

    impl Tagged for Short {
        fn tagged(tag: u32) -> Self {
            Short(tag)
        }
    }

    impl Tagged for Wide {
        fn tagged(tag: u32) -> Self {
            Wide([tag.into(), (!tag).into()])
        }
    }

    impl Tagged for Padded {
        fn tagged(tag: u32) -> Self {
            Padded { ids: [(!tag).into(), tag.into()], tag: tag as u8 }
        }
    }

    impl Tagged for Owned {
        fn tagged(tag: u32) -> Self {
            Owned(vec![tag; 1 + tag as usize % 3])
        }
    }

    impl Tagged for Aligned {
        fn tagged(tag: u32) -> Self {
            Aligned(tag)
        }
    }

    /// A random one-round delivery from `seed`: G(n, p) with `n < 40` at
    /// any density, and a train of 1–9 messages queued on each sender
    /// slot, or none a third of the time. So receivers get no entry, one,
    /// odd counts and many, and buckets start anywhere within a line.
    fn delivery_instance(seed: u64) -> (Graph, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..40);
        let g = graphs::generators::gnp(n, rng.gen::<f64>(), &mut rng);
        let trains = (0..2 * g.edge_count())
            .map(|_| if rng.gen_bool(1.0 / 3.0) { 0 } else { rng.gen_range(1..10) })
            .collect();
        (g, trains)
    }

    /// What a node sends after its trains are queued (see
    /// [`record_instance`]).
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Cast {
        Nothing,
        /// A broadcast: a record if the node's ports are empty.
        Broadcast,
        /// A broadcast, then a send on port 0, which writes a record out.
        BroadcastThenSend,
    }

    /// [`delivery_instance`] where a third of the nodes queue no train and
    /// broadcast, and another sixth broadcast behind their trains; half of
    /// the broadcasters then send on port 0 too.
    fn record_instance(seed: u64) -> (Graph, Vec<usize>, Vec<Cast>) {
        let (g, mut trains) = delivery_instance(seed);
        let offsets = Topology::from_graph(&g, 1).offsets;
        let mut rng = StdRng::seed_from_u64(!seed);
        let casts = (0..g.node_count())
            .map(|u| {
                let pick = rng.gen_range(0..6);
                if pick < 2 {
                    trains[offsets[u] as usize..offsets[u + 1] as usize].fill(0);
                }
                match pick {
                    0 | 2 => Cast::Broadcast,
                    1 | 3 => Cast::BroadcastThenSend,
                    _ => Cast::Nothing,
                }
            })
            .collect();
        (g, trains, casts)
    }

    /// Queues `trains[slot]` tagged messages on every sender slot of `g`,
    /// then has each node `u` send `casts[u]` (nothing past the end of
    /// `casts`), delivers one round on `shards` shards — through
    /// `deliver_direct` on one, `drain_active` and `bucket_incoming` on
    /// more — and checks every inbox against per-port `VecDeque`s: port
    /// order, FIFO within a port, one message per port under `congest`
    /// and whole trains otherwise. A broadcast from a node with nothing
    /// queued must be a record. Returns each node's bucket as (start in
    /// its shard's store, length).
    fn deliver_and_check<M: Tagged>(
        g: &Graph,
        trains: &[usize],
        casts: &[Cast],
        shards: usize,
        congest: bool,
    ) -> Vec<(usize, usize)> {
        let n = g.node_count();
        let topo = Topology::from_graph(g, shards);
        let chunk = n.div_ceil(shards).max(1);
        let mut plane: Vec<Shard<M>> = (0..shards)
            .map(|t| {
                let (lo, hi) = ((t * chunk).min(n), ((t + 1) * chunk).min(n));
                Shard::new(lo, hi, topo.offsets[lo], topo.offsets[hi])
            })
            .collect();
        let mut fifos: Vec<VecDeque<M>> = trains
            .iter()
            .enumerate()
            .map(|(slot, &len)| (0..len).map(|i| M::tagged((slot * 16 + i) as u32)).collect())
            .collect();
        for u in 0..n {
            let shard = &mut plane[u / chunk];
            let (lo, hi) = (topo.offsets[u], topo.offsets[u + 1]);
            for slot in lo..hi {
                for msg in &fifos[slot as usize] {
                    shard.push(slot - shard.port_lo, msg.clone());
                }
            }
            let cast = casts.get(u).copied().unwrap_or(Cast::Nothing);
            if cast == Cast::Nothing {
                continue;
            }
            let (degree, local) = ((hi - lo) as usize, u - shard.node_lo);
            let quiet = fifos[lo as usize..hi as usize].iter().all(VecDeque::is_empty);
            let all = M::tagged(u32::MAX - 2 * u as u32);
            let mut out = shard.outgoing.node(local, lo - shard.port_lo);
            out.broadcast(degree, all.clone());
            fifos[lo as usize..hi as usize].iter_mut().for_each(|f| f.push_back(all.clone()));
            assert_eq!(shard.outgoing.records[local].is_some(), quiet && degree > 0, "node {u}");
            if cast == Cast::BroadcastThenSend && degree > 0 {
                let one = M::tagged(u32::MAX - 2 * u as u32 - 1);
                shard.outgoing.node(local, lo - shard.port_lo).send(degree, 0, one.clone());
                fifos[lo as usize].push_back(one);
            }
        }
        let queued: usize = fifos.iter().map(VecDeque::len).sum();
        assert_eq!(plane.iter().map(Shard::queued).sum::<u64>(), queued as u64, "queued before");

        if shards == 1 {
            plane[0].deliver_direct(&topo, congest);
        } else {
            let cells: Vec<TransferCell<M>> =
                (0..shards * shards).map(|_| TransferCell(Mutex::new(Vec::new()))).collect();
            for (t, shard) in plane.iter_mut().enumerate() {
                shard.drain_active(&topo, congest, &cells[t * shards..][..shards]);
            }
            for (t, shard) in plane.iter_mut().enumerate() {
                shard.bucket_incoming(cells[t..].iter().step_by(shards));
            }
        }

        let mut buckets = Vec::with_capacity(n);
        for v in 0..n {
            let mut expected = Vec::new();
            for (port, &u) in g.neighbors(v).iter().enumerate() {
                let back = g.neighbors(u).iter().position(|&w| w == v).expect("undirected edge");
                let fifo = &mut fifos[topo.offsets[u] as usize + back];
                let take = if congest { fifo.len().min(1) } else { fifo.len() };
                expected.extend(fifo.drain(..take).map(|msg| (port, msg)));
            }
            let shard = &plane[v / chunk];
            let i = v - shard.node_lo;
            let (start, end) = (shard.starts[i] as usize, shard.starts[i + 1] as usize);
            assert_eq!(shard.bucket.entries()[start..end], expected[..], "node {v}'s inbox");
            buckets.push((start, end - start));
        }
        let left: usize = fifos.iter().map(VecDeque::len).sum();
        assert_eq!(plane.iter().map(Shard::queued).sum::<u64>(), left as u64, "queued after");
        buckets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both deliveries against the per-port FIFO model, on random
        /// instances, in CONGEST and LOCAL, on one to three shards: for
        /// entries of 8, 16 and 32 bytes, which stage, and for 24-byte
        /// entries, a message with drop glue and one aligned beyond a
        /// line, which take the plain scatter. Broadcast records, their
        /// write-outs and per-port broadcasts mix with the trains.
        #[test]
        fn placement_matches_a_port_fifo_model(
            seed in any::<u64>(),
            shards in 1usize..4,
            congest in any::<bool>(),
        ) {
            let (g, trains, casts) = record_instance(seed);
            deliver_and_check::<Ping>(&g, &trains, &casts, shards, congest);
            deliver_and_check::<Short>(&g, &trains, &casts, shards, congest);
            deliver_and_check::<Wide>(&g, &trains, &casts, shards, congest);
            deliver_and_check::<Padded>(&g, &trains, &casts, shards, congest);
            deliver_and_check::<Owned>(&g, &trains, &casts, shards, false);
            deliver_and_check::<Aligned>(&g, &trains, &casts, shards, congest);
        }
    }

    /// The model's random instances reach every placement geometry:
    /// buckets that start at each of the eight offsets within a line of
    /// 8-byte entries, and receivers with no entry, one, an odd count and
    /// more than three lines' worth.
    #[test]
    fn delivery_instances_reach_every_line_offset() {
        let (mut offsets, mut counts) = ([false; 8], [false; 4]);
        for seed in 0..8 {
            let (g, trains) = delivery_instance(seed);
            for congest in [true, false] {
                for (start, len) in deliver_and_check::<Ping>(&g, &trains, &[], 1, congest) {
                    offsets[start % 8] |= len > 0;
                    counts[0] |= len == 0;
                    counts[1] |= len == 1;
                    counts[2] |= len > 1 && len % 2 == 1;
                    counts[3] |= len > 24;
                }
            }
        }
        assert_eq!(offsets, [true; 8], "bucket starts within a line");
        assert_eq!(counts, [true; 4], "receivers with 0, 1, odd and many entries");
    }

    /// Staging runs where it was measured to pay: a 32-byte entry stages
    /// at `nc_flat_5k`'s 5,000 nodes on one shard but not at
    /// `gossip_stream_1m`'s 500,000 per shard, and a 24-byte entry or a
    /// message with drop glue never stages.
    #[test]
    fn staging_is_chosen_by_entry_size_drop_glue_and_node_count() {
        assert_eq!(size_of::<(Port, Padded)>(), 32);
        assert_eq!(stages::<Padded>(5_000), cfg!(target_arch = "x86_64"));
        assert!(!stages::<Padded>(500_000));
        assert_eq!(size_of::<(Port, Wide)>(), 24);
        assert!(!stages::<Wide>(5_000));
        assert_eq!(size_of::<(Port, Owned)>(), 32);
        assert!(!stages::<Owned>(5_000));
    }

    /// Shards and transfer cells are written per message by different
    /// threads in the same phase; each must start on its own 128-byte
    /// pair of cache lines, or a two-shard round runs slower than one.
    #[test]
    fn shards_and_transfer_cells_own_their_cache_lines() {
        assert!(std::mem::align_of::<Shard<Ping>>() >= 128);
        assert!(std::mem::align_of::<TransferCell<Ping>>() >= 128);
    }
}
