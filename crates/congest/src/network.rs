//! The synchronous network: topology, round loop, delivery rules — built
//! on a flat message plane.
//!
//! [`Network`] — the engine behind [`Engine::Flat`](crate::Engine::Flat),
//! built only through [`crate::Session`] — instantiates one [`Protocol`]
//! state machine per node of a [`graphs::Graph`] and executes
//! synchronous rounds:
//!
//! 1. **Deliver** — for every directed edge with queued messages, dequeue
//!    from the sender's per-port FIFO: exactly one in [`Mode::Congest`]
//!    (the model's bandwidth rule; longer trains pipeline over rounds), or
//!    the whole queue in [`Mode::Local`]. Every delivered message is
//!    metered.
//! 2. **Step** — every node's [`Protocol::step`] runs on the messages
//!    delivered to it this round.
//! 3. **Quiesce** — when no message is queued and every node reports
//!    [`Protocol::is_idle`], the network offers a barrier via
//!    [`Protocol::on_quiescent`]; if no node resumes, the run completes.
//!
//! An explicit [`RunLimits::max_rounds`] abort is always available — the
//! paper's §4.1 deterministic time-bound wrapper.
//!
//! # The flat message plane
//!
//! The hot path is engineered so that a steady-state round on one shard
//! performs **no heap allocation** (pinned by `tests/alloc_probe.rs`).
//! A round on two or more shards allocates a fixed amount whatever its
//! traffic: it spawns its shard threads and collects its locked transfer
//! cells into fresh `Vec`s, 15 allocations a round at two shards.
//!
//! * The link table is CSR-flattened (`crate::plane::Topology`): one
//!   12-byte record per sender port holds the matching receiver port,
//!   the receiver node and its shard, so the scatter needs no second
//!   lookup.
//! * Each outgoing queue keeps its oldest message inline in a per-port
//!   header (16 bytes of cursors and a flag plus one message); only
//!   messages queued behind it go to per-shard slabs of fixed-size
//!   chunks strung on a free list, and pushes/pops recycle chunks
//!   instead of allocating. Under CONGEST a port rarely holds two
//!   messages, so delivery reads the headers in port order and almost
//!   never visits a chunk. Non-empty ports are tracked in a bitset whose
//!   scan order is port order — no sorted insert on push.
//! * A broadcast from a node with nothing queued is stored once, in the
//!   node's preallocated record slot, and counts as `degree` queued
//!   messages. Delivery walks the senders node by node and expands a
//!   record over the node's CSR row: one route read and one clone per
//!   port, no queue header touched. A send or broadcast that follows it
//!   before delivery writes the record out into the port queues first,
//!   so per-port FIFO order is what per-port copies give. The
//!   asynchronous engine keeps its payloads in the same form, so both
//!   engines' broadcasts take this one path. An empty header is all
//!   zero bytes and the headers are allocated zeroed, so a port that
//!   only ever carries records never has its header written
//!   (`crate::plane`'s module docs, "Queues").
//! * Delivery buffers are reused across rounds (a bucket store per
//!   shard, a transfer buffer per pair of shards); per-round growth only
//!   happens until the workload's high-water mark is reached.
//!
//! # Parallelism and determinism
//!
//! `Engine::Flat { shards }` splits nodes into equal shards, one OS
//! thread each; a single shard delivers straight from its queues and
//! records. A sharded round is one thread scope: each thread drains its
//! senders' queues and records into its row of transfer buffers, one per
//! receiver shard (phase A), then — after one barrier — buckets its
//! column, the buffers addressed to it, into its receivers' inboxes and
//! steps its nodes (phase B). Shards may outnumber nodes. Both paths
//! visit sender ports in increasing order and bucket stably, so every
//! inbox comes out in one canonical order (port-sorted, per-port FIFO)
//! regardless of thread count, with no sort (`crate::plane`'s module
//! docs give the argument); metrics are merged with commutative
//! aggregates and each node owns its RNG stream. Together these make
//! runs **bit-identical** across any shard count — the contract
//! `crates/core`'s `engine_equivalence` suite enforces.
//!
//! The plane's benchmark is `perfbench/` (workloads in `BENCHMARK.json`):
//! `nc_flat_5k` runs it on one shard and `gossip_stream_1m` on two.

use std::sync::{Arc, Barrier, Mutex};

use rand::rngs::StdRng;

use crate::metrics::Metrics;
use crate::obs::{emit, MetricsMode, RunProfile, SinkSlot, TraceConfig, TraceEvent, TraceSink};
use crate::plane::{Shard, Topology, TransferCell};
use crate::protocol::{Context, Endpoint, OutboxHandle, Protocol, Round};
use crate::rng::{node_rng, splitmix64};
use crate::session::{Driver, Observer, RunLimits, RunReport, Source, SyncOverhead, Termination};

/// Bandwidth regime for message delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// At most one message per directed edge per round (the CONGEST
    /// model \[20\]); queued messages pipeline across rounds.
    Congest,
    /// Unbounded bandwidth (the LOCAL model): whole queues are delivered
    /// each round. Bits are still metered — that is how E10 exhibits the
    /// neighbors'-neighbors blow-up.
    Local,
}

/// How node identifiers are assigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdAssignment {
    /// `id = index`: convenient for debugging and deterministic examples.
    Sequential,
    /// A pseudorandom permutation-free labeling derived from the master
    /// seed (distinct with overwhelming probability, verified at build
    /// time). This is the default: algorithms must not benefit from IDs
    /// correlating with topology.
    Hashed,
}

/// Borrowed per-shard windows into the engine's node arrays.
///
/// Node state is stored structure-of-arrays: endpoints, protocols and
/// RNG streams live in three parallel `Vec`s rather than one `Vec` of
/// structs, so the step loop touches only the arrays it needs (protocol
/// state and RNGs are hot; endpoint headers are read-only) and each
/// worker thread takes three disjoint slices instead of one.
struct NodeSlices<'a, P: Protocol> {
    endpoints: &'a [Endpoint],
    protocols: &'a mut [P],
    rngs: &'a mut [StdRng],
}

pub(crate) fn assign_ids(ids: IdAssignment, seed: u64, n: usize) -> Vec<u64> {
    match ids {
        IdAssignment::Sequential => (0..n as u64).collect(),
        IdAssignment::Hashed => {
            let ids: Vec<u64> = (0..n)
                .map(|i| splitmix64(splitmix64(seed ^ 0x1D_5EED).wrapping_add(i as u64)))
                .collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), n, "hashed ID collision; use a different seed");
            ids
        }
    }
}

/// A synchronous network executing one [`Protocol`] instance per node.
pub(crate) struct Network<P: Protocol> {
    mode: Mode,
    /// Per-node read-only facts (parallel to `protocols` / `rngs`).
    endpoints: Vec<Endpoint>,
    /// Per-node protocol state machines.
    protocols: Vec<P>,
    /// Per-node private RNG streams.
    rngs: Vec<StdRng>,
    /// Per-thread queue shards (the flat plane); `shards.len()` is the
    /// configured thread count.
    shards: Vec<Shard<P::Msg>>,
    /// Transfer cells between sender shard `s` and receiver shard `t`, at
    /// index `s * shards + t`: phase A fills row `s`, phase B empties
    /// column `t`. The barrier between the phases keeps every lock
    /// uncontended.
    transfer: Vec<TransferCell<P::Msg>>,
    topo: Topology,
    /// Nodes per shard.
    chunk: usize,
    metrics: Metrics,
    round: Round,
    initialized: bool,
    /// Most messages queued or recorded at once, summed over the shards
    /// at round boundaries ([`Network::note_queue_depth`]).
    max_queued: u64,
    /// The observability sink (absent unless the session installed
    /// one): one [`TraceEvent::Round`] record per executed round, on
    /// the control thread only. Pure observation — never perturbs the
    /// round loop.
    rec: SinkSlot,
    /// Whether per-round metrics history is kept ([`MetricsMode::Full`])
    /// or only O(1) running aggregates ([`MetricsMode::Streaming`]).
    metrics_mode: MetricsMode,
}

/// The per-node parts both production engines run on, compiled once per
/// session by [`Nodes::build`]: the CSR route table, and each node's
/// endpoint (its neighbor ids slicing one shared arena), protocol and
/// RNG stream, parallel by node index.
pub(crate) struct Nodes<P> {
    pub topo: Topology,
    pub endpoints: Vec<Endpoint>,
    pub protocols: Vec<P>,
    pub rngs: Vec<StdRng>,
}

impl<P> Nodes<P> {
    /// Compiles `source` (a graph, or a restartable edge stream — both
    /// through the same two counted passes, so both give bit-identical
    /// parts for the same instance) into a route table split over
    /// `shards` node ranges, assigns IDs, and creates each node's
    /// protocol via `factory`, in node order.
    ///
    /// # Panics
    ///
    /// Panics on hashed ID collision (probability ≈ n²/2⁶⁴; retry with
    /// another seed), if the topology exceeds the plane's `u32` port
    /// space, or if a stream violates the `EdgeStream` contract (sorted,
    /// unique, replayable).
    pub(crate) fn build<F>(
        source: Source<'_>,
        seed: u64,
        ids: IdAssignment,
        shards: usize,
        mut factory: F,
    ) -> Self
    where
        F: FnMut(&Endpoint) -> P,
    {
        let topo = match source {
            Source::Graph(graph) => Topology::from_graph(graph, shards),
            Source::Stream(stream) => Topology::from_edge_stream(stream, shards),
        };
        let n = topo.node_count();
        let ids = assign_ids(ids, seed, n);

        // One allocation holds all 2m neighbor ids; the route table
        // already lists each slot's destination node in CSR order. A map
        // over a slice has an exact length, so the ids are collected
        // straight into the arena, with no `Vec` to copy them from.
        let arena: Arc<[u64]> = topo.route.iter().map(|r| ids[r.dest_node as usize]).collect();

        let mut endpoints = Vec::with_capacity(n);
        let mut protocols = Vec::with_capacity(n);
        let mut rngs = Vec::with_capacity(n);
        for (u, &id) in ids.iter().enumerate() {
            let endpoint =
                Endpoint::from_arena(u, id, arena.clone(), topo.offsets[u], topo.offsets[u + 1]);
            protocols.push(factory(&endpoint));
            endpoints.push(endpoint);
            rngs.push(node_rng(seed, u));
        }
        Self { topo, endpoints, protocols, rngs }
    }
}

impl<P: Protocol> Network<P> {
    /// The flat engine over `nodes` (compiled for `s_count ≥ 1` node
    /// ranges), one OS thread per shard.
    pub(crate) fn new(nodes: Nodes<P>, mode: Mode, s_count: usize) -> Self {
        let Nodes { topo, endpoints, protocols, rngs } = nodes;
        let n = endpoints.len();
        let chunk = n.div_ceil(s_count).max(1);
        let shards = (0..s_count)
            .map(|t| {
                let lo = (t * chunk).min(n);
                let hi = ((t + 1) * chunk).min(n);
                Shard::new(lo, hi, topo.offsets[lo], topo.offsets[hi])
            })
            .collect();
        let transfer =
            (0..s_count * s_count).map(|_| TransferCell(Mutex::new(Vec::new()))).collect();
        Network {
            mode,
            endpoints,
            protocols,
            rngs,
            shards,
            transfer,
            topo,
            chunk,
            metrics: Metrics::default(),
            round: 0,
            initialized: false,
            max_queued: 0,
            rec: None,
            metrics_mode: MetricsMode::Full,
        }
    }

    /// Installs the session's observability configuration: an optional
    /// trace sink (preallocated here, once) and the metrics mode. Must
    /// be called before the first round.
    pub(crate) fn configure_obs(&mut self, trace: Option<TraceConfig>, mode: MetricsMode) {
        self.rec = trace.map(|cfg| Box::new(TraceSink::new(cfg, self.endpoints.len() as u32)));
        self.metrics_mode = mode;
    }

    /// The installed trace sink, if tracing is enabled.
    pub(crate) fn trace_sink(&self) -> Option<&TraceSink> {
        self.rec.as_deref()
    }

    /// Flushes the sink's trailing window, folds in the plane's queue
    /// high-water mark, and returns the run's profile — `None` when
    /// tracing is off. The synchronous engine has no event wheel, so
    /// its wheel mark is 0.
    fn snapshot_profile(&mut self) -> Option<RunProfile> {
        let queue_hw = self.max_queued;
        self.rec.as_deref_mut().map(|sink| sink.finish(0, queue_hw))
    }

    /// Raises the queue high-water mark to what the shards hold now.
    /// Called after the init sweep, each barrier sweep and each round's
    /// steps: queues grow only there and shrink during delivery, so the
    /// mark is exact, and the same for any shard count.
    fn note_queue_depth(&mut self) {
        self.max_queued = self.max_queued.max(self.queued_messages());
    }

    fn shard_of(&self, v: usize) -> usize {
        debug_assert!(self.chunk > 0);
        v / self.chunk
    }

    /// Runs `f` on node `v`'s protocol with a context wired into the flat
    /// plane (used for the sequential init / quiescence hooks).
    fn with_node_ctx<R>(
        &mut self,
        v: usize,
        round: Round,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>) -> R,
    ) -> R {
        let t = self.shard_of(v);
        let shard = &mut self.shards[t];
        let base = self.topo.offsets[v] - shard.port_lo;
        let outbox = OutboxHandle::Flat(shard.outgoing.node(v - shard.node_lo, base));
        let mut ctx = Context::new(&self.endpoints[v], round, outbox, &mut self.rngs[v]);
        f(&mut self.protocols[v], &mut ctx)
    }

    fn all_outboxes_empty(&self) -> bool {
        self.queued_messages() == 0
    }

    fn is_quiescent(&self) -> bool {
        self.all_outboxes_empty() && self.protocols.iter().all(Protocol::is_idle)
    }

    /// Executes one round and returns the messages and bits it
    /// delivered.
    fn execute_round(&mut self) -> (u64, u64) {
        self.round += 1;
        match self.metrics_mode {
            MetricsMode::Full => self.metrics.begin_round(),
            MetricsMode::Streaming => self.metrics.begin_round_bounded(),
        }

        let s_count = self.shards.len();
        let congest = self.mode == Mode::Congest;
        let round = self.round;
        let topo = &self.topo;
        let transfer = &self.transfer;

        if s_count == 1 {
            // Single shard: deliver straight from the queues into the
            // bucket store (no transfer buffers), then step.
            let shard = &mut self.shards[0];
            shard.deliver_direct(topo, congest);
            let nodes = NodeSlices {
                endpoints: &self.endpoints,
                protocols: &mut self.protocols,
                rngs: &mut self.rngs,
            };
            step_shard(shard, nodes, topo, round);
        } else {
            let barrier = Barrier::new(s_count);
            let barrier = &barrier;
            std::thread::scope(|scope| {
                let mut ep_rest = &self.endpoints[..];
                let mut pr_rest = &mut self.protocols[..];
                let mut rng_rest = &mut self.rngs[..];
                for (t, shard) in self.shards.iter_mut().enumerate() {
                    let take = shard.node_hi - shard.node_lo;
                    let (endpoints, er) = ep_rest.split_at(take);
                    ep_rest = er;
                    let (protocols, pr) = pr_rest.split_at_mut(take);
                    pr_rest = pr;
                    let (rngs, rr) = rng_rest.split_at_mut(take);
                    rng_rest = rr;
                    let nodes = NodeSlices { endpoints, protocols, rngs };
                    scope.spawn(move || {
                        // Phase A fills row `t`, phase B empties column `t`.
                        shard.drain_active(topo, congest, &transfer[t * s_count..][..s_count]);
                        barrier.wait();
                        shard.bucket_incoming(transfer[t..].iter().step_by(s_count));
                        step_shard(shard, nodes, topo, round);
                    });
                }
            });
        }

        // Deterministic merge: commutative aggregates folded in shard
        // order (the order itself is immaterial to the totals).
        let before = (self.metrics.messages, self.metrics.total_bits);
        for shard in &mut self.shards {
            let delta = std::mem::take(&mut shard.delta);
            self.metrics.absorb_delivery(delta.messages, delta.bits, delta.max_bits);
        }
        (self.metrics.messages - before.0, self.metrics.total_bits - before.1)
    }

    /// Number of queue shards (the configured thread count).
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl<P: Protocol> Driver for Network<P> {
    type P = P;

    /// Runs until quiescence or the round limit; resumable after a
    /// `RoundLimit` stop. `obs` sees each granted barrier, from the
    /// control thread.
    fn drive(&mut self, limits: RunLimits, obs: &mut dyn Observer) -> RunReport {
        if !self.initialized {
            self.initialized = true;
            for v in 0..self.endpoints.len() {
                self.with_node_ctx(v, 0, |p, ctx| p.init(ctx));
            }
            self.note_queue_depth();
        }

        let mut executed: u64 = 0;
        let termination = loop {
            if self.is_quiescent() {
                // Offer the barrier; count it only if someone resumes.
                let mut resumed = false;
                let round = self.round;
                for v in 0..self.endpoints.len() {
                    resumed |= self.with_node_ctx(v, round, |p, ctx| p.on_quiescent(ctx));
                }
                self.note_queue_depth();
                if !resumed && self.all_outboxes_empty() {
                    break Termination::Quiescent;
                }
                self.metrics.barriers += 1;
                obs.on_barrier(round);
                continue;
            }
            if executed >= limits.max_rounds {
                break Termination::RoundLimit;
            }
            let (messages, bits) = self.execute_round();
            self.note_queue_depth();
            executed += 1;
            emit(
                &mut self.rec,
                self.round,
                TraceEvent::Round { round: self.round, messages, bits },
            );
        };

        RunReport {
            termination,
            rounds: self.metrics.rounds,
            metrics: self.metrics.clone(),
            overhead: SyncOverhead::default(),
            profile: self.snapshot_profile(),
        }
    }

    fn node_count(&self) -> usize {
        self.endpoints.len()
    }

    fn endpoint(&self, index: usize) -> &Endpoint {
        &self.endpoints[index]
    }

    fn protocol(&self, index: usize) -> &P {
        &self.protocols[index]
    }

    /// O(threads).
    fn queued_messages(&self) -> u64 {
        self.shards.iter().map(Shard::queued).sum()
    }

    /// The per-round metrics history is the only structure that grows
    /// with round count, so reserving it makes a bounded run's steady
    /// state allocation-free.
    fn reserve_rounds(&mut self, rounds: usize) {
        self.metrics.reserve_rounds(rounds);
    }
}

/// Steps every node of `shard` on its bucket slice. The outgoing queues
/// and records and the bucket store are disjoint shard fields, so the
/// inbox slices stay borrowed while each context sends.
fn step_shard<P: Protocol>(
    shard: &mut Shard<P::Msg>,
    nodes: NodeSlices<'_, P>,
    topo: &Topology,
    round: Round,
) {
    let node_lo = shard.node_lo;
    let port_lo = shard.port_lo;
    let outgoing = &mut shard.outgoing;
    let bucket = shard.bucket.entries();
    let starts = &shard.starts;
    for (i, protocol) in nodes.protocols.iter_mut().enumerate() {
        let base = topo.offsets[node_lo + i] - port_lo;
        let inbox = &bucket[starts[i] as usize..starts[i + 1] as usize];
        let outbox = OutboxHandle::Flat(outgoing.node(i, base));
        let mut ctx = Context::new(&nodes.endpoints[i], round, outbox, &mut nodes.rngs[i]);
        protocol.step(&mut ctx, inbox);
    }
}

impl<P: Protocol> std::fmt::Debug for Network<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.endpoints.len())
            .field("mode", &self.mode)
            .field("round", &self.round)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{bits_for_count, Message};
    use crate::protocol::Port;
    use crate::session::{Engine, Session};
    use graphs::GraphBuilder;

    /// Flooding: the source announces; every node records the round it
    /// first heard the rumor (= BFS distance) and forwards once.
    #[derive(Debug)]
    struct Flood {
        is_source: bool,
        heard_at: Option<u64>,
        forwarded: bool,
    }

    #[derive(Clone, Debug)]
    struct Rumor;

    impl Message for Rumor {
        fn bit_size(&self) -> usize {
            1
        }
    }

    impl Protocol for Flood {
        type Msg = Rumor;
        type Output = Option<u64>;

        fn init(&mut self, ctx: &mut Context<'_, Rumor>) {
            if self.is_source {
                self.heard_at = Some(0);
                self.forwarded = true;
                ctx.broadcast(Rumor);
            }
        }

        fn step(&mut self, ctx: &mut Context<'_, Rumor>, inbox: &[(Port, Rumor)]) {
            if !inbox.is_empty() && self.heard_at.is_none() {
                self.heard_at = Some(ctx.round());
                if !self.forwarded {
                    self.forwarded = true;
                    ctx.broadcast(Rumor);
                }
            }
        }

        fn is_idle(&self) -> bool {
            true // no pending local work beyond queued messages
        }

        fn output(&self) -> Option<u64> {
            self.heard_at
        }
    }

    fn path_graph(n: usize) -> graphs::Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1);
        }
        b.build()
    }

    #[test]
    fn flood_computes_bfs_distances() {
        let g = path_graph(6);
        let mut net = Session::on(&g).seed(1).build_with(|e| Flood {
            is_source: e.index == 0,
            heard_at: None,
            forwarded: false,
        });
        let report = net.drive(RunLimits::default(), &mut ());
        assert_eq!(report.termination, Termination::Quiescent);
        let outputs = net.outputs();
        for (v, d) in outputs.iter().enumerate() {
            assert_eq!(*d, Some(v as u64), "node {v}");
        }
        // 5 edges, rumor crosses each once in each direction except
        // backwards re-broadcasts: source broadcasts 1, each interior
        // forwards to both sides.
        assert!(report.metrics.messages >= 5);
        assert_eq!(report.metrics.max_message_bits, 1);
    }

    /// A protocol that enqueues `k` messages at once to one neighbor;
    /// CONGEST must deliver them over `k` rounds, LOCAL in one.
    #[derive(Debug)]
    struct Burst {
        k: usize,
        sender: bool,
        received_rounds: Vec<u64>,
    }

    #[derive(Clone, Debug)]
    struct Numbered(usize);

    impl Message for Numbered {
        fn bit_size(&self) -> usize {
            bits_for_count(1 << 20)
        }
    }

    impl Protocol for Burst {
        type Msg = Numbered;
        type Output = Vec<u64>;

        fn init(&mut self, ctx: &mut Context<'_, Numbered>) {
            if self.sender {
                for i in 0..self.k {
                    ctx.send(0, Numbered(i));
                }
            }
        }

        fn step(&mut self, ctx: &mut Context<'_, Numbered>, inbox: &[(Port, Numbered)]) {
            for _ in inbox {
                self.received_rounds.push(ctx.round());
            }
        }

        fn is_idle(&self) -> bool {
            true
        }

        fn output(&self) -> Vec<u64> {
            self.received_rounds.clone()
        }
    }

    #[test]
    fn congest_pipelines_one_per_round() {
        let g = path_graph(2);
        let mut net = Session::on(&g).mode(Mode::Congest).build_with(|e| Burst {
            k: 5,
            sender: e.index == 0,
            received_rounds: Vec::new(),
        });
        net.drive(RunLimits::default(), &mut ());
        let rounds = &net.outputs()[1];
        assert_eq!(rounds, &vec![1, 2, 3, 4, 5], "one message per round");
    }

    #[test]
    fn local_delivers_whole_queue_at_once() {
        let g = path_graph(2);
        let mut net = Session::on(&g).mode(Mode::Local).build_with(|e| Burst {
            k: 5,
            sender: e.index == 0,
            received_rounds: Vec::new(),
        });
        net.drive(RunLimits::default(), &mut ());
        let rounds = &net.outputs()[1];
        assert_eq!(rounds, &vec![1, 1, 1, 1, 1], "all in round 1");
    }

    #[test]
    fn round_limit_aborts() {
        let g = path_graph(10);
        let mut net = Session::on(&g).build_with(|e| Flood {
            is_source: e.index == 0,
            heard_at: None,
            forwarded: false,
        });
        let report = net.drive(RunLimits::rounds(3), &mut ());
        assert_eq!(report.termination, Termination::RoundLimit);
        assert_eq!(report.metrics.rounds, 3);
        // Distance-9 node has not heard yet.
        assert_eq!(net.outputs()[9], None);
        // Resume with more budget; completes.
        let report2 = net.drive(RunLimits::default(), &mut ());
        assert_eq!(report2.termination, Termination::Quiescent);
        assert_eq!(net.outputs()[9], Some(9));
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut b = GraphBuilder::new(40);
        for i in 0..39 {
            b.add_edge(i, i + 1);
        }
        b.add_edge(0, 39).add_edge(5, 30).add_edge(10, 20);
        let g = b.build();
        let build = |threads: usize| {
            let mut net =
                Session::on(&g).seed(9).engine(Engine::Flat { shards: threads }).build_with(|e| {
                    Flood { is_source: e.index == 7, heard_at: None, forwarded: false }
                });
            net.drive(RunLimits::default(), &mut ());
            net.outputs()
        };
        assert_eq!(build(1), build(4));

        // More shards than nodes: the threaded path with empty shards,
        // against one shard, outputs and full metrics.
        fn run<P: Protocol>(
            g: &graphs::Graph,
            mode: Mode,
            shards: usize,
            factory: impl FnMut(&Endpoint) -> P,
        ) -> (Vec<P::Output>, Metrics) {
            let mut net = Session::on(g)
                .seed(9)
                .mode(mode)
                .engine(Engine::Flat { shards })
                .build_with(factory);
            let report = net.drive(RunLimits::default(), &mut ());
            (net.outputs(), report.metrics)
        }
        let path = path_graph(3);
        let flood =
            |e: &Endpoint| Flood { is_source: e.index == 1, heard_at: None, forwarded: false };
        let burst =
            |e: &Endpoint| Burst { k: 3, sender: e.index != 1, received_rounds: Vec::new() };
        for mode in [Mode::Congest, Mode::Local] {
            let (flood_one, burst_one) = (run(&path, mode, 1, flood), run(&path, mode, 1, burst));
            for shards in 2..=6 {
                assert_eq!(run(&path, mode, shards, flood), flood_one, "{mode:?}, {shards} shards");
                assert_eq!(run(&path, mode, shards, burst), burst_one, "{mode:?}, {shards} shards");
            }
        }
    }

    #[test]
    fn stream_build_matches_graph_build() {
        use graphs::generators::VecEdgeStream;
        let g = path_graph(8);
        let factory =
            |e: &Endpoint| Flood { is_source: e.index == 2, heard_at: None, forwarded: false };
        let shards = Engine::Flat { shards: 2 };
        let mut from_graph = Session::on(&g).seed(5).engine(shards).build_with(factory);
        let mut stream = VecEdgeStream::from_graph(&g);
        let mut from_stream =
            Session::on_stream(&mut stream).seed(5).engine(shards).build_with(factory);
        for v in 0..8 {
            assert_eq!(from_graph.endpoint(v).id, from_stream.endpoint(v).id);
            assert_eq!(
                from_graph.endpoint(v).neighbor_ids(),
                from_stream.endpoint(v).neighbor_ids()
            );
        }
        let a = from_graph.drive(RunLimits::default(), &mut ());
        let b = from_stream.drive(RunLimits::default(), &mut ());
        assert_eq!(from_graph.outputs(), from_stream.outputs());
        assert_eq!(a.metrics.messages, b.metrics.messages);
        assert_eq!(a.metrics.total_bits, b.metrics.total_bits);
    }

    #[test]
    fn hashed_ids_are_distinct_and_stable() {
        let g = path_graph(50);
        let net = Session::on(&g).seed(3).build_with(|e| Flood {
            is_source: e.index == 0,
            heard_at: None,
            forwarded: false,
        });
        let mut ids: Vec<u64> = (0..50).map(|v| net.endpoint(v).id).collect();
        let net2 = Session::on(&g).seed(3).build_with(|e| Flood {
            is_source: e.index == 0,
            heard_at: None,
            forwarded: false,
        });
        let ids2: Vec<u64> = (0..50).map(|v| net2.endpoint(v).id).collect();
        assert_eq!(ids, ids2, "same seed, same ids");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50, "ids distinct");
    }

    #[test]
    fn sequential_ids_are_indices() {
        let g = path_graph(4);
        let net = Session::on(&g).ids(IdAssignment::Sequential).build_with(|e| Flood {
            is_source: e.index == 0,
            heard_at: None,
            forwarded: false,
        });
        for v in 0..4 {
            assert_eq!(net.endpoint(v).id, v as u64);
        }
        // Neighbor IDs visible per the KT1 knowledge model.
        assert_eq!(net.endpoint(1).neighbor_ids(), &[0, 2][..]);
    }

    #[test]
    fn metrics_count_bits() {
        let g = path_graph(2);
        let mut net = Session::on(&g).build_with(|e| Burst {
            k: 3,
            sender: e.index == 0,
            received_rounds: Vec::new(),
        });
        let report = net.drive(RunLimits::default(), &mut ());
        assert_eq!(report.metrics.messages, 3);
        assert_eq!(report.metrics.total_bits, 3 * 21);
        assert_eq!(report.metrics.max_message_bits, 21);
    }

    /// Quiescence barrier: a two-phase protocol that sends one wave, waits
    /// for global quiescence, then sends a second wave.
    #[derive(Debug)]
    struct TwoPhase {
        phase: u8,
        heard: Vec<u64>,
    }

    impl Protocol for TwoPhase {
        type Msg = Numbered;
        type Output = Vec<u64>;

        fn init(&mut self, ctx: &mut Context<'_, Numbered>) {
            ctx.broadcast(Numbered(0));
        }

        fn step(&mut self, ctx: &mut Context<'_, Numbered>, inbox: &[(Port, Numbered)]) {
            for (_, m) in inbox {
                self.heard.push(m.0 as u64 * 1000 + ctx.round());
            }
        }

        fn is_idle(&self) -> bool {
            true
        }

        fn on_quiescent(&mut self, ctx: &mut Context<'_, Numbered>) -> bool {
            if self.phase == 0 {
                self.phase = 1;
                ctx.broadcast(Numbered(1));
                true
            } else {
                false
            }
        }

        fn output(&self) -> Vec<u64> {
            self.heard.clone()
        }
    }

    #[test]
    fn quiescence_barrier_advances_phases() {
        let g = path_graph(3);
        let mut net = Session::on(&g).build_with(|_| TwoPhase { phase: 0, heard: Vec::new() });
        let report = net.drive(RunLimits::default(), &mut ());
        assert_eq!(report.termination, Termination::Quiescent);
        assert_eq!(report.metrics.barriers, 1);
        // Node 1 heard phase-0 messages from both sides in round 1 and
        // phase-1 messages in round 2.
        let heard = &net.outputs()[1];
        assert_eq!(heard, &vec![1, 1, 1002, 1002]);
    }
}
