//! The per-node protocol interface.
//!
//! A distributed algorithm is a [`Protocol`]: a state machine instantiated
//! once per node. The simulator calls [`Protocol::init`] before round 1 and
//! [`Protocol::step`] every round with the messages delivered that round;
//! the node reacts by enqueueing messages through its [`Context`].
//!
//! # Knowledge model
//!
//! Following the standard CONGEST formalization (Peleg \[20\]) a node knows:
//! its own unique identifier, its degree (it addresses neighbors by *port*
//! `0..degree`), the identifiers of its neighbors (the `KT1` variant — the
//! paper's algorithm assumes this implicitly, e.g. when a node checks which
//! of its neighbors belong to `K_{2ε²}(X)` in step 4f), and global
//! parameters passed at construction (ε, p — these are inputs of the
//! algorithm). A node does *not* see `n`, the topology, or any other
//! node's state.
//!
//! # Pipelining and the one-message-per-edge rule
//!
//! [`Context::send`] *enqueues*; the network drains **at most one message
//! per directed edge per round** in CONGEST mode. A protocol may enqueue a
//! long train of messages in one step — exactly the "pipelining" the
//! paper's Lemma 5.1 accounting uses — and they will be delivered over
//! consecutive rounds.

use std::collections::VecDeque;

use rand::rngs::StdRng;

use crate::message::Message;
use crate::plane::NodeOut;

/// A port: the local index of one incident edge (`0..degree`).
pub type Port = usize;

/// A round number (1-based once execution starts; `init` happens at 0).
pub type Round = u64;

/// Immutable per-node facts available to the protocol.
///
/// Neighbor identifiers live in a shared arena: the flat engine builds
/// **one** allocation holding all `2m` neighbor ids and hands every
/// endpoint a `(lo, hi)` window into it, so per-node footprint is a
/// fixed-size header rather than `n` separate heap vectors. Standalone
/// endpoints (tests, the event-driven and legacy engines) get a
/// degenerate single-node arena via [`Endpoint::new`].
#[derive(Clone, Debug)]
pub struct Endpoint {
    /// Dense node index in the underlying graph. Exposed for the harness
    /// and for output collection; protocols must treat it as opaque.
    pub index: usize,
    /// The node's unique identifier (the `O(log n)`-bit ID of the model).
    pub id: u64,
    /// Neighbor-id arena shared with the other endpoints of the engine.
    arena: std::sync::Arc<[u64]>,
    /// This node's window within the arena: ports `0..degree` map to
    /// `arena[lo..hi]`.
    lo: u32,
    hi: u32,
}

impl Endpoint {
    /// Builds a standalone endpoint owning its own neighbor-id storage.
    ///
    /// # Panics
    ///
    /// Panics if the degree exceeds `u32::MAX` (beyond the engines' port
    /// space anyway).
    #[must_use]
    pub fn new(index: usize, id: u64, neighbor_ids: Vec<u64>) -> Self {
        let hi = u32::try_from(neighbor_ids.len()).expect("degree exceeds u32 port space");
        Self { index, id, arena: neighbor_ids.into(), lo: 0, hi }
    }

    /// Builds an endpoint viewing `arena[lo..hi]` — the flat engine's
    /// shared-allocation path.
    pub(crate) fn from_arena(
        index: usize,
        id: u64,
        arena: std::sync::Arc<[u64]>,
        lo: u32,
        hi: u32,
    ) -> Self {
        debug_assert!(lo <= hi && (hi as usize) <= arena.len());
        Self { index, id, arena, lo, hi }
    }

    /// Identifier of the neighbor across each port, indexed by port.
    #[must_use]
    pub fn neighbor_ids(&self) -> &[u64] {
        &self.arena[self.lo as usize..self.hi as usize]
    }

    /// Degree of the node.
    #[must_use]
    pub fn degree(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// The port leading to the neighbor with identifier `id`, if any.
    #[must_use]
    pub fn port_of(&self, id: u64) -> Option<Port> {
        self.neighbor_ids().iter().position(|&x| x == id)
    }
}

/// Outgoing per-port FIFO queues, node-owned. Only the frozen reference
/// engine (`LegacyNetwork`, behind the `legacy-engine` feature) still
/// routes through this type.
///
/// Neither production engine uses it: the synchronous flat engine and
/// the asynchronous executor both keep their queues in the flat plane's
/// engine-owned slabs (see `crate::plane`) so that steady-state rounds
/// perform no allocation.
///
/// Tracks its non-empty ports (sorted) so a delivery sweep costs
/// `O(active ports)` per round instead of `O(degree)`, and maintains a
/// running length so [`Outbox::queued`] — and with it quiescence checks —
/// is O(1) rather than an O(degree) recount.
#[derive(Clone, Debug)]
pub(crate) struct Outbox<M> {
    queues: Vec<VecDeque<M>>,
    nonempty: Vec<Port>,
    len: usize,
}

// Without the `legacy-engine` feature no engine constructs an `Outbox`;
// it stays compiled (and unit-tested) as the fixture's queue type.
#[cfg_attr(not(feature = "legacy-engine"), allow(dead_code))]
impl<M> Outbox<M> {
    pub(crate) fn new(degree: usize) -> Self {
        Self {
            queues: (0..degree).map(|_| VecDeque::new()).collect(),
            nonempty: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, port: Port, msg: M) {
        if self.queues[port].is_empty() {
            let idx = self.nonempty.partition_point(|&p| p < port);
            self.nonempty.insert(idx, port);
        }
        self.queues[port].push_back(msg);
        self.len += 1;
    }

    pub(crate) fn pop(&mut self, port: Port) -> Option<M> {
        let msg = self.queues[port].pop_front();
        if msg.is_some() {
            self.len -= 1;
            if self.queues[port].is_empty() {
                if let Ok(idx) = self.nonempty.binary_search(&port) {
                    self.nonempty.remove(idx);
                }
            }
        }
        msg
    }

    /// Sorted list of ports with queued messages.
    pub(crate) fn nonempty_ports(&self) -> &[Port] {
        &self.nonempty
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.nonempty.is_empty()
    }

    /// Total queued messages. O(1): maintained on push/pop.
    pub(crate) fn queued(&self) -> usize {
        self.len
    }
}

/// Where a [`Context`] routes outgoing messages: a node-owned [`Outbox`]
/// (the legacy reference engine, tests) or a node's window into the flat
/// plane (the zero-allocation plane shared by the synchronous and
/// asynchronous engines).
#[derive(Debug)]
pub(crate) enum OutboxHandle<'a, M> {
    /// A node-owned queue set (the legacy fixture and tests).
    #[cfg_attr(not(feature = "legacy-engine"), allow(dead_code))]
    Owned(&'a mut Outbox<M>),
    /// The node's ports within a flat queue set and its broadcast record
    /// slot.
    Flat(NodeOut<'a, M>),
}

impl<M: Message> OutboxHandle<'_, M> {
    /// Enqueues `msg` on `port` of a node with `degree` ports.
    #[inline]
    fn push(&mut self, degree: usize, port: Port, msg: M) {
        match self {
            OutboxHandle::Owned(outbox) => outbox.push(port, msg),
            OutboxHandle::Flat(out) => out.send(degree, port, msg),
        }
    }

    /// Enqueues a copy of `msg` on each of a node's `degree` ports.
    fn broadcast(&mut self, degree: usize, msg: M) {
        match self {
            OutboxHandle::Owned(outbox) => {
                for port in 0..degree {
                    outbox.push(port, msg.clone());
                }
            }
            OutboxHandle::Flat(out) => out.broadcast(degree, msg),
        }
    }
}

/// The per-round execution context handed to a protocol.
///
/// Borrow-wise this bundles the node's endpoint facts, its outbox and its
/// private RNG stream for the duration of one `init`/`step` call.
#[derive(Debug)]
pub struct Context<'a, M> {
    endpoint: &'a Endpoint,
    round: Round,
    outbox: OutboxHandle<'a, M>,
    rng: &'a mut StdRng,
}

impl<'a, M> Context<'a, M> {
    /// The one way an engine hands a node its context: endpoint facts,
    /// the current round (pulse), where its sends land, and its RNG.
    #[inline]
    pub(crate) fn new(
        endpoint: &'a Endpoint,
        round: Round,
        outbox: OutboxHandle<'a, M>,
        rng: &'a mut StdRng,
    ) -> Self {
        Self { endpoint, round, outbox, rng }
    }
}

impl<M: Message> Context<'_, M> {
    /// This node's identifier.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.endpoint.id
    }

    /// This node's degree.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.endpoint.degree()
    }

    /// The current round (0 during `init`).
    #[must_use]
    pub fn round(&self) -> Round {
        self.round
    }

    /// Identifier of the neighbor across `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree`.
    #[must_use]
    pub fn neighbor_id(&self, port: Port) -> u64 {
        self.endpoint.neighbor_ids()[port]
    }

    /// Identifier of the neighbor across each port, indexed by port.
    #[must_use]
    pub fn neighbor_ids(&self) -> &[u64] {
        self.endpoint.neighbor_ids()
    }

    /// The port leading to neighbor `id`, if `id` is a neighbor.
    #[must_use]
    pub fn port_of(&self, id: u64) -> Option<Port> {
        self.endpoint.port_of(id)
    }

    /// Enqueues `msg` for the neighbor across `port`. Delivery obeys the
    /// CONGEST one-message-per-edge-per-round rule; queued messages are
    /// pipelined over subsequent rounds.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree`.
    pub fn send(&mut self, port: Port, msg: M) {
        let degree = self.degree();
        assert!(port < degree, "send to port {port} but degree is {degree}");
        self.outbox.push(degree, port, msg);
    }

    /// Enqueues a copy of `msg` for every neighbor: the same as
    /// [`Context::send`] on each port in turn, in what it delivers and
    /// meters.
    ///
    /// On [`Engine::Flat`](crate::Engine::Flat) and
    /// [`Engine::Async`](crate::Engine::Async) it usually costs one
    /// message: when none of this node's ports holds a message, `msg` is
    /// stored once, as the node's broadcast record. The flat engine's
    /// delivery expands it over the node's ports. The asynchronous
    /// engine sends it at the node's next pulse as delay runs, one wheel
    /// event per distinct link delay its copies drew, each run handing
    /// its receivers a copy in port order; the delays, arrival times and
    /// metering are those of per-port sends. It falls back to one copy
    /// per port when a port still holds a message (a CONGEST train) or a
    /// record is already pending.
    /// A `send` or `broadcast` after a record, before it is expanded,
    /// first writes the record out as copies, so every port's FIFO order
    /// is unchanged. The legacy engine queues one copy per port.
    pub fn broadcast(&mut self, msg: M) {
        let degree = self.degree();
        self.outbox.broadcast(degree, msg);
    }

    /// This node's private RNG stream (deterministic per master seed and
    /// node; identical under sequential and parallel execution).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// A distributed algorithm, instantiated once per node.
pub trait Protocol: Send {
    /// The message alphabet.
    type Msg: Message;
    /// The value each node exposes when the run ends.
    type Output;

    /// Called once before the first round. Typical use: local coin flips
    /// (the paper's sampling stage) and first-round sends.
    fn init(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called every round with the messages delivered this round, as
    /// `(port, message)` pairs ordered by port.
    fn step(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: &[(Port, Self::Msg)]);

    /// `true` when the node has no pending local work. The network
    /// declares a run *quiescent* when every node is idle and no message
    /// is queued or in flight.
    fn is_idle(&self) -> bool;

    /// Barrier hook: called on every node when the network reaches
    /// quiescence. Return `true` to resume execution (the node advanced to
    /// another phase), `false` to finish.
    ///
    /// This is the simulator's stand-in for the paper's §4.1 deterministic
    /// time-bound wrapper: in a real network each phase would run for a
    /// precomputed number of rounds; detecting "no more messages" lets the
    /// simulation take phase transitions without simulating the padding
    /// rounds. Metrics still count every *executed* round. Protocols whose
    /// phases self-synchronize can keep the default (`false`).
    fn on_quiescent(&mut self, ctx: &mut Context<'_, Self::Msg>) -> bool {
        let _ = ctx;
        false
    }

    /// Churn hook: the neighbor behind local `port` crashed (see
    /// [`FaultModel::Crash`](crate::FaultModel::Crash)). Until the
    /// matching [`Protocol::on_peer_up`], nothing sent on `port` will be
    /// delivered and nothing will arrive from it. Called at this node's
    /// current round; messages sent from the hook queue normally.
    /// Default: no reaction.
    fn on_peer_down(&mut self, ctx: &mut Context<'_, Self::Msg>, port: Port) {
        let _ = (ctx, port);
    }

    /// Churn hook: the crashed neighbor behind local `port` recovered —
    /// with empty queues and whatever protocol state it had at the
    /// crash. Default: no reaction.
    fn on_peer_up(&mut self, ctx: &mut Context<'_, Self::Msg>, port: Port) {
        let _ = (ctx, port);
    }

    /// Membership handoff hook: the neighbor behind local `port` joined
    /// the member set (see [`ChurnModel`](crate::ChurnModel)), opening a
    /// new epoch. The joiner's own protocol was initialized at its
    /// joining pulse; from now on, payloads sent on `port` are
    /// delivered. Called at this node's current pulse; messages sent
    /// from the hook queue normally. Default: no reaction.
    fn on_join(&mut self, ctx: &mut Context<'_, Self::Msg>, port: Port) {
        let _ = (ctx, port);
    }

    /// Membership handoff hook: the neighbor behind local `port` left
    /// the member set gracefully, opening a new epoch. Its queued and
    /// in-flight payloads are retired (each counted in
    /// [`SyncOverhead::retired_messages`](crate::SyncOverhead) and, in a
    /// traced run, recorded as
    /// [`TraceEvent::Retired`](crate::TraceEvent::Retired)); nothing
    /// sent on `port` will be delivered anymore. Called at this node's
    /// current pulse. Default: no reaction.
    fn on_leave(&mut self, ctx: &mut Context<'_, Self::Msg>, port: Port) {
        let _ = (ctx, port);
    }

    /// The node's final output.
    fn output(&self) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Ping;
    use crate::rng::node_rng;

    fn endpoint() -> Endpoint {
        Endpoint::new(0, 42, vec![7, 9, 11])
    }

    #[test]
    fn endpoint_lookup() {
        let e = endpoint();
        assert_eq!(e.degree(), 3);
        assert_eq!(e.port_of(9), Some(1));
        assert_eq!(e.port_of(8), None);
    }

    #[test]
    fn outbox_fifo_per_port() {
        let mut o: Outbox<Ping> = Outbox::new(2);
        assert!(o.is_empty());
        o.push(0, Ping);
        o.push(0, Ping);
        o.push(1, Ping);
        assert_eq!(o.queued(), 3);
        assert!(o.pop(0).is_some());
        assert!(o.pop(1).is_some());
        assert!(o.pop(1).is_none());
        assert_eq!(o.queued(), 1);
    }

    #[test]
    fn context_send_and_broadcast() {
        let e = endpoint();
        let mut outbox = Outbox::new(e.degree());
        let mut rng = node_rng(1, 0);
        let mut ctx = Context::new(&e, 3, OutboxHandle::Owned(&mut outbox), &mut rng);
        assert_eq!(ctx.id(), 42);
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.neighbor_id(2), 11);
        ctx.send(1, Ping);
        ctx.broadcast(Ping);
        assert_eq!(outbox.queued(), 4);
    }

    #[test]
    #[should_panic(expected = "send to port")]
    fn send_out_of_range_panics() {
        let e = endpoint();
        let mut outbox = Outbox::new(e.degree());
        let mut rng = node_rng(1, 0);
        let mut ctx = Context::new(&e, 0, OutboxHandle::Owned(&mut outbox), &mut rng);
        ctx.send(3, Ping);
    }
}
