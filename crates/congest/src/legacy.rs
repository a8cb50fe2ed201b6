//! The seed repository's original message plane, preserved verbatim in
//! behavior as a *reference engine*.
//!
//! [`LegacyNetwork`] keeps the original data layout — a pointer-chasing
//! `Vec<Vec<(usize, usize)>>` link table, one heap-allocated `VecDeque`
//! per port inside a node-owned [`Outbox`], and fresh `deliveries` /
//! `ports` vectors every round. It exists for two reasons:
//!
//! 1. **Equivalence**: `crates/core`'s `engine_equivalence` suite pins the
//!    flat plane (`Engine::Flat`) to this engine bit-for-bit — same
//!    labels, same metrics, same termination — on every workload family.
//! 2. **Benchmarking**: `crates/bench/benches/delivery_plane.rs` measures
//!    the old→new speedup against it (the `BENCH_protocol.json`
//!    before/after trail).
//!
//! It is sequential-only and not optimized — by design. Do not grow it.
//!
//! **Status: demoted to a test-only fixture.** This module compiles only
//! with congest's `legacy-engine` cargo feature (default-off), which the
//! equivalence suites in `crates/core/tests/` and the `delivery_plane`
//! bench enable through their dev-dependencies; without it,
//! [`Engine::Legacy`](crate::Engine::Legacy) panics with a pointer at
//! the flat plane. New capabilities land elsewhere: scheduling work
//! (delay models, phase plans, synchronizers) belongs in `crate::sched`
//! and `crate::asynch`, delivery work in the flat plane
//! (`crate::network`) — never here.

use graphs::Graph;
use rand::rngs::StdRng;

use crate::message::Message;
use crate::metrics::Metrics;
use crate::network::{assign_ids, IdAssignment, Mode};
use crate::protocol::{Context, Endpoint, Outbox, OutboxHandle, Port, Protocol, Round};
use crate::rng::node_rng;
use crate::session::{Driver, Observer, RunLimits, RunReport, SyncOverhead, Termination};

struct LegacySlot<P: Protocol> {
    endpoint: Endpoint,
    protocol: P,
    outbox: Outbox<P::Msg>,
    rng: StdRng,
    inbox: Vec<(Port, P::Msg)>,
}

impl<P: Protocol> LegacySlot<P> {
    fn with_ctx<R>(
        &mut self,
        round: Round,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>) -> R,
    ) -> R {
        let outbox = OutboxHandle::Owned(&mut self.outbox);
        let mut ctx = Context::new(&self.endpoint, round, outbox, &mut self.rng);
        f(&mut self.protocol, &mut ctx)
    }
}

/// The original (seed) synchronous engine. See the module docs.
pub(crate) struct LegacyNetwork<P: Protocol> {
    mode: Mode,
    nodes: Vec<LegacySlot<P>>,
    links: Vec<Vec<(usize, usize)>>,
    metrics: Metrics,
    round: Round,
    initialized: bool,
}

impl<P: Protocol> LegacyNetwork<P> {
    /// Builds the legacy engine over `graph` with the same ID assignment
    /// and RNG streams as the flat engine, so outputs are directly
    /// comparable.
    pub(crate) fn build_with<F>(
        graph: &Graph,
        mode: Mode,
        seed: u64,
        ids: IdAssignment,
        mut factory: F,
    ) -> Self
    where
        F: FnMut(&Endpoint) -> P,
    {
        let n = graph.node_count();
        let ids = assign_ids(ids, seed, n);

        // links[u][port] = (v, port of u on v's side)
        let mut links: Vec<Vec<(usize, usize)>> = Vec::with_capacity(n);
        for u in 0..n {
            links.push(
                graph
                    .neighbors(u)
                    .iter()
                    .map(|&v| {
                        let back = graph
                            .neighbors(v)
                            .binary_search(&u)
                            .expect("undirected graph must be symmetric");
                        (v, back)
                    })
                    .collect(),
            );
        }

        let nodes: Vec<LegacySlot<P>> = (0..n)
            .map(|u| {
                let endpoint =
                    Endpoint::new(u, ids[u], graph.neighbors(u).iter().map(|&v| ids[v]).collect());
                let protocol = factory(&endpoint);
                let outbox = Outbox::new(endpoint.degree());
                let rng = node_rng(seed, u);
                LegacySlot { endpoint, protocol, outbox, rng, inbox: Vec::new() }
            })
            .collect();

        Self { mode, nodes, links, metrics: Metrics::default(), round: 0, initialized: false }
    }

    fn all_outboxes_empty(&self) -> bool {
        self.nodes.iter().all(|s| s.outbox.is_empty())
    }

    fn is_quiescent(&self) -> bool {
        self.all_outboxes_empty() && self.nodes.iter().all(|s| s.protocol.is_idle())
    }

    fn execute_round(&mut self) {
        self.round += 1;
        self.metrics.begin_round();

        // Delivery phase: the seed's allocation profile, kept as-is —
        // fresh vectors every round, per-port snapshots, stable sort.
        let mut deliveries: Vec<(usize, Port, P::Msg)> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        for u in 0..self.nodes.len() {
            let ports: Vec<Port> = self.nodes[u].outbox.nonempty_ports().to_vec();
            for port in ports {
                let (v, back_port) = self.links[u][port];
                match self.mode {
                    Mode::Congest => {
                        if let Some(msg) = self.nodes[u].outbox.pop(port) {
                            self.metrics.record_message(msg.bit_size());
                            deliveries.push((v, back_port, msg));
                        }
                    }
                    Mode::Local => {
                        while let Some(msg) = self.nodes[u].outbox.pop(port) {
                            self.metrics.record_message(msg.bit_size());
                            deliveries.push((v, back_port, msg));
                        }
                    }
                }
            }
        }
        for (v, port, msg) in deliveries {
            if self.nodes[v].inbox.is_empty() {
                touched.push(v);
            }
            self.nodes[v].inbox.push((port, msg));
        }
        for v in touched {
            self.nodes[v].inbox.sort_by_key(|&(port, _)| port);
        }

        // Step phase (sequential; the legacy engine is a reference, not a
        // performance target).
        let round = self.round;
        for slot in &mut self.nodes {
            let inbox = std::mem::take(&mut slot.inbox);
            slot.with_ctx(round, |p, ctx| p.step(ctx, &inbox));
        }
    }
}

impl<P: Protocol> Driver for LegacyNetwork<P> {
    type P = P;

    /// Runs until quiescence or the round limit (the flat engine's
    /// semantics).
    fn drive(&mut self, limits: RunLimits, obs: &mut dyn Observer) -> RunReport {
        if !self.initialized {
            self.initialized = true;
            for slot in &mut self.nodes {
                slot.with_ctx(0, |p, ctx| p.init(ctx));
            }
        }

        let mut executed: u64 = 0;
        let termination = loop {
            if self.is_quiescent() {
                let mut resumed = false;
                for slot in &mut self.nodes {
                    resumed |= slot.with_ctx(self.round, |p, ctx| p.on_quiescent(ctx));
                }
                if !resumed && self.all_outboxes_empty() {
                    break Termination::Quiescent;
                }
                self.metrics.barriers += 1;
                obs.on_barrier(self.round);
                continue;
            }
            if executed >= limits.max_rounds {
                break Termination::RoundLimit;
            }
            self.execute_round();
            executed += 1;
        };

        RunReport {
            termination,
            rounds: self.metrics.rounds,
            metrics: self.metrics.clone(),
            overhead: SyncOverhead::default(),
            profile: None,
        }
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn endpoint(&self, index: usize) -> &Endpoint {
        &self.nodes[index].endpoint
    }

    fn protocol(&self, index: usize) -> &P {
        &self.nodes[index].protocol
    }

    /// O(n).
    fn queued_messages(&self) -> u64 {
        self.nodes.iter().map(|s| s.outbox.queued() as u64).sum()
    }
}

impl<P: Protocol> std::fmt::Debug for LegacyNetwork<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LegacyNetwork")
            .field("nodes", &self.nodes.len())
            .field("mode", &self.mode)
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}
