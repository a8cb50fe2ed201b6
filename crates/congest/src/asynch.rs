//! Asynchronous execution: an event-driven executor core under a
//! pluggable synchronizer.
//!
//! The paper assumes the synchronous model and notes (§2) that, absent
//! crashes, "any synchronous algorithm can be executed in an asynchronous
//! environment using a synchronizer" (Awerbuch \[3\]). This module makes
//! that claim executable — and, since the control-plane split, makes the
//! *synchronizer itself* a pluggable layer:
//!
//! * The **executor core** ([`AsyncNetwork`]) owns the mechanics: the
//!   node parts and CSR route table [`crate::Session`] compiles once
//!   for both production engines, the flat plane's payload queues and
//!   broadcast records, the rotating parity-indexed pulse inboxes,
//!   payload metering, and
//!   stepping protocols — plus the *wire* (`sched::sync::Wire`): route
//!   lookups, delay sampling, the fault plane and the pooled-block timing
//!   wheel of in-flight envelopes. It knows nothing about *when* a pulse
//!   may run.
//! * The **synchronizer** (`crate::sched::sync`, selected by the public
//!   [`SyncModel`] knob on [`Engine::Async`](crate::Engine::Async))
//!   owns the control plane: it observes payloads sent and received,
//!   emits its own control traffic through the wire, accounts it in
//!   [`SyncOverhead`], and decides per node when the next pulse
//!   executes.
//!   [`SyncModel::Alpha`] is the classic synchronizer α (per-payload
//!   `Ack`s plus a per-pulse `Safe` flood on every edge), extracted
//!   from the pre-split engine bit for bit;
//!   [`SyncModel::BatchedAlpha`] piggybacks safety on the payloads
//!   themselves and clears idle edges with one coalesced `Safe` wave
//!   per node per pulse, so empty and sparse pulses cost control
//!   traffic proportional to the active frontier instead of `O(m)`.
//!
//! Outputs and the payload-side [`Metrics`] are **bit-identical to the
//! synchronous engines'** — pulse for round, under every delay model
//! *and* every synchronizer; only [`SyncOverhead`] depends on the
//! synchronizer, which is exactly the cost the layer exists to expose.
//!
//! # The event plane
//!
//! Like the flat synchronous plane, this executor performs **zero heap
//! allocations in steady state**: after warm-up, driving pulses only
//! recycles pooled blocks and slab chunks. Five structures carry every
//! event:
//!
//! * **The payload queues** (`plane::Outgoing`, the flat engine's
//!   type): a FIFO per port and a broadcast record per node. A
//!   `ctx.broadcast` from a node with nothing queued is one record, as
//!   on the flat engine; the node's next pulse entry sends it as delay
//!   runs (below). A crash onset loses a record and a leave retires it,
//!   once per port, and a copy toward an absent peer is retired instead
//!   of sent. Any other send queues per port, so a run carried by
//!   broadcasts leaves most port headers as the zeroed allocation made
//!   them (`plane`'s module docs, "Queues").
//! * **The timing wheel** (`sched::EventWheel`): in-flight messages live
//!   in a circular array of `bound + 1` FIFO buckets, where `bound` is
//!   the [`DelayModel`]'s *compiled* per-port delay maximum. Delays are
//!   bounded and positive, so all pending events fit at unique
//!   `time % (bound + 1)` slots — push is O(1), drain is in-order bucket
//!   rotation, and the order is bit-identical to the
//!   `(arrival time, sequence number)` min-heap this replaced (FIFO
//!   within a bucket *is* sequence order). A bucket is a chain of
//!   256-event blocks from one pool all buckets share: an event is
//!   written into the next slot of its bucket's tail block and moved
//!   out of its head block, and a drained block goes back to the pool.
//!   A single envelope (an `Ack`, a payload from a port queue, a
//!   retransmission) travels inside its event.
//! * **Delay runs**: a broadcast — a node's record, or α's per-pulse
//!   `Safe` flood — is one wheel event per distinct delay its copies
//!   drew, not one per port (`sched::sync::Wire::begin_broadcast`).
//!   Every copy takes the fault check and the delay draw a per-port
//!   send would, in port order, so both random streams advance as
//!   before; the copies are grouped stably by delay into the sender's
//!   CSR row of a per-pulse-parity array of `(receiver, receiving
//!   port)` pairs, and a record is kept once per node and parity. A
//!   lost copy puts the runs gathered before it on the wheel ahead of
//!   its retransmission timer, so every bucket holds what it held with
//!   one event per copy, in the same order. Popping a run hands each
//!   copy, in port order, to the code a single delivered envelope
//!   reaches, and after each copy does what follows any event: the
//!   profile samples the envelopes in flight (a run counts its
//!   undelivered copies) and the ready worklist drains. Control
//!   traffic is still metered per envelope, on receipt. The ±1 pulse
//!   skew frees a node's parity-`r` row and record slot before it
//!   broadcasts for pulse `r + 2`.
//! * **Rotating inboxes**: every synchronizer here keeps neighboring
//!   nodes within one pulse of each other, so a payload tagged for
//!   pulse `r` can only arrive while its receiver waits on pulse `r` or
//!   `r − 1`. Two pulse-parity-indexed inboxes per node therefore
//!   suffice, and they live as `2n` FIFOs in one shared chunked slab
//!   (`plane::PortQueues`, the payload queues' FIFOs), drained into a
//!   reused scratch buffer at execution.
//! * **The ready worklist**: synchronizer signals resolved eagerly
//!   (`BatchedAlpha`'s coalesced waves) complete pulse gates outside
//!   the event loop; affected nodes land on a reused worklist and are
//!   executed iteratively — cascades of any length, no recursion.
//!
//! Fault and churn events are recorded where they happen, as
//! [`TraceEvent`]s through the wire's trace slot; the trace sink is
//! their only itemized record.
//!
//! Scheduling is pluggable through [`crate::sched`]: link delays come
//! from a seeded [`DelayModel`] (uniform, per-link, heavy-tailed or
//! adversarial-within-bound), and staged protocols that rely on the
//! simulator's quiescence barrier (`Protocol::on_quiescent`), like the
//! staged `DistNearClique`, run end-to-end via
//! [`AsyncNetwork::run_phases`] under a [`PhasePlan`] — each phase gets
//! its own deterministic pulse budget and the transition fires on
//! schedule, which is exactly the paper's §4.1 wrapper.

use rand::rngs::StdRng;

use crate::message::Message;
use crate::metrics::Metrics;
use crate::network::Nodes;
use crate::obs::{MetricsMode, RunProfile, TraceConfig, TraceEvent, TraceSink};
use crate::plane::{Outgoing, PortQueues};
use crate::protocol::{Context, Endpoint, OutboxHandle, Port, Protocol};
use crate::sched::sync::{Event, SyncDriver, SyncMsg, Wire, ENVELOPE_BITS};
use crate::sched::{
    ChurnModel, ChurnPlane, ChurnPolicy, DelayModel, DelaySource, FaultModel, FaultPlane,
    PhasePlan, SyncModel,
};
use crate::session::{Driver, Engine, Observer, RunLimits, RunReport, SyncOverhead, Termination};

/// The event-driven asynchronous engine: an executor core gated by a
/// pluggable synchronizer over seeded link delays. Built through
/// [`crate::Session`] with [`Engine::Async`].
///
/// Clonable (for `P: Clone`) so the interleaving explorer
/// ([`crate::explore`]) can fork the complete engine state at a choice
/// point and walk every branch.
#[derive(Clone)]
pub(crate) struct AsyncNetwork<P: Protocol> {
    /// Per-node read-only facts (parallel to the other per-node arrays).
    endpoints: Vec<Endpoint>,
    /// Per-node protocol state machines.
    protocols: Vec<P>,
    /// Per-node private RNG streams.
    rngs: Vec<StdRng>,
    /// The pulse each node is currently *waiting to execute* (1-based).
    pulse: Vec<u64>,
    /// Whether each node finished the current drive's pulse budget.
    done: Vec<bool>,
    /// What protocols sent and this engine has not yet transmitted, in
    /// the flat plane's form: a FIFO per port, drained one message per
    /// port per pulse (CONGEST pipelining), and a broadcast record per
    /// node, expanded over all its ports at its next pulse entry.
    out: Outgoing<P::Msg>,
    /// The queue high-water mark: the larger of the most payloads queued
    /// or recorded at once, a record counting as its node's degree, and
    /// the most staged in the inboxes at once. Only protocol callbacks
    /// queue and only arrivals stage, so noting the counts after each
    /// callback ([`AsyncNetwork::with_ctx`]) and each arrival
    /// ([`AsyncNetwork::arrive`]) makes the mark exact.
    max_queued: u64,
    /// Per-pulse payload staging: two rotating inboxes per node (slot
    /// `2·node + pulse-parity`), sharing one chunked slab.
    inboxes: PortQueues<(Port, P::Msg)>,
    /// Reused scratch an executing pulse drains its inbox into (the
    /// protocol steps on a sorted slice of it).
    inbox_buf: Vec<(Port, P::Msg)>,
    /// The control plane: per-node gating state and control-traffic
    /// policy (see [`crate::sched::sync`]).
    sync: SyncDriver,
    /// Everything the synchronizer reaches the network through: routes,
    /// delays, faults, the timing wheel, overhead, the ready worklist
    /// and the trace slot.
    wire: Wire<P::Msg>,
    /// The compiled churn model and the member set (see
    /// [`crate::sched::churn`]).
    churn: ChurnPlane,
    /// Absolute pulse target of the current drive.
    budget: u64,
    /// Pulses completed over all drives so far.
    executed: u64,
    /// Protocol `init` hooks have run (first drive, any budget).
    initialized: bool,
    /// Pulse 1 has been entered (first drive with a non-zero budget).
    started: bool,
    /// Payload-side accounting, attributed to pulses by tag — comparable
    /// field-for-field with the synchronous engines' metrics.
    metrics: Metrics,
    /// Whether per-pulse metrics history is kept ([`MetricsMode::Full`])
    /// or only O(1) running aggregates ([`MetricsMode::Streaming`]).
    metrics_mode: MetricsMode,
}

impl<P: Protocol> AsyncNetwork<P> {
    /// Builds the asynchronous engine over `nodes` — the same route
    /// table, IDs and per-node RNG streams the synchronous engine runs
    /// on, so protocols observe identical endpoints and coin flips. Link
    /// delays are drawn from `delay` (seeded off `seed`; see
    /// [`crate::sched::DelayModel`]); pulse gating and control traffic
    /// follow `sync` (see [`SyncModel`]); the network breaks according
    /// to `fault` (seeded off the same `seed`; see
    /// [`crate::sched::FaultModel`] — `FaultModel::None` is the perfect
    /// wire, bit-identical to an engine without the fault plane); and
    /// the member set evolves according to `churn` (seeded off the same
    /// `seed`; see [`crate::sched::churn`] — [`ChurnModel::None`] is the
    /// fixed member set, bit-identical to an engine without the churn
    /// plane).
    ///
    /// # Panics
    ///
    /// Panics if the delay model's `max_delay == 0` or if the fault or
    /// churn model is malformed.
    pub(crate) fn new(
        nodes: Nodes<P>,
        seed: u64,
        delay: DelayModel,
        sync: SyncModel,
        fault: FaultModel,
        churn: ChurnModel,
    ) -> Self {
        let Nodes { topo, endpoints, protocols, rngs } = nodes;
        let n = endpoints.len();
        let port_count = topo.port_count();
        let delays = DelaySource::model(delay, seed, port_count);
        let faults = FaultPlane::new(fault, seed, port_count, n, delays.compiled_bound());
        let churn = ChurnPlane::new(churn, seed, n);
        let wire = Wire::new(topo, delays, faults);
        Self {
            endpoints,
            protocols,
            rngs,
            pulse: vec![1; n],
            done: vec![false; n],
            out: Outgoing::new(n, port_count),
            max_queued: 0,
            inboxes: PortQueues::new(n * 2),
            inbox_buf: Vec::new(),
            sync: SyncDriver::new(sync, n),
            wire,
            churn,
            budget: 0,
            executed: 0,
            initialized: false,
            started: false,
            metrics: Metrics::default(),
            metrics_mode: MetricsMode::Full,
        }
    }

    /// Installs the session's observability configuration: an optional
    /// trace sink (preallocated here, once — recording is allocation-
    /// free thereafter) and the metrics mode. Must be called before the
    /// first drive.
    pub(crate) fn configure_obs(&mut self, trace: Option<TraceConfig>, mode: MetricsMode) {
        self.wire.rec = trace.map(|cfg| Box::new(TraceSink::new(cfg, self.endpoints.len() as u32)));
        self.metrics_mode = mode;
    }

    /// The installed trace sink, if tracing is enabled.
    pub(crate) fn trace_sink(&self) -> Option<&TraceSink> {
        self.wire.rec.as_deref()
    }

    /// Flushes the sink's trailing aggregation window, folds in the
    /// in-flight envelope / queue high-water marks, and returns the run's
    /// profile — `None` when tracing is off.
    fn snapshot_profile(&mut self) -> Option<RunProfile> {
        let (wheel_hw, queue_hw) = (self.wire.max_in_flight, self.max_queued);
        self.wire.rec.as_deref_mut().map(|sink| sink.finish(wheel_hw, queue_hw))
    }

    /// The configured engine: delay, synchronizer, fault and churn
    /// models.
    pub(crate) fn engine(&self) -> Engine {
        Engine::Async {
            delay: self.wire.delays.delay_model(),
            sync: self.sync.model(),
            fault: self.wire.faults.model(),
            churn: self.churn.model(),
        }
    }

    /// Accumulated payload-side metrics.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Accumulated synchronizer overhead.
    pub(crate) fn overhead(&self) -> &SyncOverhead {
        &self.wire.overhead
    }

    /// Runs `f` on node `v`'s protocol with a context at `round`, its
    /// sends landing in the node's window of the payload queues and
    /// records — the one place this engine hands a protocol its
    /// [`Context`].
    fn with_ctx<R>(
        &mut self,
        v: usize,
        round: u64,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>) -> R,
    ) -> R {
        let base = self.wire.topo.offsets[v];
        let outbox = OutboxHandle::Flat(self.out.node(v, base));
        let mut ctx = Context::new(&self.endpoints[v], round, outbox, &mut self.rngs[v]);
        let result = f(&mut self.protocols[v], &mut ctx);
        self.max_queued = self.max_queued.max(self.out.queued());
        result
    }

    /// Crash bookkeeping at node `v`'s entry into `pulse`: detects the
    /// crash-onset and recovery transitions (each exactly once),
    /// discards the node's queued outgoing payloads at onset, fires the
    /// [`Protocol::on_peer_down`]/[`Protocol::on_peer_up`] hooks on live
    /// neighbors, and reports whether the node is crashed for this
    /// pulse.
    fn fault_pulse_entry(&mut self, v: usize, pulse: u64) -> bool {
        let faults = &mut self.wire.faults;
        let crashed = faults.sampler.crashed_at(v, pulse);
        if crashed == faults.down[v] {
            return crashed;
        }
        faults.down[v] = crashed;
        if crashed {
            faults.crash_seen = true;
            self.wire.trace(TraceEvent::NodeDown { node: v as u32, pulse });
            // Fail-silent: whatever the protocol queued or recorded but
            // had not yet transmitted dies with the host — each discard
            // itemized as lost, a record once per port, so every loss is
            // accounted for.
            let (base, degree) = (self.wire.topo.offsets[v], self.endpoints[v].degree());
            let wire = &mut self.wire;
            self.out.discard(v, base, degree, |port| wire.lose(v, port));
        } else {
            self.wire.trace(TraceEvent::NodeUp { node: v as u32, pulse });
        }
        self.notify_neighbors(v, if crashed { P::on_peer_down } else { P::on_peer_up });
        crashed
    }

    /// Fires `hook` (a crash or membership hook) on each of `v`'s
    /// present, uncrashed neighbors, each in its own context at its own
    /// current pulse, with the port `v` sits behind.
    fn notify_neighbors(&mut self, v: usize, hook: fn(&mut P, &mut Context<'_, P::Msg>, Port)) {
        for port in 0..self.endpoints[v].degree() {
            let (_slot, to, back) = self.wire.topo.resolve(v, port);
            let to = to as usize;
            // A node outside the member set (or down) observes nothing:
            // a joiner has not initialized yet, a leaver is gone.
            if !self.churn.present[to] || self.wire.faults.sampler.crashed_at(to, self.pulse[to]) {
                continue;
            }
            self.with_ctx(to, self.pulse[to], |p, ctx| hook(p, ctx, back as usize));
        }
    }

    /// Membership bookkeeping at node `v`'s entry into `pulse`: detects
    /// the scheduled join/leave transition (each exactly once, opening a
    /// new epoch, recorded with the new member count), flips the node's
    /// presence flag, retires a leaver's queued payloads itemized,
    /// fires [`Protocol::on_join`]/[`Protocol::on_leave`] on present
    /// peers (and the [`ChurnPolicy::Restart`] re-init), and reports
    /// whether the node is outside the member set for this pulse.
    fn churn_pulse_entry(&mut self, v: usize, pulse: u64) -> bool {
        let absent = self.churn.sampler.absent_at(v, pulse);
        if absent != self.churn.present[v] {
            // Steady state: the presence flag already agrees with the
            // sampled membership — no transition at this pulse.
            return absent;
        }
        self.churn.apply(v, !absent);
        let (epoch, members) = (self.churn.epoch, self.churn.members);
        self.wire.overhead.epochs += 1;
        if absent {
            self.wire.overhead.leaves += 1;
            self.wire.trace(TraceEvent::Leave { node: v as u32, pulse, epoch, members });
            // A graceful leave retires whatever the protocol queued or
            // recorded but had not yet transmitted — each payload
            // itemized, a record once per port, never silently dropped.
            let (base, degree) = (self.wire.topo.offsets[v], self.endpoints[v].degree());
            let wire = &mut self.wire;
            self.out.discard(v, base, degree, |port| wire.retire(v, port));
        } else {
            debug_assert_eq!(
                self.churn.sampler.join_pulse(v),
                pulse,
                "a join transition fires exactly at the scheduled pulse"
            );
            self.wire.overhead.joins += 1;
            self.wire.trace(TraceEvent::Join { node: v as u32, pulse, epoch, members });
            // The joiner's protocol initializes at the joining pulse;
            // whatever it queues drains in this same pulse entry, right
            // after this hook returns.
            self.with_ctx(v, pulse, |p, ctx| p.init(ctx));
        }
        self.notify_neighbors(v, if absent { P::on_leave } else { P::on_join });
        if self.churn.model().policy() == ChurnPolicy::Restart {
            self.restart_epoch(v);
        }
        absent
    }

    /// [`ChurnPolicy::Restart`]: re-runs [`Protocol::init`] on every
    /// present, uncrashed node at its current pulse, so epoch-restart
    /// protocols rebuild their state against the new member set. The
    /// node whose event opened the epoch is skipped — a joiner was just
    /// initialized, a leaver is absent.
    fn restart_epoch(&mut self, skip: usize) {
        for w in 0..self.endpoints.len() {
            if w == skip
                || !self.churn.present[w]
                || self.wire.faults.sampler.crashed_at(w, self.pulse[w])
            {
                continue;
            }
            self.with_ctx(w, self.pulse[w], |p, ctx| p.init(ctx));
        }
    }

    /// Transition `node` into its next pulse: drain one application
    /// message per port from the flat queues (CONGEST pipelining), or
    /// send the node's broadcast record, one copy per port in port
    /// order, reporting each idle port — and then the whole send phase —
    /// to the synchronizer, which emits whatever control traffic its
    /// discipline requires. A record's copies take the fault check and
    /// the delay draw per-port copies would, in the same order, so the
    /// delay draws and the virtual times are theirs; they ride the wheel
    /// as one delay run per distinct delay ([`Wire::begin_broadcast`]).
    /// A port toward an absent peer carries no payload: what would go
    /// out on it is retired, and the port reads idle. The sender itself
    /// is present whenever it has something to send (absent nodes
    /// neither step nor queue, and a leave retires the leaver's queues
    /// first), so the receiver's presence flag is the port's liveness.
    /// Degree-0 nodes have no synchronizer traffic at all and just
    /// execute their remaining pulses in place.
    fn begin_pulse(&mut self, v: usize) {
        let degree = self.endpoints[v].degree();
        if degree == 0 {
            while self.pulse[v] <= self.budget {
                let pulse = self.pulse[v];
                let absent = self.churn_pulse_entry(v, pulse);
                let crashed = self.fault_pulse_entry(v, pulse);
                if !absent && !crashed {
                    let batch = self.execute_pulse(v);
                    self.wire.trace(TraceEvent::PulseExec { node: v as u32, pulse, batch });
                }
                self.pulse[v] += 1;
            }
            self.pulse[v] = self.budget;
            self.done[v] = true;
            return;
        }
        let pulse = self.pulse[v];
        // Membership first: a scheduled join initializes the protocol
        // (its sends drain below, in this same entry), a scheduled leave
        // retires the queued payloads before the crash sweep looks at
        // them. A node entering an absent or crashed pulse is silent
        // below — every port reads idle, so neighbors' gates fill
        // exactly as for an empty pulse and the synchronizer waves keep
        // rolling across the epoch boundary.
        let absent = self.churn_pulse_entry(v, pulse);
        let crashed = self.fault_pulse_entry(v, pulse);
        let base = self.wire.topo.offsets[v];
        let mut sent = 0usize;
        if let Some(msg) = self.out.take_record(v, degree) {
            // A record stands for one message on each port, and its node
            // has nothing else queued: its copies go out as delay runs.
            let mut copies = self.wire.begin_broadcast(v, SyncMsg::Payload { pulse, msg });
            for port in 0..degree {
                let route = self.wire.topo.resolve(v, port);
                if self.churn.present[route.1 as usize] {
                    self.wire.send_copy(&mut copies, port, route);
                    sent += 1;
                } else {
                    // A copy toward an absent peer is retired itemized,
                    // and the port reads idle, as in the per-port loop.
                    self.wire.retire(v, port);
                    self.sync.on_idle_port(&mut self.wire, v, port, pulse);
                }
            }
            self.wire.end_broadcast(copies);
        } else {
            for port in 0..degree {
                let p = base + port as u32;
                // An idle port costs a bit test, not a queue header read.
                let msg = if !self.out.queues.is_active(p) {
                    None
                } else if self.churn.present[self.wire.topo.resolve(v, port).1 as usize] {
                    self.out.queues.pop(p)
                } else {
                    // Whatever the protocol queued toward an absent peer
                    // is retired itemized, and the port reads idle to the
                    // synchronizer — the control plane spans the static
                    // topology.
                    while self.out.queues.pop(p).is_some() {
                        self.wire.retire(v, port);
                    }
                    None
                };
                match msg {
                    Some(msg) => {
                        self.wire.transmit(v, port, SyncMsg::Payload { pulse, msg });
                        sent += 1;
                    }
                    None => self.sync.on_idle_port(&mut self.wire, v, port, pulse),
                }
            }
        }
        debug_assert!(!crashed || sent == 0, "a crashed node sends nothing");
        debug_assert!(!absent || sent == 0, "an absent node sends nothing");
        self.wire.trace(TraceEvent::PulseBegin { node: v as u32, pulse, sent: sent as u32 });
        self.sync.on_pulse_begun(&mut self.wire, v, pulse, sent);
    }

    /// Steps node `v`'s protocol on its current pulse's inbox, with its
    /// context wired into the flat queues. Returns the delivery batch
    /// size (how many payloads the protocol stepped on).
    fn execute_pulse(&mut self, v: usize) -> u32 {
        let pulse = self.pulse[v];
        let slot = (v * 2 + (pulse & 1) as usize) as u32;
        if self.wire.faults.sampler.crashed_at(v, pulse) || self.churn.sampler.absent_at(v, pulse) {
            // Crashed (fail-silent) or outside the member set: payloads
            // addressed to this pulse were lost or retired at delivery,
            // so the inbox is empty and the protocol does not step.
            debug_assert_eq!(self.inboxes.len(slot), 0, "a silent pulse stages nothing");
            return 0;
        }
        // Drain the pulse's rotating inbox into the scratch buffer and
        // canonicalize. CONGEST delivers at most one payload per port
        // per pulse, so port keys are unique and the unstable sort is
        // deterministic (and allocation-free, unlike a stable sort).
        self.inbox_buf.clear();
        while let Some(entry) = self.inboxes.pop(slot) {
            self.inbox_buf.push(entry);
        }
        self.inbox_buf.sort_unstable_by_key(|&(port, _)| port);
        debug_assert!(
            self.inbox_buf.windows(2).all(|w| w[0].0 != w[1].0),
            "one payload per port per pulse"
        );
        // The scratch buffer is lent out for the step and handed back
        // with its capacity intact — no allocation either way.
        let inbox = std::mem::take(&mut self.inbox_buf);
        self.with_ctx(v, pulse, |p, ctx| p.step(ctx, &inbox));
        self.inbox_buf = inbox;
        self.inbox_buf.len() as u32
    }

    /// Executes node `v`'s pulses for as long as the synchronizer grants
    /// the gate, entering the next pulse after each execution. Iterative
    /// — a node catching up several pulses (or a whole quiescent stretch
    /// under `BatchedAlpha`) never recurses.
    fn try_execute(&mut self, v: usize) {
        while !self.done[v] {
            let pulse = self.pulse[v];
            if !self.sync.ready(v, pulse, self.endpoints[v].degree()) {
                return;
            }
            let batch = self.execute_pulse(v);
            self.wire.trace(TraceEvent::PulseExec { node: v as u32, pulse, batch });
            self.sync.on_executed(v, pulse);
            if pulse >= self.budget {
                self.done[v] = true;
                return;
            }
            self.pulse[v] = pulse + 1;
            self.begin_pulse(v);
        }
    }

    /// Drains the ready worklist: nodes whose gate an eager synchronizer
    /// signal completed outside the event loop. Executing them may wake
    /// further nodes; the loop runs until the cascade dies out.
    fn drain_ready(&mut self) {
        while let Some(v) = self.wire.ready.pop() {
            self.try_execute(v as usize);
        }
    }

    /// Handles one popped wheel event at the current virtual time: one
    /// envelope, or each copy of a delay run in port order, each followed
    /// by what follows any event ([`AsyncNetwork::after_envelope`]).
    fn handle(&mut self, event: Event<P::Msg>) {
        match event {
            Event::Deliver { to, port, msg } => self.deliver(to as usize, port as usize, msg),
            Event::Resend { from, port, msg } => {
                // A retransmission timer fired: the envelope re-enters
                // the wire with fresh delay and fault draws.
                self.wire.in_flight -= 1;
                self.wire.trace(TraceEvent::Retransmit { node: from, port });
                self.wire.transmit(from as usize, port as usize, msg);
                self.after_envelope();
            }
            Event::Run { from, start, end, pulse, kind } => {
                for index in start..end {
                    let (to, port) = self.wire.run_receiver(pulse, index);
                    let msg = self.wire.run_msg(from, pulse, kind).cloned();
                    self.deliver(to as usize, port as usize, msg);
                }
            }
        }
    }

    /// Envelope `msg` arrives at node `to` on its local `port`: a payload
    /// through [`AsyncNetwork::arrive`], a control envelope through the
    /// synchronizer; then the receiver executes whatever its gate grants.
    fn deliver(&mut self, to: usize, port: Port, msg: SyncMsg<P::Msg>) {
        self.wire.in_flight -= 1;
        match msg {
            SyncMsg::Payload { pulse, msg } => self.arrive(to, port, pulse, msg),
            SyncMsg::Ctrl(ctrl) => self.sync.on_ctrl(&mut self.wire, to, self.pulse[to], ctrl),
        }
        self.try_execute(to);
        self.after_envelope();
    }

    /// A pulse-`pulse` payload arrives at node `to` on its local `port`.
    fn arrive(&mut self, to: usize, port: Port, pulse: u64, msg: P::Msg) {
        if self.churn.sampler.absent_at(to, pulse) {
            // The receiver is outside the member set for this pulse: the
            // payload is retired at delivery — itemized, not metered, not
            // staged. The synchronizer still observes the arrival: the
            // control plane spans the static topology, which is what
            // keeps neighbors' gates filling across the epoch boundary.
            self.wire.retire(to, port);
        } else if self.wire.faults.sampler.crashed_at(to, pulse) {
            // The receiver is down for this pulse: the payload vanishes
            // at the host — not metered, not staged; the loss is
            // application-visible (degradation, not masking). The
            // synchronizer still observes the arrival: the control plane
            // survives the crash, which is what keeps the neighbors'
            // gates filling and the waves self-healing.
            self.wire.lose(to, port);
        } else {
            // A payload tagged r was drained by the sender on entering
            // pulse r — exactly what the synchronous simulator delivers
            // in round r — so it is consumed at pulse r and metered
            // there: scalars into `metrics`, the count into
            // `metrics.messages_per_round[r − 1]` (grown on demand:
            // pulses complete out of order), and the pulse-tag envelope
            // into the synchronizer's overhead.
            let bits = msg.bit_size();
            self.metrics.record_payload(bits);
            self.wire.overhead.control_bits += ENVELOPE_BITS as u64;
            if self.metrics_mode == MetricsMode::Full {
                let idx = (pulse - 1) as usize;
                let history = &mut self.metrics.messages_per_round;
                if history.len() <= idx {
                    history.resize(idx + 1, 0);
                }
                history[idx] += 1;
            }
            self.wire.trace(TraceEvent::Payload { node: to as u32, pulse, bits: bits as u32 });
            // Pulse skew is at most one under every synchronizer here: a
            // payload can only arrive while its receiver waits on `pulse`
            // or `pulse - 1`, so the parity-indexed inbox slot is free.
            debug_assert!(
                pulse == self.pulse[to] || pulse == self.pulse[to] + 1,
                "payload outside the two-pulse horizon"
            );
            self.inboxes.push((to * 2 + (pulse & 1) as usize) as u32, (port, msg));
            self.max_queued = self.max_queued.max(self.inboxes.queued());
        }
        self.sync.on_payload(&mut self.wire, to, port, pulse);
    }

    /// What follows every delivered envelope, a run's copies included:
    /// the profile samples the envelopes in flight, and the ready
    /// cascade drains.
    fn after_envelope(&mut self) {
        if let Some(sink) = self.wire.rec.as_deref_mut() {
            sink.sample_wheel(self.wire.in_flight);
        }
        self.drain_ready();
    }

    /// Offers every node its [`Protocol::on_quiescent`] transition — the
    /// §4.1 scheduled stand-in for the synchronous simulator's quiescence
    /// barrier, taken when a [`PhasePlan`] phase's budget elapses (not at
    /// detected quiescence, which a synchronizer cannot observe).
    ///
    /// Semantics mirror the synchronous engines': nodes are visited in
    /// index order at the current pulse count; if no node resumes and no
    /// application message is queued, the protocol has retired and the
    /// barrier is **not** counted. Otherwise it is metered in
    /// [`Metrics::barriers`] and streamed via [`Observer::on_barrier`].
    ///
    /// Returns `true` while execution should continue (some node resumed,
    /// or queued messages remain to be delivered).
    pub(crate) fn barrier(&mut self, obs: &mut dyn Observer) -> bool {
        let round = self.executed;
        let mut resumed = false;
        for v in 0..self.endpoints.len() {
            if self.wire.faults.down[v] {
                // A crashed node takes no phase transition — and its
                // silence must not keep the plan spinning pulse budgets:
                // the run ends `Degraded` (see `run_phases`) instead of
                // burning every remaining phase on a node that cannot
                // answer.
                continue;
            }
            if !self.churn.present[v] {
                // A node outside the member set takes no phase
                // transition either — but unlike a crash this is
                // planned reconfiguration, so the run is not degraded.
                continue;
            }
            resumed |= self.with_ctx(v, round, |p, ctx| p.on_quiescent(ctx));
        }
        if !resumed && self.out.queued() == 0 {
            return false;
        }
        self.metrics.barriers += 1;
        obs.on_barrier(round);
        true
    }

    /// Executes `plan` phase by phase: each phase drives its pulse
    /// budget, then [`AsyncNetwork::barrier`] fires the scheduled
    /// transition — the barrier closing the final phase is the one at
    /// which a finished protocol retires.
    ///
    /// With a plan derived from a synchronous run's phase trace
    /// ([`PhasePlan::from_trace`]), outputs **and** the payload-side
    /// [`Metrics`] — per-pulse histogram, barrier count included — equal
    /// the synchronous engines' bit for bit: this is how staged
    /// protocols like `DistNearClique` complete under a synchronizer.
    ///
    /// Termination is [`Termination::Quiescent`] when the retiring
    /// barrier finds every node finished, [`Termination::RoundLimit`]
    /// when the plan ended while the protocol still wanted to resume
    /// (the plan under-budgeted the run) — and
    /// [`Termination::Degraded`] as soon as any node crashed during the
    /// run, whatever the barriers said: a crashed phase cannot quiesce
    /// in the ordinary sense, and the report carries the count of
    /// application payloads the crash cost.
    pub(crate) fn run_phases(&mut self, plan: &PhasePlan, obs: &mut dyn Observer) -> RunReport {
        self.reserve_rounds(plan.total_pulses() as usize);
        // Run `init` (and the entry into the first phase) before the
        // first transition barrier, exactly like the synchronous loop.
        self.drive_pulses(0);
        let mut live = true;
        for (index, phase) in plan.phases().iter().enumerate() {
            if phase.pulses > 0 {
                self.drive_pulses(phase.pulses);
            }
            self.wire.trace(TraceEvent::Phase { index: index as u32, budget: phase.pulses });
            live = self.barrier(obs);
            if !live {
                break;
            }
        }
        if plan.is_empty() {
            // No phases scheduled: still offer the retiring barrier so an
            // already-finished protocol reports quiescence.
            live = self.barrier(obs);
        }
        // Intermediate phases ran report-free; the run's metrics are
        // cloned into a report exactly once, here.
        self.report(live)
    }

    /// The one [`RunReport`] builder behind [`Driver::drive`] and
    /// [`AsyncNetwork::run_phases`]. `live` says whether the protocol
    /// still wanted to resume when the drive ended: a plain drive always
    /// ends live (pulses never quiesce), a phased run ends quiescent when
    /// its retiring barrier finds every node finished. A crash anywhere
    /// in the run overrides both with [`Termination::Degraded`].
    fn report(&mut self, live: bool) -> RunReport {
        RunReport {
            termination: if self.wire.faults.crash_seen {
                Termination::Degraded { lost: self.wire.faults.lost }
            } else if live {
                Termination::RoundLimit
            } else {
                Termination::Quiescent
            },
            rounds: self.executed,
            metrics: self.metrics.clone(),
            overhead: self.wire.overhead,
            profile: self.snapshot_profile(),
        }
    }
}

impl<P: Protocol> Driver for AsyncNetwork<P> {
    type P = P;

    /// Executes `limits.max_rounds` further pulses under the configured
    /// synchronizer.
    ///
    /// Outputs after `B` total pulses are identical to the synchronous
    /// engines' outputs after `RunLimits::rounds(B)` with the same seed
    /// (the Awerbuch reduction, executed) for protocols whose `step` is
    /// inert on empty inboxes — pulses never quiesce, so a quiescent
    /// synchronous run corresponds to trailing empty pulses here.
    ///
    /// Always pass a finite, deliberate budget: pulses keep exchanging
    /// control traffic budget or not (a `Safe` flood per edge under
    /// [`SyncModel::Alpha`]; a coalesced wave per node under
    /// [`SyncModel::BatchedAlpha`]), so the default (1M-round) limits
    /// are *executable* but enormous. Termination is `RoundLimit` —
    /// or [`Termination::Degraded`] if any node crashed during the run.
    ///
    /// `obs` sees no barrier here: a plain drive takes none (phased runs
    /// do, through [`AsyncNetwork::run_phases`]).
    fn drive(&mut self, limits: RunLimits, _obs: &mut dyn Observer) -> RunReport {
        self.drive_pulses(limits.max_rounds);
        self.report(true)
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

    /// Payloads queued or recorded, a record counting as its node's
    /// degree.
    fn queued_messages(&self) -> u64 {
        self.out.queued()
    }

    /// Pre-reserves the per-pulse history for a bounded run.
    fn reserve_rounds(&mut self, rounds: usize) {
        self.metrics.reserve_rounds(rounds);
    }
}

/// The drive loop, in three steps: [`AsyncNetwork::begin_segment`]
/// (entry sweep), [`AsyncNetwork::step_event`] (one event-loop
/// iteration) and [`AsyncNetwork::settle`] (post-loop bookkeeping). A
/// sampled drive runs them back to back in [`AsyncNetwork::drive_pulses`];
/// the interleaving explorer ([`crate::explore`]) calls the very same
/// steps one at a time, forking the cloned state at every delay choice
/// point — an explored branch passes through the same code a sampled run
/// does, and the only difference is who pulls the next event.
impl<P: Protocol> AsyncNetwork<P> {
    /// The report-free pulse engine behind [`Driver::drive`] and
    /// [`AsyncNetwork::run_phases`]: executes up to `max_rounds` further
    /// pulses. Callers that drive in stages (phased runs) use this
    /// directly so the run's [`Metrics`] are cloned into a [`RunReport`]
    /// once, not once per stage.
    fn drive_pulses(&mut self, max_rounds: u64) {
        if max_rounds == 0 {
            // Lazy init even on a zero-budget drive, so outputs at budget
            // 0 match the synchronous engines'.
            self.initialize();
        } else {
            self.begin_segment(max_rounds);
            while self.step_event() {}
            self.settle();
        }
    }

    /// Runs every present node's `init` hook, once per run. A scheduled
    /// late joiner initializes at its joining pulse instead.
    fn initialize(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for v in 0..self.endpoints.len() {
            if self.churn.present[v] {
                self.with_ctx(v, 0, |p, ctx| p.init(ctx));
            }
        }
    }

    /// The entry step: lazy `init`, budget arming, and the pulse-1 (or
    /// resume) sweep, up to but excluding the event loop.
    pub(crate) fn begin_segment(&mut self, max_rounds: u64) {
        debug_assert!(max_rounds > 0, "a drive segment needs a pulse budget");
        self.initialize();
        self.budget = self.executed.saturating_add(max_rounds);
        // Pulse 1 is entered at time 0. On a resume every node sits
        // exactly at the previous budget with no event in flight, so all
        // of them re-enter their next pulse at the current virtual time.
        let resume = std::mem::replace(&mut self.started, true);
        debug_assert!(resume || self.wire.now() == 0, "nothing runs before pulse 1");
        debug_assert_eq!(
            self.wire.overhead.virtual_time,
            self.wire.now(),
            "the wheel cursor is the virtual clock"
        );
        for v in 0..self.endpoints.len() {
            if resume {
                debug_assert!(self.done[v], "paused nodes sit at the budget");
                self.done[v] = false;
                self.pulse[v] += 1;
            }
            self.begin_pulse(v);
            self.try_execute(v);
        }
        self.drain_ready();
    }

    /// One event-loop iteration: pop the next event, handle it, and
    /// drain the ready cascade. Returns `false` when the wheel is empty
    /// (the segment is over — completed if every node is done,
    /// deadlocked otherwise).
    pub(crate) fn step_event(&mut self) -> bool {
        let Some((now, event)) = self.wire.events.pop_next() else {
            return false;
        };
        self.wire.overhead.virtual_time = self.wire.overhead.virtual_time.max(now);
        self.handle(event);
        true
    }

    /// The post-loop bookkeeping of a completed segment: commit the
    /// budget as executed and pad the per-round history to it. Only valid
    /// once every node is done ([`AsyncNetwork::explore_all_done`]) —
    /// the explorer reports a deadlock instead of settling otherwise.
    pub(crate) fn settle(&mut self) {
        debug_assert_eq!(self.inboxes.queued(), 0, "all staged payloads were consumed");
        debug_assert!(self.explore_all_done(), "all nodes must finish their pulse budget");
        self.executed = self.budget;
        self.metrics.rounds = self.executed;
        if self.metrics_mode == MetricsMode::Full {
            self.metrics.messages_per_round.resize(self.executed as usize, 0);
        }
    }
}

/// Read access for the interleaving explorer's invariants and
/// fingerprints.
impl<P: Protocol> AsyncNetwork<P> {
    /// The pulse node `v` currently waits to execute (1-based).
    pub(crate) fn node_pulse(&self, v: usize) -> u64 {
        self.pulse[v]
    }

    /// Whether node `v` finished the current segment's pulse budget.
    pub(crate) fn node_done(&self, v: usize) -> bool {
        self.done[v]
    }

    /// Whether every node finished the current segment's pulse budget.
    pub(crate) fn explore_all_done(&self) -> bool {
        self.done.iter().all(|&d| d)
    }

    /// Envelopes scheduled on the wheel and not yet delivered, a delay
    /// run counting its copies.
    pub(crate) fn pending_events(&self) -> u64 {
        self.wire.in_flight
    }

    /// Application payloads lost to faults so far.
    pub(crate) fn lost(&self) -> u64 {
        self.wire.faults.lost
    }

    /// The engine's delay source, immutably (tape access).
    pub(crate) fn delays(&self) -> &DelaySource {
        &self.wire.delays
    }

    /// The engine's delay source, mutably (the explorer scripts choice
    /// assignments and enables recording through this).
    pub(crate) fn delays_mut(&mut self) -> &mut DelaySource {
        &mut self.wire.delays
    }

    /// Feeds the engine's complete observable state into `h` — the
    /// canonical fingerprint the explorer dedups converged branches on.
    ///
    /// Two states hash equal exactly when their futures are
    /// indistinguishable, so the sweep is **time-shift invariant**: it
    /// excludes absolute virtual time (`overhead.virtual_time`, the
    /// wheel cursor — pending events hash at cursor-relative arrival
    /// times) and everything that merely records the past (the delay
    /// tape). Everything else goes in: pulse counters,
    /// protocol and RNG state, queued application messages, in-flight
    /// events, staged inboxes, synchronizer gates, fault-plane state,
    /// and the payload ledger.
    ///
    /// Sound for [`FaultModel::None`] and [`FaultModel::Drop`] only:
    /// their fault streams are position-indexed, while `LinkFlap`'s drop
    /// decisions read absolute time — the explorer rejects the rest.
    /// Churn state is deliberately not hashed: the explorer runs only
    /// [`ChurnModel::None`] (membership schedules are pulse-indexed,
    /// like `Crash`), under which the member set is constant for the
    /// whole run.
    pub(crate) fn explore_hash<H: std::hash::Hasher>(&self, h: &mut H)
    where
        P: std::hash::Hash,
        P::Msg: std::hash::Hash,
    {
        use std::hash::Hash;
        self.executed.hash(h);
        self.budget.hash(h);
        for v in 0..self.endpoints.len() {
            self.pulse[v].hash(h);
            self.done[v].hash(h);
            self.protocols[v].hash(h);
            self.rngs[v].hash(h);
        }
        // Port by port, a record as the one message it stands for on each
        // of its node's ports: what per-port copies hash to.
        for v in 0..self.endpoints.len() {
            let ports = self.wire.topo.offsets[v]..self.wire.topo.offsets[v + 1];
            match self.out.record(v) {
                Some(msg) => ports.for_each(|_| {
                    1u32.hash(h);
                    msg.hash(h);
                }),
                None => ports.for_each(|p| {
                    self.out.queues.len(p).hash(h);
                    self.out.queues.for_each(p, |msg| msg.hash(h));
                }),
            }
        }
        // A delay run as the per-port deliveries it stands for.
        self.wire.events.for_each_pending(|rel, event| match *event {
            Event::Run { from, start, end, pulse, kind } => {
                for index in start..end {
                    let (to, port) = self.wire.run_receiver(pulse, index);
                    let msg = self.wire.run_msg(from, pulse, kind);
                    rel.hash(h);
                    Event::Deliver { to, port, msg }.hash(h);
                }
            }
            _ => {
                rel.hash(h);
                event.hash(h);
            }
        });
        for slot in 0..self.inboxes.port_count() as u32 {
            self.inboxes.len(slot).hash(h);
            self.inboxes.for_each(slot, |entry| entry.hash(h));
        }
        self.sync.hash(h);
        let (faults, overhead) = (&self.wire.faults, &self.wire.overhead);
        faults.sampler.hash(h);
        faults.down.hash(h);
        faults.lost.hash(h);
        faults.crash_seen.hash(h);
        self.metrics.hash(h);
        overhead.control_messages.hash(h);
        overhead.control_bits.hash(h);
        overhead.retransmissions.hash(h);
        overhead.dropped_messages.hash(h);
    }
}

impl<P: Protocol> std::fmt::Debug for AsyncNetwork<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncNetwork")
            .field("nodes", &self.endpoints.len())
            .field("delay", &self.wire.delays.delay_model())
            .field("sync", &self.sync.model())
            .field("fault", &self.wire.faults.model())
            .field("churn", &self.churn.model())
            .field("pulses", &self.executed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::session::{Engine, Session};
    use graphs::GraphBuilder;

    const SYNC_MODELS: [SyncModel; 2] = [SyncModel::Alpha, SyncModel::BatchedAlpha];

    fn uniform(max_delay: u64) -> Engine {
        Engine::Async {
            delay: DelayModel::Uniform { max_delay },
            sync: SyncModel::Alpha,
            fault: FaultModel::None,
            churn: ChurnModel::None,
        }
    }

    /// Flooding protocol identical to the synchronous test suite's.
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
            true
        }
        fn output(&self) -> Option<u64> {
            self.heard_at
        }
    }

    fn ring_with_chords(n: usize) -> graphs::Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
        }
        b.add_edge(0, n / 2);
        b.build()
    }

    fn make(e: &Endpoint) -> Flood {
        Flood { is_source: e.index == 3, heard_at: None, forwarded: false }
    }

    #[test]
    fn async_flood_equals_sync_flood() {
        let g = ring_with_chords(24);
        let (sync_out, sync_report) =
            Session::on(&g).seed(11).limits(RunLimits::rounds(40)).run_with(make);

        for max_delay in [1u64, 7, 31] {
            for sync in SYNC_MODELS {
                let (async_out, report) = Session::on(&g)
                    .seed(11)
                    .engine(Engine::Async {
                        delay: DelayModel::Uniform { max_delay },
                        sync,
                        fault: FaultModel::None,
                        churn: ChurnModel::None,
                    })
                    .limits(RunLimits::rounds(40))
                    .run_with(make);
                assert_eq!(async_out, sync_out, "max_delay = {max_delay}, {sync:?}");
                assert!(report.overhead.virtual_time > 0);
                // Payload-side metrics agree with the synchronous engine's.
                assert_eq!(report.metrics.messages, sync_report.metrics.messages);
                assert_eq!(report.metrics.total_bits, sync_report.metrics.total_bits);
                assert_eq!(report.metrics.max_message_bits, sync_report.metrics.max_message_bits);
            }
        }
    }

    #[test]
    fn synchronizer_overhead_accounted() {
        let g = graphs::Graph::complete(6);
        let make =
            |e: &Endpoint| Flood { is_source: e.index == 0, heard_at: None, forwarded: false };
        let (_, report) =
            Session::on(&g).seed(2).engine(uniform(4)).limits(RunLimits::rounds(10)).run_with(make);
        // α sends one Ack per payload and Safe to every neighbor every
        // pulse: control dominates payloads.
        assert!(report.overhead.control_messages > report.metrics.messages);
        assert!(report.total_bits() > report.metrics.total_bits);
        assert_eq!(report.rounds, 10);
        assert_eq!(report.termination, Termination::RoundLimit);
    }

    #[test]
    fn batched_alpha_pays_less_control_than_alpha() {
        let g = ring_with_chords(24);
        let run = |sync| {
            Session::on(&g)
                .seed(9)
                .engine(Engine::Async {
                    delay: DelayModel::Uniform { max_delay: 5 },
                    sync,
                    fault: FaultModel::None,
                    churn: ChurnModel::None,
                })
                .limits(RunLimits::rounds(30))
                .run_with(make)
        };
        let (alpha_out, alpha) = run(SyncModel::Alpha);
        let (batched_out, batched) = run(SyncModel::BatchedAlpha);
        assert_eq!(alpha_out, batched_out, "synchronizers must agree on outputs");
        assert_eq!(alpha.metrics, batched.metrics, "payload ledger is synchronizer-invariant");
        // The whole point of the batched control plane: a flood run is
        // mostly empty pulses, where α floods Safe per edge and the
        // batched wave pays one message per node.
        assert!(
            batched.overhead.control_messages * 2 <= alpha.overhead.control_messages,
            "batched {} vs alpha {}",
            batched.overhead.control_messages,
            alpha.overhead.control_messages
        );
        assert!(batched.overhead.control_bits < alpha.overhead.control_bits);
    }

    #[test]
    fn fully_loaded_pulses_need_no_batched_control_messages() {
        // Every directed edge carries a payload every pulse, so every
        // edge token is piggybacked and no Safe wave is ever posted.
        struct EchoAll;
        impl Protocol for EchoAll {
            type Msg = Rumor;
            type Output = ();
            fn init(&mut self, ctx: &mut Context<'_, Rumor>) {
                ctx.broadcast(Rumor);
            }
            fn step(&mut self, ctx: &mut Context<'_, Rumor>, inbox: &[(Port, Rumor)]) {
                for &(port, _) in inbox {
                    ctx.send(port, Rumor);
                }
            }
            fn is_idle(&self) -> bool {
                true
            }
            fn output(&self) {}
        }
        let g = ring_with_chords(12);
        let (_, report) = Session::on(&g)
            .seed(4)
            .engine(Engine::Async {
                delay: DelayModel::Uniform { max_delay: 3 },
                sync: SyncModel::BatchedAlpha,
                fault: FaultModel::None,
                churn: ChurnModel::None,
            })
            .limits(RunLimits::rounds(16))
            .run_with(|_| EchoAll);
        assert_eq!(report.overhead.control_messages, 0);
        assert!(report.metrics.messages > 0);
    }

    #[test]
    fn degree_zero_nodes_do_not_deadlock() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1); // node 2 isolated
        let g = b.build();
        let make =
            |e: &Endpoint| Flood { is_source: e.index == 0, heard_at: None, forwarded: false };
        for sync in SYNC_MODELS {
            let (out, _) = Session::on(&g)
                .seed(3)
                .engine(Engine::Async {
                    delay: DelayModel::Uniform { max_delay: 3 },
                    sync,
                    fault: FaultModel::None,
                    churn: ChurnModel::None,
                })
                .limits(RunLimits::rounds(5))
                .run_with(make);
            assert_eq!(out[1], Some(1), "{sync:?}");
            assert_eq!(out[2], None, "{sync:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = ring_with_chords(16);
        let make =
            |e: &Endpoint| Flood { is_source: e.index == 0, heard_at: None, forwarded: false };
        for sync in SYNC_MODELS {
            let run = |seed| {
                Session::on(&g)
                    .seed(seed)
                    .engine(Engine::Async {
                        delay: DelayModel::Uniform { max_delay: 9 },
                        sync,
                        fault: FaultModel::None,
                        churn: ChurnModel::None,
                    })
                    .limits(RunLimits::rounds(30))
                    .run_with(make)
            };
            let (a, ra) = run(7);
            let (b, rb) = run(7);
            assert_eq!(a, b);
            assert_eq!(ra.overhead, rb.overhead);
            assert_eq!(ra.metrics, rb.metrics);
        }
    }

    #[test]
    fn zero_budget_drive_still_initializes() {
        let g = ring_with_chords(8);
        let mut net = Session::on(&g)
            .seed(4)
            .engine(uniform(3))
            .limits(RunLimits::rounds(20))
            .build_with(make);
        let report = net.drive(RunLimits::rounds(0), &mut ());
        assert_eq!(report.rounds, 0);
        // Protocol init ran (as on the synchronous engines): the source
        // already knows the rumor at round 0.
        assert_eq!(net.outputs()[3], Some(0));
        // A later drive enters pulse 1 as if the zero-budget call had
        // never happened.
        net.drive(RunLimits::rounds(20), &mut ());
        let (full, _) =
            Session::on(&g).seed(4).engine(uniform(3)).limits(RunLimits::rounds(20)).run_with(make);
        assert_eq!(net.outputs(), full);
    }

    #[test]
    fn split_budget_equals_one_budget() {
        let g = ring_with_chords(20);
        for sync in SYNC_MODELS {
            let build = || {
                Session::on(&g)
                    .seed(5)
                    .engine(Engine::Async {
                        delay: DelayModel::Uniform { max_delay: 6 },
                        sync,
                        fault: FaultModel::None,
                        churn: ChurnModel::None,
                    })
                    .limits(RunLimits::rounds(30))
                    .build_with(make)
            };
            let mut split = build();
            split.drive(RunLimits::rounds(4), &mut ());
            let split_report = split.drive(RunLimits::rounds(26), &mut ());

            let mut whole = build();
            let whole_report = whole.drive(RunLimits::rounds(30), &mut ());

            assert_eq!(split.outputs(), whole.outputs(), "{sync:?}");
            assert_eq!(split_report.rounds, whole_report.rounds, "{sync:?}");
            // Overheads are not compared: resuming re-enters all nodes at
            // once, which reorders the shared delay-draw stream and with
            // it the virtual times (outputs and the payload ledger are
            // order-blind by design).
            assert_eq!(split_report.metrics, whole_report.metrics, "{sync:?}");
        }
    }

    /// A staged protocol: sends one wave per phase, advances phases at
    /// the barrier, records (wave, round) per delivery.
    #[derive(Debug)]
    struct Staged {
        wave: u32,
        waves: u32,
        heard: Vec<(u32, u64)>,
    }

    #[derive(Clone, Debug)]
    struct Tagged(u32);
    impl Message for Tagged {
        fn bit_size(&self) -> usize {
            8
        }
    }

    impl Protocol for Staged {
        type Msg = Tagged;
        type Output = Vec<(u32, u64)>;
        fn init(&mut self, ctx: &mut Context<'_, Tagged>) {
            ctx.broadcast(Tagged(0));
        }
        fn step(&mut self, ctx: &mut Context<'_, Tagged>, inbox: &[(Port, Tagged)]) {
            for (_, Tagged(w)) in inbox {
                self.heard.push((*w, ctx.round()));
            }
        }
        fn is_idle(&self) -> bool {
            true
        }
        fn on_quiescent(&mut self, ctx: &mut Context<'_, Tagged>) -> bool {
            self.wave += 1;
            if self.wave < self.waves {
                ctx.broadcast(Tagged(self.wave));
                true
            } else {
                false
            }
        }
        fn output(&self) -> Vec<(u32, u64)> {
            self.heard.clone()
        }
    }

    #[test]
    fn phased_run_matches_the_synchronous_quiescence_barriers() {
        let g = ring_with_chords(12);
        let make_staged = |_: &Endpoint| Staged { wave: 0, waves: 3, heard: Vec::new() };

        // Synchronous ground truth: each wave is one round, then the
        // quiescence barrier grants the next phase.
        let (sync_out, sync_report) = Session::on(&g).seed(8).run_with(make_staged);
        assert_eq!(sync_report.termination, Termination::Quiescent);
        assert_eq!(sync_report.metrics.barriers, 2);

        // The §4.1 schedule for that execution: three one-pulse phases.
        let plan = PhasePlan::new().phase("wave0", 1).phase("wave1", 1).phase("wave2", 1);
        for delay in [
            DelayModel::Uniform { max_delay: 5 },
            DelayModel::PerLink { max_delay: 5 },
            DelayModel::HeavyTailed { max_delay: 5 },
            DelayModel::Adversarial { max_delay: 5 },
        ] {
            for sync in SYNC_MODELS {
                let mut net = Session::on(&g)
                    .seed(8)
                    .engine(Engine::Async {
                        delay,
                        sync,
                        fault: FaultModel::None,
                        churn: ChurnModel::None,
                    })
                    .limits(RunLimits::rounds(plan.total_pulses()))
                    .build_with(make_staged);
                let report = net.run_phased(&plan, &mut ());
                assert_eq!(net.outputs(), sync_out, "{delay:?}, {sync:?}");
                assert_eq!(report.termination, Termination::Quiescent, "{delay:?}, {sync:?}");
                assert_eq!(report.metrics, sync_report.metrics, "{delay:?}, {sync:?}");
                if sync == SyncModel::Alpha {
                    // Fully-broadcast waves load every port, so batched α
                    // legitimately pays zero control messages here.
                    assert!(report.overhead.control_messages > 0, "{delay:?}");
                }
            }
        }
    }

    #[test]
    fn under_budgeted_plan_reports_round_limit() {
        let g = ring_with_chords(10);
        let make_staged = |_: &Endpoint| Staged { wave: 0, waves: 4, heard: Vec::new() };
        // Only two of the four waves are scheduled: the closing barrier
        // still wants to resume, so the plan ran out of schedule.
        let plan = PhasePlan::new().phase("wave0", 1).phase("wave1", 1);
        let mut net = Session::on(&g)
            .seed(2)
            .engine(uniform(3))
            .limits(RunLimits::rounds(plan.total_pulses()))
            .build_with(make_staged);
        let report = net.run_phased(&plan, &mut ());
        assert_eq!(report.termination, Termination::RoundLimit);
        assert_eq!(report.rounds, 2);
        assert_eq!(report.metrics.barriers, 2, "both scheduled barriers were taken");
    }
}
