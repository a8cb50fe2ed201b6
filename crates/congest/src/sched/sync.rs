//! The synchronizer layer: pluggable pulse-gating control planes for the
//! asynchronous executor.
//!
//! The asynchronous engine (`crate::asynch`) is split in two:
//!
//! * the **executor core** owns the mechanics — the flat payload
//!   queues, the rotating per-pulse inboxes, and the act of stepping
//!   protocols — plus the `Wire`: the CSR route table, the (faulty)
//!   link every envelope leaves through, and the timing wheel of
//!   in-flight envelopes, where a broadcast travels as delay runs (see
//!   below); and
//! * the **synchronizer** (`SyncDriver`) owns the *control plane*: it
//!   observes every payload sent and received, emits whatever control
//!   traffic its discipline requires through the wire, accounts that
//!   traffic in [`SyncOverhead`], and decides, per node, when a pulse
//!   may execute.
//!
//! Two synchronizers exist, selected by the public [`SyncModel`] knob
//! on `Engine::Async { delay, sync, .. }`:
//!
//! * [`SyncModel::Alpha`] — Awerbuch's classic synchronizer α, extracted
//!   from the pre-split engine **bit for bit**: every payload is
//!   acknowledged, a node floods `Safe` on every incident edge once its
//!   pulse's payloads are all acknowledged, and a node executes pulse `r`
//!   when every neighbor reported safe for `r`. Simple and fully
//!   message-driven, but an *empty* pulse still floods `Safe` over every
//!   directed edge — the "α tax" is `O(m)` control messages per pulse no
//!   matter how little the protocol says.
//! * [`SyncModel::BatchedAlpha`] — a quiescence-aware variant that cuts
//!   that tax. Per directed edge and pulse, CONGEST delivers at most one
//!   payload, so the payload itself can *piggyback* the edge's safety
//!   certificate: arrival of the (unique) pulse-`r` payload on an edge
//!   proves the edge clear for `r`, with no `Ack` and no `Safe` behind
//!   it. Edges that carry no payload are cleared by a **coalesced Safe
//!   wave**: a node posts one `Safe` announcement per pulse covering all
//!   of its idle ports at once — metered as a single control message —
//!   and the simulator resolves the wave's bookkeeping eagerly instead of
//!   materializing one event per idle edge. A pulse therefore costs
//!   control traffic proportional to the nodes that are *present*
//!   (`O(n)` worst case, and zero events for the fully idle part of the
//!   network), not `O(m)`; payload-carrying edges pay no control
//!   messages at all.
//!
//! Both synchronizers preserve the executor's output contract: per-node
//! outputs and the payload-side `Metrics` are **bit-identical** to the
//! synchronous engines for the same seed and budget, under every
//! [`DelayModel`](crate::sched::DelayModel). Only [`SyncOverhead`] — the
//! control plane's own cost — differs between them, which is the point.
//!
//! # Delay runs
//!
//! A broadcast — a node's payload record, or α's `Safe` flood — is one
//! `Event::Run` per distinct delay its copies drew, not one event per
//! port. `Wire::begin_broadcast` opens it; `Wire::send_copy` gives each
//! port, in port order, the fault check and delay draw `Wire::transmit`
//! gives a single envelope, so the fault and delay streams advance
//! exactly as for per-port sends; `Wire::end_broadcast` lays the copies
//! out in the sender's CSR row of the pulse parity's run rows, grouped
//! stably by delay, and schedules one run per group. A lost copy
//! schedules the groups gathered before it first, then its
//! `Event::Resend`, so every bucket holds the same envelopes in the same
//! order as with one event per copy — a `LinkFlap` retry can land inside
//! the delay horizon, in a bucket a run also occupies. The executor
//! delivers a run's copies one by one, each as a single envelope would
//! be delivered. The wire counts envelopes in flight (`Wire::in_flight`,
//! a run counting its undelivered copies), which is what the run
//! profile's wheel occupancy reads. The ±1 skew argument below frees a
//! node's parity-`r` row and record slot before the node broadcasts for
//! pulse `r + 2`: its pulse-`r` copies have all arrived by then.
//!
//! # Safety argument (why `BatchedAlpha` is still a synchronizer)
//!
//! Node `v` executes pulse `r` once it holds one *token* per incident
//! edge for `r`: either the edge's unique pulse-`r` payload or its
//! `Safe`-wave clear. A neighbor `u` emits its pulse-`r` tokens exactly
//! when it *enters* pulse `r`, which it does only after executing
//! `r − 1` — so `v` executing `r` implies every neighbor entered `r`,
//! and `u` entering `r + 1` implies every neighbor entered `r`. That is
//! the same ±1 pulse-skew invariant as α's, so the executor's
//! parity-indexed inboxes and two-slot token counters remain exact, and
//! a pulse executes only after its whole inbox has arrived.

use crate::message::TAG_BITS;
use crate::obs::{emit, CtrlTag, SinkSlot, TraceEvent};
use crate::plane::Topology;
use crate::protocol::Port;
use crate::sched::fault::FaultPlane;
use crate::sched::{DelaySource, EventWheel};
use crate::session::SyncOverhead;

/// Bits reserved for the pulse tag on every synchronizer envelope.
pub(crate) const PULSE_BITS: usize = 32;

/// Bits of one control envelope (`Ack`/`Safe`), and of the wrapper added
/// around a payload in flight.
pub(crate) const ENVELOPE_BITS: usize = TAG_BITS + PULSE_BITS;

/// Which synchronizer gates pulses on
/// [`Engine::Async`](crate::Engine::Async).
///
/// All synchronizers produce identical per-node outputs and payload-side
/// [`Metrics`](crate::Metrics) for the same seed and budget; they differ
/// only in the control plane they run — and therefore in the
/// [`SyncOverhead`] they report and the wall-clock they cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncModel {
    /// Classic synchronizer α (Awerbuch): per-payload `Ack`s plus a
    /// per-pulse `Safe` flood on every directed edge. The reference
    /// discipline — fully message-driven, `O(m)` control messages per
    /// pulse even when nothing is sent.
    #[default]
    Alpha,
    /// Quiescence-aware α with safety piggybacked on payloads and idle
    /// edges cleared by one coalesced `Safe` wave per node per pulse:
    /// control cost follows the active frontier, not the edge count.
    /// Outputs and payload metrics stay bit-identical to
    /// [`SyncModel::Alpha`] (and to the synchronous engines); only
    /// [`SyncOverhead`] shrinks.
    ///
    /// Two accounting caveats when comparing overheads across
    /// synchronizers. A wave is metered as **one** control message and
    /// one envelope regardless of how many idle ports it covers — the
    /// model is a posted announcement all neighbors observe (a
    /// broadcast/wave primitive), so `control_messages` compares α's
    /// per-edge messages against per-node announcements; run time (the
    /// `nc_alpha_5k` and `nc_batched_5k` workloads of `perfbench/`) is
    /// the unit-free check. And because the simulator resolves wave
    /// bookkeeping eagerly (no wheel event per idle edge), pure-wave
    /// pulses do not advance `virtual_time` — it tracks payload arrivals
    /// only, so a run's trailing empty pulses leave it frozen where α's
    /// would keep growing.
    BatchedAlpha,
}

impl SyncModel {
    /// Short stable label (bench records, diagnostics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SyncModel::Alpha => "alpha",
            SyncModel::BatchedAlpha => "batched",
        }
    }
}

/// One control envelope: kind plus the pulse it talks about. The kind's
/// meaning belongs to the synchronizer that sent it; the executor only
/// routes it, and a trace records it as is.
#[derive(Clone, Copy, Debug, Hash)]
pub(crate) struct Ctrl {
    pub kind: CtrlTag,
    pub pulse: u64,
}

/// What travels on the asynchronous wire: an application payload wrapped
/// with its pulse tag, or a synchronizer control envelope.
#[derive(Clone, Debug, Hash)]
pub(crate) enum SyncMsg<M> {
    /// An application message to be consumed at `pulse`.
    Payload { pulse: u64, msg: M },
    /// A synchronizer control envelope.
    Ctrl(Ctrl),
}

impl<M: Clone> SyncMsg<&M> {
    /// The envelope with its payload cloned.
    pub fn cloned(self) -> SyncMsg<M> {
        match self {
            SyncMsg::Payload { pulse, msg } => SyncMsg::Payload { pulse, msg: msg.clone() },
            SyncMsg::Ctrl(ctrl) => SyncMsg::Ctrl(ctrl),
        }
    }
}

/// One in-flight event on the timing wheel: a single envelope, a
/// retransmission timer, or a delay run standing for several envelopes
/// of one broadcast.
#[derive(Clone, Debug, Hash)]
pub(crate) enum Event<M> {
    /// An envelope in transit: destination resolved at send time by the
    /// CSR route table, carried in the wheel entry rather than parked in
    /// a side table.
    Deliver {
        /// Destination node.
        to: u32,
        /// The destination node's local receiving port.
        port: u32,
        /// The envelope itself.
        msg: SyncMsg<M>,
    },
    /// A retransmission timer: the attempt to send `msg` out of `from`'s
    /// local `port` was lost to a fault; when the timer fires the
    /// envelope re-enters [`Wire::transmit`] (fresh delay draw, fresh
    /// fault draw).
    Resend {
        /// The original sender.
        from: u32,
        /// The sender's local port.
        port: u32,
        /// The envelope to retransmit.
        msg: SyncMsg<M>,
    },
    /// A delay run: the copies of one broadcast that drew the same delay
    /// and were sent between the same two losses, delivered together in
    /// port order. It stands for one [`Event::Deliver`] per copy, in the
    /// same place in its bucket. The copies' receivers are
    /// `start..end` of the pulse parity's run rows
    /// ([`Wire::run_receiver`]); a payload copy is a clone of the
    /// sender's recorded message ([`Wire::run_msg`]).
    Run {
        /// The broadcasting node.
        from: u32,
        /// First copy's position in the run rows.
        start: u32,
        /// One past the last copy's position.
        end: u32,
        /// The pulse the envelope is tagged with.
        pulse: u64,
        /// Which envelope each copy is.
        kind: RunKind,
    },
}

/// What a delay run's copies carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum RunKind {
    /// The sender's broadcast record, as `SyncMsg::Payload`.
    Payload,
    /// α's per-pulse `Safe` flood.
    Safe,
}

/// A broadcast being sent ([`Wire::begin_broadcast`]): its sender and
/// envelope, and where its next delay runs start in the sender's row.
pub(crate) struct Broadcast {
    from: u32,
    pulse: u64,
    kind: RunKind,
    /// Row position of the first copy not yet in a run.
    next: u32,
}

/// The wire of the asynchronous engine: the executor state synchronizer
/// hooks use next to their own gating state — route lookups, the
/// (faulty) link every envelope leaves through, the shared timing
/// wheel, [`SyncOverhead`] metering, the ready worklist and the trace
/// slot. The executor owns it and hands it to each hook as `&mut`
/// beside `&mut` [`SyncDriver`], two disjoint fields.
#[derive(Clone)]
pub(crate) struct Wire<M> {
    /// CSR route table shared with the synchronous engine.
    pub topo: Topology,
    /// Where per-send delays come from: the compiled link-delay model in
    /// a sampled run, or an explorer-scripted choice sequence (see
    /// [`crate::sched`]).
    pub delays: DelaySource,
    /// The compiled fault model plus the run's loss accounting (see
    /// [`crate::sched::fault`]). Control envelopes ride the same faulty
    /// wire as payloads.
    pub faults: FaultPlane,
    /// In-flight events: the pooled-block timing wheel, sized to the
    /// delay model's compiled bound. Pops come out in `(arrival time,
    /// send order)` order; its cursor is the engine's virtual clock.
    pub events: EventWheel<Event<M>>,
    /// Envelopes in flight: one per wheel event, a delay run counting
    /// its undelivered copies. The profile's wheel occupancy reads this.
    pub in_flight: u64,
    /// Most envelopes ever in flight at once.
    pub max_in_flight: u64,
    /// The delay runs' copies, one array per pulse parity indexed like
    /// the CSR route table: a broadcast for pulse `r` lays its copies
    /// out as `(receiver node, receiver port)` pairs in the sender's row
    /// of array `r % 2`, grouped by delay and in port order within a
    /// group. Neighbors stay within one pulse of each other, so every
    /// copy of a node's pulse-`r` broadcasts has arrived before the node
    /// broadcasts for pulse `r + 2`, and two parities suffice.
    runs: [Box<[(u32, u32)]>; 2],
    /// Each node's latest broadcast record per pulse parity: the one
    /// message its payload runs copy (freed like `runs`).
    records: [Box<[Option<M>]>; 2],
    /// The open broadcast's copies not yet in a run: receiver, receiver
    /// port and drawn delay, in port order (capacity: the largest
    /// degree).
    copies: Vec<(u32, u32, u32)>,
    /// Per delay: how many of `copies` drew it, then the group's write
    /// position (length: the wheel's bound + 1; zero between
    /// broadcasts).
    counts: Box<[u32]>,
    /// The distinct delays among `copies`, in first-drawn order.
    seen: Vec<u32>,
    /// The synchronizer's accumulated overhead.
    pub overhead: SyncOverhead,
    /// Nodes whose pulse gate may have just completed; the executor
    /// drains this worklist (iteratively — no recursion) after every
    /// hook. Only needed for signals resolved eagerly (`BatchedAlpha`'s
    /// waves); wheel-delivered signals wake their destination through
    /// the event loop. Spurious wakes are harmless (the executor
    /// re-checks the gate); a missing one stalls the run.
    pub ready: Vec<u32>,
    /// The observability sink (absent unless the session installed one),
    /// and the only itemized record of fault and churn events.
    /// Recording is a pure observation: it never draws randomness,
    /// meters traffic, or reorders events.
    pub rec: SinkSlot,
}

impl<M> Wire<M> {
    /// The wire over `topo`: its delays, its faults, and a timing wheel
    /// spanning the *compiled* delay bound — what the sampler can
    /// actually draw for this plane, never more than the model's declared
    /// `max_delay` and tighter for the per-port models — widened to the
    /// fault model's retransmission bound so parked resend timers always
    /// fit the horizon. The run rows, the record slots and the broadcast
    /// scratch are sized here, once.
    pub fn new(topo: Topology, delays: DelaySource, faults: FaultPlane) -> Self {
        let n = topo.node_count();
        let bound = delays.compiled_bound().max(faults.sampler.retry_bound());
        let max_degree = topo.offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max();
        let rows = || vec![(0, 0); topo.port_count()].into_boxed_slice();
        let records = || std::iter::repeat_with(|| None).take(n).collect();
        Self {
            events: EventWheel::new(bound),
            in_flight: 0,
            max_in_flight: 0,
            runs: [rows(), rows()],
            records: [records(), records()],
            copies: Vec::with_capacity(max_degree.unwrap_or(0)),
            counts: vec![0; bound as usize + 1].into_boxed_slice(),
            seen: Vec::with_capacity(max_degree.unwrap_or(0).min(bound as usize)),
            topo,
            delays,
            faults,
            overhead: SyncOverhead::default(),
            // Gate completions happen once per (node, pulse) and at most
            // two pulses are live per node (the ±1 skew bound), so a
            // node has at most two outstanding wakes; `2n` capacity
            // keeps the worklist allocation-free forever.
            ready: Vec::with_capacity(2 * n),
            rec: None,
        }
    }

    /// The current virtual time: the arrival time of the event being
    /// handled. Envelopes sent now depart at this time.
    #[inline]
    pub fn now(&self) -> u64 {
        self.events.cursor()
    }

    /// Puts `event`, which carries `envelopes` envelopes, on the wheel at
    /// time `at`.
    #[inline]
    fn schedule(&mut self, at: u64, event: Event<M>, envelopes: u64) {
        self.events.schedule(at, event);
        self.in_flight += envelopes;
        self.max_in_flight = self.max_in_flight.max(self.in_flight);
    }

    /// Records `ev` at the current virtual time, if tracing is on.
    #[inline]
    pub fn trace(&mut self, ev: TraceEvent) {
        let now = self.now();
        emit(&mut self.rec, now, ev);
    }

    /// Meters one application payload lost to a crash at node `v`'s
    /// local `port` and records it as [`TraceEvent::Lost`].
    pub fn lose(&mut self, v: usize, port: Port) {
        self.faults.lost += 1;
        self.overhead.dropped_messages += 1;
        self.trace(TraceEvent::Lost { node: v as u32, port: port as u32 });
    }

    /// Meters one application payload retired by a membership change at
    /// node `v`'s local `port` and records it as [`TraceEvent::Retired`].
    pub fn retire(&mut self, v: usize, port: Port) {
        self.overhead.retired_messages += 1;
        self.trace(TraceEvent::Retired { node: v as u32, port: port as u32 });
    }

    /// Degree of node `v` (its port count in the CSR table).
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.topo.offsets[v + 1] - self.topo.offsets[v]) as usize
    }

    /// The one wire choke point: every envelope — application payload or
    /// synchronizer control — leaves node `from`'s local `port` through
    /// here. The fault plane rules first: a lost attempt is metered
    /// (`SyncOverhead::retransmissions`, `SyncOverhead::dropped_messages`),
    /// recorded as [`TraceEvent::Dropped`], and parked as an
    /// [`Event::Resend`] timer (the RTO under `Drop`, the next up-edge
    /// under `LinkFlap`); a clean attempt rides the wheel as an
    /// [`Event::Deliver`] after the delay model's draw, keyed by the
    /// sending port's CSR slot.
    #[inline]
    pub fn transmit(&mut self, from: usize, port: Port, msg: SyncMsg<M>) {
        let now = self.now();
        let (slot, to, back) = self.topo.resolve(from, port);
        if self.faults.sampler.drops(slot, now) {
            self.lose_attempt(from, port, slot, msg);
            return;
        }
        let at = now + self.delays.draw(slot);
        self.schedule(at, Event::Deliver { to, port: back, msg }, 1);
    }

    /// The attempt to send `msg` out of node `from`'s local `port` (CSR
    /// `slot`) was lost on the wire: meter it, record it, and park its
    /// retransmission timer.
    fn lose_attempt(&mut self, from: usize, port: Port, slot: usize, msg: SyncMsg<M>) {
        let now = self.now();
        self.overhead.retransmissions += 1;
        self.overhead.dropped_messages += 1;
        self.trace(TraceEvent::Dropped { node: from as u32, port: port as u32 });
        let at = now + self.faults.sampler.retry_wait(slot, now);
        self.schedule(at, Event::Resend { from: from as u32, port: port as u32, msg }, 1);
    }

    /// Sends `ctrl` out of node `from`'s local `port` over the same
    /// (faulty) wire payloads ride, so a dropped control envelope is
    /// retransmitted like any payload. Metering is separate
    /// ([`Wire::meter_ctrl`]): α meters on receipt, coalesced waves
    /// meter once at emission.
    #[inline]
    pub fn send_ctrl(&mut self, from: usize, port: Port, ctrl: Ctrl) {
        self.transmit(from, port, SyncMsg::Ctrl(ctrl));
        self.trace_ctrl(from, ctrl);
    }

    /// Records node `from`'s sending of `ctrl`.
    #[inline]
    fn trace_ctrl(&mut self, from: usize, ctrl: Ctrl) {
        self.trace(TraceEvent::Ctrl {
            node: from as u32,
            kind: ctrl.kind,
            pulse: ctrl.pulse,
            bits: ENVELOPE_BITS as u32,
        });
    }

    /// The receiver and receiving port of the delay-run copy at `index`
    /// of pulse `pulse`'s run rows.
    #[inline]
    pub fn run_receiver(&self, pulse: u64, index: u32) -> (u32, u32) {
        self.runs[(pulse & 1) as usize][index as usize]
    }

    /// The message a copy of `from`'s pulse-`pulse` delay run of `kind`
    /// carries: its recorded payload, or its `Safe`.
    pub fn run_msg(&self, from: u32, pulse: u64, kind: RunKind) -> SyncMsg<&M> {
        match kind {
            RunKind::Payload => SyncMsg::Payload {
                pulse,
                msg: self.records[(pulse & 1) as usize][from as usize]
                    .as_ref()
                    .expect("a payload run's sender holds its record"),
            },
            RunKind::Safe => SyncMsg::Ctrl(Ctrl { kind: CtrlTag::Safe, pulse }),
        }
    }

    /// Accounts `messages` control messages (and their envelopes) in
    /// [`SyncOverhead`].
    #[inline]
    pub fn meter_ctrl(&mut self, messages: u64) {
        self.overhead.control_messages += messages;
        self.overhead.control_bits += messages * ENVELOPE_BITS as u64;
    }
}

impl<M: Clone> Wire<M> {
    /// Opens a broadcast of `msg` — a payload record or α's `Safe` —
    /// from node `from`. Each [`Wire::send_copy`] then sends one copy
    /// through the checks [`Wire::transmit`] makes, and
    /// [`Wire::end_broadcast`] puts what is left on the wheel: one
    /// [`Event::Run`] per distinct delay drawn, not one event per port.
    pub fn begin_broadcast(&mut self, from: usize, msg: SyncMsg<M>) -> Broadcast {
        debug_assert!(self.copies.is_empty(), "broadcasts do not nest");
        let (pulse, kind) = match msg {
            SyncMsg::Payload { pulse, msg } => {
                self.records[(pulse & 1) as usize][from] = Some(msg);
                (pulse, RunKind::Payload)
            }
            SyncMsg::Ctrl(Ctrl { kind: CtrlTag::Safe, pulse }) => (pulse, RunKind::Safe),
            SyncMsg::Ctrl(Ctrl { kind: CtrlTag::Ack, .. }) => {
                unreachable!("Acks are not broadcast")
            }
        };
        Broadcast { from: from as u32, pulse, kind, next: self.topo.offsets[from] }
    }

    /// Sends the open broadcast's copy out of its sender's local `port`,
    /// whose route ([`Topology::resolve`]) the caller has read: the fault
    /// check and the delay draw of [`Wire::transmit`], in the same order,
    /// so both random streams advance as for a per-port send. A
    /// delivered copy joins its delay's group. A lost one puts the
    /// groups gathered so far on the wheel before its retransmission
    /// timer, which therefore keeps its place in its bucket — a
    /// `LinkFlap` retry can share a bucket with the runs around it.
    #[inline]
    pub fn send_copy(&mut self, b: &mut Broadcast, port: Port, route: (usize, u32, u32)) {
        let now = self.now();
        let (slot, to, back) = route;
        if self.faults.sampler.drops(slot, now) {
            self.flush(b);
            let msg = self.run_msg(b.from, b.pulse, b.kind).cloned();
            self.lose_attempt(b.from as usize, port, slot, msg);
            return;
        }
        let delay = self.delays.draw(slot) as u32;
        let count = &mut self.counts[delay as usize];
        if *count == 0 {
            self.seen.push(delay);
        }
        *count += 1;
        self.copies.push((to, back, delay));
    }

    /// Sends node `from`'s `Safe { pulse }` on every incident edge, as
    /// delay runs.
    pub fn flood_safe(&mut self, from: usize, pulse: u64) {
        let ctrl = Ctrl { kind: CtrlTag::Safe, pulse };
        let mut b = self.begin_broadcast(from, SyncMsg::Ctrl(ctrl));
        for port in 0..self.degree(from) {
            let route = self.topo.resolve(from, port);
            self.send_copy(&mut b, port, route);
            self.trace_ctrl(from, ctrl);
        }
        self.end_broadcast(b);
    }

    /// Closes the broadcast: its remaining groups go on the wheel.
    pub fn end_broadcast(&mut self, mut b: Broadcast) {
        self.flush(&mut b);
        debug_assert!(b.next <= self.topo.offsets[b.from as usize + 1], "runs overran the row");
    }

    /// Lays the gathered copies out in the sender's row, grouped stably
    /// by delay, and schedules one [`Event::Run`] per group.
    fn flush(&mut self, b: &mut Broadcast) {
        if self.copies.is_empty() {
            return;
        }
        // Each group takes the next stretch of the row, in the order its
        // delay was first drawn; its count becomes its write position.
        let mut at = b.next;
        for &delay in &self.seen {
            let count = std::mem::replace(&mut self.counts[delay as usize], at);
            at += count;
        }
        let row = &mut self.runs[(b.pulse & 1) as usize];
        for &(to, back, delay) in &self.copies {
            let pos = &mut self.counts[delay as usize];
            row[*pos as usize] = (to, back);
            *pos += 1;
        }
        // A group ends at its write position and starts where the one
        // before it ended.
        let now = self.now();
        for i in 0..self.seen.len() {
            let delay = self.seen[i];
            let end = std::mem::take(&mut self.counts[delay as usize]);
            let run = Event::Run { from: b.from, start: b.next, end, pulse: b.pulse, kind: b.kind };
            self.schedule(now + u64::from(delay), run, u64::from(end - b.next));
            b.next = end;
        }
        self.seen.clear();
        self.copies.clear();
    }
}

/// Synchronizer α, extracted verbatim from the pre-split engine.
///
/// Per pulse and node: payloads are sent, each is `Ack`ed by its
/// receiver; once all of the node's payloads are acknowledged it floods
/// `Safe { pulse }` on every incident edge; a node executes `pulse` when
/// it has announced its own safety and every neighbor's `Safe` arrived.
/// The flood goes out as delay runs ([`Wire::flood_safe`]): one wheel
/// event per distinct delay its copies drew, each copy still a `Safe`
/// of its own to the receiver. Control metering happens per envelope on
/// receipt, exactly as before the split — the golden-ledger tests in
/// `tests/asynchrony.rs` pin the whole observable surface (outputs,
/// payload ledger, `SyncOverhead` including `virtual_time`) bit for bit,
/// under faults and churn too.
#[derive(Clone, Debug, Hash)]
pub(crate) struct Alpha {
    /// Unacknowledged payloads of the current pulse's send phase.
    pending_acks: Vec<usize>,
    /// Whether `Safe` for the current pulse's sends has been emitted.
    safe_sent: Vec<bool>,
    /// Count of neighbors known safe, indexed by pulse parity: α keeps
    /// neighbors within one pulse, so at most two pulses' counts are
    /// ever live, and executing pulse `r` retires slot `r % 2` for reuse
    /// by pulse `r + 2`.
    safe_counts: Vec<[usize; 2]>,
}

impl Alpha {
    pub fn new(n: usize) -> Self {
        Self { pending_acks: vec![0; n], safe_sent: vec![false; n], safe_counts: vec![[0, 0]; n] }
    }

    /// Floods `Safe { pulse }` on every incident edge once the node has
    /// no unacknowledged payloads left (and has not announced yet).
    fn try_announce_safe<M: Clone>(&mut self, wire: &mut Wire<M>, v: usize, pulse: u64) {
        if self.safe_sent[v] || self.pending_acks[v] > 0 {
            return;
        }
        self.safe_sent[v] = true;
        wire.flood_safe(v, pulse);
    }

    /// Node `v` entered `pulse` and sent `sent` payloads: it announces
    /// safety once all of them are acknowledged (at once, if none).
    fn on_pulse_begun<M: Clone>(&mut self, wire: &mut Wire<M>, v: usize, pulse: u64, sent: usize) {
        self.pending_acks[v] = sent;
        self.safe_sent[v] = false;
        self.try_announce_safe(wire, v, pulse);
    }

    /// A pulse-`pulse` payload arrived at `v` on `port`: acknowledge it
    /// back over the same edge.
    fn on_payload<M>(&self, wire: &mut Wire<M>, v: usize, port: Port, pulse: u64) {
        wire.send_ctrl(v, port, Ctrl { kind: CtrlTag::Ack, pulse });
    }

    /// A control envelope arrived at node `v`, currently waiting on
    /// `node_pulse`; α meters control traffic on receipt.
    fn on_ctrl<M: Clone>(&mut self, wire: &mut Wire<M>, v: usize, node_pulse: u64, ctrl: Ctrl) {
        wire.meter_ctrl(1);
        match ctrl.kind {
            CtrlTag::Ack => {
                debug_assert_eq!(ctrl.pulse, node_pulse, "ack for a stale pulse");
                self.pending_acks[v] -= 1;
                self.try_announce_safe(wire, v, node_pulse);
            }
            CtrlTag::Safe => {
                // Safe{r} from a neighbor certifies all its pulse-r
                // payloads arrived; it gates the receiver's own pulse r.
                // The ±1 skew argument bounds the live pulses to two, so
                // parity addressing is exact.
                debug_assert!(
                    ctrl.pulse == node_pulse || ctrl.pulse == node_pulse + 1,
                    "Safe outside the two-pulse horizon"
                );
                self.safe_counts[v][(ctrl.pulse & 1) as usize] += 1;
            }
        }
    }

    fn ready(&self, v: usize, pulse: u64, degree: usize) -> bool {
        self.safe_sent[v] && self.safe_counts[v][(pulse & 1) as usize] >= degree
    }

    fn on_executed(&mut self, v: usize, pulse: u64) {
        // Retire this pulse's slot; it next serves pulse + 2 (no further
        // `Safe { pulse }` can arrive: execution required all `degree`
        // of them, and each neighbor sends one per pulse).
        self.safe_counts[v][(pulse & 1) as usize] = 0;
    }
}

/// Quiescence-aware α: per-edge safety tokens, piggybacked on payloads,
/// with idle ports cleared by one coalesced `Safe` wave per node per
/// pulse.
///
/// In CONGEST each directed edge carries at most one payload per pulse,
/// so node `v` may execute pulse `r` once it holds **one token per
/// incident edge**: the edge's unique pulse-`r` payload (its arrival is
/// the safety certificate — no `Ack`, no trailing `Safe`), or the
/// edge's share of the sender's pulse-`r` Safe wave. A node entering a
/// pulse posts a single wave covering *all* of its idle ports at once —
/// metered as one control message — and the simulator resolves the
/// wave's per-edge bookkeeping eagerly instead of materializing one
/// wheel event per idle edge, which is what makes sparse and empty
/// pulses cheap in wall-clock as well as in the ledger.
///
/// The gate structure (tokens emitted on pulse entry, execution only on
/// a full token set) preserves α's ±1 neighbor-skew invariant, so
/// outputs and payload metrics stay bit-identical to the synchronous
/// engines — pinned by the grid and property tests in
/// `crates/core/tests/`.
#[derive(Clone, Debug, Hash)]
pub(crate) struct BatchedAlpha {
    /// Whether the node has entered (sent the tokens of) its current
    /// pulse — gates execution during the entry sweep, when eager waves
    /// from earlier nodes may complete a token set before the node
    /// itself has begun.
    begun: Vec<bool>,
    /// Per-edge tokens received, indexed by pulse parity (the same ±1
    /// skew bound as α's safe counts keeps two slots sufficient).
    tokens: Vec<[u32; 2]>,
}

impl BatchedAlpha {
    pub fn new(n: usize) -> Self {
        Self { begun: vec![false; n], tokens: vec![[0, 0]; n] }
    }

    /// Node `v`, entering `pulse`, has nothing queued on `port`: part of
    /// its pulse wave clears the edge at the receiver eagerly. Delivery
    /// timing of pure clears is unobservable in outputs (the gate, not
    /// the clock, orders execution), so no wheel event is spent on them.
    fn on_idle_port<M>(&mut self, wire: &mut Wire<M>, v: usize, port: Port, pulse: u64) {
        let (_slot, w, _back) = wire.topo.resolve(v, port);
        let slot = &mut self.tokens[w as usize][(pulse & 1) as usize];
        *slot += 1;
        if self.begun[w as usize] && *slot as usize >= wire.degree(w as usize) {
            wire.ready.push(w);
        }
    }

    /// Node `v` entered `pulse` and sent `sent` payloads; if any port
    /// was idle, one coalesced Safe wave covered them all.
    fn on_pulse_begun<M>(&mut self, wire: &mut Wire<M>, v: usize, pulse: u64, sent: usize) {
        self.begun[v] = true;
        if sent < wire.degree(v) {
            wire.meter_ctrl(1);
            wire.trace(TraceEvent::SafeWave { node: v as u32, pulse, bits: ENVELOPE_BITS as u32 });
        }
    }

    /// A pulse-`pulse` payload arrived at `v`: it is its edge's token —
    /// piggybacked safety, nothing to send back.
    fn on_payload(&mut self, v: usize, pulse: u64) {
        self.tokens[v][(pulse & 1) as usize] += 1;
    }

    fn ready(&self, v: usize, pulse: u64, degree: usize) -> bool {
        self.begun[v] && self.tokens[v][(pulse & 1) as usize] as usize >= degree
    }

    fn on_executed(&mut self, v: usize, pulse: u64) {
        self.tokens[v][(pulse & 1) as usize] = 0;
        self.begun[v] = false;
    }
}

/// The engine-held synchronizer, constructed from the public
/// [`SyncModel`] knob. It owns all per-node control state (the
/// synchronizer is network-wide, so a hook for node `v` may update any
/// node's state — that is how eagerly resolved waves work) and all
/// control metering.
///
/// The executor calls the hooks in a fixed shape per node and pulse:
///
/// 1. entering a pulse, it drains one payload per non-empty port (in
///    port order), calling [`SyncDriver::on_idle_port`] for each port
///    with nothing queued, then [`SyncDriver::on_pulse_begun`] once;
/// 2. every delivered payload triggers [`SyncDriver::on_payload`] (the
///    payload is already staged in the pulse inbox), every delivered
///    control envelope [`SyncDriver::on_ctrl`];
/// 3. after any hook, the executor consults [`SyncDriver::ready`] and,
///    while it grants the gate, executes the pulse, calls
///    [`SyncDriver::on_executed`], advances the node and re-enters
///    step 1 — iteratively, alongside the [`Wire::ready`] worklist.
#[derive(Clone, Debug, Hash)]
pub(crate) enum SyncDriver {
    Alpha(Alpha),
    Batched(BatchedAlpha),
}

impl SyncDriver {
    /// Builds the synchronizer state for an `n`-node plane.
    pub fn new(model: SyncModel, n: usize) -> Self {
        match model {
            SyncModel::Alpha => SyncDriver::Alpha(Alpha::new(n)),
            SyncModel::BatchedAlpha => SyncDriver::Batched(BatchedAlpha::new(n)),
        }
    }

    /// The model this driver implements.
    pub fn model(&self) -> SyncModel {
        match self {
            SyncDriver::Alpha(_) => SyncModel::Alpha,
            SyncDriver::Batched(_) => SyncModel::BatchedAlpha,
        }
    }

    /// Node `v`, entering `pulse`, has no payload queued on `port` (α
    /// says nothing per idle port; its Safe flood covers all edges).
    #[inline]
    pub fn on_idle_port<M>(&mut self, wire: &mut Wire<M>, v: usize, port: Port, pulse: u64) {
        if let SyncDriver::Batched(s) = self {
            s.on_idle_port(wire, v, port, pulse);
        }
    }

    /// Node `v` entered `pulse` and sent `sent` payloads (one per
    /// non-empty port).
    #[inline]
    pub fn on_pulse_begun<M: Clone>(
        &mut self,
        wire: &mut Wire<M>,
        v: usize,
        pulse: u64,
        sent: usize,
    ) {
        match self {
            SyncDriver::Alpha(s) => s.on_pulse_begun(wire, v, pulse, sent),
            SyncDriver::Batched(s) => s.on_pulse_begun(wire, v, pulse, sent),
        }
    }

    /// A pulse-`pulse` payload arrived at node `v` on local `port`.
    #[inline]
    pub fn on_payload<M>(&mut self, wire: &mut Wire<M>, v: usize, port: Port, pulse: u64) {
        match self {
            SyncDriver::Alpha(s) => s.on_payload(wire, v, port, pulse),
            SyncDriver::Batched(s) => s.on_payload(v, pulse),
        }
    }

    /// A control envelope arrived at node `v` (currently waiting on
    /// `node_pulse`). Only α puts control envelopes on the wheel.
    #[inline]
    pub fn on_ctrl<M: Clone>(&mut self, wire: &mut Wire<M>, v: usize, node_pulse: u64, ctrl: Ctrl) {
        if let SyncDriver::Alpha(s) = self {
            s.on_ctrl(wire, v, node_pulse, ctrl);
        }
    }

    /// May node `v` (degree `degree`) execute `pulse` now? The executor
    /// guarantees `v` has entered the pulse budget and is not done.
    #[inline]
    pub fn ready(&self, v: usize, pulse: u64, degree: usize) -> bool {
        match self {
            SyncDriver::Alpha(s) => s.ready(v, pulse, degree),
            SyncDriver::Batched(s) => s.ready(v, pulse, degree),
        }
    }

    /// Node `v` executed `pulse`: retire its gating state so the slot
    /// can serve `pulse + 2` (the ±1 skew bound keeps two pulses live).
    #[inline]
    pub fn on_executed(&mut self, v: usize, pulse: u64) {
        match self {
            SyncDriver::Alpha(s) => s.on_executed(v, pulse),
            SyncDriver::Batched(s) => s.on_executed(v, pulse),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::FaultModel;

    /// A wire over a star whose hub, node 0, reaches leaf `i + 1` on its
    /// port `i`, with delays scripted within a bound of 4.
    fn star_wire(leaves: usize, fault: FaultModel, seed: u64) -> Wire<u8> {
        let mut b = graphs::GraphBuilder::new(leaves + 1);
        for leaf in 1..=leaves {
            b.add_edge(0, leaf);
        }
        let topo = Topology::from_graph(&b.build(), 1);
        let faults = FaultPlane::new(fault, seed, topo.port_count(), leaves + 1, 4);
        Wire::new(topo, DelaySource::script(4), faults)
    }

    /// What a popped wheel event holds: a run's receivers in delivery
    /// order, or a retransmission timer's port as `None`.
    fn pop_all(wire: &mut Wire<u8>) -> Vec<(u64, Result<Vec<u32>, u32>)> {
        std::iter::from_fn(|| {
            let (at, event) = wire.events.pop_next()?;
            Some((
                at,
                match event {
                    Event::Run { start, end, pulse, .. } => {
                        Ok((start..end).map(|i| wire.run_receiver(pulse, i).0).collect())
                    }
                    Event::Resend { port, .. } => Err(port),
                    Event::Deliver { .. } => unreachable!("a broadcast sends no single envelope"),
                },
            ))
        })
        .collect()
    }

    #[test]
    fn a_broadcast_makes_one_wheel_entry_per_distinct_delay() {
        let mut wire = star_wire(8, FaultModel::None, 0);
        wire.delays.begin_step(&[2, 1, 2, 3, 1, 2, 4, 1]);
        let mut b = wire.begin_broadcast(0, SyncMsg::Payload { pulse: 1, msg: 7 });
        for port in 0..8 {
            let route = wire.topo.resolve(0, port);
            wire.send_copy(&mut b, port, route);
        }
        wire.end_broadcast(b);
        assert_eq!(wire.delays.step_draws(), 8, "one delay draw per copy");
        assert_eq!(wire.events.pending(), 4, "four distinct delays");
        assert_eq!(wire.in_flight, 8, "a run counts its copies");
        assert!(matches!(
            wire.run_msg(0, 1, RunKind::Payload),
            SyncMsg::Payload { pulse: 1, msg: 7 }
        ));
        // Each run holds its delay's ports in port order: leaf `i + 1`
        // sits behind port `i`.
        assert_eq!(
            pop_all(&mut wire),
            vec![
                (1, Ok(vec![2, 5, 8])),
                (2, Ok(vec![1, 3, 6])),
                (3, Ok(vec![4])),
                (4, Ok(vec![7])),
            ]
        );
    }

    #[test]
    fn a_lost_copy_splits_the_runs_around_its_retransmission_timer() {
        // A seed whose flap phases take exactly one inner hub port down
        // at time 0.
        let flap = FaultModel::LinkFlap { down_len: 3, up_len: 9 };
        let (mut wire, lost) = (0..1000)
            .find_map(|seed| {
                let mut wire = star_wire(8, flap, seed);
                let down: Vec<usize> =
                    (0..8).filter(|&slot| wire.faults.sampler.drops(slot, 0)).collect();
                matches!(down[..], [port] if port > 0 && port < 7).then(|| (wire, down[0]))
            })
            .expect("some seed takes one inner port down");
        // Every delivered copy draws the lost copy's retransmission wait,
        // so the runs before and after it share the timer's bucket.
        let wait = wire.faults.sampler.retry_wait(lost, 0);
        wire.delays.begin_step(&[wait; 7]);
        wire.flood_safe(0, 3);
        assert_eq!(wire.overhead.retransmissions, 1);
        assert_eq!(wire.in_flight, 8, "seven copies in two runs, and the timer");
        let before: Vec<u32> = (1..=lost as u32).collect();
        let after: Vec<u32> = (lost as u32 + 2..=8).collect();
        assert_eq!(
            pop_all(&mut wire),
            vec![(wait, Ok(before)), (wait, Err(lost as u32)), (wait, Ok(after)),]
        );
    }

    #[test]
    fn default_model_is_alpha() {
        assert_eq!(SyncModel::default(), SyncModel::Alpha);
        assert_eq!(SyncDriver::new(SyncModel::default(), 4).model(), SyncModel::Alpha);
        assert_eq!(SyncDriver::new(SyncModel::BatchedAlpha, 4).model(), SyncModel::BatchedAlpha);
    }

    #[test]
    fn model_names_are_stable() {
        // Examples and diagnostics print these labels; keep them stable.
        assert_eq!(SyncModel::Alpha.name(), "alpha");
        assert_eq!(SyncModel::BatchedAlpha.name(), "batched");
    }

    #[test]
    fn alpha_gate_needs_own_announcement_and_all_neighbors() {
        let mut a = Alpha::new(2);
        assert!(!a.ready(0, 1, 2));
        a.safe_sent[0] = true;
        a.safe_counts[0][1] = 1;
        assert!(!a.ready(0, 1, 2), "one of two neighbors safe");
        a.safe_counts[0][1] = 2;
        assert!(a.ready(0, 1, 2));
        a.on_executed(0, 1);
        assert!(!a.ready(0, 3, 2), "executed pulse retires its parity slot");
    }

    #[test]
    fn batched_gate_needs_entry_and_full_token_set() {
        let mut b = BatchedAlpha::new(1);
        b.tokens[0][1] = 3;
        assert!(!b.ready(0, 1, 3), "tokens alone never execute an unentered pulse");
        b.begun[0] = true;
        assert!(b.ready(0, 1, 3));
        b.on_executed(0, 1);
        assert!(!b.ready(0, 3, 3), "execution clears the slot and the entry flag");
    }
}
