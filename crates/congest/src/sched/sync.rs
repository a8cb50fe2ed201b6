//! The synchronizer layer: pluggable pulse-gating control planes for the
//! asynchronous executor.
//!
//! The asynchronous engine (`crate::asynch`) is split in two:
//!
//! * the **executor core** owns the mechanics — the flat payload
//!   queues, the rotating per-pulse inboxes, and the act of stepping
//!   protocols — plus the `Wire`: the CSR route table, the (faulty)
//!   link every envelope leaves through, and the timing wheel of
//!   in-flight envelopes; and
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

/// Control-message kinds a synchronizer may put on the wire. Their
/// meaning belongs to the synchronizer that sent them; the executor only
/// routes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum CtrlKind {
    /// Receipt acknowledgment for one payload (α).
    Ack,
    /// "This edge (or this node) is clear for the tagged pulse."
    Safe,
}

impl CtrlKind {
    /// The public trace tag for this kind.
    fn tag(self) -> CtrlTag {
        match self {
            CtrlKind::Ack => CtrlTag::Ack,
            CtrlKind::Safe => CtrlTag::Safe,
        }
    }
}

/// One control envelope: kind plus the pulse it talks about.
#[derive(Clone, Copy, Debug, Hash)]
pub(crate) struct Ctrl {
    pub kind: CtrlKind,
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

/// One in-flight event on the timing wheel.
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
    /// The current virtual time: the arrival time of the event being
    /// handled. Envelopes sent now depart at this time.
    #[inline]
    pub fn now(&self) -> u64 {
        self.events.cursor()
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
            self.overhead.retransmissions += 1;
            self.overhead.dropped_messages += 1;
            self.trace(TraceEvent::Dropped { node: from as u32, port: port as u32 });
            let at = now + self.faults.sampler.retry_wait(slot, now);
            self.events.schedule(at, Event::Resend { from: from as u32, port: port as u32, msg });
            return;
        }
        let at = now + self.delays.draw(slot);
        self.events.schedule(at, Event::Deliver { to, port: back, msg });
    }

    /// Sends `ctrl` out of node `from`'s local `port` over the same
    /// (faulty) wire payloads ride, so a dropped control envelope is
    /// retransmitted like any payload. Metering is separate
    /// ([`Wire::meter_ctrl`]): α meters on receipt, coalesced waves
    /// meter once at emission.
    #[inline]
    pub fn send_ctrl(&mut self, from: usize, port: Port, ctrl: Ctrl) {
        self.transmit(from, port, SyncMsg::Ctrl(ctrl));
        self.trace(TraceEvent::Ctrl {
            node: from as u32,
            kind: ctrl.kind.tag(),
            pulse: ctrl.pulse,
            bits: ENVELOPE_BITS as u32,
        });
    }

    /// Accounts `messages` control messages (and their envelopes) in
    /// [`SyncOverhead`].
    #[inline]
    pub fn meter_ctrl(&mut self, messages: u64) {
        self.overhead.control_messages += messages;
        self.overhead.control_bits += messages * ENVELOPE_BITS as u64;
    }
}

/// Synchronizer α, extracted verbatim from the pre-split engine.
///
/// Per pulse and node: payloads are sent, each is `Ack`ed by its
/// receiver; once all of the node's payloads are acknowledged it floods
/// `Safe { pulse }` on every incident edge; a node executes `pulse` when
/// it has announced its own safety and every neighbor's `Safe` arrived.
/// Control metering happens on receipt, exactly as before the split —
/// the golden-ledger test in `tests/asynchrony.rs` pins the whole
/// observable surface (outputs, payload ledger, `SyncOverhead` including
/// `virtual_time`) bit for bit.
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
    fn try_announce_safe<M>(&mut self, wire: &mut Wire<M>, v: usize, pulse: u64) {
        if self.safe_sent[v] || self.pending_acks[v] > 0 {
            return;
        }
        self.safe_sent[v] = true;
        for port in 0..wire.degree(v) {
            wire.send_ctrl(v, port, Ctrl { kind: CtrlKind::Safe, pulse });
        }
    }

    /// Node `v` entered `pulse` and sent `sent` payloads: it announces
    /// safety once all of them are acknowledged (at once, if none).
    fn on_pulse_begun<M>(&mut self, wire: &mut Wire<M>, v: usize, pulse: u64, sent: usize) {
        self.pending_acks[v] = sent;
        self.safe_sent[v] = false;
        self.try_announce_safe(wire, v, pulse);
    }

    /// A pulse-`pulse` payload arrived at `v` on `port`: acknowledge it
    /// back over the same edge.
    fn on_payload<M>(&self, wire: &mut Wire<M>, v: usize, port: Port, pulse: u64) {
        wire.send_ctrl(v, port, Ctrl { kind: CtrlKind::Ack, pulse });
    }

    /// A control envelope arrived at node `v`, currently waiting on
    /// `node_pulse`; α meters control traffic on receipt.
    fn on_ctrl<M>(&mut self, wire: &mut Wire<M>, v: usize, node_pulse: u64, ctrl: Ctrl) {
        wire.meter_ctrl(1);
        match ctrl.kind {
            CtrlKind::Ack => {
                debug_assert_eq!(ctrl.pulse, node_pulse, "ack for a stale pulse");
                self.pending_acks[v] -= 1;
                self.try_announce_safe(wire, v, node_pulse);
            }
            CtrlKind::Safe => {
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
    pub fn on_pulse_begun<M>(&mut self, wire: &mut Wire<M>, v: usize, pulse: u64, sent: usize) {
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
    pub fn on_ctrl<M>(&mut self, wire: &mut Wire<M>, v: usize, node_pulse: u64, ctrl: Ctrl) {
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
