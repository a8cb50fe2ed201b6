//! The observability plane: zero-alloc structured tracing, streaming
//! run profiles, and exportable timelines for every engine.
//!
//! The paper's argument is an overhead ledger — synchronizer control
//! traffic versus the synchronous baseline — and until this module the
//! repro could only report end-of-run totals ([`crate::Metrics`],
//! [`crate::SyncOverhead`]). The observability plane records *where
//! inside a run* the α tax, a Safe wave, or a retransmission storm
//! happens, without perturbing the run it watches:
//!
//! * [`TraceSink`] — the recorder: a preallocated ring buffer of
//!   fixed-size [`TraceRecord`]s plus a streaming profile. Every
//!   recording is a pure observation: the sink never draws randomness,
//!   never meters traffic, never reorders events, so an enabled sink
//!   leaves outputs, metrics and overhead bit-identical to a disabled
//!   one. Absent is the default; a disabled sink costs one null check
//!   per site.
//!   Once built, the steady state performs **zero allocations**: ring
//!   pushes within capacity reuse preallocated slots, overflow
//!   overwrites the oldest record (counted, never grown).
//! * [`RunProfile`] — O(1)-per-event aggregates: fixed-bucket
//!   power-of-two histograms ([`Hist`]) over pulse occupancy, delivery
//!   batch sizes, wheel occupancy, and control-vs-payload bits per
//!   pulse frontier, plus running counters and high-water marks. This
//!   is the bounded-metrics machinery the million-node tier needs:
//!   with [`MetricsMode::Streaming`] the O(rounds) per-round history
//!   is dropped and the profile *is* the per-round view.
//! * Exporters — [`TraceSink::to_jsonl`] (line-oriented event log) and
//!   [`TraceSink::to_chrome_json`] (Chrome trace-event JSON that loads
//!   in Perfetto / `chrome://tracing`, one track per node plus a
//!   control-plane track). Both are pure functions of the recorded
//!   ring, built from integers with a stable field order: the same
//!   `(seed, delay, sync, fault, churn)` tuple yields **byte-identical**
//!   exports, so traces can be committed as fixtures exactly like the
//!   PR 7 `DelayTrace`s.
//!
//! Tracing rides the unified session surface:
//! [`crate::Session::trace`] installs a sink, the run attaches a
//! [`RunProfile`] to its [`crate::RunReport`], and
//! [`crate::SessionDriver::trace_sink`] hands the ring back for
//! export. The sink is the only itemized record of the asynchronous
//! engine's fault and churn events ([`TraceEvent::Dropped`], `Lost`,
//! `NodeDown`, `NodeUp`, `Join`, `Leave`, `Retired`), emitted where they
//! happen like every other event; a run whose [`RunProfile::dropped`]
//! is `0` kept them all.
//!
//! # Per-pulse bit attribution
//!
//! In the asynchronous engine pulse numbers are not globally monotone
//! — node A can execute pulse 5 while node B is still in pulse 3 — so
//! an exact per-pulse bit split cannot be computed in O(1) space. The
//! profile instead attributes bits to *frontier advances*: control and
//! payload bits accumulate until the maximum pulse number seen so far
//! advances, then flush into the histograms. Under the synchronous
//! engines the frontier advances exactly once per round, so the
//! distribution is exactly per-round there; under the asynchronous
//! engine it is a deterministic per-frontier-window aggregate. A window
//! is flushed only if it received a record, so a run split over several
//! drives, zero-budget ones included, attributes bits like one drive.

/// How much per-round metrics history a run keeps.
///
/// The default, [`MetricsMode::Full`], preserves the historical
/// behaviour: [`crate::Metrics::messages_per_round`] grows one entry
/// per round — O(rounds) memory. [`MetricsMode::Streaming`] keeps only
/// O(1) running aggregates (totals, current-round count, peak), the
/// million-node prerequisite from the roadmap: the per-round vector
/// stays empty and the [`RunProfile`] histograms become the per-round
/// view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MetricsMode {
    /// Keep the full O(rounds) per-round history (the default; all
    /// equivalence suites run in this mode unchanged).
    #[default]
    Full,
    /// Keep only O(1) running aggregates; `messages_per_round` stays
    /// empty.
    Streaming,
}

/// Configuration for a [`TraceSink`] installed via
/// [`crate::Session::trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in records. The ring is preallocated once
    /// at build time; when full, the oldest record is overwritten (and
    /// counted in [`RunProfile::dropped`]). A capacity of `0` keeps
    /// only the streaming profile — no timeline, still zero-alloc.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { capacity: 1 << 16 }
    }
}

impl TraceConfig {
    /// A config retaining up to `capacity` records.
    pub fn events(capacity: usize) -> Self {
        Self { capacity }
    }

    /// A profile-only config: streaming aggregates, no timeline ring.
    pub fn profile_only() -> Self {
        Self { capacity: 0 }
    }
}

/// Which control envelope a [`TraceEvent::Ctrl`] send carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CtrlTag {
    /// A per-payload acknowledgement (synchronizer α).
    Ack,
    /// A safety announcement (`Safe` flood or its batched carrier).
    Safe,
}

impl CtrlTag {
    fn name(self) -> &'static str {
        match self {
            CtrlTag::Ack => "ack",
            CtrlTag::Safe => "safe",
        }
    }
}

/// One typed, fixed-size trace event. Every variant is `Copy` and
/// carries only integers: recording never touches the allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node began a pulse, sending `sent` payload messages.
    PulseBegin {
        /// The node beginning the pulse.
        node: u32,
        /// The 1-based pulse number.
        pulse: u64,
        /// Payload messages sent at pulse begin.
        sent: u32,
    },
    /// A node executed a pulse over a delivery batch of `batch`
    /// messages.
    PulseExec {
        /// The executing node.
        node: u32,
        /// The 1-based pulse number executed.
        pulse: u64,
        /// Delivery batch size (messages handed to the protocol).
        batch: u32,
    },
    /// A payload message was delivered.
    Payload {
        /// The receiving node.
        node: u32,
        /// The sender's pulse number stamped on the envelope.
        pulse: u64,
        /// Payload bits.
        bits: u32,
    },
    /// A pure control envelope was sent.
    Ctrl {
        /// The sending node.
        node: u32,
        /// Which control message.
        kind: CtrlTag,
        /// The pulse the envelope refers to.
        pulse: u64,
        /// Envelope bits metered for the send.
        bits: u32,
    },
    /// A coalesced Safe wave was metered (one per node per pulse under
    /// `BatchedAlpha`, replacing the per-edge `Safe` flood).
    SafeWave {
        /// The announcing node.
        node: u32,
        /// The pulse the wave covers.
        pulse: u64,
        /// Envelope bits metered for the wave.
        bits: u32,
    },
    /// A retransmit timer fired and the payload was re-sent.
    Retransmit {
        /// The retransmitting node.
        node: u32,
        /// The node-local port being retried.
        port: u32,
    },
    /// A send attempt left `node`'s local `port` and was lost on the
    /// wire; a retransmission has been scheduled (masked faults).
    Dropped {
        /// The sending node.
        node: u32,
        /// The sender's local port.
        port: u32,
    },
    /// An application payload was lost to a crash: discarded from
    /// crashing `node`'s queue on `port`, or delivered on `port` during
    /// one of its crashed pulses. Never retransmitted.
    Lost {
        /// The crashed node.
        node: u32,
        /// The node's local port.
        port: u32,
    },
    /// `node` crashed on entering `pulse`: its queues were discarded and
    /// its protocol is silent until recovery.
    NodeDown {
        /// The crashing node.
        node: u32,
        /// First crashed pulse.
        pulse: u64,
    },
    /// `node` recovered on entering `pulse`, with empty queues and the
    /// protocol state it had at the crash.
    NodeUp {
        /// The recovering node.
        node: u32,
        /// First recovered pulse.
        pulse: u64,
    },
    /// A node joined the member set (membership churn), opening a new
    /// epoch; its protocol was initialized at that pulse.
    Join {
        /// The joining node.
        node: u32,
        /// The pulse the node joined on entering.
        pulse: u64,
        /// The epoch the join opened (1-based).
        epoch: u64,
        /// Present members after the join.
        members: u32,
    },
    /// A node left the member set (membership churn), opening a new
    /// epoch; its queued payloads follow as [`TraceEvent::Retired`].
    Leave {
        /// The leaving node.
        node: u32,
        /// The pulse the node left on entering.
        pulse: u64,
        /// The epoch the leave opened (1-based).
        epoch: u64,
        /// Present members after the leave.
        members: u32,
    },
    /// An application payload was retired by a membership change —
    /// drained from a retired port or swallowed at delivery to an
    /// absent node. One record per retired payload.
    Retired {
        /// The node whose port the payload was retired at.
        node: u32,
        /// The node-local port.
        port: u32,
    },
    /// A phase boundary was crossed (`run_phased`).
    Phase {
        /// Zero-based index of the phase that just completed.
        index: u32,
        /// The pulse budget that phase consumed.
        budget: u64,
    },
    /// A synchronous round completed (flat / legacy engines).
    Round {
        /// The 1-based round number.
        round: u64,
        /// Messages delivered this round.
        messages: u64,
        /// Payload bits delivered this round.
        bits: u64,
    },
}

/// A timestamped [`TraceEvent`]. `at` is virtual time under the
/// asynchronous engine and the round number under the synchronous
/// engines; records are emitted in nondecreasing `at` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Event timestamp (virtual time or round).
    pub at: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// The engine-side recorder slot: absent by default (one null check per
/// instrumentation site, nothing else), boxed when tracing is on so
/// engine structs stay small and cloneable.
pub(crate) type SinkSlot = Option<Box<TraceSink>>;

/// Record `ev` into `slot` if tracing is enabled. The disabled path is
/// a single branch; the enabled path is a pure observation (no RNG, no
/// metering, no allocation).
#[inline]
pub(crate) fn emit(slot: &mut SinkSlot, at: u64, ev: TraceEvent) {
    if let Some(sink) = slot.as_deref_mut() {
        sink.record(at, ev);
    }
}

/// A fixed-bucket power-of-two histogram with running count / sum /
/// min / max. O(1) per sample, zero allocations: bucket `0` holds the
/// value `0`, bucket `i` holds values whose bit length is `i`
/// (`2^(i-1) ..= 2^i - 1`), saturating in the last bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; Hist::BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self { buckets: [0; Hist::BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Hist {
    /// Bucket 0 plus one bucket per bit length up to 32, saturating.
    pub const BUCKETS: usize = 33;

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts (`buckets[0]` = zeros, `buckets[i]` =
    /// samples of bit length `i`, last bucket saturating).
    pub fn buckets(&self) -> &[u64; Hist::BUCKETS] {
        &self.buckets
    }
}

/// The streaming per-run aggregate attached to
/// [`crate::RunReport::profile`]. Every field is O(1) per event to
/// maintain; nothing here grows with the run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunProfile {
    /// Payload messages sent per pulse begin (per round under the
    /// synchronous engines).
    pub pulse_occupancy: Hist,
    /// Delivery batch sizes per pulse execution.
    pub queue_depth: Hist,
    /// Envelopes in flight on the event wheel, sampled after each
    /// delivered envelope (a delay run's copies one by one).
    pub wheel_occupancy: Hist,
    /// Control bits per pulse-frontier advance (see the module docs on
    /// per-pulse bit attribution).
    pub ctrl_bits_per_pulse: Hist,
    /// Payload bits per pulse-frontier advance.
    pub payload_bits_per_pulse: Hist,
    /// Total records offered to the sink (including overwritten ones).
    pub records: u64,
    /// Records overwritten because the ring was full.
    pub dropped: u64,
    /// Pure control envelopes sent (`Ack` + `Safe`).
    pub ctrl_sends: u64,
    /// Coalesced Safe waves metered (`BatchedAlpha`).
    pub safe_waves: u64,
    /// Retransmit timers fired.
    pub retransmits: u64,
    /// Fault records: wire drops, crash losses and node down/up
    /// transitions.
    pub faults: u64,
    /// Membership churn records: joins, leaves and retired payloads.
    pub churn: u64,
    /// High-water mark of the envelopes in flight on the event wheel
    /// (scheduled, not yet delivered; a delay run counts its copies).
    pub max_wheel_occupancy: u64,
    /// High-water mark of the inbox/port queues.
    pub max_queue_depth: u64,
}

/// The production recorder: a preallocated ring of [`TraceRecord`]s
/// plus a streaming [`RunProfile`]. Build once, record allocation-free
/// forever: the ring never grows past its configured capacity and the
/// profile is all fixed-size arrays and scalars.
#[derive(Clone, Debug)]
pub struct TraceSink {
    ring: Vec<TraceRecord>,
    /// Next write position once the ring has wrapped.
    head: usize,
    cap: usize,
    nodes: u32,
    profile: RunProfile,
    /// Pulse frontier for bit attribution.
    frontier: u64,
    /// Whether the frontier window received a record since its last
    /// flush.
    window_open: bool,
    ctrl_acc: u64,
    payload_acc: u64,
}

impl TraceSink {
    /// A sink for a `nodes`-node run, ring preallocated to
    /// `config.capacity`.
    pub fn new(config: TraceConfig, nodes: u32) -> Self {
        Self {
            ring: Vec::with_capacity(config.capacity),
            head: 0,
            cap: config.capacity,
            nodes,
            profile: RunProfile::default(),
            frontier: 0,
            window_open: false,
            ctrl_acc: 0,
            payload_acc: 0,
        }
    }

    #[inline]
    fn advance_frontier(&mut self, pulse: u64) {
        if pulse > self.frontier {
            self.flush_window();
            self.frontier = pulse;
        }
        self.window_open = true;
    }

    /// Records the frontier window's bits, if it received any record
    /// since the last flush.
    fn flush_window(&mut self) {
        if std::mem::take(&mut self.window_open) {
            self.profile.ctrl_bits_per_pulse.record(self.ctrl_acc);
            self.profile.payload_bits_per_pulse.record(self.payload_acc);
            self.ctrl_acc = 0;
            self.payload_acc = 0;
        }
    }

    #[inline]
    fn push(&mut self, rec: TraceRecord) {
        if self.cap == 0 {
            return;
        }
        if self.ring.len() < self.cap {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.profile.dropped += 1;
        }
    }

    /// Flush the trailing frontier window and note external high-water
    /// marks, then hand back the profile. Engines call this once at
    /// the end of a drive; a drive that recorded nothing flushes
    /// nothing, so resumed drives attribute exactly like one drive.
    pub fn finish(&mut self, max_wheel: u64, max_queue: u64) -> RunProfile {
        self.flush_window();
        self.profile.max_wheel_occupancy = self.profile.max_wheel_occupancy.max(max_wheel);
        self.profile.max_queue_depth = self.profile.max_queue_depth.max(max_queue);
        self.profile.clone()
    }

    /// The streaming profile as aggregated so far.
    pub fn profile(&self) -> &RunProfile {
        &self.profile
    }

    /// Number of records currently retained in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Visit the retained records oldest-first.
    pub fn for_each(&self, mut f: impl FnMut(&TraceRecord)) {
        let n = self.ring.len();
        for i in 0..n {
            f(&self.ring[(self.head + i) % n.max(1)]);
        }
    }

    /// Export the retained timeline as one JSON object per line, in
    /// chronological order. Byte-deterministic: integers only, stable
    /// field order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.for_each(|r| {
            jsonl_line(&mut out, r);
            out.push('\n');
        });
        out
    }

    /// Export the retained timeline as Chrome trace-event JSON
    /// (Perfetto / `chrome://tracing`): instant events on one track
    /// per node (`tid = node + 1`) plus a control-plane track
    /// (`tid = 0`). Byte-deterministic for a fixed run.
    pub fn to_chrome_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"control plane\"}}}}"
        );
        for v in 0..self.nodes {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"node {v}\"}}}}",
                v + 1
            );
        }
        self.for_each(|r| {
            out.push_str(",\n");
            chrome_event(&mut out, r);
        });
        out.push_str("\n]}\n");
        out
    }
}

impl TraceSink {
    /// Record one timestamped event — a pure observation, like every
    /// sink hook.
    #[inline]
    pub fn record(&mut self, at: u64, ev: TraceEvent) {
        self.profile.records += 1;
        match ev {
            TraceEvent::PulseBegin { pulse, sent, .. } => {
                self.advance_frontier(pulse);
                self.profile.pulse_occupancy.record(sent as u64);
            }
            TraceEvent::PulseExec { batch, .. } => {
                self.profile.queue_depth.record(batch as u64);
            }
            TraceEvent::Payload { pulse, bits, .. } => {
                self.advance_frontier(pulse);
                self.payload_acc += bits as u64;
            }
            TraceEvent::Ctrl { pulse, bits, .. } => {
                self.advance_frontier(pulse);
                self.ctrl_acc += bits as u64;
                self.profile.ctrl_sends += 1;
            }
            TraceEvent::SafeWave { pulse, bits, .. } => {
                self.advance_frontier(pulse);
                self.ctrl_acc += bits as u64;
                self.profile.safe_waves += 1;
            }
            TraceEvent::Retransmit { .. } => self.profile.retransmits += 1,
            TraceEvent::Dropped { .. }
            | TraceEvent::Lost { .. }
            | TraceEvent::NodeDown { .. }
            | TraceEvent::NodeUp { .. } => self.profile.faults += 1,
            TraceEvent::Join { .. } | TraceEvent::Leave { .. } | TraceEvent::Retired { .. } => {
                self.profile.churn += 1;
            }
            TraceEvent::Phase { .. } => {}
            TraceEvent::Round { round, messages, bits } => {
                self.advance_frontier(round);
                self.profile.pulse_occupancy.record(messages);
                self.payload_acc += bits;
            }
        }
        self.push(TraceRecord { at, ev });
    }

    /// Sample the envelopes in flight after a delivered envelope.
    #[inline]
    pub fn sample_wheel(&mut self, depth: u64) {
        self.profile.wheel_occupancy.record(depth);
    }
}

fn jsonl_line(out: &mut String, r: &TraceRecord) {
    use std::fmt::Write as _;
    let at = r.at;
    let _ = match r.ev {
        TraceEvent::PulseBegin { node, pulse, sent } => write!(
            out,
            "{{\"at\":{at},\"ev\":\"pulse_begin\",\"node\":{node},\"pulse\":{pulse},\
             \"sent\":{sent}}}"
        ),
        TraceEvent::PulseExec { node, pulse, batch } => write!(
            out,
            "{{\"at\":{at},\"ev\":\"pulse_exec\",\"node\":{node},\"pulse\":{pulse},\
             \"batch\":{batch}}}"
        ),
        TraceEvent::Payload { node, pulse, bits } => write!(
            out,
            "{{\"at\":{at},\"ev\":\"payload\",\"node\":{node},\"pulse\":{pulse},\"bits\":{bits}}}"
        ),
        TraceEvent::Ctrl { node, kind, pulse, bits } => write!(
            out,
            "{{\"at\":{at},\"ev\":\"ctrl\",\"node\":{node},\"kind\":\"{}\",\"pulse\":{pulse},\
             \"bits\":{bits}}}",
            kind.name()
        ),
        TraceEvent::SafeWave { node, pulse, bits } => write!(
            out,
            "{{\"at\":{at},\"ev\":\"safe_wave\",\"node\":{node},\"pulse\":{pulse},\
             \"bits\":{bits}}}"
        ),
        TraceEvent::Retransmit { node, port } => {
            write!(out, "{{\"at\":{at},\"ev\":\"retransmit\",\"node\":{node},\"port\":{port}}}")
        }
        TraceEvent::Dropped { node, port } => {
            write!(out, "{{\"at\":{at},\"ev\":\"fault_dropped\",\"node\":{node},\"port\":{port}}}")
        }
        TraceEvent::Lost { node, port } => {
            write!(out, "{{\"at\":{at},\"ev\":\"fault_lost\",\"node\":{node},\"port\":{port}}}")
        }
        TraceEvent::NodeDown { node, pulse } => {
            write!(out, "{{\"at\":{at},\"ev\":\"node_down\",\"node\":{node},\"pulse\":{pulse}}}")
        }
        TraceEvent::NodeUp { node, pulse } => {
            write!(out, "{{\"at\":{at},\"ev\":\"node_up\",\"node\":{node},\"pulse\":{pulse}}}")
        }
        TraceEvent::Join { node, pulse, epoch, members } => write!(
            out,
            "{{\"at\":{at},\"ev\":\"join\",\"node\":{node},\"pulse\":{pulse},\"epoch\":{epoch},\
             \"members\":{members}}}"
        ),
        TraceEvent::Leave { node, pulse, epoch, members } => write!(
            out,
            "{{\"at\":{at},\"ev\":\"leave\",\"node\":{node},\"pulse\":{pulse},\"epoch\":{epoch},\
             \"members\":{members}}}"
        ),
        TraceEvent::Retired { node, port } => {
            write!(out, "{{\"at\":{at},\"ev\":\"retired\",\"node\":{node},\"port\":{port}}}")
        }
        TraceEvent::Phase { index, budget } => {
            write!(out, "{{\"at\":{at},\"ev\":\"phase\",\"index\":{index},\"budget\":{budget}}}")
        }
        TraceEvent::Round { round, messages, bits } => write!(
            out,
            "{{\"at\":{at},\"ev\":\"round\",\"round\":{round},\"messages\":{messages},\
             \"bits\":{bits}}}"
        ),
    };
}

/// The Chrome track an event renders on: `tid 0` is the control-plane
/// track, payload-plane events ride `tid = node + 1`.
fn chrome_tid(ev: &TraceEvent) -> u32 {
    match *ev {
        TraceEvent::PulseBegin { node, .. }
        | TraceEvent::PulseExec { node, .. }
        | TraceEvent::Payload { node, .. }
        | TraceEvent::Join { node, .. }
        | TraceEvent::Leave { node, .. }
        | TraceEvent::Retired { node, .. } => node + 1,
        TraceEvent::Ctrl { .. }
        | TraceEvent::SafeWave { .. }
        | TraceEvent::Retransmit { .. }
        | TraceEvent::Dropped { .. }
        | TraceEvent::Lost { .. }
        | TraceEvent::NodeDown { .. }
        | TraceEvent::NodeUp { .. }
        | TraceEvent::Phase { .. }
        | TraceEvent::Round { .. } => 0,
    }
}

fn chrome_event(out: &mut String, r: &TraceRecord) {
    use std::fmt::Write as _;
    let (name, args) = chrome_args(&r.ev);
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\
         \"args\":{{{args}}}}}",
        r.at,
        chrome_tid(&r.ev)
    );
}

fn chrome_args(ev: &TraceEvent) -> (&'static str, String) {
    match *ev {
        TraceEvent::PulseBegin { pulse, sent, .. } => {
            ("pulse_begin", format!("\"pulse\":{pulse},\"sent\":{sent}"))
        }
        TraceEvent::PulseExec { pulse, batch, .. } => {
            ("pulse_exec", format!("\"pulse\":{pulse},\"batch\":{batch}"))
        }
        TraceEvent::Payload { pulse, bits, .. } => {
            ("payload", format!("\"pulse\":{pulse},\"bits\":{bits}"))
        }
        TraceEvent::Ctrl { node, kind, pulse, bits } => {
            (kind.name(), format!("\"node\":{node},\"pulse\":{pulse},\"bits\":{bits}"))
        }
        TraceEvent::SafeWave { node, pulse, bits } => {
            ("safe_wave", format!("\"node\":{node},\"pulse\":{pulse},\"bits\":{bits}"))
        }
        TraceEvent::Retransmit { node, port } => {
            ("retransmit", format!("\"node\":{node},\"port\":{port}"))
        }
        TraceEvent::Dropped { node, port } => {
            ("fault_dropped", format!("\"node\":{node},\"port\":{port}"))
        }
        TraceEvent::Lost { node, port } => {
            ("fault_lost", format!("\"node\":{node},\"port\":{port}"))
        }
        TraceEvent::NodeDown { node, pulse } => {
            ("node_down", format!("\"node\":{node},\"pulse\":{pulse}"))
        }
        TraceEvent::NodeUp { node, pulse } => {
            ("node_up", format!("\"node\":{node},\"pulse\":{pulse}"))
        }
        TraceEvent::Join { node, pulse, epoch, members } => (
            "join",
            format!("\"node\":{node},\"pulse\":{pulse},\"epoch\":{epoch},\"members\":{members}"),
        ),
        TraceEvent::Leave { node, pulse, epoch, members } => (
            "leave",
            format!("\"node\":{node},\"pulse\":{pulse},\"epoch\":{epoch},\"members\":{members}"),
        ),
        TraceEvent::Retired { node, port } => {
            ("retired", format!("\"node\":{node},\"port\":{port}"))
        }
        TraceEvent::Phase { index, budget } => {
            ("phase", format!("\"index\":{index},\"budget\":{budget}"))
        }
        TraceEvent::Round { round, messages, bits } => {
            ("round", format!("\"round\":{round},\"messages\":{messages},\"bits\":{bits}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_by_bit_length() {
        let mut h = Hist::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        let b = h.buckets();
        assert_eq!(b[0], 1, "one zero");
        assert_eq!(b[1], 1, "value 1");
        assert_eq!(b[2], 2, "values 2, 3");
        assert_eq!(b[3], 2, "values 4, 7");
        assert_eq!(b[4], 1, "value 8");
        assert_eq!(b[Hist::BUCKETS - 1], 1, "u64::MAX saturates");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut s = TraceSink::new(TraceConfig::events(2), 1);
        for i in 0..5u64 {
            s.record(i, TraceEvent::Retransmit { node: 0, port: i as u32 });
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.profile().dropped, 3);
        assert_eq!(s.profile().records, 5);
        let mut ats = Vec::new();
        s.for_each(|r| ats.push(r.at));
        assert_eq!(ats, vec![3, 4], "oldest records were overwritten first");
    }

    #[test]
    fn profile_only_sink_keeps_no_ring() {
        let mut s = TraceSink::new(TraceConfig::profile_only(), 1);
        s.record(0, TraceEvent::PulseBegin { node: 0, pulse: 1, sent: 3 });
        assert!(s.is_empty());
        assert_eq!(s.profile().records, 1);
        assert_eq!(s.profile().pulse_occupancy.count(), 1);
        assert_eq!(s.profile().dropped, 0, "a capacity-0 ring drops nothing it promised to keep");
    }

    #[test]
    fn frontier_attribution_flushes_per_advance() {
        let mut s = TraceSink::new(TraceConfig::default(), 2);
        s.record(0, TraceEvent::Payload { node: 0, pulse: 1, bits: 10 });
        s.record(0, TraceEvent::Ctrl { node: 1, kind: CtrlTag::Ack, pulse: 1, bits: 34 });
        s.record(1, TraceEvent::Payload { node: 0, pulse: 2, bits: 20 });
        let p = s.finish(0, 0);
        assert_eq!(p.payload_bits_per_pulse.count(), 2);
        assert_eq!(p.payload_bits_per_pulse.sum(), 30);
        assert_eq!(p.ctrl_bits_per_pulse.sum(), 34);
        assert_eq!(p.ctrl_sends, 1);
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let mut s = TraceSink::new(TraceConfig::default(), 2);
            s.record(0, TraceEvent::PulseBegin { node: 0, pulse: 1, sent: 1 });
            s.record(2, TraceEvent::Payload { node: 1, pulse: 1, bits: 64 });
            s.record(2, TraceEvent::Ctrl { node: 1, kind: CtrlTag::Ack, pulse: 1, bits: 34 });
            s.record(3, TraceEvent::SafeWave { node: 0, pulse: 1, bits: 34 });
            s
        };
        let (a, b) = (build(), build());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.to_chrome_json(), b.to_chrome_json());
        assert!(a.to_jsonl().lines().count() == 4);
        // Chrome export is valid-ish JSON shape: balanced braces, one
        // metadata row per node plus the control track.
        let chrome = a.to_chrome_json();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.trim_end().ends_with("]}"));
        assert_eq!(chrome.matches("thread_name").count(), 3);
    }
}
