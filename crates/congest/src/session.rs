//! The unified execution surface: one [`Session`] builder and one
//! [`Driver`] trait over all three engines.
//!
//! The paper's claim structure spans three execution models — the
//! synchronous CONGEST simulator it analyzes, the §2 remark that any
//! synchronous algorithm runs asynchronously under a synchronizer
//! (Awerbuch's α), and the §4.1 deterministic time-bound wrapper. This
//! module exposes all of them behind a single engine-agnostic API:
//!
//! * [`Engine`] selects the execution model: [`Engine::Flat`] (the
//!   flat message plane, optionally sharded over threads, and
//!   allocation-free in steady state on one shard), [`Engine::Legacy`]
//!   (the preserved seed engine — a frozen test-only fixture behind the
//!   `legacy-engine` cargo feature), or
//!   [`Engine::Async`] (event-driven delivery with seeded link delays
//!   under a pluggable synchronizer).
//! * [`Session`] configures a run — graph or edge stream, seed, mode,
//!   ID assignment, engine, limits, tracing — and builds a
//!   [`SessionDriver`]. Both production engines are built from the same
//!   parts, compiled once: route table, IDs, endpoints, protocols and
//!   RNG streams, from a [`Graph`] ([`Session::on`]) or an
//!   [`EdgeStream`] ([`Session::on_stream`]).
//! * [`Driver`] is the uniform handle every engine implements:
//!   `drive` advances rounds (pulses, for α), then outputs, endpoints
//!   and protocols are read back uniformly.
//! * [`RunReport`] is the one report type for all engines: termination,
//!   rounds-or-pulses, the payload-side [`Metrics`] (bit-identical
//!   across engines for the same seed), and the synchronizer's
//!   [`SyncOverhead`] (zero for the synchronous engines).
//! * [`Observer`] streams quiescence barriers (phase transitions) while
//!   the run executes; pass one to [`Driver::drive`],
//!   [`SessionDriver::run_observed`] or [`SessionDriver::run_phased`].
//!   Observers are the *user-facing* streaming hook: trait objects free
//!   to allocate and do arbitrary work.
//!   The engine-facing counterpart is the [`crate::obs`] recording
//!   plane — [`Session::trace`] installs a preallocated
//!   [`crate::TraceSink`] *inside* the engine hot paths, which captures
//!   typed event-granular records (pulse begins, control sends, Safe
//!   waves, retransmits, faults, membership changes) with zero
//!   steady-state allocation and zero cost when absent. Use an
//!   [`Observer`] to react to a run as it executes; use
//!   [`Session::trace`] to profile or export a timeline of *how* the
//!   engine executed it ([`RunReport::profile`],
//!   [`SessionDriver::trace_sink`]). The sink is the only itemized
//!   record of fault and churn events; [`crate::RunProfile::dropped`]
//!   `== 0` says its ring kept them all.
//! * [`Session::metrics`] picks the [`crate::MetricsMode`]: the default
//!   [`crate::MetricsMode::Full`] keeps the O(rounds)
//!   [`Metrics::messages_per_round`] history, while
//!   [`crate::MetricsMode::Streaming`] keeps only O(1) running
//!   aggregates (per-round distributions then live in the run's
//!   [`crate::RunProfile`]).
//!
//! All engines share the determinism contract pinned by
//! `crates/core/tests/engine_equivalence.rs`: for a given seed, per-node
//! outputs are identical across engines, shard counts and (for α) link
//! delays.
//!
//! # Example: one protocol, three engines
//!
//! ```
//! use congest::{
//!     ChurnModel, Context, DelayModel, Engine, FaultModel, Message, Port, Protocol, RunLimits,
//!     Session, SyncModel,
//! };
//!
//! #[derive(Clone, Debug)]
//! struct Token;
//! impl Message for Token {
//!     fn bit_size(&self) -> usize { 1 }
//! }
//!
//! struct Echo { seen: bool, source: bool }
//! impl Protocol for Echo {
//!     type Msg = Token;
//!     type Output = bool;
//!     fn init(&mut self, ctx: &mut Context<'_, Token>) {
//!         if self.source { ctx.broadcast(Token); }
//!     }
//!     fn step(&mut self, ctx: &mut Context<'_, Token>, inbox: &[(Port, Token)]) {
//!         if !inbox.is_empty() && !self.seen {
//!             self.seen = true;
//!             ctx.broadcast(Token);
//!         }
//!     }
//!     fn is_idle(&self) -> bool { true }
//!     fn output(&self) -> bool { self.seen || self.source }
//! }
//!
//! let g = graphs::Graph::complete(5);
//! let factory = |e: &congest::Endpoint| Echo { seen: false, source: e.index == 0 };
//! let delay = DelayModel::Uniform { max_delay: 7 };
//! let mut flat = Vec::new();
//! let fault = FaultModel::None;
//! let churn = ChurnModel::None;
//! for engine in [
//!     Engine::Flat { shards: 2 },
//!     Engine::Async { delay, sync: SyncModel::Alpha, fault, churn },
//!     Engine::Async { delay, sync: SyncModel::BatchedAlpha, fault, churn },
//! ] {
//!     let (outputs, report) = Session::on(&g)
//!         .seed(7)
//!         .engine(engine)
//!         .limits(RunLimits::rounds(8))
//!         .run_with(factory);
//!     assert!(outputs.iter().all(|&heard| heard));
//!     assert_eq!(report.metrics.max_message_bits, 1);
//!     flat.push(report.metrics.messages);
//! }
//! // Payload metrics agree across engines and synchronizers.
//! assert!(flat.windows(2).all(|w| w[0] == w[1]));
//! ```

use graphs::{EdgeStream, Graph};

use crate::asynch::AsyncNetwork;
#[cfg(feature = "legacy-engine")]
use crate::legacy::LegacyNetwork;
use crate::metrics::Metrics;
use crate::network::{IdAssignment, Mode, Network, Nodes};
use crate::obs::{MetricsMode, RunProfile, TraceConfig, TraceSink};
use crate::protocol::{Endpoint, Protocol, Round};
use crate::sched::{ChurnModel, DelayModel, FaultModel, PhasePlan, SyncModel};

/// Which execution engine a [`Session`] drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The flat message plane, sharded over `shards` OS threads (1 =
    /// sequential). Results are bit-identical at any shard count. A
    /// steady-state round allocates nothing on one shard; on more, each
    /// round spawns its threads and collects its transfer cells afresh,
    /// a fixed number of allocations whatever the traffic.
    Flat {
        /// Number of node shards / OS threads.
        shards: usize,
    },
    /// The preserved seed engine: sequential, pointer-chasing, kept as a
    /// frozen behavioral reference for equivalence testing.
    /// **Test-only fixture**: available only with congest's
    /// `legacy-engine` cargo feature (default-off; the equivalence
    /// suites enable it); without the feature, building a session on it
    /// panics with a pointer at [`Engine::Flat`].
    Legacy,
    /// Event-driven asynchronous execution under a pluggable
    /// synchronizer: every message is delayed by a seeded draw from a
    /// [`DelayModel`] (uniform, per-link, heavy-tailed, or
    /// adversarial-within-bound — see [`crate::sched`]), and the
    /// synchronizer's control traffic recreates synchronous pulses (the
    /// §2 Awerbuch reduction). `sync` picks the control plane:
    /// [`SyncModel::Alpha`] (classic synchronizer α — per-payload Acks
    /// plus a per-pulse Safe flood on every edge) or
    /// [`SyncModel::BatchedAlpha`] (safety piggybacked on payloads,
    /// idle edges cleared by one coalesced Safe wave per node per
    /// pulse). Outputs and payload [`Metrics`] are identical either
    /// way; only [`SyncOverhead`] differs.
    ///
    /// Pulses are CONGEST rounds; this engine rejects
    /// [`Mode::Local`]. Always give it an explicit pulse budget via
    /// [`Session::limits`] — pulses never quiesce (even empty pulses
    /// exchange control traffic), so the budget *is* the termination
    /// rule (the paper's §4.1 deterministic time bound). Staged
    /// protocols additionally take a per-phase [`PhasePlan`] through
    /// [`SessionDriver::run_phased`].
    /// The fault plane composes with both knobs: `fault` breaks the wire
    /// (seeded message loss, link flaps — masked by deterministic
    /// retransmission) or the hosts (crash windows — surfaced as
    /// [`Termination::Degraded`]); [`FaultModel::None`] is the perfect
    /// network, bit-identical to the engine before the fault plane
    /// existed. See [`crate::sched::fault`] for the
    /// masking-vs-degradation contract.
    ///
    /// The churn plane is the fourth seeded axis: `churn` schedules
    /// membership events (staggered joins, graceful leaves, or both —
    /// see [`crate::sched::churn`]), each opening a new epoch: the
    /// engine flips the node's presence flag, payloads bound for an
    /// absent node are retired and itemized in the trace sink, and
    /// protocols take their
    /// [`Protocol::on_join`] /
    /// [`Protocol::on_leave`] handoff hooks
    /// (or restart from `init`, under
    /// [`ChurnPolicy::Restart`](crate::ChurnPolicy::Restart)).
    /// [`ChurnModel::None`] is the fixed member set, bit-identical to
    /// the engine before the churn plane existed and advancing no RNG
    /// stream.
    Async {
        /// The link-delay model (its `max_delay` must be ≥ 1).
        delay: DelayModel,
        /// The synchronizer gating pulses (default [`SyncModel::Alpha`]).
        sync: SyncModel,
        /// What the network breaks (default [`FaultModel::None`]).
        fault: FaultModel,
        /// How the member set changes (default [`ChurnModel::None`]).
        churn: ChurnModel,
    },
}

impl Default for Engine {
    fn default() -> Self {
        Engine::Flat { shards: 1 }
    }
}

/// Stop conditions for a run.
#[derive(Clone, Copy, Debug)]
pub struct RunLimits {
    /// Abort after this many rounds — or α pulses — (the deterministic
    /// time-bound wrapper of §4.1). `u64::MAX` means effectively
    /// unlimited for the synchronous engines; the α engine treats it as
    /// its pulse budget, so always set it explicitly there.
    pub max_rounds: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        Self { max_rounds: 1_000_000 }
    }
}

impl RunLimits {
    /// Limits the run to `max_rounds` rounds (pulses).
    #[must_use]
    pub fn rounds(max_rounds: u64) -> Self {
        Self { max_rounds }
    }
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// All nodes idle, no messages anywhere, no node resumed at the final
    /// barrier. (A plain α drive never reports this — synchronizer pulses
    /// keep exchanging control traffic forever, so only the budget stops
    /// it; a phased α run does, when its [`PhasePlan`]'s closing barrier
    /// retires every node.)
    Quiescent,
    /// The [`RunLimits::max_rounds`] bound fired first.
    RoundLimit,
    /// The run completed its budget, but nodes crashed along the way
    /// ([`FaultModel::Crash`]): surviving nodes re-converged under the
    /// self-healing synchronizer waves, and `lost` application payloads
    /// (discarded send queues plus deliveries addressed to crashed
    /// pulses) never reached a protocol. The fault schedule — and so
    /// this report — is replayable from `(seed, FaultModel)` alone.
    Degraded {
        /// Application payloads lost to crashes.
        lost: u64,
    },
}

/// Synchronizer-α resource overhead. Identically zero for the
/// synchronous engines; for [`Engine::Async`] it accounts everything the
/// asynchronous execution pays *on top of* the payload traffic already
/// metered in [`Metrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncOverhead {
    /// Ack + Safe control messages delivered.
    pub control_messages: u64,
    /// Control bits delivered: whole Ack/Safe envelopes plus the
    /// pulse-tag envelope wrapped around each payload.
    pub control_bits: u64,
    /// Largest event timestamp (virtual time at completion).
    pub virtual_time: u64,
    /// Retransmissions scheduled after wire-level fault losses
    /// ([`FaultModel::Drop`] / [`FaultModel::LinkFlap`]) — the price of
    /// masking; zero on a perfect wire.
    pub retransmissions: u64,
    /// Send attempts lost to faults: wire-level drops (each matched by
    /// one retransmission) plus application payloads lost to crashes
    /// (`dropped_messages − retransmissions` is exactly the `lost` of
    /// [`Termination::Degraded`]).
    pub dropped_messages: u64,
    /// Epochs opened by membership events ([`ChurnModel`]); zero for a
    /// fixed member set. A traced run records each epoch's membership
    /// event and member count as a [`crate::TraceEvent::Join`] or
    /// [`crate::TraceEvent::Leave`].
    pub epochs: u64,
    /// Nodes that joined the member set mid-run.
    pub joins: u64,
    /// Nodes that left the member set mid-run.
    pub leaves: u64,
    /// Application payloads retired by membership changes (drained from
    /// retired ports or swallowed in flight), each recorded as a
    /// [`crate::TraceEvent::Retired`] in a traced run. Disjoint from
    /// `dropped_messages`: churn retirement is planned reconfiguration,
    /// not a fault.
    pub retired_messages: u64,
}

impl SyncOverhead {
    /// `true` when no synchronizer overhead was paid (synchronous runs).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

/// Summary of a completed (or paused) run — the one report type shared
/// by every engine.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Why the run ended.
    pub termination: Termination,
    /// Rounds executed (α: pulses completed).
    pub rounds: u64,
    /// Payload-side counters, identical across engines for the same
    /// seed: application messages, their bits, per-round histogram,
    /// barriers.
    pub metrics: Metrics,
    /// Synchronizer control-plane overhead (zero for synchronous runs).
    pub overhead: SyncOverhead,
    /// Streaming run profile (histograms, high-water marks, event
    /// counters) — `Some` only when the session installed a recorder
    /// via [`Session::trace`]. See [`RunProfile`].
    pub profile: Option<RunProfile>,
}

impl RunReport {
    /// Total bits delivered, payload and control plane combined.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.metrics.total_bits + self.overhead.control_bits
    }
}

/// Streaming hook into a run: called by every engine as it grants
/// quiescence barriers.
///
/// Observers replace ad-hoc post-run trace plumbing: phase transitions
/// arrive as [`Observer::on_barrier`] calls the moment the quiescence
/// barrier is granted, from the control thread (never from a shard
/// worker). Per-round traffic is no callback: it is kept once, in
/// [`Metrics::messages_per_round`] (under [`crate::MetricsMode::Full`]),
/// and a traced run records it as [`crate::TraceEvent::Round`] or
/// [`crate::TraceEvent::Payload`] records. Fault and churn events are
/// [`crate::TraceEvent`]s too, recorded in the sink [`Session::trace`]
/// installs and read back through [`SessionDriver::trace_sink`].
pub trait Observer {
    /// Called when a quiescence barrier is granted — i.e. some node took
    /// a phase transition via [`Protocol::on_quiescent`]. `round` is the
    /// last executed round.
    fn on_barrier(&mut self, round: Round) {
        let _ = round;
    }
}

/// The no-op observer: `drive(limits, &mut ())` observes nothing.
impl Observer for () {}

/// The uniform execution handle: [`SessionDriver`] implements it over
/// whichever [`Engine`] the [`Session`] built (each engine implements it
/// internally, and this trait is the only way to reach one).
///
/// Lifecycle: building the driver constructs one protocol per node;
/// `init` runs lazily on the first [`Driver::drive`] call; each `drive`
/// advances up to `limits.max_rounds` further rounds (α: pulses) and is
/// resumable; outputs, endpoints and per-node protocol state are
/// readable at any pause.
pub trait Driver {
    /// The protocol type instantiated at every node.
    type P: Protocol;

    /// Advances execution by at most `limits.max_rounds` rounds
    /// (pulses), streaming granted barriers to `obs`. Pass `&mut ()` to
    /// observe nothing.
    fn drive(&mut self, limits: RunLimits, obs: &mut dyn Observer) -> RunReport;

    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// The endpoint facts of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn endpoint(&self, index: usize) -> &Endpoint;

    /// Read access to node `index`'s protocol state.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn protocol(&self, index: usize) -> &Self::P;

    /// Application messages queued anywhere in the engine.
    fn queued_messages(&self) -> u64;

    /// Pre-reserves per-round bookkeeping for a bounded run, so engines
    /// with a zero-allocation steady state (the flat plane on one shard)
    /// stay allocation-free over `rounds` rounds. Optional; a no-op
    /// where it does not apply.
    fn reserve_rounds(&mut self, rounds: usize) {
        let _ = rounds;
    }

    /// Collects every node's output, indexed by node.
    fn outputs(&self) -> Vec<<Self::P as Protocol>::Output> {
        (0..self.node_count()).map(|v| self.protocol(v).output()).collect()
    }
}

/// Engine-agnostic run configuration: the one way to start a run.
///
/// `Session::on(&graph)` starts from defaults (flat engine, one shard,
/// CONGEST mode, seed 0, hashed IDs, default limits); the chained
/// setters pick mode, seed, IDs, engine, limits and observability;
/// [`Session::build_with`] constructs the selected engine's driver and
/// [`Session::run_with`] additionally drives it to the configured
/// limits.
pub struct Session<'g> {
    source: Source<'g>,
    seed: u64,
    mode: Mode,
    ids: IdAssignment,
    engine: Engine,
    /// `None` until [`Session::limits`] is called; the synchronous
    /// engines then fall back to [`RunLimits::default`], while
    /// [`Engine::Async`] insists on an explicit budget.
    limits: Option<RunLimits>,
    trace: Option<TraceConfig>,
    metrics_mode: MetricsMode,
}

/// What a [`Session`] builds its topology from.
pub(crate) enum Source<'g> {
    /// A materialized graph — every engine accepts this.
    Graph(&'g Graph),
    /// A restartable edge stream ([`Engine::Flat`] and [`Engine::Async`]):
    /// the scale-tier path, which constructs the CSR route table directly
    /// from the stream and never allocates a `Graph` or an edge list.
    Stream(&'g mut dyn EdgeStream),
}

impl<'g> Session<'g> {
    /// Starts configuring a run over `graph`.
    #[must_use]
    pub fn on(graph: &'g Graph) -> Self {
        Self::from_source(Source::Graph(graph))
    }

    /// Starts configuring a run over a restartable [`EdgeStream`] —
    /// topology construction streams straight into the engine's CSR
    /// route table, so no `Graph` (and no edge list) is ever
    /// materialized. This is the million-node path: peak memory is the
    /// engine's final arrays, not the instance. For the same stream and
    /// seed the run is bit-identical to [`Session::on`] with the
    /// materialized graph, on [`Engine::Flat`] and [`Engine::Async`]
    /// alike (both compile graphs and streams through the same two
    /// counted passes).
    ///
    /// [`Engine::Legacy`], the frozen reference fixture, needs a `Graph`:
    /// building it from a streamed session panics.
    #[must_use]
    pub fn on_stream(stream: &'g mut dyn EdgeStream) -> Self {
        Self::from_source(Source::Stream(stream))
    }

    fn from_source(source: Source<'g>) -> Self {
        Self {
            source,
            seed: 0,
            mode: Mode::Congest,
            ids: IdAssignment::Hashed,
            engine: Engine::default(),
            limits: None,
            trace: None,
            metrics_mode: MetricsMode::Full,
        }
    }

    /// Sets the master seed; node RNG streams, hashed IDs and (for α)
    /// link delays derive from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the execution engine.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the bandwidth regime (synchronous engines only; α always
    /// runs CONGEST pulses).
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the ID assignment scheme.
    #[must_use]
    pub fn ids(mut self, ids: IdAssignment) -> Self {
        self.ids = ids;
        self
    }

    /// Sets the round (pulse) budget used by [`SessionDriver::run`] and
    /// [`Session::run_with`]. Optional for the synchronous engines
    /// (which fall back to [`RunLimits::default`] and can quiesce);
    /// **required** for [`Engine::Async`], whose pulses never quiesce —
    /// the budget is its only termination rule.
    #[must_use]
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Installs an in-engine recorder ([`TraceSink`]): the engine emits
    /// typed [`crate::TraceEvent`]s from its hot paths into a ring
    /// buffer preallocated to `config.capacity` records and folds them
    /// into a streaming [`RunProfile`]. Recording is purely
    /// observational — outputs, [`Metrics`] and [`SyncOverhead`] stay
    /// bit-identical to an untraced run — and allocation-free in steady
    /// state. The profile is attached to every [`RunReport`]; the
    /// timeline is exportable via [`SessionDriver::trace_sink`].
    #[must_use]
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Selects how much per-round history [`Metrics`] retains — the
    /// default [`MetricsMode::Full`] keeps the O(rounds)
    /// [`Metrics::messages_per_round`] vector, [`MetricsMode::Streaming`]
    /// keeps only O(1) running aggregates.
    #[must_use]
    pub fn metrics(mut self, mode: MetricsMode) -> Self {
        self.metrics_mode = mode;
        self
    }

    /// Builds the selected engine's driver, creating each node's
    /// protocol via `factory` (called with the node's [`Endpoint`]).
    /// Both production engines start from the same parts, compiled once
    /// from the graph or stream: the CSR route table, the node IDs
    /// behind one shared neighbor-id arena, the protocols and the
    /// per-node RNG streams.
    ///
    /// # Panics
    ///
    /// Panics if hashed ID assignment collides (retry with another
    /// seed), if the graph exceeds the plane's `u32` port space, or if
    /// [`Engine::Async`] is combined with [`Mode::Local`], with
    /// `max_delay == 0`, or without an explicit [`Session::limits`]
    /// budget (α pulses never quiesce, so a defaulted 1M-pulse budget
    /// would flood control traffic effectively forever).
    pub fn build_with<P, F>(self, factory: F) -> SessionDriver<P>
    where
        P: Protocol,
        F: FnMut(&Endpoint) -> P,
    {
        let inner = match self.engine {
            Engine::Flat { shards } => {
                let shards = shards.max(1);
                let nodes = Nodes::build(self.source, self.seed, self.ids, shards, factory);
                let mut net = Network::new(nodes, self.mode, shards);
                net.configure_obs(self.trace, self.metrics_mode);
                EngineDriver::Flat(net)
            }
            #[cfg(feature = "legacy-engine")]
            Engine::Legacy => {
                let Source::Graph(graph) = self.source else {
                    panic!(
                        "Engine::Legacy executes over a materialized graph: materialize the \
                         stream first (graphs::generators::materialize) or switch to \
                         Engine::Flat"
                    )
                };
                EngineDriver::Legacy(LegacyNetwork::build_with(
                    graph, self.mode, self.seed, self.ids, factory,
                ))
            }
            #[cfg(not(feature = "legacy-engine"))]
            Engine::Legacy => panic!(
                "Engine::Legacy is a test-only fixture: enable congest's `legacy-engine` cargo \
                 feature (the equivalence suites do), or use Engine::Flat — it is \
                 bit-identical on every workload"
            ),
            Engine::Async { delay, sync, fault, churn } => {
                assert!(
                    self.mode == Mode::Congest,
                    "synchronizers model CONGEST pulses; Mode::Local is not executable on \
                     Engine::Async"
                );
                assert!(
                    self.limits.is_some(),
                    "Engine::Async needs an explicit pulse budget: call \
                     Session::limits(RunLimits::rounds(b)) — pulses never quiesce, the \
                     budget is the §4.1 termination rule"
                );
                let nodes = Nodes::build(self.source, self.seed, self.ids, 1, factory);
                let mut net = AsyncNetwork::new(nodes, self.seed, delay, sync, fault, churn);
                net.configure_obs(self.trace, self.metrics_mode);
                EngineDriver::Async(net)
            }
        };
        SessionDriver { inner, limits: self.limits.unwrap_or_default() }
    }

    /// Builds the driver, drives it to the configured limits, and
    /// returns per-node outputs plus the unified report.
    pub fn run_with<P, F>(self, factory: F) -> (Vec<P::Output>, RunReport)
    where
        P: Protocol,
        F: FnMut(&Endpoint) -> P,
    {
        let mut driver = self.build_with(factory);
        let report = driver.run();
        (driver.outputs(), report)
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nodes = match &self.source {
            Source::Graph(graph) => graph.node_count(),
            Source::Stream(stream) => stream.node_count(),
        };
        f.debug_struct("Session")
            .field("nodes", &nodes)
            .field("seed", &self.seed)
            .field("mode", &self.mode)
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

// One driver exists per run, never in collections, so the size spread
// between the flat and asynchronous engines is irrelevant — boxing the
// large variant would only add a pointer hop to every `drive` dispatch.
#[allow(clippy::large_enum_variant)]
enum EngineDriver<P: Protocol> {
    Flat(Network<P>),
    #[cfg(feature = "legacy-engine")]
    Legacy(LegacyNetwork<P>),
    Async(AsyncNetwork<P>),
}

impl<P: Protocol> EngineDriver<P> {
    /// The selected engine behind the uniform [`Driver`] interface.
    fn as_driver(&self) -> &dyn Driver<P = P> {
        match self {
            EngineDriver::Flat(net) => net,
            #[cfg(feature = "legacy-engine")]
            EngineDriver::Legacy(net) => net,
            EngineDriver::Async(net) => net,
        }
    }

    fn as_driver_mut(&mut self) -> &mut dyn Driver<P = P> {
        match self {
            EngineDriver::Flat(net) => net,
            #[cfg(feature = "legacy-engine")]
            EngineDriver::Legacy(net) => net,
            EngineDriver::Async(net) => net,
        }
    }
}

/// The driver a [`Session`] builds: the selected engine plus the
/// session's limits, behind the uniform [`Driver`] interface.
pub struct SessionDriver<P: Protocol> {
    inner: EngineDriver<P>,
    limits: RunLimits,
}

impl<P: Protocol> SessionDriver<P> {
    /// Which engine this driver runs.
    #[must_use]
    pub fn engine(&self) -> Engine {
        match &self.inner {
            EngineDriver::Flat(net) => Engine::Flat { shards: net.shard_count() },
            #[cfg(feature = "legacy-engine")]
            EngineDriver::Legacy(_) => Engine::Legacy,
            EngineDriver::Async(net) => net.engine(),
        }
    }

    /// The engine's installed [`TraceSink`], if [`Session::trace`] was
    /// called — read it after a run to export the captured timeline
    /// ([`TraceSink::to_jsonl`], [`TraceSink::to_chrome_json`]) or
    /// inspect the streaming profile. `None` when no recorder was
    /// installed (the legacy fixture never records).
    #[must_use]
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        match &self.inner {
            EngineDriver::Flat(net) => net.trace_sink(),
            #[cfg(feature = "legacy-engine")]
            EngineDriver::Legacy(_) => None,
            EngineDriver::Async(net) => net.trace_sink(),
        }
    }

    /// Drives to the session's configured limits. Resumable after a
    /// `RoundLimit` stop.
    pub fn run(&mut self) -> RunReport {
        let limits = self.limits;
        self.drive(limits, &mut ())
    }

    /// Like [`SessionDriver::run`], streaming every granted barrier to
    /// `obs`.
    pub fn run_observed(&mut self, obs: &mut dyn Observer) -> RunReport {
        let limits = self.limits;
        self.drive(limits, obs)
    }

    /// Executes a staged run under a [`PhasePlan`] (the paper's §4.1
    /// per-phase deterministic budgets), streaming to `obs`.
    ///
    /// On [`Engine::Async`] each phase drives its pulse budget, then
    /// every node takes its scheduled [`Protocol::on_quiescent`]
    /// transition — how multi-phase protocols complete under
    /// synchronizer α. On the synchronous engines the quiescence barrier
    /// fires natively, so the plan collapses to its overall time bound
    /// ([`PhasePlan::total_pulses`]) and the run behaves exactly like
    /// [`SessionDriver::run`] with that budget — the same plan drives
    /// every engine.
    pub fn run_phased(&mut self, plan: &PhasePlan, obs: &mut dyn Observer) -> RunReport {
        match &mut self.inner {
            EngineDriver::Async(net) => net.run_phases(plan, obs),
            sync => sync.as_driver_mut().drive(RunLimits::rounds(plan.total_pulses()), obs),
        }
    }
}

impl<P: Protocol> Driver for SessionDriver<P> {
    type P = P;

    fn drive(&mut self, limits: RunLimits, obs: &mut dyn Observer) -> RunReport {
        self.inner.as_driver_mut().drive(limits, obs)
    }

    fn node_count(&self) -> usize {
        self.inner.as_driver().node_count()
    }

    fn endpoint(&self, index: usize) -> &Endpoint {
        self.inner.as_driver().endpoint(index)
    }

    fn protocol(&self, index: usize) -> &P {
        self.inner.as_driver().protocol(index)
    }

    fn queued_messages(&self) -> u64 {
        self.inner.as_driver().queued_messages()
    }

    fn reserve_rounds(&mut self, rounds: usize) {
        self.inner.as_driver_mut().reserve_rounds(rounds);
    }
}

impl<P: Protocol> std::fmt::Debug for SessionDriver<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionDriver").field("engine", &self.engine()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::protocol::{Context, Port};
    use graphs::GraphBuilder;

    #[derive(Clone, Debug)]
    struct Rumor;
    impl Message for Rumor {
        fn bit_size(&self) -> usize {
            5
        }
    }

    #[derive(Debug)]
    struct Flood {
        is_source: bool,
        heard_at: Option<u64>,
    }

    impl Protocol for Flood {
        type Msg = Rumor;
        type Output = Option<u64>;
        fn init(&mut self, ctx: &mut Context<'_, Rumor>) {
            if self.is_source {
                self.heard_at = Some(0);
                ctx.broadcast(Rumor);
            }
        }
        fn step(&mut self, ctx: &mut Context<'_, Rumor>, inbox: &[(Port, Rumor)]) {
            if !inbox.is_empty() && self.heard_at.is_none() {
                self.heard_at = Some(ctx.round());
                ctx.broadcast(Rumor);
            }
        }
        fn is_idle(&self) -> bool {
            true
        }
        fn output(&self) -> Option<u64> {
            self.heard_at
        }
    }

    fn ring(n: usize) -> graphs::Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
        }
        b.build()
    }

    fn factory(e: &Endpoint) -> Flood {
        Flood { is_source: e.index == 0, heard_at: None }
    }

    /// One engine of each kind (Legacy only when its feature is on),
    /// with `max_delay` for the asynchronous rows.
    fn engines_under_test(max_delay: u64) -> Vec<Engine> {
        let mut engines = vec![Engine::Flat { shards: 1 }];
        #[cfg(feature = "legacy-engine")]
        engines.push(Engine::Legacy);
        let delay = DelayModel::Uniform { max_delay };
        let fault = FaultModel::None;
        let churn = ChurnModel::None;
        engines.push(Engine::Async { delay, sync: SyncModel::Alpha, fault, churn });
        engines.push(Engine::Async { delay, sync: SyncModel::BatchedAlpha, fault, churn });
        engines
    }

    #[test]
    fn three_engines_one_surface_same_outputs() {
        let g = ring(12);
        let mut results = Vec::new();
        let mut engines = engines_under_test(5);
        engines.insert(1, Engine::Flat { shards: 3 });
        for engine in engines {
            let (out, report) = Session::on(&g)
                .seed(4)
                .engine(engine)
                .limits(RunLimits::rounds(12))
                .run_with(factory);
            assert_eq!(report.metrics.max_message_bits, 5, "{engine:?}");
            results.push((out, report.metrics.messages, report.metrics.total_bits));
        }
        for pair in results.windows(2) {
            assert_eq!(pair[0], pair[1], "engines disagree");
        }
    }

    #[test]
    fn only_async_pays_synchronizer_overhead() {
        let g = ring(8);
        let (_, sync_report) =
            Session::on(&g).seed(1).limits(RunLimits::rounds(6)).run_with(factory);
        assert!(sync_report.overhead.is_zero());

        let (_, async_report) = Session::on(&g)
            .seed(1)
            .engine(Engine::Async {
                delay: DelayModel::Uniform { max_delay: 3 },
                sync: SyncModel::Alpha,
                fault: FaultModel::None,
                churn: ChurnModel::None,
            })
            .limits(RunLimits::rounds(6))
            .run_with(factory);
        assert!(async_report.overhead.control_messages > 0);
        assert!(async_report.overhead.virtual_time > 0);
        assert!(async_report.total_bits() > async_report.metrics.total_bits);
    }

    #[test]
    fn messages_per_round_covers_every_round() {
        let g = ring(6);
        for engine in engines_under_test(2) {
            let (_, report) = Session::on(&g)
                .seed(2)
                .engine(engine)
                .limits(RunLimits::rounds(5))
                .run_with(factory);
            let history = &report.metrics.messages_per_round;
            assert_eq!(history.len() as u64, report.rounds, "{engine:?}: one entry per round");
            assert_eq!(
                history.iter().sum::<u64>(),
                report.metrics.messages,
                "{engine:?}: the per-round history must add up to the message total"
            );
        }
    }

    #[test]
    fn driver_is_resumable_across_engines() {
        let g = ring(10);
        for engine in engines_under_test(4) {
            let mut driver = Session::on(&g)
                .seed(3)
                .engine(engine)
                .limits(RunLimits::rounds(12))
                .build_with(factory);
            let first = driver.drive(RunLimits::rounds(2), &mut ());
            assert_eq!(first.termination, Termination::RoundLimit, "{engine:?}");
            assert_eq!(first.rounds, 2, "{engine:?}");
            driver.drive(RunLimits::rounds(10), &mut ());
            let full: Vec<Option<u64>> =
                Session::on(&g).seed(3).limits(RunLimits::rounds(12)).run_with(factory).0;
            assert_eq!(driver.outputs(), full, "{engine:?}: split run diverged");
        }
    }
}
