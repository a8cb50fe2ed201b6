//! A CONGEST/LOCAL network simulator behind one execution API.
//!
//! This crate is the distributed substrate of the workspace reproducing
//! Brakerski & Patt-Shamir, *Distributed Discovery of Large Near-Cliques*
//! (PODC 2009). It executes per-node [`Protocol`] state machines over a
//! [`graphs::Graph`] topology, exactly as the CONGEST model of Peleg
//! \[20\] prescribes:
//!
//! * per round, each node may send **one message per incident edge**
//!   ([`Mode::Congest`]); messages queued beyond that pipeline over
//!   subsequent rounds,
//! * every message's **bit width is metered** ([`Metrics`]), so the
//!   paper's `O(log n)` message-size claim is *checked*, not assumed,
//! * the LOCAL model ([`Mode::Local`]) is available for the
//!   neighbors'-neighbors baseline, with the same metering,
//! * execution is **deterministic given a seed** (per-node RNG streams),
//!   across engines and thread counts.
//!
//! # One surface, three engines
//!
//! Every run starts at [`Session`], which selects an [`Engine`]:
//!
//! | engine | model | backing | built from |
//! |---|---|---|---|
//! | [`Engine::Flat`] | synchronous rounds | the flat plane, sharded over threads (allocation-free rounds on one shard) | graph or edge stream |
//! | [`Engine::Legacy`] | synchronous rounds | the preserved seed engine (test-only fixture, behind the `legacy-engine` feature) | graph |
//! | [`Engine::Async`] | event-driven, pluggable synchronizer | flat-plane queues + timing-wheel event plane + [`DelayModel`]s + [`SyncModel`]s | graph or edge stream |
//!
//! The engines themselves are crate-private: [`Session`] is the only way
//! to build one, and [`SessionDriver`] (through the [`Driver`] trait) the
//! only way to drive it. The two production engines share one
//! construction path: [`Session`] compiles the [`Topology`] route table
//! (one two-pass CSR compiler for graphs and streams alike), the node
//! IDs, the shared endpoint arena, the protocols and the RNG streams
//! once, and hands them to whichever engine was selected.
//!
//! The asynchronous engine's scheduling is a subsystem of its own
//! ([`sched`]): four seeded link-[`DelayModel`]s (uniform, per-link,
//! heavy-tailed, adversarial-within-bound), per-phase [`PhasePlan`]
//! pulse budgets (the paper's §4.1 staged execution) that let
//! multi-phase protocols complete under a synchronizer via
//! [`SessionDriver::run_phased`], a pluggable synchronizer layer
//! ([`SyncModel`]): classic α, or the quiescence-aware `BatchedAlpha`
//! whose control cost follows the active frontier instead of the edge
//! count — a seeded fault plane ([`FaultModel`]): per-send message
//! loss and link flaps masked by deterministic retransmission, plus
//! crash/recover churn under which surviving nodes re-converge and the
//! run reports [`Termination::Degraded`] (see [`sched::fault`]) — and a
//! seeded membership churn plane ([`ChurnModel`]): epoch-versioned
//! join/leave over the static topology, with itemized retirement of
//! in-flight payloads, [`Protocol::on_join`]/[`Protocol::on_leave`]
//! handoff hooks, and an opt-in epoch-restart policy (see
//! [`sched::churn`]).
//!
//! All three sit behind [`Driver`] (drive rounds → read outputs /
//! metrics / termination), report through one [`RunReport`] (its
//! [`Metrics::messages_per_round`] is the one per-round ledger), and
//! stream quiescence barriers to [`Observer`]s. Per-node outputs — and
//! the payload-side [`Metrics`] — are bit-identical across engines for
//! the same seed. The observability plane ([`obs`]) adds a
//! zero-allocation recording layer on top: [`Session::trace`] installs
//! a ring-buffer [`TraceSink`] that captures typed per-pulse events
//! (fault and churn events included, which only it itemizes),
//! aggregates a streaming [`RunProfile`], and exports deterministic
//! JSONL / Chrome trace-event timelines — without perturbing a single
//! recorded bit.
//!
//! # Example: flooding, on all three engines
//!
//! ```
//! use congest::{
//!     ChurnModel, Context, DelayModel, Engine, FaultModel, Message, Port, Protocol, RunLimits,
//!     Session,
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
//! let delay = DelayModel::Uniform { max_delay: 4 };
//! for engine in [
//!     Engine::Flat { shards: 1 },
//!     Engine::Flat { shards: 2 },
//!     Engine::Async {
//!         delay,
//!         sync: congest::SyncModel::Alpha,
//!         fault: FaultModel::None,
//!         churn: ChurnModel::None,
//!     },
//!     Engine::Async {
//!         delay,
//!         sync: congest::SyncModel::BatchedAlpha,
//!         fault: FaultModel::None,
//!         churn: ChurnModel::None,
//!     },
//! ] {
//!     let (outputs, report) = Session::on(&g)
//!         .seed(7)
//!         .engine(engine)
//!         .limits(RunLimits::rounds(8))
//!         .run_with(factory);
//!     assert!(outputs.iter().all(|&heard| heard));
//!     assert_eq!(report.metrics.max_message_bits, 1);
//! }
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod asynch;
pub mod explore;
#[cfg(feature = "legacy-engine")]
mod legacy;
pub mod message;
pub mod metrics;
mod network;
pub mod obs;
mod plane;
pub mod protocol;
pub mod rng;
pub mod sched;
pub mod session;

pub use explore::{DelayTrace, Explore, ExploreReport, Violation};
pub use message::{bits_for_count, Message, ID_BITS, TAG_BITS};
pub use metrics::Metrics;
pub use network::{IdAssignment, Mode};
pub use obs::{
    CtrlTag, Hist, MetricsMode, RunProfile, TraceConfig, TraceEvent, TraceRecord, TraceSink,
};
pub use plane::Topology;
pub use protocol::{Context, Endpoint, Port, Protocol, Round};
pub use sched::{
    ChurnModel, ChurnPolicy, DelayModel, FaultModel, PhaseBudget, PhasePlan, SyncModel, TraceHandle,
};
pub use session::{
    Driver, Engine, Observer, RunLimits, RunReport, Session, SessionDriver, SyncOverhead,
    Termination,
};
