//! The asynchronous scheduling subsystem: *what is delayed* × *how
//! phases advance* × *how pulses are synchronized*.
//!
//! [`Engine::Async`](crate::Engine::Async) executes the §2 Awerbuch
//! reduction — any synchronous algorithm runs unchanged under a
//! synchronizer. This module supplies the three scheduling dimensions
//! that turn that executor into an adversarial testbed:
//!
//! * [`DelayModel`] — the link-delay distribution. Four models, all
//!   seeded and deterministic: [`DelayModel::Uniform`] (the classic
//!   `1..=max_delay` draw), [`DelayModel::PerLink`] (every directed port
//!   gets its own seeded bound — heterogeneous links),
//!   [`DelayModel::HeavyTailed`] (a bounded Pareto-like draw — most
//!   messages fast, a heavy tail of stragglers), and
//!   [`DelayModel::Adversarial`] (worst-case-within-bound: a seeded half
//!   of the ports always takes the full `max_delay`, the rest are
//!   instant — maximal skew the synchronizer must absorb).
//! * [`PhasePlan`] — per-phase deterministic pulse budgets, the paper's
//!   §4.1 staged execution. A synchronizer has no quiescence barrier, so
//!   multi-phase protocols (like `DistNearClique`) assign each phase a
//!   precomputed budget; when a phase's budget elapses, every node takes
//!   its [`Protocol::on_quiescent`](crate::Protocol::on_quiescent)
//!   transition, exactly as the synchronous simulator does at
//!   quiescence. Budgets can be written by hand or derived from a
//!   synchronous dry run's phase trace
//!   ([`PhasePlan::from_trace`]).
//! * [`FaultModel`] — what the network *breaks* ([`fault`]): seeded
//!   per-send message loss ([`FaultModel::Drop`]), periodic per-port
//!   outages ([`FaultModel::LinkFlap`]) — both **masked** by a
//!   deterministic retransmit-on-timeout path so outputs and payload
//!   metrics stay bit-identical to the fault-free run — and node churn
//!   ([`FaultModel::Crash`]), under which surviving nodes re-converge
//!   and the run reports
//!   [`Termination::Degraded`](crate::Termination::Degraded). Every
//!   fault schedule is replayable from `(seed, FaultModel)` alone.
//!   Faults are recorded where they happen, as
//!   [`crate::TraceEvent`]s in the trace sink.
//! * [`ChurnModel`] — how the *member set* changes ([`churn`]): seeded
//!   staggered joins ([`ChurnModel::Join`]), graceful leaves
//!   ([`ChurnModel::Leave`]), or both ([`ChurnModel::Mixed`]). Each
//!   membership event opens a new **epoch**: the engine flips the
//!   node's presence flag, a port carries payloads only toward a
//!   present peer, every payload retired on the way is itemized
//!   (one [`crate::TraceEvent::Retired`] each), live peers observe
//!   [`Protocol::on_join`](crate::Protocol::on_join) /
//!   [`Protocol::on_leave`](crate::Protocol::on_leave), and
//!   [`churn::ChurnPolicy`] selects whether protocols continue
//!   (self-stabilizing) or restart from `init` each epoch. Every churn
//!   schedule is replayable from `(seed, ChurnModel)` alone.
//! * [`SyncModel`] — the synchronizer itself ([`sync`]): the executor
//!   core delegates pulse gating and all control traffic to the
//!   selected synchronizer, which reaches the network through one wire
//!   (routes, delays, faults, timing wheel). [`SyncModel::Alpha`] is
//!   Awerbuch's classic α
//!   (per-payload `Ack`s + a `Safe` flood per edge per pulse), the
//!   extracted reference; [`SyncModel::BatchedAlpha`] piggybacks safety
//!   on payload envelopes and coalesces the pure-`Safe` flood into one
//!   wave per node per pulse, cutting the control cost of empty and
//!   sparse pulses from `O(m)` to the active frontier.
//!
//! All knobs ride the unified [`crate::Session`] surface: the delay
//! model, synchronizer, fault model and churn model go into
//! `Engine::Async { delay, sync, fault, churn }`, the plan into
//! [`crate::SessionDriver::run_phased`]. Payload-side
//! [`crate::Metrics`] stay bit-identical to the synchronous engines'
//! under **every** delay model and **every** synchronizer — scheduling
//! reorders delivery, never traffic — which the cross-model tests in
//! `crates/core/tests/engine_equivalence.rs` and `tests/asynchrony.rs`
//! pin.
//!
//! The subsystem also owns the executor's event plane: the bounded
//! delays every model guarantees are what make its crate-private timing
//! wheel — the O(1), zero-steady-state-allocation replacement for the
//! engine's old delay heap — correct.

pub mod churn;
mod delay;
pub mod fault;
mod phase;
pub mod sync;
mod wheel;

pub(crate) use churn::ChurnPlane;
pub use churn::{ChurnModel, ChurnPolicy};
pub(crate) use delay::{intern_trace, DelaySource};
pub use delay::{DelayModel, TraceHandle};
pub use fault::FaultModel;
pub(crate) use fault::FaultPlane;
pub use phase::{PhaseBudget, PhasePlan};
pub use sync::SyncModel;
pub(crate) use wheel::EventWheel;
