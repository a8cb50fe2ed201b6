//! `congest::explore` — the exhaustive interleaving explorer: a model
//! checker for the asynchronous event plane.
//!
//! Sampled asynchronous runs ([`Engine::Async`](crate::Engine::Async))
//! witness *one* delivery schedule per seed. This module checks **all of
//! them**: on tiny graphs it enumerates every delivery interleaving the
//! delay bound admits — replacing the seeded delay sampler with a
//! scripted choice source and branching the execution on every draw —
//! and runs a pluggable invariant suite on every reachable state of
//! every schedule:
//!
//! * synchronizer α's **±1 pulse-skew** bound ([`PulseSkew`]),
//! * **output and payload-[`Metrics`](crate::Metrics) equivalence**
//!   against the flat synchronous engine (the Awerbuch reduction, on
//!   *every* schedule rather than one sample per seed),
//! * **deadlock freedom** (the wheel never drains with a node short of
//!   its pulse budget),
//! * the fault plane's **masking identity**
//!   `dropped == retransmissions + lost` ([`MaskingIdentity`]).
//!
//! Branches that reconverge — independent deliveries commute — are
//! pruned by a canonical state fingerprint (see `fingerprint.rs`), so the
//! walk covers the distinct-state graph, not the raw schedule tree.
//!
//! # From violation to regression test
//!
//! Every [`Violation`] carries the branch's [`DelayTrace`]: the exact
//! per-send delay sequence that produced the counterexample.
//! [`DelayTrace::register`] turns it into a
//! [`DelayModel::Replay`](crate::DelayModel) accepted by the
//! ordinary [`Engine::Async`](crate::Engine::Async) — so a failing
//! exploration becomes a one-line regression test, reproducing the
//! schedule bit for bit through the production engine. Traces serialize
//! to a committable text form ([`DelayTrace::to_text`]).
//!
//! # Example: exhaust a flood on a 3-node path
//!
//! ```
//! use congest::explore::Explore;
//! use congest::{Context, Message, Port, Protocol};
//!
//! #[derive(Clone, Debug, Hash)]
//! struct Token;
//! impl Message for Token {
//!     fn bit_size(&self) -> usize { 1 }
//! }
//!
//! #[derive(Clone, Hash)]
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
//! let mut b = graphs::GraphBuilder::new(3);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! let g = b.build();
//!
//! let report = Explore::on(&g)
//!     .seed(7)
//!     .bound(2)       // branch every delay over {1, 2}
//!     .budget(2)      // two pulses reach the whole path
//!     .run_with(|e| Echo { seen: false, source: e.index == 0 });
//! assert!(report.violations.is_empty(), "{:?}", report.violations);
//! assert!(report.schedules >= 1 && report.states > report.schedules);
//! ```
//!
//! # Scope and cost
//!
//! The schedule space is exponential in the number of delay draws
//! (`bound^draws` raw assignments before pruning): this is a tool for
//! `n ≤ 4` graphs, bounds ≤ 2, and one or two pulses of budget — model
//! checking, not simulation. The [`Explore::limit_schedules`] valve
//! **panics** when exceeded rather than silently truncating, so an
//! exploration that finishes is always exhaustive. Faults are limited
//! to [`FaultModel::None`] and [`FaultModel::Drop`] (the fingerprint's
//! time-shift invariance argument breaks for time-indexed fault
//! streams; see `fingerprint.rs`), and the member set is fixed
//! ([`ChurnModel::None`]): membership schedules are pulse-indexed too.

pub mod checker;
pub(crate) mod fingerprint;
mod schedule;
mod trace;

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use graphs::Graph;

use crate::asynch::AsyncNetwork;
use crate::network::{IdAssignment, Nodes};
use crate::protocol::{Endpoint, Protocol};
use crate::sched::{ChurnModel, DelayModel, DelaySource, FaultModel, PhasePlan, SyncModel};
use crate::session::{Driver, RunLimits, RunReport, Session, Source};

pub use checker::{ExploreState, Invariant, MaskingIdentity, PulseSkew};
pub use trace::{DelayTrace, TraceParseError};

use schedule::{Dfs, FlatReference};

/// Builder for one exhaustive exploration. Start at [`Explore::on`],
/// configure the envelope (delay bound, synchronizer, fault model,
/// pulse budget or phase plan), then [`Explore::run_with`] or
/// [`Explore::run_checked`].
#[derive(Clone, Debug)]
pub struct Explore<'g> {
    graph: &'g Graph,
    seed: u64,
    bound: u64,
    sync: SyncModel,
    fault: FaultModel,
    budget: u64,
    plan: Option<PhasePlan>,
    limit_schedules: u64,
    audit_fingerprints: bool,
    dedup: bool,
}

impl<'g> Explore<'g> {
    /// An exploration over `graph` with defaults: seed 0, bound 1 (a
    /// single schedule — useful as a determinism pin), synchronizer α,
    /// no faults, a one-pulse budget.
    #[must_use]
    pub fn on(graph: &'g Graph) -> Self {
        Self {
            graph,
            seed: 0,
            bound: 1,
            sync: SyncModel::Alpha,
            fault: FaultModel::None,
            budget: 1,
            plan: None,
            limit_schedules: 1_000_000,
            audit_fingerprints: false,
            dedup: true,
        }
    }

    /// Master seed: fixes node IDs, per-node RNG streams, and the fault
    /// stream — everything *except* delays, which the explorer owns.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The delay bound: every per-send delay branches over `1..=bound`.
    /// The schedule space grows as `bound^draws`; 2 is already
    /// exhaustive for reordering (any relative order two in-flight
    /// messages can take, some assignment takes).
    #[must_use]
    pub fn bound(mut self, bound: u64) -> Self {
        assert!(bound >= 1, "explore: bound must be at least 1");
        self.bound = bound;
        self
    }

    /// The synchronizer gating pulses.
    #[must_use]
    pub fn sync(mut self, sync: SyncModel) -> Self {
        self.sync = sync;
        self
    }

    /// What the network breaks. Only [`FaultModel::None`] and
    /// [`FaultModel::Drop`] are explorable (see `fingerprint.rs`).
    #[must_use]
    pub fn fault(mut self, fault: FaultModel) -> Self {
        self.fault = fault;
        self
    }

    /// Pulse budget of a plain (unphased) exploration.
    #[must_use]
    pub fn budget(mut self, pulses: u64) -> Self {
        assert!(pulses >= 1, "explore: budget must be at least 1 pulse");
        self.budget = pulses;
        self
    }

    /// Explore a phased run instead: each phase drives its pulse budget
    /// and closes with the scheduled quiescence barrier, exactly like
    /// [`SessionDriver::run_phased`](crate::SessionDriver::run_phased).
    /// Every phase needs at least one pulse.
    #[must_use]
    pub fn plan(mut self, plan: PhasePlan) -> Self {
        assert!(!plan.is_empty(), "explore: a phase plan needs at least one phase");
        assert!(
            plan.phases().iter().all(|p| p.pulses >= 1),
            "explore: every phase needs at least one pulse"
        );
        self.plan = Some(plan);
        self
    }

    /// The explosion valve: the exploration **panics** when it walks
    /// more complete schedules than this (default 1,000,000). A partial
    /// exploration is never reported as exhaustive.
    #[must_use]
    pub fn limit_schedules(mut self, limit: u64) -> Self {
        assert!(limit >= 1, "explore: the schedule limit must be positive");
        self.limit_schedules = limit;
        self
    }

    /// Re-hash every state with an independent FNV-1a and count primary-
    /// fingerprint collisions in
    /// [`ExploreReport::fingerprint_collisions`] (default off; costs one
    /// extra state sweep per state).
    #[must_use]
    pub fn audit_fingerprints(mut self, audit: bool) -> Self {
        self.audit_fingerprints = audit;
        self
    }

    /// Toggle convergence pruning (default on). With pruning off the
    /// walk covers the **raw schedule tree** — every complete delay
    /// assignment is walked end-to-end and counted in
    /// [`ExploreReport::schedules`], revisits and all. Exponentially
    /// more expensive; useful for counting raw interleavings and for
    /// exercising the [`Explore::limit_schedules`] valve.
    #[must_use]
    pub fn dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Runs the exploration with the default invariant suite
    /// ([`PulseSkew`], [`MaskingIdentity`], deadlock freedom, and
    /// flat-engine equivalence: every completed schedule's outputs and
    /// payload ledger must match a synchronous reference run with the
    /// same seed).
    ///
    /// # Panics
    ///
    /// Panics on an unexplorable fault model, or when the walk exceeds
    /// [`Explore::limit_schedules`].
    pub fn run_with<P, F>(self, factory: F) -> ExploreReport
    where
        P: Protocol + Clone + Hash,
        P::Msg: Hash,
        P::Output: PartialEq + std::fmt::Debug,
        F: FnMut(&Endpoint) -> P,
    {
        self.run_checked(factory, Vec::new())
    }

    /// Runs the exploration with the default suite plus `extra`
    /// invariants (checked on every state and at every schedule end).
    ///
    /// # Panics
    ///
    /// Panics on an unexplorable fault model, or when the walk exceeds
    /// [`Explore::limit_schedules`].
    pub fn run_checked<P, F>(
        self,
        mut factory: F,
        extra: Vec<Box<dyn Invariant<P>>>,
    ) -> ExploreReport
    where
        P: Protocol + Clone + Hash,
        P::Msg: Hash,
        P::Output: PartialEq + std::fmt::Debug,
        F: FnMut(&Endpoint) -> P,
    {
        assert!(
            matches!(self.fault, FaultModel::None | FaultModel::Drop { .. }),
            "explore: only FaultModel::None and FaultModel::Drop are explorable \
             (time-indexed fault streams break fingerprint time-shift invariance)"
        );
        let segments: Vec<u64> = match &self.plan {
            Some(plan) => plan.phases().iter().map(|p| p.pulses).collect(),
            None => vec![self.budget],
        };

        // The synchronous reference every completed schedule must
        // reproduce. Phased explorations compare against the flat
        // engine's own quiescence-barrier staging (default limits), the
        // same ground truth the engine-equivalence suite uses.
        let session = Session::on(self.graph).seed(self.seed);
        let (outputs, report) = match &self.plan {
            Some(_) => session.run_with(&mut factory),
            None => session.limits(RunLimits::rounds(self.budget)).run_with(&mut factory),
        };
        let reference = FlatReference { outputs, metrics: report.metrics };

        // Build the engine on the nominal uniform model (correct wheel
        // and retransmission-timeout sizing for the bound), then swap in
        // the scripted choice source the DFS feeds.
        let delay = DelayModel::Uniform { max_delay: self.bound };
        let mut net = async_engine(self.graph, self.seed, delay, self.sync, self.fault, factory);
        *net.delays_mut() = DelaySource::script(self.bound);

        let mut checks: Vec<Box<dyn Invariant<P>>> =
            vec![Box::new(PulseSkew::new(self.graph)), Box::new(MaskingIdentity)];
        checks.extend(extra);

        let mut dfs = Dfs {
            bound: self.bound,
            segments,
            phased: self.plan.is_some(),
            limit_schedules: self.limit_schedules,
            checks,
            reference,
            dedup: self.dedup,
            visited: HashSet::new(),
            audit: self.audit_fingerprints.then(HashMap::new),
            report: ExploreReport::default(),
        };
        dfs.run(net);
        dfs.report
    }
}

/// Runs [`Engine::Async`](crate::Engine::Async) for `limits` pulses with
/// every realized delay draw recorded, returning the outputs, the run
/// report, and the run's [`DelayTrace`].
///
/// Registering the returned trace
/// ([`DelayTrace::register`] → [`DelayModel::Replay`](crate::DelayModel))
/// and re-running with the same `(graph, seed, sync, fault, limits)`
/// reproduces the run **bit for bit** — outputs, payload
/// [`Metrics`](crate::Metrics), and [`SyncOverhead`](crate::SyncOverhead)
/// included — because the engine is deterministic given its seed and its
/// delay draws. This is the bridge between sampled runs and replayable
/// schedules: any seed-found behavior can be frozen into a trace.
///
/// # Panics
///
/// Panics where building [`Engine::Async`](crate::Engine::Async) through
/// [`Session`] does (malformed delay or fault model, ID collision,
/// port-space overflow).
pub fn record_run<P, F>(
    graph: &Graph,
    seed: u64,
    delay: DelayModel,
    sync: SyncModel,
    fault: FaultModel,
    limits: RunLimits,
    factory: F,
) -> (Vec<P::Output>, RunReport, DelayTrace)
where
    P: Protocol,
    F: FnMut(&Endpoint) -> P,
{
    let mut net = async_engine(graph, seed, delay, sync, fault, factory);
    net.delays_mut().record();
    let report = net.drive(limits, &mut ());
    // The trace's bound is the *compiled* bound: replay sizes its wheel
    // and retransmission timeout off it, so it must match the recorded
    // run's sizing exactly.
    let trace = DelayTrace::new(net.delays().compiled_bound(), net.delays().tape().to_vec());
    (net.outputs(), report, trace)
}

/// The α engine over `graph` with hashed IDs and a fixed member set,
/// built from the same node parts as [`Session::build_with`]'s — the
/// explorer and [`record_run`] drive it directly.
fn async_engine<P, F>(
    graph: &Graph,
    seed: u64,
    delay: DelayModel,
    sync: SyncModel,
    fault: FaultModel,
    factory: F,
) -> AsyncNetwork<P>
where
    P: Protocol,
    F: FnMut(&Endpoint) -> P,
{
    let nodes = Nodes::build(Source::Graph(graph), seed, IdAssignment::Hashed, 1, factory);
    AsyncNetwork::new(nodes, seed, delay, sync, fault, ChurnModel::None)
}

/// What an exploration covered, and what it found.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Distinct states expanded (post-step fingerprints first seen).
    pub states: u64,
    /// Complete schedules walked end-to-end through the deduplicated
    /// state graph.
    pub schedules: u64,
    /// Branches pruned at an already-expanded fingerprint.
    pub deduped: u64,
    /// Deepest step count reached on any branch.
    pub max_depth: u64,
    /// Primary-fingerprint collisions detected by the independent audit
    /// hash (always 0 unless [`Explore::audit_fingerprints`] is on; a
    /// nonzero count means 64-bit dedup equated distinct states).
    pub fingerprint_collisions: u64,
    /// Invariant violations, each with its replayable counterexample.
    pub violations: Vec<Violation>,
}

impl ExploreReport {
    /// `true` when the exploration found no violations and no
    /// fingerprint collisions.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.fingerprint_collisions == 0
    }
}

/// One invariant violation: which check failed, why, and the exact delay
/// schedule that produced it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The failing check's [`Invariant::name`].
    pub invariant: &'static str,
    /// Human-readable failure description from the check.
    pub detail: String,
    /// The branch's per-send delay record: register it as a
    /// [`DelayModel::Replay`](crate::DelayModel) to reproduce
    /// the counterexample through [`Engine::Async`](crate::Engine::Async)
    /// bit for bit.
    pub trace: DelayTrace,
}

#[cfg(test)]
mod tests {
    use super::fingerprint::fingerprint;
    use super::*;
    use crate::message::Message;
    use crate::protocol::{Context, Port};
    use crate::session::Engine;
    use graphs::GraphBuilder;

    const SYNC_MODELS: [SyncModel; 2] = [SyncModel::Alpha, SyncModel::BatchedAlpha];

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.add_edge(i - 1, i);
        }
        b.build()
    }

    fn star(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.add_edge(0, i);
        }
        b.build()
    }

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.build()
    }

    #[derive(Clone, Debug, Hash)]
    struct Rumor;
    impl Message for Rumor {
        fn bit_size(&self) -> usize {
            1
        }
    }

    /// The canonical flooding protocol, explorer-compatible (Hash).
    #[derive(Clone, Debug, Hash)]
    struct Flood {
        is_source: bool,
        heard_at: Option<u64>,
        forwarded: bool,
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

    fn make_flood(e: &Endpoint) -> Flood {
        Flood { is_source: e.index == 0, heard_at: None, forwarded: false }
    }

    /// Max-gossip: every node broadcasts the largest value it has seen,
    /// every pulse it learns something new.
    #[derive(Clone, Debug, Hash)]
    struct Gossip {
        best: u64,
    }

    #[derive(Clone, Debug, Hash)]
    struct Word(u64);
    impl Message for Word {
        fn bit_size(&self) -> usize {
            8
        }
    }

    impl Protocol for Gossip {
        type Msg = Word;
        type Output = u64;
        fn init(&mut self, ctx: &mut Context<'_, Word>) {
            ctx.broadcast(Word(self.best));
        }
        fn step(&mut self, ctx: &mut Context<'_, Word>, inbox: &[(Port, Word)]) {
            let seen = inbox.iter().map(|&(_, Word(w))| w).max();
            if let Some(w) = seen {
                if w > self.best {
                    self.best = w;
                    ctx.broadcast(Word(w));
                }
            }
        }
        fn is_idle(&self) -> bool {
            true
        }
        fn output(&self) -> u64 {
            self.best
        }
    }

    fn make_gossip(e: &Endpoint) -> Gossip {
        Gossip { best: (e.index as u64 + 1) * 10 }
    }

    /// Logs the inbox arrival order — the most order-sensitive protocol
    /// possible, used to prove delivery order cannot leak through the
    /// per-pulse inbox.
    #[derive(Clone, Debug, Hash)]
    struct ArrivalLog {
        log: Vec<usize>,
    }

    impl Protocol for ArrivalLog {
        type Msg = Rumor;
        type Output = Vec<usize>;
        fn init(&mut self, ctx: &mut Context<'_, Rumor>) {
            ctx.broadcast(Rumor);
        }
        fn step(&mut self, _ctx: &mut Context<'_, Rumor>, inbox: &[(Port, Rumor)]) {
            for &(port, _) in inbox {
                self.log.push(port);
            }
        }
        fn is_idle(&self) -> bool {
            true
        }
        fn output(&self) -> Vec<usize> {
            self.log.clone()
        }
    }

    /// The acceptance pin: flood on a 3-node path at bound 1 is a single
    /// schedule with a stable, asserted state count and zero violations,
    /// across both synchronizers and {None, Drop}.
    #[test]
    fn flood_on_a_path_at_bound_one_is_one_clean_schedule() {
        let g = path(3);
        let mut counts = Vec::new();
        for sync in SYNC_MODELS {
            for fault in [FaultModel::None, FaultModel::Drop { p_millis: 200 }] {
                let report = Explore::on(&g)
                    .seed(11)
                    .bound(1)
                    .budget(2)
                    .sync(sync)
                    .fault(fault)
                    .run_with(make_flood);
                assert!(report.is_clean(), "{sync:?} {fault:?}: {:?}", report.violations);
                assert_eq!(report.schedules, 1, "bound 1 admits exactly one schedule");
                assert!(report.states > 0 && report.deduped == 0);
                counts.push((report.states, report.max_depth));
            }
        }
        // Determinism: the same exploration re-run lands on identical
        // counts.
        for sync in SYNC_MODELS {
            for fault in [FaultModel::None, FaultModel::Drop { p_millis: 200 }] {
                let report = Explore::on(&g)
                    .seed(11)
                    .bound(1)
                    .budget(2)
                    .sync(sync)
                    .fault(fault)
                    .run_with(make_flood);
                let expect = counts.remove(0);
                assert_eq!((report.states, report.max_depth), expect, "{sync:?} {fault:?}");
            }
        }
    }

    /// The tentpole matrix: flood and gossip exhausted on paths, stars
    /// and triangles (n ≤ 4) at bound 2, under both synchronizers and
    /// both explorable fault models — every schedule clean.
    #[test]
    fn tiny_graph_matrix_is_clean_on_every_schedule() {
        let graphs: [(&str, Graph); 3] =
            [("path3", path(3)), ("star4", star(4)), ("triangle", triangle())];
        for (name, g) in &graphs {
            for sync in SYNC_MODELS {
                for fault in [FaultModel::None, FaultModel::Drop { p_millis: 250 }] {
                    let report = Explore::on(g)
                        .seed(5)
                        .bound(2)
                        .budget(1)
                        .sync(sync)
                        .fault(fault)
                        .run_with(make_flood);
                    assert!(
                        report.is_clean(),
                        "flood/{name}/{sync:?}/{fault:?}: {:?}",
                        report.violations
                    );
                    assert!(report.deduped > 0, "bound 2 must actually branch ({name})");
                }
            }
        }
        // Gossip is heavier (every node sends every pulse); exhaust it
        // on the 3-node path under both synchronizers.
        for sync in SYNC_MODELS {
            for fault in [FaultModel::None, FaultModel::Drop { p_millis: 250 }] {
                let report = Explore::on(&path(3))
                    .seed(6)
                    .bound(2)
                    .budget(1)
                    .sync(sync)
                    .fault(fault)
                    .run_with(make_gossip);
                assert!(report.is_clean(), "gossip/{sync:?}/{fault:?}: {:?}", report.violations);
                assert!(report.deduped > 0);
            }
        }
    }

    /// Deeper budgets reconverge heavily: the dedup table must actually
    /// prune, or tiny graphs would already be intractable.
    #[test]
    fn convergent_branches_are_deduplicated() {
        let report = Explore::on(&path(3)).seed(3).bound(2).budget(2).run_with(make_flood);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.deduped > 0, "a two-pulse bound-2 flood must reconverge somewhere");
        // Confluence: every interleaving converges to the same end
        // state, so the deduplicated walk completes exactly one
        // distinct schedule.
        assert_eq!(report.schedules, 1);
    }

    /// A staged protocol for phased exploration: wave w broadcasts at
    /// phase w, nodes record (wave, pulse) pairs.
    #[derive(Clone, Debug, Hash)]
    struct Staged {
        wave: u32,
        waves: u32,
        heard: Vec<(u32, u64)>,
    }

    #[derive(Clone, Debug, Hash)]
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

    /// The tentpole's 2-phase requirement: a PhasePlan run explored
    /// end-to-end — every schedule passes through both barriers and
    /// reproduces the synchronous staging.
    #[test]
    fn two_phase_plan_is_clean_on_every_schedule() {
        let make = |_: &Endpoint| Staged { wave: 0, waves: 2, heard: Vec::new() };
        let plan = PhasePlan::new().phase("wave0", 1).phase("wave1", 1);
        for sync in SYNC_MODELS {
            let report =
                Explore::on(&path(3)).seed(8).bound(2).plan(plan.clone()).sync(sync).run_with(make);
            assert!(report.is_clean(), "{sync:?}: {:?}", report.violations);
            assert!(report.deduped > 0, "{sync:?}: bound 2 must branch across the phases");
        }
    }

    /// A test-only mutant invariant: flags any schedule whose virtual
    /// completion time reaches a threshold — a schedule-dependent
    /// property, so only *some* interleavings trigger it.
    struct SlowFinish {
        at_least: u64,
    }

    impl Invariant<Flood> for SlowFinish {
        fn name(&self) -> &'static str {
            "slow_finish"
        }

        fn on_schedule_end(&self, state: &ExploreState<'_, Flood>) -> Result<(), String> {
            let vt = state.overhead().virtual_time;
            if vt >= self.at_least {
                Err(format!("virtual_time={vt}"))
            } else {
                Ok(())
            }
        }
    }

    /// The acceptance test for counterexample traces: a mutant predicate
    /// yields a violation whose DelayTrace replays through the ordinary
    /// `Engine::Async` bit for bit — twice over, and reproducing the
    /// exact flagged property.
    #[test]
    fn violation_traces_replay_through_the_async_engine_bit_for_bit() {
        let g = path(3);
        let report = Explore::on(&g)
            .seed(11)
            .bound(2)
            .budget(2)
            .run_checked(make_flood, vec![Box::new(SlowFinish { at_least: 5 })]);
        assert!(
            !report.violations.is_empty(),
            "some bound-2 schedule must finish at virtual time >= 5"
        );
        let violation = &report.violations[0];
        assert_eq!(violation.invariant, "slow_finish");
        let flagged_vt: u64 = violation
            .detail
            .strip_prefix("virtual_time=")
            .expect("mutant detail format")
            .parse()
            .expect("mutant detail parses");

        // Round-trip the trace through its committable text form first:
        // the replayed model is what a regression fixture would load.
        let trace = DelayTrace::from_text(&violation.trace.to_text()).expect("trace round-trips");
        assert_eq!(&trace, &violation.trace);
        let replay = || {
            Session::on(&g)
                .seed(11)
                .engine(Engine::Async {
                    delay: trace.register(),
                    sync: SyncModel::Alpha,
                    fault: FaultModel::None,
                    churn: ChurnModel::None,
                })
                .limits(RunLimits::rounds(2))
                .run_with(make_flood)
        };
        let (out_a, rep_a) = replay();
        let (out_b, rep_b) = replay();
        // Bit-for-bit: the replay is deterministic...
        assert_eq!(out_a, out_b);
        assert_eq!(rep_a.metrics, rep_b.metrics);
        assert_eq!(rep_a.overhead, rep_b.overhead);
        // ...and reproduces the counterexample exactly: the flagged
        // virtual completion time, not merely the threshold.
        assert_eq!(rep_a.overhead.virtual_time, flagged_vt);
        assert!(flagged_vt >= 5);
    }

    /// A deliberately false invariant proves violations carry usable
    /// detail and the explorer keeps walking after recording them.
    struct AlwaysFails;

    impl Invariant<Flood> for AlwaysFails {
        fn name(&self) -> &'static str {
            "always_fails"
        }

        fn on_state(&self, _: &ExploreState<'_, Flood>) -> Result<(), String> {
            Err("every state is flagged".to_string())
        }
    }

    #[test]
    fn violations_prune_the_branch_but_not_the_walk() {
        let report = Explore::on(&path(3))
            .seed(2)
            .bound(2)
            .budget(1)
            .run_checked(make_flood, vec![Box::new(AlwaysFails)]);
        // Every first step is flagged; no state survives to be counted.
        assert!(!report.violations.is_empty());
        assert_eq!(report.states, 0);
        assert_eq!(report.schedules, 0);
        for v in &report.violations {
            assert_eq!(v.invariant, "always_fails");
            assert!(!v.trace.delays().is_empty() || v.trace.bound() == 2);
        }
    }

    /// Fingerprint coverage: deterministic across identical drives,
    /// different across distinct protocol states.
    #[test]
    fn fingerprints_are_deterministic_and_state_sensitive() {
        let g = triangle();
        let build = |seed: u64| {
            let delay = DelayModel::Uniform { max_delay: 2 };
            let mut net =
                async_engine(&g, seed, delay, SyncModel::Alpha, FaultModel::None, make_flood);
            *net.delays_mut() = DelaySource::script(2);
            net
        };
        // Identical drives → identical fingerprints, at every step.
        let mut a = build(9);
        let mut b = build(9);
        a.delays_mut().begin_step(&[]);
        b.delays_mut().begin_step(&[]);
        a.begin_segment(1);
        b.begin_segment(1);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        while a.pending_events() > 0 {
            a.delays_mut().begin_step(&[]);
            b.delays_mut().begin_step(&[]);
            assert!(a.step_event() && b.step_event());
            assert_eq!(fingerprint(&a), fingerprint(&b), "fingerprints diverged mid-drive");
        }
        // Distinct protocol state (different source node) → different
        // fingerprint from the first step.
        let mut c = build(9);
        *c.delays_mut() = DelaySource::script(2);
        let mut d = async_engine(
            &g,
            9,
            DelayModel::Uniform { max_delay: 2 },
            SyncModel::Alpha,
            FaultModel::None,
            |e: &Endpoint| Flood { is_source: e.index == 1, heard_at: None, forwarded: false },
        );
        *d.delays_mut() = DelaySource::script(2);
        c.delays_mut().begin_step(&[]);
        d.delays_mut().begin_step(&[]);
        c.begin_segment(1);
        d.begin_segment(1);
        assert_ne!(fingerprint(&c), fingerprint(&d), "distinct protocol states must differ");
    }

    /// The collision audit on a reference triangle exploration: the
    /// independent FNV sweep never contradicts a SipHash dedup over the
    /// whole explored state set.
    #[test]
    fn fingerprints_never_collide_across_a_reference_exploration() {
        for sync in SYNC_MODELS {
            let report = Explore::on(&triangle())
                .seed(7)
                .bound(2)
                .budget(1)
                .sync(sync)
                .audit_fingerprints(true)
                .run_with(make_flood);
            assert!(report.violations.is_empty(), "{sync:?}: {:?}", report.violations);
            assert_eq!(report.fingerprint_collisions, 0, "{sync:?}");
            assert!(report.states > 0);
        }
    }

    /// record_run + Replay: a *sampled* run's realized draws replay bit
    /// for bit through the ordinary engine — outputs, metrics, overhead.
    #[test]
    fn recorded_sampled_runs_replay_bit_for_bit() {
        let g = star(4);
        for delay in [
            DelayModel::Uniform { max_delay: 3 },
            DelayModel::PerLink { max_delay: 3 },
            DelayModel::HeavyTailed { max_delay: 3 },
        ] {
            for fault in [FaultModel::None, FaultModel::Drop { p_millis: 200 }] {
                let (outputs, report, trace) = record_run(
                    &g,
                    13,
                    delay,
                    SyncModel::Alpha,
                    fault,
                    RunLimits::rounds(3),
                    make_flood,
                );
                let (re_out, re_report) = Session::on(&g)
                    .seed(13)
                    .engine(Engine::Async {
                        delay: trace.register(),
                        sync: SyncModel::Alpha,
                        fault,
                        churn: ChurnModel::None,
                    })
                    .limits(RunLimits::rounds(3))
                    .run_with(make_flood);
                assert_eq!(re_out, outputs, "{delay:?} {fault:?}");
                assert_eq!(re_report.metrics, report.metrics, "{delay:?} {fault:?}");
                assert_eq!(re_report.overhead, report.overhead, "{delay:?} {fault:?}");
            }
        }
    }

    /// Delivery order is invisible to protocols: even a protocol that
    /// logs its inbox arrival order produces one confluent end state
    /// across all interleavings — the engine canonicalizes the per-pulse
    /// inbox, which is exactly the Awerbuch reduction's guarantee. The
    /// raw (unpruned) tree walks every assignment end-to-end.
    #[test]
    fn delivery_order_never_leaks_into_protocol_state() {
        let make = |_: &Endpoint| ArrivalLog { log: Vec::new() };
        let pruned = Explore::on(&star(4))
            .seed(5)
            .bound(2)
            .budget(1)
            .sync(SyncModel::BatchedAlpha)
            .run_with(make);
        assert!(pruned.is_clean(), "{:?}", pruned.violations);
        assert_eq!(pruned.schedules, 1, "all interleavings must be confluent");
        assert!(pruned.deduped > 0);

        let raw = Explore::on(&star(4))
            .seed(5)
            .bound(2)
            .budget(1)
            .sync(SyncModel::BatchedAlpha)
            .dedup(false)
            .run_with(make);
        assert!(raw.is_clean(), "{:?}", raw.violations);
        assert_eq!(raw.deduped, 0);
        assert_eq!(raw.schedules, 64, "2^6 raw assignments, each walked end-to-end");
        assert!(raw.states > pruned.states);
    }

    #[test]
    #[should_panic(expected = "limit_schedules")]
    fn exceeding_the_schedule_valve_panics_instead_of_truncating() {
        let _ = Explore::on(&path(3))
            .seed(1)
            .bound(2)
            .budget(1)
            .sync(SyncModel::BatchedAlpha)
            .dedup(false)
            .limit_schedules(2)
            .run_with(|_: &Endpoint| ArrivalLog { log: Vec::new() });
    }

    #[test]
    #[should_panic(expected = "only FaultModel::None and FaultModel::Drop")]
    fn time_indexed_fault_models_are_rejected() {
        let _ = Explore::on(&path(3))
            .fault(FaultModel::LinkFlap { down_len: 2, up_len: 6 })
            .run_with(make_flood);
    }
}
