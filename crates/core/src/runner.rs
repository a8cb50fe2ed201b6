//! High-level entry points: build the network, run, collect results.
//!
//! [`run_near_clique`] is the one-call API most users (and all examples)
//! want: draw the sampling stage, execute the protocol through a
//! [`congest::Session`] (any [`Engine`] — synchronous, or asynchronous
//! under synchronizer α with a precomputed [`PhasePlan`]), and return
//! labels, per-node outputs, metrics and everything needed for
//! verification or cross-checking against the centralized reference.

use congest::{Driver, Engine, Metrics, Observer, PhasePlan, RunLimits, Session, Termination};
use graphs::{FixedBitSet, Graph};

use crate::params::NearCliqueParams;
use crate::protocol::{DistNearClique, NodeOutput};
use crate::reference::{reference_run, ReferenceResult};
use crate::sample::SamplePlan;

/// Execution knobs orthogonal to the algorithm parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Deterministic round bound (§4.1 wrapper); the run aborts with
    /// whatever labels exist if exceeded.
    pub max_rounds: u64,
    /// Which engine executes the protocol. All engines are bit-identical
    /// on labels, outputs and payload metrics for the same seed (the flat
    /// engine at any shard count; [`Engine::Async`] under any
    /// [`DelayModel`](congest::DelayModel), scheduled by a derived [`PhasePlan`]) — the
    /// determinism contract `engine_equivalence` enforces.
    pub engine: Engine,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self { max_rounds: 10_000_000, engine: Engine::default() }
    }
}

impl RunOptions {
    /// Default limits on the flat engine, sharded over `threads` OS
    /// threads. Results are bit-identical at any thread count (the flat
    /// plane's determinism contract; see `crates/congest/src/network.rs`).
    #[must_use]
    pub fn threaded(threads: usize) -> Self {
        Self { engine: Engine::Flat { shards: threads }, ..Self::default() }
    }

    /// Default limits on an explicit engine.
    #[must_use]
    pub fn with_engine(engine: Engine) -> Self {
        Self { engine, ..Self::default() }
    }
}

/// Collects the rounds at which quiescence barriers (phase transitions)
/// were granted — the streaming replacement for post-run trace plumbing,
/// through the [`Observer`]'s one hook.
#[derive(Default)]
struct BarrierTrace {
    rounds: Vec<u64>,
}

impl Observer for BarrierTrace {
    fn on_barrier(&mut self, round: u64) {
        self.rounds.push(round);
    }
}

/// Everything a `DistNearClique` execution produced.
#[derive(Clone, Debug)]
pub struct NearCliqueRun {
    /// Per-node outputs, indexed by node.
    pub outputs: Vec<NodeOutput>,
    /// Per-node labels (`outputs[i].label`, extracted for convenience).
    pub labels: Vec<Option<u64>>,
    /// Simulator metrics: rounds, messages, bits.
    pub metrics: Metrics,
    /// Synchronizer control-plane overhead — identically zero on the
    /// synchronous engines; on [`Engine::Async`], the configured
    /// [`SyncModel`](congest::SyncModel)'s control traffic (α's Ack/Safe flood, or the
    /// batched variant's coalesced Safe waves) and the virtual
    /// completion time.
    pub overhead: congest::SyncOverhead,
    /// Whether the run quiesced or hit the round bound.
    pub termination: Termination,
    /// The sampling-stage coin flips used.
    pub plan: SamplePlan,
    /// The ID assignment used (for reference cross-validation).
    pub ids: Vec<u64>,
    /// The parameters the run used.
    pub params: NearCliqueParams,
    /// Phase transitions as `(version, phase name, entry round)` —
    /// node 0's trace; phases are global barriers so it describes the
    /// whole run.
    pub phase_trace: Vec<(u8, &'static str, u64)>,
    /// Rounds at which a quiescence barrier was granted, streamed by a
    /// [`congest::Observer`] during the run (one entry per barrier in
    /// `metrics.barriers`).
    pub barrier_rounds: Vec<u64>,
}

impl NearCliqueRun {
    /// Groups labeled nodes into their output near-cliques, sorted by
    /// decreasing size (ties by label).
    #[must_use]
    pub fn labeled_sets(&self) -> Vec<(u64, FixedBitSet)> {
        let n = self.labels.len();
        let mut by_label: std::collections::BTreeMap<u64, FixedBitSet> =
            std::collections::BTreeMap::new();
        for (v, label) in self.labels.iter().enumerate() {
            if let Some(root) = label {
                by_label.entry(*root).or_insert_with(|| FixedBitSet::new(n)).insert(v);
            }
        }
        let mut sets: Vec<(u64, FixedBitSet)> = by_label.into_iter().collect();
        sets.sort_by_key(|(label, set)| (std::cmp::Reverse(set.len()), *label));
        sets
    }

    /// The largest output near-clique, if any node was labeled.
    #[must_use]
    pub fn largest_set(&self) -> Option<FixedBitSet> {
        self.labeled_sets().into_iter().next().map(|(_, set)| set)
    }

    /// Size of the sample `S` of `version` (diagnostics; Lemma 5.2).
    ///
    /// # Panics
    ///
    /// Panics if `version` is out of range.
    #[must_use]
    pub fn sample_size(&self, version: u32) -> usize {
        self.plan.sample(version).len()
    }

    /// Full candidate-level introspection: recomputes the run centrally
    /// (same sample, same IDs) via [`reference_run`], exposing every
    /// candidate component, its `X(Sᵢ)`, `T_ε(X(Sᵢ))` and whether it
    /// survived the decision stage. The returned labels are guaranteed to
    /// equal [`Self::labels`] (enforced by the crate's equivalence tests).
    ///
    /// # Panics
    ///
    /// Panics if `g` is not the graph this run executed on.
    #[must_use]
    pub fn candidate_report(&self, g: &graphs::Graph) -> ReferenceResult {
        reference_run(g, &self.ids, &self.params, &self.plan)
    }
}

/// Runs `DistNearClique` on `g` with default options.
///
/// `seed` determines the sampling stage, the ID assignment and nothing
/// else (the protocol is otherwise deterministic). See
/// [`run_near_clique_with`] for execution knobs.
#[must_use]
pub fn run_near_clique(g: &Graph, params: &NearCliqueParams, seed: u64) -> NearCliqueRun {
    run_near_clique_with(g, params, seed, RunOptions::default())
}

/// Runs `DistNearClique` with explicit [`RunOptions`], through the
/// unified [`Session`] surface.
///
/// On the synchronous engines, phase transitions happen at the
/// simulator's quiescence barriers. On [`Engine::Async`] — where
/// synchronizer α has no quiescence barrier — the runner first
/// *precomputes* the §4.1 schedule with [`near_clique_phase_plan`] (a
/// synchronous dry run on the flat engine; the stand-in for the paper's
/// offline round-bound analysis) and then executes the phased
/// asynchronous run via [`run_near_clique_phased`]. Labels, outputs and
/// the payload-side [`Metrics`] equal the synchronous engines' bit for
/// bit, under every [`DelayModel`](congest::DelayModel).
#[must_use]
pub fn run_near_clique_with(
    g: &Graph,
    params: &NearCliqueParams,
    seed: u64,
    options: RunOptions,
) -> NearCliqueRun {
    if let Engine::Async { .. } = options.engine {
        let plan = near_clique_phase_plan(g, params, seed, options.max_rounds);
        return run_near_clique_phased(g, params, seed, options.engine, &plan);
    }
    execute(g, params, seed, options.engine, options.max_rounds, None)
}

/// The one execution body behind [`run_near_clique_with`] and
/// [`run_near_clique_phased`]: draws the sampling stage, builds the
/// driver on `engine` with a `max_rounds` budget, runs it (under
/// `phases` when given) while streaming barrier rounds, and collects the
/// run.
fn execute(
    g: &Graph,
    params: &NearCliqueParams,
    seed: u64,
    engine: Engine,
    max_rounds: u64,
    phases: Option<&PhasePlan>,
) -> NearCliqueRun {
    let plan = SamplePlan::draw(g.node_count(), params.lambda, params.p, seed);
    let mut driver =
        Session::on(g).seed(seed).engine(engine).limits(RunLimits::rounds(max_rounds)).build_with(
            |endpoint| {
                let flags = (0..params.lambda).map(|v| plan.in_sample(v, endpoint.index)).collect();
                DistNearClique::new(params.clone(), flags)
            },
        );
    // Pre-reserve the per-round metrics history (bounded): with it, the
    // flat engine's steady-state rounds perform zero heap allocations on
    // one shard (a sharded round still spawns its threads and collects
    // its transfer cells afresh).
    driver.reserve_rounds(max_rounds.min(4096) as usize);
    let mut barriers = BarrierTrace::default();
    let report = match phases {
        Some(phases) => driver.run_phased(phases, &mut barriers),
        None => driver.run_observed(&mut barriers),
    };
    let outputs = driver.outputs();
    let labels = outputs.iter().map(|o| o.label).collect();
    let ids = (0..g.node_count()).map(|v| driver.endpoint(v).id).collect();
    let phase_trace =
        if g.node_count() > 0 { driver.protocol(0).phase_trace().to_vec() } else { Vec::new() };
    NearCliqueRun {
        outputs,
        labels,
        metrics: report.metrics,
        overhead: report.overhead,
        termination: report.termination,
        plan,
        ids,
        params: params.clone(),
        phase_trace,
        barrier_rounds: barriers.rounds,
    }
}

/// Precomputes the §4.1 per-phase pulse schedule for a `DistNearClique`
/// run: a synchronous dry run on the flat engine (same seed, same
/// sampling stage, same IDs) records its phase trace, and
/// [`PhasePlan::from_trace`] turns the barrier entry rounds into exact
/// per-phase budgets.
///
/// The paper precomputes these bounds analytically; the harness
/// precomputes them by simulation — either way the asynchronous
/// execution receives a *deterministic* schedule fixed before it starts.
/// Derive the plan once and reuse it across delay models: the schedule
/// depends only on `(g, params, seed)`.
///
/// If the dry run hits `max_rounds` before quiescing, the plan covers
/// only the phases reached — the phased run will then also stop at the
/// round limit.
#[must_use]
pub fn near_clique_phase_plan(
    g: &Graph,
    params: &NearCliqueParams,
    seed: u64,
    max_rounds: u64,
) -> PhasePlan {
    let dry = run_near_clique_with(
        g,
        params,
        seed,
        RunOptions { max_rounds, engine: Engine::Flat { shards: 1 } },
    );
    PhasePlan::from_trace(&dry.phase_trace, dry.metrics.rounds)
}

/// Runs `DistNearClique` on `engine` under an explicit [`PhasePlan`].
///
/// On [`Engine::Async`] the plan drives the run: its synchronizer
/// (classic α or the batched Safe-wave variant) paces pulses over its
/// link-[`DelayModel`](congest::DelayModel), and phase transitions fire on the plan's
/// schedule instead of at quiescence. On the synchronous engines the
/// quiescence barrier fires natively and the plan only bounds the run
/// at [`PhasePlan::total_pulses`] rounds (see
/// [`congest::SessionDriver::run_phased`]).
///
/// With a plan from [`near_clique_phase_plan`], the run reproduces the
/// synchronous execution exactly (labels, outputs, payload metrics,
/// phase trace — pulse for round) on **every** engine and under
/// **either** synchronizer; they differ only in the control-plane
/// `overhead` they report. Hand-written
/// plans may deviate: a *truncated* plan (fewer phases) stops cleanly at
/// [`Termination::RoundLimit`] with no labels; a plan that cuts a phase
/// *short* fires the next transition while stale-phase messages are
/// still in flight, which `DistNearClique` — a phase-pure protocol —
/// rejects with a panic. Both are faithful §4.1 failure modes: a
/// mis-derived deterministic bound breaks the staged algorithm.
///
/// The engine's `fault` model injects seeded message loss, link flaps or
/// node crashes (see [`FaultModel`](congest::FaultModel)). Under the masked models
/// ([`FaultModel::Drop`](congest::FaultModel::Drop), [`FaultModel::LinkFlap`](congest::FaultModel::LinkFlap)) retransmission hides
/// every fault: labels, outputs and payload metrics still equal the
/// synchronous run bit for bit, and only the reported `overhead` (and
/// virtual time) grows. Under [`FaultModel::Crash`](congest::FaultModel::Crash) the run degrades
/// deterministically and reports [`Termination::Degraded`].
///
/// The engine's `churn` model evolves the member set mid-run (seeded
/// joins and graceful leaves opening epochs; see [`ChurnModel`](congest::ChurnModel)).
/// [`ChurnModel::None`](congest::ChurnModel::None) is the fixed member set, bit-identical to the
/// pre-churn engine.
#[must_use]
pub fn run_near_clique_phased(
    g: &Graph,
    params: &NearCliqueParams,
    seed: u64,
    engine: Engine,
    phases: &PhasePlan,
) -> NearCliqueRun {
    execute(g, params, seed, engine, phases.total_pulses(), Some(phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::{ChurnModel, DelayModel, FaultModel, SyncModel};
    use graphs::GraphBuilder;

    #[test]
    fn runner_end_to_end_on_clique() {
        let g = Graph::complete(25);
        let params = NearCliqueParams::new(0.25, 0.15).unwrap();
        let run = run_near_clique(&g, &params, 3);
        assert_eq!(run.termination, Termination::Quiescent);
        let sets = run.labeled_sets();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].1.len(), 25);
        assert_eq!(run.largest_set().unwrap().len(), 25);
    }

    #[test]
    fn labeled_sets_sorted_by_size() {
        let mut b = GraphBuilder::new(26);
        b.add_clique(&(0..16).collect::<Vec<_>>());
        b.add_clique(&(16..26).collect::<Vec<_>>());
        let g = b.build();
        let params = NearCliqueParams::new(0.25, 0.3).unwrap();
        let run = run_near_clique(&g, &params, 5);
        let sets = run.labeled_sets();
        for pair in sets.windows(2) {
            assert!(pair[0].1.len() >= pair[1].1.len());
        }
    }

    #[test]
    fn round_bound_aborts_gracefully() {
        let g = Graph::complete(20);
        let params = NearCliqueParams::new(0.25, 0.2).unwrap();
        let options = RunOptions { max_rounds: 2, ..RunOptions::default() };
        let run = run_near_clique_with(&g, &params, 9, options);
        assert_eq!(run.termination, Termination::RoundLimit);
        // Aborted mid-protocol: no labels, never inconsistent ones.
        assert!(run.labels.iter().all(Option::is_none));
    }

    #[test]
    fn phase_trace_covers_all_phases_in_order() {
        let g = Graph::complete(20);
        let params = NearCliqueParams::new(0.25, 0.2).unwrap().with_lambda(2);
        let run = run_near_clique(&g, &params, 37);
        let names: Vec<&str> = run.phase_trace.iter().map(|&(_, name, _)| name).collect();
        // Two versions of the exploration block, one decision pass.
        let announces = names.iter().filter(|&&n| n == "announce").count();
        assert_eq!(announces, 2);
        assert_eq!(names.iter().filter(|&&n| n == "vote").count(), 1);
        assert_eq!(names.last(), Some(&"winner"));
        // Entry rounds are non-decreasing.
        let rounds: Vec<u64> = run.phase_trace.iter().map(|&(_, _, r)| r).collect();
        assert!(rounds.windows(2).all(|w| w[0] <= w[1]));
        // The observer saw every barrier the metrics counted, in order.
        assert_eq!(run.barrier_rounds.len() as u64, run.metrics.barriers);
        assert!(run.barrier_rounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn candidate_report_matches_labels() {
        let g = Graph::complete(20);
        let params = NearCliqueParams::new(0.25, 0.2).unwrap();
        let run = run_near_clique(&g, &params, 31);
        let report = run.candidate_report(&g);
        assert_eq!(report.labels, run.labels);
        for cand in &report.candidates {
            assert!(cand.t_size as usize <= 20);
        }
    }

    #[test]
    fn sample_size_reports_plan() {
        let g = Graph::complete(50);
        let params = NearCliqueParams::new(0.25, 0.1).unwrap();
        let run = run_near_clique(&g, &params, 21);
        assert_eq!(run.sample_size(0), run.plan.sample(0).len());
    }

    #[test]
    fn async_engine_runs_dist_near_clique_end_to_end() {
        let g = Graph::complete(25);
        let params = NearCliqueParams::new(0.25, 0.15).unwrap();
        let sync = run_near_clique(&g, &params, 3);
        for model in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
            let options = RunOptions::with_engine(Engine::Async {
                delay: DelayModel::HeavyTailed { max_delay: 6 },
                sync: model,
                fault: FaultModel::None,
                churn: ChurnModel::None,
            });
            let run = run_near_clique_with(&g, &params, 3, options);
            assert_eq!(run.termination, Termination::Quiescent, "{model:?}");
            assert_eq!(run.labels, sync.labels, "{model:?}");
            assert_eq!(run.outputs, sync.outputs, "{model:?}");
            assert_eq!(run.metrics, sync.metrics, "{model:?}: payload ledger must match");
            assert_eq!(run.phase_trace, sync.phase_trace, "{model:?}");
            assert_eq!(run.barrier_rounds, sync.barrier_rounds, "{model:?}");
            // Only the asynchronous run pays a control plane, and the
            // run reports it.
            assert!(sync.overhead.is_zero());
            assert!(run.overhead.control_messages > 0, "{model:?}");
            assert!(run.overhead.virtual_time > 0, "{model:?}");
        }
    }

    #[test]
    fn derived_phase_plan_walks_the_canonical_phase_sequence() {
        let g = Graph::complete(20);
        let params = NearCliqueParams::new(0.25, 0.2).unwrap().with_lambda(2);
        let plan = near_clique_phase_plan(&g, &params, 37, 10_000);
        assert_eq!(plan.names(), DistNearClique::phase_sequence(2));
        assert!(plan.total_pulses() > 0);
    }

    #[test]
    fn truncated_phase_plan_aborts_with_round_limit() {
        let g = Graph::complete(20);
        let params = NearCliqueParams::new(0.25, 0.2).unwrap();
        // Only the announce phase is scheduled (its true length is one
        // pulse); the schedule then runs out while nodes want to resume.
        let truncated = PhasePlan::new().phase("announce", 1);
        let engine = Engine::Async {
            delay: DelayModel::Uniform { max_delay: 2 },
            sync: SyncModel::Alpha,
            fault: FaultModel::None,
            churn: ChurnModel::None,
        };
        let run = run_near_clique_phased(&g, &params, 9, engine, &truncated);
        assert_eq!(run.termination, Termination::RoundLimit);
        assert!(run.labels.iter().all(Option::is_none));
        // The schedule's one barrier was taken (announce → roster).
        assert_eq!(run.metrics.barriers, 1);
    }
}
