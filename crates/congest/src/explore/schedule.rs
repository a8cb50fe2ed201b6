//! The bounded-DFS schedule enumerator: every interleaving, exactly
//! once.
//!
//! # The branching model
//!
//! The asynchronous engine is deterministic *given its delay draws*:
//! once every per-send delay is fixed, the timing wheel's
//! `(arrival time, send order)` discipline fixes the entire delivery
//! order, and with it the whole execution. Exhausting the engine's
//! nondeterminism therefore reduces to exhausting the delay draws — the
//! explorer replaces the seeded sampler with a scripted
//! [`DelaySource`](crate::sched) and branches on **every draw within the
//! bound**.
//!
//! The unit of branching is a **step**:
//!
//! * the *entry step* — `AsyncNetwork::begin_segment`: protocol `init`s,
//!   the pulse-entry sweep, its sends' delay draws;
//! * an *event step* — `AsyncNetwork::step_event`: pop the next wheel
//!   event, handle it (which may send more messages and draw more
//!   delays), drain the ready cascade. A delay run — the copies of one
//!   broadcast that drew the same delay — is one event, so its copies
//!   are all handled in one step.
//!
//! These are the same steps a sampled drive runs back to back.
//!
//! Within one step, the *number* of draws is choice-independent: a
//! chosen delay only decides **when** an already-composed message
//! arrives (delays are ≥ 1, so nothing scheduled inside a step is also
//! handled inside it), and drop decisions come from the fault stream,
//! not the delay stream. The enumerator exploits this: it first probes
//! the step with an empty script (draws pad to 1 — the probe *is* the
//! all-ones assignment) to learn the draw count `k`, then walks the
//! remaining `bound^k − 1` assignments odometer-style, forking the
//! cloned pre-step engine state for each. A debug assertion re-checks
//! `k` on every fork.
//!
//! # Convergence pruning
//!
//! After every step the engine state is fingerprinted
//! ([`super::fingerprint`]); a state already expanded is pruned (its
//! continuations were fully explored at first visit), counted in
//! [`ExploreReport::deduped`](crate::explore::ExploreReport::deduped).
//! Schedules are counted only when a walk actually reaches the end, so
//! [`ExploreReport::schedules`](crate::explore::ExploreReport::schedules)
//! is the number of *distinct executions walked end-to-end* through the
//! deduplicated state graph — deterministic because the odometer order
//! is.
//!
//! # No silent truncation
//!
//! The only cap is
//! [`Explore::limit_schedules`](crate::explore::Explore::limit_schedules),
//! and hitting it **panics**: an exploration that cannot finish must
//! fail loudly, never report partial coverage as exhaustive.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use crate::asynch::AsyncNetwork;
use crate::metrics::Metrics;
use crate::protocol::Protocol;
use crate::session::Driver;

use super::checker::{ExploreState, Invariant};
use super::fingerprint::{audit_fingerprint, fingerprint};
use super::{DelayTrace, ExploreReport, Violation};

/// The flat-engine reference a completed schedule must reproduce.
pub(crate) struct FlatReference<O> {
    pub outputs: Vec<O>,
    pub metrics: Metrics,
}

/// One exploration's mutable machinery: visited-state table, invariant
/// suite, reference run, and the report under construction.
pub(crate) struct Dfs<P: Protocol> {
    /// The delay bound every draw branches within.
    pub bound: u64,
    /// Pulse budget per segment (one segment for a plain run; one per
    /// phase for a phased run).
    pub segments: Vec<u64>,
    /// Whether segments are [`PhasePlan`](crate::PhasePlan) phases, each
    /// closed by a quiescence barrier.
    pub phased: bool,
    /// Panic threshold on walked schedules.
    pub limit_schedules: u64,
    /// Invariants checked on every state / schedule end.
    pub checks: Vec<Box<dyn Invariant<P>>>,
    /// Flat-engine outputs + payload ledger every schedule must match.
    pub reference: FlatReference<P::Output>,
    /// Whether convergence pruning is on (off = raw schedule tree).
    pub dedup: bool,
    /// Fingerprints already expanded.
    pub visited: HashSet<u64>,
    /// Audit side-table: primary fingerprint → independent FNV digest.
    pub audit: Option<HashMap<u64, u64>>,
    /// The report under construction.
    pub report: ExploreReport,
}

/// Advances `assign` to the next delay assignment in odometer order
/// (digits in `1..=bound`, least-significant first); returns `false`
/// after the last assignment (all digits at `bound`).
fn next_assignment(assign: &mut [u64], bound: u64) -> bool {
    for d in assign.iter_mut() {
        if *d < bound {
            *d += 1;
            return true;
        }
        *d = 1;
    }
    false
}

impl<P> Dfs<P>
where
    P: Protocol + Clone + Hash,
    P::Msg: Hash,
    P::Output: PartialEq + std::fmt::Debug,
{
    /// Runs the exhaustive exploration from a freshly built engine
    /// (scripted delay source installed, nothing executed yet).
    pub fn run(&mut self, net: AsyncNetwork<P>) {
        self.enter_segment(net, 0, 0);
    }

    /// Branches over the entry step of segment `seg`.
    fn enter_segment(&mut self, net: AsyncNetwork<P>, seg: usize, depth: usize) {
        let pulses = self.segments[seg];
        self.branch_step(net, depth, &|n| n.begin_segment(pulses), &|this, n, d| {
            this.after_step(n, seg, d);
        });
    }

    /// Branches over the next event step within segment `seg`. Only
    /// called with at least one event pending.
    fn branch_event(&mut self, net: AsyncNetwork<P>, seg: usize, depth: usize) {
        self.branch_step(
            net,
            depth,
            &|n| {
                let progressed = n.step_event();
                debug_assert!(progressed, "branch_event requires a pending event");
            },
            &|this, n, d| {
                this.after_step(n, seg, d);
            },
        );
    }

    /// The choice-point engine: probes `run` once with the all-ones
    /// script to learn the step's draw count, then forks the pre-step
    /// state over every remaining delay assignment. `then` continues
    /// each branch.
    fn branch_step(
        &mut self,
        net: AsyncNetwork<P>,
        depth: usize,
        run: &dyn Fn(&mut AsyncNetwork<P>),
        then: &dyn Fn(&mut Self, AsyncNetwork<P>, usize),
    ) {
        if self.bound == 1 {
            // Every draw is forced to 1: the schedule space is a single
            // path and no pre-step state needs to survive.
            let mut only = net;
            only.delays_mut().begin_step(&[]);
            run(&mut only);
            then(self, only, depth + 1);
            return;
        }
        // Probe with the empty script (all draws pad to 1): learns the
        // step's draw count AND doubles as the first assignment.
        let mut probe = net.clone();
        probe.delays_mut().begin_step(&[]);
        run(&mut probe);
        let draws = probe.delays().step_draws() as usize;
        then(self, probe, depth + 1);
        if draws == 0 {
            return;
        }
        let mut assign = vec![1u64; draws];
        while next_assignment(&mut assign, self.bound) {
            let mut fork = net.clone();
            fork.delays_mut().begin_step(&assign);
            run(&mut fork);
            debug_assert_eq!(
                fork.delays().step_draws() as usize,
                draws,
                "a step's draw count must be choice-independent"
            );
            then(self, fork, depth + 1);
        }
    }

    /// Post-step processing: invariants, fingerprint dedup, and the next
    /// branch point (another event, or the segment boundary).
    fn after_step(&mut self, net: AsyncNetwork<P>, seg: usize, depth: usize) {
        self.report.max_depth = self.report.max_depth.max(depth as u64);
        if let Some(failed) = self.check_states(&net, false) {
            self.violate(failed.0, failed.1, &net);
            return;
        }
        let fp = fingerprint(&net);
        if let Some(audit) = &mut self.audit {
            let fnv = audit_fingerprint(&net);
            match audit.get(&fp) {
                Some(&seen) if seen != fnv => self.report.fingerprint_collisions += 1,
                Some(_) => {}
                None => {
                    audit.insert(fp, fnv);
                }
            }
        }
        if self.dedup && !self.visited.insert(fp) {
            // Converged with an already-expanded branch: its entire
            // continuation was walked at first visit.
            self.report.deduped += 1;
            return;
        }
        self.report.states += 1;
        if net.pending_events() > 0 {
            self.branch_event(net, seg, depth);
        } else {
            self.segment_end(net, seg, depth);
        }
    }

    /// The wheel drained: the segment either completed (every node at
    /// the budget) or deadlocked. Completion settles the ledger, takes
    /// the phase barrier if phased, and moves to the next segment or the
    /// schedule end.
    fn segment_end(&mut self, mut net: AsyncNetwork<P>, seg: usize, depth: usize) {
        if !net.explore_all_done() {
            let stuck: Vec<usize> = (0..net.node_count()).filter(|&v| !net.node_done(v)).collect();
            self.violate(
                "deadlock",
                format!("wheel empty with nodes {stuck:?} short of the pulse budget"),
                &net,
            );
            return;
        }
        net.settle();
        let last = seg + 1 == self.segments.len();
        if self.phased {
            // Mirror `run_phases`: every phase closes with a barrier; a
            // barrier that retires every node ends the run early. The
            // barrier never draws delays (it only queues application
            // messages for the next phase's entry sweep), so it is not a
            // choice point.
            let live = net.barrier(&mut ());
            if !live || last {
                self.finish_schedule(net);
            } else {
                self.enter_segment(net, seg + 1, depth);
            }
        } else if last {
            self.finish_schedule(net);
        } else {
            self.enter_segment(net, seg + 1, depth);
        }
    }

    /// A complete schedule: count it, enforce the explosion valve, and
    /// run the end-of-schedule checks (flat-engine equivalence plus
    /// every invariant's `on_schedule_end`).
    fn finish_schedule(&mut self, net: AsyncNetwork<P>) {
        self.report.schedules += 1;
        assert!(
            self.report.schedules <= self.limit_schedules,
            "exploration exceeded limit_schedules = {}: the schedule space is larger than \
             budgeted — shrink the graph/bound/budget or raise the limit explicitly \
             (partial exploration is never reported as exhaustive)",
            self.limit_schedules
        );
        if let Some(detail) = flat_mismatch(&self.reference, &net) {
            self.violate("flat_equivalence", detail, &net);
            return;
        }
        if let Some(failed) = self.check_states(&net, true) {
            self.violate(failed.0, failed.1, &net);
        }
    }

    /// Runs the invariant suite on `net`'s current state; `end` selects
    /// the `on_schedule_end` hooks. Returns the first failure.
    fn check_states(&self, net: &AsyncNetwork<P>, end: bool) -> Option<(&'static str, String)> {
        let state = ExploreState::new(net);
        for check in &self.checks {
            let result = if end { check.on_schedule_end(&state) } else { check.on_state(&state) };
            if let Err(detail) = result {
                return Some((check.name(), detail));
            }
        }
        None
    }

    /// Records a violation with the branch's replayable trace.
    fn violate(&mut self, invariant: &'static str, detail: String, net: &AsyncNetwork<P>) {
        let trace = DelayTrace::new(self.bound, net.delays().tape().to_vec());
        self.report.violations.push(Violation { invariant, detail, trace });
    }
}

/// Compares a completed schedule's outputs and payload ledger against
/// the flat reference; `None` means they agree. The per-round histogram
/// is compared with trailing empty rounds stripped — the synchronous
/// engine stops at quiescence while α executes its full pulse budget,
/// and trailing silence is not a payload discrepancy.
fn flat_mismatch<P>(reference: &FlatReference<P::Output>, net: &AsyncNetwork<P>) -> Option<String>
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    let outputs = net.outputs();
    if outputs != reference.outputs {
        return Some(format!(
            "outputs diverged from the flat engine: {outputs:?} vs {:?}",
            reference.outputs
        ));
    }
    let (got, want) = (net.metrics(), &reference.metrics);
    if got.messages != want.messages
        || got.total_bits != want.total_bits
        || got.max_message_bits != want.max_message_bits
        || got.barriers != want.barriers
    {
        return Some(format!("payload metrics diverged from the flat engine: {got:?} vs {want:?}"));
    }
    let trim = |h: &[u64]| h.iter().rposition(|&m| m != 0).map_or(0, |i| i + 1);
    let (gh, wh) = (&got.messages_per_round, &want.messages_per_round);
    if gh[..trim(gh)] != wh[..trim(wh)] {
        return Some(format!(
            "per-round payload histogram diverged from the flat engine: {gh:?} vs {wh:?}"
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::next_assignment;

    #[test]
    fn odometer_enumerates_every_assignment_once() {
        let mut assign = vec![1u64; 3];
        let mut seen = vec![assign.clone()];
        while next_assignment(&mut assign, 3) {
            seen.push(assign.clone());
        }
        assert_eq!(seen.len(), 27, "3^3 assignments");
        let mut unique = seen.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 27);
        assert!(seen.iter().all(|a| a.iter().all(|&d| (1..=3).contains(&d))));
        assert_eq!(seen.first().unwrap(), &vec![1, 1, 1]);
        assert_eq!(seen.last().unwrap(), &vec![3, 3, 3]);
    }

    #[test]
    fn empty_assignment_has_exactly_one_value() {
        let mut assign: Vec<u64> = Vec::new();
        assert!(!next_assignment(&mut assign, 5));
    }
}
