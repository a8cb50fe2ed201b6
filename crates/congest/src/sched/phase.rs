//! Per-phase pulse budgets: the paper's §4.1 staged execution.
//!
//! The synchronous simulator grants phase transitions at *quiescence* —
//! a global condition no synchronizer can observe. In a real asynchronous
//! deployment each phase instead runs for a **precomputed number of
//! pulses** (the §4.1 deterministic time-bound wrapper); when the budget
//! elapses, every node takes its
//! [`Protocol::on_quiescent`](crate::Protocol::on_quiescent) transition
//! on schedule, whether or not it would have been quiescent. A
//! [`PhasePlan`] is exactly that schedule.
//!
//! Budgets that upper-bound the true phase lengths reproduce the
//! synchronous execution pulse for round (trailing pulses of a phase are
//! empty and a protocol's `step` is inert on an empty inbox once the
//! phase has drained). An *under*-budgeted plan fires transitions early —
//! faithfully modeling what a too-aggressive §4.1 bound does to the real
//! algorithm.

use crate::protocol::Round;

/// One phase of a [`PhasePlan`]: a diagnostic name and its pulse budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseBudget {
    /// Diagnostic name (by convention the protocol's phase name, e.g.
    /// the entries of `DistNearClique::phase_sequence`).
    pub name: &'static str,
    /// Pulses this phase executes before the transition barrier fires.
    /// Zero is legal: the phase only takes its entry transition (a phase
    /// whose entry hook sends nothing quiesces immediately).
    pub pulses: u64,
}

/// A deterministic per-phase pulse schedule for staged protocols on the
/// asynchronous engine — drive it with
/// [`SessionDriver::run_phased`](crate::SessionDriver::run_phased).
///
/// The first entry covers the phase entered at `init`; each subsequent
/// entry is entered through the transition barrier that closes its
/// predecessor. After the final entry's budget, one last barrier lets the
/// protocol retire (return `false` from `on_quiescent`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhasePlan {
    phases: Vec<PhaseBudget>,
}

impl PhasePlan {
    /// An empty plan (no phases; a phased run only offers the retiring
    /// barrier).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a phase (builder style).
    #[must_use]
    pub fn phase(mut self, name: &'static str, pulses: u64) -> Self {
        self.phases.push(PhaseBudget { name, pulses });
        self
    }

    /// A plan giving every name in `names` the same `pulses` budget.
    #[must_use]
    pub fn uniform(names: &[&'static str], pulses: u64) -> Self {
        Self { phases: names.iter().map(|&name| PhaseBudget { name, pulses }).collect() }
    }

    /// Derives the schedule from a synchronous run's phase trace — the
    /// `(version, phase name, entry round)` triples of
    /// `DistNearClique::phase_trace` (or any protocol recording the same
    /// shape) — plus the run's total executed rounds.
    ///
    /// Each phase's budget is the distance to the next phase's entry
    /// round; the final phase runs to `total_rounds`. This is the
    /// §4.1 wrapper with *exact* bounds: the resulting phased
    /// asynchronous run reproduces the synchronous run's outputs **and**
    /// its full payload ledger, pulse for round.
    ///
    /// # Panics
    ///
    /// Panics if entry rounds decrease, or if `total_rounds` is below the
    /// last entry round.
    #[must_use]
    pub fn from_trace(trace: &[(u8, &'static str, Round)], total_rounds: Round) -> Self {
        let mut phases = Vec::with_capacity(trace.len());
        for (i, &(_, name, entry)) in trace.iter().enumerate() {
            let end = match trace.get(i + 1) {
                Some(&(_, _, next_entry)) => next_entry,
                None => total_rounds,
            };
            assert!(
                end >= entry,
                "phase trace is not monotone: {name} enters at {entry}, next at {end}"
            );
            phases.push(PhaseBudget { name, pulses: end - entry });
        }
        Self { phases }
    }

    /// The scheduled phases, in execution order.
    #[must_use]
    pub fn phases(&self) -> &[PhaseBudget] {
        &self.phases
    }

    /// Phase names in execution order (test/diagnostic convenience).
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.phases.iter().map(|p| p.name).collect()
    }

    /// Number of scheduled phases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// `true` when no phase is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Total pulse budget over all phases — the plan's overall §4.1 time
    /// bound.
    #[must_use]
    pub fn total_pulses(&self) -> u64 {
        self.phases.iter().map(|p| p.pulses).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_totals() {
        let plan = PhasePlan::new().phase("a", 3).phase("b", 0).phase("c", 5);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.total_pulses(), 8);
        assert_eq!(plan.names(), vec!["a", "b", "c"]);
        assert_eq!(plan.phases()[1], PhaseBudget { name: "b", pulses: 0 });
    }

    #[test]
    fn uniform_assigns_same_budget() {
        let plan = PhasePlan::uniform(&["x", "y"], 7);
        assert_eq!(plan.total_pulses(), 14);
        assert!(plan.phases().iter().all(|p| p.pulses == 7));
    }

    #[test]
    fn from_trace_takes_entry_differences() {
        // announce enters at 0, roster at 4 (same-round barrier pair at
        // 4: comp-share is zero-length), winner runs 9..=12.
        let trace: Vec<(u8, &'static str, u64)> =
            vec![(0, "announce", 0), (0, "roster", 4), (0, "comp-share", 4), (0, "winner", 9)];
        let plan = PhasePlan::from_trace(&trace, 12);
        assert_eq!(plan.names(), vec!["announce", "roster", "comp-share", "winner"]);
        let budgets: Vec<u64> = plan.phases().iter().map(|p| p.pulses).collect();
        assert_eq!(budgets, vec![4, 0, 5, 3]);
        assert_eq!(plan.total_pulses(), 12);
    }

    #[test]
    fn from_trace_of_empty_trace_is_empty() {
        let plan = PhasePlan::from_trace(&[], 0);
        assert!(plan.is_empty());
        assert_eq!(plan.total_pulses(), 0);
    }

    #[test]
    #[should_panic(expected = "not monotone")]
    fn from_trace_rejects_decreasing_entries() {
        let trace: Vec<(u8, &'static str, u64)> = vec![(0, "a", 5), (0, "b", 3)];
        let _ = PhasePlan::from_trace(&trace, 9);
    }
}
