//! Membership churn for the asynchronous engine: epoch-versioned
//! join/leave over the immutable CSR topology.
//!
//! A [`ChurnModel`] is a *pure description* (`Copy`, engine-config
//! sized) of how the member set changes mid-run: late joiners, graceful
//! leavers, or both. Like a [`FaultModel`](crate::FaultModel), the
//! engine compiles it once at build into an allocation-free sampler
//! (`ChurnSampler`) — the complete membership schedule is a seeded,
//! deterministic function of `(seed, ChurnModel)` alone, so **any churn
//! schedule is replayable from the pair alone**: no trace files, no
//! recorded randomness.
//!
//! # Epochs and the membership overlay
//!
//! Every membership event — one node joining or leaving — opens a new
//! **epoch**. The engine tracks membership in an overlay over the
//! immutable CSR route table: one presence flag per node, allocated at
//! build, so steady-state pulses stay zero-alloc. Nothing is kept per
//! port. A port carries payloads exactly while its receiver is present:
//! its sender is always present when it sends, because an absent node
//! neither steps nor queues and a leave retires the leaver's queues
//! before its send loop runs. The engine reads the receiver's flag where
//! it resolves the route anyway. At each epoch boundary the engine flips
//! the node's flag and records the event, the epoch index and the
//! resulting member count as one
//! [`TraceEvent::Join`](crate::TraceEvent::Join) or
//! [`TraceEvent::Leave`](crate::TraceEvent::Leave) in the session's
//! trace sink ([`crate::Session::trace`]), the only itemized record.
//! The initial member set, epoch 0, is taken before pulse 1, so an
//! event scheduled at pulse 1 opens an epoch like any other.
//!
//! # Why the synchronizer survives reconfiguration
//!
//! The synchronizer substrate deliberately spans the **static** port
//! space: an absent node's control plane keeps ticking (it enters
//! pulses, its edges still carry `Ack`/`Safe`/token waves — exactly as
//! a crashed node's does, see [`crate::sched::fault`]), while its
//! application layer is silent. Gate thresholds are evaluated live at
//! every check, so the per-edge token sets re-derive at each epoch
//! boundary *by construction*: the control-wave structure is
//! epoch-invariant and α's ±1 pulse-skew invariant holds across any
//! reconfiguration — no gate ever wedges, joins and leaves cannot
//! deadlock the run.
//!
//! What changes at an epoch boundary is the application plane:
//!
//! * a **leave** retires the node's queued outgoing payloads, one
//!   [`TraceEvent::Retired`](crate::TraceEvent::Retired) each (never
//!   silently dropped), and live peers observe
//!   [`Protocol::on_leave`](crate::Protocol::on_leave);
//! * a **join** initializes the joiner's protocol at the joining pulse,
//!   and live peers observe [`Protocol::on_join`](crate::Protocol::on_join).
//!
//! Payloads bound for an absent node are retired the same way: one in
//! flight when it is delivered, one a peer queued when the peer's port
//! would send it, and a copy of a peer's broadcast record as the record
//! is sent.
//!
//! # Handoff policy
//!
//! [`ChurnPolicy`] selects what the *surviving* protocols do at an
//! epoch boundary: under the default [`ChurnPolicy::Continue`] they
//! keep their state (the self-stabilizing contract — the hooks are the
//! only signal), while [`ChurnPolicy::Restart`] re-runs
//! [`Protocol::init`](crate::Protocol::init) on every present node so
//! epoch-restart protocols rebuild from scratch each epoch.

use crate::rng::splitmix64;

/// Stream salt of the seeded joiner/leaver pick of [`ChurnModel`].
const CHURN_PICK_SALT: u64 = 0x0C42_B1E5;

/// What the surviving protocols do when an epoch opens (a member joined
/// or left).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ChurnPolicy {
    /// Protocols keep their state across epochs; the
    /// [`Protocol::on_join`](crate::Protocol::on_join) /
    /// [`Protocol::on_leave`](crate::Protocol::on_leave) hooks are the
    /// only signal. The self-stabilizing contract, and the default.
    #[default]
    Continue,
    /// Epoch-restart: [`Protocol::init`](crate::Protocol::init) is
    /// re-run on every present node at each epoch boundary (at the
    /// node's current pulse), so the protocol rebuilds its state from
    /// scratch against the new member set.
    Restart,
}

impl ChurnPolicy {
    /// Short stable label (bench records, diagnostics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ChurnPolicy::Continue => "continue",
            ChurnPolicy::Restart => "restart",
        }
    }
}

/// How the member set changes during an
/// [`Engine::Async`](crate::Engine) run. All models are seeded off the
/// session's master seed: the membership schedule is a deterministic
/// function of `(seed, ChurnModel)` alone, so every churned run is
/// replayable from those two values.
///
/// Events are **pulse-indexed** (like
/// [`FaultModel::Crash`](crate::FaultModel::Crash)): each scheduled
/// node joins or leaves on entering the scheduled pulse. The
/// interleaving explorer runs only [`ChurnModel::None`] for exactly
/// that reason — a time-indexed schedule breaks the fingerprint sweep's
/// time-shift invariance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ChurnModel {
    /// A fixed member set — bit-identical to an engine without the
    /// churn plane (pinned by the golden ledger in
    /// `tests/asynchrony.rs`); advances no RNG stream.
    #[default]
    None,
    /// Staggered late joins: a seeded set of `joiners` distinct nodes
    /// starts outside the member set and joins one by one, joiner `i`
    /// at pulse `at_pulse + i·spacing`.
    Join {
        /// How many distinct nodes join late (seeded pick; clamped to
        /// `n`). Must be ≥ 1.
        joiners: u32,
        /// Pulse of the first join (1-based, ≥ 1).
        at_pulse: u64,
        /// Pulses between consecutive joins (`0` = all in one pulse).
        spacing: u64,
        /// What surviving protocols do at each epoch boundary.
        policy: ChurnPolicy,
    },
    /// Staggered graceful leaves: a seeded set of `leavers` distinct
    /// nodes leaves one by one, leaver `i` at pulse
    /// `at_pulse + i·spacing`. Leaves are permanent.
    Leave {
        /// How many distinct nodes leave (seeded pick; clamped to `n`).
        /// Must be ≥ 1.
        leavers: u32,
        /// Pulse of the first leave (1-based, ≥ 1).
        at_pulse: u64,
        /// Pulses between consecutive leaves (`0` = all in one pulse).
        spacing: u64,
        /// What surviving protocols do at each epoch boundary.
        policy: ChurnPolicy,
    },
    /// Joins then leaves: `joiners` late joiners arrive first (joiner
    /// `i` at `at_pulse + i·spacing`), then `leavers` distinct
    /// initially-present nodes leave (leaver `j` at
    /// `at_pulse + (joiners + j)·spacing`). The two seeded sets are
    /// disjoint.
    Mixed {
        /// How many distinct nodes join late (seeded pick; clamped to
        /// `n`). Must be ≥ 1.
        joiners: u32,
        /// How many distinct initially-present nodes leave (seeded
        /// pick, disjoint from the joiners; clamped to `n - joiners`).
        /// Must be ≥ 1.
        leavers: u32,
        /// Pulse of the first membership event (1-based, ≥ 1).
        at_pulse: u64,
        /// Pulses between consecutive events (`0` = all in one pulse).
        spacing: u64,
        /// What surviving protocols do at each epoch boundary.
        policy: ChurnPolicy,
    },
}

impl ChurnModel {
    /// Short stable label (bench records, diagnostics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ChurnModel::None => "none",
            ChurnModel::Join { .. } => "join",
            ChurnModel::Leave { .. } => "leave",
            ChurnModel::Mixed { .. } => "mixed",
        }
    }

    /// `true` for the fixed-membership model.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, ChurnModel::None)
    }

    /// The configured handoff policy ([`ChurnPolicy::Continue`] for
    /// [`ChurnModel::None`]).
    #[must_use]
    pub fn policy(&self) -> ChurnPolicy {
        match *self {
            ChurnModel::None => ChurnPolicy::Continue,
            ChurnModel::Join { policy, .. }
            | ChurnModel::Leave { policy, .. }
            | ChurnModel::Mixed { policy, .. } => policy,
        }
    }

    /// Panics unless the model is well-formed.
    pub(crate) fn validate(&self) {
        match *self {
            ChurnModel::None => {}
            ChurnModel::Join { joiners, at_pulse, .. } => {
                assert!(joiners >= 1, "join: joiners must be at least 1");
                assert!(at_pulse >= 1, "churn: at_pulse is 1-based and must be at least 1");
            }
            ChurnModel::Leave { leavers, at_pulse, .. } => {
                assert!(leavers >= 1, "leave: leavers must be at least 1");
                assert!(at_pulse >= 1, "churn: at_pulse is 1-based and must be at least 1");
            }
            ChurnModel::Mixed { joiners, leavers, at_pulse, .. } => {
                assert!(joiners >= 1, "mixed: joiners must be at least 1");
                assert!(leavers >= 1, "mixed: leavers must be at least 1");
                assert!(at_pulse >= 1, "churn: at_pulse is 1-based and must be at least 1");
            }
        }
    }
}

/// The runtime form of a [`ChurnModel`]: the per-node join/leave pulse
/// schedule, compiled once at engine build. All queries are pure and
/// allocation-free — the schedule never changes after compilation.
#[derive(Clone, Debug, Hash)]
pub(crate) struct ChurnSampler {
    model: ChurnModel,
    /// Per-node pulse at which the node joins (`0` = present from the
    /// start).
    join_at: Vec<u64>,
    /// Per-node pulse at which the node leaves (`u64::MAX` = never).
    leave_at: Vec<u64>,
}

impl ChurnSampler {
    /// Compiles `model` for a plane of `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the model is malformed (see [`ChurnModel::validate`]).
    pub fn new(model: ChurnModel, seed: u64, node_count: usize) -> Self {
        model.validate();
        let mut join_at = vec![0u64; node_count];
        let mut leave_at = vec![u64::MAX; node_count];
        let (joiners, leavers, at_pulse, spacing) = match model {
            ChurnModel::None => (0, 0, 1, 0),
            ChurnModel::Join { joiners, at_pulse, spacing, .. } => (joiners, 0, at_pulse, spacing),
            ChurnModel::Leave { leavers, at_pulse, spacing, .. } => (0, leavers, at_pulse, spacing),
            ChurnModel::Mixed { joiners, leavers, at_pulse, spacing, .. } => {
                (joiners, leavers, at_pulse, spacing)
            }
        };
        if joiners > 0 || leavers > 0 {
            let joins = (joiners as usize).min(node_count);
            let leaves = (leavers as usize).min(node_count - joins);
            let mut picked = vec![false; node_count];
            let mut state = splitmix64(seed ^ CHURN_PICK_SALT);
            let mut pick = |picked: &mut Vec<bool>| loop {
                state = splitmix64(state);
                let v = (state % node_count.max(1) as u64) as usize;
                if !picked[v] {
                    picked[v] = true;
                    return v;
                }
            };
            for i in 0..joins {
                let v = pick(&mut picked);
                join_at[v] = at_pulse + i as u64 * spacing;
            }
            for j in 0..leaves {
                let v = pick(&mut picked);
                leave_at[v] = at_pulse + (joins + j) as u64 * spacing;
            }
        }
        Self { model, join_at, leave_at }
    }

    /// The compiled model.
    pub fn model(&self) -> ChurnModel {
        self.model
    }

    /// Whether node `v` is outside the member set for pulse `pulse`
    /// (pure — the membership schedule is fixed at build). Pulse `0` is
    /// the initial member set, taken before pulse 1, so an event
    /// scheduled at pulse 1 is a transition like any other.
    #[inline]
    pub fn absent_at(&self, v: usize, pulse: u64) -> bool {
        pulse < self.join_at[v] || pulse >= self.leave_at[v]
    }

    /// The pulse node `v` joins at (`0` = present from the start).
    pub fn join_pulse(&self, v: usize) -> u64 {
        self.join_at[v]
    }
}

/// The executor-side churn state: the compiled sampler and the member
/// set, one presence flag per node. Owned by the asynchronous engine;
/// a membership event flips one flag in place, steady-state pulses only
/// read. The scalar churn counters live in
/// [`SyncOverhead`](crate::SyncOverhead); the events themselves are
/// recorded only as [`TraceEvent`](crate::TraceEvent)s, in the trace
/// sink.
#[derive(Clone, Debug)]
pub(crate) struct ChurnPlane {
    pub sampler: ChurnSampler,
    /// Per-node membership flag (transition detection: flipped exactly
    /// once per scheduled event, at the node's pulse entry).
    pub present: Vec<bool>,
    /// The current epoch (0 = the initial member set).
    pub epoch: u64,
    /// Present members.
    pub members: u32,
}

impl ChurnPlane {
    /// Compiles `model` for `node_count` nodes and takes the member set
    /// before pulse 1: joiners start absent, everyone else present.
    pub fn new(model: ChurnModel, seed: u64, node_count: usize) -> Self {
        let sampler = ChurnSampler::new(model, seed, node_count);
        let present: Vec<bool> = (0..node_count).map(|v| !sampler.absent_at(v, 0)).collect();
        let members = present.iter().filter(|&&p| p).count() as u32;
        Self { sampler, present, epoch: 0, members }
    }

    /// The compiled model.
    pub fn model(&self) -> ChurnModel {
        self.sampler.model()
    }

    /// Applies one membership event in place: flips `v`'s presence,
    /// adjusts the member count, and opens the next epoch.
    pub fn apply(&mut self, v: usize, present: bool) {
        debug_assert_ne!(self.present[v], present, "membership events fire exactly once");
        self.present[v] = present;
        self.members = if present { self.members + 1 } else { self.members - 1 };
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler(model: ChurnModel, seed: u64, n: usize) -> ChurnSampler {
        ChurnSampler::new(model, seed, n)
    }

    #[test]
    fn default_model_is_none_and_names_are_stable() {
        assert_eq!(ChurnModel::default(), ChurnModel::None);
        assert!(ChurnModel::None.is_none());
        assert_eq!(ChurnModel::None.name(), "none");
        let policy = ChurnPolicy::default();
        assert_eq!(policy, ChurnPolicy::Continue);
        assert_eq!(policy.name(), "continue");
        assert_eq!(ChurnPolicy::Restart.name(), "restart");
        assert_eq!(ChurnModel::Join { joiners: 1, at_pulse: 2, spacing: 0, policy }.name(), "join");
        assert_eq!(
            ChurnModel::Leave { leavers: 1, at_pulse: 2, spacing: 0, policy }.name(),
            "leave"
        );
        let mixed = ChurnModel::Mixed { joiners: 1, leavers: 1, at_pulse: 2, spacing: 3, policy };
        assert_eq!(mixed.name(), "mixed");
        assert_eq!(mixed.policy(), ChurnPolicy::Continue);
    }

    #[test]
    fn none_schedules_nothing_and_everyone_is_always_present() {
        let s = sampler(ChurnModel::None, 7, 6);
        for v in 0..6 {
            assert_eq!(s.join_pulse(v), 0);
            assert!(!s.absent_at(v, 1));
            assert!(!s.absent_at(v, 1_000_000));
        }
    }

    #[test]
    fn join_staggers_the_seeded_joiners_and_replays_from_seed_and_model() {
        let model =
            ChurnModel::Join { joiners: 3, at_pulse: 4, spacing: 2, policy: ChurnPolicy::Continue };
        let s = sampler(model, 9, 10);
        let joiners: Vec<usize> = (0..10).filter(|&v| s.absent_at(v, 1)).collect();
        assert_eq!(joiners.len(), 3);
        let mut pulses: Vec<u64> = joiners.iter().map(|&v| s.join_pulse(v)).collect();
        pulses.sort_unstable();
        assert_eq!(pulses, vec![4, 6, 8], "joins stagger at at_pulse + i·spacing");
        for &v in &joiners {
            let p = s.join_pulse(v);
            assert!(s.absent_at(v, p - 1));
            assert!(!s.absent_at(v, p), "a joiner is present from its join pulse on");
            assert!(!s.absent_at(v, p + 100));
        }
        let t = sampler(model, 9, 10);
        assert!((0..10).all(|v| s.join_pulse(v) == t.join_pulse(v)));
    }

    #[test]
    fn leave_is_permanent_and_clamps_to_n() {
        let model = ChurnModel::Leave {
            leavers: 99,
            at_pulse: 3,
            spacing: 1,
            policy: ChurnPolicy::Continue,
        };
        let s = sampler(model, 5, 4);
        for v in 0..4 {
            assert!(!s.absent_at(v, 1), "leavers start present");
            assert!(s.absent_at(v, 3 + 3), "everyone is gone after the last leave");
            assert!(s.absent_at(v, 1_000_000), "leaves are permanent");
        }
    }

    #[test]
    fn mixed_picks_disjoint_joiner_and_leaver_sets() {
        let model = ChurnModel::Mixed {
            joiners: 3,
            leavers: 4,
            at_pulse: 5,
            spacing: 1,
            policy: ChurnPolicy::Restart,
        };
        let s = sampler(model, 11, 12);
        let joiners: Vec<usize> = (0..12).filter(|&v| s.join_pulse(v) > 1).collect();
        let leavers: Vec<usize> = (0..12).filter(|&v| s.absent_at(v, 1_000_000)).collect();
        assert_eq!(joiners.len(), 3);
        assert_eq!(leavers.len(), 4);
        assert!(joiners.iter().all(|v| !leavers.contains(v)), "sets must be disjoint");
        // Joins first, then leaves.
        let max_join = joiners.iter().map(|&v| s.join_pulse(v)).max().unwrap();
        let min_leave =
            leavers.iter().map(|&v| (1..100).find(|&p| s.absent_at(v, p)).unwrap()).min().unwrap();
        assert!(max_join < min_leave, "mixed schedules joins before leaves");
        assert_eq!(model.policy(), ChurnPolicy::Restart);
    }

    #[test]
    fn overlay_applies_joins_and_leaves_in_place() {
        let model =
            ChurnModel::Join { joiners: 1, at_pulse: 3, spacing: 0, policy: ChurnPolicy::Continue };
        let mut plane = ChurnPlane::new(model, 13, 4);
        let joiner = (0..4).find(|&v| plane.sampler.absent_at(v, 1)).unwrap();
        assert!(!plane.present[joiner], "a joiner starts absent");
        assert_eq!(plane.members, 3);
        assert_eq!(plane.epoch, 0);
        plane.apply(joiner, true);
        assert_eq!(plane.members, 4);
        assert_eq!(plane.epoch, 1);
        assert!(plane.present.iter().all(|&p| p), "everyone is present after the join");
        plane.apply(joiner, false);
        assert_eq!(plane.members, 3);
        assert_eq!(plane.epoch, 2);
        assert!(!plane.present[joiner]);
    }

    #[test]
    fn none_plane_reserves_no_log() {
        let plane = ChurnPlane::new(ChurnModel::None, 1, 3);
        // Its only storage is a presence flag per node: nothing per port,
        // nothing per event.
        assert_eq!(plane.present, vec![true; 3]);
        assert_eq!(plane.members, 3);
    }

    #[test]
    #[should_panic(expected = "at_pulse is 1-based")]
    fn zero_at_pulse_is_rejected() {
        ChurnSampler::new(
            ChurnModel::Join { joiners: 1, at_pulse: 0, spacing: 1, policy: ChurnPolicy::Continue },
            0,
            4,
        );
    }

    #[test]
    #[should_panic(expected = "joiners must be at least 1")]
    fn zero_joiners_is_rejected() {
        ChurnSampler::new(
            ChurnModel::Join { joiners: 0, at_pulse: 1, spacing: 1, policy: ChurnPolicy::Continue },
            0,
            4,
        );
    }
}
