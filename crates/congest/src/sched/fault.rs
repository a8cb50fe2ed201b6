//! Fault & churn models for the asynchronous engine.
//!
//! A [`FaultModel`] is a *pure description* (`Copy`, engine-config
//! sized) of what the network breaks: per-send message loss, link
//! down/up intervals, or node crash/recover windows. Like a
//! [`DelayModel`](crate::sched::DelayModel), the engine compiles it once
//! at build into an allocation-free sampler (`FaultSampler`) — every fault
//! decision is a seeded, deterministic function of `(seed, FaultModel)`
//! and the send's CSR slot / virtual time / pulse, so **any fault
//! schedule is replayable from the pair alone**: no trace files, no
//! recorded randomness.
//!
//! # The correctness contract: masking vs degradation
//!
//! Faults split into two classes with different promises, both pinned by
//! tests (`crates/core/tests/engine_equivalence.rs`,
//! `tests/asynchrony.rs`, and a G(n,p) proptest in
//! `crates/core/tests/session_determinism.rs`):
//!
//! * **Masked faults** — [`FaultModel::Drop`] and
//!   [`FaultModel::LinkFlap`] lose individual send attempts, and the
//!   executor retransmits every lost attempt on a deterministic
//!   virtual-time timeout (see below). Because the synchronizer gates
//!   already force every node to wait for its complete pulse inbox
//!   (α: no `Safe` before every payload is acknowledged; batched α: the
//!   payload *is* the edge token), retransmission restores exactly the
//!   fault-free execution: per-node **outputs and the payload-side
//!   [`Metrics`](crate::Metrics) are bit-identical to the fault-free
//!   flat run** — only
//!   [`SyncOverhead`](crate::SyncOverhead) (`retransmissions`,
//!   `dropped_messages`) and virtual time grow.
//! * **Degrading faults** — [`FaultModel::Crash`] takes whole nodes
//!   down for a pulse window. A crashed node is **fail-silent at the
//!   application layer**: its queued outgoing payloads are discarded at
//!   crash onset, payloads addressed to its crashed pulses vanish, and
//!   its protocol does not step. The synchronizer plane underneath keeps
//!   ticking (the node still enters pulses and its edges still emit
//!   `Safe`/token waves — exactly as for an empty pulse), which is what
//!   lets the surviving nodes' waves *self-heal*: no gate ever wedges,
//!   neighbors observe the loss only through the
//!   [`Protocol::on_peer_down`](crate::Protocol::on_peer_down) /
//!   [`on_peer_up`](crate::Protocol::on_peer_up) hooks and their own
//!   missing payloads, and the run completes its budget normally,
//!   reporting
//!   [`Termination::Degraded`](crate::Termination::Degraded) with the
//!   count of application payloads lost.
//!
//! Each fault is recorded where it happens, as a
//! [`TraceEvent`](crate::TraceEvent) (`Dropped`, `Lost`, `NodeDown`,
//! `NodeUp`) in the session's trace sink, its only itemized record.
//!
//! # Retransmission timing
//!
//! A send attempt lost under [`FaultModel::Drop`] is retried after a
//! fixed retransmit timeout of `2 · compiled_bound + 1` virtual time
//! units — a round trip at the delay model's compiled per-run delay
//! bound plus one, the classic conservative RTO. An attempt lost under
//! [`FaultModel::LinkFlap`] (the directed port was down at send time)
//! is retried at the link's next up-edge, which the sampler computes in
//! closed form from the port's seeded phase. Both retries re-enter the
//! normal send path (fresh delay draw, fresh fault draw), and every
//! retry is metered in `SyncOverhead::retransmissions`.

use crate::rng::splitmix64;

/// Stream salt of the per-send drop coin of [`FaultModel::Drop`].
const DROP_STREAM_SALT: u64 = 0x00D2_0BAD;
/// Salt of the per-port phase table of [`FaultModel::LinkFlap`].
const FLAP_PHASE_SALT: u64 = 0x0F1A_B017;
/// Salt of the victim-set draw of [`FaultModel::Crash`].
const CRASH_VICTIM_SALT: u64 = 0x0C2A_54ED;

/// What the network breaks during an [`Engine::Async`](crate::Engine)
/// run. All models are seeded off the session's master seed: the fault
/// schedule is a deterministic function of `(seed, FaultModel)` alone,
/// so every failing run is replayable from those two values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// A perfect network — bit-identical to an engine without the fault
    /// plane (pinned by the golden ledger in `tests/asynchrony.rs`).
    #[default]
    None,
    /// Independent per-send message loss: each send attempt (payload or
    /// control envelope) is dropped with probability `p_millis / 1000`
    /// and retransmitted after the RTO. A **masked** fault: outputs and
    /// payload metrics equal the fault-free run.
    Drop {
        /// Loss probability in thousandths (`0..=999`; 50 = 5%).
        p_millis: u32,
    },
    /// Periodic per-directed-port outages: each port cycles through
    /// `down_len` time units down, `up_len` up, at a seeded per-port
    /// phase offset. Sends attempted while the port is down are lost
    /// and retransmitted at the port's next up-edge. A **masked**
    /// fault.
    LinkFlap {
        /// Length of each outage, in virtual time units (≥ 1).
        down_len: u64,
        /// Length of each up interval, in virtual time units (≥ 1).
        up_len: u64,
    },
    /// Node churn: a seeded set of `victims` distinct nodes crashes at
    /// pulse `at_pulse` and recovers `recover_after` pulses later
    /// (`0` = never). Queued state is discarded; surviving nodes
    /// re-converge and the run ends
    /// [`Degraded`](crate::Termination::Degraded). A **degrading**
    /// fault.
    Crash {
        /// How many distinct nodes crash (seeded pick; clamped to `n`).
        victims: u32,
        /// First crashed pulse (1-based, ≥ 1).
        at_pulse: u64,
        /// Crashed for this many pulses; `0` means no recovery.
        recover_after: u64,
    },
}

impl FaultModel {
    /// Short stable label (bench records, diagnostics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultModel::None => "none",
            FaultModel::Drop { .. } => "drop",
            FaultModel::LinkFlap { .. } => "link_flap",
            FaultModel::Crash { .. } => "crash",
        }
    }

    /// `true` for the perfect-network model.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, FaultModel::None)
    }

    /// Panics unless the model is well-formed.
    pub(crate) fn validate(&self) {
        match *self {
            FaultModel::None => {}
            FaultModel::Drop { p_millis } => {
                assert!(
                    p_millis < 1000,
                    "drop: p_millis must be below 1000 (a certain drop can never be retransmitted \
                     through)"
                );
            }
            FaultModel::LinkFlap { down_len, up_len } => {
                assert!(down_len >= 1, "link_flap: down_len must be at least 1");
                assert!(up_len >= 1, "link_flap: up_len must be at least 1");
            }
            FaultModel::Crash { at_pulse, .. } => {
                assert!(at_pulse >= 1, "crash: at_pulse is 1-based and must be at least 1");
            }
        }
    }
}

/// The runtime form of a [`FaultModel`]: the shared drop-coin state plus
/// per-port and per-node tables, compiled once at engine build. All
/// sampling is allocation-free.
#[derive(Clone, Debug, Hash)]
pub(crate) struct FaultSampler {
    model: FaultModel,
    /// Shared splitmix64 stream advanced per send attempt by `Drop`.
    state: u64,
    /// Per-directed-port phase offset of `LinkFlap` (empty otherwise).
    phase: Vec<u64>,
    /// Per-node victim flags of `Crash` (empty otherwise).
    victim: Vec<bool>,
    /// Retransmit timeout for `Drop` losses: `2 · compiled_bound + 1`.
    rto: u64,
}

impl FaultSampler {
    /// Compiles `model` for a plane of `port_count` directed ports and
    /// `node_count` nodes, with delay-model compiled bound `bound`.
    ///
    /// # Panics
    ///
    /// Panics if the model is malformed (see [`FaultModel::validate`]).
    pub fn new(
        model: FaultModel,
        seed: u64,
        port_count: usize,
        node_count: usize,
        bound: u64,
    ) -> Self {
        model.validate();
        let phase = match model {
            FaultModel::LinkFlap { down_len, up_len } => {
                let period = down_len + up_len;
                let base = splitmix64(seed ^ FLAP_PHASE_SALT);
                (0..port_count)
                    .map(|slot| splitmix64(base.wrapping_add(slot as u64)) % period)
                    .collect()
            }
            _ => Vec::new(),
        };
        let victim = match model {
            FaultModel::Crash { victims, .. } => {
                let mut flags = vec![false; node_count];
                let picks = (victims as usize).min(node_count);
                let mut state = splitmix64(seed ^ CRASH_VICTIM_SALT);
                let mut chosen = 0;
                while chosen < picks {
                    state = splitmix64(state);
                    let v = (state % node_count as u64) as usize;
                    if !flags[v] {
                        flags[v] = true;
                        chosen += 1;
                    }
                }
                flags
            }
            _ => Vec::new(),
        };
        Self {
            model,
            state: splitmix64(seed ^ DROP_STREAM_SALT),
            phase,
            victim,
            rto: 2 * bound + 1,
        }
    }

    /// The compiled model.
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// The largest retransmission wait [`FaultSampler::retry_wait`] can
    /// return: the asynchronous engine sizes its timing wheel to
    /// `max(delay bound, retry_bound)` so retries always fit the
    /// horizon. Zero for models that never retransmit.
    pub fn retry_bound(&self) -> u64 {
        match self.model {
            FaultModel::None | FaultModel::Crash { .. } => 0,
            FaultModel::Drop { .. } => self.rto,
            // A flap retry waits exactly until the port's next up-edge,
            // at most a whole outage away.
            FaultModel::LinkFlap { down_len, .. } => down_len,
        }
    }

    /// Whether the send attempt leaving through CSR `slot` at virtual
    /// time `now` is lost on the wire. Advances the shared drop stream
    /// only under [`FaultModel::Drop`]; never allocates.
    #[inline]
    pub fn drops(&mut self, slot: usize, now: u64) -> bool {
        match self.model {
            FaultModel::None | FaultModel::Crash { .. } => false,
            FaultModel::Drop { p_millis } => {
                self.state = splitmix64(self.state);
                (self.state % 1000) < u64::from(p_millis)
            }
            FaultModel::LinkFlap { down_len, up_len } => {
                (now + self.phase[slot]) % (down_len + up_len) < down_len
            }
        }
    }

    /// How long a send attempt lost on CSR `slot` at time `now` waits
    /// before its retransmission: the RTO under [`FaultModel::Drop`],
    /// the time to the port's next up-edge under
    /// [`FaultModel::LinkFlap`]. Always ≥ 1 and ≤
    /// [`FaultSampler::retry_bound`].
    #[inline]
    pub fn retry_wait(&self, slot: usize, now: u64) -> u64 {
        match self.model {
            FaultModel::LinkFlap { down_len, up_len } => {
                let pos = (now + self.phase[slot]) % (down_len + up_len);
                debug_assert!(pos < down_len, "retry_wait on an up port");
                down_len - pos
            }
            _ => self.rto,
        }
    }

    /// Whether node `v` is crashed for pulse `pulse` (pure — the crash
    /// schedule is fixed at build).
    #[inline]
    pub fn crashed_at(&self, v: usize, pulse: u64) -> bool {
        match self.model {
            FaultModel::Crash { at_pulse, recover_after, .. } => {
                self.victim[v]
                    && pulse >= at_pulse
                    && (recover_after == 0 || pulse < at_pulse + recover_after)
            }
            _ => false,
        }
    }
}

/// The executor-side fault state: the compiled sampler plus the run's
/// loss accounting. Part of the asynchronous engine's
/// [`Wire`](crate::sched::sync::Wire), so control envelopes ride the
/// same faulty wire as payloads. Fault events themselves are recorded
/// only as [`TraceEvent`](crate::TraceEvent)s, in the trace sink.
#[derive(Clone, Debug)]
pub(crate) struct FaultPlane {
    pub sampler: FaultSampler,
    /// Per-node "currently crashed" flag, so pulse entry detects
    /// onset/offset transitions exactly once.
    pub down: Vec<bool>,
    /// Application payloads lost to crashes (discarded queues +
    /// swallowed deliveries) — reported in
    /// [`Termination::Degraded`](crate::Termination::Degraded).
    pub lost: u64,
    /// Whether any crash onset fired this run.
    pub crash_seen: bool,
}

impl FaultPlane {
    pub fn new(
        model: FaultModel,
        seed: u64,
        port_count: usize,
        node_count: usize,
        bound: u64,
    ) -> Self {
        Self {
            sampler: FaultSampler::new(model, seed, port_count, node_count, bound),
            down: vec![false; node_count],
            lost: 0,
            crash_seen: false,
        }
    }

    /// The compiled model.
    pub fn model(&self) -> FaultModel {
        self.sampler.model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_none_and_names_are_stable() {
        assert_eq!(FaultModel::default(), FaultModel::None);
        assert!(FaultModel::None.is_none());
        assert_eq!(FaultModel::None.name(), "none");
        assert_eq!(FaultModel::Drop { p_millis: 10 }.name(), "drop");
        assert_eq!(FaultModel::LinkFlap { down_len: 2, up_len: 5 }.name(), "link_flap");
        assert_eq!(FaultModel::Crash { victims: 1, at_pulse: 3, recover_after: 0 }.name(), "crash");
    }

    #[test]
    fn none_never_drops_and_never_advances_state() {
        let mut s = FaultSampler::new(FaultModel::None, 7, 16, 4, 5);
        let before = s.state;
        for i in 0..1000 {
            assert!(!s.drops(i % 16, i as u64));
        }
        assert_eq!(s.state, before, "None must leave the drop stream untouched");
        assert_eq!(s.retry_bound(), 0);
        assert!(!s.crashed_at(0, 1));
    }

    #[test]
    fn drop_rate_tracks_p_millis_and_is_deterministic() {
        let mut a = FaultSampler::new(FaultModel::Drop { p_millis: 100 }, 3, 8, 4, 5);
        let mut b = FaultSampler::new(FaultModel::Drop { p_millis: 100 }, 3, 8, 4, 5);
        let draws: Vec<bool> = (0..4000).map(|i| a.drops(i % 8, i as u64)).collect();
        let again: Vec<bool> = (0..4000).map(|i| b.drops(i % 8, i as u64)).collect();
        assert_eq!(draws, again, "same (seed, model) must replay the same schedule");
        let dropped = draws.iter().filter(|&&d| d).count();
        // 10% nominal over 4000 draws.
        assert!((250..=550).contains(&dropped), "drop rate off: {dropped}/4000");
        assert_eq!(a.retry_bound(), 11, "RTO is 2·bound + 1");
        assert_eq!(a.retry_wait(0, 99), 11);
    }

    #[test]
    fn zero_probability_drop_never_drops() {
        let mut s = FaultSampler::new(FaultModel::Drop { p_millis: 0 }, 3, 8, 4, 5);
        assert!((0..2000).all(|i| !s.drops(i % 8, i as u64)));
    }

    #[test]
    fn link_flap_is_periodic_and_retries_land_on_up_edges() {
        let model = FaultModel::LinkFlap { down_len: 3, up_len: 5 };
        let mut s = FaultSampler::new(model, 11, 4, 2, 6);
        for slot in 0..4 {
            for t in 0..64u64 {
                let down = s.drops(slot, t);
                assert_eq!(down, s.drops(slot, t + 8), "flap must be periodic with period down+up");
                if down {
                    let wait = s.retry_wait(slot, t);
                    assert!((1..=3).contains(&wait), "wait {wait} outside (0, down_len]");
                    assert!(!s.drops(slot, t + wait), "retry must land on an up instant");
                }
            }
            // Every period has both phases.
            let downs = (0..8u64).filter(|&t| s.drops(slot, t)).count();
            assert_eq!(downs, 3, "slot {slot}: {downs} down instants per period");
        }
        assert_eq!(s.retry_bound(), 3);
    }

    #[test]
    fn crash_picks_exactly_the_requested_distinct_victims() {
        let model = FaultModel::Crash { victims: 3, at_pulse: 4, recover_after: 2 };
        let s = FaultSampler::new(model, 9, 0, 10, 1);
        let victims: Vec<usize> = (0..10).filter(|&v| s.crashed_at(v, 4)).collect();
        assert_eq!(victims.len(), 3);
        for &v in &victims {
            assert!(!s.crashed_at(v, 3), "window starts at at_pulse");
            assert!(s.crashed_at(v, 5), "window spans recover_after pulses");
            assert!(!s.crashed_at(v, 6), "window ends after recover_after pulses");
        }
        // Deterministic victim set.
        let t = FaultSampler::new(model, 9, 0, 10, 1);
        assert!((0..10).all(|v| s.crashed_at(v, 4) == t.crashed_at(v, 4)));
        // Wire sends are never dropped by Crash.
        let mut s = s;
        assert!((0..100).all(|i| !s.drops(0, i)));
    }

    #[test]
    fn crash_without_recovery_is_permanent_and_victims_clamp_to_n() {
        let s = FaultSampler::new(
            FaultModel::Crash { victims: 99, at_pulse: 2, recover_after: 0 },
            5,
            0,
            4,
            1,
        );
        for v in 0..4 {
            assert!(!s.crashed_at(v, 1));
            assert!(s.crashed_at(v, 2) && s.crashed_at(v, 1_000_000), "no recovery");
        }
    }

    #[test]
    #[should_panic(expected = "p_millis must be below 1000")]
    fn certain_drop_is_rejected() {
        FaultSampler::new(FaultModel::Drop { p_millis: 1000 }, 0, 0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "down_len must be at least 1")]
    fn zero_down_len_is_rejected() {
        FaultSampler::new(FaultModel::LinkFlap { down_len: 0, up_len: 3 }, 0, 0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "at_pulse is 1-based")]
    fn zero_at_pulse_is_rejected() {
        FaultSampler::new(
            FaultModel::Crash { victims: 1, at_pulse: 0, recover_after: 1 },
            0,
            0,
            0,
            1,
        );
    }
}
