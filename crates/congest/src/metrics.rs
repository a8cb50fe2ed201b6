//! Run metrics: rounds, messages, and — most importantly — bits.
//!
//! The CONGEST model's defining resource is message *width*. Experiments
//! E5 (round complexity) and E10 (message size) read these counters; the
//! invariant tests assert that `DistNearClique` never exceeds its
//! `O(log n)` budget while the neighbors'-neighbors baseline blows
//! through it.

/// Counters accumulated over one network run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Metrics {
    /// Rounds actually executed.
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Total bits delivered.
    pub total_bits: u64,
    /// Width of the widest single message delivered.
    pub max_message_bits: usize,
    /// Messages delivered per round (index 0 = round 1). Empty under
    /// [`MetricsMode::Streaming`](crate::MetricsMode::Streaming), which
    /// keeps only the O(1) scalar aggregates — per-round distributions
    /// then live in the run's
    /// [`RunProfile`](crate::RunProfile) instead.
    pub messages_per_round: Vec<u64>,
    /// Number of quiescence barriers taken (phase transitions granted by
    /// [`crate::Protocol::on_quiescent`]).
    pub barriers: u64,
}

impl Metrics {
    /// Records one delivered message of the given width. Only the legacy
    /// fixture meters message by message; the production engines fold
    /// per-shard deltas ([`Metrics::absorb_delivery`]) or per-pulse
    /// scalars ([`Metrics::record_payload`]).
    #[cfg_attr(not(feature = "legacy-engine"), allow(dead_code))]
    pub(crate) fn record_message(&mut self, bits: usize) {
        self.messages += 1;
        self.total_bits += bits as u64;
        self.max_message_bits = self.max_message_bits.max(bits);
        if let Some(last) = self.messages_per_round.last_mut() {
            *last += 1;
        }
    }

    /// Folds one round's delivery counters in (the flat plane meters
    /// per-shard and merges after the parallel phases join). All inputs
    /// are commutative aggregates, so the fold order cannot affect the
    /// result — part of the engine's determinism contract.
    pub(crate) fn absorb_delivery(&mut self, messages: u64, bits: u64, max_bits: usize) {
        self.messages += messages;
        self.total_bits += bits;
        self.max_message_bits = self.max_message_bits.max(max_bits);
        if let Some(last) = self.messages_per_round.last_mut() {
            *last += messages;
        }
    }

    /// Opens the accounting window for a new round.
    pub(crate) fn begin_round(&mut self) {
        self.rounds += 1;
        self.messages_per_round.push(0);
    }

    /// Opens a new round without extending the per-round history — the
    /// [`MetricsMode::Streaming`](crate::MetricsMode::Streaming) path.
    /// Scalar totals keep accumulating (the per-message folds guard on
    /// an open history window), memory stays O(1) in the round count.
    pub(crate) fn begin_round_bounded(&mut self) {
        self.rounds += 1;
    }

    /// Records one delivered payload's scalar aggregates without opening
    /// a [`Metrics::begin_round`] window. The asynchronous engine
    /// completes pulses out of event order, so it meters scalars here
    /// and counts the payload into `messages_per_round` at its own
    /// pulse's index.
    pub(crate) fn record_payload(&mut self, bits: usize) {
        self.messages += 1;
        self.total_bits += bits as u64;
        self.max_message_bits = self.max_message_bits.max(bits);
    }

    /// Pre-reserves the per-round history, so metered loops of known
    /// length perform no allocation in steady state.
    pub fn reserve_rounds(&mut self, rounds: usize) {
        self.messages_per_round.reserve(rounds);
    }

    /// Mean messages per round (0 if no rounds ran).
    #[must_use]
    pub fn mean_messages_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.messages as f64 / self.rounds as f64
        }
    }

    /// Peak messages in any single round. Reads the per-round history,
    /// so it reports 0 under
    /// [`MetricsMode::Streaming`](crate::MetricsMode::Streaming) — use
    /// the run profile's pulse-occupancy maximum there.
    #[must_use]
    pub fn peak_messages_per_round(&self) -> u64 {
        self.messages_per_round.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let mut m = Metrics::default();
        m.begin_round();
        m.record_message(10);
        m.record_message(20);
        m.begin_round();
        m.record_message(5);
        assert_eq!(m.rounds, 2);
        assert_eq!(m.messages, 3);
        assert_eq!(m.total_bits, 35);
        assert_eq!(m.max_message_bits, 20);
        assert_eq!(m.messages_per_round, vec![2, 1]);
        assert_eq!(m.peak_messages_per_round(), 2);
        assert!((m.mean_messages_per_round() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bounded_rounds_keep_totals_without_history() {
        let mut m = Metrics::default();
        m.begin_round_bounded();
        m.absorb_delivery(2, 30, 20);
        m.begin_round_bounded();
        m.absorb_delivery(1, 5, 5);
        assert_eq!(m.rounds, 2);
        assert_eq!(m.messages, 3);
        assert_eq!(m.total_bits, 35);
        assert_eq!(m.max_message_bits, 20);
        assert!(m.messages_per_round.is_empty(), "streaming keeps no history");
        assert_eq!(m.peak_messages_per_round(), 0);
        assert!((m.mean_messages_per_round() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics() {
        let m = Metrics::default();
        assert_eq!(m.mean_messages_per_round(), 0.0);
        assert_eq!(m.peak_messages_per_round(), 0);
    }
}
