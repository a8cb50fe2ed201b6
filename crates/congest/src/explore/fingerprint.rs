//! Canonical state fingerprints: how the explorer knows two branches
//! converged.
//!
//! Interleavings routinely reconverge — two orders of independent
//! deliveries commute — and enumerating both continuations doubles work
//! for nothing. The explorer therefore hashes the engine's complete
//! observable state after every step and prunes branches whose
//! fingerprint it has already expanded (the continuation was fully
//! explored at first visit, so pruning loses no schedules' *behavior*,
//! only their re-walk).
//!
//! # What goes into the hash
//!
//! The sweep is [`AsyncNetwork::explore_hash`]: pulse counters, `done`
//! flags, protocol state (`P: Hash`), per-node RNG state, queued
//! application messages, in-flight wheel events, staged inboxes, the
//! synchronizer's gate state, the fault plane's sampler/down/loss state,
//! and the payload ledger (metrics, their per-pulse message counts
//! included, and overhead counters).
//!
//! # What stays out, and why
//!
//! The fingerprint must equate states whose **futures** are
//! indistinguishable, so everything that merely records the past — or
//! shifts uniformly with virtual time — is excluded:
//!
//! * **absolute virtual time** (`SyncOverhead::virtual_time`, the wheel
//!   cursor): two branches can reach the same configuration at
//!   different absolute times; pending wheel events hash at
//!   cursor-*relative* arrival times instead,
//! * **the delay tape and script cursors**: pure history.
//!
//! Time-shift invariance is also why the explorer only admits
//! [`FaultModel::None`] and [`FaultModel::Drop`]: their fault streams
//! are position-indexed (merging two time-shifted branches keeps the
//! same future), while `LinkFlap`'s drop decisions read absolute event
//! time and `Crash` windows read pulse *and* wall schedules whose
//! diagnostics depend on when they fire.
//!
//! # Collision auditing
//!
//! A 64-bit fingerprint can collide in principle. The sweep feeds any
//! [`std::hash::Hasher`], so audit mode
//! ([`Explore::audit_fingerprints`](crate::explore::Explore::audit_fingerprints))
//! re-hashes every state with an independent FNV-1a and records, per
//! SipHash fingerprint, the FNV digest seen first; a later state that
//! matches on SipHash but differs on FNV is a detected collision
//! (counted in [`ExploreReport::fingerprint_collisions`]). Two
//! independent 64-bit hashes disagreeing on equality is overwhelming
//! evidence of a real collision, not a hash artifact.
//!
//! [`AsyncNetwork::explore_hash`]: crate::asynch::AsyncNetwork
//! [`FaultModel::None`]: crate::FaultModel::None
//! [`FaultModel::Drop`]: crate::FaultModel::Drop
//! [`ExploreReport::fingerprint_collisions`]: crate::explore::ExploreReport::fingerprint_collisions

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::asynch::AsyncNetwork;
use crate::protocol::Protocol;

/// The primary fingerprint: the full state sweep through the standard
/// library's `DefaultHasher` (SipHash with fixed zero keys — stable
/// within a build, which is all determinism of the exploration needs).
pub(crate) fn fingerprint<P>(net: &AsyncNetwork<P>) -> u64
where
    P: Protocol + Hash,
    P::Msg: Hash,
{
    let mut h = DefaultHasher::new();
    net.explore_hash(&mut h);
    h.finish()
}

/// The audit fingerprint: the same sweep through an independent FNV-1a.
pub(crate) fn audit_fingerprint<P>(net: &AsyncNetwork<P>) -> u64
where
    P: Protocol + Hash,
    P::Msg: Hash,
{
    let mut h = Fnv1a::new();
    net.explore_hash(&mut h);
    h.finish()
}

/// FNV-1a, 64-bit: structurally unrelated to SipHash, which is the
/// point — a SipHash collision between distinct states will not also be
/// an FNV collision except with ~2⁻⁶⁴ probability.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        let digest = |s: &str| {
            let mut h = Fnv1a::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
    }
}
