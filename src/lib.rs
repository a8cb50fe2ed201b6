//! Umbrella crate for the reproduction of Brakerski & Patt-Shamir,
//! *Distributed Discovery of Large Near-Cliques* (PODC 2009).
//!
//! This crate re-exports the workspace members and hosts the runnable
//! examples (`examples/`) and the cross-crate integration tests
//! (`tests/`). For the library itself start at [`nearclique`]; for the
//! network model at [`congest`]; for workloads at [`graphs::generators`].
//!
//! # The one-minute tour
//!
//! Everything executes through one surface: a [`congest::Session`]
//! selects a graph, a seed and an [`congest::Engine`] — the flat
//! synchronous plane (optionally sharded over threads), the preserved
//! seed engine, or the synchronizer-α asynchronous executor — and every
//! engine returns the same outputs and the same payload metrics for the
//! same seed. The paper's algorithm rides on top via
//! [`nearclique::run_near_clique`]:
//!
//! ```
//! use near_clique_suite::prelude::*;
//! use rand::SeedableRng;
//!
//! // A Web-community-like instance: a planted near-clique in noise.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let planted = graphs::generators::planted_near_clique(300, 150, 0.01, 0.02, &mut rng);
//!
//! // The paper's algorithm, ε = 0.25, E|S| = 8 — one call, which runs a
//! // Session on the flat engine under the hood.
//! let params = NearCliqueParams::for_expected_sample(0.25, 8.0, 300)?;
//! let run = run_near_clique(&planted.graph, &params, 42);
//!
//! // Outputs carry the paper's unconditional guarantee (Lemma 5.3).
//! assert!(check_labels(&planted.graph, &run.labels, params.epsilon).is_ok());
//!
//! // Engine A/B is a one-line change: a 4-shard flat run (or, in test
//! // builds, the frozen seed engine behind congest's `legacy-engine`
//! // feature) through the same entry point.
//! let sharded = run_near_clique_with(
//!     &planted.graph, &params, 42, RunOptions::threaded(4),
//! );
//! assert_eq!(run.labels, sharded.labels);
//! assert_eq!(run.metrics, sharded.metrics);
//!
//! // Custom protocols use Session directly — see `congest`'s docs. The
//! // §2 asynchrony reduction is
//! // `.engine(Engine::Async { delay, sync, fault, churn })` with a
//! // pluggable `DelayModel` (uniform / per-link / heavy-tailed /
//! // adversarial), a pluggable synchronizer (`SyncModel`: classic α, or
//! // the batched Safe-wave variant that cuts the control-plane tax), a
//! // seeded `FaultModel` (message loss and link flaps masked by
//! // deterministic retransmission; node crashes that degrade the run),
//! // and a seeded `ChurnModel` (epoch-versioned membership join/leave);
//! // staged protocols complete under a `PhasePlan` of §4.1 per-phase
//! // pulse budgets — run_near_clique_with derives the schedule
//! // automatically:
//! let alpha = run_near_clique_with(
//!     &planted.graph, &params, 42,
//!     RunOptions::with_engine(Engine::Async {
//!         delay: DelayModel::HeavyTailed { max_delay: 8 },
//!         sync: SyncModel::BatchedAlpha,
//!         fault: FaultModel::Drop { p_millis: 20 },
//!         churn: ChurnModel::None,
//!     }),
//! );
//! // Even with 2% of sends dropped on the wire, retransmission masks
//! // every fault: outputs and payload metrics are bit-identical.
//! assert_eq!(run.labels, alpha.labels);
//! assert_eq!(run.metrics, alpha.metrics);
//! # Ok::<(), nearclique::InvalidParams>(())
//! ```
//!
//! At scale, skip the graph entirely: a seeded [`graphs::EdgeStream`]
//! (e.g. [`graphs::generators::GnpStream`]) feeds
//! [`congest::Session::on_stream`], which compiles the flat plane's
//! route table in two counted passes — peak memory is the final CSR,
//! never an edge list — and runs bit-identically to the materialized
//! path. `examples/million_node.rs` floods a G(10⁶, deg 16) instance
//! this way in under a gigabyte.

#![warn(missing_docs)]

pub use baselines;
pub use congest;
pub use graphs;
pub use nearclique;
pub use proptester;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use baselines::{run_neighbors_neighbors, run_shingles, NearCliqueFinder, ShinglesConfig};
    pub use congest::{
        ChurnModel, ChurnPolicy, DelayModel, Driver, Engine, FaultModel, Metrics, MetricsMode,
        Mode, Observer, PhaseBudget, PhasePlan, RunLimits, RunProfile, RunReport, Session,
        SyncModel, Termination, TraceConfig, TraceSink,
    };
    pub use graphs::{density, generators, EdgeStream, FixedBitSet, Graph, GraphBuilder};
    pub use nearclique::{
        check_labels, check_theorem_5_7, near_clique_phase_plan, reference_run, run_near_clique,
        run_near_clique_phased, run_near_clique_with, NearCliqueParams, NearCliqueRun, RunOptions,
        SamplePlan,
    };
}
