//! `DistNearClique` — the distributed near-clique discovery algorithm of
//! Brakerski & Patt-Shamir, *Distributed Discovery of Large Near-Cliques*
//! (PODC 2009), reproduced faithfully on a CONGEST simulator.
//!
//! Given an undirected graph and `0 ≤ ε ≤ 1`, a node set is an *ε-near
//! clique* if all but an ε fraction of its (directed) node pairs are
//! edges. The paper's algorithm finds, in a constant number of
//! synchronous rounds with `O(log n)`-bit messages and constant success
//! probability, an `O(ε/δ)`-near clique of size `(1 − O(ε))·|D|` whenever
//! an ε³-near clique `D` with `|D| ≥ δn` exists (Theorem 2.1).
//!
//! # Crate layout
//!
//! * [`params`] — ε, `p`, boosting λ, and the Theorem 2.1 instantiation
//!   of `p`.
//! * [`sample`] — the sampling stage and the §5.2 two-coin refinement.
//! * [`msg`] / [`component`] / [`protocol`] — the CONGEST state machine:
//!   message alphabet, per-component bookkeeping, phase logic.
//! * [`runner`] — one-call execution through a [`congest::Session`].
//! * [`mod@reference`] — a centralized executable specification; property
//!   tests pin the distributed protocol to it.
//! * [`verify`] — executable forms of the paper's unconditional
//!   guarantees (Lemma 5.3) and of Theorem 5.7's assertions.
//!
//! # Quickstart
//!
//! ```
//! use graphs::generators::planted_near_clique;
//! use nearclique::{run_near_clique, NearCliqueParams};
//! use rand::SeedableRng;
//!
//! // A 200-node graph with a planted 0.008-near clique on 100 nodes
//! // (0.008 = ε³ for ε = 0.2).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let planted = planted_near_clique(200, 100, 0.008, 0.02, &mut rng);
//!
//! let params = NearCliqueParams::new(0.2, 0.05)?;
//! let run = run_near_clique(&planted.graph, &params, 7);
//! if let Some(found) = run.largest_set() {
//!     println!("found a near-clique of {} nodes", found.len());
//! }
//! # Ok::<(), nearclique::InvalidParams>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod component;
pub mod estimate;
pub mod msg;
pub mod params;
pub mod protocol;
pub mod reference;
pub mod runner;
pub mod sample;
pub mod verify;

pub use congest::{Driver, Engine, Session};
pub use msg::Msg;
pub use params::{InvalidParams, NearCliqueParams};
pub use protocol::{DistNearClique, NodeOutput};
pub use reference::{reference_run, RefCandidate, ReferenceResult};
pub use runner::{
    near_clique_phase_plan, run_near_clique, run_near_clique_phased, run_near_clique_with,
    NearCliqueRun, RunOptions,
};
pub use sample::SamplePlan;
pub use verify::{check_labels, check_theorem_5_7, LabelViolation, SetCheck};

#[cfg(test)]
mod equivalence_tests {
    //! The load-bearing tests of this crate: the distributed protocol must
    //! agree, node for node and label for label, with the centralized
    //! reference specification on arbitrary graphs and seeds.

    use crate::{reference_run, run_near_clique, NearCliqueParams};
    use graphs::generators;
    use graphs::{Graph, GraphBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_equivalent(g: &Graph, params: &NearCliqueParams, seed: u64) {
        let run = run_near_clique(g, params, seed);
        assert_eq!(
            run.termination,
            congest::Termination::Quiescent,
            "protocol must quiesce (n = {}, seed = {seed})",
            g.node_count()
        );
        let reference = reference_run(g, &run.ids, params, &run.plan);
        assert_eq!(
            run.labels,
            reference.labels,
            "distributed and reference labels diverge (n = {}, seed = {seed})",
            g.node_count()
        );
    }

    #[test]
    fn equivalence_on_planted_instances() {
        let params = NearCliqueParams::new(0.25, 0.08).unwrap();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = generators::planted_near_clique(120, 50, 0.015, 0.05, &mut rng);
            assert_equivalent(&p.graph, &params, seed * 31 + 1);
        }
    }

    #[test]
    fn equivalence_on_shingles_counterexample() {
        let params = NearCliqueParams::new(0.2, 0.05).unwrap();
        let s = generators::shingles_counterexample(150, 0.5);
        for seed in 0..5 {
            assert_equivalent(&s.graph, &params, seed * 17 + 3);
        }
    }

    #[test]
    fn equivalence_with_boosting() {
        let params = NearCliqueParams::new(0.25, 0.06).unwrap().with_lambda(3);
        let mut rng = StdRng::seed_from_u64(99);
        let p = generators::planted_clique(100, 40, 0.05, &mut rng);
        for seed in 0..5 {
            assert_equivalent(&p.graph, &params, seed * 13 + 5);
        }
    }

    #[test]
    fn equivalence_with_min_size_filter() {
        let params = NearCliqueParams::new(0.2, 0.1).unwrap().with_min_candidate_size(8);
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnp(80, 0.15, &mut rng);
        for seed in 0..5 {
            assert_equivalent(&g, &params, seed * 7 + 2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random sparse graphs, random seeds: exact agreement.
        #[test]
        fn equivalence_on_random_graphs(
            n in 10usize..60,
            edge_factor in 1usize..4,
            graph_seed in 0u64..1000,
            run_seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(graph_seed);
            let p = (edge_factor as f64) * 2.0 / n as f64;
            let g = generators::gnp(n, p.min(0.5), &mut rng);
            let params = NearCliqueParams::new(0.25, 0.12).unwrap();
            assert_equivalent(&g, &params, run_seed);
        }

        /// Lemma 5.3 invariant on arbitrary inputs: every labeled set
        /// satisfies the density bound.
        #[test]
        fn lemma_5_3_on_random_graphs(
            n in 10usize..50,
            graph_seed in 0u64..1000,
            run_seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(graph_seed);
            let g = generators::gnp(n, 0.2, &mut rng);
            let params = NearCliqueParams::new(0.3, 0.15).unwrap();
            let run = run_near_clique(&g, &params, run_seed);
            prop_assert!(crate::check_labels(&g, &run.labels, params.epsilon).is_ok());
        }
    }

    #[test]
    fn equivalence_on_structured_graphs() {
        let params = NearCliqueParams::new(0.25, 0.1).unwrap();
        // Path, star, two cliques joined by an edge.
        let mut path = GraphBuilder::new(30);
        for i in 0..29 {
            path.add_edge(i, i + 1);
        }
        assert_equivalent(&path.build(), &params, 41);

        let mut star = GraphBuilder::new(30);
        for i in 1..30 {
            star.add_edge(0, i);
        }
        assert_equivalent(&star.build(), &params, 42);

        let mut joined = GraphBuilder::new(24);
        joined.add_clique(&(0..12).collect::<Vec<_>>());
        joined.add_clique(&(12..24).collect::<Vec<_>>());
        joined.add_edge(11, 12);
        assert_equivalent(&joined.build(), &params, 43);
    }
}
