//! Property test locking the determinism contract into the unified
//! [`congest::Session`] surface: for random G(n,p) graphs and seeds, a
//! randomized protocol run is **bit-identical** across
//! `Engine::Flat { shards: 1 }`, `Engine::Flat { shards: 4 }` and
//! `Engine::Legacy` — per-node outputs, the full metrics structure
//! (per-round histogram included) and termination.
//!
//! The protocol below deliberately leans on everything the contract
//! covers: per-node RNG streams (random payloads *and* random ports),
//! multi-message trains on single ports (CONGEST pipelining), and
//! data-dependent sends.

use congest::{
    ChurnModel, ChurnPolicy, Context, DelayModel, Driver, Engine, FaultModel, Message, Port,
    Protocol, RunLimits, Session, SyncModel, Termination, TraceConfig,
};
use graphs::generators;
use nearclique::{
    near_clique_phase_plan, run_near_clique_phased, run_near_clique_with, DistNearClique,
    NearCliqueParams, RunOptions,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Debug)]
struct Token(u64);

impl Message for Token {
    fn bit_size(&self) -> usize {
        64
    }
}

/// Randomized gossip: every node keeps a rolling hash of everything it
/// heard (order-sensitive within a round) and, for a few rounds, sends
/// fresh random tokens to randomly drawn ports — sometimes several to
/// the same port in one round, so trains pipeline.
struct RandomGossip {
    bursts_left: u32,
    acc: u64,
}

impl Protocol for RandomGossip {
    type Msg = Token;
    type Output = u64;

    fn init(&mut self, ctx: &mut Context<'_, Token>) {
        let degree = ctx.degree();
        if degree == 0 {
            self.bursts_left = 0;
            return;
        }
        let token = ctx.rng().gen_range(0..u64::MAX);
        ctx.broadcast(Token(token));
    }

    fn step(&mut self, ctx: &mut Context<'_, Token>, inbox: &[(Port, Token)]) {
        for &(port, Token(w)) in inbox {
            self.acc = self
                .acc
                .rotate_left(7)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(w ^ port as u64);
        }
        if self.bursts_left > 0 && !inbox.is_empty() {
            self.bursts_left -= 1;
            let degree = ctx.degree();
            for _ in 0..3 {
                let port = ctx.rng().gen_range(0..degree);
                let token = ctx.rng().gen_range(0..u64::MAX);
                ctx.send(port, Token(token));
            }
        }
    }

    fn is_idle(&self) -> bool {
        true
    }

    fn output(&self) -> u64 {
        self.acc
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random sparse graphs, random seeds: the three synchronous engine
    /// configurations agree bit for bit through one `Session` entry.
    #[test]
    fn session_runs_are_bit_identical_across_engines(
        n in 8usize..48,
        edge_factor in 1usize..5,
        graph_seed in 0u64..1000,
        run_seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let p = (edge_factor as f64) * 2.0 / n as f64;
        let g = generators::gnp(n, p.min(0.6), &mut rng);

        let run = |engine| {
            Session::on(&g)
                .seed(run_seed)
                .engine(engine)
                .limits(RunLimits::rounds(200))
                .run_with(|_| RandomGossip { bursts_left: 4, acc: 0 })
        };

        let (flat1_out, flat1) = run(Engine::Flat { shards: 1 });
        let (flat4_out, flat4) = run(Engine::Flat { shards: 4 });
        let (legacy_out, legacy) = run(Engine::Legacy);

        prop_assert_eq!(&flat1_out, &flat4_out, "shard counts diverge");
        prop_assert_eq!(&flat1_out, &legacy_out, "flat vs legacy diverge");
        prop_assert_eq!(&flat1.metrics, &flat4.metrics, "shard-count metrics diverge");
        prop_assert_eq!(&flat1.metrics, &legacy.metrics, "engine metrics diverge");
        prop_assert_eq!(flat1.termination, flat4.termination);
        prop_assert_eq!(flat1.termination, legacy.termination);
        // The workload itself must be non-trivial and finish.
        prop_assert_eq!(flat1.termination, Termination::Quiescent);
        prop_assert!(flat1.metrics.messages > 0 || g.edge_count() == 0);
    }

    /// The §4.1 schedule contract on random G(n,p): a `PhasePlan` derived
    /// from a synchronous `DistNearClique` run enters phases in exactly
    /// the order of the sync engine's `phase_trace` names (= the
    /// protocol's canonical phase sequence), and replaying that plan on
    /// the asynchronous engine reproduces the same trace and labels.
    #[test]
    fn phase_plan_order_matches_sync_phase_trace(
        n in 8usize..40,
        edge_factor in 1usize..5,
        graph_seed in 0u64..1000,
        run_seed in 0u64..1000,
        lambda in 1u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let p = (edge_factor as f64) * 2.0 / n as f64;
        let g = generators::gnp(n, p.min(0.6), &mut rng);
        let params = NearCliqueParams::for_expected_sample(0.25, 4.0, n)
            .expect("valid params")
            .with_lambda(lambda);

        let sync = run_near_clique_with(&g, &params, run_seed, RunOptions::threaded(1));
        prop_assert_eq!(sync.termination, Termination::Quiescent);
        let plan = near_clique_phase_plan(&g, &params, run_seed, 1_000_000);

        let sync_names: Vec<&'static str> =
            sync.phase_trace.iter().map(|&(_, name, _)| name).collect();
        prop_assert_eq!(&plan.names(), &sync_names, "plan order diverges from the sync trace");
        prop_assert_eq!(&sync_names, &DistNearClique::phase_sequence(lambda));

        let alpha = run_near_clique_phased(
            &g,
            &params,
            run_seed,
            Engine::Async {
                delay: DelayModel::Uniform { max_delay: 3 },
                sync: SyncModel::Alpha,
                fault: FaultModel::None,
                churn: ChurnModel::None,
            },
            &plan,
        );
        prop_assert_eq!(&alpha.phase_trace, &sync.phase_trace);
        prop_assert_eq!(&alpha.labels, &sync.labels);
        prop_assert_eq!(&alpha.metrics, &sync.metrics);
    }

    /// Regression for the slab-backed event plane (timing wheel +
    /// rotating inboxes): `PhasePlan`-driven phased runs still match the
    /// flat engine **bit for bit** on random G(n,p), under every delay
    /// model and random bounds — labels, the full payload `Metrics`
    /// (per-pulse histogram and barrier count included) and the phase
    /// trace. The delay bound varies so the wheel's horizon (and, for
    /// the per-port models, its *compiled* tighter bound) is exercised
    /// at many sizes.
    #[test]
    fn phased_alpha_runs_match_flat_under_every_delay_model(
        n in 8usize..36,
        edge_factor in 1usize..5,
        graph_seed in 0u64..1000,
        run_seed in 0u64..1000,
        model_pick in 0usize..4,
        max_delay in 1u64..24,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let p = (edge_factor as f64) * 2.0 / n as f64;
        let g = generators::gnp(n, p.min(0.6), &mut rng);
        let params = NearCliqueParams::for_expected_sample(0.25, 4.0, n).expect("valid params");

        let sync = run_near_clique_with(&g, &params, run_seed, RunOptions::threaded(1));
        prop_assert_eq!(sync.termination, Termination::Quiescent);

        let plan = near_clique_phase_plan(&g, &params, run_seed, 1_000_000);
        let delay = match model_pick {
            0 => DelayModel::Uniform { max_delay },
            1 => DelayModel::PerLink { max_delay },
            2 => DelayModel::HeavyTailed { max_delay },
            _ => DelayModel::Adversarial { max_delay },
        };
        let alpha = run_near_clique_phased(
            &g,
            &params,
            run_seed,
            Engine::Async {
                delay,
                sync: SyncModel::Alpha,
                fault: FaultModel::None,
                churn: ChurnModel::None,
            },
            &plan,
        );
        prop_assert_eq!(&alpha.labels, &sync.labels, "{:?}", delay);
        prop_assert_eq!(&alpha.metrics, &sync.metrics, "{:?}", delay);
        prop_assert_eq!(&alpha.phase_trace, &sync.phase_trace, "{:?}", delay);
        prop_assert_eq!(alpha.termination, Termination::Quiescent, "{:?}", delay);
    }

    /// The synchronizer-layer contract on random G(n,p): a
    /// `BatchedAlpha` phased run — safety piggybacked on payloads, idle
    /// edges cleared by coalesced Safe waves — reproduces the flat
    /// engine's labels, full payload `Metrics` and phase trace bit for
    /// bit, under every delay model and random bounds, while paying at
    /// most α's control traffic.
    #[test]
    fn phased_batched_alpha_runs_match_flat(
        n in 8usize..36,
        edge_factor in 1usize..5,
        graph_seed in 0u64..1000,
        run_seed in 0u64..1000,
        model_pick in 0usize..4,
        max_delay in 1u64..24,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let p = (edge_factor as f64) * 2.0 / n as f64;
        let g = generators::gnp(n, p.min(0.6), &mut rng);
        let params = NearCliqueParams::for_expected_sample(0.25, 4.0, n).expect("valid params");

        let sync = run_near_clique_with(&g, &params, run_seed, RunOptions::threaded(1));
        prop_assert_eq!(sync.termination, Termination::Quiescent);

        let plan = near_clique_phase_plan(&g, &params, run_seed, 1_000_000);
        let delay = match model_pick {
            0 => DelayModel::Uniform { max_delay },
            1 => DelayModel::PerLink { max_delay },
            2 => DelayModel::HeavyTailed { max_delay },
            _ => DelayModel::Adversarial { max_delay },
        };
        let batched = run_near_clique_phased(
            &g,
            &params,
            run_seed,
            Engine::Async {
                delay,
                sync: SyncModel::BatchedAlpha,
                fault: FaultModel::None,
                churn: ChurnModel::None,
            },
            &plan,
        );
        prop_assert_eq!(&batched.labels, &sync.labels, "{:?}", delay);
        prop_assert_eq!(&batched.metrics, &sync.metrics, "{:?}", delay);
        prop_assert_eq!(&batched.phase_trace, &sync.phase_trace, "{:?}", delay);
        prop_assert_eq!(batched.termination, Termination::Quiescent, "{:?}", delay);

        let alpha = run_near_clique_phased(
            &g,
            &params,
            run_seed,
            Engine::Async {
                delay,
                sync: SyncModel::Alpha,
                fault: FaultModel::None,
                churn: ChurnModel::None,
            },
            &plan,
        );
        prop_assert!(
            batched.overhead.control_messages <= alpha.overhead.control_messages,
            "batched {} vs alpha {} control messages ({:?})",
            batched.overhead.control_messages,
            alpha.overhead.control_messages,
            delay
        );
    }

    /// The fault plane's masking contract on random G(n,p) graphs: a
    /// phased `DistNearClique` run under seeded message loss (`Drop`)
    /// or periodic link outages (`LinkFlap`) — with random fault
    /// parameters, delay model, bound and synchronizer — reproduces the
    /// synchronous engine's labels, full payload `Metrics` and phase
    /// trace bit for bit, still quiescing; only the overhead grows,
    /// with every drop accounted as exactly one retransmission. Every
    /// assertion prints `(run_seed, FaultModel)`, which alone replays
    /// the failing fault schedule.
    #[test]
    fn masked_faults_preserve_phased_runs_on_gnp(
        n in 8usize..36,
        edge_factor in 1usize..5,
        graph_seed in 0u64..1000,
        run_seed in 0u64..1000,
        model_pick in 0usize..4,
        max_delay in 1u64..12,
        sync_pick in 0usize..2,
        fault_pick in 0usize..2,
        p_millis in 1u32..150,
        down_len in 1u64..4,
        up_len in 2u64..8,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let p = (edge_factor as f64) * 2.0 / n as f64;
        let g = generators::gnp(n, p.min(0.6), &mut rng);
        let params = NearCliqueParams::for_expected_sample(0.25, 4.0, n).expect("valid params");

        let sync = run_near_clique_with(&g, &params, run_seed, RunOptions::threaded(1));
        prop_assert_eq!(sync.termination, Termination::Quiescent);

        let plan = near_clique_phase_plan(&g, &params, run_seed, 1_000_000);
        let delay = match model_pick {
            0 => DelayModel::Uniform { max_delay },
            1 => DelayModel::PerLink { max_delay },
            2 => DelayModel::HeavyTailed { max_delay },
            _ => DelayModel::Adversarial { max_delay },
        };
        let sync_model = if sync_pick == 0 { SyncModel::Alpha } else { SyncModel::BatchedAlpha };
        let fault = if fault_pick == 0 {
            FaultModel::Drop { p_millis }
        } else {
            FaultModel::LinkFlap { down_len, up_len }
        };

        let faulty = run_near_clique_phased(
            &g,
            &params,
            run_seed,
            Engine::Async { delay, sync: sync_model, fault, churn: ChurnModel::None },
            &plan,
        );
        prop_assert_eq!(
            &faulty.labels, &sync.labels,
            "seed {}, {:?}, {:?}, {:?}: labels", run_seed, fault, delay, sync_model
        );
        prop_assert_eq!(
            &faulty.metrics, &sync.metrics,
            "seed {}, {:?}, {:?}, {:?}: payload ledger", run_seed, fault, delay, sync_model
        );
        prop_assert_eq!(
            &faulty.phase_trace, &sync.phase_trace,
            "seed {}, {:?}, {:?}, {:?}: phase trace", run_seed, fault, delay, sync_model
        );
        prop_assert_eq!(
            faulty.termination, Termination::Quiescent,
            "seed {}, {:?}, {:?}, {:?}: termination", run_seed, fault, delay, sync_model
        );
        prop_assert_eq!(
            faulty.overhead.dropped_messages, faulty.overhead.retransmissions,
            "seed {}, {:?}, {:?}, {:?}: masked faults lose nothing",
            run_seed, fault, delay, sync_model
        );
    }

    /// The record/replay bridge between sampled runs and the
    /// interleaving explorer's trace format: recording the realized
    /// delay draws of a *sampled* asynchronous run (any delay model,
    /// either synchronizer, masked faults included) as a `DelayTrace`,
    /// round-tripping it through its committable text form, and
    /// replaying it through the ordinary `Engine::Async` via
    /// `DelayModel::Replay` reproduces the run **bit for bit** —
    /// per-node outputs, the full payload `Metrics`, and the
    /// `SyncOverhead` ledger (virtual completion time included).
    #[test]
    fn recorded_async_runs_replay_bit_identically(
        n in 4usize..12,
        edge_factor in 1usize..4,
        graph_seed in 0u64..1000,
        run_seed in 0u64..1000,
        model_pick in 0usize..4,
        max_delay in 1u64..8,
        sync_pick in 0usize..2,
        fault_pick in 0usize..3,
        p_millis in 1u32..200,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let p = (edge_factor as f64) * 2.0 / n as f64;
        let g = generators::gnp(n, p.min(0.6), &mut rng);

        let delay = match model_pick {
            0 => DelayModel::Uniform { max_delay },
            1 => DelayModel::PerLink { max_delay },
            2 => DelayModel::HeavyTailed { max_delay },
            _ => DelayModel::Adversarial { max_delay },
        };
        let sync_model = if sync_pick == 0 { SyncModel::Alpha } else { SyncModel::BatchedAlpha };
        let fault = match fault_pick {
            0 => FaultModel::None,
            1 => FaultModel::Drop { p_millis },
            _ => FaultModel::LinkFlap { down_len: 2, up_len: 5 },
        };
        let make = |_: &congest::Endpoint| RandomGossip { bursts_left: 2, acc: 0 };

        let (outputs, report, trace) = congest::explore::record_run(
            &g,
            run_seed,
            delay,
            sync_model,
            fault,
            RunLimits::rounds(12),
            make,
        );

        // Round-trip through the committable text form first: the
        // replayed model is exactly what a regression fixture would
        // load from disk.
        let reloaded = congest::DelayTrace::from_text(&trace.to_text())
            .expect("recorded traces serialize losslessly");
        prop_assert_eq!(&reloaded, &trace);

        let (re_out, re_report) = Session::on(&g)
            .seed(run_seed)
            .engine(Engine::Async { delay: reloaded.register(), sync: sync_model, fault, churn: ChurnModel::None })
            .limits(RunLimits::rounds(12))
            .run_with(make);
        prop_assert_eq!(
            &re_out, &outputs,
            "seed {}, {:?}, {:?}, {:?}: replayed outputs", run_seed, delay, sync_model, fault
        );
        prop_assert_eq!(
            &re_report.metrics, &report.metrics,
            "seed {}, {:?}, {:?}, {:?}: replayed payload ledger",
            run_seed, delay, sync_model, fault
        );
        prop_assert_eq!(
            &re_report.overhead, &report.overhead,
            "seed {}, {:?}, {:?}, {:?}: replayed sync overhead",
            run_seed, delay, sync_model, fault
        );
        prop_assert_eq!(re_report.termination, report.termination);
    }

    /// The churn plane's determinism contract on random G(n,p): a
    /// churned run — staggered joins, graceful leaves, or both, under
    /// either handoff policy — is a pure function of
    /// `(seed, ChurnModel)`. Under **every** delay model and **both**
    /// synchronizers, replaying the same pair reproduces per-node
    /// outputs, the payload `Metrics`, the `SyncOverhead` ledger (churn
    /// counters included) and the traced event stream (every join,
    /// leave and retired payload, as exported JSONL) **bit for bit**.
    #[test]
    fn churned_runs_replay_bit_for_bit_on_gnp(
        n in 8usize..28,
        edge_factor in 1usize..5,
        graph_seed in 0u64..1000,
        run_seed in 0u64..1000,
        churn_pick in 0usize..3,
        movers in 1u32..4,
        at_pulse in 1u64..8,
        spacing in 0u64..3,
        restart in proptest::bool::ANY,
        max_delay in 1u64..8,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let p = (edge_factor as f64) * 2.0 / n as f64;
        let g = generators::gnp(n, p.min(0.6), &mut rng);
        let policy = if restart { ChurnPolicy::Restart } else { ChurnPolicy::Continue };
        let churn = match churn_pick {
            0 => ChurnModel::Join { joiners: movers, at_pulse, spacing, policy },
            1 => ChurnModel::Leave { leavers: movers, at_pulse, spacing, policy },
            _ => ChurnModel::Mixed { joiners: movers, leavers: movers, at_pulse, spacing, policy },
        };
        for delay in [
            DelayModel::Uniform { max_delay },
            DelayModel::PerLink { max_delay },
            DelayModel::HeavyTailed { max_delay },
            DelayModel::Adversarial { max_delay },
        ] {
            for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
                let run = || {
                    let mut driver = Session::on(&g)
                        .seed(run_seed)
                        .engine(Engine::Async { delay, sync, fault: FaultModel::None, churn })
                        .limits(RunLimits::rounds(24))
                        .trace(TraceConfig::default())
                        .build_with(|_| RandomGossip { bursts_left: 2, acc: 0 });
                    let report = driver.run();
                    let jsonl = driver.trace_sink().expect("recorder installed").to_jsonl();
                    (driver.outputs(), report, jsonl)
                };
                let (out_a, rep_a, trace_a) = run();
                let (out_b, rep_b, trace_b) = run();
                prop_assert_eq!(
                    &out_a, &out_b,
                    "seed {}, {:?}, {:?}, {:?}: churned outputs", run_seed, churn, delay, sync
                );
                prop_assert_eq!(
                    &rep_a.metrics, &rep_b.metrics,
                    "seed {}, {:?}, {:?}, {:?}: churned payload ledger",
                    run_seed, churn, delay, sync
                );
                prop_assert_eq!(
                    &rep_a.overhead, &rep_b.overhead,
                    "seed {}, {:?}, {:?}, {:?}: churned sync overhead",
                    run_seed, churn, delay, sync
                );
                prop_assert_eq!(
                    &trace_a, &trace_b,
                    "seed {}, {:?}, {:?}, {:?}: traced event stream",
                    run_seed, churn, delay, sync
                );
                prop_assert_eq!(rep_a.termination, rep_b.termination);
                prop_assert_eq!(
                    rep_a.overhead.epochs,
                    rep_a.overhead.joins + rep_a.overhead.leaves,
                    "every epoch is opened by exactly one membership event"
                );
            }
        }
    }
}
