//! Engine-equivalence suite: runs started through the unified
//! [`congest::Session`] surface must be **bit-identical** — labels, full
//! metrics (rounds, messages, bits, per-round histogram, barriers) and
//! termination — across
//!
//! * thread counts (`Engine::Flat { shards: 1 }` vs `{ shards: 4 }`),
//! * the old→new engine boundary (`Engine::Legacy`, the seed
//!   repository's pointer-chasing engine, vs the flat plane),
//! * the synchronous/asynchronous boundary (`Engine::Async`, the §2
//!   synchronizer-α reduction, vs the flat plane — equal outputs and an
//!   equal payload-side ledger at any link-delay bound), and
//! * the centralized executable specification
//!   ([`nearclique::reference_run`]),
//!
//! over the workload families of the paper's experiments: planted
//! near-cliques, G(n,p) noise, stars, paths, and the Figure 1 shingles
//! counterexample.

use congest::{
    ChurnModel, Context, DelayModel, Engine, FaultModel, Message, Mode, Port, Protocol, RunLimits,
    Session, SyncModel,
};
use graphs::{generators, Graph, GraphBuilder};
use nearclique::{
    near_clique_phase_plan, reference_run, run_near_clique_phased, run_near_clique_with,
    DistNearClique, NearCliqueParams, RunOptions, SamplePlan,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The delay-model grid the asynchronous equivalence tests sweep: the
/// classic uniform draw at several bounds, plus one of each pluggable
/// model (per-link, heavy-tailed, adversarial-within-bound).
fn delay_models() -> Vec<DelayModel> {
    vec![
        DelayModel::Uniform { max_delay: 1 },
        DelayModel::Uniform { max_delay: 7 },
        DelayModel::Uniform { max_delay: 31 },
        DelayModel::PerLink { max_delay: 7 },
        DelayModel::HeavyTailed { max_delay: 7 },
        DelayModel::Adversarial { max_delay: 7 },
    ]
}

fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(0, i);
    }
    b.build()
}

fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        b.add_edge(i, i + 1);
    }
    b.build()
}

fn workloads() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(71);
    vec![
        ("planted", generators::planted_near_clique(140, 60, 0.015, 0.04, &mut rng).graph),
        ("gnp", generators::gnp(120, 0.08, &mut rng)),
        ("star", star(80)),
        ("path", path(80)),
        ("counterexample", generators::shingles_counterexample(120, 0.5).graph),
    ]
}

/// `Engine::Flat` at different shard counts must agree on everything,
/// including the full metrics structure, and must match the centralized
/// reference specification.
/// ε = 0.25, E|S| = 7 (the benches' operating point): the exploration
/// stage enumerates 2^|S| subsets, so pinning E|S| keeps the suite fast.
fn test_params(n: usize) -> NearCliqueParams {
    NearCliqueParams::for_expected_sample(0.25, 7.0, n).unwrap().with_lambda(2)
}

#[test]
fn thread_counts_are_bit_identical_and_match_reference() {
    for (name, g) in workloads() {
        let params = test_params(g.node_count());
        for seed in [3u64, 19] {
            let sequential = run_near_clique_with(&g, &params, seed, RunOptions::threaded(1));
            let sharded = run_near_clique_with(&g, &params, seed, RunOptions::threaded(4));
            assert_eq!(
                sequential.labels, sharded.labels,
                "labels diverge across thread counts ({name}, seed {seed})"
            );
            assert_eq!(
                sequential.metrics, sharded.metrics,
                "metrics diverge across thread counts ({name}, seed {seed})"
            );
            assert_eq!(
                sequential.termination, sharded.termination,
                "termination diverges across thread counts ({name}, seed {seed})"
            );

            let reference = reference_run(&g, &sequential.ids, &params, &sequential.plan);
            assert_eq!(
                sequential.labels, reference.labels,
                "distributed labels diverge from the centralized reference ({name}, seed {seed})"
            );
        }
    }
}

/// The legacy (seed) engine and the flat plane must agree bit-for-bit on
/// `DistNearClique` runs — selected purely by `RunOptions::engine`, same
/// entry point, same everything else.
#[test]
fn legacy_and_flat_engines_agree_on_dist_near_clique() {
    for (name, g) in workloads() {
        let params = test_params(g.node_count());
        for seed in [5u64, 23] {
            let flat = run_near_clique_with(&g, &params, seed, RunOptions::threaded(2));
            let legacy =
                run_near_clique_with(&g, &params, seed, RunOptions::with_engine(Engine::Legacy));

            assert_eq!(
                flat.labels, legacy.labels,
                "labels diverge across engines ({name}, seed {seed})"
            );
            assert_eq!(
                flat.metrics, legacy.metrics,
                "metrics diverge across engines ({name}, seed {seed})"
            );
            assert_eq!(
                flat.termination, legacy.termination,
                "termination diverges across engines ({name}, seed {seed})"
            );
            assert_eq!(
                flat.barrier_rounds, legacy.barrier_rounds,
                "observed barriers diverge across engines ({name}, seed {seed})"
            );
        }
    }
}

/// LOCAL-mode trains: the whole-queue delivery path (multi-message ports,
/// FIFO within a train) must match across engines and thread counts.
#[test]
fn local_mode_trains_are_equivalent() {
    use congest::{bits_for_count, Context, Message, Port, Protocol};

    #[derive(Clone, Debug)]
    struct Seq(u32);
    impl Message for Seq {
        fn bit_size(&self) -> usize {
            bits_for_count(1 << 16)
        }
    }

    /// Every node sends a distinct train to each lower-indexed neighbor in
    /// `init`, then every receiver records (round, port, payload) — a
    /// direct probe of delivery order.
    struct Trains {
        start: bool,
        heard: Vec<(u64, Port, u32)>,
    }
    impl Protocol for Trains {
        type Msg = Seq;
        type Output = Vec<(u64, Port, u32)>;

        fn init(&mut self, ctx: &mut Context<'_, Seq>) {
            if self.start {
                for port in 0..ctx.degree() {
                    for k in 0..5u32 {
                        ctx.send(port, Seq(port as u32 * 100 + k));
                    }
                }
            }
        }

        fn step(&mut self, ctx: &mut Context<'_, Seq>, inbox: &[(Port, Seq)]) {
            for (port, msg) in inbox {
                self.heard.push((ctx.round(), *port, msg.0));
            }
        }

        fn is_idle(&self) -> bool {
            true
        }

        fn output(&self) -> Vec<(u64, Port, u32)> {
            self.heard.clone()
        }
    }

    for (name, g) in workloads() {
        for mode in [Mode::Congest, Mode::Local] {
            let factory = |e: &congest::Endpoint| Trains {
                start: e.index.is_multiple_of(3),
                heard: Vec::new(),
            };

            let run = |engine| Session::on(&g).mode(mode).seed(9).engine(engine).run_with(factory);
            let (out1, r1) = run(Engine::Flat { shards: 1 });
            let (out4, r4) = run(Engine::Flat { shards: 4 });
            let (outl, rl) = run(Engine::Legacy);

            assert_eq!(out1, out4, "{name} {mode:?}: thread counts");
            assert_eq!(out1, outl, "{name} {mode:?}: engines");
            assert_eq!(r1.metrics, r4.metrics, "{name} {mode:?}: thread-count metrics");
            assert_eq!(r1.metrics, rl.metrics, "{name} {mode:?}: engine metrics");
        }
    }
}

#[derive(Clone, Debug)]
struct Word(u64);
impl Message for Word {
    fn bit_size(&self) -> usize {
        64
    }
}

/// Flood: the source announces; nodes record the round they first
/// heard it and forward once.
struct Flood {
    source: bool,
    heard_at: Option<u64>,
}
impl Protocol for Flood {
    type Msg = Word;
    type Output = Option<u64>;
    fn init(&mut self, ctx: &mut Context<'_, Word>) {
        if self.source {
            self.heard_at = Some(0);
            ctx.broadcast(Word(ctx.id()));
        }
    }
    fn step(&mut self, ctx: &mut Context<'_, Word>, inbox: &[(Port, Word)]) {
        if !inbox.is_empty() && self.heard_at.is_none() {
            self.heard_at = Some(ctx.round());
            ctx.broadcast(Word(ctx.id()));
        }
    }
    fn is_idle(&self) -> bool {
        true
    }
    fn output(&self) -> Option<u64> {
        self.heard_at
    }
}

/// Gossip: every node floods the largest (randomized) token it has
/// seen — exercises per-node RNG streams, multi-source traffic and
/// repeated broadcasts.
struct MaxGossip {
    best: u64,
    log: Vec<(u64, u64)>,
}
impl Protocol for MaxGossip {
    type Msg = Word;
    type Output = (u64, Vec<(u64, u64)>);
    fn init(&mut self, ctx: &mut Context<'_, Word>) {
        use rand::Rng;
        self.best = ctx.rng().gen_range(0..1 << 48);
        let token = self.best;
        ctx.broadcast(Word(token));
    }
    fn step(&mut self, ctx: &mut Context<'_, Word>, inbox: &[(Port, Word)]) {
        let mut improved = false;
        for &(_, Word(w)) in inbox {
            if w > self.best {
                self.best = w;
                improved = true;
            }
        }
        if improved {
            self.log.push((ctx.round(), self.best));
            let token = self.best;
            ctx.broadcast(Word(token));
        }
    }
    fn is_idle(&self) -> bool {
        true
    }
    fn output(&self) -> (u64, Vec<(u64, u64)>) {
        (self.best, self.log.clone())
    }
}

/// The §2 reduction on the unified surface: `Engine::Async` (any
/// `max_delay`, either synchronizer) must produce the flat engine's
/// exact outputs — and the exact payload-side ledger, pulse for round —
/// on gossip and flood protocols, for the same seed and budget.
#[test]
fn async_engine_matches_flat_on_gossip_and_flood() {
    const BUDGET: u64 = 24;

    fn check<P, F>(name: &str, g: &Graph, factory: F)
    where
        P: Protocol,
        P::Output: PartialEq + std::fmt::Debug,
        F: Fn(&congest::Endpoint) -> P + Copy,
    {
        let (flat_out, flat_report) = Session::on(g)
            .seed(17)
            .engine(Engine::Flat { shards: 2 })
            .limits(RunLimits::rounds(BUDGET))
            .run_with(factory);

        for delay in delay_models() {
            for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
                let (async_out, async_report) = Session::on(g)
                    .seed(17)
                    .engine(Engine::Async {
                        delay,
                        sync,
                        fault: FaultModel::None,
                        churn: ChurnModel::None,
                    })
                    .limits(RunLimits::rounds(BUDGET))
                    .run_with(factory);
                assert_eq!(async_out, flat_out, "{name}, {delay:?}, {sync:?}: outputs diverge");

                // The payload ledger matches pulse-for-round — under
                // every delay model and synchronizer (scheduling reorders
                // delivery, never traffic): the asynchronous engine
                // executes the full budget, so its histogram may only
                // extend the flat engine's (quiescent) one with empty
                // pulses.
                let fm = &flat_report.metrics;
                let am = &async_report.metrics;
                assert_eq!(am.messages, fm.messages, "{name}, {delay:?}, {sync:?}");
                assert_eq!(am.total_bits, fm.total_bits, "{name}, {delay:?}, {sync:?}");
                assert_eq!(am.max_message_bits, fm.max_message_bits, "{name}, {delay:?}, {sync:?}");
                let executed = fm.messages_per_round.len();
                assert_eq!(
                    &am.messages_per_round[..executed],
                    &fm.messages_per_round[..],
                    "{name}, {delay:?}, {sync:?}: per-round histogram diverges"
                );
                assert!(
                    am.messages_per_round[executed..].iter().all(|&m| m == 0),
                    "{name}, {delay:?}, {sync:?}: trailing pulses must be empty"
                );
            }
        }
    }

    for (name, g) in workloads() {
        check(name, &g, |e: &congest::Endpoint| Flood { source: e.index == 0, heard_at: None });
        check(name, &g, |_: &congest::Endpoint| MaxGossip { best: 0, log: Vec::new() });
    }
}

/// The async engine is seed-deterministic end to end through the
/// session surface (outputs, ledger and overhead alike).
#[test]
fn async_engine_is_deterministic_via_session() {
    let mut rng = StdRng::seed_from_u64(41);
    let g = generators::gnp(60, 0.1, &mut rng);
    let params = test_params(60);
    // A single-phase probe protocol seeded by the same sampling stage
    // the real runs use; `dist_near_clique_under_alpha_matches_flat`
    // below covers the staged protocol itself.
    let plan = SamplePlan::draw(60, params.lambda, params.p, 7);
    for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
        let run = || {
            Session::on(&g)
                .seed(7)
                .engine(Engine::Async {
                    delay: DelayModel::Uniform { max_delay: 9 },
                    sync,
                    fault: FaultModel::None,
                    churn: ChurnModel::None,
                })
                .limits(RunLimits::rounds(16))
                .run_with(|e| Probe { sampled: plan.in_sample(0, e.index), seen: 0 })
        };
        let (a, ra) = run();
        let (b, rb) = run();
        assert_eq!(a, b, "{sync:?}");
        assert_eq!(ra.metrics, rb.metrics, "{sync:?}");
        assert_eq!(ra.overhead, rb.overhead, "{sync:?}");
    }

    #[derive(Clone, Debug)]
    struct Ping;
    impl Message for Ping {
        fn bit_size(&self) -> usize {
            8
        }
    }

    struct Probe {
        sampled: bool,
        seen: u64,
    }
    impl Protocol for Probe {
        type Msg = Ping;
        type Output = u64;
        fn init(&mut self, ctx: &mut Context<'_, Ping>) {
            if self.sampled {
                ctx.broadcast(Ping);
            }
        }
        fn step(&mut self, ctx: &mut Context<'_, Ping>, inbox: &[(Port, Ping)]) {
            self.seen += inbox.len() as u64;
            if !inbox.is_empty() && self.seen == inbox.len() as u64 {
                ctx.broadcast(Ping);
            }
        }
        fn is_idle(&self) -> bool {
            true
        }
        fn output(&self) -> u64 {
            self.seen
        }
    }
}

/// The acceptance boundary of the scheduling subsystem: the *staged*
/// `DistNearClique` protocol completes under synchronizer α — phase
/// transitions fired by a `PhasePlan` derived from a synchronous dry run
/// (`near_clique_phase_plan`, the §4.1 precomputed schedule) — and its
/// labels, outputs, full payload metrics and phase trace equal the flat
/// engine's, under **all four** delay models. The same plan on the flat
/// engine itself (where it only bounds the run) reproduces the unphased
/// run too.
#[test]
fn dist_near_clique_under_alpha_matches_flat() {
    let acceptance = ["planted", "gnp", "star"];
    for (name, g) in workloads().into_iter().filter(|(n, _)| acceptance.contains(n)) {
        let params = test_params(g.node_count());
        let seed = 11;
        let flat = run_near_clique_with(&g, &params, seed, RunOptions::threaded(1));

        // One schedule serves every delay model: it depends only on
        // (graph, params, seed).
        let plan = near_clique_phase_plan(&g, &params, seed, 1_000_000);
        assert_eq!(
            plan.names(),
            DistNearClique::phase_sequence(params.lambda),
            "{name}: derived schedule must walk the canonical phase order"
        );

        let async_engines = [
            DelayModel::Uniform { max_delay: 5 },
            DelayModel::PerLink { max_delay: 5 },
            DelayModel::HeavyTailed { max_delay: 5 },
            DelayModel::Adversarial { max_delay: 5 },
        ]
        .into_iter()
        .flat_map(|delay| {
            [SyncModel::Alpha, SyncModel::BatchedAlpha].map(|sync| Engine::Async {
                delay,
                sync,
                fault: FaultModel::None,
                churn: ChurnModel::None,
            })
        });
        for engine in std::iter::once(Engine::Flat { shards: 1 }).chain(async_engines) {
            let phased = run_near_clique_phased(&g, &params, seed, engine, &plan);
            assert_eq!(phased.labels, flat.labels, "{name}, {engine:?}: labels");
            assert_eq!(phased.outputs, flat.outputs, "{name}, {engine:?}: outputs");
            assert_eq!(
                phased.metrics, flat.metrics,
                "{name}, {engine:?}: payload ledger diverges (rounds/messages/bits/histogram)"
            );
            assert_eq!(
                phased.termination, flat.termination,
                "{name}, {engine:?}: termination diverges"
            );
            assert_eq!(
                phased.phase_trace, flat.phase_trace,
                "{name}, {engine:?}: phase entry rounds diverge"
            );
            assert_eq!(
                phased.barrier_rounds, flat.barrier_rounds,
                "{name}, {engine:?}: observed barriers diverge"
            );
        }
    }
}

/// The synchronizer contract, as a grid: `SyncModel::Alpha` and
/// `SyncModel::BatchedAlpha` are **bit-identical on outputs and the full
/// payload ledger** across all four delay models and all five workload
/// families, on both a deterministic flood and a randomized gossip —
/// while the batched control plane pays strictly less than α's
/// per-edge Ack/Safe flood.
#[test]
fn batched_alpha_equals_alpha_on_outputs_and_payload_grid() {
    const BUDGET: u64 = 20;

    fn grid<P, F>(kind: &str, g: &Graph, name: &str, factory: F)
    where
        P: Protocol,
        P::Output: PartialEq + std::fmt::Debug,
        F: Fn(&congest::Endpoint) -> P + Copy,
    {
        for delay in [
            DelayModel::Uniform { max_delay: 6 },
            DelayModel::PerLink { max_delay: 6 },
            DelayModel::HeavyTailed { max_delay: 6 },
            DelayModel::Adversarial { max_delay: 6 },
        ] {
            let run = |sync| {
                Session::on(g)
                    .seed(29)
                    .engine(Engine::Async {
                        delay,
                        sync,
                        fault: FaultModel::None,
                        churn: ChurnModel::None,
                    })
                    .limits(RunLimits::rounds(BUDGET))
                    .run_with(factory)
            };
            let (alpha_out, alpha) = run(SyncModel::Alpha);
            let (batched_out, batched) = run(SyncModel::BatchedAlpha);
            assert_eq!(alpha_out, batched_out, "{kind}, {name}, {delay:?}: outputs diverge");
            assert_eq!(
                alpha.metrics, batched.metrics,
                "{kind}, {name}, {delay:?}: payload ledger diverges"
            );
            // What the synchronizer layer is for: the batched Safe waves
            // undercut α's per-edge flood on every one of these
            // workloads (all have 2m > n and mostly-sparse pulses).
            assert!(
                batched.overhead.control_messages < alpha.overhead.control_messages,
                "{kind}, {name}, {delay:?}: batched {} vs alpha {} control messages",
                batched.overhead.control_messages,
                alpha.overhead.control_messages
            );
            assert!(
                batched.overhead.control_bits < alpha.overhead.control_bits,
                "{kind}, {name}, {delay:?}: control bits must shrink too"
            );
        }
    }

    for (name, g) in workloads() {
        grid("flood", &g, name, |e: &congest::Endpoint| Flood {
            source: e.index == 0,
            heard_at: None,
        });
        grid("gossip", &g, name, |_: &congest::Endpoint| MaxGossip { best: 0, log: Vec::new() });
    }
}

/// The fault plane's **masking contract**, as a grid: under the masked
/// fault models — seeded per-send loss ([`FaultModel::Drop`]) and
/// periodic link outages ([`FaultModel::LinkFlap`]) — deterministic
/// retransmission hides every fault from the protocol. Outputs and the
/// payload-side ledger equal the fault-free flat run **bit for bit**
/// across all four delay models, all five workload families and both
/// synchronizers; only the reported overhead (retransmissions = dropped
/// messages, and the virtual completion time) grows. Every assertion
/// prints the `(seed, FaultModel)` pair, which alone replays the
/// failing fault schedule.
#[test]
fn masked_faults_leave_outputs_and_payload_ledger_untouched() {
    const BUDGET: u64 = 20;
    const SEED: u64 = 29;

    fn grid<P, F>(kind: &str, g: &Graph, name: &str, factory: F)
    where
        P: Protocol,
        P::Output: PartialEq + std::fmt::Debug,
        F: Fn(&congest::Endpoint) -> P + Copy,
    {
        let (flat_out, flat) = Session::on(g)
            .seed(SEED)
            .engine(Engine::Flat { shards: 2 })
            .limits(RunLimits::rounds(BUDGET))
            .run_with(factory);

        for fault in
            [FaultModel::Drop { p_millis: 60 }, FaultModel::LinkFlap { down_len: 2, up_len: 5 }]
        {
            for delay in [
                DelayModel::Uniform { max_delay: 6 },
                DelayModel::PerLink { max_delay: 6 },
                DelayModel::HeavyTailed { max_delay: 6 },
                DelayModel::Adversarial { max_delay: 6 },
            ] {
                for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
                    let (out, report) = Session::on(g)
                        .seed(SEED)
                        .engine(Engine::Async { delay, sync, fault, churn: ChurnModel::None })
                        .limits(RunLimits::rounds(BUDGET))
                        .run_with(factory);
                    // `(seed, FaultModel)` replays the fault schedule.
                    let ctx =
                        format!("{kind}, {name}, {delay:?}, {sync:?}, seed {SEED}, {fault:?}");
                    assert_eq!(out, flat_out, "{ctx}: outputs diverge");

                    let fm = &flat.metrics;
                    let am = &report.metrics;
                    assert_eq!(am.messages, fm.messages, "{ctx}: payload message count");
                    assert_eq!(am.total_bits, fm.total_bits, "{ctx}: payload bits");
                    assert_eq!(am.max_message_bits, fm.max_message_bits, "{ctx}: width");
                    let executed = fm.messages_per_round.len();
                    assert_eq!(
                        &am.messages_per_round[..executed],
                        &fm.messages_per_round[..],
                        "{ctx}: per-round payload histogram diverges"
                    );
                    assert!(
                        am.messages_per_round[executed..].iter().all(|&m| m == 0),
                        "{ctx}: trailing pulses must be empty"
                    );

                    // The faults were real — and all of them were masked
                    // by retransmission, none lost.
                    assert!(
                        report.overhead.retransmissions > 0,
                        "{ctx}: the schedule injected no faults"
                    );
                    assert_eq!(
                        report.overhead.dropped_messages, report.overhead.retransmissions,
                        "{ctx}: a masked model loses nothing (dropped = retransmitted)"
                    );
                }
            }
        }
    }

    for (name, g) in workloads() {
        grid("flood", &g, name, |e: &congest::Endpoint| Flood {
            source: e.index == 0,
            heard_at: None,
        });
        grid("gossip", &g, name, |_: &congest::Endpoint| MaxGossip { best: 0, log: Vec::new() });
    }
}

/// Masking holds for the staged protocol too: `run_near_clique_phased`
/// under `Drop`/`LinkFlap` reproduces the synchronous labels, outputs,
/// payload metrics and phase trace exactly, with the §4.1 schedule
/// unchanged — the pulse budgets are virtual-time-free, so masked
/// retransmission (which only stretches virtual time) cannot skew them.
#[test]
fn dist_near_clique_masks_drop_and_link_flap() {
    let seed = 11;
    let (_, g) = workloads().into_iter().find(|(n, _)| *n == "gnp").unwrap();
    let params = test_params(g.node_count());
    let flat = run_near_clique_with(&g, &params, seed, RunOptions::threaded(1));
    let plan = near_clique_phase_plan(&g, &params, seed, 1_000_000);

    let delay = DelayModel::HeavyTailed { max_delay: 5 };
    for fault in
        [FaultModel::Drop { p_millis: 60 }, FaultModel::LinkFlap { down_len: 2, up_len: 5 }]
    {
        for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
            let run = run_near_clique_phased(
                &g,
                &params,
                seed,
                Engine::Async { delay, sync, fault, churn: ChurnModel::None },
                &plan,
            );
            let ctx = format!("gnp, {sync:?}, seed {seed}, {fault:?}");
            assert_eq!(run.labels, flat.labels, "{ctx}: labels diverge");
            assert_eq!(run.outputs, flat.outputs, "{ctx}: outputs diverge");
            assert_eq!(run.metrics, flat.metrics, "{ctx}: payload ledger diverges");
            assert_eq!(run.phase_trace, flat.phase_trace, "{ctx}: phase trace diverges");
            assert_eq!(run.termination, flat.termination, "{ctx}: termination diverges");
            assert!(run.overhead.retransmissions > 0, "{ctx}: no faults injected");
            assert_eq!(
                run.overhead.dropped_messages, run.overhead.retransmissions,
                "{ctx}: masked faults lose nothing"
            );
        }
    }
}

/// The §2 reduction **on every schedule**, not one sample per seed: the
/// interleaving explorer exhausts every delivery interleaving a delay
/// bound of 2 admits on a 3-node path — for flood and gossip, under
/// synchronizer α *and* `BatchedAlpha` — and checks every completed
/// schedule against the same flat-engine reference. Both synchronizers
/// reproducing one synchronous ground truth on **all** schedules is the
/// exhaustive form of `async_engine_matches_flat_on_gossip_and_flood`:
/// Alpha ≡ BatchedAlpha ≡ Flat over the whole schedule space, and the
/// state counts pin the exploration as deterministic.
#[test]
fn alpha_and_batched_alpha_match_flat_on_every_schedule() {
    use congest::Explore;

    #[derive(Clone, Debug, Hash)]
    struct XWord(u64);
    impl Message for XWord {
        fn bit_size(&self) -> usize {
            64
        }
    }

    #[derive(Clone, Debug, Hash)]
    struct XFlood {
        source: bool,
        heard_at: Option<u64>,
    }
    impl Protocol for XFlood {
        type Msg = XWord;
        type Output = Option<u64>;
        fn init(&mut self, ctx: &mut Context<'_, XWord>) {
            if self.source {
                self.heard_at = Some(0);
                ctx.broadcast(XWord(ctx.id()));
            }
        }
        fn step(&mut self, ctx: &mut Context<'_, XWord>, inbox: &[(Port, XWord)]) {
            if !inbox.is_empty() && self.heard_at.is_none() {
                self.heard_at = Some(ctx.round());
                ctx.broadcast(XWord(ctx.id()));
            }
        }
        fn is_idle(&self) -> bool {
            true
        }
        fn output(&self) -> Option<u64> {
            self.heard_at
        }
    }

    #[derive(Clone, Debug, Hash)]
    struct XGossip {
        best: u64,
    }
    impl Protocol for XGossip {
        type Msg = XWord;
        type Output = u64;
        fn init(&mut self, ctx: &mut Context<'_, XWord>) {
            use rand::Rng;
            self.best = ctx.rng().gen_range(0..1 << 48);
            let token = self.best;
            ctx.broadcast(XWord(token));
        }
        fn step(&mut self, ctx: &mut Context<'_, XWord>, inbox: &[(Port, XWord)]) {
            let mut improved = false;
            for &(_, XWord(w)) in inbox {
                if w > self.best {
                    self.best = w;
                    improved = true;
                }
            }
            if improved {
                let token = self.best;
                ctx.broadcast(XWord(token));
            }
        }
        fn is_idle(&self) -> bool {
            true
        }
        fn output(&self) -> u64 {
            self.best
        }
    }

    let g = path(3);
    for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
        // Flood needs two pulses to cross the path; gossip needs two for
        // the max to travel end to end. The explorer always holds every
        // completed schedule against the flat reference.
        let flood = Explore::on(&g)
            .seed(17)
            .bound(2)
            .budget(2)
            .sync(sync)
            .run_with(|e: &congest::Endpoint| XFlood { source: e.index == 0, heard_at: None });
        assert!(flood.is_clean(), "flood under {sync:?}: {:?}", flood.violations);
        assert!(flood.deduped > 0, "flood under {sync:?} must branch and reconverge");

        let gossip = Explore::on(&g)
            .seed(17)
            .bound(2)
            .budget(2)
            .sync(sync)
            .run_with(|_: &congest::Endpoint| XGossip { best: 0 });
        assert!(gossip.is_clean(), "gossip under {sync:?}: {:?}", gossip.violations);
        assert!(gossip.deduped > 0, "gossip under {sync:?} must branch and reconverge");
    }

    // Determinism pin: the exploration itself is reproducible — same
    // state graph, same walk, both synchronizers.
    for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
        let a = Explore::on(&g)
            .seed(17)
            .bound(2)
            .budget(2)
            .sync(sync)
            .run_with(|e: &congest::Endpoint| XFlood { source: e.index == 0, heard_at: None });
        let b = Explore::on(&g)
            .seed(17)
            .bound(2)
            .budget(2)
            .sync(sync)
            .run_with(|e: &congest::Endpoint| XFlood { source: e.index == 0, heard_at: None });
        assert_eq!(
            (a.states, a.schedules, a.deduped, a.max_depth),
            (b.states, b.schedules, b.deduped, b.max_depth),
            "exploration must be deterministic under {sync:?}"
        );
    }
}
