//! The §2 asynchrony reduction, tested on real protocols of the paper:
//! the shingles algorithm runs unchanged over the asynchronous engine
//! under synchronizer α — selected purely by [`Engine::Async`] on the
//! unified [`Session`] surface — and produces the exact synchronous
//! outputs, with identical payload-side metrics; the staged
//! `DistNearClique` completes under α via a derived `PhasePlan` (§4.1).
//!
//! This suite also pins the scheduling subsystem's two compatibility
//! contracts: `DelayModel::Uniform` is bit-identical to the engine's
//! original fixed draw (golden ledger below), and the payload ledger is
//! invariant across all four delay models.

use baselines::shingles::{Shingles, ShinglesConfig};
use congest::{
    ChurnModel, Context, DelayModel, Engine, FaultModel, Message, Port, Protocol, RunLimits,
    Session, SyncModel, SyncOverhead,
};
use graphs::{generators, Graph, GraphBuilder};
use near_clique_suite::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn uniform(max_delay: u64) -> Engine {
    // The back-compat contracts below (golden ledger included) pin the
    // *reference* synchronizer; BatchedAlpha has its own grid +
    // property suites in `crates/core/tests/`. `FaultModel::None` is
    // the explicit fault-plane row of the golden ledger: a fault-free
    // engine must not perturb a single RNG draw (the None sampler
    // advances no stream), so the pre-fault-plane numbers — virtual
    // time included — must reproduce exactly.
    Engine::Async {
        delay: DelayModel::Uniform { max_delay },
        sync: SyncModel::Alpha,
        fault: FaultModel::None,
        churn: ChurnModel::None,
    }
}

#[test]
fn shingles_is_asynchrony_invariant() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let planted = generators::planted_clique(60, 20, 0.08, &mut rng);
    let config = ShinglesConfig { min_size: 3, min_density: 0.8 };

    for seed in 0..5u64 {
        let (sync_out, sync_report) = Session::on(&planted.graph)
            .seed(seed)
            .limits(RunLimits::rounds(8))
            .run_with(|_| Shingles::new(config));

        for max_delay in [1u64, 13, 64] {
            let (async_out, report) = Session::on(&planted.graph)
                .seed(seed)
                .engine(uniform(max_delay))
                .limits(RunLimits::rounds(8))
                .run_with(|_| Shingles::new(config));
            assert_eq!(
                async_out, sync_out,
                "seed {seed}, max_delay {max_delay}: asynchrony changed the output"
            );
            // The payload ledger is engine-independent ...
            assert_eq!(report.metrics.messages, sync_report.metrics.messages);
            assert_eq!(report.metrics.total_bits, sync_report.metrics.total_bits);
            // ... and the synchronizer pays on top: control dominates.
            assert!(report.overhead.control_messages >= report.metrics.messages);
        }
    }
}

#[test]
fn async_virtual_time_scales_with_delay() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let g = generators::gnp(40, 0.2, &mut rng);
    let config = ShinglesConfig::default();
    let run = |max_delay| {
        Session::on(&g)
            .seed(1)
            .engine(uniform(max_delay))
            .limits(RunLimits::rounds(8))
            .run_with(|_| Shingles::new(config))
            .1
            .overhead
            .virtual_time
    };
    let fast = run(1);
    let slow = run(32);
    assert!(slow > 2 * fast, "virtual time must grow with link delay: {fast} vs {slow}");
}

// ---------------------------------------------------------------------
// Back-compat and cross-model contracts of the scheduling subsystem.
// ---------------------------------------------------------------------

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

/// The five workload families of the equivalence suite (same generator
/// seeds as `crates/core/tests/engine_equivalence.rs`).
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

#[derive(Clone, Debug)]
struct Word(#[allow(dead_code)] u64);
impl Message for Word {
    fn bit_size(&self) -> usize {
        64
    }
}

/// Flood: the source announces; nodes record the round they first heard
/// it and forward once.
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

fn flood_factory(e: &congest::Endpoint) -> Flood {
    Flood { source: e.index == 0, heard_at: None }
}

fn output_hash(out: &[Option<u64>]) -> u64 {
    let mut h = 0u64;
    for o in out {
        h = h
            .rotate_left(9)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(o.map_or(u64::MAX, |r| r));
    }
    h
}

/// One frozen pre-subsystem ledger entry (captured from the engine at
/// the commit *before* `DelayModel` existed, seed 17, 24-pulse budget).
struct Golden {
    output_hash: u64,
    messages: u64,
    total_bits: u64,
    control_messages: u64,
    control_bits: u64,
    virtual_time: u64,
}

/// Back-compat regression: `DelayModel::Uniform { max_delay }` must be
/// **bit-identical** to the pre-subsystem fixed uniform draw — outputs,
/// payload ledger, and the full `SyncOverhead` (whose `virtual_time` is
/// the delay-stream-sensitive field) — at `max_delay ∈ {1, 7, 31}` on
/// all five workload families. The expected values are golden numbers
/// captured from the engine before the refactor.
#[test]
fn uniform_model_reproduces_the_pre_subsystem_ledger() {
    #[rustfmt::skip]
    let golden: Vec<(&str, u64, Golden)> = vec![
        ("planted", 1, Golden { output_hash: 0xb9bb94244a2cbd75, messages: 4150, total_bits: 265600, control_messages: 103750, control_bits: 4316000, virtual_time: 32 }),
        ("planted", 7, Golden { output_hash: 0xb9bb94244a2cbd75, messages: 4150, total_bits: 265600, control_messages: 103750, control_bits: 4316000, virtual_time: 218 }),
        ("planted", 31, Golden { output_hash: 0xb9bb94244a2cbd75, messages: 4150, total_bits: 265600, control_messages: 103750, control_bits: 4316000, virtual_time: 946 }),
        ("gnp", 1, Golden { output_hash: 0x681bdec981992878, messages: 1168, total_bits: 74752, control_messages: 29200, control_bits: 1214720, virtual_time: 34 }),
        ("gnp", 7, Golden { output_hash: 0x681bdec981992878, messages: 1168, total_bits: 74752, control_messages: 29200, control_bits: 1214720, virtual_time: 224 }),
        ("gnp", 31, Golden { output_hash: 0x681bdec981992878, messages: 1168, total_bits: 74752, control_messages: 29200, control_bits: 1214720, virtual_time: 956 }),
        ("star", 1, Golden { output_hash: 0x2804b3cb53d86027, messages: 158, total_bits: 10112, control_messages: 3950, control_bits: 164320, virtual_time: 28 }),
        ("star", 7, Golden { output_hash: 0x2804b3cb53d86027, messages: 158, total_bits: 10112, control_messages: 3950, control_bits: 164320, virtual_time: 191 }),
        ("star", 31, Golden { output_hash: 0x2804b3cb53d86027, messages: 158, total_bits: 10112, control_messages: 3950, control_bits: 164320, virtual_time: 809 }),
        ("path", 1, Golden { output_hash: 0x3331daedf613cc78, messages: 47, total_bits: 3008, control_messages: 3839, control_bits: 155440, virtual_time: 72 }),
        ("path", 7, Golden { output_hash: 0x3331daedf613cc78, messages: 47, total_bits: 3008, control_messages: 3839, control_bits: 155440, virtual_time: 322 }),
        ("path", 31, Golden { output_hash: 0x3331daedf613cc78, messages: 47, total_bits: 3008, control_messages: 3839, control_bits: 155440, virtual_time: 1296 }),
        ("counterexample", 1, Golden { output_hash: 0x4cafa969f6fab1d1, messages: 7140, total_bits: 456960, control_messages: 178500, control_bits: 7425600, virtual_time: 32 }),
        ("counterexample", 7, Golden { output_hash: 0x4cafa969f6fab1d1, messages: 7140, total_bits: 456960, control_messages: 178500, control_bits: 7425600, virtual_time: 223 }),
        ("counterexample", 31, Golden { output_hash: 0x4cafa969f6fab1d1, messages: 7140, total_bits: 456960, control_messages: 178500, control_bits: 7425600, virtual_time: 973 }),
    ];

    let graphs = workloads();
    for (name, max_delay, expect) in golden {
        let (_, g) = graphs.iter().find(|(n, _)| *n == name).expect("workload exists");
        let (out, report) = Session::on(g)
            .seed(17)
            .engine(uniform(max_delay))
            .limits(RunLimits::rounds(24))
            .run_with(flood_factory);
        assert_eq!(
            output_hash(&out),
            expect.output_hash,
            "{name}, max_delay {max_delay}: outputs changed vs the pre-subsystem engine"
        );
        assert_eq!(report.metrics.messages, expect.messages, "{name}, {max_delay}");
        assert_eq!(report.metrics.total_bits, expect.total_bits, "{name}, {max_delay}");
        assert_eq!(
            report.overhead.control_messages, expect.control_messages,
            "{name}, {max_delay}"
        );
        assert_eq!(report.overhead.control_bits, expect.control_bits, "{name}, {max_delay}");
        assert_eq!(
            report.overhead.virtual_time, expect.virtual_time,
            "{name}, max_delay {max_delay}: the uniform delay stream drifted"
        );
        // The `FaultModel::None` row of the ledger: a fault-free fault
        // plane drops nothing, retransmits nothing, loses nothing.
        assert_eq!(report.overhead.retransmissions, 0, "{name}, {max_delay}");
        assert_eq!(report.overhead.dropped_messages, 0, "{name}, {max_delay}");
    }
}

/// Chatter: every node broadcasts at init and then, on each pulse its
/// own coin comes up heads, broadcasts how many words it has heard — so
/// every pulse mixes broadcast records with idle ports.
struct Chatter {
    heard: u64,
}
impl Protocol for Chatter {
    type Msg = Word;
    type Output = Option<u64>;
    fn init(&mut self, ctx: &mut Context<'_, Word>) {
        ctx.broadcast(Word(ctx.id()));
    }
    fn step(&mut self, ctx: &mut Context<'_, Word>, inbox: &[(Port, Word)]) {
        self.heard += inbox.len() as u64;
        if ctx.rng().gen_bool(0.5) {
            ctx.broadcast(Word(self.heard));
        }
    }
    fn is_idle(&self) -> bool {
        true
    }
    fn output(&self) -> Option<u64> {
        Some(self.heard)
    }
}

/// One frozen ledger entry of a faulty or churned run: the output
/// hash, the payload ledger, the whole `SyncOverhead` and the
/// termination.
struct FaultyGolden {
    output_hash: u64,
    messages: u64,
    total_bits: u64,
    overhead: SyncOverhead,
    termination: Termination,
}

/// A golden row's fault and churn models.
type Faults = (FaultModel, ChurnModel);

/// Shorthand for a golden `SyncOverhead`, fields in declaration order.
#[allow(clippy::too_many_arguments)]
fn overhead(
    control_messages: u64,
    control_bits: u64,
    virtual_time: u64,
    retransmissions: u64,
    dropped_messages: u64,
    epochs: u64,
    joins: u64,
    leaves: u64,
    retired_messages: u64,
) -> SyncOverhead {
    SyncOverhead {
        control_messages,
        control_bits,
        virtual_time,
        retransmissions,
        dropped_messages,
        epochs,
        joins,
        leaves,
        retired_messages,
    }
}

/// Trains: at init and on every pulse, a node's coin picks one of three
/// things: broadcast what it has heard, queue a train of one to three
/// words on each of a random third of its ports, or stay quiet. So
/// per-port queues, some several messages deep, sit beside broadcast
/// records, and under churn and crashes both kinds of send meet absent
/// and crashed peers.
struct Trains {
    heard: u64,
}
impl Trains {
    fn speak(&self, ctx: &mut Context<'_, Word>) {
        match ctx.rng().gen_range(0..3) {
            0 => ctx.broadcast(Word(self.heard)),
            1 => {
                for port in 0..ctx.degree() {
                    if ctx.rng().gen_range(0..3) == 0 {
                        for car in 0..ctx.rng().gen_range(1..=3) {
                            ctx.send(port, Word(self.heard + car));
                        }
                    }
                }
            }
            _ => {}
        }
    }
}
impl Protocol for Trains {
    type Msg = Word;
    type Output = Option<u64>;
    fn init(&mut self, ctx: &mut Context<'_, Word>) {
        self.speak(ctx);
    }
    fn step(&mut self, ctx: &mut Context<'_, Word>, inbox: &[(Port, Word)]) {
        for (port, Word(w)) in inbox {
            self.heard = self.heard.wrapping_mul(31).wrapping_add(w ^ *port as u64);
        }
        self.speak(ctx);
    }
    fn is_idle(&self) -> bool {
        true
    }
    fn output(&self) -> Option<u64> {
        Some(self.heard)
    }
}

/// The ledger beyond the perfect wire: both synchronizers under message
/// loss, link flaps whose retransmissions land inside the delay horizon,
/// crashes with recovery, and mixed churn, on two workload families
/// under two protocols: a one-shot flood, and chatter that keeps payload
/// broadcasts and idle ports side by side on every pulse (seed 17,
/// `Uniform { max_delay: 7 }`, 24-pulse budget). The expected
/// values were captured from the engine that sent every broadcast copy
/// as its own wheel event; a broadcast sent as delay runs must reproduce
/// them bit for bit — the order of a lost copy's retransmission timer
/// within its bucket and the ready cascade between a run's copies both
/// show in `virtual_time`.
///
/// The trains rows add a third protocol with per-port sends,
/// [`Trains`], under mixed churn with either handoff policy, a crash
/// with recovery, and message loss.
/// A leave retires what the leaver queued; a payload queued toward an
/// absent peer is retired when its port's turn comes, and a record's
/// copy toward one as the record is sent. Those values were captured
/// from the engine that kept a liveness flag per directed port beside
/// the per-node presence flags.
#[test]
fn faulty_and_churned_runs_reproduce_the_per_event_ledger() {
    let drop = (FaultModel::Drop { p_millis: 100 }, ChurnModel::None);
    let flap = (FaultModel::LinkFlap { down_len: 3, up_len: 9 }, ChurnModel::None);
    let crash = (FaultModel::Crash { victims: 3, at_pulse: 4, recover_after: 5 }, ChurnModel::None);
    let mixed = (
        FaultModel::None,
        ChurnModel::Mixed {
            joiners: 3,
            leavers: 3,
            at_pulse: 2,
            spacing: 2,
            policy: congest::ChurnPolicy::Continue,
        },
    );
    let mixed4 =
        |policy| ChurnModel::Mixed { joiners: 4, leavers: 4, at_pulse: 2, spacing: 2, policy };
    let continue_ = (FaultModel::None, mixed4(congest::ChurnPolicy::Continue));
    let restart = (FaultModel::None, mixed4(congest::ChurnPolicy::Restart));
    let (alpha, batched) = (SyncModel::Alpha, SyncModel::BatchedAlpha);
    #[rustfmt::skip]
    let golden: Vec<(&str, &str, SyncModel, Faults, FaultyGolden)> = vec![
        ("planted", "flood", alpha, drop, FaultyGolden { output_hash: 0xb9bb94244a2cbd75, messages: 4150, total_bits: 265600, overhead: overhead(103750, 4316000, 979, 12064, 12064, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("planted", "flood", alpha, flap, FaultyGolden { output_hash: 0xb9bb94244a2cbd75, messages: 4150, total_bits: 265600, overhead: overhead(103750, 4316000, 279, 27014, 27014, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("planted", "flood", alpha, crash, FaultyGolden { output_hash: 0xb9bb94244a2cbd75, messages: 4150, total_bits: 265600, overhead: overhead(103750, 4316000, 218, 0, 0, 0, 0, 0, 0), termination: Termination::Degraded { lost: 0 } }),
        ("planted", "flood", alpha, mixed, FaultyGolden { output_hash: 0xd248ccadb250d28a, messages: 3912, total_bits: 250368, overhead: overhead(103512, 4296960, 216, 0, 0, 6, 3, 3, 118), termination: Termination::RoundLimit }),
        ("planted", "flood", batched, drop, FaultyGolden { output_hash: 0xb9bb94244a2cbd75, messages: 4150, total_bits: 265600, overhead: overhead(3197, 293880, 68, 441, 441, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("planted", "flood", batched, flap, FaultyGolden { output_hash: 0xb9bb94244a2cbd75, messages: 4150, total_bits: 265600, overhead: overhead(3197, 293880, 34, 1057, 1057, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("planted", "flood", batched, crash, FaultyGolden { output_hash: 0xb9bb94244a2cbd75, messages: 4150, total_bits: 265600, overhead: overhead(3197, 293880, 26, 0, 0, 0, 0, 0, 0), termination: Termination::Degraded { lost: 0 } }),
        ("planted", "flood", batched, mixed, FaultyGolden { output_hash: 0xeb892eca6f647aa, messages: 3973, total_bits: 254272, overhead: overhead(3260, 289320, 28, 0, 0, 6, 3, 3, 118), termination: Termination::RoundLimit }),
        ("gnp", "flood", alpha, drop, FaultyGolden { output_hash: 0x681bdec981992878, messages: 1168, total_bits: 74752, overhead: overhead(29200, 1214720, 741, 3356, 3356, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("gnp", "flood", alpha, flap, FaultyGolden { output_hash: 0x681bdec981992878, messages: 1168, total_bits: 74752, overhead: overhead(29200, 1214720, 268, 7503, 7503, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("gnp", "flood", alpha, crash, FaultyGolden { output_hash: 0x681bdec981992878, messages: 1152, total_bits: 73728, overhead: overhead(29191, 1213720, 229, 0, 16, 0, 0, 0, 0), termination: Termination::Degraded { lost: 16 } }),
        ("gnp", "flood", alpha, mixed, FaultyGolden { output_hash: 0x69cc0aa8e8be1257, messages: 1141, total_bits: 73024, overhead: overhead(29173, 1212560, 225, 0, 0, 6, 3, 3, 18), termination: Termination::RoundLimit }),
        ("gnp", "flood", batched, drop, FaultyGolden { output_hash: 0x681bdec981992878, messages: 1168, total_bits: 74752, overhead: overhead(2760, 157120, 98, 138, 138, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("gnp", "flood", batched, flap, FaultyGolden { output_hash: 0x681bdec981992878, messages: 1168, total_bits: 74752, overhead: overhead(2760, 157120, 32, 278, 278, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("gnp", "flood", batched, crash, FaultyGolden { output_hash: 0x681bdec981992878, messages: 1152, total_bits: 73728, overhead: overhead(2761, 156520, 31, 0, 16, 0, 0, 0, 0), termination: Termination::Degraded { lost: 16 } }),
        ("gnp", "flood", batched, mixed, FaultyGolden { output_hash: 0x69cc0aa8e8be1257, messages: 1144, total_bits: 73216, overhead: overhead(2776, 156800, 31, 0, 0, 6, 3, 3, 15), termination: Termination::RoundLimit }),
        ("planted", "chatter", alpha, drop, FaultyGolden { output_hash: 0xd7f6a770557c4d82, messages: 50034, total_bits: 3202176, overhead: overhead(149634, 7986720, 1920, 22371, 22371, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("planted", "chatter", alpha, flap, FaultyGolden { output_hash: 0xd7f6a770557c4d82, messages: 50034, total_bits: 3202176, overhead: overhead(149634, 7986720, 643, 49890, 49890, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("planted", "chatter", alpha, crash, FaultyGolden { output_hash: 0x5f07e74dd7b050b5, messages: 49142, total_bits: 3145088, overhead: overhead(149099, 7929640, 504, 0, 415, 0, 0, 0, 0), termination: Termination::Degraded { lost: 415 } }),
        ("planted", "chatter", alpha, mixed, FaultyGolden { output_hash: 0x40febfebd57d8372, messages: 48282, total_bits: 3090048, overhead: overhead(147900, 7847280, 504, 0, 0, 6, 3, 3, 787), termination: Termination::RoundLimit }),
        ("planted", "chatter", batched, drop, FaultyGolden { output_hash: 0xd7f6a770557c4d82, messages: 50034, total_bits: 3202176, overhead: overhead(1631, 2066600, 766, 5582, 5582, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("planted", "chatter", batched, flap, FaultyGolden { output_hash: 0xd7f6a770557c4d82, messages: 50034, total_bits: 3202176, overhead: overhead(1631, 2066600, 230, 12451, 12451, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("planted", "chatter", batched, crash, FaultyGolden { output_hash: 0x5f07e74dd7b050b5, messages: 49142, total_bits: 3145088, overhead: overhead(1640, 2031280, 168, 0, 415, 0, 0, 0, 0), termination: Termination::Degraded { lost: 415 } }),
        ("planted", "chatter", batched, mixed, FaultyGolden { output_hash: 0xb4f9c6a305e64bd4, messages: 48312, total_bits: 3091968, overhead: overhead(2249, 2022440, 168, 0, 0, 6, 3, 3, 757), termination: Termination::RoundLimit }),
        ("gnp", "chatter", alpha, drop, FaultyGolden { output_hash: 0xc3d24efcd92f0f65, messages: 14240, total_bits: 911360, overhead: overhead(42272, 2260480, 1350, 6255, 6255, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("gnp", "chatter", alpha, flap, FaultyGolden { output_hash: 0xc3d24efcd92f0f65, messages: 14240, total_bits: 911360, overhead: overhead(42272, 2260480, 555, 14017, 14017, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("gnp", "chatter", alpha, crash, FaultyGolden { output_hash: 0x6846729aba1ad4d, messages: 14135, total_bits: 904640, overhead: overhead(42230, 2254600, 479, 0, 74, 0, 0, 0, 0), termination: Termination::Degraded { lost: 74 } }),
        ("gnp", "chatter", alpha, mixed, FaultyGolden { output_hash: 0x18d64b5546e5c4f2, messages: 13749, total_bits: 879936, overhead: overhead(41792, 2221640, 483, 0, 0, 6, 3, 3, 308), termination: Termination::RoundLimit }),
        ("gnp", "chatter", batched, drop, FaultyGolden { output_hash: 0xc3d24efcd92f0f65, messages: 14240, total_bits: 911360, overhead: overhead(1415, 626200, 502, 1513, 1513, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("gnp", "chatter", batched, flap, FaultyGolden { output_hash: 0xc3d24efcd92f0f65, messages: 14240, total_bits: 911360, overhead: overhead(1415, 626200, 198, 3532, 3532, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("gnp", "chatter", batched, crash, FaultyGolden { output_hash: 0x6846729aba1ad4d, messages: 14135, total_bits: 904640, overhead: overhead(1419, 622160, 166, 0, 74, 0, 0, 0, 0), termination: Termination::Degraded { lost: 74 } }),
        ("gnp", "chatter", batched, mixed, FaultyGolden { output_hash: 0xc059acaa0199f463, messages: 13751, total_bits: 880064, overhead: overhead(1712, 618520, 164, 0, 0, 6, 3, 3, 306), termination: Termination::RoundLimit }),
        ("planted", "trains", alpha, continue_, FaultyGolden { output_hash: 0xe89e2c9e8a3e3a36, messages: 53040, total_bits: 3394560, overhead: overhead(152652, 8227680, 504, 0, 0, 8, 4, 4, 1299), termination: Termination::RoundLimit }),
        ("planted", "trains", alpha, restart, FaultyGolden { output_hash: 0x689bd547a9c6defe, messages: 69541, total_bits: 4450624, overhead: overhead(169157, 9547920, 504, 0, 0, 8, 4, 4, 1816), termination: Termination::RoundLimit }),
        ("planted", "trains", alpha, crash, FaultyGolden { output_hash: 0xbc0cb698bda43080, messages: 54028, total_bits: 3457792, overhead: overhead(154087, 8324600, 504, 0, 666, 0, 0, 0, 0), termination: Termination::Degraded { lost: 666 } }),
        ("planted", "trains", alpha, drop, FaultyGolden { output_hash: 0xa53a435c9d6479a3, messages: 55252, total_bits: 3536128, overhead: overhead(154852, 8404160, 1893, 23444, 23444, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("planted", "trains", batched, continue_, FaultyGolden { output_hash: 0xf97d49995d076f37, messages: 53058, total_bits: 3395712, overhead: overhead(2596, 2226160, 168, 0, 0, 8, 4, 4, 1281), termination: Termination::RoundLimit }),
        ("planted", "trains", batched, restart, FaultyGolden { output_hash: 0x955d16dc20f0c61d, messages: 69565, total_bits: 4452160, overhead: overhead(2294, 2874360, 168, 0, 0, 8, 4, 4, 1793), termination: Termination::RoundLimit }),
        ("planted", "trains", batched, crash, FaultyGolden { output_hash: 0xbc0cb698bda43080, messages: 54028, total_bits: 3457792, overhead: overhead(2194, 2248880, 168, 0, 666, 0, 0, 0, 0), termination: Termination::Degraded { lost: 666 } }),
        ("planted", "trains", batched, drop, FaultyGolden { output_hash: 0xa53a435c9d6479a3, messages: 55252, total_bits: 3536128, overhead: overhead(2188, 2297600, 823, 6122, 6122, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("gnp", "trains", alpha, continue_, FaultyGolden { output_hash: 0xb20166d0836b06ec, messages: 14581, total_bits: 933184, overhead: overhead(42629, 2288400, 485, 0, 0, 8, 4, 4, 425), termination: Termination::RoundLimit }),
        ("gnp", "trains", alpha, restart, FaultyGolden { output_hash: 0x5452408715c1a87, messages: 19215, total_bits: 1229760, overhead: overhead(47268, 2659320, 487, 0, 0, 8, 4, 4, 557), termination: Termination::RoundLimit }),
        ("gnp", "trains", alpha, crash, FaultyGolden { output_hash: 0x30ec9f8a1f19ff38, messages: 15151, total_bits: 969664, overhead: overhead(43238, 2335560, 483, 0, 85, 0, 0, 0, 0), termination: Termination::Degraded { lost: 85 } }),
        ("gnp", "trains", alpha, drop, FaultyGolden { output_hash: 0x3dfcf00a5460c2ac, messages: 15332, total_bits: 981248, overhead: overhead(43364, 2347840, 1405, 6495, 6495, 0, 0, 0, 0), termination: Termination::RoundLimit }),
        ("gnp", "trains", batched, continue_, FaultyGolden { output_hash: 0x258e3cca02dc2616, messages: 14603, total_bits: 934592, overhead: overhead(2120, 668920, 166, 0, 0, 8, 4, 4, 403), termination: Termination::RoundLimit }),
        ("gnp", "trains", batched, restart, FaultyGolden { output_hash: 0x421409b8d3a1613b, messages: 19246, total_bits: 1231744, overhead: overhead(1830, 843040, 168, 0, 0, 8, 4, 4, 542), termination: Termination::RoundLimit }),
        ("gnp", "trains", batched, crash, FaultyGolden { output_hash: 0x30ec9f8a1f19ff38, messages: 15151, total_bits: 969664, overhead: overhead(1904, 682200, 166, 0, 85, 0, 0, 0, 0), termination: Termination::Degraded { lost: 85 } }),
        ("gnp", "trains", batched, drop, FaultyGolden { output_hash: 0x3dfcf00a5460c2ac, messages: 15332, total_bits: 981248, overhead: overhead(1895, 689080, 545, 1641, 1641, 0, 0, 0, 0), termination: Termination::RoundLimit }),
    ];

    let graphs = workloads();
    for (name, protocol, sync, (fault, churn), expect) in golden {
        let (_, g) = graphs.iter().find(|(n, _)| *n == name).expect("workload exists");
        let session = Session::on(g)
            .seed(17)
            .engine(Engine::Async {
                delay: DelayModel::Uniform { max_delay: 7 },
                sync,
                fault,
                churn,
            })
            .limits(RunLimits::rounds(24));
        let (out, report) = match protocol {
            "flood" => session.run_with(flood_factory),
            "chatter" => session.run_with(|_| Chatter { heard: 0 }),
            _ => session.run_with(|_| Trains { heard: 0 }),
        };
        let row = format!("{name}, {protocol}, {sync:?}, {fault:?}, {churn:?}");
        assert_eq!(output_hash(&out), expect.output_hash, "{row}: outputs changed");
        assert_eq!(report.metrics.messages, expect.messages, "{row}");
        assert_eq!(report.metrics.total_bits, expect.total_bits, "{row}");
        assert_eq!(report.overhead, expect.overhead, "{row}");
        assert_eq!(report.termination, expect.termination, "{row}");
    }
}

/// Cross-model invariance: for the same seed and budget, the payload
/// `Metrics` of a flood run are identical across all four `DelayModel`s
/// **and both `SyncModel`s** — scheduling reorders *delivery*, never
/// what the protocol pays — while virtual time (the one timing-sensitive
/// observable) does vary across delay models.
#[test]
fn payload_ledger_is_invariant_across_delay_models() {
    for (name, g) in workloads() {
        let mut ledgers = Vec::new();
        let mut virtual_times = Vec::new();
        for delay in [
            DelayModel::Uniform { max_delay: 6 },
            DelayModel::PerLink { max_delay: 6 },
            DelayModel::HeavyTailed { max_delay: 6 },
            DelayModel::Adversarial { max_delay: 6 },
        ] {
            for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
                let (out, report) = Session::on(&g)
                    .seed(23)
                    .engine(Engine::Async {
                        delay,
                        sync,
                        fault: FaultModel::None,
                        churn: ChurnModel::None,
                    })
                    .limits(RunLimits::rounds(24))
                    .run_with(flood_factory);
                ledgers.push((out, report.metrics.clone()));
                virtual_times.push(report.overhead.virtual_time);
            }
        }
        for pair in ledgers.windows(2) {
            assert_eq!(pair[0], pair[1], "{name}: outputs or payload ledger vary across models");
        }
        // The models genuinely schedule differently (star/path included:
        // adversarial fixes half the ports at the bound).
        virtual_times.dedup();
        assert!(virtual_times.len() > 1, "{name}: all models produced identical virtual time");
    }
}

/// End-to-end: the paper's own staged protocol under both
/// synchronizers, through the public `run_near_clique_with` entry point
/// (the plan is derived internally per §4.1), equals the default
/// flat-engine run — and the batched control plane undercuts α's.
#[test]
fn dist_near_clique_completes_under_alpha_via_run_options() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let planted = generators::planted_near_clique(120, 50, 0.015, 0.03, &mut rng);
    let params = NearCliqueParams::for_expected_sample(0.25, 6.0, 120).unwrap();

    let sync = run_near_clique(&planted.graph, &params, 13);
    let mut control = Vec::new();
    for model in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
        let alpha = run_near_clique_with(
            &planted.graph,
            &params,
            13,
            RunOptions::with_engine(Engine::Async {
                delay: DelayModel::Adversarial { max_delay: 9 },
                sync: model,
                fault: FaultModel::None,
                churn: ChurnModel::None,
            }),
        );
        assert_eq!(alpha.termination, Termination::Quiescent, "{model:?}");
        assert_eq!(alpha.labels, sync.labels, "{model:?}");
        assert_eq!(alpha.metrics, sync.metrics, "{model:?}");
        assert_eq!(alpha.phase_trace, sync.phase_trace, "{model:?}");
        control.push(alpha.overhead.control_messages);
    }
    assert!(
        control[1] * 2 <= control[0],
        "batched Safe waves must at least halve α's control traffic: {control:?}"
    );
}
