//! Broadcast records are invisible: a node whose ports are all empty
//! stores a `Context::broadcast` once and the engine expands it over the
//! node's ports, yet a run gives what one `send` per port gives —
//! outputs, full [`congest::Metrics`], termination and the traced
//! [`congest::RunProfile`]. On `Engine::Flat` that holds on one to three
//! shards, in CONGEST and LOCAL; on `Engine::Async` under both
//! synchronizers and two delay models, with lost, retransmitted, crashed
//! and retired payloads, where the full [`congest::SyncOverhead`] must
//! agree too.
//!
//! The protocol mixes broadcasts with everything that must write a
//! pending record out or keep a broadcast per port: a send after a
//! broadcast, a broadcast after a send, two broadcasts in one step,
//! trains on one port, and broadcasts from `init`, `step` and
//! `on_quiescent`.

use congest::{
    ChurnModel, ChurnPolicy, Context, DelayModel, Driver, Engine, FaultModel, Message, Metrics,
    Mode, PhasePlan, Port, Protocol, RunLimits, RunProfile, Session, SyncModel, SyncOverhead,
    Termination, TraceConfig,
};
use graphs::generators;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A message whose width depends on its value, so bit metering and the
/// widest-message meter see every copy.
#[derive(Clone, Debug)]
struct Token(u64);

impl Message for Token {
    fn bit_size(&self) -> usize {
        8 + (self.0 % 57) as usize
    }
}

/// Draws a send pattern from the node's RNG every step while it has
/// steps left, and opens two more bursts from `on_quiescent`. `fan_out`
/// picks how a copy for every neighbor is sent: one broadcast, or one
/// send per port; the RNG draws do not depend on it.
struct Caster {
    fan_out: bool,
    steps_left: u32,
    barriers: u32,
    acc: u64,
}

impl Caster {
    fn new(fan_out: bool) -> Self {
        Self { fan_out, steps_left: 4, barriers: 0, acc: 0 }
    }

    fn to_all(&self, ctx: &mut Context<'_, Token>, token: u64) {
        if self.fan_out {
            ctx.broadcast(Token(token));
        } else {
            for port in 0..ctx.degree() {
                ctx.send(port, Token(token));
            }
        }
    }

    /// One of six patterns, each with fresh tokens.
    fn act(&self, ctx: &mut Context<'_, Token>) {
        let degree = ctx.degree();
        let pattern = ctx.rng().gen_range(0..6);
        let token = ctx.rng().gen::<u64>();
        let port = if degree > 0 { ctx.rng().gen_range(0..degree) } else { 0 };
        match pattern {
            0 => self.to_all(ctx, token),
            1 if degree > 0 => {
                self.to_all(ctx, token);
                ctx.send(port, Token(!token));
            }
            2 if degree > 0 => {
                ctx.send(port, Token(!token));
                self.to_all(ctx, token);
            }
            3 => {
                self.to_all(ctx, token);
                self.to_all(ctx, token.rotate_left(9));
            }
            4 if degree > 0 => {
                for i in 0..3 {
                    ctx.send(port, Token(token.wrapping_add(i)));
                }
                self.to_all(ctx, token.rotate_left(17));
            }
            _ => {}
        }
    }
}

impl Protocol for Caster {
    type Msg = Token;
    type Output = u64;

    fn init(&mut self, ctx: &mut Context<'_, Token>) {
        let token = ctx.rng().gen::<u64>();
        self.to_all(ctx, token);
    }

    fn step(&mut self, ctx: &mut Context<'_, Token>, inbox: &[(Port, Token)]) {
        for (port, Token(t)) in inbox {
            self.acc = self.acc.rotate_left(5).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ t.wrapping_add(*port as u64)
                ^ ctx.round();
        }
        if self.steps_left > 0 {
            self.steps_left -= 1;
            self.act(ctx);
        }
    }

    fn is_idle(&self) -> bool {
        self.steps_left == 0
    }

    fn on_quiescent(&mut self, ctx: &mut Context<'_, Token>) -> bool {
        if self.barriers == 2 {
            return false;
        }
        self.barriers += 1;
        self.steps_left = 2;
        let token = ctx.rng().gen::<u64>();
        self.to_all(ctx, token);
        true
    }

    fn output(&self) -> u64 {
        self.acc
    }
}

/// One traced run: outputs, metrics, termination and profile.
fn run(
    g: &graphs::Graph,
    seed: u64,
    mode: Mode,
    shards: usize,
    fan_out: bool,
) -> (Vec<u64>, Metrics, Termination, RunProfile) {
    let mut driver = Session::on(g)
        .seed(seed)
        .mode(mode)
        .engine(Engine::Flat { shards })
        .limits(RunLimits::rounds(400))
        .trace(TraceConfig::default())
        .build_with(|_| Caster::new(fan_out));
    let report = driver.run();
    let profile = report.profile.expect("traced run");
    (driver.outputs(), report.metrics, report.termination, profile)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Records against per-port sends on random G(n, p), in both modes,
    /// on one to three shards; every run also equals the one-shard
    /// per-port run.
    #[test]
    fn records_give_the_run_per_port_sends_give(
        n in 2usize..40,
        density in 0.0f64..0.5,
        graph_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let g = generators::gnp(n, density, &mut StdRng::seed_from_u64(graph_seed));
        for mode in [Mode::Congest, Mode::Local] {
            let reference = run(&g, seed, mode, 1, false);
            prop_assert_eq!(reference.2, Termination::Quiescent, "{:?}: the run finishes", mode);
            prop_assert_eq!(reference.1.barriers, 2, "{:?}: both barriers resume", mode);
            for shards in 1..=3 {
                for fan_out in [true, false] {
                    let got = run(&g, seed, mode, shards, fan_out);
                    let how = if fan_out { "broadcast" } else { "per-port sends" };
                    prop_assert_eq!(&got.0, &reference.0, "{:?}, {} shards, {}: outputs", mode, shards, how);
                    prop_assert_eq!(&got.1, &reference.1, "{:?}, {} shards, {}: metrics", mode, shards, how);
                    prop_assert_eq!(got.2, reference.2, "{:?}, {} shards, {}: termination", mode, shards, how);
                    prop_assert_eq!(&got.3, &reference.3, "{:?}, {} shards, {}: profile", mode, shards, how);
                }
            }
        }
    }
}

/// One traced phased run on the asynchronous engine: outputs, metrics,
/// overhead, termination and profile. Three phases of 12 pulses let the
/// trains drain and take both resuming barriers.
fn run_async(
    g: &graphs::Graph,
    seed: u64,
    engine: Engine,
    fan_out: bool,
) -> (Vec<u64>, Metrics, SyncOverhead, Termination, RunProfile) {
    let plan = PhasePlan::new().phase("first", 12).phase("second", 12).phase("third", 12);
    let mut driver = Session::on(g)
        .seed(seed)
        .engine(engine)
        .limits(RunLimits::rounds(plan.total_pulses()))
        .trace(TraceConfig::default())
        .build_with(|_| Caster::new(fan_out));
    let report = driver.run_phased(&plan, &mut ());
    let profile = report.profile.expect("traced run");
    (driver.outputs(), report.metrics, report.overhead, report.termination, profile)
}

/// The asynchronous engines the records must be invisible on: both
/// synchronizers under two delay models, each on a perfect wire, with
/// lost and retransmitted sends, with two nodes crashing and recovering
/// four pulses later, and with two nodes leaving. The first crash and
/// leave come at pulse 13, the first after the first barrier, whose
/// `on_quiescent` broadcasts leave most nodes a pending record.
fn async_engines() -> Vec<Engine> {
    let faults = [
        FaultModel::None,
        FaultModel::Drop { p_millis: 150 },
        FaultModel::Crash { victims: 2, at_pulse: 13, recover_after: 4 },
    ];
    let leave =
        ChurnModel::Leave { leavers: 2, at_pulse: 13, spacing: 2, policy: ChurnPolicy::Continue };
    let delays = [DelayModel::Uniform { max_delay: 4 }, DelayModel::HeavyTailed { max_delay: 7 }];
    let mut engines = Vec::new();
    for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
        for delay in delays {
            for fault in faults {
                engines.push(Engine::Async { delay, sync, fault, churn: ChurnModel::None });
            }
            engines.push(Engine::Async { delay, sync, fault: FaultModel::None, churn: leave });
        }
    }
    engines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Records against per-port sends on the asynchronous engine, on
    /// random G(n, p): every configuration of [`async_engines`] gives the
    /// same run either way, its crash and leave included.
    #[test]
    fn async_records_give_the_run_per_port_sends_give(
        n in 2usize..30,
        density in 0.05f64..0.5,
        graph_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let g = generators::gnp(n, density, &mut StdRng::seed_from_u64(graph_seed));
        for engine in async_engines() {
            let per_port = run_async(&g, seed, engine, false);
            let broadcast = run_async(&g, seed, engine, true);
            prop_assert_eq!(&broadcast.0, &per_port.0, "{:?}: outputs", engine);
            prop_assert_eq!(&broadcast.1, &per_port.1, "{:?}: metrics", engine);
            prop_assert_eq!(&broadcast.2, &per_port.2, "{:?}: overhead", engine);
            prop_assert_eq!(broadcast.3, per_port.3, "{:?}: termination", engine);
            prop_assert_eq!(&broadcast.4, &per_port.4, "{:?}: profile", engine);
        }
    }
}
