//! Engine-level contract of the membership churn plane
//! (`sched::churn`): joins and leaves open epochs, peers observe
//! [`Protocol::on_join`] / [`Protocol::on_leave`], in-flight payloads of
//! a leaver are retired and itemized in the trace sink (never silently
//! dropped),
//! survivors re-converge across epochs, [`ChurnPolicy::Restart`]
//! visibly diverges from [`ChurnPolicy::Continue`] — and every
//! membership schedule replays **bit for bit** from
//! `(seed, ChurnModel)` alone. (The fixed-membership identity — a
//! `ChurnModel::None` run is bit-identical to the pre-churn engine —
//! is pinned by the golden ledger in `tests/asynchrony.rs`.)

use std::collections::BTreeSet;

use congest::{
    ChurnModel, ChurnPolicy, Context, DelayModel, Driver, Engine, FaultModel, Message, Port,
    Protocol, RunLimits, RunReport, Session, SyncModel, Termination, TraceConfig, TraceEvent,
    TraceRecord,
};
use graphs::{Graph, GraphBuilder};

#[derive(Clone, Debug)]
struct Word(u64);
impl Message for Word {
    fn bit_size(&self) -> usize {
        64
    }
}

/// Census gossip that *keeps talking*: every pulse, every member
/// re-broadcasts the largest ID it has seen — so late joiners catch up
/// and survivors re-converge after a leave — while recording every
/// membership hook and every `init` call (the Restart-policy witness).
struct Census {
    best: u64,
    joins: usize,
    leaves: usize,
    inits: u32,
}

impl Protocol for Census {
    type Msg = Word;
    type Output = (u64, usize, usize, u32);

    fn init(&mut self, ctx: &mut Context<'_, Word>) {
        self.inits += 1;
        self.best = self.best.max(ctx.id());
        ctx.broadcast(Word(self.best));
    }

    fn step(&mut self, ctx: &mut Context<'_, Word>, inbox: &[(Port, Word)]) {
        for &(_, Word(w)) in inbox {
            self.best = self.best.max(w);
        }
        let token = self.best;
        ctx.broadcast(Word(token));
    }

    fn is_idle(&self) -> bool {
        true
    }

    fn on_join(&mut self, _ctx: &mut Context<'_, Word>, _port: Port) {
        self.joins += 1;
    }

    fn on_leave(&mut self, _ctx: &mut Context<'_, Word>, _port: Port) {
        self.leaves += 1;
    }

    fn output(&self) -> (u64, usize, usize, u32) {
        (self.best, self.joins, self.leaves, self.inits)
    }
}

fn clique(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    b.add_clique(&(0..n).collect::<Vec<_>>());
    b.build()
}

/// A node's Census output: `(best id, on_join count, on_leave count, inits)`.
type CensusOutput = (u64, usize, usize, u32);

/// One churned, traced Census run: outputs, report and the churn records
/// the trace sink kept — all of them, since its ring dropped none.
fn run(churn: ChurnModel, seed: u64) -> (Vec<CensusOutput>, RunReport, Vec<TraceRecord>) {
    let g = clique(10);
    let mut driver = Session::on(&g)
        .seed(seed)
        .engine(Engine::Async {
            delay: DelayModel::PerLink { max_delay: 3 },
            sync: SyncModel::Alpha,
            fault: congest::FaultModel::None,
            churn,
        })
        .limits(RunLimits::rounds(30))
        .trace(TraceConfig::default())
        .build_with(|_| Census { best: 0, joins: 0, leaves: 0, inits: 0 });
    let report = driver.drive(RunLimits::rounds(30), &mut ());
    let profile = report.profile.as_ref().expect("traced runs attach a profile");
    assert_eq!(profile.dropped, 0, "{churn:?}: the ring must keep every record");
    let mut events = Vec::new();
    driver.trace_sink().expect("recorder installed").for_each(|r| {
        if matches!(
            r.ev,
            TraceEvent::Join { .. } | TraceEvent::Leave { .. } | TraceEvent::Retired { .. }
        ) {
            events.push(*r);
        }
    });
    (driver.outputs(), report, events)
}

fn joiners_of(events: &[TraceRecord]) -> BTreeSet<u32> {
    events
        .iter()
        .filter_map(|r| match r.ev {
            TraceEvent::Join { node, .. } => Some(node),
            _ => None,
        })
        .collect()
}

fn leavers_of(events: &[TraceRecord]) -> BTreeSet<u32> {
    events
        .iter()
        .filter_map(|r| match r.ev {
            TraceEvent::Leave { node, .. } => Some(node),
            _ => None,
        })
        .collect()
}

fn retired_of(events: &[TraceRecord]) -> usize {
    events.iter().filter(|r| matches!(r.ev, TraceEvent::Retired { .. })).count()
}

/// The per-epoch timeline the sink recorded: `(epoch, pulse, members)`
/// for each join or leave, in occurrence order.
fn timeline_of(events: &[TraceRecord]) -> Vec<(u64, u64, u32)> {
    events
        .iter()
        .filter_map(|r| match r.ev {
            TraceEvent::Join { pulse, epoch, members, .. }
            | TraceEvent::Leave { pulse, epoch, members, .. } => Some((epoch, pulse, members)),
            _ => None,
        })
        .collect()
}

/// Shared epoch-ledger sanity: the recorded per-epoch timeline agrees
/// with the scalar overhead counters and is ordered.
fn check_epoch_ledger(report: &RunReport, events: &[TraceRecord], ctx: &str) {
    let timeline = timeline_of(events);
    assert_eq!(
        timeline.len() as u64,
        report.overhead.epochs,
        "{ctx}: timeline length must equal the epoch counter"
    );
    assert_eq!(
        report.overhead.epochs,
        report.overhead.joins + report.overhead.leaves,
        "{ctx}: every epoch is opened by exactly one join or leave"
    );
    for (i, &(epoch, pulse, _)) in timeline.iter().enumerate() {
        assert_eq!(epoch, i as u64 + 1, "{ctx}: epochs are numbered 1..=k in order");
        if i > 0 {
            assert!(pulse >= timeline[i - 1].1, "{ctx}: epoch pulses must be nondecreasing");
        }
    }
}

/// The replayability half of the contract: outputs, the churn log, the
/// payload ledger, the overhead counters and the epoch timeline are a
/// pure function of `(seed, ChurnModel)`.
#[test]
fn churn_schedules_replay_from_seed_and_model_alone() {
    for churn in [
        ChurnModel::Join { joiners: 3, at_pulse: 4, spacing: 2, policy: ChurnPolicy::Continue },
        ChurnModel::Leave { leavers: 3, at_pulse: 6, spacing: 2, policy: ChurnPolicy::Continue },
        ChurnModel::Mixed {
            joiners: 2,
            leavers: 2,
            at_pulse: 5,
            spacing: 3,
            policy: ChurnPolicy::Restart,
        },
    ] {
        let (out_a, report_a, events_a) = run(churn, 33);
        let (out_b, report_b, events_b) = run(churn, 33);
        assert_eq!(out_a, out_b, "seed 33, {churn:?}: outputs must replay");
        assert_eq!(events_a, events_b, "seed 33, {churn:?}: churn log must replay");
        assert_eq!(report_a.metrics, report_b.metrics, "seed 33, {churn:?}: metrics must replay");
        assert_eq!(
            report_a.overhead, report_b.overhead,
            "seed 33, {churn:?}: overhead must replay"
        );
        assert_eq!(
            timeline_of(&events_a),
            timeline_of(&events_b),
            "seed 33, {churn:?}: timeline must replay"
        );
        assert!(!events_a.is_empty(), "seed 33, {churn:?}: the schedule must produce churn");
    }
}

/// Staggered joins: every join opens an epoch, the member count grows
/// monotonically to `n`, initially-present peers observe every
/// `on_join`, and the late joiners catch up — the whole final member
/// set converges on one census value.
#[test]
fn staggered_joins_open_epochs_and_joiners_converge() {
    let churn =
        ChurnModel::Join { joiners: 3, at_pulse: 4, spacing: 2, policy: ChurnPolicy::Continue };
    let (outputs, report, events) = run(churn, 33);
    let ctx = format!("seed 33, {churn:?}");

    check_epoch_ledger(&report, &events, &ctx);
    let timeline = timeline_of(&events);
    assert_eq!(report.overhead.joins, 3, "{ctx}");
    assert_eq!(report.overhead.leaves, 0, "{ctx}");
    assert_eq!(report.overhead.epochs, 3, "{ctx}: each join opens an epoch");
    assert!(
        timeline.windows(2).all(|w| w[0].2 < w[1].2),
        "{ctx}: joins grow the member set monotonically"
    );
    assert_eq!(
        timeline.last().map(|&(.., members)| members),
        Some(10),
        "{ctx}: after the last join everyone is a member"
    );
    assert!(
        !matches!(report.termination, Termination::Degraded { .. }),
        "{ctx}: churn is graceful reconfiguration, never degradation, got {:?}",
        report.termination
    );

    let joiners = joiners_of(&events);
    assert_eq!(joiners.len(), 3, "{ctx}: three distinct seeded joiners");
    let best: BTreeSet<u64> = outputs.iter().map(|&(best, ..)| best).collect();
    assert_eq!(best.len(), 1, "{ctx}: joiners must catch up to one census value, got {best:?}");
    for (v, &(_, joins, leaves, inits)) in outputs.iter().enumerate() {
        assert_eq!(leaves, 0, "{ctx}: nobody left");
        assert_eq!(inits, 1, "{ctx}: under Continue every node initializes exactly once");
        if !joiners.contains(&(v as u32)) {
            assert_eq!(joins, 3, "{ctx}: node {v} must observe every join on its ports");
        }
    }
}

/// Graceful leaves: every leave opens an epoch, each leaver's queued and
/// in-flight payloads are retired and **itemized** — the overhead
/// counter equals the recorded `Retired` event count exactly — peers
/// observe every `on_leave`, and the survivors re-converge.
#[test]
fn graceful_leaves_retire_itemized_and_survivors_reconverge() {
    let churn =
        ChurnModel::Leave { leavers: 3, at_pulse: 6, spacing: 2, policy: ChurnPolicy::Continue };
    let (outputs, report, events) = run(churn, 33);
    let ctx = format!("seed 33, {churn:?}");

    check_epoch_ledger(&report, &events, &ctx);
    assert_eq!(report.overhead.leaves, 3, "{ctx}");
    assert_eq!(report.overhead.joins, 0, "{ctx}");
    assert_eq!(
        timeline_of(&events).last().map(|&(.., members)| members),
        Some(7),
        "{ctx}: three leavers gone from a 10-clique"
    );

    // Honest accounting: a member that leaves mid-gossip strands
    // payloads, and every single one is itemized in the trace sink.
    assert!(report.overhead.retired_messages > 0, "{ctx}: a leaving gossiper strands payloads");
    assert_eq!(
        retired_of(&events) as u64,
        report.overhead.retired_messages,
        "{ctx}: one Retired event per retired payload — nothing is dropped silently"
    );
    assert!(
        !matches!(report.termination, Termination::Degraded { .. }),
        "{ctx}: retirement is not loss — a churned run never degrades, got {:?}",
        report.termination
    );

    let leavers = leavers_of(&events);
    assert_eq!(leavers.len(), 3, "{ctx}: three distinct seeded leavers");
    let survivor_best: BTreeSet<u64> = outputs
        .iter()
        .enumerate()
        .filter(|(v, _)| !leavers.contains(&(*v as u32)))
        .map(|(v, &(best, joins, leaves, _))| {
            assert_eq!(joins, 0, "{ctx}: nobody joined");
            assert_eq!(leaves, 3, "{ctx}: survivor {v} must observe every leave on its ports");
            best
        })
        .collect();
    assert_eq!(
        survivor_best.len(),
        1,
        "{ctx}: survivors must re-converge to one census value, got {survivor_best:?}"
    );
}

/// The handoff policies visibly diverge on the same `(seed, model)`
/// schedule: under [`ChurnPolicy::Continue`] every node initializes
/// exactly once and carries its state across epochs; under
/// [`ChurnPolicy::Restart`] every epoch boundary re-runs `init` on the
/// surviving members.
#[test]
fn restart_policy_diverges_from_continue() {
    let continue_model = ChurnModel::Mixed {
        joiners: 2,
        leavers: 2,
        at_pulse: 5,
        spacing: 3,
        policy: ChurnPolicy::Continue,
    };
    let restart_model = ChurnModel::Mixed {
        joiners: 2,
        leavers: 2,
        at_pulse: 5,
        spacing: 3,
        policy: ChurnPolicy::Restart,
    };
    let (out_continue, rep_continue, ev_continue) = run(continue_model, 33);
    let (out_restart, rep_restart, ev_restart) = run(restart_model, 33);

    // Same seed, same joiner/leaver schedule: the policy changes *what
    // protocols do* at the boundary, not *which* boundaries occur.
    assert_eq!(
        joiners_of(&ev_continue),
        joiners_of(&ev_restart),
        "policy must not perturb the seeded membership schedule"
    );
    assert_eq!(leavers_of(&ev_continue), leavers_of(&ev_restart));
    assert_eq!(rep_continue.overhead.epochs, 4);
    assert_eq!(rep_restart.overhead.epochs, 4);
    check_epoch_ledger(&rep_continue, &ev_continue, "continue");
    check_epoch_ledger(&rep_restart, &ev_restart, "restart");

    let max_inits_continue = out_continue.iter().map(|&(.., inits)| inits).max().expect("nonempty");
    let max_inits_restart = out_restart.iter().map(|&(.., inits)| inits).max().expect("nonempty");
    assert_eq!(max_inits_continue, 1, "Continue: init runs once per node, hooks are the signal");
    assert!(
        max_inits_restart > 1,
        "Restart: surviving members must re-initialize at epoch boundaries"
    );
    assert_ne!(out_continue, out_restart, "the two handoff policies must be distinguishable");
}

/// Join and leave events carry the epoch they open, in order, and agree
/// with the model's schedule pulse for pulse: joiner `i` at
/// `at_pulse + i·spacing`, then leaver `j` at
/// `at_pulse + (joiners + j)·spacing`, each moving the member count by
/// one.
#[test]
fn streamed_events_agree_with_the_epoch_timeline() {
    let churn = ChurnModel::Mixed {
        joiners: 2,
        leavers: 2,
        at_pulse: 5,
        spacing: 3,
        policy: ChurnPolicy::Continue,
    };
    let (_, report, events) = run(churn, 33);
    check_epoch_ledger(&report, &events, "mixed");
    let boundaries: Vec<(u64, u64)> =
        timeline_of(&events).iter().map(|&(e, p, _)| (e, p)).collect();
    assert_eq!(
        boundaries,
        vec![(1, 5), (2, 8), (3, 11), (4, 14)],
        "recorded epoch boundaries must match the scheduled timeline"
    );
    let members: Vec<u32> = timeline_of(&events).iter().map(|&(.., m)| m).collect();
    assert_eq!(members, vec![9, 10, 9, 8], "two joiners start outside the 10-clique");
}

/// Membership events scheduled at pulse 1 happen like later ones: the
/// initial member set is taken before pulse 1, so a pulse-1 joiner
/// starts outside it and a pulse-1 leaver starts inside it.
#[test]
fn membership_events_at_pulse_one_take_effect() {
    let g = clique(6);
    let policy = ChurnPolicy::Continue;
    for (churn, joins, leaves) in [
        (ChurnModel::Join { joiners: 3, at_pulse: 1, spacing: 0, policy }, 3, 0),
        (ChurnModel::Leave { leavers: 2, at_pulse: 1, spacing: 0, policy }, 0, 2),
        (ChurnModel::Mixed { joiners: 1, leavers: 1, at_pulse: 1, spacing: 0, policy }, 1, 1),
    ] {
        for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
            let (_, report) = Session::on(&g)
                .seed(5)
                .engine(Engine::Async {
                    delay: DelayModel::Uniform { max_delay: 3 },
                    sync,
                    fault: FaultModel::None,
                    churn,
                })
                .limits(RunLimits::rounds(12))
                .run_with(|_| Census { best: 0, joins: 0, leaves: 0, inits: 0 });
            assert_eq!(report.overhead.joins, joins, "{churn:?}, {sync:?}: joins");
            assert_eq!(report.overhead.leaves, leaves, "{churn:?}, {sync:?}: leaves");
        }
    }
}

/// Gossip that counts every crash or membership hook reaching it before
/// its own `init`: a node outside the member set observes nothing.
struct EarlyHookProbe {
    initialized: bool,
    early_hooks: u32,
}

impl EarlyHookProbe {
    fn hook(&mut self) {
        if !self.initialized {
            self.early_hooks += 1;
        }
    }
}

impl Protocol for EarlyHookProbe {
    type Msg = Word;
    type Output = u32;

    fn init(&mut self, ctx: &mut Context<'_, Word>) {
        self.initialized = true;
        ctx.broadcast(Word(ctx.id()));
    }

    fn step(&mut self, ctx: &mut Context<'_, Word>, _inbox: &[(Port, Word)]) {
        ctx.broadcast(Word(ctx.id()));
    }

    fn is_idle(&self) -> bool {
        true
    }

    fn on_peer_down(&mut self, _ctx: &mut Context<'_, Word>, _port: Port) {
        self.hook();
    }

    fn on_peer_up(&mut self, _ctx: &mut Context<'_, Word>, _port: Port) {
        self.hook();
    }

    fn on_join(&mut self, _ctx: &mut Context<'_, Word>, _port: Port) {
        self.hook();
    }

    fn on_leave(&mut self, _ctx: &mut Context<'_, Word>, _port: Port) {
        self.hook();
    }

    fn output(&self) -> u32 {
        self.early_hooks
    }
}

/// Crash hooks respect the member set: while late joiners are still
/// absent, a neighbor's crash and recovery must not reach them — they
/// have not run `init` yet.
#[test]
fn crash_hooks_skip_nodes_outside_the_member_set() {
    let g = clique(8);
    for seed in 0..20 {
        let (outputs, report) = Session::on(&g)
            .seed(seed)
            .engine(Engine::Async {
                delay: DelayModel::Uniform { max_delay: 3 },
                sync: SyncModel::Alpha,
                fault: FaultModel::Crash { victims: 2, at_pulse: 2, recover_after: 2 },
                churn: ChurnModel::Join {
                    joiners: 3,
                    at_pulse: 8,
                    spacing: 1,
                    policy: ChurnPolicy::Continue,
                },
            })
            .limits(RunLimits::rounds(12))
            .run_with(|_| EarlyHookProbe { initialized: false, early_hooks: 0 });
        assert_eq!(report.overhead.joins, 3, "seed {seed}: all three joiners arrive");
        let early: u32 = outputs.iter().sum();
        assert_eq!(early, 0, "seed {seed}: {early} hooks reached nodes before their init");
    }
}
