//! Engine-level contract of the seeded fault plane (`sched::fault`),
//! degradation side: under [`FaultModel::Crash`] the run ends in
//! [`Termination::Degraded`], surviving nodes re-converge, peers observe
//! [`Protocol::on_peer_down`] / [`Protocol::on_peer_up`], the trace sink
//! itemizes every fault as a [`TraceEvent`] — and every fault schedule replays
//! **bit for bit** from `(seed, FaultModel)` alone. (The masking grid
//! for `Drop`/`LinkFlap` lives with the engine-equivalence suite in
//! `crates/core/tests/engine_equivalence.rs`.)

use std::collections::BTreeSet;

use congest::{
    ChurnModel, Context, DelayModel, Driver, Engine, FaultModel, Message, Port, Protocol,
    RunLimits, Session, SyncModel, Termination, TraceConfig, TraceEvent, TraceRecord,
};
use graphs::{Graph, GraphBuilder};

#[derive(Clone, Debug)]
struct Word(u64);
impl Message for Word {
    fn bit_size(&self) -> usize {
        64
    }
}

/// Beacon gossip that *keeps talking*: every pulse, every node
/// re-broadcasts the largest value it has seen (initially its own ID)
/// and records every peer-loss hook. The perpetual re-broadcast is what
/// lets survivors — and recovered crash victims — re-converge.
struct Beacon {
    best: u64,
    downs: Vec<Port>,
    ups: Vec<Port>,
}

impl Protocol for Beacon {
    type Msg = Word;
    type Output = (u64, usize, usize);

    fn init(&mut self, ctx: &mut Context<'_, Word>) {
        self.best = ctx.id();
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

    fn on_peer_down(&mut self, _ctx: &mut Context<'_, Word>, port: Port) {
        self.downs.push(port);
    }

    fn on_peer_up(&mut self, _ctx: &mut Context<'_, Word>, port: Port) {
        self.ups.push(port);
    }

    fn output(&self) -> (u64, usize, usize) {
        (self.best, self.downs.len(), self.ups.len())
    }
}

fn clique(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    b.add_clique(&(0..n).collect::<Vec<_>>());
    b.build()
}

/// One faulty, traced Beacon run: outputs, report and the fault records
/// the trace sink kept — all of them, since its ring dropped none.
fn run(fault: FaultModel) -> (Vec<(u64, usize, usize)>, congest::RunReport, Vec<TraceRecord>) {
    let g = clique(12);
    let mut driver = Session::on(&g)
        .seed(33)
        .engine(Engine::Async {
            delay: DelayModel::PerLink { max_delay: 3 },
            sync: SyncModel::Alpha,
            fault,
            churn: ChurnModel::None,
        })
        .limits(RunLimits::rounds(24))
        .trace(TraceConfig::default())
        .build_with(|_| Beacon { best: 0, downs: Vec::new(), ups: Vec::new() });
    let report = driver.drive(RunLimits::rounds(24), &mut ());
    let profile = report.profile.as_ref().expect("traced runs attach a profile");
    assert_eq!(profile.dropped, 0, "{fault:?}: the ring must keep every record");
    let mut events = Vec::new();
    driver.trace_sink().expect("recorder installed").for_each(|r| {
        if matches!(
            r.ev,
            TraceEvent::Dropped { .. }
                | TraceEvent::Lost { .. }
                | TraceEvent::NodeDown { .. }
                | TraceEvent::NodeUp { .. }
        ) {
            events.push(*r);
        }
    });
    (driver.outputs(), report, events)
}

fn victims_of(events: &[TraceRecord]) -> BTreeSet<u32> {
    events
        .iter()
        .filter_map(|r| match r.ev {
            TraceEvent::NodeDown { node, .. } => Some(node),
            _ => None,
        })
        .collect()
}

#[test]
fn permanent_crash_degrades_and_survivors_reconverge() {
    let fault = FaultModel::Crash { victims: 3, at_pulse: 6, recover_after: 0 };
    let (outputs, report, events) = run(fault);

    // Degradation, with honest accounting: the run says how much the
    // crashes cost, and the overhead ledger agrees.
    let Termination::Degraded { lost } = report.termination else {
        panic!("seed 33, {fault:?}: expected Degraded, got {:?}", report.termination);
    };
    assert!(lost > 0, "seed 33, {fault:?}: crashed beacons must swallow payloads");
    assert_eq!(
        report.overhead.dropped_messages - report.overhead.retransmissions,
        lost,
        "seed 33, {fault:?}: dropped = retransmitted + lost must balance"
    );

    // Exactly the seeded victim set went down, and — permanent crash —
    // nobody came back.
    let victims = victims_of(&events);
    assert_eq!(victims.len(), 3, "seed 33, {fault:?}: three distinct victims");
    assert!(
        !events.iter().any(|r| matches!(r.ev, TraceEvent::NodeUp { .. })),
        "seed 33, {fault:?}: a permanent crash never recovers"
    );
    assert!(
        events.iter().any(|r| matches!(r.ev, TraceEvent::Lost { .. })),
        "seed 33, {fault:?}: deliveries into a crashed node are lost events"
    );

    // Every survivor saw each victim go down exactly once (a clique:
    // everyone neighbors everyone), nobody saw a recovery, and the
    // survivors re-converged to one common beacon value.
    let survivor_best: BTreeSet<u64> = outputs
        .iter()
        .enumerate()
        .filter(|(v, _)| !victims.contains(&(*v as u32)))
        .map(|(_, &(best, downs, ups))| {
            assert_eq!(downs, 3, "seed 33, {fault:?}: every survivor observes all crashes");
            assert_eq!(ups, 0, "seed 33, {fault:?}: no recovery to observe");
            best
        })
        .collect();
    assert_eq!(
        survivor_best.len(),
        1,
        "seed 33, {fault:?}: survivors must re-converge to one value, got {survivor_best:?}"
    );
}

#[test]
fn recovered_victims_rejoin_and_peers_observe_both_transitions() {
    let fault = FaultModel::Crash { victims: 2, at_pulse: 4, recover_after: 8 };
    let (outputs, report, events) = run(fault);

    assert!(
        matches!(report.termination, Termination::Degraded { lost } if lost > 0),
        "seed 33, {fault:?}: a crash window still degrades the run, got {:?}",
        report.termination
    );

    let victims = victims_of(&events);
    assert_eq!(victims.len(), 2, "seed 33, {fault:?}");
    for &v in &victims {
        assert!(
            events.iter().any(
                |r| matches!(r.ev, TraceEvent::NodeUp { node, pulse } if node == v && pulse == 12)
            ),
            "seed 33, {fault:?}: victim {v} must recover exactly at at_pulse + recover_after"
        );
    }

    // Never-crashed nodes observed both transitions for both victims,
    // and *everyone* — recovered victims included, thanks to the
    // perpetual re-broadcast — converged to one beacon value.
    for (v, &(_, downs, ups)) in outputs.iter().enumerate() {
        if !victims.contains(&(v as u32)) {
            assert_eq!(downs, 2, "seed 33, {fault:?}: node {v} missed a down transition");
            assert_eq!(ups, 2, "seed 33, {fault:?}: node {v} missed an up transition");
        }
    }
    let best: BTreeSet<u64> = outputs.iter().map(|&(best, _, _)| best).collect();
    assert_eq!(
        best.len(),
        1,
        "seed 33, {fault:?}: recovered victims must catch back up, got {best:?}"
    );
}

/// The replayability half of the degradation contract: the entire fault
/// schedule — event log, outputs, metrics, overhead, termination — is a
/// pure function of `(seed, FaultModel)`.
#[test]
fn fault_schedules_replay_from_seed_and_model_alone() {
    for fault in [
        FaultModel::Drop { p_millis: 80 },
        FaultModel::LinkFlap { down_len: 2, up_len: 5 },
        FaultModel::Crash { victims: 3, at_pulse: 6, recover_after: 7 },
    ] {
        let (out_a, report_a, events_a) = run(fault);
        let (out_b, report_b, events_b) = run(fault);
        assert_eq!(out_a, out_b, "seed 33, {fault:?}: outputs must replay");
        assert_eq!(events_a, events_b, "seed 33, {fault:?}: fault log must replay");
        assert_eq!(report_a.metrics, report_b.metrics, "seed 33, {fault:?}: metrics must replay");
        assert_eq!(
            report_a.overhead, report_b.overhead,
            "seed 33, {fault:?}: overhead must replay"
        );
        assert_eq!(report_a.termination, report_b.termination, "seed 33, {fault:?}");
        assert!(!events_a.is_empty(), "seed 33, {fault:?}: the schedule must inject faults");
    }
}

/// The masked models record nothing but `Dropped` events, and the
/// event count is exactly the retransmission meter: masked loss is
/// always retransmitted, never lost.
#[test]
fn masked_models_stream_only_dropped_events() {
    for fault in
        [FaultModel::Drop { p_millis: 80 }, FaultModel::LinkFlap { down_len: 2, up_len: 5 }]
    {
        let (_, report, events) = run(fault);
        assert!(
            matches!(report.termination, Termination::RoundLimit),
            "seed 33, {fault:?}: a masked model never degrades, got {:?}",
            report.termination
        );
        assert!(
            events.iter().all(|r| matches!(r.ev, TraceEvent::Dropped { .. })),
            "seed 33, {fault:?}: masked faults are wire drops only"
        );
        assert_eq!(
            events.len() as u64,
            report.overhead.retransmissions,
            "seed 33, {fault:?}: one retransmission per dropped send"
        );
        assert_eq!(
            report.overhead.dropped_messages, report.overhead.retransmissions,
            "seed 33, {fault:?}: nothing is ever lost under a masked model"
        );
    }
}
