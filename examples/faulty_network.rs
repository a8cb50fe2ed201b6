//! The fault & churn plane, side by side: one gossip protocol, one
//! seed, five wire conditions.
//!
//! A beacon-gossip protocol (every node re-broadcasts the largest ID it
//! has seen, every pulse) runs on the same G(n,p) instance under
//!
//! 1. a **fault-free** asynchronous schedule (the baseline),
//! 2. seeded per-send **message loss** (`FaultModel::Drop`, 1% and 5%)
//!    and periodic **link flaps** (`FaultModel::LinkFlap`) — both fully
//!    *masked* by deterministic retransmission: outputs are
//!    bit-identical to the baseline, only the overhead column grows,
//! 3. a mid-run **crash** of five nodes (`FaultModel::Crash`), once
//!    permanent and once with recovery — the *degradation* regime: the
//!    run honestly reports `Termination::Degraded` with the number of
//!    payloads lost, and with recovery the victims rejoin and converge.
//!
//! 4. and, on top of the fault-free schedule, real **membership
//!    churn** (`ChurnModel::Mixed`): three staggered late joins plus
//!    one graceful leave, each opening an epoch — the per-epoch
//!    membership timeline, the `on_join`/`on_leave` handoff transitions
//!    observed by live peers, and the itemized retirement of the
//!    leaver's in-flight payloads are all printed, and the run's
//!    timeline is exported to `target/trace_churn.json` (Chrome
//!    trace-event JSON, for Perfetto or `chrome://tracing`).
//!
//! Every run is traced (`Session::trace`): fault and churn events are
//! `TraceEvent`s, and the trace sink is their only itemized record. Each
//! run checks that the sink's ring dropped nothing before reading them.
//!
//! Every fault schedule is a pure function of `(seed, FaultModel)`, and
//! every membership schedule of `(seed, ChurnModel)`: re-running this
//! example reproduces every number below, drop for drop and epoch for
//! epoch.
//!
//! ```text
//! cargo run --release --example faulty_network
//! ```

use congest::{
    ChurnModel, ChurnPolicy, Context, DelayModel, Driver, Engine, FaultModel, Message, Port,
    Protocol, RunLimits, RunReport, Session, SessionDriver, SyncModel, Termination, TraceConfig,
    TraceEvent, TraceSink,
};
use near_clique_suite::prelude::generators;
use rand::SeedableRng;

#[derive(Clone, Debug)]
struct Word(u64);
impl Message for Word {
    fn bit_size(&self) -> usize {
        64
    }
}

/// Beacon gossip that keeps talking: every pulse, every node
/// re-broadcasts the largest ID it has seen — so survivors (and
/// recovered crash victims) always re-converge.
struct Beacon {
    best: u64,
    peer_downs: usize,
    peer_ups: usize,
}

impl Protocol for Beacon {
    type Msg = Word;
    type Output = u64;

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

    fn on_peer_down(&mut self, _ctx: &mut Context<'_, Word>, _port: Port) {
        self.peer_downs += 1;
    }

    fn on_peer_up(&mut self, _ctx: &mut Context<'_, Word>, _port: Port) {
        self.peer_ups += 1;
    }

    fn output(&self) -> u64 {
        self.best
    }
}

/// Ring capacity for one run: every record of the 48-pulse runs below
/// fits, so the sink keeps the complete fault and churn record.
const TRACE_CAPACITY: usize = 1 << 18;

/// The trace sink of a finished run, after checking that its ring kept
/// every record.
fn complete_sink<'d, P: Protocol>(
    driver: &'d SessionDriver<P>,
    report: &RunReport,
) -> &'d TraceSink {
    let profile = report.profile.as_ref().expect("traced runs attach a profile");
    assert_eq!(profile.dropped, 0, "the trace ring must keep every record");
    driver.trace_sink().expect("tracing was enabled")
}

/// The fault records of a run: victim transitions and loss counts.
#[derive(Default)]
struct FaultLog {
    downs: Vec<(u32, u64)>,
    ups: Vec<(u32, u64)>,
    wire_drops: u64,
    swallowed: u64,
}

impl FaultLog {
    fn read(sink: &TraceSink) -> Self {
        let mut log = Self::default();
        sink.for_each(|r| match r.ev {
            TraceEvent::Dropped { .. } => log.wire_drops += 1,
            TraceEvent::Lost { .. } => log.swallowed += 1,
            TraceEvent::NodeDown { node, pulse } => log.downs.push((node, pulse)),
            TraceEvent::NodeUp { node, pulse } => log.ups.push((node, pulse)),
            _ => {}
        });
        log
    }
}

/// The Beacon with membership handoff: same gossip, plus the
/// `on_join`/`on_leave` hooks counting the epoch transitions this
/// node's ports went through.
struct HandoffBeacon {
    best: u64,
    joins: usize,
    leaves: usize,
}

impl Protocol for HandoffBeacon {
    type Msg = Word;
    type Output = (u64, usize, usize);

    fn init(&mut self, ctx: &mut Context<'_, Word>) {
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

    fn output(&self) -> (u64, usize, usize) {
        (self.best, self.joins, self.leaves)
    }
}

fn main() -> std::io::Result<()> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let g = generators::gnp(200, 0.04, &mut rng);
    let seed = 21;
    let budget = 48;

    let conditions: Vec<(&str, FaultModel)> = vec![
        ("fault-free", FaultModel::None),
        ("drop 1%", FaultModel::Drop { p_millis: 10 }),
        ("drop 5%", FaultModel::Drop { p_millis: 50 }),
        ("link flap 3/9", FaultModel::LinkFlap { down_len: 3, up_len: 9 }),
        ("crash 5", FaultModel::Crash { victims: 5, at_pulse: 12, recover_after: 0 }),
        ("crash+recover", FaultModel::Crash { victims: 5, at_pulse: 12, recover_after: 18 }),
    ];

    println!(
        "beacon gossip on G(200, 0.04), seed {seed}, {budget}-pulse budget, \
         per-link delays ≤ 4, batched synchronizer\n"
    );
    println!(
        "{:<15} {:>8} {:>9} {:>8} {:>7} {:>11} {:>9}  report",
        "fault model", "payload", "retrans.", "dropped", "lost", "virt. time", "outputs"
    );

    let mut baseline: Option<Vec<u64>> = None;
    for (label, fault) in conditions {
        let mut driver = Session::on(&g)
            .seed(seed)
            .engine(Engine::Async {
                delay: DelayModel::PerLink { max_delay: 4 },
                sync: SyncModel::BatchedAlpha,
                fault,
                churn: ChurnModel::None,
            })
            .limits(RunLimits::rounds(budget))
            .trace(TraceConfig::events(TRACE_CAPACITY))
            .build_with(|_| Beacon { best: 0, peer_downs: 0, peer_ups: 0 });
        let report = driver.drive(RunLimits::rounds(budget), &mut ());
        let log = FaultLog::read(complete_sink(&driver, &report));
        let outputs = driver.outputs();

        let verdict = match &baseline {
            None => {
                baseline = Some(outputs.clone());
                "baseline"
            }
            Some(base) if *base == outputs => "== base",
            Some(_) => "DIVERGED",
        };
        let summary = match report.termination {
            Termination::Degraded { lost } => {
                let recovery = log
                    .ups
                    .first()
                    .map_or_else(|| "no recovery".to_string(), |&(_, p)| format!("rejoin @{p}"));
                format!(
                    "Degraded {{ lost: {lost} }}; {} down @{}, {recovery}",
                    log.downs.len(),
                    log.downs.first().map_or(0, |&(_, p)| p),
                )
            }
            t => format!("{t:?}"),
        };
        println!(
            "{:<15} {:>8} {:>9} {:>8} {:>7} {:>11} {:>9}  {}",
            label,
            report.metrics.messages,
            report.overhead.retransmissions,
            report.overhead.dropped_messages,
            report.overhead.dropped_messages - report.overhead.retransmissions,
            report.overhead.virtual_time,
            verdict,
            summary,
        );

        // The masked regime really is masked — bit for bit.
        if matches!(fault, FaultModel::Drop { .. } | FaultModel::LinkFlap { .. }) {
            assert_eq!(Some(&outputs), baseline.as_ref(), "{label}: masking contract violated");
            assert_eq!(report.overhead.dropped_messages, report.overhead.retransmissions);
        }
        // And the degraded regime honestly reports its losses.
        if matches!(fault, FaultModel::Crash { .. }) {
            assert!(matches!(report.termination, Termination::Degraded { .. }));
            assert_eq!(log.swallowed + log.wire_drops, report.overhead.dropped_messages);
        }
    }

    println!(
        "\nmasked faults (drop, flap) leave every output bit-identical — only \
         retransmissions and virtual time grow; crashes degrade the run, and the report \
         says by exactly how much"
    );

    // ── The churn plane: membership itself changes mid-run. ──────────
    // Three seeded nodes start *outside* the member set and join one by
    // one; later, one member leaves gracefully. Every event opens an
    // epoch over the same static topology.
    let churn = ChurnModel::Mixed {
        joiners: 3,
        leavers: 1,
        at_pulse: 8,
        spacing: 6,
        policy: ChurnPolicy::Continue,
    };
    let mut driver = Session::on(&g)
        .seed(seed)
        .engine(Engine::Async {
            delay: DelayModel::PerLink { max_delay: 4 },
            sync: SyncModel::BatchedAlpha,
            fault: FaultModel::None,
            churn,
        })
        .limits(RunLimits::rounds(budget))
        .trace(TraceConfig::events(TRACE_CAPACITY))
        .build_with(|_| HandoffBeacon { best: 0, joins: 0, leaves: 0 });
    let report = driver.drive(RunLimits::rounds(budget), &mut ());
    let outputs = driver.outputs();
    let sink = complete_sink(&driver, &report);

    println!(
        "\nmembership churn on the same schedule: three staggered joins, one graceful \
         leave ({churn:?})\n"
    );
    let mut retired = 0;
    sink.for_each(|r| {
        let (transition, epoch, members) = match r.ev {
            TraceEvent::Join { node, pulse, epoch, members } => {
                (format!("node {node:>3} joins  @ pulse {pulse}"), epoch, members)
            }
            TraceEvent::Leave { node, pulse, epoch, members } => {
                (format!("node {node:>3} leaves @ pulse {pulse}"), epoch, members)
            }
            TraceEvent::Retired { .. } => {
                retired += 1;
                return;
            }
            _ => return,
        };
        println!("  epoch {epoch:>2}: {transition:<28} -> {members} members");
    });
    let (hook_joins, hook_leaves) =
        outputs.iter().fold((0, 0), |(j, l), &(_, joins, leaves)| (j + joins, l + leaves));
    println!(
        "\n  {} epochs ({} joins, {} leaves); peers observed {hook_joins} on_join and \
         {hook_leaves} on_leave handoffs; {} in-flight payloads retired (each itemized)",
        report.overhead.epochs,
        report.overhead.joins,
        report.overhead.leaves,
        report.overhead.retired_messages,
    );
    assert_eq!(report.overhead.epochs, 4, "3 joins + 1 leave open 4 epochs");
    assert_eq!(retired, report.overhead.retired_messages, "retirement is itemized");
    assert!(
        !matches!(report.termination, Termination::Degraded { .. }),
        "graceful churn never degrades the run"
    );
    println!(
        "\nchurn is graceful reconfiguration, not failure: the synchronizer's pulse \
         structure spans every epoch, and the member set after the last epoch converged \
         on one beacon value"
    );

    std::fs::create_dir_all("target")?;
    let chrome = sink.to_chrome_json();
    std::fs::write("target/trace_churn.json", &chrome)?;
    println!("\nwrote target/trace_churn.json ({} bytes)", chrome.len());
    Ok(())
}
