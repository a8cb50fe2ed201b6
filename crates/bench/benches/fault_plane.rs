//! Fault-plane benches: what masked message loss costs.
//!
//! * **`gossip_drop`** — sustained gossip on a G(n,p), one row per
//!   `Drop { 1% | 5% }` × [`SyncModel`], against the fault-free
//!   baseline rows. Outputs and the payload ledger are bit-identical
//!   across rows (the masking contract, pinned by tests); what the rows
//!   measure is the *price* of masking — retransmission traffic, the
//!   stretched virtual time, and the event-plane churn they cause.
//! * **`near_clique_drop`** — the full staged `DistNearClique` under a
//!   `PhasePlan` with the same `Drop` grid: the §4.1 schedule is
//!   unchanged (pulse budgets are virtual-time-free), so this is the
//!   end-to-end cost of running the paper's protocol over a lossy wire.
//!
//! Every faulty row's `BENCH_JSON` record carries `retransmissions` and
//! `dropped_messages` next to the timing, so the masking tax is tracked
//! across PRs in traffic as well as in `min_ns`.
//!
//! Append machine-readable records with:
//!
//! ```text
//! # from the repo root ($PWD: benches run with cwd = the bench package)
//! BENCH_JSON=$PWD/BENCH_protocol.json cargo bench -p bench --bench fault_plane
//! ```
//!
//! CI runs this bench in smoke mode (`FAULT_PLANE_SMOKE=1`: n shrinks
//! to 160, one sample) purely to keep the retransmission hot path —
//! both synchronizers included — exercised end to end; real records
//! come from full local runs.

use congest::{
    ChurnModel, Context, DelayModel, Driver, Engine, FaultModel, Message, Port, Protocol,
    RunLimits, RunProfile, Session, SyncModel, SyncOverhead, TraceConfig,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphs::{generators, Graph};
use nearclique::{near_clique_phase_plan, run_near_clique_phased, NearCliqueParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn smoke() -> bool {
    std::env::var("FAULT_PLANE_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

const SYNC_MODELS: [SyncModel; 2] = [SyncModel::Alpha, SyncModel::BatchedAlpha];

/// The fault grid: fault-free baseline, then 1% and 5% per-send loss.
const FAULTS: [(&str, FaultModel); 3] = [
    ("none", FaultModel::None),
    ("drop1pct", FaultModel::Drop { p_millis: 10 }),
    ("drop5pct", FaultModel::Drop { p_millis: 50 }),
];

/// A counter message: representative `O(log n)` width.
#[derive(Clone, Debug)]
struct Word {
    _payload: u64,
}

impl Message for Word {
    fn bit_size(&self) -> usize {
        64
    }
}

/// Sustained traffic: every node broadcasts every pulse until `rounds`.
struct Gossip {
    rounds: u64,
}

impl Protocol for Gossip {
    type Msg = Word;
    type Output = ();

    fn init(&mut self, ctx: &mut Context<'_, Word>) {
        ctx.broadcast(Word { _payload: 0 });
    }

    fn step(&mut self, ctx: &mut Context<'_, Word>, inbox: &[(Port, Word)]) {
        let _ = inbox;
        if ctx.round() < self.rounds {
            ctx.broadcast(Word { _payload: ctx.round() });
        }
    }

    fn is_idle(&self) -> bool {
        true
    }

    fn output(&self) {}
}

const GOSSIP_PULSES: u64 = 30;

fn run_gossip(g: &Graph, sync: SyncModel, fault: FaultModel) -> SyncOverhead {
    let mut driver = Session::on(g)
        .seed(3)
        .engine(Engine::Async {
            delay: DelayModel::Uniform { max_delay: 8 },
            sync,
            fault,
            churn: ChurnModel::None,
        })
        .limits(RunLimits::rounds(GOSSIP_PULSES))
        .build_with(|_| Gossip { rounds: GOSSIP_PULSES });
    driver.reserve_rounds(GOSSIP_PULSES as usize + 2);
    let report = driver.run();
    report.overhead
}

/// One extra *un-timed* traced run per row (deterministic, so the
/// profile describes the timed iterations exactly) — keeps the recorder
/// out of the timed loop so the `min_ns` series stays comparable.
fn gossip_profile(g: &Graph, sync: SyncModel, fault: FaultModel) -> RunProfile {
    let mut driver = Session::on(g)
        .seed(3)
        .engine(Engine::Async {
            delay: DelayModel::Uniform { max_delay: 8 },
            sync,
            fault,
            churn: ChurnModel::None,
        })
        .limits(RunLimits::rounds(GOSSIP_PULSES))
        .trace(TraceConfig::profile_only())
        .build_with(|_| Gossip { rounds: GOSSIP_PULSES });
    driver.reserve_rounds(GOSSIP_PULSES as usize + 2);
    driver.run().profile.expect("traced run attaches a profile")
}

fn bench_gossip_drop(c: &mut Criterion) {
    let n = if smoke() { 160 } else { 1000 };
    let g = generators::gnp(n, 8.0 / n as f64, &mut StdRng::seed_from_u64(11));

    let mut group = c.benchmark_group("fault_plane/gossip_drop");
    group.sample_size(if smoke() { 1 } else { 10 });
    for (fault_name, fault) in FAULTS {
        for sync in SYNC_MODELS {
            let label = format!("{}_{}", sync.name(), fault_name);
            // Deterministic per (graph, seed, sync, fault) — captured
            // from the timed iterations, not an extra un-timed run.
            let overhead = std::cell::Cell::new(SyncOverhead::default());
            group.bench_with_input(BenchmarkId::from_parameter(&label), &g, |b, g| {
                b.iter(|| {
                    let run = run_gossip(g, sync, fault);
                    overhead.set(run);
                    run.retransmissions
                });
            });
            group.annotate("retransmissions", overhead.get().retransmissions);
            group.annotate("dropped_messages", overhead.get().dropped_messages);
            let profile = gossip_profile(&g, sync, fault);
            group.annotate("max_wheel_occupancy", profile.max_wheel_occupancy);
            group.annotate("max_queue_depth", profile.max_queue_depth);
        }
    }
    group.finish();
}

/// The acceptance workload over a lossy wire: `DistNearClique` end to
/// end, phased under a precomputed §4.1 schedule, with every send
/// subject to seeded loss — masked by retransmission, so labels and
/// the payload ledger never move.
fn bench_near_clique_drop(c: &mut Criterion) {
    let n = if smoke() { 160 } else { 1000 };
    let dense = n / 5;
    let mut rng = StdRng::seed_from_u64(42);
    let g = generators::planted_near_clique(n, dense, 0.0156, 4.0 / n as f64, &mut rng).graph;
    let params = NearCliqueParams::for_expected_sample(0.25, 7.0, n).unwrap();
    let plan = near_clique_phase_plan(&g, &params, 7, 1_000_000);
    let delay = DelayModel::Uniform { max_delay: 8 };

    let mut group = c.benchmark_group("fault_plane/near_clique_drop");
    group.sample_size(if smoke() { 1 } else { 5 });
    for (fault_name, fault) in FAULTS {
        for sync in SYNC_MODELS {
            let label = format!("{}_{}", sync.name(), fault_name);
            let overhead = std::cell::Cell::new(SyncOverhead::default());
            group.bench_with_input(BenchmarkId::from_parameter(&label), &g, |b, g| {
                b.iter(|| {
                    let run = run_near_clique_phased(
                        g,
                        &params,
                        7,
                        Engine::Async { delay, sync, fault, churn: ChurnModel::None },
                        &plan,
                    );
                    overhead.set(run.overhead);
                    run.metrics.messages
                });
            });
            group.annotate("retransmissions", overhead.get().retransmissions);
            group.annotate("dropped_messages", overhead.get().dropped_messages);
        }
    }
    group.finish();
}

criterion_group!(benches, bench_gossip_drop, bench_near_clique_drop);
criterion_main!(benches);
