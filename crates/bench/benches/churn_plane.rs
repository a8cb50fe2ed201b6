//! Churn-plane benches: what epoch-versioned membership costs.
//!
//! * **`gossip_churn`** — sustained gossip on a G(n,p), one row per
//!   churn condition (staggered joins, graceful leaves, both) ×
//!   [`SyncModel`], against the fixed-membership baseline rows. Epoch
//!   transitions mutate the membership overlay in place and the
//!   synchronizer's control plane spans every epoch unchanged, so the
//!   rows measure the *price* of reconfiguration — the epoch
//!   transitions themselves, the retired-payload sweep at each leave,
//!   and the handoff hook dispatch.
//! * **`near_clique_churn`** — the full staged `DistNearClique` under a
//!   `PhasePlan` with members leaving gracefully mid-schedule: the §4.1
//!   pulse budgets are membership-free, so this is the end-to-end cost
//!   of running the paper's protocol while the member set shrinks.
//!   (Leaves only: `DistNearClique` is strictly phase-staged, so a
//!   *joiner* initialized mid-schedule would speak phase 0 into a later
//!   phase — late joins need an epoch-restart protocol, which is the
//!   gossip rows' job.)
//!
//! Every churned row's `BENCH_JSON` record carries `epochs`, `joins`,
//! `leaves` and `retired_events` next to the timing, so the
//! reconfiguration tax is tracked across PRs in membership events as
//! well as in `min_ns`.
//!
//! Append machine-readable records with:
//!
//! ```text
//! # from the repo root ($PWD: benches run with cwd = the bench package)
//! BENCH_JSON=$PWD/BENCH_protocol.json cargo bench -p bench --bench churn_plane
//! ```
//!
//! CI runs this bench in smoke mode (`CHURN_SMOKE=1`: n shrinks to 160,
//! one sample) purely to keep the epoch-transition hot path — both
//! synchronizers, joins and leaves — exercised end to end; real records
//! come from full local runs.

use congest::{
    ChurnModel, ChurnPolicy, Context, DelayModel, Driver, Engine, FaultModel, Message, Port,
    Protocol, RunLimits, Session, SyncModel, SyncOverhead,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphs::{generators, Graph};
use nearclique::{near_clique_phase_plan, run_near_clique_phased, NearCliqueParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn smoke() -> bool {
    std::env::var("CHURN_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

const SYNC_MODELS: [SyncModel; 2] = [SyncModel::Alpha, SyncModel::BatchedAlpha];

/// The churn grid: fixed membership, staggered joins, graceful leaves,
/// and both at once.
const CHURNS: [(&str, ChurnModel); 4] = [
    ("none", ChurnModel::None),
    (
        "join4",
        ChurnModel::Join { joiners: 4, at_pulse: 4, spacing: 4, policy: ChurnPolicy::Continue },
    ),
    (
        "leave4",
        ChurnModel::Leave { leavers: 4, at_pulse: 4, spacing: 4, policy: ChurnPolicy::Continue },
    ),
    (
        "mixed2x2",
        ChurnModel::Mixed {
            joiners: 2,
            leavers: 2,
            at_pulse: 4,
            spacing: 4,
            policy: ChurnPolicy::Continue,
        },
    ),
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

fn run_gossip(g: &Graph, sync: SyncModel, churn: ChurnModel) -> SyncOverhead {
    let mut driver = Session::on(g)
        .seed(3)
        .engine(Engine::Async {
            delay: DelayModel::Uniform { max_delay: 8 },
            sync,
            fault: FaultModel::None,
            churn,
        })
        .limits(RunLimits::rounds(GOSSIP_PULSES))
        .build_with(|_| Gossip { rounds: GOSSIP_PULSES });
    driver.reserve_rounds(GOSSIP_PULSES as usize + 2);
    let report = driver.run();
    report.overhead
}

fn bench_gossip_churn(c: &mut Criterion) {
    let n = if smoke() { 160 } else { 1000 };
    let g = generators::gnp(n, 8.0 / n as f64, &mut StdRng::seed_from_u64(11));

    let mut group = c.benchmark_group("churn_plane/gossip_churn");
    group.sample_size(if smoke() { 1 } else { 10 });
    for (churn_name, churn) in CHURNS {
        for sync in SYNC_MODELS {
            let label = format!("{}_{}", sync.name(), churn_name);
            // Deterministic per (graph, seed, sync, churn) — captured
            // from the timed iterations, not an extra un-timed run.
            let overhead = std::cell::Cell::new(SyncOverhead::default());
            group.bench_with_input(BenchmarkId::from_parameter(&label), &g, |b, g| {
                b.iter(|| {
                    let run = run_gossip(g, sync, churn);
                    overhead.set(run);
                    run.epochs
                });
            });
            group.annotate("epochs", overhead.get().epochs);
            group.annotate("joins", overhead.get().joins);
            group.annotate("leaves", overhead.get().leaves);
            group.annotate("retired_events", overhead.get().retired_messages);
        }
    }
    group.finish();
}

/// The acceptance workload while the member set shrinks: `DistNearClique`
/// end to end, phased under a precomputed §4.1 schedule, with seeded
/// members leaving gracefully mid-schedule (leaves only — the paper's
/// protocol is strictly phase-staged, so a late joiner's phase-0 `init`
/// cannot speak into a later phase; late joins are the gossip rows'
/// workload).
fn bench_near_clique_churn(c: &mut Criterion) {
    let n = if smoke() { 160 } else { 1000 };
    let dense = n / 5;
    let mut rng = StdRng::seed_from_u64(42);
    let g = generators::planted_near_clique(n, dense, 0.0156, 4.0 / n as f64, &mut rng).graph;
    let params = NearCliqueParams::for_expected_sample(0.25, 7.0, n).unwrap();
    let plan = near_clique_phase_plan(&g, &params, 7, 1_000_000);
    let delay = DelayModel::Uniform { max_delay: 8 };
    let grid: [(&str, ChurnModel); 3] = [
        ("none", ChurnModel::None),
        (
            "leave2",
            ChurnModel::Leave {
                leavers: 2,
                at_pulse: 6,
                spacing: 6,
                policy: ChurnPolicy::Continue,
            },
        ),
        (
            "leave4",
            ChurnModel::Leave {
                leavers: 4,
                at_pulse: 6,
                spacing: 6,
                policy: ChurnPolicy::Continue,
            },
        ),
    ];

    let mut group = c.benchmark_group("churn_plane/near_clique_churn");
    group.sample_size(if smoke() { 1 } else { 5 });
    for (churn_name, churn) in grid {
        for sync in SYNC_MODELS {
            let label = format!("{}_{}", sync.name(), churn_name);
            let overhead = std::cell::Cell::new(SyncOverhead::default());
            group.bench_with_input(BenchmarkId::from_parameter(&label), &g, |b, g| {
                b.iter(|| {
                    let run = run_near_clique_phased(
                        g,
                        &params,
                        7,
                        Engine::Async { delay, sync, fault: FaultModel::None, churn },
                        &plan,
                    );
                    overhead.set(run.overhead);
                    run.overhead.epochs
                });
            });
            group.annotate("epochs", overhead.get().epochs);
            group.annotate("joins", overhead.get().joins);
            group.annotate("leaves", overhead.get().leaves);
            group.annotate("retired_events", overhead.get().retired_messages);
        }
    }
    group.finish();
}

criterion_group!(benches, bench_gossip_churn, bench_near_clique_churn);
criterion_main!(benches);
