//! Asynchronous-engine benches: the scheduling subsystem's dimensions
//! under load — delay models × synchronizers.
//!
//! * **`gossip_models`** — sustained gossip on a 1000-node G(n,p), one
//!   row per [`DelayModel`] × [`SyncModel`] (uniform vs per-link vs
//!   heavy-tailed vs adversarial at the same bound, under classic α and
//!   the batched Safe-wave synchronizer). The payload ledger is
//!   identical across rows (pinned by tests); what varies is the
//!   control plane and its event-plumbing cost.
//! * **`near_clique_alpha_n1000`** — the full staged `DistNearClique`
//!   under a synchronizer at n = 1000, phase transitions driven by a
//!   derived `PhasePlan` (§4.1), against the flat synchronous baseline.
//!   This is the "α tax": payload traffic is bit-identical, the
//!   difference is pure synchronizer control plane — and the
//!   `batched_*` rows measure how much of it the Safe-wave coalescing
//!   recovers.
//! * **`near_clique_alpha_n5000`** — the same workload at n = 5000,
//!   pinning how the event plane and the synchronizer layer scale.
//! * **`wheel_vs_heap`** — the event plane in isolation: a
//!   self-sustaining event churn (each handled event schedules its
//!   successor within the delay bound) through the slab-backed
//!   [`congest::EventWheel`] versus the structure it replaced — a
//!   `BinaryHeap` of `(time, seq, dest)` keys with every envelope parked
//!   in a side `BTreeMap`.
//!
//! Every asynchronous row's `BENCH_JSON` record carries its
//! [`SyncOverhead`](congest::SyncOverhead) next to the timing —
//! `control_messages` and `control_bits` fields — so the α-tax trend is
//! tracked in control traffic as well as in `min_ns` across PRs.
//!
//! Append machine-readable records with:
//!
//! ```text
//! # from the repo root ($PWD: benches run with cwd = the bench package)
//! BENCH_JSON=$PWD/BENCH_protocol.json cargo bench -p bench --bench async_plane
//! ```
//!
//! CI runs this bench in smoke mode (`ASYNC_PLANE_SMOKE=1`: n shrinks to
//! 160, one sample) purely to keep the async hot path — both
//! synchronizers included — exercised end to end; real records come from
//! full local runs.

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
    std::env::var("ASYNC_PLANE_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

const SYNC_MODELS: [SyncModel; 2] = [SyncModel::Alpha, SyncModel::BatchedAlpha];

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

fn run_gossip(g: &Graph, delay: DelayModel, sync: SyncModel) -> SyncOverhead {
    let mut driver = Session::on(g)
        .seed(3)
        .engine(Engine::Async { delay, sync, fault: FaultModel::None, churn: ChurnModel::None })
        .limits(RunLimits::rounds(GOSSIP_PULSES))
        .build_with(|_| Gossip { rounds: GOSSIP_PULSES });
    driver.reserve_rounds(GOSSIP_PULSES as usize + 2);
    let report = driver.run();
    report.overhead
}

/// One extra *un-timed* traced run per row: the run is deterministic, so
/// the streaming profile (wheel/queue high-water marks) describes the
/// timed iterations exactly — without a recorder ever running inside
/// them, which would shift the long-tracked `min_ns` series.
fn gossip_profile(g: &Graph, delay: DelayModel, sync: SyncModel) -> RunProfile {
    let mut driver = Session::on(g)
        .seed(3)
        .engine(Engine::Async { delay, sync, fault: FaultModel::None, churn: ChurnModel::None })
        .limits(RunLimits::rounds(GOSSIP_PULSES))
        .trace(TraceConfig::profile_only())
        .build_with(|_| Gossip { rounds: GOSSIP_PULSES });
    driver.reserve_rounds(GOSSIP_PULSES as usize + 2);
    driver.run().profile.expect("traced run attaches a profile")
}

fn bench_gossip_models(c: &mut Criterion) {
    let n = if smoke() { 160 } else { 1000 };
    let g = generators::gnp(n, 8.0 / n as f64, &mut StdRng::seed_from_u64(11));

    let mut group = c.benchmark_group("async_plane/gossip_models");
    group.sample_size(if smoke() { 1 } else { 10 });
    for delay in [
        DelayModel::Uniform { max_delay: 8 },
        DelayModel::PerLink { max_delay: 8 },
        DelayModel::HeavyTailed { max_delay: 8 },
        DelayModel::Adversarial { max_delay: 8 },
    ] {
        for sync in SYNC_MODELS {
            let label = format!("{}_{}", sync.name(), delay.name());
            // The overhead is deterministic per (graph, seed, delay,
            // sync); capture it from the timed iterations instead of
            // paying for an extra un-timed run.
            let overhead = std::cell::Cell::new(SyncOverhead::default());
            group.bench_with_input(BenchmarkId::from_parameter(&label), &g, |b, g| {
                b.iter(|| {
                    let run = run_gossip(g, delay, sync);
                    overhead.set(run);
                    run.control_messages
                });
            });
            group.annotate("control_messages", overhead.get().control_messages);
            group.annotate("control_bits", overhead.get().control_bits);
            let profile = gossip_profile(&g, delay, sync);
            group.annotate("max_wheel_occupancy", profile.max_wheel_occupancy);
            group.annotate("max_queue_depth", profile.max_queue_depth);
        }
    }
    group.finish();
}

/// The acceptance workload: `DistNearClique` end to end, a planted
/// near-clique in noise (the protocol-bench shape scaled down), flat
/// baseline vs phased asynchronous execution under each synchronizer,
/// at the given scale.
fn near_clique_alpha_at(c: &mut Criterion, n: usize, models: &[DelayModel], samples: usize) {
    let dense = n / 5;
    let mut rng = StdRng::seed_from_u64(42);
    let g = generators::planted_near_clique(n, dense, 0.0156, 4.0 / n as f64, &mut rng).graph;
    let params = NearCliqueParams::for_expected_sample(0.25, 7.0, n).unwrap();

    // The §4.1 schedule is precomputed once (it depends only on the
    // graph/params/seed) and shared by every row, exactly how a
    // repeated-deployment harness would amortize it.
    let plan = near_clique_phase_plan(&g, &params, 7, 1_000_000);

    let mut group = c.benchmark_group(&format!("async_plane/near_clique_alpha_n{n}"));
    group.sample_size(if smoke() { 1 } else { samples });
    group.bench_with_input(BenchmarkId::from_parameter("flat1"), &g, |b, g| {
        b.iter(|| {
            let run = nearclique::run_near_clique_with(
                g,
                &params,
                7,
                nearclique::RunOptions::with_engine(Engine::Flat { shards: 1 }),
            );
            run.metrics.messages
        });
    });
    for &delay in models {
        for sync in SYNC_MODELS {
            let label = format!("{}_{}", sync.name(), delay.name());
            // Deterministic per row — captured from the timed
            // iterations, not an extra un-timed run.
            let overhead = std::cell::Cell::new(SyncOverhead::default());
            group.bench_with_input(BenchmarkId::from_parameter(&label), &g, |b, g| {
                b.iter(|| {
                    let run = run_near_clique_phased(
                        g,
                        &params,
                        7,
                        Engine::Async {
                            delay,
                            sync,
                            fault: FaultModel::None,
                            churn: ChurnModel::None,
                        },
                        &plan,
                    );
                    overhead.set(run.overhead);
                    run.metrics.messages
                });
            });
            group.annotate("control_messages", overhead.get().control_messages);
            group.annotate("control_bits", overhead.get().control_bits);
        }
    }
    group.finish();
}

fn bench_near_clique_alpha(c: &mut Criterion) {
    let n = if smoke() { 160 } else { 1000 };
    near_clique_alpha_at(
        c,
        n,
        &[
            DelayModel::Uniform { max_delay: 8 },
            DelayModel::HeavyTailed { max_delay: 8 },
            DelayModel::Adversarial { max_delay: 8 },
        ],
        5,
    );
}

/// The event plane at scale: five-fold the nodes (and event population)
/// of the n = 1000 group, one delay model — enough to read the scaling
/// of both synchronizers.
fn bench_near_clique_alpha_large(c: &mut Criterion) {
    let n = if smoke() { 320 } else { 5000 };
    near_clique_alpha_at(c, n, &[DelayModel::Uniform { max_delay: 8 }], 3);
}

/// The event plane in isolation: wheel vs the heap it replaced.
///
/// The workload mirrors the engine's churn without protocol logic: a
/// pool of in-flight events where every handled event schedules one
/// successor at a bounded random delay, until `total` events flowed.
/// The `heap_parked` row reproduces the old plumbing exactly — keys in a
/// `BinaryHeap<Reverse<(time, seq, dest, port)>>`, envelopes parked in a
/// `BTreeMap<seq, _>` — and the `wheel` row is the replacement, envelope
/// riding inside its slab-chunk wheel entry.
fn bench_wheel_vs_heap(c: &mut Criterion) {
    use congest::rng::splitmix64;
    use congest::EventWheel;
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};

    const MAX_DELAY: u64 = 8;
    const IN_FLIGHT: usize = 4096;
    let total: u64 = if smoke() { 20_000 } else { 2_000_000 };

    /// The envelope the engine ships per event (payload pulse + word).
    #[derive(Clone)]
    struct Envelope {
        _pulse: u64,
        word: u64,
    }

    let mut group = c.benchmark_group("async_plane/wheel_vs_heap");
    group.sample_size(if smoke() { 1 } else { 10 });

    group.bench_function(BenchmarkId::from_parameter("wheel"), |b| {
        b.iter(|| {
            let mut wheel: EventWheel<(u32, u32, Envelope)> = EventWheel::new(MAX_DELAY);
            let mut rng = 0x5EEDu64;
            let mut draw = || {
                rng = splitmix64(rng);
                1 + rng % MAX_DELAY
            };
            for i in 0..IN_FLIGHT {
                wheel.schedule(draw(), (i as u32, 0, Envelope { _pulse: 0, word: i as u64 }));
            }
            let mut handled = 0u64;
            let mut check = 0u64;
            while let Some((t, (to, _port, env))) = wheel.pop_next() {
                handled += 1;
                check = check.wrapping_add(env.word ^ t);
                if handled + wheel.pending() < total {
                    wheel.schedule(t + draw(), (to, 1, Envelope { _pulse: t, word: check }));
                }
            }
            assert_eq!(handled, total);
            check
        });
    });

    group.bench_function(BenchmarkId::from_parameter("heap_parked"), |b| {
        b.iter(|| {
            let mut heap: BinaryHeap<Reverse<(u64, u64, usize, usize)>> = BinaryHeap::new();
            let mut parked: BTreeMap<u64, Envelope> = BTreeMap::new();
            let mut seq = 0u64;
            let mut rng = 0x5EEDu64;
            let mut draw = || {
                rng = splitmix64(rng);
                1 + rng % MAX_DELAY
            };
            for i in 0..IN_FLIGHT {
                parked.insert(seq, Envelope { _pulse: 0, word: i as u64 });
                heap.push(Reverse((draw(), seq, i, 0)));
                seq += 1;
            }
            let mut handled = 0u64;
            let mut check = 0u64;
            while let Some(Reverse((t, s, to, _port))) = heap.pop() {
                let env = parked.remove(&s).expect("parked envelope exists");
                handled += 1;
                check = check.wrapping_add(env.word ^ t);
                if handled + (heap.len() as u64) < total {
                    parked.insert(seq, Envelope { _pulse: t, word: check });
                    heap.push(Reverse((t + draw(), seq, to, 1)));
                    seq += 1;
                }
            }
            assert_eq!(handled, total);
            check
        });
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_gossip_models,
    bench_near_clique_alpha,
    bench_near_clique_alpha_large,
    bench_wheel_vs_heap
);
criterion_main!(benches);
