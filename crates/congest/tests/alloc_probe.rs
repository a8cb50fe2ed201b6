//! Allocation probe: a steady-state round of the flat message plane —
//! and, since the timing-wheel event plane, a steady-state pulse of the
//! synchronizer-α engine — must perform **zero heap allocations**.
//!
//! A counting `#[global_allocator]` wraps the system allocator. After a
//! warm-up (chunk pools, transfer buffers and inboxes reach their
//! high-water marks) and a [`congest::Driver::reserve_rounds`] call (the
//! per-round metrics history is the one structure that grows with round
//! count), executing hundreds of additional rounds must allocate exactly
//! as much as executing zero rounds — i.e. only the constant-size
//! `RunReport` that a drive returns.
//!
//! The probe runs through the unified [`congest::Session`] surface, so
//! the guarantee covers the production entry path, not just the engine
//! internals.
//!
//! The counters are process-global on purpose: `Engine::Flat` with more
//! than one shard allocates on its worker threads, and those allocations
//! must count. libtest runs tests concurrently, so every probe holds
//! [`serialized`]'s lock for its whole body — one probe's measurement
//! window never overlaps another probe's allocations, nor the harness's
//! own bookkeeping between probes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use congest::{
    ChurnModel, Context, DelayModel, Driver, Engine, FaultModel, Message, Mode, Port, Protocol,
    RunLimits, Session, SyncModel, Termination, Topology, TraceConfig,
};
use graphs::generators::GnpStream;
use graphs::{EdgeStream, GraphBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently live (allocated − freed) through this allocator.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE_BYTES`] since the last [`reset_peak_bytes`].
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

fn bump_live(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates verbatim to `System`; only counters are added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        bump_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump_live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        bump_live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by every probe for its whole body (see the module docs).
static PROBE: Mutex<()> = Mutex::new(());

/// Takes the probe lock, then waits until the allocation counter holds
/// still. When the previous probe releases the lock, the harness records
/// its result and starts the next test thread (which then blocks on this
/// lock); those allocations land before this probe opens a window. A
/// probe that failed while holding the lock poisons it; the next probe
/// still runs, since a panic leaves the counters consistent.
fn serialized() -> MutexGuard<'static, ()> {
    let guard = PROBE.lock().unwrap_or_else(PoisonError::into_inner);
    let mut quiet_spells = 0;
    while quiet_spells < 3 {
        let before = allocations();
        std::thread::sleep(Duration::from_millis(5));
        quiet_spells = if allocations() == before { quiet_spells + 1 } else { 0 };
    }
    guard
}

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Starts a peak-tracking region: the next [`peak_bytes_since`] reports
/// the high-water mark of live bytes relative to the returned baseline.
fn reset_peak_bytes() -> i64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

fn peak_bytes_since(base: i64) -> usize {
    (PEAK_BYTES.load(Ordering::Relaxed) - base).max(0) as usize
}

/// A message with no payload allocation.
#[derive(Clone, Debug)]
struct Tick;

impl Message for Tick {
    fn bit_size(&self) -> usize {
        1
    }
}

/// Perpetual traffic: every received message is echoed back on its port,
/// and `init` seeds one message per port — so every directed edge carries
/// exactly one message every round, forever. The network never quiesces
/// and per-round state never grows: the steady state the probe needs.
struct Echo;

impl Protocol for Echo {
    type Msg = Tick;
    type Output = ();

    fn init(&mut self, ctx: &mut Context<'_, Tick>) {
        ctx.broadcast(Tick);
    }

    fn step(&mut self, ctx: &mut Context<'_, Tick>, inbox: &[(Port, Tick)]) {
        for &(port, _) in inbox {
            ctx.send(port, Tick);
        }
    }

    fn is_idle(&self) -> bool {
        true
    }

    fn output(&self) {}
}

fn ring_with_chords(n: usize) -> graphs::Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n);
    }
    for i in (0..n).step_by(7) {
        b.add_edge(i, (i + n / 2) % n);
    }
    b.build()
}

fn probe(mode: Mode) {
    let _probe = serialized();
    let g = ring_with_chords(64);
    let mut net = Session::on(&g).mode(mode).seed(5).build_with(|_| Echo);

    // Warm-up: reach every pool's high-water mark.
    let report = net.drive(RunLimits::rounds(64), &mut ());
    assert_eq!(report.termination, Termination::RoundLimit, "echo traffic never quiesces");
    net.reserve_rounds(4096);

    // Wrapper cost: a zero-round drive still clones metrics into its
    // report. Steady-state rounds must add nothing beyond that.
    let before = allocations();
    net.drive(RunLimits::rounds(0), &mut ());
    let wrapper = allocations() - before;

    let before = allocations();
    net.drive(RunLimits::rounds(512), &mut ());
    let with_rounds = allocations() - before;

    assert_eq!(
        with_rounds,
        wrapper,
        "512 steady-state {mode:?} rounds performed {} heap allocations",
        with_rounds.saturating_sub(wrapper)
    );
}

#[test]
fn congest_rounds_do_not_allocate() {
    probe(Mode::Congest);
}

#[test]
fn local_rounds_do_not_allocate() {
    probe(Mode::Local);
}

/// Broadcast records and their write-outs are allocation-free too: every
/// round each node broadcasts, which the flat engine stores as one
/// record, and then sends on port 0, which writes the record out into
/// per-port copies and queues a second message behind one of them. In
/// LOCAL every port is empty again by the next step, so this happens
/// every round; a CONGEST port holds its second message a round longer,
/// so there the node casts every other round.
///
/// On one shard, 512 steady-state rounds allocate nothing. A sharded
/// round spawns its worker threads and collects its locked transfer
/// cells afresh, a fixed number of allocations per round whatever the
/// traffic, so on two shards the probe holds the run to exactly what the
/// same traffic sent port by port allocates.
#[test]
fn broadcast_write_outs_do_not_allocate() {
    struct CastThenSend {
        every: u64,
        records: bool,
    }
    impl Protocol for CastThenSend {
        type Msg = Tick;
        type Output = ();

        fn init(&mut self, ctx: &mut Context<'_, Tick>) {
            self.step(ctx, &[]);
        }

        fn step(&mut self, ctx: &mut Context<'_, Tick>, _inbox: &[(Port, Tick)]) {
            if ctx.round() % self.every == 0 {
                if self.records {
                    ctx.broadcast(Tick);
                } else {
                    for port in 0..ctx.degree() {
                        ctx.send(port, Tick);
                    }
                }
                ctx.send(0, Tick);
            }
        }

        fn is_idle(&self) -> bool {
            true
        }

        fn output(&self) {}
    }

    let _probe = serialized();
    let g = ring_with_chords(64);
    // Each cast sends one copy per port and one more per node, and all of
    // it is delivered within `every` rounds.
    let per_cast = 2 * g.edge_count() as u64 + g.node_count() as u64;
    for (mode, every) in [(Mode::Local, 1), (Mode::Congest, 2)] {
        for shards in [1, 2] {
            let steady = |records: bool| {
                let mut net = Session::on(&g)
                    .mode(mode)
                    .seed(5)
                    .engine(Engine::Flat { shards })
                    .build_with(|_| CastThenSend { every, records });
                let report = net.drive(RunLimits::rounds(64), &mut ());
                assert_eq!(report.termination, Termination::RoundLimit, "the casts never stop");
                net.reserve_rounds(4096);

                let before = allocations();
                net.drive(RunLimits::rounds(0), &mut ());
                let wrapper = allocations() - before;

                let before = allocations();
                let report = net.drive(RunLimits::rounds(512), &mut ());
                let with_rounds = allocations() - before;
                assert_eq!(report.metrics.messages, 576 / every * per_cast, "{mode:?}");
                with_rounds.saturating_sub(wrapper)
            };
            let (records, per_port) = (steady(true), steady(false));
            assert_eq!(
                records, per_port,
                "512 steady-state {mode:?} rounds on {shards} shards performed {records} heap \
                 allocations with records and {per_port} with per-port sends"
            );
            if shards == 1 {
                assert_eq!(
                    records, 0,
                    "512 steady-state {mode:?} rounds allocated {records} times"
                );
            }
        }
    }
}

/// Pipelined trains (multi-chunk queues) also reach an allocation-free
/// steady state: chunk recycling must cover queue depths > one chunk.
#[test]
fn deep_queues_do_not_allocate() {
    let _probe = serialized();
    struct Burst;
    impl Protocol for Burst {
        type Msg = Tick;
        type Output = ();

        fn init(&mut self, ctx: &mut Context<'_, Tick>) {
            for _ in 0..40 {
                ctx.send(0, Tick);
            }
        }

        fn step(&mut self, ctx: &mut Context<'_, Tick>, inbox: &[(Port, Tick)]) {
            // Re-enqueue a fresh 40-deep train whenever the previous one
            // has fully drained (every 40 rounds, in lock step).
            if ctx.round() % 40 == 0 {
                for _ in 0..40 {
                    ctx.send(0, Tick);
                }
            }
            let _ = inbox;
        }

        fn is_idle(&self) -> bool {
            true
        }

        fn output(&self) {}
    }

    let mut b = GraphBuilder::new(2);
    b.add_edge(0, 1);
    let g = b.build();
    let mut net = Session::on(&g).seed(1).build_with(|_| Burst);
    net.drive(RunLimits::rounds(100), &mut ());
    net.reserve_rounds(4096);

    let before = allocations();
    net.drive(RunLimits::rounds(0), &mut ());
    let wrapper = allocations() - before;

    let before = allocations();
    net.drive(RunLimits::rounds(400), &mut ());
    let with_rounds = allocations() - before;

    assert_eq!(
        with_rounds,
        wrapper,
        "deep-queue steady state allocated {} times",
        with_rounds.saturating_sub(wrapper)
    );
}

/// The asynchronous engine's steady state is **zero-allocation**, same
/// as the flat plane's: the event plumbing is the timing wheel
/// (in-flight envelopes ride its recycled pooled blocks), payloads stage
/// in rotating parity-indexed inboxes on the port queues' chunk slab,
/// `DelayModel` sampling never allocates (per-port tables are built
/// once), and the synchronizer layer's gating state (α safe counters,
/// batched token counters, the ready worklist) is fixed-size per node.
/// Once warmed, hundreds of further pulses must allocate exactly as
/// much as a zero-pulse drive — i.e. only the constant-size `RunReport`
/// wrapper — under **all four** delay models × **both** synchronizers.
#[test]
fn async_pulses_do_not_allocate() {
    let _probe = serialized();
    let g = ring_with_chords(32);
    for delay in [
        DelayModel::Uniform { max_delay: 4 },
        DelayModel::PerLink { max_delay: 4 },
        DelayModel::HeavyTailed { max_delay: 4 },
        DelayModel::Adversarial { max_delay: 4 },
    ] {
        for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
            let mut net = Session::on(&g)
                .seed(5)
                .engine(Engine::Async {
                    delay,
                    sync,
                    fault: FaultModel::None,
                    churn: ChurnModel::None,
                })
                .limits(RunLimits::rounds(1024))
                .build_with(|_| Echo);

            // Warm-up: queue slabs, the wheel's block pool and inbox
            // chunks reach their high-water marks; reserve the cumulative
            // histories.
            net.reserve_rounds(1024);
            net.drive(RunLimits::rounds(256), &mut ());

            // Wrapper cost: a zero-pulse drive still clones metrics into
            // its report. Steady-state pulses must add exactly nothing.
            let before = allocations();
            net.drive(RunLimits::rounds(0), &mut ());
            let wrapper = allocations() - before;

            let before = allocations();
            net.drive(RunLimits::rounds(256), &mut ());
            let with_pulses = allocations() - before;

            assert_eq!(
                with_pulses,
                wrapper,
                "{delay:?}, {sync:?}: 256 steady-state pulses performed {} heap allocations",
                with_pulses.saturating_sub(wrapper)
            );
        }
    }
}

/// The fault plane's steady state is equally **zero-allocation**:
/// per-send drop sampling is one splitmix64 step on a pre-seeded
/// stream, link-flap schedules are compiled into per-port phase tables
/// at build time (same pattern as the delay tables), retransmissions
/// ride the same pooled wheel blocks as first sends, and fault
/// events go to the trace sink, which is absent here. Once past the
/// warm-up (which
/// includes the crash/recover transition for [`FaultModel::Crash`]),
/// hundreds of faulty pulses must allocate exactly as much as a
/// zero-pulse drive, under every fault model × both synchronizers.
#[test]
fn faulty_pulses_do_not_allocate() {
    let _probe = serialized();
    let g = ring_with_chords(32);
    for fault in [
        FaultModel::Drop { p_millis: 100 },
        FaultModel::LinkFlap { down_len: 3, up_len: 5 },
        FaultModel::Crash { victims: 2, at_pulse: 8, recover_after: 16 },
    ] {
        for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
            let mut net = Session::on(&g)
                .seed(5)
                .engine(Engine::Async {
                    delay: DelayModel::Uniform { max_delay: 4 },
                    sync,
                    fault,
                    churn: ChurnModel::None,
                })
                .limits(RunLimits::rounds(1024))
                .build_with(|_| Echo);

            // Warm-up: wheel buckets absorb the retransmit horizon and
            // the crash model plays out its one-time down/up transition.
            net.reserve_rounds(1024);
            net.drive(RunLimits::rounds(256), &mut ());

            let before = allocations();
            net.drive(RunLimits::rounds(0), &mut ());
            let wrapper = allocations() - before;

            let before = allocations();
            net.drive(RunLimits::rounds(256), &mut ());
            let with_pulses = allocations() - before;

            assert_eq!(
                with_pulses,
                wrapper,
                "{fault:?}, {sync:?}: 256 faulty steady-state pulses performed {} heap \
                 allocations",
                with_pulses.saturating_sub(wrapper)
            );
        }
    }
}

/// The churn plane's steady state is equally **zero-allocation**: the
/// membership schedule is compiled into per-node join/leave pulse
/// tables at build time, the [`congest::ChurnModel`] overlay
/// (presence flags, per-port liveness, live degrees) is fully
/// pre-reserved and epoch transitions mutate it in place, and churn
/// events go to the trace sink, which is absent here. With **every
/// membership transition placed inside the warm-up drive**, hundreds of
/// churned steady-state pulses must allocate
/// exactly as much as a zero-pulse drive, under every churn model ×
/// both synchronizers.
#[test]
fn churned_pulses_do_not_allocate() {
    let _probe = serialized();
    let g = ring_with_chords(32);
    let policy = congest::ChurnPolicy::Continue;
    for churn in [
        ChurnModel::Join { joiners: 3, at_pulse: 8, spacing: 8, policy },
        ChurnModel::Leave { leavers: 3, at_pulse: 8, spacing: 8, policy },
        ChurnModel::Mixed { joiners: 2, leavers: 2, at_pulse: 8, spacing: 8, policy },
    ] {
        for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
            let mut net = Session::on(&g)
                .seed(5)
                .engine(Engine::Async {
                    delay: DelayModel::Uniform { max_delay: 4 },
                    sync,
                    fault: FaultModel::None,
                    churn,
                })
                .limits(RunLimits::rounds(1024))
                .build_with(|_| Echo);

            // Warm-up: every scheduled join and leave fires (the last
            // membership event lands by pulse 32 ≪ 256).
            net.reserve_rounds(1024);
            let report = net.drive(RunLimits::rounds(256), &mut ());
            assert!(report.overhead.epochs > 0, "{churn:?}: warm-up must play out the churn");

            let before = allocations();
            net.drive(RunLimits::rounds(0), &mut ());
            let wrapper = allocations() - before;

            let before = allocations();
            net.drive(RunLimits::rounds(256), &mut ());
            let with_pulses = allocations() - before;

            assert_eq!(
                with_pulses,
                wrapper,
                "{churn:?}, {sync:?}: 256 churned steady-state pulses performed {} heap \
                 allocations",
                with_pulses.saturating_sub(wrapper)
            );
        }
    }
}

/// Recording does not break the zero-allocation contract: with a ring
/// [`congest::TraceSink`] installed via [`Session::trace`], steady-state
/// pulses (and flat rounds) must still allocate exactly as much as a
/// zero-round drive. The ring is preallocated at build time and
/// overwrites in place once full; the streaming profile is fixed-size
/// arrays and scalars, so even the per-drive profile snapshot cloned
/// into the `RunReport` stays off the heap. Fault and churn events are
/// recorded into the same ring, so a faulty and a churned engine (every
/// membership transition inside the warm-up) hold the same contract.
#[test]
fn traced_pulses_do_not_allocate() {
    let _probe = serialized();
    let g = ring_with_chords(32);
    let policy = congest::ChurnPolicy::Continue;
    let engines = [
        Engine::Flat { shards: 1 },
        Engine::Async {
            delay: DelayModel::Uniform { max_delay: 4 },
            sync: SyncModel::Alpha,
            fault: FaultModel::None,
            churn: ChurnModel::None,
        },
        Engine::Async {
            delay: DelayModel::Uniform { max_delay: 4 },
            sync: SyncModel::BatchedAlpha,
            fault: FaultModel::None,
            churn: ChurnModel::None,
        },
        Engine::Async {
            delay: DelayModel::Uniform { max_delay: 4 },
            sync: SyncModel::Alpha,
            fault: FaultModel::Drop { p_millis: 100 },
            churn: ChurnModel::None,
        },
        Engine::Async {
            delay: DelayModel::Uniform { max_delay: 4 },
            sync: SyncModel::BatchedAlpha,
            fault: FaultModel::None,
            churn: ChurnModel::Mixed { joiners: 2, leavers: 2, at_pulse: 8, spacing: 8, policy },
        },
    ];
    for engine in engines {
        let mut net = Session::on(&g)
            .seed(5)
            .engine(engine)
            .limits(RunLimits::rounds(1024))
            .trace(TraceConfig::events(1 << 12))
            .build_with(|_| Echo);

        // Warm-up long enough that the trace ring wraps and every pool
        // reaches its high-water mark.
        net.reserve_rounds(1024);
        net.drive(RunLimits::rounds(256), &mut ());
        assert!(
            net.trace_sink().is_some_and(|s| s.profile().records > 0),
            "{engine:?}: the recorder must have been active during warm-up"
        );

        let before = allocations();
        net.drive(RunLimits::rounds(0), &mut ());
        let wrapper = allocations() - before;

        let before = allocations();
        net.drive(RunLimits::rounds(256), &mut ());
        let with_pulses = allocations() - before;

        assert_eq!(
            with_pulses,
            wrapper,
            "{engine:?}: 256 traced steady-state rounds performed {} heap allocations",
            with_pulses.saturating_sub(wrapper)
        );
    }
}

/// The batched synchronizer's *sparse* path — idle ports cleared by
/// coalesced waves, gates completed eagerly through the ready worklist —
/// is equally allocation-free. The echo probe above keeps every port
/// loaded (pure piggyback path); here only one port per node ever
/// carries payloads, so every pulse floods the wave/wake machinery.
#[test]
fn batched_sparse_pulses_do_not_allocate() {
    let _probe = serialized();
    /// Each node forwards one token on port 0 every pulse; every other
    /// port stays idle forever.
    struct Trickle;
    impl Protocol for Trickle {
        type Msg = Tick;
        type Output = ();

        fn init(&mut self, ctx: &mut Context<'_, Tick>) {
            ctx.send(0, Tick);
        }

        fn step(&mut self, ctx: &mut Context<'_, Tick>, inbox: &[(Port, Tick)]) {
            let _ = inbox;
            ctx.send(0, Tick);
        }

        fn is_idle(&self) -> bool {
            true
        }

        fn output(&self) {}
    }

    let g = ring_with_chords(32);
    let mut net = Session::on(&g)
        .seed(7)
        .engine(Engine::Async {
            delay: DelayModel::Uniform { max_delay: 4 },
            sync: SyncModel::BatchedAlpha,
            fault: FaultModel::None,
            churn: ChurnModel::None,
        })
        .limits(RunLimits::rounds(1024))
        .build_with(|_| Trickle);

    net.reserve_rounds(1024);
    net.drive(RunLimits::rounds(256), &mut ());

    let before = allocations();
    net.drive(RunLimits::rounds(0), &mut ());
    let wrapper = allocations() - before;

    let before = allocations();
    net.drive(RunLimits::rounds(256), &mut ());
    let with_pulses = allocations() - before;

    assert_eq!(
        with_pulses,
        wrapper,
        "sparse batched steady state performed {} heap allocations",
        with_pulses.saturating_sub(wrapper)
    );
}

/// A 24-byte message, the size of `DistNearClique`'s `Msg`. The `bool`
/// gives `Option<Word>` a niche, as `Msg`'s enum tag does, so an inline
/// queue slot costs the message's own 24 bytes.
#[derive(Clone, Debug)]
struct Word {
    /// The last two senders' IDs.
    ids: [u64; 2],
    hops: u32,
    echo: bool,
}

impl Message for Word {
    fn bit_size(&self) -> usize {
        64
    }
}

/// [`Echo`] with a [`Word`] payload: every directed port holds one
/// message between rounds.
struct WordEcho;

impl Protocol for WordEcho {
    type Msg = Word;
    type Output = ();

    fn init(&mut self, ctx: &mut Context<'_, Word>) {
        ctx.broadcast(Word { ids: [0, ctx.id()], hops: 0, echo: false });
    }

    fn step(&mut self, ctx: &mut Context<'_, Word>, inbox: &[(Port, Word)]) {
        for (port, w) in inbox {
            ctx.send(*port, Word { ids: [w.ids[1], ctx.id()], hops: w.hops + 1, echo: !w.echo });
        }
    }

    fn is_idle(&self) -> bool {
        true
    }

    fn output(&self) {}
}

/// The 64-byte staging line each receiving node gets on x86-64, where
/// the flat engine write-combines the placement of 32-byte entries,
/// spread over the run's `ports` directed ports.
fn staging_per_port(nodes: usize, ports: usize) -> f64 {
    let line = if cfg!(target_arch = "x86_64") { 64 } else { 0 };
    (nodes * line) as f64 / ports as f64
}

/// The broadcast record slot each node gets on the flat engine, one
/// `Option<Word>`, spread over the run's `ports` directed ports.
fn record_per_port(nodes: usize, ports: usize) -> f64 {
    (nodes * std::mem::size_of::<Option<Word>>()) as f64 / ports as f64
}

/// The run-time memory contract, byte-accounted: a CONGEST echo on a
/// G(n, p) instance of expected degree 16 keeps one 24-byte message
/// queued on every directed port between rounds, and the run's peak
/// live bytes — build included — come to what each port needs and no
/// more: its 12-byte route, its 8-byte neighbor ID in the endpoint
/// arena, its queue header with the message inline, and its entry in
/// the delivery bucket, plus each node's staging line and broadcast
/// record slot. Other per-node state must fit in 10% on top. A chunk per
/// busy port (200 bytes for this message) would more than double the
/// figure.
#[test]
fn congest_run_holds_one_message_per_port() {
    let _probe = serialized();
    assert_eq!(std::mem::size_of::<Option<Word>>(), 24, "Word must keep its niche");
    let n = 4000;
    let g = graphs::generators::gnp(n, 16.0 / (n - 1) as f64, &mut StdRng::seed_from_u64(16));
    let ports = 2 * g.edge_count();

    let base = reset_peak_bytes();
    let mut net = Session::on(&g).seed(3).build_with(|_| WordEcho);
    let report = net.drive(RunLimits::rounds(16), &mut ());
    let per_port = peak_bytes_since(base) as f64 / ports as f64;

    assert_eq!(
        report.metrics.messages,
        16 * ports as u64,
        "every port carries one message a round"
    );
    let route = 12;
    let arena = std::mem::size_of::<u64>();
    let header = 16 + std::mem::size_of::<Option<Word>>();
    let bucket_entry = std::mem::size_of::<(Port, Word)>();
    let staging = staging_per_port(n, ports);
    let record = record_per_port(n, ports);
    let model = (route + arena + header + bucket_entry) as f64 + staging + record;
    assert!(
        (model..=model * 1.1).contains(&per_port),
        "a CONGEST run peaked at {per_port:.1} B per directed port; the per-port model is \
         {model:.1} B (route {route} + arena {arena} + header {header} + bucket entry \
         {bucket_entry} + staging {staging:.1} + record slot {record:.1}), plus at most 10% \
         for per-node state"
    );
}

/// The same contract on two shards: a sharded round hands each message
/// from its sender's shard to its receiver's through exactly one
/// transfer buffer entry, so the per-port model is the one-shard model's
/// plus one `(receiver's port, destination node, message)` entry, 32
/// bytes for this message (each shard's nodes still get one staging line
/// and one record slot each). Holding each round's messages in a buffer of their own on
/// either side of the transfer buffer would add two more entries per
/// port.
#[test]
fn sharded_run_holds_one_transfer_entry_per_port() {
    let _probe = serialized();
    let n = 4000;
    let g = graphs::generators::gnp(n, 16.0 / (n - 1) as f64, &mut StdRng::seed_from_u64(16));
    let ports = 2 * g.edge_count();

    let base = reset_peak_bytes();
    let mut net =
        Session::on(&g).seed(3).engine(Engine::Flat { shards: 2 }).build_with(|_| WordEcho);
    let report = net.drive(RunLimits::rounds(16), &mut ());
    let per_port = peak_bytes_since(base) as f64 / ports as f64;

    assert_eq!(
        report.metrics.messages,
        16 * ports as u64,
        "every port carries one message a round"
    );
    let one_shard = 12
        + std::mem::size_of::<u64>()
        + 16
        + std::mem::size_of::<Option<Word>>()
        + std::mem::size_of::<(Port, Word)>();
    let transfer_entry = std::mem::size_of::<(u32, u32, Word)>();
    let staging = staging_per_port(n, ports);
    let record = record_per_port(n, ports);
    let model = (one_shard + transfer_entry) as f64 + staging + record;
    assert!(
        (model..=model * 1.1).contains(&per_port),
        "a two-shard CONGEST run peaked at {per_port:.1} B per directed port; the per-port \
         model is {model:.1} B (the one-shard {one_shard} B + transfer entry \
         {transfer_entry} + staging {staging:.1} + record slot {record:.1}), plus at most 10% \
         for per-node state"
    );
}

/// The O(1)-peak construction contract, byte-accounted: building a
/// [`Topology`] from an edge stream may allocate only the final CSR
/// arrays plus one `u32` placement cursor per node — no edge list, no
/// intermediate `Graph`. The materialized path (edge `Vec` → sort+dedup
/// `Graph` build → graph-walking topology compile), by contrast, holds
/// edge list, graph and route table live at once, so its peak must be
/// strictly — and substantially — higher on the same instance.
#[test]
fn streamed_build_peak_is_the_final_plane() {
    let _probe = serialized();
    let n = 10_000;
    let p = 8.0 / (n - 1) as f64;
    let mut stream = GnpStream::new(n, p, 33);

    // Materialized before-path, peak-tracked.
    let base = reset_peak_bytes();
    let topo = {
        let mut b = GraphBuilder::new(n);
        stream.reset();
        while let Some((u, v)) = stream.next_edge() {
            b.add_edge(u, v);
        }
        let g = b.build();
        Topology::from_graph(&g, 1)
    };
    let materialized_peak = peak_bytes_since(base);
    let ports = topo.port_count();
    drop(topo);

    // Streamed path on the identical instance.
    let base = reset_peak_bytes();
    let topo = Topology::from_edge_stream(&mut stream, 1);
    let streamed_peak = peak_bytes_since(base);

    assert_eq!(topo.port_count(), ports, "same instance on both paths");
    let final_plane = topo.heap_bytes();
    let cursor = n * std::mem::size_of::<u32>();
    let slack = 64 << 10; // stream state, Vec headers, allocator rounding
    assert!(
        streamed_peak <= final_plane + cursor + slack,
        "streamed build peaked at {streamed_peak} B; the final plane is {final_plane} B \
         (+{cursor} B cursor) — an O(m) transient has crept into the two-pass build"
    );
    assert!(
        materialized_peak > streamed_peak * 3 / 2,
        "materialized peak {materialized_peak} B vs streamed {streamed_peak} B — the \
         materialized path must cost strictly more (edge list + graph + topology live at once)"
    );
}
