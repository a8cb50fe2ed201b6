//! The observability plane's contract, end to end:
//!
//! 1. **Non-perturbation** — installing a recorder changes nothing the
//!    protocols or the meters can see: outputs, [`congest::Metrics`]
//!    and [`congest::SyncOverhead`] are bit-identical between a traced
//!    and an untraced run of the same `(seed, delay, sync, fault)`.
//! 2. **Determinism** — two traced runs of the same configuration
//!    export byte-identical JSONL and Chrome timelines, on every
//!    engine, including under active fault and churn planes (whose
//!    events the sink is the only record of).
//! 3. **Streaming metrics** — [`congest::MetricsMode::Streaming`] keeps
//!    scalar totals identical to the default full mode while retaining
//!    no per-round history.

use congest::{
    ChurnModel, ChurnPolicy, Context, DelayModel, Driver, Engine, FaultModel, Message, MetricsMode,
    Port, Protocol, RunLimits, RunReport, Session, SessionDriver, SyncModel, TraceConfig,
};
use graphs::GraphBuilder;

#[derive(Clone, Debug)]
struct Rumor;
impl Message for Rumor {
    fn bit_size(&self) -> usize {
        9
    }
}

#[derive(Debug)]
struct Flood {
    source: bool,
    heard_at: Option<u64>,
}

impl Protocol for Flood {
    type Msg = Rumor;
    type Output = Option<u64>;
    fn init(&mut self, ctx: &mut Context<'_, Rumor>) {
        if self.source {
            self.heard_at = Some(0);
            ctx.broadcast(Rumor);
        }
    }
    fn step(&mut self, ctx: &mut Context<'_, Rumor>, inbox: &[(Port, Rumor)]) {
        if !inbox.is_empty() && self.heard_at.is_none() {
            self.heard_at = Some(ctx.round());
            ctx.broadcast(Rumor);
        }
    }
    fn is_idle(&self) -> bool {
        true
    }
    fn output(&self) -> Option<u64> {
        self.heard_at
    }
}

fn make_flood(e: &congest::Endpoint) -> Flood {
    Flood { source: e.index == 0, heard_at: None }
}

fn ring_with_chords(n: usize) -> graphs::Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n);
    }
    for i in (0..n).step_by(5) {
        b.add_edge(i, (i + n / 2) % n);
    }
    b.build()
}

/// Engines (and fault and churn configurations) under test: the flat
/// plane, and both synchronizers on a perfect wire, under drops, link
/// flaps and a recovering crash, under mixed churn, and under a crash
/// plus mixed churn with epoch restarts — every fault and churn event
/// kind lands in the trace.
fn engines_under_test() -> Vec<Engine> {
    let delay = DelayModel::Uniform { max_delay: 4 };
    let crash = FaultModel::Crash { victims: 2, at_pulse: 4, recover_after: 5 };
    let mixed =
        |policy| ChurnModel::Mixed { joiners: 2, leavers: 2, at_pulse: 3, spacing: 2, policy };
    let mut engines = vec![Engine::Flat { shards: 1 }, Engine::Flat { shards: 3 }];
    for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
        for (fault, churn) in [
            (FaultModel::None, ChurnModel::None),
            (FaultModel::Drop { p_millis: 120 }, ChurnModel::None),
            (FaultModel::LinkFlap { down_len: 2, up_len: 5 }, ChurnModel::None),
            (crash, ChurnModel::None),
            (FaultModel::None, mixed(ChurnPolicy::Continue)),
            (crash, mixed(ChurnPolicy::Restart)),
        ] {
            engines.push(Engine::Async { delay, sync, fault, churn });
        }
    }
    engines
}

fn traced_run(
    engine: Engine,
    trace: Option<TraceConfig>,
) -> (Vec<Option<u64>>, RunReport, SessionDriver<Flood>) {
    let g = ring_with_chords(24);
    let mut session = Session::on(&g).seed(17).engine(engine).limits(RunLimits::rounds(16));
    if let Some(cfg) = trace {
        session = session.trace(cfg);
    }
    let mut driver = session.build_with(make_flood);
    let report = driver.run();
    let outputs = driver.outputs();
    (outputs, report, driver)
}

/// Tracing is purely observational: outputs, payload metrics and
/// synchronizer overhead are bit-identical with the recorder on or off.
#[test]
fn recorder_does_not_perturb_the_run() {
    for engine in engines_under_test() {
        let (out_off, rep_off, _) = traced_run(engine, None);
        let (out_on, rep_on, _) = traced_run(engine, Some(TraceConfig::default()));
        assert_eq!(out_off, out_on, "{engine:?}: outputs diverged under tracing");
        assert_eq!(rep_off.metrics, rep_on.metrics, "{engine:?}: metrics diverged");
        assert_eq!(rep_off.overhead, rep_on.overhead, "{engine:?}: overhead diverged");
        assert_eq!(rep_off.termination, rep_on.termination, "{engine:?}");
        assert!(rep_off.profile.is_none(), "untraced runs attach no profile");
        assert!(rep_on.profile.is_some(), "traced runs attach a profile");
    }
}

/// Same configuration, same seed ⇒ byte-identical JSONL and Chrome
/// exports, and equal profiles — on every engine, faults included.
#[test]
fn exports_are_byte_identical_across_runs() {
    for engine in engines_under_test() {
        let (_, rep_a, drv_a) = traced_run(engine, Some(TraceConfig::default()));
        let (_, rep_b, drv_b) = traced_run(engine, Some(TraceConfig::default()));
        let sink_a = drv_a.trace_sink().expect("recorder installed");
        let sink_b = drv_b.trace_sink().expect("recorder installed");
        assert!(!sink_a.is_empty(), "{engine:?}: the run must record events");
        assert_eq!(sink_a.to_jsonl(), sink_b.to_jsonl(), "{engine:?}: JSONL diverged");
        assert_eq!(
            sink_a.to_chrome_json(),
            sink_b.to_chrome_json(),
            "{engine:?}: Chrome export diverged"
        );
        assert_eq!(rep_a.profile, rep_b.profile, "{engine:?}: profiles diverged");
    }
}

/// Trace timestamps arrive in nondecreasing order (virtual time under
/// the asynchronous engine, round numbers under the flat plane), and
/// the JSONL export is one well-formed object per line.
#[test]
fn timelines_are_chronological() {
    for engine in engines_under_test() {
        let (_, _, driver) = traced_run(engine, Some(TraceConfig::default()));
        let sink = driver.trace_sink().expect("recorder installed");
        let mut last = 0u64;
        let mut ok = true;
        sink.for_each(|r| {
            ok &= r.at >= last;
            last = r.at;
        });
        assert!(ok, "{engine:?}: timestamps must be nondecreasing");
        for line in sink.to_jsonl().lines() {
            assert!(
                line.starts_with("{\"at\":") && line.ends_with('}'),
                "{engine:?}: malformed JSONL line: {line}"
            );
        }
    }
}

/// The streaming profile sees the traffic the meters see: under the
/// synchronizers, recorded control sends and per-pulse bit attribution
/// line up with the run's `SyncOverhead` and `Metrics` totals.
#[test]
fn profile_totals_match_the_meters() {
    let delay = DelayModel::Uniform { max_delay: 4 };
    for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
        let engine =
            Engine::Async { delay, sync, fault: FaultModel::None, churn: ChurnModel::None };
        let (_, report, _) = traced_run(engine, Some(TraceConfig::default()));
        let profile = report.profile.expect("traced run attaches a profile");
        assert!(profile.records > 0);
        assert!(profile.pulse_occupancy.count() > 0, "{sync:?}: pulse begins recorded");
        assert!(profile.wheel_occupancy.count() > 0, "{sync:?}: wheel sampled");
        assert!(profile.max_wheel_occupancy > 0, "{sync:?}: wheel high-water observed");
        assert!(profile.max_queue_depth > 0, "{sync:?}: queue high-water observed");
        // Payload bits attributed across pulse windows sum to the
        // payload meter (every delivery is attributed exactly once).
        assert_eq!(
            profile.payload_bits_per_pulse.sum(),
            report.metrics.total_bits,
            "{sync:?}: payload bit attribution must be exhaustive"
        );
        match sync {
            SyncModel::Alpha => {
                assert!(profile.ctrl_sends > 0, "α floods Ack/Safe envelopes");
                assert_eq!(profile.safe_waves, 0, "no coalesced waves under classic α");
            }
            SyncModel::BatchedAlpha => {
                assert!(profile.safe_waves > 0, "batched α coalesces Safe waves");
            }
        }
    }
}

/// An active drop plane shows up in the profile: retransmit timers and
/// fault events are counted, and they agree with the overhead meter —
/// one `Dropped` record per retransmission. Churn records likewise
/// count exactly the joins, leaves and retired payloads.
#[test]
fn faults_surface_in_the_profile() {
    let delay = DelayModel::Uniform { max_delay: 4 };
    let engine = Engine::Async {
        delay,
        sync: SyncModel::Alpha,
        fault: FaultModel::Drop { p_millis: 150 },
        churn: ChurnModel::None,
    };
    let (_, report, _) = traced_run(engine, Some(TraceConfig::default()));
    let profile = report.profile.expect("profile attached");
    assert!(report.overhead.retransmissions > 0, "the drop plane must have acted");
    assert_eq!(profile.retransmits, report.overhead.retransmissions);
    assert!(profile.faults > 0, "fault events must be recorded");
    assert_eq!(profile.faults, report.overhead.retransmissions, "one record per dropped send");

    for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
        let churn = ChurnModel::Mixed {
            joiners: 2,
            leavers: 2,
            at_pulse: 3,
            spacing: 2,
            policy: ChurnPolicy::Continue,
        };
        let engine = Engine::Async { delay, sync, fault: FaultModel::None, churn };
        let (_, report, _) = traced_run(engine, Some(TraceConfig::default()));
        let profile = report.profile.expect("profile attached");
        let overhead = report.overhead;
        assert_eq!(
            overhead.joins + overhead.leaves,
            4,
            "{sync:?}: the churn plane must have acted"
        );
        assert_eq!(
            profile.churn,
            overhead.joins + overhead.leaves + overhead.retired_messages,
            "{sync:?}: one record per join, leave and retired payload"
        );
    }
}

/// Every node re-broadcasts every round: on the flat engine each round
/// carries the same payload bits, so the per-pulse histograms are exact.
struct Beacon;

impl Protocol for Beacon {
    type Msg = Rumor;
    type Output = ();
    fn init(&mut self, ctx: &mut Context<'_, Rumor>) {
        ctx.broadcast(Rumor);
    }
    fn step(&mut self, ctx: &mut Context<'_, Rumor>, _inbox: &[(Port, Rumor)]) {
        ctx.broadcast(Rumor);
    }
    fn is_idle(&self) -> bool {
        true
    }
    fn output(&self) {}
}

/// A drive that records nothing — `drive(RunLimits::rounds(0))`, as the
/// alloc probes run between drives — leaves the per-pulse histograms
/// as they were: a split drive with a zero-budget drive in between
/// attributes bits exactly like one drive.
#[test]
fn zero_budget_drive_leaves_the_per_pulse_histograms_alone() {
    let mut b = GraphBuilder::new(8);
    for i in 0..8 {
        b.add_edge(i, (i + 1) % 8);
    }
    let g = b.build();
    let build = || {
        Session::on(&g)
            .seed(3)
            .limits(RunLimits::rounds(30))
            .trace(TraceConfig::default())
            .build_with(|_| Beacon)
    };
    let whole = build().drive(RunLimits::rounds(30), &mut ()).profile.expect("traced");
    let mut split = build();
    split.drive(RunLimits::rounds(4), &mut ());
    split.drive(RunLimits::rounds(0), &mut ());
    let split = split.drive(RunLimits::rounds(26), &mut ()).profile.expect("traced");
    assert_eq!(whole.payload_bits_per_pulse.count(), 30, "one window per round");
    assert_eq!(split.payload_bits_per_pulse, whole.payload_bits_per_pulse);
    assert_eq!(split.ctrl_bits_per_pulse, whole.ctrl_bits_per_pulse);
}

/// `TraceConfig::profile_only()` keeps the streaming aggregates with no
/// timeline ring at all.
#[test]
fn profile_only_config_keeps_no_timeline() {
    let engine = Engine::Async {
        delay: DelayModel::Uniform { max_delay: 3 },
        sync: SyncModel::BatchedAlpha,
        fault: FaultModel::None,
        churn: ChurnModel::None,
    };
    let (_, report, driver) = traced_run(engine, Some(TraceConfig::profile_only()));
    let sink = driver.trace_sink().expect("recorder installed");
    assert!(sink.is_empty(), "profile-only sinks retain no records");
    assert_eq!(sink.to_jsonl(), "", "nothing to export");
    let profile = report.profile.expect("profile still attached");
    assert!(profile.records > 0, "aggregation still ran");
    assert_eq!(profile.dropped, 0, "nothing counts as dropped when no ring exists");
}

/// Streaming metrics mode: scalar totals identical to full mode and no
/// per-round history — the O(1)-memory path for very long runs.
#[test]
fn streaming_metrics_keep_totals_and_drop_history() {
    let g = ring_with_chords(24);
    for engine in engines_under_test() {
        let run = |mode: MetricsMode| {
            let (outputs, report) = Session::on(&g)
                .seed(17)
                .engine(engine)
                .limits(RunLimits::rounds(16))
                .metrics(mode)
                .run_with(make_flood);
            (outputs, report)
        };
        let (out_full, rep_full) = run(MetricsMode::Full);
        let (out_stream, rep_stream) = run(MetricsMode::Streaming);
        assert_eq!(out_full, out_stream, "{engine:?}: outputs diverged across modes");
        assert_eq!(rep_full.metrics.rounds, rep_stream.metrics.rounds, "{engine:?}");
        assert_eq!(rep_full.metrics.messages, rep_stream.metrics.messages, "{engine:?}");
        assert_eq!(rep_full.metrics.total_bits, rep_stream.metrics.total_bits, "{engine:?}");
        assert_eq!(
            rep_full.metrics.max_message_bits, rep_stream.metrics.max_message_bits,
            "{engine:?}"
        );
        assert_eq!(rep_full.overhead, rep_stream.overhead, "{engine:?}");
        assert!(!rep_full.metrics.messages_per_round.is_empty(), "{engine:?}: full keeps history");
        assert!(
            rep_stream.metrics.messages_per_round.is_empty(),
            "{engine:?}: streaming keeps no history"
        );
    }
}
