//! The million-node gossip workload: every node broadcasts a one-bit
//! message for [`ROUNDS`] rounds on a streamed sparse G(n, p), built
//! through `Session::on_stream` and run on two shards. Callbacks are
//! trivial, so the delivery plane and the CSR route table do the work.

use congest::{
    Context, Driver, Engine, Message, Metrics, MetricsMode, Port, Protocol, RunLimits, RunReport,
    Session, SessionDriver, Termination, Topology, TraceConfig,
};
use graphs::generators::GnpStream;
use graphs::EdgeStream;

use crate::common::{expect, median, peak_rss_mb, timed, EndToEnd, Layers, Tally, Timed};
use crate::{Seeds, SETUPS};

const N: usize = 1_000_000;
const DEGREE: f64 = 16.0;
const GRAPH_SEED: u64 = 2009;
const ROUNDS: u64 = 8;
const SHARDS: usize = 2;

#[derive(Clone, Debug)]
struct Bit;

impl Message for Bit {
    fn bit_size(&self) -> usize {
        1
    }
}

/// Broadcasts one bit per round for `rounds` rounds.
struct Gossip {
    rounds: u64,
}

impl Protocol for Gossip {
    type Msg = Bit;
    type Output = ();

    fn init(&mut self, ctx: &mut Context<'_, Bit>) {
        ctx.broadcast(Bit);
    }

    fn step(&mut self, ctx: &mut Context<'_, Bit>, _inbox: &[(Port, Bit)]) {
        if ctx.round() < self.rounds {
            ctx.broadcast(Bit);
        }
    }

    fn is_idle(&self) -> bool {
        true
    }

    fn output(&self) {}
}

fn seeds(seed: u64) -> Seeds {
    Seeds { graph: GRAPH_SEED + seed, run: GRAPH_SEED + seed }
}

fn stream(seeds: Seeds) -> GnpStream {
    GnpStream::new(N, DEGREE / (N - 1) as f64, seeds.graph)
}

/// Directed ports (Σ deg = 2m), counted by one pass over a fresh stream
/// — independent of the engine's own route table. Returns the pass's
/// wall time too.
fn count_ports(seeds: Seeds) -> (u64, f64) {
    let mut edges = stream(seeds);
    let (count, wall) = timed(|| {
        edges.reset();
        std::iter::from_fn(|| edges.next_edge()).count() as u64
    });
    (2 * count, wall)
}

fn build<P: Protocol>(
    seeds: Seeds,
    shards: usize,
    profile: bool,
    wrap: impl Fn(Gossip) -> P,
) -> (SessionDriver<P>, f64) {
    let mut edges = stream(seeds);
    let mut session = Session::on_stream(&mut edges)
        .seed(seeds.run)
        .engine(Engine::Flat { shards })
        .metrics(MetricsMode::Streaming)
        .limits(RunLimits::rounds(ROUNDS + 2));
    if profile {
        session = session.trace(TraceConfig::profile_only());
    }
    timed(|| session.build_with(|_| wrap(Gossip { rounds: ROUNDS })))
}

/// [`SETUPS`] timed builds, each dropped before the next so that no two
/// coexist. Returns their times, `VmHWM` after the first, and the last.
fn set_up(seeds: Seeds) -> (Vec<f64>, f64, SessionDriver<Gossip>) {
    let mut walls = Vec::new();
    let mut first_peak = 0.0;
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let (driver, wall) = build(seeds, SHARDS, false, |p| p);
        walls.push(wall);
        ready = Some(driver);
        if walls.len() == 1 {
            first_peak = peak_rss_mb();
        }
    }
    (walls, first_peak, ready.expect("at least one set-up"))
}

/// Checks one run against the closed form: every node broadcasts on
/// each of [`ROUNDS`] rounds, so `ROUNDS · Σ deg` one-bit messages.
fn check(report: &RunReport, ports: u64, first: Option<&Metrics>) -> Vec<String> {
    let mut failures = Vec::new();
    let metrics = &report.metrics;
    expect(&mut failures, report.termination == Termination::Quiescent, "run did not quiesce");
    expect(&mut failures, metrics.rounds == ROUNDS, "round count differs from the gossip length");
    expect(
        &mut failures,
        metrics.messages == ROUNDS * ports,
        "messages differ from rounds · Σ deg",
    );
    expect(&mut failures, metrics.total_bits == metrics.messages, "a message was not one bit");
    expect(&mut failures, report.overhead.is_zero(), "the flat engine paid control traffic");
    if let Some(first) = first {
        expect(&mut failures, metrics == first, "repetition differs from the verified run");
    }
    failures
}

pub fn end_to_end(seed: u64, seconds: f64, tally: &mut Tally) -> (EndToEnd, Seeds) {
    let seeds = seeds(seed);
    let (ports, _) = count_ports(seeds);
    let (setups, _, driver) = set_up(seeds);

    let mut ready = Some(driver);
    let mut verified: Option<Metrics> = None;
    let mut walls = Vec::new();
    let start = std::time::Instant::now();
    loop {
        let mut driver = match ready.take() {
            Some(driver) => driver,
            None => build(seeds, SHARDS, false, |p| p).0,
        };
        let (report, wall) = timed(|| driver.run());
        walls.push(wall);
        tally.record("run", &check(&report, ports, verified.as_ref()));
        verified.get_or_insert(report.metrics);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let verified = verified.expect("at least one run");
    let e2e = EndToEnd {
        setup_walls: setups,
        run_walls: walls,
        messages: verified.messages,
        control_messages: 0,
        peak_rss_mb: peak_rss_mb(),
        rounds: verified.rounds,
        total_bits: verified.total_bits,
    };
    (e2e, seeds)
}

/// The traced pass: an untraced run on two shards, then the callback
/// wrapper, a profile-only recorder and a one-shard run; every run must
/// meet the closed form and equal the first.
pub fn traced(seed: u64, tally: &mut Tally) -> (Layers, Seeds) {
    let seeds = seeds(seed);
    let (ports, generate_s) = count_ports(seeds);
    let (builds, build_peak_rss_mb, mut driver) = set_up(seeds);
    let mut layers =
        Layers { generate_s, build_s: median(&builds), build_peak_rss_mb, ..Layers::default() };
    let (report, untraced) = timed(|| driver.run());
    drop(driver);
    tally.record("untraced run", &check(&report, ports, None));
    let verified = report.metrics;
    layers.untraced_run_s = untraced;
    layers.flat_run_s = untraced;

    let (mut driver, _) = build(seeds, SHARDS, false, Timed::new);
    let (report, traced) = timed(|| driver.run());
    tally.record("callback-timed run", &check(&report, ports, Some(&verified)));
    layers.traced_run_s = traced;
    for v in 0..driver.node_count() {
        layers.callback_s += driver.protocol(v).ns() as f64 / 1e9;
        layers.calls += driver.protocol(v).calls();
    }
    drop(driver);

    let (mut driver, _) = build(seeds, SHARDS, true, |p| p);
    let (report, profiled) = timed(|| driver.run());
    drop(driver);
    let mut failures = check(&report, ports, Some(&verified));
    expect(&mut failures, report.profile.is_some(), "profiled run returned no profile");
    tally.record("profile-only run", &failures);
    let profile = report.profile.unwrap_or_default();
    layers.profile_run_s = profiled;
    layers.max_wheel_occupancy = profile.max_wheel_occupancy;
    layers.max_queue_depth = profile.max_queue_depth;
    layers.safe_waves = profile.safe_waves;
    layers.ctrl_sends = profile.ctrl_sends;

    let (mut driver, _) = build(seeds, 1, false, |p| p);
    let (report, one_shard) = timed(|| driver.run());
    drop(driver);
    tally.record("one-shard run", &check(&report, ports, Some(&verified)));
    layers.shard_speedup = one_shard / untraced;

    layers.payload_messages = verified.messages;
    layers.payload_bits = verified.total_bits;
    layers.barriers = verified.barriers;
    let topology = Topology::from_edge_stream(&mut stream(seeds), SHARDS);
    layers.bytes_per_port = topology.heap_bytes() as f64 / topology.port_count() as f64;
    (layers, seeds)
}
