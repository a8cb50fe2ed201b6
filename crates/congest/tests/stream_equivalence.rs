//! Streamed construction is *observationally invisible*: a session built
//! with [`Session::on_stream`] must be bit-identical — outputs, metrics,
//! synchronizer overhead, round counts, per-node RNG streams — to one
//! built with [`Session::on`] over the materialized form of the same
//! stream, across shard counts, both synchronizers and metrics modes.
//!
//! This is the congest-side companion of
//! `crates/graphs/tests/stream_equivalence.rs` (which pins generator ≡
//! stream at the edge-list level): here the whole engine runs on both
//! construction paths and every observable is compared.

use congest::{
    ChurnModel, Context, DelayModel, Driver, Engine, FaultModel, Message, MetricsMode, Port,
    Protocol, RunLimits, RunReport, Session, SyncModel,
};
use graphs::generators::{materialize, GnpStream, PlantedNearCliqueStream};
use graphs::EdgeStream;
use rand::Rng;

/// An id-carrying word, so payload metering sees realistic widths.
#[derive(Clone, Debug)]
struct Word(u64);

impl Message for Word {
    fn bit_size(&self) -> usize {
        64
    }
}

/// Randomized gossip: each round every node sends its running checksum
/// to one RNG-chosen port and folds everything it hears back in. The
/// output depends on the topology (port numbering!), the delivery
/// schedule, and the per-node RNG streams — if any of those differ
/// between the two construction paths, the checksums diverge.
struct Mixer {
    checksum: u64,
    rounds: u64,
}

impl Mixer {
    fn fold(&mut self, x: u64) {
        self.checksum = (self.checksum ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    }
}

impl Protocol for Mixer {
    type Msg = Word;
    type Output = u64;

    fn init(&mut self, ctx: &mut Context<'_, Word>) {
        self.fold(ctx.id());
        let degree = ctx.degree();
        if degree > 0 {
            let port = ctx.rng().gen_range(0..degree);
            ctx.send(port, Word(self.checksum));
        }
    }

    fn step(&mut self, ctx: &mut Context<'_, Word>, inbox: &[(Port, Word)]) {
        for &(port, Word(x)) in inbox {
            self.fold(x ^ ctx.neighbor_id(port));
        }
        let degree = ctx.degree();
        if ctx.round() < self.rounds && degree > 0 {
            let port = ctx.rng().gen_range(0..degree);
            ctx.send(port, Word(self.checksum));
        }
    }

    fn is_idle(&self) -> bool {
        true
    }

    fn output(&self) -> u64 {
        self.checksum
    }
}

const ROUNDS: u64 = 12;

/// The flat engine at 1, 2 and 4 shards, then α under both
/// synchronizers.
fn engines() -> Vec<Engine> {
    let mut engines: Vec<Engine> = [1, 2, 4].map(|shards| Engine::Flat { shards }).to_vec();
    for sync in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
        engines.push(Engine::Async {
            delay: DelayModel::Uniform { max_delay: 3 },
            sync,
            fault: FaultModel::None,
            churn: ChurnModel::None,
        });
    }
    engines
}

fn run(session: Session<'_>, engine: Engine, metrics: MetricsMode) -> (Vec<u64>, RunReport) {
    let mut driver = session
        .seed(42)
        .engine(engine)
        .metrics(metrics)
        .limits(RunLimits::rounds(ROUNDS + 4))
        .build_with(|_| Mixer { checksum: 0, rounds: ROUNDS });
    let report = driver.run();
    (driver.outputs(), report)
}

fn assert_paths_agree(mut stream: impl EdgeStream, label: &str) {
    let graph = materialize(&mut stream);
    for engine in engines() {
        for metrics in [MetricsMode::Full, MetricsMode::Streaming] {
            let (graph_out, graph_rep) = run(Session::on(&graph), engine, metrics);
            let (stream_out, stream_rep) = run(Session::on_stream(&mut stream), engine, metrics);
            assert_eq!(
                graph_out, stream_out,
                "{label}, {engine:?}, {metrics:?}: outputs diverge between \
                 Session::on and Session::on_stream"
            );
            assert_eq!(
                graph_rep.metrics, stream_rep.metrics,
                "{label}, {engine:?}, {metrics:?}: metrics diverge"
            );
            assert_eq!(
                graph_rep.overhead, stream_rep.overhead,
                "{label}, {engine:?}, {metrics:?}: synchronizer overhead diverges"
            );
            assert_eq!(graph_rep.rounds, stream_rep.rounds, "{label}: round counts diverge");
            assert_eq!(
                graph_rep.termination, stream_rep.termination,
                "{label}: terminations diverge"
            );
        }
    }
}

#[test]
fn gnp_stream_session_matches_materialized() {
    assert_paths_agree(GnpStream::new(200, 0.05, 7), "G(200, 0.05)");
}

#[test]
fn sparse_gnp_stream_session_matches_materialized() {
    // Expected degree ~4 with isolated nodes: exercises degree-0
    // endpoints and ragged shard boundaries.
    assert_paths_agree(GnpStream::new(501, 0.008, 91), "G(501, 0.008)");
}

#[test]
fn planted_stream_session_matches_materialized() {
    assert_paths_agree(PlantedNearCliqueStream::new(120, 40, 0.02, 0.05, 13), "planted(120, 40)");
}

/// The stream is handed back restartable: one `Session::on_stream` build
/// consumes two passes, and the same stream object can then build again
/// (the engine resets it), yielding the identical network.
#[test]
fn stream_is_reusable_across_builds() {
    let mut stream = GnpStream::new(150, 0.06, 3);
    let engine = Engine::Flat { shards: 2 };
    let (first, _) = run(Session::on_stream(&mut stream), engine, MetricsMode::Full);
    let (second, _) = run(Session::on_stream(&mut stream), engine, MetricsMode::Full);
    assert_eq!(first, second, "rebuilding from the same stream must be deterministic");
}
