//! The three `DistNearClique` workloads: the paper's acceptance instance
//! on the flat engine, and a smaller planted instance under
//! synchronizer α and its batched variant.
//!
//! The benchmark drives the protocol through the same public calls
//! `nearclique::run_near_clique_with` and `run_near_clique_phased` make,
//! but times each one on its own: graph generation, the sample draw, the
//! phase plan, the `Session` build and the driven run.

use std::time::Instant;

use congest::{
    ChurnModel, DelayModel, Driver, Engine, FaultModel, Metrics, PhasePlan, Protocol, RunLimits,
    RunReport, Session, SessionDriver, SyncModel, SyncOverhead, Termination, Topology, TraceConfig,
};
use graphs::generators::{planted_near_clique, Planted};
use nearclique::{
    check_labels, near_clique_phase_plan, reference_run, DistNearClique, NearCliqueParams,
    NodeOutput, SamplePlan,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{expect, median, peak_rss_mb, timed, EndToEnd, Layers, Tally, Timed};
use crate::{Seeds, SETUPS};

const N: usize = 5000;
const EPSILON: f64 = 0.25;
const EXPECTED_SAMPLE: f64 = 7.0;
const PLANTED_EPSILON: f64 = 0.0156;
const MAX_ROUNDS: u64 = 10_000_000;
/// The flat engine's per-round history is pre-reserved up to this many
/// rounds, as `run_near_clique_with` does.
const RESERVED_ROUNDS: usize = 4096;
const GRAPH_SEED: u64 = 42;
const RUN_SEED: u64 = 7;

/// One `DistNearClique` workload.
pub struct Spec {
    dense: usize,
    background_p: f64,
    engine: Engine,
    /// `(|S|, |S ∩ D|)` of the default seed pair. A run's cost grows
    /// with `2^|S ∩ D|`, so the run seed is drawn until the sample has
    /// this shape: every seed then does the same amount of work on a
    /// different graph, sample and ID assignment.
    sample_shape: (usize, usize),
}

impl Spec {
    pub fn named(workload: &str) -> Option<Self> {
        let async_engine = |sync| Engine::Async {
            delay: DelayModel::Uniform { max_delay: 8 },
            sync,
            fault: FaultModel::None,
            churn: ChurnModel::None,
        };
        let small = |engine| Spec {
            dense: 1000,
            background_p: 4.0 / N as f64,
            engine,
            sample_shape: (8, 1),
        };
        match workload {
            "nc_flat_5k" => Some(Spec {
                dense: 2500,
                background_p: 0.002,
                engine: Engine::Flat { shards: 1 },
                sample_shape: (8, 5),
            }),
            "nc_alpha_5k" => Some(small(async_engine(SyncModel::Alpha))),
            "nc_batched_5k" => Some(small(async_engine(SyncModel::BatchedAlpha))),
            _ => None,
        }
    }

    fn is_async(&self) -> bool {
        matches!(self.engine, Engine::Async { .. })
    }

    fn generate(&self, graph_seed: u64) -> Planted {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        planted_near_clique(N, self.dense, PLANTED_EPSILON, self.background_p, &mut rng)
    }

    /// The seed pair for benchmark seed `seed`: graph seed `42 + seed`,
    /// and the first run seed from `7 + 1000·seed` on whose sample has
    /// [`Spec::sample_shape`]. Seed 0 gives the default pair (42, 7).
    fn seeds(&self, params: &NearCliqueParams, seed: u64) -> Seeds {
        let graph = GRAPH_SEED + seed;
        let dense_set = self.generate(graph).dense_set;
        let run = (RUN_SEED + 1000 * seed..)
            .find(|&run| {
                let sample = SamplePlan::draw(N, 1, params.p, run).sample(0);
                (sample.len(), sample.intersection_count(&dense_set)) == self.sample_shape
            })
            .expect("an unbounded seed range holds a matching sample");
        Seeds { graph, run }
    }
}

fn params() -> NearCliqueParams {
    NearCliqueParams::for_expected_sample(EPSILON, EXPECTED_SAMPLE, N)
        .expect("the workload parameters are valid")
}

/// A generated instance, ready to build drivers on.
struct Instance {
    planted: Planted,
    plan: SamplePlan,
    /// The §4.1 schedule (asynchronous workloads only).
    phases: Option<PhasePlan>,
}

/// Per-layer set-up times, one entry per set-up.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    generate: Vec<f64>,
    draw: Vec<f64>,
    phase_plan: Vec<f64>,
    protocol_new: Vec<f64>,
    build: Vec<f64>,
}

/// Driver build times: the whole `Session::build_with` call and the part
/// of it spent in `DistNearClique::new`.
struct BuildTimes {
    total: f64,
    protocol_new: f64,
}

/// Builds a driver for `engine` on `instance`, each node's protocol made
/// by `DistNearClique::new` and then passed through `wrap`.
fn build<P: Protocol>(
    instance: &Instance,
    params: &NearCliqueParams,
    seeds: Seeds,
    engine: Engine,
    profile: bool,
    wrap: impl Fn(DistNearClique) -> P,
) -> (SessionDriver<P>, BuildTimes) {
    let budget = instance.phases.as_ref().map_or(MAX_ROUNDS, PhasePlan::total_pulses);
    let mut session = Session::on(&instance.planted.graph)
        .seed(seeds.run)
        .engine(engine)
        .limits(RunLimits::rounds(budget));
    if profile {
        session = session.trace(TraceConfig::profile_only());
    }
    let mut new_ns = 0u128;
    let start = Instant::now();
    let mut driver = session.build_with(|endpoint| {
        let made = Instant::now();
        let flags = vec![instance.plan.in_sample(0, endpoint.index)];
        let protocol = DistNearClique::new(params.clone(), flags);
        new_ns += made.elapsed().as_nanos();
        wrap(protocol)
    });
    let total = start.elapsed().as_secs_f64();
    if matches!(engine, Engine::Flat { .. }) {
        driver.reserve_rounds(RESERVED_ROUNDS);
    }
    (driver, BuildTimes { total, protocol_new: new_ns as f64 / 1e9 })
}

/// Generates the instance and builds the workload's driver, timing each
/// layer into `times`.
fn setup_once(
    spec: &Spec,
    params: &NearCliqueParams,
    seeds: Seeds,
    times: &mut SetupTimes,
) -> (Instance, SessionDriver<DistNearClique>) {
    let (planted, generate) = timed(|| spec.generate(seeds.graph));
    let (plan, draw) = timed(|| SamplePlan::draw(N, 1, params.p, seeds.run));
    let (phases, phase_plan) = timed(|| {
        spec.is_async()
            .then(|| near_clique_phase_plan(&planted.graph, params, seeds.run, MAX_ROUNDS))
    });
    let instance = Instance { planted, plan, phases };
    let (driver, built) = build(&instance, params, seeds, spec.engine, false, |p| p);
    times.total.push(generate + draw + phase_plan + built.total);
    times.generate.push(generate);
    times.draw.push(draw);
    times.phase_plan.push(phase_plan);
    times.protocol_new.push(built.protocol_new);
    times.build.push(built.total - built.protocol_new);
    (instance, driver)
}

/// [`SETUPS`] timed set-ups, each dropped before the next so that no two
/// coexist. Returns their times, `VmHWM` after the first, and the last.
fn set_up(
    spec: &Spec,
    params: &NearCliqueParams,
    seeds: Seeds,
) -> (SetupTimes, f64, Instance, SessionDriver<DistNearClique>) {
    let mut times = SetupTimes::default();
    let mut first_peak = 0.0;
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        ready = Some(setup_once(spec, params, seeds, &mut times));
        if times.total.len() == 1 {
            first_peak = peak_rss_mb();
        }
    }
    let (instance, driver) = ready.expect("at least one set-up");
    (times, first_peak, instance, driver)
}

/// Everything a run produced that a repetition must reproduce.
#[derive(PartialEq)]
struct Outcome {
    outputs: Vec<NodeOutput>,
    metrics: Metrics,
    overhead: SyncOverhead,
    termination: Termination,
    phase_trace: Vec<(u8, &'static str, u64)>,
    rounds: u64,
    total_bits: u64,
}

impl Outcome {
    fn labels(&self) -> Vec<Option<u64>> {
        self.outputs.iter().map(|o| o.label).collect()
    }

    /// Labels, outputs, payload metrics and phase trace — what every
    /// engine must agree on for the same instance and seed.
    fn same_payload(&self, other: &Outcome) -> bool {
        self.outputs == other.outputs
            && self.metrics == other.metrics
            && self.phase_trace == other.phase_trace
    }
}

/// Drives `driver` to completion and returns the report and its wall time.
fn run<P: Protocol>(driver: &mut SessionDriver<P>, instance: &Instance) -> (RunReport, f64) {
    timed(|| match &instance.phases {
        Some(phases) => driver.run_phased(phases, &mut ()),
        None => driver.run(),
    })
}

fn outcome<P: Protocol<Output = NodeOutput>>(
    driver: &SessionDriver<P>,
    report: &RunReport,
    protocol: impl Fn(&P) -> &DistNearClique,
) -> Outcome {
    Outcome {
        outputs: driver.outputs(),
        metrics: report.metrics.clone(),
        overhead: report.overhead,
        termination: report.termination,
        phase_trace: protocol(driver.protocol(0)).phase_trace().to_vec(),
        rounds: report.rounds,
        total_bits: report.total_bits(),
    }
}

/// Wall times of the verified run's two checks.
struct CheckTimes {
    reference_run: f64,
    check_labels: f64,
}

/// The once-per-process checks on the first run: it quiesced, its labels
/// equal the centralized reference on the same IDs and sample, and every
/// labeled set meets the Lemma 5.3 density bound.
fn verify(
    instance: &Instance,
    params: &NearCliqueParams,
    ids: &[u64],
    out: &Outcome,
    failures: &mut Vec<String>,
) -> CheckTimes {
    let labels = out.labels();
    let graph = &instance.planted.graph;
    expect(failures, out.termination == Termination::Quiescent, "run did not quiesce");
    let (reference, reference_run) = timed(|| reference_run(graph, ids, params, &instance.plan));
    expect(failures, reference.labels == labels, "labels differ from reference_run");
    let (lemma, check_labels) = timed(|| check_labels(graph, &labels, params.epsilon));
    expect(failures, lemma.is_ok(), "a labeled set violates Lemma 5.3");
    expect(failures, labels.iter().any(Option::is_some), "no node was labeled");
    CheckTimes { reference_run, check_labels }
}

fn ids<P: Protocol>(driver: &SessionDriver<P>) -> Vec<u64> {
    (0..driver.node_count()).map(|v| driver.endpoint(v).id).collect()
}

/// Runs the instance on the flat engine and checks that the payload side
/// equals `verified`; returns the flat run's wall time.
fn flat_run(
    instance: &Instance,
    params: &NearCliqueParams,
    seeds: Seeds,
    verified: &Outcome,
    tally: &mut Tally,
) -> f64 {
    let (mut driver, _) = build(instance, params, seeds, Engine::Flat { shards: 1 }, false, |p| p);
    let (report, wall) = run(&mut driver, instance);
    let flat = outcome(&driver, &report, |p| p);
    let mut failures = Vec::new();
    expect(
        &mut failures,
        flat.same_payload(verified),
        "asynchronous run differs from the flat run",
    );
    tally.record("flat dry run", &failures);
    wall
}

/// The untraced closed loop: [`SETUPS`] timed set-ups, then runs one
/// after another until `seconds` have passed (at least one run).
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, tally: &mut Tally) -> (EndToEnd, Seeds) {
    let params = params();
    let seeds = spec.seeds(&params, seed);
    let (times, _, instance, driver) = set_up(spec, &params, seeds);

    let mut next = Some(driver);
    let mut verified: Option<Outcome> = None;
    let mut walls = Vec::new();
    let start = Instant::now();
    loop {
        let mut driver = match next.take() {
            Some(driver) => driver,
            None => build(&instance, &params, seeds, spec.engine, false, |p| p).0,
        };
        let (report, wall) = run(&mut driver, &instance);
        walls.push(wall);
        let out = outcome(&driver, &report, |p| p);
        let mut failures = Vec::new();
        match &verified {
            None => {
                verify(&instance, &params, &ids(&driver), &out, &mut failures);
                verified = Some(out);
            }
            Some(first) => {
                expect(&mut failures, out == *first, "repetition differs from the verified run")
            }
        }
        tally.record("run", &failures);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let verified = verified.expect("at least one run");
    if spec.is_async() {
        flat_run(&instance, &params, seeds, &verified, tally);
    }
    let e2e = EndToEnd {
        setup_walls: times.total,
        run_walls: walls,
        messages: verified.metrics.messages + verified.overhead.control_messages,
        control_messages: verified.overhead.control_messages,
        peak_rss_mb: peak_rss_mb(),
        rounds: verified.rounds,
        total_bits: verified.total_bits,
    };
    (e2e, seeds)
}

/// The traced pass: an untraced verified run, then the same instance
/// under the callback wrapper, under a profile-only recorder, and (for
/// the asynchronous workloads) on the flat engine. Each must reproduce
/// the verified run.
pub fn traced(spec: &Spec, seed: u64, tally: &mut Tally) -> (Layers, Seeds) {
    let params = params();
    let seeds = spec.seeds(&params, seed);
    let (times, build_peak_rss_mb, instance, mut driver) = set_up(spec, &params, seeds);
    let mut layers = Layers { build_peak_rss_mb, ..Layers::default() };
    layers.generate_s = median(&times.generate);
    layers.sample_draw_s = median(&times.draw);
    layers.phase_plan_s = median(&times.phase_plan);
    layers.protocol_new_s = median(&times.protocol_new);
    layers.build_s = median(&times.build);

    let (report, untraced) = run(&mut driver, &instance);
    let verified = outcome(&driver, &report, |p| p);
    let mut failures = Vec::new();
    let checks = verify(&instance, &params, &ids(&driver), &verified, &mut failures);
    tally.record("untraced run", &failures);
    drop(driver);
    layers.untraced_run_s = untraced;
    layers.reference_run_s = checks.reference_run;
    layers.check_labels_s = checks.check_labels;

    layers.flat_run_s = if spec.is_async() {
        flat_run(&instance, &params, seeds, &verified, tally)
    } else {
        untraced
    };

    let (mut driver, _) = build(&instance, &params, seeds, spec.engine, false, Timed::new);
    let (report, traced) = run(&mut driver, &instance);
    let out = outcome(&driver, &report, Timed::inner);
    let mut failures = Vec::new();
    expect(&mut failures, out == verified, "wrapped run differs from the untraced run");
    tally.record("callback-timed run", &failures);
    layers.traced_run_s = traced;
    for v in 0..driver.node_count() {
        layers.callback_s += driver.protocol(v).ns() as f64 / 1e9;
        layers.calls += driver.protocol(v).calls();
    }
    drop(driver);

    let (mut driver, _) = build(&instance, &params, seeds, spec.engine, true, |p| p);
    let (report, profiled) = run(&mut driver, &instance);
    let out = outcome(&driver, &report, |p| p);
    let mut failures = Vec::new();
    expect(&mut failures, out == verified, "profiled run differs from the untraced run");
    expect(&mut failures, report.profile.is_some(), "profiled run returned no profile");
    tally.record("profile-only run", &failures);
    drop(driver);
    let profile = report.profile.unwrap_or_default();
    layers.profile_run_s = profiled;
    layers.max_wheel_occupancy = profile.max_wheel_occupancy;
    layers.max_queue_depth = profile.max_queue_depth;
    layers.safe_waves = profile.safe_waves;
    layers.ctrl_sends = profile.ctrl_sends;

    layers.payload_messages = verified.metrics.messages;
    layers.payload_bits = verified.metrics.total_bits;
    layers.barriers = verified.metrics.barriers;
    layers.control_messages = verified.overhead.control_messages;
    layers.control_bits = verified.overhead.control_bits;
    layers.virtual_time = verified.overhead.virtual_time;
    // One shard, or an engine that does not shard.
    layers.shard_speedup = 1.0;
    let topology = Topology::from_graph(&instance.planted.graph, 1);
    layers.bytes_per_port = topology.heap_bytes() as f64 / topology.port_count() as f64;
    (layers, seeds)
}
