//! Pieces every workload shares: the callback-timing wrapper, the check
//! tally behind `fail_frac`, and the report types.

use std::cell::Cell;
use std::time::Instant;

use congest::{Context, Port, Protocol};

/// Forwards every callback to the wrapped protocol and accumulates the
/// nanoseconds spent inside it, plus the number of calls.
///
/// The counters live in the wrapper itself rather than in a thread-local
/// timer, so callbacks that the flat engine runs on its shard worker
/// threads are counted too; read them back through
/// `Driver::protocol(v)` after the run. `Cell` because `is_idle` and
/// `output` take `&self`.
pub struct Timed<P> {
    inner: P,
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Self { inner, ns: Cell::new(0), calls: Cell::new(0) }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Nanoseconds spent in the wrapped callbacks.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Callbacks forwarded.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    fn charge(&self, start: Instant) {
        self.ns.set(self.ns.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn init(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let start = Instant::now();
        self.inner.init(ctx);
        self.charge(start);
    }

    fn step(&mut self, ctx: &mut Context<'_, P::Msg>, inbox: &[(Port, P::Msg)]) {
        let start = Instant::now();
        self.inner.step(ctx, inbox);
        self.charge(start);
    }

    fn is_idle(&self) -> bool {
        let start = Instant::now();
        let idle = self.inner.is_idle();
        self.charge(start);
        idle
    }

    fn on_quiescent(&mut self, ctx: &mut Context<'_, P::Msg>) -> bool {
        let start = Instant::now();
        let resume = self.inner.on_quiescent(ctx);
        self.charge(start);
        resume
    }

    fn on_peer_down(&mut self, ctx: &mut Context<'_, P::Msg>, port: Port) {
        self.inner.on_peer_down(ctx, port);
    }

    fn on_peer_up(&mut self, ctx: &mut Context<'_, P::Msg>, port: Port) {
        self.inner.on_peer_up(ctx, port);
    }

    fn on_join(&mut self, ctx: &mut Context<'_, P::Msg>, port: Port) {
        self.inner.on_join(ctx, port);
    }

    fn on_leave(&mut self, ctx: &mut Context<'_, P::Msg>, port: Port) {
        self.inner.on_leave(ctx, port);
    }

    fn output(&self) -> P::Output {
        let start = Instant::now();
        let output = self.inner.output();
        self.charge(start);
        output
    }
}

/// Runs attempted and runs that failed a check. Every failure is
/// printed to stderr as it happens, and counted.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one checked run; `failures` names each check it failed.
    pub fn record(&mut self, run: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for failure in failures {
                eprintln!("CHECK FAILED [{run}]: {failure}");
            }
        }
    }
}

/// Pushes `what` onto `failures` unless `ok`.
pub fn expect(failures: &mut Vec<String>, ok: bool, what: &str) {
    if !ok {
        failures.push(what.to_string());
    }
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// This process's resident-set high-water mark (`VmHWM`) in MB, or 0
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// End-to-end results of one untraced workload process.
pub struct EndToEnd {
    /// Wall time of each set-up.
    pub setup_walls: Vec<f64>,
    /// Wall time of each driven run.
    pub run_walls: Vec<f64>,
    /// Payload plus control messages delivered by one run.
    pub messages: u64,
    /// Synchronizer control messages of one run (0 on the flat engine).
    pub control_messages: u64,
    pub peak_rss_mb: f64,
    /// Rounds, or pulses on the asynchronous engine.
    pub rounds: u64,
    /// `RunReport::total_bits()` of one run.
    pub total_bits: u64,
}

/// Per-layer results of one traced workload process. Every workload
/// fills every field; a layer the workload does not exercise reads 0
/// (a count or time) or 1 (a ratio against itself).
#[derive(Default)]
pub struct Layers {
    pub generate_s: f64,
    pub sample_draw_s: f64,
    pub phase_plan_s: f64,
    pub protocol_new_s: f64,
    pub build_s: f64,
    pub build_peak_rss_mb: f64,
    pub bytes_per_port: f64,
    pub reference_run_s: f64,
    pub check_labels_s: f64,
    pub callback_s: f64,
    pub calls: u64,
    /// Traced run wall, the base of `share` and `engine_s`.
    pub traced_run_s: f64,
    /// Untraced run wall in the same process.
    pub untraced_run_s: f64,
    pub payload_messages: u64,
    pub payload_bits: u64,
    pub barriers: u64,
    pub control_messages: u64,
    pub control_bits: u64,
    pub virtual_time: u64,
    /// Flat-engine run wall on the same instance (async workloads), or
    /// the run itself (flat workloads).
    pub flat_run_s: f64,
    pub max_wheel_occupancy: u64,
    pub max_queue_depth: u64,
    pub safe_waves: u64,
    pub ctrl_sends: u64,
    pub profile_run_s: f64,
    /// Wall with `shards: 1` ÷ wall as configured.
    pub shard_speedup: f64,
}

impl Layers {
    /// The per-layer metrics, in the order `BENCHMARK.json` lists them.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let engine_s = self.traced_run_s - self.callback_s;
        let messages = (self.payload_messages + self.control_messages) as f64;
        vec![
            ("graphs.generate_s", self.generate_s, "s"),
            ("nearclique.sample_draw_s", self.sample_draw_s, "s"),
            ("nearclique.phase_plan_s", self.phase_plan_s, "s"),
            ("nearclique.new_s", self.protocol_new_s, "s"),
            ("congest.build_s", self.build_s, "s"),
            ("congest.build_peak_rss_mb", self.build_peak_rss_mb, "MB"),
            ("congest.plane.bytes_per_port", self.bytes_per_port, "B/port"),
            ("nearclique.reference_run_s", self.reference_run_s, "s"),
            ("nearclique.check_labels_s", self.check_labels_s, "s"),
            ("protocol.callback_s", self.callback_s, "s"),
            ("protocol.calls", self.calls as f64, "count"),
            ("protocol.share", self.callback_s / self.traced_run_s, "ratio"),
            ("protocol.wrapper_overhead", self.traced_run_s / self.untraced_run_s, "ratio"),
            ("engine.s", engine_s, "s"),
            ("engine.ns_per_msg", engine_s * 1e9 / messages, "ns/msg"),
            ("congest.metrics.messages", self.payload_messages as f64, "count"),
            ("congest.metrics.payload_bits", self.payload_bits as f64, "bit"),
            ("congest.metrics.barriers", self.barriers as f64, "count"),
            ("sync.control_messages", self.control_messages as f64, "count"),
            ("sync.control_bits", self.control_bits as f64, "bit"),
            (
                "sync.control_per_payload",
                self.control_messages as f64 / self.payload_messages as f64,
                "ratio",
            ),
            ("sync.virtual_time", self.virtual_time as f64, "tick"),
            ("sync.alpha_tax", self.untraced_run_s / self.flat_run_s, "ratio"),
            ("obs.max_wheel_occupancy", self.max_wheel_occupancy as f64, "count"),
            ("obs.max_queue_depth", self.max_queue_depth as f64, "count"),
            ("obs.safe_waves", self.safe_waves as f64, "count"),
            ("obs.ctrl_sends", self.ctrl_sends as f64, "count"),
            ("obs.profile_overhead", self.profile_run_s / self.untraced_run_s, "ratio"),
            ("network.shard_speedup", self.shard_speedup, "ratio"),
        ]
    }
}
