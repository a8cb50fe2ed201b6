//! End-to-end and per-layer benchmark of the CONGEST simulator.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload nc_flat_5k --seed 0 --seconds 15 --trace 0
//! ```
//!
//! One process runs one workload as a closed loop: [`SETUPS`] timed
//! set-ups, then driven runs one after another until `--seconds` have
//! passed (at least one run). Every run is checked: the first against
//! the centralized reference, later ones for bit equality with it.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` a separate
//! traced pass with the per-layer metrics. The last line of stdout is
//! one JSON object; the lines before it carry provenance, every set-up
//! and run wall time, and every metric in readable form.
//! See `perfbench/README.md` for the workloads and the layer map.

mod common;
mod gossip;
mod nc;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{median, EndToEnd, Tally};

/// Set-ups per process; `setup_s` is their median.
pub const SETUPS: usize = 3;

const WORKLOADS: [&str; 4] = ["nc_flat_5k", "nc_alpha_5k", "nc_batched_5k", "gossip_stream_1m"];

/// The seeds a workload's inputs were generated from.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub graph: u64,
    pub run: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in raw.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory only; `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn end_to_end_metrics(e2e: &EndToEnd) -> Vec<(&'static str, f64, &'static str)> {
    let run_s = median(&e2e.run_walls);
    vec![
        ("setup_s", median(&e2e.setup_walls), "s"),
        ("run_s", run_s, "s"),
        ("msgs_per_s", e2e.messages as f64 / run_s, "1/s"),
        ("peak_rss_mb", e2e.peak_rss_mb, "MB"),
        ("rounds", e2e.rounds as f64, "count"),
        ("total_bits", e2e.total_bits as f64, "bit"),
        ("messages", e2e.messages as f64, "count"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());

    let mut tally = Tally::default();
    let nc = nc::Spec::named(&args.workload);
    let (metrics, printed_only, seeds, repetitions) = if args.trace {
        let (layers, seeds) = match &nc {
            Some(spec) => nc::traced(spec, args.seed, &mut tally),
            None => gossip::traced(args.seed, &mut tally),
        };
        (layers.metrics(), Vec::new(), seeds, 1)
    } else {
        let (e2e, seeds) = match &nc {
            Some(spec) => nc::end_to_end(spec, args.seed, args.seconds, &mut tally),
            None => gossip::end_to_end(args.seed, args.seconds, &mut tally),
        };
        let printed_only = vec![
            ("control_messages", e2e.control_messages as f64, "count"),
            ("fail_frac", tally.failed as f64 / tally.attempted as f64, "ratio"),
        ];
        println!("# setup walls (s) = {:?}", e2e.setup_walls);
        println!("# run walls (s) = {:?}", e2e.run_walls);
        (end_to_end_metrics(&e2e), printed_only, seeds, e2e.run_walls.len())
    };

    println!(
        "# provenance {{\"rev\": \"{}\", \"unix_time\": {unix_time}, \"nproc\": {nproc}, \
         \"workload\": \"{}\", \"seed\": {}, \"graph_seed\": {}, \"run_seed\": {}, \
         \"setups\": {SETUPS}, \"repetitions\": {repetitions}, \"seconds\": {}, \"trace\": {}}}",
        git_rev(),
        args.workload,
        args.seed,
        seeds.graph,
        seeds.run,
        args.seconds,
        u8::from(args.trace),
    );
    for (name, value, unit) in metrics.iter().chain(&printed_only) {
        println!("# {name} = {value} {unit}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
    );
    ExitCode::SUCCESS
}
