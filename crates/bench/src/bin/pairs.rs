//! Runs one benchmark workload as alternating parent/change pairs and
//! judges the pairs by the rule a speed claim must meet.
//!
//! ```text
//! pairs --parent <dir> --change <dir> --workload <w> --pairs <n> [--seed <s>] [--seconds <t>]
//! ```
//!
//! Each `<dir>` is a checkout of this repository, for example one made
//! with `git archive`. Each pair runs the command named in the
//! checkout's own `BENCHMARK.json` (perfbench, through `cargo run`) once
//! per checkout with `--trace 0`, one process at a time, from the
//! checkout's root. Each checkout therefore builds into its own target
//! directory. The side that runs first flips every pair. `--seed`
//! defaults to 0 and `--seconds` to the benchmark's `run_seconds`.
//!
//! Every run is printed as it finishes. Then, for each end-to-end
//! metric in the change's `BENCHMARK.json`, the summary gives:
//! - both medians and quartiles;
//! - the pairs the change wins, where ties count for neither side;
//! - whether a gain holds: at least 10 pairs ran, the change wins at
//!   least 9 in 10 of them, and the medians lie further apart than the
//!   parent's interquartile range;
//! - whether the change's median is worse than the parent's by more than
//!   the metric's `bound`. A metric whose parent runs spread wider than
//!   the bound reads "unresolved", unless every change run beats every
//!   parent run.
//!
//! The last line is ready to paste into `CHANGES.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("pairs: {err}");
            eprintln!(
                "usage: pairs --parent <dir> --change <dir> --workload <w> --pairs <n> \
                 [--seed <s>] [--seconds <t>]"
            );
            ExitCode::from(2)
        }
    }
}

/// The checked command line.
struct Args {
    parent: PathBuf,
    change: PathBuf,
    workload: String,
    pairs: usize,
    seed: u64,
    seconds: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut parent, mut change, mut workload, mut pairs) = (None, None, None, None);
    let (mut seed, mut seconds) = (0, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(value)),
            "--change" => change = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--pairs" => {
                let n: usize = value.parse().map_err(|_| format!("bad --pairs {value}"))?;
                if n == 0 {
                    return Err("--pairs must be at least 1".into());
                }
                pairs = Some(n);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        parent: parent.ok_or("missing --parent")?,
        change: change.ok_or("missing --change")?,
        workload: workload.ok_or("missing --workload")?,
        pairs: pairs.ok_or("missing --pairs")?,
        seed,
        seconds,
    })
}

fn run(args: Vec<String>) -> Result<(), String> {
    let args = parse_args(&args)?;
    let parent_bench = Benchmark::load(&args.parent)?;
    let bench = Benchmark::load(&args.change)?;
    if !bench.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload {}; BENCHMARK.json has {:?}",
            args.workload, bench.workloads
        ));
    }
    let seconds = args.seconds.unwrap_or(bench.run_seconds);
    println!(
        "# pairs: {} seed {} --seconds {seconds}, {} pairs; parent {}, change {}",
        args.workload,
        args.seed,
        args.pairs,
        args.parent.display(),
        args.change.display()
    );

    let sides = [("parent", &args.parent, &parent_bench), ("change", &args.change, &bench)];
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..args.pairs {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let (name, dir, side_bench) = sides[side];
            let run = side_bench.run(dir, &args.workload, args.seed, seconds)?;
            let shown: Vec<String> = bench
                .end_to_end
                .iter()
                .map(|m| format!("{}={}", m.name, run.metric(&m.name).map_or("?".into(), fmt)))
                .collect();
            println!(
                "pair {}/{} {name}: {} correct={} failed={}",
                pair + 1,
                args.pairs,
                shown.join(" "),
                run.correct,
                run.failed
            );
            runs[side].push(run);
        }
    }

    println!(
        "{:<12} {:>6} {:>34} {:>34} {:>7} {:>6} {:>5} {:>6}  verdict",
        "metric",
        "unit",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "ratio",
        "wins",
        "gain",
        "bound"
    );
    let mut summary = Vec::new();
    for metric in &bench.end_to_end {
        let values = |side: &[Run]| -> Result<Vec<f64>, String> {
            side.iter()
                .map(|r| r.metric(&metric.name).ok_or(format!("a run printed no {}", metric.name)))
                .collect()
        };
        let (parent, change) = (values(&runs[0])?, values(&runs[1])?);
        let v = Verdict::judge(metric, &parent, &change);
        println!(
            "{:<12} {:>6} {:>34} {:>34} {:>7.3} {:>3}/{:<2} {:>5} {:>6}  {}",
            metric.name,
            metric.unit,
            format!("{} [{}, {}]", fmt(v.parent.1), fmt(v.parent.0), fmt(v.parent.2)),
            format!("{} [{}, {}]", fmt(v.change.1), fmt(v.change.0), fmt(v.change.2)),
            v.change.1 / v.parent.1,
            v.wins,
            args.pairs,
            if v.gain { "yes" } else { "no" },
            metric.bound,
            v.status()
        );
        if parent.iter().chain(&change).all(|&x| x == parent[0]) {
            summary.push(format!(
                "{} {} {} in every run",
                metric.name,
                fmt(parent[0]),
                metric.unit
            ));
            continue;
        }
        summary.push(format!(
            "{} {} → {} {} ({:.2}×, change better in {}/{}, parent IQR {}{}{})",
            metric.name,
            fmt(v.parent.1),
            fmt(v.change.1),
            metric.unit,
            v.change.1 / v.parent.1,
            v.wins,
            args.pairs,
            fmt(v.parent.2 - v.parent.0),
            if v.gain { ", gain holds" } else { "" },
            match v.status() {
                "within bound" => String::new(),
                status => format!(", {status}"),
            }
        ));
    }
    let all: Vec<&Run> = runs.iter().flatten().collect();
    let incorrect = all.iter().filter(|r| !r.correct).count();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    println!(
        "CHANGES: `{}` seed {}, --seconds {seconds}, {} alternating pairs: {}; {} of {} runs \
         correct, {failed} failed operations.",
        args.workload,
        args.seed,
        args.pairs,
        summary.join("; "),
        all.len() - incorrect,
        all.len()
    );
    Ok(())
}

/// A checkout's `BENCHMARK.json`: what to run and what to judge.
struct Benchmark {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
}

/// One end-to-end metric and its regression bound (a fraction of the
/// parent's median).
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

impl Benchmark {
    fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |v: &Json, key: &str| -> Result<Json, String> {
            v.get(key).cloned().ok_or(format!("{}: no \"{key}\"", path.display()))
        };
        let text_of = |v: Json| v.as_str().map(str::to_string).ok_or("expected a string");
        let command = field(&json, "command")?
            .as_array()
            .ok_or("\"command\" is not an array")?
            .iter()
            .map(|v| text_of(v.clone()))
            .collect::<Result<_, _>>()?;
        let workloads = field(&json, "workloads")?
            .as_array()
            .ok_or("\"workloads\" is not an array")?
            .iter()
            .map(|w| text_of(field(w, "name")?).map_err(String::from))
            .collect::<Result<_, String>>()?;
        let end_to_end = field(&json, "end_to_end")?
            .as_array()
            .ok_or("\"end_to_end\" is not an array")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: text_of(field(m, "name")?)?,
                    unit: text_of(field(m, "unit")?)?,
                    lower_is_better: text_of(field(m, "better")?)? == "lower",
                    bound: field(m, "bound")?.as_f64().ok_or("\"bound\" is not a number")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let run_seconds = field(&json, "run_seconds")?.as_f64().ok_or("bad \"run_seconds\"")?;
        Ok(Self { command, run_seconds, workloads, end_to_end })
    }

    /// Runs the benchmark once in `dir`, into `dir`'s own target
    /// directory.
    fn run(&self, dir: &Path, workload: &str, seed: u64, seconds: f64) -> Result<Run, String> {
        let (program, rest) = self.command.split_first().ok_or("empty \"command\"")?;
        let output = Command::new(program)
            .args(rest)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .current_dir(dir)
            .env_remove("CARGO_TARGET_DIR")
            .output()
            .map_err(|e| format!("{program} in {}: {e}", dir.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!(
                "the benchmark in {} exited with {}:\n{}",
                dir.display(),
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        Run::parse(&stdout)
    }
}

/// One benchmark process's result.
#[derive(Debug)]
struct Run {
    /// Every `# name = value unit` line with a numeric value.
    metrics: Vec<(String, f64)>,
    correct: bool,
    failed: u64,
}

impl Run {
    /// Reads the `# name = value unit` lines, and `correct` and `failed`
    /// from the last line's JSON object.
    fn parse(stdout: &str) -> Result<Self, String> {
        let metrics = stdout
            .lines()
            .filter_map(|line| {
                let (name, rest) = line.strip_prefix("# ")?.split_once(" = ")?;
                let value = rest.split_whitespace().next()?.parse().ok()?;
                Some((name.to_string(), value))
            })
            .collect();
        let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
        let result = Json::parse(last).map_err(|e| format!("last line {last:?}: {e}"))?;
        let correct = result.get("correct").and_then(Json::as_bool).ok_or("no \"correct\"")?;
        let failed = result.get("failed").and_then(Json::as_f64).ok_or("no \"failed\"")?;
        Ok(Self { metrics, correct, failed: failed as u64 })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// One metric's pairs, judged.
struct Verdict {
    /// The parent's first quartile, median and third quartile.
    parent: (f64, f64, f64),
    /// The change's.
    change: (f64, f64, f64),
    /// Pairs the change wins.
    wins: usize,
    /// At least 10 pairs, 9 wins in 10, and the medians further apart
    /// (the change's way) than the parent's interquartile range.
    gain: bool,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    worse: bool,
    /// The parent's interquartile range is wider than the bound, and
    /// some change run does not beat every parent run.
    unresolved: bool,
}

impl Verdict {
    fn judge(metric: &Metric, parent: &[f64], change: &[f64]) -> Self {
        let quartiles = |xs: &[f64]| (quantile(xs, 0.25), median(xs), quantile(xs, 0.75));
        let (p, c) = (quartiles(parent), quartiles(change));
        let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
        let wins = wins(parent, change, metric.lower_is_better);
        let gap = sign * (p.1 - c.1);
        let best_parent = parent.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
        let all_better = change.iter().all(|x| sign * x < best_parent);
        Self {
            parent: p,
            change: c,
            wins,
            gain: parent.len() >= 10 && wins * 10 >= parent.len() * 9 && gap > p.2 - p.0,
            worse: -gap > metric.bound * p.1.abs(),
            unresolved: p.2 - p.0 > metric.bound * p.1.abs() && !all_better,
        }
    }

    fn status(&self) -> &'static str {
        if self.worse {
            "WORSE than bound"
        } else if self.unresolved {
            "unresolved (parent IQR wider than bound)"
        } else {
            "within bound"
        }
    }
}

/// The `q`-quantile of `xs`, interpolating linearly between order
/// statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Pairs in which the change is strictly better; a tie counts for
/// neither side.
fn wins(parent: &[f64], change: &[f64], lower_is_better: bool) -> usize {
    parent.iter().zip(change).filter(|&(p, c)| if lower_is_better { c < p } else { c > p }).count()
}

/// About four significant digits; whole numbers and values from 10⁴ up
/// without decimals.
fn fmt(x: f64) -> String {
    if x.abs() >= 1e4 || x == x.trunc() {
        format!("{x:.0}")
    } else {
        let digits = (3 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{x:.digits$}")
    }
}

/// A JSON value, as much of it as `BENCHMARK.json` and perfbench's last
/// line use.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let value = p.value()?;
        p.ws();
        if p.i == p.s.len() {
            Ok(value)
        } else {
            Err(format!("trailing input at byte {}", p.i))
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        if let Json::Str(s) = self {
            Some(s)
        } else {
            None
        }
    }

    fn as_f64(&self) -> Option<f64> {
        if let Json::Num(x) = self {
            Some(*x)
        } else {
            None
        }
    }

    fn as_bool(&self) -> Option<bool> {
        if let Json::Bool(b) = self {
            Some(*b)
        } else {
            None
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        if let Json::Arr(items) = self {
            Some(items)
        } else {
            None
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&byte) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        for (word, value) in
            [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
        {
            if self.s[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                return Ok(value);
            }
        }
        match self.s.get(self.i) {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                while !self.close(b']', items.is_empty())? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                while !self.close(b'}', fields.is_empty())? {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                }
                Ok(Json::Obj(fields))
            }
            _ => {
                let start = self.i;
                while matches!(
                    self.s.get(self.i),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.i += 1;
                }
                let token = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
                token.parse().map(Json::Num).map_err(|_| format!("bad value at byte {start}"))
            }
        }
    }

    /// Consumes `end` and returns `true`, or consumes the comma before
    /// the next item (none before the `first`) and returns `false`.
    fn close(&mut self, end: u8, first: bool) -> Result<bool, String> {
        self.ws();
        if self.s.get(self.i) == Some(&end) {
            self.i += 1;
            return Ok(true);
        }
        if !first {
            self.eat(b',')?;
        }
        Ok(false)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let escaped = chars.next().ok_or("unterminated escape")?;
                    self.i += 1;
                    out.push(match escaped {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            self.i += 4;
                            u32::from_str_radix(hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?
                        }
                        other => other,
                    });
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard output of one `nc_flat_5k` perfbench process (`--seed 0
    /// --seconds 1 --trace 0`), as printed.
    const CAPTURED: &str = r#"# setup walls (s) = [1.615709968, 0.9231177129999999, 0.9815511639999999]
# run walls (s) = [16.469493042]
# provenance {"rev": "unknown", "unix_time": 1792390709, "nproc": 2, "workload": "nc_flat_5k", "seed": 0, "graph_seed": 42, "run_seed": 7, "setups": 3, "repetitions": 1, "seconds": 1, "trace": 0}
# setup_s = 0.9815511639999999 s
# run_s = 16.469493042 s
# msgs_per_s = 11131660.430134082 1/s
# peak_rss_mb = 605.42578125 MB
# rounds = 149 count
# total_bits = 24933813176 bit
# messages = 183332804 count
# control_messages = 0 count
# fail_frac = 0 ratio
{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": 0.9815511639999999, "unit": "s"}, "run_s": {"value": 16.469493042, "unit": "s"}, "msgs_per_s": {"value": 11131660.430134082, "unit": "1/s"}, "peak_rss_mb": {"value": 605.42578125, "unit": "MB"}, "rounds": {"value": 149, "unit": "count"}, "total_bits": {"value": 24933813176, "unit": "bit"}, "messages": {"value": 183332804, "unit": "count"}}}
"#;

    #[test]
    fn parses_a_captured_run() {
        let run = Run::parse(CAPTURED).expect("captured output parses");
        assert!(run.correct);
        assert_eq!(run.failed, 0);
        assert_eq!(run.metric("run_s"), Some(16.469493042));
        assert_eq!(run.metric("peak_rss_mb"), Some(605.42578125));
        assert_eq!(run.metric("messages"), Some(183332804.0));
        assert_eq!(run.metric("fail_frac"), Some(0.0));
        // The wall lists and the provenance line are not metrics.
        assert_eq!(run.metrics.len(), 9);
        assert_eq!(run.metric("setup walls (s)"), None);
    }

    #[test]
    fn a_failed_run_reads_as_failed() {
        let out = CAPTURED.replace(
            r#"{"correct": true, "attempted": 1, "failed": 0"#,
            r#"{"correct": false, "attempted": 2, "failed": 1"#,
        );
        let run = Run::parse(&out).expect("parses");
        assert!(!run.correct);
        assert_eq!(run.failed, 1);
        assert!(Run::parse("# run_s = 1 s\n").is_err(), "no result line");
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        let xs: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(quantile(&xs, 0.25), 3.25);
        assert_eq!(quantile(&xs, 0.75), 7.75);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
    }

    #[test]
    fn wins_count_strict_improvements_only() {
        let parent = [10.0, 10.0, 10.0, 10.0];
        let change = [9.0, 10.0, 11.0, 8.0];
        assert_eq!(wins(&parent, &change, true), 2);
        assert_eq!(wins(&parent, &change, false), 1);
    }

    #[test]
    fn verdicts_follow_the_pairs_rule() {
        let metric = |lower_is_better, bound| Metric {
            name: "run_s".into(),
            unit: "s".into(),
            lower_is_better,
            bound,
        };
        let parent: Vec<f64> = (0..10).map(|i| 14.0 + 0.2 * f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.6).collect();
        let v = Verdict::judge(&metric(true, 0.25), &parent, &faster);
        assert_eq!(v.wins, 10);
        assert!(v.gain && !v.worse && !v.unresolved);
        // The same runs are a loss where higher is better.
        let v = Verdict::judge(&metric(false, 0.25), &parent, &faster);
        assert!(!v.gain && v.worse);
        // Eight wins in ten is not a gain.
        let mut mixed = faster.clone();
        mixed[0] = 20.0;
        mixed[1] = 20.0;
        assert!(!Verdict::judge(&metric(true, 0.25), &parent, &mixed).gain);
        // Nine pairs are too few, however they read.
        assert!(!Verdict::judge(&metric(true, 0.25), &parent[1..], &faster[1..]).gain);
        // A spread wider than the bound leaves a small change unresolved.
        let v = Verdict::judge(&metric(true, 0.01), &parent, &parent);
        assert!(!v.gain && !v.worse && v.unresolved);
    }

    #[test]
    fn reads_the_benchmark_manifest_format() {
        let json = Json::parse(
            r#"{"command": ["cargo", "run", "--"], "run_seconds": 15,
                "workloads": [{"name": "w", "why": "a \"quoted\" é reason"}],
                "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}], "x": [null, false, -1.5e2, []]}"#,
        )
        .expect("parses");
        assert_eq!(json.get("run_seconds").and_then(Json::as_f64), Some(15.0));
        let workload = &json.get("workloads").and_then(Json::as_array).expect("array")[0];
        assert_eq!(workload.get("why").and_then(Json::as_str), Some("a \"quoted\" é reason"));
        let x = json.get("x").and_then(Json::as_array).expect("array");
        assert_eq!(x, [Json::Null, Json::Bool(false), Json::Num(-150.0), Json::Arr(vec![])]);
        assert_eq!(Json::parse("[ 1 , 2 ]"), Ok(Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("[1,]").is_err());
    }
}
