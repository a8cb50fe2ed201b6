//! Experiment harness for the near-clique reproduction.
//!
//! The paper is a theory contribution: its "evaluation" is a set of
//! theorems, a lower-bound construction (Figure 1 / Claim 1) and an
//! impossibility argument (§6). This crate regenerates each of those as a
//! measurement — twelve experiments, E1–E12, printing paper-shaped tables
//! (see DESIGN.md §1 and §4 for the claim-to-experiment index).
//!
//! * Run them all: `cargo run --release -p bench --bin experiments`
//! * One experiment: `cargo run --release -p bench --bin experiments -- e4`
//! * Full trial counts: add `--full` (the default is `--quick`).
//!
//! Criterion wall-clock benches (`cargo bench -p bench`) time the
//! protocol, the substrate kernels, the ablations and the baseline
//! algorithms. The engines' benchmark of record is `perfbench/` (see
//! `BENCHMARK.json`), which runs the paper's algorithm end to end on
//! every engine and checks each run. The science lives in the
//! `experiments` binary, whose outputs are recorded in EXPERIMENTS.md.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod stats;
pub mod table;

pub use experiments::{all, Experiment};
pub use table::Table;
