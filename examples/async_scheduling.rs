//! Asynchronous scheduling: delay models × phase plans × synchronizers.
//!
//! `DistNearClique` is analyzed in the synchronous CONGEST model, but
//! §2 of the paper notes it runs unchanged over asynchronous links under
//! a synchronizer. This example exercises the `congest::sched`
//! subsystem end to end:
//!
//! 1. precompute the §4.1 per-phase pulse schedule from a synchronous
//!    dry run (`near_clique_phase_plan`),
//! 2. replay the staged protocol for each of the four link-delay models
//!    under **both** synchronizers — classic α and the batched
//!    Safe-wave variant — and
//! 3. show that labels and the payload ledger are bit-identical to the
//!    synchronous run — only the synchronizer's control-plane cost and
//!    the virtual completion time vary with the schedule — printing the
//!    two control planes side by side, with the batched saving per row.
//!
//! ```text
//! cargo run --release --example async_scheduling
//! ```

use near_clique_suite::prelude::*;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 300-node instance with a planted ε³-near clique on 120 nodes.
    let epsilon: f64 = 0.25;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let planted = generators::planted_near_clique(300, 120, epsilon.powi(3), 0.015, &mut rng);
    let params = NearCliqueParams::for_expected_sample(epsilon, 7.0, 300)?;
    let seed = 11;

    // Synchronous ground truth on the flat engine.
    let sync = run_near_clique(&planted.graph, &params, seed);
    println!(
        "synchronous: {} rounds, {} payload messages, {} payload bits, {} barriers",
        sync.metrics.rounds, sync.metrics.messages, sync.metrics.total_bits, sync.metrics.barriers,
    );

    // The §4.1 schedule: one deterministic pulse budget per phase,
    // derived once and reused across every delay model below.
    let plan = near_clique_phase_plan(&planted.graph, &params, seed, 1_000_000);
    println!(
        "schedule: {} phases, {} pulses total (first: {:?})",
        plan.len(),
        plan.total_pulses(),
        plan.phases().first(),
    );

    println!(
        "\n{:<14} {:<10} {:>10} {:>14} {:>14} {:>12} {:>9}",
        "delay model", "sync", "labels=", "ctrl msgs", "ctrl bits", "virt. time", "saving"
    );
    for delay in [
        DelayModel::Uniform { max_delay: 8 },
        DelayModel::PerLink { max_delay: 8 },
        DelayModel::HeavyTailed { max_delay: 8 },
        DelayModel::Adversarial { max_delay: 8 },
    ] {
        let mut alpha_msgs = 0u64;
        for model in [SyncModel::Alpha, SyncModel::BatchedAlpha] {
            let alpha = run_near_clique_phased(
                &planted.graph,
                &params,
                seed,
                Engine::Async {
                    delay,
                    sync: model,
                    fault: FaultModel::None,
                    churn: ChurnModel::None,
                },
                &plan,
            );

            // The Awerbuch reduction, executed: same labels, same payload
            // ledger, pulse for round — under every delay schedule and
            // either synchronizer.
            assert_eq!(alpha.labels, sync.labels);
            assert_eq!(alpha.metrics, sync.metrics);
            assert_eq!(alpha.termination, Termination::Quiescent);

            // What differs is the control plane: α's Ack/Safe flood vs
            // the batched Safe waves, and the virtual completion time.
            let saving = match model {
                SyncModel::Alpha => {
                    alpha_msgs = alpha.overhead.control_messages;
                    String::from("—")
                }
                SyncModel::BatchedAlpha => format!(
                    "{:.1}x",
                    alpha_msgs as f64 / alpha.overhead.control_messages.max(1) as f64
                ),
            };
            println!(
                "{:<14} {:<10} {:>10} {:>14} {:>14} {:>12} {:>9}",
                delay.name(),
                model.name(),
                "yes",
                alpha.overhead.control_messages,
                alpha.overhead.control_bits,
                alpha.overhead.virtual_time,
                saving,
            );
        }
    }

    println!(
        "\nevery delay model and synchronizer found the same {}-node near-clique the \
         synchronous run did",
        sync.largest_set().map_or(0, |s| s.len()),
    );
    Ok(())
}
