//! A miniature MLPerf Inference submission round end to end: generate
//! submissions from the simulated fleet, peer-review them, and render the
//! paper's evaluation tables — with no summary score, by design.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example submission_round
//! ```
//!
//! Uses the smoke profile so it finishes quickly — which also demonstrates
//! the review pipeline's teeth: scaled-down runs violate the official
//! Table V query counts and the 60-second rule, so the checker rejects
//! most of them. `paper table6` (default `--profile paper`) generates the
//! full official-rules round whose released counts reproduce Table VI.

use mlperf_inference::submission::report::{
    figure5_distribution, render_figure7, render_table_vi, render_table_vii,
};
use mlperf_inference::submission::review::review_round;
use mlperf_inference::submission::round::{generate_round, RoundConfig};

fn main() {
    println!("generating a smoke-profile submission round...");
    let mut round = generate_round(&RoundConfig::smoke(0x5eed));
    let stats = review_round(&mut round);
    println!("review: {stats}");
    println!(
        "(smoke-profile runs are scaled below the official rules, so review\n rejects most of them — exactly what it is for; the paper-profile round\n releases the full Table VI matrix)\n"
    );

    println!("Table VI — released results per model x scenario:");
    println!("{}", render_table_vi(&round.records));

    println!("Figure 5 — closed-division share per model:");
    for (task, count, share) in figure5_distribution(&round.records) {
        println!(
            "  {:<20} {:>4} ({:>5.1}%)",
            task.spec().model_name,
            count,
            share
        );
    }
    println!();

    println!("Table VII — framework x architecture:");
    println!("{}", render_table_vii(&round.records));

    println!("Figure 7 — results per architecture:");
    println!("{}", render_figure7(&round.records));

    println!("measured proxy qualities (fp32 / int8):");
    let mut tasks: Vec<_> = round.task_qualities.iter().collect();
    tasks.sort_by_key(|(t, _)| **t);
    for (task, (fp32, int8)) in tasks {
        println!("  {:<20} {fp32:.4} / {int8:.4}", task.spec().model_name);
    }
}
