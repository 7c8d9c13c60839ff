//! Regeneration benches for the rulebook tables (I–V), Figure 1, and the
//! submission-round aggregations (Tables VI–VII, Figures 5 and 7).
//!
//! The round itself is generated once outside the measurement loops (it is
//! a multi-second fleet simulation); the benches measure regenerating each
//! table/figure from the raw result records, which is what the paper's
//! reporting pipeline does.

use mlperf_bench::reviewed_smoke_records;
use mlperf_bench::runner::Bench;
use mlperf_harness::tables;
use mlperf_submission::report::{
    figure5_distribution, figure7_by_architecture, render_table_vi, render_table_vii,
};
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args();

    bench.bench("table1_model_registry", || {
        black_box(tables::render_table1())
    });
    bench.bench("table2_scenarios", || black_box(tables::render_table2()));
    bench.bench("table3_latency_constraints", || {
        black_box(tables::render_table3())
    });
    bench.bench("table4_query_requirements", || {
        black_box(tables::render_table4())
    });
    bench.bench("table5_query_sample_counts", || {
        black_box(tables::render_table5())
    });
    bench.bench(
        "fig1_model_zoo_scatter",
        || black_box(tables::render_fig1()),
    );

    let records = reviewed_smoke_records(0xbe9c);
    bench.bench("table6_results_per_model_scenario", || {
        black_box(render_table_vi(&records))
    });
    bench.bench("table7_framework_architecture_matrix", || {
        black_box(render_table_vii(&records))
    });
    bench.bench("fig5_results_per_model", || {
        black_box(figure5_distribution(&records))
    });
    bench.bench("fig7_results_per_architecture", || {
        black_box(figure7_by_architecture(&records))
    });
}
