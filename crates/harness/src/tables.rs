//! Renderers for Tables I–V (the rulebook tables) and Figure 1.

use mlperf_loadgen::requirements::{min_query_count, OFFLINE_MIN_SAMPLES};
use mlperf_loadgen::scenario::Scenario;
use mlperf_models::registry;
use mlperf_models::zoo::{pareto_frontier, ZOO};
use mlperf_stats::confidence::{QueryCountPlan, TailLatency};

/// Table I: the task/model/quality matrix.
pub fn render_table1() -> String {
    let mut out = format!(
        "{:<10} {:<28} {:<18} {:>9} {:>12} {:<22} QUALITY TARGET\n",
        "AREA", "TASK", "MODEL", "PARAMS(M)", "GOPS/INPUT", "DATA SET"
    );
    for m in registry() {
        out.push_str(&format!(
            "{:<10} {:<28} {:<18} {:>9.2} {:>12.3} {:<22} {}\n",
            m.area,
            m.task_name,
            m.model_name,
            m.params_millions,
            m.gops_per_input,
            m.dataset,
            m.quality_desc
        ));
    }
    out
}

/// Table II: scenario descriptions and metrics.
pub fn render_table2() -> String {
    let mut out = format!(
        "{:<15} {:<34} {:<44} {:<18} EXAMPLES\n",
        "SCENARIO", "QUERY GENERATION", "METRIC", "SAMPLES/QUERY"
    );
    for s in Scenario::ALL {
        out.push_str(&format!(
            "{:<15} {:<34} {:<44} {:<18} {}\n",
            format!("{s} ({})", s.code()),
            s.query_generation(),
            s.metric_name(),
            s.samples_per_query_desc(),
            s.example_use()
        ));
    }
    out
}

/// Table III: per-task latency constraints.
pub fn render_table3() -> String {
    let mut out = format!(
        "{:<28} {:>22} {:>22}\n",
        "TASK", "MULTISTREAM ARRIVAL", "SERVER QOS CONSTRAINT"
    );
    for m in registry() {
        out.push_str(&format!(
            "{:<28} {:>19.0} MS {:>19.0} MS\n",
            m.task_name,
            m.multistream_interval.as_millis_f64(),
            m.server_latency_bound.as_millis_f64()
        ));
    }
    out
}

/// Table IV: query requirements for statistical confidence, recomputed
/// from Equations 1–2.
pub fn render_table4() -> String {
    let mut out = format!(
        "{:<12} {:>11} {:>8} {:>11} {:>20}\n",
        "TAIL", "CONFIDENCE", "MARGIN", "INFERENCES", "ROUNDED"
    );
    for tail in [TailLatency::P90, TailLatency::P95, TailLatency::P99] {
        let plan = QueryCountPlan::paper_default(tail);
        out.push_str(&format!(
            "{:<12} {:>10.0}% {:>7.2}% {:>11} {:>10} = {:>2} x 2^13\n",
            tail.to_string(),
            plan.confidence() * 100.0,
            plan.margin() * 100.0,
            plan.raw_queries(),
            plan.rounded_queries(),
            plan.granule_multiplier()
        ));
    }
    out
}

/// Table V: queries and samples per query for each task × scenario.
pub fn render_table5() -> String {
    let mut out = format!(
        "{:<28} {:>15} {:>15} {:>15} {:>15}\n",
        "MODEL", "SINGLE-STREAM", "MULTISTREAM", "SERVER", "OFFLINE"
    );
    for m in registry() {
        let fmt_count = |scenario| {
            let q = min_query_count(scenario, m.qos);
            if q >= 1_000 {
                format!("{}K", q / 1_000)
            } else {
                q.to_string()
            }
        };
        out.push_str(&format!(
            "{:<28} {:>11} / 1 {:>11} / N {:>11} / 1 {:>9} / {}K\n",
            m.model_name,
            fmt_count(Scenario::SingleStream),
            fmt_count(Scenario::MultiStream),
            fmt_count(Scenario::Server),
            fmt_count(Scenario::Offline),
            OFFLINE_MIN_SAMPLES / 1_000,
        ));
    }
    out
}

/// Figure 1: the classifier accuracy/complexity scatter (from the model
/// zoo; the paper reproduces this from Bianco et al.).
pub fn render_fig1() -> String {
    let mut out = format!(
        "{:<18} {:>7} {:>8} {:>10} {:>8}\n",
        "MODEL", "TOP-1%", "GOPS", "PARAMS(M)", "PARETO"
    );
    let frontier: Vec<&str> = pareto_frontier().iter().map(|e| e.name).collect();
    let mut entries: Vec<_> = ZOO.iter().collect();
    entries.sort_by(|a, b| a.gops.partial_cmp(&b.gops).expect("finite"));
    for e in entries {
        out.push_str(&format!(
            "{:<18} {:>7.1} {:>8.1} {:>10.1} {:>8}\n",
            e.name,
            e.top1,
            e.gops,
            e.params_millions,
            if frontier.contains(&e.name) { "*" } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_all_models() {
        let t = render_table1();
        for name in [
            "ResNet-50 v1.5",
            "MobileNet-v1 224",
            "SSD-ResNet-34",
            "SSD-MobileNet-v1",
            "GNMT",
        ] {
            assert!(t.contains(name), "missing {name}");
        }
        assert!(t.contains("25.60"));
        assert!(t.contains("433.000"));
    }

    #[test]
    fn table2_has_four_rows() {
        let t = render_table2();
        assert_eq!(t.lines().count(), 5);
        assert!(t.contains("Poisson"));
        assert!(t.contains("24,576"));
    }

    #[test]
    fn table3_shows_bounds() {
        let t = render_table3();
        assert!(t.contains("250 MS"));
        assert!(t.contains("66 MS"));
    }

    #[test]
    fn table4_matches_paper() {
        let t = render_table4();
        assert!(t.contains("23886"));
        assert!(t.contains("50425"));
        assert!(t.contains("262742"));
        assert!(t.contains("24576"));
        assert!(t.contains("57344"));
        assert!(t.contains("270336"));
        assert!(t.contains("33 x 2^13"));
    }

    #[test]
    fn table5_vision_vs_translation() {
        let t = render_table5();
        // Vision rows show 270K, translation 90K, as printed in the paper.
        assert!(t.contains("270K"), "{t}");
        assert!(t.contains("90K"), "{t}");
        assert!(t.contains("1K"), "{t}");
        assert!(t.contains("/ 24K"));
    }

    #[test]
    fn fig1_marks_frontier() {
        let f = render_fig1();
        assert!(f.contains("NASNet-A-Large"));
        assert!(f.contains('*'));
    }
}
