//! Metric names, units and the result line.
//!
//! Every untraced run reports every [`END_TO_END`] metric and every
//! traced run every [`PER_LAYER`] metric, whatever the workload; a layer
//! a workload does not exercise reads 0 there. The lists mirror
//! `BENCHMARK.json`, which a test keeps in step.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. What each means on each workload
/// is set out in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("alt_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // serve-churn: one closed-loop request, split by layer (µs/request).
    ("serve.request_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.mutate_us", "us"),
    ("serve.resolve_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.unattributed_us", "us"),
    ("core.delta.component_us", "us"),
    ("core.delta.assemble_us", "us"),
    ("model.live_instances_us", "us"),
    ("core.delta.instances_per_resolve", "count"),
    ("core.delta.components_per_resolve", "count"),
    ("core.delta.touched_share", "share"),
    ("serve.setup.generate_s", "s"),
    ("serve.setup.engine_s", "s"),
    ("serve.setup.bootstrap_s", "s"),
    ("core.delta.cold_ms", "ms"),
    ("serve.open.queue_ms", "ms"),
    ("serve.open.gen_late_ms", "ms"),
    ("serve.open.miss_share", "share"),
    // solve-flat: one cold solve, split by layer (ms/solve).
    ("decomp.layering_ms", "ms"),
    ("core.framework.wide_ms", "ms"),
    ("core.framework.narrow_ms", "ms"),
    ("core.solvers.combine_ms", "ms"),
    ("core.framework.steps", "count"),
    ("core.framework.epochs", "count"),
    ("core.framework.mis_rounds", "count"),
    ("core.framework.raises", "count"),
    ("model.conflict_build_ms", "ms"),
    ("model.conflict_edges", "count"),
    ("mis.luby_ms", "ms"),
    ("mis.luby_rounds", "count"),
    ("solve.tree_p50_ms", "ms"),
    ("solve.line_p50_ms", "ms"),
    // dist-pods: one distributed run; counts are per problem.
    ("dist.logical_ms", "ms"),
    ("netsim.rounds", "count"),
    ("netsim.messages", "count"),
    ("netsim.msg_overhead", "share"),
    ("netsim.us_per_msg", "us"),
    ("netsim.us_per_tx_lossy", "us"),
    ("netsim.retransmits", "count"),
    ("netsim.acks", "count"),
    ("netsim.dropped", "count"),
    ("netsim.dup_suppressed", "count"),
    ("netsim.retransmit_rounds", "count"),
    ("netsim.class.setup.messages", "count"),
    ("netsim.class.wide.messages", "count"),
    ("netsim.class.narrow.messages", "count"),
    ("netsim.class.echo.messages", "count"),
    ("netsim.class.combine.messages", "count"),
    ("netsim.class.bfs.messages", "count"),
    ("netsim.class.setup.retransmits", "count"),
    ("netsim.class.wide.retransmits", "count"),
    ("netsim.class.narrow.retransmits", "count"),
    ("netsim.class.echo.retransmits", "count"),
    ("netsim.class.combine.retransmits", "count"),
    ("netsim.class.bfs.retransmits", "count"),
    ("dist.steps", "count"),
    ("dist.pops", "count"),
    ("dist.sweeps", "count"),
    ("dist.control_stalls", "count"),
    // Every workload: traced ÷ untraced operation time, minus 1.
    ("trace.overhead_share", "share"),
];

/// Metric values by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be in one of the lists.
    pub fn set(&mut self, name: &str, value: f64) {
        let listed = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is in neither metric list"));
        self.0.insert(listed.0, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run found.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations answered with a failure, plus failed checks.
    pub failed: u64,
    /// Metric values; the list printed depends on the trace flag.
    pub metrics: Metrics,
}

/// Formats a finite number with all its digits (non-finite reads 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: the listed metrics in list order, each with its unit.
/// An end-to-end metric the run did not record is a bug in the workload;
/// an unrecorded per-layer metric reads 0 (layer not exercised).
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let list = if traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, number(value))
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn names(list: &Value) -> Vec<(String, String)> {
        let Value::Array(items) = list else {
            panic!("not a list: {list:?}")
        };
        items
            .iter()
            .map(|m| match (&m["name"], &m["unit"]) {
                (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                other => panic!("bad metric entry {other:?}"),
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let spec: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        assert_eq!(names(&spec["end_to_end"]), owned(END_TO_END));
        assert_eq!(names(&spec["per_layer"]), owned(PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_and_parses() {
        let mut metrics = Metrics::default();
        for &(name, _) in END_TO_END {
            metrics.set(name, 1.25);
        }
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        };
        let line = result_line(&outcome, false);
        let v: Value = serde_json::from_str(&line).expect("result line parses");
        assert_eq!(v["correct"], true);
        assert_eq!(v["metrics"]["p50_ms"]["value"], Value::Num(1.25));
        // The traced list reads 0 for layers this run did not touch.
        let traced: Value = serde_json::from_str(&result_line(&outcome, true)).unwrap();
        assert_eq!(traced["metrics"]["dist.pops"]["value"], Value::Num(0.0));
    }
}
