//! Every workload and metric name the benchmark emits, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! holds the two in step.

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["wave", "landscape", "service"];

/// End-to-end metrics (`--trace 0`), emitted by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("nodes_per_s", "nodes/s"),
    ("jobs_per_s", "jobs/s"),
    ("job_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`). A workload that does not exercise a
/// layer reports it as `0` and says so on a `# n/a` line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.loop_ms", "ms"),
    ("engine.rounds", "count"),
    ("engine.messages", "count"),
    ("engine.loop_us_per_round", "us"),
    ("engine.setup_ms", "ms"),
    ("engine.setup_ns_per_node", "ns"),
    ("engine.run_ms", "ms"),
    ("engine.peak_arena_mib", "MiB"),
    ("graph.build_ms", "ms"),
    ("levels.ms", "ms"),
    ("harness.run_ms", "ms"),
    ("algorithms.solve_ms_est", "ms"),
    ("verify.ms", "ms"),
    ("shard.run_ms", "ms"),
    ("shard.peak_arena_mib", "MiB"),
    ("shard.io_read_mib", "MiB"),
    ("shard.io_write_mib", "MiB"),
    ("shard.vs_mono_ratio", "ratio"),
    ("planner.plan_ms", "ms"),
    ("service.plan_cache_hit_rate", "ratio"),
    ("service.instance_cache_hit_rate", "ratio"),
    ("service.levels_cache_hit_rate", "ratio"),
    ("service.parse_us", "us"),
    ("service.encode_us", "us"),
    ("service.exec_ms", "ms"),
    ("service.wait_ms_p50_est", "ms"),
    ("service.wait_ms_p99_est", "ms"),
    ("service.overloaded", "count"),
    ("service.jobs_failed", "count"),
];

/// The unit of a catalogued metric.
#[must_use]
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::field;
    use crate::stats::valid_name;
    use serde::Value;

    fn names(value: &Value, key: &str) -> Vec<String> {
        match field(value, key) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|item| match item {
                    Value::Object(_) => match field(item, "name") {
                        Some(Value::Str(s)) => s.clone(),
                        other => panic!("`{key}` entry without a name: {other:?}"),
                    },
                    other => panic!("`{key}` holds a non-object: {other:?}"),
                })
                .collect(),
            other => panic!("BENCHMARK.json `{key}` is not a list: {other:?}"),
        }
    }

    #[test]
    fn every_name_obeys_the_name_rule() {
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n))
        {
            assert!(valid_name(name), "`{name}` breaks [A-Za-z0-9_.-]+");
        }
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let doc = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key| names(&doc, key);
        let own = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(listed("workloads"), WORKLOADS.to_vec());
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        for key in ["end_to_end", "per_layer"] {
            let Some(Value::Array(items)) = field(&doc, key) else {
                unreachable!("checked above")
            };
            for item in items {
                let Some(Value::Str(name)) = field(item, "name") else {
                    unreachable!("checked above")
                };
                assert_eq!(
                    field(item, "unit"),
                    Some(&Value::Str(unit(name).expect("catalogued").to_string())),
                    "unit of `{name}`"
                );
            }
        }
    }
}
