//! The metric catalogue: every end-to-end metric, every per-layer metric,
//! and for each per-layer metric the end-to-end metric and workload it is
//! expected to move.  `BENCHMARK.json` lists the same names; a test keeps
//! the two in step.

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics; every workload reports each of them.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        bound: 0.25,
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "jobs_per_s",
        bound: 0.25,
        unit: "1/s",
        better: "higher",
    },
    EndToEnd {
        name: "job_p50_ms",
        bound: 0.25,
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "peak_rss_mib",
        bound: 0.2,
        unit: "MiB",
        better: "lower",
    },
];

/// A per-layer metric and the end-to-end figure it should move.
pub struct Layer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// `metric[,metric]@workload[; …]`: what a change in this layer should
    /// move.  "none on W" marks a workload where no change is expected.
    pub moves: &'static str,
    /// The workloads whose traced run must measure this metric.  A traced
    /// run that misses one of these, or measures a metric not listed for
    /// it, fails; the others read 0 and stay `never` in the ledger.
    pub on: &'static [&'static str],
}

/// Operation caches of the BDD kernel, in `ManagerStats::caches()` order.
pub const BDD_CACHES: [&str; 8] = [
    "and", "xor", "ite", "cofactor", "xor3", "maj", "flip", "mux",
];

/// Gate kinds the workloads apply (`Gate::name()` spelling).
pub const GATE_KINDS: [&str; 12] = [
    "x", "y", "z", "h", "s", "t", "cx", "cz", "ccx", "cswap", "rx_pi2", "ry_pi2",
];

/// Circuit families of the strong workload.
pub const FAMILIES: [&str; 5] = ["rct", "rev", "bv", "ent", "grcs"];

/// Server backends `Auto` can choose for the serve mix.
pub const SERVE_BACKENDS: [&str; 2] = ["bitslice", "stabilizer"];

const CIRCUIT: &str = "job_p50_ms@serve; none on strong";
const EXEC_SESSION: &str = "jobs_per_s@strong";
const EXEC_SAMPLE: &str = "jobs_per_s@sample; none on strong";
const EXEC_CACHE: &str = "job_p50_ms,jobs_per_s@serve";
const KERNEL: &str = "jobs_per_s,peak_rss_mib@strong";
const KERNEL_SAMPLE: &str = "jobs_per_s@sample";
const SERVE: &str = "job_p50_ms,jobs_per_s@serve";
const BENCH: &str = "none (cost and completeness of tracing)";

const ALL: &[&str] = &["strong", "sample", "serve"];
const ON_STRONG: &[&str] = &["strong"];
const ON_SAMPLE: &[&str] = &["sample"];
const ON_SERVE: &[&str] = &["serve"];
const ON_SAMPLING: &[&str] = &["sample", "serve"];

/// Gate kinds only the strong workload's GRCS circuits apply.
const GRCS_ONLY_GATES: [&str; 2] = ["rx_pi2", "ry_pi2"];

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<Layer> {
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str, moves, on| {
        out.push(Layer {
            name,
            unit,
            better,
            moves,
            on,
        })
    };
    add("circuit.parse_ms".into(), "ms", "lower", CIRCUIT, ALL);
    add("circuit.optimize_ms".into(), "ms", "lower", CIRCUIT, ALL);
    add(
        "circuit.gates_removed".into(),
        "count",
        "higher",
        CIRCUIT,
        ALL,
    );
    for name in ["exec.open_ms", "exec.run_ms", "exec.drop_ms"] {
        add(name.into(), "ms", "lower", EXEC_SESSION, ALL);
    }
    add(
        "exec.sample_first_ms".into(),
        "ms",
        "lower",
        EXEC_SAMPLE,
        ON_SAMPLING,
    );
    add(
        "exec.sample_repeat_ms".into(),
        "ms",
        "lower",
        EXEC_SAMPLE,
        ON_SAMPLE,
    );
    add("exec.fingerprint_ms".into(), "ms", "lower", EXEC_CACHE, ALL);
    add(
        "exec.cache.hits".into(),
        "count",
        "higher",
        EXEC_CACHE,
        ON_SERVE,
    );
    add(
        "exec.cache.misses".into(),
        "count",
        "lower",
        EXEC_CACHE,
        ON_SERVE,
    );
    for name in ["exec.cache.insertions", "exec.cache.evictions"] {
        add(name.into(), "count", "lower", EXEC_CACHE, ON_SERVE);
    }
    add(
        "exec.cache.hit_ratio".into(),
        "ratio",
        "higher",
        EXEC_CACHE,
        ON_SERVE,
    );
    for kind in GATE_KINDS {
        let on = if GRCS_ONLY_GATES.contains(&kind) {
            ON_STRONG
        } else {
            ALL
        };
        add(
            format!("core.gate.{kind}.count"),
            "count",
            "lower",
            KERNEL,
            on,
        );
        add(format!("core.gate.{kind}.ms"), "ms", "lower", KERNEL, on);
    }
    for family in FAMILIES {
        let on = if family == "rct" { ALL } else { ON_STRONG };
        add(
            format!("core.gate_mean_us.{family}"),
            "us",
            "lower",
            KERNEL,
            on,
        );
    }
    add("core.width_r_max".into(), "count", "lower", KERNEL, ALL);
    add("core.peak_nodes".into(), "count", "lower", KERNEL, ALL);
    add(
        "core.total_probability_ms".into(),
        "ms",
        "lower",
        KERNEL,
        ON_STRONG,
    );
    for (prefix, moves, on) in [
        ("bdd", KERNEL, ALL),
        ("bdd.sample", KERNEL_SAMPLE, ON_SAMPLE),
    ] {
        for cache in BDD_CACHES {
            add(
                format!("{prefix}.{cache}.lookups"),
                "count",
                "lower",
                moves,
                on,
            );
            add(
                format!("{prefix}.{cache}.hit_ratio"),
                "ratio",
                "higher",
                moves,
                on,
            );
        }
    }
    add("bdd.created_nodes".into(), "count", "lower", KERNEL, ALL);
    add("bdd.peak_bytes".into(), "bytes", "lower", KERNEL, ALL);
    add("bdd.gc_runs".into(), "count", "lower", KERNEL, ALL);
    add(
        "bdd.chunks_reclaimed".into(),
        "count",
        "higher",
        KERNEL,
        ALL,
    );
    add("bdd.unique_resizes".into(), "count", "lower", KERNEL, ALL);
    add("bdd.cache_cap_raises".into(), "count", "lower", KERNEL, ALL);
    add(
        "bdd.sample.created_nodes".into(),
        "count",
        "lower",
        KERNEL_SAMPLE,
        ON_SAMPLE,
    );
    for name in ["serve.rtt_ms", "serve.overhead_ms", "serve.late_ms"] {
        add(name.into(), "ms", "lower", SERVE, ON_SERVE);
    }
    for name in ["serve.server_run_us", "serve.server_sample_us"] {
        add(name.into(), "us", "lower", SERVE, ON_SERVE);
    }
    add("serve.overloaded".into(), "count", "lower", SERVE, ON_SERVE);
    add("serve.errors".into(), "count", "lower", SERVE, ON_SERVE);
    for backend in SERVE_BACKENDS {
        add(
            format!("serve.backend.{backend}"),
            "count",
            "lower",
            SERVE,
            ON_SERVE,
        );
    }
    add(
        "bench.trace_overhead_ratio".into(),
        "ratio",
        "lower",
        BENCH,
        ALL,
    );
    add("bench.span_coverage".into(), "ratio", "higher", BENCH, ALL);
    out
}

/// Checks a traced run's metrics against the catalogue: every metric
/// `workload` must measure is there, and no other.  Fills the rest with 0
/// and returns their names.
pub fn complete(
    workload: &str,
    metrics: &mut std::collections::BTreeMap<String, f64>,
) -> Result<Vec<String>, String> {
    let mut unexercised = Vec::new();
    for layer in per_layer() {
        match (
            layer.on.contains(&workload),
            metrics.contains_key(&layer.name),
        ) {
            (true, true) => {}
            (true, false) => return Err(format!("{workload} did not measure {}", layer.name)),
            (false, true) => {
                return Err(format!(
                    "{workload} measured {}, which the catalogue says it never calls",
                    layer.name
                ))
            }
            (false, false) => {
                metrics.insert(layer.name.clone(), 0.0);
                unexercised.push(layer.name);
            }
        }
    }
    Ok(unexercised)
}

fn json_str(text: &str) -> String {
    format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The repository's `BENCHMARK.json`, generated from this catalogue.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let command: Vec<String> = crate::COMMAND.iter().map(|a| json_str(a)).collect();
    out += &format!("  \"command\": [{}],\n", command.join(", "));
    out += &format!("  \"paths\": [{}],\n", json_str(crate::BENCH_DIR));
    out += &format!("  \"run_seconds\": {},\n", crate::RUN_SECONDS);
    let workloads: Vec<String> = crate::WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    out += &format!("  \"workloads\": [\n{}\n  ],\n", workloads.join(",\n"));
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    out += &format!("  \"end_to_end\": [\n{}\n  ],\n", e2e.join(",\n"));
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    out += &format!("  \"per_layer\": [\n{}\n  ]\n}}\n", layers.join(",\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_are_unique_valid_and_within_limits() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .chain(per_layer().into_iter().map(|m| m.name))
        {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn every_layer_metric_is_measured_somewhere() {
        for layer in per_layer() {
            assert!(!layer.on.is_empty(), "{} is measured nowhere", layer.name);
            for workload in layer.on {
                assert!(
                    crate::WORKLOADS.iter().any(|(name, _)| name == workload),
                    "{}: unknown workload {workload}",
                    layer.name
                );
            }
        }
    }

    #[test]
    fn completion_fails_on_a_missing_or_unexpected_metric() {
        let required = |workload: &str| -> std::collections::BTreeMap<String, f64> {
            per_layer()
                .into_iter()
                .filter(|m| m.on.contains(&workload))
                .map(|m| (m.name, 1.0))
                .collect()
        };
        let mut metrics = required("sample");
        let filled = complete("sample", &mut metrics).unwrap();
        assert!(filled.contains(&"serve.rtt_ms".to_string()));
        assert_eq!(metrics["serve.rtt_ms"], 0.0);
        assert_eq!(metrics.len(), per_layer().len());

        let mut metrics = required("strong");
        metrics.remove("exec.run_ms");
        assert!(complete("strong", &mut metrics).is_err());

        let mut metrics = required("strong");
        metrics.insert("bdd.sample.created_nodes".into(), 3.0);
        assert!(complete("strong", &mut metrics).is_err());
    }

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            benchmark_json(),
            "regenerate it with `perfbench benchmark-json > BENCHMARK.json`"
        );
    }
}
