//! Short mode of every workload, untraced and traced: every metric named
//! in `BENCHMARK.json` is printed with its unit and every output verifies.

use std::process::Command;

/// `(name, unit)` of each entry in one section of `BENCHMARK.json`.
fn section(text: &str, key: &str) -> Vec<(String, String)> {
    let start = text
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let end = start + text[start..].find(']').expect("section end");
    text[start..end]
        .lines()
        .filter_map(|line| {
            let field = |name: &str| {
                let at = line.find(&format!("\"{name}\": \""))? + name.len() + 5;
                Some(line[at..at + line[at..].find('"')?].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

fn run_short(workload: &str, trace: bool) {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let wanted = section(&text, if trace { "per_layer" } else { "end_to_end" });
    assert!(!wanted.is_empty());
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--short",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {last}\n{stderr}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for (name, unit) in &wanted {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload} trace={trace}: {name} missing"));
        let rest = &last[at + entry.len()..];
        let comma = rest.find(',').expect("value end");
        let value: f64 = rest[..comma].parse().expect("numeric value");
        assert!(value.is_finite());
        assert!(
            rest[comma..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{name} lacks unit {unit}"
        );
        if !trace {
            assert!(value > 0.0, "{workload}: end-to-end {name} reads {value}");
        }
    }
    assert_eq!(
        last.matches("\"value\": ").count(),
        wanted.len(),
        "{workload}: metrics beyond the catalogue"
    );
}

#[test]
fn strong_short() {
    run_short("strong", false);
    run_short("strong", true);
}

#[test]
fn sample_short() {
    run_short("sample", false);
    run_short("sample", true);
}

#[test]
fn serve_short() {
    run_short("serve", false);
    run_short("serve", true);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nonesuch", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
