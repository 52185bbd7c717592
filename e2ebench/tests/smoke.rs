//! Toy-size smoke runs of every workload: the benchmark must finish,
//! find the program's answers correct, and print every metric
//! `BENCHMARK.json` names — with its unit — in its last line.

use std::process::Command;

fn benchmark_json() -> serde::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(|v| v.as_array().map(<[serde::Value]>::to_vec))
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_moas-e2e-bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--size",
            "toy",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: serde::Value = serde_json::from_str(last).expect("last line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&serde::Value::Bool(true)),
        "{workload}: {stdout}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            >= 1
    );
    assert_eq!(result.get("failed").and_then(|v| v.as_u64()), Some(0));
    let section = if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    };
    let metrics = result.get("metrics").expect("metrics object");
    let declared = declared(section);
    for (name, unit) in &declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload} did not report {name}"));
        assert_eq!(
            m.get("unit").and_then(|v| v.as_str()),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(m.get("value").and_then(|v| v.as_f64()).is_some(), "{name}");
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{name} = ")) && l.ends_with(&format!(" {unit}"))),
            "{workload} did not print {name} with its unit"
        );
    }
    let reported = match metrics {
        serde::Value::Object(fields) => fields.len(),
        _ => 0,
    };
    assert_eq!(
        reported,
        declared.len(),
        "{workload} reports metrics BENCHMARK.json does not declare"
    );
}

#[test]
fn bootstrap_reports_every_metric() {
    smoke("bootstrap", "0");
    smoke("bootstrap", "1");
}

#[test]
fn follow_reports_every_metric() {
    smoke("follow", "0");
    smoke("follow", "1");
}

#[test]
fn serve_reports_every_metric() {
    smoke("serve", "0");
    smoke("serve", "1");
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_moas-e2e-bench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
