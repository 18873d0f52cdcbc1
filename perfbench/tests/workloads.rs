//! Seconds-long variants of every workload: each must print every metric
//! `BENCHMARK.json` names, with its unit, and the correctness gate must
//! fail the run on an injected wrong answer.

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |chunk: &str, key: &str| -> String {
        let at = chunk.find(&format!("\"{key}\"")).expect("key present");
        let rest = &chunk[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|chunk| (field(chunk, "name"), field(chunk, "unit")))
        .collect()
}

struct Run {
    code: Option<i32>,
    last_line: String,
}

fn perfbench(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "4"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Run {
        code: out.status.code(),
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

/// The metric's value, if the result line prints it with `unit`.
fn printed(line: &str, name: &str, unit: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at + name.len() + 14..];
    let end = rest.find(',')?;
    let value: f64 = rest[..end].parse().ok()?;
    rest[end..]
        .starts_with(&format!(", \"unit\": \"{unit}\"}}"))
        .then_some(value)
}

fn check_workload(workload: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let run = perfbench(workload, trace, &[]);
        assert_eq!(
            run.code,
            Some(0),
            "{workload} trace={trace}: {}",
            run.last_line
        );
        assert!(run
            .last_line
            .starts_with("{\"correct\": true, \"attempted\": "));
        for (name, unit) in declared(section) {
            let value = printed(&run.last_line, &name, &unit).unwrap_or_else(|| {
                panic!("{workload}: {name} [{unit}] missing in {}", run.last_line)
            });
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
    }
    let run = perfbench(workload, false, &["--inject-wrong-answer"]);
    assert_eq!(
        run.code,
        Some(1),
        "the gate must fail the run: {}",
        run.last_line
    );
    assert!(run.last_line.starts_with("{\"correct\": false"));
}

#[test]
fn update_mix_prints_every_metric_and_gates_answers() {
    check_workload("update-mix");
}

#[test]
fn fleet_mix_prints_every_metric_and_gates_answers() {
    check_workload("fleet-mix");
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("perfbench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
