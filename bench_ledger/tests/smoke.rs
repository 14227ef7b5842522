//! Seconds-fast gate for the benchmark: every workload at the `--smoke`
//! sizes (16³ volumes, size-8 requests), checked against the metric names
//! and units `BENCHMARK.json` declares and against the memsim counts
//! pinned in `baseline.json`.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Json;

const WORKLOADS: [&str; 4] = ["filter_batch", "render_orbit", "serve_hot", "serve_cold"];

fn package_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(name)
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark_json() -> Json {
    load(&package_file("../BENCHMARK.json"))
}

/// Run the benchmark with `args` in a scratch directory named `tag`.
fn bench_ledger(tag: &str, args: &[&str]) -> Output {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("ledger-{tag}"));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    Command::new(env!("CARGO_BIN_EXE_bench_ledger"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn bench_ledger")
}

/// One smoke run; returns its result line, parsed.
fn smoke(workload: &str, trace: bool) -> Json {
    let trace = if trace { "1" } else { "0" };
    let out = bench_ledger(
        &format!("{workload}-{trace}"),
        &[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).unwrap_or_else(|e| panic!("{last}: {e}"));
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {last}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}: {last}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
        "{workload}: {last}"
    );
    result
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let bench = benchmark_json();
    let mut v: Vec<(String, String)> = bench
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect();
    v.sort();
    v
}

/// `(name, unit)` of every metric in a result line.
fn printed(result: &Json) -> Vec<(String, String)> {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} has no numeric value"))
}

#[test]
fn every_workload_verifies_and_prints_the_declared_end_to_end_metrics() {
    let want = declared("end_to_end");
    for w in WORKLOADS {
        let result = smoke(w, false);
        assert_eq!(printed(&result), want, "{w}");
        for (name, _) in &want {
            let v = value(&result, name);
            assert!(v.is_finite() && v > 0.0, "{w}: {name} = {v}");
        }
    }
}

#[test]
fn traced_runs_print_the_per_layer_metrics_and_the_pinned_memsim_counts() {
    let want = declared("per_layer");
    let baseline = load(&package_file("baseline.json"));
    let pin = baseline
        .get("memsim_pin")
        .and_then(Json::as_object)
        .expect("memsim_pin block");
    // The service replay differs between the two: the hot spec for every
    // workload but `serve_cold`, which replays its own durable traffic.
    for w in ["filter_batch", "serve_cold"] {
        let result = smoke(w, true);
        assert_eq!(printed(&result), want, "{w}");
        let memsim: Vec<&(String, String)> = want
            .iter()
            .filter(|(n, _)| n.starts_with("memsim."))
            .collect();
        assert_eq!(memsim.len(), pin.len(), "every memsim count is pinned");
        for (name, _) in memsim {
            let pinned = pin
                .get(name)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name} not pinned"));
            assert!(pinned > 0.0, "{name} is pinned at zero");
            assert_eq!(value(&result, name), pinned, "{w}: {name}");
        }
    }
}

#[test]
fn compare_judges_a_ledger_against_itself_as_unchanged() {
    let baseline = package_file("baseline.json");
    let bench = package_file("../BENCHMARK.json");
    let (b, m) = (
        baseline.to_str().expect("path"),
        bench.to_str().expect("path"),
    );
    let out = bench_ledger("compare", &["compare", b, b, "--benchmark", m]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.lines().any(|l| l.ends_with("same")), "{stdout}");
    assert!(!stdout.lines().any(|l| l.ends_with("worse")), "{stdout}");
}

#[test]
fn an_unknown_workload_fails_without_a_result_line() {
    let out = bench_ledger(
        "unknown",
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    );
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().all(|l| !l.starts_with('{')), "{stdout}");
}
