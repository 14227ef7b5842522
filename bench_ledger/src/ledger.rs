//! Ledger files: `record` runs every workload several times and writes
//! one row per measured value; `compare` reads two ledgers and judges
//! every (workload, metric) pair against `BENCHMARK.json`'s bounds.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::catalog::{split_name, WORKLOADS};
use crate::json::{num, quote, Json};
use crate::stats::{median, quartiles, spread};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Layer (`e2e` for end-to-end metrics, `bench` for validity facts).
    pub layer: String,
    /// Workload the run executed.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Layout named in the metric, if any.
    pub layout: Option<String>,
    /// Configuration named in the metric, if any.
    pub config: Option<String>,
    /// Unit.
    pub unit: String,
    /// Value.
    pub value: f64,
    /// Seed of the run.
    pub seed: u64,
}

impl Row {
    fn to_json(&self) -> String {
        let opt = |o: &Option<String>| o.as_deref().map_or("null".to_string(), quote);
        format!(
            "{{\"layer\": {}, \"workload\": {}, \"metric\": {}, \"layout\": {}, \"config\": {}, \"unit\": {}, \"value\": {}, \"seed\": {}}}",
            quote(&self.layer),
            quote(&self.workload),
            quote(&self.metric),
            opt(&self.layout),
            opt(&self.config),
            quote(&self.unit),
            num(self.value),
            self.seed
        )
    }

    fn from_json(v: &Json) -> Option<Row> {
        let s = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        Some(Row {
            layer: s("layer")?,
            workload: s("workload")?,
            metric: s("metric")?,
            layout: s("layout"),
            config: s("config"),
            unit: s("unit")?,
            value: v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            seed: v.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        })
    }
}

/// One run's rows, parsed from its output: the metrics of the last line
/// and, for service workloads, the `bench` validity line.
pub fn rows_of_run(stdout: &str, workload: &str, seed: u64) -> Result<Vec<Row>, String> {
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("result line: {e}"))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed} did not verify: {last}"));
    }
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result has no metrics")?;
    let mut rows = Vec::new();
    for (name, m) in metrics {
        let (layer, layout, config) = split_name(name);
        rows.push(Row {
            layer,
            workload: workload.to_string(),
            metric: name.clone(),
            layout,
            config,
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            value: m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            seed,
        });
    }
    if let Some(line) = stdout.lines().find(|l| l.starts_with("bench ")) {
        for kv in line.split_whitespace().skip(1) {
            let Some((k, v)) = kv.split_once('=') else {
                continue;
            };
            let unit = match k {
                "samples" | "checked" | "phase_b_completed" => "count",
                k if k.ends_with("_ms") => "ms",
                _ => "flag",
            };
            if let Ok(value) = v.parse::<f64>() {
                rows.push(Row {
                    layer: "bench".into(),
                    workload: workload.to_string(),
                    metric: format!("bench.{k}"),
                    layout: None,
                    config: None,
                    unit: unit.into(),
                    value,
                    seed,
                });
            }
        }
    }
    Ok(rows)
}

/// Options of `bench_ledger record`.
#[derive(Debug, Clone)]
pub struct RecordOpts {
    /// Untraced runs per workload (seeds 1..=runs); one traced run
    /// follows them.
    pub runs: u64,
    /// Seconds per run.
    pub seconds: f64,
    /// Another build of the benchmark, run alternately with this one.
    pub other: Option<PathBuf>,
}

/// How one run of the benchmark is made.
#[derive(Debug, Clone, Copy)]
struct RunKind {
    trace: bool,
    smoke: bool,
}

/// Output of one run of `exe`, or why it failed.
fn run_once(
    exe: &Path,
    seconds: f64,
    workload: &str,
    seed: u64,
    kind: RunKind,
) -> Result<String, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if kind.trace { "1" } else { "0" }]);
    if kind.smoke {
        cmd.arg("--smoke");
    }
    eprintln!("record: {} {workload} seed={seed} {kind:?}", exe.display());
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Run every workload through this executable (and `opts.other`, taking
/// turns at going first) and render each one's ledger: its rows plus the
/// memsim counts of a smoke traced run (the `memsim_pin` block).
pub fn record(opts: &RecordOpts) -> Result<Vec<String>, String> {
    let mut exes = vec![std::env::current_exe().map_err(|e| e.to_string())?];
    exes.extend(opts.other.clone());
    let timed = RunKind {
        trace: false,
        smoke: false,
    };
    let traced = RunKind {
        trace: true,
        smoke: false,
    };
    let pinned = RunKind {
        trace: true,
        smoke: true,
    };
    let mut rows = vec![Vec::new(); exes.len()];
    let mut hosts = vec![String::new(); exes.len()];
    for &w in &WORKLOADS {
        for seed in 1..=opts.runs {
            for k in 0..exes.len() {
                // Odd seeds run this build first, even seeds the other.
                let side = if seed % 2 == 1 { k } else { exes.len() - 1 - k };
                let stdout = run_once(&exes[side], opts.seconds, w, seed, timed)?;
                hosts[side] = stdout.lines().next().unwrap_or("").to_string();
                rows[side].extend(rows_of_run(&stdout, w, seed)?);
            }
        }
        for (side, exe) in exes.iter().enumerate() {
            rows[side].extend(rows_of_run(
                &run_once(exe, opts.seconds, w, 1, traced)?,
                w,
                1,
            )?);
        }
    }
    let mut ledgers = Vec::with_capacity(exes.len());
    for (side, exe) in exes.iter().enumerate() {
        let stdout = run_once(exe, opts.seconds, WORKLOADS[0], 1, pinned)?;
        let pin: Vec<String> = rows_of_run(&stdout, WORKLOADS[0], 1)?
            .iter()
            .filter(|r| r.layer == "memsim")
            .map(|r| format!("    {}: {}", quote(&r.metric), num(r.value)))
            .collect();
        let body: Vec<String> = rows[side]
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        ledgers.push(format!(
            "{{\n  \"host\": {},\n  \"runs\": {},\n  \"seconds\": {},\n  \"memsim_pin\": {{\n{}\n  }},\n  \"rows\": [\n{}\n  ]\n}}\n",
            quote(&hosts[side]),
            opts.runs,
            num(opts.seconds),
            pin.join(",\n"),
            body.join(",\n")
        ));
    }
    Ok(ledgers)
}

/// Read the rows of a ledger file.
pub fn load_rows(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no rows", path.display()))?
        .iter()
        .map(|r| Row::from_json(r).ok_or_else(|| format!("{}: malformed row", path.display())))
        .collect()
}

/// Direction and bound of every metric `BENCHMARK.json` names (`None`
/// bound for per-layer metrics).
pub fn load_bounds(path: &Path) -> Result<BTreeMap<String, (bool, Option<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Json::as_array).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = m.get("bound").and_then(Json::as_f64);
            out.insert(name.to_string(), (higher, bound));
        }
    }
    Ok(out)
}

/// How B compares with A on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least nine tenths of at least ten seed pairs and the
    /// medians differ by more than A's interquartile range.
    Better,
    /// B's median is worse than A's by more than the bound (or, without a
    /// bound, B loses as a gain would have to win).
    Worse,
    /// Neither.
    Same,
    /// A's own spread exceeds the bound and the runs do not separate or,
    /// for a metric without a bound, fewer than ten pairs were run.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Seed pairs a win or a loss needs before it counts.
const MIN_PAIRS: usize = 10;

/// Judge B against A. `pairs` are `(a, b)` values of runs with the same
/// seed; `higher` says which direction is better.
pub fn judge(
    a: &[f64],
    b: &[f64],
    pairs: &[(f64, f64)],
    higher: bool,
    bound: Option<f64>,
) -> Verdict {
    let (qa1, ma, qa3) = quartiles(a);
    let gain = |x: f64, y: f64| if higher { y - x } else { x - y };
    let gap = gain(ma, median(b));
    let iqr = qa3 - qa1;
    if gap == 0.0 && iqr == 0.0 {
        return Verdict::Same;
    }
    let enough = pairs.len() >= MIN_PAIRS;
    // Nine tenths of the pairs, ties counting for neither side.
    let most = |won: &dyn Fn(f64, f64) -> bool| {
        enough && pairs.iter().filter(|(x, y)| won(*x, *y)).count() * 10 >= pairs.len() * 9
    };
    if gap > iqr && most(&|x, y| gain(x, y) > 0.0) {
        return Verdict::Better;
    }
    match bound {
        Some(bound) => {
            let all_better = a.iter().all(|x| b.iter().all(|y| gain(*x, *y) > 0.0));
            if iqr > bound * ma.abs() && !all_better {
                Verdict::Unresolved
            } else if -gap > bound * ma.abs() {
                Verdict::Worse
            } else {
                Verdict::Same
            }
        }
        None if -gap > iqr && most(&|x, y| gain(x, y) < 0.0) => Verdict::Worse,
        None if enough => Verdict::Same,
        None => Verdict::Unresolved,
    }
}

/// Print one line per (workload, metric) present in both ledgers; the
/// result is the number of `worse` verdicts.
pub fn compare(a_path: &Path, b_path: &Path, bench: &Path) -> Result<usize, String> {
    let (a, b) = (load_rows(a_path)?, load_rows(b_path)?);
    let bounds = load_bounds(bench)?;
    type Key = (String, String);
    let group = |rows: &[Row]| {
        let mut m: BTreeMap<Key, Vec<(u64, f64)>> = BTreeMap::new();
        for r in rows {
            m.entry((r.workload.clone(), r.metric.clone()))
                .or_default()
                .push((r.seed, r.value));
        }
        m
    };
    let (ga, gb) = (group(&a), group(&b));
    let mut worse = 0;
    println!(
        "{:<13} {:<40} {:>12} {:>8} {:>12} {:>8}  verdict",
        "workload", "metric", "A median", "A spread", "B median", "change"
    );
    for (key, va) in &ga {
        let Some(vb) = gb.get(key) else { continue };
        let Some(&(higher, bound)) = bounds.get(&key.1) else {
            continue;
        };
        let xs: Vec<f64> = va.iter().map(|v| v.1).collect();
        let ys: Vec<f64> = vb.iter().map(|v| v.1).collect();
        let pairs: Vec<(f64, f64)> = va
            .iter()
            .filter_map(|(s, x)| vb.iter().find(|(t, _)| t == s).map(|(_, y)| (*x, *y)))
            .collect();
        let verdict = judge(&xs, &ys, &pairs, higher, bound);
        worse += usize::from(verdict == Verdict::Worse);
        let (ma, mb) = (median(&xs), median(&ys));
        println!(
            "{:<13} {:<40} {:>12.4} {:>7.1}% {:>12.4} {:>7.1}%  {}",
            key.0,
            key.1,
            ma,
            spread(&xs) * 100.0,
            mb,
            (mb - ma) / ma.abs() * 100.0,
            verdict.name()
        );
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn a_clear_win_is_better_and_a_clear_loss_is_worse() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            judge(&a, &faster, &pairs(&a, &faster), false, Some(0.1)),
            Verdict::Better
        );
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&a, &slower, &pairs(&a, &slower), false, Some(0.1)),
            Verdict::Worse
        );
        // The same change on a higher-is-better metric flips.
        assert_eq!(
            judge(&a, &slower, &pairs(&a, &slower), true, Some(0.1)),
            Verdict::Better
        );
    }

    #[test]
    fn small_changes_are_the_same_and_noise_is_unresolved() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1.03).collect();
        assert_eq!(
            judge(&a, &b, &pairs(&a, &b), false, Some(0.1)),
            Verdict::Same
        );
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 90.0,
        ];
        let b: Vec<f64> = noisy.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            judge(&noisy, &b, &pairs(&noisy, &b), false, Some(0.1)),
            Verdict::Unresolved
        );
        // Identical counts are the same, without a bound too.
        let c = [7.0; 4];
        assert_eq!(judge(&c, &c, &pairs(&c, &c), false, None), Verdict::Same);
    }

    #[test]
    fn too_few_pairs_decide_nothing_without_a_bound() {
        // One traced run per side: any difference is unresolved.
        assert_eq!(
            judge(&[5.0], &[4.0], &[(5.0, 4.0)], false, None),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[5.0], &[6.0], &[(5.0, 6.0)], false, None),
            Verdict::Unresolved
        );
        // A bound still catches a large loss in the medians.
        assert_eq!(
            judge(&[5.0], &[7.0], &[(5.0, 7.0)], false, Some(0.25)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[5.0], &[4.0], &[(5.0, 4.0)], false, Some(0.25)),
            Verdict::Same
        );
    }

    #[test]
    fn run_output_becomes_rows() {
        let out = "host nproc=2\nbench samples=1200 lag_p99_ms=1.5 slo_met=1\n\
                   {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"layout_ms.z\": {\"value\": 2.5, \"unit\": \"ms\"}, \"filters.pass_ms.z.r1_px_xyz\": {\"value\": 9, \"unit\": \"ms\"}}}";
        let rows = rows_of_run(out, "serve_hot", 4).expect("rows");
        let z = rows
            .iter()
            .find(|r| r.metric == "layout_ms.z")
            .expect("e2e row");
        assert_eq!(
            (z.layer.as_str(), z.layout.as_deref(), z.value, z.seed),
            ("e2e", Some("z"), 2.5, 4)
        );
        let f = rows
            .iter()
            .find(|r| r.layer == "filters")
            .expect("layer row");
        assert_eq!(f.config.as_deref(), Some("r1_px_xyz"));
        let s = rows
            .iter()
            .find(|r| r.metric == "bench.samples")
            .expect("bench row");
        assert_eq!((s.value, s.unit.as_str()), (1200.0, "count"));
        assert_eq!(
            Row::from_json(&Json::parse(&s.to_json()).expect("json")),
            Some(s.clone())
        );
        assert!(rows_of_run("{\"correct\": false, \"metrics\": {}}", "x", 1).is_err());
    }
}
