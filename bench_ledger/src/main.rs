//! `bench_ledger`: one benchmark for the SFC kernels per layout and for
//! the volume service.
//!
//! ```text
//! bench_ledger --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! bench_ledger compare A.json B.json [--benchmark BENCHMARK.json]
//! bench_ledger record --out FILE --seconds S [--runs 10] [--other EXE --other-out FILE]
//! ```
//!
//! A run prints a header, one line per metric with its unit, and as its
//! last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. Inputs derive from `--seed` only. See README.md.

mod batch;
mod catalog;
mod host;
mod json;
mod layers;
mod ledger;
mod openloop;
mod serve;
mod stats;
mod trace;
mod verify;
mod vols;

use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{Def, Report};
use sfc_harness::Args;

/// Where runs keep scratch files and traces, relative to the working
/// directory (the root of the checkout).
pub const WORK_DIR: &str = ".bench_ledger";

/// Sizes for one run: the full benchmark or the quick smoke variant.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Bilateral volume edge.
    pub filter_n: usize,
    /// Render volume edge.
    pub render_n: usize,
    /// Rendered image edge.
    pub image: usize,
    /// Volume edge of the memsim counter runs.
    pub memsim_n: usize,
    /// Whether this is the smoke variant.
    pub smoke: bool,
}

impl Scale {
    /// The benchmark's sizes. Each volume fits one core's L2 (1 MiB of
    /// 2 MiB), so a call's time does not swing with what other tenants of
    /// a shared host do to the L3, and every kind of kernel call runs
    /// about 15–30 times in a 25-second run.
    pub const FULL: Scale = Scale {
        filter_n: 64,
        render_n: 64,
        image: 128,
        memsim_n: 32,
        smoke: false,
    };
    /// The `--smoke` sizes: seconds-fast, same code paths.
    pub const SMOKE: Scale = Scale {
        filter_n: 16,
        render_n: 16,
        image: 16,
        memsim_n: 16,
        smoke: true,
    };

    /// The `serve_hot` spec at this scale.
    pub fn hot(&self) -> serve::ServeSpec {
        self.serve(serve::HOT)
    }

    /// The `serve_cold` spec at this scale.
    pub fn cold(&self) -> serve::ServeSpec {
        self.serve(serve::COLD)
    }

    fn serve(&self, spec: serve::ServeSpec) -> serve::ServeSpec {
        if self.smoke {
            spec.scaled(8, 16)
        } else {
            spec
        }
    }
}

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let result = match tokens.first().map(String::as_str) {
        Some("compare") => compare(&tokens[1..]),
        Some("record") => record(&Args::parse(tokens[1..].iter().cloned())),
        _ => run(&Args::parse(tokens)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// `compare A.json B.json [--benchmark BENCHMARK.json]`: exit code 1
/// when any metric got worse.
fn compare(tokens: &[String]) -> Result<ExitCode, String> {
    let files: Vec<&String> = tokens.iter().take_while(|t| !t.starts_with("--")).collect();
    let [a, b] = files[..] else {
        return Err(
            "usage: bench_ledger compare A.json B.json [--benchmark BENCHMARK.json]".into(),
        );
    };
    let args = Args::parse(tokens[2..].iter().cloned());
    let bench = PathBuf::from(args.get_str("benchmark", "BENCHMARK.json"));
    let worse = ledger::compare(a.as_ref(), b.as_ref(), &bench)?;
    println!("worse={worse}");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `record --out FILE --seconds S [--runs 10] [--other EXE --other-out FILE]`.
fn record(args: &Args) -> Result<ExitCode, String> {
    let out = args.get("out").ok_or("--out is required")?;
    let other = args.get("other").map(PathBuf::from);
    let other_out = match (&other, args.get("other-out")) {
        (Some(_), None) => return Err("--other needs --other-out".into()),
        (_, o) => o,
    };
    let opts = ledger::RecordOpts {
        runs: number(args, "runs")?.unwrap_or(10),
        seconds: number(args, "seconds")?.ok_or("--seconds is required")?,
        other,
    };
    let ledgers = ledger::record(&opts)?;
    for (path, text) in [Some(out), other_out].into_iter().flatten().zip(ledgers) {
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The value of `--key`, parsed, if given.
fn number<T: std::str::FromStr>(args: &Args, key: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    args.get(key)
        .map(|v| v.parse().map_err(|e| format!("--{key} {v:?}: {e}")))
        .transpose()
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.get("workload").ok_or("--workload is required")?;
    let seed: u64 = number(args, "seed")?.ok_or("--seed is required")?;
    let seconds: f64 = number(args, "seconds")?.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match args.get("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    if !catalog::WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let scale = if args.has("smoke") {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let work_dir = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("create {WORK_DIR}: {e}"))?;

    println!("{}", host::header(&work_dir));
    println!(
        "run workload={workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
    let (mut report, defs) = if trace {
        let spec = if workload == "serve_cold" {
            scale.cold()
        } else {
            scale.hot()
        };
        let mut tracer = trace::Tracer::default();
        let r = layers::run(&scale, &spec, seed, &work_dir, &mut tracer)?;
        let path = work_dir.join(format!("spans-{workload}.jsonl"));
        std::fs::File::create(&path)
            .and_then(|f| tracer.write_jsonl(std::io::BufWriter::new(f)))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans {} written={}", path.display(), tracer.spans().len());
        (r, catalog::per_layer())
    } else {
        let r = match workload {
            "filter_batch" => batch::filter_batch(scale.filter_n, seed, seconds),
            "render_orbit" => batch::render_orbit(scale.render_n, scale.image, seed, seconds),
            "serve_hot" => serve::run_workload(&scale.hot(), seed, seconds, &work_dir)?,
            "serve_cold" => serve::run_workload(&scale.cold(), seed, seconds, &work_dir)?,
            other => return Err(format!("unknown workload {other:?}")),
        };
        (r, catalog::end_to_end())
    };
    if !trace {
        report.set("peak_rss_mb", host::peak_rss_mb());
    }
    print_result(&report, &defs)
}

/// Print notes, one line per metric, and the result object; fail when a
/// catalog metric is missing or an unknown one was recorded.
fn print_result(report: &Report, defs: &[Def]) -> Result<ExitCode, String> {
    for n in &report.notes {
        println!("{n}");
    }
    let mut body = Vec::with_capacity(defs.len());
    for d in defs {
        let value = report
            .metrics
            .iter()
            .find(|(name, _)| *name == d.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        println!("metric {:<40} {:>16.6} {}", d.name, value, d.unit);
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(&d.name),
            json::num(value),
            json::quote(d.unit)
        ));
    }
    if let Some((extra, _)) = report
        .metrics
        .iter()
        .find(|(name, _)| catalog::find(defs, name).is_none())
    {
        return Err(format!("metric {extra} is not in the catalog"));
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}
