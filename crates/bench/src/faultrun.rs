//! Fault-injection demonstrations for the figure binaries.
//!
//! Every figure binary accepts the shared fault flags — `--fault-seed N`
//! enables injection, `--panic-rate`, `--flaky-rate`, `--timeout-rate`,
//! `--corrupt-rate`, and `--stall-ms` shape it (see
//! [`FaultRates::from_args`]). When `--fault-seed` is present, the binary
//! first runs the *real* kernel once through the execution engine under a
//! selectable [`ExecPolicy`] (`--fault-policy degraded|supervised|brownout`,
//! default `degraded`) with a seeded random [`FaultPlan`], then prints the
//! [`RunReport`](sfc_harness::RunReport) and the per-unit
//! [`QualityMap`](sfc_harness::QualityMap) so the degraded-mode machinery
//! is exercised (and readable) end to end before the simulated sweep
//! starts. The run deals its units to `--fault-threads` workers (default
//! 4), and a unit's retries run on the worker it was dealt to, so each
//! stalled unit holds one worker through all of its timed-out attempts.
//! Under `--fault-policy brownout`, `--deadline-ms N` arms the wall-clock
//! budget of the deadline controller.
//!
//! Independently of the fault demo, `--nan-rate R` contaminates a
//! deterministic random fraction of the *input* voxels with NaN before
//! anything runs (seeded by `--nan-seed`, falling back to `--fault-seed`),
//! exercising the NaN-safe kernels and counters end to end.
//!
//! ```text
//! cargo run -p sfc-bench --release --bin fig2_bilateral_ivb -- \
//!     --quick --fault-seed 7 --panic-rate 0.05 --timeout-rate 0.02
//! cargo run -p sfc-bench --release --bin fig5_volrend_ivb -- \
//!     --quick --fault-seed 11 --timeout-rate 0.3 \
//!     --fault-policy brownout --deadline-ms 400 --nan-rate 0.001
//! ```

use std::time::Duration;

use sfc_core::{
    image_tiles, pencil_count, ArrayOrder3, Axis, Grid3, StencilOrder, StencilSize, Volume3,
    ZOrder3,
};
use sfc_filters::{try_bilateral3d_with_policy, BilateralParams, FilterRun};
use sfc_harness::{
    faults::contaminate_nan, Args, DeadlineBudget, DegradedOutcome, ExecPolicy, FaultPlan,
    FaultRates, SupervisorConfig,
};
use sfc_volrend::{render_with_policy, Camera, RenderOpts, TransferFunction};

use crate::checkpoint::ok_or_exit;

/// Supervisor settings for a demo run: a couple of retries, and a watchdog
/// deadline *below* the scripted stall so `--timeout-rate` items genuinely
/// expire (healthy pencils/tiles finish orders of magnitude faster).
fn supervisor(nthreads: usize, rates: &FaultRates) -> SupervisorConfig {
    SupervisorConfig {
        nthreads,
        max_retries: 2,
        backoff_base: Duration::from_millis(5),
        timeout: Some(Duration::from_millis((rates.stall_ms / 2).max(50))),
        watchdog_poll: Duration::from_millis(5),
        ..Default::default()
    }
}

/// The engine policy a demo runs under: the full graceful-degradation
/// stack (`--fault-policy degraded`, the default), supervision without
/// repair (`--fault-policy supervised`), or deadline-aware brownout
/// (`--fault-policy brownout`, budget armed by `--deadline-ms`).
fn demo_policy(
    args: &Args,
    nthreads: usize,
    rates: &FaultRates,
    output_range: Option<(f32, f32)>,
) -> ExecPolicy {
    let cfg = supervisor(nthreads, rates);
    match args.get_str("fault-policy", "degraded") {
        "supervised" => ExecPolicy::Supervised(cfg),
        "degraded" => ExecPolicy::degraded(cfg, output_range),
        "brownout" => {
            let deadline = match args.get_u64("deadline-ms", 0) {
                0 => DeadlineBudget::none(),
                ms => DeadlineBudget::with_budget(Duration::from_millis(ms)),
            };
            ExecPolicy::brownout(cfg, deadline, output_range)
        }
        other => panic!(
            "--fault-policy expects 'degraded', 'supervised', or 'brownout', got {other:?}"
        ),
    }
}

/// Print the supervised-run report and the quality map.
fn print_outcome(what: &str, unit: &str, nunits: usize, outcome: &DegradedOutcome) {
    let r = &outcome.report;
    eprintln!(
        "fault demo [{what}]: {}/{nunits} {unit}s completed, {} failed, \
         {} retries, {:.1} ms",
        r.completed,
        r.failed.len(),
        r.retried,
        r.wall_time.as_secs_f64() * 1e3,
    );
    eprintln!("fault demo [{what}]: units: {}", outcome.quality);
    if outcome.output_is_whole() {
        if outcome.quality.is_full_quality() {
            eprintln!(
                "fault demo [{what}]: output is WHOLE — every defect was repaired; \
                 the result is bitwise-identical to a fault-free run"
            );
        } else {
            eprintln!(
                "fault demo [{what}]: output is WHOLE but BROWNED OUT — every \
                 {unit} is present, the ones listed above at reduced quality"
            );
        }
    } else {
        eprintln!(
            "fault demo [{what}]: output is DEGRADED — the unrepaired {unit}s \
             above should be treated as missing"
        );
    }
    eprintln!();
}

/// When `--nan-rate R` is set, replace a deterministic random fraction of
/// the input voxels with NaN in **both** layout copies (the two grids keep
/// identical logical contents, so layout comparisons stay fair) and report
/// what was done. Seeded by `--nan-seed`, falling back to `--fault-seed`.
/// Returns the number of voxels contaminated (0 when the flag is absent).
pub fn contaminate_volume_pair(
    args: &Args,
    what: &str,
    a: &mut Grid3<f32, ArrayOrder3>,
    z: &mut Grid3<f32, ZOrder3>,
) -> usize {
    let rate = args.get_f64("nan-rate", 0.0);
    if rate <= 0.0 {
        return 0;
    }
    let seed = args.get_u64("nan-seed", args.get_u64("fault-seed", 0x5EED));
    let dims = a.dims();
    let mut values = a.to_row_major();
    let count = contaminate_nan(&mut values, seed, rate as f32);
    *a = Grid3::from_row_major(dims, &values);
    *z = a.convert();
    eprintln!(
        "nan contamination [{what}]: {count}/{} input voxels set to NaN \
         (rate {rate}, seed {seed}); NaN-safe kernels will exclude them",
        values.len(),
    );
    eprintln!();
    count
}

/// When the fault flags are present, run one bilateral filter over `vol`
/// under the graceful-degradation driver and report what happened.
/// Returns `true` when a demo ran (i.e. `--fault-seed` was given).
pub fn bilateral_fault_demo<V: Volume3 + Sync>(args: &Args, vol: &V) -> bool {
    let Some((seed, rates)) = FaultRates::from_args(args) else {
        return false;
    };
    let run = FilterRun {
        params: BilateralParams::for_size(StencilSize::R3, StencilOrder::Xyz),
        pencil_axis: Axis::X,
        weight: Default::default(),
        nthreads: args.get_usize("fault-threads", 4),
    };
    let n_pencils = pencil_count(vol.dims(), run.pencil_axis);
    let plan = FaultPlan::random_rates(seed, n_pencils, &rates);
    let policy = demo_policy(args, run.nthreads, &rates, None);
    let mut out = Grid3::<f32, ArrayOrder3>::new(vol.dims());
    let outcome = ok_or_exit(try_bilateral3d_with_policy(vol, &mut out, &run, &policy, &plan));
    print_outcome("bilateral r3", "pencil", n_pencils, &outcome);
    true
}

/// When the fault flags are present, render one frame of `vol` from `cam`
/// under the graceful-degradation renderer and report what happened.
/// Returns `true` when a demo ran.
pub fn volrend_fault_demo<V: Volume3 + Sync>(
    args: &Args,
    vol: &V,
    cam: &Camera,
    opts: &RenderOpts,
) -> bool {
    let Some((seed, rates)) = FaultRates::from_args(args) else {
        return false;
    };
    let ntiles = image_tiles(cam.width(), cam.height(), opts.tile, opts.tile).len();
    let plan = FaultPlan::random_rates(seed, ntiles, &rates);
    let policy = demo_policy(
        args,
        args.get_usize("fault-threads", 4),
        &rates,
        Some((0.0, 1.0)),
    );
    let (_img, outcome) = ok_or_exit(render_with_policy(
        vol,
        cam,
        &TransferFunction::fire(),
        opts,
        &policy,
        &plan,
    ));
    print_outcome("volrend", "tile", ntiles, &outcome);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::Dims3;

    #[test]
    fn demos_are_inert_without_the_fault_seed_flag() {
        let args = Args::parse(["--size", "64"].iter().map(|s| s.to_string()));
        let vol = Grid3::<f32, ArrayOrder3>::new(Dims3::cube(8));
        assert!(!bilateral_fault_demo(&args, &vol));
    }

    #[test]
    fn bilateral_demo_runs_and_repairs_under_fault_flags() {
        let args = Args::parse(
            [
                "--fault-seed",
                "7",
                "--panic-rate",
                "0.2",
                "--flaky-rate",
                "0.2",
                "--corrupt-rate",
                "0.2",
                "--fault-threads",
                "2",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        let dims = Dims3::cube(10);
        let data: Vec<f32> = (0..dims.len()).map(|v| (v % 97) as f32 / 97.0).collect();
        let vol = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &data);
        assert!(bilateral_fault_demo(&args, &vol));
    }
}
