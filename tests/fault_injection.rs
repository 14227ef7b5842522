//! Fault-injection acceptance suite (DESIGN.md "Error handling & fault
//! tolerance"): every injected failure — worker panic, hung item, truncated
//! or bit-flipped volume file, NaN-contaminated data — must surface as a
//! typed error or a degraded-but-reported result. Nothing may hang or abort
//! the process.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use sfc_repro::core::{ArrayOrder3, Dims3, Grid3, SfcError, StencilOrder, ZOrder3};
use sfc_repro::datagen::{load_volume, mri_phantom, save_volume, PhantomParams};
use sfc_repro::filters::{bilateral3d, BilateralParams, FilterRun};
use sfc_repro::harness::faults::{contaminate_nan, flip_bit, truncate_file};
use sfc_repro::harness::{Executor, FaultPlan, Schedule, SupervisorConfig, WorkPlan};
use sfc_repro::prelude::Axis;

fn tmp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sfc_fault_{}_{tag}.sfcv", std::process::id()))
}

fn cfg(timeout_ms: Option<u64>) -> SupervisorConfig {
    SupervisorConfig {
        nthreads: 4,
        schedule: Schedule::Dynamic,
        timeout: timeout_ms.map(Duration::from_millis),
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        watchdog_poll: Duration::from_millis(2),
        ..SupervisorConfig::default()
    }
}

#[test]
fn injected_panic_surfaces_as_worker_panic_in_the_report() {
    let plan = WorkPlan::dynamic(16);
    let report = Executor::new(4).run_supervised(&plan, &cfg(None), |_tid, item, _token| {
        if item == 5 {
            panic!("injected fault: boom on item {item}");
        }
        Ok(())
    });
    assert_eq!(report.completed, 15);
    assert_eq!(report.failed.len(), 1);
    let f = &report.failed[0];
    assert_eq!(f.item, 5);
    match &f.error {
        SfcError::WorkerPanic { payload, .. } => {
            assert!(payload.contains("boom"), "payload carries the panic message: {payload}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn hung_item_times_out_without_deadlocking_the_run() {
    let plan = WorkPlan::dynamic(12);
    let report = Executor::new(4).run_supervised(&plan, &cfg(Some(25)), |_tid, item, _token| {
        if item == 7 {
            // Wedged (but finite, so the test process can join it).
            std::thread::sleep(Duration::from_millis(250));
        }
        Ok(())
    });
    assert_eq!(report.completed + report.failed.len(), 12, "every item accounted");
    let timed_out: Vec<_> = report
        .failed
        .iter()
        .filter(|f| matches!(f.error, SfcError::Timeout { .. }))
        .collect();
    assert!(
        !timed_out.is_empty() && timed_out.iter().all(|f| f.item == 7),
        "only the hung item may time out: {:?}",
        report.failed
    );
}

#[test]
fn truncated_volume_file_is_a_typed_corrupt_error() {
    let path = tmp_file("truncated");
    let dims = Dims3::new(6, 5, 4);
    let values = mri_phantom(dims, 11, PhantomParams::default());
    save_volume(&path, dims, &values).unwrap();
    truncate_file(&path, 64).unwrap();
    match load_volume(&path) {
        Err(SfcError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt for truncated file, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_flipped_volume_file_fails_its_checksum() {
    let path = tmp_file("bitflip");
    let dims = Dims3::new(6, 5, 4);
    let values = mri_phantom(dims, 13, PhantomParams::default());
    save_volume(&path, dims, &values).unwrap();
    // Flip one payload bit well past the 40-byte header.
    flip_bit(&path, 40 + 17, 3).unwrap();
    match load_volume(&path) {
        Err(SfcError::Corrupt { reason, .. }) => {
            assert!(
                reason.contains("checksum"),
                "corruption should be detected by checksum: {reason}"
            );
        }
        other => panic!("expected checksum Corrupt, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn nan_contaminated_volume_filters_to_finite_output_and_is_counted() {
    let dims = Dims3::cube(12);
    let mut values = mri_phantom(dims, 17, PhantomParams::default());
    let injected = contaminate_nan(&mut values, 23, 0.02);
    assert!(injected > 0);

    let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
    let run = FilterRun {
        params: BilateralParams {
            radius: 1,
            sigma_spatial: 1.0,
            sigma_range: 0.2,
            order: StencilOrder::Xyz,
        },
        pencil_axis: Axis::X,
        weight: Default::default(),
        nthreads: 4,
    };
    let before = sfc_repro::filters::nan_events();
    let out: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &run);
    let after = sfc_repro::filters::nan_events();
    assert!(after > before, "NaN handling must be observable in counters");
    assert!(
        out.to_row_major().iter().all(|v| v.is_finite()),
        "no NaN may survive into the filtered volume"
    );
}

#[test]
fn nan_contaminated_volume_renders_to_finite_samples_and_is_counted() {
    use sfc_repro::volrend::{sample_trilinear, vec3};
    let dims = Dims3::cube(8);
    let mut values = mri_phantom(dims, 19, PhantomParams::default());
    contaminate_nan(&mut values, 29, 0.05);
    let grid = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);

    let before = sfc_repro::volrend::nan_samples();
    let mut all_finite = true;
    for i in 0..8 {
        for j in 0..8 {
            for k in 0..8 {
                let s = sample_trilinear(
                    &grid,
                    vec3(i as f32 + 0.5, j as f32 + 0.5, k as f32 + 0.5),
                );
                all_finite &= s.is_finite();
            }
        }
    }
    let after = sfc_repro::volrend::nan_samples();
    assert!(all_finite, "sampler must substitute NaN voxels");
    assert!(after > before, "substitutions must be counted");
}

#[test]
fn randomized_fault_plans_preserve_exactly_once_completion() {
    for seed in [0x6001u64, 0x6002, 0x6003, 0x6004] {
        let nitems = 48;
        let plan = FaultPlan::random(seed, nitems, 0.10, 0.20);
        let doomed = plan.doomed_items();
        let completions: Vec<AtomicU32> = (0..nitems).map(|_| AtomicU32::new(0)).collect();

        let work = WorkPlan::dynamic(nitems);
        let report = Executor::new(4).run_supervised(&work, &cfg(None), |_tid, item, _token| {
            plan.fire(item)?;
            completions[item].fetch_add(1, Ordering::SeqCst);
            Ok(())
        });

        assert_eq!(
            report.completed + report.failed.len(),
            nitems,
            "seed {seed:#x}: every item accounted exactly once"
        );
        let failed_items: Vec<usize> = report.failed.iter().map(|f| f.item).collect();
        assert_eq!(
            failed_items, doomed,
            "seed {seed:#x}: exactly the doomed items fail"
        );
        for (item, count) in completions.iter().enumerate() {
            let n = count.load(Ordering::SeqCst);
            if doomed.contains(&item) {
                assert_eq!(n, 0, "seed {seed:#x}: doomed item {item} must never complete");
            } else {
                assert_eq!(n, 1, "seed {seed:#x}: item {item} completed {n} times");
            }
        }
        if plan.len() > doomed.len() {
            assert!(
                report.retried > 0,
                "seed {seed:#x}: flaky items must be retried"
            );
        }
    }
}
