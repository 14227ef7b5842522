//! Chaos suite (DESIGN.md "Degraded-mode semantics"): the full
//! datagen → bilateral → render → checkpoint pipeline runs under
//! randomized fault plans across several seeds. The contract under test:
//! every run terminates (no hang, no abort) in either **bitwise-correct
//! output** or a **typed, readable report** (`RunReport` + `QualityMap`),
//! and no persistent artifact is ever torn — a simulated `kill -9`
//! mid-checkpoint loses at most the record being written and never a
//! completed cell.
//!
//! Seeds default to four fixed values; override with a comma-separated
//! `CHAOS_SEEDS` environment variable (CI runs the default set).

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use sfc_bench::Checkpoint;
use sfc_repro::core::{pencil, pencil_count, ArrayOrder3, Dims3, Grid3, ZOrder3};
use sfc_repro::datagen::{load_volume, mri_phantom, save_volume, PhantomParams};
use sfc_repro::filters::{bilateral3d, try_bilateral3d_with_policy, BilateralParams, FilterRun};
use sfc_repro::harness::durable::tmp_sibling;
use sfc_repro::harness::{DeadlineBudget, ExecPolicy, FaultPlan, FaultRates, SupervisorConfig};
use sfc_repro::prelude::{Axis, StencilOrder};
use sfc_repro::volrend::{render, render_with_policy, Camera, RenderOpts, TransferFunction};
use sfc_repro::volrend::{vec3, Projection};

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("CHAOS_SEEDS must be comma-separated integers, got {t:?}"))
            })
            .collect(),
        Err(_) => vec![0xC0FFEE, 0xBAD5EED, 0x0DDB17, 0xFACADE],
    }
}

fn tmp_path(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("sfc_chaos_{}_{tag}_{seed:x}", std::process::id()))
}

/// Aggressive-but-bounded fault rates: with ~100 pencils per run, every
/// seed draws a healthy mix of panics, flakes, stalls, and corruptions.
fn rates() -> FaultRates {
    FaultRates {
        panic: 0.10,
        flaky: 0.15,
        stall: 0.05,
        corrupt: 0.10,
        stall_ms: 100,
    }
}

/// Watchdog below the scripted stall so stalled items genuinely expire.
fn cfg() -> SupervisorConfig {
    SupervisorConfig {
        nthreads: 4,
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        timeout: Some(Duration::from_millis(50)),
        watchdog_poll: Duration::from_millis(2),
        ..Default::default()
    }
}

#[test]
fn volume_io_is_atomic_under_stale_temps_across_seeds() {
    for seed in chaos_seeds() {
        let dims = Dims3::new(10, 8, 6);
        let values = mri_phantom(dims, seed, PhantomParams::default());
        let path = tmp_path("vol", seed);
        // A stale temp sibling left by a previously killed writer must not
        // confuse (or be confused with) the real artifact.
        std::fs::write(tmp_sibling(&path), b"stale garbage from a dead writer").unwrap();
        save_volume(&path, dims, &values).unwrap();
        assert!(!tmp_sibling(&path).exists(), "seed {seed:#x}: temp must be consumed by rename");
        let (rdims, rvalues) = load_volume(&path).unwrap();
        assert_eq!(rdims, dims);
        assert_eq!(
            rvalues.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "seed {seed:#x}: save/load must be bitwise lossless"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn degraded_bilateral_ends_whole_or_typed_across_seeds() {
    for seed in chaos_seeds() {
        let dims = Dims3::new(10, 9, 8);
        let values = mri_phantom(dims, seed, PhantomParams::default());
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
        let reference: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &run);
        let n_pencils = pencil_count(dims, run.pencil_axis);
        let plan = FaultPlan::random_rates(seed, n_pencils, &rates());

        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let policy = ExecPolicy::degraded(cfg(), None);
        let outcome = try_bilateral3d_with_policy(&grid, &mut out, &run, &policy, &plan).unwrap();

        // Contract: the run terminated with a full accounting...
        assert_eq!(
            outcome.report.completed + outcome.report.failed.len(),
            n_pencils,
            "seed {seed:#x}: every pencil accounted"
        );
        // ...and every pencil outside the unrepaired set is bitwise
        // identical to the fault-free reference. (The input is finite and
        // repair disables injection, so in practice the map ends whole.)
        let unrepaired = outcome.quality.unrepaired_units();
        for pid in 0..n_pencils {
            if unrepaired.binary_search(&pid).is_ok() {
                continue;
            }
            for (i, j, k) in pencil(dims, run.pencil_axis, pid).iter() {
                assert_eq!(
                    out.get(i, j, k).to_bits(),
                    reference.get(i, j, k).to_bits(),
                    "seed {seed:#x}: pencil {pid} voxel ({i},{j},{k}) diverged"
                );
            }
        }
        assert!(
            outcome.output_is_whole(),
            "seed {seed:#x}: finite input must repair to whole, got {}",
            outcome.quality
        );
    }
}

#[test]
fn degraded_render_ends_whole_or_typed_across_seeds() {
    for seed in chaos_seeds() {
        let n = 12;
        let dims = Dims3::cube(n);
        let values = mri_phantom(dims, seed, PhantomParams::default());
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let cam = Camera::look_at(
            vec3(n as f32 * 2.5, n as f32 / 2.0, n as f32 / 2.0),
            vec3(n as f32 / 2.0, n as f32 / 2.0, n as f32 / 2.0),
            vec3(0.0, 1.0, 0.0),
            Projection::Perspective {
                fov_y: 40f32.to_radians(),
            },
            32,
            32,
        );
        let tf = TransferFunction::fire();
        let opts = RenderOpts {
            tile: 8, // 4x4 = 16 tiles
            nthreads: 4,
            ..Default::default()
        };
        let reference = render(&grid, &cam, &tf, &opts);
        let ntiles = 16;
        let plan = FaultPlan::random_rates(seed, ntiles, &rates());

        let policy = ExecPolicy::degraded(cfg(), Some((0.0, 1.0)));
        let (img, outcome) = render_with_policy(&grid, &cam, &tf, &opts, &policy, &plan).unwrap();

        assert_eq!(
            outcome.report.completed + outcome.report.failed.len(),
            ntiles,
            "seed {seed:#x}: every tile accounted"
        );
        assert!(
            outcome.output_is_whole(),
            "seed {seed:#x}: finite input must repair to whole, got {}",
            outcome.quality
        );
        let same = img
            .pixels()
            .iter()
            .zip(reference.pixels())
            .all(|(a, b)| {
                [a.r, a.g, a.b, a.a]
                    .iter()
                    .map(|v| v.to_bits())
                    .eq([b.r, b.g, b.b, b.a].iter().map(|v| v.to_bits()))
            });
        assert!(same, "seed {seed:#x}: whole render must be bitwise identical");
    }
}

#[test]
fn brownout_render_meets_its_deadline_under_a_timeout_storm_across_seeds() {
    // The brownout contract under overload: a timeout storm (30% of tiles
    // stall past the watchdog) must not push the render far past its
    // wall-clock budget. The deadline controller sheds late work, the
    // repair pass fills every shed/failed tile at the deepest quality
    // rung, and the QualityMap names each downgraded tile — output stays
    // whole, just coarser where the storm hit.
    for seed in chaos_seeds() {
        let n = 24;
        let dims = Dims3::cube(n);
        let values = mri_phantom(dims, seed, PhantomParams::default());
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let cam = Camera::look_at(
            vec3(n as f32 * 2.5, n as f32 / 2.0, n as f32 / 2.0),
            vec3(n as f32 / 2.0, n as f32 / 2.0, n as f32 / 2.0),
            vec3(0.0, 1.0, 0.0),
            Projection::Perspective {
                fov_y: 40f32.to_radians(),
            },
            96,
            96,
        );
        let tf = TransferFunction::fire();
        let opts = RenderOpts {
            tile: 8, // 12x12 = 144 tiles
            nthreads: 4,
            ..Default::default()
        };
        let ntiles = 144;
        let storm = FaultRates {
            panic: 0.0,
            flaky: 0.0,
            stall: 0.3,
            corrupt: 0.0,
            stall_ms: 150,
        };
        let plan = FaultPlan::random_rates(seed, ntiles, &storm);
        let budget = Duration::from_millis(400);
        let policy = ExecPolicy::brownout(
            cfg(),
            DeadlineBudget::with_budget(budget),
            Some((0.0, 1.0)),
        );

        let start = std::time::Instant::now();
        let (_img, outcome) =
            render_with_policy(&grid, &cam, &tf, &opts, &policy, &plan).unwrap();
        let wall = start.elapsed();

        // The deadline governs the engine phase: past the budget the
        // queue sheds instead of computing, so the engine may overrun by
        // at most one in-flight watchdog period. The repair pass that
        // follows is deadline-*aware* (it recomputes shed tiles at the
        // deepest, cheapest rung) but is a fixed post-pass, so the whole
        // call gets a looser 2x bound.
        assert!(
            outcome.report.wall_time <= budget.mul_f64(1.25),
            "seed {seed:#x}: the engine phase must respect its budget: \
             {:.0} ms against a {:.0} ms deadline",
            outcome.report.wall_time.as_secs_f64() * 1e3,
            budget.as_secs_f64() * 1e3,
        );
        assert!(
            wall <= budget.mul_f64(2.0),
            "seed {seed:#x}: repair must stay cheap: {:.0} ms total \
             against a {:.0} ms deadline",
            wall.as_secs_f64() * 1e3,
            budget.as_secs_f64() * 1e3,
        );
        assert_eq!(
            outcome.report.completed + outcome.report.failed.len(),
            ntiles,
            "seed {seed:#x}: every tile accounted"
        );
        assert!(
            !outcome.quality.is_full_quality(),
            "seed {seed:#x}: a timeout storm past the budget must downgrade \
             at least one tile, got {}",
            outcome.quality
        );
        assert!(
            outcome.output_is_whole(),
            "seed {seed:#x}: shed tiles must be repaired (coarse, not missing), got {}",
            outcome.quality
        );
    }
}

#[test]
fn checkpoint_survives_kill_dash_nine_mid_write_across_seeds() {
    for seed in chaos_seeds() {
        let path = tmp_path("ckpt", seed);
        let journal = {
            let mut os = path.clone().into_os_string();
            os.push(".journal");
            PathBuf::from(os)
        };
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&journal).ok();

        // A sweep completes a handful of cells, fsynced into the journal.
        let keys: Vec<String> = (0..10).map(|c| format!("seed{seed:x}|cell{c}")).collect();
        {
            let mut ckpt = Checkpoint::open(&path).unwrap();
            for (c, key) in keys.iter().enumerate() {
                ckpt.record(key, &[c as f64, seed as f64]).unwrap();
            }
            // Process dies here without any shutdown hook: kill -9.
        }
        // The kill interrupted an in-flight append: a torn record tail.
        let mut f = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
        let garbage_len = 1 + (seed % 11) as usize;
        f.write_all(&vec![0xAB; garbage_len]).unwrap();
        f.sync_all().unwrap();
        drop(f);

        // Next load: torn tail truncated, no completed cell lost.
        let ckpt = Checkpoint::open(&path).unwrap();
        assert!(
            ckpt.recovery().recovered_anything(),
            "seed {seed:#x}: recovery must be reported"
        );
        for (c, key) in keys.iter().enumerate() {
            assert_eq!(
                ckpt.get(key),
                Some(&[c as f64, seed as f64][..]),
                "seed {seed:#x}: completed cell {key} lost"
            );
        }
        assert_eq!(ckpt.len(), keys.len(), "seed {seed:#x}: no phantom cells");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&journal).ok();
    }
}

#[test]
fn nan_input_degrades_with_unrepaired_typed_defects_not_a_crash() {
    // One deliberately unrepairable scenario: NaN-contaminated *input*
    // survives repair (repair re-runs the same kernel on the same data),
    // so the quality map must honestly end non-whole — and nothing panics.
    let seed = chaos_seeds()[0];
    let dims = Dims3::new(8, 6, 5);
    let mut values = mri_phantom(dims, seed, PhantomParams::default());
    values[dims.nx * 2 + 3] = f32::NAN; // poisons pencils near (j=2.., k=0)
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
        nthreads: 2,
    };
    let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
    // The plausibility range flags the NaN-substituted output region even
    // though the kernel itself never emits NaN.
    let policy = ExecPolicy::degraded(cfg(), Some((0.0, 1.0)));
    let outcome =
        try_bilateral3d_with_policy(&grid, &mut out, &run, &policy, &FaultPlan::none()).unwrap();
    // The filter substitutes NaN neighborhoods, so output may be finite;
    // whichever way the scan lands it must be internally consistent.
    if !outcome.output_is_whole() {
        assert!(
            !outcome.quality.unrepaired_units().is_empty(),
            "non-whole outcome must name its unrepaired units"
        );
    }
    assert!(
        out.to_row_major().iter().all(|v| v.is_finite()),
        "NaN must never propagate into committed output"
    );
}

/// Abusive-tenant isolation (DESIGN.md §9): one flooder blasting the
/// service with stalling requests under a timeout storm must be confined
/// by its own queue bound and in-flight quota — refused with typed
/// `overloaded` replies, never crashing the service — while seven
/// well-behaved tenants complete every request whole, across all chaos
/// seeds.
#[test]
fn abusive_tenant_is_quota_limited_while_others_complete_whole() {
    use sfc_server::{RespHeader, SchedConfig, Service, ServiceConfig};

    for seed in chaos_seeds() {
        let svc = Service::start(ServiceConfig {
            exec_threads: 2,
            lanes: 2,
            sched: SchedConfig {
                queue_cap: 2,
                quota: 1,
                quantum: 256,
            },
            // A watchdog well under the flooder's scripted stall, so its
            // stalled units expire fast instead of serializing the test.
            unit_timeout: Duration::from_millis(60),
            ..ServiceConfig::default()
        })
        .unwrap_or_else(|e| panic!("seed {seed:#x}: service start: {e}"));

        // The flooder: 24 stalling requests submitted as fast as the
        // scheduler will take them. quota=1 means at most one holds a
        // lane; queue_cap=2 means at most two wait; the rest must be
        // refused with a typed overload.
        let flooder = {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let mut admitted = Vec::new();
                let mut overloaded = 0usize;
                for r in 0..24u64 {
                    let line = format!(
                        "filter tenant=flood size=6 seed={r} radius=1 \
                         fault_seed={seed} timeout_rate=0.2 stall_ms=50"
                    );
                    let req = sfc_server::Request::parse(&line).expect("valid request");
                    match svc.submit(req) {
                        Ok(t) => admitted.push(t),
                        Err(over) => {
                            assert_eq!(over.reason, "queue-full");
                            assert_eq!(over.tenant, "flood");
                            overloaded += 1;
                        }
                    }
                }
                // Every admitted request resolves with a typed reply —
                // degraded is fine, hanging is not.
                for t in &admitted {
                    let resp = t
                        .wait(Duration::from_secs(60))
                        .expect("admitted flood request resolves");
                    assert!(
                        matches!(resp.header, RespHeader::Ok(_) | RespHeader::Err { .. }),
                        "flood reply must be typed, got {:?}",
                        resp.header
                    );
                }
                overloaded
            })
        };

        // Seven well-behaved tenants, two fault-free requests each,
        // submitted while the flood is in progress.
        let mut calm = Vec::new();
        for tenant in 0..7u64 {
            let svc = svc.clone();
            calm.push(std::thread::spawn(move || {
                for r in 0..2u64 {
                    let line = format!(
                        "filter tenant=calm{tenant} size=8 seed={} radius=1",
                        seed ^ (tenant * 100 + r)
                    );
                    let req = sfc_server::Request::parse(&line).expect("valid request");
                    let t = svc.submit(req).unwrap_or_else(|o| {
                        panic!("well-behaved tenant calm{tenant} refused: {o:?}")
                    });
                    let resp = t
                        .wait(Duration::from_secs(60))
                        .expect("well-behaved request resolves");
                    match resp.header {
                        RespHeader::Ok(h) => {
                            assert!(h.whole, "calm{tenant} request {r} must be whole");
                            assert_eq!(h.failed, 0, "calm{tenant} request {r}: no failures");
                        }
                        other => panic!("calm{tenant} request {r}: expected ok, got {other:?}"),
                    }
                }
            }));
        }

        for h in calm {
            h.join().expect("well-behaved tenant thread");
        }
        let overloaded = flooder.join().expect("flooder thread");
        assert!(
            overloaded > 0,
            "seed {seed:#x}: the flood must trip queue-full at least once"
        );
        let report = svc.drain(Duration::from_secs(30));
        assert!(report.clean, "seed {seed:#x}: post-storm drain is clean: {report:?}");
    }
}
