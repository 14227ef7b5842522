//! Cross-crate integration tests: full pipelines from data synthesis
//! through kernels to counters, spanning every workspace crate.

use sfc_repro::prelude::*;
use sfc_repro::{datagen, filters, memsim, volrend};

fn combustion(dims: Dims3) -> Vec<f32> {
    datagen::combustion_field(dims, 11, datagen::CombustionParams::default())
}

#[test]
fn full_bilateral_pipeline_all_layouts_agree() {
    let dims = Dims3::new(20, 18, 14);
    let noisy = datagen::mri_phantom(dims, 3, datagen::PhantomParams::default());
    let a: Grid3<f32, ArrayOrder3> = Grid3::from_row_major(dims, &noisy);
    let z: Grid3<f32, ZOrder3> = a.convert();
    let t: Grid3<f32, Tiled3> = a.convert();
    let h: Grid3<f32, HilbertOrder3> = a.convert();

    let run = filters::FilterRun {
        params: filters::BilateralParams::for_size(StencilSize::R1, StencilOrder::Zyx),
        pencil_axis: Axis::Z,
        weight: Default::default(),
        nthreads: 3,
    };
    let oa: Grid3<f32, ArrayOrder3> = filters::bilateral3d(&a, &run);
    let oz: Grid3<f32, ArrayOrder3> = filters::bilateral3d(&z, &run);
    let ot: Grid3<f32, ArrayOrder3> = filters::bilateral3d(&t, &run);
    let oh: Grid3<f32, ArrayOrder3> = filters::bilateral3d(&h, &run);
    assert_eq!(oa.to_row_major(), oz.to_row_major());
    assert_eq!(oa.to_row_major(), ot.to_row_major());
    assert_eq!(oa.to_row_major(), oh.to_row_major());
}

#[test]
fn bilateral_denoises_the_phantom() {
    let dims = Dims3::cube(24);
    let clean = datagen::mri_phantom(
        dims,
        5,
        datagen::PhantomParams {
            lesions: 2,
            noise_sigma: 0.0,
        },
    );
    let noisy = datagen::mri_phantom(
        dims,
        5,
        datagen::PhantomParams {
            lesions: 2,
            noise_sigma: 0.05,
        },
    );
    let g: Grid3<f32, ZOrder3> = Grid3::from_row_major(dims, &noisy);
    let run = filters::FilterRun {
        params: filters::BilateralParams {
            radius: 2,
            sigma_spatial: 1.5,
            sigma_range: 0.15,
            order: StencilOrder::Xyz,
        },
        pencil_axis: Axis::X,
        weight: Default::default(),
        nthreads: 2,
    };
    let out: Grid3<f32, ZOrder3> = filters::bilateral3d(&g, &run);
    let rmse = |a: &[f32], b: &[f32]| {
        (a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f32>()
            / a.len() as f32)
            .sqrt()
    };
    let before = rmse(&noisy, &clean);
    let after = rmse(&out.to_row_major(), &clean);
    assert!(
        after < before * 0.8,
        "filter must reduce noise: rmse {before} -> {after}"
    );
}

#[test]
fn full_render_pipeline_layout_and_schedule_invariant() {
    let dims = Dims3::cube(24);
    let values = combustion(dims);
    let a: Grid3<f32, ArrayOrder3> = Grid3::from_row_major(dims, &values);
    let z: Grid3<f32, ZOrder3> = a.convert();
    let center = volrend::vec3(12.0, 12.0, 12.0);
    let cams = orbit_viewpoints(
        8,
        center,
        60.0,
        Projection::Perspective {
            fov_y: 40f32.to_radians(),
        },
        48,
        48,
    );
    let tf = TransferFunction::fire();
    for cam in &cams {
        let ia = volrend::render(&a, cam, &tf, &RenderOpts {
            nthreads: 4,
            schedule: Schedule::Dynamic,
            ..Default::default()
        });
        let iz = volrend::render(&z, cam, &tf, &RenderOpts {
            nthreads: 2,
            schedule: Schedule::StaticRoundRobin,
            ..Default::default()
        });
        assert_eq!(ia.pixels(), iz.pixels());
    }
}

#[test]
fn counters_show_viewpoint_invariance_for_zorder_only() {
    // The paper's Fig. 4: array-order counters swing with viewpoint;
    // Z-order stays nearly flat.
    let dims = Dims3::cube(32);
    let values = combustion(dims);
    let a: Grid3<f32, ArrayOrder3> = Grid3::from_row_major(dims, &values);
    let z: Grid3<f32, ZOrder3> = a.convert();
    let cams = orbit_viewpoints(
        8,
        volrend::vec3(16.0, 16.0, 16.0),
        80.0,
        Projection::Perspective {
            fov_y: 40f32.to_radians(),
        },
        32,
        32,
    );
    let tf = TransferFunction::grayscale();
    let opts = RenderOpts {
        tile: 8,
        ..Default::default()
    };
    let plat = memsim::scaled(&memsim::ivy_bridge(), memsim::shift_for_volume_edge(32));
    let tca = |g: &dyn Fn(usize) -> u64| (0..8).map(g).collect::<Vec<u64>>();
    let tca_a = tca(&|v| {
        volrend::simulate_render_counters(&a, &cams[v], &tf, &opts, 2, &plat)
            .l3_total_cache_accesses()
    });
    let tca_z = tca(&|v| {
        volrend::simulate_render_counters(&z, &cams[v], &tf, &opts, 2, &plat)
            .l3_total_cache_accesses()
    });
    let spread = |v: &[u64]| {
        let max = *v.iter().max().unwrap() as f64;
        let min = *v.iter().min().unwrap() as f64;
        max / min
    };
    assert!(
        spread(&tca_a) > spread(&tca_z),
        "array-order viewpoint spread {:?} must exceed z-order {:?}",
        tca_a,
        tca_z
    );
    // Aligned viewpoints (0, 4) are array order's best; oblique (2, 6) its worst.
    assert!(tca_a[2] > tca_a[0]);
    assert!(tca_a[6] > tca_a[4]);
}

#[test]
fn volume_io_roundtrip_through_grid() {
    let dims = Dims3::new(10, 8, 6);
    let values = combustion(dims);
    let path = std::env::temp_dir().join(format!("sfc_e2e_{}.raw", std::process::id()));
    datagen::save_raw_f32(&path, &values).unwrap();
    let loaded = datagen::load_raw_f32(&path, dims).unwrap();
    std::fs::remove_file(&path).ok();
    let g: Grid3<f32, ZOrder3> = Grid3::from_row_major(dims, &loaded);
    assert_eq!(g.to_row_major(), values);
}

/// Bitwise equality against a serial oracle: the execution engine may
/// reorder *work*, never *arithmetic*.
fn assert_bits_equal(label: &str, got: &[f32], oracle: &[f32]) {
    assert_eq!(got.len(), oracle.len(), "{label}: length mismatch");
    for (i, (g, o)) in got.iter().zip(oracle).enumerate() {
        assert!(
            g.to_bits() == o.to_bits(),
            "{label}: voxel {i} diverged from the serial oracle: {g:?} vs {o:?}"
        );
    }
}

#[test]
fn engine_bilateral_is_bitwise_pinned_across_layouts_threads_and_schedules() {
    // The engine refactor contract: every (layout, thread count, schedule)
    // combination reproduces the independent single-threaded reference
    // bit for bit — partitioning must never change what gets computed.
    let dims = Dims3::new(14, 12, 10);
    let noisy = datagen::mri_phantom(dims, 21, datagen::PhantomParams::default());
    let params = filters::BilateralParams::for_size(StencilSize::R1, StencilOrder::Xyz);

    let a: Grid3<f32, ArrayOrder3> = Grid3::from_row_major(dims, &noisy);
    // The pinned oracle sits outside the engine: the per-voxel kernel run
    // serially over the array-order grid, which gives the pencil kernel's
    // bits on every exact tier. The independent reference agrees to float
    // tolerance (its summation order differs by design, so it cannot be
    // the *bitwise* baseline).
    let kernel = params.spatial_kernel();
    let inv = params.inv_two_sigma_range_sq();
    let oracle: Vec<f32> = dims
        .iter()
        .map(|(i, j, k)| filters::bilateral_voxel(&a, &kernel, inv, i, j, k))
        .collect();
    let reference = filters::bilateral_reference(&noisy, dims, &params);
    for (g, r) in oracle.iter().zip(&reference) {
        assert!((g - r).abs() <= 1e-5, "oracle sanity: {g} vs reference {r}");
    }
    let z: Grid3<f32, ZOrder3> = a.convert();
    let t: Grid3<f32, Tiled3> = a.convert();
    let h: Grid3<f32, HilbertOrder3> = a.convert();

    fn both_schedules<V: Volume3 + Sync>(
        vol: &V,
        params: &filters::BilateralParams,
        nthreads: usize,
        label: &str,
        oracle: &[f32],
    ) {
        let run = filters::FilterRun {
            params: *params,
            pencil_axis: Axis::X,
            weight: Default::default(),
            nthreads,
        };
        let st: Grid3<f32, ArrayOrder3> = filters::bilateral3d(vol, &run);
        assert_bits_equal(
            &format!("{label} t{nthreads} static"),
            &st.to_row_major(),
            oracle,
        );
        let dy: Grid3<f32, ArrayOrder3> =
            filters::bilateral3d_dynamic(vol, params, Axis::X, nthreads);
        assert_bits_equal(
            &format!("{label} t{nthreads} dynamic"),
            &dy.to_row_major(),
            oracle,
        );
    }

    for &nthreads in &[1usize, 2, 4] {
        both_schedules(&a, &params, nthreads, "array", &oracle);
        both_schedules(&z, &params, nthreads, "z-order", &oracle);
        both_schedules(&t, &params, nthreads, "tiled", &oracle);
        both_schedules(&h, &params, nthreads, "hilbert", &oracle);
    }
}

#[test]
fn engine_raycast_is_bitwise_pinned_across_layouts_threads_and_schedules() {
    // Same contract for the renderer: a serial per-ray oracle (no tiles,
    // no threads, no engine) pins every engine-driven configuration.
    let dims = Dims3::cube(16);
    let values = combustion(dims);
    let a: Grid3<f32, ArrayOrder3> = Grid3::from_row_major(dims, &values);
    let z: Grid3<f32, ZOrder3> = a.convert();
    let t: Grid3<f32, Tiled3> = a.convert();
    let h: Grid3<f32, HilbertOrder3> = a.convert();

    let cams = orbit_viewpoints(
        8,
        volrend::vec3(8.0, 8.0, 8.0),
        40.0,
        Projection::Perspective {
            fov_y: 40f32.to_radians(),
        },
        24,
        24,
    );
    let cam = &cams[3]; // an oblique viewpoint: tiles do unequal work
    let tf = TransferFunction::fire();
    let base = RenderOpts {
        tile: 8,
        ..Default::default()
    };

    let bbox = volrend::Aabb::of_dims(dims);
    let mut oracle: Vec<f32> = Vec::with_capacity(cam.width() * cam.height() * 4);
    for py in 0..cam.height() {
        for px in 0..cam.width() {
            let c = volrend::shade_ray(&a, &tf, &base, &cam.ray_for_pixel(px, py), &bbox);
            oracle.extend_from_slice(&[c.r, c.g, c.b, c.a]);
        }
    }

    fn components(img: &volrend::Image) -> Vec<f32> {
        img.pixels()
            .iter()
            .flat_map(|p| [p.r, p.g, p.b, p.a])
            .collect()
    }
    fn both_schedules<V: Volume3 + Sync>(
        vol: &V,
        cam: &Camera,
        tf: &TransferFunction,
        base: &RenderOpts,
        nthreads: usize,
        label: &str,
        oracle: &[f32],
    ) {
        for schedule in [Schedule::StaticRoundRobin, Schedule::Dynamic] {
            let img = volrend::render(
                vol,
                cam,
                tf,
                &RenderOpts {
                    nthreads,
                    schedule,
                    ..*base
                },
            );
            assert_bits_equal(
                &format!("{label} t{nthreads} {schedule:?}"),
                &components(&img),
                oracle,
            );
        }
    }

    for &nthreads in &[1usize, 2, 4] {
        both_schedules(&a, cam, &tf, &base, nthreads, "array", &oracle);
        both_schedules(&z, cam, &tf, &base, nthreads, "z-order", &oracle);
        both_schedules(&t, cam, &tf, &base, nthreads, "tiled", &oracle);
        both_schedules(&h, cam, &tf, &base, nthreads, "hilbert", &oracle);
    }
}

#[test]
fn brownout_without_pressure_is_bitwise_identical_to_plain_across_layouts() {
    // The brownout invariant: with no deadline and no faults the brownout
    // stack is pure overhead — admission always grants full quality, so
    // the output must be bitwise-identical to the Plain policy and the
    // QualityMap must stay empty, for every layout and both kernels.
    use sfc_repro::harness::FaultPlan;
    use std::time::Duration;

    let cfg = SupervisorConfig {
        nthreads: 4,
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        timeout: Some(Duration::from_millis(1000)),
        watchdog_poll: Duration::from_millis(2),
        ..Default::default()
    };
    let brownout = ExecPolicy::brownout(cfg, DeadlineBudget::none(), None);
    let faults = FaultPlan::none();

    // Bilateral: Plain oracle on array order pins every layout.
    let dims = Dims3::new(14, 12, 10);
    let noisy = datagen::mri_phantom(dims, 33, datagen::PhantomParams::default());
    let a: Grid3<f32, ArrayOrder3> = Grid3::from_row_major(dims, &noisy);
    let run = filters::FilterRun {
        params: filters::BilateralParams::for_size(StencilSize::R1, StencilOrder::Xyz),
        pencil_axis: Axis::X,
        weight: Default::default(),
        nthreads: 4,
    };
    let mut plain = Grid3::<f32, ArrayOrder3>::new(dims);
    filters::try_bilateral3d_with_policy(&a, &mut plain, &run, &ExecPolicy::Plain, &faults)
        .unwrap();
    let oracle = plain.to_row_major();

    fn bilateral_case<V: Volume3 + Sync>(
        vol: &V,
        run: &filters::FilterRun,
        policy: &ExecPolicy,
        faults: &sfc_repro::harness::FaultPlan,
        label: &str,
        oracle: &[f32],
    ) {
        let mut out = Grid3::<f32, ArrayOrder3>::new(vol.dims());
        let outcome =
            filters::try_bilateral3d_with_policy(vol, &mut out, run, policy, faults).unwrap();
        assert!(
            outcome.quality.is_full_quality(),
            "{label}: no-pressure brownout must not downgrade, got {}",
            outcome.quality
        );
        assert!(outcome.output_is_whole(), "{label}: must end whole");
        for (i, (g, o)) in out.to_row_major().iter().zip(oracle).enumerate() {
            assert!(
                g.to_bits() == o.to_bits(),
                "{label}: voxel {i} diverged from Plain: {g:?} vs {o:?}"
            );
        }
    }
    bilateral_case(&a, &run, &brownout, &faults, "bilateral array", &oracle);
    bilateral_case(
        &a.convert::<ZOrder3>(), &run, &brownout, &faults, "bilateral z-order", &oracle,
    );
    bilateral_case(
        &a.convert::<Tiled3>(), &run, &brownout, &faults, "bilateral tiled", &oracle,
    );
    bilateral_case(
        &a.convert::<HilbertOrder3>(), &run, &brownout, &faults, "bilateral hilbert", &oracle,
    );

    // Raycast: same contract, pinned on an oblique orbit viewpoint.
    let vdims = Dims3::cube(16);
    let field = combustion(vdims);
    let va: Grid3<f32, ArrayOrder3> = Grid3::from_row_major(vdims, &field);
    let cams = orbit_viewpoints(
        8,
        volrend::vec3(8.0, 8.0, 8.0),
        40.0,
        Projection::Perspective {
            fov_y: 40f32.to_radians(),
        },
        24,
        24,
    );
    let cam = &cams[3];
    let tf = TransferFunction::fire();
    let opts = RenderOpts {
        tile: 8,
        nthreads: 4,
        ..Default::default()
    };
    let (plain_img, _) =
        volrend::render_with_policy(&va, cam, &tf, &opts, &ExecPolicy::Plain, &faults).unwrap();
    let pixel_oracle: Vec<f32> = plain_img
        .pixels()
        .iter()
        .flat_map(|p| [p.r, p.g, p.b, p.a])
        .collect();

    fn render_case<V: Volume3 + Sync>(
        vol: &V,
        cam: &Camera,
        tf: &TransferFunction,
        opts: &RenderOpts,
        policy: &ExecPolicy,
        label: &str,
        oracle: &[f32],
    ) {
        let faults = sfc_repro::harness::FaultPlan::none();
        let (img, outcome) =
            volrend::render_with_policy(vol, cam, tf, opts, policy, &faults).unwrap();
        assert!(
            outcome.quality.is_full_quality(),
            "{label}: no-pressure brownout must not downgrade, got {}",
            outcome.quality
        );
        assert!(outcome.output_is_whole(), "{label}: must end whole");
        let got: Vec<f32> = img.pixels().iter().flat_map(|p| [p.r, p.g, p.b, p.a]).collect();
        assert_bits_equal(label, &got, oracle);
    }
    render_case(&va, cam, &tf, &opts, &brownout, "raycast array", &pixel_oracle);
    render_case(
        &va.convert::<ZOrder3>(), cam, &tf, &opts, &brownout,
        "raycast z-order", &pixel_oracle,
    );
    render_case(
        &va.convert::<Tiled3>(), cam, &tf, &opts, &brownout,
        "raycast tiled", &pixel_oracle,
    );
    render_case(
        &va.convert::<HilbertOrder3>(), cam, &tf, &opts, &brownout,
        "raycast hilbert", &pixel_oracle,
    );
}

#[test]
fn hostile_stencil_config_counter_gap_grows_with_stencil_size() {
    // Fig. 2's trend: the Z-order advantage grows with stencil size.
    let dims = Dims3::cube(24);
    let values = datagen::mri_phantom(dims, 9, datagen::PhantomParams::default());
    let a: Grid3<f32, ArrayOrder3> = Grid3::from_row_major(dims, &values);
    let z: Grid3<f32, ZOrder3> = a.convert();
    let plat = memsim::scaled(&memsim::ivy_bridge(), 14);
    let gap_for = |radius: usize| -> (f64, f64) {
        let p = filters::BilateralParams {
            radius,
            sigma_spatial: 1.0,
            sigma_range: 0.1,
            order: StencilOrder::Zyx,
        };
        let ca = filters::simulate_bilateral_counters(&a, &p, Axis::Z, 2, &plat)
            .l3_total_cache_accesses() as f64;
        let cz = filters::simulate_bilateral_counters(&z, &p, Axis::Z, 2, &plat)
            .l3_total_cache_accesses() as f64;
        (
            sfc_repro::harness::scaled_relative_difference(ca, cz),
            ca - cz,
        )
    };
    let (ds_small, gap_small) = gap_for(1);
    let (ds_large, gap_large) = gap_for(3);
    // In the hostile configuration Z-order must win at every stencil size,
    // and the absolute miss gap must widen with the stencil.
    assert!(ds_small > 0.0, "r1 hostile: z-order must win, ds={ds_small:.2}");
    assert!(ds_large > 0.0, "r3 hostile: z-order must win, ds={ds_large:.2}");
    assert!(
        gap_large > gap_small,
        "absolute miss gap should grow with stencil size: {gap_small} -> {gap_large}"
    );
}
