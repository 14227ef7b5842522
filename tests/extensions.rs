//! Integration tests for the extension features layered over the paper's
//! core reproduction: padded volumes in every layout, TLB modeling,
//! gradient-lit rendering, separable convolution, and locality statistics.

use sfc_repro::prelude::*;
use sfc_repro::{datagen, filters, memsim, volrend};

#[test]
fn all_layouts_render_a_padded_volume_identically() {
    // 12^3 pads to 16^3 in Z and Hilbert order and to whole 8^3 bricks in
    // tiled order; every layout must render the same image.
    let dims = Dims3::cube(12);
    let values = datagen::patterns::radial_gradient(dims);
    let cam = volrend::orbit_viewpoints(
        8,
        volrend::vec3(6.0, 6.0, 6.0),
        30.0,
        Projection::Perspective {
            fov_y: 40f32.to_radians(),
        },
        16,
        16,
    )
    .remove(1);
    let tf = TransferFunction::grayscale();
    let opts = RenderOpts::default();
    let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
    let reference = volrend::render(&a, &cam, &tf, &opts);
    let images = [
        (
            "z",
            volrend::render(&a.convert::<ZOrder3>(), &cam, &tf, &opts),
        ),
        (
            "tiled",
            volrend::render(&a.convert::<Tiled3>(), &cam, &tf, &opts),
        ),
        (
            "hilbert",
            volrend::render(&a.convert::<HilbertOrder3>(), &cam, &tf, &opts),
        ),
    ];
    for (name, img) in images {
        assert_eq!(reference.pixels(), img.pixels(), "{name}");
    }
}

#[test]
fn tlb_model_penalizes_hostile_array_order_strides() {
    // A z-direction walk through an array-order 64^3 volume strides 16 KB
    // per step — a new page every 4 steps; z-order revisits pages.
    use sfc_memsim::{CoreSim, HierarchyConfig, TlbConfig, TracedGrid};
    let dims = Dims3::cube(64);
    let values = datagen::patterns::ramp(dims);
    let a: Grid3<f32, ArrayOrder3> = Grid3::from_row_major(dims, &values);
    let z: Grid3<f32, ZOrder3> = a.convert();
    let base = memsim::scaled(&memsim::ivy_bridge(), 3).hierarchy;
    let hier = HierarchyConfig {
        tlb: Some(TlbConfig {
            entries: 16,
            page_bytes: 4096,
        }),
        ..base
    };
    // Walk the whole volume with k (the array-order-hostile axis) innermost.
    fn z_walk<V: Volume3>(vol: &V) {
        for i in 0..64 {
            for j in 0..64 {
                for k in 0..64 {
                    std::hint::black_box(vol.get(i, j, k));
                }
            }
        }
    }
    let mut sim_a = CoreSim::new(&hier);
    z_walk(&TracedGrid::at_zero(&a, &mut sim_a));
    let mut sim_z = CoreSim::new(&hier);
    z_walk(&TracedGrid::at_zero(&z, &mut sim_z));
    let tlb_a = sim_a.counters().tlb.misses;
    let tlb_z = sim_z.counters().tlb.misses;
    assert!(
        tlb_a > tlb_z * 4,
        "array-order z-walk must thrash the TLB: a={tlb_a} z={tlb_z}"
    );
}

#[test]
fn lit_and_flat_renders_differ_but_share_geometry() {
    let dims = Dims3::cube(16);
    let values = datagen::patterns::sphere(dims, 4.0);
    let g: Grid3<f32, ZOrder3> = Grid3::from_row_major(dims, &values);
    let cam = volrend::orbit_viewpoints(
        8,
        volrend::vec3(8.0, 8.0, 8.0),
        40.0,
        Projection::Perspective {
            fov_y: 40f32.to_radians(),
        },
        32,
        32,
    )
    .remove(0);
    let tf = TransferFunction::grayscale();
    let opts = RenderOpts {
        nthreads: 2,
        ..Default::default()
    };
    let flat = volrend::render(&g, &cam, &tf, &opts);
    let lit = volrend::render_lit(&g, &cam, &tf, &opts, &volrend::Light::default());
    // Same silhouette: alpha is shading-independent.
    for (f, l) in flat.pixels().iter().zip(lit.pixels()) {
        assert!((f.a - l.a).abs() < 1e-6);
    }
    // But the color content differs where the sphere is visible.
    let differs = flat
        .pixels()
        .iter()
        .zip(lit.pixels())
        .any(|(f, l)| (f.r - l.r).abs() > 1e-3);
    assert!(differs, "lighting must change shading");
}

#[test]
fn separable_blur_then_gradient_pipeline() {
    // A realistic preprocessing chain: blur, then gradient magnitude —
    // all layout-generic.
    let dims = Dims3::cube(16);
    let noisy = datagen::mri_phantom(dims, 8, datagen::PhantomParams::default());
    let g: Grid3<f32, Tiled3> = Grid3::from_row_major(dims, &noisy);
    let blurred = filters::gaussian_separable3d(&g, 2, 1.5, 2);
    let run = filters::FilterRun {
        params: filters::BilateralParams::for_size(StencilSize::R1, StencilOrder::Xyz),
        pencil_axis: Axis::X,
        weight: Default::default(),
        nthreads: 2,
    };
    let grad: Grid3<f32, Tiled3> = filters::gradient3d(&blurred, &run);
    // Blurring must reduce total gradient energy vs the raw volume.
    let raw_grad: Grid3<f32, Tiled3> = filters::gradient3d(&g, &run);
    let energy = |x: &Grid3<f32, Tiled3>| x.to_row_major().iter().map(|v| v * v).sum::<f32>();
    assert!(energy(&grad) < energy(&raw_grad));
}

#[test]
fn locality_stats_predict_simulated_misses() {
    // The analytic anisotropy metric and the cache simulator must agree
    // on the ordering: a-order ≫ tiled > z-order ≈ hilbert.
    let dims = Dims3::cube(32);
    let a = sfc_core::anisotropy(&<ArrayOrder3 as Layout3>::new(dims), 16);
    let z = sfc_core::anisotropy(&<ZOrder3 as Layout3>::new(dims), 16);
    let h = sfc_core::anisotropy(&<HilbertOrder3 as Layout3>::new(dims), 16);
    assert!(a > 100.0 * z.min(h), "a-order {a} vs z {z} / h {h}");
}
