//! Ablation microbench for the gather, cached-cell and ray-packet fast
//! paths.
//!
//! Three columns, each isolating one hot-loop optimization against the
//! per-access or per-ray baseline it replaced:
//!
//! * `trilinear` — per-sample `sample_trilinear` (a fresh cell fetch,
//!   the 8 `index()` calls of `Layout3::cell_slots`, on every sample) vs
//!   the per-ray [`CellSampler`] (the cell cached across samples and
//!   fetched through `cell_slots` only on a cell change);
//! * `bilateral_interior` — the per-voxel bilateral kernel vs the
//!   single-thread pencil-gather driver, r1/r3/r5;
//! * `render_packets` — one frame of the 64³ orbit per layout, one
//!   thread: [`render`] (the tile kernel, eight rays per AVX2 packet
//!   where the CPU has AVX2, each packet fetching its lanes' cells with
//!   gathers from the layout's index tables) vs `render_per_lane_fetch`
//!   (the same packets over a volume that serves only `cell_corners`, so
//!   the packets fetch one lane after another) vs a per-pixel
//!   [`shade_ray`] loop. `shade_ray` builds its 256-entry opacity table
//!   on every call, which `render` does once per frame;
//!   `per_pixel_table_builds` times the same loop over a ray that misses
//!   the volume, so the per-ray march costs the difference.
//!
//! Both sides of each column compute bitwise-identical results; only the
//! number of reads and their scheduling change, so any delta here is pure
//! addressing cost, or, for `render_packets`, the per-sample arithmetic
//! and the cell fetch moving into lanes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sfc_core::{
    ArrayOrder3, Axis, Dims3, Grid3, HilbertOrder3, Layout3, StencilOrder, StencilSize, Tiled3,
    Volume3, ZOrder3,
};
use sfc_filters::{bilateral3d, bilateral_voxel, BilateralParams, FilterRun};
use sfc_volrend::{
    render, sample_trilinear, shade_ray, vec3, Aabb, Camera, CellSampler, Image, Ray, RenderOpts,
    TransferFunction,
};

fn bench_trilinear(c: &mut Criterion) {
    let dims = Dims3::cube(64);
    let values: Vec<f32> = (0..dims.len())
        .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
        .collect();
    let z: Grid3<f32, ZOrder3> = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values).convert();

    // A diagonal march at sub-voxel steps: the renderer's actual access
    // pattern, where consecutive samples usually share a trilinear cell.
    let origin = vec3(1.0, 1.5, 2.0);
    let dir = vec3(1.0, 0.9, 0.8).normalized();
    let nsteps = 120usize;

    let mut g = c.benchmark_group("trilinear");
    g.throughput(Throughput::Elements(nsteps as u64));
    g.bench_function("one_shot_8_index", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for s in 0..nsteps {
                acc += sample_trilinear(&z, origin + dir * (s as f32 * 0.5));
            }
            black_box(acc)
        })
    });
    g.bench_function("cached_cell_slots", |b| {
        b.iter(|| {
            let mut sampler = CellSampler::new(&z);
            let mut acc = 0.0f32;
            for s in 0..nsteps {
                acc += sampler.sample(origin + dir * (s as f32 * 0.5));
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_bilateral_interior(c: &mut Criterion) {
    let n = 32;
    let dims = Dims3::cube(n);
    let values = sfc_datagen::mri_phantom(dims, 3, sfc_datagen::PhantomParams::default());
    let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
    let z: Grid3<f32, ZOrder3> = a.convert();

    let mut g = c.benchmark_group("bilateral_interior");
    g.sample_size(10);
    g.throughput(Throughput::Elements(dims.len() as u64));
    for size in StencilSize::ALL {
        let params = BilateralParams::for_size(size, StencilOrder::Xyz);
        let kernel = params.spatial_kernel();
        let inv = params.inv_two_sigma_range_sq();
        let run = FilterRun {
            params,
            pencil_axis: Axis::X,
            weight: Default::default(),
            nthreads: 1,
        };
        g.bench_with_input(
            BenchmarkId::new("per_voxel", size.label()),
            &z,
            |b, grid| {
                b.iter(|| {
                    let mut out = vec![0.0f32; dims.len()];
                    for (i, j, k) in dims.iter() {
                        out[(k * dims.ny + j) * dims.nx + i] =
                            bilateral_voxel(grid, &kernel, inv, i, j, k);
                    }
                    black_box(out)
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("pencil_gather", size.label()),
            &z,
            |b, grid| b.iter(|| black_box(bilateral3d::<_, ZOrder3>(grid, &run))),
        );
    }
    g.finish();
}

/// A grid that serves only `dims`, `get` and `cell_corners`, so a ray
/// packet over it fetches its lanes' cells one lane at a time, through the
/// default `Volume3::cell_corners_lanes`.
struct PerLaneFetch<'a, L: Layout3>(&'a Grid3<f32, L>);

impl<L: Layout3> Volume3 for PerLaneFetch<'_, L> {
    fn dims(&self) -> Dims3 {
        self.0.dims()
    }

    fn get(&self, i: usize, j: usize, k: usize) -> f32 {
        self.0.get(i, j, k)
    }

    #[inline(always)]
    fn cell_corners(&self, x0: usize, y0: usize, z0: usize) -> [f32; 8] {
        Volume3::cell_corners(self.0, x0, y0, z0)
    }
}

/// `render`, `render` with the per-lane fetch, and a per-pixel
/// `shade_ray` loop over one layout.
fn bench_frame<L: Layout3>(
    g: &mut criterion::BenchmarkGroup<'_>,
    grid: &Grid3<f32, L>,
    cam: &Camera,
    opts: &RenderOpts,
) {
    let tf = TransferFunction::fire();
    g.bench_function(BenchmarkId::new("render", L::KIND), |b| {
        b.iter(|| black_box(render(grid, cam, &tf, opts)))
    });
    let per_lane = PerLaneFetch(grid);
    g.bench_function(BenchmarkId::new("render_per_lane_fetch", L::KIND), |b| {
        b.iter(|| black_box(render(&per_lane, cam, &tf, opts)))
    });
    let bbox = Aabb::of_dims(grid.dims());
    g.bench_function(BenchmarkId::new("per_pixel_shade_ray", L::KIND), |b| {
        b.iter(|| {
            let mut img = Image::new(cam.width(), cam.height());
            for y in 0..cam.height() {
                for x in 0..cam.width() {
                    let c = shade_ray(grid, &tf, opts, &cam.ray_for_pixel(x, y), &bbox);
                    img.set(x, y, c);
                }
            }
            black_box(img)
        })
    });
}

fn bench_render_packets(c: &mut Criterion) {
    // The benchmark ledger's `render_orbit` frame: a 64³ combustion
    // field, 128² pixels, 32-pixel tiles, no early ray termination; here
    // on one thread, from the oblique viewpoint 1.
    let n = 64;
    let dims = Dims3::cube(n);
    let values = sfc_datagen::combustion_field(dims, 1, sfc_datagen::CombustionParams::default());
    let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
    let cam = sfc_bench::paper_orbit(n, 128).swap_remove(1);
    let opts = RenderOpts {
        early_termination: 2.0,
        ..RenderOpts::default()
    };

    let mut g = c.benchmark_group("render_packets");
    g.sample_size(10);
    g.throughput(Throughput::Elements((cam.width() * cam.height()) as u64));
    bench_frame(&mut g, &a, &cam, &opts);
    bench_frame(&mut g, &a.convert::<ZOrder3>(), &cam, &opts);
    bench_frame(&mut g, &a.convert::<Tiled3>(), &cam, &opts);
    bench_frame(&mut g, &a.convert::<HilbertOrder3>(), &cam, &opts);
    let tf = TransferFunction::fire();
    let bbox = Aabb::of_dims(dims);
    let miss = Ray {
        origin: vec3(-5.0, -5.0, -5.0),
        dir: vec3(-1.0, 0.0, 0.0),
    };
    g.bench_function("per_pixel_table_builds", |b| {
        b.iter(|| {
            for _ in 0..cam.width() * cam.height() {
                black_box(shade_ray(&a, &tf, &opts, black_box(&miss), &bbox));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_trilinear,
    bench_bilateral_interior,
    bench_render_packets
);
criterion_main!(benches);
