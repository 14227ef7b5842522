//! Ablation microbench for the gather and cached-cell fast paths.
//!
//! Two columns, each isolating one hot-loop optimization against the
//! per-access baseline it replaced:
//!
//! * `trilinear` — per-sample `sample_trilinear` (a fresh cell fetch,
//!   the 8 `index()` calls of `Layout3::cell_slots`, on every sample) vs
//!   the per-ray [`CellSampler`] (the cell cached across samples and
//!   fetched through `cell_slots` only on a cell change);
//! * `bilateral_interior` — the per-voxel bilateral kernel vs the
//!   single-thread pencil-gather driver, r1/r3/r5.
//!
//! Both sides of each column compute bitwise-identical results; only the
//! number of reads and their scheduling change, so any delta here is pure
//! addressing cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sfc_core::{ArrayOrder3, Axis, Dims3, Grid3, StencilOrder, StencilSize, ZOrder3};
use sfc_filters::{bilateral3d, bilateral_voxel, BilateralParams, FilterRun};
use sfc_volrend::{sample_trilinear, vec3, CellSampler};

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

criterion_group!(benches, bench_trilinear, bench_bilateral_interior);
criterion_main!(benches);
