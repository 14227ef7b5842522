//! Simulated memory-system counters for the raycaster.
//!
//! The native renderer assigns tiles dynamically; for the counter
//! simulation we use the *static round-robin* split of the same tile list
//! (the dynamic queue's assignment is timing-dependent and therefore not
//! reproducible, while the set of rays and samples — and hence the address
//! stream per tile — is identical). Threads mapped onto the same simulated
//! core have their tile streams interleaved round-robin, as on the MIC's
//! hardware threads.
//!
//! The simulation shades through `render::shade_ray_replay`, an
//! *uncached* sampler path: every sample issues its 8 corner `get`s
//! through the default per-`get` [`sfc_core::Volume3::cell_corners`], so
//! the traced address stream is exactly the per-sample stream the paper's
//! methodology assumes — the native renderer's cached-cell fast path
//! changes throughput, never the simulated counters.

use sfc_core::{image_tiles, Grid3, Layout3};
use sfc_harness::{items_for_thread, EventCounter, UnitCounters};
use sfc_memsim::{
    assign_threads_to_cores, interleave_round_robin, run_multicore, CoreSim, Platform,
    SimReport, TracedGrid,
};

use crate::camera::Camera;
use crate::render::{MarchOpts, RenderOpts};
use crate::transfer::TransferFunction;

/// Process-wide count of NaN voxel taps the trilinear sampler has
/// substituted with `0.0`. Monotonic; reset explicitly between
/// measurements. Shared [`UnitCounters`] sink batched once per tile/ray;
/// registered in the metrics plane as `volrend.nan_samples`.
static NAN_SAMPLES: EventCounter = EventCounter::new("volrend.nan_samples");

/// NaN voxel taps substituted by the sampler since the last
/// [`reset_nan_samples`].
pub fn nan_samples() -> u64 {
    NAN_SAMPLES.total()
}

/// Reset the NaN sample counter (call before a measured run).
pub fn reset_nan_samples() {
    NAN_SAMPLES.reset();
}

pub(crate) fn record_nan_samples(n: u64) {
    NAN_SAMPLES.record_unit(n);
}

/// Simulate the cache behaviour of rendering one frame with `nthreads`
/// software threads on `platform`.
pub fn simulate_render_counters<L: Layout3>(
    grid: &Grid3<f32, L>,
    cam: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
    nthreads: usize,
    platform: &Platform,
) -> SimReport {
    let tiles = image_tiles(cam.width(), cam.height(), opts.tile, opts.tile);
    let cores = assign_threads_to_cores(nthreads, platform.cores);
    let march = MarchOpts::new(tf, opts);

    run_multicore(
        &platform.hierarchy,
        cores.len(),
        true,
        |core_id, sim: &mut CoreSim| {
            // Pixel (ray) streams of each co-resident thread, interleaved
            // round-robin at ray granularity — hardware threads sharing a
            // core's caches mix far finer than whole tiles. (One thread
            // per core degenerates to the natural tile order.)
            let streams: Vec<Vec<(usize, usize)>> = cores[core_id]
                .iter()
                .map(|&tid| {
                    items_for_thread(tiles.len(), nthreads, tid)
                        .flat_map(|t| tiles[t].pixels().collect::<Vec<_>>())
                        .collect()
                })
                .collect();
            let work = interleave_round_robin(&streams);
            let traced = TracedGrid::at_zero(grid, sim);
            let bbox = crate::ray::Aabb::of_dims(grid.dims());
            let mut nan_seen = 0u64;
            for (x, y) in work {
                let ray = cam.ray_for_pixel(x, y);
                // Replay path: per-sample access stream, no cell cache.
                let (color, n) = crate::render::shade_ray_replay(&traced, tf, &march, &ray, &bbox);
                std::hint::black_box(color);
                nan_seen += n;
            }
            record_nan_samples(nan_seen);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{orbit_viewpoints, Projection};
    use crate::vec3::vec3;
    use sfc_core::{ArrayOrder3, Dims3, ZOrder3};
    use sfc_memsim::platform;

    fn checker(dims: Dims3) -> Vec<f32> {
        dims.iter()
            .map(|(i, j, k)| (((i / 2) + (j / 2) + (k / 2)) % 2) as f32)
            .collect()
    }

    fn opts() -> RenderOpts {
        RenderOpts {
            tile: 8,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic() {
        let dims = Dims3::cube(16);
        let g = sfc_core::Grid3::<f32, ZOrder3>::from_row_major(dims, &checker(dims));
        let cams = orbit_viewpoints(
            8,
            vec3(8.0, 8.0, 8.0),
            40.0,
            Projection::Perspective {
                fov_y: 35f32.to_radians(),
            },
            16,
            16,
        );
        let plat = platform::scaled(&platform::ivy_bridge(), 15);
        let tf = TransferFunction::fire();
        let a = simulate_render_counters(&g, &cams[1], &tf, &opts(), 4, &plat);
        let b = simulate_render_counters(&g, &cams[1], &tf, &opts(), 4, &plat);
        assert_eq!(a.per_core, b.per_core);
        assert!(a.total().reads > 0);
    }

    #[test]
    fn oblique_view_hurts_array_order_more() {
        // Viewpoint 2 looks along -z: hostile for array order, fine for
        // Z-order — the paper's Fig. 4 effect in miniature.
        let dims = Dims3::cube(32);
        let values = checker(dims);
        let a = sfc_core::Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let z = sfc_core::Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let cams = orbit_viewpoints(
            8,
            vec3(16.0, 16.0, 16.0),
            80.0,
            Projection::Perspective {
                fov_y: 35f32.to_radians(),
            },
            32,
            32,
        );
        let plat = platform::scaled(&platform::ivy_bridge(), 13);
        let tf = TransferFunction::grayscale();
        let miss = |g: &dyn Fn() -> u64| g();
        let miss_a2 = simulate_render_counters(&a, &cams[2], &tf, &opts(), 2, &plat)
            .l3_total_cache_accesses();
        let miss_z2 = simulate_render_counters(&z, &cams[2], &tf, &opts(), 2, &plat)
            .l3_total_cache_accesses();
        let _ = miss;
        assert!(
            miss_a2 > miss_z2,
            "oblique view: a-order misses ({miss_a2}) must exceed z-order ({miss_z2})"
        );
    }

    #[test]
    fn sim_traces_the_per_sample_stream() {
        // The sim's total read count must equal the number of gets the
        // uncached per-sample path issues over the same rays — i.e. the
        // pre-cursor 8-gets-per-sample stream, not the cached-cell one.
        let dims = Dims3::cube(16);
        let g = sfc_core::Grid3::<f32, ZOrder3>::from_row_major(dims, &checker(dims));
        let cam = orbit_viewpoints(
            8,
            vec3(8.0, 8.0, 8.0),
            40.0,
            Projection::Perspective {
                fov_y: 35f32.to_radians(),
            },
            16,
            16,
        )
        .remove(1);
        let plat = platform::scaled(&platform::ivy_bridge(), 15);
        let tf = TransferFunction::fire();
        let report = simulate_render_counters(&g, &cam, &tf, &opts(), 4, &plat);

        let gets = std::cell::Cell::new(0u64);
        let counting = sfc_core::FnVolume::new(dims, |i, j, k| {
            gets.set(gets.get() + 1);
            sfc_core::Volume3::get(&g, i, j, k)
        });
        let bbox = crate::ray::Aabb::of_dims(dims);
        let march = MarchOpts::new(&tf, &opts());
        for y in 0..cam.height() {
            for x in 0..cam.width() {
                let ray = cam.ray_for_pixel(x, y);
                crate::render::shade_ray_replay(&counting, &tf, &march, &ray, &bbox);
            }
        }
        assert_eq!(report.total().reads, gets.get());
        assert_eq!(gets.get() % 8, 0);
    }

    #[test]
    fn read_counts_are_layout_independent() {
        let dims = Dims3::cube(16);
        let values = checker(dims);
        let a = sfc_core::Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let z = sfc_core::Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let cam = orbit_viewpoints(
            8,
            vec3(8.0, 8.0, 8.0),
            40.0,
            Projection::Perspective {
                fov_y: 35f32.to_radians(),
            },
            24,
            24,
        )
        .remove(3);
        let plat = platform::scaled(&platform::mic_knc(), 15);
        let tf = TransferFunction::fire();
        let ra = simulate_render_counters(&a, &cam, &tf, &opts(), 3, &plat);
        let rz = simulate_render_counters(&z, &cam, &tf, &opts(), 3, &plat);
        assert_eq!(ra.total().reads, rz.total().reads);
    }
}
