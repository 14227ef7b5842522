//! Simulated memory-system counters for the bilateral filter.
//!
//! Replays the exact per-thread pencil work split of the native parallel
//! driver through `sfc-memsim`, with software threads mapped onto simulated
//! cores the way the paper's platforms do (one thread per core on Ivy
//! Bridge; up to four threads sharing a core's private caches on the MIC,
//! modeled by interleaving their pencil streams round-robin).

use sfc_core::{pencil, pencil_count, Axis, Grid3, Layout3};
use sfc_harness::{items_for_thread, LazyCounter};
use sfc_memsim::{
    assign_threads_to_cores, interleave_round_robin, run_multicore, CoreSim, Platform,
    SimReport, TracedGrid,
};

use crate::bilateral::{bilateral_voxel, BilateralParams};

/// Process-wide count of NaN voxels the bilateral kernel has encountered
/// and excluded (photometric weight forced to 0). Monotonic; reset
/// explicitly between measurements. Added to once per pencil, not per
/// voxel; registered in the metrics plane as `filters.nan_events`.
static NAN_EVENTS: LazyCounter = LazyCounter::new("filters.nan_events");

/// NaN voxels excluded by the bilateral kernel since the last
/// [`reset_nan_events`].
pub fn nan_events() -> u64 {
    NAN_EVENTS.value()
}

/// Reset the NaN event counter (call before a measured run).
pub fn reset_nan_events() {
    NAN_EVENTS.reset();
}

pub(crate) fn record_nan_events(n: u64) {
    NAN_EVENTS.add(n);
}

/// Simulate the cache behaviour of a bilateral-filter run.
///
/// `nthreads` software threads process pencils along `pencil_axis` with the
/// same round-robin split as [`crate::parallel::bilateral3d`]. Input-volume
/// reads *and* output-volume writes are traced (the output uses the same
/// layout as the input, disjoint address range) — PAPI's total-access
/// counters include store traffic, and in hostile pencil orientations the
/// array-order output stream is a large part of the measured difference.
pub fn simulate_bilateral_counters<L: Layout3>(
    grid: &Grid3<f32, L>,
    params: &BilateralParams,
    pencil_axis: Axis,
    nthreads: usize,
    platform: &Platform,
) -> SimReport {
    let dims = grid.dims();
    let n_pencils = pencil_count(dims, pencil_axis);
    let cores = assign_threads_to_cores(nthreads, platform.cores);
    let kernel = params.spatial_kernel();
    let inv = params.inv_two_sigma_range_sq();

    run_multicore(
        &platform.hierarchy,
        cores.len(),
        true,
        |core_id, sim: &mut CoreSim| {
            // Voxel streams of each software thread hosted by this core,
            // interleaved round-robin at *voxel* granularity — hardware
            // threads share a core cycle-by-cycle, so their access streams
            // mix far finer than whole work items. (With one thread per
            // core this degenerates to the thread's natural order.)
            let streams: Vec<Vec<(usize, usize, usize)>> = cores[core_id]
                .iter()
                .map(|&tid| {
                    items_for_thread(n_pencils, nthreads, tid)
                        .flat_map(|pid| pencil(dims, pencil_axis, pid).iter().collect::<Vec<_>>())
                        .collect()
                })
                .collect();
            let work = interleave_round_robin(&streams);
            let traced = TracedGrid::at_zero(grid, sim);
            // Output buffer lives after the input in the simulated address
            // space, stored under the same layout (the paper's setup).
            let out_base = (grid.layout().storage_len() as u64 * 4).next_power_of_two();
            for (i, j, k) in work {
                let v = bilateral_voxel(&traced, &kernel, inv, i, j, k);
                std::hint::black_box(v);
                let out_idx = traced.index_of(i, j, k) as u64;
                traced.with_sim(|s| s.write(out_base + out_idx * 4, 4));
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::{ArrayOrder3, Dims3, StencilOrder, ZOrder3};
    use sfc_memsim::platform;

    fn params() -> BilateralParams {
        BilateralParams {
            radius: 2,
            sigma_spatial: 1.0,
            sigma_range: 0.1,
            order: StencilOrder::Zyx,
        }
    }

    fn volume(dims: Dims3) -> Vec<f32> {
        (0..dims.len())
            .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
            .collect()
    }

    #[test]
    fn read_counts_are_layout_independent() {
        // Both layouts perform the same number of scalar reads; only the
        // hit/miss split may differ.
        let dims = Dims3::cube(12);
        let values = volume(dims);
        let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let z = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let plat = platform::scaled(&platform::ivy_bridge(), 12);
        let p = params();
        let ra = simulate_bilateral_counters(&a, &p, Axis::Z, 4, &plat);
        let rz = simulate_bilateral_counters(&z, &p, Axis::Z, 4, &plat);
        assert_eq!(ra.total().reads, rz.total().reads);
        // 12³ voxels × 5³ stencil reads + one center read each.
        assert_eq!(ra.total().reads, (12u64 * 12 * 12) * (125 + 1));
    }

    #[test]
    fn hostile_order_hurts_array_order_more_than_zorder() {
        // The paper's core claim at small scale: with a z-innermost stencil
        // and z pencils, array order misses far more than Z-order.
        let dims = Dims3::cube(16);
        let values = volume(dims);
        let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let z = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let plat = platform::scaled(&platform::ivy_bridge(), 15);
        let p = params();
        let miss_a = simulate_bilateral_counters(&a, &p, Axis::Z, 2, &plat)
            .l3_total_cache_accesses();
        let miss_z = simulate_bilateral_counters(&z, &p, Axis::Z, 2, &plat)
            .l3_total_cache_accesses();
        assert!(
            miss_a > miss_z,
            "array-order misses ({miss_a}) should exceed z-order ({miss_z})"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let dims = Dims3::cube(10);
        let values = volume(dims);
        let g = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let plat = platform::scaled(&platform::mic_knc(), 12);
        let p = params();
        let r1 = simulate_bilateral_counters(&g, &p, Axis::X, 8, &plat);
        let r2 = simulate_bilateral_counters(&g, &p, Axis::X, 8, &plat);
        assert_eq!(r1.per_core, r2.per_core);
    }

    #[test]
    fn threads_share_cores_on_mic_style_platform() {
        let dims = Dims3::cube(8);
        let values = volume(dims);
        let g = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let mut plat = platform::scaled(&platform::mic_knc(), 12);
        plat.cores = 4;
        let r = simulate_bilateral_counters(&g, &params(), Axis::X, 8, &plat);
        assert_eq!(r.per_core.len(), 4, "8 threads fold onto 4 cores");
    }
}
