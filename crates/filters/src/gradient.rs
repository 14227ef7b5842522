//! Central-difference gradient magnitude — a third structured-access
//! kernel (6-point stencil), included to show the layout machinery
//! generalizes beyond the two kernels the paper evaluates. Gradient
//! computation is the canonical preprocessing step for the volume
//! renderer's shading and for edge detection in analysis pipelines.

use sfc_core::{Grid3, Layout3, Volume3};

use crate::parallel::{drive, FilterRun};

/// Gradient magnitude at one voxel via central differences (clamped
/// boundary, unit voxel spacing).
pub fn gradient_voxel<V: Volume3>(vol: &V, i: usize, j: usize, k: usize) -> f32 {
    let (ii, jj, kk) = (i as isize, j as isize, k as isize);
    let gx = (vol.get_clamped(ii + 1, jj, kk) - vol.get_clamped(ii - 1, jj, kk)) * 0.5;
    let gy = (vol.get_clamped(ii, jj + 1, kk) - vol.get_clamped(ii, jj - 1, kk)) * 0.5;
    let gz = (vol.get_clamped(ii, jj, kk + 1) - vol.get_clamped(ii, jj, kk - 1)) * 0.5;
    (gx * gx + gy * gy + gz * gz).sqrt()
}

/// Pencil-parallel gradient-magnitude field (same driver as the plain
/// convolution; only `run.pencil_axis` and `run.nthreads` are used).
pub fn gradient3d<V, LOut>(vol: &V, run: &FilterRun) -> Grid3<f32, LOut>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    let mut out = Grid3::<f32, LOut>::new(vol.dims());
    drive(&mut out, run.pencil_axis, run.nthreads, |i, j, k| {
        gradient_voxel(vol, i, j, k)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bilateral::BilateralParams;
    use sfc_core::{ArrayOrder3, Axis, Dims3, FnVolume, StencilOrder, ZOrder3};

    fn run(nthreads: usize) -> FilterRun {
        FilterRun {
            params: BilateralParams {
                radius: 1,
                sigma_spatial: 1.0,
                sigma_range: 0.1,
                order: StencilOrder::Xyz,
            },
            pencil_axis: Axis::X,
            weight: Default::default(),
            nthreads,
        }
    }

    #[test]
    fn constant_field_has_zero_gradient() {
        let vol = FnVolume::new(Dims3::cube(6), |_, _, _| 3.0);
        let g: sfc_core::Grid3<f32, ArrayOrder3> = gradient3d(&vol, &run(2));
        assert!(g.to_row_major().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn linear_ramp_has_unit_slope_in_interior() {
        let vol = FnVolume::new(Dims3::cube(8), |i, _, _| i as f32);
        let g = gradient_voxel(&vol, 4, 4, 4);
        assert!((g - 1.0).abs() < 1e-6);
        // Boundary uses one-sided clamp: half slope.
        let gb = gradient_voxel(&vol, 0, 4, 4);
        assert!((gb - 0.5).abs() < 1e-6);
    }

    #[test]
    fn diagonal_ramp_combines_components() {
        let vol = FnVolume::new(Dims3::cube(8), |i, j, k| (i + j + k) as f32);
        let g = gradient_voxel(&vol, 4, 4, 4);
        assert!((g - 3f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn layout_and_threads_invariant() {
        let dims = Dims3::new(9, 7, 5);
        let values: Vec<f32> = (0..dims.len())
            .map(|v| ((v * 2654435761) % 97) as f32 / 97.0)
            .collect();
        let a = sfc_core::Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let z = sfc_core::Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let ga: sfc_core::Grid3<f32, ArrayOrder3> = gradient3d(&a, &run(1));
        let gz: sfc_core::Grid3<f32, ArrayOrder3> = gradient3d(&z, &run(5));
        assert_eq!(ga.to_row_major(), gz.to_row_major());
    }
}
