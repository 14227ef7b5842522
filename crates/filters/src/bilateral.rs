//! The 3D bilateral filter kernel (paper §III-A).
//!
//! Output voxel `D(i)` is the normalized weighted average of the stencil
//! neighborhood, where each neighbor's weight is the product of a
//! geometric Gaussian `g` (precomputed — it depends only on offsets) and a
//! photometric Gaussian `c` of the value difference (computed per sample —
//! it depends on the data, which is what makes the filter edge-preserving
//! and more expensive than plain convolution).

use sfc_core::{SfcError, SfcResult, StencilOrder, StencilSize, Volume3};

use crate::fastmath::photometric_weight;
use crate::gaussian::SpatialKernel;

/// Bilateral filter parameters.
#[derive(Debug, Clone, Copy)]
pub struct BilateralParams {
    /// Stencil radius in voxels (paper sizes: 1, 2, 5 — see
    /// [`StencilSize`]).
    pub radius: usize,
    /// Geometric (spatial) Gaussian standard deviation, in voxels.
    pub sigma_spatial: f32,
    /// Photometric (range) Gaussian standard deviation, in value units.
    pub sigma_range: f32,
    /// Stencil iteration order (paper: `xyz` friendly, `zyx` hostile).
    pub order: StencilOrder,
}

impl BilateralParams {
    /// Sensible defaults for unit-range data: `σ_s = radius/2`, `σ_r = 0.1`.
    pub fn for_size(size: StencilSize, order: StencilOrder) -> Self {
        let radius = size.radius();
        Self {
            radius,
            sigma_spatial: (radius as f32 / 2.0).max(0.5),
            sigma_range: 0.1,
            order,
        }
    }

    /// Build the precomputed spatial kernel for these parameters.
    pub fn spatial_kernel(&self) -> SpatialKernel {
        SpatialKernel::new(self.radius, self.sigma_spatial, self.order)
    }

    /// Validate the parameters, returning a typed error for sigmas that
    /// are non-positive or non-finite (CLI flags, config files).
    pub fn validate(&self) -> SfcResult<()> {
        if !(self.sigma_range > 0.0 && self.sigma_range.is_finite()) {
            return Err(SfcError::InvalidParameter {
                name: "sigma_range",
                reason: format!("range sigma must be positive and finite, got {}", self.sigma_range),
            });
        }
        if !(self.sigma_spatial > 0.0 && self.sigma_spatial.is_finite()) {
            return Err(SfcError::InvalidParameter {
                name: "sigma_spatial",
                reason: format!(
                    "spatial sigma must be positive and finite, got {}",
                    self.sigma_spatial
                ),
            });
        }
        Ok(())
    }

    /// `1 / (2 σ_r²)` — the factor the photometric exponent needs.
    ///
    /// # Panics
    /// Panics on an invalid `sigma_range`; [`BilateralParams::validate`]
    /// first when the parameters are untrusted.
    pub fn inv_two_sigma_range_sq(&self) -> f32 {
        assert!(self.sigma_range > 0.0, "range sigma must be positive");
        1.0 / (2.0 * self.sigma_range * self.sigma_range)
    }
}

/// Filter a single voxel. `inv_2sr2` is
/// [`BilateralParams::inv_two_sigma_range_sq`], hoisted by callers.
///
/// This is the per-voxel form of the kernel (and the access stream the
/// memory-counter sims trace); the parallel drivers run the pencil-gather
/// tap loop (`crate::pencil_gather`), which produces the same bits.
///
/// NaN voxels (corrupt data) are excluded instead of poisoning the
/// average: a NaN *neighbor* gets photometric weight 0, and a NaN *center*
/// falls back to a plain geometric average of its non-NaN neighbors (the
/// photometric difference is undefined), which repairs the voxel. Every
/// excluded NaN is counted in [`crate::counters::nan_events`]. Only if the
/// entire neighborhood is NaN does the output degrade to `0.0`.
pub fn bilateral_voxel<V: Volume3>(
    vol: &V,
    kernel: &SpatialKernel,
    inv_2sr2: f32,
    i: usize,
    j: usize,
    k: usize,
) -> f32 {
    let d = vol.dims();
    let center = vol.get(i, j, k);
    let center_nan = center.is_nan();
    let r = kernel.radius() as isize;
    let (ii, jj, kk) = (i as isize, j as isize, k as isize);
    let interior = ii >= r
        && jj >= r
        && kk >= r
        && ii + r < d.nx as isize
        && jj + r < d.ny as isize
        && kk + r < d.nz as isize;

    let mut acc = 0.0f32;
    let mut wsum = 0.0f32;
    let mut nan_seen: u64 = u64::from(center_nan);
    let mut tap = |v: f32, wg: f32| {
        if v.is_nan() {
            nan_seen += 1;
            return;
        }
        let w = if center_nan {
            wg
        } else {
            wg * photometric_weight(v - center, inv_2sr2)
        };
        acc += w * v;
        wsum += w;
    };
    if interior {
        for (&(di, dj, dk), &wg) in kernel.offsets().iter().zip(kernel.weights()) {
            let v = vol.get(
                (ii + di) as usize,
                (jj + dj) as usize,
                (kk + dk) as usize,
            );
            tap(v, wg);
        }
    } else {
        for (&(di, dj, dk), &wg) in kernel.offsets().iter().zip(kernel.weights()) {
            let v = vol.get_clamped(ii + di, jj + dj, kk + dk);
            tap(v, wg);
        }
    }
    crate::counters::record_nan_events(nan_seen);
    // With a non-NaN center, wsum >= the center's own weight
    // (1 * exp(0)) > 0; it can only be 0 when every sample was NaN.
    if wsum > 0.0 {
        acc / wsum
    } else {
        0.0
    }
}

/// Single-threaded reference implementation over a row-major buffer —
/// deliberately written independently of the `Volume3`/layout machinery so
/// tests can cross-check the production kernel against it.
pub fn bilateral_reference(
    input: &[f32],
    dims: sfc_core::Dims3,
    params: &BilateralParams,
) -> Vec<f32> {
    assert_eq!(input.len(), dims.len());
    let r = params.radius as isize;
    let sw = |d2: f32| (-d2 / (2.0 * params.sigma_spatial * params.sigma_spatial)).exp();
    let cw = |d: f32| (-(d * d) / (2.0 * params.sigma_range * params.sigma_range)).exp();
    let at = |i: isize, j: isize, k: isize| -> f32 {
        let ci = i.clamp(0, dims.nx as isize - 1) as usize;
        let cj = j.clamp(0, dims.ny as isize - 1) as usize;
        let ck = k.clamp(0, dims.nz as isize - 1) as usize;
        input[ci + cj * dims.nx + ck * dims.nx * dims.ny]
    };
    let mut out = Vec::with_capacity(dims.len());
    for (i, j, k) in dims.iter() {
        let center = at(i as isize, j as isize, k as isize);
        let mut acc = 0.0f32;
        let mut wsum = 0.0f32;
        for dk in -r..=r {
            for dj in -r..=r {
                for di in -r..=r {
                    let v = at(i as isize + di, j as isize + dj, k as isize + dk);
                    let w = sw((di * di + dj * dj + dk * dk) as f32) * cw(v - center);
                    acc += w * v;
                    wsum += w;
                }
            }
        }
        out.push(acc / wsum);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::{Dims3, FnVolume, Grid3, StencilOrder, ZOrder3};

    fn params(radius: usize) -> BilateralParams {
        BilateralParams {
            radius,
            sigma_spatial: 1.0,
            sigma_range: 0.1,
            order: StencilOrder::Xyz,
        }
    }

    #[test]
    fn constant_input_is_fixed_point() {
        let vol = FnVolume::new(Dims3::cube(8), |_, _, _| 0.4);
        let p = params(2);
        let k = p.spatial_kernel();
        let out = bilateral_voxel(&vol, &k, p.inv_two_sigma_range_sq(), 3, 3, 3);
        assert!((out - 0.4).abs() < 1e-6);
    }

    #[test]
    fn preserves_a_sharp_edge_better_than_it_smooths_flat_noise() {
        // Step edge along x at i = 4: values 0.0 | 1.0.
        let vol = FnVolume::new(Dims3::cube(9), |i, _, _| if i < 4 { 0.0 } else { 1.0 });
        let p = params(2);
        let k = p.spatial_kernel();
        let inv = p.inv_two_sigma_range_sq();
        // A voxel right at the edge keeps its side's value almost exactly:
        let low_side = bilateral_voxel(&vol, &k, inv, 3, 4, 4);
        let high_side = bilateral_voxel(&vol, &k, inv, 4, 4, 4);
        assert!(low_side < 0.05, "edge must be preserved, got {low_side}");
        assert!(high_side > 0.95, "edge must be preserved, got {high_side}");
    }

    #[test]
    fn large_sigma_range_approaches_plain_convolution() {
        let vol = FnVolume::new(Dims3::cube(9), |i, j, k| {
            ((i * 7 + j * 3 + k * 11) % 13) as f32 / 13.0
        });
        let p = BilateralParams {
            radius: 1,
            sigma_spatial: 1.0,
            sigma_range: 1e4, // photometric term ≈ 1 everywhere
            order: StencilOrder::Xyz,
        };
        let k = p.spatial_kernel();
        let b = bilateral_voxel(&vol, &k, p.inv_two_sigma_range_sq(), 4, 4, 4);
        let c = crate::gaussian::convolve_voxel(&vol, &k, 4, 4, 4);
        assert!((b - c).abs() < 1e-4, "bilateral {b} vs convolution {c}");
    }

    #[test]
    fn matches_reference_implementation() {
        let dims = Dims3::new(7, 6, 5);
        let values: Vec<f32> = (0..dims.len())
            .map(|v| ((v * 2654435761) % 1000) as f32 / 1000.0)
            .collect();
        let p = params(1);
        let reference = bilateral_reference(&values, dims, &p);

        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let k = p.spatial_kernel();
        let inv = p.inv_two_sigma_range_sq();
        for (idx, (i, j, kk)) in dims.iter().enumerate() {
            let got = bilateral_voxel(&grid, &k, inv, i, j, kk);
            assert!(
                (got - reference[idx]).abs() < 1e-5,
                "mismatch at ({i},{j},{kk}): {got} vs {}",
                reference[idx]
            );
        }
    }

    #[test]
    fn nan_neighbor_is_excluded_not_propagated() {
        let before = crate::counters::nan_events();
        let vol = FnVolume::new(Dims3::cube(5), |i, j, k| {
            if (i, j, k) == (2, 2, 2) {
                f32::NAN
            } else {
                0.5
            }
        });
        let p = params(1);
        let k = p.spatial_kernel();
        let inv = p.inv_two_sigma_range_sq();
        // A voxel whose stencil covers the NaN still produces its clean value.
        let out = bilateral_voxel(&vol, &k, inv, 1, 2, 2);
        assert!((out - 0.5).abs() < 1e-6, "NaN must not leak: {out}");
        assert!(crate::counters::nan_events() > before, "event must be counted");
    }

    #[test]
    fn nan_center_is_repaired_from_neighbors() {
        let vol = FnVolume::new(Dims3::cube(5), |i, j, k| {
            if (i, j, k) == (2, 2, 2) {
                f32::NAN
            } else {
                0.7
            }
        });
        let p = params(1);
        let k = p.spatial_kernel();
        let out = bilateral_voxel(&vol, &k, p.inv_two_sigma_range_sq(), 2, 2, 2);
        assert!((out - 0.7).abs() < 1e-6, "NaN center must be repaired: {out}");
    }

    #[test]
    fn fully_nan_neighborhood_degrades_to_zero() {
        let vol = FnVolume::new(Dims3::cube(5), |_, _, _| f32::NAN);
        let p = params(1);
        let k = p.spatial_kernel();
        let out = bilateral_voxel(&vol, &k, p.inv_two_sigma_range_sq(), 2, 2, 2);
        assert_eq!(out, 0.0);
    }

    #[test]
    fn validate_rejects_bad_sigmas() {
        let mut p = params(1);
        assert!(p.validate().is_ok());
        p.sigma_range = 0.0;
        assert!(p.validate().is_err());
        p.sigma_range = f32::NAN;
        assert!(p.validate().is_err());
        p.sigma_range = 0.1;
        p.sigma_spatial = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn boundary_voxels_are_finite_and_reasonable() {
        let vol = FnVolume::new(Dims3::cube(4), |i, j, k| (i + j + k) as f32 / 9.0);
        let p = params(2); // radius larger than distance to edge
        let k = p.spatial_kernel();
        let inv = p.inv_two_sigma_range_sq();
        for (i, j, kk) in Dims3::cube(4).iter() {
            let v = bilateral_voxel(&vol, &k, inv, i, j, kk);
            assert!(v.is_finite());
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
