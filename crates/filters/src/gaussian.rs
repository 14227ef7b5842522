//! Gaussian spatial weights and the plain-convolution baseline.
//!
//! The bilateral filter's geometric component `g(i, ī)` (paper Eq. 3) is a
//! Gaussian of the spatial distance between the center voxel and its
//! neighbor. Those weights depend only on the stencil offsets, so they are
//! precomputed once into a [`SpatialKernel`] whose entries are stored in
//! the configured stencil iteration order.

use sfc_core::{stencil_offsets, StencilOrder, Volume3};

/// Unnormalized Gaussian weight `exp(-d² / (2σ²))` of a squared distance,
/// through the filter's bit-exact [`expf`](crate::fastmath).
#[inline]
pub fn gaussian_weight(d2: f32, sigma: f32) -> f32 {
    crate::fastmath::expf(-d2 / (2.0 * sigma * sigma))
}

/// Precomputed cubic stencil: offsets and their spatial Gaussian weights in
/// a fixed iteration order.
#[derive(Debug, Clone)]
pub struct SpatialKernel {
    radius: usize,
    offsets: Vec<(isize, isize, isize)>,
    weights: Vec<f32>,
    weight_sum: f32,
}

impl SpatialKernel {
    /// Build a `(2r+1)³` kernel with standard deviation `sigma_spatial`
    /// (in voxels), enumerated in `order`.
    pub fn new(radius: usize, sigma_spatial: f32, order: StencilOrder) -> Self {
        assert!(sigma_spatial > 0.0, "spatial sigma must be positive");
        let offsets = stencil_offsets(radius, order);
        let weights: Vec<f32> = offsets
            .iter()
            .map(|&(di, dj, dk)| {
                let d2 = (di * di + dj * dj + dk * dk) as f32;
                gaussian_weight(d2, sigma_spatial)
            })
            .collect();
        let weight_sum = weights.iter().sum();
        Self {
            radius,
            offsets,
            weights,
            weight_sum,
        }
    }

    /// Stencil radius in voxels.
    #[inline]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Offsets in iteration order.
    #[inline]
    pub fn offsets(&self) -> &[(isize, isize, isize)] {
        &self.offsets
    }

    /// Weights matching [`offsets`](Self::offsets) element-wise.
    #[inline]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Sum of all spatial weights (normalizer for plain convolution).
    #[inline]
    pub fn weight_sum(&self) -> f32 {
        self.weight_sum
    }
}

/// Plain Gaussian convolution of one voxel (no photometric term): the
/// baseline stencil kernel. Boundary rule: clamp to edge.
pub fn convolve_voxel<V: Volume3>(
    vol: &V,
    kernel: &SpatialKernel,
    i: usize,
    j: usize,
    k: usize,
) -> f32 {
    let d = vol.dims();
    let r = kernel.radius() as isize;
    let (ii, jj, kk) = (i as isize, j as isize, k as isize);
    let interior = ii >= r
        && jj >= r
        && kk >= r
        && ii + r < d.nx as isize
        && jj + r < d.ny as isize
        && kk + r < d.nz as isize;
    let mut acc = 0.0f32;
    if interior {
        for (&(di, dj, dk), &w) in kernel.offsets().iter().zip(kernel.weights()) {
            let v = vol.get(
                (ii + di) as usize,
                (jj + dj) as usize,
                (kk + dk) as usize,
            );
            acc += w * v;
        }
    } else {
        for (&(di, dj, dk), &w) in kernel.offsets().iter().zip(kernel.weights()) {
            acc += w * vol.get_clamped(ii + di, jj + dj, kk + dk);
        }
    }
    acc / kernel.weight_sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::{Dims3, FnVolume, StencilOrder};

    #[test]
    fn weight_is_one_at_zero_distance() {
        assert_eq!(gaussian_weight(0.0, 2.0), 1.0);
        assert!(gaussian_weight(4.0, 2.0) < 1.0);
    }

    #[test]
    fn kernel_center_has_max_weight() {
        let k = SpatialKernel::new(2, 1.5, StencilOrder::Xyz);
        let center_pos = k
            .offsets()
            .iter()
            .position(|&o| o == (0, 0, 0))
            .expect("stencil contains its center");
        let wc = k.weights()[center_pos];
        assert!(k.weights().iter().all(|&w| w <= wc));
        assert_eq!(wc, 1.0);
    }

    #[test]
    fn kernel_is_symmetric() {
        let k = SpatialKernel::new(1, 1.0, StencilOrder::Xyz);
        for (idx, &(di, dj, dk)) in k.offsets().iter().enumerate() {
            let mirrored = k
                .offsets()
                .iter()
                .position(|&o| o == (-di, -dj, -dk))
                .unwrap();
            assert_eq!(k.weights()[idx], k.weights()[mirrored]);
        }
    }

    #[test]
    fn convolving_constant_returns_constant() {
        let vol = FnVolume::new(Dims3::cube(8), |_, _, _| 3.25);
        let k = SpatialKernel::new(2, 1.0, StencilOrder::Xyz);
        for &(i, j, k_) in &[(0, 0, 0), (4, 4, 4), (7, 7, 7)] {
            let out = convolve_voxel(&vol, &k, i, j, k_);
            assert!((out - 3.25).abs() < 1e-5, "at ({i},{j},{k_}): {out}");
        }
    }

    #[test]
    fn convolution_smooths_an_impulse() {
        let vol = FnVolume::new(Dims3::cube(9), |i, j, k| {
            if (i, j, k) == (4, 4, 4) {
                1.0
            } else {
                0.0
            }
        });
        let k = SpatialKernel::new(1, 1.0, StencilOrder::Xyz);
        let center = convolve_voxel(&vol, &k, 4, 4, 4);
        let neighbor = convolve_voxel(&vol, &k, 5, 4, 4);
        assert!(center > neighbor && neighbor > 0.0);
        let far = convolve_voxel(&vol, &k, 8, 8, 8);
        assert_eq!(far, 0.0);
    }

    #[test]
    fn interior_and_boundary_paths_agree_where_both_valid() {
        // A voxel that is interior must give the same answer through the
        // clamped path; emulate by comparing against manual accumulation.
        let vol = FnVolume::new(Dims3::cube(8), |i, j, k| (i + 2 * j + 3 * k) as f32);
        let k = SpatialKernel::new(1, 2.0, StencilOrder::Zyx);
        let fast = convolve_voxel(&vol, &k, 4, 4, 4);
        let mut acc = 0.0;
        for (&(di, dj, dk), &w) in k.offsets().iter().zip(k.weights()) {
            acc += w * vol.get_clamped(4 + di, 4 + dj, 4 + dk);
        }
        let slow = acc / k.weight_sum();
        assert_eq!(fast, slow);
    }
}
