//! Separable Gaussian convolution: three 1-D passes (x, then y, then z).
//!
//! A classic optimization of the dense Gaussian baseline — `O(3(2r+1))`
//! reads per voxel instead of `O((2r+1)³)` — and an instructive layout
//! case: each pass sweeps a *different* axis, so under array order one
//! pass is perfectly contiguous and another is maximally strided, while
//! under Z-order all three passes behave alike. (This is the multi-sweep
//! pattern that forces transposes in FFT-style pipelines.)

use sfc_core::{Axis, Grid3, Layout3};

use crate::parallel::drive;

/// Precomputed 1-D Gaussian taps (unnormalized; normalization divides by
/// the sum so clamped edges stay mean-preserving).
#[derive(Debug, Clone)]
pub struct Kernel1D {
    radius: usize,
    taps: Vec<f32>,
    sum: f32,
}

impl Kernel1D {
    /// Build `2r+1` taps with standard deviation `sigma`.
    pub fn new(radius: usize, sigma: f32) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        let taps: Vec<f32> = (-(radius as isize)..=radius as isize)
            .map(|d| (-(d * d) as f32 / (2.0 * sigma * sigma)).exp())
            .collect();
        let sum = taps.iter().sum();
        Self { radius, taps, sum }
    }

    /// Tap weights, centered.
    pub fn taps(&self) -> &[f32] {
        &self.taps
    }

    /// Kernel radius.
    pub fn radius(&self) -> usize {
        self.radius
    }
}

/// One 1-D convolution pass along `axis`, pencil-parallel, from `src`
/// into a new grid of the same layout.
fn pass<L: Layout3>(
    src: &Grid3<f32, L>,
    kernel: &Kernel1D,
    axis: Axis,
    nthreads: usize,
) -> Grid3<f32, L> {
    let mut out = Grid3::<f32, L>::new(src.dims());
    let r = kernel.radius as isize;
    drive(&mut out, axis, nthreads, |i, j, k| {
        let (ii, jj, kk) = (i as isize, j as isize, k as isize);
        let mut acc = 0.0f32;
        for (t, &w) in kernel.taps.iter().enumerate() {
            let d = t as isize - r;
            let v = match axis {
                Axis::X => src.get_clamped(ii + d, jj, kk),
                Axis::Y => src.get_clamped(ii, jj + d, kk),
                Axis::Z => src.get_clamped(ii, jj, kk + d),
            };
            acc += w * v;
        }
        acc / kernel.sum
    });
    out
}

/// Full separable Gaussian blur: x pass, y pass, z pass.
pub fn gaussian_separable3d<L: Layout3>(
    src: &Grid3<f32, L>,
    radius: usize,
    sigma: f32,
    nthreads: usize,
) -> Grid3<f32, L> {
    let kernel = Kernel1D::new(radius, sigma);
    let gx = pass(src, &kernel, Axis::X, nthreads);
    let gy = pass(&gx, &kernel, Axis::Y, nthreads);
    pass(&gy, &kernel, Axis::Z, nthreads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{convolve_voxel, SpatialKernel};
    use sfc_core::{ArrayOrder3, Dims3, StencilOrder, Tiled3, ZOrder3};

    fn noise(dims: Dims3) -> Vec<f32> {
        (0..dims.len())
            .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
            .collect()
    }

    #[test]
    fn kernel_taps_symmetric_and_peaked() {
        let k = Kernel1D::new(3, 1.5);
        assert_eq!(k.taps().len(), 7);
        assert_eq!(k.taps()[0], k.taps()[6]);
        assert_eq!(k.taps()[3], 1.0);
        assert!(k.taps()[3] > k.taps()[2]);
    }

    #[test]
    fn constant_is_fixed_point() {
        let dims = Dims3::cube(8);
        let g = Grid3::<f32, ZOrder3>::from_fn(dims, |_, _, _| 0.3);
        let out = gaussian_separable3d(&g, 2, 1.0, 3);
        assert!(out.to_row_major().iter().all(|v| (v - 0.3).abs() < 1e-5));
    }

    #[test]
    fn matches_dense_convolution_in_the_interior() {
        // Separable == dense for the product-form Gaussian, away from
        // clamped boundaries (boundary normalization differs per pass).
        let dims = Dims3::cube(12);
        let values = noise(dims);
        let g = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let sep = gaussian_separable3d(&g, 2, 1.3, 2);
        let dense_kernel = SpatialKernel::new(2, 1.3, StencilOrder::Xyz);
        for k in 2..10 {
            for j in 2..10 {
                for i in 2..10 {
                    let d = convolve_voxel(&g, &dense_kernel, i, j, k);
                    let s = sep.get(i, j, k);
                    assert!(
                        (d - s).abs() < 1e-4,
                        "mismatch at ({i},{j},{k}): dense {d} vs separable {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn layout_invariant() {
        let dims = Dims3::new(9, 8, 7);
        let values = noise(dims);
        let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let t = Grid3::<f32, Tiled3>::from_row_major(dims, &values);
        let oa = gaussian_separable3d(&a, 1, 1.0, 1).to_row_major();
        let ot = gaussian_separable3d(&t, 1, 1.0, 4).to_row_major();
        for (x, y) in oa.iter().zip(&ot) {
            assert_eq!(x, y, "separable passes are layout-deterministic");
        }
    }

    #[test]
    fn smooths_noise() {
        let dims = Dims3::cube(16);
        let values = noise(dims);
        let g = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let out = gaussian_separable3d(&g, 2, 1.5, 2);
        let var = |v: &[f32]| {
            let m = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|x| (x - m).powi(2)).sum::<f32>() / v.len() as f32
        };
        assert!(var(&out.to_row_major()) < var(&values) * 0.5);
    }
}
