//! The scalar-volume access abstraction kernels are written against.
//!
//! Both application kernels (bilateral filter, raycaster) read a 3D scalar
//! field one sample at a time. Abstracting that read behind [`Volume3`]
//! lets the *same monomorphized kernel* run over any layout, and lets
//! `sfc-memsim` interpose an address-tracing wrapper without touching
//! kernel code.

use crate::dims::{Axis, Dims3};
use crate::grid::Grid3;
use crate::layout::Layout3;

/// Read-only access to a 3D scalar field.
pub trait Volume3 {
    /// Logical dimensions of the field.
    fn dims(&self) -> Dims3;

    /// Sample the field at an in-bounds coordinate.
    fn get(&self, i: usize, j: usize, k: usize) -> f32;

    /// Sample with edge-clamped signed coordinates (the stencil boundary
    /// rule used by the bilateral filter).
    #[inline]
    fn get_clamped(&self, i: isize, j: isize, k: isize) -> f32 {
        let d = self.dims();
        let ci = i.clamp(0, d.nx as isize - 1) as usize;
        let cj = j.clamp(0, d.ny as isize - 1) as usize;
        let ck = k.clamp(0, d.nz as isize - 1) as usize;
        self.get(ci, cj, ck)
    }

    /// Read `dst.len()` consecutive samples along `axis` starting at
    /// `(i,j,k)` — the whole run must be in bounds.
    ///
    /// One `get` per sample, in run order, so tracing wrappers see every
    /// access and a grid reads each voxel through `Layout3::index`, like
    /// any other read. The axis is matched once per run, outside the
    /// loop: a `match` inside the per-voxel loop is not hoisted and was
    /// measured to cost Z and tiled order 10–13% of `filter_batch`.
    /// [`Grid3`], `TracedGrid` and [`FnVolume`] use this; only the brick
    /// store overrides it, to look each brick up once per run.
    #[inline]
    fn gather_axis_run(&self, i: usize, j: usize, k: usize, axis: Axis, dst: &mut [f32]) {
        match axis {
            Axis::X => {
                for (t, v) in dst.iter_mut().enumerate() {
                    *v = self.get(i + t, j, k);
                }
            }
            Axis::Y => {
                for (t, v) in dst.iter_mut().enumerate() {
                    *v = self.get(i, j + t, k);
                }
            }
            Axis::Z => {
                for (t, v) in dst.iter_mut().enumerate() {
                    *v = self.get(i, j, k + t);
                }
            }
        }
    }

    /// Read the 8 corners of the trilinear cell whose low corner is
    /// `(x0,y0,z0)`, returned as
    /// `[c000, c100, c010, c110, c001, c101, c011, c111]`
    /// (`cXYZ` = corner at `x0+X, y0+Y, z0+Z`). High corners clamp to the
    /// last in-bounds plane, matching the sampler's edge rule.
    ///
    /// The default issues 8 independent `get` calls; [`Grid3`] overrides
    /// it to read the 8 slots [`Layout3::cell_slots`] gives.
    #[inline]
    fn cell_corners(&self, x0: usize, y0: usize, z0: usize) -> [f32; 8] {
        let d = self.dims();
        let x1 = (x0 + 1).min(d.nx - 1);
        let y1 = (y0 + 1).min(d.ny - 1);
        let z1 = (z0 + 1).min(d.nz - 1);
        [
            self.get(x0, y0, z0),
            self.get(x1, y0, z0),
            self.get(x0, y1, z0),
            self.get(x1, y1, z0),
            self.get(x0, y0, z1),
            self.get(x1, y0, z1),
            self.get(x0, y1, z1),
            self.get(x1, y1, z1),
        ]
    }
}

impl<L: Layout3> Volume3 for Grid3<f32, L> {
    #[inline]
    fn dims(&self) -> Dims3 {
        Grid3::dims(self)
    }

    #[inline]
    fn get(&self, i: usize, j: usize, k: usize) -> f32 {
        Grid3::get(self, i, j, k)
    }

    #[inline]
    fn cell_corners(&self, x0: usize, y0: usize, z0: usize) -> [f32; 8] {
        let s = self.storage();
        self.layout().cell_slots(x0, y0, z0).map(|slot| s[slot])
    }
}

impl<V: Volume3 + ?Sized> Volume3 for &V {
    #[inline]
    fn dims(&self) -> Dims3 {
        (**self).dims()
    }

    #[inline]
    fn get(&self, i: usize, j: usize, k: usize) -> f32 {
        (**self).get(i, j, k)
    }

    #[inline]
    fn gather_axis_run(&self, i: usize, j: usize, k: usize, axis: Axis, dst: &mut [f32]) {
        (**self).gather_axis_run(i, j, k, axis, dst)
    }

    #[inline]
    fn cell_corners(&self, x0: usize, y0: usize, z0: usize) -> [f32; 8] {
        (**self).cell_corners(x0, y0, z0)
    }
}

/// A volume computed on the fly from a function (useful in tests).
pub struct FnVolume<F: Fn(usize, usize, usize) -> f32> {
    dims: Dims3,
    f: F,
}

impl<F: Fn(usize, usize, usize) -> f32> FnVolume<F> {
    /// Wrap `f` as a volume of the given dimensions.
    pub fn new(dims: Dims3, f: F) -> Self {
        Self { dims, f }
    }
}

impl<F: Fn(usize, usize, usize) -> f32> Volume3 for FnVolume<F> {
    #[inline]
    fn dims(&self) -> Dims3 {
        self.dims
    }

    #[inline]
    fn get(&self, i: usize, j: usize, k: usize) -> f32 {
        debug_assert!(self.dims.contains(i, j, k));
        (self.f)(i, j, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts::ZOrder3;

    #[test]
    fn grid_implements_volume() {
        let g = Grid3::<f32, ZOrder3>::from_fn(Dims3::cube(4), |i, j, k| {
            (i + j + k) as f32
        });
        let v: &dyn Volume3 = &g;
        assert_eq!(v.get(1, 2, 3), 6.0);
        assert_eq!(v.dims(), Dims3::cube(4));
    }

    #[test]
    fn clamping_matches_grid_clamping() {
        let g = Grid3::<f32, ZOrder3>::from_fn(Dims3::cube(4), |i, j, k| {
            (i * 16 + j * 4 + k) as f32
        });
        assert_eq!(Volume3::get_clamped(&g, -1, 5, 2), g.get(0, 3, 2));
    }

    #[test]
    fn fn_volume_works() {
        let v = FnVolume::new(Dims3::cube(8), |i, _, _| i as f32);
        assert_eq!(v.get(5, 0, 0), 5.0);
        assert_eq!(v.get_clamped(100, 0, 0), 7.0);
    }

    #[test]
    fn reference_forwarding() {
        let v = FnVolume::new(Dims3::cube(2), |_, _, _| 1.0);
        fn total<V: Volume3>(v: V) -> f32 {
            let d = v.dims();
            d.iter().map(|(i, j, k)| v.get(i, j, k)).sum()
        }
        assert_eq!(total(&v), 8.0);
    }
}
