//! The scalar-volume access abstraction kernels are written against.
//!
//! Both application kernels (bilateral filter, raycaster) read a 3D scalar
//! field one sample at a time. Abstracting that read behind [`Volume3`]
//! lets the *same monomorphized kernel* run over any layout, and lets
//! `sfc-memsim` interpose an address-tracing wrapper without touching
//! kernel code.
//!
//! Three reads have batch forms with per-`get` defaults: an axis run
//! (`gather_axis_run`), a trilinear cell's eight corners (`cell_corners`)
//! and, on x86_64, up to eight cells at once, one per AVX2 lane
//! (`cell_corners_lanes`, for the raycaster's ray packets). [`Grid3`]
//! serves the last two from its layout's `cell_slots` and
//! `cell_slots_lanes`, so every layout computes its slots from its own
//! tables (DESIGN.md §5.4 and §5.7).

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
    /// it to read the 8 slots [`Layout3::cell_slots`] gives. The ray
    /// packets fetch through `cell_corners_lanes`, whose default calls this
    /// once per lane.
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

    /// [`cell_corners`](Self::cell_corners) for up to eight cells at once,
    /// one per 32-bit lane: lane `l` of `x`, `y` and `z` holds the low
    /// corner of lane `l`'s cell, and lane `l` of the returned vector `c`
    /// holds that cell's corner `c`, in `cell_corners`' order and with its
    /// clamp. Only the lanes `mask` selects (all ones; a lane's sign bit
    /// decides) are fetched; the other lanes come back 0.
    ///
    /// The default calls `cell_corners` on each selected lane, one after
    /// another, so every volume serves it. [`Grid3`] overrides it with its
    /// layout's [`Layout3::cell_slots_lanes`] and eight masked AVX2
    /// gathers of the values, while every slot fits an `i32` (a padded
    /// storage of at most 2^31 slots), and takes the default beyond.
    ///
    /// # Safety
    /// The CPU must support AVX2 and the caller must be compiled with it
    /// enabled, and every selected lane's cell must lie inside
    /// [`dims`](Self::dims). The overrides read without bounds checks,
    /// which debug builds assert.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn cell_corners_lanes(
        &self,
        x: std::arch::x86_64::__m256i,
        y: std::arch::x86_64::__m256i,
        z: std::arch::x86_64::__m256i,
        mask: std::arch::x86_64::__m256i,
    ) -> [std::arch::x86_64::__m256; 8] {
        corners_per_lane(self, x, y, z, mask)
    }
}

/// The default [`Volume3::cell_corners_lanes`]: `cell_corners` on each
/// selected lane, one after another.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn corners_per_lane<V: Volume3 + ?Sized>(
    vol: &V,
    x: std::arch::x86_64::__m256i,
    y: std::arch::x86_64::__m256i,
    z: std::arch::x86_64::__m256i,
    mask: std::arch::x86_64::__m256i,
) -> [std::arch::x86_64::__m256; 8] {
    let corners = crate::lanes::per_lane(x, y, z, mask, |i, j, k| vol.cell_corners(i, j, k));
    // SAFETY: an 8-element f32 array is 8 readable lanes.
    corners.map(|row| unsafe { std::arch::x86_64::_mm256_loadu_ps(row.as_ptr()) })
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

    // Always inlined: the raycaster calls it from two loops, the per-ray
    // `CellSampler` and the ray packets, and with two callers the
    // compiler kept one shared out-of-line copy, which slowed the per-ray
    // sample that used to inline it.
    #[inline(always)]
    fn cell_corners(&self, x0: usize, y0: usize, z0: usize) -> [f32; 8] {
        let s = self.storage();
        self.layout().cell_slots(x0, y0, z0).map(|slot| s[slot])
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn cell_corners_lanes(
        &self,
        x: std::arch::x86_64::__m256i,
        y: std::arch::x86_64::__m256i,
        z: std::arch::x86_64::__m256i,
        mask: std::arch::x86_64::__m256i,
    ) -> [std::arch::x86_64::__m256; 8] {
        use std::arch::x86_64::*;
        let s = self.storage();
        if s.is_empty() || !crate::layout::slots_fit_i32(self.layout()) {
            return corners_per_lane(self, x, y, z, mask);
        }
        // SAFETY: the caller runs AVX2 code and selects lanes whose cell
        // lies inside `dims`, and `storage_len() <= 2^31` was checked
        // above, as `cell_slots_lanes` requires.
        let slots = unsafe { self.layout().cell_slots_lanes(x, y, z, mask) };
        // Every layout's slots of in-bounds corners lie below
        // `storage_len() == s.len()`, as debug builds assert. `Layout3` is
        // a safe trait, though, so the gathers do not rest on that: each
        // slot is clamped, as unsigned, to the last slot (an empty storage
        // took the per-lane path above), which changes no correct slot.
        let last = _mm256_set1_epi32((s.len().min(1 << 31) - 1) as i32);
        let mut corners = [_mm256_setzero_ps(); 8];
        for (v, slot) in corners.iter_mut().zip(slots) {
            crate::lanes::debug_assert_below(slot, mask, s.len(), "storage slot");
            // SAFETY: the CPU has AVX2 (the caller's contract), and each
            // selected lane reads the f32 at its clamped slot, below
            // `s.len()`; the other lanes read nothing and come back 0.
            *v = unsafe {
                _mm256_mask_i32gather_ps::<4>(
                    _mm256_setzero_ps(),
                    s.as_ptr(),
                    _mm256_min_epu32(slot, last),
                    _mm256_castsi256_ps(mask),
                )
            };
        }
        corners
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

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn cell_corners_lanes(
        &self,
        x: std::arch::x86_64::__m256i,
        y: std::arch::x86_64::__m256i,
        z: std::arch::x86_64::__m256i,
        mask: std::arch::x86_64::__m256i,
    ) -> [std::arch::x86_64::__m256; 8] {
        // SAFETY: the caller's contract is the referent's.
        unsafe { (**self).cell_corners_lanes(x, y, z, mask) }
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn references_forward_the_lane_fetch() {
        use crate::lanes::probe;
        use std::arch::x86_64::*;
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        /// Per-lane fetches read 1, lane fetches 7.
        struct Marked;
        impl Volume3 for Marked {
            fn dims(&self) -> Dims3 {
                Dims3::cube(4)
            }
            fn get(&self, _: usize, _: usize, _: usize) -> f32 {
                1.0
            }
            unsafe fn cell_corners_lanes(
                &self,
                _: __m256i,
                _: __m256i,
                _: __m256i,
                mask: __m256i,
            ) -> [__m256; 8] {
                let seven = _mm256_and_ps(_mm256_set1_ps(7.0), _mm256_castsi256_ps(mask));
                [seven; 8]
            }
        }
        let cells: [(usize, usize, usize); 8] =
            std::array::from_fn(|l| (l % 4, l * 3 % 4, (l * 5 + 1) % 4));
        let mask = 0b1011_0110;
        let want: [[f32; 8]; 8] =
            std::array::from_fn(|l| [if mask >> l & 1 == 1 { 7.0 } else { 0.0 }; 8]);
        // SAFETY: AVX2 was detected above; the cells lie inside 4^3.
        unsafe {
            assert_eq!(probe::corners(&&Marked, &cells, mask), want);
            assert_eq!(probe::corners(&&&Marked, &cells, mask), want);
        }
        // A grid behind two references gathers what it fetches per lane.
        let g = Grid3::<f32, ZOrder3>::from_fn(Dims3::cube(4), |i, j, k| (i + j + k * 9) as f32);
        // SAFETY: as above.
        let got = unsafe { probe::corners(&&&g, &cells, mask) };
        for (l, &(i, j, k)) in cells.iter().enumerate() {
            let want = if mask >> l & 1 == 1 {
                g.cell_corners(i, j, k)
            } else {
                [0.0; 8]
            };
            assert_eq!(got[l], want, "lane {l}");
        }
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
