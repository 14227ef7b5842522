//! Trilinear reconstruction of the scalar field at continuous positions.
//!
//! Each sample touches the 8 voxels surrounding the position — this is the
//! renderer's entire data access pattern, and the reason ray slope
//! determines which layout wins.
//!
//! Two fast paths (both bitwise-neutral to the result):
//!
//! * corner gathering goes through [`Volume3::cell_corners`], which grids
//!   serve from the layout's `cell_slots`: eight independent `index()`
//!   computations of a few table lookups each (DESIGN.md §5.4);
//! * [`CellSampler`] additionally caches the most recent cell's corners,
//!   so consecutive samples landing in the same cell skip the data access
//!   entirely. On the 64³ orbit at the paper's 0.5-voxel ray step a frame
//!   makes 0.58 cell fetches per sample, so 42% of samples reuse the
//!   cached cell.
//!
//! The tile kernel's AVX2 ray packets (DESIGN.md §5.6) keep the same
//! one-cell cache in each lane and fetch exactly when a `CellSampler`
//! would, every changed lane at once through
//! `Volume3::cell_corners_lanes`, which grids serve with gathers from the
//! layout's own tables (§5.7). `CellSampler` itself runs the
//! memory-counter replay, the lit march, the public `shade_ray`, and
//! every frame on CPUs without AVX2.
//!
//! The cell cache's hit rate is a function of the ray step: the brownout
//! quality ladder (`RenderOpts::brownout`) doubles the step per rung, so a
//! downgraded tile takes half the samples *and* almost every remaining
//! sample lands in a fresh cell (cache hits approach zero past a 1-voxel
//! step). Both effects are already priced into the per-unit latency the
//! deadline controller's EWMA observes — no sampler changes are needed
//! for coarse-step marching to be profitable. A tile checks for
//! cancellation (the engine's `keep_going`) once per packet of up to
//! eight rays.
//!
//! The per-sample arithmetic makes no math-library call: the cell index
//! is the clamped coordinate truncated to an integer, which equals its
//! floor there (DESIGN.md §5.3).

use sfc_core::Volume3;

use crate::vec3::Vec3;

/// Reusable trilinear sampler with a one-cell corner cache.
///
/// The raycaster creates one per ray: at a 0.5-voxel step about two in
/// five consecutive samples fall in the cell just sampled, and those
/// re-use the cached corners with zero volume reads. Results are
/// bit-identical to [`sample_trilinear`] — the cache only skips
/// re-reading unchanged data.
///
/// NaN substitutions are accumulated locally; call
/// [`take_nan_count`](Self::take_nan_count) to drain the tally into a
/// shared counter once per work item. NaNs are counted per sample *tap*:
/// every sample adds the number of NaN corners in its cell (clamped
/// duplicate taps included), whether the corners came from the cache or a
/// fresh fetch — exactly the tally the per-access path produced.
pub struct CellSampler<'v, V: Volume3> {
    vol: &'v V,
    /// Upper clamp bound per axis, [`clamp_bound`], computed once here
    /// rather than on every sample.
    hi: [f32; 3],
    /// When false, every sample re-fetches its cell (see
    /// [`uncached`](Self::uncached)).
    cache: bool,
    /// Low corner of the cached cell, or `usize::MAX` sentinel when empty.
    cell: (usize, usize, usize),
    /// Cached corner values, NaN already substituted:
    /// `[c000, c100, c010, c110, c001, c101, c011, c111]`.
    corners: [f32; 8],
    /// Number of NaN corners in `corners` (before substitution).
    cell_nans: u64,
    nan_seen: u64,
}

impl<'v, V: Volume3> CellSampler<'v, V> {
    /// Create a sampler over `vol` with an empty cell cache.
    pub fn new(vol: &'v V) -> Self {
        let d = vol.dims();
        Self {
            vol,
            hi: [clamp_bound(d.nx), clamp_bound(d.ny), clamp_bound(d.nz)],
            cache: true,
            cell: (usize::MAX, usize::MAX, usize::MAX),
            corners: [0.0; 8],
            cell_nans: 0,
            nan_seen: 0,
        }
    }

    /// Create a sampler with the cell cache disabled: every sample
    /// re-fetches its 8 corners through [`Volume3::cell_corners`].
    ///
    /// Results are bit-identical to [`new`](Self::new); only the volume
    /// access stream differs. The memory-counter simulation uses this so
    /// its traced address stream replays the original
    /// 8-`get`s-per-sample pattern (a `TracedGrid` keeps the default
    /// per-`get` `cell_corners`), keeping simulated counter reports
    /// comparable with the paper's per-sample methodology.
    pub fn uncached(vol: &'v V) -> Self {
        Self {
            cache: false,
            ..Self::new(vol)
        }
    }

    /// Trilinearly interpolate at a continuous position (voxel `(i,j,k)`'s
    /// center sits at `(i+0.5, j+0.5, k+0.5)`); positions outside the
    /// volume clamp to the boundary voxels.
    pub fn sample(&mut self, p: Vec3) -> f32 {
        // Shift so voxel centers are at integers, clamp into the center
        // range (boundary rule: positions outside snap to the edge
        // voxels), then split into base + frac.
        let x = (p.x - 0.5).clamp(0.0, self.hi[0]);
        let y = (p.y - 0.5).clamp(0.0, self.hi[1]);
        let z = (p.z - 0.5).clamp(0.0, self.hi[2]);
        let ((x0, tx), (y0, ty), (z0, tz)) = (split(x), split(y), split(z));
        let cell = (x0, y0, z0);

        if cell != self.cell {
            let raw = self.vol.cell_corners(cell.0, cell.1, cell.2);
            self.cell_nans = 0;
            for (slot, v) in self.corners.iter_mut().zip(raw) {
                if v.is_nan() {
                    self.cell_nans += 1;
                    *slot = 0.0;
                } else {
                    *slot = v;
                }
            }
            if self.cache {
                self.cell = cell;
            }
        }
        // Tally per sample, not per fetch, so cached re-samples of a NaN
        // cell count exactly like the per-access path's taps did.
        self.nan_seen += self.cell_nans;

        blend8(&self.corners, tx, ty, tz)
    }

    /// Drain the accumulated NaN-substitution count (resets it to zero).
    pub fn take_nan_count(&mut self) -> u64 {
        std::mem::take(&mut self.nan_seen)
    }
}

/// The upper clamp bound of both ray marchers on an axis of `n` voxels:
/// the largest f32 not above `n - 1`, the last voxel center. Up to
/// 2^24 + 1 voxels that is `(n - 1) as f32`. Beyond, `(n - 1) as f32` can
/// round up to `n` (at n = 2^25, say), and a sample clamped there would
/// split to a cell past the far face; so `n - 1` keeps only its top 24
/// significant bits, an f32's precision, and converts exactly.
pub(crate) fn clamp_bound(n: usize) -> f32 {
    let last = n - 1;
    let dropped = (usize::BITS - last.leading_zeros()).saturating_sub(f32::MANTISSA_DIGITS);
    (last >> dropped << dropped) as f32
}

/// Split a clamped coordinate into its cell index and the weight within
/// the cell: `(x.floor() as usize, x - x.floor())`, bit for bit, without
/// the math-library `floor`.
///
/// The clamped coordinate is +0 (never -0: `p - 0.5` cannot round to -0,
/// and the clamp returns its +0 bound below the range), in `(0, n - 1]`,
/// or NaN. Truncation is `floor` there, and `x - trunc(x)` is exact: at or
/// above 2^24 every f32 is an integer. NaN gives cell 0 and a NaN weight,
/// as `floor` did. Truncating to `i64` costs the same as to `u32` on
/// x86_64 and keeps this exact for any axis below 2^62 voxels. (The
/// `#[ignore]` sweep checks every f32 in `[0, 2^24)`.)
#[inline]
fn split(x: f32) -> (usize, f32) {
    let i = x as i64;
    (i as usize, x - i as f32)
}

/// Eight-corner trilinear blend, `corners` in
/// `[c000, c100, c010, c110, c001, c101, c011, c111]` order.
///
/// On x86_64 the four x-lerps (and then the two y-lerps) run as packed
/// SSE2 lanes; SSE2 is part of the x86_64 baseline, so there is no
/// runtime dispatch. Every lane evaluates the identical
/// `a + (b - a) * t` expression — separate subtract, multiply, add, no
/// FMA contraction and no reassociation — so the result is bit-identical
/// to the scalar tree (pinned by `simd_blend_matches_scalar_bitwise`).
#[cfg(target_arch = "x86_64")]
#[inline]
fn blend8(corners: &[f32; 8], tx: f32, ty: f32, tz: f32) -> f32 {
    use std::arch::x86_64::*;
    // SAFETY: SSE2 is unconditionally available on x86_64, and the loads
    // read 4 in-bounds f32s each from the 8-element array.
    unsafe {
        let lo = _mm_loadu_ps(corners.as_ptr()); // c000 c100 c010 c110
        let hi = _mm_loadu_ps(corners.as_ptr().add(4)); // c001 c101 c011 c111
        let a = _mm_shuffle_ps::<0x88>(lo, hi); // c000 c010 c001 c011
        let b = _mm_shuffle_ps::<0xDD>(lo, hi); // c100 c110 c101 c111
        let t = _mm_set1_ps(tx);
        // Lanes: c00 c10 c01 c11.
        let r1 = _mm_add_ps(a, _mm_mul_ps(_mm_sub_ps(b, a), t));
        let a2 = _mm_shuffle_ps::<0x08>(r1, r1); // c00 c01 _ _
        let b2 = _mm_shuffle_ps::<0x0D>(r1, r1); // c10 c11 _ _
        let t2 = _mm_set1_ps(ty);
        // Lanes: c0 c1 _ _ (the upper two lanes are ignored).
        let r2 = _mm_add_ps(a2, _mm_mul_ps(_mm_sub_ps(b2, a2), t2));
        let c0 = _mm_cvtss_f32(r2);
        let c1 = _mm_cvtss_f32(_mm_shuffle_ps::<1>(r2, r2));
        c0 + (c1 - c0) * tz
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn blend8(corners: &[f32; 8], tx: f32, ty: f32, tz: f32) -> f32 {
    blend8_scalar(corners, tx, ty, tz)
}

/// Portable scalar blend: the fallback on non-x86 targets and the bitwise
/// oracle the SIMD path is tested against.
#[cfg(any(test, not(target_arch = "x86_64")))]
pub(crate) fn blend8_scalar(corners: &[f32; 8], tx: f32, ty: f32, tz: f32) -> f32 {
    let [c000, c100, c010, c110, c001, c101, c011, c111] = *corners;
    let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
    let c00 = lerp(c000, c100, tx);
    let c10 = lerp(c010, c110, tx);
    let c01 = lerp(c001, c101, tx);
    let c11 = lerp(c011, c111, tx);
    let c0 = lerp(c00, c10, ty);
    let c1 = lerp(c01, c11, ty);
    lerp(c0, c1, tz)
}

/// Trilinearly interpolate the field at a continuous position in voxel
/// space (voxel `(i,j,k)`'s center sits at `(i+0.5, j+0.5, k+0.5)`).
/// Positions outside the volume clamp to the boundary voxels.
///
/// NaN voxels (corrupt data) are substituted with `0.0` rather than
/// poisoning the whole ray; each substitution is counted in
/// [`crate::counters::nan_samples`]. One-shot convenience over
/// [`CellSampler`]; the renderer keeps a sampler per ray instead.
pub fn sample_trilinear<V: Volume3>(vol: &V, p: Vec3) -> f32 {
    let mut sampler = CellSampler::new(vol);
    let v = sampler.sample(p);
    crate::counters::record_nan_samples(sampler.take_nan_count());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::vec3;
    use sfc_core::{ArrayOrder3, Dims3, FnVolume, Grid3, HilbertOrder3, Layout3, Tiled3, ZOrder3};

    #[test]
    fn at_voxel_center_returns_voxel_value() {
        let v = FnVolume::new(Dims3::cube(4), |i, j, k| (i * 16 + j * 4 + k) as f32);
        for (i, j, k) in Dims3::cube(4).iter() {
            let p = vec3(i as f32 + 0.5, j as f32 + 0.5, k as f32 + 0.5);
            assert_eq!(sample_trilinear(&v, p), (i * 16 + j * 4 + k) as f32);
        }
    }

    #[test]
    fn midway_between_centers_is_average() {
        let v = FnVolume::new(Dims3::cube(4), |i, _, _| i as f32);
        let s = sample_trilinear(&v, vec3(2.0, 0.5, 0.5));
        assert!((s - 1.5).abs() < 1e-6, "between centers 1 and 2: {s}");
    }

    #[test]
    fn reproduces_linear_fields_exactly_in_the_interior() {
        let v = FnVolume::new(Dims3::cube(8), |i, j, k| {
            2.0 * i as f32 - j as f32 + 0.5 * k as f32
        });
        let p = vec3(3.3, 4.7, 2.2);
        let want = 2.0 * (p.x - 0.5) - (p.y - 0.5) + 0.5 * (p.z - 0.5);
        assert!((sample_trilinear(&v, p) - want).abs() < 1e-4);
    }

    #[test]
    fn outside_positions_clamp() {
        let v = FnVolume::new(Dims3::cube(4), |i, j, k| (i + j + k) as f32);
        assert_eq!(sample_trilinear(&v, vec3(-5.0, -5.0, -5.0)), 0.0);
        assert_eq!(sample_trilinear(&v, vec3(50.0, 50.0, 50.0)), 9.0);
    }

    #[test]
    fn nan_taps_substitute_zero_and_are_counted() {
        // One NaN corner among the 8 taps: the sample stays finite and the
        // process-wide counter advances by at least that tap.
        let v = FnVolume::new(Dims3::cube(4), |i, j, k| {
            if (i, j, k) == (1, 1, 1) {
                f32::NAN
            } else {
                1.0
            }
        });
        let before = crate::counters::nan_samples();
        let s = sample_trilinear(&v, vec3(2.0, 2.0, 2.0));
        let after = crate::counters::nan_samples();
        assert!(s.is_finite(), "NaN tap must not poison the sample: {s}");
        assert!(after > before, "NaN substitution must be counted");
    }

    #[test]
    fn fully_nan_neighborhood_samples_as_zero() {
        let v = FnVolume::new(Dims3::cube(4), |_, _, _| f32::NAN);
        let s = sample_trilinear(&v, vec3(2.0, 2.0, 2.0));
        assert_eq!(s, 0.0);
    }

    #[test]
    fn constant_field_everywhere() {
        let v = FnVolume::new(Dims3::cube(4), |_, _, _| 0.8);
        for p in [vec3(0.1, 3.9, 2.0), vec3(2.5, 2.5, 2.5), vec3(3.99, 0.01, 1.0)] {
            assert!((sample_trilinear(&v, p) - 0.8).abs() < 1e-6);
        }
    }

    #[test]
    fn cached_sampler_matches_one_shot_bitwise() {
        let dims = Dims3::new(9, 7, 6);
        let values: Vec<f32> = (0..dims.len())
            .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
            .collect();
        let g = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let mut s = CellSampler::new(&g);
        // A ray-like march with sub-voxel steps: many consecutive samples
        // share a cell, exercising the cache path.
        for t in 0..120 {
            let p = vec3(
                0.3 + t as f32 * 0.07,
                0.9 + t as f32 * 0.05,
                0.5 + t as f32 * 0.04,
            );
            let cached = s.sample(p);
            let fresh = sample_trilinear(&g, p);
            assert_eq!(cached.to_bits(), fresh.to_bits(), "step {t}");
        }
    }

    /// `vol.cell_corners_lanes` as `out[lane][corner]`: `cells[l]` in
    /// lane `l` where bit `l` of `mask` is set, and a cell outside every
    /// grid, -1 on each axis, in the other lanes.
    ///
    /// # Safety
    /// The CPU must support AVX2, and every selected cell must lie inside
    /// the volume's dims.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_corners<V: Volume3 + ?Sized>(
        vol: &V,
        cells: &[(usize, usize, usize); 8],
        mask: u8,
    ) -> [[f32; 8]; 8] {
        use std::arch::x86_64::*;
        let selected = |l: usize| mask >> l & 1 == 1;
        let axis = |c: fn(&(usize, usize, usize)) -> usize| -> [i32; 8] {
            std::array::from_fn(|l| if selected(l) { c(&cells[l]) as i32 } else { -1 })
        };
        let lanes: [[i32; 8]; 4] = [
            axis(|c| c.0),
            axis(|c| c.1),
            axis(|c| c.2),
            std::array::from_fn(|l| -i32::from(selected(l))),
        ];
        // SAFETY: 8-element i32 arrays are 8 readable lanes.
        let [x, y, z, m] = lanes.map(|v| unsafe { _mm256_loadu_si256(v.as_ptr().cast()) });
        let mut by_corner = [[0.0f32; 8]; 8];
        for (row, v) in by_corner.iter_mut().zip(vol.cell_corners_lanes(x, y, z, m)) {
            // SAFETY: an 8-element f32 array is 8 writable lanes.
            unsafe { _mm256_storeu_ps(row.as_mut_ptr(), v) };
        }
        std::array::from_fn(|l| std::array::from_fn(|c| by_corner[c][l]))
    }

    #[test]
    fn grid_cell_corners_match_default_on_all_edges() {
        // Cells whose high corner clamps (last plane along each axis) must
        // duplicate the low plane exactly like the per-get default. The
        // dims cover Hilbert orders 0, 3, 4 and 5 and clamping on every face.
        fn check<L: Layout3>(dims: Dims3) {
            let values: Vec<f32> = (0..dims.len()).map(|v| v as f32 * 0.37).collect();
            let g = Grid3::<f32, L>::from_row_major(dims, &values);
            let vref: &dyn Volume3 = &FnVolume::new(dims, |a, b, c| g.get(a, b, c));
            for (i, j, k) in dims.iter() {
                let fast = g.cell_corners(i, j, k);
                let slow = vref.cell_corners(i, j, k);
                assert_eq!(fast, slow, "{} {dims:?} cell ({i},{j},{k})", L::KIND);
            }
            // The lane fetch, eight cells at a time under a seeded random
            // mask and then its complement, so that each cell is fetched
            // once and unselected lanes, which hold no valid cell, must
            // come back 0.
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                let all: Vec<_> = dims.iter().collect();
                let mut rng = sfc_core::SplitMix64::new(dims.len() as u64);
                for chunk in all.chunks(8) {
                    let mut cells = [(0, 0, 0); 8];
                    cells[..chunk.len()].copy_from_slice(chunk);
                    let used = ((1u32 << chunk.len()) - 1) as u8;
                    let draw = rng.next_u32() as u8 & used;
                    for mask in [draw, !draw & used] {
                        // SAFETY: AVX2 was detected above, and every
                        // selected cell lies inside `dims`.
                        let got = unsafe { lane_corners(&g, &cells, mask) };
                        for (l, &(i, j, k)) in cells.iter().enumerate() {
                            let want = if mask >> l & 1 == 1 {
                                vref.cell_corners(i, j, k)
                            } else {
                                [0.0; 8]
                            };
                            assert_eq!(
                                got[l].map(f32::to_bits),
                                want.map(f32::to_bits),
                                "{} {dims:?} lane {l} cell ({i},{j},{k}) mask {mask:#010b}",
                                L::KIND
                            );
                        }
                    }
                }
            }
        }
        for (nx, ny, nz) in [(5, 4, 3), (13, 7, 5), (1, 1, 1), (1, 9, 2), (17, 3, 9)] {
            let dims = Dims3::new(nx, ny, nz);
            check::<ArrayOrder3>(dims);
            check::<ZOrder3>(dims);
            check::<Tiled3>(dims);
            check::<HilbertOrder3>(dims);
        }
    }

    #[test]
    fn nan_counting_is_per_sample_even_on_cache_hits() {
        // Two samples in the same (fully NaN) cell: the second is served
        // from the cache but must still count its 8 NaN taps, matching
        // the per-access path's per-tap tally.
        let v = FnVolume::new(Dims3::cube(2), |_, _, _| f32::NAN);
        let mut s = CellSampler::new(&v);
        s.sample(vec3(1.0, 1.0, 1.0));
        s.sample(vec3(1.2, 1.0, 1.0));
        assert_eq!(s.take_nan_count(), 16);
    }

    #[test]
    fn uncached_sampler_matches_cached_bitwise() {
        let dims = Dims3::new(7, 6, 5);
        let values: Vec<f32> = (0..dims.len())
            .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
            .collect();
        let g = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let mut cached = CellSampler::new(&g);
        let mut uncached = CellSampler::uncached(&g);
        for t in 0..100 {
            let p = vec3(
                0.4 + t as f32 * 0.06,
                0.7 + t as f32 * 0.05,
                0.6 + t as f32 * 0.04,
            );
            assert_eq!(cached.sample(p).to_bits(), uncached.sample(p).to_bits());
        }
    }

    #[test]
    fn simd_blend_matches_scalar_bitwise() {
        // The packed blend must reproduce the scalar lerp tree exactly,
        // including denormals, huge magnitudes, and negative-zero signs.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..5_000 {
            let mut corners = [0.0f32; 8];
            for c in corners.iter_mut() {
                let r = next();
                *c = match r % 7 {
                    0 => -0.0,
                    1 => f32::from_bits((r >> 32) as u32 & 0x007f_ffff), // denormal
                    2 => ((r >> 32) as u32) as f32 * 1.0e30,
                    _ => ((r >> 32) as u32) as f32 / 4.0e9 - 0.5,
                };
            }
            let tx = (next() % 1000) as f32 / 999.0;
            let ty = (next() % 1000) as f32 / 999.0;
            let tz = (next() % 1000) as f32 / 999.0;
            let fast = blend8(&corners, tx, ty, tz);
            let slow = blend8_scalar(&corners, tx, ty, tz);
            assert_eq!(fast.to_bits(), slow.to_bits(), "case {case}");
        }
    }

    /// `split` against `floor`, bit for bit.
    fn assert_split_is_floor(x: f32) {
        let (i, t) = split(x);
        assert_eq!(i, x.floor() as usize, "{x:e}");
        assert_eq!(t.to_bits(), (x - x.floor()).to_bits(), "{x:e}");
    }

    #[test]
    fn split_matches_floor_on_a_strided_sweep_and_specials() {
        // The inputs a clamped coordinate can take: +0, NaN, and
        // (0, n - 1] for any axis below 2^62 voxels.
        for bits in (0..2f32.powi(62).to_bits()).step_by(4093) {
            assert_split_is_floor(f32::from_bits(bits));
        }
        for x in [
            f32::NAN,
            0.5,
            16_777_215.5,
            16_777_216.0,
            2f32.powi(32),
            f32::from_bits(2f32.powi(62).to_bits() - 1),
        ] {
            assert_split_is_floor(x);
        }
    }

    #[test]
    #[ignore = "every f32 in [0, 2^24): run with `cargo test --release -p sfc-volrend -- --ignored`"]
    fn split_matches_floor_for_every_f32_below_2_pow_24() {
        for bits in 0..16_777_216f32.to_bits() {
            assert_split_is_floor(f32::from_bits(bits));
        }
    }

    #[test]
    fn clamp_bound_is_the_largest_f32_not_above_the_last_center() {
        // Exact up to 2^24 + 1 voxels, so every image there is unchanged.
        for n in [1, 2, 3, 64, (1 << 24) - 1, 1 << 24, (1 << 24) + 1] {
            assert_eq!(clamp_bound(n), (n - 1) as f32, "{n}");
        }
        for n in [(1 << 24) + 2, 1 << 25, (1 << 31) - 63, 1 << 31, usize::MAX] {
            let bound = clamp_bound(n);
            assert!((bound as usize) < n, "{n}");
            let next = f32::from_bits(bound.to_bits() + 1);
            assert!(next as usize > n - 1, "{n}");
        }
        assert_eq!(clamp_bound(1 << 25), 33_554_430.0);
        assert_eq!(clamp_bound((1 << 31) - 63), 2_147_483_520.0);
    }

    #[test]
    fn samples_past_the_far_face_of_a_long_axis_stay_inside_it() {
        // Past the far face x - 0.5 rounds to 2^25, and a bound of
        // (2^25 - 1) as f32 = 2^25 read the cell at x = 2^25.
        let n = 1usize << 25;
        let v = FnVolume::new(Dims3::new(n, 2, 1), move |i, _, _| {
            assert!(i < n, "read x = {i} past the far face");
            (n - i) as f32
        });
        for x in [n as f32, n as f32 + 10.0, f32::INFINITY] {
            assert_eq!(sample_trilinear(&v, vec3(x, 0.5, 0.5)), 2.0, "{x}");
        }
    }

    #[test]
    fn take_nan_count_drains() {
        let v = FnVolume::new(Dims3::cube(2), |i, _, _| {
            if i == 0 {
                f32::NAN
            } else {
                1.0
            }
        });
        let mut s = CellSampler::new(&v);
        s.sample(vec3(1.0, 1.0, 1.0));
        let n = s.take_nan_count();
        assert!(n > 0);
        assert_eq!(s.take_nan_count(), 0);
    }
}
