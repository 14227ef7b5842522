//! Ray packets: the tile kernel's march of up to eight rays at once, one
//! ray per f32 lane of an AVX2 register (DESIGN.md §5.6).
//!
//! Each lane repeats `render::march_ray`'s f32 operations on its own ray,
//! in the same order and with the same operands: the position
//! `origin + dir * t`, the clamp, the truncating split, the trilinear
//! blend, the transfer-function index, the corrected-opacity lookup,
//! compositing and early termination. Nothing is fused or reassociated,
//! so each lane's color and NaN tally equal the per-ray march's bit for
//! bit. The lanes whose cell changed fetch their eight corners together,
//! with one [`Volume3::cell_corners_lanes`] call, exactly when the
//! per-ray [`CellSampler`](crate::CellSampler) would fetch them. A grid
//! serves it with AVX2 gathers from its layout's own index tables
//! (`Layout3::cell_slots_lanes`, DESIGN.md §5.7), so every layout still
//! computes its slots its own way; any other volume serves it with one
//! `cell_corners` call per lane. The corners stay in registers, and NaN
//! corners are substituted and tallied in lanes.
//!
//! Ray set-up (`Camera::ray_for_pixel`, [`Aabb::intersect`]) stays per
//! ray, and a lane whose ray misses the box is inactive from the start.
//! The packet runs where the CPU has AVX2 and the volume passes
//! [`lanes_fit`]; elsewhere [`shade`] returns `None` and the caller
//! marches ray by ray.

use std::arch::x86_64::*;
use std::mem::offset_of;

use sfc_core::{Dims3, Volume3};

use crate::ray::{Aabb, Ray};
use crate::render::{MarchOpts, PACKET};
use crate::sampler::clamp_bound;
use crate::transfer::{Rgba, TransferFunction};

/// 2^31, the smallest positive f32 that `cvttps2dq` cannot truncate to
/// an `i32`: it returns `i32::MIN` there.
const I32_LIMIT: f32 = 2_147_483_648.0;

/// Whether the lanes' `i32` cell split is exact on `dims`: every axis's
/// [`clamp_bound`] lies below 2^31. It does up to `n = 2^31` voxels; from
/// `2^31 + 1` on, the bound is 2^31. The bound is never above `n - 1`, so
/// every split cell lies inside the volume.
pub(crate) fn lanes_fit(dims: Dims3) -> bool {
    [dims.nx, dims.ny, dims.nz]
        .into_iter()
        .all(|n| clamp_bound(n) < I32_LIMIT)
}

/// March `rays`, at most [`PACKET`] of them, as one packet: each ray's
/// color and NaN-substitution count, bit for bit what
/// `render::shade_ray_counted` returns for it. Lanes past `rays.len()`
/// come back transparent with a count of 0.
///
/// `None` when the CPU lacks AVX2 or `vol` fails [`lanes_fit`].
///
/// # Panics
/// Panics if `rays` holds more than [`PACKET`] rays.
pub(crate) fn shade<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    march: &MarchOpts,
    rays: &[Ray],
    bbox: &Aabb,
) -> Option<([Rgba; PACKET], [u64; PACKET])> {
    assert!(rays.len() <= PACKET, "a packet holds at most {PACKET} rays");
    if !(is_x86_feature_detected!("avx2") && lanes_fit(vol.dims())) {
        return None;
    }
    // SAFETY: AVX2 was detected on this CPU just above.
    Some(unsafe { march_packet(vol, tf, march, rays, bbox) })
}

/// Eight lanes of one f32 quantity.
type Lanes = [f32; PACKET];

/// The eight lanes of `v` as a vector.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
unsafe fn load(v: &Lanes) -> __m256 {
    // SAFETY: an 8-element f32 array is 8 readable lanes.
    unsafe { _mm256_loadu_ps(v.as_ptr()) }
}

/// The eight lanes of an integer vector as an array.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
unsafe fn lanes_i32(v: __m256i) -> [i32; PACKET] {
    let mut out = [0i32; PACKET];
    // SAFETY: an 8-element i32 array is 8 writable lanes.
    unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
    out
}

/// `a + (b - a) * t` per lane: `blend8_scalar`'s lerp, unfused.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
unsafe fn lerp(a: __m256, b: __m256, t: __m256) -> __m256 {
    _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), t))
}

/// `x.clamp(lo, hi)` per lane. `f32::clamp` is
/// `if x < lo { lo }`, then `if x > hi { hi }`. `maxps(a, b)` is
/// `a > b ? a : b` and `minps(a, b)` is `a < b ? a : b`, so with the bound
/// as the first operand a NaN `x` passes through both, and a −0 `x`
/// against a +0 bound stays −0, as in `clamp`.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
unsafe fn clamp(x: __m256, lo: __m256, hi: __m256) -> __m256 {
    _mm256_min_ps(hi, _mm256_max_ps(lo, x))
}

/// `(x as i32, x - (x as i32) as f32)` per lane for `x` in `[0, 2^31)`
/// or NaN: the truncating split of `sampler::split` and
/// `TransferFunction::index`. `cvttps2dq` returns `i32::MIN` for NaN;
/// the mask maps that to 0, as Rust's saturating cast does, and leaves
/// the weight NaN. An `x` at or above 2^31 keeps `i32::MIN`.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
unsafe fn split(x: __m256) -> (__m256i, __m256) {
    let nan = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_UNORD_Q>(x, x));
    let i = _mm256_andnot_si256(nan, _mm256_cvttps_epi32(x));
    (i, _mm256_sub_ps(x, _mm256_cvtepi32_ps(i)))
}

/// `TransferFunction::index` per lane: clamp to `[0, 1]`, scale by 255,
/// truncate, and round up where the remainder is at least one half. NaN
/// gives entry 0.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
unsafe fn table_index(v: __m256) -> __m256i {
    let last = _mm256_set1_ps((TransferFunction::RESOLUTION - 1) as f32);
    let y = _mm256_mul_ps(clamp(v, _mm256_setzero_ps(), _mm256_set1_ps(1.0)), last);
    let (i, frac) = split(y);
    let up = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
    _mm256_sub_epi32(i, _mm256_castps_si256(up))
}

/// The packet march behind [`shade`].
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
unsafe fn march_packet<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    march: &MarchOpts,
    rays: &[Ray],
    bbox: &Aabb,
) -> ([Rgba; PACKET], [u64; PACKET]) {
    let dims = vol.dims();
    debug_assert!(lanes_fit(dims));
    let opts = &march.opts;

    // Per-ray set-up, as `shade_through` and `march_ray` do it. A lane
    // with no ray, or whose ray misses the box, keeps t = t1 = 0 and so
    // starts inactive, like a ray whose first sample lies past its exit.
    let mut origin: [Lanes; 3] = [[0.0; PACKET]; 3];
    let mut dir: [Lanes; 3] = [[0.0; PACKET]; 3];
    let mut t_start: Lanes = [0.0; PACKET];
    let mut t_exit: Lanes = [0.0; PACKET];
    for (l, ray) in rays.iter().enumerate() {
        if let Some((t0, t1)) = bbox.intersect(ray) {
            (origin[0][l], origin[1][l], origin[2][l]) = (ray.origin.x, ray.origin.y, ray.origin.z);
            (dir[0][l], dir[1][l], dir[2][l]) = (ray.dir.x, ray.dir.y, ray.dir.z);
            t_start[l] = t0 + opts.step * 0.5;
            t_exit[l] = t1;
        }
    }
    let (mut o, mut d) = ([_mm256_setzero_ps(); 3], [_mm256_setzero_ps(); 3]);
    for axis in 0..3 {
        o[axis] = load(&origin[axis]);
        d[axis] = load(&dir[axis]);
    }
    let t1 = load(&t_exit);
    let mut t = load(&t_start);
    let hi = [dims.nx, dims.ny, dims.nz].map(|n| _mm256_set1_ps(clamp_bound(n)));
    let zero = _mm256_setzero_ps();
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let step = _mm256_set1_ps(opts.step);
    let early = _mm256_set1_ps(opts.early_termination);
    let mut active = _mm256_cmp_ps::<_CMP_LT_OQ>(t, t1);

    // Each lane's cached cell, as `CellSampler` keeps it: no valid cell
    // is negative, so -1 makes every lane's first sample fetch.
    let mut cell = [_mm256_set1_epi32(-1); 3];
    // Cached corners in `cell_corners` order, NaN already substituted.
    let mut corners = [zero; 8];
    // Each lane's count of NaN corners in its cached cell.
    let mut cell_nans = _mm256_setzero_si256();
    // Lanes whose cached cell holds a NaN corner.
    let mut nan_cells = 0u32;
    // Each lane's NaN tally, lanes 0-3 and 4-7 as 64-bit counts.
    let mut nan_seen = [_mm256_setzero_si256(); 2];
    let (mut r, mut g, mut b, mut a) = (zero, zero, zero, zero);

    // Each color component's f32 offset within a `repr(C)` `Rgba`.
    let table = tf.entries().as_ptr().cast::<f32>();
    let component = |offset: usize| offset / std::mem::size_of::<f32>();
    let (tr, tg, tb, ta) = (
        component(offset_of!(Rgba, r)),
        component(offset_of!(Rgba, g)),
        component(offset_of!(Rgba, b)),
        component(offset_of!(Rgba, a)),
    );
    let alphas = march.alphas.as_ptr();

    loop {
        let live = _mm256_movemask_ps(active) as u32;
        if live == 0 {
            break;
        }
        // `ray.at(t)`, then `CellSampler::sample`'s shift, clamp and split.
        let mut pos = [zero; 3];
        for axis in 0..3 {
            let p = _mm256_add_ps(o[axis], _mm256_mul_ps(d[axis], t));
            pos[axis] = clamp(_mm256_sub_ps(p, half), zero, hi[axis]);
        }
        let (ix, fx) = split(pos[0]);
        let (iy, fy) = split(pos[1]);
        let (iz, fz) = split(pos[2]);

        let same = _mm256_and_si256(
            _mm256_cmpeq_epi32(ix, cell[0]),
            _mm256_and_si256(
                _mm256_cmpeq_epi32(iy, cell[1]),
                _mm256_cmpeq_epi32(iz, cell[2]),
            ),
        );
        let fetch = _mm256_andnot_ps(_mm256_castsi256_ps(same), active);
        let lanes = _mm256_movemask_ps(fetch) as u32;
        if lanes != 0 {
            let fetched = _mm256_castps_si256(fetch);
            if cfg!(debug_assertions) {
                let at = [lanes_i32(ix), lanes_i32(iy), lanes_i32(iz)];
                for l in (0..PACKET).filter(|l| lanes >> l & 1 == 1) {
                    // A negative lane becomes a huge `usize` and fails the check.
                    let (x0, y0, z0) = (at[0][l] as usize, at[1][l] as usize, at[2][l] as usize);
                    debug_assert!(
                        dims.contains(x0, y0, z0),
                        "lane {l} fetched cell ({x0}, {y0}, {z0}) outside {dims:?}"
                    );
                }
            }
            // SAFETY: this function runs with AVX2, and every lane it
            // selects holds a cell inside `dims`: a clamped coordinate is
            // NaN, which `split` maps to 0, or in `[0, clamp_bound(n)]`,
            // whose truncation `lanes_fit` makes exact and whose bound is
            // at most `n - 1`.
            let raw = unsafe { vol.cell_corners_lanes(ix, iy, iz, fetched) };
            // Substitute 0 for each NaN corner of a fetched lane and
            // count them, as `CellSampler` does.
            let mut nans = _mm256_setzero_si256();
            for (c, v) in corners.iter_mut().zip(raw) {
                let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
                nans = _mm256_sub_epi32(nans, _mm256_castps_si256(nan));
                *c = _mm256_blendv_ps(*c, _mm256_andnot_ps(nan, v), fetch);
            }
            cell_nans = _mm256_blendv_epi8(cell_nans, nans, fetched);
            let with_nans = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(
                nans,
                _mm256_setzero_si256(),
            ))) as u32;
            nan_cells = (nan_cells & !lanes) | (with_nans & lanes);
            for (c, i) in cell.iter_mut().zip([ix, iy, iz]) {
                *c = _mm256_blendv_epi8(*c, i, fetched);
            }
        }
        // Tally per sample, cache hits included, as `CellSampler` does.
        if live & nan_cells != 0 {
            let n = _mm256_and_si256(cell_nans, _mm256_castps_si256(active));
            let halves = [_mm256_castsi256_si128(n), _mm256_extracti128_si256::<1>(n)];
            for (seen, half) in nan_seen.iter_mut().zip(halves) {
                *seen = _mm256_add_epi64(*seen, _mm256_cvtepu32_epi64(half));
            }
        }

        let c = &corners;
        let v = lerp(
            lerp(lerp(c[0], c[1], fx), lerp(c[2], c[3], fx), fy),
            lerp(lerp(c[4], c[5], fx), lerp(c[6], c[7], fx), fy),
            fz,
        );

        let idx = table_index(v);
        if cfg!(debug_assertions) {
            let got = lanes_i32(idx);
            let in_table = got
                .iter()
                .all(|&i| (i as usize) < TransferFunction::RESOLUTION);
            debug_assert!(in_table, "transfer-function index out of range: {got:?}");
        }
        let idx4 = _mm256_slli_epi32::<2>(idx);
        // SAFETY: the five gathers read in bounds. Every lane's `idx` is
        // in `[0, RESOLUTION)`, inactive lanes included. `y = clamp(v, 0, 1)
        // * 255` is in `[0, 255]` or NaN, `split` maps NaN to 0 and
        // `[0, 255]` into itself, and the round-up adds 1 only where
        // `y - i >= 0.5`, so never to 255. `table` points at
        // `RESOLUTION` `repr(C)` colors of four f32s, so component `K` of
        // entry `idx` is f32 `4 * idx + K < 4 * RESOLUTION` of it, and
        // `alphas` holds `RESOLUTION` f32s.
        let (sr, sg, sb, sa, alpha) = unsafe {
            (
                _mm256_i32gather_ps::<4>(table.add(tr), idx4),
                _mm256_i32gather_ps::<4>(table.add(tg), idx4),
                _mm256_i32gather_ps::<4>(table.add(tb), idx4),
                _mm256_i32gather_ps::<4>(table.add(ta), idx4),
                _mm256_i32gather_ps::<4>(alphas, idx),
            )
        };

        // Composite where the entry's own opacity is above 0, then stop
        // lanes that reached the early-termination opacity.
        let hit = _mm256_and_ps(active, _mm256_cmp_ps::<_CMP_GT_OQ>(sa, zero));
        let w = _mm256_mul_ps(_mm256_sub_ps(one, a), alpha);
        r = _mm256_blendv_ps(r, _mm256_add_ps(r, _mm256_mul_ps(w, sr)), hit);
        g = _mm256_blendv_ps(g, _mm256_add_ps(g, _mm256_mul_ps(w, sg)), hit);
        b = _mm256_blendv_ps(b, _mm256_add_ps(b, _mm256_mul_ps(w, sb)), hit);
        a = _mm256_blendv_ps(a, _mm256_add_ps(a, w), hit);
        let done = _mm256_and_ps(hit, _mm256_cmp_ps::<_CMP_GE_OQ>(a, early));
        t = _mm256_add_ps(t, step);
        active = _mm256_and_ps(
            _mm256_andnot_ps(done, active),
            _mm256_cmp_ps::<_CMP_LT_OQ>(t, t1),
        );
    }

    let mut out = [[0.0f32; PACKET]; 4];
    for (dst, v) in out.iter_mut().zip([r, g, b, a]) {
        // SAFETY: an 8-element f32 array is 8 writable lanes.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) };
    }
    let colors = std::array::from_fn(|l| Rgba {
        r: out[0][l],
        g: out[1][l],
        b: out[2][l],
        a: out[3][l],
    });
    let mut tallies = [0u64; PACKET];
    for (dst, v) in tallies.chunks_exact_mut(4).zip(nan_seen) {
        // SAFETY: a 4-element u64 slice is 4 writable 64-bit lanes.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) };
    }
    (colors, tallies)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::camera::{orbit_viewpoints, Projection};
    use crate::render::{shade_ray_counted, shade_rays, RenderOpts};
    use crate::vec3::vec3;
    use sfc_core::{ArrayOrder3, FnVolume, Grid3, HilbertOrder3, Tiled3, ZOrder3};

    /// A volume that counts the cells it fetches, through `cell_corners`
    /// and through the lanes `cell_corners_lanes` selects, and forwards
    /// both fetches to the wrapped volume's own.
    struct Counting<'a, V> {
        vol: &'a V,
        fetches: Cell<u64>,
    }

    impl<V: Volume3> Volume3 for Counting<'_, V> {
        fn dims(&self) -> Dims3 {
            self.vol.dims()
        }

        fn get(&self, i: usize, j: usize, k: usize) -> f32 {
            self.vol.get(i, j, k)
        }

        fn cell_corners(&self, x0: usize, y0: usize, z0: usize) -> [f32; 8] {
            self.fetches.set(self.fetches.get() + 1);
            self.vol.cell_corners(x0, y0, z0)
        }

        unsafe fn cell_corners_lanes(
            &self,
            x: __m256i,
            y: __m256i,
            z: __m256i,
            mask: __m256i,
        ) -> [__m256; 8] {
            let lanes = _mm256_movemask_ps(_mm256_castsi256_ps(mask)).count_ones();
            self.fetches.set(self.fetches.get() + u64::from(lanes));
            // SAFETY: the caller's contract is the wrapped volume's.
            unsafe { self.vol.cell_corners_lanes(x, y, z, mask) }
        }
    }

    impl<V> Counting<'_, V> {
        fn take(&self) -> u64 {
            self.fetches.replace(0)
        }
    }

    /// Fetches per ray, ray by ray through the cached `CellSampler` and
    /// through the packet marcher: each ray alone in a packet, then eight
    /// to a packet, whose total must be the sum of its rays'.
    fn check_fetches<V: Volume3>(vol: &V, rays: &[Ray], what: &str) {
        let counting = Counting {
            vol,
            fetches: Cell::new(0),
        };
        let tf = TransferFunction::fire();
        let march = MarchOpts::new(&tf, &RenderOpts::default());
        let bbox = Aabb::of_dims(vol.dims());
        let mut per_ray = Vec::with_capacity(rays.len());
        for (r, ray) in rays.iter().enumerate() {
            shade_ray_counted(&counting, &tf, &march, ray, &bbox);
            let cached = counting.take();
            shade(&counting, &tf, &march, std::slice::from_ref(ray), &bbox).expect("AVX2 host");
            assert_eq!(counting.take(), cached, "{what}, ray {r}");
            per_ray.push(cached);
        }
        for (p, (rays, want)) in rays.chunks(PACKET).zip(per_ray.chunks(PACKET)).enumerate() {
            shade(&counting, &tf, &march, rays, &bbox).expect("AVX2 host");
            assert_eq!(
                counting.take(),
                want.iter().sum::<u64>(),
                "{what}, packet {p}"
            );
        }
        assert!(per_ray.iter().sum::<u64>() > 0, "{what}: the rays must hit");
    }

    #[test]
    fn packets_fetch_each_rays_cells_as_often_as_the_cached_sampler() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let dims = Dims3::cube(16);
        let values: Vec<f32> = (0..dims.len())
            .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
            .collect();
        let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let persp = Projection::Perspective {
            fov_y: 40f32.to_radians(),
        };
        // `sfc_bench::paper_orbit(16, 16)`: viewpoint 0 looks along x,
        // viewpoint 1 from 45 degrees off it.
        let cams = orbit_viewpoints(8, vec3(8.0, 8.0, 8.0), 16.0 * 2.2, persp, 16, 16);
        for v in [0, 1] {
            let cam = &cams[v];
            let rays: Vec<Ray> = (0..cam.height())
                .flat_map(|y| (0..cam.width()).map(move |x| (x, y)))
                .map(|(x, y)| cam.ray_for_pixel(x, y))
                .collect();
            check_fetches(&a, &rays, &format!("array vp{v}"));
            check_fetches(&a.convert::<ZOrder3>(), &rays, &format!("z vp{v}"));
            check_fetches(&a.convert::<Tiled3>(), &rays, &format!("tiled vp{v}"));
            check_fetches(
                &a.convert::<HilbertOrder3>(),
                &rays,
                &format!("hilbert vp{v}"),
            );
        }
    }

    /// The lane operations on `xs`, eight at a time: each value's cell
    /// split after the shift and clamp against a bound `hi`, and its
    /// transfer-function index.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn lane_ops(xs: &[f32], hi: f32) -> Vec<(i32, f32, i32)> {
        let mut out = Vec::with_capacity(xs.len());
        for chunk in xs.chunks(PACKET) {
            let mut lanes = [0.0; PACKET];
            lanes[..chunk.len()].copy_from_slice(chunk);
            let x = load(&lanes);
            let shifted = _mm256_sub_ps(x, _mm256_set1_ps(0.5));
            let (cell, frac) = split(clamp(shifted, _mm256_setzero_ps(), _mm256_set1_ps(hi)));
            let mut fracs = [0.0; PACKET];
            // SAFETY: an 8-element f32 array is 8 writable lanes.
            unsafe { _mm256_storeu_ps(fracs.as_mut_ptr(), frac) };
            let (cells, idx) = (lanes_i32(cell), lanes_i32(table_index(x)));
            out.extend((0..chunk.len()).map(|l| (cells[l], fracs[l], idx[l])));
        }
        out
    }

    #[test]
    fn lane_clamp_split_and_index_match_the_scalar_operations() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        // NaN and -0 against the clamp's bounds, infinities, values
        // beyond the bound, and a strided sweep over every f32 sign and
        // exponent.
        let mut xs = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            -0.0,
            0.0,
            0.5,
            0.499_999_97,
            0.500_000_06,
            1.0,
            254.5 / 255.0,
            13.0,
            13.5,
            12.999_999,
            1e-30,
            -1e-30,
        ];
        xs.extend((0..=u32::MAX).step_by(65521).map(f32::from_bits));
        let tf = TransferFunction::fire();
        for hi in [0.0f32, 12.0, 16_777_215.0, 2_147_483_520.0] {
            // SAFETY: AVX2 was detected above.
            let got = unsafe { lane_ops(&xs, hi) };
            for (&x, &(cell, frac, idx)) in xs.iter().zip(&got) {
                let c = (x - 0.5).clamp(0.0, hi);
                let i = c as i64;
                assert_eq!(i64::from(cell), i, "cell of {x:e}, bound {hi}");
                let want = c - i as f32;
                assert_eq!(
                    frac.to_bits(),
                    want.to_bits(),
                    "weight of {x:e}, bound {hi}"
                );
                assert_eq!(idx as usize, tf.index(x), "index of {x:e}");
            }
        }
    }

    #[test]
    fn lanes_fit_only_axes_whose_clamp_bound_truncates_to_i32() {
        let x = |n| Dims3::new(n, 1, 1);
        assert!(lanes_fit(Dims3::new(1, 1, 1)));
        assert!(lanes_fit(x((1 << 31) - 64)));
        // 2^31 - 64 and 2^31 - 1 round up to 2^31: the bound steps down
        // to 2^31 - 128.
        assert!(lanes_fit(x((1 << 31) - 63)));
        assert!(lanes_fit(Dims3::new(4, 4, 1 << 31)));
        assert!(!lanes_fit(x((1 << 31) + 1)), "the bound is 2^31");
        assert!(!lanes_fit(x((1 << 31) + 2)));
        // 2^25 - 1 rounds up to 2^25, a cell past the last voxel, and the
        // bound steps down to 2^25 - 2; 2^25 is exact.
        let y = |n| Dims3::new(4, n, 4);
        assert!(lanes_fit(y(1 << 25)));
        assert!(lanes_fit(y((1 << 25) + 1)));
    }

    #[test]
    fn samples_past_the_far_face_of_a_long_axis_stay_inside_it() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        // A ray along the x = 2^25 face: each sample's x - 0.5 rounds to
        // 2^25, past the last voxel center 2^25 - 1, and a clamp bound
        // that rounded up to 2^25 split it into cell x0 = 2^25, outside
        // the volume.
        let n = 1usize << 25;
        let dims = Dims3::new(n, 4, 2);
        let vol = FnVolume::new(dims, move |i, j, _| {
            assert!(i < n, "read x = {i} past the far face");
            if i + 2 >= n {
                0.3 + j as f32 * 0.2
            } else {
                0.05
            }
        });
        let tf = TransferFunction::fire();
        let march = MarchOpts::new(&tf, &RenderOpts::default());
        let bbox = Aabb::of_dims(dims);
        let face = Ray {
            origin: vec3(n as f32, -1.0, 0.5),
            dir: vec3(0.0, 1.0, 0.0),
        };
        let (want, nans) = shade_ray_counted(&vol, &tf, &march, &face, &bbox);
        assert!(want.a > 0.0, "the ray must composite");
        let (got, got_nans) = shade(&vol, &tf, &march, &[face], &bbox).expect("lanes fit");
        assert_eq!(got[0], want);
        assert_eq!(got_nans[0], nans);
    }

    #[test]
    fn axes_past_i32_take_the_per_ray_path() {
        // A ray along the x = 2^31 face of a 2^31 + 2 voxel long volume:
        // every sample's cell starts at x0 = 2^31, where a lane's
        // truncation gives `i32::MIN`.
        let far = 1usize << 31;
        let dims = Dims3::new(far + 2, 1, 1);
        let vol = FnVolume::new(dims, move |i, _, _| {
            if (far..far + 2).contains(&i) {
                0.9
            } else {
                0.1
            }
        });
        assert!(!lanes_fit(dims));
        let tf = TransferFunction::fire();
        let march = MarchOpts::new(&tf, &RenderOpts::default());
        let bbox = Aabb::of_dims(dims);
        let face = Ray {
            origin: vec3(far as f32, -1.0, 0.5),
            dir: vec3(0.0, 1.0, 0.0),
        };
        let inside = Ray {
            origin: vec3(far as f32 - 4096.0, 0.5, -1.0),
            dir: vec3(0.0, 0.0, 1.0),
        };
        let rays = [face, inside];
        let mut got = Vec::new();
        let nans = shade_rays(&vol, &tf, &march, &rays, &bbox, &mut got);
        assert_eq!(nans, 0);
        for (r, ray) in rays.iter().enumerate() {
            let (want, _) = shade_ray_counted(&vol, &tf, &march, ray, &bbox);
            assert!(want.a > 0.0, "ray {r} must composite");
            assert_eq!(got[r], want, "ray {r}");
        }
        assert_ne!(got[0], got[1], "the face ray samples the far cells");
    }
}
