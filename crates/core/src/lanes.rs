//! AVX2 building blocks of the lane cell fetch (DESIGN.md §5.7):
//! [`Layout3::cell_slots_lanes`](crate::Layout3::cell_slots_lanes) and
//! [`Volume3::cell_corners_lanes`](crate::Volume3::cell_corners_lanes)
//! fetch the cells of up to eight lanes, one cell per 32-bit lane of an
//! AVX2 register, for the raycaster's ray packets. Two layouts use them:
//! the separable layout of array, Z and tiled order, whose one fetch is
//! six gathers and [`separable_slots`] (DESIGN.md §5.8), and Hilbert
//! order.
//!
//! Every function here is `#[inline(always)]` and must be called from code
//! compiled with AVX2 enabled, on a CPU that has it: they are written to
//! be inlined into such a caller, as the packet marcher's helpers are.

use std::arch::x86_64::*;

/// The eight lanes of `v`.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
pub(crate) unsafe fn to_array(v: __m256i) -> [i32; 8] {
    let mut out = [0i32; 8];
    // SAFETY: an 8-element i32 array is 8 writable lanes.
    unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
    out
}

/// Bit `l` set where lane `l` of `mask` has its sign bit set.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
pub(crate) unsafe fn mask_bits(mask: __m256i) -> u32 {
    _mm256_movemask_ps(_mm256_castsi256_ps(mask)) as u32
}

/// In debug builds, assert that every lane of `v` that `mask` selects
/// lies in `[0, bound)`: an index an unchecked gather is about to use.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
pub(crate) unsafe fn debug_assert_below(v: __m256i, mask: __m256i, bound: usize, what: &str) {
    if cfg!(debug_assertions) {
        let (got, bits) = (to_array(v), mask_bits(mask));
        // A negative lane becomes a huge `usize` and fails the check.
        let inside = (0..8).all(|l| bits >> l & 1 == 0 || (got[l] as usize) < bound);
        debug_assert!(
            inside,
            "{what} out of range: {got:?} under mask {bits:#010b}, bound {bound}"
        );
    }
}

/// Run `cell` on each lane `mask` selects, one lane after another, with
/// that lane's `(x, y, z)`, and return its eight corners as
/// `out[corner][lane]`; the other lanes hold `T::default()`.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
pub(crate) unsafe fn per_lane<T: Copy + Default>(
    x: __m256i,
    y: __m256i,
    z: __m256i,
    mask: __m256i,
    mut cell: impl FnMut(usize, usize, usize) -> [T; 8],
) -> [[T; 8]; 8] {
    let (xs, ys, zs) = (to_array(x), to_array(y), to_array(z));
    let mut out = [[T::default(); 8]; 8];
    let mut lanes = mask_bits(mask);
    while lanes != 0 {
        let l = lanes.trailing_zeros() as usize;
        lanes &= lanes - 1;
        // A negative lane becomes a huge `usize`, which `cell`'s bounds
        // checks refuse.
        let corners = cell(xs[l] as usize, ys[l] as usize, zs[l] as usize);
        for (row, v) in out.iter_mut().zip(corners) {
            row[l] = v;
        }
    }
    out
}

/// The low corner `c` of each lane's cell and the high corner beside it
/// along the same axis, `min(c + 1, n - 1)`: the clamp of
/// [`Layout3::cell_slots`](crate::Layout3::cell_slots), for an axis of
/// `n` voxels with `1 <= n <= 2^31` and `0 <= c < n`. Written as
/// `min(c, n - 2) + 1` so that no lane computes `2^31`.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
pub(crate) unsafe fn planes(c: __m256i, n: usize) -> [__m256i; 2] {
    let last_low = _mm256_set1_epi32((n as i64 - 2) as i32);
    let one = _mm256_set1_epi32(1);
    [c, _mm256_add_epi32(_mm256_min_epi32(c, last_low), one)]
}

/// Dword `dword` (0 low, 1 high, little-endian) of `table[idx]` in each
/// lane `mask` selects, 0 in the others: one masked `vpgatherdd` at
/// scale 8.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled and run on a CPU that
/// has it, `T` must be 8 bytes wide, `dword` 0 or 1, and every selected
/// lane of `idx` in `[0, table.len())`. Debug builds assert the last.
#[inline(always)]
pub(crate) unsafe fn gather_dwords<T>(
    table: &[T],
    idx: __m256i,
    mask: __m256i,
    dword: usize,
) -> __m256i {
    const { assert!(std::mem::size_of::<T>() == 8) };
    debug_assert!(dword < 2);
    debug_assert_below(idx, mask, table.len(), "table index");
    // SAFETY: each selected lane reads the 4 bytes at
    // `8 * idx + 4 * dword` of `table`, inside entry `idx < table.len()`
    // (the caller's contract); the other lanes read nothing.
    unsafe {
        _mm256_mask_i32gather_epi32::<8>(
            _mm256_setzero_si256(),
            table.as_ptr().cast::<i32>().add(dword),
            idx,
            mask,
        )
    }
}

/// Dword `dword` of `table[c]` for the low and the high plane of each
/// selected lane's cell along an axis of `n` voxels (see [`planes`]); 0
/// in the other lanes.
///
/// # Safety
/// As [`gather_dwords`] and [`planes`], with `n <= table.len()` and every
/// selected lane of `c` in `[0, n)`.
#[inline(always)]
pub(crate) unsafe fn plane_terms<T>(
    table: &[T],
    c: __m256i,
    n: usize,
    mask: __m256i,
    dword: usize,
) -> [__m256i; 2] {
    let [lo, hi] = planes(c, n);
    [
        gather_dwords(table, lo, mask, dword),
        gather_dwords(table, hi, mask, dword),
    ]
}

/// The eight corner sums `x[X] + y[Y] + z[Z]` for corner `X + 2Y + 4Z`,
/// in twelve adds: the slots of a layout whose index is the sum of three
/// per-axis terms. The separable layout (array, Z and tiled order) builds
/// its slots here, and Hilbert order its corners' Morton codes.
///
/// # Safety
/// The caller must be compiled with AVX2 enabled.
#[inline(always)]
pub(crate) unsafe fn separable_slots(
    x: [__m256i; 2],
    y: [__m256i; 2],
    z: [__m256i; 2],
) -> [__m256i; 8] {
    let yz = [
        _mm256_add_epi32(y[0], z[0]),
        _mm256_add_epi32(y[1], z[0]),
        _mm256_add_epi32(y[0], z[1]),
        _mm256_add_epi32(y[1], z[1]),
    ];
    let mut slots = [_mm256_setzero_si256(); 8];
    for (c, slot) in slots.iter_mut().enumerate() {
        *slot = _mm256_add_epi32(x[c & 1], yz[c >> 1]);
    }
    slots
}

/// Test access to the lane fetches: cell `cells[l]` in lane `l`, the
/// lanes of `mask`'s set bits selected, and a cell outside every grid in
/// the other lanes, which must then go unread.
#[cfg(test)]
pub(crate) mod probe {
    use super::*;
    use crate::layout::Layout3;
    use crate::volume::Volume3;

    /// Lane `l` holds `cells[l]` where bit `l` of `mask` is set, and -1
    /// on every axis elsewhere; returns the coordinate vectors and the
    /// mask vector.
    ///
    /// # Safety
    /// The caller must be compiled with AVX2 enabled.
    #[inline(always)]
    unsafe fn lanes_of(cells: &[(usize, usize, usize); 8], mask: u8) -> [__m256i; 4] {
        let lane = |l: usize, c: usize| if mask >> l & 1 == 1 { c as i32 } else { -1 };
        let x: [i32; 8] = std::array::from_fn(|l| lane(l, cells[l].0));
        let y: [i32; 8] = std::array::from_fn(|l| lane(l, cells[l].1));
        let z: [i32; 8] = std::array::from_fn(|l| lane(l, cells[l].2));
        let m: [i32; 8] = std::array::from_fn(|l| -i32::from(mask >> l & 1 == 1));
        // SAFETY: 8-element i32 arrays are 8 readable lanes.
        [x, y, z, m].map(|v| unsafe { _mm256_loadu_si256(v.as_ptr().cast()) })
    }

    /// `layout.cell_slots_lanes` as `out[lane][corner]`.
    ///
    /// # Safety
    /// The CPU must support AVX2, every selected cell must lie inside the
    /// layout's dims, and its slots must fit an i32.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn slots<L: Layout3>(
        layout: &L,
        cells: &[(usize, usize, usize); 8],
        mask: u8,
    ) -> [[i32; 8]; 8] {
        let [x, y, z, m] = lanes_of(cells, mask);
        let by_corner = layout.cell_slots_lanes(x, y, z, m).map(|v| to_array(v));
        std::array::from_fn(|l| std::array::from_fn(|c| by_corner[c][l]))
    }

    /// `vol.cell_corners_lanes` as `out[lane][corner]`.
    ///
    /// # Safety
    /// The CPU must support AVX2, and every selected cell must lie inside
    /// the volume's dims.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn corners<V: Volume3 + ?Sized>(
        vol: &V,
        cells: &[(usize, usize, usize); 8],
        mask: u8,
    ) -> [[f32; 8]; 8] {
        let [x, y, z, m] = lanes_of(cells, mask);
        let mut by_corner = [[0.0f32; 8]; 8];
        for (row, v) in by_corner.iter_mut().zip(vol.cell_corners_lanes(x, y, z, m)) {
            // SAFETY: an 8-element f32 array is 8 writable lanes.
            unsafe { _mm256_storeu_ps(row.as_mut_ptr(), v) };
        }
        std::array::from_fn(|l| std::array::from_fn(|c| by_corner[c][l]))
    }
}
