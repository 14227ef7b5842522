//! Z-order (Morton) layout with per-axis lookup tables.
//!
//! This is the paper's core mechanism (§III-C, after Pascucci & Frank 2001):
//! during initialization we precompute one table per axis containing the
//! bit-dilated contribution of every coordinate value; at access time
//! `index(i,j,k)` is three table lookups and two ORs.
//!
//! Rectangular domains use the round-robin interleave of
//! [`crate::pattern::InterleavePattern3`], so each axis is padded to its own
//! power of two (not the cube of the largest), keeping the §V padding
//! overhead as small as the scheme allows.

use std::sync::Arc;

use crate::dims::{bits_for, Dims2, Dims3};
use crate::error::{SfcError, SfcResult};
use crate::layout::{Layout2, Layout3, LayoutKind};
use crate::pattern::InterleavePattern3;

/// Z-order 3D layout backed by three per-axis dilation tables.
#[derive(Debug, Clone)]
pub struct ZOrder3 {
    dims: Dims3,
    xtab: Arc<[u64]>,
    ytab: Arc<[u64]>,
    ztab: Arc<[u64]>,
    pattern: Arc<InterleavePattern3>,
    storage_len: usize,
}

impl ZOrder3 {
    /// The interleave pattern driving this layout (exposed for tests and
    /// for building derived tables).
    pub fn pattern(&self) -> &InterleavePattern3 {
        &self.pattern
    }
}

/// The padded slot count `2^(bits x + bits y + bits z)`, or
/// [`SfcError::SizeOverflow`] past `isize::MAX`. The interleave needs one
/// index bit per padded coordinate bit, so valid `dims` can need more
/// than 63: a cube of 2^21 + 1 voxels needs 66.
fn padded_slots(dims: Dims3) -> SfcResult<usize> {
    let bits = bits_for(dims.nx) + bits_for(dims.ny) + bits_for(dims.nz);
    1usize
        .checked_shl(bits)
        .filter(|&n| n <= isize::MAX as usize)
        .ok_or(SfcError::SizeOverflow {
            what: "ZOrder3 padded slot count 2^(bits x + bits y + bits z)",
        })
}

impl Layout3 for ZOrder3 {
    const KIND: LayoutKind = LayoutKind::ZOrder;

    fn new(dims: Dims3) -> Self {
        match Self::try_new(dims) {
            Ok(l) => l,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_new(dims: Dims3) -> SfcResult<Self> {
        // Checked before the pattern or any table is built.
        let storage_len = padded_slots(dims)?;
        let pattern = InterleavePattern3::new(dims);
        let xtab: Arc<[u64]> = pattern.build_table(0).into();
        let ytab: Arc<[u64]> = pattern.build_table(1).into();
        let ztab: Arc<[u64]> = pattern.build_table(2).into();
        Ok(Self {
            dims,
            xtab,
            ytab,
            ztab,
            pattern: Arc::new(pattern),
            storage_len,
        })
    }

    #[inline]
    fn dims(&self) -> Dims3 {
        self.dims
    }

    #[inline]
    fn storage_len(&self) -> usize {
        self.storage_len
    }

    #[inline]
    fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(self.dims.contains(i, j, k));
        (self.xtab[i] | self.ytab[j] | self.ztab[k]) as usize
    }

    /// Six gathers, both planes of each axis's dilation table. The three
    /// terms have disjoint bits, so their sum is their OR.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn cell_slots_lanes(
        &self,
        x: std::arch::x86_64::__m256i,
        y: std::arch::x86_64::__m256i,
        z: std::arch::x86_64::__m256i,
        mask: std::arch::x86_64::__m256i,
    ) -> [std::arch::x86_64::__m256i; 8] {
        use crate::lanes::{plane_terms, separable_slots};
        let d = self.dims;
        // SAFETY: the caller runs AVX2 code and selects lanes whose cell
        // lies inside `dims`. The gathered indices are a selected lane's
        // low corner and its clamped high corner on each axis, below that
        // axis's extent, and each table holds an entry for every
        // coordinate below the axis's power-of-two padding, at least its
        // extent. Each slot is `index()` of an in-bounds corner, below
        // `storage_len() <= 2^31` (the caller's contract), so every term
        // and sum fits an i32 and each `u64` entry's low dword is its
        // value.
        unsafe {
            separable_slots(
                plane_terms(&self.xtab, x, d.nx, mask, 0),
                plane_terms(&self.ytab, y, d.ny, mask, 0),
                plane_terms(&self.ztab, z, d.nz, mask, 0),
            )
        }
    }

    #[inline]
    fn coords(&self, index: usize) -> (usize, usize, usize) {
        self.pattern.decode(index as u64)
    }
}

/// Z-order 2D layout backed by two per-axis dilation tables.
///
/// Implemented by reusing the 3D interleave machinery with a degenerate
/// z axis (which contributes zero bits).
#[derive(Debug, Clone)]
pub struct ZOrder2 {
    dims: Dims2,
    xtab: Arc<[u64]>,
    ytab: Arc<[u64]>,
    pattern: Arc<InterleavePattern3>,
    storage_len: usize,
}

impl Layout2 for ZOrder2 {
    const KIND: LayoutKind = LayoutKind::ZOrder;

    fn new(dims: Dims2) -> Self {
        let pattern = InterleavePattern3::new(Dims3::new(dims.nx, dims.ny, 1));
        let xtab: Arc<[u64]> = pattern.build_table(0).into();
        let ytab: Arc<[u64]> = pattern.build_table(1).into();
        let storage_len = pattern.storage_len();
        Self {
            dims,
            xtab,
            ytab,
            pattern: Arc::new(pattern),
            storage_len,
        }
    }

    #[inline]
    fn dims(&self) -> Dims2 {
        self.dims
    }

    #[inline]
    fn storage_len(&self) -> usize {
        self.storage_len
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(self.dims.contains(i, j));
        (self.xtab[i] | self.ytab[j]) as usize
    }

    #[inline]
    fn coords(&self, index: usize) -> (usize, usize) {
        let (i, j, _) = self.pattern.decode(index as u64);
        (i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::{morton2_encode, morton3_encode};

    #[test]
    fn cube_matches_classic_morton() {
        let l = ZOrder3::new(Dims3::cube(8));
        for (i, j, k) in l.dims().iter() {
            assert_eq!(
                l.index(i, j, k) as u64,
                morton3_encode(i as u32, j as u32, k as u32)
            );
        }
    }

    #[test]
    fn square_matches_classic_morton_2d() {
        let l = ZOrder2::new(Dims2::square(16));
        for (i, j) in l.dims().iter() {
            assert_eq!(l.index(i, j) as u64, morton2_encode(i as u32, j as u32));
        }
    }

    #[test]
    fn coords_inverts_index() {
        let l = ZOrder3::new(Dims3::new(8, 4, 16));
        for (i, j, k) in l.dims().iter() {
            assert_eq!(l.coords(l.index(i, j, k)), (i, j, k));
        }
    }

    #[test]
    fn non_pow2_pads_per_axis() {
        let l = ZOrder3::new(Dims3::new(5, 3, 2));
        assert_eq!(l.storage_len(), 8 * 4 * 2);
        let logical = 5 * 3 * 2;
        assert!(l.padding_overhead() > 0.0);
        assert!((l.padding_overhead() - (64.0 - logical as f64) / 64.0).abs() < 1e-12);
    }

    #[test]
    fn indices_are_unique_and_in_range() {
        let l = ZOrder3::new(Dims3::new(6, 10, 3));
        let mut seen = std::collections::HashSet::new();
        for (i, j, k) in l.dims().iter() {
            let m = l.index(i, j, k);
            assert!(m < l.storage_len());
            assert!(seen.insert(m), "collision at ({i},{j},{k})");
        }
    }

    #[test]
    fn locality_unit_steps_stay_close() {
        // Within an aligned 2^3 block, all unit steps from an even-aligned
        // corner land within 8 slots — the essence of Z-order locality.
        let l = ZOrder3::new(Dims3::cube(64));
        let base = l.index(16, 32, 8);
        assert_eq!(l.index(17, 32, 8), base + 1);
        assert_eq!(l.index(16, 33, 8), base + 2);
        assert_eq!(l.index(16, 32, 9), base + 4);
    }

    #[test]
    fn padded_slot_count_never_wraps() {
        // (2^21 + 1)^3 < 2^64 voxels is valid, but the interleave needs
        // 3 * 22 = 66 bits, which wrapped to 4 slots; 2^21 needs 63 bits,
        // 2^63 slots, past isize::MAX.
        for n in [(1 << 21) + 1, 1 << 21] {
            let err = ZOrder3::try_new(Dims3::cube(n)).unwrap_err();
            assert!(matches!(err, SfcError::SizeOverflow { .. }), "{n}: {err}");
        }
        // 62 bits is the most that fits; checked without building tables.
        let widest = Dims3::new(1 << 20, 1 << 21, 1 << 21);
        assert_eq!(padded_slots(widest).unwrap(), 1 << 62);
        let l = ZOrder3::try_new(Dims3::new((1 << 12) + 1, 1 << 12, 3)).unwrap();
        assert_eq!(l.storage_len(), 1 << (13 + 12 + 2));
        assert_eq!(l.storage_len(), l.pattern().storage_len());
    }

    #[test]
    #[should_panic(expected = "size computation overflowed usize")]
    fn new_panics_with_the_overflow_message() {
        ZOrder3::new(Dims3::cube((1 << 21) + 1));
    }

    #[test]
    fn two_d_nonsquare() {
        let l = ZOrder2::new(Dims2::new(32, 4));
        let mut seen = std::collections::HashSet::new();
        for (i, j) in l.dims().iter() {
            let m = l.index(i, j);
            assert!(m < l.storage_len());
            assert!(seen.insert(m));
            assert_eq!(l.coords(m), (i, j));
        }
        assert_eq!(l.storage_len(), 128);
    }
}
