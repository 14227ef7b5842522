//! Z-order (Morton) layout with per-axis lookup tables.
//!
//! This is the paper's core mechanism (§III-C, after Pascucci & Frank 2001):
//! during initialization we precompute one table per axis containing the
//! bit-dilated contribution of every coordinate value; at access time
//! `index(i,j,k)` is three table lookups. The contributions' bits are
//! disjoint, so the [`Separable3`] sum of the three is their OR.
//!
//! Rectangular domains use the round-robin interleave of
//! [`crate::pattern::InterleavePattern3`], so each axis is padded to its own
//! power of two (not the cube of the largest), keeping the §V padding
//! overhead as small as the scheme allows.

use std::sync::Arc;

use crate::dims::{bits_for, Dims3};
use crate::error::SfcResult;
use crate::layout::{padded_slots, LayoutKind};
use crate::pattern::InterleavePattern3;

use super::separable::{Separable2, Separable3, SeparableOrder};

/// Z-order 3D layout backed by three per-axis dilation tables.
pub type ZOrder3 = Separable3<Interleaved>;

/// Z-order 2D layout: the dilation tables of an `nx × ny × 1` grid, whose
/// z axis contributes no bits.
pub type ZOrder2 = Separable2<Interleaved>;

/// Z-order's terms: each coordinate's bits dilated to their places in the
/// grid's [`InterleavePattern3`].
#[derive(Debug, Clone)]
pub struct Interleaved(Arc<InterleavePattern3>);

impl SeparableOrder for Interleaved {
    const KIND: LayoutKind = LayoutKind::ZOrder;

    /// The padded slot count is `2^(bits x + bits y + bits z)`. The
    /// interleave needs one index bit per padded coordinate bit, so valid
    /// `dims` can need more than 63: a cube of 2^21 + 1 voxels needs 66.
    fn plan(dims: Dims3) -> SfcResult<(Self, usize)> {
        let bits = bits_for(dims.nx) + bits_for(dims.ny) + bits_for(dims.nz);
        let slots = padded_slots(
            1usize.checked_shl(bits),
            "Z-order padded slot count 2^(bits x + bits y + bits z)",
        )?;
        Ok((Self(Arc::new(InterleavePattern3::new(dims))), slots))
    }

    fn term(&self, axis: usize, c: usize) -> usize {
        self.0.dilate(axis, c) as usize
    }

    fn coords(&self, index: usize) -> (usize, usize, usize) {
        self.0.decode(index as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dims2;
    use crate::error::SfcError;
    use crate::layout::{Layout2, Layout3};
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
        let (_, slots) = Interleaved::plan(Dims3::new(1 << 20, 1 << 21, 1 << 21)).unwrap();
        assert_eq!(slots, 1 << 62);
        let dims = Dims3::new((1 << 12) + 1, 1 << 12, 3);
        let l = ZOrder3::try_new(dims).unwrap();
        assert_eq!(l.storage_len(), 1 << (13 + 12 + 2));
        assert_eq!(l.storage_len(), InterleavePattern3::new(dims).storage_len());
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
