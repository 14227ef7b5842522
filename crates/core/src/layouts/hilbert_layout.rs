//! Hilbert-order layouts.
//!
//! Unlike Z-order, the Hilbert index of a coordinate cannot be decomposed
//! into independent per-axis contributions (the curve's orientation at each
//! recursion level depends on *all* coordinates), so no sum of per-axis
//! tables gives it. It is still table-driven: [`HilbertOrder3`] looks up the
//! coordinate's Morton code in one per-axis dilation table, then runs the
//! curve's automaton over it two bit planes per lookup
//! (`hilbert::MortonToHilbert3`), ⌈bits/2⌉ dependent lookups in all. The
//! paper's background (Reissmann et al. 2014) found Hilbert's index cost to
//! outweigh its slightly better locality; `sfc-bench`'s `curve_ablation`
//! measures the trade-off with this implementation. Axis runs read through
//! `index()` too, one voxel at a time, like every other layout.
//!
//! Hilbert order requires a power-of-two *cube*, so rectangular domains pad
//! every axis to the largest axis's power of two — a much bigger overhead
//! than Z-order's per-axis padding (documented limitation).

use std::sync::Arc;

use crate::dims::{bits_for, Dims2, Dims3};
use crate::error::{SfcError, SfcResult};
use crate::hilbert::{hilbert2_decode, hilbert2_encode, hilbert3_decode, MortonToHilbert3};
use crate::layout::{Layout2, Layout3, LayoutKind};
use crate::morton::part1by2;

/// Hilbert-order 3D layout: one Morton dilation table and the process-wide
/// two-plane automaton table.
#[derive(Debug, Clone)]
pub struct HilbertOrder3 {
    dims: Dims3,
    bits: u32,
    /// `dilate[c]` spreads `c`'s bits to every third position, shifted
    /// left by `64 - 3 * bits`, for `c` below the longest axis:
    /// `dilate[i] | dilate[j] << 1 | dilate[k] << 2` is the Morton code of
    /// `(i,j,k)` in the left-aligned form [`MortonToHilbert3::encode`]
    /// takes.
    dilate: Arc<[u64]>,
    table: &'static MortonToHilbert3,
}

impl HilbertOrder3 {
    /// Curve order (bits per axis).
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

impl Layout3 for HilbertOrder3 {
    const KIND: LayoutKind = LayoutKind::Hilbert;

    fn new(dims: Dims3) -> Self {
        match Self::try_new(dims) {
            Ok(l) => l,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_new(dims: Dims3) -> SfcResult<Self> {
        let bits = bits_for(dims.max_extent());
        // `1 << 3 * bits` slots: checked before the table is built, so the
        // largest table ever allocated covers an axis of 2^20 voxels.
        1usize
            .checked_shl(3 * bits)
            .filter(|&n| n <= isize::MAX as usize)
            .ok_or(SfcError::SizeOverflow {
                what: "HilbertOrder3 padded slot count 2^(3 * bits)",
            })?;
        // An order of 0 has the single coordinate 0, whose shift is moot.
        let dilate = (0..dims.max_extent() as u32)
            .map(|c| part1by2(c).checked_shl(64 - 3 * bits).unwrap_or(0))
            .collect();
        Ok(Self {
            dims,
            bits,
            dilate,
            table: MortonToHilbert3::get(),
        })
    }

    #[inline]
    fn dims(&self) -> Dims3 {
        self.dims
    }

    #[inline]
    fn storage_len(&self) -> usize {
        1usize << (3 * self.bits)
    }

    #[inline]
    fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(self.dims.contains(i, j, k));
        let t = &self.dilate;
        self.table.encode(t[i] | t[j] << 1 | t[k] << 2, self.bits) as usize
    }

    #[inline]
    fn coords(&self, index: usize) -> (usize, usize, usize) {
        let (i, j, k) = hilbert3_decode(index as u64, self.bits);
        (i as usize, j as usize, k as usize)
    }
}

/// Hilbert-order 2D layout (computed per access, no tables).
#[derive(Debug, Clone)]
pub struct HilbertOrder2 {
    dims: Dims2,
    bits: u32,
}

impl Layout2 for HilbertOrder2 {
    const KIND: LayoutKind = LayoutKind::Hilbert;

    fn new(dims: Dims2) -> Self {
        let bits = bits_for(dims.nx.max(dims.ny));
        Self { dims, bits }
    }

    #[inline]
    fn dims(&self) -> Dims2 {
        self.dims
    }

    #[inline]
    fn storage_len(&self) -> usize {
        1usize << (2 * self.bits)
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(self.dims.contains(i, j));
        hilbert2_encode(i as u32, j as u32, self.bits) as usize
    }

    #[inline]
    fn coords(&self, index: usize) -> (usize, usize) {
        let (i, j) = hilbert2_decode(index as u64, self.bits);
        (i as usize, j as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_roundtrip() {
        let l = HilbertOrder3::new(Dims3::cube(8));
        assert_eq!(l.storage_len(), 512);
        for (i, j, k) in l.dims().iter() {
            let m = l.index(i, j, k);
            assert!(m < 512);
            assert_eq!(l.coords(m), (i, j, k));
        }
    }

    #[test]
    fn rectangular_pads_to_cube() {
        let l = HilbertOrder3::new(Dims3::new(8, 2, 2));
        assert_eq!(l.storage_len(), 512, "padded to 8^3");
        assert!(l.padding_overhead() > 0.9);
    }

    #[test]
    fn indices_unique() {
        let l = HilbertOrder3::new(Dims3::new(5, 6, 7));
        let mut seen = std::collections::HashSet::new();
        for (i, j, k) in l.dims().iter() {
            assert!(seen.insert(l.index(i, j, k)));
        }
    }

    #[test]
    fn index_matches_the_transpose_encoder_at_orders_1_to_6() {
        use crate::hilbert::hilbert3_encode;
        for bits in 1..=6u32 {
            let n = 1usize << bits;
            let l = HilbertOrder3::new(Dims3::cube(n));
            assert_eq!(l.bits(), bits);
            for (i, j, k) in l.dims().iter() {
                let want = hilbert3_encode(i as u32, j as u32, k as u32, bits);
                assert_eq!(l.index(i, j, k) as u64, want, "({i},{j},{k}) bits={bits}");
            }
        }
    }

    #[test]
    fn padded_slot_count_never_wraps() {
        // 2^21 voxels along an axis needs bits = 21: 2^63 slots, past
        // isize::MAX; 2^22 needs 2^66, which wrapped to 4 slots.
        for nx in [(1 << 20) + 1, 1 << 21, 1 << 22, usize::MAX] {
            let err = HilbertOrder3::try_new(Dims3::new(nx, 1, 1)).unwrap_err();
            assert!(matches!(err, SfcError::SizeOverflow { .. }), "{nx}: {err}");
        }
        let widest = HilbertOrder3::try_new(Dims3::new(1 << 20, 1, 1)).unwrap();
        assert_eq!(widest.storage_len(), 1 << 60);
    }

    #[test]
    #[should_panic(expected = "size computation overflowed usize")]
    fn new_panics_with_the_overflow_message() {
        HilbertOrder3::new(Dims3::new(1 << 22, 1, 1));
    }

    #[test]
    fn two_d_roundtrip() {
        let l = HilbertOrder2::new(Dims2::new(16, 9));
        for (i, j) in l.dims().iter() {
            assert_eq!(l.coords(l.index(i, j)), (i, j));
        }
        assert_eq!(l.storage_len(), 256);
    }
}
