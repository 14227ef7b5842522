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
//! outweigh its slightly better locality; the benchmark ledger's
//! `core.step_ns.hilbert` and `filters.pass_ms.hilbert.*` rows measure the
//! trade-off with this implementation. Axis runs read through
//! `index()` too, one voxel at a time, like every other layout. On x86_64,
//! `cell_slots_lanes` walks the same two tables for the eight corners of
//! eight cells at once, with AVX2 gathers (DESIGN.md §5.7).
//!
//! Hilbert order requires a power-of-two *cube*, so rectangular domains pad
//! every axis to the largest axis's power of two — a much bigger overhead
//! than Z-order's per-axis padding (documented limitation).

use std::sync::Arc;

use crate::dims::{bits_for, Dims2, Dims3};
use crate::error::SfcResult;
use crate::hilbert::{hilbert2_decode, hilbert2_encode, hilbert3_decode, MortonToHilbert3};
use crate::layout::{or_panic, padded_slots, Layout2, Layout3, LayoutKind};
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

    fn try_new(dims: Dims3) -> SfcResult<Self> {
        let bits = bits_for(dims.max_extent());
        // `1 << 3 * bits` slots: checked before the table is built, so the
        // largest table ever allocated covers an axis of 2^20 voxels.
        padded_slots(
            1usize.checked_shl(3 * bits),
            "HilbertOrder3 padded slot count 2^(3 * bits)",
        )?;
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

    /// Six gathers of the high dword of both planes' dilation entries per
    /// axis, then the two-plane automaton walked in lanes for all eight
    /// corners at once: ⌈bits/2⌉ table gathers per corner, plus the root
    /// step of an odd order.
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
        use std::arch::x86_64::*;
        let d = self.dims;
        // `storage_len() = 2^(3 * bits) <= 2^31` (the caller's contract)
        // gives `bits <= 10`: each code has at most 30 bits, all in the
        // high dword of its left-aligned entry, which holds it shifted
        // left by `32 - 3 * bits`, its top bit at most bit 29
        // (`encode_lanes` asserts the order in debug builds).
        // SAFETY: the caller runs AVX2 code and selects lanes whose cell
        // lies inside `dims`. The gathered indices are a selected lane's
        // low corner and its clamped high corner on each axis, below that
        // axis's extent and so below `dilate.len()`, the longest extent.
        // With `bits <= 10` the y and z terms shifted left by 1 and 2
        // stay within 32 bits, and the three terms' bits are disjoint, so
        // their sum is the Morton code's OR. `encode_lanes` then gives an
        // index below `2^(3 * bits) = storage_len()`, which fits an i32.
        unsafe {
            let [y0, y1] = plane_terms(&self.dilate, y, d.ny, mask, 1);
            let [z0, z1] = plane_terms(&self.dilate, z, d.nz, mask, 1);
            let codes = separable_slots(
                plane_terms(&self.dilate, x, d.nx, mask, 1),
                [_mm256_slli_epi32::<1>(y0), _mm256_slli_epi32::<1>(y1)],
                [_mm256_slli_epi32::<2>(z0), _mm256_slli_epi32::<2>(z1)],
            );
            self.table.encode_lanes(codes, self.bits, mask)
        }
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
    /// `2^(2 * bits)`, counted with checked arithmetic in `new`.
    slots: usize,
}

impl Layout2 for HilbertOrder2 {
    const KIND: LayoutKind = LayoutKind::Hilbert;

    fn new(dims: Dims2) -> Self {
        let bits = bits_for(dims.nx.max(dims.ny));
        let slots = or_panic(padded_slots(
            1usize.checked_shl(2 * bits),
            "HilbertOrder2 padded slot count 2^(2 * bits)",
        ));
        Self { dims, bits, slots }
    }

    #[inline]
    fn dims(&self) -> Dims2 {
        self.dims
    }

    #[inline]
    fn storage_len(&self) -> usize {
        self.slots
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
    use crate::error::SfcError;

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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_slots_match_cell_slots_at_orders_0_to_10() {
        use crate::lanes::probe;
        use crate::rng::SplitMix64;
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = SplitMix64::new(0x51_07_1a_e5);
        for bits in 0..=10u32 {
            let n = 1usize << bits;
            // A cube and a box whose y and z faces clamp below the order.
            for dims in [Dims3::cube(n), Dims3::new(n, n.div_ceil(3), n / 2 + 1)] {
                let l = HilbertOrder3::new(dims);
                assert_eq!(l.bits(), bits);
                let far = (dims.nx - 1, dims.ny - 1, dims.nz - 1);
                for round in 0..200 {
                    let mut cells: [(usize, usize, usize); 8] = std::array::from_fn(|_| {
                        let mut axis = |n: usize| rng.u64_below(n as u64) as usize;
                        (axis(dims.nx), axis(dims.ny), axis(dims.nz))
                    });
                    cells[round % 8] = far;
                    let mask = rng.next_u32() as u8;
                    // SAFETY: AVX2 was detected above; the cells lie
                    // inside `dims`, and 2^(3 * 10) slots fit an i32.
                    let got = unsafe { probe::slots(&l, &cells, mask) };
                    for lane in (0..8).filter(|lane| mask >> lane & 1 == 1) {
                        let (i, j, k) = cells[lane];
                        let want = l.cell_slots(i, j, k).map(|s| s as i32);
                        assert_eq!(got[lane], want, "order {bits} {dims:?} cell ({i},{j},{k})");
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn only_storage_of_at_most_2_pow_31_slots_takes_the_lane_slots() {
        use crate::layout::slots_fit_i32;
        // Neither builds a grid: 2048 x 1 x 1 in Hilbert order pads to
        // 2^33 slots from a 2048-entry dilation table, and array order's
        // three tables hold about 4,000 entries here.
        let wide = HilbertOrder3::new(Dims3::new(2048, 1, 1));
        assert_eq!(wide.storage_len(), 1 << 33);
        assert!(wide.cell_slots(2047, 0, 0)[0] > i32::MAX as usize);
        assert!(!slots_fit_i32(&wide));
        assert!(slots_fit_i32(&HilbertOrder3::new(Dims3::new(1024, 1, 1))));
        let array = |nx| crate::layouts::ArrayOrder3::new(Dims3::new(nx, 1 << 10, 1 << 10));
        assert!(slots_fit_i32(&array(1 << 11)));
        assert!(!slots_fit_i32(&array((1 << 11) + 1)));
    }

    #[test]
    fn two_d_roundtrip() {
        let l = HilbertOrder2::new(Dims2::new(16, 9));
        for (i, j) in l.dims().iter() {
            assert_eq!(l.coords(l.index(i, j)), (i, j));
        }
        assert_eq!(l.storage_len(), 256);
    }

    #[test]
    fn two_d_padded_slot_count_fits_at_order_31() {
        // The layout only: a grid of 2^62 slots could not be allocated.
        let l = HilbertOrder2::new(Dims2::new(1 << 31, 1));
        assert_eq!(l.storage_len(), 1 << 62);
    }

    #[test]
    #[should_panic(expected = "size computation overflowed usize")]
    fn two_d_new_panics_when_the_slot_count_overflows() {
        // Order 33: 2^66 slots, more than a usize can count.
        HilbertOrder2::new(Dims2::new((1 << 32) + 1, 1));
    }
}
