//! Separable layouts: array order, Z-order and tiled order, whose storage
//! slot is a sum of three per-axis table terms.
//!
//! The paper reads array order and Z-order through the same kind of
//! per-axis lookup tables so that index cost is on equal footing (§III-C).
//! Here that footing is one implementation: [`Separable3`]'s index is
//! `tx[i] + ty[j] + tz[k]`, three lookups and two adds, for every order,
//! and each order is a small [`SeparableOrder`] that supplies the terms,
//! the padded slot count, its [`LayoutKind`] and the inverse map:
//!
//! * array order ([`RowMajor`](super::RowMajor)): `i`, `j * nx` and
//!   `k * nx * ny`. That is three lookups where the paper's array order
//!   takes two (`i + yoffset[j] + zoffset[k]`, DESIGN.md §1): the x term
//!   is a table too, so array order runs the same machine code as the
//!   others;
//! * Z-order ([`Interleaved`](super::Interleaved)): each coordinate's bits
//!   dilated to their places in an
//!   [`InterleavePattern3`](crate::pattern::InterleavePattern3). The three
//!   terms' bits are disjoint, so their sum is their OR, and every
//!   bit-interleaving order of the grid's bit planes is such a table set;
//! * tiled order ([`Bricked`](super::Bricked)): each coordinate's offset
//!   inside its brick plus its brick's offset in the brick grid.
//!
//! On x86_64 one `cell_slots_lanes` serves all three: six AVX2 gathers,
//! both planes of each axis's table, and twelve adds (DESIGN.md §5.7).
//! The 2D layouts, [`Separable2`], are the 3D layouts of an `nx × ny × 1`
//! grid.

use std::sync::Arc;

use crate::dims::{Dims2, Dims3};
use crate::error::SfcResult;
use crate::layout::{or_panic, Layout2, Layout3, LayoutKind};

/// One storage order of a [`Separable3`] layout: what differs between
/// array, Z and tiled order.
pub trait SeparableOrder: std::fmt::Debug + Clone + Send + Sync + 'static {
    /// The layout family.
    const KIND: LayoutKind;

    /// The order of `dims` and its padded slot count, counted with
    /// checked arithmetic before anything is built for it; or
    /// [`SfcError::SizeOverflow`](crate::SfcError::SizeOverflow) when that
    /// count passes `isize::MAX`.
    fn plan(dims: Dims3) -> SfcResult<(Self, usize)>;

    /// [`plan`](Self::plan) for the 2D layout of `dims`: by default the
    /// 3D order of an `nx × ny × 1` grid.
    fn plan_2d(dims: Dims2) -> SfcResult<(Self, usize)> {
        Self::plan(Dims3::new(dims.nx, dims.ny, 1))
    }

    /// The term coordinate `c` adds to a slot along `axis` (0 = x, 1 = y,
    /// 2 = z).
    fn term(&self, axis: usize, c: usize) -> usize;

    /// The coordinates of storage slot `index`, padding included.
    fn coords(&self, index: usize) -> (usize, usize, usize);
}

/// A 3D layout whose slot is the sum of three per-axis table terms, in the
/// order `O` ([`ArrayOrder3`](crate::ArrayOrder3),
/// [`ZOrder3`](crate::ZOrder3) or [`Tiled3`](crate::Tiled3)).
#[derive(Debug, Clone)]
pub struct Separable3<O> {
    dims: Dims3,
    /// `terms[a][c]` is [`SeparableOrder::term`]`(a, c)`, for every `c`
    /// below axis `a`'s extent.
    terms: [Arc<[usize]>; 3],
    storage_len: usize,
    order: O,
}

impl<O: SeparableOrder> Separable3<O> {
    /// The layout of `dims` in `order`, whose padded slot count
    /// `storage_len` [`SeparableOrder::plan`] checked: only now are the
    /// tables built.
    pub(super) fn build(dims: Dims3, (order, storage_len): (O, usize)) -> Self {
        let table = |axis: usize, n: usize| (0..n).map(|c| order.term(axis, c)).collect();
        let terms = [table(0, dims.nx), table(1, dims.ny), table(2, dims.nz)];
        Self {
            dims,
            terms,
            storage_len,
            order,
        }
    }
}

impl<O: SeparableOrder> Layout3 for Separable3<O> {
    const KIND: LayoutKind = O::KIND;

    fn try_new(dims: Dims3) -> SfcResult<Self> {
        O::plan(dims).map(|plan| Self::build(dims, plan))
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
        let [x, y, z] = &self.terms;
        x[i] + y[j] + z[k]
    }

    /// Six gathers, both planes of each axis's table, and twelve adds.
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
        let (d, [tx, ty, tz]) = (self.dims, &self.terms);
        // SAFETY: the caller runs AVX2 code and selects lanes whose cell
        // lies inside `dims`. The gathered indices are a selected lane's
        // low corner and its clamped high corner on each axis, below that
        // axis's extent, which is its table's length (`build`). Each slot
        // is `index()` of an in-bounds corner, below `storage_len() <=
        // 2^31` (the caller's contract), so every term and sum fits an i32
        // and each `usize` entry's low dword is its value.
        unsafe {
            separable_slots(
                plane_terms(tx, x, d.nx, mask, 0),
                plane_terms(ty, y, d.ny, mask, 0),
                plane_terms(tz, z, d.nz, mask, 0),
            )
        }
    }

    #[inline]
    fn coords(&self, index: usize) -> (usize, usize, usize) {
        debug_assert!(index < self.storage_len);
        self.order.coords(index)
    }
}

/// A 2D layout in the order `O`: the [`Separable3`] layout of an
/// `nx × ny × 1` grid ([`ArrayOrder2`](crate::ArrayOrder2),
/// [`ZOrder2`](crate::ZOrder2) or [`Tiled2`](crate::Tiled2)).
#[derive(Debug, Clone)]
pub struct Separable2<O> {
    dims: Dims2,
    plane: Separable3<O>,
}

impl<O: SeparableOrder> Layout2 for Separable2<O> {
    const KIND: LayoutKind = O::KIND;

    fn new(dims: Dims2) -> Self {
        let plan = or_panic(O::plan_2d(dims));
        Self {
            dims,
            plane: Separable3::build(Dims3::new(dims.nx, dims.ny, 1), plan),
        }
    }

    #[inline]
    fn dims(&self) -> Dims2 {
        self.dims
    }

    #[inline]
    fn storage_len(&self) -> usize {
        self.plane.storage_len
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        self.plane.index(i, j, 0)
    }

    #[inline]
    fn coords(&self, index: usize) -> (usize, usize) {
        let (i, j, _) = self.plane.coords(index);
        (i, j)
    }
}

#[cfg(test)]
mod tests {
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_slots_match_cell_slots() {
        use crate::dims::Dims3;
        use crate::lanes::probe;
        use crate::layout::Layout3;
        use crate::layouts::{ArrayOrder3, Tiled3, ZOrder3};
        use crate::rng::SplitMix64;

        fn check<L: Layout3>(dims: Dims3, rng: &mut SplitMix64) {
            let l = L::new(dims);
            let far = (dims.nx - 1, dims.ny - 1, dims.nz - 1);
            for round in 0..200 {
                let mut cells: [(usize, usize, usize); 8] = std::array::from_fn(|_| {
                    let mut axis = |n: usize| rng.u64_below(n as u64) as usize;
                    (axis(dims.nx), axis(dims.ny), axis(dims.nz))
                });
                cells[round % 8] = far;
                let mask = rng.next_u32() as u8;
                // SAFETY: AVX2 was detected by the caller; the cells lie
                // inside `dims`, whose slots fit an i32.
                let got = unsafe { probe::slots(&l, &cells, mask) };
                for lane in (0..8).filter(|lane| mask >> lane & 1 == 1) {
                    let (i, j, k) = cells[lane];
                    let want = l.cell_slots(i, j, k).map(|s| s as i32);
                    assert_eq!(got[lane], want, "{:?} {dims:?} cell ({i},{j},{k})", L::KIND);
                }
            }
        }

        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = SplitMix64::new(0x5e_9a_1a_b1);
        // 1-voxel axes, whose high corner clamps onto the low one, and
        // axes that Z-order pads to a power of two and tiled order to
        // whole bricks.
        let boxes = [
            Dims3::new(1, 1, 1),
            Dims3::new(1, 6, 1),
            Dims3::new(7, 1, 3),
            Dims3::new(2, 3, 1),
            Dims3::new(13, 7, 5),
            Dims3::new(17, 3, 9),
            Dims3::new(33, 17, 1),
            Dims3::cube(16),
        ];
        for dims in boxes {
            check::<ArrayOrder3>(dims, &mut rng);
            check::<ZOrder3>(dims, &mut rng);
            check::<Tiled3>(dims, &mut rng);
        }
    }
}
