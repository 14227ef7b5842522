//! Runtime-selected layouts: a grid whose layout is chosen by a
//! [`LayoutKind`] value instead of a type parameter.
//!
//! The statically-typed [`Grid3<T, L>`](crate::Grid3) is the fast path —
//! kernels monomorphize per layout with zero dispatch cost. CLI tools and
//! experiment drivers, however, often take the layout as a runtime flag;
//! [`DynGrid3`] wraps the four layouts behind one enum (enum dispatch, no
//! boxing) and implements [`Volume3`] so kernels accept it directly.

use crate::dims::Dims3;
use crate::grid::Grid3;
use crate::layout::LayoutKind;
use crate::layouts::{ArrayOrder3, HilbertOrder3, Tiled3, ZOrder3};
use crate::volume::Volume3;

/// An `f32` grid whose layout family is selected at runtime.
#[derive(Debug, Clone)]
pub enum DynGrid3 {
    /// Row-major array order.
    ArrayOrder(Grid3<f32, ArrayOrder3>),
    /// Z-order / Morton.
    ZOrder(Grid3<f32, ZOrder3>),
    /// Blocked/tiled.
    Tiled(Grid3<f32, Tiled3>),
    /// Hilbert order.
    Hilbert(Grid3<f32, HilbertOrder3>),
}

macro_rules! dispatch {
    ($self:expr, $g:ident => $body:expr) => {
        match $self {
            DynGrid3::ArrayOrder($g) => $body,
            DynGrid3::ZOrder($g) => $body,
            DynGrid3::Tiled($g) => $body,
            DynGrid3::Hilbert($g) => $body,
        }
    };
}

impl DynGrid3 {
    /// Build a grid of the requested layout from row-major values.
    pub fn from_row_major(kind: LayoutKind, dims: Dims3, values: &[f32]) -> Self {
        match kind {
            LayoutKind::ArrayOrder => {
                DynGrid3::ArrayOrder(Grid3::from_row_major(dims, values))
            }
            LayoutKind::ZOrder => DynGrid3::ZOrder(Grid3::from_row_major(dims, values)),
            LayoutKind::Tiled => DynGrid3::Tiled(Grid3::from_row_major(dims, values)),
            LayoutKind::Hilbert => DynGrid3::Hilbert(Grid3::from_row_major(dims, values)),
        }
    }

    /// Which layout family this grid uses.
    pub fn kind(&self) -> LayoutKind {
        match self {
            DynGrid3::ArrayOrder(_) => LayoutKind::ArrayOrder,
            DynGrid3::ZOrder(_) => LayoutKind::ZOrder,
            DynGrid3::Tiled(_) => LayoutKind::Tiled,
            DynGrid3::Hilbert(_) => LayoutKind::Hilbert,
        }
    }

    /// Logical dimensions.
    pub fn dims(&self) -> Dims3 {
        dispatch!(self, g => g.dims())
    }

    /// Read one element.
    pub fn get(&self, i: usize, j: usize, k: usize) -> f32 {
        dispatch!(self, g => g.get(i, j, k))
    }

    /// Write one element.
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f32) {
        dispatch!(self, g => g.set(i, j, k, v))
    }

    /// Storage slot for a coordinate under this grid's layout.
    pub fn index_of(&self, i: usize, j: usize, k: usize) -> usize {
        dispatch!(self, g => g.index_of(i, j, k))
    }

    /// Number of backing-buffer slots (including padding).
    pub fn storage_len(&self) -> usize {
        dispatch!(self, g => g.storage().len())
    }

    /// Fraction of backing storage that is padding.
    pub fn padding_overhead(&self) -> f64 {
        dispatch!(self, g => g.padding_overhead())
    }

    /// Copy all logical elements out in row-major order.
    pub fn to_row_major(&self) -> Vec<f32> {
        dispatch!(self, g => g.to_row_major())
    }

    /// Re-lay out under another (runtime-selected) layout.
    pub fn convert(&self, kind: LayoutKind) -> DynGrid3 {
        let dims = self.dims();
        let values = self.to_row_major();
        DynGrid3::from_row_major(kind, dims, &values)
    }
}

impl Volume3 for DynGrid3 {
    fn dims(&self) -> Dims3 {
        DynGrid3::dims(self)
    }

    fn get(&self, i: usize, j: usize, k: usize) -> f32 {
        DynGrid3::get(self, i, j, k)
    }

    fn gather_axis_run(
        &self,
        i: usize,
        j: usize,
        k: usize,
        axis: crate::dims::Axis,
        dst: &mut [f32],
    ) {
        dispatch!(self, g => g.gather_axis_run(i, j, k, axis, dst))
    }

    fn cell_corners(&self, x0: usize, y0: usize, z0: usize) -> [f32; 8] {
        dispatch!(self, g => g.cell_corners(x0, y0, z0))
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
        // SAFETY: the caller's contract is the grid's.
        dispatch!(self, g => unsafe { g.cell_corners_lanes(x, y, z, mask) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(dims: Dims3) -> Vec<f32> {
        (0..dims.len()).map(|v| v as f32).collect()
    }

    #[test]
    fn all_kinds_roundtrip() {
        let dims = Dims3::new(5, 6, 7);
        let vals = values(dims);
        for kind in LayoutKind::ALL {
            let g = DynGrid3::from_row_major(kind, dims, &vals);
            assert_eq!(g.kind(), kind);
            assert_eq!(g.to_row_major(), vals, "{kind}");
            assert_eq!(g.get(2, 3, 4), vals[2 + 3 * 5 + 4 * 30]);
        }
    }

    #[test]
    fn convert_between_kinds() {
        let dims = Dims3::cube(6);
        let vals = values(dims);
        let a = DynGrid3::from_row_major(LayoutKind::ArrayOrder, dims, &vals);
        let z = a.convert(LayoutKind::ZOrder);
        assert_eq!(z.kind(), LayoutKind::ZOrder);
        assert_eq!(z.to_row_major(), vals);
        assert!(z.storage_len() >= dims.len());
    }

    #[test]
    fn set_and_get() {
        let dims = Dims3::cube(4);
        let mut g = DynGrid3::from_row_major(LayoutKind::Hilbert, dims, &values(dims));
        g.set(1, 2, 3, 99.5);
        assert_eq!(g.get(1, 2, 3), 99.5);
    }

    #[test]
    fn implements_volume3() {
        let dims = Dims3::cube(4);
        let g = DynGrid3::from_row_major(LayoutKind::Tiled, dims, &values(dims));
        let v: &dyn Volume3 = &g;
        assert_eq!(v.get(0, 0, 0), 0.0);
        assert_eq!(v.get_clamped(-1, 0, 0), 0.0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_fetch_matches_per_lane_cell_corners_in_every_kind() {
        use crate::lanes::probe;
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let dims = Dims3::new(5, 6, 7);
        let mut rng = crate::rng::SplitMix64::new(0xd1_6a);
        for kind in LayoutKind::ALL {
            let g = DynGrid3::from_row_major(kind, dims, &values(dims));
            for _ in 0..50 {
                let cells: [(usize, usize, usize); 8] = std::array::from_fn(|_| {
                    let mut axis = |n: usize| rng.u64_below(n as u64) as usize;
                    (axis(dims.nx), axis(dims.ny), axis(dims.nz))
                });
                let mask = rng.next_u32() as u8;
                // SAFETY: AVX2 was detected above; the cells lie inside
                // `dims`.
                let got = unsafe { probe::corners(&g, &cells, mask) };
                for (l, &(i, j, k)) in cells.iter().enumerate() {
                    let want = if mask >> l & 1 == 1 {
                        g.cell_corners(i, j, k)
                    } else {
                        [0.0; 8]
                    };
                    assert_eq!(got[l], want, "{kind} lane {l} cell ({i},{j},{k})");
                }
            }
        }
    }

    #[test]
    fn padding_only_where_expected() {
        let dims = Dims3::new(5, 5, 5);
        let a = DynGrid3::from_row_major(LayoutKind::ArrayOrder, dims, &values(dims));
        let z = DynGrid3::from_row_major(LayoutKind::ZOrder, dims, &values(dims));
        assert_eq!(a.padding_overhead(), 0.0);
        assert!(z.padding_overhead() > 0.0);
    }
}
