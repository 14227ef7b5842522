//! Traditional array order (row-major): `i` fastest, then `j`, then `k`,
//! with no padding.
//!
//! Following the paper's §III-C, array order reads through the same
//! table-lookup machinery as Z-order to put index-computation cost on equal
//! footing. It is a [`Separable3`] order whose terms are `i`, `j * nx` and
//! `k * nx * ny`: three lookups and two adds, where the paper's
//! `i + yoffset[j] + zoffset[k]` takes two lookups (DESIGN.md §5.8).

use crate::dims::Dims3;
use crate::error::SfcResult;
use crate::layout::{padded_slots, LayoutKind};

use super::separable::{Separable2, Separable3, SeparableOrder};

/// Row-major 3D layout (`i` fastest, then `j`, then `k`). Zero padding.
pub type ArrayOrder3 = Separable3<RowMajor>;

/// Row-major 2D layout (`i` fastest). Zero padding.
pub type ArrayOrder2 = Separable2<RowMajor>;

/// Array order's terms: each coordinate times its axis's row-major stride.
#[derive(Debug, Clone)]
pub struct RowMajor {
    nx: usize,
    ny: usize,
}

impl SeparableOrder for RowMajor {
    const KIND: LayoutKind = LayoutKind::ArrayOrder;

    fn plan(dims: Dims3) -> SfcResult<(Self, usize)> {
        let slots = padded_slots(Some(dims.len()), "array order slot count nx*ny*nz")?;
        Ok((
            Self {
                nx: dims.nx,
                ny: dims.ny,
            },
            slots,
        ))
    }

    fn term(&self, axis: usize, c: usize) -> usize {
        c * [1, self.nx, self.nx * self.ny][axis]
    }

    fn coords(&self, index: usize) -> (usize, usize, usize) {
        let (nx, ny) = (self.nx, self.ny);
        (index % nx, index / nx % ny, index / (nx * ny))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dims2;
    use crate::error::SfcError;
    use crate::layout::{Layout2, Layout3};

    #[test]
    fn index_is_row_major() {
        let l = ArrayOrder3::new(Dims3::new(4, 3, 2));
        assert_eq!(l.index(0, 0, 0), 0);
        assert_eq!(l.index(1, 0, 0), 1);
        assert_eq!(l.index(0, 1, 0), 4);
        assert_eq!(l.index(0, 0, 1), 12);
        assert_eq!(l.index(3, 2, 1), 23);
        assert_eq!(l.storage_len(), 24);
        assert_eq!(l.padding_overhead(), 0.0);
    }

    #[test]
    fn coords_inverts_index() {
        let l = ArrayOrder3::new(Dims3::new(5, 7, 3));
        for (i, j, k) in l.dims().iter() {
            assert_eq!(l.coords(l.index(i, j, k)), (i, j, k));
        }
    }

    #[test]
    fn x_neighbors_are_adjacent_y_neighbors_are_nx_apart() {
        // The paper's motivating example: A[i,j] and A[i+1,j] adjacent;
        // A[i,j] and A[i,j+1] a full row apart.
        let l = ArrayOrder3::new(Dims3::new(1024, 1024, 1));
        assert_eq!(l.index(11, 5, 0) + 1, l.index(12, 5, 0));
        assert_eq!(l.index(11, 6, 0) - l.index(11, 5, 0), 1024);
    }

    #[test]
    fn two_d_layout() {
        let l = ArrayOrder2::new(Dims2::new(8, 4));
        assert_eq!(l.index(3, 2), 19);
        assert_eq!(l.coords(19), (3, 2));
        assert_eq!(l.storage_len(), 32);
    }

    #[test]
    fn slot_count_past_isize_max_is_refused() {
        // 2^63 voxels fit a usize but no buffer: refused before the
        // 3 * 2^21-entry tables are built.
        let err = ArrayOrder3::try_new(Dims3::cube(1 << 21)).unwrap_err();
        assert!(matches!(err, SfcError::SizeOverflow { .. }), "{err}");
    }
}
