//! Traditional array-order (row-major) layout with offset tables.
//!
//! Following the paper's §III-C, array order is implemented with the same
//! table-lookup machinery as Z-order to put index-computation cost on equal
//! footing: a `yoffset` table (`yoffset[j] = j*nx`) and a `zoffset` table
//! (`zoffset[k] = k*nx*ny`), so `index(i,j,k) = i + yoffset[j] + zoffset[k]`
//! is two lookups and two adds.

use std::sync::Arc;

use crate::dims::{Dims2, Dims3};
use crate::layout::{Layout2, Layout3, LayoutKind};

/// Row-major 3D layout (`i` fastest, then `j`, then `k`). Zero padding.
#[derive(Debug, Clone)]
pub struct ArrayOrder3 {
    dims: Dims3,
    yoffset: Arc<[usize]>,
    zoffset: Arc<[usize]>,
}

impl Layout3 for ArrayOrder3 {
    const KIND: LayoutKind = LayoutKind::ArrayOrder;

    fn new(dims: Dims3) -> Self {
        let yoffset: Arc<[usize]> = (0..dims.ny).map(|j| j * dims.nx).collect();
        let zoffset: Arc<[usize]> = (0..dims.nz).map(|k| k * dims.nx * dims.ny).collect();
        Self {
            dims,
            yoffset,
            zoffset,
        }
    }

    #[inline]
    fn dims(&self) -> Dims3 {
        self.dims
    }

    #[inline]
    fn storage_len(&self) -> usize {
        self.dims.len()
    }

    #[inline]
    fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(self.dims.contains(i, j, k));
        i + self.yoffset[j] + self.zoffset[k]
    }

    #[inline]
    fn coords(&self, index: usize) -> (usize, usize, usize) {
        debug_assert!(index < self.storage_len());
        let i = index % self.dims.nx;
        let j = (index / self.dims.nx) % self.dims.ny;
        let k = index / (self.dims.nx * self.dims.ny);
        (i, j, k)
    }
}

/// Row-major 2D layout (`i` fastest). Zero padding.
#[derive(Debug, Clone)]
pub struct ArrayOrder2 {
    dims: Dims2,
    yoffset: Arc<[usize]>,
}

impl Layout2 for ArrayOrder2 {
    const KIND: LayoutKind = LayoutKind::ArrayOrder;

    fn new(dims: Dims2) -> Self {
        let yoffset: Arc<[usize]> = (0..dims.ny).map(|j| j * dims.nx).collect();
        Self { dims, yoffset }
    }

    #[inline]
    fn dims(&self) -> Dims2 {
        self.dims
    }

    #[inline]
    fn storage_len(&self) -> usize {
        self.dims.len()
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(self.dims.contains(i, j));
        i + self.yoffset[j]
    }

    #[inline]
    fn coords(&self, index: usize) -> (usize, usize) {
        debug_assert!(index < self.storage_len());
        (index % self.dims.nx, index / self.dims.nx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
