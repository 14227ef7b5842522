//! Blocked/tiled layout — the third comparator from Pascucci & Frank 2001.
//!
//! The domain is cut into fixed-size bricks; bricks are stored contiguously
//! in row-major brick order and elements inside a brick are row-major too.
//! Like the other layouts it is accessed through per-axis tables: each axis
//! contributes `(c % t) * intra_stride + (c / t) * brick_stride`
//! additively, so `index(i,j,k)` is three lookups and two adds.
//!
//! Dimensions are padded up to whole bricks.

use std::sync::Arc;

use crate::dims::{Dims2, Dims3};
use crate::layout::{Layout2, Layout3, LayoutKind};

/// Default brick edge for 3D tiles: 8³ f32 elements = 2 KiB, a cache-friendly
/// compromise used when constructing via `Layout3::new`.
pub const DEFAULT_BRICK_3D: (usize, usize, usize) = (8, 8, 8);

/// Default tile for 2D: 32×32 f32 = 4 KiB.
pub const DEFAULT_TILE_2D: (usize, usize) = (32, 32);

fn div_round_up(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Tiled/blocked 3D layout with per-axis contribution tables.
#[derive(Debug, Clone)]
pub struct Tiled3 {
    dims: Dims3,
    brick: (usize, usize, usize),
    xtab: Arc<[usize]>,
    ytab: Arc<[usize]>,
    ztab: Arc<[usize]>,
    storage_len: usize,
    /// Bricks per axis (for inverse mapping).
    nbricks: (usize, usize, usize),
}

impl Tiled3 {
    /// Construct with an explicit brick shape.
    ///
    /// # Panics
    /// Panics if any brick extent is zero.
    pub fn with_brick(dims: Dims3, brick: (usize, usize, usize)) -> Self {
        let (tx, ty, tz) = brick;
        assert!(tx > 0 && ty > 0 && tz > 0, "brick extents must be non-zero");
        let nbx = div_round_up(dims.nx, tx);
        let nby = div_round_up(dims.ny, ty);
        let nbz = div_round_up(dims.nz, tz);
        let brick_vol = tx * ty * tz;
        // Per-axis additive contributions: intra-brick offset is row-major
        // within the brick; bricks are row-major over the brick grid.
        let xtab: Arc<[usize]> = (0..dims.nx)
            .map(|i| (i % tx) + (i / tx) * brick_vol)
            .collect();
        let ytab: Arc<[usize]> = (0..dims.ny)
            .map(|j| (j % ty) * tx + (j / ty) * nbx * brick_vol)
            .collect();
        let ztab: Arc<[usize]> = (0..dims.nz)
            .map(|k| (k % tz) * tx * ty + (k / tz) * nbx * nby * brick_vol)
            .collect();
        Self {
            dims,
            brick,
            xtab,
            ytab,
            ztab,
            storage_len: nbx * nby * nbz * brick_vol,
            nbricks: (nbx, nby, nbz),
        }
    }

    /// The brick shape in elements.
    pub fn brick(&self) -> (usize, usize, usize) {
        self.brick
    }
}

impl Layout3 for Tiled3 {
    const KIND: LayoutKind = LayoutKind::Tiled;

    fn new(dims: Dims3) -> Self {
        Self::with_brick(dims, DEFAULT_BRICK_3D)
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
        self.xtab[i] + self.ytab[j] + self.ztab[k]
    }

    #[inline]
    fn coords(&self, index: usize) -> (usize, usize, usize) {
        debug_assert!(index < self.storage_len);
        let (tx, ty, tz) = self.brick;
        let (nbx, nby, _) = self.nbricks;
        let brick_vol = tx * ty * tz;
        let b = index / brick_vol;
        let r = index % brick_vol;
        let (bi, bj, bk) = (b % nbx, (b / nbx) % nby, b / (nbx * nby));
        let (ri, rj, rk) = (r % tx, (r / tx) % ty, r / (tx * ty));
        (bi * tx + ri, bj * ty + rj, bk * tz + rk)
    }
}

/// Tiled 2D layout with per-axis contribution tables.
#[derive(Debug, Clone)]
pub struct Tiled2 {
    dims: Dims2,
    tile: (usize, usize),
    xtab: Arc<[usize]>,
    ytab: Arc<[usize]>,
    storage_len: usize,
    ntiles_x: usize,
}

impl Tiled2 {
    /// Construct with an explicit tile shape.
    ///
    /// # Panics
    /// Panics if any tile extent is zero.
    pub fn with_tile(dims: Dims2, tile: (usize, usize)) -> Self {
        let (tx, ty) = tile;
        assert!(tx > 0 && ty > 0, "tile extents must be non-zero");
        let ntx = div_round_up(dims.nx, tx);
        let nty = div_round_up(dims.ny, ty);
        let tile_area = tx * ty;
        let xtab: Arc<[usize]> = (0..dims.nx)
            .map(|i| (i % tx) + (i / tx) * tile_area)
            .collect();
        let ytab: Arc<[usize]> = (0..dims.ny)
            .map(|j| (j % ty) * tx + (j / ty) * ntx * tile_area)
            .collect();
        Self {
            dims,
            tile,
            xtab,
            ytab,
            storage_len: ntx * nty * tile_area,
            ntiles_x: ntx,
        }
    }

    /// The tile shape in elements.
    pub fn tile(&self) -> (usize, usize) {
        self.tile
    }
}

impl Layout2 for Tiled2 {
    const KIND: LayoutKind = LayoutKind::Tiled;

    fn new(dims: Dims2) -> Self {
        Self::with_tile(dims, DEFAULT_TILE_2D)
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
        self.xtab[i] + self.ytab[j]
    }

    #[inline]
    fn coords(&self, index: usize) -> (usize, usize) {
        debug_assert!(index < self.storage_len);
        let (tx, ty) = self.tile;
        let tile_area = tx * ty;
        let t = index / tile_area;
        let r = index % tile_area;
        let (ti, tj) = (t % self.ntiles_x, t / self.ntiles_x);
        (ti * tx + r % tx, tj * ty + r / tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_brick_fit_has_no_padding() {
        let l = Tiled3::with_brick(Dims3::new(16, 16, 16), (4, 4, 4));
        assert_eq!(l.storage_len(), 16 * 16 * 16);
        assert_eq!(l.padding_overhead(), 0.0);
    }

    #[test]
    fn intra_brick_is_row_major() {
        let l = Tiled3::with_brick(Dims3::new(8, 8, 8), (4, 4, 4));
        let base = l.index(0, 0, 0);
        assert_eq!(base, 0);
        assert_eq!(l.index(1, 0, 0), 1);
        assert_eq!(l.index(0, 1, 0), 4);
        assert_eq!(l.index(0, 0, 1), 16);
        // First element of the next brick along x starts after a full brick.
        assert_eq!(l.index(4, 0, 0), 64);
    }

    #[test]
    fn coords_inverts_index() {
        let l = Tiled3::with_brick(Dims3::new(10, 6, 7), (4, 4, 4));
        for (i, j, k) in l.dims().iter() {
            assert_eq!(l.coords(l.index(i, j, k)), (i, j, k), "at ({i},{j},{k})");
        }
    }

    #[test]
    fn indices_unique_and_in_range() {
        let l = Tiled3::with_brick(Dims3::new(9, 9, 9), (4, 4, 4));
        let mut seen = std::collections::HashSet::new();
        for (i, j, k) in l.dims().iter() {
            let m = l.index(i, j, k);
            assert!(m < l.storage_len());
            assert!(seen.insert(m));
        }
    }

    #[test]
    fn padding_for_partial_bricks() {
        let l = Tiled3::with_brick(Dims3::new(9, 4, 4), (4, 4, 4));
        // 3 bricks along x, 1 along y and z => 3*64 = 192 slots for 144 cells.
        assert_eq!(l.storage_len(), 192);
    }

    #[test]
    fn two_d_tiled_roundtrip() {
        let l = Tiled2::with_tile(Dims2::new(33, 17), (8, 8));
        let mut seen = std::collections::HashSet::new();
        for (i, j) in l.dims().iter() {
            let m = l.index(i, j);
            assert!(m < l.storage_len());
            assert!(seen.insert(m));
            assert_eq!(l.coords(m), (i, j));
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_brick_panics() {
        Tiled3::with_brick(Dims3::cube(8), (0, 4, 4));
    }
}
