//! Blocked/tiled layout — the third comparator from Pascucci & Frank 2001.
//!
//! The domain is cut into fixed-size bricks; bricks are stored contiguously
//! in row-major brick order and elements inside a brick are row-major too.
//! Like the other layouts it is accessed through per-axis tables: each axis
//! contributes `(c % t) * intra_stride + (c / t) * brick_stride`
//! additively, so `index(i,j,k)` is the [`Separable3`] sum of three
//! lookups.
//!
//! Dimensions are padded up to whole bricks.

use crate::dims::{Dims2, Dims3};
use crate::error::SfcResult;
use crate::layout::{padded_slots, LayoutKind};

use super::separable::{Separable2, Separable3, SeparableOrder};

/// Default brick edge for 3D tiles: 8³ f32 elements = 2 KiB, a cache-friendly
/// compromise used when constructing via `Layout3::new`.
pub const DEFAULT_BRICK_3D: (usize, usize, usize) = (8, 8, 8);

/// Default tile for 2D: 32×32 f32 = 4 KiB.
pub const DEFAULT_TILE_2D: (usize, usize) = (32, 32);

/// Tiled/blocked 3D layout in [`DEFAULT_BRICK_3D`] bricks.
pub type Tiled3 = Separable3<Bricked>;

/// Tiled 2D layout in [`DEFAULT_TILE_2D`] tiles: the 3D layout of an
/// `nx × ny × 1` grid in bricks one voxel deep.
pub type Tiled2 = Separable2<Bricked>;

/// Tiled order's terms: a coordinate's offset inside its brick plus its
/// brick's offset in the brick grid, both row-major.
#[derive(Debug, Clone)]
pub struct Bricked {
    /// Brick extent per axis.
    brick: [usize; 3],
    /// Bricks per axis.
    bricks: [usize; 3],
}

impl Bricked {
    /// Tiled order of `dims` in bricks of `brick` voxels, and its padded
    /// slot count.
    ///
    /// # Panics
    /// Panics if any brick extent is zero.
    fn with_brick(dims: Dims3, brick: (usize, usize, usize)) -> SfcResult<(Self, usize)> {
        let brick = [brick.0, brick.1, brick.2];
        assert!(
            brick.iter().all(|&b| b > 0),
            "brick extents must be non-zero"
        );
        let extents = [dims.nx, dims.ny, dims.nz];
        let bricks: [usize; 3] = std::array::from_fn(|a| extents[a].div_ceil(brick[a]));
        let slots = bricks
            .iter()
            .chain(&brick)
            .try_fold(1usize, |n, &m| n.checked_mul(m));
        let slots = padded_slots(slots, "tiled order padded slot count, whole bricks")?;
        Ok((Self { brick, bricks }, slots))
    }
}

impl SeparableOrder for Bricked {
    const KIND: LayoutKind = LayoutKind::Tiled;

    fn plan(dims: Dims3) -> SfcResult<(Self, usize)> {
        Self::with_brick(dims, DEFAULT_BRICK_3D)
    }

    fn plan_2d(dims: Dims2) -> SfcResult<(Self, usize)> {
        let (tx, ty) = DEFAULT_TILE_2D;
        Self::with_brick(Dims3::new(dims.nx, dims.ny, 1), (tx, ty, 1))
    }

    fn term(&self, axis: usize, c: usize) -> usize {
        let ([bx, by, bz], [nbx, nby, _]) = (self.brick, self.bricks);
        let intra_stride = [1, bx, bx * by][axis];
        let brick_stride = [1, nbx, nbx * nby][axis] * bx * by * bz;
        c % self.brick[axis] * intra_stride + c / self.brick[axis] * brick_stride
    }

    fn coords(&self, index: usize) -> (usize, usize, usize) {
        let ([bx, by, bz], [nbx, nby, _]) = (self.brick, self.bricks);
        let (b, r) = (index / (bx * by * bz), index % (bx * by * bz));
        (
            b % nbx * bx + r % bx,
            b / nbx % nby * by + r / bx % by,
            b / (nbx * nby) * bz + r / (bx * by),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SfcError;
    use crate::layout::{Layout2, Layout3};

    /// Tiled order of `dims` in bricks of `brick` voxels.
    fn with_brick(dims: Dims3, brick: (usize, usize, usize)) -> Tiled3 {
        Tiled3::build(dims, Bricked::with_brick(dims, brick).unwrap())
    }

    #[test]
    fn exact_brick_fit_has_no_padding() {
        let l = with_brick(Dims3::new(16, 16, 16), (4, 4, 4));
        assert_eq!(l.storage_len(), 16 * 16 * 16);
        assert_eq!(l.padding_overhead(), 0.0);
    }

    #[test]
    fn intra_brick_is_row_major() {
        let l = with_brick(Dims3::new(8, 8, 8), (4, 4, 4));
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
        let l = with_brick(Dims3::new(10, 6, 7), (4, 4, 4));
        for (i, j, k) in l.dims().iter() {
            assert_eq!(l.coords(l.index(i, j, k)), (i, j, k), "at ({i},{j},{k})");
        }
    }

    #[test]
    fn indices_unique_and_in_range() {
        let l = with_brick(Dims3::new(9, 9, 9), (4, 4, 4));
        let mut seen = std::collections::HashSet::new();
        for (i, j, k) in l.dims().iter() {
            let m = l.index(i, j, k);
            assert!(m < l.storage_len());
            assert!(seen.insert(m));
        }
    }

    #[test]
    fn padding_for_partial_bricks() {
        let l = with_brick(Dims3::new(9, 4, 4), (4, 4, 4));
        // 3 bricks along x, 1 along y and z => 3*64 = 192 slots for 144 cells.
        assert_eq!(l.storage_len(), 192);
    }

    #[test]
    fn two_d_tiled_roundtrip() {
        let l = Tiled2::new(Dims2::new(33, 17));
        assert_eq!(l.storage_len(), 2 * 32 * 32);
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
        with_brick(Dims3::cube(8), (0, 4, 4));
    }

    #[test]
    fn padded_slot_count_never_wraps() {
        // Just under 2^64 voxels is valid, but whole 8^3 bricks pad it to
        // 2^64 + 2^45 - 2^28 - 512 slots, which wrapped to about 2^45
        // after 64 MiB of tables were built. The count is checked first.
        let dims = Dims3::new((1 << 22) + 1, (1 << 21) + 1, (1 << 21) - 9);
        let err = Tiled3::try_new(dims).unwrap_err();
        assert!(matches!(err, SfcError::SizeOverflow { .. }), "{err}");
        // 2^62 slots fit; 2^63 is past isize::MAX.
        let (_, slots) = Bricked::plan(Dims3::new(1 << 20, 1 << 21, 1 << 21)).unwrap();
        assert_eq!(slots, 1 << 62);
        let err = Bricked::plan(Dims3::cube(1 << 21)).unwrap_err();
        assert!(matches!(err, SfcError::SizeOverflow { .. }), "{err}");
    }
}
