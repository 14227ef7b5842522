//! Layout-generic grid containers.
//!
//! A [`Grid3<T, L>`] owns a linear backing buffer whose slot for logical
//! coordinate `(i,j,k)` is chosen by the layout parameter `L`. Application
//! code is written once against the grid API and is byte-for-byte identical
//! for array order and Z-order — the paper's "nearly transparent to the
//! application" property.

use crate::dims::{Dims2, Dims3};
use crate::error::{SfcError, SfcResult};
use crate::layout::{Layout2, Layout3};

/// A 3D grid of `T` stored according to layout `L`.
#[derive(Debug, Clone)]
pub struct Grid3<T, L: Layout3> {
    layout: L,
    data: Box<[T]>,
}

impl<T: Copy + Default, L: Layout3> Grid3<T, L> {
    /// Create a grid filled with `T::default()` (padding slots included).
    ///
    /// # Panics
    /// Panics with [`SfcError::SizeOverflow`]'s message when the padded
    /// storage cannot be addressed (see [`Grid3::try_from_row_major`]).
    pub fn new(dims: Dims3) -> Self {
        match Self::try_new(dims) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Grid3::new`], failing with [`SfcError::SizeOverflow`] when the
    /// layout's padded slot count ([`Layout3::try_new`]) or its size in
    /// bytes cannot be addressed, before anything is allocated for it.
    fn try_new(dims: Dims3) -> SfcResult<Self> {
        let layout = L::try_new(dims)?;
        layout
            .storage_len()
            .checked_mul(std::mem::size_of::<T>())
            .filter(|&bytes| bytes <= isize::MAX as usize)
            .ok_or(SfcError::SizeOverflow {
                what: "Grid3 storage bytes storage_len() * size_of::<T>()",
            })?;
        let data = vec![T::default(); layout.storage_len()].into_boxed_slice();
        Ok(Self { layout, data })
    }

    /// Create a grid by evaluating `f(i,j,k)` at every logical coordinate.
    pub fn from_fn(dims: Dims3, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let mut g = Self::new(dims);
        for (i, j, k) in dims.iter() {
            g.set(i, j, k, f(i, j, k));
        }
        g
    }

    /// Create a grid from a row-major element slice
    /// (`values[i + j*nx + k*nx*ny]`), validating the length — the entry
    /// point for data read from untrusted files. Dims whose padded storage
    /// cannot be addressed (a Hilbert axis above 2^20 voxels on 64-bit
    /// targets) give [`SfcError::SizeOverflow`].
    pub fn try_from_row_major(dims: Dims3, values: &[T]) -> SfcResult<Self> {
        if values.len() != dims.len() {
            return Err(SfcError::ShapeMismatch {
                what: "Grid3::from_row_major",
                expected: format!("{} elements for dims {dims:?}", dims.len()),
                actual: format!("{} elements", values.len()),
            });
        }
        let mut g = Self::try_new(dims)?;
        let mut it = values.iter();
        for (i, j, k) in dims.iter() {
            g.set(i, j, k, *it.next().expect("length checked above"));
        }
        Ok(g)
    }

    /// Create a grid from a row-major element slice.
    ///
    /// # Panics
    /// Panics where [`Grid3::try_from_row_major`] returns an error, such as
    /// `values.len() != dims.len()`; use it for untrusted inputs.
    pub fn from_row_major(dims: Dims3, values: &[T]) -> Self {
        match Self::try_from_row_major(dims, values) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }
}

impl<T, L: Layout3> Grid3<T, L> {
    /// The layout driving this grid's index computation.
    #[inline]
    pub fn layout(&self) -> &L {
        &self.layout
    }

    /// Logical dimensions.
    #[inline]
    pub fn dims(&self) -> Dims3 {
        self.layout.dims()
    }

    /// Storage slot for a logical coordinate (the paper's `getIndex`).
    #[inline]
    pub fn index_of(&self, i: usize, j: usize, k: usize) -> usize {
        self.layout.index(i, j, k)
    }

    /// Borrow the element at a logical coordinate.
    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> &T {
        &self.data[self.layout.index(i, j, k)]
    }

    /// Mutably borrow the element at a logical coordinate.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize, k: usize) -> &mut T {
        &mut self.data[self.layout.index(i, j, k)]
    }

    /// The raw backing buffer, including padding slots.
    #[inline]
    pub fn storage(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw backing buffer. Writing padding slots is harmless; they
    /// are never observed through the logical API.
    #[inline]
    pub fn storage_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Fraction of backing storage that is padding.
    pub fn padding_overhead(&self) -> f64 {
        self.layout.padding_overhead()
    }
}

impl<T: Copy, L: Layout3> Grid3<T, L> {
    /// Read the element at a logical coordinate.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> T {
        self.data[self.layout.index(i, j, k)]
    }

    /// Read with edge-clamped signed coordinates (stencil boundary rule).
    #[inline]
    pub fn get_clamped(&self, i: isize, j: isize, k: isize) -> T {
        let d = self.dims();
        let ci = i.clamp(0, d.nx as isize - 1) as usize;
        let cj = j.clamp(0, d.ny as isize - 1) as usize;
        let ck = k.clamp(0, d.nz as isize - 1) as usize;
        self.get(ci, cj, ck)
    }

    /// Write the element at a logical coordinate.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, value: T) {
        self.data[self.layout.index(i, j, k)] = value;
    }

    /// Overwrite every logical element (padding untouched).
    pub fn fill(&mut self, value: T) {
        for (i, j, k) in self.dims().iter() {
            self.set(i, j, k, value);
        }
    }

    /// Copy all logical elements out in row-major order.
    pub fn to_row_major(&self) -> Vec<T> {
        self.dims().iter().map(|(i, j, k)| self.get(i, j, k)).collect()
    }

    /// Re-lay the grid out under a different layout, preserving all logical
    /// elements. Padding slots of the destination are `value`-initialized
    /// from the source's default-constructed state only if `T: Default`;
    /// here they are simply left as written by `M`'s constructor.
    pub fn convert<M: Layout3>(&self) -> Grid3<T, M>
    where
        T: Default,
    {
        let mut dst = Grid3::<T, M>::new(self.dims());
        for (i, j, k) in self.dims().iter() {
            dst.set(i, j, k, self.get(i, j, k));
        }
        dst
    }

    /// Iterate logical elements with their coordinates in array order.
    pub fn iter_logical(&self) -> impl Iterator<Item = ((usize, usize, usize), T)> + '_ {
        self.dims().iter().map(move |(i, j, k)| ((i, j, k), self.get(i, j, k)))
    }

    /// Iterate logical elements in *storage* (curve) order, skipping padding.
    /// For Z-order this walks the Z curve; for array order it equals
    /// [`iter_logical`](Self::iter_logical).
    pub fn iter_storage_order(
        &self,
    ) -> impl Iterator<Item = ((usize, usize, usize), T)> + '_ {
        let dims = self.dims();
        (0..self.layout.storage_len()).filter_map(move |s| {
            let (i, j, k) = self.layout.coords(s);
            dims.contains(i, j, k).then(|| ((i, j, k), self.data[s]))
        })
    }
}

/// A 2D grid of `T` stored according to layout `L`.
#[derive(Debug, Clone)]
pub struct Grid2<T, L: Layout2> {
    layout: L,
    data: Box<[T]>,
}

impl<T: Copy + Default, L: Layout2> Grid2<T, L> {
    /// Create a grid filled with `T::default()`.
    pub fn new(dims: Dims2) -> Self {
        let layout = L::new(dims);
        let data = vec![T::default(); layout.storage_len()].into_boxed_slice();
        Self { layout, data }
    }

    /// Create a grid by evaluating `f(i,j)` at every logical coordinate.
    pub fn from_fn(dims: Dims2, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut g = Self::new(dims);
        for (i, j) in dims.iter() {
            g.set(i, j, f(i, j));
        }
        g
    }

    /// Create a grid from a row-major element slice, validating the length.
    pub fn try_from_row_major(dims: Dims2, values: &[T]) -> SfcResult<Self> {
        if values.len() != dims.len() {
            return Err(SfcError::ShapeMismatch {
                what: "Grid2::from_row_major",
                expected: format!("{} elements for dims {dims:?}", dims.len()),
                actual: format!("{} elements", values.len()),
            });
        }
        let mut g = Self::new(dims);
        let mut it = values.iter();
        for (i, j) in dims.iter() {
            g.set(i, j, *it.next().expect("length checked above"));
        }
        Ok(g)
    }

    /// Create a grid from a row-major element slice.
    ///
    /// # Panics
    /// Panics if `values.len() != dims.len()`; use
    /// [`Grid2::try_from_row_major`] for untrusted inputs.
    pub fn from_row_major(dims: Dims2, values: &[T]) -> Self {
        match Self::try_from_row_major(dims, values) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }
}

impl<T, L: Layout2> Grid2<T, L> {
    /// The layout driving this grid's index computation.
    #[inline]
    pub fn layout(&self) -> &L {
        &self.layout
    }

    /// Logical dimensions.
    #[inline]
    pub fn dims(&self) -> Dims2 {
        self.layout.dims()
    }

    /// Storage slot for a logical coordinate.
    #[inline]
    pub fn index_of(&self, i: usize, j: usize) -> usize {
        self.layout.index(i, j)
    }

    /// The raw backing buffer, including padding slots.
    #[inline]
    pub fn storage(&self) -> &[T] {
        &self.data
    }
}

impl<T: Copy, L: Layout2> Grid2<T, L> {
    /// Read the element at a logical coordinate.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[self.layout.index(i, j)]
    }

    /// Write the element at a logical coordinate.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: T) {
        self.data[self.layout.index(i, j)] = value;
    }

    /// Read with edge-clamped signed coordinates.
    #[inline]
    pub fn get_clamped(&self, i: isize, j: isize) -> T {
        let d = self.dims();
        let ci = i.clamp(0, d.nx as isize - 1) as usize;
        let cj = j.clamp(0, d.ny as isize - 1) as usize;
        self.get(ci, cj)
    }

    /// Copy all logical elements out in row-major order.
    pub fn to_row_major(&self) -> Vec<T> {
        self.dims().iter().map(|(i, j)| self.get(i, j)).collect()
    }

    /// Re-lay the grid out under a different layout.
    pub fn convert<M: Layout2>(&self) -> Grid2<T, M>
    where
        T: Default,
    {
        let mut dst = Grid2::<T, M>::new(self.dims());
        for (i, j) in self.dims().iter() {
            dst.set(i, j, self.get(i, j));
        }
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts::{ArrayOrder3, HilbertOrder3, Tiled3, ZOrder2, ZOrder3};
    use crate::layouts::ArrayOrder2;

    fn ramp(i: usize, j: usize, k: usize) -> f32 {
        (i + 10 * j + 100 * k) as f32
    }

    #[test]
    fn from_fn_get_roundtrip_all_layouts() {
        let dims = Dims3::new(6, 5, 4);
        macro_rules! check {
            ($L:ty) => {
                let g = Grid3::<f32, $L>::from_fn(dims, ramp);
                for (i, j, k) in dims.iter() {
                    assert_eq!(g.get(i, j, k), ramp(i, j, k));
                }
            };
        }
        check!(ArrayOrder3);
        check!(ZOrder3);
        check!(Tiled3);
        check!(HilbertOrder3);
    }

    #[test]
    fn row_major_roundtrip() {
        let dims = Dims3::new(3, 4, 5);
        let values: Vec<f32> = (0..dims.len()).map(|v| v as f32).collect();
        let g = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        assert_eq!(g.to_row_major(), values);
    }

    #[test]
    fn convert_preserves_logical_content() {
        let dims = Dims3::new(7, 9, 3);
        let a = Grid3::<f32, ArrayOrder3>::from_fn(dims, ramp);
        let z: Grid3<f32, ZOrder3> = a.convert();
        let t: Grid3<f32, Tiled3> = z.convert();
        let back: Grid3<f32, ArrayOrder3> = t.convert();
        assert_eq!(a.to_row_major(), back.to_row_major());
    }

    #[test]
    fn array_order_storage_is_row_major() {
        let dims = Dims3::new(2, 2, 2);
        let g = Grid3::<f32, ArrayOrder3>::from_fn(dims, ramp);
        assert_eq!(
            g.storage(),
            &[0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0]
        );
    }

    #[test]
    fn zorder_storage_is_morton_order() {
        let dims = Dims3::new(2, 2, 2);
        let g = Grid3::<f32, ZOrder3>::from_fn(dims, ramp);
        // Morton order: (0,0,0) (1,0,0) (0,1,0) (1,1,0) (0,0,1) ...
        assert_eq!(
            g.storage(),
            &[0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0]
        );
        // For the 2-cube, morton order happens to equal row-major order.
        // Use a 4-wide grid to see an actual difference:
        let dims = Dims3::new(4, 2, 1);
        let g = Grid3::<f32, ZOrder3>::from_fn(dims, ramp);
        // Z order visits (0,0) (1,0) (0,1) (1,1) (2,0) (3,0) (2,1) (3,1).
        assert_eq!(g.storage(), &[0.0, 1.0, 10.0, 11.0, 2.0, 3.0, 12.0, 13.0]);
    }

    #[test]
    fn get_clamped_at_edges() {
        let dims = Dims3::new(3, 3, 3);
        let g = Grid3::<f32, ArrayOrder3>::from_fn(dims, ramp);
        assert_eq!(g.get_clamped(-5, 1, 1), g.get(0, 1, 1));
        assert_eq!(g.get_clamped(1, 99, 1), g.get(1, 2, 1));
        assert_eq!(g.get_clamped(2, 2, -1), g.get(2, 2, 0));
    }

    #[test]
    fn iter_storage_order_covers_all_logical_cells() {
        let dims = Dims3::new(5, 3, 2); // padded under z-order
        let g = Grid3::<f32, ZOrder3>::from_fn(dims, ramp);
        let mut seen: Vec<_> = g.iter_storage_order().map(|(c, _)| c).collect();
        assert_eq!(seen.len(), dims.len());
        seen.sort_unstable();
        let mut expected: Vec<_> = dims.iter().collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn fill_overwrites_logical_cells() {
        let dims = Dims3::new(3, 5, 2);
        let mut g = Grid3::<f32, Tiled3>::from_fn(dims, ramp);
        g.fill(7.5);
        assert!(g.iter_logical().all(|(_, v)| v == 7.5));
    }

    #[test]
    #[should_panic]
    fn from_row_major_length_mismatch_panics() {
        Grid3::<f32, ArrayOrder3>::from_row_major(Dims3::cube(2), &[0.0; 7]);
    }

    #[test]
    fn try_from_row_major_is_typed() {
        use crate::error::SfcError;
        let err = Grid3::<f32, ArrayOrder3>::try_from_row_major(Dims3::cube(2), &[0.0; 7])
            .unwrap_err();
        assert!(matches!(err, SfcError::ShapeMismatch { .. }), "{err}");
        assert!(Grid3::<f32, ArrayOrder3>::try_from_row_major(Dims3::cube(2), &[0.0; 8]).is_ok());
        assert!(Grid2::<f32, ArrayOrder2>::try_from_row_major(Dims2::new(2, 2), &[0.0; 3]).is_err());
    }

    #[test]
    fn hilbert_storage_that_cannot_be_addressed_is_a_typed_error() {
        use crate::error::SfcError;
        // (2^22, 1, 1): 2^66 padded slots; (2^20 + 1, 1, 1): 2^63 slots,
        // 2^65 bytes of f32.
        for nx in [1usize << 22, (1 << 20) + 1] {
            let dims = Dims3::new(nx, 1, 1);
            let values = vec![0.0f32; nx];
            let err = Grid3::<f32, HilbertOrder3>::try_from_row_major(dims, &values).unwrap_err();
            assert!(matches!(err, SfcError::SizeOverflow { .. }), "{nx}: {err}");
        }
        // 2^60 slots pass the layout's check; 2^63 bytes of f64 do not.
        let nx = 1usize << 20;
        let values = vec![0.0f64; nx];
        let err = Grid3::<f64, HilbertOrder3>::try_from_row_major(Dims3::new(nx, 1, 1), &values)
            .unwrap_err();
        assert!(matches!(err, SfcError::SizeOverflow { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "size computation overflowed usize")]
    fn from_row_major_panics_with_the_overflow_message() {
        let nx = (1usize << 20) + 1;
        Grid3::<f32, HilbertOrder3>::from_row_major(Dims3::new(nx, 1, 1), &vec![0.0; nx]);
    }

    #[test]
    fn grid2_roundtrip_and_convert() {
        let dims = Dims2::new(9, 5);
        let a = Grid2::<f32, ArrayOrder2>::from_fn(dims, |i, j| (i * 100 + j) as f32);
        let z: Grid2<f32, ZOrder2> = a.convert();
        for (i, j) in dims.iter() {
            assert_eq!(z.get(i, j), a.get(i, j));
        }
        assert_eq!(z.to_row_major(), a.to_row_major());
        assert_eq!(z.get_clamped(-3, 100), a.get(0, 4));
    }
}
