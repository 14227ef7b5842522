//! Index cursors: a coordinate stepped one voxel at a time, with its
//! storage slot.
//!
//! The paper's §III-C reads every voxel through one table-driven
//! `get_index(i,j,k)`, so that index cost is the same across layouts, and
//! so does this crate: kernels read through [`Layout3::index`], axis runs
//! included ([`Volume3::gather_axis_run`](crate::Volume3::gather_axis_run)). A
//! [`Cursor3`] is that index behind a stepping interface. Its one
//! implementation, [`RecomputeCursor`], holds the logical coordinate and
//! recomputes `index()` on every step; [`Layout3::cursor`] returns one.
//! The benchmark ledger's `core.step_ns` probe walks it along every x and
//! z pencil, so the probe times one `index()` per step.
//!
//! Stepping outside the logical domain is a logic error: debug builds
//! panic on the first such step, release builds leave the coordinate
//! unspecified.

use crate::dims::Axis;
use crate::layout::Layout3;

/// A position inside a 3D layout's storage mapping, moved one voxel at a
/// time.
///
/// `inc_*` moves one voxel forward along an axis, `dec_*` one voxel
/// backward. The cursor does not bounds-check in release builds: callers
/// own the iteration domain. Debug builds assert every step stays inside
/// the logical domain.
pub trait Cursor3: Clone {
    /// Storage slot of the current position.
    fn index(&self) -> usize;

    /// Step `+1` along x.
    fn inc_x(&mut self);
    /// Step `-1` along x.
    fn dec_x(&mut self);
    /// Step `+1` along y.
    fn inc_y(&mut self);
    /// Step `-1` along y.
    fn dec_y(&mut self);
    /// Step `+1` along z.
    fn inc_z(&mut self);
    /// Step `-1` along z.
    fn dec_z(&mut self);

    /// Step one voxel along `axis`, forward (`true`) or backward.
    #[inline]
    fn step(&mut self, axis: Axis, forward: bool) {
        match (axis, forward) {
            (Axis::X, true) => self.inc_x(),
            (Axis::X, false) => self.dec_x(),
            (Axis::Y, true) => self.inc_y(),
            (Axis::Y, false) => self.dec_y(),
            (Axis::Z, true) => self.inc_z(),
            (Axis::Z, false) => self.dec_z(),
        }
    }
}

/// The cursor of every layout: stores the logical coordinate and re-runs
/// the layout's [`index`](Layout3::index) on every step, so a step costs
/// what a fresh index costs.
#[derive(Debug, Clone)]
pub struct RecomputeCursor<L: Layout3> {
    layout: L,
    i: usize,
    j: usize,
    k: usize,
    idx: usize,
}

impl<L: Layout3> RecomputeCursor<L> {
    /// Position a cursor at `(i,j,k)` (clones the layout handle; every
    /// layout here shares its tables through `Arc` or a `'static`, so
    /// this is cheap).
    pub fn new(layout: &L, i: usize, j: usize, k: usize) -> Self {
        let idx = layout.index(i, j, k);
        Self {
            layout: layout.clone(),
            i,
            j,
            k,
            idx,
        }
    }

    #[inline]
    fn refresh(&mut self) {
        self.idx = self.layout.index(self.i, self.j, self.k);
    }
}

impl<L: Layout3> Cursor3 for RecomputeCursor<L> {
    #[inline]
    fn index(&self) -> usize {
        self.idx
    }
    #[inline]
    fn inc_x(&mut self) {
        debug_assert!(self.i + 1 < self.layout.dims().nx, "cursor stepped past x extent");
        self.i += 1;
        self.refresh();
    }
    #[inline]
    fn dec_x(&mut self) {
        debug_assert!(self.i > 0, "cursor stepped below 0 along x");
        self.i -= 1;
        self.refresh();
    }
    #[inline]
    fn inc_y(&mut self) {
        debug_assert!(self.j + 1 < self.layout.dims().ny, "cursor stepped past y extent");
        self.j += 1;
        self.refresh();
    }
    #[inline]
    fn dec_y(&mut self) {
        debug_assert!(self.j > 0, "cursor stepped below 0 along y");
        self.j -= 1;
        self.refresh();
    }
    #[inline]
    fn inc_z(&mut self) {
        debug_assert!(self.k + 1 < self.layout.dims().nz, "cursor stepped past z extent");
        self.k += 1;
        self.refresh();
    }
    #[inline]
    fn dec_z(&mut self) {
        debug_assert!(self.k > 0, "cursor stepped below 0 along z");
        self.k -= 1;
        self.refresh();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dims3;
    use crate::layouts::{ArrayOrder3, HilbertOrder3, Tiled3, ZOrder3};

    /// Snake over the whole domain through `step`: x sweeps alternate
    /// direction, y walks back down after every z step and z walks back
    /// down at the end, so every move is a unit step in one of the six
    /// directions.
    fn walk_matches_index<L: Layout3>(dims: Dims3) {
        let l = L::new(dims);
        let mut c = l.cursor(0, 0, 0);
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        assert_eq!(c.index(), l.index(0, 0, 0));
        loop {
            let forward = (j + k) % 2 == 0;
            let done_row = if forward { i + 1 == dims.nx } else { i == 0 };
            if !done_row {
                c.step(Axis::X, forward);
                if forward {
                    i += 1;
                } else {
                    i -= 1;
                }
            } else if j + 1 < dims.ny {
                c.step(Axis::Y, true);
                j += 1;
            } else if k + 1 < dims.nz {
                c.step(Axis::Z, true);
                k += 1;
                while j > 0 {
                    c.step(Axis::Y, false);
                    j -= 1;
                    assert_eq!(c.index(), l.index(i, j, k));
                }
            } else {
                break;
            }
            assert_eq!(c.index(), l.index(i, j, k), "{:?} at ({i},{j},{k})", L::KIND);
        }
        while k > 0 {
            c.step(Axis::Z, false);
            k -= 1;
            assert_eq!(c.index(), l.index(i, j, k));
        }
    }

    #[test]
    fn every_layout_cursor_walk_matches_index() {
        let dims = Dims3::new(9, 4, 3);
        walk_matches_index::<ArrayOrder3>(dims);
        walk_matches_index::<ZOrder3>(dims);
        walk_matches_index::<Tiled3>(dims);
        walk_matches_index::<HilbertOrder3>(dims);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cursor stepped below 0 along x")]
    fn stepping_out_of_the_domain_panics_in_debug_builds() {
        let l = ZOrder3::new(Dims3::cube(4));
        let mut c = l.cursor(0, 2, 2);
        c.dec_x();
    }
}
