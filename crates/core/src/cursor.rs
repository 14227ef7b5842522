//! Incremental index cursors: O(1) unit steps through a layout.
//!
//! The paper's §III-C access interface recomputes the storage index from
//! scratch on every `get_index(i,j,k)` call — three table lookups and two
//! ORs for Z-order. That cost is "on equal footing" across layouts, but
//! stencil and sampling kernels pay it per *tap*: an 11³ bilateral stencil
//! issues 1,331 full index computations per voxel even though consecutive
//! taps differ by a single unit step.
//!
//! A [`Cursor3`] removes the redundancy: positioned once with
//! [`Layout3::cursor`](crate::Layout3::cursor), it moves to an axis neighbor in O(1) arithmetic
//! with **no table accesses**:
//!
//! * array order — strided add/subtract (`±1`, `±nx`, `±nx·ny`);
//! * Z-order — masked dilated-integer add/subtract over the axis bit
//!   masks of the interleave pattern (the classic Morton neighbor trick:
//!   set the other axes' bits to all-ones so the carry ripples only
//!   through this axis's bit positions; see Holzmüller, *Efficient
//!   Neighbor-Finding on Space-Filling Curves*);
//! * tiled — intra-brick strided add with a brick-boundary slow path
//!   (constant per-axis crossing delta, still O(1));
//! * Hilbert — no per-axis decomposition exists, but the recursive-descent
//!   automaton ([`crate::hilbert::HilbertTables3`]) makes unit steps
//!   amortized-O(1): only the bit planes below the highest carry bit are
//!   re-descended (Holzmüller, *Efficient Neighbor-Finding on
//!   Space-Filling Curves*). The old O(bits)-per-step
//!   [`RecomputeCursor`] is kept for ablation.
//!
//! Cursors are plain values (no allocation, no borrows), so kernels can
//! keep one per scan row and step it millions of times. Stepping outside
//! the logical domain is a logic error: the resulting index is
//! unspecified in release builds, while debug builds track the logical
//! coordinate alongside the storage index and panic on the first step
//! that leaves the domain — misuse fails loudly under `cargo test`
//! instead of producing a garbage-but-in-bounds index and silently wrong
//! reads.
//!
//! Every implementation upholds the walk invariant verified by the crate's
//! property tests: after any in-bounds sequence of unit steps from
//! `layout.cursor(i,j,k)`, `cursor.index() == layout.index(i',j',k')` for
//! the stepped-to coordinate.

use crate::dims::Axis;
#[cfg(debug_assertions)]
use crate::dims::Dims3;

/// Debug-build logical-coordinate tracker embedded in every cursor.
///
/// Release cursors carry only the storage index (and whatever strides
/// they need), so a miscomputed iteration domain would silently produce
/// a wrong-but-in-bounds index. Under `cfg(debug_assertions)` each cursor
/// also carries its logical `(i,j,k)` and the layout's dims, and every
/// step asserts it stays inside the domain.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy)]
struct DebugDomain {
    i: usize,
    j: usize,
    k: usize,
    dims: Dims3,
}

#[cfg(debug_assertions)]
impl DebugDomain {
    fn new((i, j, k): (usize, usize, usize), dims: Dims3) -> Self {
        assert!(
            dims.contains(i, j, k),
            "cursor positioned out of bounds at ({i},{j},{k}) in {dims:?}"
        );
        Self { i, j, k, dims }
    }

    #[track_caller]
    fn step(&mut self, axis: Axis, forward: bool) {
        let (coord, extent) = match axis {
            Axis::X => (&mut self.i, self.dims.nx),
            Axis::Y => (&mut self.j, self.dims.ny),
            Axis::Z => (&mut self.k, self.dims.nz),
        };
        if forward {
            assert!(
                *coord + 1 < extent,
                "cursor stepped past the {axis:?} extent {extent} (at {coord}) in {:?}",
                self.dims
            );
            *coord += 1;
        } else {
            assert!(
                *coord > 0,
                "cursor stepped below 0 along {axis:?} in {:?}",
                self.dims
            );
            *coord -= 1;
        }
    }
}

/// An incremental position inside a 3D layout's storage mapping.
///
/// `inc_*` moves one voxel forward along an axis, `dec_*` one voxel
/// backward; both are O(1) for every layout, amortized for Hilbert. The
/// cursor does not bounds-check in release builds — callers own the
/// iteration domain (kernels step only within rows they have verified
/// in-bounds); debug builds assert every step stays inside the logical
/// domain.
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

/// Cursor for [`crate::ArrayOrder3`]: pure strided arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct ArrayCursor3 {
    idx: usize,
    /// `nx` (y stride).
    sy: usize,
    /// `nx * ny` (z stride).
    sz: usize,
    #[cfg(debug_assertions)]
    dbg: DebugDomain,
}

impl ArrayCursor3 {
    pub(crate) fn new(
        idx: usize,
        sy: usize,
        sz: usize,
        pos: (usize, usize, usize),
        dims: crate::dims::Dims3,
    ) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = (pos, dims);
        Self {
            idx,
            sy,
            sz,
            #[cfg(debug_assertions)]
            dbg: DebugDomain::new(pos, dims),
        }
    }
}

impl Cursor3 for ArrayCursor3 {
    #[inline]
    fn index(&self) -> usize {
        self.idx
    }
    #[inline]
    fn inc_x(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::X, true);
        self.idx += 1;
    }
    #[inline]
    fn dec_x(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::X, false);
        self.idx -= 1;
    }
    #[inline]
    fn inc_y(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Y, true);
        self.idx += self.sy;
    }
    #[inline]
    fn dec_y(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Y, false);
        self.idx -= self.sy;
    }
    #[inline]
    fn inc_z(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Z, true);
        self.idx += self.sz;
    }
    #[inline]
    fn dec_z(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Z, false);
        self.idx -= self.sz;
    }
}

/// Cursor for [`crate::ZOrder3`]: masked dilated-integer arithmetic.
///
/// Holding the Morton code `m` and this axis's bit mask `M`, the neighbor
/// at `+1` along the axis is `(((m | !M) + 1) & M) | (m & !M)`: the
/// non-axis bits are forced to 1 so the binary carry ripples only through
/// the axis's (possibly non-contiguous) bit positions. `-1` is the dual
/// borrow form `(((m & M) - 1) & M) | (m & !M)`. Both are a handful of
/// ALU ops — no tables, no loops — and work for the generalized
/// round-robin interleave of rectangular domains because the trick only
/// needs the mask, not any particular bit spacing.
#[derive(Debug, Clone, Copy)]
pub struct ZCursor3 {
    idx: u64,
    mx: u64,
    my: u64,
    mz: u64,
    #[cfg(debug_assertions)]
    dbg: DebugDomain,
}

impl ZCursor3 {
    pub(crate) fn new(
        idx: u64,
        mx: u64,
        my: u64,
        mz: u64,
        pos: (usize, usize, usize),
        dims: crate::dims::Dims3,
    ) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = (pos, dims);
        Self {
            idx,
            mx,
            my,
            mz,
            #[cfg(debug_assertions)]
            dbg: DebugDomain::new(pos, dims),
        }
    }

    #[inline]
    fn inc(&mut self, mask: u64) {
        self.idx = (((self.idx | !mask).wrapping_add(1)) & mask) | (self.idx & !mask);
    }

    #[inline]
    fn dec(&mut self, mask: u64) {
        self.idx = (((self.idx & mask).wrapping_sub(1)) & mask) | (self.idx & !mask);
    }
}

impl Cursor3 for ZCursor3 {
    #[inline]
    fn index(&self) -> usize {
        self.idx as usize
    }
    #[inline]
    fn inc_x(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::X, true);
        self.inc(self.mx);
    }
    #[inline]
    fn dec_x(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::X, false);
        self.dec(self.mx);
    }
    #[inline]
    fn inc_y(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Y, true);
        self.inc(self.my);
    }
    #[inline]
    fn dec_y(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Y, false);
        self.dec(self.my);
    }
    #[inline]
    fn inc_z(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Z, true);
        self.inc(self.mz);
    }
    #[inline]
    fn dec_z(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Z, false);
        self.dec(self.mz);
    }
}

/// Cursor for [`crate::Tiled3`]: intra-brick strides with a constant
/// brick-crossing delta per axis.
///
/// Tracks the position *within* the current brick so the common case
/// (stay inside the brick) is a compare plus strided add; crossing a
/// brick boundary applies the precomputed jump to the same intra-brick
/// row of the adjacent brick. Both paths are O(1).
#[derive(Debug, Clone, Copy)]
pub struct TiledCursor3 {
    idx: usize,
    /// Intra-brick coordinates.
    ri: usize,
    rj: usize,
    rk: usize,
    /// Brick extents.
    tx: usize,
    ty: usize,
    tz: usize,
    /// Intra-brick strides along y and z (`tx`, `tx*ty`).
    sy: usize,
    sz: usize,
    /// Index delta when crossing a brick boundary forward along each axis.
    cross_x: usize,
    cross_y: usize,
    cross_z: usize,
    #[cfg(debug_assertions)]
    dbg: DebugDomain,
}

impl TiledCursor3 {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        idx: usize,
        (ri, rj, rk): (usize, usize, usize),
        (tx, ty, tz): (usize, usize, usize),
        (cross_x, cross_y, cross_z): (usize, usize, usize),
        pos: (usize, usize, usize),
        dims: crate::dims::Dims3,
    ) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = (pos, dims);
        Self {
            idx,
            ri,
            rj,
            rk,
            tx,
            ty,
            tz,
            sy: tx,
            sz: tx * ty,
            cross_x,
            cross_y,
            cross_z,
            #[cfg(debug_assertions)]
            dbg: DebugDomain::new(pos, dims),
        }
    }
}

impl Cursor3 for TiledCursor3 {
    #[inline]
    fn index(&self) -> usize {
        self.idx
    }
    #[inline]
    fn inc_x(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::X, true);
        self.ri += 1;
        if self.ri == self.tx {
            self.ri = 0;
            self.idx += self.cross_x;
        } else {
            self.idx += 1;
        }
    }
    #[inline]
    fn dec_x(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::X, false);
        if self.ri == 0 {
            self.ri = self.tx - 1;
            self.idx -= self.cross_x;
        } else {
            self.ri -= 1;
            self.idx -= 1;
        }
    }
    #[inline]
    fn inc_y(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Y, true);
        self.rj += 1;
        if self.rj == self.ty {
            self.rj = 0;
            self.idx += self.cross_y;
        } else {
            self.idx += self.sy;
        }
    }
    #[inline]
    fn dec_y(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Y, false);
        if self.rj == 0 {
            self.rj = self.ty - 1;
            self.idx -= self.cross_y;
        } else {
            self.rj -= 1;
            self.idx -= self.sy;
        }
    }
    #[inline]
    fn inc_z(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Z, true);
        self.rk += 1;
        if self.rk == self.tz {
            self.rk = 0;
            self.idx += self.cross_z;
        } else {
            self.idx += self.sz;
        }
    }
    #[inline]
    fn dec_z(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Z, false);
        if self.rk == 0 {
            self.rk = self.tz - 1;
            self.idx -= self.cross_z;
        } else {
            self.rk -= 1;
            self.idx -= self.sz;
        }
    }
}

/// Incremental cursor for [`crate::HilbertOrder3`]: amortized-O(1) unit
/// steps via the recursive-descent automaton of
/// [`crate::hilbert::HilbertTables3`].
///
/// The Hilbert index has no per-axis decomposition, but a unit step only
/// changes the coordinate bits at planes `t..=0` where `t` is the highest
/// bit flipped by the `±1` carry — and the curve digits above plane `t`
/// depend only on coordinate bits above `t`, so they are untouched. The
/// cursor therefore keeps, per bit plane, the automaton state in effect
/// *before* that plane was consumed (`states[b]`), and on a step
/// re-descends only planes `t..=0`, rebuilding the low `3(t+1)` index
/// bits from the saved state at plane `t`. A `+1`/`-1` carry reaches
/// plane `t` with probability `2^-t`, so the expected work per step is
/// `Σ (t+1)·2^-t = O(1)` — the Holzmüller neighbor-finding bound
/// (arXiv:1710.06384), here in mutable-cursor form.
///
/// Walk invariant (pinned by the crate property tests): after any
/// in-bounds unit-step sequence, `index()` equals
/// `hilbert3_encode(x, y, z, bits)` for the stepped-to coordinate.
/// Out-of-domain steps panic in debug builds (like every cursor here);
/// in release the coordinate wraps and the index is unspecified but the
/// step never panics or reads out of the tables.
#[derive(Debug, Clone, Copy)]
pub struct HilbertCursor3 {
    tables: &'static crate::hilbert::HilbertTables3,
    /// Curve order; `3 * bits` index bits total.
    bits: u32,
    x: u32,
    y: u32,
    z: u32,
    idx: u64,
    /// `states[b]` — automaton state before consuming bit plane `b`
    /// (plane `bits - 1` is the root state 0). Entries above `bits` are
    /// unused.
    states: [u8; crate::hilbert::MAX_BITS3 as usize],
    #[cfg(debug_assertions)]
    dbg: DebugDomain,
}

impl HilbertCursor3 {
    pub(crate) fn new(
        bits: u32,
        (i, j, k): (usize, usize, usize),
        dims: crate::dims::Dims3,
    ) -> Self {
        assert!(
            bits <= crate::hilbert::MAX_BITS3,
            "Hilbert cursor supports at most {} bits per axis, got {bits}",
            crate::hilbert::MAX_BITS3
        );
        #[cfg(not(debug_assertions))]
        let _ = dims;
        let (x, y, z) = (i as u32, j as u32, k as u32);
        let tables = crate::hilbert::HilbertTables3::get();
        let mut states = [0u8; crate::hilbert::MAX_BITS3 as usize];
        let mut s = 0u8;
        let mut idx = 0u64;
        for b in (0..bits).rev() {
            states[b as usize] = s;
            let c = crate::hilbert::octant3(x, y, z, b);
            idx = (idx << 3) | u64::from(tables.digit(s, c));
            s = tables.child(s, c);
        }
        Self {
            tables,
            bits,
            x,
            y,
            z,
            idx,
            states,
            #[cfg(debug_assertions)]
            dbg: DebugDomain::new((i, j, k), dims),
        }
    }

    /// Apply a `±1` step to one coordinate and re-descend the automaton
    /// from the highest changed bit plane down.
    #[inline]
    fn restep(&mut self, axis: Axis, forward: bool) {
        let coord = match axis {
            Axis::X => &mut self.x,
            Axis::Y => &mut self.y,
            Axis::Z => &mut self.z,
        };
        let old = *coord;
        // Wrapping: release-mode out-of-domain steps stay panic-free (the
        // resulting index is unspecified; debug builds already rejected
        // the step above in the Cursor3 impl).
        let new = if forward {
            old.wrapping_add(1)
        } else {
            old.wrapping_sub(1)
        };
        *coord = new;
        if self.bits == 0 {
            return;
        }
        // `old != new`, so `old ^ new` is non-zero; its top set bit is the
        // highest plane whose octant changed. Clamp to the top plane so a
        // wrapped out-of-domain coordinate can't index past the stack.
        let t = (31 - (old ^ new).leading_zeros()).min(self.bits - 1);
        if t == 0 {
            // Half of all unit steps stay inside the lowest-plane octet:
            // the state stack is untouched and only the bottom index
            // digit changes — one packed-table read.
            let c = crate::hilbert::octant3(self.x, self.y, self.z, 0);
            let d = self.tables.digit(self.states[0], c);
            self.idx = (self.idx & !7) | u64::from(d);
            return;
        }
        let mut s = self.states[t as usize];
        let mut low = 0u64;
        for b in (1..=t).rev() {
            self.states[b as usize] = s;
            let c = crate::hilbert::octant3(self.x, self.y, self.z, b);
            let (d, child) = self.tables.step(s, c);
            low = (low << 3) | u64::from(d);
            s = child;
        }
        // Lowest plane: emit the digit only (no descent below plane 0).
        self.states[0] = s;
        let c = crate::hilbert::octant3(self.x, self.y, self.z, 0);
        low = (low << 3) | u64::from(self.tables.digit(s, c));
        // 3 * (t + 1) <= 3 * MAX_BITS3 = 63, so the shift is in range.
        let mask = (1u64 << (3 * (t + 1))) - 1;
        self.idx = (self.idx & !mask) | low;
    }
}

impl Cursor3 for HilbertCursor3 {
    #[inline]
    fn index(&self) -> usize {
        self.idx as usize
    }
    #[inline]
    fn inc_x(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::X, true);
        self.restep(Axis::X, true);
    }
    #[inline]
    fn dec_x(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::X, false);
        self.restep(Axis::X, false);
    }
    #[inline]
    fn inc_y(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Y, true);
        self.restep(Axis::Y, true);
    }
    #[inline]
    fn dec_y(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Y, false);
        self.restep(Axis::Y, false);
    }
    #[inline]
    fn inc_z(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Z, true);
        self.restep(Axis::Z, true);
    }
    #[inline]
    fn dec_z(&mut self) {
        #[cfg(debug_assertions)]
        self.dbg.step(Axis::Z, false);
        self.restep(Axis::Z, false);
    }
}

/// Fallback cursor for layouts with no per-axis index decomposition:
/// stores the logical coordinate and re-runs the layout's full
/// `index()` on every step. Correct everywhere, O(index) per step — the
/// cost the cursor API exists to avoid, kept so ablations (and
/// `bench_speed_pass`'s "before" rows) can measure the gap against the
/// incremental cursors.
#[derive(Debug, Clone)]
pub struct RecomputeCursor<L: crate::layout::Layout3> {
    layout: L,
    i: usize,
    j: usize,
    k: usize,
    idx: usize,
}

impl<L: crate::layout::Layout3> RecomputeCursor<L> {
    /// Position a recompute cursor (clones the layout handle; all layouts
    /// here share tables via `Arc`, so this is cheap).
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

impl<L: crate::layout::Layout3> Cursor3 for RecomputeCursor<L> {
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
    use crate::layout::Layout3;
    use crate::layouts::{ArrayOrder3, HilbertOrder3, Tiled3, ZOrder3};

    fn walk_matches_index<L: Layout3>(dims: Dims3) {
        let l = L::new(dims);
        // Snake over the whole domain: x sweeps alternate direction so
        // every step is a unit cursor move.
        let mut c = l.cursor(0, 0, 0);
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        assert_eq!(c.index(), l.index(0, 0, 0));
        loop {
            let forward = (j + k) % 2 == 0;
            let done_row = if forward { i + 1 == dims.nx } else { i == 0 };
            if !done_row {
                if forward {
                    c.inc_x();
                    i += 1;
                } else {
                    c.dec_x();
                    i -= 1;
                }
            } else if j + 1 < dims.ny {
                c.inc_y();
                j += 1;
            } else if k + 1 < dims.nz {
                // Reset y by walking back down before moving up in z would
                // complicate the snake; instead step z and walk y back.
                c.inc_z();
                k += 1;
                while j > 0 {
                    c.dec_y();
                    j -= 1;
                    assert_eq!(c.index(), l.index(i, j, k));
                }
            } else {
                break;
            }
            assert_eq!(c.index(), l.index(i, j, k), "at ({i},{j},{k})");
        }
    }

    #[test]
    fn array_cursor_snake_walk() {
        walk_matches_index::<ArrayOrder3>(Dims3::new(5, 4, 3));
    }

    #[test]
    fn zorder_cursor_snake_walk() {
        walk_matches_index::<ZOrder3>(Dims3::new(8, 8, 8));
        walk_matches_index::<ZOrder3>(Dims3::new(5, 3, 9));
    }

    #[test]
    fn tiled_cursor_snake_walk() {
        walk_matches_index::<Tiled3>(Dims3::new(9, 10, 11));
    }

    #[test]
    fn hilbert_cursor_snake_walk() {
        walk_matches_index::<HilbertOrder3>(Dims3::new(4, 4, 4));
    }

    #[test]
    fn zorder_axis_runs_match_index_every_step() {
        let dims = Dims3::new(16, 8, 4);
        let l = ZOrder3::new(dims);
        for axis in crate::dims::Axis::ALL {
            let n = axis.extent(dims);
            let mut c = l.cursor(1, 1, 1);
            let (mut i, mut j, mut k) = (1usize, 1usize, 1usize);
            for _ in 1..n - 1 {
                c.step(axis, true);
                match axis {
                    crate::dims::Axis::X => i += 1,
                    crate::dims::Axis::Y => j += 1,
                    crate::dims::Axis::Z => k += 1,
                }
                assert_eq!(c.index(), l.index(i, j, k));
            }
        }
    }

    #[test]
    fn tiled_cursor_crosses_brick_boundaries() {
        // 4³ bricks: steps from coordinate 3 to 4 cross a brick edge on
        // every axis; from 7 to 8 cross into a partial brick.
        let l = Tiled3::with_brick(Dims3::new(9, 9, 9), (4, 4, 4));
        let mut c = l.cursor(3, 3, 3);
        c.inc_x();
        assert_eq!(c.index(), l.index(4, 3, 3));
        c.inc_y();
        assert_eq!(c.index(), l.index(4, 4, 3));
        c.inc_z();
        assert_eq!(c.index(), l.index(4, 4, 4));
        c.dec_x();
        assert_eq!(c.index(), l.index(3, 4, 4));
        let mut c = l.cursor(7, 0, 0);
        c.inc_x();
        assert_eq!(c.index(), l.index(8, 0, 0));
        c.dec_x();
        assert_eq!(c.index(), l.index(7, 0, 0));
    }

    // Misuse must fail loudly in debug builds (release leaves it
    // unspecified, so these only compile in under debug_assertions).
    #[cfg(debug_assertions)]
    mod debug_bounds {
        use super::*;

        #[test]
        #[should_panic(expected = "below 0")]
        fn array_cursor_underflow_panics() {
            let l = ArrayOrder3::new(Dims3::cube(4));
            let mut c = l.cursor(0, 0, 0);
            c.dec_x();
        }

        #[test]
        #[should_panic(expected = "past the")]
        fn zorder_degenerate_axis_step_panics() {
            // nz == 1: the z axis mask is empty and a release-mode step
            // would silently no-op; debug must reject it.
            let l = ZOrder3::new(Dims3::new(4, 4, 1));
            let mut c = l.cursor(0, 0, 0);
            c.inc_z();
        }

        #[test]
        #[should_panic(expected = "past the")]
        fn tiled_cursor_overflow_panics() {
            let l = Tiled3::new(Dims3::cube(4));
            let mut c = l.cursor(3, 0, 0);
            c.inc_x();
        }

        #[test]
        #[should_panic]
        fn hilbert_cursor_underflow_panics() {
            let l = HilbertOrder3::new(Dims3::cube(4));
            let mut c = l.cursor(0, 2, 2);
            c.dec_x();
        }
    }

    #[test]
    fn step_dispatches_by_axis() {
        let l = ArrayOrder3::new(Dims3::cube(4));
        let mut c = l.cursor(1, 1, 1);
        c.step(crate::dims::Axis::Z, true);
        c.step(crate::dims::Axis::Y, false);
        assert_eq!(c.index(), l.index(1, 0, 2));
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;
    use crate::{Dims3, Grid3, HilbertOrder3, Layout3, Volume3, ZOrder3};

    #[test]
    #[ignore]
    fn time_cursor_steps() {
        let dims = Dims3::cube(64);
        let vals: Vec<f32> = (0..dims.len()).map(|v| (v % 97) as f32).collect();
        let hz = Grid3::<f32, ZOrder3>::from_row_major(dims, &vals);
        let hh = Grid3::<f32, HilbertOrder3>::from_row_major(dims, &vals);
        let rounds = 20_000u32;
        // Pure stepping, no memory: walk +x across the row and back.
        let t0 = std::time::Instant::now();
        let mut acc = 0usize;
        for _ in 0..rounds {
            let mut c = hh.layout().cursor(0, 31, 17);
            for _ in 0..63 { c.inc_x(); acc ^= c.index(); }
            for _ in 0..63 { c.dec_x(); acc ^= c.index(); }
        }
        let per = t0.elapsed().as_secs_f64() * 1e9 / (rounds as f64 * 126.0);
        eprintln!("hilbert step only: {per:.2} ns/step (acc {acc})");
        let t0 = std::time::Instant::now();
        let mut acc = 0usize;
        for _ in 0..rounds {
            let mut c = hz.layout().cursor(0, 31, 17);
            for _ in 0..63 { c.inc_x(); acc ^= c.index(); }
            for _ in 0..63 { c.dec_x(); acc ^= c.index(); }
        }
        let per = t0.elapsed().as_secs_f64() * 1e9 / (rounds as f64 * 126.0);
        eprintln!("zorder step only: {per:.2} ns/step (acc {acc})");
        // Step + read: gather_axis_run into a row buffer.
        let mut buf = vec![0.0f32; 64];
        for (label, g) in [("hilbert", &hh as &dyn Volume3), ("zorder", &hz as &dyn Volume3)] {
            let t0 = std::time::Instant::now();
            let mut acc = 0.0f32;
            for r in 0..rounds {
                g.gather_axis_run(0, (r % 64) as usize, ((r * 7) % 64) as usize, Axis::X, &mut buf);
                acc += buf[0];
            }
            let per = t0.elapsed().as_secs_f64() * 1e9 / (rounds as f64 * 64.0);
            eprintln!("{label} gather row: {per:.2} ns/elem (acc {acc})");
        }
    }
}
