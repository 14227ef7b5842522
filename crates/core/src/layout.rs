//! Layout traits: the unified `get_index(i,j,k)` interface of the paper's
//! §III-C.
//!
//! A *layout* is a bijection from logical grid coordinates onto slots of a
//! linear backing buffer. All layouts here are table-driven, so the
//! index-computation cost is "on more or less equal footing" (paper §III-C)
//! and measured differences reflect memory locality, not arithmetic: array,
//! Z and tiled order share one implementation whose index is a sum of three
//! per-axis table terms (`layouts::separable`), so array order takes three
//! lookups like Z-order, where the paper's takes two (DESIGN.md §1); and
//! Hilbert order walks its automaton table. The footing holds in lanes
//! too: on x86_64 each layout computes the slots of eight trilinear cells
//! at once from its own tables, with AVX2 gathers
//! (`Layout3::cell_slots_lanes`, DESIGN.md §5.7).

use crate::cursor::RecomputeCursor;
use crate::dims::{Dims2, Dims3};
use crate::error::{SfcError, SfcResult};

/// `layout`, or a panic with its error's message: the panicking
/// constructors of the layouts.
pub(crate) fn or_panic<L>(layout: SfcResult<L>) -> L {
    match layout {
        Ok(l) => l,
        Err(e) => panic!("{e}"),
    }
}

/// `slots`, a layout's padded slot count computed with checked arithmetic
/// (`None` when it overflowed), if a buffer can hold that many; else
/// [`SfcError::SizeOverflow`] naming `what`.
pub(crate) fn padded_slots(slots: Option<usize>, what: &'static str) -> SfcResult<usize> {
    slots
        .filter(|&n| n <= isize::MAX as usize)
        .ok_or(SfcError::SizeOverflow { what })
}

/// Identifies a layout family at runtime (CLI selection, reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Traditional row-major array order (the paper's "A-order").
    ArrayOrder,
    /// Z-order / Morton space-filling curve (the paper's "Z-order").
    ZOrder,
    /// Blocked/tiled layout (Pascucci & Frank's third comparator).
    Tiled,
    /// Hilbert space-filling curve (background ablation).
    Hilbert,
}

impl LayoutKind {
    /// Short stable name used in tables and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            LayoutKind::ArrayOrder => "a-order",
            LayoutKind::ZOrder => "z-order",
            LayoutKind::Tiled => "tiled",
            LayoutKind::Hilbert => "hilbert",
        }
    }

    /// Parse a CLI-style name (accepts a few aliases).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "a" | "a-order" | "array" | "array-order" | "row-major" => {
                Some(LayoutKind::ArrayOrder)
            }
            "z" | "z-order" | "zorder" | "morton" => Some(LayoutKind::ZOrder),
            "t" | "tiled" | "blocked" | "tile" => Some(LayoutKind::Tiled),
            "h" | "hilbert" => Some(LayoutKind::Hilbert),
            _ => None,
        }
    }

    /// All layout kinds, in reporting order.
    pub const ALL: [LayoutKind; 4] = [
        LayoutKind::ArrayOrder,
        LayoutKind::ZOrder,
        LayoutKind::Tiled,
        LayoutKind::Hilbert,
    ];
}

impl std::fmt::Display for LayoutKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A 3D memory layout: bijection from `dims` coordinates into a backing
/// buffer of `storage_len()` slots.
///
/// Invariants every implementation upholds (and the crate's property tests
/// verify):
/// * `index(i,j,k) < storage_len()` for all in-bounds coordinates;
/// * `index` is injective over the logical domain;
/// * `coords(index(i,j,k)) == (i,j,k)`;
/// * `storage_len() >= dims().len()` (padding allowed, none for array order).
pub trait Layout3: Clone + Send + Sync + 'static {
    /// Which family this layout belongs to.
    const KIND: LayoutKind;

    /// Construct the layout, or fail with [`SfcError::SizeOverflow`] when its
    /// padded storage needs more slots than `isize::MAX`, the most any
    /// buffer can hold. Every layout counts its slots with checked
    /// arithmetic before it builds any table, because padding can pass
    /// that limit while `dims` itself is valid: Z-order's power-of-two
    /// axes once their bits sum past 62, tiled order's whole 8³ bricks,
    /// and Hilbert order's power-of-two cube once an axis exceeds 2^20
    /// voxels, on 64-bit targets. Array order, unpadded, fails only past
    /// `isize::MAX` voxels.
    fn try_new(dims: Dims3) -> SfcResult<Self>;

    /// Construct the layout (precomputes its index tables).
    ///
    /// # Panics
    /// Panics where [`try_new`](Self::try_new) returns an error.
    fn new(dims: Dims3) -> Self {
        or_panic(Self::try_new(dims))
    }

    /// Logical grid dimensions.
    fn dims(&self) -> Dims3;

    /// Number of slots in the backing buffer (≥ `dims().len()`).
    fn storage_len(&self) -> usize;

    /// Map logical coordinates to a storage slot.
    ///
    /// Out-of-bounds coordinates are a logic error; implementations may
    /// panic or return an out-of-range slot (debug builds assert).
    fn index(&self, i: usize, j: usize, k: usize) -> usize;

    /// Storage slots of the 8 corners of the trilinear cell whose low
    /// corner is `(x0,y0,z0)`, as
    /// `[s000, s100, s010, s110, s001, s101, s011, s111]`
    /// (`sXYZ` = slot of `x0+X, y0+Y, z0+Z`). High corners clamp to the
    /// last in-bounds plane, matching the sampler's edge rule.
    ///
    /// The default makes 8 independent [`index`](Self::index) calls, each
    /// a few table lookups.
    // Always inlined, as `Grid3::cell_corners` is: with two callers of
    // that inlined, Hilbert's eight `index()` calls otherwise stayed in one
    // shared out-of-line copy.
    #[inline(always)]
    fn cell_slots(&self, x0: usize, y0: usize, z0: usize) -> [usize; 8] {
        let d = self.dims();
        let x1 = (x0 + 1).min(d.nx - 1);
        let y1 = (y0 + 1).min(d.ny - 1);
        let z1 = (z0 + 1).min(d.nz - 1);
        [
            self.index(x0, y0, z0),
            self.index(x1, y0, z0),
            self.index(x0, y1, z0),
            self.index(x1, y1, z0),
            self.index(x0, y0, z1),
            self.index(x1, y0, z1),
            self.index(x0, y1, z1),
            self.index(x1, y1, z1),
        ]
    }

    /// [`cell_slots`](Self::cell_slots) for up to eight cells at once, one
    /// per 32-bit lane: lane `l` of `x`, `y` and `z` holds the low corner
    /// of lane `l`'s cell, and lane `l` of the returned vector `c` holds
    /// that cell's slot of corner `c`, in `cell_slots`' corner order and
    /// with its clamp. Only the lanes `mask` selects (all ones; a lane's
    /// sign bit decides) are computed; the other lanes' slots are
    /// unspecified.
    ///
    /// The default runs `cell_slots` on each selected lane, one after
    /// another. Array, Z and tiled order override it with one AVX2 fetch,
    /// six gathers from their three per-axis tables, and Hilbert order with
    /// gathers from its dilation table and a lane walk through its
    /// automaton table (DESIGN.md §5.7), so each layout still computes its
    /// slots from its own tables.
    ///
    /// # Safety
    /// The CPU must support AVX2 and the caller must be compiled with it
    /// enabled; every selected lane's cell must lie inside
    /// [`dims`](Self::dims); and every slot must fit an `i32`, that is
    /// [`storage_len`](Self::storage_len) at most 2^31. The overrides read
    /// their tables without bounds checks, which debug builds assert.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn cell_slots_lanes(
        &self,
        x: std::arch::x86_64::__m256i,
        y: std::arch::x86_64::__m256i,
        z: std::arch::x86_64::__m256i,
        mask: std::arch::x86_64::__m256i,
    ) -> [std::arch::x86_64::__m256i; 8] {
        // Each slot is below `storage_len() <= 2^31`, so it fits an i32.
        let slots = crate::lanes::per_lane(x, y, z, mask, |i, j, k| {
            self.cell_slots(i, j, k).map(|s| s as i32)
        });
        // SAFETY: an 8-element i32 array is 8 readable lanes.
        slots.map(|row| unsafe { std::arch::x86_64::_mm256_loadu_si256(row.as_ptr().cast()) })
    }

    /// Inverse map over the *storage* domain. For padded layouts the result
    /// may lie outside `dims()`; callers iterating storage order must filter
    /// with `dims().contains(..)`.
    fn coords(&self, index: usize) -> (usize, usize, usize);

    /// Position a cursor at `(i,j,k)`: a [`RecomputeCursor`], which
    /// recomputes [`index`](Self::index) on every step.
    ///
    /// Kernels read through `index` directly (see
    /// [`Volume3::gather_axis_run`](crate::Volume3::gather_axis_run)); the
    /// cursor remains for the benchmark ledger's `core.step_ns` probe.
    fn cursor(&self, i: usize, j: usize, k: usize) -> RecomputeCursor<Self> {
        RecomputeCursor::new(self, i, j, k)
    }

    /// Fraction of backing-buffer slots that are padding
    /// (`0.0` means a perfectly tight layout).
    fn padding_overhead(&self) -> f64 {
        let logical = self.dims().len() as f64;
        let storage = self.storage_len() as f64;
        (storage - logical) / storage
    }
}

/// Whether every storage slot of `layout` fits an `i32`:
/// [`Layout3::storage_len`] at most 2^31, the bound
/// [`Layout3::cell_slots_lanes`] needs. A `Grid3` fetches its cells
/// through the lane slots only then, and one lane at a time otherwise.
#[cfg(target_arch = "x86_64")]
pub(crate) fn slots_fit_i32<L: Layout3>(layout: &L) -> bool {
    layout.storage_len() <= 1 << 31
}

/// A 2D memory layout; mirrors [`Layout3`].
pub trait Layout2: Clone + Send + Sync + 'static {
    /// Which family this layout belongs to.
    const KIND: LayoutKind;

    /// Construct the layout (precomputes any index tables).
    fn new(dims: Dims2) -> Self;

    /// Logical grid dimensions.
    fn dims(&self) -> Dims2;

    /// Number of slots in the backing buffer (≥ `dims().len()`).
    fn storage_len(&self) -> usize;

    /// Map logical coordinates to a storage slot.
    fn index(&self, i: usize, j: usize) -> usize;

    /// Inverse map over the storage domain (see [`Layout3::coords`]).
    fn coords(&self, index: usize) -> (usize, usize);

    /// Fraction of backing-buffer slots that are padding.
    fn padding_overhead(&self) -> f64 {
        let logical = self.dims().len() as f64;
        let storage = self.storage_len() as f64;
        (storage - logical) / storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip_through_parse() {
        for k in LayoutKind::ALL {
            assert_eq!(LayoutKind::parse(k.name()), Some(k));
        }
    }

    #[test]
    fn parse_aliases() {
        assert_eq!(LayoutKind::parse("morton"), Some(LayoutKind::ZOrder));
        assert_eq!(LayoutKind::parse("ROW-MAJOR"), Some(LayoutKind::ArrayOrder));
        assert_eq!(LayoutKind::parse("blocked"), Some(LayoutKind::Tiled));
        assert_eq!(LayoutKind::parse("nope"), None);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(LayoutKind::ZOrder.to_string(), "z-order");
    }
}
