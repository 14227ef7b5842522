//! # sfc-core — space-filling-curve memory layouts for structured data
//!
//! Core library of a reproduction of Bethel, Camp, Donofrio & Howison,
//! *"Improving Performance of Structured-Memory, Data-Intensive
//! Applications on Multi-core Platforms via a Space-Filling Curve Memory
//! Layout"* (IPDPS 2015 Workshops / HPDIC).
//!
//! The paper's central artifact is a lightweight indexing library that lets
//! an application store a multidimensional array in either traditional
//! **array order** (row-major) or **Z-order** (Morton space-filling curve)
//! behind one `get_index(i,j,k)` interface, with both index computations
//! implemented as table lookups so their cost is comparable and measured
//! performance differences reflect *memory locality alone*.
//!
//! ## Quick start
//!
//! ```
//! use sfc_core::{Dims3, Grid3, ZOrder3, ArrayOrder3};
//!
//! let dims = Dims3::cube(64);
//! // A grid in traditional row-major order …
//! let a = Grid3::<f32, ArrayOrder3>::from_fn(dims, |i, j, k| (i + j + k) as f32);
//! // … and the same data in Z-order. Application code is identical.
//! let z: Grid3<f32, ZOrder3> = a.convert();
//! assert_eq!(a.get(10, 20, 30), z.get(10, 20, 30));
//! // Z-order keeps neighbors in all three directions close in memory:
//! let base = z.index_of(16, 32, 8);
//! assert_eq!(z.index_of(16, 32, 9), base + 4);
//! ```
//!
//! ## Module map
//!
//! * [`morton`] / [`hilbert`] — raw curve codecs (magic-bits Morton;
//!   Skilling-transpose Hilbert, and the automaton tables its
//!   table-driven index is built from).
//! * [`pattern`] — bit-interleave patterns generalizing Morton order to
//!   rectangular (per-axis power-of-two padded) domains.
//! * [`layout`] / [`layouts`] — the `Layout3`/`Layout2` traits and the four
//!   layouts: [`ArrayOrder3`], [`ZOrder3`] and [`Tiled3`], three orders of
//!   one separable table layout, and [`HilbertOrder3`] (and 2D
//!   counterparts).
//! * [`cursor`] — a coordinate stepped one voxel at a time, recomputing
//!   `index()` per step; kept for the benchmark ledger's step probe.
//!   Kernels read through `index()` directly, axis runs included.
//! * [`grid`] — layout-generic containers [`Grid3`]/[`Grid2`].
//! * [`volume`] — the [`Volume3`] sampling trait kernels are written
//!   against (and which `sfc-memsim` instruments).
//! * [`iter`] — pencil and image-tile work decomposition.
//! * [`stencil`] — stencil offset enumeration with configurable loop order.

#![warn(missing_docs)]

pub mod cursor;
pub mod dims;
pub mod error;
pub mod grid;
pub mod hash;
pub mod hilbert;
pub mod iter;
#[cfg(target_arch = "x86_64")]
mod lanes;
pub mod layout;
pub mod layouts;
pub mod morton;
pub mod pattern;
pub mod rng;
pub mod stats;
pub mod stencil;
pub mod volume;

pub use cursor::{Cursor3, RecomputeCursor};
pub use hilbert::HilbertTables3;
pub use dims::{bits_for, next_pow2, Axis, Dims2, Dims3};
pub use error::{SfcError, SfcResult};
pub use grid::{Grid2, Grid3};
pub use hash::fnv1a64;
pub use iter::{image_tiles, pencil, pencil_count, pencils, Pencil, TileRect};
pub use layout::{Layout2, Layout3, LayoutKind};
pub use layouts::{
    ArrayOrder2, ArrayOrder3, HilbertOrder2, HilbertOrder3, Tiled2, Tiled3, ZOrder2,
    ZOrder3,
};
pub use rng::SplitMix64;
pub use stats::{anisotropy, axis_step_stats, StepStats};
pub use stencil::{stencil_offsets, StencilOrder, StencilSize};
pub use volume::{FnVolume, Volume3};
