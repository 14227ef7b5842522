//! # sfc-repro — space-filling-curve memory layouts for data-intensive kernels
//!
//! Umbrella crate of a full reproduction of Bethel, Camp, Donofrio &
//! Howison, *"Improving Performance of Structured-Memory, Data-Intensive
//! Applications on Multi-core Platforms via a Space-Filling Curve Memory
//! Layout"* (IPDPS 2015 Workshops / HPDIC 2015).
//!
//! Re-exports the workspace crates under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `sfc-core` | layouts (array/Z/tiled/Hilbert), grids, curve codecs |
//! | [`memsim`] | `sfc-memsim` | deterministic cache simulator (PAPI-counter analog) |
//! | [`datagen`] | `sfc-datagen` | synthetic MRI phantom / combustion field, I/O |
//! | [`harness`] | `sfc-harness` | execution engine, timing, `ds` metric, tables |
//! | [`filters`] | `sfc-filters` | 3D bilateral filter (structured access) |
//! | [`volrend`] | `sfc-volrend` | raycasting volume renderer (semi-structured) |
//! | [`store`] | `sfc-store` | crash-safe out-of-core brick store (scrub, read-repair) |
//!
//! See `examples/quickstart.rs` for a three-minute tour, and the `sfc-bench`
//! crate for binaries regenerating every figure of the paper's evaluation.

pub use sfc_core as core;
pub use sfc_datagen as datagen;
pub use sfc_filters as filters;
pub use sfc_harness as harness;
pub use sfc_memsim as memsim;
pub use sfc_store as store;
pub use sfc_volrend as volrend;

/// The most commonly used items in one import.
pub mod prelude {
    pub use sfc_core::{
        ArrayOrder3, Axis, Dims3, Grid3, HilbertOrder3, Layout3, LayoutKind, SfcError,
        SfcResult, StencilOrder, StencilSize, Tiled3, Volume3, ZOrder3,
    };
    pub use sfc_filters::{bilateral3d, try_bilateral3d, BilateralParams, FilterRun};
    pub use sfc_harness::{
        scaled_relative_difference, DeadlineBudget, ExecPolicy, Executor, QualityMap, RunReport,
        Schedule, SupervisorConfig, WorkPlan,
    };
    pub use sfc_memsim::{CoreSim, Platform, TracedGrid};
    pub use sfc_volrend::{
        orbit_viewpoints, render, Camera, Projection, RenderOpts, TransferFunction,
    };
}
