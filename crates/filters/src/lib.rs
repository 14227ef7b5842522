//! # sfc-filters — the structured-access application kernel
//!
//! 3D bilateral filtering (paper §III-A): an anisotropic, edge-preserving
//! smoother whose stencil access pattern is *structured* — every output
//! voxel reads a fixed `(2r+1)³` neighborhood. The kernel is generic over
//! `sfc_core::Volume3`, so it runs unmodified over array-order, Z-order,
//! tiled, and Hilbert grids, and over `sfc-memsim`'s tracing wrapper.
//!
//! * [`gaussian`] — precomputed spatial kernels + plain-convolution
//!   baseline;
//! * [`bilateral`] — the per-voxel bilateral kernel and an independent
//!   reference implementation;
//! * [`parallel`] — pencil-parallel drivers: the bilateral filter as one
//!   execution-engine kernel under every policy (plain runs with the
//!   paper's static round-robin pencil assignment or a dynamic schedule
//!   for the scheduling ablation; supervised, degraded and brownout runs
//!   through the engine's one supervised pipeline, with partial-result
//!   recovery, a per-pencil quality map, and a repair pass),
//!   and the per-voxel driver of the gradient and separable kernels;
//! * [`fastmath`] — the photometric weight through the bit-exact `expf`
//!   port, and the SIMD lanes of the runtime-dispatched tap loop, which
//!   gives the same bits on every tier ([`TapConfig`] picks the tier);
//! * [`counters`] — simulated cache counters replaying the exact parallel
//!   work split.

#![warn(missing_docs)]

pub mod bilateral;
pub mod counters;
pub mod fastmath;
pub mod gaussian;
pub mod gradient;
pub mod parallel;
pub(crate) mod pencil_gather;
pub mod separable;

pub use bilateral::{bilateral_reference, bilateral_voxel, BilateralParams};
pub use counters::simulate_bilateral_counters;
pub use fastmath::{detect_tier, SimdTier, TapConfig, WeightMode};
pub use sfc_harness::DegradedOutcome;
pub use gaussian::{convolve_voxel, gaussian_weight, SpatialKernel};
pub use gradient::{gradient3d, gradient_voxel};
pub use counters::{nan_events, reset_nan_events};
pub use parallel::{
    bilateral3d, bilateral3d_dynamic, bilateral3d_into, config_label, try_bilateral3d,
    try_bilateral3d_into, try_bilateral3d_with_policy, FilterRun,
};
pub use separable::{gaussian_separable3d, Kernel1D};
