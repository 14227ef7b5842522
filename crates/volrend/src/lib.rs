//! # sfc-volrend — the semi-structured application kernel
//!
//! Raycasting volume rendering (paper §III-B): an image-order renderer
//! whose memory access pattern is *semi-structured* — along each ray the
//! pattern is consistent and predictable, but under perspective projection
//! every ray has its own slope, so the aggregate pattern depends on the
//! viewpoint. That viewpoint dependence is exactly what the paper's
//! Figs. 4–6 measure: array order is fast only when rays align with the
//! fastest-varying axis; Z-order is viewpoint-insensitive.
//!
//! * [`vec3`](mod@vec3) / [`ray`] — minimal geometry (vectors, rays,
//!   slab-method ray–box intersection);
//! * [`camera`] — perspective/orthographic cameras and the 8-viewpoint
//!   orbit generator;
//! * [`transfer`] — piecewise-linear transfer functions;
//! * [`sampler`] — trilinear reconstruction over any `Volume3`;
//! * [`render`](mod@render) — tile-parallel front-to-back compositing
//!   renderer: one execution-engine kernel over image tiles under every
//!   policy (plain, supervised, degraded with typed tile defects and
//!   repair, brownout);
//! * [`image`] — float RGBA framebuffer;
//! * [`counters`] — simulated cache counters for a rendered frame.

#![warn(missing_docs)]

pub mod camera;
pub mod counters;
pub mod image;
pub mod ray;
#[cfg(test)]
mod reference;
pub mod render;
pub mod sampler;
pub mod shading;
pub mod transfer;
pub mod vec3;

pub use camera::{orbit_viewpoints, Camera, Projection};
pub use counters::{nan_samples, reset_nan_samples, simulate_render_counters};
pub use image::Image;
pub use ray::{Aabb, Ray};
pub use render::{render, render_with_policy, shade_ray, RenderOpts};
pub use sampler::{sample_trilinear, CellSampler};
pub use shading::{field_gradient, phong_intensity, render_lit, shade_ray_lit, Light};
pub use transfer::{rgba, Rgba, TransferFunction};
pub use vec3::{vec3, Vec3};
