//! The raycasting renderer (paper §III-B).
//!
//! Image-order: the output image is divided into tiles (paper: 32×32,
//! chosen from their earlier tuning study); worker threads pull tiles from
//! a dynamic queue; each pixel's ray is marched front-to-back through the
//! volume with trilinear sampling, a transfer-function lookup per sample,
//! and early ray termination.
//!
//! The renderer has one driver: `TileKernel`, the raycaster as an engine
//! [`UnitKernel`] ([`sfc_harness::engine`]) — one work unit is one image
//! tile, shaded into a local pixel buffer, committed to the framebuffer,
//! and read back for validation. [`render_with_policy`] runs it under any
//! [`ExecPolicy`]:
//!
//! * [`ExecPolicy::Plain`] — `opts.nthreads` threads scheduled by
//!   `opts.schedule`, panics propagate; [`render`] is a thin wrapper over
//!   this;
//! * [`ExecPolicy::Supervised`] — panic isolation, watchdog deadlines with
//!   cooperative cancellation, bounded retries, buffered per-tile commit
//!   (an abandoned attempt never leaves a half-written tile);
//! * [`ExecPolicy::Degraded`] — supervision plus the engine's validation
//!   scan (non-finite pixel components, optional plausibility range) and
//!   single-threaded faults-off repair pass;
//! * [`ExecPolicy::Brownout`] — the degraded pipeline under a wall-clock
//!   deadline, with a quality ladder: under pressure a tile is rendered
//!   with a doubled ray step and a lower early-termination threshold per
//!   rung ([`RenderOpts::brownout`]), every downgrade recorded in the
//!   outcome's [`QualityMap`](sfc_harness::QualityMap).
//!
//! Raycasting is deterministic, so a run whose map ends
//! [`is_whole`](sfc_harness::DefectMap::is_whole) is pixel-for-pixel
//! identical to a fault-free render.

use sfc_core::{image_tiles, SfcError, SfcResult, TileRect, Volume3};
use sfc_harness::{
    DegradedOutcome, DisjointSlots, ExecPolicy, Executor, FaultPlan, Schedule, UnitKernel, WorkPlan,
};

use crate::camera::Camera;
use crate::image::Image;
use crate::ray::Aabb;
use crate::sampler::CellSampler;
use crate::transfer::{Rgba, TransferFunction};

/// Renderer options.
#[derive(Debug, Clone, Copy)]
pub struct RenderOpts {
    /// Ray step in voxel units (the paper integrates at sub-voxel steps).
    pub step: f32,
    /// Stop marching once accumulated opacity exceeds this.
    pub early_termination: f32,
    /// Tile edge in pixels (paper: 32).
    pub tile: usize,
    /// Worker threads.
    pub nthreads: usize,
    /// Tile scheduling (paper uses the dynamic worker pool).
    pub schedule: Schedule,
}

impl Default for RenderOpts {
    fn default() -> Self {
        Self {
            step: 0.5,
            early_termination: 0.98,
            tile: 32,
            nthreads: 1,
            schedule: Schedule::Dynamic,
        }
    }
}

impl RenderOpts {
    /// Validate the options with typed errors: a finite ray step above 0
    /// (a zero step would never leave the volume), a tile edge and a
    /// thread count of at least 1.
    pub fn validate(&self) -> SfcResult<()> {
        if !(self.step > 0.0 && self.step.is_finite()) {
            return Err(SfcError::InvalidParameter {
                name: "step",
                reason: format!("ray step must be positive and finite, got {}", self.step),
            });
        }
        if self.tile == 0 {
            return Err(SfcError::InvalidParameter {
                name: "tile",
                reason: "tile edge must be at least one pixel".to_string(),
            });
        }
        if self.nthreads == 0 {
            return Err(SfcError::InvalidParameter {
                name: "nthreads",
                reason: "need at least one thread".to_string(),
            });
        }
        Ok(())
    }

    /// Deepest brownout ladder rung the renderer exposes (see
    /// [`RenderOpts::brownout`]); at level 3 a tile marches 8× fewer
    /// samples per ray.
    pub const BROWNOUT_DEPTH: u8 = 3;

    /// The render options at brownout ladder `level`: each rung doubles
    /// the ray step (halving the samples marched per ray) and lowers the
    /// early-ray-termination opacity threshold by 0.1 per level (floored
    /// at 0.5) so nearly-opaque rays quit sooner. Level 0 returns the
    /// options unchanged — full quality *is* rung 0.
    pub fn brownout(&self, level: u8) -> RenderOpts {
        if level == 0 {
            return *self;
        }
        let shift = u32::from(level.min(8));
        RenderOpts {
            step: self.step * (1u32 << shift) as f32,
            early_termination: (self.early_termination - 0.1 * f32::from(level)).max(0.5),
            ..*self
        }
    }
}

/// March one ray and return the composited color. `bbox` is the volume's
/// bounding box (`Aabb::of_dims(vol.dims())`), hoisted to the caller so
/// per-tile/per-frame loops build it once instead of once per ray.
pub fn shade_ray<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    opts: &RenderOpts,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> Rgba {
    let (color, nan_seen) = shade_ray_counted(vol, tf, opts, ray, bbox);
    crate::counters::record_nan_samples(nan_seen);
    color
}

/// [`shade_ray`] without the counter flush: returns the composited color
/// and the ray's NaN-substitution count, letting tile loops batch the
/// shared-atomic update once per tile.
pub(crate) fn shade_ray_counted<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    opts: &RenderOpts,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> (Rgba, u64) {
    let Some((t0, t1)) = bbox.intersect(ray) else {
        return (Rgba::default(), 0);
    };
    // One cached-cell sampler per ray: at sub-voxel steps consecutive
    // samples usually stay in the same trilinear cell and skip all reads.
    let mut sampler = CellSampler::new(vol);
    let color = march_ray(&mut sampler, tf, opts, ray, t0, t1);
    (color, sampler.take_nan_count())
}

/// [`shade_ray`] through an *uncached* [`CellSampler`]: every sample
/// re-fetches its cell's 8 corners, so on a volume using the default
/// per-`get` [`Volume3::cell_corners`] (the counter simulation's
/// `TracedGrid`) the access stream is the original 8 `get`s per sample —
/// same taps, same order, clamped duplicates included. The composited
/// color is bit-identical to [`shade_ray`]; only the read stream differs.
/// Used by `counters::simulate_render_counters` so simulated address
/// streams stay comparable across PRs and with the paper's per-sample
/// methodology.
pub(crate) fn shade_ray_replay<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    opts: &RenderOpts,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> Rgba {
    let Some((t0, t1)) = bbox.intersect(ray) else {
        return Rgba::default();
    };
    let mut sampler = CellSampler::uncached(vol);
    let color = march_ray(&mut sampler, tf, opts, ray, t0, t1);
    crate::counters::record_nan_samples(sampler.take_nan_count());
    color
}

/// Front-to-back integration loop shared by the native and
/// simulation-replay shading paths: marches `ray` over `[t0, t1)`,
/// reading the field through `sampler`.
fn march_ray<V: Volume3>(
    sampler: &mut CellSampler<'_, V>,
    tf: &TransferFunction,
    opts: &RenderOpts,
    ray: &crate::ray::Ray,
    t0: f32,
    t1: f32,
) -> Rgba {
    let mut color = Rgba::default();
    let mut t = t0 + opts.step * 0.5;
    while t < t1 {
        let p = ray.at(t);
        let v = sampler.sample(p);
        let s = tf.sample(v);
        if s.a > 0.0 {
            // Opacity correction for the step length (reference step = 1 voxel).
            let a = 1.0 - (1.0 - s.a).powf(opts.step);
            let w = (1.0 - color.a) * a;
            color.r += w * s.r;
            color.g += w * s.g;
            color.b += w * s.b;
            color.a += w;
            if color.a >= opts.early_termination {
                break;
            }
        }
        t += opts.step;
    }
    color
}

/// The raycaster as an engine [`UnitKernel`]: one work unit is one image
/// tile, shaded into a local pixel buffer (in [`TileRect::pixels`] order)
/// and committed to the framebuffer.
struct TileKernel<'a, V> {
    vol: &'a V,
    cam: &'a Camera,
    tf: &'a TransferFunction,
    bbox: Aabb,
    tiles: &'a [TileRect],
    width: usize,
    out: DisjointSlots<'a, Rgba>,
    /// Render options per quality-ladder level: `rungs[0]` is the
    /// configured options, `rungs[L]` the coarsened ones of level `L`
    /// (built only under the brownout policy).
    rungs: Vec<RenderOpts>,
}

impl<V: Volume3 + Sync> UnitKernel for TileKernel<'_, V> {
    type Value = Rgba;

    fn unit_kind(&self) -> &'static str {
        "tile"
    }

    fn max_level(&self) -> u8 {
        (self.rungs.len() - 1) as u8
    }

    /// Shade one tile, polling `keep_going` once per pixel. NaN-sample
    /// counts seen so far are flushed once per tile, even when aborted.
    fn compute(
        &self,
        unit: usize,
        level: u8,
        buf: &mut Vec<Rgba>,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> bool {
        let opts = &self.rungs[usize::from(level)];
        let tile = self.tiles[unit];
        buf.clear();
        buf.reserve(tile.area());
        let mut nan_seen = 0u64;
        let mut completed = true;
        for (x, y) in tile.pixels() {
            if !keep_going() {
                completed = false;
                break;
            }
            let ray = self.cam.ray_for_pixel(x, y);
            let (c, n) = shade_ray_counted(self.vol, self.tf, opts, &ray, &self.bbox);
            nan_seen += n;
            buf.push(c);
        }
        crate::counters::record_nan_samples(nan_seen);
        completed
    }

    fn commit(&self, unit: usize, buf: &[Rgba]) {
        for ((x, y), &c) in self.tiles[unit].pixels().zip(buf) {
            // SAFETY: tiles partition the image, so each (x, y) is written
            // by exactly one unit; concurrent attempts at the *same* tile
            // write identical bytes (deterministic raycaster).
            unsafe { self.out.write(y * self.width + x, c) };
        }
    }

    fn read_back(&self, unit: usize, buf: &mut Vec<Rgba>) {
        for (x, y) in self.tiles[unit].pixels() {
            // SAFETY: single-threaded phase, after every commit finished.
            buf.push(unsafe { self.out.read(y * self.width + x) });
        }
    }

    fn components(value: Rgba, sink: &mut dyn FnMut(f32)) {
        sink(value.r);
        sink(value.g);
        sink(value.b);
        sink(value.a);
    }

    fn poison(buf: &mut [Rgba]) {
        for (t, p) in buf.iter_mut().enumerate() {
            let v = if t % 2 == 0 { f32::NAN } else { 1e30 };
            *p = Rgba {
                r: v,
                g: v,
                b: v,
                a: v,
            };
        }
    }
}

/// Render a full image under an engine [`ExecPolicy`], returning the
/// (possibly partial) framebuffer plus a typed outcome.
///
/// `Plain` runs on `opts.nthreads` threads scheduled by `opts.schedule`
/// (panics propagate, `faults` ignored); the other policies take their
/// thread count and schedule from their supervisor configuration. Errors
/// are returned only for invalid configuration ([`RenderOpts::validate`],
/// plus the policy's thread count) — execution failures land in the
/// outcome.
pub fn render_with_policy<V: Volume3 + Sync>(
    vol: &V,
    cam: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
    policy: &ExecPolicy,
    faults: &FaultPlan,
) -> SfcResult<(Image, DegradedOutcome)> {
    opts.validate()?;
    let (nthreads, schedule) = match policy {
        ExecPolicy::Plain => (opts.nthreads, opts.schedule),
        ExecPolicy::Supervised(cfg) => (cfg.nthreads, cfg.schedule),
        ExecPolicy::Degraded(p) => (p.supervisor.nthreads, p.supervisor.schedule),
        ExecPolicy::Brownout(p) => (p.supervisor.nthreads, p.supervisor.schedule),
    };
    if nthreads == 0 {
        return Err(SfcError::InvalidParameter {
            name: "nthreads",
            reason: format!("the {} policy needs at least one thread", policy.label()),
        });
    }
    let (w, h) = (cam.width(), cam.height());
    let tiles = image_tiles(w, h, opts.tile, opts.tile);
    let bbox = Aabb::of_dims(vol.dims());
    // The ladder's coarser rungs exist only under the brownout policy. The
    // coarsened step is clamped to the volume diagonal so even the deepest
    // rung marches at least one sample through the box.
    let depth = match policy {
        ExecPolicy::Brownout(_) => RenderOpts::BROWNOUT_DEPTH,
        _ => 0,
    };
    let max_step = bbox.diagonal();
    let rungs = (0..=depth)
        .map(|level| match level {
            0 => *opts,
            _ => {
                let mut rung = opts.brownout(level);
                rung.step = rung.step.min(max_step);
                rung
            }
        })
        .collect();
    let mut img = Image::new(w, h);
    let kernel = TileKernel {
        vol,
        cam,
        tf,
        bbox,
        tiles: &tiles,
        width: w,
        out: DisjointSlots::new(img.pixels_mut()),
        rungs,
    };
    let plan = WorkPlan::new(tiles.len(), schedule);
    let outcome = Executor::new(nthreads).execute(&plan, policy, &kernel, faults);
    Ok((img, outcome))
}

/// Render a full image with the tile-parallel worker pool.
///
/// # Panics
/// Panics on invalid options ([`RenderOpts::validate`]); use
/// [`render_with_policy`] with [`ExecPolicy::Plain`] for untrusted
/// options.
pub fn render<V: Volume3 + Sync>(
    vol: &V,
    cam: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
) -> Image {
    match render_with_policy(vol, cam, tf, opts, &ExecPolicy::Plain, &FaultPlan::none()) {
        Ok((img, _)) => img,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{orbit_viewpoints, Projection};
    use crate::vec3::vec3;
    use sfc_core::{Dims3, FnVolume, Grid3, ArrayOrder3, ZOrder3};
    use sfc_harness::{DeadlineBudget, FaultKind, SupervisorConfig};
    use std::time::Duration;

    fn sphere_volume(n: usize) -> FnVolume<impl Fn(usize, usize, usize) -> f32> {
        let c = n as f32 / 2.0;
        let r = n as f32 / 4.0;
        FnVolume::new(Dims3::cube(n), move |i, j, k| {
            let d2 = (i as f32 + 0.5 - c).powi(2)
                + (j as f32 + 0.5 - c).powi(2)
                + (k as f32 + 0.5 - c).powi(2);
            if d2 < r * r {
                1.0
            } else {
                0.0
            }
        })
    }

    fn camera(n: usize, px: usize) -> Camera {
        Camera::look_at(
            vec3(n as f32 * 3.0, n as f32 / 2.0, n as f32 / 2.0),
            vec3(n as f32 / 2.0, n as f32 / 2.0, n as f32 / 2.0),
            vec3(0.0, 1.0, 0.0),
            Projection::Perspective {
                fov_y: 40f32.to_radians(),
            },
            px,
            px,
        )
    }

    #[test]
    fn replay_path_issues_eight_gets_per_sample_and_matches_shade_ray() {
        // The counter sim's replay path must reproduce the per-sample
        // stream (8 gets per sample through the default cell_corners)
        // while compositing the exact same color as the cached path.
        let vol = sphere_volume(16);
        let gets = std::cell::Cell::new(0u64);
        let counting = FnVolume::new(vol.dims(), |i, j, k| {
            gets.set(gets.get() + 1);
            vol.get(i, j, k)
        });
        let cam = camera(16, 24);
        let tf = TransferFunction::fire();
        let opts = RenderOpts::default();
        let bbox = Aabb::of_dims(vol.dims());
        let mut replay_gets = 0u64;
        let mut cached_gets = 0u64;
        for (x, y) in [(12usize, 12usize), (8, 14), (15, 6)] {
            let ray = cam.ray_for_pixel(x, y);
            gets.set(0);
            let a = shade_ray_replay(&counting, &tf, &opts, &ray, &bbox);
            replay_gets += gets.get();
            gets.set(0);
            let b = shade_ray(&counting, &tf, &opts, &ray, &bbox);
            cached_gets += gets.get();
            assert_eq!(a, b, "replay and cached colors must match at ({x},{y})");
        }
        assert!(replay_gets > 0);
        assert_eq!(replay_gets % 8, 0, "replay must read 8 corners per sample");
        assert!(
            cached_gets < replay_gets,
            "cached path must elide reads ({cached_gets} vs {replay_gets})"
        );
    }

    #[test]
    fn sphere_appears_in_image_center_not_corners() {
        let vol = sphere_volume(32);
        let img = render(
            &vol,
            &camera(32, 64),
            &TransferFunction::grayscale(),
            &RenderOpts::default(),
        );
        assert!(img.get(32, 32).a > 0.1, "center must see the sphere");
        assert_eq!(img.get(0, 0).a, 0.0, "corners see empty space");
        assert_eq!(img.get(63, 63).a, 0.0);
    }

    #[test]
    fn thread_count_does_not_change_the_image() {
        let vol = sphere_volume(16);
        let tf = TransferFunction::fire();
        let o1 = RenderOpts {
            nthreads: 1,
            ..Default::default()
        };
        let o8 = RenderOpts {
            nthreads: 8,
            ..Default::default()
        };
        let a = render(&vol, &camera(16, 48), &tf, &o1);
        let b = render(&vol, &camera(16, 48), &tf, &o8);
        for (pa, pb) in a.pixels().iter().zip(b.pixels()) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn schedule_does_not_change_the_image() {
        let vol = sphere_volume(16);
        let tf = TransferFunction::grayscale();
        let stat = RenderOpts {
            nthreads: 4,
            schedule: Schedule::StaticRoundRobin,
            ..Default::default()
        };
        let dyna = RenderOpts {
            nthreads: 4,
            schedule: Schedule::Dynamic,
            ..Default::default()
        };
        let a = render(&vol, &camera(16, 33), &tf, &stat);
        let b = render(&vol, &camera(16, 33), &tf, &dyna);
        for (pa, pb) in a.pixels().iter().zip(b.pixels()) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn layout_does_not_change_the_image() {
        let dims = Dims3::cube(16);
        let values: Vec<f32> = (0..dims.len())
            .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
            .collect();
        let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let z = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let tf = TransferFunction::fire();
        let opts = RenderOpts {
            nthreads: 2,
            ..Default::default()
        };
        let cam = camera(16, 40);
        let ia = render(&a, &cam, &tf, &opts);
        let iz = render(&z, &cam, &tf, &opts);
        for (pa, pb) in ia.pixels().iter().zip(iz.pixels()) {
            assert_eq!(pa, pb, "same data, same rays => identical image");
        }
    }

    #[test]
    fn empty_volume_renders_transparent() {
        let vol = FnVolume::new(Dims3::cube(8), |_, _, _| 0.0);
        let img = render(
            &vol,
            &camera(8, 16),
            &TransferFunction::fire(),
            &RenderOpts::default(),
        );
        assert_eq!(img.mean_alpha(), 0.0);
    }

    #[test]
    fn early_termination_caps_opacity() {
        let vol = FnVolume::new(Dims3::cube(16), |_, _, _| 1.0); // fully hot
        let img = render(
            &vol,
            &camera(16, 8),
            &TransferFunction::fire(),
            &RenderOpts::default(),
        );
        let c = img.get(4, 4);
        assert!(c.a >= 0.9 && c.a <= 1.0, "opaque but bounded: {}", c.a);
    }

    #[test]
    fn orbit_views_all_see_the_sphere() {
        let vol = sphere_volume(24);
        let center = vec3(12.0, 12.0, 12.0);
        let cams = orbit_viewpoints(
            8,
            center,
            60.0,
            Projection::Perspective {
                fov_y: 35f32.to_radians(),
            },
            32,
            32,
        );
        for (v, cam) in cams.iter().enumerate() {
            let img = render(&vol, cam, &TransferFunction::grayscale(), &RenderOpts::default());
            assert!(
                img.get(16, 16).a > 0.05,
                "viewpoint {v} must see the sphere"
            );
        }
    }

    fn cfg(nthreads: usize) -> SupervisorConfig {
        SupervisorConfig {
            nthreads,
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            timeout: Some(Duration::from_millis(1000)),
            watchdog_poll: Duration::from_millis(2),
            ..Default::default()
        }
    }

    fn opts(nthreads: usize) -> RenderOpts {
        RenderOpts {
            nthreads,
            tile: 16,
            ..Default::default()
        }
    }

    #[test]
    fn fault_free_degraded_render_matches_plain_render() {
        let vol = sphere_volume(16);
        let cam = camera(16, 48);
        let tf = TransferFunction::fire();
        let o = opts(4);
        let reference = render(&vol, &cam, &tf, &o);
        let policy = ExecPolicy::degraded(cfg(4), Some((0.0, 1.0)));
        let (img, outcome) =
            render_with_policy(&vol, &cam, &tf, &o, &policy, &FaultPlan::none()).unwrap();
        assert!(outcome.defects.is_clean());
        assert_eq!(img.pixels(), reference.pixels());
    }

    #[test]
    fn injected_tile_faults_are_repaired_to_identical_pixels() {
        let vol = sphere_volume(16);
        let cam = camera(16, 48); // 48/16 = 3x3 = 9 tiles
        let tf = TransferFunction::grayscale();
        let o = opts(3);
        let reference = render(&vol, &cam, &tf, &o);
        let faults = FaultPlan::none()
            .with(0, FaultKind::Panic)
            .with(3, FaultKind::CorruptOutput)
            .with(5, FaultKind::Stall(Duration::from_secs(10)))
            .with(7, FaultKind::FailFirst(9));
        let policy = ExecPolicy::degraded(cfg(3), Some((0.0, 1.0)));
        let (img, outcome) = render_with_policy(&vol, &cam, &tf, &o, &policy, &faults).unwrap();
        assert_eq!(outcome.defects.units(), vec![0, 3, 5, 7]);
        assert!(outcome.output_is_whole(), "{}", outcome.defects);
        assert_eq!(img.pixels(), reference.pixels());
    }

    #[test]
    fn brownout_zero_budget_renders_at_the_deepest_rung() {
        let vol = sphere_volume(16);
        let cam = camera(16, 48); // 3x3 tiles
        let tf = TransferFunction::fire();
        let o = opts(2);
        // A zero budget sheds every tile; the repair pass renders at the
        // deepest ladder rung, so the image must be pixel-identical to a
        // plain render with those coarsened options.
        let coarse = o.brownout(RenderOpts::BROWNOUT_DEPTH);
        let reference = render(&vol, &cam, &tf, &coarse);
        let policy = ExecPolicy::brownout(
            cfg(2),
            DeadlineBudget::with_budget(Duration::ZERO),
            Some((0.0, 1.0)),
        );
        let (img, outcome) =
            render_with_policy(&vol, &cam, &tf, &o, &policy, &FaultPlan::none()).unwrap();
        assert!(outcome.output_is_whole(), "{}", outcome.defects);
        assert_eq!(outcome.quality.len(), 9);
        assert_eq!(outcome.quality.max_level(), RenderOpts::BROWNOUT_DEPTH);
        assert_eq!(img.pixels(), reference.pixels());
    }

    #[test]
    fn brownout_without_pressure_is_pixel_identical_to_plain() {
        let vol = sphere_volume(16);
        let cam = camera(16, 48);
        let tf = TransferFunction::grayscale();
        let o = opts(2);
        let reference = render(&vol, &cam, &tf, &o);
        let policy = ExecPolicy::brownout(cfg(2), DeadlineBudget::none(), Some((0.0, 1.0)));
        let (img, outcome) =
            render_with_policy(&vol, &cam, &tf, &o, &policy, &FaultPlan::none()).unwrap();
        assert!(outcome.defects.is_clean());
        assert!(outcome.quality.is_full_quality(), "{}", outcome.quality);
        assert_eq!(img.pixels(), reference.pixels());
    }

    #[test]
    fn invalid_step_is_a_config_error() {
        let vol = sphere_volume(8);
        let cam = camera(8, 16);
        let tf = TransferFunction::fire();
        let degraded = ExecPolicy::degraded(cfg(1), None);
        let err_of = |o: RenderOpts, policy: &ExecPolicy| {
            render_with_policy(&vol, &cam, &tf, &o, policy, &FaultPlan::none()).unwrap_err()
        };
        for step in [0.0, -0.5, f32::NAN, f32::INFINITY] {
            let bad = RenderOpts { step, ..opts(1) };
            let err = err_of(bad, &degraded);
            assert!(
                matches!(err, SfcError::InvalidParameter { name: "step", .. }),
                "{err:?}"
            );
        }
        let err = err_of(RenderOpts { tile: 0, ..opts(1) }, &ExecPolicy::Plain);
        assert!(
            matches!(err, SfcError::InvalidParameter { name: "tile", .. }),
            "{err:?}"
        );
        let err = err_of(opts(0), &ExecPolicy::Plain);
        assert!(
            matches!(
                err,
                SfcError::InvalidParameter {
                    name: "nthreads",
                    ..
                }
            ),
            "{err:?}"
        );
        // The thread count the policy actually runs on is checked too.
        for policy in [
            ExecPolicy::Supervised(cfg(0)),
            ExecPolicy::degraded(cfg(0), None),
            ExecPolicy::brownout(cfg(0), DeadlineBudget::none(), None),
        ] {
            let err = err_of(opts(1), &policy);
            assert!(
                matches!(
                    err,
                    SfcError::InvalidParameter {
                        name: "nthreads",
                        ..
                    }
                ),
                "{}: {err:?}",
                policy.label()
            );
        }
    }

    #[test]
    #[should_panic(expected = "ray step must be positive and finite")]
    fn render_at_step_zero_panics_instead_of_hanging() {
        let vol = sphere_volume(8);
        let bad = RenderOpts {
            step: 0.0,
            ..opts(1)
        };
        render(&vol, &camera(8, 16), &TransferFunction::fire(), &bad);
    }

    #[test]
    fn plain_policy_runs_the_tile_kernel_with_a_clean_outcome() {
        // Oracle outside the engine: one serial `shade_ray` per pixel.
        let vol = sphere_volume(16);
        let cam = camera(16, 32);
        let tf = TransferFunction::fire();
        let o = opts(2);
        let bbox = Aabb::of_dims(vol.dims());
        let (img, outcome) =
            render_with_policy(&vol, &cam, &tf, &o, &ExecPolicy::Plain, &FaultPlan::none())
                .unwrap();
        assert!(outcome.defects.is_clean());
        assert_eq!(outcome.report.completed, 4); // 32/16 = 2x2 tiles
        for y in 0..32 {
            for x in 0..32 {
                let want = shade_ray(&vol, &tf, &o, &cam.ray_for_pixel(x, y), &bbox);
                assert_eq!(img.get(x, y), want, "pixel ({x},{y})");
            }
        }
    }

    #[test]
    fn supervised_policy_isolates_tile_panics_without_repair() {
        let vol = sphere_volume(16);
        let cam = camera(16, 48); // 3x3 tiles
        let tf = TransferFunction::grayscale();
        let o = opts(2);
        let faults = FaultPlan::none().with(4, FaultKind::Panic);
        let supervisor = SupervisorConfig {
            max_retries: 0,
            ..cfg(2)
        };
        let (_, outcome) = render_with_policy(
            &vol,
            &cam,
            &tf,
            &o,
            &ExecPolicy::Supervised(supervisor),
            &faults,
        )
        .unwrap();
        assert_eq!(outcome.defects.units(), vec![4]);
        assert!(!outcome.output_is_whole());
    }
}
