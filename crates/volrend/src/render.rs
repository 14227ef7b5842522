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
///
/// # Panics
/// Panics if the ray hits the box and `opts.step` does not advance its
/// ray parameter up to the box exit (a step of 0 or below, or one below
/// the float spacing there): the march would never end.
pub fn shade_ray<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    opts: &RenderOpts,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> Rgba {
    if let Some((_, t1)) = bbox.intersect(ray) {
        assert_step_advances(opts.step, t1);
    }
    let (color, nan_seen) = shade_ray_counted(vol, tf, &MarchOpts::new(tf, opts), ray, bbox);
    crate::counters::record_nan_samples(nan_seen);
    color
}

/// [`shade_ray`] without the step check and the counter flush: returns
/// the composited color and the ray's NaN-substitution count, letting
/// tile loops batch the shared-atomic update once per tile.
pub(crate) fn shade_ray_counted<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    march: &MarchOpts,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> (Rgba, u64) {
    // One cached-cell sampler per ray: at sub-voxel steps consecutive
    // samples often stay in the same trilinear cell and skip all reads.
    shade_through(CellSampler::new(vol), tf, march, ray, bbox)
}

/// [`shade_ray_counted`] through an *uncached* [`CellSampler`]: every
/// sample re-fetches its cell's 8 corners, so on a volume using the
/// default per-`get` [`Volume3::cell_corners`] (the counter simulation's
/// `TracedGrid`) the access stream is the original 8 `get`s per sample —
/// same taps, same order, clamped duplicates included. The composited
/// color and the NaN count are bit-identical to [`shade_ray_counted`];
/// only the read stream differs. Used by
/// `counters::simulate_render_counters` so simulated address streams stay
/// comparable across versions and with the paper's per-sample methodology.
pub(crate) fn shade_ray_replay<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    march: &MarchOpts,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> (Rgba, u64) {
    shade_through(CellSampler::uncached(vol), tf, march, ray, bbox)
}

/// Intersect `ray` with `bbox` and march it through `sampler`: the color
/// and the ray's NaN-substitution count.
fn shade_through<V: Volume3>(
    mut sampler: CellSampler<'_, V>,
    tf: &TransferFunction,
    march: &MarchOpts,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> (Rgba, u64) {
    let Some((t0, t1)) = bbox.intersect(ray) else {
        return (Rgba::default(), 0);
    };
    let color = march_ray(&mut sampler, tf, march, ray, t0, t1);
    (color, sampler.take_nan_count())
}

/// The options one ray march runs with: the render options plus the
/// transfer function's opacities corrected for their step, built once
/// per frame and ladder rung so the per-sample loop looks the correction
/// up instead of calling `powf`.
pub(crate) struct MarchOpts {
    pub(crate) opts: RenderOpts,
    /// `tf.corrected_alphas(opts.step)`, indexed by `tf.index(v)`.
    pub(crate) alphas: [f32; TransferFunction::RESOLUTION],
}

impl MarchOpts {
    pub(crate) fn new(tf: &TransferFunction, opts: &RenderOpts) -> Self {
        Self {
            opts: *opts,
            alphas: tf.corrected_alphas(opts.step),
        }
    }
}

/// Front-to-back integration loop shared by the native and
/// simulation-replay shading paths: marches `ray` over `[t0, t1)`,
/// reading the field through `sampler`. Per sample: one trilinear sample,
/// one table index, and a compositing update — no math-library call.
fn march_ray<V: Volume3>(
    sampler: &mut CellSampler<'_, V>,
    tf: &TransferFunction,
    march: &MarchOpts,
    ray: &crate::ray::Ray,
    t0: f32,
    t1: f32,
) -> Rgba {
    let opts = &march.opts;
    let mut color = Rgba::default();
    let mut t = t0 + opts.step * 0.5;
    while t < t1 {
        let p = ray.at(t);
        let idx = tf.index(sampler.sample(p));
        let s = tf.entry(idx);
        // Test the entry's own opacity, not the corrected one: a tiny
        // opacity can correct to 0, and such a sample still reaches the
        // early-termination test.
        if s.a > 0.0 {
            // Opacity corrected for the step length (reference step = 1 voxel).
            let a = march.alphas[idx];
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

/// Typed error unless `t += step` moves every ray parameter `t` in
/// `[0, t_max]` forward; where `t + step == t` a ray would sample the same
/// point forever. Float spacing is widest in `t_max`'s binade, and a tie
/// there rounds to even, so the test adds `step` to `t_max` with its
/// lowest significand bit cleared: it fails for a step of 0 or below, NaN,
/// or one at most half the spacing at `t_max`.
pub(crate) fn check_step_advances(step: f32, t_max: f32) -> SfcResult<()> {
    let t = f32::from_bits(t_max.to_bits() & !1);
    if t + step > t {
        return Ok(());
    }
    Err(SfcError::InvalidParameter {
        name: "step",
        reason: format!(
            "ray step {step} does not advance the ray parameter at {t_max}, \
             where rays leave the volume; the march would never end"
        ),
    })
}

/// [`check_step_advances`] for one ray, panicking with its message.
pub(crate) fn assert_step_advances(step: f32, t1: f32) {
    if let Err(e) = check_step_advances(step, t1) {
        panic!("{e}");
    }
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
    /// March options per quality-ladder level: `rungs[0]` is the
    /// configured options, `rungs[L]` the coarsened ones of level `L`
    /// (built only under the brownout policy).
    rungs: Vec<MarchOpts>,
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
        let march = &self.rungs[usize::from(level)];
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
            let (c, n) = shade_ray_counted(self.vol, self.tf, march, &ray, &self.bbox);
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
/// are returned only for invalid configuration ([`RenderOpts::validate`];
/// a ray step, at any ladder rung, too small to advance the ray parameter
/// up to where `cam`'s rays leave the volume; the policy's thread count) —
/// execution failures land in the outcome.
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
    let t_max = cam.max_exit_param(&bbox);
    let mut rungs = Vec::with_capacity(usize::from(depth) + 1);
    for level in 0..=depth {
        let mut rung = opts.brownout(level);
        if level > 0 {
            rung.step = rung.step.min(max_step);
        }
        check_step_advances(rung.step, t_max)?;
        rungs.push(MarchOpts::new(tf, &rung));
    }
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
        let march = MarchOpts::new(&tf, &opts);
        let bbox = Aabb::of_dims(vol.dims());
        let mut replay_gets = 0u64;
        let mut cached_gets = 0u64;
        for (x, y) in [(12usize, 12usize), (8, 14), (15, 6)] {
            let ray = cam.ray_for_pixel(x, y);
            gets.set(0);
            let (a, _) = shade_ray_replay(&counting, &tf, &march, &ray, &bbox);
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

    /// `sfc_bench::paper_orbit(16, 8)[0]`: viewpoint 0 of the paper's
    /// orbit around a 16³ volume, 8×8 pixels.
    fn paper_view0() -> Camera {
        let c = vec3(8.0, 8.0, 8.0);
        let persp = Projection::Perspective {
            fov_y: 40f32.to_radians(),
        };
        orbit_viewpoints(8, c, 16.0 * 2.2, persp, 8, 8).remove(0)
    }

    fn is_step_error(err: &SfcError) -> bool {
        matches!(err, SfcError::InvalidParameter { name: "step", .. })
    }

    #[test]
    fn step_too_small_to_advance_is_a_config_error() {
        // At the far side of the box t is about 40, where f32 values are
        // 3.8e-6 apart: `t + 1e-6 == t`, and the march used to hang.
        let grid = Grid3::<f32, ZOrder3>::from_row_major(Dims3::cube(16), &[0.5; 4096]);
        let tiny = RenderOpts {
            step: 1e-6,
            nthreads: 1,
            ..Default::default()
        };
        assert!(tiny.validate().is_ok(), "the step is positive and finite");
        let tf = TransferFunction::fire();
        let cam = paper_view0();
        let err = render_with_policy(
            &grid,
            &cam,
            &tf,
            &tiny,
            &ExecPolicy::Plain,
            &FaultPlan::none(),
        )
        .unwrap_err();
        assert!(is_step_error(&err), "{err:?}");
        assert!(err.to_string().contains("does not advance"), "{err}");
    }

    #[test]
    #[should_panic(expected = "does not advance the ray parameter")]
    fn render_with_a_step_too_small_to_advance_panics_instead_of_hanging() {
        let tiny = RenderOpts {
            step: 1e-6,
            nthreads: 1,
            ..Default::default()
        };
        render(
            &sphere_volume(16),
            &paper_view0(),
            &TransferFunction::fire(),
            &tiny,
        );
    }

    #[test]
    fn distant_cameras_are_rejected_at_the_default_step() {
        // At t ≈ 1e8, `t + 0.5 == t`: the default step stalls there.
        let vol = sphere_volume(8);
        let tf = TransferFunction::fire();
        let far = vec3(1e8, 4.0, 4.0);
        let target = vec3(4.0, 4.0, 4.0);
        let up = vec3(0.0, 1.0, 0.0);
        let persp = Projection::Perspective { fov_y: 1e-6 };
        let ortho = Projection::Orthographic { height: 8.0 };
        for projection in [persp, ortho] {
            let cam = Camera::look_at(far, target, up, projection, 4, 4);
            let err = render_with_policy(
                &vol,
                &cam,
                &tf,
                &opts(1),
                &ExecPolicy::Plain,
                &FaultPlan::none(),
            )
            .unwrap_err();
            assert!(is_step_error(&err), "{projection:?}: {err:?}");
        }
        // At 1e6 the spacing is 1/16, and the default step renders.
        let near = Camera::look_at(vec3(1e6, 4.0, 4.0), target, up, persp, 4, 4);
        let (img, _) = render_with_policy(
            &vol,
            &near,
            &tf,
            &opts(1),
            &ExecPolicy::Plain,
            &FaultPlan::none(),
        )
        .expect("a step of 0.5 advances at 1e6");
        assert!(img.mean_alpha() > 0.0, "the sphere fills the narrow view");
    }

    #[test]
    fn every_brownout_rung_step_is_checked() {
        // A 1³ box seen from 4e7 away: f32 values there are 4 apart, so a
        // step must exceed 2. The base step 10 does; the coarser rungs,
        // clamped to the box diagonal (1.73), do not.
        let vol = FnVolume::new(Dims3::cube(1), |_, _, _| 1.0);
        let cam = Camera::look_at(
            vec3(4e7, 0.5, 0.5),
            vec3(0.5, 0.5, 0.5),
            vec3(0.0, 1.0, 0.0),
            Projection::Perspective { fov_y: 1e-7 },
            2,
            2,
        );
        let tf = TransferFunction::fire();
        let coarse = RenderOpts {
            step: 10.0,
            ..opts(1)
        };
        let none = FaultPlan::none();
        assert!(render_with_policy(&vol, &cam, &tf, &coarse, &ExecPolicy::Plain, &none).is_ok());
        let brownout = ExecPolicy::brownout(cfg(1), DeadlineBudget::none(), None);
        let err = render_with_policy(&vol, &cam, &tf, &coarse, &brownout, &none).unwrap_err();
        assert!(is_step_error(&err), "{err:?}");
    }

    #[test]
    fn shade_ray_panics_at_a_step_of_zero_or_below() {
        let vol = sphere_volume(8);
        let tf = TransferFunction::fire();
        let bbox = Aabb::of_dims(vol.dims());
        let ray = camera(8, 16).ray_for_pixel(8, 8);
        assert!(bbox.intersect(&ray).is_some(), "the ray must hit the box");
        for step in [0.0, -0.5] {
            let bad = RenderOpts { step, ..opts(1) };
            let panicked = std::panic::catch_unwind(|| shade_ray(&vol, &tf, &bad, &ray, &bbox));
            let msg = panicked.expect_err("a non-advancing step must panic");
            let msg = msg.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("invalid parameter `step`"), "{msg}");
        }
        // A ray that misses the box never marches, so nothing can hang.
        let miss = crate::ray::Ray {
            origin: vec3(-5.0, -5.0, -5.0),
            dir: vec3(-1.0, 0.0, 0.0),
        };
        let bad = RenderOpts {
            step: 0.0,
            ..opts(1)
        };
        assert_eq!(shade_ray(&vol, &tf, &bad, &miss, &bbox), Rgba::default());
    }

    #[test]
    fn step_check_covers_the_tie_at_the_widest_spacing() {
        let advances = |step: f32, t_max: f32| check_step_advances(step, t_max).is_ok();
        // In [32, 64) f32 values are 2^-18 apart. A step of half that
        // ties at every t there and rounds to even, so from an even t it
        // never advances — also when t_max itself is odd and
        // `t_max + step` rounds up.
        let half = 2f32.powi(-19);
        let odd = f32::from_bits(33f32.to_bits() | 1);
        assert!(odd + half > odd, "the odd bound alone would pass");
        assert!(!advances(half, odd));
        assert!(!advances(half, 33.0));
        let above = f32::from_bits(half.to_bits() + 1);
        assert!(advances(above, odd));
        for t in [
            32.0f32,
            33.0,
            odd,
            40.5,
            f32::from_bits(64f32.to_bits() - 1),
        ] {
            assert!(t + above > t, "{t}");
        }
        for step in [0.0, -0.0, -1.0, f32::NAN] {
            assert!(!advances(step, 10.0), "{step}");
        }
        assert!(!advances(0.5, f32::INFINITY));
        assert!(advances(0.5, 40.0));
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
