//! Gradient-based (Blinn-Phong) shading for the raycaster.
//!
//! An optional extension over the paper's emission/absorption renderer:
//! each sample's color is modulated by a local lighting term whose normal
//! is the negated central-difference gradient of the field. Shading
//! triples the per-sample read count (6 extra trilinear samples), which
//! *amplifies* the layout effects the paper measures — the shaded
//! renderer is used by the `render_volume` example via `--shaded`.

use sfc_core::{image_tiles, Volume3};
use sfc_harness::{DisjointSlots, Executor, WorkPlan};

use crate::counters::record_nan_samples;
use crate::ray::Aabb;
use crate::render::{assert_step_advances, check_step_advances, MarchOpts, RenderOpts};
use crate::sampler::CellSampler;
use crate::transfer::{Rgba, TransferFunction};
use crate::vec3::{vec3, Vec3};

/// A single directional light plus ambient floor.
#[derive(Debug, Clone, Copy)]
pub struct Light {
    /// Direction *toward* the light (normalized at construction).
    pub dir: Vec3,
    /// Ambient intensity in `[0, 1]`.
    pub ambient: f32,
    /// Diffuse weight.
    pub diffuse: f32,
    /// Specular weight.
    pub specular: f32,
    /// Specular exponent.
    pub shininess: f32,
}

impl Default for Light {
    fn default() -> Self {
        Self {
            dir: vec3(0.5, 0.8, 0.3).normalized(),
            ambient: 0.25,
            diffuse: 0.65,
            specular: 0.25,
            shininess: 24.0,
        }
    }
}

/// Central-difference gradient of the field at a continuous position
/// (step `h` in voxel units).
pub fn field_gradient<V: Volume3>(vol: &V, p: Vec3, h: f32) -> Vec3 {
    let mut sampler = CellSampler::uncached(vol);
    let g = gradient_at(&mut sampler, p, h);
    record_nan_samples(sampler.take_nan_count());
    g
}

/// [`field_gradient`] through a caller's sampler, whose NaN tally the six
/// samples add to.
fn gradient_at<V: Volume3>(sampler: &mut CellSampler<'_, V>, p: Vec3, h: f32) -> Vec3 {
    let dx = sampler.sample(vec3(p.x + h, p.y, p.z)) - sampler.sample(vec3(p.x - h, p.y, p.z));
    let dy = sampler.sample(vec3(p.x, p.y + h, p.z)) - sampler.sample(vec3(p.x, p.y - h, p.z));
    let dz = sampler.sample(vec3(p.x, p.y, p.z + h)) - sampler.sample(vec3(p.x, p.y, p.z - h));
    vec3(dx, dy, dz) / (2.0 * h)
}

/// Blinn-Phong intensity for a surface normal, view direction, and light.
/// `normal` and `view` need not be normalized; degenerate normals fall
/// back to ambient-only (homogeneous regions have no meaningful surface).
pub fn phong_intensity(normal: Vec3, view: Vec3, light: &Light) -> f32 {
    let nlen = normal.length();
    if nlen < 1e-6 {
        return light.ambient;
    }
    let n = normal / nlen;
    let v = view.normalized();
    let diff = n.dot(light.dir).max(0.0);
    let half = (light.dir + v).normalized();
    let spec = n.dot(half).max(0.0).powf(light.shininess);
    (light.ambient + light.diffuse * diff + light.specular * spec).min(1.5)
}

/// March one ray with gradient shading (front-to-back, early termination —
/// the shaded counterpart of [`crate::render::shade_ray`]). `bbox` is the
/// volume's bounding box, hoisted to the caller (built once per frame).
///
/// # Panics
/// Panics if the ray hits the box and `opts.step` does not advance its
/// ray parameter up to the box exit, like [`crate::render::shade_ray`].
pub fn shade_ray_lit<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    opts: &RenderOpts,
    light: &Light,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> Rgba {
    if let Some((_, t1)) = bbox.intersect(ray) {
        assert_step_advances(opts.step, t1);
    }
    let march = MarchOpts::new(tf, opts);
    let (color, nan_seen) = shade_ray_lit_counted(vol, tf, &march, light, ray, bbox);
    record_nan_samples(nan_seen);
    color
}

/// [`shade_ray_lit`] without the step check and the counter flush:
/// returns the composited color and the ray's NaN-substitution count.
/// One uncached sampler serves the ray's seven samples per step, so each
/// sample reads its cell afresh, as a one-shot sample would.
pub(crate) fn shade_ray_lit_counted<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    march: &MarchOpts,
    light: &Light,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> (Rgba, u64) {
    let Some((t0, t1)) = bbox.intersect(ray) else {
        return (Rgba::default(), 0);
    };
    let opts = &march.opts;
    let mut sampler = CellSampler::uncached(vol);
    let mut color = Rgba::default();
    let mut t = t0 + opts.step * 0.5;
    while t < t1 {
        let p = ray.at(t);
        let idx = tf.index(sampler.sample(p));
        let s = tf.entry(idx);
        if s.a > 0.0 {
            // Normal points against the gradient (out of dense regions).
            let g = gradient_at(&mut sampler, p, 1.0);
            let intensity = phong_intensity(-g, -ray.dir, light);
            let a = march.alphas[idx];
            let w = (1.0 - color.a) * a;
            color.r += w * s.r * intensity;
            color.g += w * s.g * intensity;
            color.b += w * s.b * intensity;
            color.a += w;
            if color.a >= opts.early_termination {
                break;
            }
        }
        t += opts.step;
    }
    (color, sampler.take_nan_count())
}

/// Render a full frame with gradient shading (tile-parallel on
/// `opts.nthreads` threads scheduled by `opts.schedule`, like
/// [`crate::render::render`]).
///
/// # Panics
/// Panics on invalid options ([`RenderOpts::validate`]) and on a ray step
/// too small to advance the ray parameter up to where `cam`'s rays leave
/// the volume.
pub fn render_lit<V: Volume3 + Sync>(
    vol: &V,
    cam: &crate::camera::Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
    light: &Light,
) -> crate::image::Image {
    let bbox = Aabb::of_dims(vol.dims());
    let valid = opts
        .validate()
        .and_then(|()| check_step_advances(opts.step, cam.max_exit_param(&bbox)));
    if let Err(e) = valid {
        panic!("{e}");
    }
    let (w, h) = (cam.width(), cam.height());
    let tiles = image_tiles(w, h, opts.tile, opts.tile);
    let march = MarchOpts::new(tf, opts);
    let mut img = crate::image::Image::new(w, h);
    let slots = DisjointSlots::new(img.pixels_mut());
    let plan = WorkPlan::new(tiles.len(), opts.schedule);
    Executor::new(opts.nthreads).run(&plan, |_tid, ti| {
        let mut nan_seen = 0u64;
        for (x, y) in tiles[ti].pixels() {
            let ray = cam.ray_for_pixel(x, y);
            let (c, n) = shade_ray_lit_counted(vol, tf, &march, light, &ray, &bbox);
            nan_seen += n;
            // SAFETY: tiles partition the image; each pixel written once.
            unsafe { slots.write(y * w + x, c) };
        }
        record_nan_samples(nan_seen);
    });
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{Camera, Projection};
    use sfc_core::{Dims3, FnVolume};

    fn sphere(n: usize) -> FnVolume<impl Fn(usize, usize, usize) -> f32> {
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

    fn cam(n: usize, px: usize) -> Camera {
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
    fn gradient_of_linear_field_is_constant() {
        let vol = FnVolume::new(Dims3::cube(16), |i, _, _| i as f32 / 16.0);
        let g = field_gradient(&vol, vec3(8.0, 8.0, 8.0), 1.0);
        assert!((g.x - 1.0 / 16.0).abs() < 1e-4);
        assert!(g.y.abs() < 1e-5 && g.z.abs() < 1e-5);
    }

    #[test]
    fn phong_zero_normal_falls_back_to_ambient() {
        let l = Light::default();
        assert_eq!(phong_intensity(Vec3::ZERO, vec3(1.0, 0.0, 0.0), &l), l.ambient);
    }

    #[test]
    fn phong_facing_light_brighter_than_facing_away() {
        let l = Light::default();
        let toward = phong_intensity(l.dir, l.dir, &l);
        let away = phong_intensity(-l.dir, l.dir, &l);
        assert!(toward > away);
        assert!(away >= l.ambient - 1e-6, "back side keeps ambient");
    }

    #[test]
    fn lit_render_produces_shading_variation_across_the_sphere() {
        let vol = sphere(24);
        let tf = TransferFunction::grayscale();
        let opts = RenderOpts {
            nthreads: 2,
            ..Default::default()
        };
        let img = render_lit(&vol, &cam(24, 48), &tf, &opts, &Light::default());
        // The sphere is visible…
        assert!(img.get(24, 24).a > 0.1);
        // …and the lit side differs from the shadow side (a flat renderer
        // would give identical values by symmetry). Light comes from +y,
        // so compare pixels just above and below the sphere center.
        let top = img.get(24, 20).r;
        let bottom = img.get(24, 28).r;
        assert!(top > 0.0 && bottom > 0.0, "probe pixels must hit the sphere");
        assert!(
            (top - bottom).abs() > 0.01,
            "expected shading asymmetry, got {top} vs {bottom}"
        );
    }

    #[test]
    fn lit_render_is_layout_invariant() {
        use sfc_core::{ArrayOrder3, Grid3, ZOrder3};
        let dims = Dims3::cube(12);
        let values: Vec<f32> = (0..dims.len())
            .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
            .collect();
        let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let z: Grid3<f32, ZOrder3> = a.convert();
        let tf = TransferFunction::fire();
        let opts = RenderOpts {
            nthreads: 3,
            ..Default::default()
        };
        let ia = render_lit(&a, &cam(12, 20), &tf, &opts, &Light::default());
        let iz = render_lit(&z, &cam(12, 20), &tf, &opts, &Light::default());
        assert_eq!(ia.pixels(), iz.pixels());
    }

    #[test]
    #[should_panic(expected = "does not advance the ray parameter")]
    fn lit_render_with_a_step_too_small_to_advance_panics_instead_of_hanging() {
        let opts = RenderOpts {
            step: 1e-6,
            ..Default::default()
        };
        render_lit(
            &sphere(16),
            &cam(16, 8),
            &TransferFunction::fire(),
            &opts,
            &Light::default(),
        );
    }

    #[test]
    #[should_panic(expected = "invalid parameter `step`")]
    fn shade_ray_lit_at_step_zero_panics_instead_of_hanging() {
        let vol = sphere(8);
        let opts = RenderOpts {
            step: 0.0,
            ..Default::default()
        };
        let ray = cam(8, 16).ray_for_pixel(8, 8);
        let bbox = Aabb::of_dims(vol.dims());
        shade_ray_lit(
            &vol,
            &TransferFunction::fire(),
            &opts,
            &Light::default(),
            &ray,
            &bbox,
        );
    }

    #[test]
    #[should_panic(expected = "ray step must be positive and finite")]
    fn lit_render_at_step_zero_panics_instead_of_hanging() {
        let opts = RenderOpts {
            step: 0.0,
            ..Default::default()
        };
        render_lit(
            &sphere(8),
            &cam(8, 16),
            &TransferFunction::fire(),
            &opts,
            &Light::default(),
        );
    }
}
