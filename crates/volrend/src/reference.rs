//! The ray marchers' per-sample loops as they were before they stopped
//! calling the math library, kept as the bitwise oracle of the call-free
//! loops (DESIGN.md §5.3).
//!
//! The references below use `floor` for the sampler's cell split, `round`
//! for the transfer-function index and `powf` for the opacity correction,
//! one sample at a time, exactly as the marchers did. The tests compare
//! every marching path, the AVX2 ray packets included, against them with
//! `to_bits`, NaN-sample tallies included, over layouts, odd and
//! degenerate dims, steps and ladder rungs, transfer functions,
//! early-termination thresholds, non-finite and out-of-range voxels, and
//! rays that miss, graze or start inside the box.

use sfc_core::{
    ArrayOrder3, Dims3, FnVolume, Grid3, HilbertOrder3, SplitMix64, Tiled3, Volume3, ZOrder3,
};
use sfc_harness::{DeadlineBudget, ExecPolicy, FaultPlan, SupervisorConfig};

use crate::camera::{orbit_viewpoints, Projection};
use crate::ray::{Aabb, Ray};
use crate::render::{render_with_policy, shade_ray, shade_ray_counted, shade_ray_replay};
use crate::render::{MarchOpts, RenderOpts};
use crate::sampler::{blend8_scalar, clamp_bound, CellSampler};
use crate::shading::{phong_intensity, render_lit, shade_ray_lit, shade_ray_lit_counted, Light};
use crate::transfer::{rgba, Rgba, TransferFunction};
use crate::vec3::{vec3, Vec3};
#[cfg(target_arch = "x86_64")]
use crate::{packet, render::PACKET};

/// One trilinear sample with `floor`, its cell fetched afresh; NaN
/// corners become 0 and are tallied in `nan_seen`.
fn sample_floor<V: Volume3>(vol: &V, p: Vec3, nan_seen: &mut u64) -> f32 {
    let d = vol.dims();
    let x = (p.x - 0.5).clamp(0.0, clamp_bound(d.nx));
    let y = (p.y - 0.5).clamp(0.0, clamp_bound(d.ny));
    let z = (p.z - 0.5).clamp(0.0, clamp_bound(d.nz));
    let (x0f, y0f, z0f) = (x.floor(), y.floor(), z.floor());
    let (tx, ty, tz) = (x - x0f, y - y0f, z - z0f);
    let raw = vol.cell_corners(x0f as usize, y0f as usize, z0f as usize);
    let mut corners = [0.0f32; 8];
    for (slot, v) in corners.iter_mut().zip(raw) {
        if v.is_nan() {
            *nan_seen += 1;
        } else {
            *slot = v;
        }
    }
    blend8_scalar(&corners, tx, ty, tz)
}

/// The transfer-function lookup with `round`.
fn tf_sample_round(tf: &TransferFunction, v: f32) -> Rgba {
    let last = (TransferFunction::RESOLUTION - 1) as f32;
    tf.entry((v.clamp(0.0, 1.0) * last).round() as usize)
}

/// `shade_ray`'s march with `floor`, `round` and `powf` per sample:
/// the composited color and the ray's NaN tally.
fn shade_ray_reference<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    opts: &RenderOpts,
    ray: &Ray,
    bbox: &Aabb,
) -> (Rgba, u64) {
    let Some((t0, t1)) = bbox.intersect(ray) else {
        return (Rgba::default(), 0);
    };
    let mut nan_seen = 0u64;
    let mut color = Rgba::default();
    let mut t = t0 + opts.step * 0.5;
    while t < t1 {
        let p = ray.at(t);
        let v = sample_floor(vol, p, &mut nan_seen);
        let s = tf_sample_round(tf, v);
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
    (color, nan_seen)
}

/// `field_gradient` over [`sample_floor`].
fn gradient_floor<V: Volume3>(vol: &V, p: Vec3, h: f32, nan_seen: &mut u64) -> Vec3 {
    let mut s = |q: Vec3| sample_floor(vol, q, nan_seen);
    let dx = s(vec3(p.x + h, p.y, p.z)) - s(vec3(p.x - h, p.y, p.z));
    let dy = s(vec3(p.x, p.y + h, p.z)) - s(vec3(p.x, p.y - h, p.z));
    let dz = s(vec3(p.x, p.y, p.z + h)) - s(vec3(p.x, p.y, p.z - h));
    vec3(dx, dy, dz) / (2.0 * h)
}

/// `shade_ray_lit`'s march with `floor`, `round` and `powf` per sample.
fn shade_ray_lit_reference<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    opts: &RenderOpts,
    light: &Light,
    ray: &Ray,
    bbox: &Aabb,
) -> (Rgba, u64) {
    let Some((t0, t1)) = bbox.intersect(ray) else {
        return (Rgba::default(), 0);
    };
    let mut nan_seen = 0u64;
    let mut color = Rgba::default();
    let mut t = t0 + opts.step * 0.5;
    while t < t1 {
        let p = ray.at(t);
        let v = sample_floor(vol, p, &mut nan_seen);
        let s = tf_sample_round(tf, v);
        if s.a > 0.0 {
            // Normal points against the gradient (out of dense regions).
            let g = gradient_floor(vol, p, 1.0, &mut nan_seen);
            let intensity = phong_intensity(-g, -ray.dir, light);
            let a = 1.0 - (1.0 - s.a).powf(opts.step);
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
    (color, nan_seen)
}

fn bits(c: Rgba) -> [u32; 4] {
    [c.r.to_bits(), c.g.to_bits(), c.b.to_bits(), c.a.to_bits()]
}

/// Voxel values with NaN, ±inf, negative and above-1 voxels among the
/// ordinary ones in `[0, 1)`, in row-major order.
fn hostile_values(dims: Dims3, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..dims.len())
        .map(|_| match rng.u64_below(40) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -rng.f32_in(0.0, 2.0),
            4 => rng.f32_in(1.0, 3.0),
            _ => rng.f32_unit(),
        })
        .collect()
}

/// A smooth field over `[0, 1.2]` whose dense core saturates rays, so
/// early termination fires.
fn smooth_values(dims: Dims3) -> Vec<f32> {
    let c = vec3(dims.nx as f32, dims.ny as f32, dims.nz as f32) * 0.5;
    let r = c.x.min(c.y).min(c.z).max(1.0);
    dims.iter()
        .map(|(i, j, k)| {
            let p = vec3(i as f32 + 0.5, j as f32 + 0.5, k as f32 + 0.5);
            (1.2 - (p - c).length() / (2.0 * r)).max(0.0)
        })
        .collect()
}

fn unit_dir(rng: &mut SplitMix64) -> Vec3 {
    loop {
        let d = vec3(
            rng.f32_in(-1.0, 1.0),
            rng.f32_in(-1.0, 1.0),
            rng.f32_in(-1.0, 1.0),
        );
        if d.length() > 1e-3 {
            return d.normalized();
        }
    }
}

/// Rays that hit, miss, graze a face or an edge, or start inside the box.
fn test_rays(dims: Dims3, seed: u64) -> Vec<Ray> {
    let bbox = Aabb::of_dims(dims);
    let (c, diag) = (bbox.center(), bbox.diagonal());
    let (nx, ny, nz) = (dims.nx as f32, dims.ny as f32, dims.nz as f32);
    let mut rays = Vec::new();
    let persp = Projection::Perspective {
        fov_y: 50f32.to_radians(),
    };
    for cam in orbit_viewpoints(4, c, diag * 1.1, persp, 6, 5) {
        let (w, h) = (cam.width(), cam.height());
        rays.extend(
            (0..h)
                .flat_map(|y| (0..w).map(move |x| (x, y)))
                .map(|(x, y)| cam.ray_for_pixel(x, y)),
        );
    }
    let ortho = Projection::Orthographic { height: diag * 1.3 };
    for cam in orbit_viewpoints(3, c + vec3(0.0, 0.3, 0.0), diag * 1.5, ortho, 4, 4) {
        rays.extend(
            (0..4)
                .flat_map(|y| (0..4).map(move |x| (x, y)))
                .map(|(x, y)| cam.ray_for_pixel(x, y)),
        );
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..10 {
        let origin = vec3(
            rng.f32_in(0.0, nx),
            rng.f32_in(0.0, ny),
            rng.f32_in(0.0, nz),
        );
        rays.push(Ray {
            origin,
            dir: unit_dir(&mut rng),
        });
    }
    let x = vec3(1.0, 0.0, 0.0);
    let y = vec3(0.0, 1.0, 0.0);
    rays.extend([
        // Along the y = 0 and y = ny faces, and the z = nz face.
        Ray {
            origin: vec3(-3.0, 0.0, 0.3 * nz),
            dir: x,
        },
        Ray {
            origin: vec3(nx + 2.0, ny, 0.5 * nz),
            dir: -x,
        },
        Ray {
            origin: vec3(0.5 * nx, -2.0, nz),
            dir: y,
        },
        // Along an edge, through a corner only, and along the diagonal.
        Ray {
            origin: vec3(-1.0, 0.0, 0.0),
            dir: x,
        },
        Ray {
            origin: vec3(-1.0, 1.0, -1.0),
            dir: vec3(1.0, -1.0, 1.0).normalized(),
        },
        Ray {
            origin: vec3(-1.0, -1.0, -1.0),
            dir: vec3(nx, ny, nz).normalized(),
        },
        // Misses.
        Ray {
            origin: vec3(-5.0, -5.0, -5.0),
            dir: vec3(-1.0, 0.2, 0.1).normalized(),
        },
        Ray {
            origin: vec3(nx * 0.5, ny + 3.0, nz * 0.5),
            dir: vec3(1.0, 0.0, 1.0).normalized(),
        },
    ]);
    rays
}

/// A transfer function whose smallest non-zero opacity, 1e-9, corrects
/// to exactly 0 at every step: `1 - 1e-9` rounds to 1 in f32.
fn faint_tf() -> TransferFunction {
    TransferFunction::from_control_points(&[
        (0.0, rgba(0.0, 0.0, 0.0, 0.0)),
        (0.2, rgba(0.3, 0.6, 0.9, 1e-9)),
        (0.5, rgba(0.9, 0.6, 0.3, 1e-9)),
        (1.0, rgba(1.0, 1.0, 1.0, 0.7)),
    ])
}

fn transfer_functions() -> Vec<(&'static str, TransferFunction)> {
    vec![
        ("fire", TransferFunction::fire()),
        ("grayscale", TransferFunction::grayscale()),
        ("faint", faint_tf()),
    ]
}

/// Every rung of the brownout ladder over `base`, with the coarser
/// rungs' steps clamped to the box diagonal as `render_with_policy` does.
fn ladder(base: &RenderOpts, bbox: &Aabb) -> Vec<RenderOpts> {
    (0..=RenderOpts::BROWNOUT_DEPTH)
        .map(|level| {
            let mut rung = base.brownout(level);
            if level > 0 {
                rung.step = rung.step.min(bbox.diagonal());
            }
            rung
        })
        .collect()
}

const DIMS: [(usize, usize, usize); 3] = [(16, 16, 16), (13, 7, 5), (12, 9, 1)];
const BASE_STEPS: [f32; 3] = [0.37, 0.5, 3.0];
const EARLY_TERMINATION: [f32; 4] = [-1.0, 0.0, 0.98, 2.0];

/// Each layout and an `FnVolume` over the same values, with a label.
fn for_each_volume(values: &[f32], dims: Dims3, mut f: impl FnMut(&str, &dyn VolumeCase)) {
    let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, values);
    f("array", &a);
    f("z", &a.convert::<ZOrder3>());
    f("tiled", &a.convert::<Tiled3>());
    f("hilbert", &a.convert::<HilbertOrder3>());
    let fv = FnVolume::new(dims, |i, j, k| values[i + dims.nx * (j + dims.ny * k)]);
    f("fn", &fv);
}

/// The marching paths under test for one volume (object-safe, so the
/// matrix can loop over volume types).
trait VolumeCase {
    /// Compare the flat paths against the reference for every ray.
    fn check_flat(&self, tf: &TransferFunction, opts: &RenderOpts, rays: &[Ray], what: &str);
    /// Compare the lit paths against the reference for every ray.
    fn check_lit(&self, tf: &TransferFunction, opts: &RenderOpts, rays: &[Ray], what: &str);
}

impl<V: Volume3> VolumeCase for V {
    fn check_flat(&self, tf: &TransferFunction, opts: &RenderOpts, rays: &[Ray], what: &str) {
        let bbox = Aabb::of_dims(self.dims());
        let march = MarchOpts::new(tf, opts);
        let mut wants = Vec::with_capacity(rays.len());
        for (r, ray) in rays.iter().enumerate() {
            let (want, want_nans) = shade_ray_reference(self, tf, opts, ray, &bbox);
            wants.push((want, want_nans));
            let (cached, cached_nans) = shade_ray_counted(self, tf, &march, ray, &bbox);
            let (replay, replay_nans) = shade_ray_replay(self, tf, &march, ray, &bbox);
            for (path, got, nans) in [
                ("cached", cached, cached_nans),
                ("replay", replay, replay_nans),
            ] {
                assert_eq!(bits(got), bits(want), "{what}, ray {r} ({ray:?}), {path}");
                assert_eq!(nans, want_nans, "{what}, ray {r}, {path} NaN tally");
            }
            let public = shade_ray(self, tf, opts, ray, &bbox);
            assert_eq!(bits(public), bits(want), "{what}, ray {r}, shade_ray");
        }
        #[cfg(target_arch = "x86_64")]
        check_packets(self, tf, &march, rays, &wants, what);
    }

    fn check_lit(&self, tf: &TransferFunction, opts: &RenderOpts, rays: &[Ray], what: &str) {
        let bbox = Aabb::of_dims(self.dims());
        let march = MarchOpts::new(tf, opts);
        let light = Light::default();
        for (r, ray) in rays.iter().enumerate() {
            let (want, want_nans) = shade_ray_lit_reference(self, tf, opts, &light, ray, &bbox);
            let (got, nans) = shade_ray_lit_counted(self, tf, &march, &light, ray, &bbox);
            let public = shade_ray_lit(self, tf, opts, &light, ray, &bbox);
            assert_eq!(bits(got), bits(want), "{what}, ray {r} ({ray:?}), lit");
            assert_eq!(bits(public), bits(want), "{what}, ray {r}, shade_ray_lit");
            assert_eq!(nans, want_nans, "{what}, ray {r}, lit NaN tally");
        }
    }
}

/// The packet marcher over `rays`, eight to a packet, the last packet
/// padded with a ray that misses the box: every lane's bits and NaN tally
/// against `wants`, the reference per ray, and again with each packet's
/// rays in reverse lane order, so that no lane reads another's state.
/// Hosts without AVX2 have no packet marcher to check.
#[cfg(target_arch = "x86_64")]
fn check_packets<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    march: &MarchOpts,
    rays: &[Ray],
    wants: &[(Rgba, u64)],
    what: &str,
) {
    if !is_x86_feature_detected!("avx2") {
        return;
    }
    let bbox = Aabb::of_dims(vol.dims());
    let miss = Ray {
        origin: vec3(-5.0, -5.0, -5.0),
        dir: vec3(-1.0, 0.0, 0.0),
    };
    assert!(bbox.intersect(&miss).is_none());
    for (p, (rays, wants)) in rays.chunks(PACKET).zip(wants.chunks(PACKET)).enumerate() {
        let mut forward = [miss; PACKET];
        forward[..rays.len()].copy_from_slice(rays);
        let mut want = [(Rgba::default(), 0u64); PACKET];
        want[..wants.len()].copy_from_slice(wants);
        let mut reversed = forward;
        reversed.reverse();
        let shade = |rays: &[Ray]| packet::shade(vol, tf, march, rays, &bbox).expect("AVX2 host");
        let (colors, nans) = shade(&forward);
        let (rev_colors, rev_nans) = shade(&reversed);
        for l in 0..PACKET {
            let r = p * PACKET + l;
            let (want, want_nans) = want[l];
            let m = PACKET - 1 - l;
            for (order, lane, got, nans) in [
                ("forward", l, colors[l], nans[l]),
                ("reversed", m, rev_colors[m], rev_nans[m]),
            ] {
                // The color's bits and the NaN tally.
                let (got, want) = ((bits(got), nans), (bits(want), want_nans));
                assert_eq!(got, want, "{what}, ray {r}, {order} lane {lane}");
            }
        }
    }
}

#[test]
fn flat_marchers_match_the_libm_reference_bitwise() {
    let mut clamped_rungs = 0;
    for (n, &(nx, ny, nz)) in DIMS.iter().enumerate() {
        let dims = Dims3::new(nx, ny, nz);
        let bbox = Aabb::of_dims(dims);
        let rays = test_rays(dims, 0x5eed + n as u64);
        for (field, values) in [
            ("hostile", hostile_values(dims, 0xbad + n as u64)),
            ("smooth", smooth_values(dims)),
        ] {
            for_each_volume(&values, dims, |layout, vol| {
                for (tf_name, tf) in transfer_functions() {
                    for base_step in BASE_STEPS {
                        for et in EARLY_TERMINATION {
                            let base = RenderOpts {
                                step: base_step,
                                early_termination: et,
                                ..Default::default()
                            };
                            for (level, rung) in ladder(&base, &bbox).iter().enumerate() {
                                if rung.step == bbox.diagonal() {
                                    clamped_rungs += 1;
                                }
                                let what = format!(
                                    "{nx}x{ny}x{nz} {field} {layout} {tf_name} step {base_step} \
                                     rung {level} et {et}"
                                );
                                vol.check_flat(&tf, rung, &rays, &what);
                            }
                        }
                    }
                }
            });
        }
    }
    assert!(
        clamped_rungs > 0,
        "some rung must be clamped to the box diagonal"
    );
}

#[test]
fn lit_marcher_matches_the_libm_reference_bitwise() {
    for (n, &(nx, ny, nz)) in DIMS.iter().enumerate() {
        let dims = Dims3::new(nx, ny, nz);
        let bbox = Aabb::of_dims(dims);
        let rays = test_rays(dims, 0x11 + n as u64);
        let values = hostile_values(dims, 0x1e + n as u64);
        for_each_volume(&values, dims, |layout, vol| {
            for (tf_name, tf) in transfer_functions() {
                for et in EARLY_TERMINATION {
                    let base = RenderOpts {
                        step: 0.5,
                        early_termination: et,
                        ..Default::default()
                    };
                    let mut steps = ladder(&base, &bbox);
                    steps.push(RenderOpts { step: 0.37, ..base });
                    for opts in &steps {
                        let what = format!(
                            "{nx}x{ny}x{nz} {layout} {tf_name} step {} et {et}",
                            opts.step
                        );
                        vol.check_lit(&tf, opts, &rays, &what);
                    }
                }
            }
        });
    }
}

#[test]
fn frame_renderers_match_the_libm_reference_per_pixel() {
    // The tile kernel at full quality (Plain) and at the deepest rung (a
    // zero-budget brownout sheds every tile to it), and the lit frame
    // renderer, against the reference shading each pixel on its own.
    let dims = Dims3::new(13, 7, 5);
    let values = hostile_values(dims, 0xf7a);
    let bbox = Aabb::of_dims(dims);
    let cams = orbit_viewpoints(
        8,
        bbox.center(),
        bbox.diagonal(),
        Projection::Perspective {
            fov_y: 45f32.to_radians(),
        },
        20,
        12,
    );
    let opts = RenderOpts {
        step: 0.45,
        tile: 8,
        nthreads: 2,
        ..Default::default()
    };
    let deepest = ladder(&opts, &bbox)[usize::from(RenderOpts::BROWNOUT_DEPTH)];
    let supervisor = SupervisorConfig {
        nthreads: 2,
        ..Default::default()
    };
    let brownout = ExecPolicy::brownout(
        supervisor,
        DeadlineBudget::with_budget(std::time::Duration::ZERO),
        None,
    );
    let light = Light::default();
    let tf = TransferFunction::fire();
    let vol = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
    for (v, cam) in [&cams[1], &cams[6]].into_iter().enumerate() {
        let none = FaultPlan::none();
        let (plain, _) = render_with_policy(&vol, cam, &tf, &opts, &ExecPolicy::Plain, &none)
            .expect("valid options");
        let (coarse, outcome) =
            render_with_policy(&vol, cam, &tf, &opts, &brownout, &none).expect("valid options");
        assert!(outcome.output_is_whole(), "{}", outcome.quality);
        let lit = render_lit(&vol, cam, &tf, &opts, &light);
        for y in 0..cam.height() {
            for x in 0..cam.width() {
                let ray = cam.ray_for_pixel(x, y);
                let (want, _) = shade_ray_reference(&vol, &tf, &opts, &ray, &bbox);
                assert_eq!(
                    bits(plain.get(x, y)),
                    bits(want),
                    "view {v} ({x},{y}) plain"
                );
                let (want, _) = shade_ray_reference(&vol, &tf, &deepest, &ray, &bbox);
                assert_eq!(
                    bits(coarse.get(x, y)),
                    bits(want),
                    "view {v} ({x},{y}) rung 3"
                );
                let (want, _) = shade_ray_lit_reference(&vol, &tf, &opts, &light, &ray, &bbox);
                assert_eq!(bits(lit.get(x, y)), bits(want), "view {v} ({x},{y}) lit");
            }
        }
    }
}

#[test]
fn cell_sampler_matches_floor_at_nan_and_far_positions() {
    let dims = Dims3::new(13, 7, 5);
    let values = hostile_values(dims, 0xce11);
    let grid = Grid3::<f32, HilbertOrder3>::from_row_major(dims, &values);
    let specials = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN,
        1e30,
        -1e30,
        16_777_216.0,
        16_777_217.5,
        -0.0,
        0.0,
        0.5,
        0.499_999_97,
        0.500_000_06,
        1e-30,
        -1e-30,
        f32::MIN_POSITIVE,
        3.0,
        7.5,
        12.999_999,
        13.0,
        13.5,
        20.25,
    ];
    let mut rng = SplitMix64::new(0xf100);
    let mut positions: Vec<Vec3> = Vec::new();
    for &a in &specials {
        for &b in &specials[..6] {
            positions.push(vec3(a, 3.3, b));
            positions.push(vec3(b, a, 2.2));
            positions.push(vec3(4.4, b, a));
        }
    }
    for _ in 0..2000 {
        let mut coord = || match rng.u64_below(4) {
            0 => specials[rng.u64_below(specials.len() as u64) as usize],
            1 => rng.f32_in(-1e6, 1e6),
            _ => rng.f32_in(-2.0, 15.0),
        };
        positions.push(vec3(coord(), coord(), coord()));
    }
    let mut cached = CellSampler::new(&grid);
    for p in positions {
        let mut want_nans = 0;
        let want = sample_floor(&grid, p, &mut want_nans);
        // With a NaN coordinate, an add or multiply can see two NaNs, and
        // which one comes out depends on the operand order the compiler
        // picks, which Rust leaves unspecified: the reference's NaN sign
        // can flip with inlining elsewhere. Those cases accept any NaN for
        // a NaN; finite results and every NaN tally stay exact.
        let nan_coord = p.x.is_nan() || p.y.is_nan() || p.z.is_nan();
        let check = |got: f32, what: &str| {
            let (g, w) = (got.to_bits(), want.to_bits());
            let same = g == w || (nan_coord && got.is_nan() && want.is_nan());
            assert!(same, "{p:?}{what}: {g:#x} vs {w:#x}");
        };
        let mut fresh = CellSampler::uncached(&grid);
        check(fresh.sample(p), "");
        assert_eq!(fresh.take_nan_count(), want_nans, "{p:?} NaN tally");
        check(cached.sample(p), " cached");
        assert_eq!(cached.take_nan_count(), want_nans, "{p:?} cached NaN tally");
    }
}
