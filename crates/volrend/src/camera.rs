//! Cameras and the paper's orbiting viewpoint generator.
//!
//! The paper uses **perspective** projection — every ray has its own slope
//! `(δx, δy, δz)`, making the access pattern "semi-structured" (§III-B) —
//! and evaluates 8 viewpoints orbiting the dataset (§IV-B4). Viewpoints 0
//! and 4 look along the ±x axis, where rays align with array-order memory;
//! intermediate viewpoints are increasingly misaligned. Orthographic
//! projection is provided for completeness (all rays share one slope).

use crate::ray::{Aabb, Ray};
use crate::vec3::{vec3, Vec3};

/// Projection model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Projection {
    /// Pin-hole perspective with the given vertical field of view (radians).
    Perspective {
        /// Full vertical field-of-view angle in radians.
        fov_y: f32,
    },
    /// Orthographic with the given world-space image height.
    Orthographic {
        /// World-space height covered by the image plane.
        height: f32,
    },
}

/// A positioned camera producing one primary ray per output pixel.
#[derive(Debug, Clone, Copy)]
pub struct Camera {
    eye: Vec3,
    forward: Vec3,
    right: Vec3,
    up: Vec3,
    projection: Projection,
    width: usize,
    height: usize,
}

impl Camera {
    /// Build a camera at `eye` looking at `target` with the given `up` hint.
    ///
    /// # Panics
    /// Panics if `eye == target` or `up` is parallel to the view direction.
    pub fn look_at(
        eye: Vec3,
        target: Vec3,
        up: Vec3,
        projection: Projection,
        width: usize,
        height: usize,
    ) -> Self {
        assert!(width > 0 && height > 0);
        let forward = (target - eye).normalized();
        let right = forward.cross(up);
        assert!(
            right.length() > 1e-6,
            "up vector must not be parallel to the view direction"
        );
        let right = right.normalized();
        let up = right.cross(forward);
        Self {
            eye,
            forward,
            right,
            up,
            projection,
            width,
            height,
        }
    }

    /// Camera position.
    pub fn eye(&self) -> Vec3 {
        self.eye
    }

    /// Output image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Output image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// An upper bound on the ray parameter at which any of this camera's
    /// rays leaves `bbox`. Rays have unit direction, so a perspective ray
    /// travels at most the eye's distance to the farthest box corner; an
    /// orthographic ray starts up to the image plane's half-diagonal from
    /// the eye, which is added. A relative margin of 2^-16 covers the
    /// rounding of the slab test and of the ray directions.
    pub(crate) fn max_exit_param(&self, bbox: &Aabb) -> f32 {
        let far = |lo: f32, hi: f32, e: f32| (e - lo).abs().max((hi - e).abs());
        let corner = vec3(
            far(bbox.min.x, bbox.max.x, self.eye.x),
            far(bbox.min.y, bbox.max.y, self.eye.y),
            far(bbox.min.z, bbox.max.z, self.eye.z),
        );
        let mut t = corner.length();
        if let Projection::Orthographic { height } = self.projection {
            let aspect = self.width as f32 / self.height as f32;
            t += 0.5 * height.abs() * (aspect * aspect + 1.0).sqrt();
        }
        t * (1.0 + 1.0 / 65536.0)
    }

    /// The primary ray through pixel `(px, py)` (pixel centers; `py` grows
    /// downward). Direction is unit length.
    pub fn ray_for_pixel(&self, px: usize, py: usize) -> Ray {
        debug_assert!(px < self.width && py < self.height);
        let aspect = self.width as f32 / self.height as f32;
        // NDC in [-1, 1], y up.
        let u = 2.0 * (px as f32 + 0.5) / self.width as f32 - 1.0;
        let v = 1.0 - 2.0 * (py as f32 + 0.5) / self.height as f32;
        match self.projection {
            Projection::Perspective { fov_y } => {
                let t = (fov_y * 0.5).tan();
                let dir =
                    (self.forward + self.right * (u * t * aspect) + self.up * (v * t))
                        .normalized();
                Ray {
                    origin: self.eye,
                    dir,
                }
            }
            Projection::Orthographic { height } => {
                let half_h = height * 0.5;
                let origin = self.eye
                    + self.right * (u * half_h * aspect)
                    + self.up * (v * half_h);
                Ray {
                    origin,
                    dir: self.forward,
                }
            }
        }
    }
}

/// The paper's 8-viewpoint orbit around `center` at distance `radius`,
/// in the XZ plane (y up). Viewpoint 0 sits on the +x axis looking in the
/// −x direction (rays aligned with the array-order fastest axis);
/// viewpoint 4 is the opposite side.
pub fn orbit_viewpoints(
    n: usize,
    center: Vec3,
    radius: f32,
    projection: Projection,
    width: usize,
    height: usize,
) -> Vec<Camera> {
    assert!(n > 0);
    (0..n)
        .map(|v| {
            let theta = std::f32::consts::TAU * v as f32 / n as f32;
            let eye = center + vec3(radius * theta.cos(), 0.0, radius * theta.sin());
            Camera::look_at(eye, center, vec3(0.0, 1.0, 0.0), projection, width, height)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn persp() -> Projection {
        Projection::Perspective {
            fov_y: 45f32.to_radians(),
        }
    }

    #[test]
    fn center_pixel_looks_forward() {
        let cam = Camera::look_at(
            vec3(10.0, 0.0, 0.0),
            Vec3::ZERO,
            vec3(0.0, 1.0, 0.0),
            persp(),
            64,
            64,
        );
        let r = cam.ray_for_pixel(31, 31); // near center
        assert!(r.dir.x < -0.99, "should look toward -x, got {:?}", r.dir);
        assert_eq!(r.origin, vec3(10.0, 0.0, 0.0));
    }

    #[test]
    fn perspective_rays_diverge() {
        let cam = Camera::look_at(
            vec3(10.0, 0.0, 0.0),
            Vec3::ZERO,
            vec3(0.0, 1.0, 0.0),
            persp(),
            64,
            64,
        );
        let a = cam.ray_for_pixel(0, 32);
        let b = cam.ray_for_pixel(63, 32);
        assert!(a.dir.dot(b.dir) < 0.999, "corner rays must differ");
        assert_eq!(a.origin, b.origin, "perspective shares the eye");
    }

    #[test]
    fn orthographic_rays_are_parallel() {
        let cam = Camera::look_at(
            vec3(10.0, 0.0, 0.0),
            Vec3::ZERO,
            vec3(0.0, 1.0, 0.0),
            Projection::Orthographic { height: 4.0 },
            32,
            32,
        );
        let a = cam.ray_for_pixel(0, 0);
        let b = cam.ray_for_pixel(31, 31);
        assert_eq!(a.dir, b.dir, "orthographic rays share one slope");
        assert_ne!(a.origin, b.origin, "but start at different points");
    }

    #[test]
    fn rays_are_unit_length() {
        let cam = Camera::look_at(
            vec3(5.0, 2.0, -3.0),
            Vec3::ZERO,
            vec3(0.0, 1.0, 0.0),
            persp(),
            17,
            13,
        );
        for (px, py) in [(0, 0), (16, 12), (8, 6)] {
            assert!((cam.ray_for_pixel(px, py).dir.length() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn orbit_viewpoint_0_and_4_are_on_x_axis() {
        let cams = orbit_viewpoints(8, Vec3::ZERO, 100.0, persp(), 8, 8);
        assert_eq!(cams.len(), 8);
        let e0 = cams[0].eye();
        let e4 = cams[4].eye();
        assert!((e0.x - 100.0).abs() < 1e-3 && e0.z.abs() < 1e-3);
        assert!((e4.x + 100.0).abs() < 1e-3 && e4.z.abs() < 1e-3);
    }

    #[test]
    fn orbit_viewpoint_2_is_on_z_axis() {
        let cams = orbit_viewpoints(8, Vec3::ZERO, 100.0, persp(), 8, 8);
        let e2 = cams[2].eye();
        assert!(e2.x.abs() < 1e-3 && (e2.z - 100.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn degenerate_up_panics() {
        Camera::look_at(
            vec3(1.0, 0.0, 0.0),
            Vec3::ZERO,
            vec3(1.0, 0.0, 0.0),
            persp(),
            8,
            8,
        );
    }
}
