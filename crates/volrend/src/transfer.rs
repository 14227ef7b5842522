//! Transfer functions: scalar value → RGBA.

/// A straight-alpha RGBA color, components in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rgba {
    /// Red.
    pub r: f32,
    /// Green.
    pub g: f32,
    /// Blue.
    pub b: f32,
    /// Opacity.
    pub a: f32,
}

/// Shorthand constructor.
pub const fn rgba(r: f32, g: f32, b: f32, a: f32) -> Rgba {
    Rgba { r, g, b, a }
}

/// Piecewise-linear transfer function over scalar values in `[0, 1]`,
/// discretized into a lookup table for cheap per-sample evaluation.
#[derive(Debug, Clone)]
pub struct TransferFunction {
    table: Vec<Rgba>,
}

impl TransferFunction {
    /// Table resolution used by the constructors.
    pub const RESOLUTION: usize = 256;

    /// Build from control points `(value, color)`; values must be strictly
    /// increasing within `[0, 1]` and include at least one point.
    pub fn from_control_points(points: &[(f32, Rgba)]) -> Self {
        assert!(!points.is_empty(), "need at least one control point");
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "control point values must be strictly increasing"
        );
        let n = Self::RESOLUTION;
        let mut table = Vec::with_capacity(n);
        for idx in 0..n {
            let v = idx as f32 / (n - 1) as f32;
            table.push(Self::eval_points(points, v));
        }
        Self { table }
    }

    fn eval_points(points: &[(f32, Rgba)], v: f32) -> Rgba {
        if v <= points[0].0 {
            return points[0].1;
        }
        if v >= points[points.len() - 1].0 {
            return points[points.len() - 1].1;
        }
        let hi = points.iter().position(|&(pv, _)| pv >= v).expect("v in range");
        let (v0, c0) = points[hi - 1];
        let (v1, c1) = points[hi];
        let t = (v - v0) / (v1 - v0);
        rgba(
            c0.r + (c1.r - c0.r) * t,
            c0.g + (c1.g - c0.g) * t,
            c0.b + (c1.b - c0.b) * t,
            c0.a + (c1.a - c0.a) * t,
        )
    }

    /// A black-body style map suited to the combustion-like field: cool
    /// transparent blues through orange to hot opaque white.
    pub fn fire() -> Self {
        Self::from_control_points(&[
            (0.0, rgba(0.0, 0.0, 0.0, 0.0)),
            (0.25, rgba(0.1, 0.05, 0.3, 0.004)),
            (0.5, rgba(0.8, 0.25, 0.05, 0.04)),
            (0.75, rgba(1.0, 0.65, 0.1, 0.3)),
            (1.0, rgba(1.0, 1.0, 0.9, 0.9)),
        ])
    }

    /// A grayscale ramp with linearly increasing opacity (useful for
    /// debugging and for MRI-style data).
    pub fn grayscale() -> Self {
        Self::from_control_points(&[
            (0.0, rgba(0.0, 0.0, 0.0, 0.0)),
            (1.0, rgba(1.0, 1.0, 1.0, 0.5)),
        ])
    }

    /// Sample at a scalar value (clamped to `[0, 1]`): the nearest table
    /// entry.
    #[inline]
    pub fn sample(&self, v: f32) -> Rgba {
        self.entry(self.index(v))
    }

    /// Table index of the entry nearest to `v` (clamped to `[0, 1]`; NaN
    /// maps to entry 0): `(v.clamp(0.0, 1.0) * 255.0).round()`, computed
    /// without a math-library call. With `y` in `[0, 255]` and
    /// `i = y as u32` (truncation, which is `floor` for `y >= 0`),
    /// `y - i` is exact, so rounding half away from zero is `i` plus one
    /// when `y - i >= 0.5`.
    #[inline]
    pub(crate) fn index(&self, v: f32) -> usize {
        const LAST: f32 = (TransferFunction::RESOLUTION - 1) as f32;
        let y = v.clamp(0.0, 1.0) * LAST;
        let i = y as u32;
        (i + u32::from(y - i as f32 >= 0.5)) as usize
    }

    /// The table entry at `index` (from [`index`](Self::index)).
    ///
    /// # Panics
    /// Panics if `index >= RESOLUTION`.
    #[inline]
    pub(crate) fn entry(&self, index: usize) -> Rgba {
        self.table[index]
    }

    /// Each entry's opacity corrected for a ray step of `step` voxels
    /// (reference step 1 voxel): `1 - (1 - a)^step`, the expression the
    /// compositing loop would otherwise evaluate per sample. A
    /// nearest-entry table has one opacity per entry, so the marchers
    /// build this once per frame and step and look samples up by
    /// [`index`](Self::index).
    pub(crate) fn corrected_alphas(&self, step: f32) -> [f32; Self::RESOLUTION] {
        std::array::from_fn(|i| 1.0 - (1.0 - self.table[i].a).powf(step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_match_control_points() {
        let tf = TransferFunction::from_control_points(&[
            (0.0, rgba(0.0, 0.0, 0.0, 0.0)),
            (1.0, rgba(1.0, 0.5, 0.25, 1.0)),
        ]);
        assert_eq!(tf.sample(0.0), rgba(0.0, 0.0, 0.0, 0.0));
        assert_eq!(tf.sample(1.0), rgba(1.0, 0.5, 0.25, 1.0));
    }

    #[test]
    fn midpoint_interpolates() {
        let tf = TransferFunction::from_control_points(&[
            (0.0, rgba(0.0, 0.0, 0.0, 0.0)),
            (1.0, rgba(1.0, 1.0, 1.0, 1.0)),
        ]);
        let mid = tf.sample(0.5);
        assert!((mid.r - 0.5).abs() < 0.01);
        assert!((mid.a - 0.5).abs() < 0.01);
    }

    #[test]
    fn out_of_range_clamps() {
        let tf = TransferFunction::grayscale();
        assert_eq!(tf.sample(-5.0), tf.sample(0.0));
        assert_eq!(tf.sample(7.0), tf.sample(1.0));
    }

    #[test]
    fn fire_map_is_monotone_in_opacity() {
        let tf = TransferFunction::fire();
        let mut prev = -1.0f32;
        for i in 0..=10 {
            let a = tf.sample(i as f32 / 10.0).a;
            assert!(a >= prev - 1e-6, "opacity must not decrease");
            prev = a;
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_points_panic() {
        TransferFunction::from_control_points(&[
            (0.5, rgba(0.0, 0.0, 0.0, 0.0)),
            (0.5, rgba(1.0, 1.0, 1.0, 1.0)),
        ]);
    }

    /// The index the lookup used before it stopped calling `round`.
    fn index_by_round(v: f32) -> usize {
        (v.clamp(0.0, 1.0) * 255.0).round() as usize
    }

    #[test]
    fn index_matches_round_at_ties_and_their_neighbours() {
        let tf = TransferFunction::grayscale();
        for k in 0..256u32 {
            for y in [k as f32, k as f32 + 0.5] {
                let v = y / 255.0;
                // `v` and its neighbours one bit pattern away.
                let near = |d: i32| f32::from_bits(v.to_bits().wrapping_add_signed(d));
                for v in [v, near(-1), near(1)] {
                    assert_eq!(tf.index(v), index_by_round(v), "v = {v:e}");
                }
            }
        }
        for v in [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1.0,
            2.0,
        ] {
            assert_eq!(tf.index(v), index_by_round(v), "v = {v:e}");
        }
    }

    #[test]
    fn index_matches_round_on_a_strided_sweep() {
        let tf = TransferFunction::fire();
        for bits in (0..=u32::MAX).step_by(65521) {
            let v = f32::from_bits(bits);
            assert_eq!(tf.index(v), index_by_round(v), "bits {bits:#010x}");
        }
    }

    #[test]
    #[ignore = "all 2^32 inputs: run with `cargo test --release -p sfc-volrend -- --ignored`"]
    fn index_matches_round_for_every_f32() {
        let tf = TransferFunction::fire();
        let halves = [0..=u32::MAX / 2, u32::MAX / 2 + 1..=u32::MAX];
        std::thread::scope(|s| {
            for half in halves {
                let tf = &tf;
                s.spawn(move || {
                    for bits in half {
                        let v = f32::from_bits(bits);
                        assert_eq!(tf.index(v), index_by_round(v), "bits {bits:#010x}");
                    }
                });
            }
        });
    }

    #[test]
    fn corrected_alphas_repeat_the_per_sample_expression() {
        let tf = TransferFunction::fire();
        for step in [0.37, 0.5, 1.0, 4.0] {
            let table = tf.corrected_alphas(step);
            for (i, &a) in table.iter().enumerate() {
                let want = 1.0 - (1.0 - tf.entry(i).a).powf(step);
                assert_eq!(a.to_bits(), want.to_bits(), "step {step}, entry {i}");
            }
        }
    }

    #[test]
    fn low_values_are_transparent_in_fire() {
        assert!(TransferFunction::fire().sample(0.05).a < 0.01);
        assert!(TransferFunction::fire().sample(0.95).a > 0.5);
    }
}
