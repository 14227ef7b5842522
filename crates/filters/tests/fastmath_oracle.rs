//! Tolerance-oracle suite for the fast photometric-weight paths, and the
//! bitwise tier matrix.
//!
//! The exact configuration ([`TapConfig::exact`]) is the bitwise oracle:
//! these tests run the full `bilateral3d` pipeline under every fast
//! configuration (LUT / polynomial exp × scalar / detected SIMD tier)
//! against it and assert
//!
//! * the maximum absolute output error stays inside a documented bound,
//! * NaN-substitution tallies are *identical* (fast paths may approximate
//!   weights, never change which taps are defective),
//! * every tier gives the same bits and NaN tally as the scalar tier, in
//!   every weight mode, and
//! * the exact configuration itself stays bit-for-bit frozen (checksum
//!   pin), so the fast paths can never leak into the reference result.

use std::sync::{Mutex, PoisonError};

use sfc_core::{
    ArrayOrder3, Axis, Dims3, Grid3, HilbertOrder3, Layout3, SplitMix64, StencilOrder, ZOrder3,
};
use sfc_filters::{
    bilateral3d, fastmath, nan_events, reset_nan_events, BilateralParams, FilterRun, SimdTier,
    TapConfig, WeightMode,
};

/// Output error budget for the fast weight paths, in value units on
/// unit-range data. The LUT's interpolation error is ~2e-6 per weight and
/// the polynomial's relative error ~5e-7; after the weighted-average
/// normalization the end-to-end effect stays far below this.
const TOL: f32 = 1e-4;

fn values_for(dims: Dims3, seed: u64, nan_every: Option<usize>) -> Vec<f32> {
    (0..dims.len())
        .map(|v| {
            if nan_every.is_some_and(|n| v % n == 0) {
                return f32::NAN;
            }
            let mut h = seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            (h % 1000) as f32 / 1000.0
        })
        .collect()
}

fn run_for(radius: usize, weight: TapConfig) -> FilterRun {
    FilterRun {
        params: BilateralParams {
            radius,
            sigma_spatial: (radius as f32 / 2.0).max(0.8),
            sigma_range: 0.1,
            order: StencilOrder::Xyz,
        },
        pencil_axis: Axis::X,
        nthreads: 2,
        weight,
    }
}

/// Held across reset, run and read of the NaN-event counter, which is
/// process-global while this file's tests run on parallel threads.
static NAN_COUNTER: Mutex<()> = Mutex::new(());

/// Run `bilateral3d` over an `L` grid and return (row-major output,
/// NaN-event tally).
fn filter_in<L: Layout3>(dims: Dims3, values: &[f32], run: &FilterRun) -> (Vec<f32>, u64) {
    let g = Grid3::<f32, L>::from_row_major(dims, values);
    // A test that panicked while holding the lock left the counter
    // mid-run; the reset below discards that state.
    let _counter = NAN_COUNTER.lock().unwrap_or_else(PoisonError::into_inner);
    reset_nan_events();
    let out: Grid3<f32, ArrayOrder3> = bilateral3d(&g, run);
    (out.to_row_major(), nan_events())
}

/// [`filter_in`] over a Z-order grid.
fn filter(dims: Dims3, values: &[f32], run: &FilterRun) -> (Vec<f32>, u64) {
    filter_in::<ZOrder3>(dims, values, run)
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// Every fast configuration worth distinguishing on this machine: both
/// approximate modes, forced-scalar and widest-detected tier each.
fn fast_configs() -> Vec<TapConfig> {
    let mut cfgs = Vec::new();
    for mode in [WeightMode::Lut, WeightMode::FastExp] {
        cfgs.push(TapConfig {
            mode,
            tier: SimdTier::Scalar,
        });
        let detected = TapConfig::with_mode(mode);
        if detected.tier != SimdTier::Scalar {
            cfgs.push(detected);
        }
    }
    cfgs
}

#[test]
fn lut_covers_full_quantized_range() {
    // Probe every one of the 4096 quantization cells over [0, 16] at its
    // midpoint and lower edge, plus the clamped tail, against libm exp.
    // (Constants mirror fastmath's LUT geometry.)
    let cells = 4096usize;
    let umax = 16.0f32;
    let mut max_err = 0.0f32;
    for i in 0..cells {
        for off in [0.0f32, 0.5] {
            let u = (i as f32 + off) * (umax / cells as f32);
            let err = (fastmath::exp_neg_lut(u) - (-u).exp()).abs();
            max_err = max_err.max(err);
        }
    }
    assert!(max_err <= 2.5e-6, "LUT max abs error {max_err}");
    // Tail: everything past umax clamps to the last cell, still tiny.
    for u in [umax, 20.0, 1.0e6, f32::INFINITY] {
        assert!(fastmath::exp_neg_lut(u) <= 1.2e-7, "tail at {u}");
    }
    // Polynomial over the same range.
    let mut max_rel = 0.0f32;
    for i in 0..10_000 {
        let u = i as f32 * (umax / 10_000.0);
        let want = (-u).exp();
        let rel = (fastmath::exp_neg_poly(u) - want).abs() / want;
        max_rel = max_rel.max(rel);
    }
    assert!(max_rel <= 5e-7, "poly max rel error {max_rel}");
}

#[test]
fn fast_modes_match_exact_within_tolerance_r1_r3_r5() {
    let mut rng = SplitMix64::new(0x5EED_0001);
    for radius in [1, 3, 5] {
        let dims = Dims3::new(12, 9, 8);
        let values = values_for(dims, rng.next_u64(), None);
        let (want, _) = filter(dims, &values, &run_for(radius, TapConfig::exact()));
        for cfg in fast_configs() {
            let (got, _) = filter(dims, &values, &run_for(radius, cfg));
            let err = max_abs_diff(&want, &got);
            assert!(
                err <= TOL,
                "r{radius} {:?}/{:?}: max abs err {err} > {TOL}",
                cfg.mode,
                cfg.tier
            );
        }
    }
}

#[test]
fn nan_tallies_identical_across_all_configs() {
    // Defect accounting is part of the contract: a fast weight path may
    // perturb values inside tolerance but must see exactly the same NaN
    // taps as the exact path.
    let mut rng = SplitMix64::new(0x5EED_0002);
    for (radius, nan_every) in [(1, 7), (3, 13), (5, 29)] {
        let dims = Dims3::new(11, 10, 7);
        let values = values_for(dims, rng.next_u64(), Some(nan_every));
        let (_, want_nans) = filter(dims, &values, &run_for(radius, TapConfig::exact()));
        assert!(want_nans > 0, "test vector must actually contain NaN taps");
        for cfg in fast_configs() {
            let (out, got_nans) = filter(dims, &values, &run_for(radius, cfg));
            assert_eq!(
                got_nans, want_nans,
                "r{radius} {:?}/{:?} NaN tally",
                cfg.mode, cfg.tier
            );
            for v in out {
                assert!(v.is_finite(), "NaN leaked into output under {cfg:?}");
            }
        }
    }
}

#[test]
fn exact_config_is_bitwise_frozen() {
    // Checksum pin over the exact-mode output bits for a fixed input: the
    // exact configuration is the contractual reference and must survive
    // fast-path refactors untouched. If this fails, the exact
    // kernel changed behavior — that is a breaking change, not a tweak.
    let dims = Dims3::new(10, 9, 6);
    let values = values_for(dims, 0xABCD_EF01_2345_6789, None);
    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    for radius in [1, 3] {
        let (out, _) = filter(dims, &values, &run_for(radius, TapConfig::exact()));
        for v in out {
            hash ^= u64::from(v.to_bits());
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    assert_eq!(
        hash, 0x724e_6fdd_78f9_f092,
        "exact-mode output bits changed (update only if intentional)"
    );
}

#[test]
fn fast_path_agrees_on_hilbert_layout_too() {
    // The fast tap loops read through the gather plan, which is
    // layout-sensitive; make sure agreement holds over the Hilbert grid
    // (non-contiguous pencils) as well as Z-order.
    let dims = Dims3::new(9, 8, 10);
    let values = values_for(dims, 0x1357_9BDF, None);
    let (exact, _) = filter_in::<HilbertOrder3>(dims, &values, &run_for(3, TapConfig::exact()));
    let (fast, _) = filter_in::<HilbertOrder3>(dims, &values, &run_for(3, TapConfig::fast()));
    let err = max_abs_diff(&exact, &fast);
    assert!(err <= TOL, "hilbert r3 max abs err {err}");
}

/// Unit-range values with NaN voxels (each NaN is also the center of its
/// own output), plus `+inf` and `-inf` voxels when `infinite`.
fn defect_values(dims: Dims3, seed: u64, infinite: bool) -> Vec<f32> {
    let mut values = values_for(dims, seed, Some(11));
    if infinite {
        for (v, x) in values.iter_mut().enumerate() {
            match v % 23 {
                7 => *x = f32::INFINITY,
                16 => *x = f32::NEG_INFINITY,
                _ => {}
            }
        }
    }
    values
}

/// Equal bits, or both NaN.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Every tier (clamped to the host) against the scalar tier in `mode`:
/// equal outputs and equal NaN tallies.
fn assert_tiers_agree<L: Layout3>(dims: Dims3, values: &[f32], run: FilterRun, what: &str) {
    let with_tier = |tier| FilterRun {
        weight: TapConfig {
            mode: run.weight.mode,
            tier,
        }
        .clamped(),
        ..run
    };
    let (want, want_nans) = filter_in::<L>(dims, values, &with_tier(SimdTier::Scalar));
    for tier in [SimdTier::Sse2, SimdTier::Avx2] {
        let (got, nans) = filter_in::<L>(dims, values, &with_tier(tier));
        let mode = run.weight.mode;
        assert_eq!(nans, want_nans, "{what} {mode:?}/{tier:?} NaN tally");
        assert!(
            same_bits(&got, &want),
            "{what} {mode:?}/{tier:?} output bits"
        );
    }
}

#[test]
fn every_tier_gives_the_scalar_bits_and_nan_tally_in_every_mode() {
    let modes = [WeightMode::Exact, WeightMode::Lut, WeightMode::FastExp];
    let mut rng = SplitMix64::new(0x5EED_0003);
    for radius in [1, 3, 5] {
        for n in [1, 2, 2 * radius, 2 * radius + 1, 7, 8, 9, 17] {
            for (axis, dims) in [
                (Axis::X, Dims3::new(n, 3, 2)),
                (Axis::Y, Dims3::new(3, n, 2)),
                (Axis::Z, Dims3::new(3, 2, n)),
            ] {
                for infinite in [false, true] {
                    let values = defect_values(dims, rng.next_u64(), infinite);
                    for mode in modes {
                        let run = FilterRun {
                            pencil_axis: axis,
                            ..run_for(radius, TapConfig::with_mode(mode))
                        };
                        let what = format!("r{radius} n{n} {axis:?} inf={infinite}");
                        assert_tiers_agree::<ZOrder3>(dims, &values, run, &what);
                    }
                }
            }
        }
    }
    // The gather walks Hilbert pencils through their own cursor.
    let dims = Dims3::new(9, 8, 10);
    let values = defect_values(dims, rng.next_u64(), true);
    for mode in modes {
        for axis in Axis::ALL {
            let run = FilterRun {
                pencil_axis: axis,
                ..run_for(3, TapConfig::with_mode(mode))
            };
            assert_tiers_agree::<HilbertOrder3>(dims, &values, run, &format!("hilbert {axis:?}"));
        }
    }
}
