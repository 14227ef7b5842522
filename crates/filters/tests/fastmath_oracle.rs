//! Bitwise oracle of the tap loop's SIMD tiers, and the frozen exact
//! output.
//!
//! These tests run the full `bilateral3d` pipeline and assert
//!
//! * every tier gives the same bits and NaN tally as the scalar tier, and
//!   no NaN voxel reaches the output, on pencils long enough for several
//!   16-lane blocks and every kind of tail, and
//! * the exact configuration ([`TapConfig::exact`]) stays bit-for-bit
//!   frozen (two checksum pins).
//!
//! A tier the host lacks clamps to the widest one it has, so the tier
//! test prints the tiers it actually ran (`--nocapture` shows it).

use std::sync::{Mutex, PoisonError};

use sfc_core::{
    ArrayOrder3, Axis, Dims3, Grid3, HilbertOrder3, Layout3, SplitMix64, StencilOrder, ZOrder3,
};
use sfc_filters::{
    bilateral3d, detect_tier, nan_events, reset_nan_events, BilateralParams, FilterRun, SimdTier,
    TapConfig,
};

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
fn exact_config_is_bitwise_frozen_on_sixteen_lane_pencils() {
    // A second checksum pin, recorded before the 16-lane tier existed, on
    // pencils long enough for it: x pencils of 37 voxels (two 16-voxel
    // blocks, then 5 on the scalar lane) at r1 xyz and z pencils of 40
    // (two blocks, then one 8-lane block) at r2 zyx, the two
    // configurations the filter benchmark runs.
    let dims = Dims3::new(37, 6, 40);
    let values = values_for(dims, 0x1357_9BDF_2468_ACE0, None);
    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    for (radius, axis, order) in [
        (1, Axis::X, StencilOrder::Xyz),
        (2, Axis::Z, StencilOrder::Zyx),
    ] {
        let base = run_for(radius, TapConfig::exact());
        let run = FilterRun {
            params: BilateralParams {
                order,
                ..base.params
            },
            pencil_axis: axis,
            ..base
        };
        let (out, _) = filter(dims, &values, &run);
        for v in out {
            hash ^= u64::from(v.to_bits());
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    assert_eq!(
        hash, 0xcd05_d6d2_f7b7_2867,
        "exact-mode output bits changed (update only if intentional)"
    );
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

/// The SIMD tiers, each clamped to the host when it runs.
const SIMD_TIERS: [SimdTier; 3] = [SimdTier::Sse2, SimdTier::Avx2, SimdTier::Avx512];

/// Every tier (clamped to the host) against the scalar tier: equal
/// outputs and equal NaN tallies. With `finite` (`values` holds NaN voxels
/// but no infinities), every tier's output must also be finite: a NaN
/// voxel never reaches the output.
fn assert_tiers_agree<L: Layout3>(
    dims: Dims3,
    values: &[f32],
    run: FilterRun,
    finite: bool,
    what: &str,
) {
    let with_tier = |tier| FilterRun {
        weight: TapConfig { tier, ..run.weight },
        ..run
    };
    let assert_finite = |tier: SimdTier, out: &[f32]| {
        assert!(
            !finite || out.iter().all(|v| v.is_finite()),
            "{what} {tier:?}: NaN leaked into the output"
        );
    };
    let (want, want_nans) = filter_in::<L>(dims, values, &with_tier(SimdTier::Scalar));
    assert!(want_nans > 0, "{what}: the input must contain NaN taps");
    assert_finite(SimdTier::Scalar, &want);
    for tier in SIMD_TIERS {
        let (got, nans) = filter_in::<L>(dims, values, &with_tier(tier));
        assert_eq!(nans, want_nans, "{what} {tier:?} NaN tally");
        assert!(same_bits(&got, &want), "{what} {tier:?} output bits");
        assert_finite(tier, &got);
    }
}

#[test]
fn every_tier_gives_the_scalar_bits_and_nan_tally() {
    let mut ran: Vec<&str> = SIMD_TIERS
        .iter()
        .map(|&t| t.min(detect_tier()).name())
        .collect();
    ran.dedup();
    eprintln!("tap-loop oracle: SIMD tiers run: {}", ran.join(" "));
    let mut rng = SplitMix64::new(0x5EED_0003);
    for radius in [1, 3, 5] {
        // 24, 31, 32, 33 and 40 run several 16-lane blocks and each kind
        // of tail: an 8-lane block, then the scalar lane, or either alone.
        let long = [24, 31, 32, 33, 40];
        for n in [1, 2, 2 * radius, 2 * radius + 1, 7, 8, 9, 17]
            .into_iter()
            .chain(long)
        {
            for (axis, dims) in [
                (Axis::X, Dims3::new(n, 3, 2)),
                (Axis::Y, Dims3::new(3, n, 2)),
                (Axis::Z, Dims3::new(3, 2, n)),
            ] {
                for infinite in [false, true] {
                    let values = defect_values(dims, rng.next_u64(), infinite);
                    let run = FilterRun {
                        pencil_axis: axis,
                        ..run_for(radius, TapConfig::exact())
                    };
                    let what = format!("r{radius} n{n} {axis:?} inf={infinite}");
                    assert_tiers_agree::<ZOrder3>(dims, &values, run, !infinite, &what);
                }
            }
        }
    }
    // Hilbert pencils, whose gather runs the two-plane table per voxel.
    let dims = Dims3::new(9, 8, 10);
    let values = defect_values(dims, rng.next_u64(), true);
    for axis in Axis::ALL {
        let run = FilterRun {
            pencil_axis: axis,
            ..run_for(3, TapConfig::exact())
        };
        let what = format!("hilbert {axis:?}");
        assert_tiers_agree::<HilbertOrder3>(dims, &values, run, false, &what);
    }
}
