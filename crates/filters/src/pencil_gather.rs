//! Pencil-gather fast path for the bilateral filter.
//!
//! The per-voxel kernel ([`crate::bilateral::bilateral_voxel`]) pays a
//! full layout index computation per stencil tap — `(2r+1)³` of them per
//! voxel, 1,331 for the paper's r5 configuration. But consecutive voxels
//! of a pencil share almost their entire neighborhood: the stencil taps of
//! the whole pencil live in the `(2r+1)²` rows of voxels that run parallel
//! to it. This module gathers those rows **once per pencil** into a
//! contiguous row-major scratch buffer (each row read with one
//! [`sfc_core::Volume3::gather_axis_run`]), after which the per-voxel tap
//! loop is pure contiguous arithmetic with *zero* index computation.
//!
//! ## Bitwise equivalence
//!
//! The tap loop iterates the taps in exactly the kernel's configured
//! [`sfc_core::StencilOrder`] (`tap_base` is built in `offsets()` order)
//! and performs the identical sequence of f32 operations on the identical
//! sample values, so its outputs are bit-for-bit equal to the per-voxel
//! path — the `output_is_layout_invariant_bitwise` tests hold unchanged.
//! Equal footing across layouts is also preserved: every layout's rows
//! are read through the same `Layout3::index`, once per voxel; only the
//! (layout-independent) redundancy of re-reading a voxel per tap is
//! removed.
//!
//! ## Padded rows, one loop
//!
//! Stencil rows whose *cross* coordinates fall outside the volume are
//! gathered from the clamped edge row, and every row carries `r` clamped
//! copies of its first and last sample at either end. A tap of voxel `a`
//! is then always `rows[tap_base[t] + a]`, the value `get_clamped`
//! serves, so boundary caps and pencils shorter than the stencil run the
//! same loop as the interior, with no per-tap clamp and no fallback.
//!
//! The loop vectorizes across the voxels of the pencil (see
//! [`crate::fastmath::Lanes`]): a block of `WIDTH` voxels (8 on AVX2, 4
//! on SSE2, 1 on the scalar tier) loads each tap with one unaligned load
//! at `tap_base[t] + a`, and lane `i` computes voxel `a + i` exactly as
//! the scalar loop would; the `n_a mod WIDTH` tail voxels run the scalar
//! lane. NaN events are accumulated locally and flushed to the shared
//! counter once per pencil.
//!
//! ## Brownout ladder
//!
//! The gather geometry depends only on `(kernel, dims, axis)`, so the
//! brownout quality ladder (`FilterRun::brownout_params`) precomputes one
//! [`GatherPlan`] per reduced-radius rung up front and picks the rung's
//! plan per attempt — a downgraded pencil gathers `(2(r−L)+1)²` rows
//! instead of `(2r+1)²`, shrinking both the memory traffic and the tap
//! loop quadratically with the ladder level. The per-thread scratch is
//! sized by whichever plan ran last and is reused across rungs.

use std::cell::RefCell;

use sfc_core::{Axis, Dims3, Pencil, Volume3};

use crate::fastmath::{
    detect_tier, Lanes, Scalar, SimdTier, TapConfig, WeightMode, EXACT, FAST_EXP, LUT,
};
use crate::gaussian::SpatialKernel;

thread_local! {
    /// Reusable per-thread gather scratch; grown on demand, never shrunk
    /// within a run, so steady state performs zero allocations.
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Precomputed gather geometry for one `(kernel, dims, pencil axis)`
/// combination; shared read-only across worker threads.
pub(crate) struct GatherPlan {
    /// Stencil radius.
    radius: usize,
    /// Extent of the pencil axis.
    n_a: usize,
    /// Cross-axis extents (`b` = faster-varying fixed axis of the pencil,
    /// `c` = slower, matching [`Pencil::a`]/[`Pencil::b`]).
    n_b: usize,
    n_c: usize,
    /// Length of one padded row: `r` clamped copies of the first sample,
    /// the `n_a` samples, `r` clamped copies of the last.
    row_len: usize,
    /// Per-tap scratch offset, in kernel tap order:
    /// `row_id * row_len + (d_axis + r)` — add `a` to index the tap sample
    /// of the voxel at pencil position `a`.
    tap_base: Vec<usize>,
    /// Scratch offset of voxel 0's center sample.
    center: usize,
}

/// Split a stencil offset into (along-axis, faster-cross, slower-cross)
/// components matching the pencil's `(t, a, b)` coordinate roles.
#[inline]
fn split_offset(axis: Axis, (di, dj, dk): (isize, isize, isize)) -> (isize, isize, isize) {
    match axis {
        Axis::X => (di, dj, dk),
        Axis::Y => (dj, di, dk),
        Axis::Z => (dk, di, dj),
    }
}

/// Recombine (along-axis, faster-cross, slower-cross) coordinates into
/// `(i, j, k)`; inverse of the role split in [`split_offset`].
#[inline]
fn join_coords(axis: Axis, a: usize, b: usize, c: usize) -> (usize, usize, usize) {
    match axis {
        Axis::X => (a, b, c),
        Axis::Y => (b, a, c),
        Axis::Z => (b, c, a),
    }
}

impl GatherPlan {
    pub(crate) fn new(kernel: &SpatialKernel, dims: Dims3, axis: Axis) -> Self {
        let r = kernel.radius();
        let w = 2 * r + 1;
        let n_a = axis.extent(dims);
        let (n_b, n_c) = match axis {
            Axis::X => (dims.ny, dims.nz),
            Axis::Y => (dims.nx, dims.nz),
            Axis::Z => (dims.nx, dims.ny),
        };
        let row_len = n_a + 2 * r;
        let ri = r as isize;
        let tap_base = kernel
            .offsets()
            .iter()
            .map(|&off| {
                let (da, db, dc) = split_offset(axis, off);
                let row_id = ((db + ri) as usize) + w * ((dc + ri) as usize);
                row_id * row_len + (da + ri) as usize
            })
            .collect();
        Self {
            radius: r,
            n_a,
            n_b,
            n_c,
            row_len,
            tap_base,
            center: (r + w * r) * row_len + r,
        }
    }
}

/// Filter one pencil, writing each voxel's result via `write(i, j, k, v)`
/// in along-axis order.
///
/// Every voxel, boundary caps and pencils shorter than the stencil
/// included, runs the same tap loop over the padded rows. With
/// `WeightMode::Exact` outputs are bitwise identical to calling
/// [`crate::bilateral::bilateral_voxel`] per voxel, on every tier; the
/// `Lut`/`FastExp` modes stay within the tolerance documented in
/// [`crate::fastmath`], give the same bits on every tier, and count NaN
/// events identically.
///
/// `write` returns a continue flag: `false` aborts the rest of the pencil
/// (cooperative cancellation — the supervised policies poll their cancel
/// token there). Returns whether every voxel of the pencil was written, and the
/// NaN events seen, which are also flushed to the shared counter.
pub(crate) fn bilateral_pencil<V, F>(
    vol: &V,
    kernel: &SpatialKernel,
    inv_2sr2: f32,
    plan: &GatherPlan,
    p: &Pencil,
    cfg: TapConfig,
    mut write: F,
) -> (bool, u64)
where
    V: Volume3,
    F: FnMut(usize, usize, usize, f32) -> bool,
{
    debug_assert_eq!(p.len, plan.n_a, "pencils span the whole axis");
    let (completed, nan_seen) = SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        gather_rows(vol, plan, p, &mut scratch);
        let taps = Taps {
            rows: &scratch,
            base: &plan.tap_base,
            weights: kernel.weights(),
            center: plan.center,
            inv_2sr2,
            n_a: plan.n_a,
        };
        run_taps(&taps, cfg, &mut |a, block| {
            block.iter().enumerate().all(|(l, &v)| {
                let (i, j, k) = p.coords(a + l);
                write(i, j, k, v)
            })
        })
    });
    crate::counters::record_nan_events(nan_seen);
    (completed, nan_seen)
}

/// Gather the pencil's `(2r+1)²` neighbor rows into `scratch`, padded
/// (row `(db+r) + (2r+1)(dc+r)` at offset `row_id * row_len`).
///
/// Cross coordinates that fall outside the volume clamp to the nearest
/// face, and each row carries `r` copies of its first and last sample at
/// either end — so every tap of every voxel reads exactly the value the
/// per-voxel path's `get_clamped` returns, without a branch. (Rows past a
/// face duplicate the edge row; the redundant reads are the price of one
/// loop for every voxel.)
fn gather_rows<V: Volume3>(vol: &V, plan: &GatherPlan, p: &Pencil, scratch: &mut Vec<f32>) {
    let r = plan.radius;
    let w = 2 * r + 1;
    let (n_a, row_len) = (plan.n_a, plan.row_len);
    scratch.resize(w * w * row_len, 0.0);
    for dc in 0..w {
        for db in 0..w {
            let b = (p.a + db).saturating_sub(r).min(plan.n_b - 1);
            let c = (p.b + dc).saturating_sub(r).min(plan.n_c - 1);
            let (i0, j0, k0) = join_coords(p.axis, 0, b, c);
            let row = &mut scratch[(db + w * dc) * row_len..][..row_len];
            vol.gather_axis_run(i0, j0, k0, p.axis, &mut row[r..r + n_a]);
            let (first, last) = (row[r], row[r + n_a - 1]);
            row[..r].fill(first);
            row[r + n_a..].fill(last);
        }
    }
}

/// One pencil's input to the tap loop: the padded rows and the plan's tap
/// table.
struct Taps<'a> {
    rows: &'a [f32],
    base: &'a [usize],
    weights: &'a [f32],
    center: usize,
    inv_2sr2: f32,
    n_a: usize,
}

/// Receives the results of voxels `a..a + block.len()` as
/// `emit(a, block)` and returns whether to go on. The tap loop takes it
/// as a trait object, so it is compiled once per tier and weight mode, not
/// once per caller.
type Emit<'e> = dyn FnMut(usize, &[f32]) -> bool + 'e;

/// Run the tap loop over the whole pencil on `cfg`'s tier (clamped to the
/// CPU), handing the results to `emit` block by block, in along-axis
/// order, until it returns `false`. Returns (every voxel emitted, NaN
/// events).
fn run_taps(t: &Taps, cfg: TapConfig, emit: &mut Emit) -> (bool, u64) {
    // The loop's loads read `n_a` floats from each tap base and from the
    // center; they must all lie inside the rows.
    assert!(
        t.base
            .iter()
            .chain([&t.center])
            .all(|&b| b + t.n_a <= t.rows.len()),
        "tap table exceeds the gathered rows"
    );
    match cfg.tier.min(detect_tier()) {
        // SAFETY: the tier is available on this CPU (clamped above) and
        // the loads are in bounds (asserted above).
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { x86::taps_avx2(t, cfg.mode, emit) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => unsafe { x86::taps_sse2(t, cfg.mode, emit) },
        // SAFETY: the scalar lanes need no CPU feature; loads as above.
        _ => unsafe { taps_by_mode::<Scalar>(t, cfg.mode, emit) },
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{taps_by_mode, Emit, Taps, WeightMode};
    use crate::fastmath::x86::{Avx2, Sse2};

    /// The tap loop compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2; `t` passed [`super::run_taps`]' bounds
    /// check.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn taps_avx2(t: &Taps, mode: WeightMode, emit: &mut Emit) -> (bool, u64) {
        // SAFETY: AVX2 is enabled for this function; `t` is the caller's.
        unsafe { taps_by_mode::<Avx2>(t, mode, emit) }
    }

    /// The tap loop compiled for SSE2.
    ///
    /// # Safety
    /// The CPU must support SSE2 (every x86_64 does); `t` passed
    /// [`super::run_taps`]' bounds check.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn taps_sse2(t: &Taps, mode: WeightMode, emit: &mut Emit) -> (bool, u64) {
        // SAFETY: SSE2 is enabled for this function; `t` is the caller's.
        unsafe { taps_by_mode::<Sse2>(t, mode, emit) }
    }
}

/// [`taps`] with the weight mode as a const generic.
///
/// # Safety
/// `S`'s tier must be enabled in the calling function and available, and
/// `t` must have passed [`run_taps`]' bounds check.
#[inline(always)]
unsafe fn taps_by_mode<S: Lanes>(t: &Taps, mode: WeightMode, emit: &mut Emit) -> (bool, u64) {
    // SAFETY: forwarded from the caller.
    unsafe {
        match mode {
            WeightMode::Exact => taps::<S, EXACT>(t, emit),
            WeightMode::Lut => taps::<S, LUT>(t, emit),
            WeightMode::FastExp => taps::<S, FAST_EXP>(t, emit),
        }
    }
}

/// The tap loop: voxels in blocks of `S::WIDTH`, then the remainder on
/// the scalar lane one by one, each emitted in along-axis order.
///
/// # Safety
/// As [`taps_by_mode`], and `t` passed [`run_taps`]' bounds check.
#[inline(always)]
unsafe fn taps<S: Lanes, const MODE: u8>(t: &Taps, emit: &mut Emit) -> (bool, u64) {
    let mut nan_seen = 0u64;
    let mut out = [0.0f32; 8];
    let mut a = 0;
    while a + S::WIDTH <= t.n_a {
        // SAFETY: `a + WIDTH <= n_a` (loop condition); `out` holds 8 ≥
        // WIDTH floats; the tier is available (caller).
        let n = unsafe {
            let (v, n) = block::<S, MODE>(t, a);
            S::store(out.as_mut_ptr(), v);
            n
        };
        nan_seen += n;
        if !emit(a, &out[..S::WIDTH]) {
            return (false, nan_seen);
        }
        a += S::WIDTH;
    }
    while a < t.n_a {
        // SAFETY: `a < n_a`; the scalar lanes need no CPU feature.
        let (v, n) = unsafe { block::<Scalar, MODE>(t, a) };
        nan_seen += n;
        if !emit(a, &[v]) {
            return (false, nan_seen);
        }
        a += 1;
    }
    (true, nan_seen)
}

/// Filter voxels `a..a + S::WIDTH` of the pencil, one per lane, with the
/// per-voxel kernel's sequence of f32 operations in kernel tap order.
/// A NaN tap leaves the lane's sums unchanged (a blend, not an added
/// zero) and counts one event; a NaN center weights geometrically only
/// and counts one event. Returns the lanes' results and the NaN events.
///
/// # Safety
/// `a + S::WIDTH <= t.n_a`; every tap base and the center of `t` are at
/// most `rows.len() - n_a` (checked by [`run_taps`]); `S`'s tier is
/// available.
#[inline(always)]
unsafe fn block<S: Lanes, const MODE: u8>(t: &Taps, a: usize) -> (S::V, u64) {
    debug_assert!(a + S::WIDTH <= t.n_a);
    // SAFETY: by the contract above every load below reads `WIDTH` floats
    // at `base + a <= base + n_a - WIDTH` inside `rows`.
    unsafe {
        let p = t.rows.as_ptr().add(a);
        let center = S::load(p.add(t.center));
        let center_nan = S::is_nan(center);
        let inv = S::splat(t.inv_2sr2);
        let zero = S::splat(0.0);
        let mut acc = zero;
        let mut wsum = zero;
        let mut nans = S::count(S::no_events(), center_nan);
        for (&base, &wg) in t.base.iter().zip(t.weights) {
            let v = S::load(p.add(base));
            let tap_nan = S::is_nan(v);
            nans = S::count(nans, tap_nan);
            let diff = S::sub(v, center);
            let u = S::mul(S::mul(diff, diff), inv);
            let wg = S::splat(wg);
            let w = S::select(center_nan, wg, S::mul(wg, S::exp_neg::<MODE>(u)));
            acc = S::select(tap_nan, acc, S::add(acc, S::mul(w, v)));
            wsum = S::select(tap_nan, wsum, S::add(wsum, w));
        }
        // With a non-NaN center, wsum >= the center's own weight
        // (1 * exp(0)) > 0; it can only be 0 when every sample was NaN.
        let value = S::select(S::is_positive(wsum), S::div(acc, wsum), zero);
        (value, S::total(nans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bilateral::{bilateral_voxel, BilateralParams};
    use sfc_core::{pencils, Grid3, StencilOrder, Tiled3, ZOrder3};

    fn params(radius: usize, order: StencilOrder) -> BilateralParams {
        BilateralParams {
            radius,
            sigma_spatial: 1.0,
            sigma_range: 0.12,
            order,
        }
    }

    fn noisy(dims: Dims3) -> Vec<f32> {
        (0..dims.len())
            .map(|v| ((v * 2654435761) % 977) as f32 / 977.0)
            .collect()
    }

    /// Exact mode on every tier.
    fn exact_tiers() -> [TapConfig; 3] {
        [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2].map(|tier| TapConfig {
            mode: WeightMode::Exact,
            tier,
        })
    }

    #[test]
    fn gathered_pencils_match_per_voxel_kernel_bitwise() {
        let dims = Dims3::new(11, 9, 7);
        let values = noisy(dims);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        for order in [StencilOrder::Xyz, StencilOrder::Zyx] {
            let p = params(2, order);
            let kernel = p.spatial_kernel();
            let inv = p.inv_two_sigma_range_sq();
            for axis in Axis::ALL {
                let plan = GatherPlan::new(&kernel, dims, axis);
                for cfg in exact_tiers() {
                    for pen in pencils(dims, axis) {
                        bilateral_pencil(&grid, &kernel, inv, &plan, &pen, cfg, |i, j, k, v| {
                            let want = bilateral_voxel(&grid, &kernel, inv, i, j, k);
                            assert_eq!(
                                v.to_bits(),
                                want.to_bits(),
                                "mismatch at ({i},{j},{k}) axis {axis:?} {:?}",
                                cfg.tier
                            );
                            true
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn nan_events_flush_once_per_pencil() {
        let dims = Dims3::cube(8);
        let mut values = noisy(dims);
        values[3 + 3 * 8 + 3 * 64] = f32::NAN;
        let grid = Grid3::<f32, Tiled3>::from_row_major(dims, &values);
        let p = params(1, StencilOrder::Xyz);
        let kernel = p.spatial_kernel();
        let inv = p.inv_two_sigma_range_sq();
        let plan = GatherPlan::new(&kernel, dims, Axis::X);
        for cfg in exact_tiers() {
            let mut nan_seen = 0;
            for pen in pencils(dims, Axis::X) {
                let (completed, n) =
                    bilateral_pencil(&grid, &kernel, inv, &plan, &pen, cfg, |_, _, _, _| true);
                assert!(completed);
                nan_seen += n;
            }
            // The NaN voxel is seen once per covering stencil: 27
            // neighbors' stencils include it, plus its own center
            // pre-count.
            assert_eq!(nan_seen, 28, "{:?}", cfg.tier);
        }
    }

    #[test]
    fn short_pencils_and_caps_match_per_voxel_kernel() {
        // radius 2 with a 4-long axis: every voxel is within r of an end.
        let dims = Dims3::new(4, 9, 9);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &noisy(dims));
        let p = params(2, StencilOrder::Xyz);
        let kernel = p.spatial_kernel();
        let inv = p.inv_two_sigma_range_sq();
        let plan = GatherPlan::new(&kernel, dims, Axis::X);
        for cfg in exact_tiers() {
            for pen in pencils(dims, Axis::X) {
                let mut count = 0;
                bilateral_pencil(&grid, &kernel, inv, &plan, &pen, cfg, |i, j, k, v| {
                    assert_eq!(
                        v.to_bits(),
                        bilateral_voxel(&grid, &kernel, inv, i, j, k).to_bits()
                    );
                    assert_eq!(
                        along(pen.axis, i, j, k),
                        count,
                        "emitted in along-axis order"
                    );
                    count += 1;
                    true
                });
                assert_eq!(count, pen.len);
            }
        }
    }

    #[test]
    fn a_false_write_stops_the_pencil() {
        let dims = Dims3::new(20, 3, 3);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &noisy(dims));
        let p = params(1, StencilOrder::Xyz);
        let kernel = p.spatial_kernel();
        let plan = GatherPlan::new(&kernel, dims, Axis::X);
        let pen = pencils(dims, Axis::X).next().expect("a pencil");
        for cfg in exact_tiers() {
            for stop in [0, 5, 8, 17] {
                let mut written = 0;
                let (completed, _) = bilateral_pencil(
                    &grid,
                    &kernel,
                    p.inv_two_sigma_range_sq(),
                    &plan,
                    &pen,
                    cfg,
                    |_, _, _, _| {
                        written += 1;
                        written <= stop
                    },
                );
                assert!(!completed);
                assert_eq!(written, stop + 1, "{:?}", cfg.tier);
            }
        }
    }

    fn along(axis: Axis, i: usize, j: usize, k: usize) -> usize {
        match axis {
            Axis::X => i,
            Axis::Y => j,
            Axis::Z => k,
        }
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;
    use crate::bilateral::BilateralParams;
    use sfc_core::{pencils, Grid3, StencilOrder, ZOrder3};

    /// ns per tap of the pencil loop (gather included) for every mode and
    /// tier, on 64-voxel pencils of a 64×8×8 volume:
    /// `cargo test --release -p sfc-filters time_tap_loop_tiers -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn time_tap_loop_tiers() {
        let dims = Dims3::new(64, 8, 8);
        let values: Vec<f32> = (0..dims.len()).map(|i| (i % 97) as f32 / 97.0).collect();
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        for radius in [1, 2, 5] {
            let params = BilateralParams {
                radius,
                sigma_spatial: 1.0,
                sigma_range: 0.1,
                order: StencilOrder::Xyz,
            };
            let kernel = params.spatial_kernel();
            let inv = params.inv_two_sigma_range_sq();
            let plan = GatherPlan::new(&kernel, dims, Axis::X);
            let taps = (dims.len() * kernel.weights().len()) as f64;
            for mode in [WeightMode::Exact, WeightMode::Lut, WeightMode::FastExp] {
                for tier in [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
                    let cfg = TapConfig { mode, tier }.clamped();
                    let rounds = 20;
                    let start = std::time::Instant::now();
                    let mut acc = 0.0f32;
                    for _ in 0..rounds {
                        for pen in pencils(dims, Axis::X) {
                            bilateral_pencil(
                                &grid,
                                &kernel,
                                inv,
                                &plan,
                                &pen,
                                cfg,
                                |_, _, _, v| {
                                    acc += v;
                                    true
                                },
                            );
                        }
                    }
                    let ns = start.elapsed().as_secs_f64() * 1e9 / (rounds as f64 * taps);
                    eprintln!(
                        "r{radius} {}/{}: {ns:.2} ns/tap (acc {acc})",
                        mode.name(),
                        cfg.tier.name()
                    );
                }
            }
        }
    }
}
