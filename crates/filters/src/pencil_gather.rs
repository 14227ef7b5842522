//! Pencil-gather fast path for the bilateral filter.
//!
//! The per-voxel kernel ([`crate::bilateral::bilateral_voxel`]) pays a
//! full layout index computation per stencil tap — `(2r+1)³` of them per
//! voxel, 1,331 for the paper's r5 configuration. But consecutive voxels
//! of a pencil share almost their entire neighborhood: the stencil taps of
//! the whole pencil live in the `(2r+1)²` rows of voxels that run parallel
//! to it. This module holds those rows in a contiguous row-major scratch
//! buffer (each row read with one [`sfc_core::Volume3::gather_axis_run`]),
//! after which the per-voxel tap loop is pure contiguous arithmetic with
//! *zero* index computation.
//!
//! ## Rows kept from pencil to pencil
//!
//! A thread's next pencil usually lies next to its last one and needs many
//! of the same rows: under static round-robin over `T` threads,
//! `(2r+1)·max(0, 2r+1−T)` of its `(2r+1)²` rows; for a single thread
//! taking pencils in order, `(2r+1)·2r`. Each thread keeps the rows of its
//! last pencil and reads from the volume only the rows the new pencil
//! adds. A row is known by its clamped cross coordinates `(b, c)`, so the
//! match holds at the faces, from the end of one row of pencils to the
//! start of the next, and under any pencil order; rows that clamp to the
//! same `(b, c)` within one pencil are read once as well. Kept rows serve
//! only the [`GatherPlan`] that gathered them, known by an id no other
//! plan gets. A plan is made for each filter call and each ladder rung,
//! and a call borrows its volume immutably throughout, so a kept row
//! equals a fresh read. While a gather runs the kept rows are marked
//! invalid, so a panic part-way through leaves none for the next pencil.
//!
//! ## Bitwise equivalence
//!
//! The tap loop iterates the taps in exactly the kernel's configured
//! [`sfc_core::StencilOrder`] (`tap_base` is built in `offsets()` order)
//! and performs the identical sequence of f32 operations on the identical
//! sample values, so its outputs are bit-for-bit equal to the per-voxel
//! path — the `output_is_layout_invariant_bitwise` tests hold unchanged.
//! Equal footing across layouts is also preserved: every layout's rows
//! are read through the same `Layout3::index`, once per voxel of each row
//! a pencil adds; only the (layout-independent) redundancy of re-reading a
//! voxel per tap, or per neighboring pencil, is removed.
//!
//! ## Padded rows, one loop
//!
//! Stencil rows whose *cross* coordinates fall outside the volume are
//! copies of the clamped edge row, and every row carries `r` clamped
//! copies of its first and last sample at either end. A tap of voxel `a`
//! is then always `rows[tap_base[t] + a]`, the value `get_clamped`
//! serves, so boundary caps and pencils shorter than the stencil run the
//! same loop as the interior, with no per-tap clamp and no fallback.
//!
//! The loop vectorizes across the voxels of the pencil (see
//! [`crate::fastmath::Lanes`]): a block of `WIDTH` voxels (16 on AVX-512,
//! 8 on AVX2, 4 on SSE2, 1 on the scalar tier) loads each tap with one
//! unaligned load at `tap_base[t] + a`, and lane `i` computes voxel
//! `a + i` exactly as the scalar loop would. On AVX-512 a tail of 8 or
//! more voxels runs one 8-lane AVX2 block; the voxels left run the scalar
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
//! sized by whichever plan ran last and is reused across rungs; a rung
//! change gathers every row afresh.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use sfc_core::{Axis, Dims3, Pencil, Volume3};

use crate::fastmath::{detect_tier, Lanes, Scalar, SimdTier};
use crate::gaussian::SpatialKernel;

thread_local! {
    /// This thread's gathered rows, kept from one pencil to the next;
    /// grown on demand, never shrunk, so steady state performs zero
    /// allocations.
    static SCRATCH: RefCell<Window> = const { RefCell::new(Window::new()) };
}

/// Source of [`GatherPlan`] ids, unique in the process.
static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(0);

/// Padded rows of one pencil, laid out as [`GatherPlan::tap_base`]
/// expects, with their clamped cross coordinates: row `db + (2r+1)·dc`
/// is the volume row at `(bs[db], cs[dc])`.
struct Rows {
    data: Vec<f32>,
    bs: Vec<usize>,
    cs: Vec<usize>,
}

/// A thread's scratch: the rows of its last pencil, and a spare buffer
/// that the next gather swaps in and fills.
struct Window {
    /// Id of the plan whose gather filled `last`; `None` before the first
    /// gather and while one runs.
    plan: Option<u64>,
    last: Rows,
    spare: Rows,
}

impl Rows {
    const fn new() -> Self {
        Self {
            data: Vec::new(),
            bs: Vec::new(),
            cs: Vec::new(),
        }
    }
}

impl Window {
    const fn new() -> Self {
        Self {
            plan: None,
            last: Rows::new(),
            spare: Rows::new(),
        }
    }
}

/// Precomputed gather geometry for one `(kernel, dims, pencil axis)`
/// combination; shared read-only across worker threads. A plan serves the
/// pencils of one volume: the rows a thread keeps are tagged with the
/// plan's id, and reused for the next pencil of the same plan.
pub(crate) struct GatherPlan {
    /// Process-unique id (see the module docs).
    id: u64,
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
            // Relaxed: the id only has to differ from every other plan's;
            // it publishes no data.
            id: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed),
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
/// included, runs the same tap loop over the padded rows. Outputs are
/// bitwise identical to calling [`crate::bilateral::bilateral_voxel`] per
/// voxel, and NaN events are counted identically, on every tier (`tier` is
/// clamped to the CPU).
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
    tier: SimdTier,
    mut write: F,
) -> (bool, u64)
where
    V: Volume3,
    F: FnMut(usize, usize, usize, f32) -> bool,
{
    debug_assert_eq!(p.len, plan.n_a, "pencils span the whole axis");
    let (completed, nan_seen) = SCRATCH.with(|cell| {
        let mut window = cell.borrow_mut();
        gather_rows(vol, plan, p, &mut window);
        let taps = Taps {
            rows: &window.last.data,
            base: &plan.tap_base,
            weights: kernel.weights(),
            center: plan.center,
            inv_2sr2,
            n_a: plan.n_a,
        };
        run_taps(&taps, tier, &mut |a, block| {
            block.iter().enumerate().all(|(l, &v)| {
                let (i, j, k) = p.coords(a + l);
                write(i, j, k, v)
            })
        })
    });
    crate::counters::record_nan_events(nan_seen);
    (completed, nan_seen)
}

/// Fill `win.last` with the pencil's `(2r+1)²` neighbor rows, padded
/// (row `(db+r) + (2r+1)(dc+r)` at offset `row_id * row_len`).
///
/// Cross coordinates that fall outside the volume clamp to the nearest
/// face, and each row carries `r` copies of its first and last sample at
/// either end — so every tap of every voxel reads exactly the value the
/// per-voxel path's `get_clamped` returns, without a branch. A row is
/// read from `vol` only if neither an earlier row of this pencil nor, under
/// the same plan, the thread's last pencil has the same clamped cross
/// coordinates; otherwise it is copied.
fn gather_rows<V: Volume3>(vol: &V, plan: &GatherPlan, p: &Pencil, win: &mut Window) {
    let r = plan.radius;
    let w = 2 * r + 1;
    let (n_a, row_len) = (plan.n_a, plan.row_len);
    // Invalid until this gather ends: a panic part-way through must not
    // leave the half-filled rows to the next pencil.
    let reuse = win.plan.take() == Some(plan.id);
    std::mem::swap(&mut win.last, &mut win.spare);
    let (new, old) = (&mut win.last, &win.spare);
    new.bs.clear();
    new.bs
        .extend((0..w).map(|db| (p.a + db).saturating_sub(r).min(plan.n_b - 1)));
    new.cs.clear();
    new.cs
        .extend((0..w).map(|dc| (p.b + dc).saturating_sub(r).min(plan.n_c - 1)));
    new.data.resize(w * w * row_len, 0.0);
    let slot = |db: usize, dc: usize| (db + w * dc) * row_len;
    let find = |keys: &[usize], key: usize| keys.iter().position(|&k| k == key);
    for dc in 0..w {
        for db in 0..w {
            let (b, c) = (new.bs[db], new.cs[dc]);
            let dst = slot(db, dc);
            // The first row of this pencil at the same coordinates.
            let first = slot(
                find(&new.bs, b).unwrap_or(db),
                find(&new.cs, c).unwrap_or(dc),
            );
            if first != dst {
                new.data.copy_within(first..first + row_len, dst);
                continue;
            }
            // The same row of the last pencil.
            if let (true, Some(ob), Some(oc)) = (reuse, find(&old.bs, b), find(&old.cs, c)) {
                new.data[dst..dst + row_len]
                    .copy_from_slice(&old.data[slot(ob, oc)..slot(ob, oc) + row_len]);
                continue;
            }
            let (i0, j0, k0) = join_coords(p.axis, 0, b, c);
            let row = &mut new.data[dst..dst + row_len];
            vol.gather_axis_run(i0, j0, k0, p.axis, &mut row[r..r + n_a]);
            let (first, last) = (row[r], row[r + n_a - 1]);
            row[..r].fill(first);
            row[r + n_a..].fill(last);
        }
    }
    win.plan = Some(plan.id);
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
/// as a trait object, so it is compiled once per tier, not once per
/// caller.
type Emit<'e> = dyn FnMut(usize, &[f32]) -> bool + 'e;

/// Run the tap loop over the whole pencil on `tier` (clamped to the CPU),
/// handing the results to `emit` block by block, in along-axis order,
/// until it returns `false`. Returns (every voxel emitted, NaN events).
fn run_taps(t: &Taps, tier: SimdTier, emit: &mut Emit) -> (bool, u64) {
    // The loop's loads read `n_a` floats from each tap base and from the
    // center; they must all lie inside the rows.
    assert!(
        t.base
            .iter()
            .chain([&t.center])
            .all(|&b| b + t.n_a <= t.rows.len()),
        "tap table exceeds the gathered rows"
    );
    match tier.min(detect_tier()) {
        // SAFETY: the tier is available on this CPU (clamped above) and
        // the loads are in bounds (asserted above).
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { x86::taps_avx512(t, emit) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { x86::taps_avx2(t, emit) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => unsafe { x86::taps_sse2(t, emit) },
        // SAFETY: the scalar lanes need no CPU feature; loads as above.
        _ => unsafe { taps::<Scalar>(t, emit) },
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{taps, Emit, Taps};
    use crate::fastmath::x86::{Avx2, Avx512, Sse2};

    /// The tap loop compiled for AVX-512F; `avx512f` implies `avx2`, which
    /// the tail's 8-lane step runs.
    ///
    /// # Safety
    /// The CPU must support AVX-512F and AVX2; `t` passed
    /// [`super::run_taps`]' bounds check.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn taps_avx512(t: &Taps, emit: &mut Emit) -> (bool, u64) {
        // SAFETY: AVX-512F and AVX2 are enabled for this function; `t` is
        // the caller's.
        unsafe { taps::<Avx512>(t, emit) }
    }

    /// The tap loop compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2; `t` passed [`super::run_taps`]' bounds
    /// check.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn taps_avx2(t: &Taps, emit: &mut Emit) -> (bool, u64) {
        // SAFETY: AVX2 is enabled for this function; `t` is the caller's.
        unsafe { taps::<Avx2>(t, emit) }
    }

    /// The tap loop compiled for SSE2.
    ///
    /// # Safety
    /// The CPU must support SSE2 (every x86_64 does); `t` passed
    /// [`super::run_taps`]' bounds check.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn taps_sse2(t: &Taps, emit: &mut Emit) -> (bool, u64) {
        // SAFETY: SSE2 is enabled for this function; `t` is the caller's.
        unsafe { taps::<Sse2>(t, emit) }
    }
}

/// The tap loop: voxels in blocks of `S::WIDTH`, then in blocks of
/// `S::Tail::WIDTH`, then the remainder on the scalar lane one by one,
/// each emitted in along-axis order.
///
/// # Safety
/// `S`'s tier (and so `S::Tail`'s) must be enabled in the calling
/// function and available, and `t` must have passed [`run_taps`]' bounds
/// check.
#[inline(always)]
unsafe fn taps<S: Lanes>(t: &Taps, emit: &mut Emit) -> (bool, u64) {
    let mut nan_seen = 0u64;
    let mut a = 0;
    // SAFETY: the caller's contract, for each tier in turn.
    let completed = unsafe {
        blocks::<S>(t, &mut a, &mut nan_seen, emit)
            && blocks::<S::Tail>(t, &mut a, &mut nan_seen, emit)
            && blocks::<Scalar>(t, &mut a, &mut nan_seen, emit)
    };
    (completed, nan_seen)
}

/// Filter voxels from `*a` on in blocks of `S::WIDTH` while a whole block
/// fits, emitting each and advancing `*a`; returns `false` when `emit`
/// asks to stop.
///
/// # Safety
/// As [`taps`], for `S`.
#[inline(always)]
unsafe fn blocks<S: Lanes>(t: &Taps, a: &mut usize, nan_seen: &mut u64, emit: &mut Emit) -> bool {
    let mut out = [0.0f32; 16];
    while *a + S::WIDTH <= t.n_a {
        // SAFETY: `a + WIDTH <= n_a` (loop condition); `out` holds 16 ≥
        // WIDTH floats; the tier is available (caller).
        let n = unsafe {
            let (v, n) = block::<S>(t, *a);
            S::store(out.as_mut_ptr(), v);
            n
        };
        *nan_seen += n;
        if !emit(*a, &out[..S::WIDTH]) {
            return false;
        }
        *a += S::WIDTH;
    }
    true
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
unsafe fn block<S: Lanes>(t: &Taps, a: usize) -> (S::V, u64) {
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
            let w = S::select(center_nan, wg, S::mul(wg, S::exp_neg(u)));
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
    use sfc_core::{pencil, pencil_count, pencils, Grid3, StencilOrder, Tiled3, ZOrder3};
    use sfc_harness::{Executor, Schedule, WorkPlan};
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

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

    /// Every tier (each clamped to the CPU).
    const TIERS: [SimdTier; 4] = [
        SimdTier::Scalar,
        SimdTier::Sse2,
        SimdTier::Avx2,
        SimdTier::Avx512,
    ];

    /// The per-voxel kernel at every voxel, row-major.
    fn oracle<V: Volume3>(vol: &V, kernel: &SpatialKernel, inv: f32) -> Vec<f32> {
        let d = vol.dims();
        let mut want = Vec::with_capacity(d.len());
        for k in 0..d.nz {
            for j in 0..d.ny {
                for i in 0..d.nx {
                    want.push(bilateral_voxel(vol, kernel, inv, i, j, k));
                }
            }
        }
        want
    }

    /// Filter pencil `id` and assert every voxel's bits against `want`
    /// (row-major); returns the voxels written.
    fn check_pencil<V: Volume3>(
        vol: &V,
        (kernel, inv): (&SpatialKernel, f32),
        plan: &GatherPlan,
        (axis, id): (Axis, usize),
        tier: SimdTier,
        want: &[f32],
    ) -> usize {
        let d = vol.dims();
        let mut written = 0;
        let pen = pencil(d, axis, id);
        bilateral_pencil(vol, kernel, inv, plan, &pen, tier, |i, j, k, v| {
            let w = want[i + d.nx * (j + d.ny * k)];
            assert_eq!(
                v.to_bits(),
                w.to_bits(),
                "({i},{j},{k}) of pencil {id} along {axis:?} on {tier:?}"
            );
            written += 1;
            true
        });
        written
    }

    #[test]
    fn kept_rows_give_the_per_voxel_bits_in_every_pencil_order() {
        // Odd extents, and at r5 a stencil wider than both cross extents,
        // so rows clamp at every face.
        let dims = Dims3::new(13, 9, 7);
        let grid = Grid3::<f32, Tiled3>::from_row_major(dims, &noisy(dims));
        for radius in [1, 2, 5] {
            let p = params(radius, StencilOrder::Xyz);
            let kernel = p.spatial_kernel();
            let k = (&kernel, p.inv_two_sigma_range_sq());
            let want = oracle(&grid, &kernel, k.1);
            for axis in Axis::ALL {
                let n = pencil_count(dims, axis);
                for tier in TIERS {
                    // Through the engine: static round-robin on 1-3
                    // threads, then a dynamic queue on 2.
                    for (nthreads, schedule) in [
                        (1, Schedule::StaticRoundRobin),
                        (2, Schedule::StaticRoundRobin),
                        (3, Schedule::StaticRoundRobin),
                        (2, Schedule::Dynamic),
                    ] {
                        let plan = GatherPlan::new(&kernel, dims, axis);
                        let written = AtomicUsize::new(0);
                        Executor::new(nthreads).run(&WorkPlan::new(n, schedule), |_, id| {
                            let w = check_pencil(&grid, k, &plan, (axis, id), tier, &want);
                            written.fetch_add(w, Ordering::Relaxed);
                        });
                        assert_eq!(written.into_inner(), dims.len());
                    }
                    // One thread, last pencil first.
                    let plan = GatherPlan::new(&kernel, dims, axis);
                    let written: usize = (0..n)
                        .rev()
                        .map(|id| check_pencil(&grid, k, &plan, (axis, id), tier, &want))
                        .sum();
                    assert_eq!(written, dims.len());
                }
            }
        }
    }

    /// A grid whose `gather_axis_run` panics once, when armed, on the
    /// x row at `(j, k)`.
    struct FaultyRow {
        grid: Grid3<f32, ZOrder3>,
        armed: Cell<Option<(usize, usize)>>,
    }

    impl Volume3 for FaultyRow {
        fn dims(&self) -> Dims3 {
            self.grid.dims()
        }
        fn get(&self, i: usize, j: usize, k: usize) -> f32 {
            self.grid.get(i, j, k)
        }
        fn gather_axis_run(&self, i: usize, j: usize, k: usize, axis: Axis, dst: &mut [f32]) {
            if self.armed.get() == Some((j, k)) {
                self.armed.set(None);
                panic!("injected fault reading row ({j},{k})");
            }
            self.grid.gather_axis_run(i, j, k, axis, dst);
        }
    }

    #[test]
    fn a_panic_mid_gather_leaves_no_rows_for_the_next_pencil() {
        let dims = Dims3::new(12, 7, 6);
        let vol = FaultyRow {
            grid: Grid3::from_row_major(dims, &noisy(dims)),
            armed: Cell::new(None),
        };
        let p = params(1, StencilOrder::Xyz);
        let kernel = p.spatial_kernel();
        let k = (&kernel, p.inv_two_sigma_range_sq());
        let want = oracle(&vol, &kernel, k.1);
        let plan = GatherPlan::new(&kernel, dims, Axis::X);
        let check = |id, tier| check_pencil(&vol, k, &plan, (Axis::X, id), tier, &want);
        for tier in TIERS {
            // Pencil 30 (rows j 1..=3, k 3..=5) leaves rows unlike the
            // others' in the buffer that pencil 9 fills after pencil 8.
            // Pencil 9 (rows j 1..=3, k 0..=2) copies rows j 1 and 2 at
            // k 0 from pencil 8, then panics reading row (3, 0).
            check(30, tier);
            check(8, tier);
            vol.armed.set(Some((3, 0)));
            let fault = catch_unwind(AssertUnwindSafe(|| check(9, tier)));
            assert!(fault.is_err(), "the armed row must panic");
            // Pencil 10 shares rows j 2 and 3 with pencil 9; none of
            // pencil 9's may be reused.
            assert_eq!(check(10, tier), dims.nx, "{tier:?}");
            assert_eq!(check(9, tier), dims.nx, "{tier:?}");
        }
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
                for tier in TIERS {
                    for pen in pencils(dims, axis) {
                        bilateral_pencil(&grid, &kernel, inv, &plan, &pen, tier, |i, j, k, v| {
                            let want = bilateral_voxel(&grid, &kernel, inv, i, j, k);
                            assert_eq!(
                                v.to_bits(),
                                want.to_bits(),
                                "mismatch at ({i},{j},{k}) axis {axis:?} {tier:?}"
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
        for tier in TIERS {
            let mut nan_seen = 0;
            for pen in pencils(dims, Axis::X) {
                let (completed, n) =
                    bilateral_pencil(&grid, &kernel, inv, &plan, &pen, tier, |_, _, _, _| true);
                assert!(completed);
                nan_seen += n;
            }
            // The NaN voxel is seen once per covering stencil: 27
            // neighbors' stencils include it, plus its own center
            // pre-count.
            assert_eq!(nan_seen, 28, "{tier:?}");
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
        for tier in TIERS {
            for pen in pencils(dims, Axis::X) {
                let mut count = 0;
                bilateral_pencil(&grid, &kernel, inv, &plan, &pen, tier, |i, j, k, v| {
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
        for tier in TIERS {
            for stop in [0, 5, 8, 17] {
                let mut written = 0;
                let (completed, _) = bilateral_pencil(
                    &grid,
                    &kernel,
                    p.inv_two_sigma_range_sq(),
                    &plan,
                    &pen,
                    tier,
                    |_, _, _, _| {
                        written += 1;
                        written <= stop
                    },
                );
                assert!(!completed);
                assert_eq!(written, stop + 1, "{tier:?}");
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

    /// ns per tap of the pencil loop (gather included) for every tier, on
    /// 64-voxel pencils of a 64×8×8 volume:
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
            for tier in [
                SimdTier::Scalar,
                SimdTier::Sse2,
                SimdTier::Avx2,
                SimdTier::Avx512,
            ] {
                let tier = tier.min(detect_tier());
                let rounds = 20;
                let start = std::time::Instant::now();
                let mut acc = 0.0f32;
                for _ in 0..rounds {
                    for pen in pencils(dims, Axis::X) {
                        bilateral_pencil(&grid, &kernel, inv, &plan, &pen, tier, |_, _, _, v| {
                            acc += v;
                            true
                        });
                    }
                }
                let ns = start.elapsed().as_secs_f64() * 1e9 / (rounds as f64 * taps);
                eprintln!("r{radius} {}: {ns:.2} ns/tap (acc {acc})", tier.name());
            }
        }
    }
}
