//! Pencil-parallel drivers for the stencil kernels (paper §III-A).
//!
//! The volume is decomposed into 1-D voxel pencils along a configurable
//! axis; pencils are handed to threads round-robin. The paper found the
//! pencil axis matters (`px` vs `pz` rows in Fig. 2/3); combined with the
//! stencil iteration order it spans the friendly-to-hostile spectrum of
//! access patterns.
//!
//! The bilateral filter has one driver: `PencilKernel`, the filter as an
//! engine [`UnitKernel`] ([`sfc_harness::engine`]) — one work unit is one
//! pencil, computed with the pencil-gather tap loop into a dense
//! along-axis buffer, committed through the output layout, and read back
//! for validation. [`try_bilateral3d_with_policy`] runs it under any
//! [`ExecPolicy`]:
//!
//! * [`ExecPolicy::Plain`] — `run.nthreads` threads, static round-robin
//!   pencils, panics propagate; [`bilateral3d`], [`try_bilateral3d`] and
//!   the `_into` variants are thin wrappers over this, and
//!   [`bilateral3d_dynamic`] hands the pencils out from a dynamic queue
//!   instead;
//! * the supervised, degraded and brownout policies — the engine's one
//!   supervised pipeline on the policy's own threads and schedule: panic
//!   isolation, watchdog deadlines with cooperative cancellation, bounded
//!   retries and buffered per-pencil commit (an abandoned attempt never
//!   leaves a half-written pencil); from `Degraded` on, a post-run
//!   validation scan (non-finite + optional plausible output range) and a
//!   single-threaded faults-off repair pass; under `Brownout`, a
//!   wall-clock deadline with a quality ladder: under pressure a pencil is
//!   recomputed with a reduced stencil radius (`r → r−1 → … → 1`, see
//!   [`FilterRun::brownout_params`]).
//!
//! Every pencil that failed, was repaired or was computed at a reduced
//! radius is an entry of the outcome's
//! [`QualityMap`](sfc_harness::QualityMap). The kernel is deterministic,
//! so a repaired pencil is bitwise identical to what a fault-free run
//! would have produced: a run whose map ends
//! [`is_whole`](sfc_harness::QualityMap::is_whole) at full quality has
//! *exactly* the fault-free output. The per-voxel kernels (gradient
//! magnitude, separable passes) share the simpler `drive` loop.

use sfc_core::{pencil, pencil_count, Axis, Dims3, Grid3, Layout3, SfcError, SfcResult, Volume3};
use sfc_harness::{
    DegradedOutcome, DisjointSlots, ExecPolicy, Executor, FaultPlan, Schedule, UnitKernel, WorkPlan,
};

use crate::bilateral::BilateralParams;
use crate::fastmath::{SimdTier, TapConfig};
use crate::gaussian::SpatialKernel;
use crate::pencil_gather::{bilateral_pencil, GatherPlan};

/// Configuration of one parallel filter execution.
#[derive(Debug, Clone, Copy)]
pub struct FilterRun {
    /// Bilateral parameters (stencil size, sigmas, iteration order).
    pub params: BilateralParams,
    /// Pencil orientation (paper: `px` = `Axis::X`, `pz` = `Axis::Z`).
    pub pencil_axis: Axis,
    /// Worker threads.
    pub nthreads: usize,
    /// Photometric weight mode and tap-loop tier ([`TapConfig::exact()`],
    /// the default; see [`crate::fastmath`]).
    pub weight: TapConfig,
}

impl FilterRun {
    /// Validate the configuration (sigmas, thread count) with typed
    /// errors — the check the `try_` drivers run before touching data.
    pub fn validate(&self) -> SfcResult<()> {
        self.params.validate()?;
        if self.nthreads == 0 {
            return Err(SfcError::InvalidParameter {
                name: "nthreads",
                reason: "need at least one thread".to_string(),
            });
        }
        Ok(())
    }

    /// Depth of this run's brownout quality ladder: each rung shrinks the
    /// stencil radius by one voxel, down to radius 1 (`r → r−1 → … → 1`),
    /// so a radius-5 run has 4 rungs and a radius-1 run has none.
    pub fn brownout_depth(&self) -> u8 {
        self.params.radius.saturating_sub(1).min(u8::MAX as usize) as u8
    }

    /// The filter parameters at brownout ladder `level`: the stencil
    /// radius shrinks by `level` voxels (floored at 1); the sigmas and
    /// iteration order are unchanged, so the smaller kernel is the same
    /// Gaussian re-normalized over its truncated support. Level 0 returns
    /// the configured parameters unchanged.
    pub fn brownout_params(&self, level: u8) -> BilateralParams {
        if level == 0 {
            return self.params;
        }
        BilateralParams {
            radius: self.params.radius.saturating_sub(level as usize).max(1),
            ..self.params
        }
    }
}

/// Run `per_voxel(i, j, k)` for every voxel of `out`, pencil-parallel
/// along `axis` on `nthreads` threads (static round-robin), writing
/// through the output layout: the driver of the per-voxel kernels.
pub(crate) fn drive<LOut, F>(out: &mut Grid3<f32, LOut>, axis: Axis, nthreads: usize, per_voxel: F)
where
    LOut: Layout3,
    F: Fn(usize, usize, usize) -> f32 + Sync,
{
    let dims = out.dims();
    let out_layout = out.layout().clone();
    let slots = DisjointSlots::new(out.storage_mut());
    let plan = WorkPlan::static_round_robin(pencil_count(dims, axis));
    Executor::new(nthreads).run(&plan, |_tid, pid| {
        for (i, j, k) in pencil(dims, axis, pid).iter() {
            // SAFETY: the layout is injective over the logical domain and
            // pencils partition it, so each slot is written by exactly one
            // thread.
            unsafe { slots.write(out_layout.index(i, j, k), per_voxel(i, j, k)) };
        }
    });
}

/// The bilateral filter as an engine [`UnitKernel`]: one work unit is one
/// voxel pencil, computed with the pencil-gather tap loop into a dense
/// buffer indexed by along-axis position and committed through the output
/// layout.
struct PencilKernel<'a, V, LOut> {
    vol: &'a V,
    inv: f32,
    dims: Dims3,
    axis: Axis,
    out_layout: LOut,
    out: DisjointSlots<'a, f32>,
    /// Tap-loop tier, applied at every ladder rung.
    tier: SimdTier,
    /// Spatial kernel and gather plan per quality-ladder level:
    /// `rungs[0]` is the configured radius, `rungs[L]` the radius reduced
    /// by `L` (built only under the brownout policy — no other policy
    /// computes below full quality).
    rungs: Vec<(SpatialKernel, GatherPlan)>,
}

impl<V: Volume3 + Sync, LOut: Layout3> UnitKernel for PencilKernel<'_, V, LOut> {
    type Value = f32;

    fn unit_kind(&self) -> &'static str {
        "pencil"
    }

    fn max_level(&self) -> u8 {
        (self.rungs.len() - 1) as u8
    }

    /// Fill `buf[t]` with the filtered value at along-axis position `t`
    /// ([`bilateral_pencil`] emits in along-axis order).
    fn compute(
        &self,
        unit: usize,
        level: u8,
        buf: &mut Vec<f32>,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> bool {
        let (kernel, plan) = &self.rungs[usize::from(level)];
        let p = pencil(self.dims, self.axis, unit);
        buf.clear();
        buf.reserve(p.len);
        bilateral_pencil(
            self.vol,
            kernel,
            self.inv,
            plan,
            &p,
            self.tier,
            |_, _, _, v| {
                buf.push(v);
                keep_going()
            },
        )
        .0
    }

    fn commit(&self, unit: usize, buf: &[f32]) {
        let p = pencil(self.dims, self.axis, unit);
        for (t, &v) in buf.iter().enumerate() {
            let (i, j, k) = p.coords(t);
            // SAFETY: the layout is injective over the logical domain and
            // pencils partition it; concurrent attempts at the *same*
            // pencil write identical bytes (deterministic kernel), so the
            // race between an abandoned straggler and its retry is benign.
            unsafe { self.out.write(self.out_layout.index(i, j, k), v) };
        }
    }

    fn read_back(&self, unit: usize, buf: &mut Vec<f32>) {
        for (i, j, k) in pencil(self.dims, self.axis, unit).iter() {
            // SAFETY: single-threaded phase, after every commit finished.
            buf.push(unsafe { self.out.read(self.out_layout.index(i, j, k)) });
        }
    }

    fn components(value: f32, sink: &mut dyn FnMut(f32)) {
        sink(value);
    }

    fn poison(buf: &mut [f32]) {
        for (t, v) in buf.iter_mut().enumerate() {
            *v = if t % 2 == 0 { f32::NAN } else { 1e30 };
        }
    }
}

/// Bilateral-filter `vol` into `out` under an engine [`ExecPolicy`].
///
/// `Plain` runs on `run.nthreads` threads with static round-robin pencils
/// (panics propagate, `faults` ignored); the other policies take their
/// thread count and schedule from their supervisor configuration. Errors
/// are returned only for invalid *configuration* — execution failures
/// land in the outcome, never abort the run.
pub fn try_bilateral3d_with_policy<V, LOut>(
    vol: &V,
    out: &mut Grid3<f32, LOut>,
    run: &FilterRun,
    policy: &ExecPolicy,
    faults: &FaultPlan,
) -> SfcResult<DegradedOutcome>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    filter_with_policy(vol, out, run, policy, faults, Schedule::StaticRoundRobin)
}

/// [`try_bilateral3d_with_policy`] with the schedule `Plain` hands the
/// pencils out by.
fn filter_with_policy<V, LOut>(
    vol: &V,
    out: &mut Grid3<f32, LOut>,
    run: &FilterRun,
    policy: &ExecPolicy,
    faults: &FaultPlan,
    plain_schedule: Schedule,
) -> SfcResult<DegradedOutcome>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    run.validate()?;
    let (nthreads, schedule) = policy.threads_and_schedule(run.nthreads, plain_schedule)?;
    if vol.dims() != out.dims() {
        return Err(SfcError::ShapeMismatch {
            what: "bilateral3d",
            expected: format!("output dims {:?}", vol.dims()),
            actual: format!("{:?}", out.dims()),
        });
    }
    let dims = vol.dims();
    let axis = run.pencil_axis;
    // The ladder's coarser rungs exist only under the brownout policy;
    // other policies never consult them, so their construction cost is
    // not paid on their path.
    let rungs = (0..=policy.ladder_depth(run.brownout_depth()))
        .map(|level| {
            let spatial = run.brownout_params(level).spatial_kernel();
            let plan = GatherPlan::new(&spatial, dims, axis);
            (spatial, plan)
        })
        .collect();
    let kernel = PencilKernel {
        vol,
        inv: run.params.inv_two_sigma_range_sq(),
        dims,
        axis,
        out_layout: out.layout().clone(),
        out: DisjointSlots::new(out.storage_mut()),
        tier: run.weight.tier,
        rungs,
    };
    let plan = WorkPlan::new(pencil_count(dims, axis), schedule);
    Ok(Executor::new(nthreads).execute(&plan, policy, &kernel, faults))
}

/// Bilateral-filter `vol` into `out` (same dimensions, any layouts),
/// validating configuration and shapes with typed errors.
pub fn try_bilateral3d_into<V, LOut>(
    vol: &V,
    out: &mut Grid3<f32, LOut>,
    run: &FilterRun,
) -> SfcResult<()>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    try_bilateral3d_with_policy(vol, out, run, &ExecPolicy::Plain, &FaultPlan::none()).map(drop)
}

/// Bilateral-filter `vol` into `out` (same dimensions, any layouts).
///
/// # Panics
/// Panics on invalid configuration or mismatched dimensions; use
/// [`try_bilateral3d_into`] for untrusted inputs.
pub fn bilateral3d_into<V, LOut>(vol: &V, out: &mut Grid3<f32, LOut>, run: &FilterRun)
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    if let Err(e) = try_bilateral3d_into(vol, out, run) {
        panic!("{e}");
    }
}

/// Bilateral-filter into a freshly allocated grid of layout `LOut`,
/// validating configuration with typed errors.
pub fn try_bilateral3d<V, LOut>(vol: &V, run: &FilterRun) -> SfcResult<Grid3<f32, LOut>>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    let mut out = Grid3::<f32, LOut>::new(vol.dims());
    try_bilateral3d_into(vol, &mut out, run)?;
    Ok(out)
}

/// Bilateral-filter into a freshly allocated grid of layout `LOut`.
///
/// # Panics
/// Panics on invalid configuration; use [`try_bilateral3d`] for untrusted
/// inputs.
pub fn bilateral3d<V, LOut>(vol: &V, run: &FilterRun) -> Grid3<f32, LOut>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    match try_bilateral3d(vol, run) {
        Ok(g) => g,
        Err(e) => panic!("{e}"),
    }
}

/// The bilateral filter over the same pencil decomposition, scheduled
/// dynamically (shared atomic cursor) instead of static round-robin.
/// Results are identical; only work assignment differs.
///
/// # Panics
/// Panics on invalid configuration (a zero thread count, non-positive
/// sigmas).
pub fn bilateral3d_dynamic<V, LOut>(
    vol: &V,
    params: &BilateralParams,
    pencil_axis: Axis,
    nthreads: usize,
) -> Grid3<f32, LOut>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    let run = FilterRun {
        params: *params,
        pencil_axis,
        nthreads,
        weight: TapConfig::exact(),
    };
    let mut out = Grid3::<f32, LOut>::new(vol.dims());
    let faults = FaultPlan::none();
    let dynamic = Schedule::Dynamic;
    if let Err(e) = filter_with_policy(vol, &mut out, &run, &ExecPolicy::Plain, &faults, dynamic) {
        panic!("{e}");
    }
    out
}

/// Paper row label for a configuration, e.g. `"r3 pz zyx"`.
pub fn config_label(size: sfc_core::StencilSize, axis: Axis, order: sfc_core::StencilOrder) -> String {
    format!("{} p{} {}", size.label(), axis.name(), order.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bilateral::{bilateral_reference, bilateral_voxel};
    use sfc_core::{ArrayOrder3, Dims3, StencilOrder, Tiled3, ZOrder3};
    use sfc_harness::{DeadlineBudget, FaultKind, SupervisorConfig};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn test_volume(dims: Dims3) -> Vec<f32> {
        (0..dims.len())
            .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
            .collect()
    }

    fn run(radius: usize, nthreads: usize, axis: Axis) -> FilterRun {
        FilterRun {
            params: BilateralParams {
                radius,
                sigma_spatial: 1.0,
                sigma_range: 0.15,
                order: StencilOrder::Xyz,
            },
            pencil_axis: axis,
            nthreads,
            weight: TapConfig::exact(),
        }
    }

    fn cfg(nthreads: usize) -> SupervisorConfig {
        SupervisorConfig {
            nthreads,
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            timeout: Some(Duration::from_millis(500)),
            watchdog_poll: Duration::from_millis(2),
            ..Default::default()
        }
    }

    #[test]
    fn parallel_matches_reference() {
        let dims = Dims3::new(10, 8, 6);
        let values = test_volume(dims);
        let grid = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let r = run(1, 4, Axis::X);
        let out: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &r);
        let reference = bilateral_reference(&values, dims, &r.params);
        for (got, want) in out.to_row_major().iter().zip(&reference) {
            assert!((got - want).abs() < 1e-5);
        }
    }

    #[test]
    fn output_is_layout_invariant_bitwise() {
        // Same stencil iteration order + same input values => identical
        // float accumulation regardless of the storage layout.
        let dims = Dims3::new(9, 7, 5);
        let values = test_volume(dims);
        let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let z = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let t = Grid3::<f32, Tiled3>::from_row_major(dims, &values);
        let r = run(2, 3, Axis::Z);
        let oa: Grid3<f32, ArrayOrder3> = bilateral3d(&a, &r);
        let oz: Grid3<f32, ArrayOrder3> = bilateral3d(&z, &r);
        let ot: Grid3<f32, ArrayOrder3> = bilateral3d(&t, &r);
        assert_eq!(oa.to_row_major(), oz.to_row_major());
        assert_eq!(oa.to_row_major(), ot.to_row_major());
    }

    #[test]
    fn output_is_thread_count_invariant() {
        let dims = Dims3::new(8, 8, 8);
        let values = test_volume(dims);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let single: Grid3<f32, ZOrder3> = bilateral3d(&grid, &run(1, 1, Axis::X));
        let multi: Grid3<f32, ZOrder3> = bilateral3d(&grid, &run(1, 7, Axis::X));
        assert_eq!(single.to_row_major(), multi.to_row_major());
    }

    #[test]
    fn output_is_pencil_axis_invariant() {
        let dims = Dims3::new(6, 7, 8);
        let values = test_volume(dims);
        let grid = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let px: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &run(1, 3, Axis::X));
        let pz: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &run(1, 3, Axis::Z));
        assert_eq!(px.to_row_major(), pz.to_row_major());
    }

    #[test]
    fn dynamic_path_matches_static_path() {
        let dims = Dims3::new(8, 6, 4);
        let values = test_volume(dims);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let r = run(1, 4, Axis::X);
        let stat: Grid3<f32, ZOrder3> = bilateral3d(&grid, &r);
        let dyn_: Grid3<f32, ZOrder3> = bilateral3d_dynamic(&grid, &r.params, Axis::X, 4);
        assert_eq!(stat.to_row_major(), dyn_.to_row_major());
    }

    #[test]
    fn config_labels_match_paper() {
        assert_eq!(
            config_label(sfc_core::StencilSize::R3, Axis::Z, StencilOrder::Zyx),
            "r3 pz zyx"
        );
    }

    #[test]
    fn fault_free_degraded_run_matches_plain_driver_bitwise() {
        let dims = Dims3::new(10, 8, 6);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r = run(1, 4, Axis::X);
        let reference: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &r);
        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let policy = ExecPolicy::degraded(cfg(4), Some((0.0, 1.0)));
        let outcome =
            try_bilateral3d_with_policy(&grid, &mut out, &r, &policy, &FaultPlan::none()).unwrap();
        assert!(outcome.quality.entries().is_empty());
        assert!(outcome.output_is_whole());
        assert_eq!(out.to_row_major(), reference.to_row_major());
    }

    #[test]
    fn injected_faults_are_repaired_to_bitwise_identical_output() {
        let dims = Dims3::new(9, 7, 5);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r = run(1, 3, Axis::X);
        let reference: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &r);
        let n = pencil_count(dims, Axis::X);
        assert!(n > 6);
        let faults = FaultPlan::none()
            .with(0, FaultKind::Panic)
            .with(2, FaultKind::CorruptOutput)
            .with(4, FaultKind::FailFirst(5)) // exceeds max_retries=1
            .with(5, FaultKind::Stall(Duration::from_secs(10)));
        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let policy = ExecPolicy::degraded(cfg(3), Some((0.0, 1.0)));
        let outcome = try_bilateral3d_with_policy(&grid, &mut out, &r, &policy, &faults).unwrap();
        assert_eq!(outcome.quality.defective_units(), vec![0, 2, 4, 5]);
        assert!(outcome.output_is_whole(), "{}", outcome.quality);
        assert_eq!(out.to_row_major(), reference.to_row_major());
    }

    #[test]
    fn validation_scan_flags_corrupt_output_without_range() {
        // Even with no plausibility range, the NaN half of the poison
        // pattern is caught.
        let dims = Dims3::new(8, 6, 4);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r = run(1, 2, Axis::X);
        let faults = FaultPlan::none().with(1, FaultKind::CorruptOutput);
        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let policy = ExecPolicy::degraded(cfg(2), None);
        let outcome = try_bilateral3d_with_policy(&grid, &mut out, &r, &policy, &faults).unwrap();
        assert_eq!(outcome.quality.defective_units(), vec![1]);
        assert!(outcome.output_is_whole());
    }

    #[test]
    fn config_errors_still_abort() {
        let dims = Dims3::cube(4);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let degraded = ExecPolicy::degraded(cfg(2), None);
        let filter = |out: &mut Grid3<f32, ArrayOrder3>, r: &FilterRun, policy: &ExecPolicy| {
            try_bilateral3d_with_policy(&grid, out, r, policy, &FaultPlan::none()).unwrap_err()
        };
        let mut wrong_shape = Grid3::<f32, ArrayOrder3>::new(Dims3::cube(5));
        let err = filter(&mut wrong_shape, &run(1, 2, Axis::X), &degraded);
        assert!(matches!(err, SfcError::ShapeMismatch { .. }), "{err:?}");
        // A zero thread count is a typed error wherever the policy takes
        // its threads from — the run for Plain, the supervisor otherwise —
        // not a panic in the executor.
        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let err = filter(&mut out, &run(1, 0, Axis::X), &ExecPolicy::Plain);
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
        for policy in [
            ExecPolicy::Supervised(cfg(0)),
            ExecPolicy::degraded(cfg(0), None),
            ExecPolicy::brownout(cfg(0), DeadlineBudget::none(), None),
        ] {
            let err = filter(&mut out, &run(1, 2, Axis::X), &policy);
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
    fn plain_policy_runs_the_pencil_kernel_with_a_clean_outcome() {
        // Oracle outside the engine: the per-voxel kernel, serially.
        let dims = Dims3::new(7, 6, 5);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r = run(1, 2, Axis::X);
        let kernel = r.params.spatial_kernel();
        let inv = r.params.inv_two_sigma_range_sq();
        let oracle = Grid3::<f32, ArrayOrder3>::from_fn(dims, |i, j, k| {
            bilateral_voxel(&grid, &kernel, inv, i, j, k)
        });
        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let outcome = try_bilateral3d_with_policy(
            &grid,
            &mut out,
            &r,
            &ExecPolicy::Plain,
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(outcome.quality.entries().is_empty());
        assert_eq!(outcome.report.completed, pencil_count(dims, Axis::X));
        assert_eq!(out.to_row_major(), oracle.to_row_major());
    }

    #[test]
    fn brownout_zero_budget_repairs_at_reduced_radius() {
        let dims = Dims3::new(8, 6, 5);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r2 = run(2, 2, Axis::X);
        assert_eq!(r2.brownout_depth(), 1);
        // A zero budget sheds every pencil to the repair pass, which runs
        // the deepest ladder rung — here radius 1, so the output must be
        // bitwise-identical to a plain radius-1 run.
        let r1 = FilterRun {
            params: r2.brownout_params(1),
            ..r2
        };
        let reference: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &r1);
        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let policy = ExecPolicy::brownout(
            cfg(2),
            DeadlineBudget::with_budget(Duration::ZERO),
            Some((0.0, 1.0)),
        );
        let outcome =
            try_bilateral3d_with_policy(&grid, &mut out, &r2, &policy, &FaultPlan::none()).unwrap();
        assert!(outcome.output_is_whole(), "{}", outcome.quality);
        assert_eq!(
            outcome.quality.downgraded_units().len(),
            pencil_count(dims, Axis::X)
        );
        assert_eq!(outcome.quality.max_level(), 1);
        assert_eq!(out.to_row_major(), reference.to_row_major());
    }

    /// The per-voxel kernel over `vol`, serially, as output bits.
    fn oracle_bits<V: Volume3>(vol: &V, r: &FilterRun) -> Vec<u32> {
        let kernel = r.params.spatial_kernel();
        let inv = r.params.inv_two_sigma_range_sq();
        let oracle = Grid3::<f32, ArrayOrder3>::from_fn(vol.dims(), |i, j, k| {
            bilateral_voxel(vol, &kernel, inv, i, j, k)
        });
        oracle.to_row_major().iter().map(|v| v.to_bits()).collect()
    }

    fn bits(out: &Grid3<f32, ArrayOrder3>) -> Vec<u32> {
        out.to_row_major().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn back_to_back_calls_on_one_thread_share_no_rows() {
        // With one thread the caller runs every pencil, and the rows its
        // thread keeps outlive the call. The second volume's first pencil
        // needs rows at the same clamped coordinates as the first
        // volume's last pencil (cross section 4×3, radius 2), and must
        // not take them from the first volume.
        let dims = Dims3::new(13, 4, 3);
        let r = run(2, 1, Axis::X);
        let first = test_volume(dims);
        let second: Vec<f32> = first.iter().rev().map(|v| 1.0 - v).collect();
        for values in [first, second] {
            let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
            let out: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &r);
            assert_eq!(bits(&out), oracle_bits(&grid, &r));
        }
    }

    /// A grid that counts its row reads.
    struct CountingGrid {
        grid: Grid3<f32, ZOrder3>,
        runs: AtomicUsize,
    }

    impl Volume3 for CountingGrid {
        fn dims(&self) -> Dims3 {
            self.grid.dims()
        }
        fn get(&self, i: usize, j: usize, k: usize) -> f32 {
            self.grid.get(i, j, k)
        }
        fn gather_axis_run(&self, i: usize, j: usize, k: usize, axis: Axis, dst: &mut [f32]) {
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.grid.gather_axis_run(i, j, k, axis, dst);
        }
    }

    /// Row reads of a whole pass under static round-robin: each thread
    /// reads the distinct clamped rows of each of its pencils that its
    /// previous pencil did not need.
    fn expected_row_reads(dims: Dims3, axis: Axis, radius: usize, nthreads: usize) -> usize {
        let r = radius as isize;
        let clamp =
            |x: usize, d: isize, n: usize| (x as isize + d).clamp(0, n as isize - 1) as usize;
        let rows = |id: usize| -> BTreeSet<[usize; 3]> {
            let (i, j, k) = pencil(dims, axis, id).coords(0);
            let mut rows = BTreeSet::new();
            for d1 in -r..=r {
                for d2 in -r..=r {
                    let (di, dj, dk) = match axis {
                        Axis::X => (0, d1, d2),
                        Axis::Y => (d1, 0, d2),
                        Axis::Z => (d1, d2, 0),
                    };
                    rows.insert([
                        clamp(i, di, dims.nx),
                        clamp(j, dj, dims.ny),
                        clamp(k, dk, dims.nz),
                    ]);
                }
            }
            rows
        };
        let n = pencil_count(dims, axis);
        (0..nthreads)
            .map(|t| {
                let mut held = BTreeSet::new();
                let mut reads = 0;
                for id in (t..n).step_by(nthreads) {
                    let need = rows(id);
                    reads += need.difference(&held).count();
                    held = need;
                }
                reads
            })
            .sum()
    }

    #[test]
    fn a_pass_reads_only_the_rows_its_threads_do_not_hold() {
        let dims = Dims3::new(9, 8, 7);
        for (radius, axis) in [(1, Axis::X), (2, Axis::Y), (2, Axis::Z)] {
            for nthreads in [1, 2] {
                let vol = CountingGrid {
                    grid: Grid3::from_row_major(dims, &test_volume(dims)),
                    runs: AtomicUsize::new(0),
                };
                let r = run(radius, nthreads, axis);
                let out: Grid3<f32, ArrayOrder3> = bilateral3d(&vol, &r);
                let reads = vol.runs.load(Ordering::Relaxed);
                let what = format!("r{radius} {axis:?} on {nthreads} threads");
                assert_eq!(
                    reads,
                    expected_row_reads(dims, axis, radius, nthreads),
                    "{what}"
                );
                let w = 2 * radius + 1;
                assert!(reads < pencil_count(dims, axis) * w * w, "{what}");
                assert_eq!(bits(&out), oracle_bits(&vol.grid, &r), "{what}");
            }
        }
    }

    #[test]
    fn supervised_policy_isolates_panics_without_repair() {
        let dims = Dims3::new(8, 5, 4);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r = run(1, 2, Axis::X);
        let faults = FaultPlan::none().with(3, FaultKind::Panic);
        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let supervisor = SupervisorConfig {
            max_retries: 0,
            ..cfg(2)
        };
        let outcome = try_bilateral3d_with_policy(
            &grid,
            &mut out,
            &r,
            &ExecPolicy::Supervised(supervisor),
            &faults,
        )
        .unwrap();
        // Supervised-only: the failed pencil is in the map but nothing is
        // repaired, so the output is not whole.
        assert_eq!(outcome.quality.defective_units(), vec![3]);
        assert!(!outcome.output_is_whole());
    }
}
