//! Graceful-degradation bilateral driver: partial results + typed defects.
//!
//! The plain parallel drivers ([`crate::parallel`]) abort the whole run
//! when any pencil fails. For long sweeps that is the wrong trade: one
//! poisoned pencil out of thousands should cost one pencil, not the run.
//! This module adapts the bilateral filter to the execution engine's
//! policy stack ([`sfc_harness::engine`]): [`PencilKernel`] implements
//! [`UnitKernel`] over the pencil decomposition (compute into a dense
//! along-axis buffer, commit through the output layout, read back for
//! validation), and [`try_bilateral3d_with_policy`] runs it under any
//! [`ExecPolicy`]:
//!
//! * [`ExecPolicy::Plain`] — the unbuffered fast drivers of
//!   [`crate::parallel`], plus a synthesized clean outcome;
//! * [`ExecPolicy::Supervised`] — panic isolation, watchdog deadlines with
//!   cooperative cancellation, bounded retries, buffered per-pencil commit
//!   (an abandoned attempt never leaves a half-written pencil);
//! * [`ExecPolicy::Degraded`] — supervision plus the engine's three-phase
//!   pipeline: post-run validation scan (non-finite + optional plausible
//!   output range) and a single-threaded faults-off repair pass;
//! * [`ExecPolicy::Brownout`] — the degraded pipeline under a wall-clock
//!   deadline, with a quality ladder: under pressure a pencil is
//!   recomputed with a reduced stencil radius (`r → r−1 → … → 1`, see
//!   [`FilterRun::brownout_params`]), and every such downgrade is
//!   recorded in the outcome's
//!   [`QualityMap`](sfc_harness::QualityMap).
//!
//! The kernel is deterministic, so a repaired pencil is bitwise identical
//! to what a fault-free run would have produced: a run whose map ends
//! [`DefectMap::is_whole`](sfc_harness::DefectMap::is_whole) has *exactly*
//! the fault-free output. [`try_bilateral3d_degraded`] keeps the PR-3
//! signature as a wrapper over the `Degraded` policy.

use sfc_core::{pencil, pencil_count, Axis, Dims3, Grid3, Layout3, SfcError, SfcResult, Volume3};
use sfc_harness::{
    BrownoutKernel, DegradedOutcome, ExecPolicy, Executor, FaultPlan, RunReport,
    SupervisorConfig, UnitKernel, WorkPlan,
};

use crate::fastmath::TapConfig;
use crate::gaussian::SpatialKernel;
use crate::parallel::FilterRun;
use crate::pencil_gather::{bilateral_pencil, GatherPlan};

/// Wrapper making disjoint raw writes shareable across worker threads.
struct Slots(*mut f32);
unsafe impl Sync for Slots {}

/// The bilateral filter as an engine [`UnitKernel`]: one work unit is one
/// voxel pencil, computed with the pencil-gather fast path into a dense
/// buffer indexed by along-axis position and committed through the output
/// layout. Holds a raw output pointer; construct it only for the duration
/// of one engine run over an exclusively borrowed grid.
struct PencilKernel<'a, V, LOut> {
    vol: &'a V,
    kernel: SpatialKernel,
    inv: f32,
    plan: GatherPlan,
    dims: Dims3,
    axis: Axis,
    out_layout: LOut,
    slots: Slots,
    /// Photometric weight configuration (tier pre-clamped), applied at
    /// every ladder rung.
    weight: TapConfig,
    /// Brownout quality ladder: `ladder[L-1]` holds the reduced-radius
    /// spatial kernel and gather plan for level `L` (empty outside the
    /// brownout policy — the rungs are never consulted elsewhere).
    ladder: Vec<(SpatialKernel, GatherPlan)>,
}

impl<V: Volume3 + Sync, LOut: Layout3> PencilKernel<'_, V, LOut> {
    /// Compute one pencil with an explicit kernel/plan pair (the full-
    /// quality pair or a ladder rung).
    fn compute_with(
        &self,
        kernel: &SpatialKernel,
        plan: &GatherPlan,
        unit: usize,
        buf: &mut Vec<f32>,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> bool {
        let p = pencil(self.dims, self.axis, unit);
        buf.clear();
        buf.reserve(p.len);
        bilateral_pencil(self.vol, kernel, self.inv, plan, &p, self.weight, |_, _, _, v| {
            buf.push(v);
            keep_going()
        })
        .0
    }
}

impl<V: Volume3 + Sync, LOut: Layout3> UnitKernel for PencilKernel<'_, V, LOut> {
    type Value = f32;

    fn unit_kind(&self) -> &'static str {
        "pencil"
    }

    /// Fill `buf[t]` with the filtered value at along-axis position `t`
    /// ([`bilateral_pencil`] emits in along-axis order).
    fn compute(
        &self,
        unit: usize,
        buf: &mut Vec<f32>,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> bool {
        self.compute_with(&self.kernel, &self.plan, unit, buf, keep_going)
    }

    fn commit(&self, unit: usize, buf: &[f32]) {
        let p = pencil(self.dims, self.axis, unit);
        for (t, &v) in buf.iter().enumerate() {
            let (i, j, k) = p.coords(t);
            let idx = self.out_layout.index(i, j, k);
            // SAFETY: the layout is injective over the logical domain and
            // pencils partition it; concurrent attempts at the *same*
            // pencil write identical bytes (deterministic kernel), so the
            // race between an abandoned straggler and its retry is benign;
            // `idx < storage_len` by the layout contract.
            unsafe { *self.slots.0.add(idx) = v };
        }
    }

    fn read_back(&self, unit: usize, buf: &mut Vec<f32>) {
        let p = pencil(self.dims, self.axis, unit);
        for (i, j, k) in p.iter() {
            let idx = self.out_layout.index(i, j, k);
            // SAFETY: single-threaded phase, after every commit finished.
            buf.push(unsafe { *self.slots.0.add(idx) });
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

impl<V: Volume3 + Sync, LOut: Layout3> BrownoutKernel for PencilKernel<'_, V, LOut> {
    fn max_level(&self) -> u8 {
        self.ladder.len() as u8
    }

    fn compute_at(
        &self,
        unit: usize,
        level: u8,
        buf: &mut Vec<f32>,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> bool {
        match level {
            0 => self.compute(unit, buf, keep_going),
            l => {
                let (kernel, plan) = &self.ladder[usize::from(l) - 1];
                self.compute_with(kernel, plan, unit, buf, keep_going)
            }
        }
    }
}

/// Bilateral-filter `vol` into `out` under an engine [`ExecPolicy`].
///
/// `Plain` runs the unbuffered fast driver (panics propagate, `faults`
/// ignored) and synthesizes a clean outcome; `Supervised` and `Degraded`
/// run the buffered [`PencilKernel`] under the engine, taking their thread
/// count from the policy's supervisor configuration. Errors are returned
/// only for invalid *configuration* — execution failures land in the
/// outcome, never abort the run.
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
    run.validate()?;
    if vol.dims() != out.dims() {
        return Err(SfcError::ShapeMismatch {
            what: "bilateral3d_degraded",
            expected: format!("output dims {:?}", vol.dims()),
            actual: format!("{:?}", out.dims()),
        });
    }
    let dims = vol.dims();
    let axis = run.pencil_axis;
    let n_pencils = pencil_count(dims, axis);
    if let ExecPolicy::Plain = policy {
        let start = std::time::Instant::now();
        crate::parallel::try_bilateral3d_into(vol, out, run)?;
        return Ok(DegradedOutcome::full_quality(
            RunReport {
                completed: n_pencils,
                wall_time: start.elapsed(),
                ..RunReport::default()
            },
            sfc_harness::DefectMap::new("pencil", n_pencils),
        ));
    }
    let supervisor = match policy {
        ExecPolicy::Supervised(cfg) => cfg,
        ExecPolicy::Degraded(p) => &p.supervisor,
        ExecPolicy::Brownout(p) => &p.supervisor,
        ExecPolicy::Plain => unreachable!(),
    };
    // The quality ladder (one reduced-radius kernel/plan pair per rung)
    // exists only under the brownout policy; other stacks never consult
    // it, so its construction cost is not paid on their path.
    let ladder = if matches!(policy, ExecPolicy::Brownout(_)) {
        (1..=run.brownout_depth())
            .map(|level| {
                let spatial = run.brownout_params(level).spatial_kernel();
                let plan = GatherPlan::new(&spatial, dims, axis);
                (spatial, plan)
            })
            .collect()
    } else {
        Vec::new()
    };
    let spatial = run.params.spatial_kernel();
    let kernel = PencilKernel {
        vol,
        plan: GatherPlan::new(&spatial, dims, axis),
        kernel: spatial,
        inv: run.params.inv_two_sigma_range_sq(),
        dims,
        axis,
        out_layout: out.layout().clone(),
        slots: Slots(out.storage_mut().as_mut_ptr()),
        weight: run.weight.clamped(),
        ladder,
    };
    Ok(Executor::new(supervisor.nthreads).execute_brownout(
        &WorkPlan::from_schedule(n_pencils, supervisor.schedule),
        policy,
        &kernel,
        faults,
    ))
}

/// Bilateral-filter `vol` into `out` under the supervised pool, returning
/// partial output plus a typed [`DefectMap`](sfc_harness::DefectMap)
/// instead of failing the run.
///
/// `faults` scripts injected failures (pass [`FaultPlan::none`] for
/// production); `output_range` is the optional inclusive plausibility
/// interval the validation scan enforces on finite output values. This is
/// the PR-3 entry point, now a wrapper over
/// [`try_bilateral3d_with_policy`] with the full
/// [`ExecPolicy::Degraded`] stack.
pub fn try_bilateral3d_degraded<V, LOut>(
    vol: &V,
    out: &mut Grid3<f32, LOut>,
    run: &FilterRun,
    cfg: &SupervisorConfig,
    faults: &FaultPlan,
    output_range: Option<(f32, f32)>,
) -> SfcResult<DegradedOutcome>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    try_bilateral3d_with_policy(vol, out, run, &ExecPolicy::degraded(cfg.clone(), output_range), faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bilateral::BilateralParams;
    use crate::parallel::bilateral3d;
    use sfc_core::{ArrayOrder3, Axis, Dims3, StencilOrder, ZOrder3};
    use sfc_harness::{DeadlineBudget, FaultKind};
    use std::time::Duration;

    fn test_volume(dims: Dims3) -> Vec<f32> {
        (0..dims.len())
            .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
            .collect()
    }

    fn run(nthreads: usize) -> FilterRun {
        FilterRun {
            params: BilateralParams {
                radius: 1,
                sigma_spatial: 1.0,
                sigma_range: 0.15,
                order: StencilOrder::Xyz,
            },
            pencil_axis: Axis::X,
            weight: Default::default(),
            nthreads,
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
    fn fault_free_degraded_run_matches_plain_driver_bitwise() {
        let dims = Dims3::new(10, 8, 6);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r = run(4);
        let reference: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &r);
        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let outcome = try_bilateral3d_degraded(
            &grid,
            &mut out,
            &r,
            &cfg(4),
            &FaultPlan::none(),
            Some((0.0, 1.0)),
        )
        .unwrap();
        assert!(outcome.defects.is_clean());
        assert!(outcome.output_is_whole());
        assert_eq!(out.to_row_major(), reference.to_row_major());
    }

    #[test]
    fn injected_faults_are_repaired_to_bitwise_identical_output() {
        let dims = Dims3::new(9, 7, 5);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r = run(3);
        let reference: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &r);
        let n = pencil_count(dims, Axis::X);
        assert!(n > 6);
        let faults = FaultPlan::none()
            .with(0, FaultKind::Panic)
            .with(2, FaultKind::CorruptOutput)
            .with(4, FaultKind::FailFirst(5)) // exceeds max_retries=1
            .with(5, FaultKind::Stall(Duration::from_secs(10)));
        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let outcome = try_bilateral3d_degraded(
            &grid,
            &mut out,
            &r,
            &cfg(3),
            &faults,
            Some((0.0, 1.0)),
        )
        .unwrap();
        assert_eq!(outcome.defects.units(), vec![0, 2, 4, 5]);
        assert!(outcome.output_is_whole(), "{}", outcome.defects);
        assert_eq!(out.to_row_major(), reference.to_row_major());
    }

    #[test]
    fn validation_scan_flags_corrupt_output_without_range() {
        // Even with no plausibility range, the NaN half of the poison
        // pattern is caught.
        let dims = Dims3::new(8, 6, 4);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r = run(2);
        let faults = FaultPlan::none().with(1, FaultKind::CorruptOutput);
        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let outcome =
            try_bilateral3d_degraded(&grid, &mut out, &r, &cfg(2), &faults, None).unwrap();
        assert_eq!(outcome.defects.units(), vec![1]);
        assert!(outcome.output_is_whole());
    }

    #[test]
    fn config_errors_still_abort() {
        let dims = Dims3::cube(4);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let mut out = Grid3::<f32, ArrayOrder3>::new(Dims3::cube(5));
        let err = try_bilateral3d_degraded(
            &grid,
            &mut out,
            &run(2),
            &cfg(2),
            &FaultPlan::none(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, SfcError::ShapeMismatch { .. }));
    }

    #[test]
    fn plain_policy_is_the_fast_driver_with_a_clean_outcome() {
        let dims = Dims3::new(7, 6, 5);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r = run(2);
        let reference: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &r);
        let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
        let outcome = try_bilateral3d_with_policy(
            &grid,
            &mut out,
            &r,
            &ExecPolicy::Plain,
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(outcome.defects.is_clean());
        assert_eq!(outcome.report.completed, pencil_count(dims, Axis::X));
        assert_eq!(out.to_row_major(), reference.to_row_major());
    }

    #[test]
    fn brownout_zero_budget_repairs_at_reduced_radius() {
        let dims = Dims3::new(8, 6, 5);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r2 = FilterRun {
            params: BilateralParams {
                radius: 2,
                sigma_spatial: 1.0,
                sigma_range: 0.15,
                order: StencilOrder::Xyz,
            },
            pencil_axis: Axis::X,
            weight: Default::default(),
            nthreads: 2,
        };
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
            try_bilateral3d_with_policy(&grid, &mut out, &r2, &policy, &FaultPlan::none())
                .unwrap();
        assert!(outcome.output_is_whole(), "{}", outcome.defects);
        assert_eq!(outcome.quality.len(), pencil_count(dims, Axis::X));
        assert_eq!(outcome.quality.max_level(), 1);
        assert_eq!(out.to_row_major(), reference.to_row_major());
    }

    #[test]
    fn supervised_policy_isolates_panics_without_repair() {
        let dims = Dims3::new(8, 5, 4);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &test_volume(dims));
        let r = run(2);
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
        assert_eq!(outcome.defects.units(), vec![3]);
        assert!(!outcome.output_is_whole());
    }
}
