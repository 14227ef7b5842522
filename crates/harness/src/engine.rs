//! The composable execution engine every kernel driver runs on.
//!
//! The paper's two kernels share one parallelization story — partition the
//! volume into ordered work units (voxel pencils for the bilateral filter,
//! §III-D; 32×32 image tiles for the raycaster, §III-E) and hand units to
//! threads either statically round-robin or through a dynamic queue. This
//! module implements that story **once**, as three composable pieces:
//!
//! * a [`WorkPlan`] — how many units there are and which [`Schedule`]
//!   hands them to threads;
//! * an [`Executor`] — deals a plan's units to its threads. Every parallel
//!   kernel path (the bilateral and raycast kernels under every policy,
//!   the per-voxel filter drivers, the cache-simulator core sweep) runs on
//!   [`Executor::run`]'s dealing, and `scoped_workers` is the one place
//!   worker threads are started;
//! * an [`ExecPolicy`] — [`ExecPolicy::Plain`] (the paper's engine: run to
//!   completion on the plan's dealing, panics propagate), or one of the
//!   three policies the one supervised pipeline serves on that same
//!   dealing, each adding a stage to the one before:
//!   [`ExecPolicy::Supervised`] (panic isolation, in-place bounded retry
//!   with exponential backoff, watchdog timeouts with cooperative
//!   cancellation, buffered per-unit commit), [`ExecPolicy::Degraded`]
//!   (plus a post-run validation scan and a single-threaded faults-off
//!   repair pass) and [`ExecPolicy::Brownout`] (plus deadline-aware
//!   admission: an EWMA [`DeadlineController`](crate::deadline) projects
//!   the work left against the budget, sheds units past it, and a
//!   per-unit circuit breaker stops retrying chronically failing units at
//!   full quality; kernels with a quality ladder
//!   ([`UnitKernel::max_level`] above 0) are asked for coarser — but
//!   valid — output under pressure).
//!
//! Every run returns a [`DegradedOutcome`] whose [`QualityMap`] records,
//! per unit, the defects found (each marked repaired or not) and the
//! ladder level of the committed bytes. Kernels plug in through the
//! [`UnitKernel`] trait (compute a unit at a quality level into a buffer,
//! commit it, read it back for validation) and write their output through
//! [`DisjointSlots`].

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sfc_core::{SfcError, SfcResult};

use crate::deadline::{Admission, DeadlineBudget, DeadlineController, DowngradeReason};
use crate::degrade::{scan_unit, DegradedOutcome, QualityMap};
use crate::faults::FaultPlan;
use crate::metrics::{self, LazyCounter, Log2Histogram};
use crate::supervise::{CancelToken, ItemFailure, RunReport, SupervisorConfig};

// ---------------------------------------------------------------------------
// Work plans
// ---------------------------------------------------------------------------

/// Work-assignment strategy (paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Unit `i` is processed by thread `i % nthreads` (paper's pencil
    /// assignment).
    StaticRoundRobin,
    /// Threads repeatedly claim the next unprocessed unit from a shared
    /// cursor (paper's tile worker pool).
    Dynamic,
}

/// The items thread `tid` of `nthreads` processes under static round-robin
/// assignment. Exposed so counter simulations can replicate the native
/// work split exactly.
pub fn items_for_thread(nitems: usize, nthreads: usize, tid: usize) -> impl Iterator<Item = usize> {
    debug_assert!(tid < nthreads);
    (tid..nitems).step_by(nthreads.max(1))
}

/// An ordered set of work units plus the schedule that hands them to
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkPlan {
    nunits: usize,
    schedule: Schedule,
}

impl WorkPlan {
    /// A plan over `0..nunits` under `schedule`.
    pub fn new(nunits: usize, schedule: Schedule) -> Self {
        Self { nunits, schedule }
    }

    /// Static round-robin plan (pencil assignment).
    pub fn static_round_robin(nunits: usize) -> Self {
        Self::new(nunits, Schedule::StaticRoundRobin)
    }

    /// Dynamic-queue plan (tile worker pool).
    pub fn dynamic(nunits: usize) -> Self {
        Self::new(nunits, Schedule::Dynamic)
    }

    /// Number of work units.
    pub fn nunits(&self) -> usize {
        self.nunits
    }
}

// ---------------------------------------------------------------------------
// Disjoint output slots
// ---------------------------------------------------------------------------

/// Shared write access to the elements of one exclusively borrowed slice,
/// for workers that each own a disjoint set of indices (the pencils of a
/// volume, the tiles of an image, the cores of a simulation).
///
/// Its `Sync` implementation is the workspace's one audited unsafe one.
/// Every access is bounds-checked, in release builds too; what the type
/// cannot check is disjointness, so [`DisjointSlots::write`] and
/// [`DisjointSlots::read`] are `unsafe fn`s with one contract: no other
/// thread touches that index at the same time.
pub struct DisjointSlots<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr` and `len` describe a slice exclusively borrowed for `'a`
// (`_borrow` holds that borrow), so nothing outside the slots can reach
// it, and neither field changes after construction. The slots hand out no
// references, only element writes and copies, each under its caller's
// promise that no other thread touches that index at the same time.
// Values move between threads through them, hence `T: Send`.
unsafe impl<T: Send> Sync for DisjointSlots<'_, T> {}

impl<'a, T> DisjointSlots<'a, T> {
    /// Slots over `slice` for as long as it is borrowed.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _borrow: PhantomData,
        }
    }

    /// Store `value` at `index`, dropping the previous value.
    ///
    /// # Safety
    /// No other thread may read or write `index` at the same time.
    ///
    /// # Panics
    /// Panics if `index` is out of range of the slice.
    pub unsafe fn write(&self, index: usize, value: T) {
        assert!(
            index < self.len,
            "slot {index} out of range ({} slots)",
            self.len
        );
        // SAFETY: in bounds (checked above) of a live exclusive borrow;
        // the caller guarantees no concurrent access to this index.
        unsafe { *self.ptr.add(index) = value };
    }

    /// Copy the value at `index`.
    ///
    /// # Safety
    /// No other thread may write `index` at the same time.
    ///
    /// # Panics
    /// Panics if `index` is out of range of the slice.
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        assert!(
            index < self.len,
            "slot {index} out of range ({} slots)",
            self.len
        );
        // SAFETY: as in `write`.
        unsafe { *self.ptr.add(index) }
    }
}

// ---------------------------------------------------------------------------
// The one thread scope
// ---------------------------------------------------------------------------

/// Spawn `nthreads` workers running `worker(tid)` inside one
/// `std::thread::scope` and join them: the one place the workspace starts
/// worker threads.
fn scoped_workers<W>(nthreads: usize, worker: &W)
where
    W: Fn(usize) + Sync,
{
    std::thread::scope(|s| {
        for tid in 0..nthreads {
            s.spawn(move || worker(tid));
        }
    });
}

// ---------------------------------------------------------------------------
// Poison-tolerant locking
// ---------------------------------------------------------------------------
//
// Every mutex in this module guards plain bookkeeping data (failure and
// defect logs, heartbeat slots) that is consistent at every point a panic can
// unwind through — the engine's own panic isolation catches kernel panics
// *outside* any lock, but a `commit` implementation can still panic while
// a sibling holds a lock, and a long-running service must not turn one
// tenant's poisoned unit into a permanently wedged executor. Recovering
// the guard is therefore always correct here; propagating the poison
// would only re-panic threads that did nothing wrong.

/// Lock `m`, recovering the guard from a poisoned mutex.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Consume `m`, recovering the value from a poisoned mutex.
fn unwrap_lock<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Executes [`WorkPlan`]s on a fixed-size worker pool. Construction is the
/// only place a thread count is validated; every kernel driver goes
/// through here.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    nthreads: usize,
}

impl Executor {
    /// An executor with `nthreads` workers.
    ///
    /// # Panics
    /// Panics if `nthreads == 0` (misconfiguration, not worker failure).
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads > 0, "need at least one thread");
        Self { nthreads }
    }

    /// Worker-pool size.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Run `worker(tid, unit)` over every unit of `plan`. Blocks until all
    /// units are processed; each unit is processed exactly once. With one
    /// thread the units run serially in index order on the caller's thread
    /// (no spawn, no atomics) — the fast path every single-threaded
    /// benchmark row takes.
    pub fn run<F>(&self, plan: &WorkPlan, worker: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let n = plan.nunits;
        let nthreads = self.nthreads;
        if nthreads == 1 {
            for unit in 0..n {
                worker(0, unit);
            }
            return;
        }
        match plan.schedule {
            Schedule::StaticRoundRobin => scoped_workers(nthreads, &|tid| {
                for unit in items_for_thread(n, nthreads, tid) {
                    worker(tid, unit);
                }
            }),
            Schedule::Dynamic => {
                let next = AtomicUsize::new(0);
                let next = &next;
                scoped_workers(nthreads, &|tid| loop {
                    let unit = next.fetch_add(1, Ordering::Relaxed);
                    if unit >= n {
                        break;
                    }
                    worker(tid, unit);
                });
            }
        }
    }

    /// [`Executor::run`] with per-unit panic isolation: a panicking unit is
    /// caught, the remaining units still run, and the lowest-indexed
    /// panicked unit is reported as a typed [`SfcError::WorkerPanic`].
    /// Used by the cache-simulator core sweep so one bad core simulation
    /// no longer aborts the whole sweep.
    pub fn try_run<F>(&self, plan: &WorkPlan, worker: F) -> SfcResult<()>
    where
        F: Fn(usize, usize) + Sync,
    {
        let first: Mutex<Option<(usize, String)>> = Mutex::new(None);
        self.run(plan, |tid, unit| {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| worker(tid, unit))) {
                let mut slot = lock(&first);
                // Keep the lowest unit index so the reported error is
                // deterministic regardless of thread interleaving.
                if slot.as_ref().is_none_or(|(u, _)| unit < *u) {
                    *slot = Some((unit, panic_payload_string(&payload)));
                }
            }
        });
        match unwrap_lock(first) {
            None => Ok(()),
            Some((item, payload)) => Err(SfcError::WorkerPanic { item, payload }),
        }
    }

    /// Run `worker(tid, unit, token)` under supervision: per-unit panic
    /// isolation, bounded retry with exponential backoff, and — when
    /// `cfg.timeout` is set — a watchdog that expires overdue attempts.
    /// Returns a [`RunReport`]; never panics because of worker behaviour.
    ///
    /// Units are dealt exactly as [`Executor::run`] deals them (the
    /// executor's thread count and the plan's schedule supersede the
    /// `nthreads`/`schedule` fields of `cfg`), and the thread a unit is
    /// dealt to runs all of its attempts in place, sleeping the backoff
    /// on the run's cancel token between them. With no timeout this *is*
    /// `run`; with one, a single watchdog thread runs beside the workers.
    /// Each unit contributes exactly one unit to `completed +
    /// failed.len()`.
    ///
    /// The watchdog marks an attempt that overstays the timeout and fires
    /// its per-attempt token; a cooperative worker polls it
    /// (`token.bail(unit)?`) and returns early, and the worker records a
    /// marked attempt as [`SfcError::Timeout`] whatever it returned.
    pub fn run_supervised<F>(&self, plan: &WorkPlan, cfg: &SupervisorConfig, worker: F) -> RunReport
    where
        F: Fn(usize, usize, &CancelToken) -> SfcResult<()> + Sync,
    {
        let start = Instant::now();
        let nslots = cfg.timeout.map_or(0, |_| self.nthreads);
        let sup = Supervision {
            worker: &worker,
            cfg,
            slots: (0..nslots).map(|_| Mutex::new(None)).collect(),
            completed: AtomicUsize::new(0),
            retried: AtomicUsize::new(0),
            failures: Mutex::new(Vec::new()),
        };
        let units = |tid, unit| sup.run_unit(tid, unit);
        match cfg.timeout {
            None => self.run(plan, units),
            Some(limit) => {
                let done = AtomicBool::new(false);
                std::thread::scope(|s| {
                    let watchdog = s.spawn(|| sup.watchdog(limit, &done));
                    // Stop the watchdog however the run ends, so the scope
                    // can join it.
                    let ran = catch_unwind(AssertUnwindSafe(|| self.run(plan, units)));
                    done.store(true, Ordering::Release);
                    watchdog.thread().unpark();
                    if let Err(payload) = ran {
                        std::panic::resume_unwind(payload);
                    }
                });
            }
        }

        let mut failed = unwrap_lock(sup.failures);
        failed.sort_by_key(|f| f.item);
        RunReport {
            completed: sup.completed.into_inner(),
            failed,
            retried: sup.retried.into_inner(),
            wall_time: start.elapsed(),
        }
    }

    /// Execute a [`UnitKernel`] under a policy. Every policy uses the
    /// kernel's buffered compute/commit cycle:
    ///
    /// * [`ExecPolicy::Plain`] — every unit computed at full quality and
    ///   committed on the plan's dealing, panics propagate, `faults` is
    ///   ignored (fault injection requires supervision); the outcome's map
    ///   is empty.
    /// * every other policy — the one supervised pipeline, with the stages
    ///   the policy switches on: supervised execution with buffered
    ///   per-unit commit, failed units recorded in the outcome's
    ///   [`QualityMap`]; [`ExecPolicy::Degraded`] adds the validation scan
    ///   and repair pass, and [`ExecPolicy::Brownout`] the deadline
    ///   controller on top.
    pub fn execute<K: UnitKernel>(
        &self,
        plan: &WorkPlan,
        policy: &ExecPolicy,
        kernel: &K,
        faults: &FaultPlan,
    ) -> DegradedOutcome {
        let nunits = plan.nunits;
        let outcome = match policy.supervisor() {
            // `Plain`: the plan's own dealing, no queue, lock or
            // `catch_unwind` per unit.
            None => {
                let start = Instant::now();
                let latency = unit_latency(kernel.unit_kind());
                self.run(plan, |_tid, unit| {
                    let t0 = Instant::now();
                    let mut buf = Vec::new();
                    kernel.compute(unit, 0, &mut buf, &mut || true);
                    kernel.commit(unit, &buf);
                    latency.record_duration_us(t0.elapsed());
                });
                let report = RunReport {
                    completed: nunits,
                    wall_time: start.elapsed(),
                    ..RunReport::default()
                };
                DegradedOutcome {
                    report,
                    quality: QualityMap::new(kernel.unit_kind(), nunits),
                }
            }
            Some(cfg) => self.run_pipeline(plan, cfg, policy, kernel, faults),
        };
        record_outcome_metrics(&outcome);
        outcome
    }

    /// The supervised pipeline every policy but `Plain` runs, in two
    /// stages:
    ///
    /// 1. **Execute** (every policy): each unit is computed into a local
    ///    buffer under supervision, the cancel token is checked, then the
    ///    buffer is committed — an abandoned attempt never leaves a
    ///    half-written unit. Units that exhaust their retries become
    ///    `Failed` defects in the outcome's [`QualityMap`]. Under
    ///    [`ExecPolicy::Brownout`] a [`DeadlineController`] decides, per
    ///    attempt, whether the unit runs at full quality, at a coarser
    ///    ladder level, or is shed past the hard deadline straight to the
    ///    repair pass; the other policies admit every attempt at full
    ///    quality.
    /// 2. **Validate and repair** ([`ExecPolicy::Degraded`] and
    ///    [`ExecPolicy::Brownout`]; see [`validate_and_repair`]), skipped
    ///    once the run's cancel token has fired.
    ///
    /// A cancelled attempt (watchdog fired its token) never commits — the
    /// token is checked after compute — so at most one attempt's bytes
    /// land per unit in practice; the map records levels in commit order
    /// (last write wins).
    ///
    /// With no budget and no failures every unit is admitted at level 0 —
    /// full quality, the level every other policy computes at — so a
    /// pressure-free brownout run equals a plain run byte for byte.
    fn run_pipeline<K: UnitKernel>(
        &self,
        plan: &WorkPlan,
        cfg: &SupervisorConfig,
        policy: &ExecPolicy,
        kernel: &K,
        faults: &FaultPlan,
    ) -> DegradedOutcome {
        let nunits = plan.nunits;
        let ctl = policy.deadline().map(|budget| {
            DeadlineController::new(budget, nunits, self.nthreads, kernel.max_level())
        });
        let ctl = ctl.as_ref();
        let latency = unit_latency(kernel.unit_kind());
        let quality = Mutex::new(QualityMap::new(kernel.unit_kind(), nunits));

        let report = self.run_supervised(plan, cfg, |_tid, unit, token| {
            let admission = ctl.map_or(Admission::Full, |ctl| ctl.admit(unit));
            let level = match admission {
                // Past the hard deadline: shed without computing or
                // burning a fault roll. `Cancelled` is not
                // retryable, so the unit goes straight to the map and is
                // recomputed (coarsely) by the repair pass.
                Admission::Shed => return Err(SfcError::Cancelled { item: unit }),
                Admission::Full => 0,
                Admission::Degraded { level, .. } => level,
            };
            let attempt = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                faults.fire_cancellable(unit, token)?;
                let mut buf = Vec::new();
                let done = kernel.compute(unit, level, &mut buf, &mut || !token.is_cancelled());
                if !done {
                    return Err(SfcError::Cancelled { item: unit });
                }
                token.bail(unit)?;
                if faults.corrupts(unit) {
                    K::poison(&mut buf);
                }
                kernel.commit(unit, &buf);
                if let Admission::Degraded { level, reason } = admission {
                    lock(&quality).record_level(unit, level, reason);
                }
                Ok(())
            }));
            // Feed the controller (its breaker and EWMA see failed
            // attempts too), then hand a panic on to the supervised
            // attempt, which records it as usual.
            let elapsed = attempt.elapsed();
            let committed = matches!(outcome, Ok(Ok(())));
            if committed {
                latency.record_duration_us(elapsed);
            }
            match ctl {
                Some(ctl) if committed => ctl.on_success(elapsed),
                Some(ctl) => ctl.on_failed_attempt(unit, elapsed),
                None => {}
            }
            outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        });

        let mut quality = unwrap_lock(quality);
        quality.record_failures(&report);
        // Nobody waits for a cancelled run, so it is not repaired (units
        // the deadline controller shed leave the run token unfired).
        let validation = policy.validation().filter(|_| !cfg.cancel.is_cancelled());
        if let Some(output_range) = validation {
            validate_and_repair(kernel, &mut quality, output_range, || {
                ctl.map_or(0, DeadlineController::repair_level)
            });
        }
        DegradedOutcome { report, quality }
    }
}

/// The validate/repair stage of the supervised pipeline.
///
/// The scan reads back every unit that committed and records non-finite
/// values, plus values outside `output_range` when set; failed units hold
/// placeholder data and are already in the map.
///
/// The repair pass then recomputes each defective unit single-threaded
/// with faults off at the ladder level `repair_level` names — asked once,
/// after the scan: the brownout pipeline repairs at full quality while its
/// budget holds and at the deepest rung once it is exhausted, since
/// recomputing shed units at full quality would blow the very deadline
/// that shed them. The fresh buffer is committed and rescanned (not read
/// back: the rescan judges the recomputation itself). A clean rescan marks
/// the unit's defects repaired; a bad one (e.g. NaN input) adds its own.
/// Either way the unit's bytes are now at the repair level.
fn validate_and_repair<K: UnitKernel>(
    kernel: &K,
    quality: &mut QualityMap,
    output_range: Option<(f32, f32)>,
    repair_level: impl FnOnce() -> u8,
) {
    let components = |values: &[K::Value], comps: &mut Vec<f32>| {
        comps.clear();
        for &v in values {
            K::components(v, &mut |c| comps.push(c));
        }
    };
    let failed = quality.defective_units();
    let mut values = Vec::new();
    let mut comps = Vec::new();
    for unit in 0..quality.nunits() {
        if failed.binary_search(&unit).is_ok() {
            continue;
        }
        values.clear();
        kernel.read_back(unit, &mut values);
        components(&values, &mut comps);
        scan_unit(quality, unit, comps.iter().copied(), output_range);
    }

    let level = repair_level();
    for unit in quality.defective_units() {
        kernel.compute(unit, level, &mut values, &mut || true);
        kernel.commit(unit, &values);
        components(&values, &mut comps);
        if !scan_unit(quality, unit, comps.iter().copied(), output_range) {
            quality.mark_repaired(unit);
        }
        quality.record_level(unit, level, DowngradeReason::Shed); // level 0 clears
    }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

/// The policy an [`Executor::execute`] call runs under: `Plain`, or one of
/// the three policies the supervised pipeline serves, each adding a stage
/// to the one before.
#[derive(Debug, Clone)]
pub enum ExecPolicy {
    /// Run to completion on the plan's dealing; worker panics propagate;
    /// no fault injection.
    Plain,
    /// Supervised execution: panic isolation, watchdog timeouts with
    /// cooperative cancellation, bounded retry with backoff, buffered
    /// per-unit commit.
    Supervised(SupervisorConfig),
    /// Supervised execution plus the validate/repair stage.
    Degraded {
        /// Supervision parameters for the execute stage.
        supervisor: SupervisorConfig,
        /// Optional inclusive plausibility interval the validation scan
        /// enforces on finite output components.
        output_range: Option<(f32, f32)>,
    },
    /// The degraded pipeline under deadline-aware admission control: a
    /// wall-clock [`DeadlineBudget`], hard-deadline shedding, a per-unit
    /// circuit breaker, and the kernel's quality ladder
    /// ([`UnitKernel::max_level`]). With no budget and no failures this is
    /// bitwise-identical to [`ExecPolicy::Plain`].
    Brownout {
        /// Supervision parameters for the execute stage.
        supervisor: SupervisorConfig,
        /// Wall-clock budget of the deadline controller.
        deadline: DeadlineBudget,
        /// Optional inclusive plausibility interval the validation scan
        /// enforces on finite output components.
        output_range: Option<(f32, f32)>,
    },
}

impl ExecPolicy {
    /// The full graceful-degradation stack with an optional inclusive
    /// plausibility range for finite output components.
    pub fn degraded(supervisor: SupervisorConfig, output_range: Option<(f32, f32)>) -> Self {
        ExecPolicy::Degraded {
            supervisor,
            output_range,
        }
    }

    /// The deadline-aware brownout stack.
    pub fn brownout(
        supervisor: SupervisorConfig,
        deadline: DeadlineBudget,
        output_range: Option<(f32, f32)>,
    ) -> Self {
        ExecPolicy::Brownout {
            supervisor,
            deadline,
            output_range,
        }
    }

    /// Human-readable policy name for logs and demo banners.
    pub fn label(&self) -> &'static str {
        match self {
            ExecPolicy::Plain => "plain",
            ExecPolicy::Supervised(_) => "supervised",
            ExecPolicy::Degraded { .. } => "degraded",
            ExecPolicy::Brownout { .. } => "brownout",
        }
    }

    /// The thread count and schedule a run under this policy uses:
    /// `Plain` takes the driver's own (`nthreads`, `schedule`), every
    /// supervised policy its [`SupervisorConfig`]'s.
    ///
    /// # Errors
    /// [`SfcError::InvalidParameter`] when that thread count is zero.
    pub fn threads_and_schedule(
        &self,
        nthreads: usize,
        schedule: Schedule,
    ) -> SfcResult<(usize, Schedule)> {
        let (nthreads, schedule) = match self.supervisor() {
            None => (nthreads, schedule),
            Some(cfg) => (cfg.nthreads, cfg.schedule),
        };
        if nthreads == 0 {
            return Err(SfcError::InvalidParameter {
                name: "nthreads",
                reason: format!("the {} policy needs at least one thread", self.label()),
            });
        }
        Ok((nthreads, schedule))
    }

    /// How many coarser ladder rungs a kernel should build under this
    /// policy: its full `depth` under `Brownout`, the only policy that
    /// computes below full quality, and none otherwise.
    pub fn ladder_depth(&self, depth: u8) -> u8 {
        match self {
            ExecPolicy::Brownout { .. } => depth,
            _ => 0,
        }
    }

    /// The supervision parameters (`None` for `Plain`).
    fn supervisor(&self) -> Option<&SupervisorConfig> {
        match self {
            ExecPolicy::Plain => None,
            ExecPolicy::Supervised(supervisor)
            | ExecPolicy::Degraded { supervisor, .. }
            | ExecPolicy::Brownout { supervisor, .. } => Some(supervisor),
        }
    }

    /// The deadline controller's budget (`Brownout` only).
    fn deadline(&self) -> Option<&DeadlineBudget> {
        match self {
            ExecPolicy::Brownout { deadline, .. } => Some(deadline),
            _ => None,
        }
    }

    /// Whether the pipeline's validate/repair stage runs, and with which
    /// plausibility range (`Degraded` and `Brownout` only).
    fn validation(&self) -> Option<Option<(f32, f32)>> {
        match self {
            ExecPolicy::Degraded { output_range, .. }
            | ExecPolicy::Brownout { output_range, .. } => Some(*output_range),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// A kernel the engine can drive: computes one work unit at a time into a
/// dense buffer, commits the buffer to the output, and can read a
/// committed unit back for validation. Implementations write the output
/// through [`DisjointSlots`] so disjoint units commit concurrently.
///
/// A kernel may offer a *quality ladder*: the same unit computed at
/// progressively coarser — but still valid — levels (bilateral pencils
/// with a reduced stencil radius, raycast tiles with a larger step and a
/// lower early-termination threshold). Level 0 is full quality and the
/// only level every policy but [`ExecPolicy::Brownout`] asks for; the
/// brownout policy climbs down the ladder under deadline pressure instead
/// of blowing the budget. Every level must fill the buffer with the same
/// shape (same length, same element order) so commit, read-back and
/// validation are level-agnostic.
pub trait UnitKernel: Sync {
    /// Element type of a unit's buffer (a voxel value, a pixel, …).
    type Value: Copy + Send;

    /// The unit noun used in quality maps ("pencil", "tile", …).
    fn unit_kind(&self) -> &'static str;

    /// Deepest quality-ladder level; the default 0 means no ladder (the
    /// kernel computes at full quality only).
    fn max_level(&self) -> u8 {
        0
    }

    /// Compute `unit` at ladder `level` (at most
    /// [`UnitKernel::max_level`]) into `buf` (cleared/sized by the
    /// implementation), polling `keep_going` at a convenient granularity.
    /// Returns `false` when aborted by `keep_going`; partial buffers are
    /// never committed.
    fn compute(
        &self,
        unit: usize,
        level: u8,
        buf: &mut Vec<Self::Value>,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> bool;

    /// Commit a fully computed buffer to the output. May be called
    /// concurrently for distinct units; concurrent commits of the *same*
    /// unit must write identical bytes (deterministic kernels do).
    fn commit(&self, unit: usize, buf: &[Self::Value]);

    /// Read a committed unit back from the output, in the same order
    /// `compute` fills the buffer. Only called single-threaded, after all
    /// concurrent commits have finished.
    fn read_back(&self, unit: usize, buf: &mut Vec<Self::Value>);

    /// Decompose a value into its finite-checkable f32 components (one
    /// per voxel value, four per RGBA pixel, …) for the validation scan.
    fn components(value: Self::Value, sink: &mut dyn FnMut(f32));

    /// Overwrite a computed buffer the way
    /// [`FaultKind::CorruptOutput`](crate::FaultKind::CorruptOutput)
    /// prescribes (alternating non-finite and absurd-but-finite values),
    /// so both arms of the validation scan are exercised.
    fn poison(buf: &mut [Self::Value]);
}

// ---------------------------------------------------------------------------
// Engine metrics
// ---------------------------------------------------------------------------

static UNITS_COMPLETED: LazyCounter = LazyCounter::new("engine.units_completed");
static UNITS_FAILED: LazyCounter = LazyCounter::new("engine.units_failed");
static UNITS_RETRIED: LazyCounter = LazyCounter::new("engine.units_retried");
static DEFECTS: LazyCounter = LazyCounter::new("engine.defects");
static UNITS_REPAIRED: LazyCounter = LazyCounter::new("engine.units_repaired");
static UNITS_DOWNGRADED: LazyCounter = LazyCounter::new("engine.units_downgraded");

/// The per-unit commit-latency histogram for a kernel's unit kind
/// (`engine.unit_latency_us.pencil`, `engine.unit_latency_us.tile`, …).
/// Looked up once per run — one registry lock per `execute`, zero
/// allocation afterwards.
fn unit_latency(unit_kind: &str) -> &'static Log2Histogram {
    metrics::histogram(&format!("engine.unit_latency_us.{unit_kind}"))
}

/// Fold a finished run's report and quality map into the engine's
/// registry counters. Called once per [`Executor::execute`].
fn record_outcome_metrics(outcome: &DegradedOutcome) {
    UNITS_COMPLETED.add(outcome.report.completed as u64);
    UNITS_FAILED.add(outcome.report.failed.len() as u64);
    UNITS_RETRIED.add(outcome.report.retried as u64);
    let entries = outcome.quality.entries();
    let defective = entries.iter().filter(|e| !e.defects.is_empty());
    DEFECTS.add(defective.clone().map(|e| e.defects.len()).sum::<usize>() as u64);
    let repaired = defective.filter(|e| e.defects.iter().all(|d| d.repaired));
    UNITS_REPAIRED.add(repaired.count() as u64);
    UNITS_DOWNGRADED.add(entries.iter().filter(|e| e.level > 0).count() as u64);
}

// ---------------------------------------------------------------------------
// Supervised execution
// ---------------------------------------------------------------------------

/// An attempt in progress, as its worker's heartbeat slot shows it to the
/// watchdog.
struct Attempt {
    started: Instant,
    token: CancelToken,
    /// The timeout the attempt overstayed, once the watchdog marked it.
    overdue: Option<Duration>,
}

/// What one supervised run's workers and watchdog share.
struct Supervision<'a, F> {
    worker: &'a F,
    cfg: &'a SupervisorConfig,
    /// One heartbeat slot per worker thread, indexed by `tid`; empty when
    /// no timeout is armed.
    slots: Vec<Mutex<Option<Attempt>>>,
    completed: AtomicUsize,
    retried: AtomicUsize,
    failures: Mutex<Vec<ItemFailure>>,
}

impl<F> Supervision<'_, F>
where
    F: Fn(usize, usize, &CancelToken) -> SfcResult<()> + Sync,
{
    /// Run `unit`'s attempts on thread `tid` until one succeeds, one fails
    /// with an error that is not retryable, or the retries are spent, and
    /// record the outcome.
    fn run_unit(&self, tid: usize, unit: usize) {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let error = match self.attempt(tid, unit) {
                Ok(()) => {
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(error) => error,
            };
            if attempts > self.cfg.max_retries || !error.is_retryable() {
                lock(&self.failures).push(ItemFailure {
                    item: unit,
                    attempts,
                    error,
                });
                return;
            }
            self.retried.fetch_add(1, Ordering::Relaxed);
            // A cancelled run ends the wait early, and the next attempt
            // records the cancellation.
            let factor = 1u32 << (attempts - 1).min(16);
            let backoff = self.cfg.backoff_base.saturating_mul(factor);
            let _ = self.cfg.cancel.sleep_cancellable(unit, backoff);
        }
    }

    /// One attempt: refused once the run is cancelled, a panic caught as
    /// [`SfcError::WorkerPanic`], and an attempt the watchdog marked
    /// overdue a [`SfcError::Timeout`] whatever it returned.
    fn attempt(&self, tid: usize, unit: usize) -> SfcResult<()> {
        self.cfg.cancel.bail(unit)?;
        let Some(slot) = self.slots.get(tid) else {
            return self.call(tid, unit, &self.cfg.cancel);
        };
        let token = self.cfg.cancel.child();
        *lock(slot) = Some(Attempt {
            started: Instant::now(),
            token: token.clone(),
            overdue: None,
        });
        let result = self.call(tid, unit, &token);
        match lock(slot).take().and_then(|attempt| attempt.overdue) {
            Some(limit) => Err(SfcError::Timeout { item: unit, limit }),
            None => result,
        }
    }

    fn call(&self, tid: usize, unit: usize, token: &CancelToken) -> SfcResult<()> {
        catch_unwind(AssertUnwindSafe(|| (self.worker)(tid, unit, token))).unwrap_or_else(
            |payload| {
                Err(SfcError::WorkerPanic {
                    item: unit,
                    payload: panic_payload_string(&payload),
                })
            },
        )
    }

    /// Every `watchdog_poll` until `done`: mark each attempt that has run
    /// for `limit` or longer and fire its token.
    fn watchdog(&self, limit: Duration, done: &AtomicBool) {
        while !done.load(Ordering::Acquire) {
            std::thread::park_timeout(self.cfg.watchdog_poll);
            let now = Instant::now();
            for slot in &self.slots {
                if let Some(attempt) = lock(slot).as_mut() {
                    if attempt.overdue.is_none()
                        && now.saturating_duration_since(attempt.started) >= limit
                    {
                        attempt.overdue = Some(limit);
                        attempt.token.cancel();
                    }
                }
            }
        }
    }
}

pub(crate) fn panic_payload_string(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn round_robin_split_covers_all_items_once() {
        let nitems = 103;
        let nthreads = 7;
        let mut seen = vec![0u32; nitems];
        for tid in 0..nthreads {
            for item in items_for_thread(nitems, nthreads, tid) {
                seen[item] += 1;
                assert_eq!(item % nthreads, tid);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn each_schedule_processes_every_unit_once() {
        for schedule in [Schedule::StaticRoundRobin, Schedule::Dynamic] {
            let n = 1000;
            let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            Executor::new(8).run(&WorkPlan::new(n, schedule), |_tid, unit| {
                counts[unit].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{schedule:?}"
            );
        }
    }

    #[test]
    fn zero_units_is_a_no_op() {
        Executor::new(4).run(&WorkPlan::dynamic(0), |_, _| panic!("no units to run"));
    }

    #[test]
    fn single_thread_runs_serially_in_order() {
        let order = Mutex::new(Vec::new());
        Executor::new(1).run(&WorkPlan::dynamic(5), |tid, unit| {
            assert_eq!(tid, 0);
            order.lock().unwrap().push(unit);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn disjoint_slots_are_written_exactly_once_on_both_schedules() {
        for schedule in [Schedule::StaticRoundRobin, Schedule::Dynamic] {
            let n = 257;
            let mut out = vec![0u32; n];
            let writes = AtomicU64::new(0);
            let slots = DisjointSlots::new(&mut out);
            Executor::new(4).run(&WorkPlan::new(n, schedule), |_tid, unit| {
                // SAFETY: the executor hands each unit to exactly one
                // thread, so no other thread touches slot `unit`.
                unsafe { slots.write(unit, slots.read(unit) + 1) };
                writes.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(writes.load(Ordering::Relaxed), n as u64);
            assert!(out.iter().all(|&c| c == 1), "{schedule:?}: {out:?}");
        }
    }

    #[test]
    #[should_panic(expected = "slot 3 out of range (3 slots)")]
    fn out_of_range_slot_write_panics_in_every_build() {
        let mut out = [0.0f32; 3];
        let slots = DisjointSlots::new(&mut out);
        // SAFETY: single-threaded; the bounds check fires before any
        // access.
        unsafe { slots.write(3, 1.0) };
    }

    #[test]
    fn try_run_isolates_panics_and_finishes_other_units() {
        let n = 20;
        let done: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let err = Executor::new(4)
            .try_run(&WorkPlan::static_round_robin(n), |_tid, unit| {
                if unit == 7 || unit == 13 {
                    panic!("boom on {unit}");
                }
                done[unit].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert!(
            matches!(&err, SfcError::WorkerPanic { item: 7, payload } if payload.contains("boom on 7")),
            "{err:?}"
        );
        for (u, d) in done.iter().enumerate() {
            let want = u64::from(u != 7 && u != 13);
            assert_eq!(d.load(Ordering::Relaxed), want, "unit {u}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        Executor::new(0);
    }

    #[test]
    fn run_supervised_retries_transient_failures() {
        let n = 12;
        let tries: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let report = Executor::new(4).run_supervised(
            &WorkPlan::dynamic(n),
            &cfg,
            |_tid, unit, _token| {
                if tries[unit].fetch_add(1, Ordering::Relaxed) == 0 && unit % 4 == 0 {
                    panic!("flaky first attempt");
                }
                Ok(())
            },
        );
        assert_eq!(report.completed, n);
        assert!(report.all_ok());
        assert_eq!(report.retried, 3); // units 0, 4, 8
    }

    /// Toy kernel over a flat f32 output, with a scriptable set of source
    /// units whose recomputation stays bad (NaN input analog) and an
    /// optional quality ladder: level `L > 0` writes the full-quality
    /// value offset by `1000·L`, so a downgraded unit is visible (and its
    /// level recoverable) from the output bytes.
    struct ToyKernel {
        out: Mutex<Vec<f32>>,
        unit_len: usize,
        always_bad: Vec<usize>,
        depth: u8,
        /// The thread that last committed each unit.
        committed_on: Mutex<Vec<Option<std::thread::ThreadId>>>,
    }

    impl ToyKernel {
        fn new(nunits: usize, unit_len: usize) -> Self {
            Self {
                out: Mutex::new(vec![0.0; nunits * unit_len]),
                unit_len,
                always_bad: Vec::new(),
                depth: 0,
                committed_on: Mutex::new(vec![None; nunits]),
            }
        }
    }

    impl UnitKernel for ToyKernel {
        type Value = f32;

        fn unit_kind(&self) -> &'static str {
            "toyunit"
        }

        fn max_level(&self) -> u8 {
            self.depth
        }

        fn compute(
            &self,
            unit: usize,
            level: u8,
            buf: &mut Vec<f32>,
            keep_going: &mut dyn FnMut() -> bool,
        ) -> bool {
            buf.clear();
            for t in 0..self.unit_len {
                if !keep_going() {
                    return false;
                }
                let v = if self.always_bad.contains(&unit) {
                    f32::NAN
                } else {
                    (unit * self.unit_len + t) as f32 * 0.5 + 1000.0 * f32::from(level)
                };
                buf.push(v);
            }
            true
        }

        fn commit(&self, unit: usize, buf: &[f32]) {
            let mut out = self.out.lock().unwrap();
            out[unit * self.unit_len..(unit + 1) * self.unit_len].copy_from_slice(buf);
            self.committed_on.lock().unwrap()[unit] = Some(std::thread::current().id());
        }

        fn read_back(&self, unit: usize, buf: &mut Vec<f32>) {
            let out = self.out.lock().unwrap();
            buf.extend_from_slice(&out[unit * self.unit_len..(unit + 1) * self.unit_len]);
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

    fn expected_output(nunits: usize, unit_len: usize) -> Vec<f32> {
        (0..nunits * unit_len).map(|i| i as f32 * 0.5).collect()
    }

    fn quick_cfg(nthreads: usize) -> SupervisorConfig {
        SupervisorConfig {
            nthreads,
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            timeout: Some(Duration::from_millis(500)),
            watchdog_poll: Duration::from_millis(2),
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn plain_policy_executes_every_unit_with_clean_outcome() {
        let kernel = ToyKernel::new(9, 4);
        let exec = Executor::new(3);
        let outcome = exec.execute(
            &WorkPlan::dynamic(9),
            &ExecPolicy::Plain,
            &kernel,
            &FaultPlan::none(),
        );
        assert!(outcome.quality.entries().is_empty());
        assert_eq!(outcome.report.completed, 9);
        assert_eq!(*kernel.out.lock().unwrap(), expected_output(9, 4));
    }

    #[test]
    fn degraded_policy_repairs_injected_faults_to_identical_output() {
        let kernel = ToyKernel::new(12, 5);
        let faults = FaultPlan::none()
            .with(1, FaultKind::Panic)
            .with(4, FaultKind::CorruptOutput)
            .with(6, FaultKind::FailFirst(5)); // exceeds max_retries=1
        let outcome = Executor::new(3).execute(
            &WorkPlan::static_round_robin(12),
            &ExecPolicy::degraded(quick_cfg(3), Some((0.0, 1e6))),
            &kernel,
            &faults,
        );
        assert_eq!(outcome.quality.defective_units(), vec![1, 4, 6]);
        assert!(outcome.output_is_whole(), "{}", outcome.quality);
        assert_eq!(*kernel.out.lock().unwrap(), expected_output(12, 5));
    }

    #[test]
    fn degraded_policy_keeps_unrepairable_units_in_the_map() {
        let mut kernel = ToyKernel::new(6, 3);
        kernel.always_bad.push(2); // recomputation is NaN too
        let outcome = Executor::new(2).execute(
            &WorkPlan::dynamic(6),
            &ExecPolicy::degraded(quick_cfg(2), None),
            &kernel,
            &FaultPlan::none(),
        );
        assert_eq!(outcome.quality.unrepaired_units(), vec![2]);
        assert!(!outcome.output_is_whole());
    }

    #[test]
    fn supervised_policy_records_failures_without_scanning() {
        let kernel = ToyKernel::new(8, 2);
        // CorruptOutput poisons the committed buffer but supervised-only
        // execution does not scan, so the unit stays out of the map while
        // a panic fault is still recorded from the run report.
        let faults = FaultPlan::none()
            .with(3, FaultKind::CorruptOutput)
            .with(5, FaultKind::Panic);
        let cfg = SupervisorConfig {
            max_retries: 0,
            ..quick_cfg(2)
        };
        let outcome = Executor::new(2).execute(
            &WorkPlan::dynamic(8),
            &ExecPolicy::Supervised(cfg),
            &kernel,
            &faults,
        );
        assert_eq!(outcome.quality.defective_units(), vec![5]);
        assert_eq!(outcome.quality.unrepaired_units(), vec![5]);
        assert_eq!(outcome.report.completed, 7);
        assert_eq!(ExecPolicy::Plain.label(), "plain");
    }

    #[test]
    fn every_policy_deals_static_units_round_robin() {
        // Fault-free, unit `u` runs on thread `u % nthreads` under every
        // policy, as `Plain` does: the supervised policies deal the plan
        // exactly as `Executor::run` does.
        let (nunits, nthreads) = (30, 3);
        let cfg = SupervisorConfig {
            schedule: Schedule::StaticRoundRobin,
            ..quick_cfg(nthreads)
        };
        let policies = [
            ExecPolicy::Plain,
            ExecPolicy::Supervised(cfg.clone()),
            ExecPolicy::degraded(cfg.clone(), None),
            ExecPolicy::brownout(cfg, DeadlineBudget::none(), None),
        ];
        for policy in &policies {
            let kernel = ladder_toy(nunits, 2, 2);
            let outcome = Executor::new(nthreads).execute(
                &WorkPlan::static_round_robin(nunits),
                policy,
                &kernel,
                &FaultPlan::none(),
            );
            assert!(outcome.quality.entries().is_empty(), "{}", outcome.quality);
            let threads: Vec<_> = kernel.committed_on.lock().unwrap().clone();
            for (unit, thread) in threads.iter().enumerate() {
                assert_eq!(
                    *thread,
                    threads[unit % nthreads],
                    "{}: unit {unit}",
                    policy.label()
                );
            }
            let first: HashSet<_> = threads[..nthreads].iter().collect();
            assert_eq!(first.len(), nthreads, "{}: {first:?}", policy.label());
        }
    }

    #[test]
    fn timed_out_attempts_retry_in_place_on_the_dealt_threads() {
        // Units 1 and 4 stall far past the timeout on every attempt. Each
        // attempt is marked, its token fired and the stall released; the
        // worker retries in place, so no thread beyond the `nthreads`
        // dealt ones ever runs a unit.
        let nthreads = 2;
        let stall = FaultKind::Stall(Duration::from_secs(30));
        let faults = FaultPlan::none().with(1, stall).with(4, stall);
        let cfg = SupervisorConfig {
            nthreads,
            timeout: Some(Duration::from_millis(20)),
            max_retries: 1,
            watchdog_poll: Duration::from_millis(2),
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let calls = Mutex::new(Vec::new());
        let start = Instant::now();
        let report = Executor::new(nthreads).run_supervised(
            &WorkPlan::static_round_robin(8),
            &cfg,
            |tid, unit, token| {
                calls
                    .lock()
                    .unwrap()
                    .push((tid, unit, std::thread::current().id()));
                faults.fire_cancellable(unit, token)
            },
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "stalls were released"
        );
        let calls = calls.into_inner().unwrap();
        assert!(calls.iter().all(|&(tid, ..)| tid < nthreads), "{calls:?}");
        let threads: HashSet<_> = calls.iter().map(|c| c.2).collect();
        assert!(threads.len() <= nthreads, "{threads:?}");
        for unit in [1, 4] {
            let on: Vec<_> = calls.iter().filter(|c| c.1 == unit).collect();
            assert_eq!(on.len(), 2, "unit {unit}: {on:?}");
            assert!(on.iter().all(|c| c.0 == unit % nthreads), "{on:?}");
        }
        assert_eq!(report.completed, 6);
        assert_eq!(report.retried, 2);
        let failed: Vec<_> = report.failed.iter().map(|f| (f.item, f.attempts)).collect();
        assert_eq!(failed, [(1, 2), (4, 2)]);
        assert!(report
            .failed
            .iter()
            .all(|f| matches!(f.error, SfcError::Timeout { .. })));
    }

    fn ladder_toy(nunits: usize, unit_len: usize, depth: u8) -> ToyKernel {
        ToyKernel {
            depth,
            ..ToyKernel::new(nunits, unit_len)
        }
    }

    #[test]
    fn a_cancelled_run_computes_no_unit_under_any_repairing_policy() {
        // The run token fires before `execute`: every unit fails as
        // `Cancelled` without running, and the repair pass must not
        // recompute them for a run nobody waits for.
        let cancel = CancelToken::new();
        cancel.cancel();
        let cfg = SupervisorConfig {
            cancel,
            ..quick_cfg(2)
        };
        for policy in [
            ExecPolicy::degraded(cfg.clone(), None),
            ExecPolicy::brownout(cfg.clone(), DeadlineBudget::none(), None),
        ] {
            let kernel = ToyKernel::new(8, 3);
            let outcome = Executor::new(2).execute(
                &WorkPlan::dynamic(8),
                &policy,
                &kernel,
                &FaultPlan::none(),
            );
            let label = policy.label();
            assert_eq!(outcome.report.completed, 0, "{label}");
            let unrepaired: Vec<usize> = (0..8).collect();
            assert_eq!(outcome.quality.unrepaired_units(), unrepaired, "{label}");
            let committed = kernel.committed_on.lock().unwrap();
            assert!(
                committed.iter().all(Option::is_none),
                "{label}: a unit was computed"
            );
        }
    }

    #[test]
    fn brownout_without_pressure_matches_plain_bitwise() {
        let kernel = ladder_toy(10, 4, 3);
        let outcome = Executor::new(3).execute(
            &WorkPlan::dynamic(10),
            &ExecPolicy::brownout(quick_cfg(3), DeadlineBudget::none(), None),
            &kernel,
            &FaultPlan::none(),
        );
        assert!(outcome.quality.entries().is_empty(), "{}", outcome.quality);
        assert_eq!(outcome.report.completed, 10);
        assert_eq!(*kernel.out.lock().unwrap(), expected_output(10, 4));
    }

    #[test]
    fn brownout_sheds_past_budget_and_records_quality() {
        let kernel = ladder_toy(6, 3, 2);
        // A zero budget is exhausted before the first admission: every
        // unit is shed, then repaired at the deepest ladder rung.
        let outcome = Executor::new(2).execute(
            &WorkPlan::dynamic(6),
            &ExecPolicy::brownout(
                quick_cfg(2),
                DeadlineBudget::with_budget(Duration::ZERO),
                None,
            ),
            &kernel,
            &FaultPlan::none(),
        );
        assert!(outcome.output_is_whole(), "{}", outcome.quality);
        assert_eq!(
            outcome.quality.downgraded_units(),
            (0..6).collect::<Vec<_>>()
        );
        assert_eq!(outcome.quality.max_level(), 2);
        assert!(outcome
            .quality
            .entries()
            .iter()
            .all(|e| e.reason == Some(DowngradeReason::Shed)));
        let want: Vec<f32> = expected_output(6, 3).iter().map(|v| v + 2000.0).collect();
        assert_eq!(*kernel.out.lock().unwrap(), want);
    }

    #[test]
    fn brownout_breaker_admits_chronic_failures_degraded() {
        let kernel = ladder_toy(8, 2, 2);
        // Unit 3 fails its first two attempts; the breaker (threshold 2)
        // then admits attempt 3 straight at a degraded level instead of
        // retrying the full-quality computation.
        let faults = FaultPlan::none().with(3, FaultKind::FailFirst(2));
        let cfg = SupervisorConfig {
            max_retries: 3,
            ..quick_cfg(2)
        };
        let outcome = Executor::new(2).execute(
            &WorkPlan::dynamic(8),
            &ExecPolicy::brownout(cfg, DeadlineBudget::none(), None),
            &kernel,
            &faults,
        );
        assert!(
            outcome.quality.defective_units().is_empty(),
            "{}",
            outcome.quality
        );
        assert_eq!(outcome.quality.downgraded_units(), vec![3]);
        assert_eq!(outcome.quality.entries()[0].level, 1);
        assert_eq!(
            outcome.quality.entries()[0].reason,
            Some(DowngradeReason::Breaker)
        );
        // Everything but unit 3 is full quality; unit 3 carries the
        // level-1 offset.
        let mut want = expected_output(8, 2);
        for v in &mut want[6..8] {
            *v += 1000.0;
        }
        assert_eq!(*kernel.out.lock().unwrap(), want);
    }

    #[test]
    fn plain_kernel_under_brownout_policy_sheds_only() {
        // A kernel without a ladder (max_level 0) has no downgraded
        // levels, so even a blown budget yields full-quality repairs and
        // no downgraded unit.
        let kernel = ToyKernel::new(5, 2);
        let outcome = Executor::new(2).execute(
            &WorkPlan::dynamic(5),
            &ExecPolicy::brownout(
                quick_cfg(2),
                DeadlineBudget::with_budget(Duration::ZERO),
                None,
            ),
            &kernel,
            &FaultPlan::none(),
        );
        assert!(outcome.output_is_whole(), "{}", outcome.quality);
        assert!(outcome.quality.is_full_quality());
        assert_eq!(*kernel.out.lock().unwrap(), expected_output(5, 2));
        assert_eq!(
            ExecPolicy::brownout(quick_cfg(2), DeadlineBudget::none(), None).label(),
            "brownout"
        );
    }

    #[test]
    fn policies_pick_threads_schedule_and_ladder() {
        let dynamic = Schedule::Dynamic;
        let plain = ExecPolicy::Plain;
        assert_eq!(
            plain.threads_and_schedule(3, dynamic).unwrap(),
            (3, dynamic)
        );
        assert_eq!(plain.ladder_depth(4), 0);
        let cfg = SupervisorConfig {
            schedule: Schedule::StaticRoundRobin,
            ..quick_cfg(5)
        };
        let policies = [
            ExecPolicy::Supervised(cfg.clone()),
            ExecPolicy::degraded(cfg.clone(), None),
            ExecPolicy::brownout(cfg, DeadlineBudget::none(), None),
        ];
        for policy in &policies {
            assert_eq!(
                policy.threads_and_schedule(3, dynamic).unwrap(),
                (5, Schedule::StaticRoundRobin),
                "{}",
                policy.label()
            );
        }
        let depths: Vec<u8> = policies.iter().map(|p| p.ladder_depth(4)).collect();
        assert_eq!(depths, [0, 0, 4]);
        let err = ExecPolicy::degraded(quick_cfg(0), None)
            .threads_and_schedule(3, dynamic)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameter `nthreads`: the degraded policy needs at least one thread"
        );
    }

    #[test]
    fn lazy_counter_batches_and_resets() {
        static COUNTER: LazyCounter = LazyCounter::new("engine.test_events");
        COUNTER.reset();
        Executor::new(4).run(&WorkPlan::dynamic(100), |_tid, unit| {
            COUNTER.add(u64::from(unit % 3 == 0)); // 34 units
        });
        assert_eq!(COUNTER.value(), 34);
        COUNTER.add(0);
        assert_eq!(COUNTER.value(), 34);
        COUNTER.reset();
        assert_eq!(COUNTER.value(), 0);
    }
}
