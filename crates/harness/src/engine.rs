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
//! * an [`Executor`] — owns the **single** `std::thread::scope` worker
//!   loop in the workspace. Every parallel kernel path (the bilateral and
//!   raycast kernels under every policy, the per-voxel filter drivers, the
//!   cache-simulator core sweep) funnels through `scoped_workers`;
//! * a stack of [`ExecPolicy`] layers — [`ExecPolicy::Plain`] (run to
//!   completion, panics propagate), [`ExecPolicy::Supervised`] (panic
//!   isolation, watchdog timeouts with cooperative cancellation, bounded
//!   retry with exponential backoff), [`ExecPolicy::Degraded`]
//!   (supervised execution with buffered per-unit commit, a typed
//!   [`DefectMap`] over units, a post-run validation scan, and a
//!   single-threaded faults-off repair pass), and [`ExecPolicy::Brownout`]
//!   (the degraded pipeline under deadline-aware admission control: an
//!   EWMA/AIMD [`DeadlineController`](crate::deadline) adapts effective
//!   concurrency, a per-unit circuit breaker stops retrying chronically
//!   failing units at full quality, and kernels with a quality ladder
//!   ([`UnitKernel::max_level`] above 0) are asked for coarser — but
//!   valid — output under pressure, every downgrade recorded in a
//!   [`QualityMap`]).
//!
//! Kernels plug in through the [`UnitKernel`] trait (compute a unit at a
//! quality level into a buffer, commit it, read it back for validation),
//! write their output through [`DisjointSlots`], and batch their NaN
//! tallies through the [`UnitCounters`] sink trait (one shared-atomic
//! update per unit, not per voxel).

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sfc_core::{SfcError, SfcResult};

use crate::deadline::{Admission, DeadlineBudget, DeadlineController, DowngradeReason, QualityMap};
use crate::degrade::{scan_unit, DefectMap, DegradedOutcome};
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

    /// Initial claim order for a supervised queue. A dynamic plan offers
    /// `0..nunits`; a static plan offers the concatenated per-thread
    /// round-robin batches of [`Executor::run`], so the first claims
    /// reproduce the static split while retries can still rebalance.
    pub fn initial_order(&self, nthreads: usize) -> Vec<usize> {
        match self.schedule {
            Schedule::Dynamic => (0..self.nunits).collect(),
            Schedule::StaticRoundRobin => {
                let nthreads = nthreads.max(1);
                let mut order = Vec::with_capacity(self.nunits);
                for tid in 0..nthreads {
                    order.extend(items_for_thread(self.nunits, nthreads, tid));
                }
                order
            }
        }
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

/// Spawn `nthreads` workers running `worker(tid)` inside the workspace's
/// single `std::thread::scope`, plus an optional monitor thread (the
/// supervised watchdog). The monitor receives a `respawn` callback that
/// starts replacement workers inside the same scope — that is how a
/// wedged worker's capacity is restored without a second scope anywhere.
fn scoped_workers<W, M>(nthreads: usize, worker: &W, monitor: Option<M>)
where
    W: Fn(usize) + Sync,
    M: FnOnce(&dyn Fn(usize)) + Send,
{
    std::thread::scope(|s| {
        for tid in 0..nthreads {
            s.spawn(move || worker(tid));
        }
        if let Some(monitor) = monitor {
            s.spawn(move || {
                let respawn = |tid: usize| {
                    s.spawn(move || worker(tid));
                };
                monitor(&respawn);
            });
        }
    });
}

/// Placeholder monitor type for callers that do not supervise.
type NoMonitor = fn(&dyn Fn(usize));

// ---------------------------------------------------------------------------
// Poison-tolerant locking
// ---------------------------------------------------------------------------
//
// Every mutex in this module guards plain bookkeeping data (queues, defect
// logs, heartbeat slots) that is consistent at every point a panic can
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
            Schedule::StaticRoundRobin => scoped_workers(
                nthreads,
                &|tid| {
                    for unit in items_for_thread(n, nthreads, tid) {
                        worker(tid, unit);
                    }
                },
                None::<NoMonitor>,
            ),
            Schedule::Dynamic => {
                let next = AtomicUsize::new(0);
                let next = &next;
                scoped_workers(
                    nthreads,
                    &|tid| loop {
                        let unit = next.fetch_add(1, Ordering::Relaxed);
                        if unit >= n {
                            break;
                        }
                        worker(tid, unit);
                    },
                    None::<NoMonitor>,
                );
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
    /// `cfg.timeout` is set — a watchdog that expires overdue attempts,
    /// fires their cancel token, and respawns replacement workers. Returns
    /// a [`RunReport`]; never panics because of worker behaviour.
    ///
    /// The executor's thread count and the plan's schedule supersede the
    /// `nthreads`/`schedule` fields of `cfg`. A unit may be attempted more
    /// than once (on retry), but each *attempt's* outcome is accounted
    /// exactly once (per-unit epoch CAS), and each unit contributes exactly
    /// one unit to `completed + failed.len()`.
    ///
    /// A cooperative worker polls its per-attempt token
    /// (`token.bail(unit)?`) and abandons a wedged unit once the watchdog
    /// fires it, releasing its thread back to the pool; its `Cancelled`
    /// return is discarded because the watchdog already claimed the
    /// attempt's outcome as a [`SfcError::Timeout`].
    pub fn run_supervised<F>(&self, plan: &WorkPlan, cfg: &SupervisorConfig, worker: F) -> RunReport
    where
        F: Fn(usize, usize, &CancelToken) -> SfcResult<()> + Sync,
    {
        let start = Instant::now();
        let nitems = plan.nunits;
        if nitems == 0 {
            return RunReport::default();
        }

        let queue: VecDeque<Entry> = plan
            .initial_order(self.nthreads)
            .into_iter()
            .map(|item| Entry {
                item,
                attempt: 0,
                not_before: start,
            })
            .collect();
        let shared = Shared {
            worker: &worker,
            cfg: cfg.clone(),
            nitems,
            queue: Mutex::new(queue),
            cv: Condvar::new(),
            epoch: (0..nitems).map(|_| AtomicU32::new(0)).collect(),
            heartbeats: Mutex::new(Vec::new()),
            accounted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            retried: AtomicUsize::new(0),
            replacements: AtomicUsize::new(0),
            failures: Mutex::new(Vec::new()),
            done: AtomicBool::new(false),
            next_tid: AtomicUsize::new(self.nthreads),
        };

        {
            let sh = &shared;
            scoped_workers(
                self.nthreads,
                &|tid| sh.worker_loop(tid),
                cfg.timeout
                    .map(|limit| move |respawn: &dyn Fn(usize)| watchdog_loop(sh, respawn, limit)),
            );
        }

        let mut failed = unwrap_lock(shared.failures);
        failed.sort_by_key(|f| f.item);
        RunReport {
            completed: shared.completed.load(Ordering::Relaxed),
            failed,
            retried: shared.retried.load(Ordering::Relaxed),
            replacements: shared.replacements.load(Ordering::Relaxed),
            wall_time: start.elapsed(),
        }
    }

    /// Execute a [`UnitKernel`] under a policy stack. Every policy uses the
    /// kernel's buffered compute/commit cycle:
    ///
    /// * [`ExecPolicy::Plain`] — every unit computed at full quality and
    ///   committed, panics propagate, `faults` is ignored (fault injection
    ///   requires supervision); the outcome is a clean [`DefectMap`].
    /// * [`ExecPolicy::Supervised`] — supervised execution with buffered
    ///   commit; failed units become [`DefectMap`] entries, no validation
    ///   scan or repair.
    /// * [`ExecPolicy::Degraded`] — the full three-phase pipeline:
    ///   supervised execution, post-run validation scan (non-finite +
    ///   optional plausibility range over every committed unit), and a
    ///   single-threaded faults-off repair pass that re-computes each
    ///   defective unit and marks it repaired when its rescan is clean.
    /// * [`ExecPolicy::Brownout`] — the degraded pipeline under deadline
    ///   admission control; a kernel without a quality ladder
    ///   ([`UnitKernel::max_level`] 0) can only be shed past the budget to
    ///   the repair pass, never coarsened.
    pub fn execute<K: UnitKernel>(
        &self,
        plan: &WorkPlan,
        policy: &ExecPolicy,
        kernel: &K,
        faults: &FaultPlan,
    ) -> DegradedOutcome {
        let nunits = plan.nunits;
        let outcome = match policy {
            ExecPolicy::Plain => {
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
                DegradedOutcome::full_quality(report, DefectMap::new(kernel.unit_kind(), nunits))
            }
            ExecPolicy::Supervised(cfg) => {
                let report = self.supervised_commit_phase(plan, cfg, kernel, faults);
                let defects = DefectMap::from_run_report(kernel.unit_kind(), nunits, &report);
                DegradedOutcome::full_quality(report, defects)
            }
            ExecPolicy::Degraded(policy) => {
                let report = self.supervised_commit_phase(plan, &policy.supervisor, kernel, faults);
                let (defects, _) =
                    validate_and_repair(kernel, nunits, &report, policy.output_range, || 0);
                DegradedOutcome::full_quality(report, defects)
            }
            ExecPolicy::Brownout(policy) => self.run_brownout(plan, policy, kernel, faults),
        };
        record_outcome_metrics(&outcome);
        outcome
    }

    /// Phase 1 of the supervised/degraded pipelines: compute each unit
    /// into a local buffer under supervision, check the cancel token, then
    /// commit — an abandoned attempt never leaves a half-written unit.
    fn supervised_commit_phase<K: UnitKernel>(
        &self,
        plan: &WorkPlan,
        cfg: &SupervisorConfig,
        kernel: &K,
        faults: &FaultPlan,
    ) -> RunReport {
        let latency = unit_latency(kernel.unit_kind());
        self.run_supervised(plan, cfg, |_tid, unit, token| {
            faults.fire_cancellable(unit, token)?;
            let t0 = Instant::now();
            let mut buf = Vec::new();
            let done = kernel.compute(unit, 0, &mut buf, &mut || !token.is_cancelled());
            if !done {
                return Err(SfcError::Cancelled { item: unit });
            }
            token.bail(unit)?;
            if faults.corrupts(unit) {
                K::poison(&mut buf);
            }
            kernel.commit(unit, &buf);
            latency.record_duration_us(t0.elapsed());
            Ok(())
        })
    }

    /// The brownout pipeline: the degraded execute/validate/repair cycle
    /// with a [`DeadlineController`] deciding, per attempt, whether a unit
    /// runs at full quality, at a coarser ladder level, or is shed past
    /// the hard deadline straight to the repair pass.
    ///
    /// Control flow per attempt: the admission decision is taken *before*
    /// the AIMD concurrency slot is acquired, so once the budget is
    /// exhausted the remaining queue drains at memory speed instead of
    /// serializing through the gate. A cancelled attempt (watchdog fired
    /// its token) never commits — the token is checked after compute — so
    /// at most one attempt's bytes land per unit in practice; the
    /// [`QualityMap`] records levels in commit order (last write wins).
    ///
    /// With no budget and no failures every unit is admitted at level 0 —
    /// full quality, the level every other policy computes at — so a
    /// pressure-free brownout run equals a plain run byte for byte.
    fn run_brownout<K: UnitKernel>(
        &self,
        plan: &WorkPlan,
        policy: &BrownoutPolicy,
        kernel: &K,
        faults: &FaultPlan,
    ) -> DegradedOutcome {
        let nunits = plan.nunits;
        let ctl = DeadlineController::new(&policy.deadline, nunits, self.nthreads, kernel.max_level());
        let latency = unit_latency(kernel.unit_kind());
        let downgrades: Mutex<Vec<(usize, u8, DowngradeReason)>> = Mutex::new(Vec::new());

        let report = self.run_supervised(plan, &policy.supervisor, |_tid, unit, token| {
            let admission = ctl.admit(unit);
            let level = match admission {
                // Past the hard deadline: shed without burning an
                // admission slot or a fault roll. `Cancelled` is not
                // retryable, so the unit goes straight to the defect map
                // and is recomputed (coarsely) by the repair pass.
                Admission::Shed => return Err(SfcError::Cancelled { item: unit }),
                Admission::Full => 0,
                Admission::Degraded { level, .. } => level,
            };
            let attempt = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _slot = ctl.acquire(unit, token)?;
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
                    let mut log = lock(&downgrades);
                    log.push((unit, level, reason));
                }
                Ok(())
            }));
            match outcome {
                Ok(Ok(())) => {
                    let elapsed = attempt.elapsed();
                    latency.record_duration_us(elapsed);
                    ctl.on_success(elapsed);
                    Ok(())
                }
                Ok(Err(err)) => {
                    ctl.on_failed_attempt(unit, attempt.elapsed());
                    Err(err)
                }
                Err(payload) => {
                    // Feed the breaker/EWMA, then let the supervised
                    // worker loop account the panic as usual.
                    ctl.on_failed_attempt(unit, attempt.elapsed());
                    std::panic::resume_unwind(payload)
                }
            }
        });

        let mut quality = QualityMap::new(kernel.unit_kind(), nunits);
        for (unit, level, reason) in unwrap_lock(downgrades) {
            quality.record(unit, level, reason);
        }
        let (defects, repair_level) =
            validate_and_repair(kernel, nunits, &report, policy.output_range, || {
                ctl.repair_level()
            });
        for unit in defects.units() {
            quality.record(unit, repair_level, DowngradeReason::Shed); // level 0 clears
        }
        DegradedOutcome {
            report,
            defects,
            quality,
        }
    }
}

/// Phases 2 and 3 of the degraded and brownout pipelines.
///
/// Phase 2 turns the run's failures into typed defects and scans every
/// unit that committed (non-finite values, plus `output_range` when set);
/// failed units hold placeholder data and are already in the map.
///
/// Phase 3 recomputes each defective unit single-threaded with faults off
/// at the ladder level `repair_level` names — asked once, after the scan:
/// the brownout pipeline repairs at full quality while its budget holds
/// and at the deepest rung once it is exhausted, since recomputing shed
/// units at full quality would blow the very deadline that shed them. The
/// fresh buffer is committed and rescanned (not read back: the rescan
/// judges the recomputation itself). Returns the map and the repair level.
fn validate_and_repair<K: UnitKernel>(
    kernel: &K,
    nunits: usize,
    report: &RunReport,
    output_range: Option<(f32, f32)>,
    repair_level: impl FnOnce() -> u8,
) -> (DefectMap, u8) {
    let components = |values: &[K::Value], comps: &mut Vec<f32>| {
        comps.clear();
        for &v in values {
            K::components(v, &mut |c| comps.push(c));
        }
    };
    let mut defects = DefectMap::from_run_report(kernel.unit_kind(), nunits, report);
    let failed = defects.units();
    let mut values = Vec::new();
    let mut comps = Vec::new();
    for unit in 0..nunits {
        if failed.binary_search(&unit).is_ok() {
            continue;
        }
        values.clear();
        kernel.read_back(unit, &mut values);
        components(&values, &mut comps);
        scan_unit(&mut defects, unit, comps.iter().copied(), output_range);
    }

    let level = repair_level();
    for unit in defects.units() {
        kernel.compute(unit, level, &mut values, &mut || true);
        kernel.commit(unit, &values);
        components(&values, &mut comps);
        let mut rescan = DefectMap::new(kernel.unit_kind(), nunits);
        if scan_unit(&mut rescan, unit, comps.iter().copied(), output_range) {
            defects.merge(rescan); // genuinely bad data (e.g. NaN input)
        } else {
            defects.mark_repaired(unit);
        }
    }
    (defects, level)
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

/// Stackable execution-policy layers (see [`Executor::execute`]).
#[derive(Debug, Clone)]
pub enum ExecPolicy {
    /// Run to completion; worker panics propagate; no fault injection.
    Plain,
    /// Supervised execution: panic isolation, watchdog timeouts with
    /// cooperative cancellation, bounded retry with backoff.
    Supervised(SupervisorConfig),
    /// Supervised execution plus the validate/repair pipeline.
    Degraded(DegradedPolicy),
    /// The degraded pipeline under deadline-aware admission control: a
    /// wall-clock [`DeadlineBudget`], AIMD concurrency adaptation, a
    /// per-unit circuit breaker, and the kernel's quality ladder
    /// ([`UnitKernel::max_level`]). With no budget and no failures this is
    /// bitwise-identical to [`ExecPolicy::Plain`].
    Brownout(BrownoutPolicy),
}

impl ExecPolicy {
    /// The full graceful-degradation stack with an optional inclusive
    /// plausibility range for finite output components.
    pub fn degraded(supervisor: SupervisorConfig, output_range: Option<(f32, f32)>) -> Self {
        ExecPolicy::Degraded(DegradedPolicy {
            supervisor,
            output_range,
        })
    }

    /// The deadline-aware brownout stack.
    pub fn brownout(
        supervisor: SupervisorConfig,
        deadline: DeadlineBudget,
        output_range: Option<(f32, f32)>,
    ) -> Self {
        ExecPolicy::Brownout(BrownoutPolicy {
            supervisor,
            deadline,
            output_range,
        })
    }

    /// Human-readable policy name for logs and demo banners.
    pub fn label(&self) -> &'static str {
        match self {
            ExecPolicy::Plain => "plain",
            ExecPolicy::Supervised(_) => "supervised",
            ExecPolicy::Degraded(_) => "degraded",
            ExecPolicy::Brownout(_) => "brownout",
        }
    }
}

/// Configuration of the [`ExecPolicy::Degraded`] stack.
#[derive(Debug, Clone)]
pub struct DegradedPolicy {
    /// Supervision parameters for the execute phase.
    pub supervisor: SupervisorConfig,
    /// Optional inclusive plausibility interval the validation scan
    /// enforces on finite output components.
    pub output_range: Option<(f32, f32)>,
}

/// Configuration of the [`ExecPolicy::Brownout`] stack.
#[derive(Debug, Clone)]
pub struct BrownoutPolicy {
    /// Supervision parameters for the execute phase.
    pub supervisor: SupervisorConfig,
    /// Wall-clock budget and control-loop knobs.
    pub deadline: DeadlineBudget,
    /// Optional inclusive plausibility interval the validation scan
    /// enforces on finite output components.
    pub output_range: Option<(f32, f32)>,
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

    /// The unit noun used in defect maps ("pencil", "tile", …).
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
// Counters
// ---------------------------------------------------------------------------

/// A sink for per-unit event tallies (NaN substitutions, excluded voxels).
/// Kernels count locally while computing a unit and flush **once per
/// unit**, so the shared atomic is touched per pencil/tile, not per voxel.
pub trait UnitCounters: Sync {
    /// Add one unit's event count (no-op for zero).
    fn record_unit(&self, events: u64);
    /// Total events recorded since the last [`UnitCounters::reset`].
    fn total(&self) -> u64;
    /// Reset to zero (call before a measured run).
    fn reset(&self);
}

/// The standard process-wide [`UnitCounters`] sink: a named counter in
/// the [`metrics`] registry (registered lazily on first touch), so every
/// kernel event tally is visible on the one metrics plane. Recording
/// stays a single relaxed atomic add; const-constructible so crates keep
/// their counters in `static`s.
#[derive(Debug)]
pub struct EventCounter(LazyCounter);

impl EventCounter {
    /// A counter registered in the global metrics registry as `name`
    /// (stable dotted path, e.g. `filters.nan_events`).
    pub const fn new(name: &'static str) -> Self {
        Self(LazyCounter::new(name))
    }
}

impl UnitCounters for EventCounter {
    fn record_unit(&self, events: u64) {
        self.0.add(events);
    }

    fn total(&self) -> u64 {
        self.0.value()
    }

    fn reset(&self) {
        self.0.reset();
    }
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

/// Fold a finished run's report, defect map, and quality map into the
/// engine's registry counters. Called once per policy pipeline.
fn record_outcome_metrics(outcome: &DegradedOutcome) {
    UNITS_COMPLETED.add(outcome.report.completed as u64);
    UNITS_FAILED.add(outcome.report.failed.len() as u64);
    UNITS_RETRIED.add(outcome.report.retried as u64);
    DEFECTS.add(outcome.defects.len() as u64);
    let unrepaired = outcome.defects.unrepaired_units().len();
    UNITS_REPAIRED.add(outcome.defects.units().len().saturating_sub(unrepaired) as u64);
    UNITS_DOWNGRADED.add(outcome.quality.len() as u64);
}

// ---------------------------------------------------------------------------
// Supervised machinery (moved here from supervise.rs so the watchdog's
// replacement workers spawn inside the same single thread scope)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Entry {
    item: usize,
    attempt: u32,
    not_before: Instant,
}

/// Per-worker heartbeat: what the worker is running, since when, and the
/// cancel token the watchdog fires if the attempt overstays its deadline.
#[derive(Default)]
struct Heartbeat {
    current: Mutex<Option<(usize, u32, Instant, CancelToken)>>,
}

struct Shared<'a, F> {
    worker: &'a F,
    cfg: SupervisorConfig,
    nitems: usize,
    queue: Mutex<VecDeque<Entry>>,
    cv: Condvar,
    /// Per-item attempt epoch: an attempt's outcome (completion, error, or
    /// watchdog timeout) is claimed by CAS-ing `attempt -> attempt + 1`,
    /// so a wedged worker finishing late can never double-account.
    epoch: Vec<AtomicU32>,
    heartbeats: Mutex<Vec<Arc<Heartbeat>>>,
    accounted: AtomicUsize,
    completed: AtomicUsize,
    retried: AtomicUsize,
    replacements: AtomicUsize,
    failures: Mutex<Vec<ItemFailure>>,
    done: AtomicBool,
    next_tid: AtomicUsize,
}

impl<F> Shared<'_, F>
where
    F: Fn(usize, usize, &CancelToken) -> SfcResult<()> + Sync,
{
    fn next_entry(&self) -> Option<Entry> {
        let mut q = lock(&self.queue);
        loop {
            if self.done.load(Ordering::Acquire) {
                return None;
            }
            if self.cfg.cancel.is_cancelled() {
                // Run-scoped cancellation: ignore backoff holds so the
                // queue drains at memory speed (each entry is accounted
                // as `Cancelled` by the worker loop without running).
                return q.pop_front();
            }
            let now = Instant::now();
            if let Some(pos) = q.iter().position(|e| e.not_before <= now) {
                return q.remove(pos);
            }
            // Nothing ready: sleep until the earliest backoff expires, or a
            // bounded interval if the queue is empty (another worker may
            // still fail and requeue, or the run may finish).
            let wait = q
                .iter()
                .map(|e| e.not_before.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(20))
                .max(Duration::from_micros(100));
            q = self
                .cv
                .wait_timeout(q, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    fn account_one(&self) {
        let n = self.accounted.fetch_add(1, Ordering::AcqRel) + 1;
        if n == self.nitems {
            self.done.store(true, Ordering::Release);
            self.cv.notify_all();
        }
    }

    fn success(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.account_one();
    }

    fn failure(&self, entry: Entry, error: SfcError) {
        let attempts = entry.attempt + 1;
        if entry.attempt < self.cfg.max_retries && error.is_retryable() {
            self.retried.fetch_add(1, Ordering::Relaxed);
            let factor = 1u32 << entry.attempt.min(16);
            let delay = self.cfg.backoff_base.saturating_mul(factor);
            let mut q = lock(&self.queue);
            q.push_back(Entry {
                item: entry.item,
                attempt: attempts,
                not_before: Instant::now() + delay,
            });
            drop(q);
            self.cv.notify_all();
        } else {
            lock(&self.failures).push(ItemFailure {
                item: entry.item,
                attempts,
                error,
            });
            self.account_one();
        }
    }

    fn worker_loop(&self, tid: usize) {
        let hb = Arc::new(Heartbeat::default());
        lock(&self.heartbeats).push(hb.clone());
        while let Some(entry) = self.next_entry() {
            if self.cfg.cancel.is_cancelled() {
                // Claim the attempt (the watchdog may race us) and account
                // the unit as cancelled without running it.
                if self.epoch[entry.item]
                    .compare_exchange(
                        entry.attempt,
                        entry.attempt + 1,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    self.failure(entry, SfcError::Cancelled { item: entry.item });
                }
                continue;
            }
            let token = self.cfg.cancel.child();
            *lock(&hb.current) = Some((entry.item, entry.attempt, Instant::now(), token.clone()));
            let result =
                catch_unwind(AssertUnwindSafe(|| (self.worker)(tid, entry.item, &token)));
            *lock(&hb.current) = None;
            // Claim this attempt's outcome; if the watchdog already timed
            // it out, the late result is discarded.
            if self.epoch[entry.item]
                .compare_exchange(
                    entry.attempt,
                    entry.attempt + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                continue;
            }
            match result {
                Ok(Ok(())) => self.success(),
                Ok(Err(e)) => self.failure(entry, e),
                Err(payload) => self.failure(
                    entry,
                    SfcError::WorkerPanic {
                        item: entry.item,
                        payload: panic_payload_string(&payload),
                    },
                ),
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

fn watchdog_loop<F>(sh: &Shared<'_, F>, respawn: &dyn Fn(usize), limit: Duration)
where
    F: Fn(usize, usize, &CancelToken) -> SfcResult<()> + Sync,
{
    loop {
        {
            let q = lock(&sh.queue);
            if sh.done.load(Ordering::Acquire) {
                return;
            }
            // Waking on the queue condvar lets run completion end the
            // watchdog immediately instead of after one more poll.
            let _ = sh
                .cv
                .wait_timeout(q, sh.cfg.watchdog_poll)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if sh.done.load(Ordering::Acquire) {
            return;
        }
        let now = Instant::now();
        let slots: Vec<_> = lock(&sh.heartbeats).clone();
        for hb in slots {
            let current = lock(&hb.current).clone();
            let Some((item, attempt, started, token)) = current else {
                continue;
            };
            if now.saturating_duration_since(started) < limit {
                continue;
            }
            // Claim the overdue attempt; if the worker finished in the
            // meantime its own CAS won and this is a no-op.
            if sh.epoch[item]
                .compare_exchange(attempt, attempt + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            // Ask the wedged worker to abandon the unit; a cooperative
            // closure returns promptly and its thread rejoins the pool.
            token.cancel();
            sh.failure(
                Entry {
                    item,
                    attempt,
                    not_before: now,
                },
                SfcError::Timeout { item, limit },
            );
            // The wedged worker may never come back: restore pool capacity.
            sh.replacements.fetch_add(1, Ordering::Relaxed);
            let tid = sh.next_tid.fetch_add(1, Ordering::Relaxed);
            respawn(tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
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
    fn static_plan_order_matches_pool_split() {
        let plan = WorkPlan::static_round_robin(10);
        let order = plan.initial_order(3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(order[..4], [0, 3, 6, 9]);
        let concat: Vec<usize> = (0..3)
            .flat_map(|tid| items_for_thread(10, 3, tid))
            .collect();
        assert_eq!(order, concat);
        assert_eq!(WorkPlan::dynamic(5).initial_order(4), vec![0, 1, 2, 3, 4]);
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
    }

    impl ToyKernel {
        fn new(nunits: usize, unit_len: usize) -> Self {
            Self {
                out: Mutex::new(vec![0.0; nunits * unit_len]),
                unit_len,
                always_bad: Vec::new(),
                depth: 0,
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
        assert!(outcome.defects.is_clean());
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
        assert_eq!(outcome.defects.units(), vec![1, 4, 6]);
        assert!(outcome.output_is_whole(), "{}", outcome.defects);
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
        assert_eq!(outcome.defects.unrepaired_units(), vec![2]);
        assert!(!outcome.output_is_whole());
    }

    #[test]
    fn supervised_policy_records_failures_without_scanning() {
        let kernel = ToyKernel::new(8, 2);
        // CorruptOutput poisons the committed buffer but supervised-only
        // execution does not scan, so the defect map stays empty while a
        // panic fault is still recorded from the run report.
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
        assert_eq!(outcome.defects.units(), vec![5]);
        assert_eq!(outcome.report.completed, 7);
        assert_eq!(ExecPolicy::Plain.label(), "plain");
    }

    fn ladder_toy(nunits: usize, unit_len: usize, depth: u8) -> ToyKernel {
        ToyKernel {
            depth,
            ..ToyKernel::new(nunits, unit_len)
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
        assert!(outcome.defects.is_clean());
        assert!(outcome.quality.is_full_quality(), "{}", outcome.quality);
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
        assert!(outcome.output_is_whole(), "{}", outcome.defects);
        assert_eq!(outcome.quality.units(), (0..6).collect::<Vec<_>>());
        assert_eq!(outcome.quality.max_level(), 2);
        assert!(outcome
            .quality
            .entries()
            .iter()
            .all(|e| e.reason == DowngradeReason::Shed));
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
        assert!(outcome.defects.is_clean(), "{}", outcome.defects);
        assert_eq!(outcome.quality.units(), vec![3]);
        assert_eq!(outcome.quality.level_of(3), Some(1));
        assert_eq!(outcome.quality.entries()[0].reason, DowngradeReason::Breaker);
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
        // an empty quality map.
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
        assert!(outcome.output_is_whole(), "{}", outcome.defects);
        assert!(outcome.quality.is_full_quality());
        assert_eq!(*kernel.out.lock().unwrap(), expected_output(5, 2));
        assert_eq!(
            ExecPolicy::brownout(quick_cfg(2), DeadlineBudget::none(), None).label(),
            "brownout"
        );
    }

    #[test]
    fn event_counter_batches_and_resets() {
        static COUNTER: EventCounter = EventCounter::new("engine.test_events");
        COUNTER.reset();
        Executor::new(4).run(&WorkPlan::dynamic(100), |_tid, unit| {
            COUNTER.record_unit(u64::from(unit % 3 == 0)); // 34 units
        });
        assert_eq!(COUNTER.total(), 34);
        COUNTER.record_unit(0);
        assert_eq!(COUNTER.total(), 34);
        COUNTER.reset();
        assert_eq!(COUNTER.total(), 0);
    }
}
