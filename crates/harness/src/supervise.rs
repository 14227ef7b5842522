//! The supervised-execution vocabulary: [`CancelToken`],
//! [`SupervisorConfig`], [`ItemFailure`], and [`RunReport`].
//!
//! [`Executor::run`](crate::Executor::run) assumes every unit completes;
//! one panic tears down the whole experiment and one wedged unit hangs
//! it. Long unattended sweeps and a long-running service need the
//! opposite: a worker failure should cost *one unit*, be retried if
//! transient, and be reported in a structured way at the end.
//! [`Executor::run_supervised`](crate::Executor::run_supervised) provides
//! that on `run`'s own dealing, configured by the types in this module:
//!
//! * each attempt runs under [`std::panic::catch_unwind`], so a panicking
//!   worker closure is converted into a typed
//!   [`SfcError::WorkerPanic`] carrying the panic payload;
//! * a failed unit is retried in place, on the thread it was dealt to, up
//!   to [`SupervisorConfig::max_retries`] times with exponential backoff,
//!   then recorded in [`RunReport::failed`];
//! * a watchdog thread (armed by [`SupervisorConfig::timeout`]) marks an
//!   attempt that exceeds its per-unit wall-clock budget and fires the
//!   attempt's [`CancelToken`]; the worker records a marked attempt as
//!   [`SfcError::Timeout`].
//!
//! ## Timeout semantics
//!
//! Threads cannot be killed, so a timed-out attempt keeps its thread until
//! the worker closure returns on its own; only then does the thread record
//! the timeout and go on. The supervisor turns "slow" into a reported
//! failure; it cannot turn "infinite loop" into one — unless the worker
//! cooperates: the watchdog fires the attempt's token together with the
//! mark, so a cooperative worker notices (`token.is_cancelled()` /
//! `token.bail(item)?`) and abandons the wedged unit within one poll.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sfc_core::{SfcError, SfcResult};

use crate::engine::Schedule;

/// Cooperative cancellation flag for one supervised attempt.
///
/// The watchdog fires the token when it expires an attempt's deadline;
/// long-running worker closures should poll it at a convenient granularity
/// (per voxel row, per pixel, per chunk) and return early. The token is a
/// couple of relaxed atomic loads per poll — cheap enough for inner loops.
///
/// Tokens form a tree: [`CancelToken::child`] derives a token that also
/// observes its parent, so firing a *run*-scoped token (client disconnect,
/// shutdown drain) cancels every per-attempt token derived from it, while
/// firing one attempt's token leaves its siblings untouched.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<CancelInner>);

#[derive(Debug, Default)]
struct CancelInner {
    fired: AtomicBool,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh, unfired root token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that fires when either it or `self` is cancelled. Used for
    /// each attempt of a watched run, so the watchdog can fire one attempt
    /// while a run-scoped cancellation still reaches them all.
    pub fn child(&self) -> Self {
        Self(Arc::new(CancelInner {
            fired: AtomicBool::new(false),
            parent: Some(self.clone()),
        }))
    }

    /// Fire the token (idempotent). Does not fire the parent.
    pub fn cancel(&self) {
        self.0.fired.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called on this token or
    /// any of its ancestors.
    pub fn is_cancelled(&self) -> bool {
        if self.0.fired.load(Ordering::Acquire) {
            return true;
        }
        match &self.0.parent {
            Some(parent) => parent.is_cancelled(),
            None => false,
        }
    }

    /// Convenience for worker closures: `token.bail(item)?` returns
    /// [`SfcError::Cancelled`] once the token has fired.
    pub fn bail(&self, item: usize) -> SfcResult<()> {
        if self.is_cancelled() {
            Err(SfcError::Cancelled { item })
        } else {
            Ok(())
        }
    }

    /// Sleep up to `total`, waking early (and returning
    /// [`SfcError::Cancelled`]) if the token fires. Polls every 1 ms; used
    /// by the fault injector's stalls so a cancelled stall releases its
    /// thread promptly instead of sleeping out the full duration.
    pub fn sleep_cancellable(&self, item: usize, total: Duration) -> SfcResult<()> {
        let slice = Duration::from_millis(1);
        let deadline = Instant::now() + total;
        loop {
            self.bail(item)?;
            let now = Instant::now();
            if now >= deadline {
                return Ok(());
            }
            std::thread::sleep(slice.min(deadline - now));
        }
    }
}

/// Configuration of a supervised run.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker threads.
    pub nthreads: usize,
    /// How units are dealt to the worker threads, as for `Plain`:
    /// `StaticRoundRobin` gives thread `t` units `t, t + n, …`, `Dynamic`
    /// has the threads claim units from one shared cursor. A unit's
    /// retries run on the thread it was dealt to.
    pub schedule: Schedule,
    /// Per-item wall-clock budget. `None` disables the watchdog.
    pub timeout: Option<Duration>,
    /// Additional attempts allowed after a retryable failure (so an item
    /// is tried at most `max_retries + 1` times).
    pub max_retries: u32,
    /// Backoff before retry attempt `n` is `backoff_base * 2^(n-1)`.
    pub backoff_base: Duration,
    /// How often the watchdog looks for overdue attempts; only meaningful
    /// with a timeout.
    pub watchdog_poll: Duration,
    /// Run-scoped cancellation: firing this token abandons the *whole*
    /// run — units not yet attempted are accounted as
    /// [`SfcError::Cancelled`] without running, a backoff wait ends, and
    /// every in-flight attempt's token (this one, or a
    /// [`CancelToken::child`] of it under a watchdog) observes the
    /// cancellation and bails. This is how a service cancels an abandoned request (client
    /// disconnect, shutdown drain) without tearing down the executor.
    pub cancel: CancelToken,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            nthreads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            schedule: Schedule::Dynamic,
            timeout: None,
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            watchdog_poll: Duration::from_millis(2),
            cancel: CancelToken::new(),
        }
    }
}

/// One item that exhausted its retry budget (or failed terminally).
#[derive(Debug)]
pub struct ItemFailure {
    /// The item index that failed.
    pub item: usize,
    /// Attempts made (including the first).
    pub attempts: u32,
    /// The error from the last attempt.
    pub error: SfcError,
}

/// Outcome of a supervised run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Items that completed successfully.
    pub completed: usize,
    /// Items that exhausted their retry budget, sorted by item index.
    pub failed: Vec<ItemFailure>,
    /// Retry attempts that were made (across all items).
    pub retried: usize,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
}

impl RunReport {
    /// True if every item completed successfully.
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Executor, WorkPlan};
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// Run `worker` over `0..nitems` on the engine's supervised pool, with
    /// the thread count and schedule `cfg` names.
    fn supervised<F>(cfg: &SupervisorConfig, nitems: usize, worker: F) -> RunReport
    where
        F: Fn(usize, usize, &CancelToken) -> SfcResult<()> + Sync,
    {
        let plan = WorkPlan::new(nitems, cfg.schedule);
        Executor::new(cfg.nthreads).run_supervised(&plan, cfg, worker)
    }

    fn quick(nthreads: usize) -> SupervisorConfig {
        SupervisorConfig {
            nthreads,
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        }
    }

    #[test]
    fn clean_run_completes_every_item_once() {
        let n = 257;
        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let report = supervised(&quick(6), n, |_tid, item, _token| {
            counts[item].fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert_eq!(report.completed, n);
        assert!(report.all_ok());
        assert_eq!(report.retried, 0);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_items_is_a_no_op() {
        let report = supervised(&quick(4), 0, |_, _, _| panic!("no items"));
        assert_eq!(report.completed, 0);
        assert!(report.all_ok());
    }

    #[test]
    fn panicking_item_is_isolated_and_reported() {
        let cfg = SupervisorConfig {
            max_retries: 0,
            ..quick(4)
        };
        let report = supervised(&cfg, 50, |_tid, item, _token| {
            if item == 17 {
                panic!("injected panic on {item}");
            }
            Ok(())
        });
        assert_eq!(report.completed, 49);
        assert_eq!(report.failed.len(), 1);
        let f = &report.failed[0];
        assert_eq!(f.item, 17);
        assert_eq!(f.attempts, 1);
        assert!(
            matches!(&f.error, SfcError::WorkerPanic { payload, .. } if payload.contains("injected panic on 17")),
            "{:?}",
            f.error
        );
    }

    #[test]
    fn transient_failure_is_retried_to_success() {
        let n = 20;
        let tries: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let report = supervised(&quick(4), n, |_tid, item, _token| {
            let t = tries[item].fetch_add(1, Ordering::Relaxed);
            if item % 5 == 0 && t == 0 {
                panic!("flaky first attempt");
            }
            Ok(())
        });
        assert_eq!(report.completed, n);
        assert!(report.all_ok());
        assert_eq!(report.retried, 4); // items 0, 5, 10, 15
    }

    #[test]
    fn retry_budget_is_bounded() {
        let attempts = AtomicU64::new(0);
        let cfg = SupervisorConfig {
            max_retries: 3,
            ..quick(2)
        };
        let report = supervised(&cfg, 1, |_tid, _item, _token| {
            attempts.fetch_add(1, Ordering::Relaxed);
            Err(SfcError::WorkerPanic {
                item: 0,
                payload: "always fails".into(),
            })
        });
        assert_eq!(attempts.load(Ordering::Relaxed), 4); // 1 + 3 retries
        assert_eq!(report.retried, 3);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].attempts, 4);
    }

    #[test]
    fn non_retryable_error_fails_immediately() {
        let attempts = AtomicU64::new(0);
        let report = supervised(&quick(2), 1, |_tid, item, _token| {
            attempts.fetch_add(1, Ordering::Relaxed);
            Err(SfcError::InvalidParameter {
                name: "x",
                reason: format!("bad item {item}"),
            })
        });
        assert_eq!(attempts.load(Ordering::Relaxed), 1);
        assert_eq!(report.retried, 0);
        assert_eq!(report.failed.len(), 1);
    }

    #[test]
    fn hung_item_trips_watchdog_without_deadlocking_the_run() {
        let cfg = SupervisorConfig {
            nthreads: 3,
            timeout: Some(Duration::from_millis(30)),
            max_retries: 0,
            watchdog_poll: Duration::from_millis(2),
            ..quick(3)
        };
        let report = supervised(&cfg, 40, |_tid, item, _token| {
            if item == 7 {
                // Finite sleep: long enough to trip the watchdog, short
                // enough that the scope can still join the wedged thread.
                std::thread::sleep(Duration::from_millis(300));
            }
            Ok(())
        });
        assert_eq!(report.completed, 39);
        assert_eq!(report.failed.len(), 1);
        assert!(matches!(report.failed[0].error, SfcError::Timeout { item: 7, .. }));
    }

    #[test]
    fn static_order_covers_all_items() {
        let cfg = SupervisorConfig {
            schedule: Schedule::StaticRoundRobin,
            ..quick(3)
        };
        let report = supervised(&cfg, 100, |_, _, _| Ok(()));
        assert_eq!(report.completed, 100);
    }

    #[test]
    fn attempt_count_is_bounded_for_every_max_retries() {
        for max_retries in [0u32, 1, 2, 5] {
            let attempts = AtomicU64::new(0);
            let cfg = SupervisorConfig {
                max_retries,
                ..quick(3)
            };
            let report = supervised(&cfg, 1, |_tid, item, _token| {
                attempts.fetch_add(1, Ordering::Relaxed);
                Err(SfcError::WorkerPanic {
                    item,
                    payload: "always fails".into(),
                })
            });
            assert_eq!(
                attempts.load(Ordering::Relaxed),
                u64::from(max_retries) + 1,
                "exactly max_retries + 1 attempts for max_retries={max_retries}"
            );
            assert_eq!(report.failed[0].attempts, max_retries + 1);
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_exponential() {
        // Attempt n is delayed by backoff_base * 2^(n-1); record the
        // timestamps of each attempt and check the lower bounds (upper
        // bounds would race the scheduler). Single item, single thread:
        // the schedule is fully deterministic.
        let base = Duration::from_millis(8);
        let cfg = SupervisorConfig {
            nthreads: 1,
            max_retries: 3,
            backoff_base: base,
            ..Default::default()
        };
        let stamps: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
        let report = supervised(&cfg, 1, |_tid, item, _token| {
            stamps.lock().unwrap().push(Instant::now());
            Err(SfcError::WorkerPanic {
                item,
                payload: "flaky".into(),
            })
        });
        assert_eq!(report.retried, 3);
        let stamps = stamps.into_inner().unwrap();
        assert_eq!(stamps.len(), 4);
        for n in 1..stamps.len() {
            let gap = stamps[n] - stamps[n - 1];
            let want = base * (1 << (n - 1));
            assert!(
                gap >= want,
                "attempt {n} fired after {gap:?}, backoff schedule requires >= {want:?}"
            );
        }
    }

    #[test]
    fn watchdog_expired_item_is_reported_within_its_retry_budget() {
        // A perpetually-stalling item must end in the failure report after
        // at most max_retries + 1 timed-out attempts — reported, never
        // retried forever. No should_panic: the run returns normally.
        let attempts = AtomicU64::new(0);
        let cfg = SupervisorConfig {
            nthreads: 2,
            timeout: Some(Duration::from_millis(20)),
            max_retries: 1,
            watchdog_poll: Duration::from_millis(2),
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        };
        let report = supervised(&cfg, 6, |_tid, item, token| {
            if item == 2 {
                attempts.fetch_add(1, Ordering::Relaxed);
                // Stall "forever" (bounded only by the cancel token).
                token.sleep_cancellable(item, Duration::from_secs(10))?;
            }
            Ok(())
        });
        assert_eq!(report.completed, 5);
        assert_eq!(report.failed.len(), 1);
        let f = &report.failed[0];
        assert_eq!(f.item, 2);
        assert!(matches!(f.error, SfcError::Timeout { item: 2, .. }), "{:?}", f.error);
        assert_eq!(f.attempts, 2, "one original attempt + one retry, then reported");
        let tried = attempts.load(Ordering::Relaxed);
        assert!(tried <= 2, "watchdog-expired item must not retry forever ({tried} attempts)");
    }

    #[test]
    fn cancel_token_releases_a_cooperative_worker() {
        // The watchdog fires the token at the deadline; the worker notices
        // and returns, so its thread goes on to its other units and the
        // run finishes fast.
        let observed = AtomicBool::new(false);
        let cfg = SupervisorConfig {
            nthreads: 2,
            timeout: Some(Duration::from_millis(15)),
            max_retries: 0,
            watchdog_poll: Duration::from_millis(1),
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        };
        let start = Instant::now();
        let report = supervised(&cfg, 8, |_tid, item, token| {
            if item == 3 {
                let r = token.sleep_cancellable(item, Duration::from_secs(30));
                if r.is_err() {
                    observed.store(true, Ordering::Release);
                }
                r?;
            }
            Ok(())
        });
        assert!(start.elapsed() < Duration::from_secs(5), "cancel must unwedge the run");
        assert!(observed.load(Ordering::Acquire), "worker must observe its token");
        assert_eq!(report.completed, 7);
        assert!(matches!(report.failed[0].error, SfcError::Timeout { item: 3, .. }));
    }

    #[test]
    fn late_cancelled_return_is_not_double_accounted() {
        // The watchdog marks the attempt; the worker's Cancelled return
        // is recorded as the Timeout, so the item contributes exactly one
        // unit to completed + failed.
        let cfg = SupervisorConfig {
            nthreads: 2,
            timeout: Some(Duration::from_millis(10)),
            max_retries: 0,
            watchdog_poll: Duration::from_millis(1),
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        };
        let report = supervised(&cfg, 4, |_tid, item, token| {
            if item == 1 {
                token.sleep_cancellable(item, Duration::from_millis(200))?;
            }
            Ok(())
        });
        assert_eq!(report.completed + report.failed.len(), 4);
        assert_eq!(report.failed.len(), 1);
        assert!(matches!(
            report.failed[0].error,
            SfcError::Timeout { item: 1, .. }
        ));
    }
}
