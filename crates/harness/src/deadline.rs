//! Deadline-aware admission control for the brownout stage of the
//! supervised pipeline.
//!
//! Supervision and the validate/repair phase keep a run *correct* under
//! faults, but nothing bounds its *wall-clock* behaviour: a timeout storm
//! or an oversubscribed machine makes a sweep run arbitrarily long at
//! full quality. This module provides the control-plane vocabulary for
//! [`ExecPolicy::Brownout`](crate::ExecPolicy::Brownout), which trades
//! per-unit output quality for latency instead:
//!
//! * a [`DeadlineBudget`] — an optional wall-clock budget for the whole
//!   run; the EWMA smoothing and the circuit-breaker threshold are
//!   constants;
//! * a `DeadlineController` — the runtime state: an online EWMA of unit
//!   latency (observed over successes *and* failed attempts, so a stall
//!   storm raises it) that projects the work left over the run's threads
//!   against the budget, a per-unit failed-attempt counter (the circuit
//!   breaker), and the admission decision combining them;
//! * a [`DowngradeReason`] — why a unit was computed below full quality,
//!   as the run's [`QualityMap`](crate::QualityMap) records it beside the
//!   unit's ladder level.
//!
//! The invariant the engine builds on: with no budget and no failures the
//! controller admits every unit at level 0 (full quality), so a brownout
//! run is bitwise-identical to a plain one.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::metrics::{LazyCounter, LazyGauge};

// Process-wide mirrors of the per-run controller state, on the metrics
// plane: every controller folds its events into these as they happen
// (one relaxed atomic each), so brownout decisions are observable
// across runs, not only in per-run quality maps.
static SHED_TOTAL: LazyCounter = LazyCounter::new("deadline.shed");
static DOWNGRADES_TOTAL: LazyCounter = LazyCounter::new("deadline.downgrades");
static BREAKER_TOTAL: LazyCounter = LazyCounter::new("deadline.breaker_trips");
static EWMA_GAUGE: LazyGauge = LazyGauge::new("deadline.ewma_us");

/// Smoothing factor of the online unit-latency EWMA, in `(0, 1]`
/// (higher = reacts faster to a latency shift).
const EWMA_ALPHA: f64 = 0.2;
/// Failed attempts after which a unit's circuit breaker trips: further
/// attempts are admitted straight at degraded quality instead of retrying
/// the full-quality computation.
const BREAKER_THRESHOLD: u32 = 2;

/// Wall-clock budget of a brownout run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeadlineBudget {
    /// Wall-clock budget for the whole run. `None` disables deadline
    /// pressure and shedding — only the circuit breaker can then downgrade
    /// a unit (and only after failed attempts).
    pub budget: Option<Duration>,
}

impl DeadlineBudget {
    /// No deadline pressure: admit everything at full quality unless the
    /// circuit breaker trips.
    pub fn none() -> Self {
        Self::default()
    }

    /// The control loop under a wall-clock budget.
    pub fn with_budget(budget: Duration) -> Self {
        Self {
            budget: Some(budget),
        }
    }
}

/// Why a unit was computed below full quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DowngradeReason {
    /// Deadline pressure: the projected completion of the remaining units
    /// (EWMA × remaining / thread count) exceeded the remaining
    /// budget, so healthy units were coarsened to catch up.
    Pressure,
    /// The unit's circuit breaker tripped after repeated failed attempts;
    /// it was admitted straight at degraded quality instead of retried at
    /// full quality.
    Breaker,
    /// The unit's attempt came after the hard deadline and was shed
    /// without computing; the repair pass recomputed it at the deepest
    /// ladder level.
    Shed,
}

impl fmt::Display for DowngradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DowngradeReason::Pressure => write!(f, "pressure"),
            DowngradeReason::Breaker => write!(f, "breaker"),
            DowngradeReason::Shed => write!(f, "shed"),
        }
    }
}

/// What the controller decided for a unit about to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Compute at full quality.
    Full,
    /// Compute at ladder level `level` (recorded with `reason`).
    Degraded {
        /// Ladder level to compute at.
        level: u8,
        /// What forced the downgrade.
        reason: DowngradeReason,
    },
    /// Past the hard deadline: do not compute; the unit is shed to the
    /// degraded-quality repair pass.
    Shed,
}

/// Runtime state of one brownout run's deadline control loop. Shared by
/// every worker thread; all state is atomic.
#[derive(Debug)]
pub(crate) struct DeadlineController {
    cfg: DeadlineBudget,
    start: Instant,
    nunits: usize,
    nthreads: usize,
    max_level: u8,
    /// f64 bits of the latency EWMA in microseconds; `u64::MAX` = unset.
    ewma_us: AtomicU64,
    /// Units successfully committed so far.
    committed: AtomicUsize,
    /// Per-unit failed-attempt counts (the circuit breaker's memory).
    failures: Vec<AtomicU32>,
}

const EWMA_UNSET: u64 = u64::MAX;

impl DeadlineController {
    pub(crate) fn new(
        cfg: &DeadlineBudget,
        nunits: usize,
        nthreads: usize,
        max_level: u8,
    ) -> Self {
        Self {
            cfg: *cfg,
            start: Instant::now(),
            nunits,
            nthreads: nthreads.max(1),
            max_level,
            ewma_us: AtomicU64::new(EWMA_UNSET),
            committed: AtomicUsize::new(0),
            failures: (0..nunits).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// The current latency EWMA in microseconds, if any unit has finished.
    fn ewma(&self) -> Option<f64> {
        match self.ewma_us.load(Ordering::Relaxed) {
            EWMA_UNSET => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Fold one observed attempt latency into the EWMA (lock-free CAS).
    fn observe(&self, elapsed: Duration) {
        let sample = elapsed.as_secs_f64() * 1e6;
        let mut cur = self.ewma_us.load(Ordering::Relaxed);
        loop {
            let next = if cur == EWMA_UNSET {
                sample
            } else {
                let prev = f64::from_bits(cur);
                prev + EWMA_ALPHA * (sample - prev)
            };
            match self.ewma_us.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    EWMA_GAUGE.set(next as i64);
                    return;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Ladder level demanded by deadline pressure alone: 0 while the
    /// projected completion of the remaining units on the run's threads
    /// fits the remaining budget, then one level per doubling of the
    /// overshoot ratio.
    fn pressure_level(&self) -> u8 {
        let Some(budget) = self.cfg.budget else {
            return 0;
        };
        let Some(ewma_us) = self.ewma() else {
            return 0; // nothing observed yet: no basis for pressure
        };
        let remaining = budget.saturating_sub(self.start.elapsed());
        if remaining.is_zero() {
            return self.max_level;
        }
        let remaining_units = self
            .nunits
            .saturating_sub(self.committed.load(Ordering::Relaxed))
            .max(1);
        let projected_us = ewma_us * remaining_units as f64 / self.nthreads as f64;
        let ratio = projected_us / (remaining.as_secs_f64() * 1e6);
        if ratio <= 1.0 {
            0
        } else {
            // ratio in (1,2] → 1 rung, (2,4] → 2, … capped at the ladder.
            (ratio.log2().ceil() as u64).min(u64::from(self.max_level)) as u8
        }
    }

    /// Decide what to do with `unit` before an attempt runs.
    pub(crate) fn admit(&self, unit: usize) -> Admission {
        if let Some(budget) = self.cfg.budget {
            if self.start.elapsed() >= budget {
                SHED_TOTAL.add(1);
                return Admission::Shed;
            }
        }
        let tripped =
            self.max_level > 0 && self.failures[unit].load(Ordering::Relaxed) >= BREAKER_THRESHOLD;
        let pressure = self.pressure_level();
        let level = if tripped { pressure.max(1) } else { pressure };
        let level = level.min(self.max_level);
        if level == 0 {
            Admission::Full
        } else {
            DOWNGRADES_TOTAL.add(1);
            if tripped {
                BREAKER_TOTAL.add(1);
            }
            Admission::Degraded {
                level,
                reason: if tripped {
                    DowngradeReason::Breaker
                } else {
                    DowngradeReason::Pressure
                },
            }
        }
    }

    /// Account a successful commit: fold the latency into the EWMA and
    /// bump the completion count.
    pub(crate) fn on_success(&self, elapsed: Duration) {
        self.observe(elapsed);
        self.committed.fetch_add(1, Ordering::Relaxed);
    }

    /// Account a failed attempt (error, panic, timeout): feed the circuit
    /// breaker and fold the burnt wall-clock into the EWMA, so storms
    /// raise it.
    pub(crate) fn on_failed_attempt(&self, unit: usize, elapsed: Duration) {
        self.failures[unit].fetch_add(1, Ordering::Relaxed);
        self.observe(elapsed);
    }

    /// Ladder level for the faults-off repair pass: full quality while the
    /// budget (if any) has wall-clock left, the deepest rung once it is
    /// exhausted — repairing shed units at full quality would blow the
    /// very deadline that shed them.
    pub(crate) fn repair_level(&self) -> u8 {
        match self.cfg.budget {
            Some(budget) if self.start.elapsed() >= budget => self.max_level,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_and_no_failures_admits_full_quality() {
        let ctl = DeadlineController::new(&DeadlineBudget::none(), 100, 4, 3);
        for unit in 0..100 {
            assert_eq!(ctl.admit(unit), Admission::Full);
        }
        // Even with latency observed, no budget means no pressure.
        ctl.on_success(Duration::from_millis(50));
        assert_eq!(ctl.admit(0), Admission::Full);
    }

    #[test]
    fn breaker_trips_after_threshold_failures() {
        let ctl = DeadlineController::new(&DeadlineBudget::none(), 10, 2, 3);
        assert_eq!(ctl.admit(7), Admission::Full);
        ctl.on_failed_attempt(7, Duration::from_millis(1));
        assert_eq!(ctl.admit(7), Admission::Full); // 1 < threshold
        ctl.on_failed_attempt(7, Duration::from_millis(1));
        assert_eq!(
            ctl.admit(7),
            Admission::Degraded {
                level: 1,
                reason: DowngradeReason::Breaker
            }
        );
        // Other units are unaffected.
        assert_eq!(ctl.admit(8), Admission::Full);
    }

    #[test]
    fn breaker_is_inert_without_a_ladder() {
        let ctl = DeadlineController::new(&DeadlineBudget::none(), 4, 2, 0);
        ctl.on_failed_attempt(1, Duration::from_millis(1));
        ctl.on_failed_attempt(1, Duration::from_millis(1));
        ctl.on_failed_attempt(1, Duration::from_millis(1));
        assert_eq!(ctl.admit(1), Admission::Full);
    }

    #[test]
    fn exhausted_budget_sheds() {
        let cfg = DeadlineBudget::with_budget(Duration::from_millis(1));
        let ctl = DeadlineController::new(&cfg, 10, 2, 3);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(ctl.admit(0), Admission::Shed);
        assert_eq!(ctl.repair_level(), 3);
    }

    #[test]
    fn projected_overrun_applies_pressure() {
        let cfg = DeadlineBudget::with_budget(Duration::from_secs(1));
        let ctl = DeadlineController::new(&cfg, 1000, 1, 3);
        // EWMA ~50 ms per unit, ~1000 units remaining on one slot:
        // projected ≈ 50 s against a 1 s budget → deepest rung.
        ctl.on_success(Duration::from_millis(50));
        match ctl.admit(1) {
            Admission::Degraded {
                level,
                reason: DowngradeReason::Pressure,
            } => assert!(level >= 1),
            other => panic!("expected pressure downgrade, got {other:?}"),
        }
    }

    #[test]
    fn repair_level_is_full_quality_inside_the_budget() {
        let ctl = DeadlineController::new(&DeadlineBudget::none(), 4, 1, 3);
        assert_eq!(ctl.repair_level(), 0);
        let cfg = DeadlineBudget::with_budget(Duration::from_secs(3600));
        let ctl = DeadlineController::new(&cfg, 4, 1, 3);
        assert_eq!(ctl.repair_level(), 0);
    }
}
