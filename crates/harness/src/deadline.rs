//! Deadline-aware admission control and the brownout quality record.
//!
//! The supervised/degraded layers (PR 3–4) keep a run *correct* under
//! faults, but nothing bounds its *wall-clock* behaviour: a timeout storm
//! or an oversubscribed machine makes a sweep run arbitrarily long at
//! full quality. This module provides the control-plane vocabulary for
//! [`ExecPolicy::Brownout`](crate::ExecPolicy::Brownout), which trades
//! per-unit output quality for latency instead:
//!
//! * a [`DeadlineBudget`] — an optional wall-clock budget for the whole
//!   run plus the knobs of the per-unit control loop (EWMA smoothing,
//!   soft-deadline headroom, circuit-breaker threshold, AIMD floor);
//! * a `DeadlineController` — the runtime state: an online EWMA of unit
//!   latency (observed over successes *and* failed attempts, so a stall
//!   storm raises it), an AIMD limit on effective concurrency (additive
//!   +1 per on-time unit, halved when a unit overruns its soft deadline
//!   `EWMA × headroom`), a per-unit failed-attempt counter (the circuit
//!   breaker), and the admission decision combining them;
//! * a [`QualityMap`] — the mirror of
//!   [`DefectMap`](crate::degrade::DefectMap) for *quality*: every unit
//!   that was computed below full quality is recorded with its ladder
//!   level and a [`DowngradeReason`], so callers can see exactly what the
//!   deadline bought and what it cost.
//!
//! The invariant the engine builds on: with no budget and no failures the
//! controller admits every unit at level 0 (full quality), so a brownout
//! run is bitwise-identical to a plain one.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sfc_core::{SfcError, SfcResult};

use crate::metrics::{LazyCounter, LazyGauge};
use crate::supervise::CancelToken;

// Process-wide mirrors of the per-run controller state, on the metrics
// plane: every controller folds its events into these as they happen
// (one relaxed atomic each), so brownout decisions are observable
// across runs, not only in per-run QualityMaps.
static SHED_TOTAL: LazyCounter = LazyCounter::new("deadline.shed");
static DOWNGRADES_TOTAL: LazyCounter = LazyCounter::new("deadline.downgrades");
static BREAKER_TOTAL: LazyCounter = LazyCounter::new("deadline.breaker_trips");
static OVERRUNS_TOTAL: LazyCounter = LazyCounter::new("deadline.overruns");
static EWMA_GAUGE: LazyGauge = LazyGauge::new("deadline.ewma_us");
static WINDOW_GAUGE: LazyGauge = LazyGauge::new("deadline.window");

/// Wall-clock budget and control-loop knobs for a brownout run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineBudget {
    /// Wall-clock budget for the whole run. `None` disables deadline
    /// pressure and shedding — only the circuit breaker can then downgrade
    /// a unit (and only after failed attempts).
    pub budget: Option<Duration>,
    /// Smoothing factor of the online unit-latency EWMA, in `(0, 1]`
    /// (higher = reacts faster to a latency shift).
    pub ewma_alpha: f64,
    /// A unit's *soft deadline* is `EWMA × soft_deadline_factor`; an
    /// attempt that takes longer counts as an overrun and halves the AIMD
    /// concurrency limit.
    pub soft_deadline_factor: f64,
    /// Failed attempts after which a unit's circuit breaker trips: further
    /// attempts are admitted straight at degraded quality instead of
    /// retrying the full-quality computation.
    pub breaker_threshold: u32,
    /// Floor of the AIMD effective-concurrency limit.
    pub min_concurrency: usize,
}

impl Default for DeadlineBudget {
    fn default() -> Self {
        Self {
            budget: None,
            ewma_alpha: 0.2,
            soft_deadline_factor: 4.0,
            breaker_threshold: 2,
            min_concurrency: 1,
        }
    }
}

impl DeadlineBudget {
    /// No deadline pressure: admit everything at full quality unless the
    /// circuit breaker trips.
    pub fn none() -> Self {
        Self::default()
    }

    /// The default control loop under a wall-clock budget.
    pub fn with_budget(budget: Duration) -> Self {
        Self {
            budget: Some(budget),
            ..Self::default()
        }
    }
}

/// Why a unit was computed below full quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DowngradeReason {
    /// Deadline pressure: the projected completion of the remaining units
    /// (EWMA × remaining / effective concurrency) exceeded the remaining
    /// budget, so healthy units were coarsened to catch up.
    Pressure,
    /// The unit's circuit breaker tripped after repeated failed attempts;
    /// it was admitted straight at degraded quality instead of retried at
    /// full quality.
    Breaker,
    /// The unit arrived after the hard deadline and was shed from the
    /// admission queue; the repair pass recomputed it at the deepest
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

/// One unit computed below full quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QualityEntry {
    /// Unit index (pencil id, tile id, …).
    pub unit: usize,
    /// Ladder level the committed output was computed at (1 = one rung
    /// below full quality; 0 never appears in the map).
    pub level: u8,
    /// What forced the downgrade.
    pub reason: DowngradeReason,
}

/// A typed record of quality downgrades for one brownout run — the
/// quality-plane mirror of [`DefectMap`](crate::degrade::DefectMap):
/// where a defect map says which units are *untrustworthy*, a quality map
/// says which units are *valid but coarser than asked for*. At most one
/// entry per unit (the level of the committed output), sorted by unit.
#[derive(Debug, Clone, Default)]
pub struct QualityMap {
    unit_kind: &'static str,
    nunits: usize,
    entries: Vec<QualityEntry>,
}

impl QualityMap {
    /// An all-full-quality map over `nunits` units of `unit_kind`.
    pub fn new(unit_kind: &'static str, nunits: usize) -> Self {
        Self {
            unit_kind,
            nunits,
            entries: Vec::new(),
        }
    }

    /// Record that `unit`'s committed output was computed at `level`.
    /// Level 0 clears the entry instead (the unit is back at full
    /// quality, e.g. after a full-quality repair); re-recording a unit
    /// replaces its previous entry — the map describes the *final* bytes.
    pub fn record(&mut self, unit: usize, level: u8, reason: DowngradeReason) {
        if level == 0 {
            self.clear(unit);
            return;
        }
        match self.entries.binary_search_by_key(&unit, |e| e.unit) {
            Ok(at) => self.entries[at] = QualityEntry { unit, level, reason },
            Err(at) => self.entries.insert(at, QualityEntry { unit, level, reason }),
        }
    }

    /// Remove `unit`'s entry (its final output is full quality).
    pub fn clear(&mut self, unit: usize) {
        if let Ok(at) = self.entries.binary_search_by_key(&unit, |e| e.unit) {
            self.entries.remove(at);
        }
    }

    /// True when every unit was computed at full quality.
    pub fn is_full_quality(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of downgraded units.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no unit was downgraded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of units in the run.
    pub fn nunits(&self) -> usize {
        self.nunits
    }

    /// What a unit is ("pencil", "tile").
    pub fn unit_kind(&self) -> &'static str {
        self.unit_kind
    }

    /// The downgraded unit indices, sorted ascending.
    pub fn units(&self) -> Vec<usize> {
        self.entries.iter().map(|e| e.unit).collect()
    }

    /// The ladder level `unit` was committed at (`None` = full quality).
    pub fn level_of(&self, unit: usize) -> Option<u8> {
        self.entries
            .binary_search_by_key(&unit, |e| e.unit)
            .ok()
            .map(|at| self.entries[at].level)
    }

    /// Whether `unit` was downgraded.
    pub fn contains(&self, unit: usize) -> bool {
        self.level_of(unit).is_some()
    }

    /// All entries, sorted by unit.
    pub fn entries(&self) -> &[QualityEntry] {
        &self.entries
    }

    /// The deepest ladder level in the map (0 for a full-quality map).
    pub fn max_level(&self) -> u8 {
        self.entries.iter().map(|e| e.level).max().unwrap_or(0)
    }
}

impl fmt::Display for QualityMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_full_quality() {
            return write!(f, "full quality ({} {}s)", self.nunits, self.unit_kind);
        }
        write!(
            f,
            "{} of {} {}s downgraded: ",
            self.entries.len(),
            self.nunits,
            self.unit_kind
        )?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{} {}: level {} ({})", self.unit_kind, e.unit, e.level, e.reason)?;
        }
        Ok(())
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
    /// AIMD effective-concurrency limit in `[min_concurrency, nthreads]`.
    limit: AtomicUsize,
    /// Units currently holding an admission slot.
    inflight: AtomicUsize,
    /// Soft-deadline overruns observed (each one halves `limit`).
    overruns: AtomicUsize,
    /// Units shed past the hard deadline.
    shed: AtomicUsize,
    /// Per-unit failed-attempt counts (the circuit breaker's memory).
    failures: Vec<AtomicU32>,
}

/// RAII admission slot: holding one counts against the AIMD limit.
pub(crate) struct SlotGuard<'a>(&'a DeadlineController);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

const EWMA_UNSET: u64 = u64::MAX;

impl DeadlineController {
    pub(crate) fn new(
        cfg: &DeadlineBudget,
        nunits: usize,
        nthreads: usize,
        max_level: u8,
    ) -> Self {
        let nthreads = nthreads.max(1);
        Self {
            cfg: *cfg,
            start: Instant::now(),
            nunits,
            nthreads,
            max_level,
            ewma_us: AtomicU64::new(EWMA_UNSET),
            committed: AtomicUsize::new(0),
            limit: AtomicUsize::new(nthreads),
            inflight: AtomicUsize::new(0),
            overruns: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
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
                prev + self.cfg.ewma_alpha * (sample - prev)
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

    /// The per-unit soft deadline (`EWMA × headroom`), once an EWMA exists.
    fn soft_deadline(&self) -> Option<Duration> {
        self.ewma()
            .map(|us| Duration::from_secs_f64(us * self.cfg.soft_deadline_factor / 1e6))
    }

    /// Ladder level demanded by deadline pressure alone: 0 while the
    /// projected completion of the remaining units fits the remaining
    /// budget, then one level per doubling of the overshoot ratio.
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
        let concurrency = self.limit.load(Ordering::Relaxed).max(1);
        let projected_us = ewma_us * remaining_units as f64 / concurrency as f64;
        let ratio = projected_us / (remaining.as_secs_f64() * 1e6);
        if ratio <= 1.0 {
            0
        } else {
            // ratio in (1,2] → 1 rung, (2,4] → 2, … capped at the ladder.
            (ratio.log2().ceil() as u64).min(u64::from(self.max_level)) as u8
        }
    }

    /// Decide what to do with `unit` before an attempt runs. Called before
    /// the admission slot is acquired so a shed unit never waits for one.
    pub(crate) fn admit(&self, unit: usize) -> Admission {
        if let Some(budget) = self.cfg.budget {
            if self.start.elapsed() >= budget {
                self.shed.fetch_add(1, Ordering::Relaxed);
                SHED_TOTAL.add(1);
                return Admission::Shed;
            }
        }
        let tripped = self.max_level > 0
            && self.failures[unit].load(Ordering::Relaxed) >= self.cfg.breaker_threshold;
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

    /// Block until an admission slot is free (effective concurrency below
    /// the AIMD limit), or until the attempt's cancel token fires. The
    /// hard deadline is re-checked on every poll: a storm can throttle the
    /// limit to 1 and park admitted units here, and without the re-check
    /// each of them would still burn a full watchdog period *serially*
    /// after the budget is already gone.
    pub(crate) fn acquire<'a>(
        &'a self,
        unit: usize,
        token: &CancelToken,
    ) -> SfcResult<SlotGuard<'a>> {
        loop {
            token.bail(unit)?;
            if let Some(budget) = self.cfg.budget {
                if self.start.elapsed() >= budget {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    SHED_TOTAL.add(1);
                    return Err(SfcError::Cancelled { item: unit });
                }
            }
            let cur = self.inflight.load(Ordering::Acquire);
            if cur < self.limit.load(Ordering::Acquire)
                && self
                    .inflight
                    .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return Ok(SlotGuard(self));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Account a successful commit: fold the latency into the EWMA, bump
    /// the completion count, and run the AIMD step (additive +1 on an
    /// on-time unit, multiplicative halving on a soft-deadline overrun).
    pub(crate) fn on_success(&self, elapsed: Duration) {
        let soft = self.soft_deadline();
        self.observe(elapsed);
        self.committed.fetch_add(1, Ordering::Relaxed);
        match soft {
            Some(soft) if elapsed > soft => self.throttle(),
            _ => {
                let cap = self.nthreads;
                let _ = self
                    .limit
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |l| {
                        (l < cap).then_some(l + 1)
                    });
                WINDOW_GAUGE.set(self.limit.load(Ordering::Relaxed) as i64);
            }
        }
    }

    /// Account a failed attempt (error, panic, timeout): feed the circuit
    /// breaker, fold the burnt wall-clock into the EWMA so storms raise
    /// it, and halve the concurrency limit.
    pub(crate) fn on_failed_attempt(&self, unit: usize, elapsed: Duration) {
        self.failures[unit].fetch_add(1, Ordering::Relaxed);
        self.observe(elapsed);
        self.throttle();
    }

    /// Multiplicative decrease of the AIMD limit.
    fn throttle(&self) {
        self.overruns.fetch_add(1, Ordering::Relaxed);
        OVERRUNS_TOTAL.add(1);
        let floor = self.cfg.min_concurrency.max(1);
        let _ = self
            .limit
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |l| {
                let next = (l / 2).max(floor);
                (next != l).then_some(next)
            });
        WINDOW_GAUGE.set(self.limit.load(Ordering::Relaxed) as i64);
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
    fn quality_map_records_sorts_and_replaces() {
        let mut q = QualityMap::new("tile", 64);
        assert!(q.is_full_quality() && q.is_empty());
        assert_eq!(q.to_string(), "full quality (64 tiles)");
        q.record(9, 2, DowngradeReason::Pressure);
        q.record(3, 1, DowngradeReason::Breaker);
        q.record(9, 3, DowngradeReason::Shed); // replaces the first entry
        assert_eq!(q.units(), vec![3, 9]);
        assert_eq!(q.level_of(9), Some(3));
        assert_eq!(q.level_of(4), None);
        assert!(q.contains(3) && !q.contains(4));
        assert_eq!(q.max_level(), 3);
        assert_eq!(q.len(), 2);
        let s = q.to_string();
        assert!(s.contains("tile 3: level 1 (breaker)"), "{s}");
        assert!(s.contains("tile 9: level 3 (shed)"), "{s}");
        q.record(9, 0, DowngradeReason::Pressure); // level 0 clears
        assert_eq!(q.units(), vec![3]);
        q.clear(3);
        assert!(q.is_full_quality());
    }

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
        let cfg = DeadlineBudget {
            breaker_threshold: 2,
            ..DeadlineBudget::none()
        };
        let ctl = DeadlineController::new(&cfg, 10, 2, 3);
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
    fn aimd_halves_on_failure_and_recovers_additively() {
        let ctl = DeadlineController::new(&DeadlineBudget::none(), 100, 8, 2);
        assert_eq!(ctl.limit.load(Ordering::Relaxed), 8);
        ctl.on_failed_attempt(0, Duration::from_millis(10));
        assert_eq!(ctl.limit.load(Ordering::Relaxed), 4);
        ctl.on_failed_attempt(1, Duration::from_millis(10));
        assert_eq!(ctl.limit.load(Ordering::Relaxed), 2);
        // Fast (on-time) completions recover the limit one step at a time.
        ctl.on_success(Duration::from_millis(1));
        ctl.on_success(Duration::from_millis(1));
        assert_eq!(ctl.limit.load(Ordering::Relaxed), 4);
        for _ in 0..10 {
            ctl.on_success(Duration::from_millis(1));
        }
        assert_eq!(ctl.limit.load(Ordering::Relaxed), 8); // capped at nthreads
    }

    #[test]
    fn soft_deadline_overrun_throttles() {
        let ctl = DeadlineController::new(&DeadlineBudget::none(), 100, 4, 2);
        ctl.on_success(Duration::from_millis(2)); // establishes EWMA ≈ 2 ms
        // 2 ms EWMA × factor 4 = 8 ms soft deadline; 100 ms blows it.
        ctl.on_success(Duration::from_millis(100));
        assert_eq!(ctl.limit.load(Ordering::Relaxed), 2);
        assert_eq!(ctl.overruns.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn slots_gate_effective_concurrency() {
        let ctl = DeadlineController::new(&DeadlineBudget::none(), 10, 2, 0);
        let token = CancelToken::new();
        let a = ctl.acquire(0, &token).unwrap();
        let _b = ctl.acquire(1, &token).unwrap();
        assert_eq!(ctl.inflight.load(Ordering::Relaxed), 2);
        // Both slots taken: a cancelled waiter bails instead of spinning.
        let blocked = CancelToken::new();
        blocked.cancel();
        assert!(ctl.acquire(2, &blocked).is_err());
        drop(a);
        assert_eq!(ctl.inflight.load(Ordering::Relaxed), 1);
        let _c = ctl.acquire(3, &token).unwrap();
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
