//! What an engine run produced besides its output: the per-unit
//! [`QualityMap`].
//!
//! The supervised pipeline
//! ([`Executor::execute`](crate::Executor::execute) under every policy but
//! `Plain`) keeps a sweep alive through worker failures, but a driver
//! still needs to say *which units of output* are untrustworthy or coarser
//! than asked for — failed pencils of a filtered volume, tiles a post-run
//! scan found non-finite, tiles the brownout controller computed at a
//! coarser ladder level. A [`QualityMap`] is that record: one sorted entry
//! per unit that has anything to report, holding the unit's typed
//! [`Defect`]s (each marked repaired or not) and the ladder level, with
//! its [`DowngradeReason`], that the unit's committed bytes were computed
//! at. Drivers return it alongside their (partially valid) output and
//! surface it to the user so figure comparability can be judged (see
//! DESIGN.md, "Degraded-mode semantics").

use std::fmt;

use crate::deadline::DowngradeReason;
use crate::supervise::RunReport;

/// Why a unit is defective.
#[derive(Debug, Clone, PartialEq)]
pub enum DefectKind {
    /// The unit's supervised execution exhausted its retry budget.
    Failed {
        /// Attempts made (including the first).
        attempts: u32,
        /// The final error rendered to a string.
        reason: String,
    },
    /// The post-run validation scan found non-finite values in the unit's
    /// output.
    NonFinite {
        /// Number of non-finite values in the unit.
        count: usize,
    },
    /// The post-run validation scan found finite values outside the
    /// plausible output range.
    OutOfRange {
        /// Number of out-of-range values in the unit.
        count: usize,
    },
}

/// One defect of an output unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Defect {
    /// Why the unit is untrustworthy.
    pub kind: DefectKind,
    /// Whether a repair pass subsequently regenerated the unit. When
    /// `true` the defect is historical.
    pub repaired: bool,
}

/// Everything a run recorded about one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityEntry {
    /// Unit index (pencil id, tile id, …).
    pub unit: usize,
    /// The unit's defects in the order they were found; a unit whose
    /// recomputation is still bad carries the rescan's defects too.
    pub defects: Vec<Defect>,
    /// Ladder level the unit's committed bytes were computed at (0 = full
    /// quality).
    pub level: u8,
    /// What forced `level` above 0 (`None` at full quality).
    pub reason: Option<DowngradeReason>,
}

/// The per-unit outcome of one engine run: which units are defective
/// (and whether a repair pass regenerated them), and which were committed
/// below full quality, at what ladder level and why. Entries are sorted by
/// unit; a unit with nothing to report has none.
///
/// `unit_kind` names what a unit is (`"pencil"`, `"tile"`) so reports read
/// naturally; `nunits` records the total so "3 of 4096 pencils" can be
/// stated without external context.
#[derive(Debug, Clone, Default)]
pub struct QualityMap {
    unit_kind: &'static str,
    nunits: usize,
    entries: Vec<QualityEntry>,
}

impl QualityMap {
    /// An empty map over `nunits` units of `unit_kind`: every unit whole
    /// and at full quality.
    pub fn new(unit_kind: &'static str, nunits: usize) -> Self {
        Self {
            unit_kind,
            nunits,
            entries: Vec::new(),
        }
    }

    /// The entry of `unit`, inserted in sorted position if absent.
    fn entry(&mut self, unit: usize) -> &mut QualityEntry {
        let at = match self.entries.binary_search_by_key(&unit, |e| e.unit) {
            Ok(at) => at,
            Err(at) => {
                let fresh = QualityEntry {
                    unit,
                    defects: Vec::new(),
                    level: 0,
                    reason: None,
                };
                self.entries.insert(at, fresh);
                at
            }
        };
        &mut self.entries[at]
    }

    /// Record the failures of a supervised run (one `Failed` defect per
    /// failed unit).
    pub(crate) fn record_failures(&mut self, report: &RunReport) {
        for f in &report.failed {
            self.record_defect(
                f.item,
                DefectKind::Failed {
                    attempts: f.attempts,
                    reason: f.error.to_string(),
                },
            );
        }
    }

    /// Record an unrepaired defect of `unit` after the ones it has.
    pub(crate) fn record_defect(&mut self, unit: usize, kind: DefectKind) {
        self.entry(unit).defects.push(Defect {
            kind,
            repaired: false,
        });
    }

    /// Mark every defect of `unit` as repaired.
    pub(crate) fn mark_repaired(&mut self, unit: usize) {
        if let Ok(at) = self.entries.binary_search_by_key(&unit, |e| e.unit) {
            for d in &mut self.entries[at].defects {
                d.repaired = true;
            }
        }
    }

    /// Record that `unit`'s committed bytes were computed at `level`,
    /// replacing any earlier level: the map describes the *final* bytes.
    /// Level 0 (a full-quality recomputation) clears the downgrade.
    pub(crate) fn record_level(&mut self, unit: usize, level: u8, reason: DowngradeReason) {
        if level > 0 {
            let e = self.entry(unit);
            e.level = level;
            e.reason = Some(reason);
        } else if let Ok(at) = self.entries.binary_search_by_key(&unit, |e| e.unit) {
            let e = &mut self.entries[at];
            e.level = 0;
            e.reason = None;
            if e.defects.is_empty() {
                self.entries.remove(at);
            }
        }
    }

    /// All entries, sorted by unit.
    pub fn entries(&self) -> &[QualityEntry] {
        &self.entries
    }

    /// Total number of units in the run.
    pub fn nunits(&self) -> usize {
        self.nunits
    }

    fn units_where(&self, keep: impl Fn(&QualityEntry) -> bool) -> Vec<usize> {
        self.entries
            .iter()
            .filter(|e| keep(e))
            .map(|e| e.unit)
            .collect()
    }

    /// The units with any recorded defect (repaired ones included),
    /// sorted ascending.
    pub fn defective_units(&self) -> Vec<usize> {
        self.units_where(|e| !e.defects.is_empty())
    }

    /// The units with a defect still unrepaired, sorted ascending.
    pub fn unrepaired_units(&self) -> Vec<usize> {
        self.units_where(|e| e.defects.iter().any(|d| !d.repaired))
    }

    /// The units committed below full quality, sorted ascending.
    pub fn downgraded_units(&self) -> Vec<usize> {
        self.units_where(|e| e.level > 0)
    }

    /// True when every recorded defect has been repaired (vacuously true
    /// when none was recorded) — i.e. the output is whole.
    pub fn is_whole(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.defects.iter().all(|d| d.repaired))
    }

    /// True when every unit's committed bytes are at full quality.
    pub fn is_full_quality(&self) -> bool {
        self.entries.iter().all(|e| e.level == 0)
    }

    /// The deepest ladder level in the committed output (0 at full
    /// quality).
    pub fn max_level(&self) -> u8 {
        self.entries.iter().map(|e| e.level).max().unwrap_or(0)
    }
}

impl fmt::Display for QualityMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = self.unit_kind;
        if self.entries.is_empty() {
            return write!(f, "whole at full quality ({} {kind}s)", self.nunits);
        }
        write!(
            f,
            "{} defective ({} unrepaired) and {} downgraded of {} {kind}s: ",
            self.defective_units().len(),
            self.unrepaired_units().len(),
            self.downgraded_units().len(),
            self.nunits,
        )?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{kind} {}:", e.unit)?;
            let mut sep = " ";
            for d in &e.defects {
                f.write_str(sep)?;
                sep = ", ";
                match &d.kind {
                    DefectKind::Failed { attempts, reason } => {
                        write!(f, "failed after {attempts} attempt(s) ({reason})")?;
                    }
                    DefectKind::NonFinite { count } => write!(f, "{count} non-finite value(s)")?,
                    DefectKind::OutOfRange { count } => write!(f, "{count} out-of-range value(s)")?,
                }
                let state = if d.repaired { "repaired" } else { "UNREPAIRED" };
                write!(f, " [{state}]")?;
            }
            if let Some(reason) = e.reason {
                write!(f, "{sep}level {} ({reason})", e.level)?;
            }
        }
        Ok(())
    }
}

/// What an engine run ([`Executor::execute`](crate::Executor::execute))
/// produced alongside its (possibly partial) output: the execution report
/// and the post-repair [`QualityMap`]. Shared by the filter and renderer
/// kernels so callers handle both uniformly.
#[derive(Debug)]
pub struct DegradedOutcome {
    /// The supervised run's execution report (retries, per-item
    /// failures, wall time).
    pub report: RunReport,
    /// Per-unit defects (repaired entries are historical) and quality
    /// downgrades (only [`ExecPolicy::Brownout`] computes below full
    /// quality).
    ///
    /// [`ExecPolicy::Brownout`]: crate::ExecPolicy::Brownout
    pub quality: QualityMap,
}

impl DegradedOutcome {
    /// True when the output is whole — either nothing failed, or every
    /// defective unit was successfully repaired. (Downgraded-quality
    /// units are still *whole*: valid, just coarser.)
    pub fn output_is_whole(&self) -> bool {
        self.quality.is_whole()
    }
}

/// Scan one unit's values, recording a [`DefectKind::NonFinite`] /
/// [`DefectKind::OutOfRange`] defect into `map` when anything fails.
/// `range` is an optional inclusive plausibility interval for finite
/// values. Returns true when the unit is defective.
pub(crate) fn scan_unit<I: IntoIterator<Item = f32>>(
    map: &mut QualityMap,
    unit: usize,
    values: I,
    range: Option<(f32, f32)>,
) -> bool {
    let mut non_finite = 0usize;
    let mut out_of_range = 0usize;
    for v in values {
        if !v.is_finite() {
            non_finite += 1;
        } else if let Some((lo, hi)) = range {
            if v < lo || v > hi {
                out_of_range += 1;
            }
        }
    }
    if non_finite > 0 {
        map.record_defect(unit, DefectKind::NonFinite { count: non_finite });
    }
    if out_of_range > 0 {
        map.record_defect(
            unit,
            DefectKind::OutOfRange {
                count: out_of_range,
            },
        );
    }
    non_finite > 0 || out_of_range > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::ItemFailure;
    use sfc_core::SfcError;
    use std::time::Duration;

    #[test]
    fn map_records_sorts_and_reports() {
        let mut m = QualityMap::new("pencil", 100);
        assert!(m.is_whole() && m.is_full_quality());
        assert_eq!(m.to_string(), "whole at full quality (100 pencils)");
        m.record_defect(7, DefectKind::NonFinite { count: 3 });
        m.record_defect(2, DefectKind::OutOfRange { count: 1 });
        m.record_defect(7, DefectKind::OutOfRange { count: 2 });
        assert_eq!(m.defective_units(), vec![2, 7]);
        assert_eq!(m.entries()[1].defects.len(), 2);
        assert!(!m.is_whole());
        m.mark_repaired(7);
        assert_eq!(m.unrepaired_units(), vec![2]);
        m.mark_repaired(2);
        assert!(m.is_whole() && m.is_full_quality());
        let s = m.to_string();
        assert!(
            s.contains("pencil 7: 3 non-finite value(s) [repaired], 2 out-of-range"),
            "{s}"
        );
    }

    #[test]
    fn levels_replace_and_level_zero_clears() {
        let mut q = QualityMap::new("tile", 64);
        q.record_level(9, 2, DowngradeReason::Pressure);
        q.record_level(3, 1, DowngradeReason::Breaker);
        q.record_level(9, 3, DowngradeReason::Shed); // replaces the first level
        assert_eq!(q.downgraded_units(), vec![3, 9]);
        assert_eq!(q.entries()[1].level, 3);
        assert_eq!(q.max_level(), 3);
        assert!(!q.is_full_quality() && q.is_whole());
        let s = q.to_string();
        assert!(s.contains("tile 3: level 1 (breaker)"), "{s}");
        assert!(s.contains("tile 9: level 3 (shed)"), "{s}");
        q.record_level(9, 0, DowngradeReason::Pressure); // level 0 clears
        assert_eq!(q.downgraded_units(), vec![3]);
        assert_eq!(q.entries().len(), 1);
        // A defective unit keeps its entry when its level clears.
        q.record_defect(3, DefectKind::NonFinite { count: 1 });
        q.record_level(3, 0, DowngradeReason::Shed);
        assert!(q.is_full_quality());
        assert_eq!(q.defective_units(), vec![3]);
        assert_eq!(q.entries()[0].reason, None);
    }

    #[test]
    fn failures_become_failed_defects() {
        let report = RunReport {
            completed: 8,
            failed: vec![
                ItemFailure {
                    item: 3,
                    attempts: 3,
                    error: SfcError::WorkerPanic {
                        item: 3,
                        payload: "boom".into(),
                    },
                },
                ItemFailure {
                    item: 5,
                    attempts: 1,
                    error: SfcError::Timeout {
                        item: 5,
                        limit: Duration::from_millis(10),
                    },
                },
            ],
            retried: 2,
            wall_time: Duration::from_millis(1),
        };
        let mut m = QualityMap::new("tile", 10);
        m.record_failures(&report);
        assert_eq!(m.defective_units(), vec![3, 5]);
        match &m.entries()[0].defects[0].kind {
            DefectKind::Failed { attempts, reason } => {
                assert_eq!(*attempts, 3);
                assert!(reason.contains("boom"));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(m.to_string().contains("tile 5: failed after 1 attempt(s)"));
    }

    #[test]
    fn scan_flags_nan_and_range() {
        let mut m = QualityMap::new("tile", 4);
        assert!(!scan_unit(&mut m, 0, [0.1, 0.9], Some((0.0, 1.0))));
        assert!(scan_unit(
            &mut m,
            1,
            [f32::NAN, 0.5, f32::INFINITY],
            Some((0.0, 1.0))
        ));
        assert!(scan_unit(&mut m, 2, [0.5, 1e30], Some((0.0, 1.0))));
        assert_eq!(m.defective_units(), vec![1, 2]);
        assert!(matches!(
            m.entries()[0].defects[0].kind,
            DefectKind::NonFinite { count: 2 }
        ));
        assert!(matches!(
            m.entries()[1].defects[0].kind,
            DefectKind::OutOfRange { count: 1 }
        ));
        // Without a range, huge finite values pass.
        let mut m2 = QualityMap::new("tile", 1);
        assert!(!scan_unit(&mut m2, 0, [1e30], None));
    }
}
