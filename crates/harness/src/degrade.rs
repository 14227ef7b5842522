//! Degraded-mode completion: typed defect maps for partial results.
//!
//! The supervised pool
//! ([`Executor::run_supervised`](crate::Executor::run_supervised)) keeps
//! a sweep alive through worker failures, but a driver still needs to say
//! *which units of output* are untrustworthy — failed pencils of a filtered
//! volume, failed tiles of a rendered image, regions that a post-run scan
//! found non-finite. A [`DefectMap`] is that record: a sorted set of
//! per-unit [`Defect`]s that drivers return alongside their (partially
//! valid) output, feed into a single-threaded repair pass, and surface to
//! the user so figure comparability can be judged (see DESIGN.md,
//! "Degraded-mode semantics").

use std::fmt;

use sfc_core::SfcError;

use crate::supervise::RunReport;

/// Coarse classification of a unit failure, derived from the
/// [`SfcError`] the last attempt produced. Carried by value (rather than
/// the error itself) so defect maps stay `Clone` and cheaply reportable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The worker panicked.
    Panic,
    /// The watchdog expired the item's deadline.
    Timeout,
    /// The worker noticed its cancel token and bailed.
    Cancelled,
    /// An I/O error.
    Io,
    /// Validation rejected the item's parameters or data.
    Invalid,
    /// Anything else.
    Other,
}

impl FailureClass {
    /// Classify an [`SfcError`].
    pub fn of(error: &SfcError) -> Self {
        match error {
            SfcError::WorkerPanic { .. } => FailureClass::Panic,
            SfcError::Timeout { .. } => FailureClass::Timeout,
            SfcError::Cancelled { .. } => FailureClass::Cancelled,
            SfcError::Io { .. } => FailureClass::Io,
            SfcError::InvalidDims { .. }
            | SfcError::InvalidParameter { .. }
            | SfcError::ShapeMismatch { .. }
            | SfcError::SizeOverflow { .. }
            | SfcError::Corrupt { .. } => FailureClass::Invalid,
            _ => FailureClass::Other,
        }
    }
}

/// Why a unit is defective.
#[derive(Debug, Clone, PartialEq)]
pub enum DefectKind {
    /// The unit's supervised execution exhausted its retry budget.
    Failed {
        /// Coarse class of the final error.
        class: FailureClass,
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

/// One defective output unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Defect {
    /// Unit index (pencil id, tile id, ...).
    pub unit: usize,
    /// Why the unit is untrustworthy.
    pub kind: DefectKind,
    /// Whether a repair pass subsequently regenerated this unit. When
    /// `true` the output is whole again and the defect is historical.
    pub repaired: bool,
}

/// A typed map of defective output units for one degraded run.
///
/// `unit_kind` names what a unit is (`"pencil"`, `"tile"`) so reports read
/// naturally; `nunits` records the total so "3 of 4096 pencils" can be
/// stated without external context.
#[derive(Debug, Clone, Default)]
pub struct DefectMap {
    unit_kind: &'static str,
    nunits: usize,
    defects: Vec<Defect>,
}

impl DefectMap {
    /// An empty map over `nunits` units of `unit_kind`.
    pub fn new(unit_kind: &'static str, nunits: usize) -> Self {
        Self {
            unit_kind,
            nunits,
            defects: Vec::new(),
        }
    }

    /// Build a map from the failures of a supervised run. The report's
    /// failures are already sorted by item.
    pub fn from_run_report(unit_kind: &'static str, nunits: usize, report: &RunReport) -> Self {
        let mut map = Self::new(unit_kind, nunits);
        for f in &report.failed {
            map.record(
                f.item,
                DefectKind::Failed {
                    class: FailureClass::of(&f.error),
                    attempts: f.attempts,
                    reason: f.error.to_string(),
                },
            );
        }
        map
    }

    /// Record a defect for `unit` (keeps the map sorted; a unit may carry
    /// several defects of different kinds).
    pub fn record(&mut self, unit: usize, kind: DefectKind) {
        let at = self
            .defects
            .partition_point(|d| d.unit <= unit);
        self.defects.insert(
            at,
            Defect {
                unit,
                kind,
                repaired: false,
            },
        );
    }

    /// Mark every defect of `unit` as repaired.
    pub fn mark_repaired(&mut self, unit: usize) {
        for d in self.defects.iter_mut().filter(|d| d.unit == unit) {
            d.repaired = true;
        }
    }

    /// True when no defects were recorded at all.
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty()
    }

    /// True when every recorded defect has been repaired (vacuously true
    /// for a clean map) — i.e. the output is whole.
    pub fn is_whole(&self) -> bool {
        self.defects.iter().all(|d| d.repaired)
    }

    /// Number of recorded defects (repaired ones included).
    pub fn len(&self) -> usize {
        self.defects.len()
    }

    /// True when the map holds no defects.
    pub fn is_empty(&self) -> bool {
        self.defects.is_empty()
    }

    /// Total number of units in the run.
    pub fn nunits(&self) -> usize {
        self.nunits
    }

    /// What a unit is ("pencil", "tile").
    pub fn unit_kind(&self) -> &'static str {
        self.unit_kind
    }

    /// The distinct defective unit indices, sorted ascending.
    pub fn units(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.defects.iter().map(|d| d.unit).collect();
        v.dedup(); // already sorted by construction
        v
    }

    /// The distinct unit indices still unrepaired, sorted ascending.
    pub fn unrepaired_units(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .defects
            .iter()
            .filter(|d| !d.repaired)
            .map(|d| d.unit)
            .collect();
        v.dedup();
        v
    }

    /// Whether `unit` has any recorded defect.
    pub fn contains(&self, unit: usize) -> bool {
        self.defects.binary_search_by_key(&unit, |d| d.unit).is_ok()
    }

    /// All defects, sorted by unit.
    pub fn defects(&self) -> &[Defect] {
        &self.defects
    }

    /// Absorb another map over the same unit space (used when the
    /// validation scan adds defects on top of the execution failures).
    pub fn merge(&mut self, other: DefectMap) {
        for d in other.defects {
            let at = self.defects.partition_point(|e| e.unit <= d.unit);
            self.defects.insert(at, d);
        }
    }
}

impl fmt::Display for DefectMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean ({} {}s)", self.nunits, self.unit_kind);
        }
        let units = self.units();
        let unrepaired = self.unrepaired_units();
        write!(
            f,
            "{} defective {}(s) of {} ({} unrepaired): ",
            units.len(),
            self.unit_kind,
            self.nunits,
            unrepaired.len()
        )?;
        for (i, d) in self.defects.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            let state = if d.repaired { "repaired" } else { "UNREPAIRED" };
            match &d.kind {
                DefectKind::Failed { class, attempts, .. } => {
                    write!(f, "{} {}: {class:?} after {attempts} attempt(s) [{state}]",
                        self.unit_kind, d.unit)?;
                }
                DefectKind::NonFinite { count } => {
                    write!(f, "{} {}: {count} non-finite value(s) [{state}]",
                        self.unit_kind, d.unit)?;
                }
                DefectKind::OutOfRange { count } => {
                    write!(f, "{} {}: {count} out-of-range value(s) [{state}]",
                        self.unit_kind, d.unit)?;
                }
            }
        }
        Ok(())
    }
}

/// What an engine run ([`Executor::execute`](crate::Executor::execute))
/// produced alongside its (possibly partial) output: the execution report
/// plus the (post-repair) defect map, and — for brownout runs — the
/// quality map of units committed below full quality. Shared by the
/// filter and renderer kernels so callers handle both uniformly.
#[derive(Debug)]
pub struct DegradedOutcome {
    /// The supervised pool's execution report (retries, replacements,
    /// per-item failures, wall time).
    pub report: RunReport,
    /// Typed per-unit defects; repaired entries are historical.
    pub defects: DefectMap,
    /// Units whose committed output was computed below full quality
    /// (always full quality outside [`ExecPolicy::Brownout`]).
    ///
    /// [`ExecPolicy::Brownout`]: crate::ExecPolicy::Brownout
    pub quality: crate::deadline::QualityMap,
}

impl DegradedOutcome {
    /// An outcome with an all-full-quality map matching `defects`' unit
    /// universe — the shape every non-brownout policy produces.
    pub fn full_quality(report: RunReport, defects: DefectMap) -> Self {
        let quality = crate::deadline::QualityMap::new(defects.unit_kind(), defects.nunits());
        Self {
            report,
            defects,
            quality,
        }
    }

    /// True when the output is whole — either nothing failed, or every
    /// defective unit was successfully repaired. (Downgraded-quality
    /// units are still *whole*: valid, just coarser; see
    /// [`DegradedOutcome::quality`].)
    pub fn output_is_whole(&self) -> bool {
        self.defects.is_whole()
    }
}

/// Scan one unit's values, recording a [`DefectKind::NonFinite`] /
/// [`DefectKind::OutOfRange`] defect into `map` when anything fails.
/// `range` is an optional inclusive plausibility interval for finite
/// values. Returns true when the unit is defective.
pub fn scan_unit<I: IntoIterator<Item = f32>>(
    map: &mut DefectMap,
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
        map.record(unit, DefectKind::NonFinite { count: non_finite });
    }
    if out_of_range > 0 {
        map.record(unit, DefectKind::OutOfRange { count: out_of_range });
    }
    non_finite > 0 || out_of_range > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::ItemFailure;
    use std::time::Duration;

    #[test]
    fn map_records_sorts_and_reports() {
        let mut m = DefectMap::new("pencil", 100);
        assert!(m.is_clean() && m.is_whole());
        m.record(7, DefectKind::NonFinite { count: 3 });
        m.record(2, DefectKind::OutOfRange { count: 1 });
        m.record(7, DefectKind::OutOfRange { count: 2 });
        assert_eq!(m.units(), vec![2, 7]);
        assert!(m.contains(7) && !m.contains(3));
        assert!(!m.is_whole());
        m.mark_repaired(7);
        assert_eq!(m.unrepaired_units(), vec![2]);
        m.mark_repaired(2);
        assert!(m.is_whole() && !m.is_clean());
        let s = m.to_string();
        assert!(s.contains("pencil") && s.contains("repaired"), "{s}");
    }

    #[test]
    fn from_run_report_classifies_failures() {
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
            replacements: 0,
            wall_time: Duration::from_millis(1),
        };
        let m = DefectMap::from_run_report("tile", 10, &report);
        assert_eq!(m.units(), vec![3, 5]);
        match &m.defects()[0].kind {
            DefectKind::Failed { class, attempts, reason } => {
                assert_eq!(*class, FailureClass::Panic);
                assert_eq!(*attempts, 3);
                assert!(reason.contains("boom"));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(matches!(
            &m.defects()[1].kind,
            DefectKind::Failed { class: FailureClass::Timeout, .. }
        ));
    }

    #[test]
    fn scan_flags_nan_and_range() {
        let mut m = DefectMap::new("tile", 4);
        assert!(!scan_unit(&mut m, 0, [0.1, 0.9], Some((0.0, 1.0))));
        assert!(scan_unit(&mut m, 1, [f32::NAN, 0.5, f32::INFINITY], Some((0.0, 1.0))));
        assert!(scan_unit(&mut m, 2, [0.5, 1e30], Some((0.0, 1.0))));
        assert_eq!(m.units(), vec![1, 2]);
        assert!(matches!(m.defects()[0].kind, DefectKind::NonFinite { count: 2 }));
        assert!(matches!(m.defects()[1].kind, DefectKind::OutOfRange { count: 1 }));
        // Without a range, huge finite values pass.
        let mut m2 = DefectMap::new("tile", 1);
        assert!(!scan_unit(&mut m2, 0, [1e30], None));
    }

    #[test]
    fn merge_keeps_sorted_order() {
        let mut a = DefectMap::new("pencil", 10);
        a.record(5, DefectKind::NonFinite { count: 1 });
        let mut b = DefectMap::new("pencil", 10);
        b.record(2, DefectKind::OutOfRange { count: 1 });
        b.record(8, DefectKind::NonFinite { count: 2 });
        a.merge(b);
        assert_eq!(a.units(), vec![2, 5, 8]);
    }
}
