//! The engine's outcome counters (`engine.defects`,
//! `engine.units_repaired`, `engine.units_downgraded`) and the counts a
//! server reply takes from an outcome, pinned for each supervised
//! pipeline on a small ladder kernel.
//!
//! A test binary of its own, and one test in it, so that no concurrent
//! test moves the process-wide counters between a case's two reads. Every
//! expected value below was recorded with the same cases on the engine of
//! 12eae78, where `Supervised` and `Degraded` ran a pipeline of their own
//! and the defects and the downgrades of a run were two maps.

use std::sync::Mutex;
use std::time::Duration;

use sfc_harness::{
    metrics, DeadlineBudget, DegradedOutcome, DowngradeReason, ExecPolicy, Executor, FaultKind,
    FaultPlan, SupervisorConfig, UnitKernel, WorkPlan,
};

/// A flat `f32` output in units of `unit_len` values. Level `L` adds
/// `1000·L` to each value, so a unit's ladder level shows in its bytes;
/// the `always_nan` unit computes NaN at every level (a NaN-input analog
/// that no repair can fix).
struct Ladder {
    out: Mutex<Vec<f32>>,
    unit_len: usize,
    always_nan: Option<usize>,
    depth: u8,
}

impl Ladder {
    fn new(nunits: usize, unit_len: usize, depth: u8) -> Self {
        Self {
            out: Mutex::new(vec![0.0; nunits * unit_len]),
            unit_len,
            always_nan: None,
            depth,
        }
    }

    fn span(&self, unit: usize) -> std::ops::Range<usize> {
        unit * self.unit_len..(unit + 1) * self.unit_len
    }
}

impl UnitKernel for Ladder {
    type Value = f32;

    fn unit_kind(&self) -> &'static str {
        "cell"
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
        for i in self.span(unit) {
            if !keep_going() {
                return false;
            }
            buf.push(match self.always_nan == Some(unit) {
                true => f32::NAN,
                false => i as f32 * 0.5 + 1000.0 * f32::from(level),
            });
        }
        true
    }

    fn commit(&self, unit: usize, buf: &[f32]) {
        self.out.lock().unwrap()[self.span(unit)].copy_from_slice(buf);
    }

    fn read_back(&self, unit: usize, buf: &mut Vec<f32>) {
        buf.extend_from_slice(&self.out.lock().unwrap()[self.span(unit)]);
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

fn cfg(nthreads: usize, max_retries: u32) -> SupervisorConfig {
    SupervisorConfig {
        nthreads,
        max_retries,
        backoff_base: Duration::from_millis(1),
        timeout: Some(Duration::from_millis(500)),
        watchdog_poll: Duration::from_millis(2),
        ..SupervisorConfig::default()
    }
}

/// `engine.defects`, `engine.units_repaired`, `engine.units_downgraded`.
fn counters() -> [u64; 3] {
    [
        "engine.defects",
        "engine.units_repaired",
        "engine.units_downgraded",
    ]
    .map(|name| metrics::counter(name).value())
}

/// What a server `ok` header and journal line take from an outcome:
/// `failed`, `downgraded`, `max_level`, `shed_units`, `whole`.
fn reply_counts(o: &DegradedOutcome) -> (usize, usize, u8, usize, bool) {
    let shed = o.quality.entries().iter();
    let shed = shed.filter(|e| e.reason == Some(DowngradeReason::Shed));
    (
        o.report.failed.len(),
        o.quality.downgraded_units().len(),
        o.quality.max_level(),
        shed.count(),
        o.output_is_whole(),
    )
}

/// Run one case and check the counter deltas and the reply counts.
fn check(
    nthreads: usize,
    plan: WorkPlan,
    policy: ExecPolicy,
    kernel: &Ladder,
    faults: &FaultPlan,
    deltas: [u64; 3],
    reply: (usize, usize, u8, usize, bool),
) {
    let before = counters();
    let outcome = Executor::new(nthreads).execute(&plan, &policy, kernel, faults);
    let after = counters();
    let got = [0, 1, 2].map(|i| after[i] - before[i]);
    let label = policy.label();
    assert_eq!(got, deltas, "{label}: counter deltas; {}", outcome.quality);
    assert_eq!(
        reply_counts(&outcome),
        reply,
        "{label}: {}",
        outcome.quality
    );
}

/// Unit 1 always panics, unit 4 commits poisoned bytes, unit 6 fails more
/// often than its one retry allows, and unit 9 computes NaN every time.
fn faulty_twelve() -> (Ladder, FaultPlan) {
    let mut kernel = Ladder::new(12, 5, 2);
    kernel.always_nan = Some(9);
    let faults = FaultPlan::none()
        .with(1, FaultKind::Panic)
        .with(4, FaultKind::CorruptOutput)
        .with(6, FaultKind::FailFirst(5));
    (kernel, faults)
}

#[test]
fn outcome_counters_match_the_two_map_engine() {
    // (a) Degraded: units 1, 4 and 6 are repaired; unit 9's rescan adds a
    // second NaN defect and it stays unrepaired. 6 defects (1, 4 twice,
    // 6, 9 twice), 3 units repaired, nothing downgraded.
    let (kernel, faults) = faulty_twelve();
    check(
        3,
        WorkPlan::static_round_robin(12),
        ExecPolicy::degraded(cfg(3, 1), Some((0.0, 1e6))),
        &kernel,
        &faults,
        [6, 3, 0],
        (2, 0, 0, 0, false),
    );

    // The same faults under Supervised: no scan and no repair, so only
    // the two failed units are defects, both unrepaired.
    let (kernel, faults) = faulty_twelve();
    check(
        3,
        WorkPlan::static_round_robin(12),
        ExecPolicy::Supervised(cfg(3, 1)),
        &kernel,
        &faults,
        [2, 0, 0],
        (2, 0, 0, 0, false),
    );

    // (b) Brownout with a zero budget: all 6 units are shed, failed, and
    // repaired at the deepest rung, each recorded as shed at level 2.
    let kernel = Ladder::new(6, 3, 2);
    check(
        2,
        WorkPlan::dynamic(6),
        ExecPolicy::brownout(cfg(2, 1), DeadlineBudget::with_budget(Duration::ZERO), None),
        &kernel,
        &FaultPlan::none(),
        [6, 6, 6],
        (6, 6, 2, 6, true),
    );
    let want: Vec<f32> = (0..18).map(|i| i as f32 * 0.5 + 2000.0).collect();
    assert_eq!(*kernel.out.lock().unwrap(), want);

    // (c) The breaker: unit 3 fails twice at full quality, then commits
    // at level 1 on its third attempt. No defect, one downgrade.
    let kernel = Ladder::new(8, 2, 2);
    check(
        2,
        WorkPlan::dynamic(8),
        ExecPolicy::brownout(cfg(2, 3), DeadlineBudget::none(), None),
        &kernel,
        &FaultPlan::none().with(3, FaultKind::FailFirst(2)),
        [0, 0, 1],
        (0, 1, 1, 0, true),
    );
    let mut want: Vec<f32> = (0..16).map(|i| i as f32 * 0.5).collect();
    for v in &mut want[6..8] {
        *v += 1000.0;
    }
    assert_eq!(*kernel.out.lock().unwrap(), want);
}
