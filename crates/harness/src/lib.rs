//! # sfc-harness — experiment plumbing
//!
//! Shared machinery for the timing and counter experiments:
//!
//! * [`engine`] — the composable execution engine: [`WorkPlan`]s over
//!   the paper's two work-assignment [`Schedule`]s (static round-robin
//!   pencils, dynamic tile queue), the single [`Executor`]-owned thread
//!   scope, and the [`ExecPolicy`] a [`UnitKernel`] runs under: `Plain`,
//!   the paper's engine, or one supervised pipeline on the same dealing
//!   whose stages (supervised execution, validate/repair, deadline
//!   control) the supervised, degraded and brownout policies switch on;
//!   plus the [`DisjointSlots`] output writer;
//! * [`supervise`] — the vocabulary of supervised execution: cancel
//!   tokens, the supervisor configuration (watchdog timeouts, bounded
//!   in-place retry with backoff), and structured failure reports;
//! * [`faults`] — deterministic fault injection (panics, stalls, flaky
//!   items, output/NaN/file corruption) for exercising the supervisor;
//! * [`degrade`] — the [`DegradedOutcome`] every engine run returns, with
//!   its one per-unit [`QualityMap`]: each unit's typed defects (repaired
//!   or not) and the ladder level of its committed bytes;
//! * [`deadline`] — deadline-aware admission control for
//!   [`ExecPolicy::Brownout`]: wall-clock [`DeadlineBudget`]s and an
//!   EWMA controller with hard-deadline shedding and a per-unit circuit
//!   breaker;
//! * [`durable`] — crash-consistent persistence: atomic whole-file
//!   replacement and an append-only checksummed journal with torn-tail
//!   recovery;
//! * [`metrics`] — the process-wide observability plane: a registry of
//!   typed counters/gauges/log2 histograms (lock-free hot path), snapshot
//!   merge/delta, and Prometheus text exposition;
//! * [`backoff`] — client-side retry pacing: decorrelated-jitter backoff
//!   schedules and a token-bucket [`RetryBudget`] that prevents retry
//!   storms against a dying server;
//! * [`timing`] — warmup/repeat wall-clock measurement;
//! * [`ds`] — the paper's "scaled, relative difference" metric;
//! * [`table`] — paper-figure-shaped result tables (text/Markdown/CSV);
//! * [`cli`] — a tiny dependency-free argument parser for the experiment
//!   binaries.

#![warn(missing_docs)]

pub mod backoff;
pub mod cli;
pub mod deadline;
pub mod degrade;
pub mod ds;
pub mod durable;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod supervise;
pub mod table;
pub mod timing;

pub use backoff::{DecorrelatedJitter, RetryBudget};
pub use cli::{Args, FigArgs};
pub use deadline::{DeadlineBudget, DowngradeReason};
pub use degrade::{Defect, DefectKind, DegradedOutcome, QualityEntry, QualityMap};
pub use ds::{format_ds, scaled_relative_difference};
pub use durable::{write_atomic, write_atomic_with, Journal, JournalRecovery};
pub use engine::{
    items_for_thread, DisjointSlots, ExecPolicy, Executor, Schedule, UnitKernel, WorkPlan,
};
pub use faults::{FaultKind, FaultPlan, FaultRates, FaultyFile, IoFaultPlan, IoFaultRates};
pub use metrics::{
    encode_prometheus, validate_prometheus_text, Counter, Gauge, HistogramSnapshot, LazyCounter,
    LazyGauge, LazyHistogram, Log2Histogram, MetricValue, Registry, Snapshot,
};
pub use supervise::{CancelToken, ItemFailure, RunReport, SupervisorConfig};
pub use table::PaperTable;
pub use timing::{measure, time_once, TimingStats};
