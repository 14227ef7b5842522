//! # sfc-bench — paper figure reproduction
//!
//! One binary per evaluation figure (run with `--release`):
//!
//! | binary | paper figure | contents |
//! |---|---|---|
//! | `fig1_alignment` | Fig. 1 | ray/layout alignment illustration, quantified |
//! | `fig2_bilateral_ivb` | Fig. 2 | bilateral `ds` grid, Ivy Bridge model |
//! | `fig3_bilateral_mic` | Fig. 3 | bilateral `ds` grid, MIC model |
//! | `fig4_volrend_orbit` | Fig. 4 | per-viewpoint absolute series |
//! | `fig5_volrend_ivb` | Fig. 5 | volrend `ds` grid, Ivy Bridge model |
//! | `fig6_volrend_mic` | Fig. 6 | volrend `ds` grid, MIC model |
//!
//! Common flags: `--size N` (volume edge, default 64), `--csv DIR`
//! (persist tables), `--quick` (reduced grid for smoke runs),
//! `--native` (additionally measure native wall-clock per row),
//! `--checkpoint FILE` (figs. 2/3/5/6: persist each completed grid cell
//! durably and skip it on restart — see [`checkpoint`]), and the fault
//! flags `--fault-seed N --panic-rate P --flaky-rate P --timeout-rate P
//! --corrupt-rate P` (run the real kernel once under the
//! graceful-degradation driver with injected faults — see [`faultrun`]).
//!
//! Speed is measured elsewhere: the benchmark ledger (`bench_ledger/`)
//! times every layer through one driver, and its per-layer rows
//! (`--trace 1`) are the ablations DESIGN.md §5 lists.

#![warn(missing_docs)]

pub mod bilateral_exp;
pub mod checkpoint;
pub mod faultrun;
pub mod loadgen;
pub mod output;
pub mod volrend_exp;

pub use bilateral_exp::{
    build_inputs as build_bilateral_inputs, paper_rows, run_bilateral_figure,
    run_bilateral_figure_resumable, BilateralFigure, BilateralInputs,
};
pub use checkpoint::{cell_through, checkpoint_from_args, ok_or_exit, Checkpoint, CheckpointRecovery};
pub use faultrun::{bilateral_fault_demo, contaminate_volume_pair, volrend_fault_demo};
pub use loadgen::Tally;
pub use output::{banner, emit_figure};
pub use volrend_exp::{
    build_inputs as build_volrend_inputs, ortho_orbit, paper_orbit, run_orbit_series,
    run_volrend_figure, run_volrend_figure_resumable, OrbitSeries, VolrendFigure,
    VolrendInputs,
};
