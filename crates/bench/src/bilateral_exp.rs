//! Shared machinery for the bilateral-filter figures (paper Figs. 2–3).

use sfc_core::{ArrayOrder3, Axis, Dims3, Grid3, SfcResult, StencilOrder, StencilSize, ZOrder3};
use sfc_datagen::{mri_phantom, PhantomParams};
use sfc_filters::{config_label, simulate_bilateral_counters, BilateralParams};
use sfc_harness::{scaled_relative_difference, PaperTable};
use sfc_memsim::Platform;

use crate::checkpoint::{cell_through, Checkpoint};

/// The paper's six bilateral rows: each stencil size in its friendly
/// (`px xyz`) and hostile (`pz zyx`) configuration.
pub fn paper_rows() -> Vec<(StencilSize, Axis, StencilOrder)> {
    StencilSize::ALL
        .into_iter()
        .flat_map(|s| {
            [
                (s, Axis::X, StencilOrder::Xyz),
                (s, Axis::Z, StencilOrder::Zyx),
            ]
        })
        .collect()
}

/// Both layouts of the MRI-phantom input volume.
pub struct BilateralInputs {
    /// Array-order copy.
    pub a: Grid3<f32, ArrayOrder3>,
    /// Z-order copy (identical logical contents).
    pub z: Grid3<f32, ZOrder3>,
}

/// Synthesize the phantom once and lay it out both ways.
pub fn build_inputs(n: usize, seed: u64) -> BilateralInputs {
    let dims = Dims3::cube(n);
    let values = mri_phantom(dims, seed, PhantomParams::default());
    let a: Grid3<f32, ArrayOrder3> = Grid3::from_row_major(dims, &values);
    let z: Grid3<f32, ZOrder3> = a.convert();
    BilateralInputs { a, z }
}

/// One figure: `ds` of modeled runtime (left panel) and of the platform
/// counter (right panel), rows × thread-count columns, plus an auxiliary
/// L2-total-accesses panel (see EXPERIMENTS.md: in an idealized LRU
/// hierarchy without prefetchers, part of the effect the paper measured at
/// the L2→L3 boundary appears one level up, at L1→L2).
pub struct BilateralFigure {
    /// Modeled-runtime `ds` table (paper's left panel).
    pub runtime_ds: PaperTable,
    /// Counter `ds` table (paper's right panel).
    pub counter_ds: PaperTable,
    /// Auxiliary: `ds` of total L2 accesses (= L1 misses).
    pub l2_accesses_ds: PaperTable,
}

/// Run the full figure grid. `progress` prints one line per cell to stderr.
pub fn run_bilateral_figure(
    inputs: &BilateralInputs,
    rows: &[(StencilSize, Axis, StencilOrder)],
    threads: &[usize],
    platform: &Platform,
    progress: bool,
) -> BilateralFigure {
    run_bilateral_figure_resumable(inputs, rows, threads, platform, progress, "", &mut None)
        .expect("sweep without a checkpoint cannot fail")
}

/// [`run_bilateral_figure`] with checkpoint/resume: each completed cell is
/// persisted to `ckpt` (when `Some`) under a key derived from `tag`, the
/// platform, the row configuration, and the thread count; on restart,
/// cells already on record are served from the file instead of being
/// re-simulated. Pass a `tag` that pins everything else the cell depends
/// on (figure id, volume size, seed) so a checkpoint is never replayed
/// against different inputs.
#[allow(clippy::too_many_arguments)]
pub fn run_bilateral_figure_resumable(
    inputs: &BilateralInputs,
    rows: &[(StencilSize, Axis, StencilOrder)],
    threads: &[usize],
    platform: &Platform,
    progress: bool,
    tag: &str,
    ckpt: &mut Option<Checkpoint>,
) -> SfcResult<BilateralFigure> {
    let row_labels: Vec<String> = rows
        .iter()
        .map(|&(s, a, o)| config_label(s, a, o))
        .collect();
    let col_labels: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
    let mut runtime_ds = PaperTable::new(
        format!("Runtime (modeled), scaled relative difference Z- vs A-order — {}", platform.name),
        "config",
        row_labels.clone(),
        col_labels.clone(),
    );
    let mut counter_ds = PaperTable::new(
        format!("{}, scaled relative difference Z- vs A-order — {}", platform.counter_name, platform.name),
        "config",
        row_labels.clone(),
        col_labels.clone(),
    );
    let mut l2_accesses_ds = PaperTable::new(
        format!("L2 total accesses (= L1 misses), scaled relative difference — {}", platform.name),
        "config",
        row_labels,
        col_labels,
    );

    for (r, &(size, axis, order)) in rows.iter().enumerate() {
        let params = BilateralParams::for_size(size, order);
        for (c, &nthreads) in threads.iter().enumerate() {
            let key = format!(
                "{tag}|{}|{}|t{nthreads}",
                platform.name,
                config_label(size, axis, order)
            );
            let (cell, resumed) = cell_through(ckpt, &key, || {
                let rep_a =
                    simulate_bilateral_counters(&inputs.a, &params, axis, nthreads, platform);
                let rep_z =
                    simulate_bilateral_counters(&inputs.z, &params, axis, nthreads, platform);
                vec![
                    scaled_relative_difference(
                        rep_a.modeled_runtime_cycles(&platform.cost),
                        rep_z.modeled_runtime_cycles(&platform.cost),
                    ),
                    scaled_relative_difference(
                        platform.counter_value(&rep_a) as f64,
                        platform.counter_value(&rep_z) as f64,
                    ),
                    scaled_relative_difference(
                        rep_a.total().l2.accesses as f64,
                        rep_z.total().l2.accesses as f64,
                    ),
                ]
            })?;
            if cell.len() != 3 {
                return Err(sfc_core::SfcError::Corrupt {
                    what: "checkpoint cell".to_string(),
                    reason: format!("key '{key}' holds {} values, expected 3", cell.len()),
                });
            }
            let (rt, cnt) = (cell[0], cell[1]);
            runtime_ds.set(r, c, rt);
            counter_ds.set(r, c, cnt);
            l2_accesses_ds.set(r, c, cell[2]);
            if progress {
                eprintln!(
                    "  [{}] threads={nthreads:<4} ds(runtime)={rt:6.2} ds(counter)={cnt:8.2}{}",
                    config_label(size, axis, order),
                    if resumed { "  (resumed)" } else { "" }
                );
            }
        }
    }
    Ok(BilateralFigure {
        runtime_ds,
        counter_ds,
        l2_accesses_ds,
    })
}

/// Measure native wall-clock per row (both layouts) at one thread count.
/// Returns a table with columns `a-order (ms)`, `z-order (ms)`, `ds`.
pub fn native_row_times(
    inputs: &BilateralInputs,
    rows: &[(StencilSize, Axis, StencilOrder)],
    nthreads: usize,
    reps: usize,
) -> PaperTable {
    let row_labels: Vec<String> = rows
        .iter()
        .map(|&(s, a, o)| config_label(s, a, o))
        .collect();
    let mut t = PaperTable::new(
        format!("Native wall-clock (median of {reps}), {nthreads} threads"),
        "config",
        row_labels,
        vec!["a-order ms".into(), "z-order ms".into(), "ds".into()],
    );
    for (r, &(size, axis, order)) in rows.iter().enumerate() {
        let run = sfc_filters::FilterRun {
            params: BilateralParams::for_size(size, order),
            pencil_axis: axis,
            weight: Default::default(),
            nthreads,
        };
        let ta = sfc_harness::measure(0, reps, || {
            let out: Grid3<f32, ArrayOrder3> = sfc_filters::bilateral3d(&inputs.a, &run);
            std::hint::black_box(out);
        })
        .median_secs();
        let tz = sfc_harness::measure(0, reps, || {
            let out: Grid3<f32, ArrayOrder3> = sfc_filters::bilateral3d(&inputs.z, &run);
            std::hint::black_box(out);
        })
        .median_secs();
        t.set(r, 0, ta * 1e3);
        t.set(r, 1, tz * 1e3);
        t.set(r, 2, scaled_relative_difference(ta, tz));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_memsim::{platform, scaled};

    #[test]
    fn rows_match_paper_layout() {
        let rows = paper_rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0], (StencilSize::R1, Axis::X, StencilOrder::Xyz));
        assert_eq!(rows[5], (StencilSize::R5, Axis::Z, StencilOrder::Zyx));
    }

    #[test]
    fn tiny_figure_has_expected_shape_and_signs() {
        let inputs = build_inputs(16, 7);
        let plat = scaled(&platform::ivy_bridge(), 15);
        let rows = [(StencilSize::R1, Axis::Z, StencilOrder::Zyx)];
        let fig = run_bilateral_figure(&inputs, &rows, &[2, 4], &plat, false);
        assert_eq!(fig.counter_ds.cells.len(), 1);
        assert_eq!(fig.counter_ds.cells[0].len(), 2);
        // Hostile configuration: Z-order should win the counter at least.
        assert!(fig.counter_ds.get(0, 0) > 0.0);
    }
}
