//! A resumed sweep serves every cell from its checkpoint.
//!
//! Each figure runs once at a tiny size with a checkpoint. The checkpoint
//! is then reopened, as a restarted process would, and the sweep rerun
//! under the same tag against inputs of another size. The cell keys pin
//! the inputs only through the tag, so a recomputed cell would read the
//! other inputs; the three tables equal the first run's bit for bit only
//! when every cell came from the journal. A run without a checkpoint on
//! the other inputs shows that they do change the tables.

use std::path::{Path, PathBuf};

use sfc_bench::{
    build_bilateral_inputs, build_volrend_inputs, paper_orbit, run_bilateral_figure,
    run_bilateral_figure_resumable, run_volrend_figure, run_volrend_figure_resumable, Checkpoint,
};
use sfc_core::{Axis, StencilOrder, StencilSize};
use sfc_harness::PaperTable;
use sfc_memsim::{platform, scaled};
use sfc_volrend::RenderOpts;

/// A fresh checkpoint name under the temp dir, with no journal beside it.
fn fresh_checkpoint(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sfc_resume_{}_{tag}", std::process::id()));
    remove(&path);
    path
}

fn remove(path: &Path) {
    let mut journal = path.as_os_str().to_owned();
    journal.push(".journal");
    std::fs::remove_file(path).ok();
    std::fs::remove_file(journal).ok();
}

fn bits(tables: [&PaperTable; 3]) -> Vec<Vec<Vec<u64>>> {
    tables
        .iter()
        .map(|t| {
            t.cells
                .iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect()
        })
        .collect()
}

#[test]
fn resumed_bilateral_sweep_serves_every_cell_from_its_checkpoint() {
    let path = fresh_checkpoint("bilateral");
    let plat = scaled(&platform::ivy_bridge(), 15);
    let rows = [
        (StencilSize::R1, Axis::X, StencilOrder::Xyz),
        (StencilSize::R1, Axis::Z, StencilOrder::Zyx),
    ];
    let threads = [2, 4];
    let tag = "resume-test n16 seed7";

    let inputs = build_bilateral_inputs(16, 7);
    let mut ckpt = Some(Checkpoint::open(&path).unwrap());
    let first =
        run_bilateral_figure_resumable(&inputs, &rows, &threads, &plat, false, tag, &mut ckpt)
            .unwrap();
    drop(ckpt);

    let other = build_bilateral_inputs(12, 8);
    let mut resumed = Some(Checkpoint::open(&path).unwrap());
    assert_eq!(resumed.as_ref().unwrap().len(), rows.len() * threads.len());
    let second =
        run_bilateral_figure_resumable(&other, &rows, &threads, &plat, false, tag, &mut resumed)
            .unwrap();
    let recomputed = run_bilateral_figure(&other, &rows, &threads, &plat, false);

    let tables =
        |f: &sfc_bench::BilateralFigure| bits([&f.runtime_ds, &f.counter_ds, &f.l2_accesses_ds]);
    assert_eq!(
        tables(&second),
        tables(&first),
        "a resumed cell was recomputed"
    );
    assert_ne!(
        tables(&recomputed),
        tables(&first),
        "the other inputs must change the tables"
    );
    remove(&path);
}

#[test]
fn resumed_volrend_sweep_serves_every_cell_from_its_checkpoint() {
    let path = fresh_checkpoint("volrend");
    let plat = scaled(&platform::ivy_bridge(), 15);
    let cams = &paper_orbit(16, 16)[..2];
    let opts = RenderOpts {
        tile: 8,
        ..Default::default()
    };
    let threads = [2, 4];
    let tag = "resume-test n16 img16 tile8 seed7";

    let inputs = build_volrend_inputs(16, 7);
    let mut ckpt = Some(Checkpoint::open(&path).unwrap());
    let first =
        run_volrend_figure_resumable(&inputs, cams, &opts, &threads, &plat, false, tag, &mut ckpt)
            .unwrap();
    drop(ckpt);

    let other = build_volrend_inputs(12, 8);
    let mut resumed = Some(Checkpoint::open(&path).unwrap());
    assert_eq!(resumed.as_ref().unwrap().len(), cams.len() * threads.len());
    let second = run_volrend_figure_resumable(
        &other,
        cams,
        &opts,
        &threads,
        &plat,
        false,
        tag,
        &mut resumed,
    )
    .unwrap();
    let recomputed = run_volrend_figure(&other, cams, &opts, &threads, &plat, false);

    let tables =
        |f: &sfc_bench::VolrendFigure| bits([&f.runtime_ds, &f.counter_ds, &f.l2_accesses_ds]);
    assert_eq!(
        tables(&second),
        tables(&first),
        "a resumed cell was recomputed"
    );
    assert_ne!(
        tables(&recomputed),
        tables(&first),
        "the other inputs must change the tables"
    );
    remove(&path);
}
