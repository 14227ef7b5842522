//! The two batch workloads: the paper's kernels run back to back on one
//! input held in all four layouts, one caller, closed loop.
//!
//! Every cycle first builds the input afresh — generation plus conversion
//! into the four layouts, the workload's set-up — and then covers every
//! layout, in an order that rotates from cycle to cycle so no layout always
//! runs first. `setup_s` is the mean build. Timing a build in every
//! cycle, rather than a few back to back before the first, spreads the
//! builds over the run: on a shared host a process can run 1.5× slower
//! for a second or more at a time, and builds made in a row all land in
//! the same spell. Throughput counts kernel calls (a
//! filter pass or a rendered frame) per second of kernel time. Every cycle
//! runs each configuration or viewpoint once on every layout, so
//! `latency_ms`, the mean call time, weighs them all alike, and
//! `layout_ms.<layout>`, the mean over one layout's calls, is the paper's
//! per-layout comparison.

use std::time::{Duration, Instant};

use sfc_core::{ArrayOrder3, Axis, Dims3, Grid3, StencilOrder, StencilSize};
use sfc_datagen::{combustion_field, mri_phantom, CombustionParams, PhantomParams};
use sfc_filters::{bilateral3d, BilateralParams, FilterRun, TapConfig};
use sfc_harness::Schedule;
use sfc_server::image_bytes;
use sfc_volrend::{render, RenderOpts, TransferFunction};

use crate::catalog::{Report, FILTER_CONFIGS};
use crate::stats::{mean, median, LayoutMeans};
use crate::verify::{hash_bytes, hash_f32, Agreement};
use crate::vols::{all_layouts, on_volume};

/// Worker threads per kernel call (the host has two cores).
pub const THREADS: usize = 2;

/// The two filter configurations: Fig 2's friendly and hostile rows.
pub fn filter_runs(nthreads: usize) -> [FilterRun; 2] {
    let run = |size, axis, order| FilterRun {
        params: BilateralParams::for_size(size, order),
        pencil_axis: axis,
        nthreads,
        weight: TapConfig::default(),
    };
    [
        run(StencilSize::R1, Axis::X, StencilOrder::Xyz),
        run(StencilSize::R3, Axis::Z, StencilOrder::Zyx),
    ]
}

/// Render options of the orbit workload: 32-pixel tiles, dynamic schedule,
/// and no early ray termination (opacity never exceeds 1), so every ray
/// marches the full depth and a frame's work depends on the viewpoint
/// only, not on the seeded field.
pub fn render_opts(nthreads: usize) -> RenderOpts {
    RenderOpts {
        tile: 32,
        nthreads,
        schedule: Schedule::Dynamic,
        early_termination: 2.0,
        ..RenderOpts::default()
    }
}

/// Set-up and call times of a closed loop.
struct Loop {
    /// Set-up times in seconds, one per cycle.
    setup_s: Vec<f64>,
    /// Cycle times in ms, without the set-up.
    cycle_ms: Vec<f64>,
    calls: u64,
    busy: Duration,
    correct: u64,
    /// Times in ms of the calls that verified, by layout.
    times: LayoutMeans,
    cycles: usize,
}

impl Loop {
    fn new() -> Self {
        Loop {
            setup_s: Vec::with_capacity(256),
            cycle_ms: Vec::with_capacity(256),
            calls: 0,
            busy: Duration::ZERO,
            correct: 0,
            times: LayoutMeans::default(),
            cycles: 0,
        }
    }

    /// Run cycles for about `seconds`. Each builds its input with
    /// `set_up` (the previous cycle's input is dropped first, so only one
    /// is alive at a time); `op(input, layout, k)` then runs the `k`th
    /// operation of a layout's share and returns its time and whether its
    /// output verified.
    fn run<T>(
        &mut self,
        seconds: f64,
        ops_per_layout: usize,
        report: &mut Report,
        mut set_up: impl FnMut() -> T,
        mut op: impl FnMut(&T, usize, usize) -> (Duration, bool),
    ) {
        let start = Instant::now();
        let mut last = Duration::ZERO;
        let mut input = None;
        // Start a cycle only when it should end within `seconds`.
        while self.cycles == 0 || (start.elapsed() + last).as_secs_f64() <= seconds {
            let began = Instant::now();
            drop(input.take());
            let t0 = Instant::now();
            let input = input.insert(set_up());
            self.setup_s.push(t0.elapsed().as_secs_f64());
            let mut cycle = Duration::ZERO;
            for r in 0..4 {
                let l = (self.cycles + r) % 4;
                for k in 0..ops_per_layout {
                    let (dt, ok) = op(input, l, k);
                    report.count(ok);
                    self.calls += 1;
                    self.busy += dt;
                    cycle += dt;
                    self.correct += u64::from(ok);
                    if ok {
                        self.times.push(l, dt.as_secs_f64() * 1e3);
                    }
                }
            }
            self.cycle_ms.push(cycle.as_secs_f64() * 1e3);
            self.cycles += 1;
            last = began.elapsed();
        }
    }

    fn finish(&self, report: &mut Report) {
        report.set("setup_s", mean(&self.setup_s));
        report.set(
            "throughput_ops_s",
            self.correct as f64 / self.busy.as_secs_f64(),
        );
        report.set_times(&self.times);
        report.notes.push(format!(
            "loop cycles={} calls={} cycle_p50_ms={:.3} cycle_max_ms={:.3}",
            self.cycles,
            self.calls,
            median(&self.cycle_ms),
            self.cycle_ms.iter().copied().fold(0.0, f64::max)
        ));
    }
}

/// `filter_batch`: repeated bilateral passes over an MRI phantom, both
/// Fig 2 configurations on every layout each cycle.
pub fn filter_batch(n: usize, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let dims = Dims3::cube(n);
    report.notes.push(format!(
        "filter_batch n={n} volume_mib={:.1} threads={THREADS} configs={}",
        dims.len() as f64 * 4.0 / (1 << 20) as f64,
        FILTER_CONFIGS.join(",")
    ));

    let runs = filter_runs(THREADS);
    let mut agree = Agreement::default();
    let mut lp = Loop::new();
    let set_up = || all_layouts(dims, &mri_phantom(dims, seed, PhantomParams::default()));
    lp.run(seconds, runs.len(), &mut report, set_up, |vols, l, c| {
        let t0 = Instant::now();
        let out: Grid3<f32, ArrayOrder3> = on_volume!(&vols[l], |g| bilateral3d(g, &runs[c]));
        let dt = t0.elapsed();
        (dt, agree.check(FILTER_CONFIGS[c], hash_f32(out.storage())))
    });
    lp.finish(&mut report);
    report
}

/// `render_orbit`: the paper's 8-viewpoint orbit of a combustion field,
/// every layout each cycle.
pub fn render_orbit(n: usize, image: usize, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let dims = Dims3::cube(n);
    let cams = sfc_bench::paper_orbit(n, image);
    report.notes.push(format!(
        "render_orbit n={n} volume_mib={:.1} image={image} viewpoints={} threads={THREADS} schedule=dynamic",
        dims.len() as f64 * 4.0 / (1 << 20) as f64,
        cams.len()
    ));
    let tf = TransferFunction::fire();
    let opts = render_opts(THREADS);
    let mut agree = Agreement::default();
    let mut lp = Loop::new();
    let set_up = || {
        all_layouts(
            dims,
            &combustion_field(dims, seed, CombustionParams::default()),
        )
    };
    lp.run(seconds, cams.len(), &mut report, set_up, |vols, l, v| {
        let t0 = Instant::now();
        let img = on_volume!(&vols[l], |g| render(g, &cams[v], &tf, &opts));
        let dt = t0.elapsed();
        (
            dt,
            agree.check(&format!("vp{v}"), hash_bytes(&image_bytes(&img))),
        )
    });
    lp.finish(&mut report);
    report
}
