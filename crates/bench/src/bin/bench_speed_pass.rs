//! Before/after throughput for the raw-speed pass, emitted as JSON
//! (committed at the repo root as `BENCH_speed_pass.json`).
//!
//! "before" is the exact configuration ([`TapConfig::exact`]: bit-exact
//! `expf` weights on the widest detected SIMD tier); "after" is the
//! configuration under test: `--weight` on the `--simd` tier. Each layout,
//! Hilbert included, runs one volume on both sides and reads it through
//! its table-driven `index()`, so only the weights differ, and the
//! trilinear rows, which have none, act as a noise floor. The committed
//! JSON predates that: its Hilbert "before" rows also paid an
//! O(bits)-per-step cursor. Unlike `bench_baseline`, the after-side output
//! is *tolerance*-equal, not bitwise-equal, so every after row is diffed
//! against the exact oracle and the binary fails if the max abs error
//! leaves the documented budget — which is 0 for `--weight exact`, so
//! `--weight exact --simd scalar` checks that the scalar tier gives the
//! detected tier's bits.
//!
//! `cargo run -p sfc-bench --release --bin bench_speed_pass --
//!  [--size 32] [--reps 3] [--weight lut|fastexp|exact]
//!  [--simd auto|scalar|sse2|avx2] [--out FILE]`

use std::io::Write;
use std::time::Instant;

use sfc_core::{
    ArrayOrder3, Axis, Dims3, Grid3, HilbertOrder3, StencilOrder, StencilSize, Tiled3, Volume3,
    ZOrder3,
};
use sfc_filters::{
    bilateral3d, detect_tier, BilateralParams, FilterRun, SimdTier, TapConfig, WeightMode,
};
use sfc_harness::Args;
use sfc_volrend::{vec3, CellSampler};

/// Output error budget vs the exact oracle (unit-range data); matches the
/// bound asserted by `crates/filters/tests/fastmath_oracle.rs`.
const TOL: f32 = 1e-4;

/// Best-of-`reps` wall-clock for `f`, in seconds.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn run_for(size: StencilSize, weight: TapConfig) -> FilterRun {
    FilterRun {
        params: BilateralParams::for_size(size, StencilOrder::Xyz),
        pencil_axis: Axis::X,
        nthreads: 1,
        weight,
    }
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// (before, after, max_abs_err): exact weights vs the fast config on
/// `vol`, plus the after-output's max abs deviation from the exact oracle.
fn bilateral_pair<V: Volume3 + Sync>(
    vol: &V,
    size: StencilSize,
    fast: TapConfig,
    reps: usize,
) -> (f64, f64, f32) {
    let voxels = vol.dims().len() as f64;
    let exact_run = run_for(size, TapConfig::exact());
    let fast_run = run_for(size, fast);
    let before = best_of(reps, || {
        std::hint::black_box(bilateral3d::<_, ZOrder3>(vol, &exact_run));
    });
    let after = best_of(reps, || {
        std::hint::black_box(bilateral3d::<_, ZOrder3>(vol, &fast_run));
    });
    let want: Grid3<f32, ZOrder3> = bilateral3d(vol, &exact_run);
    let got: Grid3<f32, ZOrder3> = bilateral3d(vol, &fast_run);
    let err = max_abs_diff(&want.to_row_major(), &got.to_row_major());
    (voxels / before, voxels / after, err)
}

/// Samples/sec for a sub-voxel diagonal march with a per-ray sampler.
fn trilinear_rate<V: Volume3>(vol: &V, reps: usize) -> f64 {
    let origin = vec3(1.0, 1.5, 2.0);
    let dir = vec3(1.0, 0.9, 0.8).normalized();
    let nsteps = 120usize;
    let rounds = 2000usize;
    let rate = best_of(reps, || {
        let mut acc = 0.0f32;
        for _ in 0..rounds {
            let mut sampler = CellSampler::new(vol);
            for s in 0..nsteps {
                acc += sampler.sample(origin + dir * (s as f32 * 0.5));
            }
        }
        std::hint::black_box(acc);
    });
    (nsteps * rounds) as f64 / rate
}

struct Row {
    bench: &'static str,
    layout: &'static str,
    config: &'static str,
    unit: &'static str,
    before: f64,
    after: f64,
    max_abs_err: f32,
}

fn main() {
    let args = Args::from_env();
    let n = args.get_usize("size", 32);
    let reps = args.get_usize("reps", 3);
    let out_path = args.get_str("out", "BENCH_speed_pass.json").to_string();
    let mode = {
        let s = args.get_str("weight", "lut").to_string();
        WeightMode::parse(&s).unwrap_or_else(|| {
            eprintln!("error: bad --weight {s:?} (exact|lut|fastexp)");
            std::process::exit(2);
        })
    };
    let tier = {
        let s = args.get_str("simd", "auto").to_string();
        if s == "auto" {
            detect_tier()
        } else {
            let t = SimdTier::parse(&s).unwrap_or_else(|| {
                eprintln!("error: bad --simd {s:?} (auto|scalar|sse2|avx2)");
                std::process::exit(2);
            });
            TapConfig { mode, tier: t }.clamped().tier
        }
    };
    let fast = TapConfig { mode, tier };

    let dims = Dims3::cube(n);
    let values = sfc_datagen::mri_phantom(dims, 3, sfc_datagen::PhantomParams::default());
    let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
    let z: Grid3<f32, ZOrder3> = a.convert();
    let t: Grid3<f32, Tiled3> = a.convert();
    let h: Grid3<f32, HilbertOrder3> = a.convert();

    let mut worst_err = 0.0f32;
    let mut rows: Vec<Row> = Vec::new();
    for size in StencilSize::ALL {
        let label = size.label();
        let mut push = |layout: &'static str, (b, aft, err): (f64, f64, f32)| {
            rows.push(Row {
                bench: "bilateral",
                layout,
                config: label,
                unit: "voxels_per_sec",
                before: b,
                after: aft,
                max_abs_err: err,
            });
            eprintln!(
                "bilateral {layout} {label}: {b:.3e} -> {aft:.3e} ({:.2}x, err {err:.2e})",
                aft / b
            );
        };
        push("a-order", bilateral_pair(&a, size, fast, reps));
        push("z-order", bilateral_pair(&z, size, fast, reps));
        push("tiled", bilateral_pair(&t, size, fast, reps));
        push("hilbert", bilateral_pair(&h, size, fast, reps));
    }
    worst_err = rows
        .iter()
        .map(|r| r.max_abs_err)
        .fold(worst_err, f32::max);

    // Trilinear: no weights, so each row runs the same code on both sides
    // and acts as a noise floor.
    for (layout, before, after) in [
        (
            "a-order",
            trilinear_rate(&a, reps),
            trilinear_rate(&a, reps),
        ),
        (
            "z-order",
            trilinear_rate(&z, reps),
            trilinear_rate(&z, reps),
        ),
        ("tiled", trilinear_rate(&t, reps), trilinear_rate(&t, reps)),
        (
            "hilbert",
            trilinear_rate(&h, reps),
            trilinear_rate(&h, reps),
        ),
    ] {
        rows.push(Row {
            bench: "trilinear",
            layout,
            config: "diag-march",
            unit: "samples_per_sec",
            before,
            after,
            max_abs_err: 0.0,
        });
        eprintln!("trilinear {layout}: {before:.3e} -> {after:.3e} ({:.2}x)", after / before);
    }

    let budget = if mode == WeightMode::Exact { 0.0 } else { TOL };
    if worst_err > budget {
        eprintln!("error: max abs error {worst_err:.3e} exceeds budget {budget:.1e}");
        std::process::exit(1);
    }
    eprintln!("oracle check: max abs error {worst_err:.3e} within {budget:.1e}");

    // Hand-rolled JSON (the workspace has no serializer dependency).
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"size\": {n},\n  \"reps\": {reps},\n"));
    s.push_str(&format!(
        "  \"note\": \"before = exact weights on {} tier; after = {} weights on {} tier; after diffed vs exact oracle (budget {:.0e})\",\n",
        detect_tier().name(),
        mode.name(),
        tier.name(),
        budget
    ));
    s.push_str(&format!(
        "  \"weight_mode\": \"{}\",\n  \"simd_tier\": \"{}\",\n  \"max_abs_err\": {:.3e},\n",
        mode.name(),
        tier.name(),
        worst_err
    ));
    s.push_str("  \"rows\": [\n");
    for (idx, r) in rows.iter().enumerate() {
        let sep = if idx + 1 == rows.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"bench\": \"{}\", \"layout\": \"{}\", \"config\": \"{}\", \"unit\": \"{}\", \"before\": {:.1}, \"after\": {:.1}, \"speedup\": {:.3}, \"max_abs_err\": {:.3e}}}{}\n",
            r.bench, r.layout, r.config, r.unit, r.before, r.after, r.after / r.before,
            r.max_abs_err, sep
        ));
    }
    s.push_str("  ]\n}\n");
    match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(s.as_bytes())) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
