//! The traced pass: per-layer numbers from spans around calls into each
//! crate's public functions, made from the benchmark's own code.
//!
//! Every traced run measures every layer, so each workload's trace
//! carries the whole table; only the service replay depends on the
//! workload (its own traffic for `serve_*`, `serve_hot`'s otherwise). The
//! replay re-issues the first requests of the seeded stream through the
//! functions a request crosses inside the server, then sends the same
//! requests over one TCP connection; the gap between the two is the
//! network and front-end overhead. Tracing inside the server is later
//! work.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use sfc_core::{
    ArrayOrder3, Axis, Cursor3, Dims3, Grid3, Layout3, LayoutKind, StencilOrder, StencilSize,
    ZOrder3,
};
use sfc_datagen::{combustion_field, mri_phantom, save_volume, CombustionParams, PhantomParams};
use sfc_filters::{
    bilateral3d, simulate_bilateral_counters, try_bilateral3d_with_policy, BilateralParams,
};
use sfc_harness::{
    CancelToken, DeadlineBudget, ExecPolicy, FaultPlan, Journal, MetricValue, Schedule, Snapshot,
    SupervisorConfig,
};
use sfc_memsim::{ivy_bridge, mic_knc, scaled, shift_for_volume_edge};
use sfc_server::{
    f32_bytes, filter_run, image_bytes, render_setup, CachedVolume, LayoutChoice, OpKind, Request,
    VolumeCache, VolumeKey,
};
use sfc_store::{BrickStore, StoreOptions};
use sfc_volrend::{
    render, render_with_policy, simulate_render_counters, vec3, CellSampler, RenderOpts,
    TransferFunction,
};

use crate::batch::{filter_runs, render_opts, THREADS};
use crate::catalog::{Report, FILTER_CONFIGS};
use crate::serve::{delta, disk_bytes, expected_len, Running, ServeSpec, EXEC_THREADS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::verify::{hash_bytes, hash_f32, reply_problem, Agreement};
use crate::vols::{all_layouts, on_volume};
use crate::Scale;

/// Requests the service replay re-issues (full scale).
const REPLAY: u64 = 400;
/// Brick edge of the store probe, as the service's spill tier uses.
const BRICK: usize = 8;
/// Interleaved rounds of the filter and engine passes.
const ROUNDS: usize = 3;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run every layer probe; spans go to `t`.
pub fn run(
    scale: &Scale,
    spec: &ServeSpec,
    seed: u64,
    work: &Path,
    t: &mut Tracer,
) -> Result<Report, String> {
    let mut r = Report::default();
    let dir = crate::serve::fresh_dir(work, "trace")?;
    kernels(scale, seed, t, &mut r);
    memsim(scale.memsim_n, seed, &mut r);
    storage(spec, seed, &dir, t, &mut r)?;
    replay(
        spec,
        seed,
        if scale.smoke { 40 } else { REPLAY },
        &dir,
        t,
        &mut r,
    )?;
    r.set("store.disk_mb", disk_bytes(&dir) as f64 / (1 << 20) as f64);
    crate::serve::remove_dir(&dir)?;
    Ok(r)
}

/// Data generation, layout conversion, cursor steps, filter and render
/// passes, trilinear sampling, and the engine policies.
fn kernels(scale: &Scale, seed: u64, t: &mut Tracer, r: &mut Report) {
    let dims = Dims3::cube(scale.filter_n);
    let values = t.span("datagen.mri_phantom", None, |_| {
        mri_phantom(dims, seed, PhantomParams::default())
    });
    r.set("datagen.phantom_ms", t.ms("datagen.mri_phantom")[0]);

    let mut vols = Vec::new();
    for layout in LayoutChoice::ALL {
        let v = t.span("core.from_row_major", None, |_| {
            crate::vols::volume_in(layout, dims, &values)
        });
        vols.push(v);
        let conv = t.ms("core.from_row_major");
        r.set(
            format!("core.convert_ms.{}", layout.name()),
            conv[conv.len() - 1],
        );
    }

    // Cursor steps along every x pencil and every z pencil.
    for (vol, layout) in vols.iter().zip(LayoutChoice::ALL) {
        let steps = 2 * dims.len();
        let t0 = Instant::now();
        let sum = on_volume!(vol, |g| cursor_walk(g.layout(), dims));
        black_box(sum);
        r.set(
            format!("core.step_ns.{}", layout.name()),
            t0.elapsed().as_secs_f64() * 1e9 / steps as f64,
        );
    }

    // Every layout and configuration, then a one-thread pass, in
    // `ROUNDS` interleaved rounds; each metric is the median pass.
    let runs = filter_runs(THREADS);
    let one = filter_runs(1)[0];
    let mut agree = Agreement::default();
    let mut times = vec![Vec::new(); 2 * vols.len() + 1];
    for _ in 0..ROUNDS {
        for (l, vol) in vols.iter().enumerate() {
            for (c, run) in runs.iter().enumerate() {
                let t0 = Instant::now();
                let out: Grid3<f32, ArrayOrder3> = t.span("filters.bilateral3d", None, |_| {
                    on_volume!(vol, |g| bilateral3d(g, run))
                });
                times[2 * l + c].push(ms(t0.elapsed()));
                r.count(agree.check(FILTER_CONFIGS[c], hash_f32(out.storage())));
            }
        }
        let t0 = Instant::now();
        let out: Grid3<f32, ArrayOrder3> = t.span("filters.bilateral3d.t1", None, |_| {
            on_volume!(&vols[1], |g| bilateral3d(g, &one))
        });
        times[2 * vols.len()].push(ms(t0.elapsed()));
        r.count(agree.check(FILTER_CONFIGS[0], hash_f32(out.storage())));
    }
    for (l, layout) in LayoutChoice::ALL.iter().enumerate() {
        for (c, cfg) in FILTER_CONFIGS.iter().enumerate() {
            r.set(
                format!("filters.pass_ms.{}.{cfg}", layout.name()),
                median(&times[2 * l + c]),
            );
        }
    }
    let t1 = median(&times[2 * vols.len()]);
    r.set("filters.pass_ms.z.r1_px_xyz.t1", t1);
    r.set("filters.speedup_2t", t1 / median(&times[2]));

    engine_policies(&vols[1], dims, t, r);
    drop(vols);

    // Render: one orbit per layout.
    let rdims = Dims3::cube(scale.render_n);
    let field = t.span("datagen.combustion_field", None, |_| {
        combustion_field(rdims, seed, CombustionParams::default())
    });
    r.set("datagen.combustion_ms", t.ms("datagen.combustion_field")[0]);
    let rvols = all_layouts(rdims, &field);
    drop(field);
    let cams = sfc_bench::paper_orbit(scale.render_n, scale.image);
    let tf = TransferFunction::fire();
    let opts = render_opts(THREADS);
    for (vol, layout) in rvols.iter().zip(LayoutChoice::ALL) {
        let mut aligned = Vec::new();
        let mut oblique = Vec::new();
        for (v, cam) in cams.iter().enumerate() {
            let img = t.span("volrend.render", None, |_| {
                on_volume!(vol, |g| render(g, cam, &tf, &opts))
            });
            r.count(agree.check(&format!("vp{v}"), hash_bytes(&image_bytes(&img))));
            let frames = t.ms("volrend.render");
            // Viewpoints 0 and 4 look along x, array order's fast axis.
            let class = if v % 4 == 0 {
                &mut aligned
            } else {
                &mut oblique
            };
            class.push(frames[frames.len() - 1]);
        }
        r.set(
            format!("volrend.frame_ms.{}.aligned", layout.name()),
            median(&aligned),
        );
        r.set(
            format!("volrend.frame_ms.{}.oblique", layout.name()),
            median(&oblique),
        );

        let n = scale.render_n as f32;
        let (origin, dir) = (vec3(1.0, 1.5, 2.0), vec3(1.0, 0.9, 0.8).normalized());
        let nsteps = ((n - 3.0) * 2.0) as usize;
        let rounds = 200_000 / nsteps.max(1);
        let t0 = Instant::now();
        let acc = on_volume!(vol, |g| {
            let mut acc = 0.0f32;
            for _ in 0..rounds {
                let mut s = CellSampler::new(g);
                for k in 0..nsteps {
                    acc += s.sample(origin + dir * (k as f32 * 0.5));
                }
            }
            acc
        });
        black_box(acc);
        r.set(
            format!("volrend.sample_ns.{}", layout.name()),
            t0.elapsed().as_secs_f64() * 1e9 / (rounds * nsteps) as f64,
        );
    }
}

/// Sum of every index a cursor visits stepping along all x pencils, then
/// along all z pencils (each index passes through `black_box`, so the
/// walk cannot be folded into a closed form).
fn cursor_walk<L: Layout3>(layout: &L, dims: Dims3) -> usize {
    let mut sum = 0usize;
    for k in 0..dims.nz {
        for j in 0..dims.ny {
            let mut c = layout.cursor(0, j, k);
            sum = sum.wrapping_add(black_box(c.index()));
            for _ in 1..dims.nx {
                c.inc_x();
                sum = sum.wrapping_add(black_box(c.index()));
            }
        }
    }
    for j in 0..dims.ny {
        for i in 0..dims.nx {
            let mut c = layout.cursor(i, j, 0);
            sum = sum.wrapping_add(black_box(c.index()));
            for _ in 1..dims.nz {
                c.inc_z();
                sum = sum.wrapping_add(black_box(c.index()));
            }
        }
    }
    sum
}

/// The service's supervisor set-up for a quiet request (no faults, no
/// deadline: the watchdog stays off) on `nthreads` engine threads.
fn quiet_supervisor(nthreads: usize) -> SupervisorConfig {
    SupervisorConfig {
        nthreads,
        schedule: Schedule::Dynamic,
        timeout: None,
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        watchdog_poll: Duration::from_millis(2),
        cancel: CancelToken::new(),
    }
}

/// Radius-1 passes on the Z-order volume under each engine policy, in
/// interleaved rounds; every policy must reproduce `Plain`'s bytes.
fn engine_policies(vol: &CachedVolume, dims: Dims3, t: &mut Tracer, r: &mut Report) {
    let run = filter_run(1, THREADS);
    let policies = [
        ("plain", ExecPolicy::Plain),
        (
            "supervised",
            ExecPolicy::Supervised(quiet_supervisor(THREADS)),
        ),
        (
            "degraded",
            ExecPolicy::degraded(quiet_supervisor(THREADS), None),
        ),
        (
            "brownout",
            ExecPolicy::brownout(quiet_supervisor(THREADS), DeadlineBudget::none(), None),
        ),
    ];
    let mut agree = Agreement::default();
    let mut times = vec![Vec::new(); policies.len()];
    for _ in 0..ROUNDS {
        for ((_, policy), times) in policies.iter().zip(&mut times) {
            let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
            let t0 = Instant::now();
            let res = t.span("engine.pass", None, |_| {
                on_volume!(vol, |g| try_bilateral3d_with_policy(
                    g,
                    &mut out,
                    &run,
                    policy,
                    &FaultPlan::none()
                ))
            });
            times.push(ms(t0.elapsed()));
            let whole = res.is_ok_and(|o| o.output_is_whole());
            r.count(whole && agree.check("engine", hash_f32(out.storage())));
        }
    }
    for ((name, _), times) in policies.iter().zip(&times) {
        r.set(format!("engine.pass_ms.{name}"), median(times));
    }
}

/// Simulated cache counts of the paper's kernels: deterministic, and
/// independent of the seeded values (the access streams depend on
/// geometry only).
fn memsim(n: usize, seed: u64, r: &mut Report) {
    let dims = Dims3::cube(n);
    let ivb = scaled(&ivy_bridge(), shift_for_volume_edge(n));
    let mic = scaled(&mic_knc(), shift_for_volume_edge(n));
    let vols = all_layouts(dims, &mri_phantom(dims, seed, PhantomParams::default()));
    let configs = [
        (StencilSize::R1, Axis::X, StencilOrder::Xyz),
        (StencilSize::R3, Axis::Z, StencilOrder::Zyx),
    ];
    for (vol, layout) in vols.iter().zip(LayoutChoice::ALL) {
        for (&(size, axis, order), cfg) in configs.iter().zip(FILTER_CONFIGS) {
            let params = BilateralParams::for_size(size, order);
            let rep = on_volume!(vol, |g| simulate_bilateral_counters(
                g, &params, axis, THREADS, &ivb
            ));
            r.set(
                format!("memsim.l3_tca.filter.{}.{cfg}", layout.name()),
                ivb.counter_value(&rep) as f64,
            );
        }
        let (size, axis, order) = configs[1];
        let params = BilateralParams::for_size(size, order);
        let rep = on_volume!(vol, |g| simulate_bilateral_counters(
            g, &params, axis, THREADS, &mic
        ));
        r.set(
            format!("memsim.l2_fill.filter.{}.r3_pz_zyx", layout.name()),
            mic.counter_value(&rep) as f64,
        );
    }
    let rvols = all_layouts(
        dims,
        &combustion_field(dims, seed, CombustionParams::default()),
    );
    let cams = sfc_bench::paper_orbit(n, n);
    let tf = TransferFunction::fire();
    let opts = RenderOpts {
        tile: 8,
        ..render_opts(THREADS)
    };
    for (vol, layout) in rvols.iter().zip(LayoutChoice::ALL) {
        for vp in [0, 2] {
            let rep = on_volume!(vol, |g| simulate_render_counters(
                g, &cams[vp], &tf, &opts, THREADS, &ivb
            ));
            r.set(
                format!("memsim.l3_tca.render.{}.vp{vp}", layout.name()),
                ivb.counter_value(&rep) as f64,
            );
        }
    }
}

/// Brick-store import and fault-in, the volume cache's three paths, a
/// saved result and a journal record.
fn storage(
    spec: &ServeSpec,
    seed: u64,
    dir: &Path,
    t: &mut Tracer,
    r: &mut Report,
) -> Result<(), String> {
    let dims = Dims3::cube(spec.size);
    let values = mri_phantom(dims, seed, PhantomParams::default());
    let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
    let sdir = dir.join("store");
    let store = t
        .span("store.import", None, |_| {
            BrickStore::import(
                &sdir,
                &grid,
                BRICK,
                LayoutKind::ZOrder,
                StoreOptions::default(),
            )
        })
        .map_err(|e| format!("store import: {e}"))?;
    drop(store);
    r.set("store.import_ms", t.ms("store.import")[0]);
    let faulted = t.span("store.fault", None, |_| -> Result<Vec<f32>, String> {
        let store = BrickStore::open(&sdir, StoreOptions::default()).map_err(|e| e.to_string())?;
        let geom = *store.geom();
        let mut out = vec![0.0f32; dims.len()];
        for id in 0..geom.brick_count() {
            sfc_datagen::insert_brick(&geom, id, &store.brick(id), &mut out);
        }
        Ok(out)
    })?;
    r.count(hash_f32(&faulted) == hash_f32(&values));
    r.set("store.fault_ms", t.ms("store.fault")[0]);

    // The cache with a budget of four volumes: four builds fill it; four
    // more evict and spill them; faulting those back spills the second
    // four; faulting the second four back then reads spills without
    // writing any (their victims are already on disk).
    let cache = VolumeCache::with_spill(4 * dims.len() * 4, dir.join("spill"));
    let key = |k: u64| VolumeKey {
        size: spec.size,
        layout: LayoutChoice::Z,
        seed: seed.wrapping_add(k),
    };
    let timed = |k: u64| {
        let t0 = Instant::now();
        cache.get(&key(k));
        ms(t0.elapsed())
    };
    let build: Vec<f64> = (0..4).map(timed).collect();
    (4..8).chain(0..4).for_each(|k| {
        timed(k);
    });
    let spill: Vec<f64> = (4..8).map(timed).collect();
    let hit: Vec<f64> = [7; 4].into_iter().map(timed).collect();
    let stats = cache.stats();
    r.count(stats.spill_hits == 8 && stats.hits == 4 && stats.spill_corrupt == 0);
    r.set("cache.get_ms.hit", median(&hit));
    r.set("cache.get_ms.build", median(&build));
    r.set("cache.get_ms.spill", median(&spill));

    for i in 0..5 {
        let path = dir.join(format!("save-{i}.vol"));
        t.span("service.save_volume", None, |_| {
            save_volume(&path, dims, &values)
        })
        .map_err(|e| format!("save: {e}"))?;
    }
    r.set("service.save_ms", median(&t.ms("service.save_volume")));
    let (mut journal, _) =
        Journal::open(dir.join("probe-journal.bin")).map_err(|e| e.to_string())?;
    for i in 0..32 {
        let line = format!("serve tenant=ledger op=filter size={} seed={i}", spec.size);
        t.span("service.journal_append", None, |_| {
            journal.append(line.as_bytes())
        })
        .map_err(|e| format!("journal: {e}"))?;
    }
    let us: Vec<f64> = t
        .ms("service.journal_append")
        .iter()
        .map(|m| m * 1e3)
        .collect();
    r.set("service.journal_us", median(&us));
    Ok(())
}

/// Sum of the engine's per-unit latency histograms, in µs.
fn engine_busy_us(s: &Snapshot) -> u64 {
    s.iter()
        .filter(|(name, _)| name.starts_with("engine.unit_latency_us."))
        .map(|(_, v)| match v {
            MetricValue::Histogram(h) => h.sum,
            _ => 0,
        })
        .sum()
}

/// Replay the first `count` requests through the server's functions with
/// spans, then send them over one TCP connection; both must return the
/// same bytes.
fn replay(
    spec: &ServeSpec,
    seed: u64,
    count: u64,
    dir: &Path,
    t: &mut Tracer,
    r: &mut Report,
) -> Result<(), String> {
    let cache = match spec.durable {
        true => VolumeCache::with_spill(spec.cache_bytes, dir.join("replay-spill")),
        false => VolumeCache::new(spec.cache_bytes),
    };
    let (mut journal, _) =
        Journal::open(dir.join("replay-journal.bin")).map_err(|e| e.to_string())?;
    let mut hashes = Vec::with_capacity(count as usize);
    for idx in 0..count {
        let line = spec.request(seed, idx).format();
        let body = t.span("request", Some(idx), |t| -> Result<Vec<u8>, String> {
            let req = t
                .span("protocol.parse", Some(idx), |_| Request::parse(&line))
                .map_err(|e| e.to_string())?;
            let key = VolumeKey {
                size: req.size,
                layout: req.layout,
                seed: req.seed,
            };
            let (vol, _) = t.span("cache.get", Some(idx), |_| cache.get(&key));
            let policy =
                ExecPolicy::brownout(quiet_supervisor(EXEC_THREADS), DeadlineBudget::none(), None);
            let body = match req.op {
                OpKind::Filter { radius } => {
                    let dims = vol.dims();
                    let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
                    let run = filter_run(radius, EXEC_THREADS);
                    t.span("engine.filter", Some(idx), |_| {
                        on_volume!(&*vol, |g| try_bilateral3d_with_policy(
                            g,
                            &mut out,
                            &run,
                            &policy,
                            &FaultPlan::none()
                        ))
                    })
                    .map_err(|e| e.to_string())?;
                    t.span("protocol.encode", Some(idx), |_| {
                        f32_bytes(&out.to_row_major())
                    })
                }
                OpKind::Render { image, tile } => {
                    let (cam, tf, opts) = render_setup(req.size, image, tile, EXEC_THREADS);
                    let (img, _) = t
                        .span("engine.render", Some(idx), |_| {
                            on_volume!(&*vol, |g| render_with_policy(
                                g,
                                &cam,
                                &tf,
                                &opts,
                                &policy,
                                &FaultPlan::none()
                            ))
                        })
                        .map_err(|e| e.to_string())?;
                    t.span("protocol.encode", Some(idx), |_| image_bytes(&img))
                }
            };
            if req.save {
                let dims = match req.op {
                    OpKind::Filter { .. } => vol.dims(),
                    OpKind::Render { image, .. } => Dims3::new(image, image, 4),
                };
                let values = sfc_server::bytes_f32(&body).map_err(|e| e.to_string())?;
                let path = dir.join(format!("replay-{idx}.vol"));
                t.span("service.save_volume", Some(idx), |_| {
                    save_volume(&path, dims, &values)
                })
                .map_err(|e| e.to_string())?;
            }
            if spec.durable {
                t.span("service.journal_append", Some(idx), |_| {
                    journal.append(line.as_bytes())
                })
                .map_err(|e| e.to_string())?;
            }
            Ok(body)
        })?;
        hashes.push(hash_bytes(&body));
    }
    r.set("protocol.parse_us", median(&t.ms("protocol.parse")) * 1e3);
    r.set("protocol.encode_us", median(&t.ms("protocol.encode")) * 1e3);

    // The same requests over one TCP connection.
    let running = Running::start(spec, &dir.join("server"))?;
    let mut client = running.client()?;
    let before = running.svc.metrics_snapshot();
    for idx in 0..count {
        let req = spec.request(seed, idx);
        let reply = t.span("tcp.request", Some(idx), |_| client.request(&req));
        let ok = match reply {
            Ok((header, body)) => reply_problem(
                &header,
                &body,
                expected_len(&req),
                Some(hashes[idx as usize]),
            )
            .is_none(),
            Err(_) => false,
        };
        r.count(ok);
    }
    let after = running.svc.metrics_snapshot();
    drop(client);
    running.stop();

    let d = |name| delta(&before, &after, name) as f64;
    let lookups = d("server.cache.hits") + d("server.cache.misses");
    r.set("cache.hit_share", d("server.cache.hits") / lookups);
    r.set(
        "cache.spill_hit_share",
        d("server.cache.spill_hits") / lookups,
    );
    r.set(
        "cache.evictions_per_req",
        d("server.cache.evictions") / count as f64,
    );
    r.set("sched.coalesced", d("server.sched.coalesced"));
    r.set("sched.overloaded", d("server.sched.overloaded"));
    r.set("server.expired", d("server.expired"));
    r.set("server.dedup.hits", d("server.dedup.hits"));
    r.set(
        "engine.busy_ms_per_req",
        (engine_busy_us(&after) - engine_busy_us(&before)) as f64 / 1e3 / count as f64,
    );
    r.set(
        "net.overhead_ms",
        median(&t.ms("tcp.request")) - median(&t.ms("request")),
    );
    Ok(())
}
