//! The two service workloads: an in-process `Service` behind a TCP
//! `Server` on 127.0.0.1, driven over plain `Client` connections.
//!
//! Phase A is an open loop at a fixed Poisson rate: due-time latency
//! percentiles and the latency limit, printed on the `bench` line. Phase B
//! is a closed loop on two connections and gives the end-to-end metrics:
//! throughput, and the mean latency overall and per layout.
//! A run alternates the two phases in a few rounds.
//! On a host shared with other tenants an open loop turns every slow spell
//! into a queue, so its percentiles move far more between runs than the
//! service does; the closed loop slows with the host but does not queue.
//! Requests carry no `req_id`: the dedup key is `(tenant, req_id)` only,
//! so reused ids would be answered with another run's bodies. Every
//! reply's header and length are checked as it arrives; the first 32
//! replies and every 16th are hashed then and compared with a direct
//! `ExecPolicy::Plain` call after the timed phases.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sfc_core::{ArrayOrder3, Dims3, Grid3, SplitMix64};
use sfc_filters::try_bilateral3d_with_policy;
use sfc_harness::{ExecPolicy, FaultPlan, MetricValue, Snapshot};
use sfc_server::{
    f32_bytes, filter_run, image_bytes, render_setup, CachedVolume, Client, LayoutChoice, OpKind,
    Request, Server, ServerConfig, Service, ServiceConfig, VolumeKey,
};
use sfc_volrend::render_with_policy;

use crate::catalog::Report;
use crate::openloop;
use crate::stats::{mean, LayoutMeans};
use crate::verify::{hash_bytes, reply_problem};
use crate::vols::on_volume;

/// Server set-ups per run; `setup_s` is their mean.
const SETUPS: usize = 5;
/// Generator threads and connections (the host has two cores).
pub const CONNECTIONS: usize = 2;
/// Engine threads per request. With the two lanes of `sfc_serve` this
/// runs at most two compute threads, one per core of the host; the
/// `sfc_serve` default of two per request would run four and measure the
/// host's scheduler.
pub const EXEC_THREADS: usize = 1;
/// Replies below this index are all compared with the oracle.
const CHECK_FIRST: u64 = 32;
/// Beyond [`CHECK_FIRST`], every this-many-th reply is compared.
const CHECK_EVERY: u64 = 16;
/// Requests of phase A: enough for a p99 with ten samples beyond it.
const OPEN_REQUESTS: usize = 1000;
/// Phase A's largest share of the run's seconds (it binds only for short
/// runs such as the smoke test); phase B gets the rest.
const PHASE_A_MAX_SHARE: f64 = 0.5;
/// Rounds of phase A then phase B a run alternates through, so each
/// phase samples the whole run rather than one stretch of it: on a shared
/// host the speed changes for tens of seconds at a time.
const ROUNDS: usize = 5;
/// A run whose open-loop generator sent its p99 request later than this
/// after it was due and a connection was free measured the generator,
/// not the server; it is flagged `valid=0`.
const MAX_LAG_P99_MS: f64 = 5.0;

/// One service workload's traffic and server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Volume edge every request names.
    pub size: usize,
    /// Rendered image edge.
    pub image: usize,
    /// Volume-cache budget in bytes.
    pub cache_bytes: usize,
    /// Spill directory, data directory and journal on.
    pub durable: bool,
    /// Distinct volume seeds requests draw from.
    pub pool: usize,
    /// Zipf(1) popularity over the pool (uniform otherwise).
    pub zipf: bool,
    /// Share of filter requests; the rest render.
    pub filter_share: f64,
    /// Share of filters with radius 2; the rest use radius 1.
    pub radius2_share: f64,
    /// One request in this many carries `save=1` (0: none).
    pub save_one_in: u64,
    /// Phase-A arrival rate, requests per second.
    pub rate: f64,
    /// p99 latency limit of phase A, ms.
    pub p99_limit_ms: f64,
}

/// `serve_hot`: 16 resident volumes, a few ms per request.
pub const HOT: ServeSpec = ServeSpec {
    name: "serve_hot",
    size: 16,
    image: 64,
    cache_bytes: 64 << 20,
    durable: false,
    pool: 4,
    zipf: false,
    filter_share: 0.5,
    radius2_share: 0.3,
    save_one_in: 0,
    rate: 200.0,
    p99_limit_ms: 50.0,
};

/// `serve_cold`: a cache of 32 volumes over 128 (a Zipf pool of 32 seeds
/// in four layouts), with spills, saves and a journal. The volumes are as
/// small as `serve_hot`'s, so the cache (512 KiB) fits in one core's L2.
/// At 32³ the cache took 4 MiB of the L3 other tenants share, phase B
/// had half the run (phase A's rate follows phase-B throughput), and
/// every latency spread by 0.10–0.11 over ten runs; at 16³, 0.03–0.05.
pub const COLD: ServeSpec = ServeSpec {
    name: "serve_cold",
    size: 16,
    image: 64,
    cache_bytes: 32 * 16 * 16 * 16 * 4,
    durable: true,
    pool: 32,
    zipf: true,
    filter_share: 0.7,
    radius2_share: 0.0,
    save_one_in: 8,
    rate: 280.0,
    p99_limit_ms: 500.0,
};

impl ServeSpec {
    /// This spec at another volume and image edge (the smoke sizes).
    pub fn scaled(self, size: usize, image: usize) -> Self {
        ServeSpec {
            size,
            image,
            ..self
        }
    }

    /// Volume seed of pool entry `k` for run seed `seed`.
    fn volume_seed(&self, seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
    }

    /// Request `idx` of the seeded stream (a pure function of both).
    pub fn request(&self, seed: u64, idx: u64) -> Request {
        let u = |attr| stratified(seed, idx, attr);
        let layout = LayoutChoice::ALL[(u(0) * 4.0) as usize];
        let k = if self.zipf {
            zipf_pick(self.pool, u(1))
        } else {
            (u(1) * self.pool as f64) as usize
        };
        let op_u = u(2);
        let op = if op_u < self.filter_share {
            let radius = if op_u < self.filter_share * self.radius2_share {
                2
            } else {
                1
            };
            OpKind::Filter { radius }
        } else {
            OpKind::Render {
                image: self.image,
                tile: self.image.min(32),
            }
        };
        let save = self.save_one_in > 0 && u(3) * (self.save_one_in as f64) < 1.0;
        Request {
            tenant: "ledger".to_string(),
            op,
            size: self.size,
            layout,
            seed: self.volume_seed(seed, k),
            deadline_ms: None,
            req_id: None,
            attempt: 1,
            faults: None,
            save,
        }
    }

    /// Warm-up requests: one radius-1 filter per layout and pool entry,
    /// so every volume the stream names has been built once (and, past
    /// the cache budget, spilled), then two blocks of the stream's own
    /// mix from an index range the timed phases never reach, so every
    /// request kind has run once before timing starts.
    fn warm_up(&self, seed: u64) -> Vec<Request> {
        let mut v = Vec::with_capacity(self.pool * LayoutChoice::ALL.len() + 2 * BLOCK);
        // The most popular entries come last, so they are left resident.
        for k in (0..self.pool).rev() {
            for layout in LayoutChoice::ALL {
                v.push(Request {
                    op: OpKind::Filter { radius: 1 },
                    layout,
                    seed: self.volume_seed(seed, k),
                    save: false,
                    ..self.request(seed, 0)
                });
            }
        }
        v.extend((0..2 * BLOCK as u64).map(|i| self.request(seed, WARM_UP_FIRST + i)));
        v
    }

    fn service_config(&self, dir: &Path) -> ServiceConfig {
        ServiceConfig {
            exec_threads: EXEC_THREADS,
            cache_bytes: self.cache_bytes,
            spill_dir: self.durable.then(|| dir.join("spill")),
            data_dir: self.durable.then(|| dir.join("data")),
            journal: self.durable.then(|| dir.join("journal.bin")),
            ..ServiceConfig::default()
        }
    }
}

/// First stream index of the warm-up traffic, far beyond any index the
/// timed phases reach.
const WARM_UP_FIRST: u64 = 1 << 40;

/// Requests per stratification block. Within a block every attribute
/// takes one draw from each of `BLOCK` equal slices of [0, 1), so the op
/// mix, the layouts, the pool entries and the saves hit their shares
/// exactly and two seeds differ only in order, not in mix.
const BLOCK: usize = 40;

/// The stratified uniform draw of attribute `attr` for request `idx`.
fn stratified(seed: u64, idx: u64, attr: u64) -> f64 {
    let block = idx / BLOCK as u64;
    let mut rng = SplitMix64::new(
        seed ^ block.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ attr.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    );
    let mut slices: [usize; BLOCK] = std::array::from_fn(|i| i);
    for i in (1..BLOCK).rev() {
        slices.swap(i, rng.u64_below(i as u64 + 1) as usize);
    }
    let jitter = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    (slices[idx as usize % BLOCK] as f64 + jitter) / BLOCK as f64
}

/// Entry of a Zipf(1) distribution over `n` entries at quantile `u`.
fn zipf_pick(n: usize, u: f64) -> usize {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut acc = 0.0;
    for k in 1..=n {
        acc += 1.0 / k as f64 / total;
        if u < acc {
            return k - 1;
        }
    }
    n - 1
}

/// Body length a correct reply to `req` has.
pub fn expected_len(req: &Request) -> usize {
    match req.op {
        OpKind::Filter { .. } => req.size.pow(3) * 4,
        OpKind::Render { image, .. } => image * image * 16,
    }
}

/// Hash of the reply body a direct `ExecPolicy::Plain` call produces for
/// `req` (the `tests/service.rs` oracle).
pub fn oracle_hash(req: &Request) -> u64 {
    let vol = CachedVolume::build(&VolumeKey {
        size: req.size,
        layout: req.layout,
        seed: req.seed,
    });
    let body = match req.op {
        OpKind::Filter { radius } => {
            let dims = Dims3::cube(req.size);
            let mut out = Grid3::<f32, ArrayOrder3>::new(dims);
            let run = filter_run(radius, EXEC_THREADS);
            on_volume!(&vol, |g| try_bilateral3d_with_policy(
                g,
                &mut out,
                &run,
                &ExecPolicy::Plain,
                &FaultPlan::none()
            ))
            .expect("plain filter");
            f32_bytes(&out.to_row_major())
        }
        OpKind::Render { image, tile } => {
            let (cam, tf, opts) = render_setup(req.size, image, tile, EXEC_THREADS);
            let (img, _) = on_volume!(&vol, |g| render_with_policy(
                g,
                &cam,
                &tf,
                &opts,
                &ExecPolicy::Plain,
                &FaultPlan::none()
            ))
            .expect("plain render");
            image_bytes(&img)
        }
    };
    hash_bytes(&body)
}

/// A running service and its TCP front end.
pub struct Running {
    /// The service (for metric snapshots).
    pub svc: Arc<Service>,
    /// Bound address.
    pub addr: String,
    flag: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl Running {
    /// Start a service per `spec` with its files under `dir`.
    pub fn start(spec: &ServeSpec, dir: &Path) -> Result<Running, String> {
        let svc = Service::start(spec.service_config(dir)).map_err(|e| e.to_string())?;
        let server = Server::bind("127.0.0.1:0", svc.clone(), ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let flag = server.shutdown_flag();
        let accept = std::thread::spawn(move || {
            if let Err(e) = server.run() {
                eprintln!("accept loop: {e}");
            }
        });
        Ok(Running {
            svc,
            addr,
            flag,
            accept,
        })
    }

    /// A connected client. A reply that takes longer than the timeout
    /// fails its request, which keeps a stuck server from stalling the
    /// run past its time limit.
    pub fn client(&self) -> Result<Client, String> {
        let c = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        c.set_timeout(Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        Ok(c)
    }

    /// Stop accepting, join the accept loop and drain the service.
    pub fn stop(self) {
        self.flag.store(true, Ordering::Relaxed);
        let _ = self.accept.join();
        self.svc.drain(Duration::from_secs(30));
    }
}

/// Send `req` and check the reply's header and length; returns the body
/// when they pass (or the problem).
fn exchange(client: &mut Client, req: &Request) -> Result<Vec<u8>, String> {
    let (header, body) = client.request(req).map_err(|e| format!("transport: {e}"))?;
    match reply_problem(&header, &body, expected_len(req), None) {
        Some(p) => Err(p),
        None => Ok(body),
    }
}

/// Fresh scratch directory for one service instance.
pub fn fresh_dir(work: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = work.join(format!("{tag}-{}", std::process::id()));
    remove_dir(&dir)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Remove `dir` and everything under it, if it exists.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Bytes under `dir`, recursively.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Start a service and send the warm-up requests over [`CONNECTIONS`]
/// connections; this is the set-up `setup_s` times.
pub fn start_warm(spec: &ServeSpec, seed: u64, dir: &Path) -> Result<Running, String> {
    let run = Running::start(spec, dir)?;
    let reqs = spec.warm_up(seed);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (client, reqs) = (run.client(), &reqs);
                s.spawn(move || -> Result<(), String> {
                    let mut client = client?;
                    for req in reqs.iter().skip(c).step_by(CONNECTIONS) {
                        exchange(&mut client, req)
                            .map_err(|e| format!("warm-up {}: {e}", req.format()))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up sender panicked"))
    })?;
    Ok(run)
}

/// What the senders saw: hashes of the replies kept for the oracle
/// check, and the first few problems.
#[derive(Default)]
struct Outcomes {
    kept: Mutex<Vec<(u64, u64)>>,
    problems: Mutex<Vec<String>>,
}

impl Outcomes {
    /// Send request `idx` of the stream on `client` and record what came
    /// back; true when the reply passed its checks.
    fn send(&self, spec: &ServeSpec, seed: u64, client: &mut Client, idx: u64) -> bool {
        match exchange(client, &spec.request(seed, idx)) {
            Ok(body) => {
                if idx < CHECK_FIRST || idx.is_multiple_of(CHECK_EVERY) {
                    let hash = hash_bytes(&body);
                    self.kept.lock().expect("kept replies").push((idx, hash));
                }
                true
            }
            Err(p) => {
                self.problem(idx, p);
                false
            }
        }
    }

    fn problem(&self, idx: u64, p: String) {
        let mut v = self.problems.lock().expect("problem list");
        if v.len() < 5 {
            v.push(format!("request {idx}: {p}"));
        }
    }
}

/// Compare kept replies with the oracle; returns the indices that differ.
fn oracle_mismatches(spec: &ServeSpec, seed: u64, kept: &[(u64, u64)]) -> Vec<u64> {
    let mut memo: HashMap<String, u64> = HashMap::new();
    kept.iter()
        .filter(|&&(idx, hash)| {
            let req = spec.request(seed, idx);
            let key = format!("{:?} {} {:?} {}", req.op, req.size, req.layout, req.seed);
            *memo.entry(key).or_insert_with(|| oracle_hash(&req)) != hash
        })
        .map(|&(idx, _)| idx)
        .collect()
}

/// Change of a counter or gauge between two snapshots.
pub fn delta(before: &Snapshot, after: &Snapshot, name: &str) -> i64 {
    let v = |s: &Snapshot| match s.get(name) {
        Some(MetricValue::Counter(c)) => *c as i64,
        Some(MetricValue::Gauge(g)) => *g,
        _ => 0,
    };
    v(after) - v(before)
}

/// One phase-B request: its stream index, whether its reply passed, and
/// its latency.
type Served = (u64, bool, Duration);

/// Phase B: the stream continues from `first` on [`CONNECTIONS`]
/// closed-loop connections until `seconds` have passed.
fn closed_loop(
    run: &Running,
    spec: &ServeSpec,
    seed: u64,
    first: u64,
    seconds: f64,
    outcomes: &Outcomes,
) -> Result<Vec<Served>, String> {
    let next = AtomicU64::new(first);
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let (client, next) = (run.client(), &next);
                s.spawn(move || -> Result<Vec<Served>, String> {
                    let mut client = client?;
                    let mut out = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let ok = outcomes.send(spec, seed, &mut client, idx);
                        out.push((idx, ok, t0.elapsed()));
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("closed-loop sender panicked")?);
        }
        Ok(all)
    })
}

/// Run one service workload for `seconds`: [`SETUPS`] timed set-ups,
/// then [`ROUNDS`] rounds of phase A (open loop) and phase B (closed
/// loop) on the last one, then the oracle check.
pub fn run_workload(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut running = None;
    let mut dir = PathBuf::new();
    for _ in 0..SETUPS {
        if let Some(r) = running.take() {
            Running::stop(r);
            crate::host::release_freed_memory();
        }
        dir = fresh_dir(work, spec.name)?;
        let t0 = Instant::now();
        running = Some(start_warm(spec, seed, &dir)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let run = running.expect("at least one set-up");
    report.set("setup_s", mean(&setups));
    let before = run.svc.metrics_snapshot();
    let outcomes = Outcomes::default();

    let phase_a = (OPEN_REQUESTS as f64 / spec.rate).min(seconds * PHASE_A_MAX_SHARE);
    let mut arrivals = SplitMix64::new(seed);
    let (mut timings, mut closed) = (Vec::new(), Vec::new());
    let (mut elapsed_a, mut elapsed_b) = (0.0, 0.0);
    // Stream index of the next request either phase sends.
    let mut first = 0u64;
    for _ in 0..ROUNDS {
        let due = openloop::poisson_schedule(spec.rate, phase_a / ROUNDS as f64, &mut arrivals);
        let senders = (0..CONNECTIONS)
            .map(|_| {
                let (mut client, outcomes) = (run.client()?, &outcomes);
                Ok(move |i: usize| outcomes.send(spec, seed, &mut client, first + i as u64))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let t_a = Instant::now();
        timings.extend(
            openloop::run(&due, senders)
                .into_iter()
                .map(|t| openloop::Timing {
                    idx: t.idx + first as usize,
                    ..t
                }),
        );
        elapsed_a += t_a.elapsed().as_secs_f64();
        first += due.len() as u64;

        let t_b = Instant::now();
        let round_b = (seconds - phase_a) / ROUNDS as f64;
        let served = closed_loop(&run, spec, seed, first, round_b, &outcomes)?;
        elapsed_b += t_b.elapsed().as_secs_f64();
        first += served.len() as u64;
        closed.extend(served);
    }
    let after = run.svc.metrics_snapshot();
    let disk = disk_bytes(&dir);
    Running::stop(run);
    remove_dir(&dir)?;

    // The oracle check runs after the timed phases, so it costs them
    // nothing; a mismatch fails the request it belongs to.
    let mut kept = outcomes.kept.into_inner().expect("kept replies");
    kept.sort_unstable();
    let bad = oracle_mismatches(spec, seed, &kept);
    let passed = |idx: u64, ok: bool| ok && !bad.contains(&idx);
    for t in &mut timings {
        t.ok = passed(t.idx as u64, t.ok);
        report.count(t.ok);
    }
    let mut b_correct = 0u64;
    for (idx, ok, _) in &mut closed {
        *ok = passed(*idx, *ok);
        report.count(*ok);
        b_correct += u64::from(*ok);
    }

    let open = openloop::samples(&timings);
    let p50 = open.latency.percentile_ms(50.0).unwrap_or(f64::NAN);
    let p99 = open.latency.percentile_ms(99.0).unwrap_or(f64::NAN);
    report.set("throughput_ops_s", b_correct as f64 / elapsed_b);
    let mut times = LayoutMeans::default();
    for &(idx, _, latency) in closed.iter().filter(|s| s.1) {
        let layout = spec.request(seed, idx).layout;
        let l = LayoutChoice::ALL.iter().position(|&c| c == layout);
        let l = l.expect("one of the four layouts");
        times.push(l, latency.as_secs_f64() * 1e3);
    }
    report.set_times(&times);

    let lag_p99 = open.lag.percentile_ms(99.0).unwrap_or(f64::NAN);
    report.notes.push(format!(
        "{} size={} image={} cache_mib={:.1} pool={} zipf={} rate={} phase_a_s={elapsed_a:.1} phase_b_s={elapsed_b:.1} connections={CONNECTIONS}",
        spec.name,
        spec.size,
        spec.image,
        spec.cache_bytes as f64 / (1 << 20) as f64,
        spec.pool,
        u8::from(spec.zipf),
        spec.rate,
    ));
    report.notes.push(format!(
        "bench samples={} tail_ok={} p50_ms={p50:.3} p99_ms={p99:.3} lag_p99_ms={lag_p99:.3} wait_p99_ms={:.3} p99_limit_ms={} slo_met={} valid={} checked={} phase_b_completed={}",
        open.latency.len(),
        u8::from(open.latency.tail_ok(99.0)),
        open.wait.percentile_ms(99.0).unwrap_or(f64::NAN),
        spec.p99_limit_ms,
        u8::from(p99 <= spec.p99_limit_ms),
        u8::from(open.latency.tail_ok(99.0) && lag_p99 <= MAX_LAG_P99_MS),
        kept.len(),
        closed.len(),
    ));
    report.notes.push(format!(
        "server coalesced={} overloaded={} expired={} dedup_hits={} cache_hits={} cache_misses={} evictions={} spill_hits={} disk_mib={:.1}",
        delta(&before, &after, "server.sched.coalesced"),
        delta(&before, &after, "server.sched.overloaded"),
        delta(&before, &after, "server.expired"),
        delta(&before, &after, "server.dedup.hits"),
        delta(&before, &after, "server.cache.hits"),
        delta(&before, &after, "server.cache.misses"),
        delta(&before, &after, "server.cache.evictions"),
        delta(&before, &after, "server.cache.spill_hits"),
        disk as f64 / (1 << 20) as f64,
    ));
    for p in outcomes.problems.into_inner().expect("problem list") {
        eprintln!("failed {p}");
    }
    for idx in bad.iter().take(5) {
        eprintln!("failed request {idx}: body differs from the Plain oracle");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_a_pure_function_of_seed_and_index() {
        for spec in [HOT, COLD] {
            for idx in [0u64, 1, 999] {
                assert_eq!(spec.request(5, idx), spec.request(5, idx));
            }
            assert_ne!(
                (0..8).map(|i| spec.request(5, i)).collect::<Vec<_>>(),
                (0..8).map(|i| spec.request(6, i)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn requests_parse_back_and_carry_no_req_id() {
        for spec in [HOT, COLD] {
            for idx in 0..200 {
                let req = spec.request(3, idx);
                assert_eq!(req.req_id, None);
                assert_eq!(Request::parse(&req.format()).ok(), Some(req));
            }
        }
    }

    #[test]
    fn every_block_carries_the_exact_mix() {
        let count =
            |reqs: &[Request], f: &dyn Fn(&Request) -> bool| reqs.iter().filter(|r| f(r)).count();
        for seed in [1, 9] {
            for block in 0..3u64 {
                let idx = block * BLOCK as u64;
                let reqs: Vec<Request> = (idx..idx + BLOCK as u64)
                    .map(|i| HOT.request(seed, i))
                    .collect();
                assert_eq!(count(&reqs, &|r| r.op == OpKind::Filter { radius: 1 }), 14);
                assert_eq!(count(&reqs, &|r| r.op == OpKind::Filter { radius: 2 }), 6);
                for layout in LayoutChoice::ALL {
                    assert_eq!(count(&reqs, &|r| r.layout == layout), 10);
                }
                for k in 0..HOT.pool {
                    assert_eq!(count(&reqs, &|r| r.seed == HOT.volume_seed(seed, k)), 10);
                }
                assert_eq!(count(&reqs, &|r| r.save), 0);
                let cold: Vec<Request> = (idx..idx + BLOCK as u64)
                    .map(|i| COLD.request(seed, i))
                    .collect();
                assert_eq!(count(&cold, &|r| r.op == OpKind::Filter { radius: 1 }), 28);
                assert_eq!(count(&cold, &|r| r.save), 5);
            }
        }
    }

    #[test]
    fn zipf_prefers_the_head_of_the_pool() {
        assert_eq!(zipf_pick(10, 0.0), 0);
        assert_eq!(zipf_pick(10, 0.999_999), 9);
        let reqs: Vec<Request> = (0..4000).map(|i| COLD.request(2, i)).collect();
        let share = |k| {
            reqs.iter()
                .filter(|r| r.seed == COLD.volume_seed(2, k))
                .count() as f64
                / 4000.0
        };
        // Zipf(1) over 32 entries: the head takes 1/H(32) ≈ 24.7%, entry
        // 16 a seventeenth of that.
        assert!((share(0) - 0.247).abs() < 0.01, "{}", share(0));
        assert!((share(16) - 0.247 / 17.0).abs() < 0.006, "{}", share(16));
    }
}
