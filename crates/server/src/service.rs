//! The service driver: execution lanes over one shared engine, the
//! request core behind one lock, a durability journal, and graceful drain.
//!
//! Request lifecycle (see DESIGN.md §9): every request state — queues,
//! dedup entries, running jobs, drain — lives in the crate's request core,
//! a plain state machine that [`Service`] holds behind one `Mutex` and one
//! `Condvar`. [`Service::submit`] hands it an arrival; a lane pops a job,
//! runs it outside the lock through the engine's full brownout stack —
//! `ExecPolicy::Brownout` with the request's [`DeadlineBudget`] and fault
//! plan — and hands the reply back. So one code path serves both the happy
//! case (no budget, no faults: bitwise-identical to `ExecPolicy::Plain` by
//! the engine contract) and the degraded one. Replies reach their
//! [`Ticket`] through its one-shot slot, filled after the lock is released.
//! Every lane iteration is wrapped in `catch_unwind`: a panic anywhere in
//! request handling becomes a typed `err worker-panic` reply for that
//! request, never a dead lane.
//!
//! A client that hangs up calls [`Ticket::cancel`]; when the last waiter
//! of a running job leaves, that call fires the job's run token, the
//! engine abandons the units not yet attempted, and the lane answers any
//! waiter left with a typed `err cancelled` — nothing is saved or
//! remembered for dedup.
//!
//! Drain ([`Service::drain`]) stops admission, waits on the condvar while
//! queued and in-flight work finishes inside the budget, then sheds what
//! remains with typed `shed` replies and cancels in-flight runs.
//! Durability is append-only: the journal fsyncs per record and saved
//! volumes go through `write_atomic`, so a `kill -9` at any instant leaves
//! no partial file — at worst a torn journal tail, which `Journal::open`
//! truncates away.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sfc_core::{ArrayOrder3, Axis, Dims3, Grid3, SfcResult, StencilOrder};
use sfc_datagen::save_volume;
use sfc_filters::{try_bilateral3d_with_policy, BilateralParams, FilterRun};
use sfc_harness::metrics::{self, Snapshot};
use sfc_harness::{
    DeadlineBudget, DegradedOutcome, DowngradeReason, ExecPolicy, Executor, FaultPlan, Journal,
    JournalRecovery, LazyCounter, Schedule, SupervisorConfig,
};
use sfc_volrend::{
    render_with_policy, vec3, Camera, Image, Projection, RenderOpts, TransferFunction,
};

use crate::cache::{VolumeCache, VolumeKey};
use crate::protocol::{error_kind, f32_bytes, OkHeader, OpKind, Request, RespHeader};
use crate::request_core::{
    DedupStats, DrainReport, Job, Overloaded, Reply, RequestCore, Response, SchedConfig,
};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads the engine uses per request execution.
    pub exec_threads: usize,
    /// Concurrent request executions (lane threads).
    pub lanes: usize,
    /// Scheduler bounds (queues, quotas, quantum).
    pub sched: SchedConfig,
    /// Volume-cache residency budget in bytes.
    pub cache_bytes: usize,
    /// Spill directory for the cache's disk tier: evicted volumes are
    /// persisted as crash-safe brick stores there and faulted back on
    /// demand. `None` disables spilling (evictions just drop).
    pub spill_dir: Option<PathBuf>,
    /// Where `save=1` results are written; `None` rejects saves.
    pub data_dir: Option<PathBuf>,
    /// Durability journal path; `None` disables journaling.
    pub journal: Option<PathBuf>,
    /// Per-unit watchdog budget, armed only when a request carries
    /// faults or a deadline (the fault-free path must stay
    /// bitwise-identical to `ExecPolicy::Plain`, and the watchdog is
    /// pure overhead there).
    pub unit_timeout: Duration,
    /// How long a completed result is remembered for idempotent retry
    /// (`req_id=` dedup). Must exceed a client's worst-case retry span
    /// (attempts × backoff cap) for exactly-once `save=1` semantics.
    pub dedup_ttl: Duration,
    /// Upper bound on remembered results (oldest evicted past it).
    pub dedup_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            exec_threads: 2,
            lanes: 2,
            sched: SchedConfig::default(),
            cache_bytes: 64 << 20,
            spill_dir: None,
            data_dir: None,
            journal: None,
            unit_timeout: Duration::from_millis(250),
            dedup_ttl: Duration::from_secs(60),
            dedup_cap: 1024,
        }
    }
}

/// Process-wide mirror of lane panics (per-instance accounting stays in
/// `Service::panics`; the registry counter is cumulative across all
/// services in the process).
static PANICS_TOTAL: LazyCounter = LazyCounter::new("server.lane_panics");

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A waiter's one-shot reply slot: the driver fills it once, its
/// [`Ticket`] takes the reply.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    resp: Mutex<Option<Response>>,
    cv: Condvar,
}

impl Slot {
    fn fill(&self, resp: Response) {
        *lock(&self.resp) = Some(resp);
        self.cv.notify_all();
    }
}

/// Fill each reply's slot (outside the core's lock).
fn deliver(replies: &mut Vec<Reply>) {
    for r in replies.drain(..) {
        r.slot.fill(r.resp);
    }
}

/// The request core behind the service's one lock, and the condvar the
/// lanes and the drain wait on.
struct Shared {
    core: Mutex<RequestCore>,
    cv: Condvar,
}

/// The submitter's handle to a request: the slot its reply arrives in,
/// and [`Ticket::cancel`] for a client that leaves.
pub struct Ticket {
    waiter: u64,
    slot: Arc<Slot>,
    shared: Arc<Shared>,
}

impl Ticket {
    /// Wait up to `timeout` for the response.
    pub fn wait(&self, timeout: Duration) -> Option<Response> {
        let deadline = Instant::now() + timeout;
        let mut resp = lock(&self.slot.resp);
        loop {
            if let Some(resp) = resp.take() {
                return Some(resp);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            resp = self
                .slot
                .cv
                .wait_timeout(resp, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// The client left: a queued request is dropped, and a running one's
    /// run token fires once every waiter of its job has left.
    pub fn cancel(&self) {
        lock(&self.shared.core).cancel(self.waiter);
        self.shared.cv.notify_all();
    }
}

/// The multi-tenant volume service: request core + lanes + cache + journal.
pub struct Service {
    cfg: ServiceConfig,
    exec: Executor,
    shared: Arc<Shared>,
    cache: VolumeCache,
    journal: Option<Mutex<Journal>>,
    recovery: Option<JournalRecovery>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    save_seq: AtomicU64,
    panics: AtomicU64,
}

impl Service {
    /// Start the service: open the journal (recovering any torn tail) and
    /// spawn the execution lanes.
    pub fn start(cfg: ServiceConfig) -> SfcResult<Arc<Service>> {
        if let Some(dir) = &cfg.data_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| sfc_core::SfcError::io(dir.display().to_string(), e))?;
        }
        let (journal, recovery) = match &cfg.journal {
            Some(path) => {
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| sfc_core::SfcError::io(parent.display().to_string(), e))?;
                }
                let (j, rec) = Journal::open(path)
                    .map_err(|e| sfc_core::SfcError::io(path.display().to_string(), e))?;
                (Some(Mutex::new(j)), Some(rec))
            }
            None => (None, None),
        };
        let svc = Arc::new(Service {
            exec: Executor::new(cfg.exec_threads),
            shared: Arc::new(Shared {
                core: Mutex::new(RequestCore::new(cfg.sched, cfg.dedup_ttl, cfg.dedup_cap)),
                cv: Condvar::new(),
            }),
            cache: match cfg.spill_dir.clone() {
                Some(dir) => VolumeCache::with_spill(cfg.cache_bytes, dir),
                None => VolumeCache::new(cfg.cache_bytes),
            },
            journal,
            recovery,
            threads: Mutex::new(Vec::new()),
            save_seq: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            cfg,
        });
        let mut threads = Vec::new();
        for lane in 0..svc.cfg.lanes {
            let s = svc.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sfc-lane-{lane}"))
                    .spawn(move || s.lane_loop())
                    .map_err(|e| sfc_core::SfcError::io("spawn lane", e))?,
            );
        }
        *lock(&svc.threads) = threads;
        // Pre-register the core metric families: lazily-registered
        // counters only appear in the registry once first incremented, but
        // a scrape must expose the whole contract (at zero) from boot.
        for name in [
            "engine.units_completed",
            "engine.units_failed",
            "engine.units_retried",
            "engine.defects",
            "engine.units_repaired",
            "engine.units_downgraded",
            "filters.nan_events",
            "volrend.nan_samples",
            "deadline.shed",
            "deadline.downgrades",
            "deadline.breaker_trips",
            "store.hits",
            "store.misses",
            "store.evictions",
            "store.retries",
            "store.repairs",
            "store.repair_writebacks_failed",
            "store.poisoned",
            "server.lane_panics",
            "server.expired",
            "server.retry_arrivals",
            "server.dedup.hits",
            "server.dedup.inserts",
            "server.dedup.evictions",
            "server.dedup.conflicts",
            "client.retries",
            "client.hedges",
            "client.hedge_wins",
            "client.failovers",
            "client.breaker_opens",
            "client.budget_exhausted",
            "client.deadline_exhausted",
        ] {
            let _ = metrics::counter(name);
        }
        Ok(svc)
    }

    /// This instance's polled state as `server.*` name → value pairs, which
    /// [`Service::metrics_snapshot`] overlays on the global registry.
    fn server_gauges(&self) -> [(&'static str, i64); 17] {
        let (s, active, dedup_resident) = {
            let core = lock(&self.shared.core);
            (core.stats(), core.running(), core.dedup_resident())
        };
        let c = self.cache.stats();
        [
            ("server.sched.submitted", s.submitted as i64),
            ("server.sched.served", s.served as i64),
            ("server.sched.coalesced", s.coalesced as i64),
            ("server.sched.overloaded", s.overloaded as i64),
            ("server.sched.shed", s.shed as i64),
            ("server.sched.abandoned", s.abandoned as i64),
            ("server.cache.hits", c.hits as i64),
            ("server.cache.misses", c.misses as i64),
            ("server.cache.evictions", c.evictions as i64),
            ("server.cache.spills", c.spills as i64),
            ("server.cache.spill_hits", c.spill_hits as i64),
            ("server.cache.spill_corrupt", c.spill_corrupt as i64),
            ("server.cache.resident_bytes", c.resident_bytes as i64),
            ("server.cache.resident", c.resident as i64),
            ("server.active", active as i64),
            ("server.panics", self.panics.load(Ordering::Relaxed) as i64),
            ("server.dedup.resident", dedup_resident as i64),
        ]
    }

    /// One coherent snapshot of the whole metrics plane: the global
    /// registry (engine, deadline, store, memsim, filter/render counters)
    /// with this instance's `server.*` state overlaid. Both
    /// [`Service::stats_line`] and the Prometheus `metrics` verb render
    /// from this single snapshot, so they agree by construction.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = metrics::global().snapshot();
        for (name, v) in self.server_gauges() {
            snap.set_gauge(name, v);
        }
        snap
    }

    /// The full metrics plane in Prometheus text exposition format (the
    /// `metrics` verb's body).
    pub fn prometheus_text(&self) -> String {
        sfc_harness::encode_prometheus(&self.metrics_snapshot())
    }

    /// Submit a request. A `req_id` whose result is remembered answers at
    /// once — the returned ticket already holds the cached reply with
    /// `dedup=1`, or a typed `invalid-parameter` refusal when the `req_id`
    /// was used for a different request; otherwise the request is queued,
    /// or refused with a typed [`Overloaded`].
    pub fn submit(&self, req: Request) -> Result<Ticket, Overloaded> {
        let slot = Arc::new(Slot::default());
        let mut replies = Vec::new();
        let waiter =
            lock(&self.shared.core).arrive(req, slot.clone(), Instant::now(), &mut replies)?;
        if replies.is_empty() {
            self.shared.cv.notify_all();
        }
        deliver(&mut replies);
        Ok(Ticket {
            waiter,
            slot,
            shared: self.shared.clone(),
        })
    }

    /// What journal recovery found at startup, if journaling is on.
    pub fn recovery(&self) -> Option<&JournalRecovery> {
        self.recovery.as_ref()
    }

    /// Idempotency dedup cache counters (process-wide) and residency.
    pub fn dedup_stats(&self) -> DedupStats {
        DedupStats::with_resident(lock(&self.shared.core).dedup_resident())
    }

    /// Requests currently executing on a lane (tests and the `stats`
    /// verb watch this to observe cancellation and drain).
    pub fn active_requests(&self) -> usize {
        lock(&self.shared.core).running()
    }

    /// One `key=value` stats line for the `stats` verb: a thin formatter
    /// over [`Service::metrics_snapshot`] (key set and semantics are
    /// pinned by regression test — see `tests/service.rs`).
    pub fn stats_line(&self) -> String {
        let m = self.metrics_snapshot();
        let g = |k: &str| m.gauge(k);
        format!(
            "stats submitted={} served={} coalesced={} overloaded={} shed={} abandoned={} \
             cache_hits={} cache_misses={} cache_evictions={} resident_bytes={} \
             active={} panics={} spills={} spill_hits={} spill_corrupt={}",
            g("server.sched.submitted"),
            g("server.sched.served"),
            g("server.sched.coalesced"),
            g("server.sched.overloaded"),
            g("server.sched.shed"),
            g("server.sched.abandoned"),
            g("server.cache.hits"),
            g("server.cache.misses"),
            g("server.cache.evictions"),
            g("server.cache.resident_bytes"),
            g("server.active"),
            g("server.panics"),
            g("server.cache.spills"),
            g("server.cache.spill_hits"),
            g("server.cache.spill_corrupt"),
        )
    }

    fn lane_loop(&self) {
        let shared = &*self.shared;
        let mut replies = Vec::new();
        loop {
            let job = {
                let mut core = lock(&shared.core);
                loop {
                    let job = core.pop(Instant::now(), &mut replies);
                    if job.is_some() || !replies.is_empty() {
                        break job;
                    }
                    if core.finished() {
                        return;
                    }
                    core = shared
                        .cv
                        .wait(core)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            deliver(&mut replies);
            let Some(job) = job else { continue };
            let resp = self.respond(&job);
            lock(&shared.core).complete(&job, resp, Instant::now(), &mut replies);
            shared.cv.notify_all();
            deliver(&mut replies);
        }
    }

    /// Run `job` and build its reply, a panic included.
    fn respond(&self, job: &Job) -> Response {
        match catch_unwind(AssertUnwindSafe(|| self.execute(job))) {
            Ok(Ok(resp)) => resp,
            Ok(Err(err)) => Response::header_only(RespHeader::Err {
                kind: error_kind(&err).to_string(),
                message: err.to_string(),
            }),
            Err(panic) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                PANICS_TOTAL.add(1);
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                Response::header_only(RespHeader::Err {
                    kind: "worker-panic".to_string(),
                    message: msg,
                })
            }
        }
    }

    /// Run one job through the engine and build its reply.
    fn execute(&self, job: &Job) -> SfcResult<Response> {
        let req = &job.req;
        // Deadline propagation, server half: the budget clock started at
        // admission, so time spent queued is already gone (the pop refused
        // a request whose budget expired while waiting), and the job runs
        // on the *remaining* budget.
        let waited = job.submitted.elapsed();
        let key = VolumeKey {
            size: req.size,
            layout: req.layout,
            seed: req.seed,
        };
        let (vol, cache_hit) = self.cache.get(&key);
        let nunits = req.cost() as usize;
        let plan = match req.faults {
            Some((seed, rates)) => FaultPlan::random_rates(seed, nunits, &rates),
            None => FaultPlan::none(),
        };
        let budget = req
            .deadline()
            .map(|d| DeadlineBudget::with_budget(d.saturating_sub(waited)))
            .unwrap_or_else(DeadlineBudget::none);
        let supervisor = SupervisorConfig {
            nthreads: self.exec.nthreads(),
            schedule: Schedule::Dynamic,
            // Arm the watchdog only when this request can actually stall
            // (injected faults) or has a clock to keep (deadline).
            timeout: (req.faults.is_some() || req.deadline_ms.is_some())
                .then_some(self.cfg.unit_timeout),
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            watchdog_poll: Duration::from_millis(2),
            cancel: job.token.clone(),
        };

        let (body, dims, outcome) = match req.op {
            OpKind::Filter { radius } => {
                let run = filter_run(radius, self.exec.nthreads());
                let dims = vol.dims();
                let mut out =
                    Grid3::<f32, ArrayOrder3>::from_row_major(dims, &vec![0.0; dims.len()]);
                let range = req.faults.is_some().then_some((f32::NEG_INFINITY, f32::INFINITY));
                let policy = ExecPolicy::brownout(supervisor, budget, range);
                let outcome = dispatch_filter(&vol, &mut out, &run, &policy, &plan)?;
                (f32_bytes(&out.to_row_major()), dims, outcome)
            }
            OpKind::Render { image, tile } => {
                let (cam, tf, opts) = render_setup(req.size, image, tile, self.exec.nthreads());
                let range = req.faults.is_some().then_some((0.0, 1.0));
                let policy = ExecPolicy::brownout(supervisor, budget, range);
                let (img, outcome) = dispatch_render(&vol, &cam, &tf, &opts, &policy, &plan)?;
                (image_bytes(&img), Dims3::new(image, image, 4), outcome)
            }
        };

        if job.token.is_cancelled() {
            // Every client left, or the drain budget ran out: the units
            // not yet attempted never ran, so the output is not saved,
            // journaled or remembered, and anyone still waiting is told.
            return Ok(Response::header_only(RespHeader::Err {
                kind: "cancelled".to_string(),
                message: "the run was cancelled before it finished".to_string(),
            }));
        }
        if req.save {
            self.save_result(req, dims, &body)?;
        }
        self.journal_record(req, &outcome, job.coalesced);

        let shed_units = outcome
            .quality
            .entries()
            .iter()
            .filter(|e| e.reason == Some(DowngradeReason::Shed))
            .count();
        let header = OkHeader {
            bytes: body.len(),
            completed: outcome.report.completed,
            failed: outcome.report.failed.len(),
            retried: outcome.report.retried,
            downgraded: outcome.quality.downgraded_units().len(),
            max_level: outcome.quality.max_level(),
            shed_units,
            whole: outcome.output_is_whole(),
            cache_hit,
            coalesced: job.coalesced,
            dedup: false,
        };
        Ok(Response {
            header: RespHeader::Ok(header),
            body: Arc::from(body),
        })
    }

    fn save_result(&self, req: &Request, dims: Dims3, body: &[u8]) -> SfcResult<()> {
        let Some(dir) = &self.cfg.data_dir else {
            return Err(sfc_core::SfcError::InvalidParameter {
                name: "save",
                reason: "server started without a data directory".into(),
            });
        };
        // Idempotent naming: a retried request (same tenant + req_id)
        // overwrites its own file via `write_atomic`, so a duplicate
        // execution racing past the dedup cache still publishes exactly
        // one saved volume per logical request.
        let path = match &req.req_id {
            Some(rid) => dir.join(format!("{}-{}.vol", req.tenant, rid)),
            None => {
                let seq = self.save_seq.fetch_add(1, Ordering::Relaxed);
                dir.join(format!("{}-{:06}.vol", req.tenant, seq))
            }
        };
        let values = crate::protocol::bytes_f32(body)?;
        save_volume(&path, dims, &values)
    }

    fn journal_record(&self, req: &Request, outcome: &DegradedOutcome, coalesced: usize) {
        let Some(journal) = &self.journal else { return };
        let line = format!(
            "serve tenant={} op={} size={} seed={} completed={} failed={} downgraded={} whole={} coalesced={}",
            req.tenant,
            req.op.name(),
            req.size,
            req.seed,
            outcome.report.completed,
            outcome.report.failed.len(),
            outcome.quality.downgraded_units().len(),
            u8::from(outcome.output_is_whole()),
            coalesced,
        );
        // Journal loss is not worth failing the request over: the reply
        // (and any saved volume) is the contract, the journal is the
        // audit trail.
        let _ = lock(journal).append(line.as_bytes());
    }

    /// Graceful drain: stop admitting, give queued and in-flight work
    /// `budget` to finish, then shed the queue and cancel the rest.
    /// Returns once every lane has exited; the service is unusable
    /// afterwards.
    pub fn drain(&self, budget: Duration) -> DrainReport {
        let shared = &*self.shared;
        let deadline = Instant::now() + budget;
        let mut replies = Vec::new();
        let report = {
            let mut core = lock(&shared.core);
            core.begin_drain();
            shared.cv.notify_all();
            loop {
                let now = Instant::now();
                if core.idle() || now >= deadline {
                    break;
                }
                core = shared
                    .cv
                    .wait_timeout(core, deadline - now)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
            core.shed_all(&mut replies)
        };
        shared.cv.notify_all();
        deliver(&mut replies);
        // Cancelled runs finish fast (units not yet attempted are
        // accounted as Cancelled without running), and a lane exits once
        // it finds the drained queue empty.
        let threads = std::mem::take(&mut *lock(&self.threads));
        for t in threads {
            let _ = t.join();
        }
        report
    }
}

/// The canonical filter configuration for a request: the mapping every
/// caller (service and conformance tests) must share for the
/// bitwise-identical-to-`Plain` invariant to be checkable.
pub fn filter_run(radius: usize, nthreads: usize) -> FilterRun {
    FilterRun {
        params: BilateralParams {
            radius,
            sigma_spatial: (radius as f32 / 2.0).max(0.5),
            sigma_range: 0.1,
            order: StencilOrder::Xyz,
        },
        pencil_axis: Axis::X,
        weight: Default::default(),
        nthreads,
    }
}

/// The canonical render configuration for a request: the standard orbit
/// camera looking down +x at the volume center, the `fire` transfer
/// function, and default integration parameters.
pub fn render_setup(
    size: usize,
    image: usize,
    tile: usize,
    nthreads: usize,
) -> (Camera, TransferFunction, RenderOpts) {
    let n = size as f32;
    let cam = Camera::look_at(
        vec3(n * 2.5, n / 2.0, n / 2.0),
        vec3(n / 2.0, n / 2.0, n / 2.0),
        vec3(0.0, 1.0, 0.0),
        Projection::Perspective {
            fov_y: 40f32.to_radians(),
        },
        image,
        image,
    );
    let tf = TransferFunction::fire();
    let opts = RenderOpts {
        tile,
        nthreads,
        ..Default::default()
    };
    (cam, tf, opts)
}

/// Flatten an RGBA image to interleaved little-endian `f32` bytes.
pub fn image_bytes(img: &Image) -> Vec<u8> {
    let mut values = Vec::with_capacity(img.pixels().len() * 4);
    for p in img.pixels() {
        values.extend_from_slice(&[p.r, p.g, p.b, p.a]);
    }
    f32_bytes(&values)
}

fn dispatch_filter(
    vol: &crate::cache::CachedVolume,
    out: &mut Grid3<f32, ArrayOrder3>,
    run: &FilterRun,
    policy: &ExecPolicy,
    plan: &FaultPlan,
) -> SfcResult<DegradedOutcome> {
    use crate::cache::CachedVolume as V;
    match vol {
        V::Array(g) => try_bilateral3d_with_policy(g, out, run, policy, plan),
        V::Z(g) => try_bilateral3d_with_policy(g, out, run, policy, plan),
        V::Tiled(g) => try_bilateral3d_with_policy(g, out, run, policy, plan),
        V::Hilbert(g) => try_bilateral3d_with_policy(g, out, run, policy, plan),
    }
}

fn dispatch_render(
    vol: &crate::cache::CachedVolume,
    cam: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
    policy: &ExecPolicy,
    plan: &FaultPlan,
) -> SfcResult<(Image, DegradedOutcome)> {
    use crate::cache::CachedVolume as V;
    match vol {
        V::Array(g) => render_with_policy(g, cam, tf, opts, policy, plan),
        V::Z(g) => render_with_policy(g, cam, tf, opts, policy, plan),
        V::Tiled(g) => render_with_policy(g, cam, tf, opts, policy, plan),
        V::Hilbert(g) => render_with_policy(g, cam, tf, opts, policy, plan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{bytes_f32, Request};

    fn svc(cfg: ServiceConfig) -> Arc<Service> {
        Service::start(cfg).expect("service starts")
    }

    fn wait_ok(t: &Ticket) -> (OkHeader, Vec<u8>) {
        let Response { header, body } = t.wait(Duration::from_secs(30)).expect("reply in time");
        match header {
            RespHeader::Ok(h) => (h, body.to_vec()),
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn serves_a_filter_request_end_to_end() {
        let s = svc(ServiceConfig::default());
        let req = Request::parse("filter tenant=t size=8 seed=3 radius=1 layout=hilbert")
            .expect("valid");
        let t = s.submit(req).expect("admitted");
        let (h, body) = wait_ok(&t);
        assert_eq!(h.bytes, 8 * 8 * 8 * 4);
        assert_eq!(body.len(), h.bytes);
        assert!(h.whole);
        assert_eq!(h.failed, 0);
        assert!(bytes_f32(&body).expect("f32 body").iter().all(|v| v.is_finite()));
        s.drain(Duration::from_secs(5));
    }

    #[test]
    fn serves_a_render_request_end_to_end() {
        let s = svc(ServiceConfig::default());
        let req = Request::parse("render tenant=t size=8 seed=3 image=16 tile=8").expect("valid");
        let t = s.submit(req).expect("admitted");
        let (h, body) = wait_ok(&t);
        assert_eq!(h.bytes, 16 * 16 * 4 * 4);
        assert_eq!(body.len(), h.bytes);
        assert!(h.whole);
        s.drain(Duration::from_secs(5));
    }

    #[test]
    fn spill_mode_round_trips_cold_volumes_through_the_disk_tier() {
        let spill = std::env::temp_dir()
            .join(format!("sfc_service_spill_{}", std::process::id()));
        std::fs::remove_dir_all(&spill).ok();
        // Budget fits one 8³ volume: alternating seeds force evictions.
        let s = svc(ServiceConfig {
            cache_bytes: 8 * 8 * 8 * 4,
            spill_dir: Some(spill.clone()),
            ..ServiceConfig::default()
        });
        let ask = |seed: u64| {
            let t = s
                .submit(
                    Request::parse(&format!(
                        "filter tenant=t size=8 seed={seed} radius=1 layout=z"
                    ))
                    .expect("valid"),
                )
                .expect("admitted");
            wait_ok(&t).1
        };
        let first = ask(1);
        ask(2); // evicts seed 1 to the spill store
        let again = ask(1); // faulted back from disk
        assert_eq!(first, again, "spilled volume must produce identical bytes");
        let stats = s.cache.stats();
        assert!(stats.spills >= 1, "{stats:?}");
        assert!(stats.spill_hits >= 1, "{stats:?}");
        assert_eq!(stats.spill_corrupt, 0, "{stats:?}");
        s.drain(Duration::from_secs(5));
        std::fs::remove_dir_all(&spill).ok();
    }

    #[test]
    fn identical_requests_share_one_execution_and_the_cache() {
        let s = svc(ServiceConfig {
            lanes: 1, // force both requests to queue behind one lane
            ..ServiceConfig::default()
        });
        // Occupy the lane so the two coalescable requests sit queued.
        let blocker = s
            .submit(Request::parse("filter tenant=z size=10 seed=9 radius=2").expect("valid"))
            .expect("admitted");
        let ta = s
            .submit(Request::parse("filter tenant=a size=8 seed=5 radius=1").expect("valid"))
            .expect("admitted");
        let tb = s
            .submit(Request::parse("filter tenant=b size=8 seed=5 radius=1").expect("valid"))
            .expect("admitted");
        let _ = wait_ok(&blocker);
        let (ha, body_a) = wait_ok(&ta);
        let (hb, body_b) = wait_ok(&tb);
        assert_eq!(body_a, body_b, "coalesced waiters get the same bytes");
        // Both waiters see the same header: one other request shared
        // this execution.
        assert_eq!((ha.coalesced, hb.coalesced), (1, 1));
        s.drain(Duration::from_secs(5));
        assert_eq!(lock(&s.shared.core).stats().coalesced, 1);
    }

    #[test]
    fn disconnected_waiters_reap_the_run() {
        let s = svc(ServiceConfig {
            lanes: 1,
            ..ServiceConfig::default()
        });
        // Half the units stall 50 ms, so the uncancelled run takes
        // seconds on the two engine threads.
        let req = Request::parse(
            "filter tenant=t size=16 seed=1 radius=2 fault_seed=3 timeout_rate=0.5 stall_ms=50",
        )
        .expect("valid");
        let t = s.submit(req).expect("admitted");
        while s.active_requests() == 0 {
            std::thread::yield_now();
        }
        t.cancel();
        // The last waiter left, so the run token fired at once, and the
        // drain finds the lane free long before the run would have ended.
        let start = Instant::now();
        let report = s.drain(Duration::from_secs(10));
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "{took:?}");
        assert!(report.clean, "no run left to cancel: {report:?}");
    }

    #[test]
    fn a_run_the_drain_cancels_answers_err_cancelled_and_saves_nothing() {
        let dir = std::env::temp_dir().join(format!("sfc-svc-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = svc(ServiceConfig {
            lanes: 1,
            data_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        let req = Request::parse(
            "filter tenant=t size=16 seed=1 radius=2 fault_seed=3 timeout_rate=0.5 stall_ms=50 \
             save=1 req_id=doomed",
        )
        .expect("valid");
        let t = s.submit(req).expect("admitted");
        while s.active_requests() == 0 {
            std::thread::yield_now();
        }
        let report = s.drain(Duration::ZERO);
        assert_eq!((report.shed, report.cancelled), (0, 1));
        match t.wait(Duration::from_secs(10)).expect("reply").header {
            RespHeader::Err { kind, .. } => assert_eq!(kind, "cancelled"),
            other => panic!("expected err cancelled, got {other:?}"),
        }
        let saved = std::fs::read_dir(&dir).expect("data dir").count();
        assert_eq!(saved, 0, "a cancelled run saves nothing");
        assert_eq!(s.dedup_stats().resident, 0, "nor is it remembered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_with_empty_queues_is_clean() {
        let s = svc(ServiceConfig::default());
        let t = s
            .submit(Request::parse("filter tenant=t size=8 seed=1 radius=1").expect("valid"))
            .expect("admitted");
        let _ = wait_ok(&t);
        let report = s.drain(Duration::from_secs(5));
        assert!(report.clean, "{report:?}");
        assert_eq!((report.shed, report.cancelled), (0, 0));
    }

    #[test]
    fn save_writes_a_loadable_volume_and_journals_the_request() {
        let dir = std::env::temp_dir().join(format!("sfc-svc-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = svc(ServiceConfig {
            data_dir: Some(dir.clone()),
            journal: Some(dir.join("journal.bin")),
            ..ServiceConfig::default()
        });
        let t = s
            .submit(Request::parse("filter tenant=t size=8 seed=1 radius=1 save=1").expect("valid"))
            .expect("admitted");
        let (h, body) = wait_ok(&t);
        assert!(h.whole);
        s.drain(Duration::from_secs(5));
        let saved: Vec<_> = std::fs::read_dir(&dir)
            .expect("data dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "vol"))
            .collect();
        assert_eq!(saved.len(), 1);
        let (dims, values) = sfc_datagen::load_volume(&saved[0]).expect("clean volume");
        assert_eq!(dims, Dims3::cube(8));
        assert_eq!(f32_bytes(&values), body, "saved bytes match the reply");
        // The journal replays cleanly and holds the serve record.
        let (_, rec) = Journal::open(dir.join("journal.bin")).expect("journal opens");
        assert_eq!(rec.records.len(), 1);
        assert!(!rec.was_torn());
        assert!(String::from_utf8_lossy(&rec.records[0]).starts_with("serve tenant=t"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
