//! The service's request core: all request state, as one plain state
//! machine behind the service's one lock.
//!
//! [`RequestCore`] holds the per-tenant queues with their deficits,
//! in-flight counts and the round-robin ring; the coalescing keys; the
//! idempotency dedup entries; the running jobs with their waiters and run
//! tokens; the drain state; and the `server.sched.*` counters. Its methods
//! take `&mut self` and, where time matters, the caller's `now`. None of
//! them locks, sleeps, spawns a thread, reads the clock, or touches a
//! socket or file. One method per event is the whole interface:
//! [`RequestCore::arrive`], [`RequestCore::pop`], [`RequestCore::complete`],
//! [`RequestCore::cancel`], and the drain pair [`RequestCore::begin_drain`]
//! and [`RequestCore::shed_all`]. An event that answers a waiter appends a
//! [`Reply`] to the caller's outbox; the driver
//! ([`Service`](crate::Service)) fills the waiter's one-shot slot once it
//! has released the lock. A seeded simulator (`sim`, in test builds)
//! drives the core on a virtual clock.
//!
//! **Admission.** An arrival with a `req_id` first consults the dedup
//! entries: a completed result of the same `(tenant, req_id)` within the
//! TTL answers it at once with `dedup=1`, and one left by a request with
//! another [`Fingerprint`] refuses it with a typed `invalid-parameter`
//! error; neither queues anything. Otherwise the request joins its tenant's
//! bounded queue, or is refused with a typed [`Overloaded`] (`queue-full`,
//! or `draining` once the drain began). Its coalescing key and cost are
//! computed here, once.
//!
//! **Dispatch: deficit round-robin** (Shreedhar & Varghese, SIGCOMM 1995).
//! A tenant's visit earns one `quantum` of credit, and the tenant keeps
//! the head of the ring, served one job per pop, while it is under its
//! in-flight quota and its deficit covers its head request's
//! [`Request::cost`]. Fairness is therefore in work units, not request
//! counts. A deficit resets when its queue empties, so idle tenants bank
//! nothing. A quota-blocked visit earns no credit and forfeits the
//! deficit, so quota time is not banked for a later burst either. Every
//! deficit stays below `quantum + max_cost`.
//!
//! **Coalescing.** At pop time every queued request (any tenant) with the
//! popped one's [`Request::work_key`] rides along and is answered by the
//! same execution. Riders ride free: only the primary tenant is charged,
//! since coalesced work costs the service one execution. `save=1` requests
//! have no key and never coalesce.
//!
//! **Expiry.** A pop first answers every queued request whose wait reached
//! its `deadline_ms` with a typed `expired` header, decided from the pop's
//! `now`. An expired request never reaches the engine.
//!
//! **Cancellation.** A waiter that leaves is dropped from its queue. A
//! waiter of a running job is flagged, and when the job's last waiter
//! leaves its run token fires at once.
//!
//! **Drain.** After [`RequestCore::begin_drain`] every arrival is refused
//! `draining`; [`RequestCore::shed_all`] answers every queued waiter with
//! `shed` and fires every running job's token.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sfc_core::SfcError;
use sfc_harness::{CancelToken, FaultRates, LazyCounter};

use crate::protocol::{error_kind, LayoutChoice, OkHeader, OpKind, Request, RespHeader};
use crate::service::Slot;

static DEDUP_HITS: LazyCounter = LazyCounter::new("server.dedup.hits");
static DEDUP_INSERTS: LazyCounter = LazyCounter::new("server.dedup.inserts");
static DEDUP_EVICTIONS: LazyCounter = LazyCounter::new("server.dedup.evictions");
static DEDUP_CONFLICTS: LazyCounter = LazyCounter::new("server.dedup.conflicts");

/// Requests whose queue wait reached their deadline before a lane took
/// them — refused with a typed `expired` header, no compute spent.
static EXPIRED_TOTAL: LazyCounter = LazyCounter::new("server.expired");

/// Arrivals carrying `attempt>1` — retried deliveries observed by this
/// process (whether or not they hit the dedup cache).
static RETRY_ARRIVALS: LazyCounter = LazyCounter::new("server.retry_arrivals");

/// A finished request's reply: header line plus binary body, shared
/// (`Arc`) so coalesced waiters don't copy the payload per tenant.
#[derive(Debug, Clone)]
pub struct Response {
    /// The header line.
    pub header: RespHeader,
    /// The binary body (`bytes=` of the header names its length).
    pub body: Arc<[u8]>,
}

impl Response {
    /// A body-less response (errors, sheds).
    pub fn header_only(header: RespHeader) -> Self {
        Response {
            header,
            body: Arc::from([] as [u8; 0]),
        }
    }
}

/// Typed admission refusal: the client is told which bound it hit and
/// where it stands, so a well-behaved client can back off intelligently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overloaded {
    /// Tenant whose bound refused the request.
    pub tenant: String,
    /// `queue-full` (backpressure) or `draining` (shutdown in progress).
    pub reason: &'static str,
    /// Requests currently queued for the tenant.
    pub queued: usize,
    /// The refused bound.
    pub limit: usize,
}

impl Overloaded {
    /// The wire header for this refusal.
    pub fn header(&self) -> RespHeader {
        RespHeader::Overloaded {
            tenant: self.tenant.clone(),
            reason: self.reason.to_string(),
            queued: self.queued,
            limit: self.limit,
        }
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Per-tenant queue bound; submits beyond it are refused
    /// (`overloaded reason=queue-full`).
    pub queue_cap: usize,
    /// Per-tenant in-flight bound: at most this many of a tenant's
    /// requests execute concurrently.
    pub quota: usize,
    /// Deficit credit earned per eligible round-robin visit, in work
    /// units (see [`Request::cost`]).
    pub quantum: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            queue_cap: 8,
            quota: 2,
            quantum: 256,
        }
    }
}

/// What a drain observed (see [`Service::drain`](crate::Service::drain)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every queued and in-flight request finished inside the
    /// budget (nothing was shed or cancelled).
    pub clean: bool,
    /// Queued requests answered with `shed` at budget expiry.
    pub shed: usize,
    /// In-flight runs cancelled at budget expiry.
    pub cancelled: usize,
}

/// Idempotency dedup counters (see
/// [`Service::dedup_stats`](crate::Service::dedup_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Retried arrivals answered from the cache.
    pub hits: u64,
    /// Completed results remembered.
    pub inserts: u64,
    /// Entries evicted by TTL or capacity.
    pub evictions: u64,
    /// Arrivals refused because their `req_id` was already used for a
    /// different request.
    pub conflicts: u64,
    /// Entries currently resident.
    pub resident: usize,
}

impl DedupStats {
    /// The process-wide `server.dedup.*` counters with `resident` entries.
    pub(crate) fn with_resident(resident: usize) -> Self {
        DedupStats {
            hits: DEDUP_HITS.value(),
            inserts: DEDUP_INSERTS.value(),
            evictions: DEDUP_EVICTIONS.value(),
            conflicts: DEDUP_CONFLICTS.value(),
            resident,
        }
    }
}

/// The `server.sched.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SchedStats {
    /// Requests admitted to a queue.
    pub(crate) submitted: u64,
    /// Jobs handed to execution lanes.
    pub(crate) served: u64,
    /// Riders answered by another request's execution.
    pub(crate) coalesced: u64,
    /// Arrivals refused with `overloaded`.
    pub(crate) overloaded: u64,
    /// Queued requests answered with a `shed` header at drain time.
    pub(crate) shed: u64,
    /// Queued requests dropped because their waiter left first.
    pub(crate) abandoned: u64,
}

/// The fields of a request that decide its result and its side effects.
/// Every attempt of one logical request repeats them exactly; a retry
/// changes only `deadline_ms` (the remaining budget) and `attempt`, which
/// are left out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Fingerprint {
    op: OpKind,
    size: usize,
    layout: LayoutChoice,
    seed: u64,
    faults: Option<(u64, FaultRates)>,
    save: bool,
}

impl Fingerprint {
    /// The fingerprint of `req`.
    pub(crate) fn of(req: &Request) -> Self {
        Fingerprint {
            op: req.op,
            size: req.size,
            layout: req.layout,
            seed: req.seed,
            faults: req.faults,
            save: req.save,
        }
    }
}

/// A popped unit of execution: the primary request and how many riders
/// its reply also answers. Hand it back to [`RequestCore::complete`].
pub(crate) struct Job {
    /// Identity of the running job (its primary waiter's id).
    pub(crate) id: u64,
    /// The request to execute (the primary's).
    pub(crate) req: Request,
    /// Run-scoped cancel token, wired into the engine's
    /// `SupervisorConfig::cancel`; it fires when the job's last waiter
    /// leaves or the drain budget runs out.
    pub(crate) token: CancelToken,
    /// When the primary arrived — the zero point of its `deadline_ms`
    /// budget (queue wait counts against the deadline).
    pub(crate) submitted: Instant,
    /// Riders answered by this execution.
    pub(crate) coalesced: usize,
}

/// A reply the driver delivers into the answered waiter's slot.
pub(crate) struct Reply {
    pub(crate) slot: Arc<Slot>,
    pub(crate) resp: Response,
}

struct Waiter {
    id: u64,
    slot: Arc<Slot>,
    /// `(tenant, req_id)` the completed result is remembered under.
    dedup: Option<(String, String)>,
    /// Left while its job was running (only running waiters carry it: a
    /// queued waiter that leaves is dropped).
    cancelled: bool,
}

impl Waiter {
    fn reply(&self, resp: Response) -> Reply {
        Reply {
            slot: self.slot.clone(),
            resp,
        }
    }
}

struct Pending {
    req: Request,
    /// [`Request::work_key`], computed at arrival.
    key: Option<String>,
    /// [`Request::cost`], computed at arrival.
    cost: u64,
    waiter: Waiter,
    submitted: Instant,
}

struct Running {
    id: u64,
    token: CancelToken,
    waiters: Vec<Waiter>,
}

#[derive(Default)]
struct TenantState {
    queue: VecDeque<Pending>,
    deficit: u64,
    inflight: usize,
    in_ring: bool,
}

struct Remembered {
    fingerprint: Fingerprint,
    header: OkHeader,
    body: Arc<[u8]>,
    inserted: Instant,
}

type DedupKey = (String, String);

/// All request state of one service (see the module docs).
pub(crate) struct RequestCore {
    cfg: SchedConfig,
    dedup_ttl: Duration,
    dedup_cap: usize,
    /// Ordered, so a seeded schedule replays the same sweeps and riders.
    tenants: BTreeMap<String, TenantState>,
    ring: VecDeque<String>,
    /// The ring's front tenant has had its quantum for this visit.
    visiting: bool,
    running: Vec<Running>,
    remembered: HashMap<DedupKey, Remembered>,
    /// Remembered keys, oldest insertion first (TTL pruning, cap eviction).
    order: VecDeque<DedupKey>,
    draining: bool,
    next_id: u64,
    stats: SchedStats,
}

impl RequestCore {
    /// An empty core: scheduler bounds `cfg`, completed results remembered
    /// for `dedup_ttl`, at most `dedup_cap` of them.
    pub(crate) fn new(cfg: SchedConfig, dedup_ttl: Duration, dedup_cap: usize) -> Self {
        RequestCore {
            cfg,
            dedup_ttl,
            dedup_cap: dedup_cap.max(1),
            tenants: BTreeMap::new(),
            ring: VecDeque::new(),
            visiting: false,
            running: Vec::new(),
            remembered: HashMap::new(),
            order: VecDeque::new(),
            draining: false,
            next_id: 0,
            stats: SchedStats::default(),
        }
    }

    /// `req` arrives at `now`; its reply goes to `slot`. Returns the
    /// waiter's id — queued, or already answered from the dedup entries
    /// (the reply is in `out`) — or the typed refusal.
    pub(crate) fn arrive(
        &mut self,
        req: Request,
        slot: Arc<Slot>,
        now: Instant,
        out: &mut Vec<Reply>,
    ) -> Result<u64, Overloaded> {
        if req.attempt > 1 {
            RETRY_ARRIVALS.add(1);
        }
        let queued = self.tenants.get(&req.tenant).map_or(0, |t| t.queue.len());
        if self.draining {
            self.stats.overloaded += 1;
            return Err(Overloaded {
                tenant: req.tenant,
                reason: "draining",
                queued,
                limit: 0,
            });
        }
        self.next_id += 1;
        let waiter = Waiter {
            id: self.next_id,
            slot,
            dedup: req.req_id.clone().map(|rid| (req.tenant.clone(), rid)),
            cancelled: false,
        };
        if let Some(key) = &waiter.dedup {
            self.prune(now);
            if let Some(resp) = self.replay(key, &req) {
                out.push(waiter.reply(resp));
                return Ok(waiter.id);
            }
        }
        if queued >= self.cfg.queue_cap {
            self.stats.overloaded += 1;
            return Err(Overloaded {
                tenant: req.tenant,
                reason: "queue-full",
                queued,
                limit: self.cfg.queue_cap,
            });
        }
        let id = waiter.id;
        let st = self.tenants.entry(req.tenant.clone()).or_default();
        if !st.in_ring {
            st.in_ring = true;
            self.ring.push_back(req.tenant.clone());
        }
        st.queue.push_back(Pending {
            key: req.work_key(),
            cost: req.cost(),
            req,
            waiter,
            submitted: now,
        });
        self.stats.submitted += 1;
        Ok(id)
    }

    /// The remembered answer to a retry of `key`: the cached reply with
    /// `dedup=1`, or a typed `invalid-parameter` refusal when the entry
    /// came from a request with another fingerprint.
    fn replay(&self, key: &DedupKey, req: &Request) -> Option<Response> {
        let entry = self.remembered.get(key)?;
        if entry.fingerprint != Fingerprint::of(req) {
            DEDUP_CONFLICTS.add(1);
            let err = SfcError::InvalidParameter {
                name: "req_id",
                reason: format!("{:?} was already used for a different request", key.1),
            };
            return Some(Response::header_only(RespHeader::Err {
                kind: error_kind(&err).to_string(),
                message: err.to_string(),
            }));
        }
        DEDUP_HITS.add(1);
        Some(Response {
            header: RespHeader::Ok(OkHeader {
                dedup: true,
                ..entry.header
            }),
            body: entry.body.clone(),
        })
    }

    /// A lane asks for work at `now`. First every queued request whose
    /// wait reached its deadline is answered `expired` (into `out`); then
    /// deficit round-robin picks the next job, with its riders. `None`
    /// when nothing is serveable.
    pub(crate) fn pop(&mut self, now: Instant, out: &mut Vec<Reply>) -> Option<Job> {
        self.expire(now, out);
        let primary = self.next_primary()?;
        let mut waiters = vec![primary.waiter];
        if let Some(key) = &primary.key {
            for st in self.tenants.values_mut() {
                let mut i = 0;
                while i < st.queue.len() {
                    if st.queue[i].key.as_ref() != Some(key) {
                        i += 1;
                    } else if let Some(rider) = st.queue.remove(i) {
                        waiters.push(rider.waiter);
                    }
                }
            }
        }
        let coalesced = waiters.len() - 1;
        self.stats.coalesced += coalesced as u64;
        self.stats.served += 1;
        let id = waiters[0].id;
        let token = CancelToken::new();
        self.running.push(Running {
            id,
            token: token.clone(),
            waiters,
        });
        Some(Job {
            id,
            req: primary.req,
            token,
            submitted: primary.submitted,
            coalesced,
        })
    }

    fn expire(&mut self, now: Instant, out: &mut Vec<Reply>) {
        for st in self.tenants.values_mut() {
            st.queue.retain(|p| {
                let Some(deadline) = p.req.deadline() else {
                    return true;
                };
                let waited = now.saturating_duration_since(p.submitted);
                if waited < deadline {
                    return true;
                }
                EXPIRED_TOTAL.add(1);
                out.push(p.waiter.reply(Response::header_only(RespHeader::Expired {
                    deadline_ms: deadline.as_millis() as u64,
                    waited_ms: waited.as_millis() as u64,
                })));
                false
            });
        }
    }

    /// One deficit-round-robin decision: the next primary request, taken
    /// from its queue and charged to its tenant.
    fn next_primary(&mut self) -> Option<Pending> {
        let mut blocked = 0;
        while let Some(tenant) = self.ring.front() {
            // Every ring entry names a tenant of the map.
            let Some(st) = self.tenants.get_mut(tenant) else {
                self.ring.pop_front();
                continue;
            };
            if st.queue.is_empty() {
                st.in_ring = false;
                st.deficit = 0;
                self.ring.pop_front();
            } else if st.inflight >= self.cfg.quota {
                st.deficit = 0;
                blocked += 1;
                if blocked >= self.ring.len() {
                    self.visiting = false;
                    return None;
                }
                self.ring.rotate_left(1);
            } else {
                if !self.visiting {
                    st.deficit += self.cfg.quantum;
                    self.visiting = true;
                }
                let cost = st.queue[0].cost;
                if st.deficit >= cost {
                    st.deficit -= cost;
                    st.inflight += 1;
                    let primary = st.queue.pop_front();
                    if st.queue.is_empty() {
                        st.in_ring = false;
                        st.deficit = 0;
                        self.ring.pop_front();
                        self.visiting = false;
                    }
                    return primary;
                }
                blocked = 0;
                self.ring.rotate_left(1);
            }
            self.visiting = false;
        }
        None
    }

    /// The lane finished `job` with `resp` at `now`: free its tenant's
    /// quota slot, remember an `ok` result under every waiter's `req_id`,
    /// and answer every waiter still present (into `out`).
    pub(crate) fn complete(
        &mut self,
        job: &Job,
        resp: Response,
        now: Instant,
        out: &mut Vec<Reply>,
    ) {
        let Some(at) = self.running.iter().position(|r| r.id == job.id) else {
            return;
        };
        let run = self.running.swap_remove(at);
        if let Some(st) = self.tenants.get_mut(&job.req.tenant) {
            st.inflight = st.inflight.saturating_sub(1);
        }
        if let RespHeader::Ok(header) = &resp.header {
            for key in run.waiters.iter().filter_map(|w| w.dedup.clone()) {
                let entry = Remembered {
                    fingerprint: Fingerprint::of(&job.req),
                    header: *header,
                    body: resp.body.clone(),
                    inserted: now,
                };
                self.remember(key, entry);
            }
        }
        for w in run.waiters.iter().filter(|w| !w.cancelled) {
            out.push(w.reply(resp.clone()));
        }
    }

    /// Remember `entry` under `key` as the newest result, evicting the
    /// oldest past the cap.
    fn remember(&mut self, key: DedupKey, entry: Remembered) {
        self.prune(entry.inserted);
        if self.remembered.contains_key(&key) {
            self.order.retain(|k| *k != key);
        } else {
            while self.remembered.len() >= self.dedup_cap {
                let Some(oldest) = self.order.pop_front() else {
                    break;
                };
                self.remembered.remove(&oldest);
                DEDUP_EVICTIONS.add(1);
            }
        }
        self.remembered.insert(key.clone(), entry);
        self.order.push_back(key);
        DEDUP_INSERTS.add(1);
    }

    fn prune(&mut self, now: Instant) {
        while let Some(key) = self.order.front() {
            let live = self
                .remembered
                .get(key)
                .is_some_and(|e| now.saturating_duration_since(e.inserted) < self.dedup_ttl);
            if live {
                break;
            }
            if let Some(key) = self.order.pop_front() {
                if self.remembered.remove(&key).is_some() {
                    DEDUP_EVICTIONS.add(1);
                }
            }
        }
    }

    /// Waiter `waiter` left (its client hung up). A queued waiter is
    /// dropped; a running job's waiter is flagged, and the job's run token
    /// fires when its last waiter has left. Unknown ids are ignored.
    pub(crate) fn cancel(&mut self, waiter: u64) {
        for st in self.tenants.values_mut() {
            if let Some(i) = st.queue.iter().position(|p| p.waiter.id == waiter) {
                st.queue.remove(i);
                self.stats.abandoned += 1;
                return;
            }
        }
        for run in &mut self.running {
            if let Some(w) = run.waiters.iter_mut().find(|w| w.id == waiter) {
                w.cancelled = true;
                if run.waiters.iter().all(|w| w.cancelled) {
                    run.token.cancel();
                }
                return;
            }
        }
    }

    /// Stop admitting: every later arrival is refused `draining`. Queued
    /// and running work goes on.
    pub(crate) fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// The drain budget is spent: answer every queued waiter with `shed`
    /// (into `out`), empty the ring, and fire the run token of every
    /// running job whose token has not fired yet.
    pub(crate) fn shed_all(&mut self, out: &mut Vec<Reply>) -> DrainReport {
        let mut shed = 0;
        for st in self.tenants.values_mut() {
            for p in st.queue.drain(..) {
                out.push(p.waiter.reply(Response::header_only(RespHeader::Shed {
                    reason: "drain budget exhausted".to_string(),
                })));
                shed += 1;
            }
            st.in_ring = false;
            st.deficit = 0;
        }
        self.ring.clear();
        self.visiting = false;
        let mut cancelled = 0;
        for run in self.running.iter().filter(|r| !r.token.is_cancelled()) {
            run.token.cancel();
            cancelled += 1;
        }
        self.stats.shed += shed as u64;
        DrainReport {
            clean: shed == 0 && cancelled == 0,
            shed,
            cancelled,
        }
    }

    fn queued(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Draining with nothing queued: lanes may exit.
    pub(crate) fn finished(&self) -> bool {
        self.draining && self.queued() == 0
    }

    /// Nothing queued and nothing running.
    pub(crate) fn idle(&self) -> bool {
        self.running.is_empty() && self.queued() == 0
    }

    /// Jobs executing on a lane.
    pub(crate) fn running(&self) -> usize {
        self.running.len()
    }

    /// Dedup entries resident.
    pub(crate) fn dedup_resident(&self) -> usize {
        self.remembered.len()
    }

    /// The `server.sched.*` counters.
    pub(crate) fn stats(&self) -> SchedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The core on a virtual clock, with its outbox.
    struct Rig {
        core: RequestCore,
        t0: Instant,
        out: Vec<Reply>,
    }

    impl Rig {
        fn new(cfg: SchedConfig) -> Self {
            Self::with_dedup(cfg, Duration::from_secs(60), 1024)
        }

        fn with_dedup(cfg: SchedConfig, ttl: Duration, cap: usize) -> Self {
            Rig {
                core: RequestCore::new(cfg, ttl, cap),
                t0: Instant::now(),
                out: Vec::new(),
            }
        }

        fn at(&self, ms: u64) -> Instant {
            self.t0 + Duration::from_millis(ms)
        }

        /// `line` arrives at `ms`: its waiter id and reply slot.
        fn arrive_at(&mut self, line: &str, ms: u64) -> Result<(u64, Arc<Slot>), Overloaded> {
            let slot = Arc::new(Slot::default());
            let req = Request::parse(line).expect("valid request");
            let now = self.at(ms);
            let id = self.core.arrive(req, slot.clone(), now, &mut self.out)?;
            Ok((id, slot))
        }

        fn arrive(&mut self, line: &str) -> Result<(u64, Arc<Slot>), Overloaded> {
            self.arrive_at(line, 0)
        }

        fn pop_at(&mut self, ms: u64) -> Option<Job> {
            let now = self.at(ms);
            self.core.pop(now, &mut self.out)
        }

        fn pop(&mut self) -> Option<Job> {
            self.pop_at(0)
        }

        fn complete_at(&mut self, job: &Job, resp: Response, ms: u64) {
            let now = self.at(ms);
            self.core.complete(job, resp, now, &mut self.out);
        }

        /// Pop and complete with a `shed` stand-in until nothing is
        /// serveable; the popped primaries' tenants in order.
        fn serve_all(&mut self) -> Vec<String> {
            let mut order = Vec::new();
            while let Some(job) = self.pop() {
                self.complete_at(&job, shed("done"), 0);
                order.push(job.req.tenant);
            }
            order
        }

        /// The last reply addressed to `slot`.
        fn reply(&self, slot: &Arc<Slot>) -> Option<&Response> {
            self.out
                .iter()
                .rev()
                .find(|r| Arc::ptr_eq(&r.slot, slot))
                .map(|r| &r.resp)
        }
    }

    fn filter(tenant: &str, seed: u64) -> String {
        format!("filter tenant={tenant} size=8 seed={seed} radius=1")
    }

    fn shed(reason: &str) -> Response {
        Response::header_only(RespHeader::Shed {
            reason: reason.into(),
        })
    }

    fn ok(body: &[u8]) -> Response {
        Response {
            header: RespHeader::Ok(OkHeader {
                bytes: body.len(),
                whole: true,
                ..OkHeader::default()
            }),
            body: Arc::from(body),
        }
    }

    fn cfg() -> SchedConfig {
        SchedConfig {
            queue_cap: 8,
            quota: 8,
            // One 8³ filter costs 64 units; a quantum covering it means
            // every eligible visit serves, isolating round-robin order.
            quantum: 64,
        }
    }

    #[test]
    fn round_robin_interleaves_a_flooder_with_a_light_tenant() {
        let mut rig = Rig::new(cfg());
        for seed in 0..6 {
            rig.arrive(&filter("flood", seed)).expect("admit");
        }
        for seed in 100..102 {
            rig.arrive(&filter("calm", seed)).expect("admit");
        }
        let order = rig.serve_all();
        assert_eq!(order.len(), 8);
        // Both of calm's requests are served within the first four pops
        // even though flood queued first and six deep.
        let calm_served: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, t)| t.as_str() == "calm")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(calm_served.len(), 2, "order: {order:?}");
        assert!(calm_served[1] <= 3, "order: {order:?}");
    }

    #[test]
    fn deficit_charges_big_requests_more_than_small_ones() {
        // "big" submits 32³-pencil filters (1024 units), "small" 8³
        // (64 units). With quantum=64 a big request needs 16 visits of
        // credit, so small gets many requests through per big one.
        let mut rig = Rig::new(SchedConfig {
            queue_cap: 16,
            quota: 16,
            quantum: 64,
        });
        for seed in 0..2 {
            rig.arrive(&format!("filter tenant=big size=32 seed={seed} radius=1"))
                .expect("admit");
        }
        for seed in 0..8 {
            rig.arrive(&filter("small", seed)).expect("admit");
        }
        let order = rig.serve_all();
        assert_eq!(order.len(), 10);
        // All eight small requests clear before the second big one.
        let last_small = order
            .iter()
            .rposition(|t| t == "small")
            .expect("small served");
        let second_big = order
            .iter()
            .enumerate()
            .filter(|(_, t)| t.as_str() == "big")
            .map(|(i, _)| i)
            .nth(1)
            .expect("both big served");
        assert!(last_small < second_big, "order: {order:?}");
    }

    #[test]
    fn a_tenant_is_served_while_its_deficit_covers_its_head_request() {
        // 32 filters of 8³ (64 units each) against 32 of 16³ (256 units
        // each), quantum 256. A visit serves as many requests as its
        // deficit covers, so both tenants get the same work per round:
        // four small requests per big one. Serving one request per visit
        // gave 1,024 against 4,096 units over the same 32 pops.
        let mut rig = Rig::new(SchedConfig {
            queue_cap: 64,
            quota: 64,
            quantum: 256,
        });
        for seed in 0..32 {
            rig.arrive(&filter("small", seed)).expect("admit");
            rig.arrive(&format!("filter tenant=big size=16 seed={seed} radius=1"))
                .expect("admit");
        }
        let mut work = HashMap::<String, u64>::new();
        for _ in 0..32 {
            let job = rig.pop().expect("backlogged");
            *work.entry(job.req.tenant.clone()).or_default() += job.req.cost();
            let deficits = rig.core.tenants.values().map(|t| t.deficit);
            assert!(deficits.max().unwrap_or(0) < 256 + 256, "deficit bound");
        }
        assert_eq!((work["small"], work["big"]), (1664, 1536), "{work:?}");
    }

    #[test]
    fn queue_bound_refuses_with_typed_overload() {
        let mut rig = Rig::new(SchedConfig {
            queue_cap: 2,
            ..cfg()
        });
        rig.arrive(&filter("a", 0)).expect("admit");
        rig.arrive(&filter("a", 1)).expect("admit");
        let err = rig.arrive(&filter("a", 2)).expect_err("refused");
        assert_eq!(err.reason, "queue-full");
        assert_eq!((err.queued, err.limit), (2, 2));
        // Another tenant's queue is unaffected.
        assert!(rig.arrive(&filter("b", 0)).is_ok());
        assert_eq!(rig.core.stats().overloaded, 1);
    }

    #[test]
    fn quota_caps_one_tenants_concurrency() {
        let mut rig = Rig::new(SchedConfig { quota: 1, ..cfg() });
        // Distinct seeds per request so nothing coalesces and the test
        // isolates pure quota behavior.
        rig.arrive(&filter("a", 0)).expect("admit");
        rig.arrive(&filter("a", 1)).expect("admit");
        rig.arrive(&filter("b", 100)).expect("admit");
        let j1 = rig.pop().expect("first job");
        assert_eq!(j1.req.tenant, "a");
        let j2 = rig.pop().expect("second job");
        assert_eq!(j2.req.tenant, "b", "a is quota-blocked, b is not");
        assert!(rig.pop().is_none(), "a's second request stays blocked");
        rig.complete_at(&j1, shed("done"), 0);
        let j3 = rig.pop().expect("a's slot freed");
        assert_eq!(j3.req.tenant, "a");
    }

    #[test]
    fn identical_requests_coalesce_across_tenants() {
        let mut rig = Rig::new(cfg());
        let (_, a) = rig.arrive(&filter("a", 7)).expect("admit");
        let (_, b) = rig.arrive(&filter("b", 7)).expect("admit"); // same work
        rig.arrive(&filter("c", 8)).expect("admit"); // different work
        let job = rig.pop().expect("job");
        assert_eq!(job.coalesced, 1, "b rides along with a");
        rig.complete_at(&job, shed("test"), 0);
        assert!(rig.reply(&a).is_some());
        assert!(rig.reply(&b).is_some());
        assert_eq!(rig.core.stats().coalesced, 1);
        // c still gets its own execution.
        let j2 = rig.pop().expect("c's job");
        assert_eq!(j2.req.tenant, "c");
        assert_eq!(j2.coalesced, 0);
    }

    #[test]
    fn save_requests_never_coalesce() {
        let mut rig = Rig::new(cfg());
        let line = "filter tenant=a size=8 seed=7 radius=1 save=1";
        rig.arrive(line).expect("admit");
        rig.arrive(&line.replace("tenant=a", "tenant=b"))
            .expect("admit");
        let job = rig.pop().expect("job");
        assert_eq!(job.coalesced, 0);
        rig.complete_at(&job, shed("done"), 0);
        assert!(rig.pop().is_some(), "second save executes separately");
    }

    #[test]
    fn cancelled_queued_requests_are_dropped_not_served() {
        let mut rig = Rig::new(cfg());
        let (a, _) = rig.arrive(&filter("a", 0)).expect("admit");
        rig.arrive(&filter("b", 0)).expect("admit");
        rig.core.cancel(a);
        let job = rig.pop().expect("job");
        assert_eq!(job.req.tenant, "b", "a's abandoned request is skipped");
        assert_eq!(job.coalesced, 0, "nor does it ride along");
        assert_eq!(rig.core.stats().abandoned, 1);
    }

    #[test]
    fn the_last_waiter_to_leave_fires_the_run_token() {
        let mut rig = Rig::new(cfg());
        let (a, _) = rig.arrive(&filter("a", 0)).expect("admit");
        let (b, _) = rig.arrive(&filter("b", 0)).expect("admit");
        let job = rig.pop().expect("job");
        assert_eq!(job.coalesced, 1);
        rig.core.cancel(a);
        assert!(!job.token.is_cancelled(), "b still waits");
        rig.core.cancel(b);
        assert!(job.token.is_cancelled(), "nobody waits");
        rig.complete_at(&job, shed("done"), 0);
        assert!(rig.out.is_empty(), "no reply to waiters that left");
    }

    #[test]
    fn queue_expiry_is_decided_at_pop_on_the_virtual_clock() {
        let mut rig = Rig::new(SchedConfig { quota: 1, ..cfg() });
        rig.arrive_at(&filter("z", 9), 0).expect("admit");
        let blocker = rig.pop_at(0).expect("blocker runs");
        let (_, doomed) = rig
            .arrive_at("filter tenant=z size=8 seed=1 radius=1 deadline_ms=1", 0)
            .expect("admit");
        // Quota-blocked behind the blocker: still queued at 5 ms.
        assert!(rig.pop_at(5).is_none());
        assert!(rig.reply(&doomed).is_some(), "answered at the pop");
        match &rig.reply(&doomed).expect("reply").header {
            RespHeader::Expired {
                deadline_ms,
                waited_ms,
            } => {
                assert_eq!((*deadline_ms, *waited_ms), (1, 5));
            }
            other => panic!("expected expired, got {other:?}"),
        }
        rig.complete_at(&blocker, shed("done"), 6);
        assert!(
            rig.pop_at(6).is_none(),
            "the expired request never reaches a lane"
        );
        // A request popped before its deadline runs.
        rig.arrive_at("filter tenant=z size=8 seed=2 radius=1 deadline_ms=3", 6)
            .expect("admit");
        assert!(rig.pop_at(8).is_some());
    }

    #[test]
    fn drain_refuses_new_work_and_shed_answers_the_queue() {
        let mut rig = Rig::new(cfg());
        let (_, t0) = rig.arrive(&filter("a", 0)).expect("admit");
        rig.core.begin_drain();
        let err = rig.arrive(&filter("a", 1)).expect_err("draining refuses");
        assert_eq!(err.reason, "draining");
        assert!(!rig.core.finished(), "queued work may still be served");
        let report = rig.core.shed_all(&mut rig.out);
        assert_eq!((report.shed, report.cancelled, report.clean), (1, 0, false));
        assert!(matches!(
            rig.reply(&t0).map(|r| &r.header),
            Some(RespHeader::Shed { .. })
        ));
        assert!(rig.core.finished(), "draining + empty ends the lanes");
    }

    /// Execute `line` (carrying a `req_id`) to completion with `body`.
    fn remember(rig: &mut Rig, line: &str, body: &[u8], ms: u64) {
        rig.arrive_at(line, ms).expect("admit");
        let job = rig.pop_at(ms).expect("job");
        rig.complete_at(&job, ok(body), ms);
    }

    fn with_id(size: usize, req_id: &str) -> String {
        format!("filter tenant=t size={size} seed=1 radius=1 req_id={req_id}")
    }

    #[test]
    fn hit_returns_the_cached_body_with_dedup_set() {
        let mut rig = Rig::new(cfg());
        remember(&mut rig, &with_id(8, "r1"), &[1, 2, 3], 0);
        let (_, slot) = rig
            .arrive(&format!("{} attempt=2", with_id(8, "r1")))
            .expect("answered");
        let resp = rig.reply(&slot).expect("answered at once").clone();
        match resp.header {
            RespHeader::Ok(h) => {
                assert!(h.dedup, "replayed header must carry dedup=1");
                assert_eq!(h.bytes, 3);
            }
            other => panic!("expected ok, got {other:?}"),
        }
        assert_eq!(&resp.body[..], &[1, 2, 3]);
        assert!(rig.pop().is_none(), "a replay queues nothing");
        assert_eq!(rig.core.stats().submitted, 1, "a replay is not submitted");
    }

    #[test]
    fn keys_are_tenant_scoped() {
        let mut rig = Rig::new(cfg());
        remember(
            &mut rig,
            &with_id(8, "r1").replace("tenant=t", "tenant=alice"),
            &[9],
            0,
        );
        let (_, bob) = rig
            .arrive(&with_id(8, "r1").replace("tenant=t", "tenant=bob"))
            .expect("admit");
        assert!(
            rig.reply(&bob).is_none(),
            "bob cannot replay alice's result"
        );
        let (_, alice) = rig
            .arrive(&with_id(8, "r1").replace("tenant=t", "tenant=alice"))
            .expect("admit");
        assert!(rig.reply(&alice).is_some());
    }

    #[test]
    fn entries_expire_after_the_ttl() {
        let mut rig = Rig::with_dedup(cfg(), Duration::from_millis(30), 8);
        remember(&mut rig, &with_id(8, "r1"), &[1], 0);
        let (_, early) = rig.arrive_at(&with_id(8, "r1"), 29).expect("admit");
        assert!(rig.reply(&early).is_some());
        let (_, late) = rig.arrive_at(&with_id(8, "r1"), 30).expect("admit");
        assert!(
            rig.reply(&late).is_none(),
            "TTL-expired entry must not replay"
        );
        assert_eq!(rig.core.dedup_resident(), 0, "prune removed it");
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut rig = Rig::with_dedup(cfg(), Duration::from_secs(60), 2);
        for (ms, id) in [(0, "r1"), (1, "r2"), (2, "r3")] {
            remember(&mut rig, &with_id(8, id), &[1], ms);
        }
        assert_eq!(rig.core.dedup_resident(), 2);
        let replayed = |rig: &mut Rig, id: &str| {
            let (_, slot) = rig.arrive_at(&with_id(8, id), 3).expect("admit");
            rig.reply(&slot).is_some()
        };
        assert!(!replayed(&mut rig, "r1"), "oldest evicted at cap");
        assert!(replayed(&mut rig, "r2"));
        assert!(replayed(&mut rig, "r3"));
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order_entries() {
        let mut rig = Rig::new(cfg());
        // Two executions of one req_id: the second arrives while the
        // first runs, so it queues and runs too.
        rig.arrive(&with_id(8, "r1")).expect("admit");
        let first = rig.pop().expect("first");
        rig.arrive(&with_id(8, "r1")).expect("admit");
        rig.complete_at(&first, ok(&[1]), 0);
        let second = rig.pop().expect("second");
        rig.complete_at(&second, ok(&[1, 2]), 1);
        assert_eq!(rig.core.dedup_resident(), 1);
        assert_eq!(rig.core.order.len(), 1);
        let (_, slot) = rig.arrive_at(&with_id(8, "r1"), 2).expect("admit");
        match &rig.reply(&slot).expect("hit").header {
            RespHeader::Ok(h) => assert_eq!(h.bytes, 2, "latest result wins"),
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn a_reused_req_id_with_another_fingerprint_is_refused() {
        let mut rig = Rig::new(cfg());
        remember(&mut rig, &with_id(8, "r1"), &[1, 2, 3], 0);
        let before = DEDUP_CONFLICTS.value();
        let (_, slot) = rig.arrive(&with_id(16, "r1")).expect("answered");
        let resp = rig
            .reply(&slot)
            .expect("a typed refusal, not a miss")
            .clone();
        match &resp.header {
            RespHeader::Err { kind, message } => {
                assert_eq!(kind, "invalid-parameter");
                assert!(!crate::protocol::error_kind_is_transient(kind));
                assert!(message.contains("req_id"), "{message}");
            }
            other => panic!("expected err, got {other:?}"),
        }
        assert!(resp.body.is_empty(), "no body of the earlier request leaks");
        assert!(DEDUP_CONFLICTS.value() > before);
        assert!(rig.pop().is_none(), "the refusal queues nothing");
        // The entry is untouched: the original request still replays.
        let (_, again) = rig.arrive(&with_id(8, "r1")).expect("answered");
        assert!(matches!(
            rig.reply(&again).map(|r| &r.header),
            Some(RespHeader::Ok(_))
        ));
    }

    #[test]
    fn retry_fields_are_not_part_of_the_fingerprint() {
        let line = "filter tenant=t size=8 seed=1 radius=1 req_id=r1";
        let first = Request::parse(&format!("{line} deadline_ms=900")).expect("valid");
        let retry = Request::parse(&format!("{line} deadline_ms=450 attempt=2")).expect("valid");
        assert_eq!(Fingerprint::of(&first), Fingerprint::of(&retry));
        let other =
            Request::parse("filter tenant=t size=8 seed=2 radius=1 req_id=r1").expect("valid");
        assert_ne!(Fingerprint::of(&first), Fingerprint::of(&other));
    }
}

/// A seeded simulator of the request core. Each schedule draws a
/// scheduler configuration and a few virtual lanes, then a stream of
/// arrivals (tenants, ops, sizes and layouts from a small pool, so
/// identical requests meet and coalesce, with `save=1`, deadlines, fresh
/// `req_id`s and retries of earlier ones under the same or another
/// fingerprint), pops, completions, hang-ups, clock steps on a virtual
/// clock, and one drain at a random time. Every invariant is checked
/// after every event. Seeds come from `CHAOS_SEEDS` when set.
#[cfg(test)]
mod sim {
    use super::*;
    use sfc_core::SplitMix64;

    const TENANTS: [&str; 3] = ["a", "b", "c"];
    /// Work from a small pool (costs 16, 64, 256 and 4 units).
    const WORK: [&str; 4] = [
        "filter size=4 radius=1",
        "filter size=8 radius=1",
        "filter size=16 radius=1",
        "render size=8 image=16 tile=8",
    ];
    const MAX_COST: u64 = 256;
    const LAYOUTS: [&str; 2] = ["z", "hilbert"];
    const MIN_SCHEDULES: usize = 1000;
    const MIN_EVENTS: usize = 200;

    fn seeds() -> Vec<u64> {
        match std::env::var("CHAOS_SEEDS") {
            Ok(s) => s
                .split(',')
                .map(|t| {
                    t.trim().parse().unwrap_or_else(|_| {
                        panic!("CHAOS_SEEDS must be comma-separated integers, got {t:?}")
                    })
                })
                .collect(),
            Err(_) => vec![0xC0FFEE, 0xBAD5EED, 0x0DDB17, 0xFACADE],
        }
    }

    #[test]
    fn seeded_schedules_keep_every_invariant() {
        let seeds = seeds();
        let per_seed = MIN_SCHEDULES.div_ceil(seeds.len());
        let start = Instant::now();
        let mut events = 0;
        for &seed in &seeds {
            let mut rng = SplitMix64::new(seed);
            for schedule in 0..per_seed {
                let name = format!("seed {seed} schedule {schedule}");
                events += Sim::new(name, rng.next_u64()).run();
            }
        }
        let schedules = seeds.len() * per_seed;
        let secs = start.elapsed().as_secs_f64();
        println!(
            "request core simulator: seeds {seeds:?}: {schedules} schedules, {events} events, \
             {:.0} schedules/s",
            schedules as f64 / secs
        );
    }

    /// One request the simulator sent.
    struct Sent {
        /// Its request line, without `attempt=`.
        line: String,
        req: Request,
        /// Held so that no later slot takes its address (`Sim::by_slot`).
        slot: Arc<Slot>,
        waiter: Option<u64>,
        at: Instant,
        cancelled: bool,
        replies: usize,
        popped: bool,
    }

    /// A remembered result, as the simulator expects the core to hold it.
    struct Memo {
        fingerprint: Fingerprint,
        body: Arc<[u8]>,
        at: Instant,
        /// Position of its latest insert in `Sim::inserts`.
        seq: usize,
    }

    /// Work charged to two tenants over a stretch of pops in which both
    /// stay backlogged and under quota: the running difference and its
    /// extremes since the stretch began.
    #[derive(Clone, Copy, Default)]
    struct Stretch {
        diff: i64,
        lo: i64,
        hi: i64,
    }

    struct Sim {
        name: String,
        step: usize,
        rng: SplitMix64,
        core: RequestCore,
        cfg: SchedConfig,
        ttl: Duration,
        cap: usize,
        now: Instant,
        lanes: Vec<Option<Job>>,
        sent: Vec<Sent>,
        by_slot: HashMap<usize, usize>,
        by_waiter: HashMap<u64, usize>,
        /// Sent indices of each running job's waiters, primary first.
        jobs: HashMap<u64, Vec<usize>>,
        memos: HashMap<DedupKey, Memo>,
        inserts: Vec<DedupKey>,
        next_req_id: u64,
        draining: bool,
        shed: bool,
        fairness: [Stretch; 3],
    }

    fn slot_key(slot: &Arc<Slot>) -> usize {
        Arc::as_ptr(slot) as usize
    }

    fn tenant_index(tenant: &str) -> usize {
        TENANTS
            .iter()
            .position(|t| *t == tenant)
            .expect("pool tenant")
    }

    /// The body a run of `fingerprint` yields: deterministic, like the
    /// engine's.
    fn body_of(fingerprint: &Fingerprint) -> Arc<[u8]> {
        Arc::from(format!("{fingerprint:?}").into_bytes())
    }

    impl Sim {
        fn new(name: String, seed: u64) -> Self {
            let mut rng = SplitMix64::new(seed);
            let mut pick = |n: u64| rng.next_u64() % n;
            let cfg = SchedConfig {
                queue_cap: 2 + pick(7) as usize,
                quota: 1 + pick(4) as usize,
                quantum: [64, 256, 512][pick(3) as usize],
            };
            let ttl = Duration::from_millis(20 + pick(60));
            let cap = 2 + pick(5) as usize;
            let lanes = 2 + pick(2) as usize;
            let now = Instant::now();
            Sim {
                name,
                step: 0,
                rng,
                core: RequestCore::new(cfg, ttl, cap),
                cfg,
                ttl,
                cap,
                now,
                lanes: (0..lanes).map(|_| None).collect(),
                sent: Vec::new(),
                by_slot: HashMap::new(),
                by_waiter: HashMap::new(),
                jobs: HashMap::new(),
                memos: HashMap::new(),
                inserts: Vec::new(),
                next_req_id: 0,
                draining: false,
                shed: false,
                fairness: [Stretch::default(); 3],
            }
        }

        fn pick(&mut self, n: usize) -> usize {
            (self.rng.next_u64() % n as u64) as usize
        }

        fn fail(&self, what: String) -> ! {
            panic!("{} step {}: {what}", self.name, self.step)
        }

        /// Runs the schedule; returns its event count.
        fn run(mut self) -> usize {
            let events = MIN_EVENTS + self.pick(60);
            let drain_at = events / 2 + self.pick(events / 2);
            let shed_at = drain_at + self.pick(40);
            for step in 0..events {
                self.step = step;
                if step == drain_at {
                    self.core.begin_drain();
                    self.draining = true;
                }
                if step == shed_at {
                    self.shed_all();
                }
                match self.pick(100) {
                    0..=39 => self.arrive(),
                    40..=59 => self.pop(),
                    60..=79 => self.complete(),
                    80..=87 => self.cancel(),
                    _ => {
                        let step = Duration::from_millis(self.pick(6) as u64);
                        self.now += step;
                    }
                }
                self.check();
            }
            self.step = events;
            if !self.draining {
                self.core.begin_drain();
                self.draining = true;
            }
            if !self.shed {
                self.shed_all();
            }
            while self.lanes.iter().any(Option::is_some) {
                self.complete();
                self.pop();
                self.check();
            }
            for (i, s) in self.sent.iter().enumerate() {
                if s.waiter.is_some() && !s.cancelled && s.replies != 1 {
                    self.fail(format!(
                        "request {i} ({}) got {} replies",
                        s.line, s.replies
                    ));
                }
            }
            events
        }

        fn next_line(&mut self) -> String {
            if self.pick(4) == 0 && !self.sent.is_empty() {
                let from = self.pick(self.sent.len());
                let retried = self.sent[from..].iter().find(|s| s.req.req_id.is_some());
                if let Some(line) = retried.map(|s| s.line.clone()) {
                    return match self.pick(3) {
                        0 if line.contains("seed=0") => line.replace("seed=0", "seed=1"),
                        0 => line.replace("seed=1", "seed=0"),
                        _ => line,
                    };
                }
            }
            let mut line = format!(
                "{} tenant={} layout={} seed={}",
                WORK[self.pick(WORK.len())],
                TENANTS[self.pick(TENANTS.len())],
                LAYOUTS[self.pick(LAYOUTS.len())],
                self.pick(2)
            );
            if self.pick(8) == 0 {
                line.push_str(" save=1");
            }
            if self.pick(4) == 0 {
                line.push_str(&format!(" deadline_ms={}", 2 + self.pick(10)));
            }
            if self.pick(2) == 0 {
                self.next_req_id += 1;
                line.push_str(&format!(" req_id=r{}", self.next_req_id));
            }
            line
        }

        fn arrive(&mut self) {
            let line = self.next_line();
            let retry = self.sent.iter().any(|s| s.line == line);
            let wire = if retry {
                format!("{line} attempt=2")
            } else {
                line.clone()
            };
            let req = Request::parse(&wire).expect("valid request");
            let slot = Arc::new(Slot::default());
            let mut out = Vec::new();
            let result = self
                .core
                .arrive(req.clone(), slot.clone(), self.now, &mut out);
            let i = self.sent.len();
            self.by_slot.insert(slot_key(&slot), i);
            self.sent.push(Sent {
                line,
                req,
                slot,
                waiter: result.as_ref().ok().copied(),
                at: self.now,
                cancelled: false,
                replies: 0,
                popped: false,
            });
            match result {
                Err(over) if self.draining && over.reason != "draining" => {
                    self.fail(format!("arrival while draining refused {over:?}"))
                }
                Err(over) if !self.draining && over.reason != "queue-full" => {
                    self.fail(format!("arrival refused {over:?}"))
                }
                Err(_) if self.draining => return,
                Err(_) => return self.check_replay(i, None),
                Ok(_) if self.draining => {
                    self.fail("an arrival was admitted while draining".into())
                }
                Ok(id) => {
                    self.by_waiter.insert(id, i);
                }
            }
            let answered = out.first().map(|r| r.resp.clone());
            self.receive(out);
            self.check_replay(i, answered);
        }

        /// A retry of a remembered `(tenant, req_id)` is answered at once
        /// from its entry, and only such a retry is.
        fn check_replay(&mut self, i: usize, answered: Option<Response>) {
            let req = &self.sent[i].req;
            let Some(rid) = &req.req_id else {
                if answered.is_some() {
                    self.fail("an arrival without a req_id was answered at once".into());
                }
                return;
            };
            let key = (req.tenant.clone(), rid.clone());
            let live = self
                .memos
                .get(&key)
                .filter(|m| self.now.saturating_duration_since(m.at) < self.ttl);
            let Some(memo) = live else {
                if answered.is_some() {
                    self.fail(format!("{key:?} was answered from no live entry"));
                }
                return;
            };
            // Resident for sure: fewer than `cap` other keys were
            // remembered since, so no capacity eviction reached it.
            let newer: std::collections::HashSet<&DedupKey> = self.inserts[memo.seq + 1..]
                .iter()
                .filter(|k| **k != key)
                .collect();
            let resident = newer.len() < self.cap;
            let same = memo.fingerprint == Fingerprint::of(req);
            match answered {
                None if resident => self.fail(format!(
                    "retry of {key:?} was not answered at once (same fingerprint: {same})"
                )),
                None => {}
                Some(resp) => match (&resp.header, same) {
                    (RespHeader::Ok(h), true) if h.dedup && resp.body == memo.body => {}
                    (RespHeader::Err { kind, .. }, false) if kind == "invalid-parameter" => {}
                    (header, _) => self.fail(format!(
                        "retry of {key:?} (same fingerprint: {same}) answered {header:?}"
                    )),
                },
            }
        }

        fn pop(&mut self) {
            let Some(lane) = self.lanes.iter().position(Option::is_none) else {
                return;
            };
            let state = |core: &RequestCore, t: &str| {
                core.tenants.get(t).map_or((false, false, 0), |st| {
                    let blocked = st.inflight >= core.cfg.quota;
                    (!st.queue.is_empty() && !blocked, blocked, st.deficit)
                })
            };
            let before: Vec<(bool, bool, u64)> =
                TENANTS.iter().map(|t| state(&self.core, t)).collect();
            let mut out = Vec::new();
            let job = self.core.pop(self.now, &mut out);

            // Expiry: decided from this pop's `now`, for queued requests only.
            let mut expired = [false; 3];
            for r in &out {
                let i = self.by_slot[&slot_key(&r.slot)];
                let s = &self.sent[i];
                let waited = self.now.saturating_duration_since(s.at);
                let deadline = s.req.deadline().unwrap_or(Duration::MAX);
                let typed = matches!(r.resp.header, RespHeader::Expired { deadline_ms, waited_ms }
                    if waited_ms >= deadline_ms && waited_ms == waited.as_millis() as u64);
                if !typed || waited < deadline || s.popped {
                    self.fail(format!("pop answered {} with {:?}", s.line, r.resp.header));
                }
                expired[tenant_index(&s.req.tenant)] = true;
            }
            self.receive(out);
            for p in self.core.tenants.values().flat_map(|st| &st.queue) {
                if p.req
                    .deadline()
                    .is_some_and(|d| self.now.saturating_duration_since(p.submitted) >= d)
                {
                    self.fail(format!("{:?} stayed queued past its deadline", p.req));
                }
            }

            let mut charged = [0i64; 3];
            if let Some(job) = job {
                let waiters: Vec<usize> = match self.core.running.last() {
                    Some(run) if run.id == job.id => {
                        run.waiters.iter().map(|w| self.by_waiter[&w.id]).collect()
                    }
                    _ => self.fail("the popped job is not running".into()),
                };
                let primary = &self.sent[waiters[0]];
                if primary.req != job.req || waiters.len() != job.coalesced + 1 {
                    self.fail(format!("job {} does not match its waiters", job.id));
                }
                let key = primary.req.work_key();
                for &w in &waiters {
                    let s = &self.sent[w];
                    if s.cancelled || s.popped {
                        self.fail(format!("{} was popped after it left or ran", s.line));
                    }
                    if s.req
                        .deadline()
                        .is_some_and(|d| self.now.saturating_duration_since(s.at) >= d)
                    {
                        self.fail(format!("{} was popped at or past its deadline", s.line));
                    }
                    if s.req.save && waiters.len() > 1 {
                        self.fail(format!(
                            "a job holding {} has {} waiters",
                            s.line,
                            waiters.len()
                        ));
                    }
                    if waiters.len() > 1 && (key.is_none() || s.req.work_key() != key) {
                        self.fail(format!("{} rode along on {:?}", s.line, key));
                    }
                }
                charged[tenant_index(&job.req.tenant)] = job.req.cost() as i64;
                for &w in &waiters {
                    self.sent[w].popped = true;
                }
                self.jobs.insert(job.id, waiters);
                self.lanes[lane] = Some(job);
            }

            // DRR: a deficit stays below `quantum + max_cost`, and a
            // quota-blocked tenant earns no credit.
            for (t, &(_, blocked, deficit)) in TENANTS.iter().zip(&before) {
                let (_, _, now) = state(&self.core, t);
                if now >= self.cfg.quantum + MAX_COST || (blocked && now > deficit) {
                    self.fail(format!(
                        "tenant {t}: deficit {deficit} -> {now} ({:?})",
                        self.cfg
                    ));
                }
            }
            // Two tenants that stay backlogged and under quota are charged
            // within `quantum + 2·max_cost` of each other over any stretch
            // of pops (see `fairness_bound`). A stretch ends at a pop that
            // starts with either tenant ineligible, expires a request of
            // either, or leaves either queue empty.
            let backlogged: Vec<bool> = TENANTS
                .iter()
                .map(|t| {
                    self.core
                        .tenants
                        .get(*t)
                        .is_some_and(|st| !st.queue.is_empty())
                })
                .collect();
            for (pair, (a, b)) in [(0, 1), (0, 2), (1, 2)].into_iter().enumerate() {
                let s = &mut self.fairness[pair];
                if !(before[a].0 && before[b].0) || expired[a] || expired[b] {
                    *s = Stretch::default();
                    continue;
                }
                s.diff += charged[a] - charged[b];
                s.lo = s.lo.min(s.diff);
                s.hi = s.hi.max(s.diff);
                let spread = s.hi - s.lo;
                if !(backlogged[a] && backlogged[b]) {
                    *s = Stretch::default();
                }
                if spread >= fairness_bound(self.cfg.quantum) {
                    self.fail(format!("tenants {a} and {b}: charged work spread {spread}"));
                }
            }
        }

        fn complete(&mut self) {
            let busy: Vec<usize> = (0..self.lanes.len())
                .filter(|&l| self.lanes[l].is_some())
                .collect();
            if busy.is_empty() {
                return;
            }
            let lane = busy[self.pick(busy.len())];
            let Some(job) = self.lanes[lane].take() else {
                return;
            };
            let waiters = self.jobs.remove(&job.id).unwrap_or_default();
            let fingerprint = Fingerprint::of(&job.req);
            let resp = if job.token.is_cancelled() {
                Response::header_only(RespHeader::Err {
                    kind: "cancelled".into(),
                    message: "run cancelled".into(),
                })
            } else if self.pick(10) == 0 {
                Response::header_only(RespHeader::Err {
                    kind: "timeout".into(),
                    message: "a unit timed out".into(),
                })
            } else {
                let body = body_of(&fingerprint);
                let header = OkHeader {
                    bytes: body.len(),
                    coalesced: job.coalesced,
                    whole: true,
                    ..OkHeader::default()
                };
                Response {
                    header: RespHeader::Ok(header),
                    body,
                }
            };
            if matches!(resp.header, RespHeader::Ok(_)) {
                for &w in &waiters {
                    let req = &self.sent[w].req;
                    let Some(rid) = &req.req_id else { continue };
                    let key = (req.tenant.clone(), rid.clone());
                    let memo = Memo {
                        fingerprint,
                        body: resp.body.clone(),
                        at: self.now,
                        seq: self.inserts.len(),
                    };
                    self.inserts.push(key.clone());
                    self.memos.insert(key, memo);
                }
            }
            let mut out = Vec::new();
            self.core.complete(&job, resp, self.now, &mut out);
            let mut answered: Vec<usize> = out
                .iter()
                .map(|r| self.by_slot[&slot_key(&r.slot)])
                .collect();
            answered.sort_unstable();
            let mut expected: Vec<usize> = waiters
                .into_iter()
                .filter(|&w| !self.sent[w].cancelled)
                .collect();
            expected.sort_unstable();
            if answered != expected {
                self.fail(format!(
                    "job {} answered {answered:?}, not {expected:?}",
                    job.id
                ));
            }
            self.receive(out);
        }

        fn cancel(&mut self) {
            if self.sent.is_empty() {
                return;
            }
            let i = self.pick(self.sent.len());
            let s = &mut self.sent[i];
            let Some(waiter) = s.waiter.filter(|_| !s.cancelled) else {
                return;
            };
            s.cancelled = true;
            self.core.cancel(waiter);
        }

        fn shed_all(&mut self) {
            let queued: Vec<usize> = self
                .core
                .tenants
                .values()
                .flat_map(|st| &st.queue)
                .map(|p| self.by_waiter[&p.waiter.id])
                .collect();
            let unfired = self
                .core
                .running
                .iter()
                .filter(|r| !r.token.is_cancelled())
                .count();
            let mut out = Vec::new();
            let report = self.core.shed_all(&mut out);
            self.shed = true;
            let expected = DrainReport {
                clean: queued.is_empty() && unfired == 0,
                shed: queued.len(),
                cancelled: unfired,
            };
            if report != expected {
                self.fail(format!("drain report {report:?}, expected {expected:?}"));
            }
            let mut answered: Vec<usize> = out
                .iter()
                .map(|r| self.by_slot[&slot_key(&r.slot)])
                .collect();
            answered.sort_unstable();
            let mut queued = queued;
            queued.sort_unstable();
            let all_shed = out
                .iter()
                .all(|r| matches!(r.resp.header, RespHeader::Shed { .. }));
            if answered != queued || !all_shed {
                self.fail(format!(
                    "shed answered {answered:?}, queued were {queued:?}"
                ));
            }
            self.receive(out);
        }

        /// Record delivered replies: one per waiter, never to one that left.
        fn receive(&mut self, out: Vec<Reply>) {
            for r in out {
                let i = self.by_slot[&slot_key(&r.slot)];
                let s = &mut self.sent[i];
                assert!(Arc::ptr_eq(&s.slot, &r.slot));
                s.replies += 1;
                if s.cancelled || s.replies > 1 {
                    let (line, n) = (s.line.clone(), s.replies);
                    self.fail(format!(
                        "{line} got reply {n} (left: {})",
                        self.sent[i].cancelled
                    ));
                }
            }
        }

        /// The invariants that hold after every event.
        fn check(&self) {
            let core = &self.core;
            for (t, st) in &core.tenants {
                let running = core
                    .running
                    .iter()
                    .filter(|r| self.sent[self.by_waiter[&r.id]].req.tenant == *t)
                    .count();
                if st.queue.len() > self.cfg.queue_cap || st.inflight > self.cfg.quota {
                    self.fail(format!(
                        "tenant {t}: {} queued, {} running",
                        st.queue.len(),
                        st.inflight
                    ));
                }
                if st.inflight != running {
                    self.fail(format!(
                        "tenant {t}: in-flight {} but {running} running",
                        st.inflight
                    ));
                }
            }
            if core.dedup_resident() > self.cap {
                self.fail(format!(
                    "{} dedup entries over a cap of {}",
                    core.dedup_resident(),
                    self.cap
                ));
            }
            // A run token fires when the job's last waiter leaves (or the
            // drain budget is spent), and not before.
            for run in &core.running {
                let left = self.jobs[&run.id].iter().all(|&w| self.sent[w].cancelled);
                if run.token.is_cancelled() != (left || self.shed) {
                    let fired = run.token.is_cancelled();
                    self.fail(format!(
                        "job {}: token fired {fired}, all left {left}",
                        run.id
                    ));
                }
            }
            if self.shed && core.queued() > 0 {
                self.fail("requests queued after the shed".into());
            }
        }
    }

    /// The deficit-round-robin fairness bound for two tenants that stay
    /// backlogged and under quota: their charged work over any stretch of
    /// pops differs by less than `quantum + 2·max_cost`.
    ///
    /// Derivation (Shreedhar & Varghese's Theorem 2, at pop granularity).
    /// While both tenants stay eligible every visit of either starts with
    /// one credit of `Q = quantum`, and ends when the deficit no longer
    /// covers the head request, so with `0 <= d < M = max_cost`. A visit
    /// that starts at deficit `d0` and ends at `d1` therefore charges
    /// `d0 + Q - d1`, and k consecutive visits charge
    /// `kQ + d_start - d_end`, within `(kQ - M, kQ + M)`. Visits of the
    /// two tenants alternate in ring order, and only the first and the
    /// last visit of a stretch can be cut by it. If tenant A's visits
    /// touched by the stretch number k (cut ones included), A is charged
    /// less than `kQ + M`; between them lie k - 1 uncut visits of B,
    /// charged more than `(k - 1)Q - M`. The difference is below
    /// `Q + 2M`, and symmetrically for B. A tenant whose queue empties
    /// forfeits its deficit, and an expiry at a pop can end a visit
    /// without its credit, so a stretch also ends at a pop that leaves
    /// either queue empty or expires a request of either tenant.
    fn fairness_bound(quantum: u64) -> i64 {
        (quantum + 2 * MAX_COST) as i64
    }
}
