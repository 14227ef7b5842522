//! End-to-end request resilience over a replicated `sfc_serve` group:
//! idempotent retries, hedged failover, and deadline propagation.
//!
//! The plain [`Client`] is one socket to one server; this
//! layer wraps it into a [`ResilientClient`] over a [`ReplicaSet`] of N
//! endpoints and closes the three failure windows a single connection
//! leaves open:
//!
//! * **Lost replies** — every request is tagged with an auto-generated
//!   `req_id` idempotency key, so a retry after a transport error rides
//!   the server's dedup cache: the side effect (`save=1`) is applied
//!   exactly once, and the replayed reply arrives with `dedup=1`.
//! * **Dead or slow replicas** — per-endpoint [`CircuitBreaker`]s
//!   (closed → open → half-open) take a failing replica out of rotation
//!   and probe it back in; transient failures fail over to the next
//!   healthy endpoint; and *hedged reads* launch a second attempt on
//!   another replica once the first exceeds the observed p95 latency —
//!   first response wins, the loser is cancelled by disconnect (the
//!   server cancels its ticket, and its run stops once no waiter is
//!   left).
//! * **Retry storms** — attempts are bounded ([`RetryPolicy`]), paced by
//!   decorrelated-jitter backoff, and gated by a token-bucket
//!   [`RetryBudget`]: when the whole group is dying, successes stop
//!   refilling the bucket and the client collectively stops retrying.
//!
//! Deadline propagation: the caller's `deadline_ms` is a budget for the
//! *logical* request. Each attempt carries only the remaining budget
//! (never zero — a zero remainder is deadline exhaustion, reported
//! locally), backoff sleeps are clamped to it, and the per-attempt
//! socket timeout never outlives it, so one stuck replica cannot eat
//! the whole budget.
//!
//! On the fault-free path the resilient client is a pass-through: one
//! attempt, no hedge fired, and the reply bytes are bitwise identical to
//! the plain client's (pinned by `tests/resilience.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use sfc_core::{SfcError, SfcResult};
use sfc_harness::{DecorrelatedJitter, LazyCounter, LazyHistogram, RetryBudget};

use crate::client::{CancelHandle, Client};
use crate::protocol::{error_kind_is_transient, RespHeader, Request};

static RETRIES: LazyCounter = LazyCounter::new("client.retries");
static HEDGES: LazyCounter = LazyCounter::new("client.hedges");
static HEDGE_WINS: LazyCounter = LazyCounter::new("client.hedge_wins");
static FAILOVERS: LazyCounter = LazyCounter::new("client.failovers");
static BREAKER_OPENS: LazyCounter = LazyCounter::new("client.breaker_opens");
static BUDGET_EXHAUSTED: LazyCounter = LazyCounter::new("client.budget_exhausted");
static DEADLINE_EXHAUSTED: LazyCounter = LazyCounter::new("client.deadline_exhausted");
static LATENCY_US: LazyHistogram = LazyHistogram::new("client.latency_us");

/// An attempt is only worth sending with at least this much budget left.
const MIN_REMAINING: Duration = Duration::from_millis(1);

/// How many recent response latencies feed the hedge-delay percentile.
const LATENCY_WINDOW: usize = 128;

/// The remaining deadline budget after `elapsed`, or `None` once the
/// request is exhausted. Saturating: a late clock read can never
/// underflow into a huge bogus budget, and a sub-`MIN_REMAINING`
/// remainder is exhaustion (the wire rejects `deadline_ms=0`, and a
/// 1 ms budget spent on serialization helps nobody).
pub fn remaining_deadline(total: Duration, elapsed: Duration) -> Option<Duration> {
    let rem = total.saturating_sub(elapsed);
    (rem >= MIN_REMAINING).then_some(rem)
}

/// Client-side resilience knobs.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total delivery attempts per logical request (including the
    /// first); `1` disables retries entirely.
    pub max_attempts: u32,
    /// First backoff delay (decorrelated jitter grows from here).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Retry-budget bucket capacity in tokens (see [`RetryBudget`]).
    pub budget_cap: f64,
    /// Tokens refunded per success (fractional).
    pub budget_refill: f64,
    /// Enable hedged reads (a second attempt on another replica after
    /// the observed p95 latency). Saves are never hedged — they retry
    /// through the dedup cache instead.
    pub hedge: bool,
    /// Floor on the hedge delay (and the delay used before enough
    /// latency samples exist to estimate a p95).
    pub hedge_min: Duration,
    /// Per-attempt socket timeout when the request carries no deadline
    /// (with a deadline, the remaining budget bounds the attempt).
    pub request_timeout: Duration,
    /// Consecutive transport failures that open an endpoint's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before half-opening one probe.
    pub breaker_open_for: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            budget_cap: 10.0,
            budget_refill: 0.1,
            hedge: true,
            hedge_min: Duration::from_millis(20),
            request_timeout: Duration::from_secs(30),
            breaker_threshold: 3,
            breaker_open_for: Duration::from_millis(250),
        }
    }
}

/// Where an endpoint's circuit breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are refused until the cool-off elapses.
    Open,
    /// Cooling off: exactly one probe request is allowed through.
    HalfOpen,
}

struct BreakerInner {
    state: BreakerState,
    fails: u32,
    opened: Option<Instant>,
    probe_out: bool,
}

/// Per-endpoint circuit breaker: `threshold` consecutive transport
/// failures open it; after `open_for` it half-opens and admits one
/// probe, whose outcome closes or re-opens it. Typed server errors
/// (`err`, `overloaded`, `shed`) are *successes* here — the endpoint
/// answered; only transport-level failures count against it.
pub struct CircuitBreaker {
    threshold: u32,
    open_for: Duration,
    inner: Mutex<BreakerInner>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive
    /// failures and half-opens `open_for` later.
    pub fn new(threshold: u32, open_for: Duration) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            open_for,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                fails: 0,
                opened: None,
                probe_out: false,
            }),
        }
    }

    /// Whether a request may be sent to this endpoint right now. In
    /// half-open, only the first caller gets `true` (the probe); the
    /// rest wait for its verdict.
    pub fn allow(&self) -> bool {
        let mut g = lock(&self.inner);
        match g.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if g.opened.is_some_and(|t| t.elapsed() >= self.open_for) {
                    g.state = BreakerState::HalfOpen;
                    g.probe_out = true;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if g.probe_out {
                    false
                } else {
                    g.probe_out = true;
                    true
                }
            }
        }
    }

    /// Record an endpoint success: close and reset.
    pub fn on_success(&self) {
        let mut g = lock(&self.inner);
        g.state = BreakerState::Closed;
        g.fails = 0;
        g.opened = None;
        g.probe_out = false;
    }

    /// Record a transport failure: count toward the threshold in
    /// closed, re-open immediately in half-open.
    pub fn on_failure(&self) {
        let mut g = lock(&self.inner);
        match g.state {
            BreakerState::Closed => {
                g.fails += 1;
                if g.fails >= self.threshold {
                    g.state = BreakerState::Open;
                    g.opened = Some(Instant::now());
                    BREAKER_OPENS.add(1);
                }
            }
            BreakerState::HalfOpen => {
                g.state = BreakerState::Open;
                g.opened = Some(Instant::now());
                g.probe_out = false;
                BREAKER_OPENS.add(1);
            }
            BreakerState::Open => {}
        }
    }

    /// Current state (observability; may half-open as a side effect of
    /// [`CircuitBreaker::allow`], never of this).
    pub fn state(&self) -> BreakerState {
        lock(&self.inner).state
    }
}

struct Endpoint {
    addr: String,
    breaker: CircuitBreaker,
}

/// A fixed group of `sfc_serve` endpoints with per-endpoint breakers.
/// Routing is deterministic: the first breaker-admitted endpoint in the
/// given order wins (failover prefers earlier replicas back as soon as
/// their breakers close).
pub struct ReplicaSet {
    endpoints: Vec<Endpoint>,
}

impl ReplicaSet {
    /// A replica set over `addrs` (order is the routing preference).
    pub fn new<S: Into<String>>(
        addrs: impl IntoIterator<Item = S>,
        threshold: u32,
        open_for: Duration,
    ) -> Self {
        ReplicaSet {
            endpoints: addrs
                .into_iter()
                .map(|a| Endpoint {
                    addr: a.into(),
                    breaker: CircuitBreaker::new(threshold, open_for),
                })
                .collect(),
        }
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// The address of endpoint `i`.
    pub fn addr(&self, i: usize) -> &str {
        &self.endpoints[i].addr
    }

    /// The breaker state of endpoint `i`.
    pub fn breaker_state(&self, i: usize) -> BreakerState {
        self.endpoints[i].breaker.state()
    }

    fn breaker(&self, i: usize) -> &CircuitBreaker {
        &self.endpoints[i].breaker
    }

    /// The first breaker-admitted endpoint, preferring ones other than
    /// `exclude` (the endpoint that just failed); falls back to
    /// `exclude` itself if it is the only one admitted.
    fn pick(&self, exclude: Option<usize>) -> Option<usize> {
        let admitted = |i: &usize| self.endpoints[*i].breaker.allow();
        (0..self.endpoints.len())
            .filter(|i| Some(*i) != exclude)
            .find(admitted)
            .or_else(|| exclude.filter(admitted))
    }

    /// A breaker-admitted endpoint other than `primary` (hedge target).
    fn pick_other(&self, primary: usize) -> Option<usize> {
        (0..self.endpoints.len())
            .find(|i| *i != primary && self.endpoints[*i].breaker.allow())
    }

    /// Active health check: `ping` every endpoint (with `timeout` on
    /// connect I/O) and feed the outcome to its breaker. Returns each
    /// endpoint's health. Unlike request traffic this bypasses
    /// [`CircuitBreaker::allow`] — an open breaker heals as soon as its
    /// endpoint answers a ping.
    pub fn ping_all(&self, timeout: Duration) -> Vec<bool> {
        self.endpoints
            .iter()
            .map(|ep| {
                let up = Client::connect(&ep.addr)
                    .and_then(|mut c| {
                        c.set_timeout(timeout)?;
                        c.send_line("ping")
                    })
                    .map(|r| r == "pong")
                    .unwrap_or(false);
                if up {
                    ep.breaker.on_success();
                } else {
                    ep.breaker.on_failure();
                }
                up
            })
            .collect()
    }
}

/// What one resolved logical request cost (see
/// [`ResilientClient::request_detailed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOutcome {
    /// Delivery attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Endpoint index that produced the reply.
    pub endpoint: usize,
    /// Whether a hedge attempt was launched.
    pub hedged: bool,
    /// Whether the hedge attempt won the race.
    pub hedge_won: bool,
}

/// A retrying, hedging, deadline-aware client over a [`ReplicaSet`].
pub struct ResilientClient {
    replicas: ReplicaSet,
    policy: RetryPolicy,
    budget: RetryBudget,
    jitter: Mutex<DecorrelatedJitter>,
    latencies: Mutex<VecDeque<Duration>>,
    /// Auto-`req_id` namespace: distinct per client (seed) and call.
    id_ns: u64,
    next_id: AtomicU64,
}

impl ResilientClient {
    /// A client over `addrs` (first = preferred). `seed` makes the
    /// backoff schedule and generated `req_id`s deterministic.
    pub fn new<S: Into<String>>(
        addrs: impl IntoIterator<Item = S>,
        policy: RetryPolicy,
        seed: u64,
    ) -> Self {
        let replicas = ReplicaSet::new(addrs, policy.breaker_threshold, policy.breaker_open_for);
        ResilientClient {
            replicas,
            budget: RetryBudget::new(policy.budget_cap, policy.budget_refill),
            jitter: Mutex::new(DecorrelatedJitter::new(
                seed,
                policy.backoff_base,
                policy.backoff_cap,
            )),
            latencies: Mutex::new(VecDeque::with_capacity(LATENCY_WINDOW)),
            id_ns: seed,
            next_id: AtomicU64::new(0),
            policy,
        }
    }

    /// The underlying replica set (breaker states, health checks).
    pub fn replicas(&self) -> &ReplicaSet {
        &self.replicas
    }

    /// Whole retry tokens currently available.
    pub fn retry_tokens(&self) -> u64 {
        self.budget.available()
    }

    /// Submit a logical request, riding retries/failover/hedging as
    /// needed. Mirrors [`Client::request`]: any reply the group
    /// produces — `ok`, typed `err`, `overloaded`, `shed`, `expired` —
    /// comes back as `Ok((header, body))`; `Err` means the transport
    /// failed on every allowed attempt.
    pub fn request(&self, req: &Request) -> SfcResult<(RespHeader, Vec<u8>)> {
        self.request_detailed(req).map(|(h, b, _)| (h, b))
    }

    /// [`ResilientClient::request`] plus per-request accounting.
    pub fn request_detailed(
        &self,
        req: &Request,
    ) -> SfcResult<(RespHeader, Vec<u8>, SendOutcome)> {
        let mut req = req.clone();
        if req.req_id.is_none() {
            // Idempotency key: unique per logical request, shared by all
            // its attempts — what makes a retried save exactly-once.
            let n = self.next_id.fetch_add(1, Ordering::Relaxed);
            req.req_id = Some(format!("c{:016x}-{n}", self.id_ns));
        }
        let total = req.deadline_ms.map(Duration::from_millis);
        let started = Instant::now();
        let mut last_err: Option<SfcError> = None;
        let mut failed_at: Option<usize> = None;

        for attempt in 1..=self.policy.max_attempts {
            // Deadline propagation: each attempt carries only what is
            // left of the logical budget.
            let remaining = match total {
                Some(t) => match remaining_deadline(t, started.elapsed()) {
                    Some(rem) => {
                        req.deadline_ms = Some(rem.as_millis().max(1) as u64);
                        Some(rem)
                    }
                    None => {
                        DEADLINE_EXHAUSTED.add(1);
                        return Err(deadline_exhausted(attempt, t));
                    }
                },
                None => None,
            };
            let per_attempt = remaining
                .map(|r| r.min(self.policy.request_timeout))
                .unwrap_or(self.policy.request_timeout);
            req.attempt = attempt;

            let Some(idx) = self.replicas.pick(failed_at) else {
                return Err(last_err.unwrap_or_else(all_replicas_open));
            };
            if attempt > 1 && Some(idx) != failed_at {
                FAILOVERS.add(1);
            }

            let attempt_start = Instant::now();
            match self.race(idx, &req, per_attempt) {
                Raced::Reply {
                    endpoint,
                    header,
                    body,
                    hedged,
                } => {
                    let elapsed = attempt_start.elapsed();
                    self.observe_latency(elapsed);
                    self.budget.on_success();
                    lock(&self.jitter).reset();
                    if matches!(header, RespHeader::Expired { .. }) {
                        DEADLINE_EXHAUSTED.add(1);
                    }
                    // Transient typed errors may retry (the replica is
                    // healthy, the *request* hit a transient failure —
                    // e.g. a worker panic another replica won't repeat).
                    if let RespHeader::Err { kind, .. } = &header {
                        if error_kind_is_transient(kind)
                            && attempt < self.policy.max_attempts
                            && self.spend_or_count()
                        {
                            failed_at = Some(endpoint);
                            last_err = None;
                            RETRIES.add(1);
                            self.backoff(remaining, total, started);
                            continue;
                        }
                    }
                    let outcome = SendOutcome {
                        attempts: attempt,
                        endpoint,
                        hedged,
                        hedge_won: hedged && endpoint != idx,
                    };
                    return Ok((header, body, outcome));
                }
                Raced::TransportFailed { err, endpoint } => {
                    failed_at = Some(endpoint);
                    last_err = Some(err);
                    if attempt < self.policy.max_attempts && self.spend_or_count() {
                        RETRIES.add(1);
                        self.backoff(remaining, total, started);
                        continue;
                    }
                    break;
                }
            }
        }
        Err(last_err.unwrap_or_else(all_replicas_open))
    }

    /// Spend a retry token, counting the refusal if the bucket is dry.
    fn spend_or_count(&self) -> bool {
        let ok = self.budget.try_spend();
        if !ok {
            BUDGET_EXHAUSTED.add(1);
        }
        ok
    }

    /// Sleep the next backoff delay, clamped to the remaining budget.
    fn backoff(&self, remaining: Option<Duration>, total: Option<Duration>, started: Instant) {
        let mut delay = lock(&self.jitter).next_delay();
        if let (Some(_), Some(t)) = (remaining, total) {
            let left = t.saturating_sub(started.elapsed());
            delay = delay.min(left);
        }
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    fn observe_latency(&self, d: Duration) {
        LATENCY_US.record_duration_us(d);
        let mut g = lock(&self.latencies);
        if g.len() >= LATENCY_WINDOW {
            g.pop_front();
        }
        g.push_back(d);
    }

    /// The hedge trigger: the p95 of recent response latencies, floored
    /// at `hedge_min` (which also covers the cold start, before enough
    /// samples exist to estimate anything).
    fn hedge_delay(&self) -> Duration {
        let g = lock(&self.latencies);
        if g.len() < 8 {
            return self.policy.hedge_min;
        }
        let mut v: Vec<Duration> = g.iter().copied().collect();
        drop(g);
        v.sort_unstable();
        let idx = (v.len() * 95 / 100).min(v.len() - 1);
        v[idx].max(self.policy.hedge_min)
    }

    /// One delivery attempt with optional hedging: send to `primary`;
    /// if no reply lands within the hedge delay, race a second attempt
    /// on another replica. First *reply* wins (a transport failure on
    /// one leg waits for the other); the loser's connection is shut
    /// down, which the server's disconnect detection turns into a
    /// cancelled run.
    fn race(&self, primary: usize, req: &Request, per_attempt: Duration) -> Raced {
        let (tx, rx) = mpsc::channel();
        let mut cancels: Vec<(usize, CancelHandle)> = Vec::new();
        let mut spawned = 0usize;

        match spawn_attempt(self.replicas.addr(primary), primary, req, per_attempt, &tx) {
            Ok(handle) => {
                cancels.push((primary, handle));
                spawned += 1;
            }
            Err(err) => {
                self.replicas.breaker(primary).on_failure();
                return Raced::TransportFailed {
                    err,
                    endpoint: primary,
                };
            }
        }

        let hedgeable = self.policy.hedge && !req.save && self.replicas.len() > 1;
        let mut hedged = false;
        let mut replies: Vec<AttemptResult> = Vec::new();
        if hedgeable {
            match rx.recv_timeout(self.hedge_delay()) {
                Ok(msg) => replies.push(msg),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(alt) = self.replicas.pick_other(primary) {
                        if let Ok(handle) =
                            spawn_attempt(self.replicas.addr(alt), alt, req, per_attempt, &tx)
                        {
                            cancels.push((alt, handle));
                            spawned += 1;
                            hedged = true;
                            HEDGES.add(1);
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {}
            }
        }
        drop(tx);

        let mut last: Option<(usize, SfcError)> = None;
        let mut reported = 0usize;
        loop {
            // First actual reply wins the race, whatever it says; a leg
            // that died at the transport level waits for the other.
            while let Some((endpoint, res)) = replies.pop() {
                reported += 1;
                match res {
                    Ok((header, body)) => {
                        self.replicas.breaker(endpoint).on_success();
                        for (i, handle) in &cancels {
                            if *i != endpoint {
                                handle.cancel();
                            }
                        }
                        if hedged && endpoint != primary {
                            HEDGE_WINS.add(1);
                        }
                        return Raced::Reply {
                            endpoint,
                            header,
                            body,
                            hedged,
                        };
                    }
                    Err(err) => {
                        self.replicas.breaker(endpoint).on_failure();
                        last = Some((endpoint, err));
                    }
                }
            }
            if reported >= spawned {
                break;
            }
            match rx.recv() {
                Ok(msg) => replies.push(msg),
                Err(_) => break, // every sender dropped: all legs reported
            }
        }
        let (endpoint, err) = last.unwrap_or_else(|| (primary, all_replicas_open()));
        Raced::TransportFailed { err, endpoint }
    }
}

enum Raced {
    Reply {
        endpoint: usize,
        header: RespHeader,
        body: Vec<u8>,
        hedged: bool,
    },
    TransportFailed {
        err: SfcError,
        endpoint: usize,
    },
}

type AttemptResult = (usize, SfcResult<(RespHeader, Vec<u8>)>);

/// Connect to `addr` and run `req` on a detached thread, reporting the
/// result through `tx`. Connect errors surface synchronously (no thread
/// is spawned); the returned handle can cancel the in-flight attempt.
fn spawn_attempt(
    addr: &str,
    endpoint: usize,
    req: &Request,
    timeout: Duration,
    tx: &mpsc::Sender<AttemptResult>,
) -> SfcResult<CancelHandle> {
    let mut client = Client::connect(addr)?;
    client.set_timeout(timeout)?;
    let handle = client.cancel_handle()?;
    let req = req.clone();
    let tx = tx.clone();
    let spawned = std::thread::Builder::new()
        .name("sfc-attempt".into())
        .spawn(move || {
            let _ = tx.send((endpoint, client.request(&req)));
        });
    if let Err(e) = spawned {
        return Err(SfcError::io("spawn attempt", e));
    }
    Ok(handle)
}

fn deadline_exhausted(attempt: u32, total: Duration) -> SfcError {
    SfcError::Timeout {
        item: attempt as usize,
        limit: total,
    }
}

fn all_replicas_open() -> SfcError {
    SfcError::io(
        "replica set",
        std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "every endpoint's circuit breaker is open",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_deadline_decrements_and_never_underflows() {
        let total = Duration::from_millis(100);
        assert_eq!(
            remaining_deadline(total, Duration::from_millis(40)),
            Some(Duration::from_millis(60))
        );
        // Elapsed past the budget saturates to exhaustion, not underflow.
        assert_eq!(remaining_deadline(total, Duration::from_millis(100)), None);
        assert_eq!(remaining_deadline(total, Duration::from_secs(10_000)), None);
        // A sub-millisecond remainder is exhaustion too: the wire
        // rejects deadline_ms=0, so the client must never produce it.
        assert_eq!(
            remaining_deadline(total, total - Duration::from_micros(500)),
            None
        );
        assert_eq!(
            remaining_deadline(total, total - MIN_REMAINING),
            Some(MIN_REMAINING)
        );
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_one_probe() {
        let b = CircuitBreaker::new(3, Duration::from_millis(30));
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        b.on_failure();
        assert!(b.allow(), "below threshold stays closed");
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(), "open refuses immediately");
        std::thread::sleep(Duration::from_millis(60));
        assert!(b.allow(), "cool-off elapsed: one probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(), "second caller waits for the probe verdict");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = CircuitBreaker::new(1, Duration::from_millis(20));
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.allow());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        assert!(!b.allow());
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let b = CircuitBreaker::new(3, Duration::from_secs(60));
        b.on_failure();
        b.on_failure();
        b.on_success();
        b.on_failure();
        b.on_failure();
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "non-consecutive failures never open"
        );
    }

    #[test]
    fn replica_pick_prefers_healthy_endpoints_and_skips_the_failed_one() {
        let rs = ReplicaSet::new(["a:1", "b:2", "c:3"], 1, Duration::from_secs(60));
        assert_eq!(rs.pick(None), Some(0));
        // After endpoint 0 fails an attempt, prefer another endpoint.
        assert_eq!(rs.pick(Some(0)), Some(1));
        // Open breakers drop out of rotation entirely.
        rs.breaker(1).on_failure();
        assert_eq!(rs.pick(Some(0)), Some(2));
        rs.breaker(2).on_failure();
        // Only the just-failed endpoint remains admitted: fall back.
        assert_eq!(rs.pick(Some(0)), Some(0));
        rs.breaker(0).on_failure();
        assert_eq!(rs.pick(Some(0)), None, "all breakers open");
    }

    #[test]
    fn hedge_delay_floors_at_hedge_min_and_tracks_p95() {
        let c = ResilientClient::new(
            ["a:1", "b:2"],
            RetryPolicy {
                hedge_min: Duration::from_millis(15),
                ..RetryPolicy::default()
            },
            7,
        );
        assert_eq!(
            c.hedge_delay(),
            Duration::from_millis(15),
            "cold start uses the floor"
        );
        for i in 0..100u64 {
            c.observe_latency(Duration::from_millis(30 + i % 5));
        }
        let d = c.hedge_delay();
        assert!(d >= Duration::from_millis(30), "{d:?} tracks observed p95");
        assert!(d <= Duration::from_millis(35), "{d:?} within the window");
    }

    #[test]
    fn generated_req_ids_are_unique_and_wire_legal() {
        let c = ResilientClient::new(["a:1"], RetryPolicy::default(), 3);
        let mut req =
            Request::parse("filter tenant=t size=8 seed=1 radius=1").expect("valid");
        assert!(req.req_id.is_none());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let n = c.next_id.fetch_add(1, Ordering::Relaxed);
            let id = format!("c{:016x}-{n}", c.id_ns);
            assert!(id.len() <= 64);
            assert!(id
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_'));
            assert!(seen.insert(id.clone()));
            req.req_id = Some(id);
            // Round-trips through the wire grammar.
            let back = Request::parse(&req.format()).expect("formats legally");
            assert_eq!(back.req_id, req.req_id);
        }
    }
}
