//! Idempotency dedup cache: completed results keyed by `(tenant, req_id)`.
//!
//! A client that retries a request after a transport error cannot know
//! whether the lost attempt was executed — the reply may have died on the
//! wire *after* the side effect (a `save=1` file) was published. The
//! dedup cache closes that window: every completed `ok` result for a
//! request carrying a `req_id` is remembered for a TTL, and a second
//! arrival of the same `(tenant, req_id)` is answered from the cache with
//! `dedup=1` instead of re-executed — the save is applied exactly once.
//!
//! The cache is bounded two ways: entries expire after `ttl`, and the
//! total entry count is capped (`cap`) with oldest-first eviction, so a
//! hostile client minting fresh `req_id`s cannot balloon server memory.
//! Keys are scoped by tenant — one tenant can never replay another's
//! result, even with a colliding `req_id`.
//!
//! Each entry also stores the [`Fingerprint`] of the request that
//! produced it. A `req_id` reused for a *different* request (another
//! size, layout, seed, …) is not a retry: it is refused with a typed
//! non-transient `invalid-parameter` error instead of being answered with
//! the earlier request's body, nothing executes, and the event is counted
//! as `server.dedup.conflicts`.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sfc_core::SfcError;
use sfc_harness::{FaultRates, LazyCounter};

use crate::protocol::{error_kind, LayoutChoice, OkHeader, OpKind, Request, RespHeader};
use crate::scheduler::Response;

static DEDUP_HITS: LazyCounter = LazyCounter::new("server.dedup.hits");
static DEDUP_INSERTS: LazyCounter = LazyCounter::new("server.dedup.inserts");
static DEDUP_EVICTIONS: LazyCounter = LazyCounter::new("server.dedup.evictions");
static DEDUP_CONFLICTS: LazyCounter = LazyCounter::new("server.dedup.conflicts");

/// The fields of a request that decide its result and its side effects.
/// Every attempt of one logical request repeats them exactly; a retry
/// changes only `deadline_ms` (the remaining budget) and `attempt`, which
/// are left out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    op: OpKind,
    size: usize,
    layout: LayoutChoice,
    seed: u64,
    faults: Option<(u64, FaultRates)>,
    save: bool,
}

impl Fingerprint {
    /// The fingerprint of `req`.
    pub fn of(req: &Request) -> Self {
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

struct Entry {
    fingerprint: Fingerprint,
    header: OkHeader,
    body: std::sync::Arc<[u8]>,
    inserted: Instant,
}

struct Inner {
    map: HashMap<(String, String), Entry>,
    /// Insertion order for TTL pruning and cap eviction (oldest first).
    order: VecDeque<(String, String)>,
}

/// TTL- and capacity-bounded cache of completed results.
pub struct DedupCache {
    ttl: Duration,
    cap: usize,
    inner: Mutex<Inner>,
}

/// Counters reported by [`DedupCache::stats`].
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

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl DedupCache {
    /// A cache remembering completed results for `ttl`, holding at most
    /// `cap` entries.
    pub fn new(ttl: Duration, cap: usize) -> Self {
        DedupCache {
            ttl,
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    /// Look up a completed result for a request with `fingerprint`. On a
    /// hit the cached header is returned with `dedup=1` set; when the
    /// entry came from a request with another fingerprint, a typed
    /// `invalid-parameter` refusal is returned instead. Either way the
    /// caller delivers the response without executing anything.
    pub fn get(&self, tenant: &str, req_id: &str, fingerprint: &Fingerprint) -> Option<Response> {
        let mut g = lock(&self.inner);
        Self::prune(&mut g, self.ttl);
        let entry = g.map.get(&(tenant.to_string(), req_id.to_string()))?;
        if entry.fingerprint != *fingerprint {
            DEDUP_CONFLICTS.add(1);
            let err = SfcError::InvalidParameter {
                name: "req_id",
                reason: format!("{req_id:?} was already used for a different request"),
            };
            return Some(Response::header_only(RespHeader::Err {
                kind: error_kind(&err).to_string(),
                message: err.to_string(),
            }));
        }
        let mut header = entry.header;
        header.dedup = true;
        DEDUP_HITS.add(1);
        Some(Response {
            header: RespHeader::Ok(header),
            body: entry.body.clone(),
        })
    }

    /// Remember a completed `ok` result of the request with `fingerprint`
    /// for `(tenant, req_id)`.
    pub fn insert(
        &self,
        tenant: &str,
        req_id: &str,
        fingerprint: Fingerprint,
        header: OkHeader,
        body: std::sync::Arc<[u8]>,
    ) {
        let key = (tenant.to_string(), req_id.to_string());
        let mut g = lock(&self.inner);
        Self::prune(&mut g, self.ttl);
        while g.map.len() >= self.cap {
            let Some(oldest) = g.order.pop_front() else { break };
            if g.map.remove(&oldest).is_some() {
                DEDUP_EVICTIONS.add(1);
            }
        }
        let fresh = g
            .map
            .insert(
                key.clone(),
                Entry {
                    fingerprint,
                    header,
                    body,
                    inserted: Instant::now(),
                },
            )
            .is_none();
        if fresh {
            g.order.push_back(key);
        }
        DEDUP_INSERTS.add(1);
    }

    fn prune(g: &mut Inner, ttl: Duration) {
        while let Some(key) = g.order.front() {
            let expired = g
                .map
                .get(key)
                .is_none_or(|e| e.inserted.elapsed() >= ttl);
            if !expired {
                break;
            }
            let key = key.clone();
            g.order.pop_front();
            if g.map.remove(&key).is_some() {
                DEDUP_EVICTIONS.add(1);
            }
        }
    }

    /// Current counters (process-wide, shared with the metrics registry
    /// under `server.dedup.*`) plus this instance's residency.
    pub fn stats(&self) -> DedupStats {
        DedupStats {
            hits: DEDUP_HITS.value(),
            inserts: DEDUP_INSERTS.value(),
            evictions: DEDUP_EVICTIONS.value(),
            conflicts: DEDUP_CONFLICTS.value(),
            resident: lock(&self.inner).map.len(),
        }
    }

    /// Entries currently resident.
    pub fn resident(&self) -> usize {
        lock(&self.inner).map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn body(bytes: &[u8]) -> Arc<[u8]> {
        Arc::from(bytes)
    }

    fn fp(size: usize) -> Fingerprint {
        Fingerprint::of(
            &Request::parse(&format!("filter tenant=t size={size} seed=1 radius=1"))
                .expect("valid request"),
        )
    }

    fn header(bytes: usize) -> OkHeader {
        OkHeader {
            bytes,
            whole: true,
            ..OkHeader::default()
        }
    }

    #[test]
    fn hit_returns_the_cached_body_with_dedup_set() {
        let c = DedupCache::new(Duration::from_secs(60), 8);
        assert!(c.get("t", "r1", &fp(8)).is_none());
        c.insert("t", "r1", fp(8), header(3), body(&[1, 2, 3]));
        let resp = c.get("t", "r1", &fp(8)).expect("hit");
        match resp.header {
            RespHeader::Ok(h) => {
                assert!(h.dedup, "replayed header must carry dedup=1");
                assert_eq!(h.bytes, 3);
            }
            other => panic!("expected ok, got {other:?}"),
        }
        assert_eq!(&resp.body[..], &[1, 2, 3]);
    }

    #[test]
    fn keys_are_tenant_scoped() {
        let c = DedupCache::new(Duration::from_secs(60), 8);
        c.insert("alice", "r1", fp(8), header(1), body(&[9]));
        assert!(
            c.get("bob", "r1", &fp(8)).is_none(),
            "bob cannot replay alice's result"
        );
        assert!(c.get("alice", "r1", &fp(8)).is_some());
    }

    #[test]
    fn entries_expire_after_the_ttl() {
        let c = DedupCache::new(Duration::from_millis(30), 8);
        c.insert("t", "r1", fp(8), header(1), body(&[1]));
        assert!(c.get("t", "r1", &fp(8)).is_some());
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            c.get("t", "r1", &fp(8)).is_none(),
            "TTL-expired entry must not replay"
        );
        assert_eq!(c.resident(), 0, "prune removed it");
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let c = DedupCache::new(Duration::from_secs(60), 2);
        c.insert("t", "r1", fp(8), header(1), body(&[1]));
        c.insert("t", "r2", fp(8), header(1), body(&[2]));
        c.insert("t", "r3", fp(8), header(1), body(&[3]));
        assert!(c.get("t", "r1", &fp(8)).is_none(), "oldest evicted at cap");
        assert!(c.get("t", "r2", &fp(8)).is_some());
        assert!(c.get("t", "r3", &fp(8)).is_some());
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order_entries() {
        let c = DedupCache::new(Duration::from_secs(60), 4);
        c.insert("t", "r1", fp(8), header(1), body(&[1]));
        c.insert("t", "r1", fp(8), header(2), body(&[1, 2]));
        assert_eq!(c.resident(), 1);
        let resp = c.get("t", "r1", &fp(8)).expect("hit");
        match resp.header {
            RespHeader::Ok(h) => assert_eq!(h.bytes, 2, "latest result wins"),
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn a_reused_req_id_with_another_fingerprint_is_refused() {
        let c = DedupCache::new(Duration::from_secs(60), 8);
        c.insert("t", "r1", fp(8), header(3), body(&[1, 2, 3]));
        let before = c.stats().conflicts;
        let resp = c
            .get("t", "r1", &fp(16))
            .expect("a typed refusal, not a miss");
        match &resp.header {
            RespHeader::Err { kind, message } => {
                assert_eq!(kind, "invalid-parameter");
                assert!(!crate::protocol::error_kind_is_transient(kind));
                assert!(message.contains("req_id"), "{message}");
            }
            other => panic!("expected err, got {other:?}"),
        }
        assert!(resp.body.is_empty(), "no body of the earlier request leaks");
        assert!(c.stats().conflicts > before);
        // The entry is untouched: the original request still replays.
        assert!(matches!(
            c.get("t", "r1", &fp(8)).map(|r| r.header),
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
