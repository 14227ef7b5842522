//! The workspace's one metrics plane: a process-wide registry of typed
//! [`Counter`]/[`Gauge`]/[`Log2Histogram`] handles, [`Snapshot`]s with
//! merge/delta semantics, and a Prometheus text-format encoder
//! (rezolus-style; see DESIGN.md §11).
//!
//! # Hot-path cost contract
//!
//! After a handle is registered (first touch of a [`LazyCounter`] /
//! [`LazyGauge`] / [`LazyHistogram`], which takes the registry lock once
//! and leaks the metric storage), recording is **lock-free and
//! allocation-free**: a counter add is one relaxed `fetch_add`, a gauge
//! set is one relaxed `store`, and a histogram record is three relaxed
//! `fetch_add`s plus one relaxed `fetch_max` into fixed bucket arrays.
//! `tests/metrics.rs` pins this with a counting global allocator.
//!
//! # Naming scheme
//!
//! Registry names are stable dotted paths, `<crate-or-plane>.<counter>`
//! (`engine.units_completed`, `filters.nan_events`,
//! `server.cache.hits`, `deadline.shed`, `store.repairs`,
//! `engine.unit_latency_us.pencil`). The Prometheus encoder sanitizes
//! dots to underscores and prefixes `sfc_`, so `server.cache.hits`
//! exports as `sfc_server_cache_hits_total`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `b >= 1`
/// holds `[2^(b-1), 2^b - 1]`, and bucket 64 holds `[2^63, u64::MAX]`.
pub const LOG2_BUCKETS: usize = 65;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Typed metric storage
// ---------------------------------------------------------------------------

/// A monotonically increasing event count (one relaxed atomic).
///
/// `reset` exists because the repo's measurement protocol zeroes event
/// counters between measured runs; exposition treats the value as the
/// count since the last reset.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in `static` initializers).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Add `n` events (no-op for zero; relaxed).
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zero the counter (between measured runs).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time signed value (one relaxed atomic), for polled state:
/// resident bytes, EWMA latency.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge (usable in `static` initializers).
    pub const fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    /// Replace the value (relaxed).
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The log2 bucket index of `v`: 0 for 0, otherwise `floor(log2 v) + 1`.
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive value range `[lo, hi]` covered by bucket `b` (clamped to
/// the last bucket).
pub fn log2_bucket_range(b: usize) -> (u64, u64) {
    match b.min(LOG2_BUCKETS - 1) {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        b => (1u64 << (b - 1), (1u64 << b) - 1),
    }
}

/// A fixed-bucket latency/size histogram with power-of-two bucket
/// boundaries (rezolus heatmap-style). Recording is four relaxed atomic
/// operations; there is no allocation anywhere in the type after
/// construction.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram (usable in `static` initializers).
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; LOG2_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation (lock-free, allocation-free).
    pub fn record(&self, v: u64) {
        self.buckets[log2_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a [`Duration`] in microseconds (the repo's latency unit).
    pub fn record_duration_us(&self, d: Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent point-in-time copy of the bucket array and summary
    /// fields. (Consistent enough for exposition: buckets are read after
    /// `count`, so the bucket total is never *behind* `count`.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let mut buckets = [0u64; LOG2_BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Zero every bucket and summary field (between measured runs).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A plain-data copy of a [`Log2Histogram`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`log2_bucket_range`]).
    pub buckets: [u64; LOG2_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (wrapping on overflow).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(q * count)`-th smallest observation
    /// (the exact maximum for the top non-empty bucket, since `max` is
    /// tracked). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        let mut last_nonempty = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            last_nonempty = b;
            seen += n;
            if seen >= rank {
                let (_, hi) = log2_bucket_range(b);
                // The histogram's tracked max tightens the top bucket.
                return if b == last_nonempty_bucket(&self.buckets) {
                    hi.min(self.max)
                } else {
                    hi
                };
            }
        }
        let (_, hi) = log2_bucket_range(last_nonempty);
        hi.min(self.max)
    }

    /// Merge another snapshot into this one: bucketwise sums, as if all
    /// observations had been recorded into one histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Observations gained since `earlier` (bucketwise saturating
    /// difference; `max` keeps the current value, since a maximum cannot
    /// be un-observed).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        for (a, b) in out.buckets.iter_mut().zip(&earlier.buckets) {
            *a = a.saturating_sub(*b);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.wrapping_sub(earlier.sum);
        out
    }
}

fn last_nonempty_bucket(buckets: &[u64; LOG2_BUCKETS]) -> usize {
    buckets
        .iter()
        .rposition(|&n| n > 0)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A registered metric's storage.
#[derive(Debug, Clone, Copy)]
enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Log2Histogram),
}

struct Entry {
    name: String,
    metric: MetricRef,
}

/// The process-wide registry: name → typed metric storage. Registration
/// (the only allocating operation) happens once per name; the returned
/// `&'static` handles are then recorded into without any locking.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &lock(&self.entries).len())
            .finish()
    }
}

impl Registry {
    /// An empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, name: &str) -> Option<MetricRef> {
        lock(&self.entries)
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.metric)
    }

    fn register(&self, name: &str, metric: MetricRef) -> MetricRef {
        let mut entries = lock(&self.entries);
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return e.metric;
        }
        entries.push(Entry {
            name: name.to_string(),
            metric,
        });
        metric
    }

    /// The counter registered under `name`, registering (one leaked
    /// allocation) on first use. If `name` is already registered as a
    /// different kind, a detached unregistered counter is returned — the
    /// caller's recording still works, exposition keeps the first kind.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let existing = self.find(name);
        match existing {
            Some(MetricRef::Counter(c)) => c,
            Some(_) => Box::leak(Box::new(Counter::new())),
            None => {
                let fresh: &'static Counter = Box::leak(Box::new(Counter::new()));
                match self.register(name, MetricRef::Counter(fresh)) {
                    MetricRef::Counter(c) => c,
                    _ => fresh,
                }
            }
        }
    }

    /// The gauge registered under `name` (see [`Registry::counter`] for
    /// the registration/mismatch rules).
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let existing = self.find(name);
        match existing {
            Some(MetricRef::Gauge(g)) => g,
            Some(_) => Box::leak(Box::new(Gauge::new())),
            None => {
                let fresh: &'static Gauge = Box::leak(Box::new(Gauge::new()));
                match self.register(name, MetricRef::Gauge(fresh)) {
                    MetricRef::Gauge(g) => g,
                    _ => fresh,
                }
            }
        }
    }

    /// The histogram registered under `name` (see [`Registry::counter`]
    /// for the registration/mismatch rules).
    pub fn histogram(&self, name: &str) -> &'static Log2Histogram {
        let existing = self.find(name);
        match existing {
            Some(MetricRef::Histogram(h)) => h,
            Some(_) => Box::leak(Box::new(Log2Histogram::new())),
            None => {
                let fresh: &'static Log2Histogram = Box::leak(Box::new(Log2Histogram::new()));
                match self.register(name, MetricRef::Histogram(fresh)) {
                    MetricRef::Histogram(h) => h,
                    _ => fresh,
                }
            }
        }
    }

    /// Names currently registered, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.entries).iter().map(|e| e.name.clone()).collect();
        names.sort();
        names
    }

    /// A point-in-time [`Snapshot`] of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let entries = lock(&self.entries);
        let mut snap = Snapshot::default();
        for e in entries.iter() {
            match e.metric {
                MetricRef::Counter(c) => snap.set_counter(&e.name, c.value()),
                MetricRef::Gauge(g) => snap.set_gauge(&e.name, g.value()),
                MetricRef::Histogram(h) => snap.set_histogram(&e.name, h.snapshot()),
            }
        }
        snap
    }

    /// Zero every registered counter and histogram (gauges keep their
    /// last polled value). Test/measurement plumbing.
    pub fn reset(&self) {
        let entries = lock(&self.entries);
        for e in entries.iter() {
            match e.metric {
                MetricRef::Counter(c) => c.reset(),
                MetricRef::Gauge(_) => {}
                MetricRef::Histogram(h) => h.reset(),
            }
        }
    }
}

/// The process-wide registry every lazy handle registers into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// Find-or-register a counter in the [`global`] registry.
pub fn counter(name: &str) -> &'static Counter {
    global().counter(name)
}

/// Find-or-register a gauge in the [`global`] registry.
pub fn gauge(name: &str) -> &'static Gauge {
    global().gauge(name)
}

/// Find-or-register a histogram in the [`global`] registry.
pub fn histogram(name: &str) -> &'static Log2Histogram {
    global().histogram(name)
}

// ---------------------------------------------------------------------------
// Lazy static handles
// ---------------------------------------------------------------------------

/// A `static`-friendly counter handle: registration into the global
/// registry is deferred to first use, every later touch is one relaxed
/// atomic on the registered storage.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A handle for the registry entry `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The registered storage (registers on first call).
    pub fn handle(&self) -> &'static Counter {
        self.cell.get_or_init(|| counter(self.name))
    }

    /// Add `n` events.
    pub fn add(&self, n: u64) {
        self.handle().add(n);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.handle().value()
    }

    /// Zero the counter.
    pub fn reset(&self) {
        self.handle().reset();
    }
}

/// A `static`-friendly gauge handle (see [`LazyCounter`]).
#[derive(Debug)]
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// A handle for the registry entry `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The registered storage (registers on first call).
    pub fn handle(&self) -> &'static Gauge {
        self.cell.get_or_init(|| gauge(self.name))
    }

    /// Replace the value.
    pub fn set(&self, v: i64) {
        self.handle().set(v);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.handle().value()
    }
}

/// A `static`-friendly histogram handle (see [`LazyCounter`]).
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static Log2Histogram>,
}

impl LazyHistogram {
    /// A handle for the registry entry `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The registered storage (registers on first call).
    pub fn handle(&self) -> &'static Log2Histogram {
        self.cell.get_or_init(|| histogram(self.name))
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.handle().record(v);
    }

    /// Record a duration in microseconds (see
    /// [`Log2Histogram::record_duration_us`]).
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.handle().record_duration_us(d);
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A snapshotted metric value.
// Snapshots are cold-path plain data; keeping the histogram inline (vs
// boxing it) preserves `Copy`, which the merge/delta code relies on.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Point-in-time signed value.
    Gauge(i64),
    /// Log2-bucket histogram contents.
    Histogram(HistogramSnapshot),
}

/// A point-in-time, name-sorted copy of a set of metrics. Snapshots are
/// plain data: they can be merged (union, summing shared counters and
/// histograms), diffed ([`Snapshot::delta`]), formatted (the `stats`
/// verb), or encoded ([`encode_prometheus`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set (or overwrite) a counter entry.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.entries.insert(name.to_string(), MetricValue::Counter(v));
    }

    /// Set (or overwrite) a gauge entry.
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        self.entries.insert(name.to_string(), MetricValue::Gauge(v));
    }

    /// Set (or overwrite) a histogram entry.
    pub fn set_histogram(&mut self, name: &str, h: HistogramSnapshot) {
        self.entries.insert(name.to_string(), MetricValue::Histogram(h));
    }

    /// The entry named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// A counter's value (0 when absent — counters that never fired are
    /// indistinguishable from unregistered ones by design).
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// A histogram's contents, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterate `(name, value)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metric is present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge `other` into `self`: counters and histograms sum, gauges
    /// take `other`'s (newer) value, entries unique to either side are
    /// kept. Merging mismatched kinds keeps `other`'s value.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.entries {
            match (self.entries.get_mut(name), v) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += *b,
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => a.merge(b),
                (Some(slot), v) => *slot = *v,
                (None, v) => {
                    self.entries.insert(name.clone(), *v);
                }
            }
        }
    }

    /// What changed since `earlier`: counters and histograms become
    /// differences (saturating at zero), gauges keep their current
    /// value, entries absent from `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (name, v) in &self.entries {
            let dv = match (v, earlier.entries.get(name)) {
                (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                    MetricValue::Counter(a.saturating_sub(*b))
                }
                (MetricValue::Histogram(a), Some(MetricValue::Histogram(b))) => {
                    MetricValue::Histogram(a.delta(b))
                }
                (v, _) => *v,
            };
            out.entries.insert(name.clone(), dv);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Prometheus text format
// ---------------------------------------------------------------------------

/// Sanitize a dotted registry name into a Prometheus metric family name:
/// `sfc_` prefix, every non-`[a-zA-Z0-9_]` byte mapped to `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("sfc_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Encode a snapshot as Prometheus text exposition format (version
/// 0.0.4): `# TYPE` headers, `_total`-suffixed counters, cumulative
/// `_bucket{le="…"}` series plus `_sum`/`_count` for histograms, and a
/// non-standard-but-well-formed `_max` gauge per histogram.
pub fn encode_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in snap.iter() {
        let fam = prometheus_name(name);
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {fam}_total counter\n"));
                out.push_str(&format!("{fam}_total {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {fam} gauge\n"));
                out.push_str(&format!("{fam} {v}\n"));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!("# TYPE {fam} histogram\n"));
                let mut cum = 0u64;
                for (b, &n) in h.buckets.iter().enumerate() {
                    cum += n;
                    if n == 0 && b != LOG2_BUCKETS - 1 {
                        continue; // sparse: only emit buckets that grew
                    }
                    let (_, hi) = log2_bucket_range(b);
                    out.push_str(&format!("{fam}_bucket{{le=\"{hi}\"}} {cum}\n"));
                }
                out.push_str(&format!("{fam}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                out.push_str(&format!("{fam}_sum {}\n", h.sum));
                out.push_str(&format!("{fam}_count {}\n", h.count));
                out.push_str(&format!("# TYPE {fam}_max gauge\n"));
                out.push_str(&format!("{fam}_max {}\n", h.max));
            }
        }
    }
    out
}

/// Validate Prometheus text exposition syntax (the subset this repo
/// emits, which is a strict subset of the 0.0.4 format): every line is a
/// comment (`# TYPE`/`# HELP`) or a `name[{labels}] value` sample with a
/// well-formed metric name and a parseable value; `_bucket` series are
/// cumulative non-decreasing and end with an `+Inf` bucket equal to
/// `_count`. Returns the number of samples on success.
pub fn validate_prometheus_text(text: &str) -> Result<usize, String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    let mut samples = 0usize;
    // family → (last cumulative bucket value, saw +Inf, count value)
    let mut buckets: BTreeMap<String, (u64, Option<u64>)> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("TYPE ") || rest.starts_with("HELP ") || rest.starts_with("EOF"))
            {
                return Err(format!("line {}: unknown comment form: {line:?}", lineno + 1));
            }
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let fam = it.next().unwrap_or("");
                let kind = it.next().unwrap_or("");
                if !valid_name(fam) {
                    return Err(format!("line {}: bad family name {fam:?}", lineno + 1));
                }
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {}: bad metric type {kind:?}", lineno + 1));
                }
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(i) => line.split_at(i),
            None => return Err(format!("line {}: no value: {line:?}", lineno + 1)),
        };
        if !valid_name(name_part) {
            return Err(format!("line {}: bad metric name {name_part:?}", lineno + 1));
        }
        let (labels, value_str) = if let Some(stripped) = rest.strip_prefix('{') {
            let end = stripped
                .find('}')
                .ok_or_else(|| format!("line {}: unterminated labels", lineno + 1))?;
            (Some(&stripped[..end]), stripped[end + 1..].trim())
        } else {
            (None, rest.trim())
        };
        let value_str = value_str.split_whitespace().next().unwrap_or("");
        let value: f64 = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            s => s
                .parse()
                .map_err(|_| format!("line {}: bad sample value {s:?}", lineno + 1))?,
        };
        samples += 1;

        if let Some(fam) = name_part.strip_suffix("_bucket") {
            let le = labels
                .and_then(|l| {
                    l.split(',').find_map(|kv| {
                        kv.trim()
                            .strip_prefix("le=\"")
                            .and_then(|v| v.strip_suffix('"'))
                    })
                })
                .ok_or_else(|| format!("line {}: _bucket without le label", lineno + 1))?;
            let cum = value as u64;
            let entry = buckets.entry(fam.to_string()).or_insert((0, None));
            if cum < entry.0 {
                return Err(format!(
                    "line {}: histogram {fam} buckets not cumulative ({cum} < {})",
                    lineno + 1,
                    entry.0
                ));
            }
            entry.0 = cum;
            if le == "+Inf" {
                entry.1 = Some(cum);
            }
        } else if let Some(fam) = name_part.strip_suffix("_count") {
            counts.insert(fam.to_string(), value as u64);
        }
    }

    for (fam, (_, inf)) in &buckets {
        let inf = inf.ok_or_else(|| format!("histogram {fam} missing +Inf bucket"))?;
        if let Some(count) = counts.get(fam) {
            if *count != inf {
                return Err(format!(
                    "histogram {fam}: +Inf bucket {inf} != count {count}"
                ));
            }
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 64);
        assert_eq!(log2_bucket_range(0), (0, 0));
        assert_eq!(log2_bucket_range(1), (1, 1));
        assert_eq!(log2_bucket_range(2), (2, 3));
        assert_eq!(log2_bucket_range(64), (1 << 63, u64::MAX));
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Log2Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        assert_eq!(s.quantile(0.0), 1);
        // p50 = 3rd smallest (3) → bucket [2,3] upper bound 3.
        assert_eq!(s.quantile(0.5), 3);
        // p100 lands in the top bucket, tightened by the tracked max.
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0);
    }

    #[test]
    fn registry_find_or_register_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("x.events") as *const Counter;
        let b = reg.counter("x.events") as *const Counter;
        assert_eq!(a, b, "same storage for the same name");
        reg.counter("x.events").add(3);
        assert_eq!(reg.snapshot().counter("x.events"), 3);
        assert_eq!(reg.names(), vec!["x.events".to_string()]);
    }

    #[test]
    fn kind_mismatch_returns_detached_storage() {
        let reg = Registry::new();
        reg.counter("x.val").add(1);
        // Same name as a gauge: detached handle, registry keeps counter.
        reg.gauge("x.val").set(99);
        assert_eq!(reg.snapshot().counter("x.val"), 1);
    }

    #[test]
    fn snapshot_merge_and_delta() {
        let mut a = Snapshot::new();
        a.set_counter("c", 5);
        a.set_gauge("g", 1);
        let mut b = Snapshot::new();
        b.set_counter("c", 7);
        b.set_gauge("g", 2);
        b.set_counter("only_b", 1);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.counter("c"), 12);
        assert_eq!(merged.gauge("g"), 2);
        assert_eq!(merged.counter("only_b"), 1);
        let d = b.delta(&a);
        assert_eq!(d.counter("c"), 2);
        assert_eq!(d.gauge("g"), 2, "gauges pass through");
    }

    #[test]
    fn prometheus_roundtrip_validates() {
        let reg = Registry::new();
        reg.counter("eng.done").add(41);
        reg.gauge("eng.window").set(-3);
        let h = reg.histogram("eng.lat_us");
        for v in 0..200u64 {
            h.record(v * 37);
        }
        let text = encode_prometheus(&reg.snapshot());
        let samples = validate_prometheus_text(&text).expect("valid exposition");
        assert!(samples >= 3, "{text}");
        assert!(text.contains("# TYPE sfc_eng_done_total counter"), "{text}");
        assert!(text.contains("sfc_eng_done_total 41"), "{text}");
        assert!(text.contains("sfc_eng_window -3"), "{text}");
        assert!(text.contains("sfc_eng_lat_us_bucket{le=\"+Inf\"} 200"), "{text}");
        assert!(text.contains("sfc_eng_lat_us_count 200"), "{text}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_prometheus_text("9bad_name 1\n").is_err());
        assert!(validate_prometheus_text("x{le=\"7\" 1\n").is_err());
        assert!(validate_prometheus_text("x notanumber\n").is_err());
        assert!(validate_prometheus_text("# FROB x\n").is_err());
        // Non-cumulative buckets.
        let bad = "h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 5\n";
        assert!(validate_prometheus_text(bad).is_err());
        // Missing +Inf.
        assert!(validate_prometheus_text("h_bucket{le=\"1\"} 5\n").is_err());
    }
}
