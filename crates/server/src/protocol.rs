//! Wire protocol of the volume service.
//!
//! A deliberately small, line-oriented protocol: every request is one
//! `\n`-terminated ASCII line (`<op> key=value ...`), every response is
//! one header line optionally followed by a length-prefixed binary body
//! (the header's `bytes=` field names the exact body length, so a reader
//! never needs a closing delimiter). The shapes:
//!
//! ```text
//! -> filter tenant=alice size=16 layout=z seed=7 radius=2
//! <- ok bytes=16384 completed=256 failed=0 retried=0 downgraded=0 \
//!       max_level=0 whole=1 cache=hit coalesced=0
//! <- <16384 raw little-endian f32 bytes>
//! ```
//!
//! Malformed requests are rejected with the [`SfcError`] taxonomy
//! (`err invalid-parameter: ...`), overload with a typed `overloaded`
//! line, and a drain-time shed with a typed `shed` line — a client can
//! always distinguish "you asked wrong", "come back later", and "the
//! server gave up on you" without parsing prose.

use std::time::Duration;

use sfc_core::{SfcError, SfcResult};
use sfc_harness::FaultRates;

/// Upper bound on a request line; longer lines are rejected before
/// parsing (a malformed or hostile client must not balloon memory).
pub const MAX_LINE: usize = 4096;
/// Upper bound on the cubic volume edge a request may name.
pub const MAX_SIZE: usize = 128;
/// Upper bound on the square image edge a render request may name.
pub const MAX_IMAGE: usize = 1024;
/// Upper bound on a response body a client will accept. The largest
/// legal reply is a `MAX_IMAGE`² RGBA f32 render (16 MiB); anything past
/// this is a corrupt or hostile header, refused before allocating.
pub const MAX_BODY: usize = MAX_IMAGE * MAX_IMAGE * 4 * 4;

/// The four memory layouts a request can ask the service to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutChoice {
    /// Row-major array order.
    Array,
    /// Morton (Z-order) curve.
    Z,
    /// Tiled (blocked) order.
    Tiled,
    /// Hilbert curve.
    Hilbert,
}

impl LayoutChoice {
    /// Every layout, in the order the paper tabulates them.
    pub const ALL: [LayoutChoice; 4] = [
        LayoutChoice::Array,
        LayoutChoice::Z,
        LayoutChoice::Tiled,
        LayoutChoice::Hilbert,
    ];

    /// The wire name (`array`, `z`, `tiled`, `hilbert`).
    pub fn name(self) -> &'static str {
        match self {
            LayoutChoice::Array => "array",
            LayoutChoice::Z => "z",
            LayoutChoice::Tiled => "tiled",
            LayoutChoice::Hilbert => "hilbert",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> SfcResult<Self> {
        match s {
            "array" => Ok(LayoutChoice::Array),
            "z" => Ok(LayoutChoice::Z),
            "tiled" => Ok(LayoutChoice::Tiled),
            "hilbert" => Ok(LayoutChoice::Hilbert),
            other => Err(SfcError::InvalidParameter {
                name: "layout",
                reason: format!("expected array|z|tiled|hilbert, got {other:?}"),
            }),
        }
    }
}

/// What a request asks the service to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// 3D bilateral filter over the whole volume (unit = voxel pencil).
    Filter {
        /// Stencil radius in voxels.
        radius: usize,
    },
    /// Raycast the volume into a square RGBA image (unit = pixel tile).
    Render {
        /// Output image edge in pixels.
        image: usize,
        /// Tile edge in pixels.
        tile: usize,
    },
}

impl OpKind {
    /// The wire name of the op (`filter` / `render`).
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Filter { .. } => "filter",
            OpKind::Render { .. } => "render",
        }
    }
}

/// One parsed, validated client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Tenant the request is accounted to (fair-queueing key).
    pub tenant: String,
    /// The computation.
    pub op: OpKind,
    /// Cubic volume edge; the input volume is `size³` voxels.
    pub size: usize,
    /// Memory layout the input volume is held in.
    pub layout: LayoutChoice,
    /// Seed of the deterministic synthetic input volume.
    pub seed: u64,
    /// Optional wall-clock budget mapped to a
    /// [`DeadlineBudget`](sfc_harness::DeadlineBudget). The clock starts
    /// at admission: a request still queued past its budget is refused
    /// with a typed `expired` header instead of computed. Always `>= 1`
    /// when present (`deadline_ms=0` is rejected at parse time — a
    /// retrying client must treat a zero remaining budget as exhausted,
    /// never send it).
    pub deadline_ms: Option<u64>,
    /// Optional idempotency key: a client that retries tags every
    /// attempt of one logical request with the same `req_id`, and the
    /// server's dedup cache guarantees the side effects (`save=1`) are
    /// applied exactly once per `(tenant, req_id)` within the TTL.
    pub req_id: Option<String>,
    /// Which delivery attempt of the logical request this is (1-based;
    /// informational — the server counts `attempt>1` arrivals).
    pub attempt: u32,
    /// Optional fault injection (seed + per-unit rates) applied by the
    /// server while executing this request.
    pub faults: Option<(u64, FaultRates)>,
    /// Persist the result to the server's data directory via
    /// `write_atomic` semantics.
    pub save: bool,
}

fn bad(name: &'static str, reason: impl Into<String>) -> SfcError {
    SfcError::InvalidParameter {
        name,
        reason: reason.into(),
    }
}

fn parse_num<T: std::str::FromStr>(name: &'static str, v: &str) -> SfcResult<T> {
    v.parse()
        .map_err(|_| bad(name, format!("expected a number, got {v:?}")))
}

impl Request {
    /// Parse one request line (already stripped of its `\n`). Only
    /// `filter` and `render` lines reach here — control verbs (`ping`,
    /// `stats`, `shutdown`) are matched by the connection handler first.
    pub fn parse(line: &str) -> SfcResult<Request> {
        if line.len() > MAX_LINE {
            return Err(bad("request", format!("line exceeds {MAX_LINE} bytes")));
        }
        let mut tokens = line.split_ascii_whitespace();
        let verb = tokens.next().ok_or_else(|| bad("request", "empty line"))?;

        let mut tenant = None;
        let mut size = 16usize;
        let mut layout = LayoutChoice::Z;
        let mut seed = 1u64;
        let mut radius = 1usize;
        let mut image = 32usize;
        let mut tile = 0usize; // 0 = derive from image below
        let mut deadline_ms = None;
        let mut fault_seed = None;
        let mut rates = FaultRates::default();
        let mut save = false;
        let mut req_id = None;
        let mut attempt = 1u32;

        for tok in tokens {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| bad("request", format!("expected key=value, got {tok:?}")))?;
            match key {
                "tenant" => tenant = Some(value.to_string()),
                "size" => size = parse_num("size", value)?,
                "layout" => layout = LayoutChoice::parse(value)?,
                "seed" => seed = parse_num("seed", value)?,
                "radius" => radius = parse_num("radius", value)?,
                "image" => image = parse_num("image", value)?,
                "tile" => tile = parse_num("tile", value)?,
                "deadline_ms" => deadline_ms = Some(parse_num("deadline_ms", value)?),
                "fault_seed" => fault_seed = Some(parse_num("fault_seed", value)?),
                "panic_rate" => rates.panic = parse_num("panic_rate", value)?,
                "flaky_rate" => rates.flaky = parse_num("flaky_rate", value)?,
                "timeout_rate" => rates.stall = parse_num("timeout_rate", value)?,
                "corrupt_rate" => rates.corrupt = parse_num("corrupt_rate", value)?,
                "stall_ms" => rates.stall_ms = parse_num("stall_ms", value)?,
                "save" => save = value == "1" || value == "true",
                "req_id" => req_id = Some(value.to_string()),
                "attempt" => attempt = parse_num("attempt", value)?,
                other => {
                    return Err(bad("request", format!("unknown key {other:?}")));
                }
            }
        }

        let tenant = tenant.ok_or_else(|| bad("tenant", "every request must name a tenant"))?;
        if tenant.is_empty() || tenant.len() > 64 || !tenant.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_') {
            return Err(bad("tenant", "tenant must be 1..=64 chars of [A-Za-z0-9_-]"));
        }
        if let Some(id) = &req_id {
            if id.is_empty() || id.len() > 64 || !id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_') {
                return Err(bad("req_id", "req_id must be 1..=64 chars of [A-Za-z0-9_-]"));
            }
        }
        if attempt == 0 {
            return Err(bad("attempt", "attempts are 1-based; attempt=0 is meaningless"));
        }
        if deadline_ms == Some(0) {
            return Err(bad(
                "deadline_ms",
                "deadline_ms must be >= 1; a zero remaining budget is deadline exhaustion, not a request",
            ));
        }
        if size == 0 || size > MAX_SIZE {
            return Err(bad("size", format!("volume edge must be in 1..={MAX_SIZE}, got {size}")));
        }
        let op = match verb {
            "filter" => {
                if radius == 0 || radius >= size {
                    return Err(bad("radius", format!("stencil radius must be in 1..{size}, got {radius}")));
                }
                OpKind::Filter { radius }
            }
            "render" => {
                if image == 0 || image > MAX_IMAGE {
                    return Err(bad("image", format!("image edge must be in 1..={MAX_IMAGE}, got {image}")));
                }
                let tile = if tile == 0 { image.min(32) } else { tile };
                if tile > image {
                    return Err(bad("tile", format!("tile edge {tile} exceeds image edge {image}")));
                }
                OpKind::Render { image, tile }
            }
            other => {
                return Err(bad("request", format!("unknown op {other:?} (expected filter|render)")));
            }
        };
        let faults = fault_seed.map(|s| (s, rates));
        Ok(Request {
            tenant,
            op,
            size,
            layout,
            seed,
            deadline_ms,
            req_id,
            attempt,
            faults,
            save,
        })
    }

    /// Serialize back to one request line (inverse of [`Request::parse`]).
    pub fn format(&self) -> String {
        let mut line = String::new();
        match self.op {
            OpKind::Filter { radius } => {
                line.push_str(&format!("filter tenant={} radius={radius}", self.tenant));
            }
            OpKind::Render { image, tile } => {
                line.push_str(&format!("render tenant={} image={image} tile={tile}", self.tenant));
            }
        }
        line.push_str(&format!(
            " size={} layout={} seed={}",
            self.size,
            self.layout.name(),
            self.seed
        ));
        if let Some(ms) = self.deadline_ms {
            line.push_str(&format!(" deadline_ms={ms}"));
        }
        if let Some(id) = &self.req_id {
            line.push_str(&format!(" req_id={id}"));
        }
        if self.attempt != 1 {
            line.push_str(&format!(" attempt={}", self.attempt));
        }
        if let Some((fseed, r)) = self.faults {
            line.push_str(&format!(
                " fault_seed={fseed} panic_rate={} flaky_rate={} timeout_rate={} corrupt_rate={} stall_ms={}",
                r.panic, r.flaky, r.stall, r.corrupt, r.stall_ms
            ));
        }
        if self.save {
            line.push_str(" save=1");
        }
        line
    }

    /// The request's wall-clock budget, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline_ms.map(Duration::from_millis)
    }

    /// Key under which identical queued work coalesces: everything that
    /// determines the result bytes, and nothing that doesn't (tenant).
    /// `save` requests never coalesce — their side effect (one file per
    /// request) must happen once per request.
    pub fn work_key(&self) -> Option<String> {
        if self.save {
            return None;
        }
        let mut key = match self.op {
            OpKind::Filter { radius } => format!("filter r{radius}"),
            OpKind::Render { image, tile } => format!("render i{image} t{tile}"),
        };
        key.push_str(&format!(
            " n{} {} s{} d{:?} f{:?}",
            self.size,
            self.layout.name(),
            self.seed,
            self.deadline_ms,
            self.faults
        ));
        Some(key)
    }

    /// Nominal work-unit count of the request (pencils / tiles), used as
    /// the deficit-round-robin cost so a tenant's credit is charged in
    /// proportion to the compute it asks for.
    pub fn cost(&self) -> u64 {
        match self.op {
            // X-axis pencils over a cubic volume: one per (y, z) pair.
            OpKind::Filter { .. } => (self.size * self.size) as u64,
            OpKind::Render { image, tile } => {
                let t = image.div_ceil(tile);
                (t * t) as u64
            }
        }
    }
}

/// Map an [`SfcError`] to its wire kind (kebab-case variant name).
pub fn error_kind(err: &SfcError) -> &'static str {
    match err {
        SfcError::InvalidDims { .. } => "invalid-dims",
        SfcError::ShapeMismatch { .. } => "shape-mismatch",
        SfcError::SizeOverflow { .. } => "size-overflow",
        SfcError::InvalidParameter { .. } => "invalid-parameter",
        SfcError::Io { .. } => "io",
        SfcError::Corrupt { .. } => "corrupt",
        SfcError::WorkerPanic { .. } => "worker-panic",
        SfcError::Timeout { .. } => "timeout",
        SfcError::Cancelled { .. } => "cancelled",
        SfcError::NonFinite { .. } => "non-finite",
        _ => "error",
    }
}

/// Whether a wire `err` kind describes a *transient* failure a retrying
/// client may reasonably try again (on the same or another replica).
/// Deterministic rejections (`invalid-parameter`, `invalid-dims`, …)
/// would fail identically on every replica and must not be retried.
pub fn error_kind_is_transient(kind: &str) -> bool {
    matches!(
        kind,
        "worker-panic" | "timeout" | "cancelled" | "io" | "corrupt"
    )
}

/// Parsed response header line.
#[derive(Debug, Clone, PartialEq)]
pub enum RespHeader {
    /// Success; `bytes` of binary body follow the header line.
    Ok(OkHeader),
    /// The request failed with a typed error; no body.
    Err {
        /// Kebab-case [`SfcError`] kind (see [`error_kind`]).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// The request was refused by admission control; no body.
    Overloaded {
        /// Tenant whose quota/queue refused the request.
        tenant: String,
        /// `queue-full` or `draining`.
        reason: String,
        /// Requests currently queued for the tenant.
        queued: usize,
        /// The tenant's bound (queue capacity or in-flight quota).
        limit: usize,
    },
    /// The request was shed mid-drain (accepted, then abandoned); no body.
    Shed {
        /// Why the request was shed.
        reason: String,
    },
    /// The request's deadline was already exhausted when a lane picked
    /// it up — no compute was spent on it; no body. A retrying client
    /// must treat this as deadline exhaustion, not a transient.
    Expired {
        /// The budget the request carried (`deadline_ms=`).
        deadline_ms: u64,
        /// How long the request had waited when the lane refused it.
        waited_ms: u64,
    },
}

/// The success header's fields — the request's execution report in
/// numbers. `failed`, `downgraded`, `max_level`, `shed_units` and `whole`
/// are counted from the engine outcome's one per-unit `QualityMap` (its
/// defects and the ladder level of each unit's committed bytes) and the
/// run report beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OkHeader {
    /// Binary body length in bytes.
    pub bytes: usize,
    /// Units that completed.
    pub completed: usize,
    /// Units that exhausted their retry budget.
    pub failed: usize,
    /// Retry attempts scheduled.
    pub retried: usize,
    /// Units committed below full quality (`QualityMap::downgraded_units`).
    pub downgraded: usize,
    /// Deepest brownout ladder level in the committed output.
    pub max_level: u8,
    /// Units shed past the hard deadline (recomputed coarsely by repair).
    pub shed_units: usize,
    /// Whether the output is whole (every defect repaired).
    pub whole: bool,
    /// Whether the input volume came from the shared cache.
    pub cache_hit: bool,
    /// How many *other* requests were answered by this same execution
    /// (cross-request coalescing).
    pub coalesced: usize,
    /// Whether this reply was served from the idempotency dedup cache
    /// (a retried `req_id` whose execution already completed).
    pub dedup: bool,
}

impl RespHeader {
    /// Serialize to one header line (no trailing newline).
    pub fn format(&self) -> String {
        match self {
            RespHeader::Ok(h) => format!(
                "ok bytes={} completed={} failed={} retried={} downgraded={} max_level={} shed_units={} whole={} cache={} coalesced={} dedup={}",
                h.bytes,
                h.completed,
                h.failed,
                h.retried,
                h.downgraded,
                h.max_level,
                h.shed_units,
                u8::from(h.whole),
                if h.cache_hit { "hit" } else { "miss" },
                h.coalesced,
                u8::from(h.dedup),
            ),
            RespHeader::Err { kind, message } => {
                format!("err {kind}: {}", message.replace('\n', " "))
            }
            RespHeader::Overloaded {
                tenant,
                reason,
                queued,
                limit,
            } => format!("overloaded tenant={tenant} reason={reason} queued={queued} limit={limit}"),
            RespHeader::Shed { reason } => format!("shed: {}", reason.replace('\n', " ")),
            RespHeader::Expired {
                deadline_ms,
                waited_ms,
            } => format!("expired deadline_ms={deadline_ms} waited_ms={waited_ms}"),
        }
    }

    /// Parse a header line (client side).
    pub fn parse(line: &str) -> SfcResult<RespHeader> {
        let line = line.trim_end();
        if let Some(rest) = line.strip_prefix("ok ") {
            let mut h = OkHeader::default();
            for tok in rest.split_ascii_whitespace() {
                let (key, value) = tok
                    .split_once('=')
                    .ok_or_else(|| bad("response", format!("bad ok field {tok:?}")))?;
                match key {
                    "bytes" => h.bytes = parse_num("bytes", value)?,
                    "completed" => h.completed = parse_num("completed", value)?,
                    "failed" => h.failed = parse_num("failed", value)?,
                    "retried" => h.retried = parse_num("retried", value)?,
                    "downgraded" => h.downgraded = parse_num("downgraded", value)?,
                    "max_level" => h.max_level = parse_num("max_level", value)?,
                    "shed_units" => h.shed_units = parse_num("shed_units", value)?,
                    "whole" => h.whole = value == "1",
                    "cache" => h.cache_hit = value == "hit",
                    "coalesced" => h.coalesced = parse_num("coalesced", value)?,
                    "dedup" => h.dedup = value == "1",
                    _ => {} // forward compatible: ignore unknown fields
                }
            }
            Ok(RespHeader::Ok(h))
        } else if let Some(rest) = line.strip_prefix("err ") {
            let (kind, message) = rest.split_once(": ").unwrap_or((rest, ""));
            Ok(RespHeader::Err {
                kind: kind.to_string(),
                message: message.to_string(),
            })
        } else if let Some(rest) = line.strip_prefix("overloaded ") {
            let mut tenant = String::new();
            let mut reason = String::new();
            let mut queued = 0;
            let mut limit = 0;
            for tok in rest.split_ascii_whitespace() {
                match tok.split_once('=') {
                    Some(("tenant", v)) => tenant = v.to_string(),
                    Some(("reason", v)) => reason = v.to_string(),
                    Some(("queued", v)) => queued = parse_num("queued", v)?,
                    Some(("limit", v)) => limit = parse_num("limit", v)?,
                    _ => {}
                }
            }
            Ok(RespHeader::Overloaded {
                tenant,
                reason,
                queued,
                limit,
            })
        } else if let Some(rest) = line.strip_prefix("shed: ") {
            Ok(RespHeader::Shed {
                reason: rest.to_string(),
            })
        } else if let Some(rest) = line.strip_prefix("expired ") {
            let mut deadline_ms = 0;
            let mut waited_ms = 0;
            for tok in rest.split_ascii_whitespace() {
                match tok.split_once('=') {
                    Some(("deadline_ms", v)) => deadline_ms = parse_num("deadline_ms", v)?,
                    Some(("waited_ms", v)) => waited_ms = parse_num("waited_ms", v)?,
                    _ => {}
                }
            }
            Ok(RespHeader::Expired {
                deadline_ms,
                waited_ms,
            })
        } else {
            Err(bad("response", format!("unrecognized header {line:?}")))
        }
    }
}

/// Encode a slice of `f32` as little-endian bytes (the body encoding of
/// every successful response).
pub fn f32_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a little-endian `f32` body (client side).
pub fn bytes_f32(bytes: &[u8]) -> SfcResult<Vec<f32>> {
    if !bytes.len().is_multiple_of(4) {
        return Err(SfcError::Corrupt {
            what: "response body".to_string(),
            reason: format!("length {} is not a multiple of 4", bytes.len()),
        });
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_format_and_parse() {
        let req = Request {
            tenant: "alice".into(),
            op: OpKind::Filter { radius: 2 },
            size: 16,
            layout: LayoutChoice::Hilbert,
            seed: 99,
            deadline_ms: Some(250),
            req_id: Some("r-17".into()),
            attempt: 3,
            faults: Some((7, FaultRates { panic: 0.1, ..FaultRates::default() })),
            save: true,
        };
        assert_eq!(Request::parse(&req.format()).unwrap(), req);

        let render = Request {
            tenant: "bob-2".into(),
            op: OpKind::Render { image: 64, tile: 16 },
            size: 12,
            layout: LayoutChoice::Array,
            seed: 3,
            deadline_ms: None,
            req_id: None,
            attempt: 1,
            faults: None,
            save: false,
        };
        assert_eq!(Request::parse(&render.format()).unwrap(), render);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for line in [
            "",
            "transmogrify tenant=a",
            "filter",                                  // no tenant
            "filter tenant=",                          // empty tenant
            "filter tenant=a size=0",                  // zero size
            "filter tenant=a size=9999",               // size over cap
            "filter tenant=a radius=0",                // zero radius
            "filter tenant=a size=4 radius=9",         // radius >= size
            "filter tenant=a bogus=1",                 // unknown key
            "filter tenant=a size",                    // not key=value
            "filter tenant=a size=twelve",             // not a number
            "render tenant=a image=0",
            "render tenant=a image=16 tile=99",
            "filter tenant=no/slashes",
            "filter tenant=a deadline_ms=0",            // zero budget is exhaustion
            "filter tenant=a req_id=",                  // empty idempotency key
            "filter tenant=a req_id=no/slashes",        // bad req_id charset
            "filter tenant=a attempt=0",                // attempts are 1-based
            "filter tenant=a attempt=x",                // not a number
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(
                matches!(err, SfcError::InvalidParameter { .. }),
                "{line:?} -> {err:?}"
            );
        }
    }

    #[test]
    fn work_key_ignores_tenant_and_refuses_save() {
        let a = Request::parse("filter tenant=a size=8 seed=5 radius=1").unwrap();
        let b = Request::parse("filter tenant=b size=8 seed=5 radius=1").unwrap();
        let c = Request::parse("filter tenant=b size=8 seed=6 radius=1").unwrap();
        assert_eq!(a.work_key(), b.work_key());
        assert_ne!(a.work_key(), c.work_key());
        let saved = Request::parse("filter tenant=a size=8 seed=5 radius=1 save=1").unwrap();
        assert_eq!(saved.work_key(), None);
    }

    #[test]
    fn headers_roundtrip() {
        let ok = RespHeader::Ok(OkHeader {
            bytes: 1024,
            completed: 64,
            failed: 1,
            retried: 2,
            downgraded: 3,
            max_level: 2,
            shed_units: 1,
            whole: true,
            cache_hit: true,
            coalesced: 4,
            dedup: true,
        });
        assert_eq!(RespHeader::parse(&ok.format()).unwrap(), ok);

        let err = RespHeader::Err {
            kind: "invalid-parameter".into(),
            message: "bad radius".into(),
        };
        assert_eq!(RespHeader::parse(&err.format()).unwrap(), err);

        let over = RespHeader::Overloaded {
            tenant: "mallory".into(),
            reason: "queue-full".into(),
            queued: 8,
            limit: 8,
        };
        assert_eq!(RespHeader::parse(&over.format()).unwrap(), over);

        let shed = RespHeader::Shed {
            reason: "drain budget exhausted".into(),
        };
        assert_eq!(RespHeader::parse(&shed.format()).unwrap(), shed);

        let expired = RespHeader::Expired {
            deadline_ms: 250,
            waited_ms: 312,
        };
        assert_eq!(RespHeader::parse(&expired.format()).unwrap(), expired);
    }

    #[test]
    fn work_key_ignores_req_id_and_attempt() {
        let a = Request::parse("filter tenant=a size=8 seed=5 radius=1 req_id=x1").unwrap();
        let b = Request::parse("filter tenant=a size=8 seed=5 radius=1 req_id=x2 attempt=3").unwrap();
        assert_eq!(
            a.work_key(),
            b.work_key(),
            "idempotency bookkeeping must not defeat coalescing"
        );
    }

    #[test]
    fn transient_error_kinds_are_classified() {
        for kind in ["worker-panic", "timeout", "cancelled", "io", "corrupt"] {
            assert!(error_kind_is_transient(kind), "{kind}");
        }
        for kind in ["invalid-parameter", "invalid-dims", "shape-mismatch", "non-finite", "error"] {
            assert!(!error_kind_is_transient(kind), "{kind}");
        }
    }

    #[test]
    fn f32_body_roundtrips() {
        let values = vec![0.0f32, -1.5, f32::MAX, 1e-20];
        let bytes = f32_bytes(&values);
        let back = bytes_f32(&bytes).unwrap();
        assert_eq!(
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(bytes_f32(&bytes[..5]).is_err());
    }
}
