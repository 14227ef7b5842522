//! Multi-tenant TCP volume service over the SFC execution engine.
//!
//! The service turns the repo's kernel drivers into a long-running,
//! fault-tolerant server: clients submit filter/render requests tagged
//! with a tenant id over a line-oriented TCP protocol ([`protocol`]).
//! Every piece of request state — tenant-fair deficit round-robin queues
//! with bounded depth and in-flight quotas, pop-time coalescing of
//! identical requests, the idempotency dedup entries, the running jobs
//! with their waiters and run tokens, and the drain state — lives in one
//! crate-private request core, a plain state machine that takes the time
//! as an argument and that a seeded simulator drives on a virtual clock
//! in the crate's tests. [`service`] holds it behind one lock and runs
//! every request through the engine's brownout policy with panic
//! isolation, watchdog timeouts, deadline budgets, and run-scoped
//! cancellation, over a shared layout-aware volume cache ([`cache`]); the
//! front end reports client disconnects and drains gracefully on
//! shutdown ([`net`]).
//!
//! See DESIGN.md §9 for the request-lifecycle state machine and the
//! README for a sample client session.

pub mod cache;
pub mod client;
pub mod net;
pub mod protocol;
mod request_core;
pub mod resilient;
pub mod service;

pub use cache::{CacheStats, CachedVolume, VolumeCache, VolumeKey};
pub use client::{CancelHandle, Client};
pub use net::{handle_conn, Server, ServerConfig};
pub use protocol::{
    error_kind, error_kind_is_transient, f32_bytes, bytes_f32, LayoutChoice, OkHeader, OpKind,
    Request, RespHeader, MAX_BODY,
};
pub use request_core::{DedupStats, DrainReport, Overloaded, Response, SchedConfig};
pub use resilient::{BreakerState, ReplicaSet, ResilientClient, RetryPolicy, SendOutcome};
pub use service::{filter_run, image_bytes, render_setup, Service, ServiceConfig, Ticket};
