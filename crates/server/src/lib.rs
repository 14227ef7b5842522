//! Multi-tenant TCP volume service over the SFC execution engine.
//!
//! The service turns the repo's kernel drivers into a long-running,
//! fault-tolerant server: clients submit filter/render requests tagged
//! with a tenant id over a line-oriented TCP protocol ([`protocol`]);
//! admission is tenant-fair deficit round-robin with bounded queues and
//! in-flight quotas ([`scheduler`]); execution runs every request
//! through the engine's brownout policy with panic isolation, watchdog
//! timeouts, deadline budgets, and run-scoped cancellation
//! ([`service`]); identical queued requests coalesce behind a shared
//! layout-aware volume cache ([`cache`]); and the front end detects
//! client disconnects and drains gracefully on shutdown ([`net`]).
//!
//! See DESIGN.md §9 for the request-lifecycle state machine and the
//! README for a sample client session.

pub mod cache;
pub mod client;
pub mod dedup;
pub mod net;
pub mod protocol;
pub mod resilient;
pub mod scheduler;
pub mod service;

pub use cache::{CacheStats, CachedVolume, VolumeCache, VolumeKey};
pub use client::{CancelHandle, Client};
pub use dedup::{DedupCache, DedupStats, Fingerprint};
pub use net::{handle_conn, Server, ServerConfig};
pub use protocol::{
    error_kind, error_kind_is_transient, f32_bytes, bytes_f32, LayoutChoice, OkHeader, OpKind,
    Request, RespHeader, MAX_BODY,
};
pub use resilient::{BreakerState, ReplicaSet, ResilientClient, RetryPolicy, SendOutcome};
pub use scheduler::{
    FairScheduler, Job, Overloaded, Response, SchedConfig, SchedStats, Ticket, Waiter,
};
pub use service::{
    filter_run, image_bytes, render_setup, Admission, DrainReport, Service, ServiceConfig,
};
