//! Service conformance suite (DESIGN.md §9): the multi-tenant TCP
//! volume service must be a *transparent* wrapper over the engine.
//!
//! The pinned invariant: a single-tenant request with no deadline
//! pressure and faults off returns bytes bitwise-identical to calling
//! the kernel driver directly with `ExecPolicy::Plain` — for both
//! bilateral and raycast, across all four memory layouts. Everything the
//! service adds (scheduler, cache, brownout stack, TCP framing) must be
//! invisible on the happy path.
//!
//! The lifecycle legs: a client disconnect cancels in-flight units
//! within the handler's ticket poll, and units already running stop
//! within their watchdog interval; a `shutdown` drains gracefully —
//! in-flight requests finish and the drain reports clean within budget.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sfc_repro::core::{ArrayOrder3, Dims3, Grid3, HilbertOrder3, Layout3, Tiled3, ZOrder3};
use sfc_repro::datagen::{mri_phantom, PhantomParams};
use sfc_repro::filters::try_bilateral3d_with_policy;
use sfc_repro::harness::{ExecPolicy, FaultPlan};
use sfc_repro::volrend::render_with_policy;
use sfc_server::{
    filter_run, image_bytes, render_setup, f32_bytes, Client, LayoutChoice, RespHeader,
    SchedConfig, Server, ServerConfig, Service, ServiceConfig,
};

const EXEC_THREADS: usize = 2;

/// Start a service + TCP front end on an ephemeral port. Returns the
/// service handle (for lifecycle assertions), the bound address, and the
/// running server's shutdown flag + join handle.
fn start_server(
    svc_cfg: ServiceConfig,
) -> (
    Arc<Service>,
    String,
    Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    let svc = Service::start(svc_cfg).expect("service starts");
    let server = Server::bind("127.0.0.1:0", svc.clone(), ServerConfig::default())
        .expect("ephemeral bind");
    let addr = server.local_addr().expect("bound addr").to_string();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || {
        server.run().expect("accept loop");
    });
    (svc, addr, flag, handle)
}

fn stop_server(
    svc: &Arc<Service>,
    flag: &Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<()>,
) {
    flag.store(true, std::sync::atomic::Ordering::Relaxed);
    handle.join().expect("accept loop exits");
    svc.drain(Duration::from_secs(10));
}

fn plain_filter_bytes<L: Layout3 + Sync>(size: usize, seed: u64, radius: usize) -> Vec<u8>
where
    Grid3<f32, L>: Sync,
{
    let dims = Dims3::cube(size);
    let values = mri_phantom(dims, seed, PhantomParams::default());
    let grid = Grid3::<f32, L>::from_row_major(dims, &values);
    let mut out = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &vec![0.0; dims.len()]);
    let run = filter_run(radius, EXEC_THREADS);
    try_bilateral3d_with_policy(&grid, &mut out, &run, &ExecPolicy::Plain, &FaultPlan::none())
        .expect("plain filter");
    f32_bytes(&out.to_row_major())
}

fn plain_render_bytes<L: Layout3 + Sync>(size: usize, seed: u64, image: usize, tile: usize) -> Vec<u8>
where
    Grid3<f32, L>: Sync,
{
    let dims = Dims3::cube(size);
    let values = mri_phantom(dims, seed, PhantomParams::default());
    let grid = Grid3::<f32, L>::from_row_major(dims, &values);
    let (cam, tf, opts) = render_setup(size, image, tile, EXEC_THREADS);
    let (img, _) =
        render_with_policy(&grid, &cam, &tf, &opts, &ExecPolicy::Plain, &FaultPlan::none())
            .expect("plain render");
    image_bytes(&img)
}

#[test]
fn server_bytes_match_plain_engine_bitwise_across_layouts() {
    let (svc, addr, flag, handle) = start_server(ServiceConfig {
        exec_threads: EXEC_THREADS,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Duration::from_secs(120)).expect("timeout");

    let (size, seed, radius) = (10, 42u64, 2);
    let (image, tile) = (16, 8);
    for layout in LayoutChoice::ALL {
        let name = layout.name();

        let expected = match layout {
            LayoutChoice::Array => plain_filter_bytes::<ArrayOrder3>(size, seed, radius),
            LayoutChoice::Z => plain_filter_bytes::<ZOrder3>(size, seed, radius),
            LayoutChoice::Tiled => plain_filter_bytes::<Tiled3>(size, seed, radius),
            LayoutChoice::Hilbert => plain_filter_bytes::<HilbertOrder3>(size, seed, radius),
        };
        let line = format!("filter tenant=conform size={size} seed={seed} radius={radius} layout={name}");
        let (header, body) = client.request_line(&line).expect("filter reply");
        match header {
            RespHeader::Ok(h) => {
                assert!(h.whole, "{name}: fault-free filter must be whole");
                assert_eq!(h.downgraded, 0, "{name}: no quality downgrades");
                assert_eq!(h.failed, 0, "{name}: no failures");
            }
            other => panic!("{name}: expected ok, got {other:?}"),
        }
        assert_eq!(body, expected, "{name}: filter bytes differ from ExecPolicy::Plain");

        let expected = match layout {
            LayoutChoice::Array => plain_render_bytes::<ArrayOrder3>(size, seed, image, tile),
            LayoutChoice::Z => plain_render_bytes::<ZOrder3>(size, seed, image, tile),
            LayoutChoice::Tiled => plain_render_bytes::<Tiled3>(size, seed, image, tile),
            LayoutChoice::Hilbert => plain_render_bytes::<HilbertOrder3>(size, seed, image, tile),
        };
        let line =
            format!("render tenant=conform size={size} seed={seed} image={image} tile={tile} layout={name}");
        let (header, body) = client.request_line(&line).expect("render reply");
        match header {
            RespHeader::Ok(h) => assert!(h.whole, "{name}: fault-free render must be whole"),
            other => panic!("{name}: expected ok, got {other:?}"),
        }
        assert_eq!(body, expected, "{name}: render bytes differ from ExecPolicy::Plain");
    }
    stop_server(&svc, &flag, handle);
}

#[test]
fn malformed_requests_get_typed_errors_and_ping_pongs() {
    let (svc, addr, flag, handle) = start_server(ServiceConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Duration::from_secs(30)).expect("timeout");

    assert_eq!(client.send_line("ping").expect("ping"), "pong");

    for bad in [
        "transmogrify tenant=a",
        "filter size=8",              // no tenant
        "filter tenant=a size=0",     // invalid size
        "filter tenant=a radius=99",  // radius >= size
        "filter tenant=a bogus=1",    // unknown key
    ] {
        let (header, body) = client.request_line(bad).expect("reply");
        match header {
            RespHeader::Err { kind, .. } => {
                assert_eq!(kind, "invalid-parameter", "line {bad:?}");
            }
            other => panic!("{bad:?}: expected err, got {other:?}"),
        }
        assert!(body.is_empty());
        // The connection survives a rejected request.
        assert_eq!(client.send_line("ping").expect("ping"), "pong");
    }

    let stats = client.send_line("stats").expect("stats");
    assert!(stats.starts_with("stats "), "got {stats:?}");
    stop_server(&svc, &flag, handle);
}

#[test]
fn backpressure_returns_typed_overloaded_over_tcp() {
    // One lane, a queue bound of one, and stalling work: the first
    // request executes, the second queues, the third must be refused.
    let (svc, addr, flag, handle) = start_server(ServiceConfig {
        exec_threads: EXEC_THREADS,
        lanes: 1,
        sched: SchedConfig {
            queue_cap: 1,
            quota: 1,
            quantum: 4096,
        },
        ..ServiceConfig::default()
    });
    let slow = "filter tenant=hog size=12 seed=__ radius=1 fault_seed=1 timeout_rate=1.0 stall_ms=100";
    let mut first = TcpStream::connect(&addr).expect("conn 1");
    first
        .write_all(format!("{}\n", slow.replace("__", "1")).as_bytes())
        .expect("send 1");
    std::thread::sleep(Duration::from_millis(100)); // let it reach the lane
    let mut second = TcpStream::connect(&addr).expect("conn 2");
    second
        .write_all(format!("{}\n", slow.replace("__", "2")).as_bytes())
        .expect("send 2");
    std::thread::sleep(Duration::from_millis(100)); // let it queue

    let mut third = Client::connect(&addr).expect("conn 3");
    third.set_timeout(Duration::from_secs(30)).expect("timeout");
    let (header, _) = third
        .request_line(&slow.replace("__", "3"))
        .expect("reply 3");
    match header {
        RespHeader::Overloaded { tenant, reason, queued, limit } => {
            assert_eq!(tenant, "hog");
            assert_eq!(reason, "queue-full");
            assert_eq!((queued, limit), (1, 1));
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
    // Dropping the first two connections cancels their requests so the
    // drain below is quick.
    drop(first);
    drop(second);
    stop_server(&svc, &flag, handle);
}

#[test]
fn client_disconnect_cancels_inflight_work_within_the_watchdog_interval() {
    let (svc, addr, flag, handle) = start_server(ServiceConfig {
        exec_threads: EXEC_THREADS,
        lanes: 1,
        ..ServiceConfig::default()
    });
    // Every unit stalls 100ms and the watchdog expires it at 250ms; with
    // 144 units, two threads, and one retry the uncancelled run needs
    // tens of seconds. A prompt cancel finishes orders of magnitude
    // sooner: only the in-flight units run out their watchdog, the rest
    // are accounted Cancelled without running, and a cancelled run skips
    // the repair pass, since nobody waits for its output.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"filter tenant=ghost size=12 seed=5 radius=1 fault_seed=9 timeout_rate=1.0 stall_ms=100\n")
        .expect("send");
    // Wait until the request is actually executing, then vanish.
    let start = Instant::now();
    while svc.active_requests() == 0 && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(svc.active_requests(), 1, "request reached a lane");
    drop(stream);

    let disconnect = Instant::now();
    while svc.active_requests() > 0 && disconnect.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let elapsed = disconnect.elapsed();
    assert_eq!(svc.active_requests(), 0, "abandoned run was reaped");
    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation took {elapsed:?}; an uncancelled run needs tens of seconds"
    );
    stop_server(&svc, &flag, handle);
}

#[test]
fn shutdown_drains_gracefully_and_inflight_requests_finish() {
    let (svc, addr, _flag, handle) = start_server(ServiceConfig {
        exec_threads: EXEC_THREADS,
        ..ServiceConfig::default()
    });
    // A fault-free request that takes real work: submitted just before
    // shutdown, it must still complete (whole) inside the drain budget.
    let waiter = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.set_timeout(Duration::from_secs(60)).expect("timeout");
            client
                .request_line("filter tenant=last size=14 seed=3 radius=2")
                .expect("reply")
        }
    });
    std::thread::sleep(Duration::from_millis(50)); // let it submit

    let mut admin = Client::connect(&addr).expect("admin connect");
    assert_eq!(admin.send_line("shutdown").expect("verb"), "ok draining");
    handle.join().expect("accept loop exits");

    let t0 = Instant::now();
    let report = svc.drain(Duration::from_secs(30));
    assert!(t0.elapsed() < Duration::from_secs(30), "drain within budget");
    assert!(report.clean, "nothing shed or cancelled: {report:?}");

    let (header, body) = waiter.join().expect("client thread");
    match header {
        RespHeader::Ok(h) => {
            assert!(h.whole, "in-flight request finished whole");
            assert_eq!(body.len(), h.bytes);
        }
        other => panic!("expected ok, got {other:?}"),
    }

    // Draining service refuses new connections' requests; the listener
    // itself is closed, so connects fail outright.
    assert!(
        TcpStream::connect(&addr)
            .map(|_| ())
            .is_err(),
        "listener closed after shutdown"
    );
}

/// Parse a `stats key=value ...` line into ordered (key, value) pairs.
fn parse_stats_line(line: &str) -> Vec<(String, i64)> {
    let rest = line.strip_prefix("stats ").expect("stats prefix");
    rest.split_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("key=value");
            (k.to_string(), v.parse::<i64>().expect("integer value"))
        })
        .collect()
}

#[test]
fn stats_line_pins_every_preexisting_key_with_identical_semantics() {
    // Regression pin for the registry-backed stats_line: the exact key
    // set, order, and per-key semantics of the original hand-formatted
    // line must survive the refactor.
    let svc = Service::start(ServiceConfig::default()).expect("service starts");
    let ask = || {
        let req = sfc_server::Request::parse("filter tenant=t size=8 seed=11 radius=1")
            .expect("valid");
        let t = svc.submit(req).expect("admitted");
        t.wait(Duration::from_secs(30)).expect("reply in time")
    };
    ask(); // cache miss
    ask(); // identical request: cache hit
    // Quiesce: both requests delivered, nothing active.
    let t0 = Instant::now();
    while svc.active_requests() > 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(2));
    }

    let pairs = parse_stats_line(&svc.stats_line());
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "submitted",
            "served",
            "coalesced",
            "overloaded",
            "shed",
            "abandoned",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "resident_bytes",
            "active",
            "panics",
            "spills",
            "spill_hits",
            "spill_corrupt",
        ],
        "stats_line key set/order changed"
    );
    let get = |k: &str| pairs.iter().find(|(key, _)| key == k).expect("key present").1;
    assert_eq!(get("submitted"), 2, "two requests were admitted");
    assert_eq!(get("served"), 2, "both executed");
    assert_eq!(get("coalesced"), 0);
    assert_eq!(get("overloaded"), 0);
    assert_eq!(get("shed"), 0);
    assert_eq!(get("abandoned"), 0);
    assert_eq!(get("cache_hits"), 1, "second identical request hits");
    assert_eq!(get("cache_misses"), 1, "first request misses");
    assert_eq!(get("cache_evictions"), 0);
    assert_eq!(get("resident_bytes"), 8 * 8 * 8 * 4, "one resident 8^3 volume");
    assert_eq!(get("active"), 0, "quiesced");
    assert_eq!(get("panics"), 0);
    assert_eq!(get("spills"), 0);
    assert_eq!(get("spill_hits"), 0);
    assert_eq!(get("spill_corrupt"), 0);

    // The line is a formatter over the same snapshot the metrics verb
    // exposes: every key agrees with its server.* gauge.
    let snap = svc.metrics_snapshot();
    assert_eq!(snap.gauge("server.sched.submitted"), get("submitted"));
    assert_eq!(snap.gauge("server.cache.hits"), get("cache_hits"));
    assert_eq!(snap.gauge("server.cache.misses"), get("cache_misses"));
    assert_eq!(snap.gauge("server.cache.resident_bytes"), get("resident_bytes"));
    assert_eq!(snap.gauge("server.active"), get("active"));
    assert_eq!(snap.gauge("server.panics"), get("panics"));

    svc.drain(Duration::from_secs(5));
}

#[test]
fn metrics_verb_returns_valid_prometheus_that_agrees_with_stats() {
    use sfc_repro::harness::validate_prometheus_text;

    let (svc, addr, flag, handle) = start_server(ServiceConfig {
        exec_threads: EXEC_THREADS,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Duration::from_secs(30)).expect("timeout");
    let (header, _) = client
        .request_line("filter tenant=t size=8 seed=5 radius=1")
        .expect("reply");
    assert!(matches!(header, RespHeader::Ok(_)));

    // Quiesce so stats and the scrape observe the same settled state.
    let t0 = Instant::now();
    while svc.active_requests() > 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(2));
    }

    let stats = client.send_line("stats").expect("stats");
    let text = client.scrape_metrics().expect("metrics verb");
    let samples = validate_prometheus_text(&text).expect("valid Prometheus exposition");
    assert!(samples > 20, "expected a real scrape, got {samples} samples");

    // Core families are present from boot, even at zero.
    for family in [
        "sfc_engine_units_completed_total",
        "sfc_filters_nan_events_total",
        "sfc_volrend_nan_samples_total",
        "sfc_deadline_shed_total",
        "sfc_store_repairs_total",
        "sfc_server_lane_panics_total",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(family)),
            "missing family {family} in scrape"
        );
    }

    // Shared quantities agree between the stats line and the scrape.
    let pairs = parse_stats_line(&stats);
    let stat = |k: &str| pairs.iter().find(|(key, _)| key == k).expect("stat key").1;
    let sample = |name: &str| -> i64 {
        text.lines()
            .find(|l| {
                l.split_whitespace().next() == Some(name)
            })
            .unwrap_or_else(|| panic!("sample {name} missing"))
            .split_whitespace()
            .nth(1)
            .expect("sample value")
            .parse()
            .expect("integer sample")
    };
    for (stat_key, metric) in [
        ("submitted", "sfc_server_sched_submitted"),
        ("served", "sfc_server_sched_served"),
        ("cache_hits", "sfc_server_cache_hits"),
        ("cache_misses", "sfc_server_cache_misses"),
        ("resident_bytes", "sfc_server_cache_resident_bytes"),
        ("active", "sfc_server_active"),
        ("panics", "sfc_server_panics"),
    ] {
        assert_eq!(
            stat(stat_key),
            sample(metric),
            "stats key {stat_key} disagrees with scrape sample {metric}"
        );
    }

    stop_server(&svc, &flag, handle);
}
