//! The dedup cache answers only true retries: a `req_id` names one
//! logical request, so an arrival that reuses it for a different request
//! is refused with a typed non-transient error, executes nothing and
//! saves nothing, while a retry whose only change is a smaller remaining
//! deadline is still replayed byte for byte.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sfc_server::{
    error_kind_is_transient, Client, RespHeader, Server, ServerConfig, Service, ServiceConfig,
};

fn start_server(
    svc_cfg: ServiceConfig,
) -> (
    Arc<Service>,
    String,
    Arc<AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    let svc = Service::start(svc_cfg).expect("service starts");
    let server =
        Server::bind("127.0.0.1:0", svc.clone(), ServerConfig::default()).expect("ephemeral bind");
    let addr = server.local_addr().expect("bound addr").to_string();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run().expect("accept loop"));
    (svc, addr, flag, handle)
}

fn stop_server(svc: &Arc<Service>, flag: &Arc<AtomicBool>, handle: std::thread::JoinHandle<()>) {
    flag.store(true, Ordering::Relaxed);
    handle.join().expect("accept loop exits");
    svc.drain(Duration::from_secs(10));
}

fn saved_files(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    std::fs::read_dir(dir)
        .expect("data dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "vol"))
        .map(|p| {
            let bytes = std::fs::read(&p).expect("saved volume");
            (p, bytes)
        })
        .collect()
}

#[test]
fn a_reused_req_id_for_another_size_is_refused_and_saves_nothing() {
    let dir = std::env::temp_dir().join(format!("sfc-dedup-conflict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (svc, addr, flag, handle) = start_server(ServiceConfig {
        data_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let (h1, _) = client
        .request_line("filter tenant=t size=8 seed=5 radius=1 save=1 req_id=reused")
        .expect("first reply");
    assert!(matches!(h1, RespHeader::Ok(ref h) if !h.dedup), "{h1:?}");
    let saved = saved_files(&dir);
    let conflicts = svc.dedup_stats().conflicts;

    let (h2, b2) = client
        .request_line("filter tenant=t size=12 seed=5 radius=1 save=1 req_id=reused")
        .expect("second reply");
    match &h2 {
        RespHeader::Err { kind, message } => {
            assert_eq!(kind, "invalid-parameter", "{message}");
            assert!(
                !error_kind_is_transient(kind),
                "a retrying client must not retry it"
            );
            assert!(message.contains("req_id"), "{message}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert!(
        b2.is_empty(),
        "the earlier request's body must not be served"
    );
    assert!(
        svc.dedup_stats().conflicts > conflicts,
        "counted as server.dedup.conflicts"
    );
    stop_server(&svc, &flag, handle);
    assert_eq!(
        saved_files(&dir),
        saved,
        "the refused request overwrote nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_retry_with_a_smaller_deadline_is_still_a_dedup_replay() {
    let (svc, addr, flag, handle) = start_server(ServiceConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let line = "filter tenant=t size=8 seed=9 radius=1 req_id=deadline-retry";
    let (h1, b1) = client
        .request_line(&format!("{line} deadline_ms=30000"))
        .expect("first reply");
    let (h2, b2) = client
        .request_line(&format!("{line} deadline_ms=29000 attempt=2"))
        .expect("retried reply");
    let (RespHeader::Ok(h1), RespHeader::Ok(h2)) = (&h1, &h2) else {
        panic!("expected ok/ok, got {h1:?} / {h2:?}");
    };
    assert!(!h1.dedup, "first execution is fresh");
    assert!(h2.dedup, "the retry is answered from the dedup cache");
    assert_eq!(b1, b2, "replayed body is byte-identical");
    stop_server(&svc, &flag, handle);
}
