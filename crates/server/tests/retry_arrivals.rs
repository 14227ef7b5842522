//! `server.retry_arrivals` counts every arrival that carries `attempt>1`,
//! the retries the dedup cache answers included.
//!
//! A test binary of its own, and one test in it, so that no concurrent
//! test moves the process-wide counter between the test's two reads.

use std::sync::atomic::Ordering;
use std::time::Duration;

use sfc_server::{Client, RespHeader, Server, ServerConfig, Service, ServiceConfig};

#[test]
fn a_retry_answered_from_the_dedup_cache_counts_as_a_retry_arrival() {
    let svc = Service::start(ServiceConfig::default()).expect("service starts");
    let server =
        Server::bind("127.0.0.1:0", svc.clone(), ServerConfig::default()).expect("ephemeral bind");
    let addr = server.local_addr().expect("bound addr").to_string();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run().expect("accept loop"));

    let retries = || svc.metrics_snapshot().counter("server.retry_arrivals");
    let line = "filter tenant=t size=8 seed=4 radius=1 req_id=once";
    let ask = |line: &str| {
        let mut client = Client::connect(&addr).expect("connect");
        client
            .set_timeout(Duration::from_secs(30))
            .expect("timeout");
        match client.request_line(line).expect("reply").0 {
            RespHeader::Ok(h) => h,
            other => panic!("expected ok, got {other:?}"),
        }
    };
    let before = retries();
    assert!(!ask(line).dedup, "the first attempt executes");
    assert_eq!(retries(), before, "a first attempt is not a retry");
    assert!(
        ask(&format!("{line} attempt=2")).dedup,
        "the retry is a replay"
    );
    assert_eq!(retries(), before + 1, "the replayed retry is counted");

    flag.store(true, Ordering::Relaxed);
    handle.join().expect("accept loop exits");
    svc.drain(Duration::from_secs(5));
}
