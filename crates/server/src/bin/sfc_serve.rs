//! `sfc_serve` — the multi-tenant volume service binary.
//!
//! ```text
//! sfc_serve --addr 127.0.0.1:7070 --threads 2 --lanes 2 \
//!           --data-dir /tmp/sfc-data --journal /tmp/sfc-data/journal.bin
//! ```
//!
//! Prints `listening addr=<ip:port>` once the socket is bound (CI and
//! tests scrape this line for the ephemeral port). Shuts down on SIGTERM
//! or the `shutdown` verb: the accept loop stops, the service drains
//! in-flight work inside `--drain-ms`, sheds the rest with typed `shed`
//! replies, and exits 0 if the drain was clean.
//!
//! `--check-journal PATH` replays a journal and exits instead of
//! serving: exit 0 when the journal opens cleanly (a truncated torn tail
//! from a crash is clean by design — it is the crash-consistency
//! contract, not an error), printing the record count and any bytes
//! truncated.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use sfc_harness::{Args, Journal};
use sfc_server::{SchedConfig, Server, ServerConfig, Service, ServiceConfig};

/// SIGTERM/SIGINT handling without a signals dependency: the raw
/// `signal(2)` C ABI is stable on every unix libc, and the handler only
/// stores to a static atomic (async-signal-safe).
#[cfg(unix)]
mod sig {
    use super::*;

    pub static TERM: AtomicBool = AtomicBool::new(false);

    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::Relaxed);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
            signal(SIGINT, on_term as *const () as usize);
        }
    }
}

fn main() {
    let args = Args::from_env();

    if let Some(path) = args.get("check-journal") {
        match Journal::open(path) {
            Ok((_, rec)) => {
                println!(
                    "journal ok records={} truncated_bytes={}",
                    rec.records.len(),
                    rec.truncated_bytes
                );
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("journal error: {e}");
                std::process::exit(1);
            }
        }
    }

    let addr = args.get_str("addr", "127.0.0.1:0").to_string();
    let svc_cfg = ServiceConfig {
        exec_threads: args.get_usize("threads", 2),
        lanes: args.get_usize("lanes", 2),
        sched: SchedConfig {
            queue_cap: args.get_usize("queue-cap", 8),
            quota: args.get_usize("quota", 2),
            quantum: args.get_u64("quantum", 256),
        },
        cache_bytes: (args.get_usize("cache-mb", 64)) << 20,
        spill_dir: args.get("spill-dir").map(Into::into),
        data_dir: args.get("data-dir").map(Into::into),
        journal: args.get("journal").map(Into::into),
        unit_timeout: Duration::from_millis(args.get_u64("unit-timeout-ms", 250)),
        dedup_ttl: Duration::from_millis(args.get_u64("dedup-ttl-ms", 60_000)),
        dedup_cap: args.get_usize("dedup-cap", 1024),
    };
    let drain_budget = Duration::from_millis(args.get_u64("drain-ms", 2000));
    let net_cfg = ServerConfig {
        read_timeout: Duration::from_millis(args.get_u64("read-timeout-ms", 30_000)),
        write_timeout: Duration::from_millis(args.get_u64("write-timeout-ms", 30_000)),
        ..ServerConfig::default()
    };

    let svc = match Service::start(svc_cfg) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("startup error: {e}");
            std::process::exit(1);
        }
    };
    if let Some(rec) = svc.recovery() {
        if rec.was_torn() {
            eprintln!(
                "journal recovered records={} truncated_bytes={}",
                rec.records.len(),
                rec.truncated_bytes
            );
        }
    }

    let server = match Server::bind(&addr, svc.clone(), net_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind error ({addr}): {e}");
            std::process::exit(1);
        }
    };
    let bound = server.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    println!("listening addr={bound}");

    #[cfg(unix)]
    {
        sig::install();
        // Bridge the signal flag to the server's shutdown flag so the
        // accept loop notices within one poll interval.
        let flag = server.shutdown_flag();
        std::thread::spawn(move || loop {
            if sig::TERM.load(Ordering::Relaxed) {
                flag.store(true, Ordering::Relaxed);
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        });
    }

    if let Err(e) = server.run() {
        eprintln!("accept loop error: {e}");
    }

    let report = svc.drain(drain_budget);
    eprintln!(
        "drained clean={} shed={} cancelled={}",
        report.clean, report.shed, report.cancelled
    );
    std::process::exit(if report.clean { 0 } else { 2 });
}
