//! TCP front end: thread-per-connection accept loop, per-connection
//! read/write timeouts, disconnect detection, and the shutdown verb.
//!
//! Each connection is one request/response conversation (pipelining is
//! just the next line). While a submitted request waits for its reply,
//! the handler alternates between polling the ticket and peeking the
//! socket: a zero-byte peek means the client hung up, and the handler
//! reports it through [`Ticket::cancel`] — a queued request is dropped,
//! and a running one's run token fires as soon as its job's last waiter
//! has left. This is the "client disconnect cancels in-flight work" leg
//! of the lifecycle, and it costs nothing on the happy path (the peek is
//! non-blocking). A dedup replay or refusal comes back through the same
//! ticket, its reply already in place.
//!
//! The accept loop is non-blocking and polls a shutdown flag, so a
//! `shutdown` verb (or SIGTERM in the binary) stops admission within one
//! poll interval; the caller then runs [`Service::drain`].

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::{error_kind, RespHeader, Request, MAX_LINE};
use crate::request_core::Response;
use crate::service::{Service, Ticket};

/// Front-end tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection socket read timeout (an idle or wedged client
    /// cannot hold a handler thread forever).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Accept-loop poll interval (bounds shutdown latency).
    pub poll: Duration,
    /// Ticket poll interval while waiting for a reply (bounds disconnect
    /// detection latency at the net layer).
    pub ticket_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            poll: Duration::from_millis(10),
            ticket_poll: Duration::from_millis(10),
        }
    }
}

/// The TCP server: owns the listener and the shutdown flag.
pub struct Server {
    listener: TcpListener,
    svc: Arc<Service>,
    cfg: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str, svc: Arc<Service>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            svc,
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the accept loop when set (SIGTERM handler,
    /// `shutdown` verb, tests).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Accept connections until the shutdown flag is set. Handler
    /// threads are detached; they exit on client close, read timeout, or
    /// when the draining service refuses their next request.
    pub fn run(&self) -> std::io::Result<()> {
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let svc = self.svc.clone();
                    let cfg = self.cfg.clone();
                    let flag = self.shutdown.clone();
                    let _ = std::thread::Builder::new()
                        .name("sfc-conn".into())
                        .spawn(move || {
                            let _ = handle_conn(stream, &svc, &cfg, &flag);
                        });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(self.cfg.poll);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Serve one connection until EOF, error, or a rejected line limit.
pub fn handle_conn(
    stream: TcpStream,
    svc: &Arc<Service>,
    cfg: &ServerConfig,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let mut line = String::new();
    loop {
        line.clear();
        // A line longer than MAX_LINE is rejected without reading the
        // rest: fill_buf lets us inspect without committing to an
        // unbounded read_line allocation.
        match read_bounded_line(&mut reader, &mut line) {
            Ok(0) => return Ok(()), // EOF: client done
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Idle past the read timeout: drop the connection.
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match trimmed {
            "ping" => {
                stream.write_all(b"pong\n")?;
                continue;
            }
            "stats" => {
                stream.write_all(svc.stats_line().as_bytes())?;
                stream.write_all(b"\n")?;
                continue;
            }
            "metrics" => {
                // Prometheus text is multi-line, so it is framed like a
                // binary body: a `metrics bytes=N` header line, then N
                // bytes of exposition text.
                let body = svc.prometheus_text();
                stream.write_all(format!("metrics bytes={}\n", body.len()).as_bytes())?;
                stream.write_all(body.as_bytes())?;
                stream.flush()?;
                continue;
            }
            "shutdown" => {
                stream.write_all(b"ok draining\n")?;
                shutdown.store(true, Ordering::Relaxed);
                continue;
            }
            _ => {}
        }
        let req = match Request::parse(trimmed) {
            Ok(req) => req,
            Err(err) => {
                let header = RespHeader::Err {
                    kind: error_kind(&err).to_string(),
                    message: err.to_string(),
                };
                stream.write_all(header.format().as_bytes())?;
                stream.write_all(b"\n")?;
                continue;
            }
        };
        let ticket = match svc.submit(req) {
            Ok(t) => t,
            Err(over) => {
                stream.write_all(over.header().format().as_bytes())?;
                stream.write_all(b"\n")?;
                continue;
            }
        };
        match await_reply(&stream, &ticket, cfg) {
            Some(resp) => {
                stream.write_all(resp.header.format().as_bytes())?;
                stream.write_all(b"\n")?;
                if !resp.body.is_empty() {
                    stream.write_all(&resp.body)?;
                }
                stream.flush()?;
            }
            None => return Ok(()), // client disconnected; request cancelled
        }
    }
}

/// Read one `\n`-terminated line, refusing to buffer more than
/// [`MAX_LINE`] bytes. Returns the byte count (0 at EOF).
fn read_bounded_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> std::io::Result<usize> {
    let mut taken = reader.by_ref().take(MAX_LINE as u64 + 1);
    let mut buf = Vec::new();
    let n = taken.read_until(b'\n', &mut buf)?;
    if n > MAX_LINE {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "request line exceeds MAX_LINE",
        ));
    }
    *line = String::from_utf8_lossy(&buf).into_owned();
    Ok(n)
}

/// Poll the ticket for the reply while watching the socket for a client
/// disconnect. Returns `None` (after cancelling the ticket) if the client
/// hung up first.
fn await_reply(stream: &TcpStream, ticket: &Ticket, cfg: &ServerConfig) -> Option<Response> {
    let mut watch_peer = true;
    loop {
        if let Some(resp) = ticket.wait(cfg.ticket_poll) {
            return Some(resp);
        }
        if watch_peer {
            match peek_disconnect(stream) {
                Peer::Gone => {
                    ticket.cancel();
                    return None;
                }
                Peer::DataWaiting => {
                    // Pipelined bytes are queued: the client is alive and
                    // a peek can no longer distinguish close-after-send,
                    // so stop watching and just wait for the reply.
                    watch_peer = false;
                }
                Peer::Quiet => {}
            }
        }
    }
}

enum Peer {
    Quiet,
    DataWaiting,
    Gone,
}

fn peek_disconnect(stream: &TcpStream) -> Peer {
    let mut byte = [0u8; 1];
    if stream.set_nonblocking(true).is_err() {
        return Peer::Quiet;
    }
    let peeked = stream.peek(&mut byte);
    let _ = stream.set_nonblocking(false);
    match peeked {
        Ok(0) => Peer::Gone,
        Ok(_) => Peer::DataWaiting,
        Err(e) if e.kind() == ErrorKind::WouldBlock => Peer::Quiet,
        Err(_) => Peer::Gone,
    }
}
