//! The non-blocking TCP replica server.
//!
//! One [`GateServer`] thread runs a level-triggered readiness loop
//! (via the in-tree `mio` shim) over a listener plus all of its client
//! connections. All protocol work is delegated to pure pieces — the
//! [`crate::proto`] codec, the sans-IO [`Connection`] buffers, and
//! [`handle_body`] — so the loop itself only moves bytes and juggles
//! interest sets.
//!
//! Invariants the integration suite pins:
//! - answers are produced by the *same* [`TivServe`] call the
//!   in-process path uses, so wire responses are bit-identical to
//!   direct calls against an equal snapshot;
//! - malformed input (bad version, unknown kind, truncated payload,
//!   oversized length prefix, mid-frame disconnect) is answered with a
//!   structured error frame or a clean close — never a panic;
//! - one slow or stalled client cannot stall the loop: writes are
//!   partial-write-resumable and a connection whose response backlog
//!   crosses [`crate::conn::WRITE_BACKLOG_CAP`] has its *read*
//!   interest dropped (backpressure) while everyone else proceeds.

use crate::conn::Connection;
use crate::proto::{self, decode_request, encode_response, ErrorCode, Request, Response};
use mio::net::{TcpListener, TcpStream};
use mio::{Events, Interest, Poll, Token};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use tivserve::service::TivServe;

/// Tuning knobs for one gate replica.
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Address to bind; port 0 picks an ephemeral port (read it back
    /// from [`GateHandle::addr`]).
    pub addr: SocketAddr,
    /// Events drained per poll wake.
    pub events_per_poll: usize,
    /// Poll timeout — the shutdown-flag check cadence.
    pub poll_timeout: Duration,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            events_per_poll: 256,
            poll_timeout: Duration::from_millis(25),
        }
    }
}

/// Monotonic counters the serving loop publishes; all reads are
/// `Relaxed` snapshots for reporting, not synchronization.
#[derive(Debug, Default)]
pub struct GateStats {
    /// Connections accepted over the lifetime of the server.
    pub connections_accepted: AtomicU64,
    /// Connections closed (either side).
    pub connections_closed: AtomicU64,
    /// Request frames answered with a non-error response.
    pub requests_served: AtomicU64,
    /// Error frames sent.
    pub error_frames: AtomicU64,
    /// Times a connection's read interest was dropped because its
    /// response backlog crossed the cap.
    pub backpressure_pauses: AtomicU64,
}

impl GateStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running gate replica: join handle, bound address, counters.
#[derive(Debug)]
pub struct GateHandle {
    addr: SocketAddr,
    stats: Arc<GateStats>,
    shutdown: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<io::Result<()>>>,
}

impl GateHandle {
    /// The address the replica actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replica's counters.
    pub fn stats(&self) -> &GateStats {
        &self.stats
    }

    /// Asks the serving loop to exit and joins it, returning the
    /// loop's terminal result.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::Relaxed);
        match self.thread.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("gate server thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for GateHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

/// Spawns a replica serving `service` over TCP.
pub struct GateServer;

impl GateServer {
    /// Binds, spawns the serving thread, and returns once the socket is
    /// listening (so the caller can connect immediately).
    pub fn spawn(service: Arc<TivServe>, cfg: GateConfig) -> io::Result<GateHandle> {
        let listener = TcpListener::bind(cfg.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(GateStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let loop_stats = Arc::clone(&stats);
        let loop_shutdown = Arc::clone(&shutdown);
        // tivlint: allow(pool-discipline, "one long-lived serving-loop thread per replica, not a parallel kernel; answers go through TivServe whose kernels use the pool")
        let thread = thread::Builder::new()
            .name(format!("tivgate-{}", addr.port()))
            .spawn(move || serve_loop(listener, service, cfg, loop_stats, loop_shutdown))
            .map_err(io::Error::other)?;
        Ok(GateHandle { addr, stats, shutdown, thread: Some(thread) })
    }
}

const LISTENER: Token = Token(0);

struct Client {
    stream: TcpStream,
    conn: Connection,
    interest: Interest,
}

fn serve_loop(
    listener: TcpListener,
    service: Arc<TivServe>,
    cfg: GateConfig,
    stats: Arc<GateStats>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    let mut poll = Poll::new()?;
    poll.registry().register(&listener, LISTENER, Interest::READABLE)?;
    let mut events = Events::with_capacity(cfg.events_per_poll.max(1));
    let mut clients: HashMap<usize, Client> = HashMap::new();
    let mut next_token = 1usize;
    let mut scratch = vec![0u8; 64 * 1024];

    while !shutdown.load(Ordering::Relaxed) {
        poll.poll(&mut events, Some(cfg.poll_timeout))?;
        let ready: Vec<Token> = events.iter().map(|e| e.token()).collect();
        for token in ready {
            if token == LISTENER {
                accept_all(&listener, &mut poll, &mut clients, &mut next_token, &stats)?;
                continue;
            }
            // A missing entry is a stale event for a connection closed
            // earlier in this same batch: nothing to do.
            let Some(client) = clients.get_mut(&token.0) else { continue };
            let mut finished = false;
            match service_client(client, &service, &stats, &mut scratch) {
                Ok(false) => {
                    // Still open: sync its interest set with what it
                    // now needs (pause/resume reads, arm/disarm writes).
                    let desired = desired_interest(&client.conn);
                    if desired != client.interest {
                        poll.registry().reregister(&client.stream, token, desired)?;
                        client.interest = desired;
                    }
                }
                Ok(true) | Err(_) => finished = true,
            }
            if finished {
                if let Some(client) = clients.remove(&token.0) {
                    let _ = poll.registry().deregister(&client.stream);
                    GateStats::bump(&stats.connections_closed);
                }
            }
        }
    }
    Ok(())
}

/// Accepts every pending connection on the listener.
fn accept_all(
    listener: &TcpListener,
    poll: &mut Poll,
    clients: &mut HashMap<usize, Client>,
    next_token: &mut usize,
    stats: &GateStats,
) -> io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let token = Token(*next_token);
                *next_token += 1;
                poll.registry().register(&stream, token, Interest::READABLE)?;
                clients.insert(
                    token.0,
                    Client { stream, conn: Connection::new(), interest: Interest::READABLE },
                );
                GateStats::bump(&stats.connections_accepted);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// The interest set a connection's current state calls for. A paused
/// connection necessarily has a write backlog, so the set is never
/// empty.
fn desired_interest(conn: &Connection) -> Interest {
    if conn.paused {
        Interest::WRITABLE
    } else if conn.wants_write() {
        Interest::READABLE | Interest::WRITABLE
    } else {
        Interest::READABLE
    }
}

/// Drives one ready connection: drain reads, decode/answer frames,
/// flush writes. Returns `Ok(true)` when the connection is finished
/// (EOF, fatal error answered and flushed, or IO failure).
fn service_client(
    client: &mut Client,
    service: &TivServe,
    stats: &GateStats,
    scratch: &mut [u8],
) -> io::Result<bool> {
    // Read until WouldBlock (level-triggered: anything left over shows
    // up again next poll, but draining now keeps latency flat).
    let mut saw_eof = false;
    if !client.conn.paused && !client.conn.closing() {
        loop {
            match client.stream.read(scratch) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                // tivlint: allow(no-panic-wire-path, "read(2) contract: n <= scratch.len(), n does not depend on peer bytes")
                Ok(n) => client.conn.ingest(&scratch[..n]),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Reset mid-stream — a mid-frame disconnect lands here.
                Err(_) => return Ok(true),
            }
        }
    }

    // Alternate decode and flush until quiescent. The outer loop
    // matters for the resume path: a complete frame parked in the
    // user-space read buffer produces no readiness event, so after a
    // flush un-pauses the connection it must be decoded *now*, not
    // "on the next event" that would never come.
    loop {
        // Decode and answer complete frames; stop early on
        // backpressure or a fatal protocol error.
        while !client.conn.paused && !client.conn.closing() && !client.conn.over_backlog() {
            match client.conn.next_frame() {
                Ok(None) => break,
                Ok(Some(body)) => {
                    let (wire, fatal) = handle_body(service, &body, stats);
                    client.conn.queue(&wire);
                    if fatal {
                        client.conn.close_when_flushed();
                    }
                }
                Err(len) => {
                    let resp = Response::Error {
                        id: 0,
                        code: ErrorCode::FrameTooLarge,
                        message: format!(
                            "length prefix {len} exceeds the {} byte frame cap",
                            proto::MAX_FRAME
                        ),
                    };
                    GateStats::bump(&stats.error_frames);
                    client.conn.queue(&encode_response(&resp));
                    client.conn.close_when_flushed();
                }
            }
        }
        if client.conn.over_backlog() && !client.conn.paused {
            client.conn.paused = true;
            GateStats::bump(&stats.backpressure_pauses);
        }

        // Flush as much of the backlog as the socket accepts.
        while client.conn.wants_write() {
            match client.stream.write(client.conn.unsent()) {
                Ok(0) => return Ok(true),
                Ok(n) => client.conn.advance(n),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Ok(true),
            }
        }
        if client.conn.paused && client.conn.under_resume_mark() {
            client.conn.paused = false;
        }
        // Progress check: each pass that continues consumes at least
        // one buffered frame, so this terminates.
        if !client.conn.paused && !client.conn.closing() && client.conn.frame_buffered() {
            continue;
        }
        break;
    }

    if client.conn.closing() && !client.conn.wants_write() {
        return Ok(true);
    }
    // EOF with answers still buffered: keep the connection around until
    // the flush completes (the peer may only have closed its write
    // half).
    if saw_eof && !client.conn.wants_write() {
        return Ok(true);
    }
    if saw_eof {
        client.conn.close_when_flushed();
    }
    Ok(false)
}

/// Answers one frame body: the encoded response frame plus whether the
/// connection must close afterwards. Pure apart from the `TivServe`
/// lookup — this is the seam the malformed-input tests exercise
/// without sockets.
pub fn handle_body(service: &TivServe, body: &[u8], stats: &GateStats) -> (Vec<u8>, bool) {
    let req = match decode_request(body) {
        Ok(req) => req,
        Err(err) => {
            let code = err.code();
            // Echo the request id when the header got far enough to
            // carry one trustworthily (version byte matched).
            let id = if code != ErrorCode::BadVersion {
                body.get(4..8)
                    .and_then(|s| <[u8; 4]>::try_from(s).ok())
                    .map_or(0, u32::from_le_bytes)
            } else {
                0
            };
            GateStats::bump(&stats.error_frames);
            let resp = Response::Error { id, code, message: err.to_string() };
            return (encode_response(&resp), code.is_fatal());
        }
    };

    // Validate before calling the service: `TivServe` batch calls panic
    // on out-of-range nodes, and a wire peer must get an error frame,
    // not a dead replica.
    let nodes = service.snapshot().len();
    if let Some(&(a, c)) =
        pairs_of(&req).iter().find(|&&(a, c)| a as usize >= nodes || c as usize >= nodes)
    {
        GateStats::bump(&stats.error_frames);
        let resp = Response::Error {
            id: req.id(),
            code: ErrorCode::OutOfRange,
            message: format!("query ({a},{c}) outside the {nodes}-node snapshot"),
        };
        return (encode_response(&resp), false);
    }

    // One dispatch for every query kind: the request converts to the
    // service's unified QueryBatch, the service answers it, and the
    // reply converts back — kinds are defined once, in `proto` and
    // `tivserve::query`, not re-enumerated here.
    let resp = match req.to_query() {
        Some(query) => Response::from_reply(req.id(), service.query(&query)),
        None => Response::Pong { id: req.id(), epoch: service.epoch(), nodes: nodes as u32 },
    };
    GateStats::bump(&stats.requests_served);
    (encode_response(&resp), false)
}

fn pairs_of(req: &Request) -> &[(u32, u32)] {
    match req {
        Request::Estimate { pairs, .. }
        | Request::Route { pairs, .. }
        | Request::Severity { pairs, .. }
        | Request::Alerts { pairs, .. }
        | Request::SampledSeverity { pairs, .. } => pairs,
        Request::Ping { .. } => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, encode_request};
    use crate::testutil::small_service;
    use tivserve::query::QueryBatch;

    fn body(wire: &[u8]) -> &[u8] {
        &wire[4..]
    }

    #[test]
    fn handle_body_answers_and_counts() {
        let service = small_service(16);
        let stats = GateStats::default();
        let req = encode_request(&Request::Estimate { id: 3, pairs: vec![(0, 1), (4, 9)] });
        let (wire, fatal) = handle_body(&service, body(&req), &stats);
        assert!(!fatal);
        let Response::Estimate { id, items } = decode_response(body(&wire)).expect("decode") else {
            panic!("wrong kind");
        };
        assert_eq!(id, 3);
        let direct = service.query(&QueryBatch::Estimate(vec![(0, 1), (4, 9)]));
        assert_eq!(items, direct.into_estimates());
        assert_eq!(stats.requests_served.load(Ordering::Relaxed), 1);
        assert_eq!(stats.error_frames.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn handle_body_validates_node_range_instead_of_panicking() {
        let service = small_service(16);
        let stats = GateStats::default();
        let req = encode_request(&Request::Route { id: 8, pairs: vec![(0, 1), (99, 2)] });
        let (wire, fatal) = handle_body(&service, body(&req), &stats);
        assert!(!fatal, "out-of-range is a per-request error, not a connection failure");
        let Response::Error { id, code, message } = decode_response(body(&wire)).expect("decode")
        else {
            panic!("wrong kind");
        };
        assert_eq!(id, 8);
        assert_eq!(code, ErrorCode::OutOfRange);
        assert!(message.contains("(99,2)"), "names the offending pair: {message}");
        assert_eq!(stats.error_frames.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn handle_body_bad_version_is_fatal_with_id_zero() {
        let service = small_service(16);
        let stats = GateStats::default();
        let mut raw = encode_request(&Request::Ping { id: 5 })[4..].to_vec();
        raw[0] = 99;
        let (wire, fatal) = handle_body(&service, &raw, &stats);
        assert!(fatal);
        let Response::Error { id, code, .. } = decode_response(body(&wire)).expect("decode") else {
            panic!("wrong kind");
        };
        assert_eq!(id, 0, "a foreign version's header layout is not trusted");
        assert_eq!(code, ErrorCode::BadVersion);
    }

    #[test]
    fn handle_body_bad_payload_echoes_the_request_id() {
        let service = small_service(16);
        let stats = GateStats::default();
        let mut raw =
            encode_request(&Request::Estimate { id: 77, pairs: vec![(1, 2)] })[4..].to_vec();
        raw.truncate(raw.len() - 3); // tear the last pair
        let (wire, fatal) = handle_body(&service, &raw, &stats);
        assert!(!fatal);
        let Response::Error { id, code, .. } = decode_response(body(&wire)).expect("decode") else {
            panic!("wrong kind");
        };
        assert_eq!(id, 77);
        assert_eq!(code, ErrorCode::BadPayload);
    }
}
