//! # cypher-server
//!
//! A concurrent TCP front-end over the [`cypher`] engine: one OS thread
//! per connection, each owning its own [`Session`] onto one shared
//! [`Database`] — so the engine's whole concurrency story (lock-free
//! snapshot reads, group-committed writes, the shared plan cache)
//! carries over to remote clients unchanged.
//!
//! ## Protocol
//!
//! The wire format lives in [`cypher_wire`]: an 8-byte handshake, then
//! length-framed, CRC-checked request/response payloads. Per connection
//! the server offers:
//!
//! * `Query` — auto-commit execution, exactly [`Session::query`];
//! * `Prepare`/`Execute`/`Deallocate` — **prepared statements**: prepare
//!   parses (and so validates) the text once and returns a
//!   connection-scoped id; every execution binds a fresh parameter map
//!   and rides the server-wide plan cache (plans embed parameter
//!   *expressions*, so one cached plan serves every binding, across all
//!   connections);
//! * `BeginRead`/`CommitRead` — a pinned read transaction mapped 1:1
//!   onto [`Session::begin_read`]/[`Session::commit`]: repeatable reads
//!   at one frozen version, however many remote writers commit
//!   in between;
//! * `CreateView`/`DropView`/`ReadView` — **standing queries**: a view
//!   registered by any connection is delta-maintained on every commit
//!   and readable by every connection; `ReadView` inside a pinned read
//!   transaction answers the view as of the pinned version;
//! * `Subscribe` — turns the connection into a **push stream**: after
//!   `Subscribed`, the server sends one `ViewChange` frame (bag deltas
//!   `added`/`removed`) per committed version that changed the view's
//!   rows, in version order, and closes the stream when the view is
//!   dropped or the server stops;
//! * `Ping`/`Stats`/`Goodbye` — liveness, observability, clean close.
//!
//! ## Error discipline (the hardening contract)
//!
//! A client can never take the server down, and a *statement* failure
//! can never take its *connection* down:
//!
//! * every engine error maps to a structured [`ErrorCode`] + the
//!   engine's own message ([`classify_error`]) — including the
//!   poisoned-write-path and database-closed cases
//!   ([`cypher::Error::Unavailable`]) and the update-inside-a-pinned-
//!   read refusal;
//! * every request handler runs under `catch_unwind`: a panic answers
//!   `ErrorCode::Internal` and the connection lives on;
//! * hostile bytes are rejected by the total [`cypher_wire`] decoder; a
//!   malformed *message* in a valid frame answers
//!   `ErrorCode::Protocol` (framing is still trusted), while a broken
//!   *frame* (bad CRC, over-cap length, torn header) gets a best-effort
//!   error and a dropped connection (framing is not);
//! * a dropped connection — abrupt or graceful — runs the same cleanup:
//!   the session (and any pinned snapshot version) is released, the
//!   gauges fall, nothing leaks.

#![warn(missing_docs)]

use cypher::{Database, Error, Params, Session, SubscriptionPoll, ViewSubscription};
use cypher_wire::{
    read_exact_frame, server_handshake, write_frame, ErrorCode, Request, Response, ServerStats,
    WireError, DEFAULT_MAX_FRAME_BYTES,
};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Server-side resource knobs (the engine's own knobs live in
/// [`cypher::EngineConfig`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections served concurrently; one past the cap is answered
    /// with `ErrorCode::Limit` and closed. Default 64
    /// (`CYPHER_MAX_CONNS`).
    pub max_connections: usize,
    /// Frame payload cap, enforced before allocation on both receive
    /// and send. Default 8 MiB (`CYPHER_MAX_FRAME_BYTES`).
    pub max_frame_bytes: u32,
    /// Prepared statements held per connection; `Prepare` past the cap
    /// answers `ErrorCode::Limit`. Default 1024.
    pub max_prepared: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_prepared: 1024,
        }
    }
}

impl ServerConfig {
    /// Defaults overlaid with the `CYPHER_MAX_CONNS` and
    /// `CYPHER_MAX_FRAME_BYTES` environment variables (ignored when
    /// unparsable or zero — the server must not start wide open because
    /// of a typo).
    pub fn from_env() -> ServerConfig {
        let mut cfg = ServerConfig::default();
        if let Some(n) = parse_env("CYPHER_MAX_CONNS") {
            cfg.max_connections = n;
        }
        if let Some(n) = parse_env::<u32>("CYPHER_MAX_FRAME_BYTES") {
            cfg.max_frame_bytes = n;
        }
        cfg
    }
}

fn parse_env<T: std::str::FromStr + PartialOrd + Default>(key: &str) -> Option<T> {
    let v = std::env::var(key).ok()?.parse::<T>().ok()?;
    (v > T::default()).then_some(v)
}

/// Maps an engine error onto its wire error code. The message sent to
/// the client is always the engine's own rendering (`Error::to_string`).
pub fn classify_error(e: &Error) -> ErrorCode {
    match e {
        Error::Parse(_) => ErrorCode::Parse,
        Error::Eval(_) => ErrorCode::Eval,
        Error::Storage(_) => ErrorCode::Storage,
        Error::Unavailable(_) => ErrorCode::Unavailable,
    }
}

/// State shared by the accept loop, every connection thread, and the
/// [`Server`] handle.
struct ServerShared {
    db: Database,
    cfg: ServerConfig,
    stop: AtomicBool,
    connections: AtomicUsize,
    pinned: AtomicUsize,
    requests: AtomicU64,
    conn_seq: AtomicU64,
    /// Requests by type: `Query`, `Prepare`, `Execute`, everything else
    /// (control traffic: pings, stats, transaction brackets, goodbyes).
    requests_query: AtomicU64,
    requests_prepare: AtomicU64,
    requests_execute: AtomicU64,
    requests_control: AtomicU64,
    /// Frame payload bytes received from / sent to clients (framing
    /// overhead excluded).
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    /// Broken frames and malformed messages rejected by the total
    /// decoder.
    frame_errors: AtomicU64,
    /// Duplicate handles of every live connection's stream, so shutdown
    /// can force blocked reads to return.
    open_streams: Mutex<HashMap<u64, TcpStream>>,
}

impl ServerShared {
    fn stats(&self) -> ServerStats {
        let plan = self.db.plan_cache_stats();
        ServerStats {
            version: self.db.version(),
            connections: self.connections.load(Ordering::Relaxed) as u32,
            pinned: self.pinned.load(Ordering::Relaxed) as u32,
            requests: self.requests.load(Ordering::Relaxed),
            plan_hits: plan.hits,
            plan_misses: plan.misses,
            plan_invalidations: plan.invalidations,
            plan_evictions: plan.evictions,
        }
    }

    /// The full metrics page: the database's own exposition plus the
    /// server-level instruments appended, so one request observes every
    /// layer.
    fn metrics(&self) -> Response {
        use cypher::metrics::{fmt_counter, fmt_gauge};
        let snap = self.db.metrics_snapshot();
        let mut text = snap.text;
        fmt_gauge(
            &mut text,
            "cypher_server_connections",
            "connections currently served",
            self.connections.load(Ordering::Relaxed) as i64,
        );
        fmt_gauge(
            &mut text,
            "cypher_server_pinned_connections",
            "connections inside a pinned read transaction",
            self.pinned.load(Ordering::Relaxed) as i64,
        );
        fmt_counter(
            &mut text,
            "cypher_server_requests_total",
            "requests answered over the server's lifetime",
            self.requests.load(Ordering::Relaxed),
        );
        fmt_counter(
            &mut text,
            "cypher_server_requests_query_total",
            "Query requests",
            self.requests_query.load(Ordering::Relaxed),
        );
        fmt_counter(
            &mut text,
            "cypher_server_requests_prepare_total",
            "Prepare requests",
            self.requests_prepare.load(Ordering::Relaxed),
        );
        fmt_counter(
            &mut text,
            "cypher_server_requests_execute_total",
            "Execute requests",
            self.requests_execute.load(Ordering::Relaxed),
        );
        fmt_counter(
            &mut text,
            "cypher_server_requests_control_total",
            "control requests (ping/stats/metrics/transactions/goodbye)",
            self.requests_control.load(Ordering::Relaxed),
        );
        fmt_counter(
            &mut text,
            "cypher_server_bytes_in_total",
            "request payload bytes received",
            self.bytes_in.load(Ordering::Relaxed),
        );
        fmt_counter(
            &mut text,
            "cypher_server_bytes_out_total",
            "response payload bytes sent",
            self.bytes_out.load(Ordering::Relaxed),
        );
        fmt_counter(
            &mut text,
            "cypher_server_frame_errors_total",
            "broken frames and malformed messages rejected",
            self.frame_errors.load(Ordering::Relaxed),
        );
        Response::Metrics {
            uptime_ms: snap.uptime_ms,
            version: snap.version,
            wal_generation: snap.wal_generation,
            text,
        }
    }
}

/// A running TCP server; dropping the handle does **not** stop it — call
/// [`Server::shutdown`] (tests) or [`Server::run`] (the binary).
pub struct Server {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `listen` (e.g. `"127.0.0.1:0"` for an ephemeral test port)
    /// and starts accepting connections against `db`.
    pub fn bind(db: Database, listen: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            db,
            cfg,
            stop: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            pinned: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            requests_query: AtomicU64::new(0),
            requests_prepare: AtomicU64::new(0),
            requests_execute: AtomicU64::new(0),
            requests_control: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            frame_errors: AtomicU64::new(0),
            open_streams: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("cypher-accept".to_string())
            .spawn(move || accept_loop(accept_shared, listener))?;
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The database this server fronts (shared — in-process sessions and
    /// remote connections see the same versions and plan cache).
    pub fn db(&self) -> &Database {
        &self.shared.db
    }

    /// Connections currently served.
    pub fn active_connections(&self) -> usize {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Connections currently inside a pinned read transaction.
    pub fn pinned_connections(&self) -> usize {
        self.shared.pinned.load(Ordering::Relaxed)
    }

    /// Requests answered over the server's lifetime.
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// The same counters a remote `Stats` request returns.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Serves until the accept loop exits (it never does on its own —
    /// this is the binary's "run forever").
    pub fn run(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting, force-closes every live connection (their
    /// sessions — and pinned versions — are released by the connection
    /// threads' cleanup), and returns the database handle.
    pub fn shutdown(mut self) -> Database {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Force blocked per-connection reads to return.
        for (_, s) in self
            .shared
            .open_streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let _ = s.shutdown(Shutdown::Both);
        }
        // Wait for the connection threads' cleanup to run.
        while self.shared.connections.load(Ordering::Relaxed) > 0 {
            std::thread::yield_now();
        }
        // The accept loop and all connections are gone. A connection
        // thread lowers the count in its guard's drop, a moment before
        // its own `Arc` goes: wait out that window for the last one.
        let mut shared = Arc::clone(&self.shared);
        drop(self);
        loop {
            match Arc::try_unwrap(shared) {
                Ok(s) => return s.db,
                Err(s) => {
                    shared = s;
                    std::thread::yield_now();
                }
            }
        }
    }
}

fn accept_loop(shared: Arc<ServerShared>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Over-cap connections are refused politely — but never on the
        // accept thread, where a slow client could stall every accept.
        if shared.connections.load(Ordering::Relaxed) >= shared.cfg.max_connections {
            let _ = std::thread::Builder::new()
                .name("cypher-conn-refuse".to_string())
                .spawn(move || refuse_connection(stream));
            continue;
        }
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(dup) = stream.try_clone() {
            shared
                .open_streams
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(conn_id, dup);
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("cypher-conn-{conn_id}"))
            .spawn(move || serve_connection(conn_shared, stream, conn_id));
        if spawned.is_err() {
            // Could not spawn: roll the registration back.
            shared.connections.fetch_sub(1, Ordering::Relaxed);
            shared
                .open_streams
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&conn_id);
        }
    }
}

fn refuse_connection(mut stream: TcpStream) {
    if server_handshake(&mut stream).is_ok() {
        let resp = Response::Error {
            code: ErrorCode::Limit,
            message: "connection limit reached".to_string(),
        };
        let _ = write_frame(&mut stream, &resp.encode());
        let _ = stream.flush();
    }
}

/// Everything one connection owns: its session, its prepared-statement
/// registry, and whether it currently holds a read-transaction pin
/// (mirrored into the server-wide gauge).
struct ConnState {
    session: Session,
    statements: HashMap<u32, Arc<str>>,
    next_statement: u32,
    pinned: bool,
    /// Connection id and per-connection request sequence, combined into
    /// the trace id `(conn_id << 32) | req_seq` stamped on every
    /// statement this connection runs — the same id the slow-query log
    /// and the WAL seal witness report, so one grep correlates a wire
    /// request with its durability record.
    conn_id: u64,
    req_seq: u64,
}

/// Gauge/registry cleanup that must run however the connection ends —
/// clean `Goodbye`, peer reset, handshake garbage, or a bug in the serve
/// loop itself.
struct ConnGuard<'a> {
    shared: &'a ServerShared,
    conn_id: u64,
    state: Option<ConnState>,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        // Dropping the state drops the Session, which releases any
        // pinned snapshot version.
        if let Some(state) = self.state.take() {
            if state.pinned {
                self.shared.pinned.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.shared
            .open_streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.conn_id);
        self.shared.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

fn serve_connection(shared: Arc<ServerShared>, mut stream: TcpStream, conn_id: u64) {
    let mut guard = ConnGuard {
        shared: &shared,
        conn_id,
        state: None,
    };
    let _ = stream.set_nodelay(true);
    if server_handshake(&mut stream).is_err() {
        return; // wrong protocol: drop without answering
    }
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    guard.state = Some(ConnState {
        session: shared.db.session(),
        statements: HashMap::new(),
        next_statement: 1,
        pinned: false,
        conn_id,
        req_seq: 0,
    });
    let state = guard.state.as_mut().expect("state was just installed");
    loop {
        let payload = match read_exact_frame(&mut reader, shared.cfg.max_frame_bytes) {
            Ok(p) => p,
            Err(WireError::Io(_)) => return, // peer gone (abrupt or EOF)
            Err(e) => {
                // Framing can no longer be trusted: answer once (best
                // effort) and drop the connection.
                shared.frame_errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    code: ErrorCode::Protocol,
                    message: e.to_string(),
                };
                let _ = write_frame(&mut writer, &resp.encode());
                let _ = writer.flush();
                return;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        shared
            .bytes_in
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        state.req_seq += 1;
        let (resp, goodbye) = match Request::decode(&payload) {
            Err(e) => {
                // The frame was intact (length + CRC), only the message
                // inside was malformed: answer and keep serving.
                shared.frame_errors.fetch_add(1, Ordering::Relaxed);
                (
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    },
                    false,
                )
            }
            Ok(Request::Subscribe { name }) => {
                // Mode switch: this connection stops answering requests
                // and becomes a push stream of the view's change frames.
                shared.requests_control.fetch_add(1, Ordering::Relaxed);
                match shared.db.subscribe(&name) {
                    Err(e) => (
                        Response::Error {
                            code: classify_error(&e),
                            message: e.to_string(),
                        },
                        false,
                    ),
                    Ok(sub) => {
                        let encoded = Response::Subscribed.encode();
                        shared
                            .bytes_out
                            .fetch_add(encoded.len() as u64, Ordering::Relaxed);
                        if write_frame(&mut writer, &encoded).is_err() || writer.flush().is_err() {
                            return;
                        }
                        stream_view_changes(&shared, &mut writer, sub);
                        return;
                    }
                }
            }
            Ok(req) => {
                let goodbye = matches!(req, Request::Goodbye);
                match &req {
                    Request::Query { .. } => &shared.requests_query,
                    Request::Prepare { .. } => &shared.requests_prepare,
                    Request::Execute { .. } => &shared.requests_execute,
                    _ => &shared.requests_control,
                }
                .fetch_add(1, Ordering::Relaxed);
                let resp = catch_unwind(AssertUnwindSafe(|| handle_request(&shared, state, req)))
                    .unwrap_or_else(|panic| Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("request handler panicked: {}", panic_message(&panic)),
                    });
                (resp, goodbye)
            }
        };
        let encoded = resp.encode();
        shared
            .bytes_out
            .fetch_add(encoded.len() as u64, Ordering::Relaxed);
        if write_frame(&mut writer, &encoded).is_err() || writer.flush().is_err() {
            return;
        }
        if goodbye {
            return;
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn handle_request(shared: &ServerShared, state: &mut ConnState, req: Request) -> Response {
    match req {
        Request::Query { text, params } => run_statement(shared, state, &text, &params),
        Request::Prepare { text } => {
            if state.statements.len() >= shared.cfg.max_prepared {
                return Response::Error {
                    code: ErrorCode::Limit,
                    message: format!(
                        "connection holds {} prepared statements (the cap)",
                        state.statements.len()
                    ),
                };
            }
            // Parse now: a statement that cannot parse fails at PREPARE
            // time, and honest EXECUTEs never pay a parse-error path.
            // (Planning stays lazy — it depends on the statistics of the
            // snapshot each execution runs against.)
            if let Err(e) = cypher::parse_query(&text) {
                let e = Error::from(e);
                return Response::Error {
                    code: classify_error(&e),
                    message: e.to_string(),
                };
            }
            let id = state.next_statement;
            state.next_statement += 1;
            state.statements.insert(id, Arc::from(text.as_str()));
            Response::Prepared { id }
        }
        Request::Execute { id, params } => match state.statements.get(&id) {
            Some(text) => {
                let text = Arc::clone(text);
                run_statement(shared, state, &text, &params)
            }
            None => Response::Error {
                code: ErrorCode::UnknownStatement,
                message: format!("no prepared statement with id {id} on this connection"),
            },
        },
        Request::Deallocate { id } => match state.statements.remove(&id) {
            Some(_) => Response::Deallocated,
            None => Response::Error {
                code: ErrorCode::UnknownStatement,
                message: format!("no prepared statement with id {id} on this connection"),
            },
        },
        Request::BeginRead => {
            let version = state.session.begin_read();
            if !state.pinned {
                state.pinned = true;
                shared.pinned.fetch_add(1, Ordering::Relaxed);
            }
            Response::BeganRead { version }
        }
        Request::CommitRead => {
            state.session.commit();
            if state.pinned {
                state.pinned = false;
                shared.pinned.fetch_sub(1, Ordering::Relaxed);
            }
            Response::ReadCommitted
        }
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(shared.stats()),
        Request::Metrics => shared.metrics(),
        Request::Goodbye => Response::Bye,
        Request::CreateView { name, query } => match shared.db.create_view(&name, &query) {
            Ok(version) => Response::ViewCreated { version },
            Err(e) => Response::Error {
                code: classify_error(&e),
                message: e.to_string(),
            },
        },
        Request::DropView { name } => match shared.db.drop_view(&name) {
            Ok(()) => Response::ViewDropped,
            Err(e) => Response::Error {
                code: classify_error(&e),
                message: e.to_string(),
            },
        },
        Request::ReadView { name } => match state.session.view_versioned(&name) {
            Ok((version, table)) => Response::ViewRows { version, table },
            Err(e) => Response::Error {
                code: classify_error(&e),
                message: e.to_string(),
            },
        },
        // Subscribe switches the connection into push mode, which owns
        // the writer — the serve loop intercepts it before dispatching
        // here. Reaching this arm means the loop's intercept is broken.
        Request::Subscribe { .. } => Response::Error {
            code: ErrorCode::Protocol,
            message: "Subscribe must be handled by the connection loop".to_string(),
        },
    }
}

/// The push half of a `Subscribe`d connection: forwards every change
/// frame until the view is dropped, the server stops, or the peer goes
/// away (detected at the next write). The 100 ms poll bounds how long a
/// stopping server waits on an idle stream.
fn stream_view_changes(
    shared: &ServerShared,
    writer: &mut BufWriter<TcpStream>,
    sub: ViewSubscription,
) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match sub.poll(std::time::Duration::from_millis(100)) {
            SubscriptionPoll::Idle => {}
            SubscriptionPoll::Closed => return,
            SubscriptionPoll::Frame(c) => {
                let resp = Response::ViewChange {
                    name: c.name,
                    version: c.version,
                    added: c.added,
                    removed: c.removed,
                };
                let encoded = resp.encode();
                shared
                    .bytes_out
                    .fetch_add(encoded.len() as u64, Ordering::Relaxed);
                if write_frame(writer, &encoded).is_err() || writer.flush().is_err() {
                    return;
                }
            }
        }
    }
}

fn run_statement(
    shared: &ServerShared,
    state: &mut ConnState,
    text: &str,
    params: &Params,
) -> Response {
    let _ = shared;
    // Test hook for the catch_unwind path, inert without the
    // fault-injection env guard (mirrors Database::inject_fsync_failures).
    if text == "__CYPHER_TEST_PANIC__" && std::env::var_os("CYPHER_TEST_FAULTS").is_some() {
        panic!("injected test panic");
    }
    let trace = (state.conn_id << 32) | (state.req_seq & 0xffff_ffff);
    match state.session.query_traced(text, params, trace) {
        Ok(table) => Response::Rows {
            committed: state.session.last_commit_version(),
            table,
        },
        Err(e) => Response::Error {
            code: classify_error(&e),
            message: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_every_error_shape() {
        let parse = Error::from(cypher::parse_query("MATCH (").unwrap_err());
        assert_eq!(classify_error(&parse), ErrorCode::Parse);
        let unavailable = Error::Unavailable("closed".to_string());
        assert_eq!(classify_error(&unavailable), ErrorCode::Unavailable);
    }

    #[test]
    fn server_config_env_ignores_garbage() {
        std::env::set_var("CYPHER_MAX_CONNS", "not-a-number");
        assert_eq!(ServerConfig::from_env().max_connections, 64);
        std::env::set_var("CYPHER_MAX_CONNS", "0");
        assert_eq!(ServerConfig::from_env().max_connections, 64);
        std::env::set_var("CYPHER_MAX_CONNS", "7");
        assert_eq!(ServerConfig::from_env().max_connections, 7);
        std::env::remove_var("CYPHER_MAX_CONNS");
    }
}
