//! `bonsaid` — the resident verification service.
//!
//! The paper's workflow is batch: compress, verify, exit. But the
//! artifacts that make verification fast — the compiled policy engine,
//! the per-class abstractions, the sweep's refinement cache with its
//! canonical solutions — are exactly the things worth keeping resident.
//! This crate wraps a [`Session`] in a server speaking a line-delimited
//! JSON protocol over a Unix socket and/or a TCP listener, so operators
//! ask reachability questions at interactive latency while the
//! control-plane model stays warm.
//!
//! The wire protocol is a written contract: see `docs/PROTOCOL.md` at the
//! repository root for the full reference (every op, key order, the
//! byte-determinism guarantee, limits, and the versioning policy). The
//! tables below are the summary.
//!
//! # Protocol
//!
//! One JSON object per line in each direction. Requests carry an `"op"`;
//! responses always lead with `"ok"` and echo the `"op"`. Key order in
//! responses is **fixed** — two identical requests yield byte-identical
//! response lines, which the integration tests and the CI smoke test
//! assert with a plain `diff`.
//!
//! | op | request fields | response fields |
//! |----|----------------|-----------------|
//! | `ping` | — | `classes`, `k` |
//! | `stats` | — | counters + `sweep` object ([`Session::stats`]) |
//! | `metrics` | — | `content_type`, `body`: Prometheus text exposition |
//! | `reach` | `src`, `dst`, `links?` | `answers`: `{prefix, delivered}` |
//! | `sweep` | `src`, `dst` | `answers`: `{prefix, delivered, scenarios}` |
//! | `all_pairs` | `links?` | `delivered`, `unreachable` |
//! | `path` | `src`, `dst`, `links?`, `waypoints?` | `answers`: `{prefix, lengths, waypointed}` |
//! | `batch` | `queries`: array of the query ops | `answers`: one response object each |
//! | `snapshot` | `path` | `path`, `bytes` |
//! | `reload` | `config` or `path` | delta/reuse counters ([`render_reload`]) |
//! | `shutdown` | — | — (server drains and stops) |
//!
//! `links` is an array of `[endpoint, endpoint]` name pairs (either
//! orientation); `waypoints` is an array of device names. Failures are
//! reported as `{"ok": false, "code": ..., "error": ...}` without closing
//! the connection:
//!
//! | code | meaning |
//! |------|---------|
//! | `bad_request` | unparsable line or missing/mistyped field |
//! | `unknown_op` | the `"op"` is not in [`PROTOCOL_OPS`] |
//! | `too_large` | request line or batch over the configured limit |
//! | `overloaded` | the in-flight query gate is full — retry later |
//! | `connection_limit` | per-connection request budget spent (connection closes) |
//! | `query` | the session rejected the query (unknown device, solve failure) |
//! | `io` | a filesystem side effect (snapshot write) failed |
//! | `forbidden` | a path-taking op (`snapshot`, `reload` by `path`) on a TCP connection |
//! | `internal` | the handler of this request panicked; the daemon serves on |
//!
//! # Hardening
//!
//! The server is built for untrusted clients: request lines are read
//! through a bounded reader (oversized lines are discarded and answered
//! with `too_large`, the connection survives), query work is admitted
//! through a [`Gate`] bounding global in-flight queries (excess load is
//! shed immediately with `overloaded` instead of queueing behind the
//! solver), idle connections are reaped by a read timeout, a handler
//! that panics answers `internal` on a connection that stays open (the
//! daemon's own locks recover from the poison), the ops that name a file
//! are answered on the Unix socket only, and
//! `shutdown` drains gracefully: in-flight requests complete and write
//! their responses, read sides close, accept loops refuse new work, and
//! the socket file is removed. All knobs live in [`ServerOptions`].
//!
//! # Example
//!
//! ```
//! use bonsai_daemon::{Client, Server};
//! use bonsai_verify::session::{Session, SessionOptions};
//!
//! let session = Session::builder(bonsai_srp::papernets::figure2_gadget())
//!     .options(SessionOptions {
//!         max_failures: 1,
//!         threads: 1,
//!         ..Default::default()
//!     })
//!     .build()
//!     .expect("gadget session builds");
//! let path = std::env::temp_dir().join(format!("bonsaid-doc-{}.sock", std::process::id()));
//! let server = Server::bind(session, &path).expect("socket binds");
//! let join = server.spawn();
//!
//! let mut client = Client::connect(&path).expect("connects");
//! let pong = client.call(r#"{"op": "ping"}"#).expect("answers");
//! assert!(pong.starts_with(r#"{"ok": true"#));
//! client.call(r#"{"op": "shutdown"}"#).expect("drains");
//! join.join().unwrap().expect("clean exit");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bonsai_core::snapshot::{write_object, Json, Layout, Object, MAX_CONFIG_FILE_BYTES};
use bonsai_verify::session::{
    QueryAnswer, QueryRequest, ReloadOutcome, Session, SessionError, SessionStats,
};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, LockResult, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Every op the daemon accepts. `docs/PROTOCOL.md` must document each;
/// `tests/protocol_docs.rs` fails if one is missing there.
pub const PROTOCOL_OPS: &[&str] = &[
    "ping",
    "stats",
    "metrics",
    "reach",
    "sweep",
    "all_pairs",
    "path",
    "batch",
    "snapshot",
    "reload",
    "shutdown",
];

/// Every `code` an error response can carry — same documentation
/// contract as [`PROTOCOL_OPS`].
pub const ERROR_CODES: &[&str] = &[
    "bad_request",
    "unknown_op",
    "too_large",
    "overloaded",
    "connection_limit",
    "query",
    "io",
    "forbidden",
    "internal",
];

/// Serving limits and timeouts of a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Longest accepted request line in bytes; longer lines are
    /// discarded and answered with `too_large` (default 1 MiB).
    pub max_request_bytes: usize,
    /// Most entries in one `batch` request (default 4096).
    pub max_batch: usize,
    /// Global bound on concurrently-executing query ops; excess
    /// requests are shed with `overloaded` (default 64).
    pub max_inflight: usize,
    /// Requests served per connection before it is closed with
    /// `connection_limit`; 0 = unlimited (default 0).
    pub max_requests_per_conn: usize,
    /// Reap a connection that sends nothing for this long
    /// (default 300 s; `None` = never).
    pub idle_timeout: Option<Duration>,
    /// Give up writing a response to a stuck client after this long
    /// (default 30 s; `None` = never).
    pub write_timeout: Option<Duration>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_request_bytes: 1 << 20,
            max_batch: 4096,
            max_inflight: 64,
            max_requests_per_conn: 0,
            idle_timeout: Some(Duration::from_secs(300)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// The in-flight query gate: a non-blocking permit counter. Query ops
/// must hold a permit while executing; when none is free the request is
/// answered `overloaded` immediately — the daemon never queues work
/// behind the solver.
pub struct Gate {
    permits: AtomicUsize,
}

impl Gate {
    /// A gate with `n` permits.
    pub fn new(n: usize) -> Gate {
        Gate {
            permits: AtomicUsize::new(n),
        }
    }

    /// Takes a permit if one is free; never blocks. The permit returns
    /// on drop.
    pub fn try_acquire(&self) -> Option<GatePermit<'_>> {
        let mut cur = self.permits.load(Ordering::Acquire);
        loop {
            if cur == 0 {
                return None;
            }
            match self.permits.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(GatePermit { gate: self }),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Permits currently free.
    pub fn available(&self) -> usize {
        self.permits.load(Ordering::Acquire)
    }
}

/// An RAII permit from a [`Gate`].
pub struct GatePermit<'a> {
    gate: &'a Gate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        self.gate.permits.fetch_add(1, Ordering::AcqRel);
    }
}

/// Takes a lock of the daemon whether or not a holder panicked. Every
/// update under these locks is one push, one slot assignment or one `Arc`
/// swap, so the data is valid at every step and a poisoned registry is
/// still a valid registry — one panicking handler must not take the
/// accept loops, the drain and every other connection down with it.
fn held<G>(lock: LockResult<G>) -> G {
    lock.unwrap_or_else(PoisonError::into_inner)
}

/// The swappable resident session behind a server: every request clones
/// the current [`Arc`] cheaply and answers against it, while a `reload`
/// builds the successor session **off-lock** (queries keep flowing
/// against the old one) and swaps it in atomically. In-flight queries
/// finish on the session they started with; the next request sees the
/// new one.
pub struct SessionSlot {
    slot: RwLock<Arc<Session>>,
    /// Serializes reloads: two concurrent `reload` ops would otherwise
    /// both derive from the same predecessor and silently drop one
    /// edit's work.
    reload_lock: Mutex<()>,
}

impl SessionSlot {
    /// Wraps a freshly built session.
    pub fn new(session: Session) -> SessionSlot {
        SessionSlot {
            slot: RwLock::new(Arc::new(session)),
            reload_lock: Mutex::new(()),
        }
    }

    /// The session serving right now.
    pub fn current(&self) -> Arc<Session> {
        held(self.slot.read()).clone()
    }

    /// Warm-reloads onto `network` through [`Session::reload`] and swaps
    /// the result in, serialized against concurrent reloads.
    pub fn reload(
        &self,
        network: bonsai_config::NetworkConfig,
    ) -> Result<ReloadOutcome, SessionError> {
        let _guard = held(self.reload_lock.lock());
        let current = self.current();
        let (next, outcome) = current.reload(network)?;
        *held(self.slot.write()) = Arc::new(next);
        Ok(outcome)
    }
}

/// Parses one request line's query portion into a [`QueryRequest`].
///
/// Shared by the single-query ops and the entries of a `batch`.
pub fn parse_query(doc: &Json) -> Result<QueryRequest, String> {
    let op = doc.str("op").or(Err("request has no \"op\""))?;
    let needs = |name: &str| format!("op \"{op}\" needs a string \"{name}\" field");
    match op {
        "reach" => Ok(QueryRequest::Reach {
            src: doc.str("src").map_err(|_| needs("src"))?.to_string(),
            dst: doc.str("dst").map_err(|_| needs("dst"))?.to_string(),
            links: doc.opt_pairs("links")?.unwrap_or_default(),
        }),
        "sweep" => Ok(QueryRequest::Sweep {
            src: doc.str("src").map_err(|_| needs("src"))?.to_string(),
            dst: doc.str("dst").map_err(|_| needs("dst"))?.to_string(),
        }),
        "all_pairs" => Ok(QueryRequest::AllPairs {
            links: doc.opt_pairs("links")?.unwrap_or_default(),
        }),
        "path" => Ok(QueryRequest::Path {
            src: doc.str("src").map_err(|_| needs("src"))?.to_string(),
            dst: doc.str("dst").map_err(|_| needs("dst"))?.to_string(),
            links: doc.opt_pairs("links")?.unwrap_or_default(),
            waypoints: doc
                .opt_strs("waypoints")
                .or(Err("\"waypoints\" must be an array of device names"))?
                .unwrap_or_default(),
        }),
        other => Err(format!("unknown query op \"{other}\"")),
    }
}

/// One protocol line: a single-line object, members in the order written.
fn line(members: impl FnOnce(&mut Object<'_>)) -> String {
    let mut line = String::new();
    write_object(&mut line, Layout::Spaced, members);
    line
}

/// One request line: `{"op": <op>, …}`.
fn request(op: &str, fields: impl FnOnce(&mut Object<'_>)) -> String {
    line(|o| fields(o.str("op", op)))
}

/// Renders a query as the request line [`parse_query`] reads back — what
/// `bonsai query` sends for its convenience flags.
pub fn render_query(query: &QueryRequest) -> String {
    match query {
        QueryRequest::Reach { src, dst, links } => request("reach", |o| {
            o.str("src", src).str("dst", dst).pairs("links", links);
        }),
        QueryRequest::Sweep { src, dst } => request("sweep", |o| {
            o.str("src", src).str("dst", dst);
        }),
        QueryRequest::AllPairs { links } => request("all_pairs", |o| {
            o.pairs("links", links);
        }),
        QueryRequest::Path {
            src,
            dst,
            links,
            waypoints,
        } => request("path", |o| {
            o.str("src", src).str("dst", dst).pairs("links", links);
            o.strs("waypoints", waypoints);
        }),
    }
}

/// Renders a control op's request line: `ping`, `stats`, `metrics` and
/// `shutdown` bare, `reload` with the `path` of the config to load.
pub fn render_control(op: &str, path: Option<&str>) -> String {
    request(op, |o| {
        if let Some(path) = path {
            o.str("path", path);
        }
    })
}

/// One success reply: `{"ok": true, "op": <op>, …}`.
fn reply(op: &str, fields: impl FnOnce(&mut Object<'_>)) -> String {
    line(|o| fields(o.bool("ok", true).str("op", op)))
}

/// Renders a query result as one response object with fixed key order.
pub fn render_result(result: &Result<QueryAnswer, SessionError>) -> String {
    match result {
        Err(e) => render_error("query", &e.to_string()),
        Ok(QueryAnswer::Reach(answers)) => reply("reach", |o| {
            o.rows("answers", Layout::Spaced, answers, |o, a| {
                o.str("prefix", &a.prefix).bool("delivered", a.delivered);
            });
        }),
        Ok(QueryAnswer::Sweep(answers)) => reply("sweep", |o| {
            o.rows("answers", Layout::Spaced, answers, |o, a| {
                o.str("prefix", &a.prefix)
                    .uint("delivered", a.delivered)
                    .uint("scenarios", a.scenarios);
            });
        }),
        Ok(QueryAnswer::AllPairs(a)) => reply("all_pairs", |o| {
            o.uint("delivered", a.delivered)
                .uint("unreachable", a.unreachable);
        }),
        Ok(QueryAnswer::Path(answers)) => reply("path", |o| {
            o.rows("answers", Layout::Spaced, answers, |o, a| {
                a.write_members(o)
            });
        }),
    }
}

/// Renders [`Session::stats`] as the `stats` response object. Key order
/// is the wire contract: the memo-size gauges are *trailing* fields per
/// the protocol's additive-evolution policy.
pub fn render_stats(s: &SessionStats) -> String {
    reply("stats", |o| {
        o.uint("classes", s.classes)
            .uint("k", s.k)
            .uint("scenarios", s.scenarios)
            .uint("queries", s.queries)
            .uint("verdict_cache_hits", s.verdict_cache_hits)
            .uint("abstract_solves", s.abstract_solves)
            .uint("concrete_solves", s.concrete_solves)
            .uint("solver_updates", s.solver_updates)
            .uint("cached_answers", s.cached_answers)
            .object("sweep", Layout::Spaced, |o| {
                o.uint("scenarios_swept", s.sweep.scenarios_swept)
                    .uint("derivations", s.sweep.derivations)
                    .uint("exact_transfers", s.sweep.exact_transfers)
                    .uint("symmetric_transfers", s.sweep.symmetric_transfers)
                    .uint("refinements", s.sweep.refinements)
                    .uint("restored", s.sweep.restored)
                    .uint("restored_answers", s.sweep.restored_answers);
            })
            .uint("verdict_memo", s.verdict_memo)
            .uint("path_memo", s.path_memo);
    })
}

/// Renders the `metrics` response: the whole process-wide registry as
/// Prometheus text exposition, carried as one escaped `body` string
/// (the line protocol cannot carry raw newlines).
pub fn render_metrics() -> String {
    reply("metrics", |o| {
        o.str("content_type", bonsai_obs::PROMETHEUS_CONTENT_TYPE)
            .str("body", &bonsai_obs::render_prometheus());
    })
}

/// Renders a [`ReloadOutcome`] as the `reload` response object with
/// fixed key order.
pub fn render_reload(r: &ReloadOutcome, elapsed: Duration) -> String {
    reply("reload", |o| {
        o.bool("full_rebuild", r.full_rebuild)
            .opt("structural", r.structural.as_deref(), Object::str)
            .strs("changed_devices", &r.changed_devices)
            .uint("classes", r.classes)
            .uint("rederived", r.rederived)
            .uint("reused", r.reused)
            .uint("fingerprints_moved", r.fingerprints_moved)
            .uint("refinements_replayed", r.refinements_replayed)
            .uint("verdicts_kept", r.verdicts_kept)
            .uint("verdicts_dropped", r.verdicts_dropped)
            .uint("paths_kept", r.paths_kept)
            .uint("paths_dropped", r.paths_dropped)
            .uint("stages_evicted", r.invalidation.stages_evicted)
            .uint("sigs_evicted", r.invalidation.sigs_evicted)
            .uint("tables_evicted", r.invalidation.tables_evicted)
            .uint("reload_us", elapsed.as_micros() as u64);
    })
}

/// Renders a structured error response (the connection stays open unless
/// the code says otherwise). `code` must be one of [`ERROR_CODES`].
pub fn render_error(code: &str, message: &str) -> String {
    debug_assert!(ERROR_CODES.contains(&code), "undeclared error code {code}");
    bonsai_obs::add("daemon.errors.total", 1);
    line(|o| {
        o.bool("ok", false).str("code", code).str("error", message);
    })
}

/// Which listener a request arrived on. The Unix socket's authority is
/// its file's permissions; a TCP peer is anyone who can reach the port, so
/// the ops that name a file on the daemon's host are not served to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// The Unix socket.
    Unix,
    /// The TCP listener.
    Tcp,
}

/// Answers one request line. Returns the response line and whether the
/// server should drain and stop after sending it.
///
/// Query-bearing ops (`reach`/`sweep`/`all_pairs`/`path`/`batch`) must
/// take a permit from `gate` for the duration of the work; when the gate
/// is full the request is answered `overloaded` without blocking.
/// Control ops (`ping`/`stats`/`metrics`/`snapshot`/`reload`/`shutdown`)
/// bypass the gate — they stay answerable under full query load. The two
/// that take a file path (`snapshot`, `reload` by `path`) are answered
/// `forbidden` unless `transport` is the Unix socket.
pub fn answer_line(
    sessions: &SessionSlot,
    line: &str,
    options: &ServerOptions,
    gate: &Gate,
    transport: Transport,
) -> (String, bool) {
    bonsai_obs::add("daemon.requests.total", 1);
    let session = sessions.current();
    if line.len() > options.max_request_bytes {
        return (
            render_error(
                "too_large",
                &format!("request exceeds {} bytes", options.max_request_bytes),
            ),
            false,
        );
    }
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => {
            return (
                render_error("bad_request", &format!("bad request: {e}")),
                false,
            )
        }
    };
    let op = doc.str("op").unwrap_or("");
    let names_a_file = op == "snapshot" || (op == "reload" && doc.get("path").is_some());
    if names_a_file && transport != Transport::Unix {
        let message = format!("op \"{op}\" with a \"path\" is served on the Unix socket only");
        return (render_error("forbidden", &message), false);
    }
    match op {
        "ping" => (
            reply("ping", |o| {
                o.uint("classes", session.classes())
                    .uint("k", session.max_failures());
            }),
            false,
        ),
        "stats" => (render_stats(&session.stats()), false),
        "metrics" => {
            // Refresh the mirrored session.* counters and the in-flight
            // gauge so the scrape reflects this instant, then render.
            session.stats();
            let cap = options.max_inflight.max(1);
            bonsai_obs::set(
                "daemon.inflight",
                cap.saturating_sub(gate.available()) as u64,
            );
            (render_metrics(), false)
        }
        "reach" | "sweep" | "all_pairs" | "path" => {
            let Some(_permit) = gate.try_acquire() else {
                return (overloaded_response(options), false);
            };
            let start = std::time::Instant::now();
            let out = match parse_query(&doc) {
                Ok(req) => (render_result(&session.query(&req)), false),
                Err(e) => (render_error("bad_request", &e), false),
            };
            bonsai_obs::observe(
                "daemon.query.latency_us",
                start.elapsed().as_micros() as u64,
            );
            out
        }
        "batch" => {
            let Ok(entries) = doc.arr("queries") else {
                return (
                    render_error("bad_request", "op \"batch\" needs a \"queries\" array"),
                    false,
                );
            };
            if entries.len() > options.max_batch {
                return (
                    render_error(
                        "too_large",
                        &format!(
                            "batch of {} exceeds the {}-query limit",
                            entries.len(),
                            options.max_batch
                        ),
                    ),
                    false,
                );
            }
            let Some(_permit) = gate.try_acquire() else {
                return (overloaded_response(options), false);
            };
            let start = std::time::Instant::now();
            let mut requests = Vec::with_capacity(entries.len());
            for entry in entries {
                match parse_query(entry) {
                    Ok(req) => requests.push(req),
                    Err(e) => return (render_error("bad_request", &e), false),
                }
            }
            let results = session.batch(&requests);
            let response = reply("batch", |o| {
                let answers = results.iter().map(render_result);
                o.rendered("answers", Layout::Spaced, answers);
            });
            bonsai_obs::observe(
                "daemon.query.latency_us",
                start.elapsed().as_micros() as u64,
            );
            (response, false)
        }
        "snapshot" => {
            let Ok(path) = doc.str("path") else {
                return (
                    render_error("bad_request", "op \"snapshot\" needs a \"path\""),
                    false,
                );
            };
            match session.save_snapshot(Path::new(path)) {
                Ok(bytes) => (
                    reply("snapshot", |o| {
                        o.str("path", path).uint("bytes", bytes);
                    }),
                    false,
                ),
                Err(e) => (render_error("io", &format!("writing {path}: {e}")), false),
            }
        }
        "reload" => {
            let text = match (doc.str("config").ok(), doc.str("path").ok()) {
                (Some(text), None) => text.to_string(),
                (None, Some(p)) => match read_config_file(Path::new(p)) {
                    Ok(t) => t,
                    Err(e) => return (render_error("io", &format!("reading {p}: {e}")), false),
                },
                _ => {
                    return (
                        render_error(
                            "bad_request",
                            "op \"reload\" needs exactly one of \"config\" or \"path\"",
                        ),
                        false,
                    )
                }
            };
            let network = match bonsai_config::parse_network(&text) {
                Ok(n) => n,
                Err(e) => {
                    return (
                        render_error("bad_request", &format!("config does not parse: {e}")),
                        false,
                    )
                }
            };
            // A well-formed push of nothing is a truncated or mis-pointed
            // rollout, not an intent to serve the empty network.
            if network.devices.is_empty() {
                return (render_error("bad_request", "config has no devices"), false);
            }
            let start = std::time::Instant::now();
            match sessions.reload(network) {
                Ok(outcome) => {
                    bonsai_obs::add("daemon.reloads.total", 1);
                    (render_reload(&outcome, start.elapsed()), false)
                }
                Err(e) => (render_error("query", &format!("reload failed: {e}")), false),
            }
        }
        "shutdown" => (reply("shutdown", |_| {}), true),
        "" => (render_error("bad_request", "request has no \"op\""), false),
        other => (
            render_error("unknown_op", &format!("unknown op \"{other}\"")),
            false,
        ),
    }
}

/// Reads the configuration a `reload` names by path: a regular file of at
/// most [`MAX_CONFIG_FILE_BYTES`]. The path comes off the wire, so a
/// device, a directory or a FIFO — which would grow the daemon without
/// bound or park the handler in `open` — is refused before it is opened,
/// and the read is capped in case the file grows under it.
fn read_config_file(path: &Path) -> std::io::Result<String> {
    let refuse = |why: String| std::io::Error::new(ErrorKind::InvalidInput, why);
    let too_large = || refuse(format!("larger than {MAX_CONFIG_FILE_BYTES} bytes"));
    let meta = std::fs::metadata(path)?;
    if !meta.is_file() {
        return Err(refuse("not a regular file".into()));
    }
    if meta.len() > MAX_CONFIG_FILE_BYTES {
        return Err(too_large());
    }
    let mut text = String::new();
    std::fs::File::open(path)?
        .take(MAX_CONFIG_FILE_BYTES + 1)
        .read_to_string(&mut text)?;
    if text.len() as u64 > MAX_CONFIG_FILE_BYTES {
        return Err(too_large());
    }
    Ok(text)
}

fn overloaded_response(options: &ServerOptions) -> String {
    bonsai_obs::add("daemon.query.shed", 1);
    render_error(
        "overloaded",
        &format!(
            "all {} in-flight query slots are busy, retry",
            options.max_inflight
        ),
    )
}

/// A connection the generic accept/serve loop can run over — implemented
/// for [`UnixStream`] and [`TcpStream`].
pub trait Conn: Read + Write + Send + Sync + Sized + 'static {
    /// An independent handle onto the same connection.
    fn try_clone_conn(&self) -> std::io::Result<Self>;
    /// Applies read (idle) and write timeouts.
    fn set_conn_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()>;
    /// Closes the read side: a blocked reader observes EOF, pending
    /// writes still flush — the drain primitive.
    fn shutdown_read(&self) -> std::io::Result<()>;
    /// The listener this kind of connection is accepted on.
    const TRANSPORT: Transport;
}

impl Conn for UnixStream {
    const TRANSPORT: Transport = Transport::Unix;
    fn try_clone_conn(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_conn_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.set_read_timeout(read)?;
        self.set_write_timeout(write)
    }
    fn shutdown_read(&self) -> std::io::Result<()> {
        self.shutdown(std::net::Shutdown::Read)
    }
}

impl Conn for TcpStream {
    const TRANSPORT: Transport = Transport::Tcp;
    fn try_clone_conn(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_conn_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.set_read_timeout(read)?;
        self.set_write_timeout(write)
    }
    fn shutdown_read(&self) -> std::io::Result<()> {
        self.shutdown(std::net::Shutdown::Read)
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line is in the buffer (without the newline).
    Line,
    /// The line exceeded the limit; it was consumed and discarded.
    TooLong,
    /// The peer closed cleanly.
    Eof,
}

/// Reads one `\n`-terminated line of at most `max` bytes into `out`.
/// Oversized lines are consumed to their newline and reported as
/// [`LineRead::TooLong`] so one hostile line cannot wedge or kill the
/// connection.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    max: usize,
    out: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    out.clear();
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if out.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            if out.len() + pos > max {
                reader.consume(pos + 1);
                return Ok(LineRead::TooLong);
            }
            out.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            return Ok(LineRead::Line);
        }
        let n = available.len();
        if out.len() + n > max {
            reader.consume(n);
            discard_to_newline(reader)?;
            return Ok(LineRead::TooLong);
        }
        out.extend_from_slice(available);
        reader.consume(n);
    }
}

fn discard_to_newline<R: BufRead>(reader: &mut R) -> std::io::Result<()> {
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let n = available.len();
                reader.consume(n);
            }
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Where a listener can be poked to wake its blocked `accept` call.
enum Wake {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

impl Wake {
    fn poke(&self) {
        match self {
            Wake::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
            Wake::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
            }
        }
    }
}

/// A per-connection read-shutdown hook, invoked during drain.
type ConnCloser = Box<dyn Fn() + Send + Sync>;

/// State shared by every accept loop and connection handler.
struct Shared {
    session: SessionSlot,
    options: ServerOptions,
    gate: Arc<Gate>,
    stop: AtomicBool,
    /// Per-connection read-shutdown hooks, slot-indexed; `None` after
    /// the connection exits.
    conns: Mutex<Vec<Option<ConnCloser>>>,
    /// Live handler threads, joined during drain.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// One poke target per listener.
    wakes: Mutex<Vec<Wake>>,
}

impl Shared {
    fn register_conn(&self, close: ConnCloser) -> usize {
        let mut conns = held(self.conns.lock());
        if let Some(slot) = conns.iter().position(Option::is_none) {
            conns[slot] = Some(close);
            slot
        } else {
            conns.push(Some(close));
            conns.len() - 1
        }
    }

    fn unregister_conn(&self, slot: usize) {
        held(self.conns.lock())[slot] = None;
    }

    /// The drain: refuse new work, close every connection's read side so
    /// in-flight requests finish and blocked readers see EOF.
    fn drain(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for close in held(self.conns.lock()).iter().flatten() {
            close();
        }
        for wake in held(self.wakes.lock()).iter() {
            wake.poke();
        }
    }
}

/// The `bonsaid` server: a [`Session`] behind a Unix socket and/or a TCP
/// listener, shared by every connection.
pub struct Server {
    shared: Arc<Shared>,
    unix: Option<UnixListener>,
    path: Option<PathBuf>,
    tcp: Option<TcpListener>,
}

impl Server {
    fn new(session: Session, options: ServerOptions) -> Server {
        Server {
            shared: Arc::new(Shared {
                session: SessionSlot::new(session),
                gate: Arc::new(Gate::new(options.max_inflight.max(1))),
                options,
                stop: AtomicBool::new(false),
                conns: Mutex::new(Vec::new()),
                handlers: Mutex::new(Vec::new()),
                wakes: Mutex::new(Vec::new()),
            }),
            unix: None,
            path: None,
            tcp: None,
        }
    }

    /// Binds a Unix socket (replacing a stale socket file at `path`)
    /// with default [`ServerOptions`].
    pub fn bind(session: Session, path: &Path) -> std::io::Result<Server> {
        Server::bind_with(session, path, ServerOptions::default())
    }

    /// [`Server::bind`] with explicit limits.
    pub fn bind_with(
        session: Session,
        path: &Path,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        let mut server = Server::new(session, options);
        held(server.shared.wakes.lock()).push(Wake::Unix(path.to_path_buf()));
        server.unix = Some(listener);
        server.path = Some(path.to_path_buf());
        Ok(server)
    }

    /// Binds a TCP-only server (no Unix socket) with default options.
    pub fn bind_tcp(session: Session, addr: &str) -> std::io::Result<Server> {
        Server::bind_tcp_with(session, addr, ServerOptions::default())
    }

    /// [`Server::bind_tcp`] with explicit limits.
    pub fn bind_tcp_with(
        session: Session,
        addr: &str,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        Server::new(session, options).with_tcp(addr)
    }

    /// Adds a TCP listener beside whatever is already bound. Bind to
    /// port 0 and read [`Server::tcp_addr`] for an ephemeral port.
    pub fn with_tcp(mut self, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        held(self.shared.wakes.lock()).push(Wake::Tcp(local));
        self.tcp = Some(listener);
        Ok(self)
    }

    /// The served session (the integration tests read its counters
    /// directly while talking to the socket).
    pub fn session(&self) -> Arc<Session> {
        self.shared.session.current()
    }

    /// The in-flight query gate (tests hold permits to force
    /// deterministic `overloaded` responses).
    pub fn gate(&self) -> Arc<Gate> {
        self.shared.gate.clone()
    }

    /// The bound TCP address, if a TCP listener was added.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Serves until a `shutdown` request arrives: accepts connections on
    /// every bound listener, one handler thread each, every handler
    /// sharing the one session. On shutdown the server drains — in-flight
    /// requests complete, new accepts are refused, handler threads are
    /// joined — and the socket file is removed on the way out.
    pub fn run(self) -> std::io::Result<()> {
        let mut accepts: Vec<JoinHandle<()>> = Vec::new();
        if let Some(listener) = self.unix {
            let shared = self.shared.clone();
            accepts.push(std::thread::spawn(move || {
                accept_loop(|| listener.accept().map(|(s, _)| s), &shared);
            }));
        }
        if let Some(listener) = self.tcp {
            let shared = self.shared.clone();
            accepts.push(std::thread::spawn(move || {
                accept_loop(|| listener.accept().map(|(s, _)| s), &shared);
            }));
        }
        for a in accepts {
            let _ = a.join();
        }
        let handlers: Vec<JoinHandle<()>> = held(self.shared.handlers.lock()).drain(..).collect();
        for h in handlers {
            let _ = h.join();
        }
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// [`Server::run`] on a background thread — what the integration
    /// tests use. Join the handle after sending `shutdown`.
    pub fn spawn(self) -> JoinHandle<std::io::Result<()>> {
        std::thread::spawn(move || self.run())
    }
}

fn accept_loop<C: Conn>(mut accept: impl FnMut() -> std::io::Result<C>, shared: &Arc<Shared>) {
    loop {
        let stream = match accept() {
            Ok(s) => s,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            // The wake poke, or a client racing the drain: refuse.
            break;
        }
        let shared_conn = shared.clone();
        let handle = std::thread::spawn(move || {
            let _ = handle_connection(stream, &shared_conn);
        });
        // Keep the live handlers for the drain to join, not one handle per
        // connection ever served.
        let mut handlers = held(shared.handlers.lock());
        handlers.retain(|handler| !handler.is_finished());
        handlers.push(handle);
    }
}

fn handle_connection<C: Conn>(stream: C, shared: &Arc<Shared>) -> std::io::Result<()> {
    bonsai_obs::add("daemon.connections.total", 1);
    let options = shared.options;
    stream.set_conn_timeouts(options.idle_timeout, options.write_timeout)?;
    let closer = stream.try_clone_conn()?;
    let slot = shared.register_conn(Box::new(move || {
        let _ = closer.shutdown_read();
    }));
    let result = serve_connection(stream, shared, &options);
    shared.unregister_conn(slot);
    result
}

/// Runs one request's handler with its panic, if any, contained: the
/// request is answered `internal` and counted, and the connection — and
/// the daemon — serve on. (The gate permit and every lock guard of the
/// handler are released by the unwind; see [`held`] for the poison.)
fn isolate(handler: impl FnOnce() -> (String, bool)) -> (String, bool) {
    catch_unwind(AssertUnwindSafe(handler)).unwrap_or_else(|panic| {
        bonsai_obs::add("daemon.panics.total", 1);
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a panic without a message");
        let message = format!("the handler of this request panicked: {what}");
        (render_error("internal", &message), false)
    })
}

fn send(writer: &mut impl Write, response: &str) -> std::io::Result<()> {
    writer.write_all(response.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn serve_connection<C: Conn>(
    stream: C,
    shared: &Arc<Shared>,
    options: &ServerOptions,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone_conn()?);
    let mut writer = BufWriter::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let mut served = 0usize;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let read = match read_line_bounded(&mut reader, options.max_request_bytes, &mut buf) {
            Ok(r) => r,
            // Idle connection: reap it quietly.
            Err(e) if is_timeout(&e) => break,
            Err(e) => return Err(e),
        };
        let line = match read {
            LineRead::Eof => break,
            LineRead::TooLong => {
                let response = render_error(
                    "too_large",
                    &format!("request exceeds {} bytes", options.max_request_bytes),
                );
                send(&mut writer, &response)?;
                continue;
            }
            LineRead::Line => String::from_utf8_lossy(&buf),
        };
        if line.trim().is_empty() {
            continue;
        }
        if options.max_requests_per_conn > 0 && served >= options.max_requests_per_conn {
            let response = render_error(
                "connection_limit",
                &format!(
                    "connection served its {} requests, reconnect",
                    options.max_requests_per_conn
                ),
            );
            send(&mut writer, &response)?;
            break;
        }
        served += 1;
        let (response, shutdown) =
            isolate(|| answer_line(&shared.session, &line, options, &shared.gate, C::TRANSPORT));
        send(&mut writer, &response)?;
        if shutdown {
            shared.drain();
            break;
        }
    }
    Ok(())
}

/// A line-oriented client for the `bonsaid` socket or TCP listener —
/// used by `bonsai query` and the tests.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: BufWriter<Box<dyn Write + Send>>,
}

impl Client {
    /// Connects to a running server's Unix socket.
    pub fn connect(path: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let reader = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(Box::new(reader)),
            writer: BufWriter::new(Box::new(stream)),
        })
    }

    /// Connects to a running server's TCP listener.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(Box::new(reader)),
            writer: BufWriter::new(Box::new(stream)),
        })
    }

    /// Sends one request line and returns the raw response line.
    pub fn call(&mut self, request: &str) -> std::io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_verify::session::{Session, SessionOptions};

    fn tmp_socket(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bonsaid-test-{name}-{}.sock", std::process::id()))
    }

    fn gadget_session() -> Session {
        Session::builder(bonsai_srp::papernets::figure2_gadget())
            .options(SessionOptions {
                max_failures: 1,
                threads: 2,
                ..Default::default()
            })
            .build()
            .expect("session builds")
    }

    fn gadget_server(name: &str) -> (PathBuf, Arc<Session>, JoinHandle<std::io::Result<()>>) {
        let path = tmp_socket(name);
        let server = Server::bind(gadget_session(), &path).expect("socket binds");
        let handle_session = server.session();
        let join = server.spawn();
        (path, handle_session, join)
    }

    #[test]
    fn protocol_round_trip_and_shutdown() {
        let (path, _session, join) = gadget_server("roundtrip");
        let mut client = Client::connect(&path).expect("connects");
        let pong = client.call("{\"op\": \"ping\"}").unwrap();
        assert!(pong.contains("\"ok\": true"), "{pong}");
        let reach = client
            .call("{\"op\": \"reach\", \"src\": \"a\", \"dst\": \"d\"}")
            .unwrap();
        assert!(reach.contains("\"delivered\": true"), "{reach}");
        let err = client.call("{\"op\": \"nope\"}").unwrap();
        assert!(err.contains("\"code\": \"unknown_op\""), "{err}");
        // Unknown devices answer an error without killing the connection.
        let err = client
            .call("{\"op\": \"reach\", \"src\": \"zz\", \"dst\": \"d\"}")
            .unwrap();
        assert!(err.contains("\"code\": \"query\""), "{err}");
        assert!(err.contains("unknown device"), "{err}");
        let bye = client.call("{\"op\": \"shutdown\"}").unwrap();
        assert!(bye.contains("shutdown"), "{bye}");
        join.join().unwrap().unwrap();
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn every_query_shape_survives_render_and_parse() {
        let odd = |name: &str| format!("{name}\"q\\b\n\t\u{1}é日");
        let links = vec![(odd("u"), odd("v")), ("a".to_string(), "b".to_string())];
        let (src, dst) = (odd("src"), "d".to_string());
        let shapes = [
            QueryRequest::Reach {
                src: src.clone(),
                dst: dst.clone(),
                links: links.clone(),
            },
            QueryRequest::Reach {
                src: src.clone(),
                dst: dst.clone(),
                links: Vec::new(),
            },
            QueryRequest::Sweep {
                src: src.clone(),
                dst: dst.clone(),
            },
            QueryRequest::AllPairs {
                links: links.clone(),
            },
            QueryRequest::AllPairs { links: Vec::new() },
            QueryRequest::Path {
                src: src.clone(),
                dst: dst.clone(),
                links,
                waypoints: vec![odd("w"), "b2".to_string()],
            },
            QueryRequest::Path {
                src,
                dst,
                links: Vec::new(),
                waypoints: Vec::new(),
            },
        ];
        for request in shapes {
            let line = render_query(&request);
            let doc = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parse_query(&doc), Ok(request), "{line}");
        }
        // The lines `bonsai query` has always sent for its flags.
        assert_eq!(
            render_query(&QueryRequest::AllPairs { links: Vec::new() }),
            r#"{"op": "all_pairs", "links": []}"#
        );
        assert_eq!(render_control("ping", None), r#"{"op": "ping"}"#);
        assert_eq!(
            render_control("reload", Some("a \"b\".cfg")),
            r#"{"op": "reload", "path": "a \"b\".cfg"}"#
        );
    }

    #[test]
    fn identical_batches_answer_identically_with_zero_solves() {
        let (path, session, join) = gadget_server("batch");
        let mut client = Client::connect(&path).expect("connects");
        let batch = "{\"op\": \"batch\", \"queries\": [\
            {\"op\": \"sweep\", \"src\": \"a\", \"dst\": \"d\"}, \
            {\"op\": \"all_pairs\"}]}";
        let first = client.call(batch).unwrap();
        let stats_mid = session.stats();
        let second = client.call(batch).unwrap();
        let stats_end = session.stats();
        assert_eq!(first, second, "byte-identical answers");
        assert_eq!(
            stats_end.solver_updates, stats_mid.solver_updates,
            "second batch performed zero solver updates"
        );
        client.call("{\"op\": \"shutdown\"}").unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn path_op_round_trips() {
        let (path, _session, join) = gadget_server("pathop");
        let mut client = Client::connect(&path).expect("connects");
        let answer = client
            .call(
                "{\"op\": \"path\", \"src\": \"a\", \"dst\": \"d\", \
                 \"waypoints\": [\"b1\", \"b2\", \"b3\"]}",
            )
            .unwrap();
        assert!(answer.contains("\"op\": \"path\""), "{answer}");
        assert!(answer.contains("\"lengths\": [2]"), "{answer}");
        assert!(answer.contains("\"waypointed\": true"), "{answer}");
        let plain = client
            .call("{\"op\": \"path\", \"src\": \"a\", \"dst\": \"d\"}")
            .unwrap();
        assert!(plain.contains("\"waypointed\": null"), "{plain}");
        client.call("{\"op\": \"shutdown\"}").unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn tcp_listener_round_trips() {
        let server = Server::bind_tcp(gadget_session(), "127.0.0.1:0").expect("tcp listener binds");
        let addr = server.tcp_addr().expect("has an address");
        let join = server.spawn();
        let mut client = Client::connect_tcp(&addr.to_string()).expect("connects");
        let pong = client.call("{\"op\": \"ping\"}").unwrap();
        assert!(pong.contains("\"ok\": true"), "{pong}");
        let reach = client
            .call("{\"op\": \"reach\", \"src\": \"a\", \"dst\": \"d\"}")
            .unwrap();
        assert!(reach.contains("\"delivered\": true"), "{reach}");
        client.call("{\"op\": \"shutdown\"}").unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_lines_are_shed_not_fatal() {
        let path = tmp_socket("toolarge");
        let options = ServerOptions {
            max_request_bytes: 256,
            ..Default::default()
        };
        let server = Server::bind_with(gadget_session(), &path, options).expect("binds");
        let join = server.spawn();
        let mut client = Client::connect(&path).expect("connects");
        let huge = format!("{{\"op\": \"ping\", \"pad\": \"{}\"}}", "x".repeat(512));
        let shed = client.call(&huge).unwrap();
        assert!(shed.contains("\"code\": \"too_large\""), "{shed}");
        // The connection survives the oversized line.
        let pong = client.call("{\"op\": \"ping\"}").unwrap();
        assert!(pong.contains("\"ok\": true"), "{pong}");
        client.call("{\"op\": \"shutdown\"}").unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_batches_are_rejected() {
        let path = tmp_socket("bigbatch");
        let options = ServerOptions {
            max_batch: 2,
            ..Default::default()
        };
        let server = Server::bind_with(gadget_session(), &path, options).expect("binds");
        let join = server.spawn();
        let mut client = Client::connect(&path).expect("connects");
        let batch = "{\"op\": \"batch\", \"queries\": [\
            {\"op\": \"all_pairs\"}, {\"op\": \"all_pairs\"}, {\"op\": \"all_pairs\"}]}";
        let shed = client.call(batch).unwrap();
        assert!(shed.contains("\"code\": \"too_large\""), "{shed}");
        client.call("{\"op\": \"shutdown\"}").unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn full_gate_sheds_queries_but_keeps_control_ops() {
        let path = tmp_socket("overload");
        let options = ServerOptions {
            max_inflight: 1,
            ..Default::default()
        };
        let server = Server::bind_with(gadget_session(), &path, options).expect("binds");
        let gate = server.gate();
        let join = server.spawn();
        let mut client = Client::connect(&path).expect("connects");
        // Deterministically exhaust the gate, as a stuck query would.
        let held = gate.try_acquire().expect("permit free");
        assert_eq!(gate.available(), 0);
        let shed_before = bonsai_obs::value("daemon.query.shed");
        let shed = client
            .call("{\"op\": \"reach\", \"src\": \"a\", \"dst\": \"d\"}")
            .unwrap();
        assert!(shed.contains("\"code\": \"overloaded\""), "{shed}");
        // Registry counters are process-global, so other tests may shed
        // concurrently — assert the floor, not equality.
        assert!(
            bonsai_obs::value("daemon.query.shed") > shed_before,
            "shed counter moved"
        );
        // Control ops stay answerable under full query load.
        let pong = client.call("{\"op\": \"ping\"}").unwrap();
        assert!(pong.contains("\"ok\": true"), "{pong}");
        drop(held);
        let ok = client
            .call("{\"op\": \"reach\", \"src\": \"a\", \"dst\": \"d\"}")
            .unwrap();
        assert!(ok.contains("\"delivered\": true"), "recovers: {ok}");
        client.call("{\"op\": \"shutdown\"}").unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn metrics_op_serves_prometheus_exposition() {
        let (path, _session, join) = gadget_server("metrics");
        let mut client = Client::connect(&path).expect("connects");
        // A query first, so the scrape has non-zero session counters.
        let reach = client
            .call("{\"op\": \"reach\", \"src\": \"a\", \"dst\": \"d\"}")
            .unwrap();
        assert!(reach.contains("\"delivered\": true"), "{reach}");
        let answer = client.call("{\"op\": \"metrics\"}").unwrap();
        let doc = Json::parse(&answer).expect("metrics answer parses");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("op").and_then(Json::as_str), Some("metrics"));
        assert_eq!(
            doc.get("content_type").and_then(Json::as_str),
            Some(bonsai_obs::PROMETHEUS_CONTENT_TYPE)
        );
        let body = doc.get("body").and_then(Json::as_str).expect("has body");
        // The unescaped body is a full exposition: every inventoried
        // metric appears with HELP and TYPE lines.
        for def in bonsai_obs::METRICS {
            let prom = bonsai_obs::prom_name(def.name);
            assert!(
                body.contains(&format!("# TYPE {prom} ")),
                "missing TYPE for {prom}"
            );
        }
        assert!(
            body.contains("daemon_requests_total"),
            "request counter scraped"
        );
        assert!(
            body.contains("daemon_query_latency_us_bucket"),
            "latency histogram scraped"
        );
        // Byte-determinism: the gadget is idle between scrapes, but the
        // histogram sum could shift if another op ran — so only assert
        // the response stays parseable and shaped, not byte-equal.
        let again = client.call("{\"op\": \"metrics\"}").unwrap();
        Json::parse(&again).expect("second scrape parses");
        client.call("{\"op\": \"shutdown\"}").unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn per_connection_request_budget_closes_connection() {
        let path = tmp_socket("connlimit");
        let options = ServerOptions {
            max_requests_per_conn: 2,
            ..Default::default()
        };
        let server = Server::bind_with(gadget_session(), &path, options).expect("binds");
        let join = server.spawn();
        let mut client = Client::connect(&path).expect("connects");
        for _ in 0..2 {
            let pong = client.call("{\"op\": \"ping\"}").unwrap();
            assert!(pong.contains("\"ok\": true"), "{pong}");
        }
        let cut = client.call("{\"op\": \"ping\"}").unwrap();
        assert!(cut.contains("\"code\": \"connection_limit\""), "{cut}");
        // A fresh connection gets a fresh budget.
        let mut fresh = Client::connect(&path).expect("reconnects");
        let pong = fresh.call("{\"op\": \"ping\"}").unwrap();
        assert!(pong.contains("\"ok\": true"), "{pong}");
        fresh.call("{\"op\": \"shutdown\"}").unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_drains_other_connections() {
        let (path, _session, join) = gadget_server("drain");
        let mut idle = Client::connect(&path).expect("idle client connects");
        let pong = idle.call("{\"op\": \"ping\"}").unwrap();
        assert!(pong.contains("\"ok\": true"), "{pong}");
        let mut closer = Client::connect(&path).expect("closer connects");
        closer.call("{\"op\": \"shutdown\"}").unwrap();
        join.join().unwrap().unwrap();
        // The idle connection was read-shutdown by the drain: its next
        // call observes EOF (empty line) or a broken pipe, not a hang.
        if let Ok(line) = idle.call("{\"op\": \"ping\"}") {
            assert!(line.is_empty(), "drained, got {line}");
        }
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    /// A handler that dies mid-request — holding a query permit and the
    /// reload lock — is one `internal` reply: the unwind returns the
    /// permit, the poisoned lock still locks, and the same connection
    /// answers what comes next.
    #[test]
    fn a_panicking_handler_is_an_internal_reply_on_a_connection_that_serves_on() {
        let slot = SessionSlot::new(gadget_session());
        let (options, gate) = (ServerOptions::default(), Gate::new(1));
        let (mut served, client) = UnixStream::pair().expect("a connection");
        let mut client = BufReader::new(client);
        let mut reply = || {
            let mut line = String::new();
            client.read_line(&mut line).expect("a reply line");
            line
        };

        let panics = bonsai_obs::value("daemon.panics.total");
        let (response, shutdown) = isolate(|| {
            let _permit = gate.try_acquire().expect("a free permit");
            let _reloading = slot.reload_lock.lock().expect("not poisoned yet");
            panic!("boom {}", 7)
        });
        assert!(!shutdown);
        send(&mut served, &response).expect("written");
        assert_eq!(
            reply(),
            "{\"ok\": false, \"code\": \"internal\", \"error\": \"the handler of \
             this request panicked: boom 7\"}\n"
        );
        assert!(bonsai_obs::value("daemon.panics.total") > panics);
        assert_eq!(gate.available(), 1, "the unwind returned the permit");
        assert!(slot.reload_lock.is_poisoned());

        let mut answer = |line: &str| {
            let (response, _) =
                isolate(|| answer_line(&slot, line, &options, &gate, Transport::Unix));
            send(&mut served, &response).expect("written");
            reply()
        };
        let pong = answer("{\"op\": \"ping\"}");
        assert_eq!(
            pong,
            "{\"ok\": true, \"op\": \"ping\", \"classes\": 1, \"k\": 1}\n"
        );
        let config = bonsai_config::print_network(&bonsai_srp::papernets::figure2_gadget());
        let reloaded = answer(&request("reload", |o| {
            o.str("config", &config);
        }));
        assert!(reloaded.contains("\"rederived\": 0"), "{reloaded}");
        let reach = answer("{\"op\": \"reach\", \"src\": \"a\", \"dst\": \"d\"}");
        assert!(reach.contains("\"delivered\": true"), "{reach}");
    }

    /// A `reload` of a configuration without devices — inline, or a file
    /// that holds none — is a `bad_request`, and the session it would have
    /// replaced keeps serving.
    #[test]
    fn a_reload_without_devices_is_refused_and_the_session_kept() {
        let slot = SessionSlot::new(gadget_session());
        let (options, gate) = (ServerOptions::default(), Gate::new(1));
        let answer = |line: &str| answer_line(&slot, line, &options, &gate, Transport::Unix).0;
        let empty =
            std::env::temp_dir().join(format!("bonsaid-test-empty-{}.cfg", std::process::id()));
        std::fs::write(&empty, "! nothing but a comment\n").expect("written");
        let by_path = request("reload", |o| {
            o.str("path", empty.to_str().expect("utf-8 path"));
        });
        for line in [r#"{"op": "reload", "config": ""}"#, by_path.as_str()] {
            assert_eq!(
                answer(line),
                r#"{"ok": false, "code": "bad_request", "error": "config has no devices"}"#,
                "{line}"
            );
        }
        std::fs::remove_file(&empty).expect("removed");
        let pong = answer(r#"{"op": "ping"}"#);
        assert_eq!(pong, r#"{"ok": true, "op": "ping", "classes": 1, "k": 1}"#);
        let reach = answer(r#"{"op": "reach", "src": "a", "dst": "d"}"#);
        assert!(reach.contains("\"delivered\": true"), "{reach}");
    }

    /// A thread that panics holding the connection registry (and the
    /// handler and wake lists) poisons all three; the server still
    /// registers connections, serves them, drains and removes its socket.
    #[test]
    fn poisoned_registries_still_register_and_drain() {
        let path = tmp_socket("poisoned");
        let server = Server::bind(gadget_session(), &path).expect("socket binds");
        let shared = server.shared.clone();
        let died = std::thread::spawn(move || {
            let _conns = shared.conns.lock().expect("first holder");
            let _handlers = shared.handlers.lock().expect("first holder");
            let _wakes = shared.wakes.lock().expect("first holder");
            panic!("died holding the registries");
        })
        .join();
        assert!(died.is_err());
        assert!(server.shared.conns.is_poisoned());
        assert!(server.shared.handlers.is_poisoned());
        assert!(server.shared.wakes.is_poisoned());

        let join = server.spawn();
        let mut idle = Client::connect(&path).expect("a connection registers");
        let pong = idle.call("{\"op\": \"ping\"}").unwrap();
        assert!(pong.contains("\"ok\": true"), "{pong}");
        let mut closer = Client::connect(&path).expect("and a second one");
        closer.call("{\"op\": \"shutdown\"}").unwrap();
        join.join().unwrap().expect("the drain completes");
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    /// The handler registry holds the live handlers, not one handle per
    /// connection ever accepted: a thousand connections that came and went
    /// leave nothing behind, and the drain still joins the ones that stay.
    #[test]
    fn finished_handlers_are_reaped_as_new_connections_arrive() {
        let path = tmp_socket("reaped");
        let server = Server::bind(gadget_session(), &path).expect("socket binds");
        let shared = server.shared.clone();
        let join = server.spawn();
        let held_handlers = || held(shared.handlers.lock()).len();
        let mut idle = Client::connect(&path).expect("a connection that stays");
        idle.call("{\"op\": \"ping\"}").unwrap();
        let mut peak = 0;
        for _ in 0..1000 {
            let mut client = Client::connect(&path).expect("connects");
            let pong = client.call("{\"op\": \"ping\"}").unwrap();
            assert!(pong.contains("\"ok\": true"), "{pong}");
            peak = peak.max(held_handlers());
        }
        assert!(peak < 100, "{peak} handles held at once");
        // Each of those handlers ends at its client's EOF; once they have,
        // the next accept drops every one of them.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let live = || {
            let handlers = held(shared.handlers.lock());
            handlers.iter().filter(|h| !h.is_finished()).count()
        };
        while live() > 1 {
            assert!(std::time::Instant::now() < deadline, "handlers never end");
            std::thread::yield_now();
        }
        let mut closer = Client::connect(&path).expect("one more connection");
        closer.call("{\"op\": \"ping\"}").unwrap();
        assert_eq!(held_handlers(), 2, "the idle connection and this one");
        closer.call("{\"op\": \"shutdown\"}").unwrap();
        join.join()
            .unwrap()
            .expect("the drain joins the live handlers");
        assert_eq!(held_handlers(), 0);
        if let Ok(line) = idle.call("{\"op\": \"ping\"}") {
            assert!(line.is_empty(), "drained, got {line}");
        }
    }

    /// The fattree-4 batch `tests/daemon_service.rs` replays: every query
    /// op, alone and inside a `batch`.
    const BATCH: &[&str] = &[
        r#"{"op": "ping"}"#,
        r#"{"op": "reach", "src": "edge0_0", "dst": "edge1_1"}"#,
        r#"{"op": "reach", "src": "edge0_0", "dst": "edge1_1", "links": [["agg0_0", "core0"]]}"#,
        r#"{"op": "sweep", "src": "edge0_1", "dst": "edge1_0"}"#,
        r#"{"op": "all_pairs", "links": [["core0", "agg1_0"]]}"#,
        r#"{"op": "path", "src": "edge0_0", "dst": "edge1_1", "links": [["agg0_0", "core0"]], "waypoints": ["agg1_0", "agg1_1"]}"#,
        r#"{"op": "batch", "queries": [{"op": "reach", "src": "edge1_1", "dst": "edge0_0"}, {"op": "all_pairs"}, {"op": "path", "src": "edge1_0", "dst": "edge0_1"}]}"#,
    ];

    /// What a rolling update does to a daemon under load. Four connections
    /// replay the batch in a loop while a fifth pushes, in order, a config
    /// that does not parse, one that parses but names an undefined
    /// interface, a structural edit (`edge0_0` loses both uplinks) and the
    /// original text back. Every reply a reader gets is, byte for byte,
    /// what a cold build of the configuration resident at that moment
    /// answers — a `batch` is answered whole by one session, and once a
    /// connection has seen a swap it never hears from the session before
    /// it again; each refused reload is a structured error on a connection
    /// that answers `ping` next; and when the readers are done nothing
    /// holds a swapped-out session any more.
    #[test]
    fn reloads_under_query_load_swap_whole_sessions_and_leak_none() {
        const READERS: usize = 4;
        let original = bonsai_config::print_network(&bonsai_topo::fattree(
            4,
            bonsai_topo::FattreePolicy::ShortestPath,
        ));
        let undefined = original.replacen("interface to_agg0_0\n", "", 1);
        let uplink = |l: &str| l.starts_with("link ") && l.split(' ').any(|w| w == "edge0_0");
        let cut: Vec<&str> = original.lines().filter(|l| !uplink(l)).collect();
        let cut = cut.join("\n");
        let build = |text: &str| {
            Session::builder(bonsai_config::parse_network(text).expect("config parses"))
                .options(SessionOptions {
                    max_failures: 1,
                    threads: 1,
                    ..Default::default()
                })
                .build()
                .expect("session builds")
        };
        let cold = |text: &str| -> Vec<String> {
            let (slot, options, gate) = (
                SessionSlot::new(build(text)),
                ServerOptions::default(),
                Gate::new(1),
            );
            let answer = |line: &&str| answer_line(&slot, line, &options, &gate, Transport::Unix).0;
            BATCH.iter().map(answer).collect()
        };
        // The sessions a reader can meet, in swap order. The edit moves two
        // of the three answers inside the `batch`, so one answered half by
        // each session would equal neither golden.
        let (before, after) = (cold(&original), cold(&cut));
        assert!(before[1] != after[1] && before[4] != after[4] && before[6] != after[6]);
        let phases = [&before, &after, &before];

        let path = tmp_socket("reload-load");
        let server = Server::bind(build(&original), &path).expect("socket binds");
        let shared = server.shared.clone();
        let join = server.spawn();
        let passes: Vec<AtomicUsize> = (0..READERS).map(|_| AtomicUsize::new(0)).collect();
        let done = AtomicBool::new(false);
        // Blocks until every reader has finished a pass that began after
        // this call: whatever was swapped in before it has been queried.
        let readers_catch_up = || {
            let seen: Vec<usize> = passes.iter().map(|p| p.load(Ordering::SeqCst)).collect();
            while passes
                .iter()
                .zip(&seen)
                .any(|(p, seen)| p.load(Ordering::SeqCst) < seen + 2)
            {
                std::thread::yield_now();
            }
        };
        let retired = std::thread::scope(|scope| {
            for tally in &passes {
                let (path, done, phases) = (&path, &done, &phases);
                scope.spawn(move || {
                    let mut client = Client::connect(path).expect("reader connects");
                    let mut phase = 0;
                    loop {
                        let last = done.load(Ordering::SeqCst);
                        for (i, line) in BATCH.iter().enumerate() {
                            let reply = client.call(line).expect("daemon answers");
                            while reply != phases[phase][i] {
                                phase += 1;
                                assert!(phase < phases.len(), "{line} got {reply}");
                            }
                        }
                        tally.fetch_add(1, Ordering::SeqCst);
                        if last {
                            break;
                        }
                    }
                    // A pass begun after the last swap: the reader has met
                    // all three sessions, and the last one answered it.
                    assert_eq!(phase, 2, "answered by a retired session");
                });
            }
            let mut client = Client::connect(&path).expect("the updater connects");
            let mut push = |config: &str| {
                let reply = client
                    .call(&request("reload", |o| {
                        o.str("config", config);
                    }))
                    .expect("reload answered");
                let pong = client.call("{\"op\": \"ping\"}").expect("ping answered");
                assert!(pong.starts_with("{\"ok\": true"), "{pong}");
                reply
            };
            readers_catch_up();
            let refused = push("device a\nnot-a-stanza");
            assert!(refused.contains("\"code\": \"bad_request\""), "{refused}");
            let refused = push(&undefined);
            assert!(refused.contains("\"code\": \"query\""), "{refused}");
            let mut retired = Vec::new();
            for config in [&cut, &original] {
                retired.push(Arc::downgrade(&shared.session.current()));
                let swapped = push(config);
                assert!(swapped.contains("\"full_rebuild\": true"), "{swapped}");
                readers_catch_up();
            }
            done.store(true, Ordering::SeqCst);
            retired
        });
        let held: Vec<usize> = retired.iter().map(std::sync::Weak::strong_count).collect();
        assert_eq!(held, [0, 0], "references to the swapped-out sessions");
        let mut closer = Client::connect(&path).expect("connects");
        closer.call("{\"op\": \"shutdown\"}").unwrap();
        join.join().unwrap().expect("clean exit");
    }
}
