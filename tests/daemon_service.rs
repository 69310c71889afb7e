//! Acceptance test for `bonsaid`, the resident verification service.
//!
//! Runs the daemon in-process on a fattree-4 [`bonsai::Session`] and checks
//! the service contract end to end:
//!
//! * the same query batch sent twice returns **byte-identical** response
//!   lines, and the second batch triggers **zero** solver updates — every
//!   answer comes from the session's verdict memo;
//! * N concurrent connections issuing interleaved batches each get the
//!   same bytes serial execution produces;
//! * when the in-flight gate is full, excess queries are shed with
//!   structured `overloaded` errors — no hangs, no crashes — and service
//!   recovers once the gate frees;
//! * a snapshot saved from the warm session restores into a new session
//!   that serves the **same bytes** without re-deriving any refinement
//!   (`restored > 0`, `derivations == 0`) and — the answer-warm tier —
//!   replays the previously-seen batch with **zero solver work of any
//!   kind** (`restored_answers > 0`, solves and updates all flat);
//! * `shutdown` stops the accept loop and removes the socket file.

use bonsai::daemon::{Client, Server, ServerOptions};
use bonsai::prelude::*;

use std::path::PathBuf;

/// Two-device config used by the warm-reload test: device `a` applies a
/// route-map to imports from `b`, which originates two prefixes — two
/// destination classes, only one of which the route-map edit touches.
const RELOAD_BASE: &str = "
device a
interface i
ip prefix-list P10 seq 5 permit 10.0.1.0/24
route-map M permit 10
 match ip address prefix-list P10
 set local-preference 200
route-map M permit 20
router bgp 1
 neighbor i remote-as external
 neighbor i route-map M in
end
device b
interface i
router bgp 2
 network 10.0.1.0/24
 network 10.0.2.0/24
 neighbor i remote-as external
end
link a i b i
";

/// A unique socket path per test so parallel test binaries can't collide.
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bonsaid-test-{}-{tag}.sock", std::process::id()))
}

/// `k = 1`, one thread: what every session of this file is built with.
fn k1() -> SessionOptions {
    SessionOptions {
        max_failures: 1,
        threads: 1,
        ..Default::default()
    }
}

fn fattree_session() -> Session {
    Session::builder(fattree(4, FattreePolicy::ShortestPath))
        .options(k1())
        .build()
        .expect("fattree-4 session builds")
}

/// The query batch the tests replay: a failure-free reach, a reach under
/// a failed core link, a per-scenario sweep, all-pairs under a mask, a
/// path/waypoint query, plus protocol ops (`ping`; `stats` is
/// deliberately excluded — its `queries` counter changes between
/// batches).
const BATCH: &[&str] = &[
    r#"{"op": "ping"}"#,
    r#"{"op": "reach", "src": "edge0_0", "dst": "edge1_1"}"#,
    r#"{"op": "reach", "src": "edge0_0", "dst": "edge1_1", "links": [["agg0_0", "core0"]]}"#,
    r#"{"op": "sweep", "src": "edge0_1", "dst": "edge1_0"}"#,
    r#"{"op": "all_pairs", "links": [["core0", "agg1_0"]]}"#,
    r#"{"op": "path", "src": "edge0_0", "dst": "edge1_1", "links": [["agg0_0", "core0"]], "waypoints": ["agg1_0", "agg1_1"]}"#,
    r#"{"op": "batch", "queries": [{"op": "reach", "src": "edge1_1", "dst": "edge0_0"}, {"op": "all_pairs"}, {"op": "path", "src": "edge1_0", "dst": "edge0_1"}]}"#,
];

fn run_batch(client: &mut Client) -> Vec<String> {
    BATCH
        .iter()
        .map(|line| client.call(line).expect("daemon answers"))
        .collect()
}

#[test]
fn second_identical_batch_is_byte_identical_and_solve_free() {
    let path = socket_path("repeat");
    let server = Server::bind(fattree_session(), &path).expect("bind");
    let session = server.session();
    let handle = server.spawn();

    let mut client = Client::connect(&path).expect("connect");
    let first = run_batch(&mut client);
    let after_first = session.stats();

    let second = run_batch(&mut client);
    let after_second = session.stats();

    assert_eq!(first, second, "identical batches must answer identically");
    assert!(
        first.iter().all(|l| l.contains("\"ok\": true")),
        "every request in the batch must succeed: {first:?}"
    );
    // The acceptance criterion: the warm batch touches no solver at all.
    assert_eq!(
        after_second.solver_updates, after_first.solver_updates,
        "second identical batch must trigger zero solver updates"
    );
    assert_eq!(after_second.abstract_solves, after_first.abstract_solves);
    assert_eq!(after_second.concrete_solves, after_first.concrete_solves);
    assert!(
        after_second.verdict_cache_hits > after_first.verdict_cache_hits,
        "warm answers must come from the verdict memo"
    );
    // The path query answered with the expected properties.
    let path_line = &first[5];
    assert!(path_line.contains("\"op\": \"path\""), "{path_line}");
    assert!(path_line.contains("\"waypointed\": true"), "{path_line}");

    let bye = client.call(r#"{"op": "shutdown"}"#).expect("shutdown");
    assert!(bye.contains("\"ok\": true"));
    handle
        .join()
        .expect("accept loop joins")
        .expect("clean exit");
    assert!(!path.exists(), "socket file must be removed on shutdown");
}

#[test]
fn concurrent_clients_get_bytes_identical_to_serial_execution() {
    let path = socket_path("concurrent");
    let server = Server::bind(fattree_session(), &path).expect("bind");
    let handle = server.spawn();

    // Serial reference: one connection, one pass (this also warms the
    // memo, so the concurrent phase exercises the cache under
    // contention).
    let mut reference_client = Client::connect(&path).expect("connect");
    let reference = run_batch(&mut reference_client);

    // N simultaneous connections, each interleaving several batch
    // passes. Every response on every connection must equal the serial
    // bytes — concurrency must not change a single answer.
    const CLIENTS: usize = 4;
    const PASSES: usize = 3;
    let all: Vec<Vec<Vec<String>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let path = &path;
                scope.spawn(move || {
                    let mut client = Client::connect(path).expect("connect concurrently");
                    (0..PASSES).map(|_| run_batch(&mut client)).collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (i, passes) in all.iter().enumerate() {
        for (j, answers) in passes.iter().enumerate() {
            assert_eq!(
                answers, &reference,
                "client {i} pass {j} must match serial execution byte-for-byte"
            );
        }
    }

    reference_client
        .call(r#"{"op": "shutdown"}"#)
        .expect("shutdown");
    handle.join().unwrap().expect("clean exit");
}

#[test]
fn overloaded_daemon_sheds_queries_instead_of_hanging() {
    let path = socket_path("overload");
    let options = ServerOptions {
        max_inflight: 1,
        ..Default::default()
    };
    let server = Server::bind_with(fattree_session(), &path, options).expect("bind");
    let gate = server.gate();
    let handle = server.spawn();

    // Occupy the only in-flight slot, as a long-running query would.
    let held = gate.try_acquire().expect("slot free at start");

    // Concurrent clients all get structured overload errors, promptly —
    // nothing queues behind the busy slot and nothing crashes.
    const CLIENTS: usize = 4;
    let sheds: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let path = &path;
                scope.spawn(move || {
                    let mut client = Client::connect(path).expect("connect");
                    client
                        .call(r#"{"op": "reach", "src": "edge0_0", "dst": "edge1_1"}"#)
                        .expect("answered, not hung")
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for shed in &sheds {
        assert!(
            shed.contains(r#""code": "overloaded""#),
            "full gate must shed with a structured error: {shed}"
        );
    }

    // Control ops stay answerable while the gate is full...
    let mut client = Client::connect(&path).expect("connect");
    let pong = client.call(r#"{"op": "ping"}"#).expect("ping");
    assert!(pong.contains("\"ok\": true"), "{pong}");
    // ...and query service recovers the moment the slot frees.
    drop(held);
    let ok = client
        .call(r#"{"op": "reach", "src": "edge0_0", "dst": "edge1_1"}"#)
        .expect("recovered");
    assert!(ok.contains("\"delivered\": true"), "{ok}");

    client.call(r#"{"op": "shutdown"}"#).expect("shutdown");
    handle.join().unwrap().expect("clean exit");
}

#[test]
fn reload_swaps_the_session_warm_and_keeps_untouched_answers() {
    let path = socket_path("reload");
    let session = Session::builder(parse_network(RELOAD_BASE).expect("base parses"))
        .options(k1())
        .build()
        .expect("session builds");
    let server = Server::bind(session, &path).expect("bind");
    let handle = server.spawn();

    let mut client = Client::connect(&path).expect("connect");
    // Warm the verdict memo across both destination classes.
    let warm = client
        .call(r#"{"op": "reach", "src": "a", "dst": "b"}"#)
        .expect("reach");
    assert!(warm.contains("\"ok\": true"), "{warm}");
    assert!(
        warm.contains("10.0.1.0/24") && warm.contains("10.0.2.0/24"),
        "{warm}"
    );

    // Edit the route-map clause: a policy-content delta touching only the
    // 10.0.1.0/24 class.
    let edited = RELOAD_BASE.replace("local-preference 200", "local-preference 300");
    let request = format!(
        r#"{{"op": "reload", "config": "{}"}}"#,
        edited.replace('\n', "\\n")
    );
    let reloaded = client.call(&request).expect("reload");
    assert!(reloaded.contains("\"ok\": true"), "{reloaded}");
    assert!(reloaded.contains("\"op\": \"reload\""), "{reloaded}");
    assert!(reloaded.contains("\"full_rebuild\": false"), "{reloaded}");
    assert!(reloaded.contains("\"rederived\": 1"), "{reloaded}");
    assert!(reloaded.contains("\"reused\": 1"), "{reloaded}");
    assert!(reloaded.contains("\"verdicts_kept\": 1"), "{reloaded}");

    // The swapped session serves queries against the NEW config.
    let after = client
        .call(r#"{"op": "reach", "src": "a", "dst": "b"}"#)
        .expect("reach after reload");
    assert!(after.contains("\"ok\": true"), "{after}");
    // Reloading the identical config again keeps every class and memo.
    let idempotent = client
        .call(&format!(
            r#"{{"op": "reload", "config": "{}"}}"#,
            edited.replace('\n', "\\n")
        ))
        .expect("idempotent reload");
    assert!(idempotent.contains("\"reused\": 2"), "{idempotent}");
    assert!(idempotent.contains("\"rederived\": 0"), "{idempotent}");

    // Malformed requests get structured errors without killing service:
    // both `config` and `path`, then a config that does not parse.
    let both = client
        .call(r#"{"op": "reload", "config": "x", "path": "y"}"#)
        .expect("answered");
    assert!(both.contains("\"code\": \"bad_request\""), "{both}");
    let garbled = client
        .call(r#"{"op": "reload", "config": "device a\nnot-a-stanza"}"#)
        .expect("answered");
    assert!(garbled.contains("\"code\": \"bad_request\""), "{garbled}");

    client.call(r#"{"op": "shutdown"}"#).expect("shutdown");
    handle.join().unwrap().expect("clean exit");
}

#[test]
fn snapshot_restores_and_serves_identical_bytes_without_resolving() {
    // Cold daemon: build, serve the batch, snapshot the warm session —
    // the snapshot is taken AFTER the batch, so it carries the answer
    // memos, not just the refinement cache.
    let cold_path = socket_path("cold");
    let cold_server = Server::bind(fattree_session(), &cold_path).expect("bind cold");
    let cold_session = cold_server.session();
    let cold_handle = cold_server.spawn();
    let mut client = Client::connect(&cold_path).expect("connect cold");
    let cold_answers = run_batch(&mut client);
    let snapshot = cold_session.snapshot_json();
    client.call(r#"{"op": "shutdown"}"#).expect("shutdown cold");
    cold_handle.join().unwrap().expect("cold exits cleanly");

    // Warm daemon: restore from the snapshot text alone.
    let restored = Session::builder(fattree(4, FattreePolicy::ShortestPath))
        .options(k1())
        .restore(&snapshot)
        .expect("snapshot restores");
    let stats = restored.stats();
    assert!(stats.sweep.restored > 0, "restore must reuse refinements");
    assert_eq!(stats.sweep.derivations, 0, "restore must not re-derive");
    assert!(
        stats.sweep.restored_answers > 0,
        "restore must reload the persisted answer memos"
    );

    let warm_path = socket_path("warm");
    let warm_server = Server::bind(restored, &warm_path).expect("bind warm");
    let warm_session = warm_server.session();
    let warm_handle = warm_server.spawn();
    let mut client = Client::connect(&warm_path).expect("connect warm");
    let before_replay = warm_session.stats();
    let warm_answers = run_batch(&mut client);
    let after_replay = warm_session.stats();
    client.call(r#"{"op": "shutdown"}"#).expect("shutdown warm");
    warm_handle.join().unwrap().expect("warm exits cleanly");

    assert_eq!(
        cold_answers, warm_answers,
        "a restored daemon must serve byte-identical answers"
    );
    // The answer-warm criterion: replaying the previously-seen batch
    // after a restart performs zero solver work of any kind.
    assert_eq!(
        after_replay.solver_updates, before_replay.solver_updates,
        "replayed batch must trigger zero solver updates"
    );
    assert_eq!(after_replay.abstract_solves, before_replay.abstract_solves);
    assert_eq!(after_replay.concrete_solves, before_replay.concrete_solves);
    assert!(
        after_replay.verdict_cache_hits > before_replay.verdict_cache_hits,
        "replayed answers must come from the restored memos"
    );
}

/// The `snapshot` op replaces its file atomically. It used to be a
/// truncating write onto the very path the next start restores from, so
/// a save that failed half-way destroyed the last good snapshot. Now the
/// document goes to `<path>.tmp.<pid>` first: a successful save leaves no
/// temp behind, and a save whose temp cannot be created is an `io` error
/// that leaves the previous file byte-identical.
#[test]
fn a_failed_snapshot_leaves_the_previous_one_untouched() {
    let path = socket_path("snapshot-atomic");
    let handle = Server::bind(fattree_session(), &path)
        .expect("bind")
        .spawn();
    let mut client = Client::connect(&path).expect("connect");

    let dir = std::env::temp_dir().join(format!("bonsaid-test-{}-snapshot", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let target = dir.join("session.json");
    let temp = dir.join(format!("session.json.tmp.{}", std::process::id()));
    let save = format!(r#"{{"op": "snapshot", "path": "{}"}}"#, target.display());

    let saved = client.call(&save).expect("answered");
    assert!(saved.contains("\"ok\": true"), "{saved}");
    let good = std::fs::read(&target).expect("snapshot written");
    Session::builder(fattree(4, FattreePolicy::ShortestPath))
        .options(k1())
        .restore(std::str::from_utf8(&good).expect("utf-8"))
        .expect("the written snapshot restores");
    assert!(!temp.exists(), "a successful save leaves no temp file");

    // Change what a save would write, then make the temp uncreatable (a
    // directory sits at its name — works whoever the tests run as).
    run_batch(&mut client);
    std::fs::create_dir(&temp).expect("blocker");
    let failed = client.call(&save).expect("answered");
    assert!(
        failed.starts_with(r#"{"ok": false, "code": "io""#),
        "{failed}"
    );
    assert_eq!(std::fs::read(&target).expect("still there"), good);
    let pong = client.call(r#"{"op": "ping"}"#).expect("same connection");
    assert_eq!(pong, r#"{"ok": true, "op": "ping", "classes": 8, "k": 1}"#);

    // With the blocker gone the answer-warm snapshot replaces the old one.
    std::fs::remove_dir(&temp).expect("blocker removed");
    let saved = client.call(&save).expect("answered");
    assert!(saved.contains("\"ok\": true"), "{saved}");
    assert_ne!(std::fs::read(&target).expect("rewritten"), good);
    assert!(!temp.exists());

    client.call(r#"{"op": "shutdown"}"#).expect("shutdown");
    handle.join().unwrap().expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `reload` by `path` reads a client-named file: `/dev/zero` used to grow
/// the daemon by 300 MB a second until the OOM killer took it from every
/// client, and a FIFO parked the handler in `open` forever. Anything but
/// a regular file of bounded length is a structured `io` error now, on a
/// connection that then answers `ping` — and a real file still reloads.
#[test]
fn reload_by_path_reads_only_a_bounded_regular_file() {
    let path = socket_path("reload-path");
    let session = Session::builder(parse_network(RELOAD_BASE).expect("base parses"))
        .options(k1())
        .build()
        .expect("session builds");
    let handle = Server::bind(session, &path).expect("bind").spawn();
    let mut client = Client::connect(&path).expect("connect");

    let dir = std::env::temp_dir().join(format!("bonsaid-test-{}-reload", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut hostile = vec!["/dev/zero".to_string(), dir.display().to_string()];
    #[cfg(unix)]
    {
        let fifo = dir.join("config.fifo");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(made.expect("mkfifo runs").success());
        hostile.push(fifo.display().to_string());
    }
    for target in &hostile {
        let reply = client
            .call(&format!(r#"{{"op": "reload", "path": "{target}"}}"#))
            .expect("answered");
        assert!(
            reply.starts_with(r#"{"ok": false, "code": "io""#)
                && reply.contains("not a regular file"),
            "{target}: {reply}"
        );
        let pong = client.call(r#"{"op": "ping"}"#).expect("same connection");
        assert_eq!(pong, r#"{"ok": true, "op": "ping", "classes": 2, "k": 1}"#);
    }

    // A regular file over the fixed limit (sparse: nothing is written).
    let big = dir.join("big.cfg");
    let limit = bonsai::core::snapshot::MAX_CONFIG_FILE_BYTES;
    let sized = std::fs::File::create(&big).and_then(|f| f.set_len(limit + 1));
    sized.expect("sparse file");
    let reply = client
        .call(&format!(
            r#"{{"op": "reload", "path": "{}"}}"#,
            big.display()
        ))
        .expect("answered");
    assert!(
        reply.contains(r#""code": "io""#) && reply.contains("larger than"),
        "{reply}"
    );

    let config = dir.join("edited.cfg");
    let edited = RELOAD_BASE.replace("local-preference 200", "local-preference 300");
    std::fs::write(&config, edited).expect("config written");
    let reloaded = client
        .call(&format!(
            r#"{{"op": "reload", "path": "{}"}}"#,
            config.display()
        ))
        .expect("reload");
    assert!(reloaded.contains("\"rederived\": 1"), "{reloaded}");

    client.call(r#"{"op": "shutdown"}"#).expect("shutdown");
    handle.join().unwrap().expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `snapshot` writes, and `reload` by `path` reads, a file the client
/// names on the daemon's host: any TCP peer could overwrite any file the
/// daemon's user can, or probe the file system. Both are `forbidden` on
/// a TCP connection — before the path is looked at, on a connection that
/// stays open — while inline `reload` works there and the Unix socket
/// (whose file permissions are the access control) serves both as ever.
#[test]
fn path_taking_ops_are_served_on_the_unix_socket_only() {
    let path = socket_path("path-ops");
    let session = Session::builder(parse_network(RELOAD_BASE).expect("base parses"))
        .options(k1())
        .build()
        .expect("session builds");
    let server = Server::bind(session, &path)
        .and_then(|server| server.with_tcp("127.0.0.1:0"))
        .expect("bind");
    let tcp = server.tcp_addr().expect("tcp listener").to_string();
    let handle = server.spawn();
    let mut unix = Client::connect(&path).expect("connect");
    let mut tcp = Client::connect_tcp(&tcp).expect("connect over tcp");

    let dir = std::env::temp_dir().join(format!("bonsaid-test-{}-path-ops", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let (target, config) = (dir.join("session.json"), dir.join("edited.cfg"));
    let edited = RELOAD_BASE.replace("local-preference 200", "local-preference 300");
    std::fs::write(&config, &edited).expect("config written");
    let save = format!(r#"{{"op": "snapshot", "path": "{}"}}"#, target.display());
    let reload = format!(r#"{{"op": "reload", "path": "{}"}}"#, config.display());

    for request in [&save, &reload, r#"{"op": "snapshot"}"#] {
        let refused = tcp.call(request).expect("answered");
        assert!(
            refused.starts_with(r#"{"ok": false, "code": "forbidden""#)
                && refused.contains("Unix socket"),
            "{request}: {refused}"
        );
        let pong = tcp.call(r#"{"op": "ping"}"#).expect("same connection");
        assert_eq!(pong, r#"{"ok": true, "op": "ping", "classes": 2, "k": 1}"#);
    }
    assert!(!target.exists(), "a refused snapshot writes nothing");

    // The same two requests over the Unix socket, then the inline form
    // of the same push over TCP (an empty delta by then).
    let saved = unix.call(&save).expect("answered");
    assert!(
        saved.starts_with(r#"{"ok": true, "op": "snapshot""#),
        "{saved}"
    );
    assert!(target.exists());
    let reloaded = unix.call(&reload).expect("answered");
    assert!(reloaded.contains("\"rederived\": 1"), "{reloaded}");
    let inline = format!(
        r#"{{"op": "reload", "config": "{}"}}"#,
        edited.replace('\n', "\\n")
    );
    let reloaded = tcp.call(&inline).expect("answered");
    assert!(
        reloaded.starts_with(r#"{"ok": true, "op": "reload""#)
            && reloaded.contains("\"rederived\": 0"),
        "{reloaded}"
    );

    unix.call(r#"{"op": "shutdown"}"#).expect("shutdown");
    handle.join().unwrap().expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The line that used to kill the daemon for every client: 20 KB of `[`
/// recursed the request parser off its stack (`fatal runtime error: stack
/// overflow`, exit 134). It is a `bad_request` now — for arrays and
/// objects, at 20 KB and just under the 1 MiB line limit, over both
/// transports — and the connection that sent it is still served.
#[test]
fn deeply_nested_lines_are_bad_requests_on_a_connection_that_stays_open() {
    let path = socket_path("deep");
    let server = Server::bind(fattree_session(), &path)
        .and_then(|server| server.with_tcp("127.0.0.1:0"))
        .expect("bind");
    let tcp = server.tcp_addr().expect("tcp listener").to_string();
    let handle = server.spawn();

    let unix = Client::connect(&path).expect("connect");
    let tcp = Client::connect_tcp(&tcp).expect("connect over tcp");
    for mut client in [unix, tcp] {
        for (open, count) in [("[", 20_000), ("[", 1_000_000), ("{\"a\":", 200_000)] {
            let reply = client.call(&open.repeat(count)).expect("answered");
            assert!(
                reply.starts_with(r#"{"ok": false, "code": "bad_request""#)
                    && reply.contains("nesting deeper than 64"),
                "{count} x {open}: {reply}"
            );
            let pong = client.call(r#"{"op": "ping"}"#).expect("same connection");
            assert_eq!(pong, r#"{"ok": true, "op": "ping", "classes": 8, "k": 1}"#);
        }
    }

    let mut client = Client::connect(&path).expect("connect");
    client.call(r#"{"op": "shutdown"}"#).expect("shutdown");
    handle.join().unwrap().expect("clean exit");
}
