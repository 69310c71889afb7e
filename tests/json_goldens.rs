//! Every document the system emits, byte for byte as the commit before
//! the shared JSON writer (PR 19's tree) wrote it. The files under
//! `tests/data/` came out of that commit's release binary — the `cli/diff`
//! and trace goldens out of its library, driven with the literals below —
//! so a byte that moves here is a format change, not a refactor.
//!
//! One file was re-blessed since, for its *content*: the answer-warm
//! snapshot's verdict `bits` held the lifted two-failure answers the parent
//! served wrong (24 strings of class `10.1.0.0/24`, 92 characters `0` → `1`,
//! nothing else and no length moved). What stands in for "the parent wrote
//! it" there is stronger: every verdict in the file is compared with the
//! concrete masked simulation.

use bonsai::cli::{DiffDoc, RederivedDoc};
use bonsai::core::snapshot::Envelope;
use bonsai::daemon::{answer_line, Client, Gate, ServerOptions, SessionSlot, Transport};
use bonsai::prelude::*;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A fresh scratch directory, removed when the guard drops.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("bonsai-goldens-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        Scratch(dir)
    }

    fn command(&self, line: &[&str]) -> Command {
        let mut command = Command::new(env!("CARGO_BIN_EXE_bonsai"));
        command.args(line).current_dir(&self.0);
        command
    }

    /// Runs the built `bonsai` with the scratch directory as its cwd.
    fn bonsai(&self, line: &[&str]) -> Output {
        self.command(line).output().expect("bonsai runs")
    }

    /// The stdout of a run that must succeed.
    fn stdout(&self, line: &[&str]) -> String {
        let out = self.bonsai(line);
        assert!(out.status.success(), "{line:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 output")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn failures_documents_are_the_parents_bytes() {
    let scratch = Scratch::new("failures");
    let sweep: Vec<&str> = "failures gen:gadget --failures 2 --threads 1"
        .split(' ')
        .collect();
    let with = |extra: &[&str]| scratch.stdout(&[&sweep[..], extra].concat());
    assert_eq!(
        with(&["--query", "a:d", "--json"]),
        include_str!("data/failures_gadget_k2.json")
    );
    let shards = [
        include_str!("data/failures_gadget_k2.shard0.json"),
        include_str!("data/failures_gadget_k2.shard1.json"),
    ];
    for (i, golden) in shards.iter().enumerate() {
        let (shard, file) = (format!("{i}/2"), format!("s{i}.json"));
        assert_eq!(with(&["--shard", &shard, "--json"]), *golden, "shard {i}");
        with(&["--shard", &shard, "--json", &file]);
        let written = std::fs::read_to_string(scratch.0.join(&file)).expect("shard file");
        assert_eq!(written, *golden, "shard {i} written to a file");
    }
    assert_eq!(
        scratch.stdout(&["failures", "--merge", "s1.json", "s0.json", "--json"]),
        include_str!("data/failures_gadget_k2.merged.json")
    );
}

/// `line` with the unsigned integer after `"<key>": ` replaced by `0`.
fn zeroed(line: &str, key: &str) -> String {
    let marker = format!("\"{key}\": ");
    let Some(at) = line.find(&marker) else {
        return line.to_string();
    };
    let (head, tail) = line.split_at(at + marker.len());
    format!(
        "{head}0{}",
        tail.trim_start_matches(|c: char| c.is_ascii_digit())
    )
}

/// The transcript's three run-dependent spots made constant: the scratch
/// directory, `reload_us` and the `metrics` body.
fn normalised(reply: &str, scratch: &str) -> String {
    let reply = zeroed(&reply.replace(scratch, "@TMP@"), "reload_us");
    match reply.find("\"body\": \"") {
        Some(at) if reply.ends_with("\"}") => format!("{}\"body\": \"@BODY@\"}}", &reply[..at]),
        _ => reply,
    }
}

/// All eleven ops, a `batch` with a failing entry, `unknown_op`, two
/// `bad_request`s, a `query` error that echoes escapes, an `io` error and a
/// no-op `reload`, against `serve gen:fattree4 --failures 2 --threads 1` —
/// then the answer-warm snapshot the daemon leaves behind.
#[test]
fn the_serve_transcript_and_its_warm_snapshot_are_the_parents_bytes() {
    let scratch = Scratch::new("serve");
    let dir = scratch.0.to_str().expect("utf-8 temp dir").to_string();
    std::fs::write(
        scratch.0.join("fattree4.cfg"),
        scratch.stdout(&["print", "gen:fattree4"]),
    )
    .expect("config written");
    let socket = scratch.0.join("b.sock");
    let mut daemon = scratch
        .command(&["serve", "gen:fattree4", "--failures", "2", "--threads", "1"])
        .args(["--socket", "b.sock", "--snapshot", "warm.snapshot.json"])
        .stdout(Stdio::null())
        .spawn()
        .expect("bonsaid starts");
    let mut client = loop {
        match Client::connect(&socket) {
            Ok(client) => break client,
            Err(_) if daemon.try_wait().expect("daemon polls").is_none() => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => panic!("bonsaid exited before serving: {e}"),
        }
    };
    let requests = include_str!("data/serve_fattree4_k2.requests.jsonl");
    let replies = include_str!("data/serve_fattree4_k2.replies.jsonl");
    assert_eq!(requests.lines().count(), replies.lines().count());
    for (request, golden) in requests.lines().zip(replies.lines()) {
        let reply = client
            .call(&request.replace("@TMP@", &dir))
            .expect("daemon answers");
        assert_eq!(normalised(&reply, &dir), golden, "{request}");
    }
    assert!(daemon.wait().expect("daemon exits").success());
    let warm = std::fs::read_to_string(scratch.0.join("warm.snapshot.json")).expect("snapshot");
    assert!(
        warm == include_str!("data/serve_fattree4_k2.warm.snapshot.json"),
        "the answer-warm snapshot moved ({} bytes)",
        warm.len()
    );
    assert_eq!(wrong_verdict_bits(&warm), (544, 0));
}

/// Every way a request line is refused before anything is answered — no,
/// wrong-typed and unknown `op`; each required member of each op dropped
/// and wrong-typed; `links`, `waypoints` and `queries` of every wrong
/// shape; the argument errors of `snapshot` and `reload`; lines that are
/// not JSON — with the reply the release binary of the commit before the
/// typed member accessors gave on each transport. A `bad_request` message
/// is all a client has to find its mistake with. The last line, a `reload`
/// of the empty configuration, was swapped in until the daemon refused
/// configurations without devices; its reply is the refusal.
#[test]
fn refused_requests_are_answered_with_the_parents_bytes() {
    let session = Session::builder(bonsai::srp::papernets::figure2_gadget())
        .options(SessionOptions {
            max_failures: 1,
            threads: 1,
            ..Default::default()
        })
        .build()
        .expect("gadget session builds");
    let slot = SessionSlot::new(session);
    let (options, gate) = (ServerOptions::default(), Gate::new(1));
    let requests = include_str!("data/refused.requests.jsonl");
    for (transport, replies) in [
        (
            Transport::Unix,
            include_str!("data/refused.unix.replies.jsonl"),
        ),
        (
            Transport::Tcp,
            include_str!("data/refused.tcp.replies.jsonl"),
        ),
    ] {
        assert_eq!(requests.lines().count(), replies.lines().count());
        for (request, golden) in requests.lines().zip(replies.lines()) {
            let (reply, stop) = answer_line(&slot, request, &options, &gate, transport);
            assert_eq!(
                (reply.as_str(), stop),
                (golden, false),
                "{transport:?}: {request}"
            );
        }
    }
}

/// `(verdicts checked, verdicts differing)` of a fattree-4 session
/// snapshot's answer tier against the concrete masked simulation — one cold
/// solve per recorded (class, scenario).
fn wrong_verdict_bits(snapshot: &str) -> (usize, usize) {
    let net = fattree(4, FattreePolicy::ShortestPath);
    let engine = SimEngine::new(&net);
    let envelope = Envelope::parse(snapshot).expect("the snapshot is an envelope");
    let (mut checked, mut wrong) = (0, 0);
    for class in envelope.payload.arr("verdicts").expect("the answer tier") {
        let rep = class.str("rep").expect("a prefix");
        let ec = engine.ecs.iter().find(|ec| ec.rep.to_string() == rep);
        for entry in class.arr("entries").expect("the class's entries") {
            let names = entry.pairs("links").expect("failed links");
            let pairs: Vec<(&str, &str)> = names
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            let mask = bonsai::topo::fail_links_by_name(&engine.topo, &pairs);
            let concrete = engine
                .reachability(ec.expect("a served class"), &QueryCtx::masked(Some(&mask)))
                .expect("the concrete network converges");
            let bits: String = concrete
                .iter()
                .map(|&d| if d { '1' } else { '0' })
                .collect();
            checked += 1;
            wrong += usize::from(entry.str("bits") != Ok(&bits));
        }
    }
    (checked, wrong)
}

#[test]
fn diff_documents_are_the_parents_bytes() {
    let incremental = DiffDoc {
        k: 2,
        threads: 1,
        nodes: 80,
        links: 256,
        ecs_total: 32,
        ecs_rederived: 2,
        reused: 30,
        fingerprints_moved: 1,
        full_rebuild: false,
        structural: None,
        changed_devices: vec!["edge0_0".into(), "we\"ird\\dev\n".into()],
        stages_evicted: 3,
        sigs_evicted: 8,
        tables_evicted: 1,
        rederived: vec![
            RederivedDoc {
                rep: "10.0.0.0/24".into(),
                scenarios: 32897,
                refinements: 44,
                derivations: 49,
            },
            RederivedDoc {
                rep: "10.0.1.0/24".into(),
                scenarios: 1,
                refinements: 0,
                derivations: 0,
            },
        ],
        full_s: 0.5,
        delta_s: 0.012345678,
    };
    let structural = DiffDoc {
        ecs_rederived: 32,
        reused: 0,
        full_rebuild: true,
        structural: Some("link \"a\"—b added\tor removed".into()),
        changed_devices: Vec::new(),
        rederived: Vec::new(),
        full_s: 12.0,
        delta_s: 0.0,
        ..incremental.clone()
    };
    for (doc, golden) in [
        (incremental, include_str!("data/diff_incremental.json")),
        (structural, include_str!("data/diff_structural.json")),
    ] {
        assert_eq!(doc.render(), golden);
    }
}

/// One line per record kind — a span, an event with fields, a bare event —
/// with a quote, a newline, a control byte and a backslash in the fields.
/// The tracer installs once per process: this is the only test here that
/// does, and it reads back only its own records.
#[test]
fn trace_records_are_the_parents_bytes() {
    let scratch = Scratch::new("trace");
    let path = scratch.0.join("trace.jsonl");
    bonsai::obs::trace_to(&path).expect("tracer installs");
    {
        let _g = bonsai::obs::span!(
            "golden.\"span\"",
            n = 7usize,
            label = "q\"uote\nline\u{1}ctl é\\"
        );
    }
    bonsai::obs::event!("golden.event", label = "tab\there\r", n = 3u32);
    bonsai::obs::event!("golden.bare");
    let written = std::fs::read_to_string(&path).expect("trace file");
    let mine: Vec<String> = written
        .lines()
        .filter(|line| line.contains("\"name\": \"golden."))
        .map(|line| zeroed(&zeroed(line, "ts_us"), "dur_us"))
        .collect();
    let golden: Vec<&str> = include_str!("data/trace_records.jsonl").lines().collect();
    assert_eq!(mine, golden);
}

/// A file of `[` used to overflow the reader's stack and abort the
/// process; it is a parse error like any other now.
#[test]
fn deeply_nested_files_are_exit_1_with_the_message() {
    let scratch = Scratch::new("deep");
    std::fs::write(scratch.0.join("deep.json"), "[".repeat(400_000)).expect("deep file");
    for line in [
        &["failures", "--merge", "deep.json", "deep.json"][..],
        &[
            "serve",
            "gen:gadget",
            "--socket",
            "b.sock",
            "--snapshot",
            "deep.json",
        ][..],
    ] {
        let out = scratch.bonsai(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line:?}: {stderr}");
        assert!(
            stderr.contains("nesting deeper than 64"),
            "{line:?}: {stderr}"
        );
    }
}
