//! Hostile bytes on the wire. Arbitrary byte strings, and truncated,
//! duplicated-member, wrong-typed, member-dropping and byte-spliced
//! mutations of a well-formed request for every op the daemon serves, go
//! to `answer_line` directly — outside the connection loop's panic
//! isolation, so a handler panic fails the test instead of becoming an
//! `internal` reply. Whatever arrives, the reply is one JSON object on
//! one line with a boolean `ok`, an error carries a declared `code`, and
//! the session answers the golden `reach` byte for byte afterwards.

use bonsai::core::snapshot::{json_escape, Json};
use bonsai::daemon::{
    answer_line, Gate, ServerOptions, SessionSlot, Transport, ERROR_CODES, PROTOCOL_OPS,
};
use bonsai::prelude::*;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// A request as its members in order: key, rendered JSON value.
type Request = Vec<(&'static str, String)>;

const GOLDEN: &str = r#"{"op": "reach", "src": "a", "dst": "d", "links": [["d", "b1"]]}"#;

struct Fixture {
    slot: SessionSlot,
    options: ServerOptions,
    gate: Gate,
    /// The reply to [`GOLDEN`] before anything hostile arrived.
    golden: String,
    requests: Vec<Request>,
}

/// The gadget at `k = 1` behind a slot, and one well-formed request per
/// op (two for `reload`). The file-naming ones point below a directory
/// that does not exist: on the Unix socket they are `io` errors and
/// nothing is written whatever a mutation does to the path. One case at
/// a time holds it: a case may push another network and push the gadget
/// back, and the tests of this file run on parallel threads.
fn fixture() -> MutexGuard<'static, Fixture> {
    static FIXTURE: OnceLock<Mutex<Fixture>> = OnceLock::new();
    let fixture = FIXTURE.get_or_init(|| {
        let gadget = bonsai::srp::papernets::figure2_gadget();
        let config = format!("\"{}\"", json_escape(&print_network(&gadget)));
        let session = Session::builder(gadget)
            .options(SessionOptions {
                max_failures: 1,
                threads: 1,
                ..Default::default()
            })
            .build()
            .expect("gadget session builds");
        let request = |members: &[(&'static str, &str)]| -> Request {
            let members = members.iter().map(|(k, v)| (*k, v.to_string()));
            members.collect()
        };
        let (a, d) = ("\"a\"", "\"d\"");
        let links = r#"[["d", "b1"]]"#;
        let queries = r#"[{"op": "sweep", "src": "a", "dst": "d"}, {"op": "all_pairs"}]"#;
        let nowhere = "\"/no-such-directory-bonsai-hostile/file\"";
        let requests = vec![
            request(&[("op", "\"ping\"")]),
            request(&[("op", "\"stats\"")]),
            request(&[("op", "\"metrics\"")]),
            request(&[("op", "\"reach\""), ("src", a), ("dst", d), ("links", links)]),
            request(&[("op", "\"sweep\""), ("src", a), ("dst", d)]),
            request(&[("op", "\"all_pairs\""), ("links", links)]),
            request(&[
                ("op", "\"path\""),
                ("src", a),
                ("dst", d),
                ("links", links),
                ("waypoints", r#"["b1", "b2", "b3"]"#),
            ]),
            request(&[("op", "\"batch\""), ("queries", queries)]),
            request(&[("op", "\"snapshot\""), ("path", nowhere)]),
            request(&[("op", "\"reload\""), ("config", &config)]),
            request(&[("op", "\"reload\""), ("path", nowhere)]),
            request(&[("op", "\"shutdown\"")]),
        ];
        let slot = SessionSlot::new(session);
        let (options, gate) = (ServerOptions::default(), Gate::new(2));
        let (golden, _) = answer_line(&slot, GOLDEN, &options, &gate, Transport::Unix);
        assert_eq!(
            golden,
            r#"{"ok": true, "op": "reach", "answers": [{"prefix": "10.0.0.0/24", "delivered": true}]}"#
        );
        Mutex::new(Fixture {
            slot,
            options,
            gate,
            golden,
            requests,
        })
    });
    fixture.lock().unwrap_or_else(PoisonError::into_inner)
}

fn render(request: &Request) -> String {
    let members: Vec<String> = request
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// Values of the wrong type, or of the right type and the wrong shape.
const WRONG: &[&str] = &[
    "7",
    "-1.5e300",
    "null",
    "true",
    "\"\"",
    "\"zz\"",
    "[]",
    "{}",
    "[[1]]",
    "[[\"a\"]]",
    "[\"a\", [\"b\"]]",
    "{\"op\": \"ping\"}",
    "[{\"op\": \"sweep\", \"src\": \"a\"}]",
    "[{\"op\": \"batch\", \"queries\": []}]",
];

/// One mutation of `request`, picked and placed by `kind`, `a`, `b`.
fn mutated(mut request: Request, kind: usize, a: usize, b: usize, bytes: &[u8]) -> String {
    let member = a % request.len();
    let wrong = WRONG[b % WRONG.len()].to_string();
    match kind {
        0 => {
            let line = render(&request).into_bytes();
            return String::from_utf8_lossy(&line[..a % (line.len() + 1)]).into_owned();
        }
        1 => {
            let copy = request[member].clone();
            request.insert(b % (request.len() + 1), copy);
        }
        2 => request.insert(b % (request.len() + 1), (request[member].0, wrong)),
        3 => request[member].1 = wrong,
        4 => {
            request.remove(member);
        }
        _ => {
            let mut line = render(&request).into_bytes();
            let at = a % (line.len() + 1);
            line.splice(at..at, bytes.iter().copied());
            return String::from_utf8_lossy(&line).into_owned();
        }
    }
    render(&request)
}

/// Sends `line` and holds the reply, and the session after it, to the
/// contract.
fn answered_in_contract(line: &str, transport: Transport) -> Result<(), TestCaseError> {
    let f = fixture();
    let (reply, _) = answer_line(&f.slot, line, &f.options, &f.gate, transport);
    prop_assert!(!reply.contains('\n'), "{line:?} -> {reply:?}");
    let doc = Json::parse(&reply);
    prop_assert!(matches!(doc, Ok(Json::Obj(_))), "{line:?} -> {reply:?}");
    let doc = doc.expect("just matched");
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => {}
        Some(false) => {
            let code = doc.get("code").and_then(Json::as_str).unwrap_or("");
            prop_assert!(ERROR_CODES.contains(&code), "{line:?} -> {reply:?}");
        }
        None => prop_assert!(false, "no boolean `ok`: {line:?} -> {reply:?}"),
    }
    if reply.starts_with(r#"{"ok": true, "op": "reload""#) {
        // A mutation can spell a well-formed push of another network (an
        // empty `config` is the empty network): a state change the client
        // asked for, not damage. Pushing the gadget back must undo it.
        let push = f
            .requests
            .iter()
            .find(|r| r.iter().any(|(key, _)| *key == "config"));
        let push = render(push.expect("the inline reload"));
        let (restored, _) = answer_line(&f.slot, &push, &f.options, &f.gate, transport);
        prop_assert!(restored.starts_with(r#"{"ok": true"#), "{restored}");
    }
    let (golden, _) = answer_line(&f.slot, GOLDEN, &f.options, &f.gate, transport);
    prop_assert_eq!(&golden, &f.golden, "after {:?}", line);
    Ok(())
}

#[test]
fn every_op_has_a_well_formed_request_to_mutate() {
    let f = fixture();
    for op in PROTOCOL_OPS {
        let quoted = format!("\"{op}\"");
        assert!(
            f.requests.iter().any(|r| r[0] == ("op", quoted.clone())),
            "no request for op {op}"
        );
    }
    for request in &f.requests {
        let line = render(request);
        let (reply, _) = answer_line(&f.slot, &line, &f.options, &f.gate, Transport::Unix);
        let names_a_file = request.iter().any(|(key, _)| *key == "path");
        let expected = if names_a_file {
            r#"{"ok": false, "code": "io""#
        } else {
            r#"{"ok": true, "op": ""#
        };
        assert!(reply.starts_with(expected), "{line} -> {reply}");
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_answered_in_contract(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        tcp in any::<bool>(),
    ) {
        let transport = if tcp { Transport::Tcp } else { Transport::Unix };
        // What the connection loop hands over: the line, lossily decoded.
        answered_in_contract(&String::from_utf8_lossy(&bytes), transport)?;
    }

    #[test]
    fn mutated_requests_are_answered_in_contract(
        which in any::<usize>(),
        kind in 0usize..6,
        a in any::<usize>(),
        b in any::<usize>(),
        bytes in prop::collection::vec(any::<u8>(), 1..24),
        tcp in any::<bool>(),
    ) {
        let request = {
            let requests = &fixture().requests;
            requests[which % requests.len()].clone()
        };
        let transport = if tcp { Transport::Tcp } else { Transport::Unix };
        answered_in_contract(&mutated(request, kind, a, b, &bytes), transport)?;
    }
}
