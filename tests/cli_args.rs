//! The `bonsai` command line is one declared table (`bonsai::cli::args`):
//! every command line the repository documents or runs parses under it,
//! every misread command line of the hand-parsed era is exit status 2
//! with the offender named, and the synopses README and
//! `docs/OPERATIONS.md` print are the generated ones.

use bonsai::cli::args::{self, Arity, Command, Invocation, Matches, COMMANDS, TRACE};
use bonsai::cli::FailuresDoc;
use bonsai::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Output;

fn argv(line: &[&str]) -> Vec<String> {
    line.iter().map(|a| a.to_string()).collect()
}

/// A command line written as one string, split at whitespace.
fn words(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

fn parsed(line: &[&str]) -> Matches {
    match args::resolve(&argv(line)) {
        Ok(Invocation::Run(m)) => m,
        other => panic!("{line:?} does not parse: {other:?}"),
    }
}

fn rejected(line: &[&str]) -> String {
    match args::resolve(&argv(line)) {
        Err(e) => e.0,
        Ok(other) => panic!("{line:?} is accepted: {other:?}"),
    }
}

/// A fresh scratch directory, removed when the guard drops.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("bonsai-cli-args-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        Scratch(dir)
    }

    /// Runs the built `bonsai` with the scratch directory as its cwd.
    fn bonsai(&self, line: &[&str]) -> Output {
        std::process::Command::new(env!("CARGO_BIN_EXE_bonsai"))
            .args(line)
            .current_dir(&self.0)
            .output()
            .expect("bonsai runs")
    }

    fn entries(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.0)
            .expect("scratch directory lists")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every `bonsai …` command line of `.github/workflows/ci.yml`, README,
/// `docs/*.md`, `.claude/skills/verify/SKILL.md`, the three child shapes
/// `sysbench/` spawns and `tests/closed_stdout.rs`, as literals (split at
/// whitespace): a table edit that rejects one of them breaks a documented
/// or benchmarked invocation.
const CORPUS: &[&str] = &[
    // ci.yml
    "print gen:fattree8",
    "diff f8.cfg f8-edited.cfg --failures 2 --json diff.json",
    "compress gen:datacenter --out d1",
    "ecs d1/10.0.71.0_24.cfg",
    "metrics --socket /tmp/no-such-daemon.sock",
    "metrics --socket /tmp/no-such-daemon.sock --fallback",
    "failures gen:fattree4 --failures 2 --threads 1 --shard 0/2 --json shard0.json",
    "failures gen:fattree4 --failures 2 --threads 1 --shard 1/2 --json shard1.json",
    "failures --merge shard0.json shard1.json --json merged.json",
    "failures gen:fattree4 --failures 2 --threads 1 --json unsharded.json",
    "failures gen:fattree4 --failures 2 --aggregate",
    "serve gen:fattree4 --socket /tmp/bonsaid.sock --failures 1",
    "query --socket /tmp/bonsaid.sock --ping --reach edge0_0:edge1_1 --sweep edge0_1:edge1_0 \
     --all-pairs --fail agg0_0:core0",
    "print gen:fattree4",
    "query --socket /tmp/bonsaid.sock --reload /tmp/f4-reload.cfg",
    "metrics --socket /tmp/bonsaid.sock",
    "query --socket /tmp/bonsaid.sock --stats --shutdown",
    "serve gen:fattree4 --socket /tmp/bonsaid-warm.sock --tcp 127.0.0.1:4617 --failures 1 \
     --snapshot /tmp/bonsaid-snap.json",
    "query --socket /tmp/bonsaid-warm.sock --reach edge0_0:edge1_1 --path edge0_0:edge1_1 \
     --via agg1_0 --via agg1_1 --all-pairs --fail agg0_0:core0",
    "query --tcp 127.0.0.1:4617 --reach edge0_0:edge1_1 --path edge0_0:edge1_1 \
     --via agg1_0 --via agg1_1 --all-pairs --fail agg0_0:core0",
    "metrics --tcp 127.0.0.1:4617",
    "query --socket /tmp/bonsaid-warm.sock --shutdown",
    "serve gen:fattree4 --socket /tmp/bonsaid-warm.sock --failures 1 \
     --snapshot /tmp/bonsaid-snap.json",
    "query --socket /tmp/bonsaid-warm.sock --stats",
    // README.md
    "failures configs/ --failures 2 --threads 8",
    "failures net.cfg --query a:d --json report.json",
    "failures gen:fattree8 --failures 3 --threads 1 --aggregate",
    "failures net.cfg --failures 3 --threads 1 --shard 0/3 --json s0.json",
    "failures --merge s0.json s1.json s2.json --json full.json",
    "serve gen:fattree4 --socket /tmp/bonsaid.sock --failures 1 --snapshot snap.json",
    "query --socket /tmp/bonsaid.sock --reach edge0_0:edge1_1 --fail agg0_0:core0",
    "diff old.cfg new.cfg",
    // docs/OPERATIONS.md, docs/OBSERVABILITY.md
    "serve net.cfg --socket /run/bonsaid.sock --tcp 127.0.0.1:4617 --failures 2 --threads 4 \
     --pruned --snapshot /var/lib/bonsai/snap.json --max-inflight 64 \
     --max-request-bytes 1048576 --max-batch 4096 --max-requests 0 --idle-timeout 300",
    "query --socket /run/bonsaid.sock --stats",
    "diff network.cfg network.new.cfg --failures 2",
    "query --socket /run/bonsaid.sock --reload /etc/bonsai/network.new.cfg",
    "metrics --socket /run/bonsaid.sock",
    "compress net.cfg --trace spans.jsonl",
    // .claude/skills/verify/SKILL.md
    "compress /tmp/campus.cfg --out /tmp/abs_out",
    "check /tmp/campus.cfg",
    "ecs /tmp/abs_out/10.10.0.0_24.cfg",
    "failures /tmp/campus.cfg --failures 2 --query acc1:core",
    "failures /tmp/campus.cfg --json",
    "serve gen:fattree4 --socket /tmp/b.sock --failures 1 --snapshot /tmp/s.json",
    "query --socket /tmp/b.sock --stats --shutdown",
    // sysbench/src/{workloads,trace,daemon}.rs
    "compress dcpolicy.cfg --out out",
    "compress dcpolicy.cfg --out out --trace t.jsonl",
    "failures ft6pb.cfg --failures 1 --threads 1 --json doc.json",
    "failures ft6pb.cfg --failures 1 --threads 1 --json doc.json --trace t.jsonl",
    "failures ft8.cfg --failures 2 --threads 1 --aggregate",
    "failures ft8.cfg --failures 2 --threads 1 --aggregate --trace t.jsonl",
    "serve ft8.cfg --socket d.sock --failures 2 --threads 1 --idle-timeout 0",
    // tests/closed_stdout.rs
    "failures gen:fattree4 --failures 1 --aggregate",
    "ecs gen:fattree4",
    // Every other flag the table declares, once.
    "roles net.cfg --strip-unused-communities --ignore-static",
    "check net.cfg --strip-unused-communities",
    "failures net.cfg --pruned --no-share --chunk-size 64 --strip-unused-communities",
];

#[test]
fn every_documented_command_line_parses() {
    for line in CORPUS {
        let line = words(line);
        assert_eq!(parsed(&line).command().name, line[0]);
    }
    // README's raw request: one argument, spaces and all.
    let request = r#"{"op": "all_pairs", "links": [["core0", "agg1_0"]]}"#;
    let m = parsed(&["query", "--socket", "/tmp/bonsaid.sock", request]);
    assert_eq!(m.positionals(), [request]);
    // Raw request lines stay positional, and come out in order.
    let m = parsed(&[
        "query",
        "--socket",
        "s",
        "{\"op\": \"ping\"}",
        "--stats",
        "{}",
    ]);
    assert_eq!(m.positionals(), ["{\"op\": \"ping\"}", "{}"]);
    assert!(m.switch("--stats"));
    // `--merge` takes everything up to the next flag; `--json` may be bare.
    let m = parsed(&["failures", "--merge", "a", "b", "c", "--json"]);
    assert_eq!(m.values("--merge"), ["a", "b", "c"]);
    assert_eq!(m.optional("--json"), Some(None));
    assert!(m.positionals().is_empty());
    let m = parsed(&["diff", "a", "b", "--json", "d.json", "--threads", "3"]);
    assert_eq!(m.optional("--json"), Some(Some("d.json")));
    assert_eq!(m.parsed("--threads", 0usize), Ok(3));
    assert_eq!(m.parsed("--failures", 1usize), Ok(1));
    let m = parsed(&[
        "query", "--tcp", "h:1", "--fail", "a:b", "--fail", "c:d", "--path", "x:y",
    ]);
    assert_eq!(m.pairs("--fail"), Ok(vec![("a", "b"), ("c", "d")]));
    assert_eq!(m.pair("--path"), Ok(Some(("x", "y"))));
    assert_eq!(m.pair("--reach"), Ok(None));
    assert_eq!(m.value("--socket"), None);
}

#[test]
fn the_table_is_ten_commands_and_thirty_three_flags() {
    assert_eq!(COMMANDS.len(), 10);
    let mut flags: BTreeSet<&str> = COMMANDS
        .iter()
        .flat_map(|row| row.flags.iter().map(|f| f.name))
        .collect();
    flags.insert(TRACE.name);
    assert_eq!(flags.len(), 33, "{flags:?}");
    for row in COMMANDS {
        let names: BTreeSet<&str> = row.flags.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), row.flags.len(), "{} repeats a flag", row.name);
        assert!(
            !names.contains(TRACE.name),
            "{} redeclares --trace",
            row.name
        );
    }
}

/// The binary reads flags only through `Matches`, whose accessors panic on
/// a flag the row does not declare (or declares with another arity) — so
/// the names it reads must be the names the table declares, both ways.
#[test]
fn the_binary_reads_exactly_the_declared_flags() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin/bonsai.rs");
    let source = std::fs::read_to_string(path).expect("the binary's source");
    let code: String = source
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let mut read = BTreeSet::new();
    for (at, _) in code.match_indices("\"--") {
        let name: String = code[at + 1..]
            .chars()
            .take_while(|c| *c == '-' || c.is_ascii_lowercase())
            .collect();
        read.insert(name);
    }
    let mut declared: BTreeSet<String> = COMMANDS
        .iter()
        .flat_map(|row| row.flags.iter().map(|f| f.name.to_string()))
        .collect();
    declared.insert(TRACE.name.to_string());
    assert_eq!(read, declared);
}

#[test]
#[should_panic(expected = "its row declares None")]
fn reading_an_undeclared_flag_is_a_bug() {
    parsed(&["ecs", "net.cfg"]).switch("--pruned");
}

#[test]
#[should_panic(expected = "its row declares Some(Value)")]
fn reading_a_flag_with_the_wrong_arity_is_a_bug() {
    parsed(&["failures", "net.cfg"]).switch("--failures");
}

#[test]
fn misread_command_lines_are_rejected_with_the_flag_named() {
    for (line, named) in [
        (
            "failures gen:fattree4 --failures 1 --prunned --aggregate",
            "`--prunned`",
        ),
        ("compress gen:gadget --out", "--out needs a value"),
        (
            "compress gen:gadget --out --strip-unused-communities",
            "--out needs a value",
        ),
        ("ecs gen:gadget --failures 3 --json", "`--failures`"),
        ("diff a b --pruned --bogus 7", "`--pruned`"),
        (
            "failures g --failures 1 --failures 2",
            "--failures given twice",
        ),
        ("query --socket s --fail --via x", "--fail needs a value"),
        ("query --socket s --via --stats", "--via needs a value"),
        ("failures --merge --json m.json", "--merge needs a value"),
        ("print", "missing <network>"),
        ("diff a", "missing <new>"),
        ("ecs a.cfg b.cfg", "unexpected argument `b.cfg`"),
        ("metrics stray", "unexpected argument `stray`"),
        ("frobnicate gen:fattree4", "unknown command `frobnicate`"),
        ("", "missing command"),
    ] {
        let line = &words(line)[..];
        let message = rejected(line);
        assert!(message.contains(named), "{line:?}: {message}");
        // The usage text follows: the row's synopsis, or the whole table.
        let usage = match line.first().and_then(|name| Command::named(name)) {
            Some(row) => args::synopsis(row),
            None => args::help(),
        };
        assert!(message.ends_with(&usage), "{line:?}: {message}");
    }
    // A malformed value is the subcommand's error, with the same shape.
    let m = parsed(&["failures", "g", "--failures", "many", "--query", "nocolon"]);
    let e = m.parsed("--failures", 1usize).unwrap_err().0;
    assert!(e.starts_with("--failures: invalid digit"), "{e}");
    let e = m.pair("--query").unwrap_err().0;
    assert!(
        e.starts_with("--query expects <src>:<dst>, got `nocolon`"),
        "{e}"
    );
}

/// (row × value-taking flag): the flag as the last argument, and the flag
/// followed by another flag, are both `… needs a value`.
#[test]
fn every_value_taking_flag_needs_its_value() {
    for row in COMMANDS {
        let positionals = vec!["a"; row.args.matches('<').count()];
        for flag in row.flags.iter().chain([&TRACE]) {
            if matches!(flag.arity, Arity::Switch | Arity::Optional) {
                continue;
            }
            let mut line = vec![row.name];
            line.extend(&positionals);
            line.push(flag.name);
            let want = format!("{} needs a value", flag.name);
            assert!(rejected(&line).starts_with(&want), "{line:?}");
            line.push("--trace");
            assert!(rejected(&line).starts_with(&want), "{line:?}");
        }
    }
}

/// The probes of ISSUE 19, through the built binary: each exited 0 (or
/// wrote into a directory named like a flag) before the table; each is
/// now exit 2 with nothing on stdout and nothing created.
#[test]
fn the_binary_fails_closed() {
    let scratch = Scratch::new("probes");
    for (line, named) in [
        (
            "failures gen:fattree4 --failures 1 --prunned --aggregate",
            "--prunned",
        ),
        ("compress gen:gadget --out", "--out"),
        (
            "compress gen:gadget --out --strip-unused-communities",
            "--out",
        ),
        ("ecs gen:gadget --failures 3 --json", "--failures"),
        ("diff a b --pruned --bogus 7", "--pruned"),
        (
            "failures gen:gadget --failures 1 --failures 2",
            "--failures",
        ),
        ("failures gen:gadget --shard 0/2", "requires --json"),
        ("failures gen:gadget --aggregate --json", "drop --json"),
        ("failures", "missing network file"),
        ("serve gen:gadget", "serve needs --socket"),
        ("query --ping", "query needs --socket"),
        (
            "frobnicate no/such/file.cfg",
            "unknown command `frobnicate`",
        ),
        ("--version", "unknown command `--version`"),
    ] {
        let line = &words(line)[..];
        let out = scratch.bonsai(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{line:?} printed");
        assert!(stderr.contains(named), "{line:?}: {stderr}");
        assert!(
            !stderr.contains("cannot read"),
            "{line:?} read a file: {stderr}"
        );
        assert!(
            stderr.contains("bonsai "),
            "{line:?} shows no usage: {stderr}"
        );
    }
    assert_eq!(scratch.entries(), Vec::<String>::new());

    // A failure that is not the command line's is still exit 1.
    let out = scratch.bonsai(&["ecs", "no/such/file.cfg"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("cannot read no/such/file.cfg"));

    for line in [&["help"][..], &["--help"][..]] {
        let out = scratch.bonsai(line);
        assert_eq!(out.status.code(), Some(0));
        assert!(out.stderr.is_empty());
        assert_eq!(String::from_utf8_lossy(&out.stdout), args::help());
    }
    for row in COMMANDS {
        assert!(args::help().contains(&format!("\nbonsai {:<8} ", row.name)));
        let out = scratch.bonsai(&[row.name, "--bogus", "--help"]);
        assert_eq!(out.status.code(), Some(0));
        assert_eq!(String::from_utf8_lossy(&out.stdout), args::synopsis(row));
    }
}

/// `failures --json` prints the document the library renders, and the
/// merge of its two shard documents prints the same bytes: the flag
/// handling adds nothing to, and drops nothing from, the document path.
#[test]
fn failures_json_is_the_rendered_document() {
    let net = bonsai::srp::papernets::figure2_gadget();
    let topo = BuiltTopology::build(&net).expect("gadget builds");
    let report = compress(&net, CompressOptions::default());
    let options = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: 1,
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let sweep = sweep_network(&net, &topo, &report, &options).expect("gadget sweeps");
    let expected = FailuresDoc::from_sweep(&topo, &sweep, false, true, Vec::new()).render();

    let scratch = Scratch::new("json");
    let base = [
        "failures",
        "gen:gadget",
        "--failures",
        "1",
        "--threads",
        "1",
    ];
    let out = scratch.bonsai(&[&base[..], &["--json"]].concat());
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);

    for (shard, file) in [("0/2", "s0.json"), ("1/2", "s1.json")] {
        let out = scratch.bonsai(&[&base[..], &["--shard", shard, "--json", file]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert!(String::from_utf8_lossy(&out.stdout).ends_with(&format!("wrote {file}\n")));
    }
    let out = scratch.bonsai(&["failures", "--merge", "s1.json", "s0.json"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    let out = scratch.bonsai(&[
        "failures", "--merge", "s0.json", "s1.json", "--json", "m.json",
    ]);
    assert_eq!(String::from_utf8_lossy(&out.stdout), "wrote m.json\n");
    assert_eq!(
        std::fs::read_to_string(scratch.0.join("m.json")).unwrap(),
        expected
    );
    assert_eq!(scratch.entries(), ["m.json", "s0.json", "s1.json"]);
}

/// README's CLI block is `bonsai help` verbatim and the `serve` synopsis
/// of `docs/OPERATIONS.md` is the generated one: a flag added to the table
/// without the documents (or the reverse) fails here, with the text to
/// paste.
#[test]
fn the_documents_quote_the_generated_synopses() {
    let read = |file: &str| {
        let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    let help = args::help();
    assert!(
        read("README.md").contains(&format!("```text\n{help}```")),
        "README.md's CLI block is not `bonsai help`; it should read:\n{help}"
    );
    let serve = args::synopsis(Command::named("serve").expect("serve is a row"));
    assert!(
        read("docs/OPERATIONS.md").contains(&format!("```text\n{serve}```")),
        "docs/OPERATIONS.md's serve synopsis drifted; it should read:\n{serve}"
    );
    for line in help.lines() {
        assert!(line.chars().count() <= 80, "wider than 80 columns: {line}");
    }
}
