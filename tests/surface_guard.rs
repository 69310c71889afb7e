//! One concept, one implementation (`docs/SURFACE.md`), held by reading
//! the tree: each kernel a past PR merged its twins into is defined once,
//! the paths that were cut stay cut, and the size ceilings hold. These
//! are structural counts over the first-party Rust sources — `crates/`
//! (without the vendored `crates/shims/`), `src/`, `tests/`, `examples/` —
//! not a list of retired names: a rename defeats a name, and a deleted
//! concept does not come back under its old one.

use std::path::Path;

/// One source file: its path from the repository root, and its text.
struct Source {
    path: String,
    text: String,
}

impl Source {
    /// Whether the file is compiled into a shipped crate (not a test, an
    /// example or a bench target).
    fn is_shipped(&self) -> bool {
        self.path.starts_with("src/")
            || (self.path.starts_with("crates/") && self.path.contains("/src/"))
    }

    /// The lines before the file's `#[cfg(test)]` module.
    fn shipped_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        let lines = self.text.lines().enumerate();
        lines.take_while(|(_, l)| !l.contains("#[cfg(test)]"))
    }
}

fn collect(root: &Path, dir: &Path, into: &mut Vec<Source>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let at = entry.expect("directory entry").path();
        let path = at.strip_prefix(root).expect("under the root");
        let path = path.to_str().expect("utf-8 path").to_string();
        if at.is_dir() {
            if path != "crates/shims" {
                collect(root, &at, into);
            }
        } else if path.ends_with(".rs") && path != "tests/surface_guard.rs" {
            let text = std::fs::read_to_string(&at).expect("utf-8 source");
            into.push(Source { path, text });
        }
    }
}

/// Every first-party `.rs` file but this one, sorted by path.
fn tree() -> Vec<Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        collect(root, &root.join(dir), &mut sources);
    }
    sources.sort_by(|a, b| a.path.cmp(&b.path));
    sources
}

/// `path:line` of every line under one of `roots` (path prefixes) that
/// contains `needle`.
fn lines_with(tree: &[Source], roots: &[&str], needle: &str) -> Vec<String> {
    let mut hits = Vec::new();
    for source in tree {
        if roots.iter().any(|root| source.path.starts_with(root)) {
            for (at, line) in source.text.lines().enumerate() {
                if line.contains(needle) {
                    hits.push(format!("{}:{}", source.path, at + 1));
                }
            }
        }
    }
    hits
}

const EVERYWHERE: &[&str] = &["crates/", "src/", "tests/", "examples/"];
const VERIFY: &[&str] = &["crates/verify/src/"];
const SESSION: &[&str] = &["crates/verify/src/session"];

#[test]
fn each_merged_kernel_is_defined_once() {
    let tree = tree();
    let equivalence: &[&str] = &["crates/verify/src/equivalence.rs"];
    for (needle, roots) in [
        // JSON escaping has one home, whatever the loop is called.
        ("fn json_escape", EVERYWHERE),
        ("u{:04x}", EVERYWHERE),
        // The refinement kernel has no twin (`_sigs`, `_fast`, `_v2`, …).
        ("fn refine_ec_with_split", EVERYWHERE),
        // A refinement is its partition (PR 21): partition → (network,
        // canonical solution) exists once.
        ("fn materialize(", VERIFY),
        // A scenario is answered on its own refinement (PR 22): one
        // split → partition body, the only caller of `refine_with_split`
        // in the crate, behind one verdict function.
        ("fn split_partition(", VERIFY),
        ("refine_with_split(", VERIFY),
        ("fn scenario_verdict(", &["crates/", "src/"]),
        // One search for a signature's representative: the count-respecting
        // walk behind every visit, tally and derivation.
        ("fn canonical_scenario(", EVERYWHERE),
        // One way to make a `Session` (PR 17): one struct literal (its
        // counter field is written once) behind one assembler, and names
        // become links through one orientation rule.
        ("verdict_cache_hits: AtomicUsize::new(", VERIFY),
        ("fn assemble", VERIFY),
        ("fn canonical_link(", EVERYWHERE),
        // One CP-equivalence oracle: where `h` comes from is an argument.
        ("fn check_cp_equivalence", equivalence),
    ] {
        let hits = lines_with(&tree, roots, needle);
        assert_eq!(hits.len(), 1, "`{needle}` exists once, found at {hits:?}");
    }
    // A refinement is its split: one struct literal, inside the one
    // constructor every producer calls with what it already has.
    let mut literals = Vec::new();
    for source in &tree {
        for (at, line) in source.text.lines().enumerate() {
            let named = line.contains("ScenarioRefinement {");
            let declared = ["struct ", "impl ", "-> "]
                .iter()
                .any(|d| line.contains(&format!("{d}ScenarioRefinement {{")));
            if named && !declared {
                literals.push(format!("{}:{}", source.path, at + 1));
            }
        }
    }
    assert_eq!(
        literals.len(),
        1,
        "`ScenarioRefinement` literals: {literals:?}"
    );
    // One refinement loop in the verifier: its shipped lines call the
    // kernel once, from the derivation every sweep, session and reference
    // derivation runs (the cache-free reference loop is the test oracle).
    let mut calls = Vec::new();
    for source in &tree {
        if !source.path.starts_with(VERIFY[0])
            || source.path == "crates/verify/src/sweep/reference.rs"
        {
            continue;
        }
        let mut within = "";
        for (at, line) in source.shipped_lines() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            let mut words = line.split_whitespace();
            if words.any(|w| w == "fn") {
                let name = words.next().unwrap_or("");
                within = name.split(['(', '<']).next().unwrap_or(name);
            }
            if line.contains("refine_ec_with_split(") {
                calls.push(format!("{}:{} in {within}", source.path, at + 1));
            }
        }
    }
    assert!(
        calls.len() == 1 && calls[0].ends_with(" in derive_scenario_refinement"),
        "the refinement kernel's callers in the verifier: {calls:?}"
    );
}

#[test]
fn the_refinement_kernel_takes_the_hoisted_signature_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/core/src/compress.rs");
    let text = std::fs::read_to_string(path).expect("the kernel's source");
    let body: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("pub fn refine_ec_with_split("))
        .take_while(|l| *l != "}")
        .collect();
    assert!(!body.is_empty(), "`pub fn refine_ec_with_split(` is gone");
    // Its body never goes back to the engine for a table.
    for line in body {
        assert!(
            !line.contains("sig_table") && !line.contains("CompiledPolicies"),
            "the kernel looks a signature table up: {line}"
        );
    }
}

#[test]
fn cut_paths_stay_cut() {
    let tree = tree();
    let none = |roots: &[&str], needle: &str| {
        let hits = lines_with(&tree, roots, needle);
        assert!(hits.is_empty(), "`{needle}` is back at {hits:?}");
    };
    // No eager abstract network or solution field beside the lazy cell.
    let sweep = &["crates/verify/src/sweep.rs"];
    none(sweep, "pub abstract_network");
    none(sweep, "pub abstract_solution");
    // Nor an eager partition field, nor a second way to hold a partition:
    // every refinement derives its own from its split and class handle.
    none(sweep, "pub abstraction: Abstraction");
    none(EVERYWHERE, "PartitionInputs");
    none(EVERYWHERE, "fn witnessed(");
    // A class context has one shape: it always warm-starts from its
    // failure-free fixpoint.
    none(EVERYWHERE, "fn warmed(");
    // The exhaustive representative search the walk replaced survives as
    // the walk's test oracle only.
    let oracle = lines_with(&tree, EVERYWHERE, "fn search_combinations(");
    assert!(
        oracle.len() == 1 && oracle[0].starts_with("crates/core/tests/"),
        "the exhaustive search is a test oracle only: {oracle:?}"
    );
    // A check builds the paper's abstract witness from each concrete
    // sample: the abstract-order search it replaced, its knob and the base
    // abstract fixpoint it started from survive as the check's test oracle
    // only.
    for name in [
        "abstract_orders",
        "transport_abstract_solution",
        "base_abs_solution",
        "fn first_sighting",
    ] {
        let hits = lines_with(&tree, EVERYWHERE, name);
        assert!(
            (hits.iter()).all(|h| h.starts_with("crates/verify/src/sweep/reference.rs:")),
            "`{name}` is back at {hits:?}"
        );
    }
    // The serving side never lifts a queried scenario onto a refinement
    // (the kernel's check and the bench keep the verified lift), and
    // every served scenario goes through the one verdict function.
    let engine = "crates/verify/src/sim_engine.rs";
    none(&[engine], "lift_failure_mask");
    none(SESSION, "lift_failure_mask");
    for caller in ["crates/verify/src/session.rs", engine, "src/bin/bonsai.rs"] {
        let calls = lines_with(&tree, &[caller], "scenario_verdict(");
        assert!(!calls.is_empty(), "{caller} answers without the verdict");
    }
    // A closed stdout is a BrokenPipe at the write site, not a panic hook
    // matching message text.
    let binary = &["src/bin/bonsai.rs"];
    none(binary, "set_hook");
    none(binary, "take_hook");
    // Declared flags, read through the one reader of the program: no
    // binary scans argv, no flag helper comes back beside the readers.
    let programs = &["src/bin/", "crates/bench/src/bin/"];
    none(programs, "any(|a| a ==");
    none(programs, "position(|a| a ==");
    for helper in ["fn usize_flag", "fn str_flag", "fn json_flag"] {
        none(&["src/", "crates/bench/src/"], helper);
    }
    // Every failure of `bonsai` leaves through `main`'s one exit site.
    let exits = lines_with(&tree, binary, "ExitCode::from(");
    assert!(exits.len() <= 2, "exit sites: {exits:?}");
    // Verification reads abstract networks as layouts: no numbering trait
    // lets it accept a rendered configuration instead, and no cache keeps
    // one rendered on read.
    none(EVERYWHERE, "AbstractNumbering");
    for needle in ["fn abstract_network(", "OnceLock<AbstractNetwork>"] {
        let hits = lines_with(&tree, &["crates/", "src/"], needle);
        let shipped: Vec<&String> = hits.iter().filter(|h| h.contains("src/")).collect();
        assert!(shipped.is_empty(), "`{needle}` is back at {shipped:?}");
    }
    // A configuration is rendered (`.render(` with arguments; `.render()`
    // writes a JSON document) by `build_abstract_network` and by the two
    // test oracles that compare it with the layout, nowhere else in the
    // library or the binary.
    let build = "crates/core/src/abstraction.rs";
    for source in &tree {
        let roots = ["crates/core/src/", "crates/verify/src/", "src/"];
        let oracle = [
            "crates/verify/src/sweep/lifted.rs",
            "crates/verify/src/sweep/reference.rs",
        ];
        if !roots.iter().any(|r| source.path.starts_with(r))
            || oracle.contains(&source.path.as_str())
        {
            continue;
        }
        let mut in_build = false;
        for (at, line) in source.text.lines().enumerate() {
            in_build = source.path == build
                && (line.starts_with("pub fn build_abstract_network(") || in_build && line != "}");
            let renders =
                (line.match_indices(".render(")).any(|(i, _)| !line[i..].starts_with(".render()"));
            assert!(
                !renders || in_build,
                "{}:{}: a configuration is rendered outside `build_abstract_network`",
                source.path,
                at + 1
            );
        }
    }
}

#[test]
fn no_json_object_is_opened_by_hand() {
    // One JSON writer (`bonsai_obs::json`, re-exported by
    // `core::snapshot`): outside its own file no shipped line opens an
    // object literal in a format string.
    for source in tree() {
        if !source.is_shipped() || source.path == "crates/obs/src/json.rs" {
            continue;
        }
        for (at, line) in source.shipped_lines() {
            assert!(
                !line.contains("{{\\\"") && !line.contains("\"{\\\""),
                "{}:{}: build JSON with `write_object`: {line}",
                source.path,
                at + 1
            );
        }
    }
}

#[test]
fn members_are_read_through_the_typed_accessors() {
    // One member reader (`core::snapshot::Json::{str, usize, …, opt_*}`)
    // decides what absent and wrong-typed mean: outside its file no
    // shipped line chains `get` into a value conversion, and none of the
    // per-document helpers over a `Json` comes back beside it.
    let helpers = [
        "fn usize_of(",
        "fn str_of(",
        "fn bool_of(",
        "fn f64_of(",
        "fn parse_links(",
        "fn named_links(",
    ];
    for source in tree() {
        if !source.is_shipped() || source.path == "crates/core/src/snapshot.rs" {
            continue;
        }
        for (at, line) in source.shipped_lines() {
            let helper = line.contains("Json") && helpers.iter().any(|h| line.contains(h));
            assert!(
                !helper && !line.contains(".and_then(Json::as_"),
                "{}:{}: read members with the `Json` accessors: {line}",
                source.path,
                at + 1
            );
        }
    }
}

#[test]
fn the_session_layer_stays_under_its_line_ceilings() {
    for source in tree() {
        let ceiling = match source.path.as_str() {
            "crates/verify/src/session.rs" => 1200,
            path if path.starts_with("crates/verify/src/session/") => 800,
            _ => continue,
        };
        let lines = source.text.lines().count();
        assert!(lines <= ceiling, "{}: {lines} > {ceiling}", source.path);
    }
}
