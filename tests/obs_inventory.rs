//! Pins `docs/OBSERVABILITY.md` to the actual metric inventory: every
//! entry of [`bonsai::obs::METRICS`] must appear in the document's
//! inventory tables with its declared type, and the tables must not
//! advertise metrics the registry dropped. Growing the telemetry
//! surface without updating the written contract fails here — same
//! pin as `tests/protocol_docs.rs` for the wire protocol.

use bonsai::obs::METRICS;

fn observability_doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/OBSERVABILITY.md");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The backticked first cell of every inventory table row, i.e. lines
/// shaped `| `name` | type | meaning |` after the `## Metric inventory`
/// heading.
fn documented_rows(doc: &str) -> Vec<(String, String)> {
    let section = doc
        .split("## Metric inventory")
        .nth(1)
        .and_then(|rest| rest.split("## Structured tracing").next())
        .expect("OBSERVABILITY.md keeps its inventory / tracing sections");
    section
        .lines()
        .filter_map(|line| {
            let mut cells = line.split('|').map(str::trim).skip(1);
            let name = cells.next()?;
            let kind = cells.next()?;
            let name = name.strip_prefix('`')?.strip_suffix('`')?;
            Some((name.to_string(), kind.to_string()))
        })
        .collect()
}

#[test]
fn every_metric_is_documented_with_its_type() {
    let doc = observability_doc();
    let rows = documented_rows(&doc);
    for def in METRICS {
        let row = rows.iter().find(|(name, _)| name == def.name);
        match row {
            None => panic!(
                "docs/OBSERVABILITY.md lacks an inventory row for `{}`",
                def.name
            ),
            Some((_, kind)) => assert_eq!(
                kind,
                def.kind.as_str(),
                "docs/OBSERVABILITY.md documents `{}` as a {kind}, code says {}",
                def.name,
                def.kind.as_str()
            ),
        }
    }
}

#[test]
fn documented_metrics_exist() {
    let doc = observability_doc();
    for (name, _) in documented_rows(&doc) {
        assert!(
            METRICS.iter().any(|def| def.name == name),
            "docs/OBSERVABILITY.md documents `{name}`, which the registry does not define"
        );
    }
}

#[test]
fn inventory_spans_the_advertised_layers() {
    // The acceptance bar the docs promise: at least 20 metrics covering
    // the bdd, engine, compress, sweep, session and daemon layers.
    assert!(METRICS.len() >= 20, "inventory shrank to {}", METRICS.len());
    for layer in [
        "bdd.",
        "engine.",
        "compress.",
        "sweep.",
        "session.",
        "daemon.",
    ] {
        assert!(
            METRICS.iter().any(|def| def.name.starts_with(layer)),
            "no metric in layer {layer}"
        );
    }
}

/// Every span name the shipped code opens (`span!("…"` under `src/` and
/// `crates/*/src/`, outside test modules) has a row in the document's span
/// table, and the table has no other rows.
#[test]
fn span_names_match_the_documented_table() {
    let doc = observability_doc();
    let section = doc
        .split("## Structured tracing")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("OBSERVABILITY.md keeps its tracing section");
    let documented: std::collections::BTreeSet<String> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .map(str::to_string)
        .collect();
    let root = env!("CARGO_MANIFEST_DIR");
    let mut dirs = vec![std::path::PathBuf::from(root).join("src")];
    for crate_dir in std::fs::read_dir(format!("{root}/crates")).unwrap() {
        dirs.push(crate_dir.unwrap().path().join("src"));
    }
    let mut opened = std::collections::BTreeSet::new();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                let shipped = text.split("#[cfg(test)]").next().unwrap_or_default();
                // `span!(` then the name literal, possibly on the next line;
                // doc comments (the macro's own example) do not count.
                let code: String = shipped
                    .lines()
                    .filter(|l| !l.trim_start().starts_with("//"))
                    .collect();
                for rest in code.split("span!(").skip(1) {
                    if let Some(name) = rest.trim_start().strip_prefix('"') {
                        opened.insert(name.split('"').next().unwrap().to_string());
                    }
                }
            }
        }
    }
    assert_eq!(
        opened, documented,
        "span names in code vs docs/OBSERVABILITY.md"
    );
}
