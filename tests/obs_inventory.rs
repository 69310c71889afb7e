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
