//! # bonsai-obs
//!
//! The workspace telemetry spine: one process-wide registry of counters,
//! gauges and latency histograms behind stable dotted names, plus a
//! structured span/event tracer with a JSONL sink.
//!
//! Observability in this workspace used to be fragmented — `BddStats`,
//! `EngineStats`, `SweepSummary`, `SessionStats` and the daemon's
//! hand-rolled `stats` rendering each carried their own counters with no
//! shared surface. This crate is the one place they all land:
//!
//! * **Registry** — every metric is declared once in [`METRICS`], the
//!   inventory `docs/OBSERVABILITY.md` is pinned to (the same contract
//!   `tests/protocol_docs.rs` enforces for the wire protocol). Cells are
//!   plain `AtomicU64`s; the hot-path cost of an update is one atomic
//!   RMW. Layers either increment directly at the site
//!   ([`add`]/[`observe`]) or publish a point-in-time stats struct into
//!   the registry at their natural snapshot points ([`set`]).
//! * **Exposition** — [`render_prometheus`] renders the whole registry
//!   as Prometheus text exposition format v0 (dotted names become
//!   underscore names: `bdd.apply.hits` → `bdd_apply_hits`). The daemon
//!   serves it as the `metrics` op; `bonsai metrics` prints it.
//! * **Tracer** — [`span!`]/[`event!`] emit JSONL records (monotonic
//!   `ts_us` since the sink was installed) to the file given to
//!   [`trace_to`], behind `--trace <path>` on the CLI. When no sink is
//!   installed the macros cost one relaxed atomic load — tracing is
//!   zero-cost-when-disabled and never touches computed results, so
//!   traced runs stay byte-identical to untraced ones.
//!
//! ```
//! bonsai_obs::add("daemon.requests.total", 1);
//! bonsai_obs::observe("daemon.query.latency_us", 42);
//! let text = bonsai_obs::render_prometheus();
//! assert!(text.contains("# TYPE daemon_requests_total counter"));
//! assert!(text.contains("daemon_query_latency_us_bucket{le=\"64\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Inventory
// ---------------------------------------------------------------------------

/// What a metric measures (and how it renders in the exposition).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically nondecreasing count.
    Counter,
    /// A point-in-time level that can move both ways.
    Gauge,
    /// A log-bucketed distribution (microsecond latencies).
    Histogram,
}

impl MetricKind {
    /// The exposition `# TYPE` keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One declared metric: the stable dotted name, its kind, and the help
/// line the exposition carries.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Stable dotted name (`layer.subsystem.what`).
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// One-line description (the exposition `# HELP` text).
    pub help: &'static str,
}

const fn counter(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Counter,
        help,
    }
}

const fn gauge(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Gauge,
        help,
    }
}

const fn histogram(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Histogram,
        help,
    }
}

/// Every metric the workspace can report, in exposition order.
///
/// This is the code-pinned inventory: `docs/OBSERVABILITY.md` must
/// document every entry (and nothing else) — `tests/obs_inventory.rs`
/// fails the build otherwise, exactly like the protocol-docs pin. Update
/// both together.
pub const METRICS: &[MetricDef] = &[
    // --- bdd: the shared ROBDD arena --------------------------------------
    gauge("bdd.arena.nodes", "Live nodes stored in the BDD arena"),
    gauge("bdd.arena.peak_nodes", "High-water mark of arena nodes"),
    counter("bdd.apply.lookups", "Apply-cache probes"),
    counter("bdd.apply.hits", "Apply-cache probes answered from cache"),
    counter("bdd.unique.lookups", "Unique-table (hash-cons) probes"),
    counter(
        "bdd.unique.hits",
        "Unique-table probes answered by an existing node",
    ),
    // --- engine: the CompiledPolicies cache tiers -------------------------
    counter("engine.stage.lookups", "Route-map stage cache probes"),
    counter("engine.stage.hits", "Route-map stage cache hits"),
    counter("engine.sig.lookups", "Per-edge BGP signature cache probes"),
    counter("engine.sig.hits", "Per-edge BGP signature cache hits"),
    counter(
        "engine.table.lookups",
        "Whole per-EC signature-table probes",
    ),
    counter("engine.table.hits", "Whole per-EC signature-table hits"),
    // --- core plumbing ----------------------------------------------------
    counter(
        "fanout.ranges.claimed",
        "Work ranges claimed by fan-out workers",
    ),
    counter(
        "scenarios.ranges.unranked",
        "Rank ranges materialized from scenario streams",
    ),
    // --- compress: the refinement kernel, then the streamed emit stage of
    // `bonsai compress --out` ----------------------------------------------
    counter(
        "compress.refine.calls",
        "Algorithm-1 refinement kernel runs (algorithm::refine_with_split)",
    ),
    counter(
        "compress.abstract.rendered",
        "Abstract configurations rendered from a layout (AbstractLayout::render)",
    ),
    counter(
        "compress.emit.files",
        "Abstract-network files written by compress --out",
    ),
    counter(
        "compress.emit.bytes",
        "Bytes of abstract-network text written by compress --out",
    ),
    // --- srp: the fixpoint solver -----------------------------------------
    counter(
        "srp.solves.cold",
        "SRP solves from bottom labels in a given activation order",
    ),
    counter(
        "srp.solves.seeded",
        "SRP solves from a transported initial labeling",
    ),
    counter(
        "srp.solves.warm",
        "SRP solves repairing a failure-free fixpoint under a failure mask",
    ),
    counter(
        "srp.label_updates",
        "Label updates performed by SRP solves",
    ),
    counter(
        "srp.offers",
        "Route offers (transfer calls) evaluated by SRP solves, propagation and validation",
    ),
    // --- sweep: the (scenario x EC) verification plane --------------------
    counter(
        "sweep.derivations",
        "Full per-scenario refinement derivations performed",
    ),
    counter(
        "sweep.transfer.exact",
        "Cross-EC refinement transfers from same-origin donors",
    ),
    counter(
        "sweep.transfer.symmetric",
        "Cross-EC refinement transfers from symmetric donors",
    ),
    counter(
        "sweep.transfer.verified",
        "Symmetric transfers re-verified per receiving class",
    ),
    counter(
        "sweep.transfer.witnessed",
        "Symmetric transfers of tallied classes taken through the class witness, partition deferred",
    ),
    counter(
        "sweep.scenarios.streamed",
        "Scenario instances generated through streamed enumeration",
    ),
    counter(
        "sweep.scenarios.swept",
        "(scenario, class) pairs verified by network sweeps",
    ),
    counter(
        "sweep.chunks.completed",
        "Scheduling chunks completed by sweep workers",
    ),
    gauge(
        "sweep.resident.peak",
        "High-water mark of concurrently resident scenarios",
    ),
    counter(
        "sweep.signatures.interned",
        "Orbit signatures interned by sweep workers, per (worker, class)",
    ),
    counter(
        "sweep.signatures.raw_keys",
        "Raw signature keys memoized by sweep workers, per (worker, class)",
    ),
    counter(
        "sweep.classes.tallied",
        "Classes tallied through a verified class witness instead of visited",
    ),
    counter(
        "sweep.refinements.materialized",
        "Refinements whose abstract network and canonical solution were built on first read",
    ),
    counter(
        "sweep.check.transported",
        "Concrete samples the candidate's canonical abstract solution did not match, so they were transported onto the candidate",
    ),
    // --- session: the resident query layer --------------------------------
    counter(
        "session.queries",
        "Queries answered by the resident session",
    ),
    counter(
        "session.verdict.hits",
        "Queries answered from the verdict memo",
    ),
    counter(
        "session.answers.cached",
        "Solves avoided via cached canonical solutions",
    ),
    counter(
        "session.answers.representative",
        "Scenario verdicts read off the held refinement's canonical solution",
    ),
    counter(
        "session.answers.own_refinement",
        "Scenario verdicts computed on the scenario's own stage-1 refinement",
    ),
    counter(
        "session.answers.concrete",
        "Scenario verdicts computed by the concrete masked simulation",
    ),
    counter(
        "session.solver.updates",
        "Label updates performed by session solver runs",
    ),
    counter(
        "session.answers.restored",
        "Memoized answers reloaded from a snapshot",
    ),
    gauge("session.memo.verdicts", "Entries in the verdict memo"),
    gauge("session.memo.paths", "Entries in the path-answer memo"),
    gauge(
        "session.memo.bytes",
        "Estimated resident bytes across both answer memos",
    ),
    counter(
        "session.memo.evictions",
        "Answer-memo entries evicted by the byte cap",
    ),
    // --- daemon: bonsaid serving ------------------------------------------
    counter("daemon.requests.total", "Request lines answered"),
    counter("daemon.errors.total", "Error responses rendered"),
    counter(
        "daemon.panics.total",
        "Handler panics contained and answered `internal`",
    ),
    counter("daemon.reloads.total", "Warm config reloads applied"),
    counter(
        "daemon.query.shed",
        "Query ops shed with `overloaded` by the in-flight gate",
    ),
    counter("daemon.connections.total", "Connections accepted"),
    gauge("daemon.inflight", "Query permits currently held"),
    histogram(
        "daemon.query.latency_us",
        "Latency of query ops (reach/sweep/all_pairs/path/batch), microseconds",
    ),
];

/// The dotted name rendered for exposition: dots become underscores.
pub fn prom_name(dotted: &str) -> String {
    dotted.replace('.', "_")
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Histogram bucket upper bounds: powers of two, 1 µs .. ~1 s.
const BUCKET_POW2_MAX: u32 = 20;
const BUCKETS: usize = (BUCKET_POW2_MAX + 1) as usize;

struct Hist {
    /// Counts per finite bucket (`le = 2^i`), plus the overflow bucket.
    buckets: [AtomicU64; BUCKETS],
    overflow: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Hist {
    fn new() -> Hist {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        let idx = if value <= 1 {
            0
        } else {
            (64 - (value - 1).leading_zeros()) as usize
        };
        match self.buckets.get(idx) {
            Some(b) => b.fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

enum Slot {
    Scalar(usize),
    Hist(usize),
}

struct Registry {
    scalars: Vec<AtomicU64>,
    hists: Vec<Hist>,
    index: HashMap<&'static str, Slot>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut scalars = Vec::new();
        let mut hists = Vec::new();
        let mut index = HashMap::with_capacity(METRICS.len());
        for def in METRICS {
            let slot = match def.kind {
                MetricKind::Histogram => {
                    hists.push(Hist::new());
                    Slot::Hist(hists.len() - 1)
                }
                _ => {
                    scalars.push(AtomicU64::new(0));
                    Slot::Scalar(scalars.len() - 1)
                }
            };
            assert!(
                index.insert(def.name, slot).is_none(),
                "duplicate metric name {}",
                def.name
            );
        }
        Registry {
            scalars,
            hists,
            index,
        }
    })
}

fn scalar(name: &str) -> &'static AtomicU64 {
    let reg = registry();
    match reg.index.get(name) {
        Some(Slot::Scalar(i)) => &reg.scalars[*i],
        Some(Slot::Hist(_)) => panic!("metric {name} is a histogram; use observe()"),
        None => panic!("metric {name} is not in bonsai_obs::METRICS"),
    }
}

fn hist(name: &str) -> &'static Hist {
    let reg = registry();
    match reg.index.get(name) {
        Some(Slot::Hist(i)) => &reg.hists[*i],
        Some(Slot::Scalar(_)) => panic!("metric {name} is not a histogram; use add()/set()"),
        None => panic!("metric {name} is not in bonsai_obs::METRICS"),
    }
}

/// Adds to a counter (or gauge). Panics on a name missing from
/// [`METRICS`] — typos fail loudly in tests rather than dropping data.
pub fn add(name: &str, delta: u64) {
    scalar(name).fetch_add(delta, Ordering::Relaxed);
}

/// Sets a gauge (or publishes a mirrored cumulative counter snapshot —
/// the value must come from a source that is itself monotone).
pub fn set(name: &str, value: u64) {
    scalar(name).store(value, Ordering::Relaxed);
}

/// Sets a gauge to `max(current, value)` — for high-water marks fed from
/// per-run peaks.
pub fn set_max(name: &str, value: u64) {
    scalar(name).fetch_max(value, Ordering::Relaxed);
}

/// Records one observation into a histogram.
pub fn observe(name: &str, value: u64) {
    hist(name).observe(value);
}

/// Current value of a counter or gauge (tests assert increments here).
pub fn value(name: &str) -> u64 {
    scalar(name).load(Ordering::Relaxed)
}

/// Number of observations a histogram has absorbed.
pub fn hist_count(name: &str) -> u64 {
    hist(name).count.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

/// The `Content-Type` of [`render_prometheus`] output.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Renders the whole registry as Prometheus text exposition format v0,
/// every inventory metric present (zeros included), in [`METRICS`] order.
pub fn render_prometheus() -> String {
    let reg = registry();
    let mut out = String::with_capacity(4096);
    for def in METRICS {
        let name = prom_name(def.name);
        out.push_str(&format!("# HELP {name} {}\n", def.help));
        out.push_str(&format!("# TYPE {name} {}\n", def.kind.as_str()));
        match reg.index.get(def.name) {
            Some(Slot::Scalar(i)) => {
                let v = reg.scalars[*i].load(Ordering::Relaxed);
                out.push_str(&format!("{name} {v}\n"));
            }
            Some(Slot::Hist(i)) => {
                let h = &reg.hists[*i];
                let mut cumulative = 0u64;
                for (b, bucket) in h.buckets.iter().enumerate() {
                    cumulative += bucket.load(Ordering::Relaxed);
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                        1u64 << b
                    ));
                }
                cumulative += h.overflow.load(Ordering::Relaxed);
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                out.push_str(&format!("{name}_sum {}\n", h.sum.load(Ordering::Relaxed)));
                out.push_str(&format!(
                    "{name}_count {}\n",
                    h.count.load(Ordering::Relaxed)
                ));
            }
            None => unreachable!("registry is built from METRICS"),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// A field value attached to a span or event.
#[derive(Clone, Debug)]
pub enum FieldVal {
    /// An unsigned integer, emitted as a JSON number.
    U64(u64),
    /// A string, emitted JSON-escaped.
    Str(String),
}

impl From<u64> for FieldVal {
    fn from(v: u64) -> FieldVal {
        FieldVal::U64(v)
    }
}

impl From<usize> for FieldVal {
    fn from(v: usize) -> FieldVal {
        FieldVal::U64(v as u64)
    }
}

impl From<u32> for FieldVal {
    fn from(v: u32) -> FieldVal {
        FieldVal::U64(u64::from(v))
    }
}

impl From<&str> for FieldVal {
    fn from(v: &str) -> FieldVal {
        FieldVal::Str(v.to_string())
    }
}

impl From<String> for FieldVal {
    fn from(v: String) -> FieldVal {
        FieldVal::Str(v)
    }
}

struct Tracer {
    sink: Mutex<BufWriter<File>>,
    epoch: Instant,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();
static TRACE_ON: AtomicBool = AtomicBool::new(false);

/// Installs the JSONL trace sink. The first call wins for the lifetime
/// of the process (the tracer is a process-global); later calls fail.
pub fn trace_to(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    let tracer = Tracer {
        sink: Mutex::new(BufWriter::new(file)),
        epoch: Instant::now(),
    };
    if TRACER.set(tracer).is_err() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            "a trace sink is already installed for this process",
        ));
    }
    TRACE_ON.store(true, Ordering::Release);
    Ok(())
}

/// Whether a trace sink is installed (one relaxed load — the disabled
/// fast path of [`span!`]/[`event!`]).
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

fn write_record(kind: &str, name: &str, dur_us: Option<u64>, fields: &[(&str, FieldVal)]) {
    let Some(tracer) = TRACER.get() else {
        return;
    };
    // The timestamp is taken under the sink's lock, so records from
    // concurrent workers land in timestamp order.
    let mut sink = tracer.sink.lock().unwrap();
    let ts_us = tracer.epoch.elapsed().as_micros() as u64;
    let mut line = String::new();
    json::write_object(&mut line, json::Layout::Spaced, |o| {
        o.uint("ts_us", ts_us).str("kind", kind).str("name", name);
        if let Some(d) = dur_us {
            o.uint("dur_us", d);
        }
        for (key, value) in fields {
            match value {
                FieldVal::U64(n) => o.uint(key, *n),
                FieldVal::Str(s) => o.str(key, s),
            };
        }
    });
    let _ = writeln!(sink, "{line}");
    let _ = sink.flush();
}

/// A live span; emits one `"kind": "span"` record with its duration when
/// dropped. Obtain through [`span!`] (or [`span_guard`]).
pub struct Span {
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, FieldVal)>,
}

impl Span {
    /// Adds a field known only once the spanned work is done (an outcome,
    /// a count).
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldVal>) {
        self.fields.push((key, value.into()));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_us = self.start.elapsed().as_micros() as u64;
        write_record("span", self.name, Some(dur_us), &self.fields);
    }
}

/// Starts a span when tracing is enabled (`None` otherwise — the guard
/// binding is a no-op). Prefer the [`span!`] macro.
pub fn span_guard(name: &'static str, fields: Vec<(&'static str, FieldVal)>) -> Option<Span> {
    if !trace_enabled() {
        return None;
    }
    Some(Span {
        name,
        start: Instant::now(),
        fields,
    })
}

/// Emits one `"kind": "event"` record when tracing is enabled. Prefer
/// the [`event!`] macro.
pub fn emit_event(name: &str, fields: Vec<(&'static str, FieldVal)>) {
    if !trace_enabled() {
        return;
    }
    write_record("event", name, None, &fields);
}

/// Opens a span: `let _g = obs::span!("sweep.chunk", start = s, len = n);`
/// The record (with `dur_us`) is written when the guard drops. Costs one
/// relaxed atomic load when no trace sink is installed.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::span_guard(
            $name,
            if $crate::trace_enabled() {
                vec![$((stringify!($key), $crate::FieldVal::from($val))),*]
            } else {
                Vec::new()
            },
        )
    };
}

/// Emits an instantaneous event: `obs::event!("daemon.request", op = op);`
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace_enabled() {
            $crate::emit_event(
                $name,
                vec![$((stringify!($key), $crate::FieldVal::from($val))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_names_are_unique_dotted_and_layered() {
        let mut seen = std::collections::BTreeSet::new();
        for def in METRICS {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.contains('.'), "{} is not dotted", def.name);
            assert!(
                def.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{} has characters outside [a-z0-9._]",
                def.name
            );
            assert!(!def.help.is_empty(), "{} has no help text", def.name);
        }
        // The acceptance bar: at least 20 metrics spanning the four layers.
        assert!(METRICS.len() >= 20, "only {} metrics", METRICS.len());
        for layer in ["bdd.", "engine.", "sweep.", "daemon."] {
            assert!(
                METRICS.iter().any(|d| d.name.starts_with(layer)),
                "no metric in layer {layer}"
            );
        }
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        add("sweep.derivations", 3);
        add("sweep.derivations", 2);
        assert!(value("sweep.derivations") >= 5);
        set("sweep.resident.peak", 7);
        set_max("sweep.resident.peak", 3);
        assert!(value("sweep.resident.peak") >= 7);
    }

    #[test]
    #[should_panic(expected = "not in bonsai_obs::METRICS")]
    fn unknown_names_fail_loudly() {
        add("no.such.metric", 1);
    }

    #[test]
    fn histogram_buckets_are_log_spaced_and_cumulative() {
        observe("daemon.query.latency_us", 1);
        observe("daemon.query.latency_us", 3);
        observe("daemon.query.latency_us", 1_000);
        observe("daemon.query.latency_us", u64::MAX / 2);
        let text = render_prometheus();
        assert!(text.contains("# TYPE daemon_query_latency_us histogram"));
        // The +Inf bucket equals the count, and buckets are cumulative.
        let count = hist_count("daemon.query.latency_us");
        assert!(text.contains(&format!(
            "daemon_query_latency_us_bucket{{le=\"+Inf\"}} {count}"
        )));
        assert!(text.contains(&format!("daemon_query_latency_us_count {count}")));
    }

    #[test]
    fn exposition_covers_every_metric_and_is_parseable() {
        let text = render_prometheus();
        for def in METRICS {
            let name = prom_name(def.name);
            assert!(
                text.contains(&format!("# TYPE {name} {}\n", def.kind.as_str())),
                "exposition lacks {name}"
            );
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad sample value in {line}"));
        }
    }

    #[test]
    fn tracer_macros_are_inert_without_a_sink_and_record_with_one() {
        // Without a sink: no-ops.
        {
            let _g = span!("test.span", n = 1usize);
            event!("test.event", label = "x");
        }
        // With one (installed for the whole test process from here on).
        let path = std::env::temp_dir().join(format!("obs-test-{}.jsonl", std::process::id()));
        if trace_to(&path).is_ok() {
            assert!(trace_enabled());
        }
        {
            let _g = span!("test.span", n = 2usize, label = "inner");
            event!("test.event", label = "y");
        }
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() >= 2, "{body}");
        for line in body.lines() {
            assert!(line.starts_with("{\"ts_us\": "), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        assert!(body.contains("\"kind\": \"span\""), "{body}");
        assert!(body.contains("\"dur_us\": "), "{body}");
        assert!(body.contains("\"kind\": \"event\""), "{body}");
        let _ = std::fs::remove_file(&path);
    }
}
