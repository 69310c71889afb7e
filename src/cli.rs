//! What the `bonsai` binary does that tests must be able to call: its
//! command line ([`args`]: the one table of subcommands and flags, its
//! parser and the generated usage text), the document models of
//! `failures --json` / `diff --json`, and the streamed emit stage of
//! `compress` ([`compress_streamed`], at the end of this file).
//!
//! The document model behind `bonsai failures --json`: one neutral
//! [`FailuresDoc`] that is **built** from a live [`NetworkSweepReport`],
//! **parsed** back from a written document, **merged** across shard
//! documents, and **rendered** by a single serializer.
//!
//! That single serializer is the point: a sharded sweep writes one
//! partial document per shard (`bonsai failures --shard i/n --json …`),
//! and [`FailuresDoc::merge`] reassembles them *at the document level* —
//! no re-verification, no access to the network — into a document that
//! is **byte-identical** to what the unsharded sweep writes (given the
//! same flags and `--threads 1`; parallel schedules can race duplicate
//! derivations in either run). Every derived float (cache hit rate, mean
//! refined nodes, sharing ratio) is recomputed from the exact integer
//! fields at render time, so merging sums integers and the floats follow
//! bit-for-bit.
//!
//! Envelope lineage (`cli/failures`): v1 was the pre-envelope dialect;
//! v2 the first enveloped one; v3 — this module — adds the per-signature
//! and per-scenario enumeration `rank`s (the merge keys: detail and
//! scenario lists are ordered by rank, so shard documents interleave
//! deterministically), the integer `refined_nodes_sum`, the
//! string-encoded `fingerprint` (u64 hashes do not survive a float
//! round-trip), and the optional top-level `shard` marker.

pub mod args;

use crate::core::compress::{
    compress_each, ClassStats, CompressOptions, CompressionReport, EcCompression,
};
use crate::core::snapshot::{write_envelope, Envelope, Json, Layout, Object};
use crate::verify::netsweep::NetworkSweepReport;
use bonsai_config::{print_network_into, BuiltTopology, NetworkConfig};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Envelope kind of the failures document.
pub const FAILURES_DOC_KIND: &str = "cli/failures";
/// Envelope payload version of the failures document.
pub const FAILURES_DOC_VERSION: u32 = 3;

/// Envelope kind of the `bonsai diff` document.
pub const DIFF_DOC_KIND: &str = "cli/diff";
/// Envelope payload version of the `bonsai diff` document.
pub const DIFF_DOC_VERSION: u32 = 1;

/// One class that `bonsai diff` had to re-derive and re-verify.
#[derive(Clone, Debug, PartialEq)]
pub struct RederivedDoc {
    /// Representative prefix.
    pub rep: String,
    /// Scenarios re-verified for the class.
    pub scenarios: usize,
    /// Distinct refinements of the re-swept class.
    pub refinements: usize,
    /// Full derivations performed for the class.
    pub derivations: usize,
}

/// The whole `bonsai diff --json` document: what a config delta
/// invalidated, what survived, and the full-vs-delta wall-clock proof.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffDoc {
    /// Failure bound of the re-verification sweep.
    pub k: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Concrete nodes of the new network.
    pub nodes: usize,
    /// Concrete links of the new network.
    pub links: usize,
    /// Destination classes in the new network.
    pub ecs_total: usize,
    /// Classes whose abstraction had to be re-derived.
    pub ecs_rederived: usize,
    /// Classes that kept their old abstraction.
    pub reused: usize,
    /// Classes whose engine fingerprint moved across the delta.
    pub fingerprints_moved: usize,
    /// True when the delta was structural and everything was rebuilt.
    pub full_rebuild: bool,
    /// Why the delta forced a full rebuild (`None` = incremental).
    pub structural: Option<String>,
    /// Hostnames of every changed device, in device-index order.
    pub changed_devices: Vec<String>,
    /// Compiled route-map stages evicted from the warm engine.
    pub stages_evicted: usize,
    /// Per-edge BGP signatures evicted.
    pub sigs_evicted: usize,
    /// Whole per-EC signature tables evicted.
    pub tables_evicted: usize,
    /// The re-derived classes, in compression-report order.
    pub rederived: Vec<RederivedDoc>,
    /// Wall-clock seconds of the full compress + sweep baseline.
    pub full_s: f64,
    /// Wall-clock seconds of the delta apply + subset re-sweep.
    pub delta_s: f64,
}

/// `"network": {"nodes": …, "links": …, "ecs": …}`, as both documents
/// carry it.
fn write_network(payload: &mut Object<'_>, nodes: usize, links: usize, ecs: usize) {
    payload.object("network", Layout::Spaced, |o| {
        o.uint("nodes", nodes).uint("links", links).uint("ecs", ecs);
    });
}

impl DiffDoc {
    /// Renders the enveloped document. Provenance fields are pinned to
    /// `"unknown"` like the failures document, so bytes depend only on
    /// the diff content (and the two measured timings).
    pub fn render(&self) -> String {
        let payload = |p: &mut Object<'_>| {
            p.uint("k", self.k).uint("threads", self.threads);
            write_network(p, self.nodes, self.links, self.ecs_total);
            p.object("delta", Layout::Spaced, |o| {
                o.bool("full_rebuild", self.full_rebuild)
                    .opt("structural", self.structural.as_deref(), Object::str)
                    .strs("changed_devices", &self.changed_devices)
                    .uint("stages_evicted", self.stages_evicted)
                    .uint("sigs_evicted", self.sigs_evicted)
                    .uint("tables_evicted", self.tables_evicted);
            });
            p.uint("ecs_rederived", self.ecs_rederived)
                .uint("reused", self.reused)
                .uint("fingerprints_moved", self.fingerprints_moved);
            p.object("timing", Layout::Spaced, |o| {
                o.float("full_s", self.full_s, 6)
                    .float("delta_s", self.delta_s, 6);
            });
            p.rows("rederived", Layout::Compact, &self.rederived, |o, r| {
                o.str("rep", &r.rep)
                    .uint("scenarios", r.scenarios)
                    .uint("refinements", r.refinements)
                    .uint("derivations", r.derivations);
            });
        };
        write_envelope(
            DIFF_DOC_KIND,
            DIFF_DOC_VERSION,
            "unknown",
            "unknown",
            Layout::Lines(4),
            payload,
        )
    }
}

/// One distinct refinement of one class, keyed for merging by the rank
/// of its first scenario in the class's enumeration.
#[derive(Clone, Debug, PartialEq)]
pub struct DetailDoc {
    /// Enumeration rank of the first scenario served by this refinement.
    pub rank: usize,
    /// The representative scenario, human-readable.
    pub representative: String,
    /// Abstract nodes of the refined network.
    pub nodes: usize,
    /// Endpoint-split size.
    pub split: usize,
    /// How the refinement was found (`localized split`, …).
    pub how: String,
    /// Where it came from (`derived`, `transferred-exact`, …).
    pub provenance: String,
}

/// One verified scenario of one class.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioDoc {
    /// The scenario's rank in the class's enumeration — the global sort
    /// key sharded documents merge by.
    pub rank: usize,
    /// The failed links, human-readable.
    pub links: String,
    /// Abstract nodes of the scenario's refined network.
    pub nodes: usize,
}

/// One destination class's slice of the document.
#[derive(Clone, Debug, PartialEq)]
pub struct EcDoc {
    /// Representative prefix.
    pub rep: String,
    /// Policy fingerprint, string-encoded (u64 precision).
    pub fingerprint: String,
    /// Whether the class's quotient canonicalized.
    pub canonical: bool,
    /// Scenarios verified (in this document's shard).
    pub scenarios: usize,
    /// Distinct refinements.
    pub refinements: usize,
    /// Full derivations kept for this class.
    pub derivations: usize,
    /// Abstract nodes of the base (failure-free) abstraction.
    pub base_abstract_nodes: usize,
    /// Integer sum of per-scenario refined node counts.
    pub refined_nodes_sum: usize,
    /// Largest per-scenario refinement (0 when no scenarios).
    pub max_refined_nodes: usize,
    /// Distinct refinements, ordered by `rank`.
    pub details: Vec<DetailDoc>,
    /// Verified scenarios, ordered by `rank`.
    pub per_scenario: Vec<ScenarioDoc>,
}

/// One `--query src:dst` answer row.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryDoc {
    /// Query source device.
    pub src: String,
    /// Query destination device.
    pub dst: String,
    /// The answered class's representative prefix.
    pub prefix: String,
    /// Scenarios in which the source delivers.
    pub delivered: usize,
    /// Scenarios swept for the class.
    pub scenarios: usize,
}

/// The whole `bonsai failures --json` document.
#[derive(Clone, Debug, PartialEq)]
pub struct FailuresDoc {
    /// Failure bound swept.
    pub k: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Whether the enumeration was symmetry-pruned.
    pub pruned: bool,
    /// Whether cross-EC sharing was on.
    pub share: bool,
    /// Concrete node count.
    pub nodes: usize,
    /// Concrete link count.
    pub links: usize,
    /// Full derivations across workers.
    pub derivations: usize,
    /// What a per-EC sweep would have derived.
    pub unshared_derivations: usize,
    /// Cross-EC exact transfers.
    pub exact_transfers: usize,
    /// Cross-EC symmetric transfers.
    pub symmetric_transfers: usize,
    /// Symmetric transfers re-verified per receiving class.
    pub verified_transfers: usize,
    /// Distinct policy fingerprints.
    pub distinct_fingerprints: usize,
    /// The shard this document covers (`None` = the full sweep).
    pub shard: Option<(usize, usize)>,
    /// Per-class slices, in compression-report order.
    pub ecs: Vec<EcDoc>,
    /// `--query` answers.
    pub queries: Vec<QueryDoc>,
}

impl FailuresDoc {
    /// Builds the document from a live network sweep (which must have
    /// collected outcomes — the CLI always does).
    pub fn from_sweep(
        topo: &BuiltTopology,
        sweep: &NetworkSweepReport,
        pruned: bool,
        share: bool,
        queries: Vec<QueryDoc>,
    ) -> FailuresDoc {
        let mut ecs = Vec::with_capacity(sweep.per_ec.len());
        for ec in &sweep.per_ec {
            let per_scenario: Vec<ScenarioDoc> = ec
                .report
                .outcomes
                .iter()
                .map(|o| ScenarioDoc {
                    rank: o.rank,
                    links: o.scenario.describe(&topo.graph),
                    nodes: o.refined_nodes,
                })
                .collect();
            // One detail per distinct signature, at its first scenario's
            // rank — outcomes arrive in rank order, so a linear walk
            // produces the rank-ordered detail list directly.
            let mut seen = std::collections::BTreeSet::new();
            let mut details = Vec::with_capacity(ec.report.refinements.len());
            for o in &ec.report.outcomes {
                if !seen.insert(&o.signature) {
                    continue;
                }
                let r = &ec.report.refinements[&o.signature];
                details.push(DetailDoc {
                    rank: o.rank,
                    representative: r.representative.describe(&topo.graph),
                    nodes: r.refined_nodes(),
                    split: r.split.len(),
                    how: r.how().to_string(),
                    provenance: r.provenance.as_str().to_string(),
                });
            }
            debug_assert_eq!(
                details.len(),
                ec.report.refinements.len(),
                "every refinement should be reachable from a collected outcome"
            );
            ecs.push(EcDoc {
                rep: ec.rep.to_string(),
                fingerprint: ec.fingerprint.raw().to_string(),
                canonical: ec.canonical,
                scenarios: ec.report.scenarios_swept(),
                refinements: ec.report.refinements.len(),
                derivations: ec.report.derivations,
                base_abstract_nodes: ec.report.base_abstract_nodes,
                refined_nodes_sum: ec.report.stats.refined_nodes_sum,
                max_refined_nodes: ec.report.stats.max_refined_nodes,
                details,
                per_scenario,
            });
        }
        FailuresDoc {
            k: sweep.k,
            threads: sweep.threads,
            pruned,
            share,
            nodes: topo.graph.node_count(),
            links: topo.graph.link_count(),
            derivations: sweep.derivations,
            unshared_derivations: sweep.unshared_derivations(),
            exact_transfers: sweep.exact_transfers,
            symmetric_transfers: sweep.symmetric_transfers,
            verified_transfers: sweep.verified_transfers,
            distinct_fingerprints: sweep.distinct_fingerprints,
            shard: sweep.shard.map(|s| (s.index(), s.of())),
            ecs,
            queries,
        }
    }

    /// Renders the enveloped document. Provenance fields are pinned to
    /// `"unknown"` so the bytes depend only on the sweep content —
    /// which is what makes the sharded-merge byte-equality provable.
    pub fn render(&self) -> String {
        let ratio = |part: usize, whole: usize| part as f64 / whole as f64;
        let class = |o: &mut Object<'_>, ec: &EcDoc| {
            let (cache_hit_rate, mean_refined) = if ec.scenarios == 0 {
                (0.0, ec.base_abstract_nodes as f64)
            } else {
                (
                    1.0 - ratio(ec.refinements, ec.scenarios),
                    ratio(ec.refined_nodes_sum, ec.scenarios),
                )
            };
            o.str("rep", &ec.rep)
                .str("fingerprint", &ec.fingerprint)
                .bool("canonical", ec.canonical)
                .uint("scenarios", ec.scenarios)
                .uint("refinements", ec.refinements)
                .uint("derivations", ec.derivations)
                .float("cache_hit_rate", cache_hit_rate, 6)
                .uint("base_abstract_nodes", ec.base_abstract_nodes)
                .uint("refined_nodes_sum", ec.refined_nodes_sum)
                .float("mean_refined_nodes", mean_refined, 6)
                .uint("max_refined_nodes", ec.max_refined_nodes);
            o.rows(
                "refinements_detail",
                Layout::Compact,
                &ec.details,
                |o, d| {
                    o.uint("rank", d.rank)
                        .str("representative", &d.representative)
                        .uint("nodes", d.nodes)
                        .uint("split", d.split)
                        .str("how", &d.how)
                        .str("provenance", &d.provenance);
                },
            );
            o.rows("per_scenario", Layout::Compact, &ec.per_scenario, |o, s| {
                o.uint("rank", s.rank)
                    .str("links", &s.links)
                    .uint("nodes", s.nodes);
            });
        };
        let sharing_ratio = if self.unshared_derivations == 0 {
            0.0
        } else {
            (1.0 - ratio(self.derivations, self.unshared_derivations)).max(0.0)
        };
        let payload = |p: &mut Object<'_>| {
            p.uint("k", self.k)
                .uint("threads", self.threads)
                .bool("pruned", self.pruned)
                .bool("share_across_ecs", self.share);
            write_network(p, self.nodes, self.links, self.ecs.len());
            p.object("sharing", Layout::Spaced, |o| {
                o.uint("derivations", self.derivations)
                    .uint("unshared_derivations", self.unshared_derivations)
                    .float("sharing_ratio", sharing_ratio, 6)
                    .uint("exact_transfers", self.exact_transfers)
                    .uint("symmetric_transfers", self.symmetric_transfers)
                    .uint("verified_transfers", self.verified_transfers)
                    .uint("distinct_fingerprints", self.distinct_fingerprints);
            });
            if let Some((index, of)) = self.shard {
                p.object("shard", Layout::Spaced, |o| {
                    o.uint("index", index).uint("of", of);
                });
            }
            p.rows("ecs", Layout::Compact, &self.ecs, class);
            p.rows("queries", Layout::Compact, &self.queries, |o, q| {
                o.str("src", &q.src)
                    .str("dst", &q.dst)
                    .str("prefix", &q.prefix)
                    .uint("delivered", q.delivered)
                    .uint("scenarios", q.scenarios)
                    .bool("always", q.delivered == q.scenarios);
            });
        };
        write_envelope(
            FAILURES_DOC_KIND,
            FAILURES_DOC_VERSION,
            "unknown",
            "unknown",
            Layout::Lines(4),
            payload,
        )
    }

    /// Parses a document written by [`FailuresDoc::render`]. Derived
    /// floats are not read back — render recomputes them from the
    /// integers, which is what keeps merged documents byte-exact.
    pub fn parse(text: &str) -> Result<FailuresDoc, String> {
        let env = Envelope::parse_expecting(text, FAILURES_DOC_KIND, FAILURES_DOC_VERSION)?;
        let p = &env.payload;
        let network = p.get("network").ok_or("missing `network`")?;
        let sharing = p.get("sharing").ok_or("missing `sharing`")?;
        let shard = match p.get("shard") {
            None => None,
            Some(s) => Some((s.usize("index")?, s.usize("of")?)),
        };
        let detail = |d: &Json| {
            Ok(DetailDoc {
                rank: d.usize("rank")?,
                representative: d.str("representative")?.to_string(),
                nodes: d.usize("nodes")?,
                split: d.usize("split")?,
                how: d.str("how")?.to_string(),
                provenance: d.str("provenance")?.to_string(),
            })
        };
        let scenario = |s: &Json| {
            Ok(ScenarioDoc {
                rank: s.usize("rank")?,
                links: s.str("links")?.to_string(),
                nodes: s.usize("nodes")?,
            })
        };
        let class = |ec: &Json| {
            let details = ec.arr("refinements_detail");
            let details = details.or(Err("missing `refinements_detail`"))?.iter();
            let per_scenario = ec.arr("per_scenario").or(Err("missing `per_scenario`"))?;
            Ok(EcDoc {
                rep: ec.str("rep")?.to_string(),
                fingerprint: ec.str("fingerprint")?.to_string(),
                canonical: ec.bool("canonical")?,
                scenarios: ec.usize("scenarios")?,
                refinements: ec.usize("refinements")?,
                derivations: ec.usize("derivations")?,
                base_abstract_nodes: ec.usize("base_abstract_nodes")?,
                refined_nodes_sum: ec.usize("refined_nodes_sum")?,
                max_refined_nodes: ec.usize("max_refined_nodes")?,
                details: details.map(detail).collect::<Result<_, String>>()?,
                per_scenario: per_scenario
                    .iter()
                    .map(scenario)
                    .collect::<Result<_, String>>()?,
            })
        };
        let query = |q: &Json| {
            Ok(QueryDoc {
                src: q.str("src")?.to_string(),
                dst: q.str("dst")?.to_string(),
                prefix: q.str("prefix")?.to_string(),
                delivered: q.usize("delivered")?,
                scenarios: q.usize("scenarios")?,
            })
        };
        let ecs = p.arr("ecs").or(Err("missing `ecs`"))?.iter();
        let queries = p.arr("queries").or(Err("missing `queries`"))?.iter();
        Ok(FailuresDoc {
            k: p.usize("k")?,
            threads: p.usize("threads")?,
            pruned: p.bool("pruned")?,
            share: p.bool("share_across_ecs")?,
            nodes: network.usize("nodes")?,
            links: network.usize("links")?,
            derivations: sharing.usize("derivations")?,
            unshared_derivations: sharing.usize("unshared_derivations")?,
            exact_transfers: sharing.usize("exact_transfers")?,
            symmetric_transfers: sharing.usize("symmetric_transfers")?,
            verified_transfers: sharing.usize("verified_transfers")?,
            distinct_fingerprints: sharing.usize("distinct_fingerprints")?,
            shard,
            ecs: ecs.map(class).collect::<Result<_, String>>()?,
            queries: queries.map(query).collect::<Result<_, String>>()?,
        })
    }

    /// Merges a complete shard set (`index = 0..of`, any input order)
    /// into the document of the unsharded sweep: integer fields sum,
    /// rank-ordered lists interleave, derived floats follow at render
    /// time. With every shard swept at `--threads 1`, the merged
    /// document is byte-identical to the unsharded one.
    pub fn merge(mut docs: Vec<FailuresDoc>) -> Result<FailuresDoc, String> {
        if docs.is_empty() {
            return Err("no shard documents to merge".into());
        }
        let of = match docs[0].shard {
            Some((_, of)) => of,
            None => return Err("merge input contains an unsharded document".into()),
        };
        if docs.len() != of {
            return Err(format!("expected {of} shard documents, got {}", docs.len()));
        }
        docs.sort_by_key(|d| d.shard.map_or(usize::MAX, |(i, _)| i));
        for (i, d) in docs.iter().enumerate() {
            match d.shard {
                Some((index, o)) if o == of && index == i => {}
                Some((_, o)) if o != of => {
                    return Err(format!("mixed shard counts: {of} and {o}"));
                }
                _ => return Err(format!("shard indices must cover 0..{of} exactly once")),
            }
        }

        let mut iter = docs.into_iter();
        let mut acc = iter.next().expect("nonempty checked above");
        for d in iter {
            if d.k != acc.k
                || d.pruned != acc.pruned
                || d.share != acc.share
                || d.nodes != acc.nodes
                || d.links != acc.links
                || d.ecs.len() != acc.ecs.len()
            {
                return Err("shard documents disagree on the sweep configuration".into());
            }
            if d.distinct_fingerprints != acc.distinct_fingerprints {
                return Err("shard documents disagree on the fingerprint set".into());
            }
            acc.threads = acc.threads.max(d.threads);
            acc.derivations += d.derivations;
            acc.unshared_derivations += d.unshared_derivations;
            acc.exact_transfers += d.exact_transfers;
            acc.symmetric_transfers += d.symmetric_transfers;
            acc.verified_transfers += d.verified_transfers;
            for (a, b) in acc.ecs.iter_mut().zip(d.ecs) {
                if a.rep != b.rep || a.fingerprint != b.fingerprint || a.canonical != b.canonical {
                    return Err("shard documents disagree on the class set".into());
                }
                if a.base_abstract_nodes != b.base_abstract_nodes {
                    return Err("shard documents disagree on a base abstraction".into());
                }
                a.scenarios += b.scenarios;
                a.refinements += b.refinements;
                a.derivations += b.derivations;
                a.refined_nodes_sum += b.refined_nodes_sum;
                a.max_refined_nodes = a.max_refined_nodes.max(b.max_refined_nodes);
                a.details.extend(b.details);
                a.per_scenario.extend(b.per_scenario);
            }
            acc.queries.extend(d.queries);
        }
        for ec in &mut acc.ecs {
            ec.details.sort_by_key(|d| d.rank);
            ec.per_scenario.sort_by_key(|s| s.rank);
            if ec.details.windows(2).any(|w| w[0].rank == w[1].rank) {
                return Err(format!(
                    "class {}: one signature class appears in two shards",
                    ec.rep
                ));
            }
        }
        acc.shard = None;
        Ok(acc)
    }
}

// ---------------------------------------------------------------------
// `bonsai compress`: the streamed emit stage
// ---------------------------------------------------------------------

/// Why `bonsai compress --out <dir>` could not emit.
#[derive(Debug)]
pub enum EmitError {
    /// The output directory could not be created; nothing was compressed.
    CreateDir {
        /// The `--out` directory.
        dir: PathBuf,
        /// The operating system's reason.
        source: std::io::Error,
    },
    /// One class's abstract network could not be written.
    Write {
        /// The class's index in compression-report order.
        index: usize,
        /// The file that was being written.
        file: PathBuf,
        /// The operating system's reason.
        source: std::io::Error,
    },
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::CreateDir { dir, source } => {
                write!(f, "cannot create {}: {source}", dir.display())
            }
            EmitError::Write { file, source, .. } => {
                write!(f, "cannot write {}: {source}", file.display())
            }
        }
    }
}

impl std::error::Error for EmitError {}

/// What `bonsai compress` keeps of a class once its abstract network has
/// been printed, written and dropped: the Table 1 numbers and the fate of
/// its file.
#[derive(Debug)]
pub struct ClassSummary {
    /// Abstract nodes of the class.
    pub abstract_nodes: usize,
    /// Abstract (undirected) links of the class.
    pub abstract_links: usize,
    /// Time spent building the class's BDD signature table.
    pub bdd_time: Duration,
    /// Time spent in refinement + abstract-network construction.
    pub compress_time: Duration,
    /// Bytes of the class's `<rep>.cfg` (0 when nothing is emitted), or
    /// why it could not be written.
    pub emitted: Result<usize, EmitError>,
}

impl ClassStats for ClassSummary {
    fn abstract_nodes(&self) -> usize {
        self.abstract_nodes
    }
    fn abstract_links(&self) -> usize {
        self.abstract_links
    }
    fn bdd_time(&self) -> Duration {
        self.bdd_time
    }
    fn compress_time(&self) -> Duration {
        self.compress_time
    }
}

/// The file `bonsai compress --out` writes a class to: its representative
/// prefix with the slash made a legal file-name character.
pub fn class_file_name(rep: bonsai_net::prefix::Prefix) -> String {
    format!("{}.cfg", rep.to_string().replace('/', "_"))
}

thread_local! {
    /// The render buffer of the fan-out worker running on this thread:
    /// one allocation serves every class the worker prints.
    static RENDER_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// `bonsai compress [--out <dir>]`: compresses every class and, inside the
/// worker that built it, renders the class's abstract network, writes
/// `<dir>/<rep>.cfg` and drops it — printing and writing run on the
/// fan-out's workers, and one abstract network per worker is resident
/// instead of one per class. Files of classes that no longer exist are
/// left alone.
///
/// Fails only when `dir` cannot be created (before any compression). A
/// class whose file cannot be written records that in its
/// [`ClassSummary::emitted`] and the run goes on; [`first_emit_error`]
/// picks the one to report. Everything in the result but the timings is
/// independent of the thread count and the schedule.
pub fn compress_streamed(
    network: &NetworkConfig,
    options: CompressOptions,
    out_dir: Option<&Path>,
) -> Result<CompressionReport<ClassSummary>, EmitError> {
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|source| EmitError::CreateDir {
            dir: dir.to_path_buf(),
            source,
        })?;
    }
    let report = compress_each(network, options, |index, class: EcCompression| {
        let emitted = match out_dir {
            None => Ok(0),
            Some(dir) => RENDER_BUF.with_borrow_mut(|buf| {
                buf.clear();
                print_network_into(buf, &class.abstract_network.network);
                let file = dir.join(class_file_name(class.ec.rep));
                match std::fs::write(&file, buf.as_bytes()) {
                    Ok(()) => Ok(buf.len()),
                    Err(source) => Err(EmitError::Write {
                        index,
                        file,
                        source,
                    }),
                }
            }),
        };
        ClassSummary {
            abstract_nodes: class.abstract_nodes(),
            abstract_links: class.abstract_links(),
            bdd_time: class.bdd_time,
            compress_time: class.compress_time,
            emitted,
        }
    });
    if out_dir.is_some() {
        let written = || report.per_ec.iter().filter_map(|c| c.emitted.as_ref().ok());
        bonsai_obs::add("compress.emit.files", written().count() as u64);
        bonsai_obs::add("compress.emit.bytes", written().sum::<usize>() as u64);
    }
    Ok(report)
}

/// The write error `bonsai compress` reports: the failing class with the
/// lowest index, whatever order the workers met the failures in.
pub fn first_emit_error(report: &CompressionReport<ClassSummary>) -> Option<&EmitError> {
    report.per_ec.iter().find_map(|c| c.emitted.as_ref().err())
}

/// The Table 1-style row `bonsai compress` prints. Everything before
/// `; BDD` is exact (computed from the class-ordered summaries); the two
/// timings after it vary from run to run.
pub fn compress_summary_line<T: ClassStats>(report: &CompressionReport<T>) -> String {
    format!(
        "{} devices / {} links -> {:.1}±{:.1} nodes, {:.1}±{:.1} links \
         ({:.2}x / {:.2}x) across {} classes; BDD {:.2}s, {:.4}s/EC",
        report.concrete_nodes,
        report.concrete_links,
        report.mean_abstract_nodes(),
        report.std_abstract_nodes(),
        report.mean_abstract_links(),
        report.std_abstract_links(),
        report.node_ratio(),
        report.link_ratio(),
        report.num_ecs(),
        report.bdd_time().as_secs_f64(),
        report.compress_time_per_ec().as_secs_f64(),
    )
}
