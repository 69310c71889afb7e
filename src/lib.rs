//! # bonsai
//!
//! Control-plane compression for network analysis — a from-scratch Rust
//! reproduction of *Control Plane Compression* (Beckett, Gupta, Mahajan,
//! Walker — SIGCOMM 2018) and its tool **Bonsai**.
//!
//! Bonsai shrinks a large network (topology + router configurations) into
//! a small one whose control plane is **behaviorally equivalent**: every
//! stable routing solution of the big network corresponds to one of the
//! small network and vice versa, preserving reachability, path length,
//! way-pointing, loop freedom and more. Analyses of any kind — simulation,
//! emulation, verification — can then run on the small network instead.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`net`] — graphs, prefixes, prefix tries, partition refinement.
//! * [`bdd`] — the hash-consed BDD package policies compile into.
//! * [`config`] — the vendor-independent configuration IR + parser.
//! * [`srp`] — the Stable Routing Problem: protocol models and solvers.
//! * [`core`] — destination classes, policy BDDs, abstraction refinement.
//! * [`verify`] — property checkers and the two verification engines.
//! * [`topo`] — the paper's synthetic and "real" network generators.
//! * [`daemon`] — `bonsaid`: the resident verification service and its
//!   line-JSON query protocol (Unix socket and/or TCP; the wire contract
//!   is written down in `docs/PROTOCOL.md`, operating it in
//!   `docs/OPERATIONS.md`).
//! * [`obs`] — the telemetry spine: the process-wide metric registry
//!   every layer publishes into (scraped via the daemon's `metrics` op
//!   or `bonsai metrics`) and the structured JSONL tracer behind
//!   `--trace`. The inventory is documented in `docs/OBSERVABILITY.md`.
//!
//! Most programs want [`prelude`] (one import, pipeline order) and, for
//! resident serving, [`Session`] — the compressed network plus its
//! failure sweep kept warm behind memoizing query handles (`bonsaid`
//! serves exactly this object over its listeners).
//!
//! ```
//! use bonsai::core::compress::{compress, CompressOptions};
//! use bonsai::topo::{fattree, FattreePolicy};
//!
//! // A 20-router BGP fattree compresses to 6 nodes per destination.
//! let net = fattree(4, FattreePolicy::ShortestPath);
//! let report = compress(&net, CompressOptions::default());
//! assert_eq!(report.mean_abstract_nodes(), 6.0);
//! ```

pub mod cli;

pub use bonsai_bdd as bdd;
pub use bonsai_config as config;
pub use bonsai_core as core;
pub use bonsai_daemon as daemon;
pub use bonsai_net as net;
pub use bonsai_obs as obs;
pub use bonsai_srp as srp;
pub use bonsai_topo as topo;
pub use bonsai_verify as verify;

pub use bonsai_verify::session::{Session, SessionBuilder, SessionOptions};

/// The one import for the whole pipeline, organized by stage.
///
/// ```
/// use bonsai::prelude::*;
///
/// let net = fattree(4, FattreePolicy::ShortestPath);          // parse / generate
/// let report = compress(&net, CompressOptions::default());    // compress
/// assert_eq!(report.mean_abstract_nodes(), 6.0);
/// ```
///
/// Stages, in pipeline order:
///
/// 1. **parse** — turn text (or a generator) into a
///    [`NetworkConfig`](prelude::NetworkConfig) and its
///    [`BuiltTopology`](prelude::BuiltTopology).
/// 2. **compress** — build destination classes and the per-class
///    abstractions ([`compress`](prelude::compress) →
///    [`CompressionReport`](prelude::CompressionReport)).
/// 3. **sweep** — verify every `≤ k` link-failure scenario, deriving
///    per-scenario refinements shared across classes
///    ([`sweep_network`](prelude::sweep_network) →
///    [`NetworkSweepReport`](prelude::NetworkSweepReport)).
/// 4. **query** — answer reachability at interactive latency: resident
///    [`Session`] handles, or the [`SimEngine`](prelude::SimEngine) /
///    [`SearchBudget`](prelude::SearchBudget) engines with a
///    [`QueryCtx`](prelude::QueryCtx).
pub mod prelude {
    // Stage 1: parse / generate.
    pub use bonsai_config::{parse_network, print_network, BuiltTopology, NetworkConfig};
    pub use bonsai_topo::{fattree, full_mesh, ring, FattreePolicy};

    // Stage 2: compress.
    pub use bonsai_core::compress::{compress, CompressOptions, CompressionReport};

    // Stage 3: sweep.
    pub use bonsai_core::scenarios::{FailureScenario, ScenarioStream};
    pub use bonsai_verify::netsweep::{
        merge_reports, sweep_network, NetworkSweepOptions, NetworkSweepReport, ShardSpec,
    };
    pub use bonsai_verify::sweep::{ScenarioRefinement, SweepOptions};

    // Stage 4: query.
    pub use bonsai_verify::query::{QueryCtx, QueryScope, QueryStats};
    pub use bonsai_verify::search_engine::{SearchBudget, SearchOutcome};
    pub use bonsai_verify::session::{
        QueryAnswer, QueryRequest, Session, SessionBuilder, SessionError, SessionOptions,
        SessionStats,
    };
    pub use bonsai_verify::sim_engine::SimEngine;
}
