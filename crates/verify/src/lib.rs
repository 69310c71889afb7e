//! # bonsai-verify
//!
//! Property checking over concrete and compressed networks, plus the two
//! analysis engines the paper's evaluation (§8) runs Bonsai in front of:
//!
//! * [`properties`] — the path properties CP-equivalence preserves (§4.4):
//!   reachability, path length, black holes, multipath consistency,
//!   waypointing, routing loops.
//! * [`equivalence`] — an executable CP-equivalence oracle: solves the
//!   concrete and abstract SRPs and checks label- and fwd-equivalence
//!   modulo the attribute abstraction `h` (and modulo the
//!   solution-dependent copy assignment of BGP-split nodes, §4.3).
//! * Link-failure verification (the paper's §9 caveat, made checkable) is
//!   **one plane and one kernel**:
//!   * [`netsweep`] — the plane: the only scenario loop. One lazy
//!     scenario stream, fanned out over the (scenario × destination class)
//!     product by the shared lock-free driver, with per-worker signature
//!     caches, refinements shared **across classes** keyed by (policy
//!     fingerprint, quotient class, canonical signature), symmetry pruning
//!     as a schedule-independent filter, and signature-class sharding.
//!     One class, or the classes a config delta moved, is the same plane
//!     over a subset.
//!   * [`sweep`] — the kernel: keeps the failure-free base abstraction and
//!     derives a tiny localized refinement per scenario signature,
//!     verified with warm-started masked solves (concrete *and* abstract,
//!     via solution transport). [`sweep::derive_refinement`] runs it once,
//!     every cache bypassed — the reference the plane is tested against.
//! * [`sim_engine`] — the **Batfish substitute**: simulates the control
//!   plane per destination class, derives the data plane (with ACLs), and
//!   answers reachability queries — failure-free, under a failure mask,
//!   or on a per-scenario refined abstract network mapped back to
//!   concrete nodes.
//! * [`search_engine`] — the **Minesweeper substitute**: checks a property
//!   over *many stable solutions* by re-solving under systematically
//!   varied activation orders (optionally under a failure mask, or across
//!   every `≤ k` failure scenario), with wall-clock and memory budgets
//!   that report `Timeout` / `OutOfMemory` like the paper's 10-minute
//!   limit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod equivalence;
pub mod netsweep;
pub mod properties;
pub mod query;
pub mod search_engine;
pub mod session;
pub mod sim_engine;
pub mod sweep;

pub use equivalence::{check_cp_equivalence, EquivalenceError};
pub use netsweep::{
    sweep_network, sweep_network_subset, EcSweep, NetworkSweepOptions, NetworkSweepReport,
};
pub use properties::{Reachability, SolutionAnalysis};
pub use query::{QueryCtx, QueryScope, QueryStats};
pub use search_engine::{SearchBudget, SearchOutcome};
pub use session::{
    QueryAnswer, QueryRequest, ReloadOutcome, Session, SessionBuilder, SessionError,
    SessionOptions, SessionStats,
};
pub use sim_engine::SimEngine;
pub use sweep::{
    derive_refinement, lift_failure_mask, Materialized, RefinementProvenance, ScenarioOutcome,
    ScenarioRefinement, SweepOptions, SweepReport,
};
