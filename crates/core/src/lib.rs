//! # bonsai-core
//!
//! The primary contribution of *Control Plane Compression* (Beckett, Gupta,
//! Mahajan, Walker — SIGCOMM 2018): an algorithm that compresses a large
//! network into a smaller one with **equivalent control-plane behavior**
//! (a bisimulation on stable routing solutions), so that any analysis —
//! simulation, emulation or verification — can run on the small network
//! instead.
//!
//! Pipeline (paper §5), on the shared-engine architecture:
//!
//! 1. [`ecs`] — partition the address space into destination equivalence
//!    classes; one abstraction is built per class.
//! 2. [`engine`] — build **one** [`engine::CompiledPolicies`] per network:
//!    the community-variable model, a single BDD arena, and cross-class
//!    caches of compiled route-map stages and per-edge BGP signatures.
//!    Classes share everything destination-independent, and everything
//!    destination-dependent that resolves the same way.
//! 3. [`policy_bdd`] / [`signatures`] — the compilation kernel and the
//!    per-class signature tables built through the engine; canonical BDD
//!    `Ref`s make transfer-function equality O(1).
//! 4. [`algorithm`] — abstraction refinement (Algorithm 1): split abstract
//!    nodes until the partition satisfies the effective-abstraction
//!    conditions; bound BGP loop-prevention behaviors by `|prefs|` and
//!    split abstract nodes into that many copies.
//! 5. [`abstraction`] — lay out each class's abstract network (numbering,
//!    graph, the concrete objects each node and edge copies) and render it
//!    as vendor-independent configurations.
//! 6. [`conditions`] — independently check the effective-abstraction
//!    conditions of Figure 4 (test oracle / user sanity API).
//! 7. [`mod@compress`] — the driver: classes fanned over scoped workers
//!    against the shared engine, collected lock-free, with the timing and
//!    engine-statistics breakdown reported in Table 1; plus the
//!    counterexample-guided [`compress::refine_ec_with_split`] step the
//!    failure sweep derives each scenario's refinement with.
//! 8. [`roles`] — the §8 role analysis (unique transfer functions per
//!    device, with the unused-community-stripping `h`).
//! 9. [`scenarios`] — bounded link-failure scenario enumeration with
//!    symmetry pruning over the abstraction's link orbits (the input to
//!    `bonsai-verify`'s failure sweep), plus the orbit *signatures* the
//!    sweep caches refinements by.
//! 10. [`fanout`] — the shared lock-free atomic-index fan-out driver that
//!     both the compression driver and the failure-scenario sweep pull
//!     work items from.
//! 11. [`snapshot`] — the minimal JSON reader/writer and the one
//!     versioned snapshot envelope shared by the bench, CLI, and daemon
//!     serializers.
//! 12. [`symmetry`] — the class witness: a verified automorphism carrying
//!     one destination class onto another, found by
//!     individualization–refinement from the quotient's canonical colours.
//!
//! ```
//! use bonsai_core::compress::{compress, CompressOptions};
//!
//! let net = bonsai_srp::papernets::figure2_gadget();
//! let report = compress(&net, CompressOptions::default());
//! assert_eq!(report.num_ecs(), 1);
//! // 5 concrete nodes compress to 4 abstract ones (Figure 3(c)).
//! assert_eq!(report.mean_abstract_nodes(), 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstraction;
pub mod algorithm;
pub mod compress;
pub mod conditions;
pub mod delta;
pub mod ecs;
pub mod engine;
pub mod fanout;
pub mod policy_bdd;
pub mod roles;
pub mod scenarios;
pub mod signatures;
pub mod snapshot;
pub mod symmetry;

pub use abstraction::{build_abstract_network, AbstractLayout, AbstractNetwork};
pub use algorithm::{find_abstraction, find_abstraction_from, refine_with_split, Abstraction};
pub use compress::{
    build_engine, compress, compress_each, compress_ec, recompress_delta, ClassStats,
    CompressOptions, CompressionReport, DeltaReport, EcCompression,
};
pub use conditions::{check_effective, Violation};
pub use delta::{diff_configs, ConfigDelta};
pub use ecs::{compute_ecs, DestEc};
pub use engine::{CompiledPolicies, DeltaInvalidation, EngineStats};
pub use fanout::{fan_out, fan_out_ranges};
pub use roles::{count_roles, role_assignment, RoleOptions};
pub use scenarios::{link_orbits, FailureScenario, LinkOrbits, OrbitSignature, ScenarioStream};
