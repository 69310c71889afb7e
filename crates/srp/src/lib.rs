//! # bonsai-srp
//!
//! The **Stable Routing Problem** (SRP) of the Bonsai paper (§3), as an
//! executable model:
//!
//! * [`model`] — the SRP tuple `(G, A, a_d, ≺, trans)` as a [`Protocol`]
//!   trait plus the [`Solution`] type and the local-stability checker that
//!   mirrors the constraints of Figure 4.
//! * [`solver`] — an asynchronous-activation fixpoint solver that computes
//!   stable solutions (one per activation order) and detects divergence.
//!   This doubles as the control-plane simulator that Batfish provides in
//!   the paper's toolchain.
//! * [`protocols`] — the concrete protocol models of §3.2 and §6:
//!   RIP (distance vector), OSPF (link state with areas), eBGP/iBGP
//!   (path vector with local preference, communities and loop prevention),
//!   static routes, and the multi-protocol RIB with administrative distance
//!   and route redistribution.
//! * [`instance`] — builds the multi-protocol SRP for one destination
//!   equivalence class straight from a vendor-independent configuration,
//!   read through a [`view`]: the network itself, or a concrete network
//!   lifted onto an abstraction's graph.
//!
//! Attributes carry *node* paths (`list(V)`, exactly as in the paper's
//! Figure 5) rather than AS numbers; in the networks studied each router is
//! its own AS, so the two coincide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instance;
pub mod model;
pub mod papernets;
pub mod protocols;
pub mod solver;
pub mod view;

pub use instance::{EcDest, MultiProtocol, OriginProto};
pub use model::{Protocol, Solution, Srp};
pub use solver::{
    solve, solve_masked, solve_warm_masked, solve_with_order, solve_with_order_masked, SolveError,
    SolverOptions,
};
pub use view::ConfigView;
