//! # bonsai-config
//!
//! A vendor-independent router-configuration representation, together with a
//! parser and printer for a Cisco-like textual dialect.
//!
//! The Bonsai paper consumes Batfish's vendor-independent intermediate
//! representation and *emits abstract networks in the same form*. There is
//! no router-config parsing library in the Rust ecosystem, so this crate is
//! that substrate, built from scratch:
//!
//! * [`ir`] — the typed configuration model: devices, interfaces, BGP /
//!   OSPF / static routing configuration, route maps, prefix lists,
//!   community lists and ACLs.
//! * [`eval`] — the *single source of truth* for policy semantics: route
//!   map, prefix list and ACL evaluation. Both the SRP simulator
//!   (`bonsai-srp`) and the BDD compiler (`bonsai-core`) are defined in
//!   terms of these functions, which is what makes the BDD encoding
//!   faithful to the simulated behavior.
//! * [`parse`] / [`mod@print`] — a line-oriented, IOS-flavoured dialect with a
//!   hand-written lexer and parser. `parse(print(c)) == c` is tested by a
//!   round-trip property.
//! * [`topology`] — derives the SRP graph from device/link declarations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod ir;
pub mod parse;
pub mod print;
pub mod topology;

pub use eval::{PolicyInput, PolicyResult};
pub use ir::*;
pub use parse::{parse_device, parse_network, ParseError};
pub use print::{print_device, print_network};
pub use topology::BuiltTopology;
