//! Regenerates **Figure 12**: verification time for an all-pairs
//! reachability query, with and without compression, as topology size
//! grows — for (a) fattree, (b) full mesh, (c) ring.
//!
//! The verifier is the exhaustive-solution search engine (our Minesweeper
//! substitute) under a wall-clock budget; `TIMEOUT` / `OOM` rows mirror
//! the paper's 10-minute timeout and full-mesh out-of-memory failures.
//!
//! ```text
//! fig12 [--quick] [--timeout <secs>]
//! ```

use bonsai_bench::fig12_point;
use bonsai_bench::flags::{Arity, Flags};
use bonsai_topo::{fattree, full_mesh, ring, FattreePolicy};
use bonsai_verify::search_engine::SearchBudget;
use std::time::Duration;

fn main() {
    let flags = Flags::from_env(&[("--quick", Arity::Switch), ("--timeout", Arity::Number)]);
    let quick = flags.switch("--quick");
    let timeout = flags
        .number("--timeout")
        .unwrap_or(if quick { 10 } else { 120 });
    let budget = SearchBudget {
        wall: Duration::from_secs(timeout as u64),
        ..Default::default()
    };

    let fattree_ks: &[usize] = if quick { &[4, 6] } else { &[4, 8, 12, 16, 20] };
    let mesh_ns: &[usize] = if quick {
        &[8, 16]
    } else {
        &[25, 50, 100, 150, 200]
    };
    let ring_ns: &[usize] = if quick {
        &[16, 32]
    } else {
        &[50, 100, 200, 400]
    };

    println!("(a) Fattree");
    header();
    for &k in fattree_ks {
        row(fig12_point(
            &fattree(k, FattreePolicy::ShortestPath),
            budget,
        ));
    }
    println!("\n(b) Full Mesh");
    header();
    for &n in mesh_ns {
        row(fig12_point(&full_mesh(n), budget));
    }
    println!("\n(c) Ring");
    header();
    for &n in ring_ns {
        row(fig12_point(&ring(n), budget));
    }
}

fn header() {
    println!(
        "{:>7} {:>14} {:>12} {:>14} {:>12}",
        "nodes", "concrete", "time(s)", "compressed", "time(s)"
    );
}

fn row(p: bonsai_bench::Fig12Point) {
    println!(
        "{:>7} {:>14} {:>12.2} {:>14} {:>12.2}",
        p.nodes,
        p.concrete.0,
        p.concrete.1.as_secs_f64(),
        p.compressed.0,
        p.compressed.1.as_secs_f64(),
    );
}
