//! The bounded link-failure study (`bonsai_bench::failures`): concrete vs
//! refined-abstract solving per network and failure bound.
//!
//! ```text
//! failures                 # diamond / gadget / mesh-10 / fattree-4, k = 1..2
//! failures --quick         # CI-friendly subset (fewer sampled classes)
//! failures --k 3           # raise the failure bound
//! failures --json [PATH]   # write a BENCH_failures.json snapshot
//!                          # (default path BENCH_failures.json)
//! ```

use bonsai_bench::failures::{rows, FailureRow};
use bonsai_bench::flags::{Arity, Flags};
use bonsai_bench::{snapshot_json, FAILURES_SNAPSHOT_KIND, FAILURES_SNAPSHOT_VERSION};

fn main() {
    let flags = Flags::from_env(&[
        ("--quick", Arity::Switch),
        ("--k", Arity::Number),
        ("--json", Arity::Optional),
    ]);
    let max_k = flags.number("--k").unwrap_or(2);

    println!("Bounded link-failure study (concrete vs refined-abstract solving)");
    println!("{}", FailureRow::header());
    let mut snapshot: Vec<String> = Vec::new();
    for row in rows(flags.switch("--quick"), max_k) {
        println!("{}", row.render());
        snapshot.push(row.json());
    }

    if let Some(path) = flags.optional("--json") {
        let path = path.unwrap_or("BENCH_failures.json");
        let doc = snapshot_json(FAILURES_SNAPSHOT_KIND, FAILURES_SNAPSHOT_VERSION, &snapshot);
        std::fs::write(path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path} ({} rows)", snapshot.len());
    }
}
