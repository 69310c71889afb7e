//! The streamed emit stage of `bonsai compress --out`
//! ([`bonsai::cli::compress_streamed`]), driven in process: what the
//! workers write must be, byte for byte, what printing the collected
//! report would have written — at every thread count — and a directory
//! that cannot take the files must come back as a structured error for
//! the lowest failing class, never a panic. The bytes themselves are
//! pinned: every class file of four networks has the FNV-1a digest the
//! emitter wrote before configurations were rendered from layouts.
//!
//! Every test takes [`serial`]: the emit counters are process-wide, and
//! holding them still lets the counter test compare exactly.

use bonsai::cli::{
    class_file_name, compress_streamed, compress_summary_line, first_emit_error, EmitError,
};
use bonsai::config::{parse_network, print_network, BuiltTopology, NetworkConfig};
use bonsai::core::compress::{compress, compress_each, CompressOptions};
use bonsai::topo::{datacenter, fattree, DatacenterParams, FattreePolicy};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// One test of this binary at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A Clos small enough for a debug build: 2 clusters × (2 aggs + 3 ToRs),
/// 2 spines, 1 border, 12 destination classes.
fn small_datacenter() -> NetworkConfig {
    datacenter(DatacenterParams {
        clusters: 2,
        aggs_per_cluster: 2,
        tors_per_cluster: 3,
        spines: 2,
        prefixes_per_tor: 2,
        ..Default::default()
    })
}

/// Communities set on export and matched on import, so the abstract
/// networks carry community lists and multi-clause route maps.
fn community_net() -> NetworkConfig {
    parse_network(
        "
device edge
interface i
ip community-list prio permit 7:1
ip community-list drop permit 9:9
route-map IN permit 10
 match community prio
 set local-preference 300
 set community 7:2 additive
route-map IN deny 20
 match community drop
route-map IN permit 30
router bgp 1
 network 10.0.1.0/24
 network 10.0.2.0/24
 network 10.0.3.0/24
 neighbor i remote-as external
 neighbor i route-map IN in
end
device core
interface i
route-map OUT permit 10
 set community 7:1 additive
router bgp 2
 network 10.1.0.0/24
 neighbor i remote-as external
 neighbor i route-map OUT out
end
link edge i core i
",
    )
    .unwrap()
}

fn options(threads: usize) -> CompressOptions {
    CompressOptions {
        threads,
        ..Default::default()
    }
}

/// A fresh directory of this test's own (tests run in parallel threads).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bonsai-compress-stream-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The summary row up to its run-to-run timings.
fn exact_part(summary: &str) -> &str {
    summary.split("; BDD").next().unwrap()
}

#[test]
fn emitted_directory_is_the_printed_collected_report_at_every_thread_count() {
    let _serial = serial();
    for (name, net) in [("dc", small_datacenter()), ("tags", community_net())] {
        let topo = BuiltTopology::build(&net).unwrap();
        let collected = compress(&net, options(1));
        assert!(collected.num_ecs() > 1, "{name}: one class proves little");
        let expected_summary = compress_summary_line(&collected);

        for threads in [1, 2, 4] {
            let dir = scratch(&format!("{name}-t{threads}"));
            let report = compress_streamed(&net, options(threads), Some(&dir)).unwrap();
            assert!(first_emit_error(&report).is_none());
            assert_eq!(
                exact_part(&compress_summary_line(&report)),
                exact_part(&expected_summary),
                "{name}, {threads} threads"
            );

            let mut files: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            files.sort();
            let mut names: Vec<String> = collected
                .per_ec
                .iter()
                .map(|c| class_file_name(c.ec.rep))
                .collect();
            names.sort();
            assert_eq!(files, names, "{name}, {threads} threads");

            for (class, summary) in collected.per_ec.iter().zip(&report.per_ec) {
                let text =
                    std::fs::read_to_string(dir.join(class_file_name(class.ec.rep))).unwrap();
                let rendered = class.abstract_network(&net, &topo);
                assert_eq!(
                    text,
                    print_network(&rendered.network),
                    "{name}, {threads} threads, class {}",
                    class.ec.rep
                );
                assert!(!text.is_empty());
                assert_eq!(*summary.emitted.as_ref().unwrap(), text.len());
                // The product is a network in the input format.
                let reparsed = parse_network(&text).unwrap();
                assert_eq!(reparsed, rendered.network);
                BuiltTopology::build(&reparsed).unwrap();
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

const COUNTERS: [&str; 4] = [
    "compress.emit.files",
    "compress.emit.bytes",
    "compress.emit.sections",
    "compress.abstract.rendered",
];

/// How far each of [`COUNTERS`] moves while `run` runs.
fn counters_moved<T>(run: impl FnOnce() -> T) -> (T, [u64; 4]) {
    let before = COUNTERS.map(bonsai::obs::value);
    let result = run();
    let mut moved = COUNTERS.map(bonsai::obs::value);
    for (now, was) in moved.iter_mut().zip(before) {
        *now -= was;
    }
    (result, moved)
}

#[test]
fn emit_counters_cover_what_the_run_wrote() {
    let _serial = serial();
    for (name, net) in [("tags", community_net()), ("dc", small_datacenter())] {
        let dir = scratch(&format!("counters-{name}"));
        let (report, moved) =
            counters_moved(|| compress_streamed(&net, options(2), Some(&dir)).unwrap());
        let written: usize = report
            .per_ec
            .iter()
            .map(|c| *c.emitted.as_ref().unwrap())
            .sum();
        let files = std::fs::read_dir(&dir).unwrap().count() as u64;
        // One policy section per device some class copies, however many
        // classes copy it.
        let reps: std::collections::BTreeSet<_> = (compress(&net, options(1)).per_ec.iter())
            .flat_map(|c| c.abstract_network.reps.clone())
            .collect();
        assert!(reps.len() <= net.devices.len());
        // Printed from the layouts: no configuration is rendered.
        assert_eq!(
            moved,
            [files, written as u64, reps.len() as u64, 0],
            "{name}"
        );
        assert_eq!(files, report.num_ecs() as u64);
        std::fs::remove_dir_all(&dir).unwrap();

        // Without an output directory nothing is printed or rendered.
        let (_, moved) = counters_moved(|| compress_streamed(&net, options(2), None).unwrap());
        assert_eq!(moved, [0; 4], "{name}");
    }
}

/// Two linked routers that originate nothing have no destination class,
/// and so no compression ratio.
#[test]
fn a_network_without_classes_prints_no_ratio() {
    let _serial = serial();
    let net = parse_network(
        "
device a
interface i
end
device b
interface i
end
link a i b i
",
    )
    .unwrap();
    let report = compress_streamed(&net, options(1), None).unwrap();
    assert_eq!(report.num_ecs(), 0);
    assert_eq!(
        exact_part(&compress_summary_line(&report)),
        "2 devices / 1 links -> 0.0±0.0 nodes, 0.0±0.0 links (no classes) across 0 classes"
    );
}

/// The FNV-1a digest of every class file `compress --out` writes for
/// `gen:fattree4`, `gen:gadget`, [`small_datacenter`] and
/// [`community_net`], as the emitter that rendered each configuration
/// inside `build_abstract_network` wrote them.
const DIGESTS: &[(&str, &str, u64)] = &[
    ("fattree4", "10.0.0.0_24.cfg", 5081978263261476970),
    ("fattree4", "10.0.1.0_24.cfg", 3998342206302551657),
    ("fattree4", "10.1.0.0_24.cfg", 299656601610950009),
    ("fattree4", "10.1.1.0_24.cfg", 390706138010012602),
    ("fattree4", "10.2.0.0_24.cfg", 6992711387526916534),
    ("fattree4", "10.2.1.0_24.cfg", 2131127438401555287),
    ("fattree4", "10.3.0.0_24.cfg", 11375048485624717819),
    ("fattree4", "10.3.1.0_24.cfg", 18028645730654287990),
    ("gadget", "10.0.0.0_24.cfg", 4918747876147711357),
    ("dc", "10.1.0.0_24.cfg", 15483684812100533706),
    ("dc", "10.1.1.0_24.cfg", 10982597642665435393),
    ("dc", "10.1.2.0_24.cfg", 12947430880346233796),
    ("dc", "10.1.3.0_24.cfg", 13695402111054844821),
    ("dc", "10.1.4.0_24.cfg", 7836239807424930019),
    ("dc", "10.1.5.0_24.cfg", 17096987124942978962),
    ("dc", "10.2.0.0_24.cfg", 11142065918697460573),
    ("dc", "10.2.1.0_24.cfg", 1111847832648405412),
    ("dc", "10.2.2.0_24.cfg", 11935542543223389597),
    ("dc", "10.2.3.0_24.cfg", 12143373410324756326),
    ("dc", "10.2.4.0_24.cfg", 1513895311561031034),
    ("dc", "10.2.5.0_24.cfg", 8240268613535879313),
    ("tags", "10.0.1.0_24.cfg", 11587681941555255330),
    ("tags", "10.0.2.0_24.cfg", 18365056463651554695),
    ("tags", "10.0.3.0_24.cfg", 3692043937374550616),
    ("tags", "10.1.0.0_24.cfg", 3009610785844977406),
];

#[test]
fn emitted_files_have_the_pinned_digests() {
    let _serial = serial();
    let mut found = Vec::new();
    for (name, net) in [
        ("fattree4", fattree(4, FattreePolicy::ShortestPath)),
        ("gadget", bonsai::srp::papernets::figure2_gadget()),
        ("dc", small_datacenter()),
        ("tags", community_net()),
    ] {
        let dir = scratch(&format!("digests-{name}"));
        let report = compress_streamed(&net, options(2), Some(&dir)).unwrap();
        assert!(first_emit_error(&report).is_none());
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        for file in files {
            let text = std::fs::read(dir.join(&file)).unwrap();
            found.push((name, file, fnv1a(&text)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let pinned: Vec<(&str, String, u64)> = (DIGESTS.iter())
        .map(|&(name, file, digest)| (name, file.to_string(), digest))
        .collect();
    assert_eq!(found, pinned);
}

#[test]
fn without_an_output_directory_nothing_is_written_and_the_summary_is_the_same() {
    let _serial = serial();
    let net = small_datacenter();
    let streamed = compress_streamed(&net, options(2), None).unwrap();
    assert!(streamed.per_ec.iter().all(|c| matches!(c.emitted, Ok(0))));
    assert_eq!(
        exact_part(&compress_summary_line(&streamed)),
        exact_part(&compress_summary_line(&compress(&net, options(1)))),
    );
}

#[test]
fn an_output_path_under_a_regular_file_is_a_create_error() {
    let _serial = serial();
    let dir = scratch("under-file");
    let file = dir.join("plain");
    std::fs::write(&file, "not a directory").unwrap();
    let out = file.join("abstract");
    match compress_streamed(&community_net(), options(2), Some(&out)) {
        Err(e @ EmitError::CreateDir { .. }) => {
            assert!(e
                .to_string()
                .starts_with(&format!("cannot create {}: ", out.display())));
        }
        Err(other) => panic!("expected a create error, got {other}"),
        Ok(_) => panic!("a directory under a regular file cannot be created"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unwritable_class_files_report_the_lowest_failing_class() {
    let _serial = serial();
    let net = small_datacenter();
    let collected = compress(&net, options(1));
    // Two classes' file names are taken by directories; the run must name
    // the earlier one whatever the schedule, and still write the rest.
    let blocked = [3usize, 7];
    for threads in [1, 2, 4] {
        let dir = scratch(&format!("blocked-t{threads}"));
        for &i in &blocked {
            std::fs::create_dir(dir.join(class_file_name(collected.per_ec[i].ec.rep))).unwrap();
        }
        let report = compress_streamed(&net, options(threads), Some(&dir)).unwrap();
        let first_file = dir.join(class_file_name(collected.per_ec[blocked[0]].ec.rep));
        match first_emit_error(&report) {
            Some(e @ EmitError::Write { index, file, .. }) => {
                assert_eq!(*index, blocked[0], "{threads} threads");
                assert_eq!(*file, first_file);
                assert!(e
                    .to_string()
                    .starts_with(&format!("cannot write {}: ", first_file.display())));
            }
            other => panic!("expected a write error, got {other:?}"),
        }
        for (i, summary) in report.per_ec.iter().enumerate() {
            assert_eq!(summary.emitted.is_err(), blocked.contains(&i), "class {i}");
        }
        // The summary does not depend on what could be written.
        assert_eq!(
            exact_part(&compress_summary_line(&report)),
            exact_part(&compress_summary_line(&collected)),
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn compress_is_compress_each_collected() {
    let _serial = serial();
    for net in [small_datacenter(), community_net()] {
        let topo = BuiltTopology::build(&net).unwrap();
        let collected = compress(&net, options(2));
        for threads in [1, 2, 4] {
            let streamed = compress_each(&net, options(threads), |index, class, topo| {
                let network = class.abstract_network(&net, topo).network.clone();
                (index, class.ec.rep, network)
            });
            assert_eq!(streamed.num_ecs(), collected.num_ecs());
            assert_eq!(streamed.concrete_nodes, collected.concrete_nodes);
            assert_eq!(streamed.concrete_links, collected.concrete_links);
            for (i, ((index, rep, network), class)) in
                streamed.per_ec.iter().zip(&collected.per_ec).enumerate()
            {
                assert_eq!(*index, i, "results come back in class order");
                assert_eq!(*rep, class.ec.rep);
                assert_eq!(*network, class.abstract_network(&net, &topo).network);
            }
        }
    }
}
