//! The streamed emit stage of `bonsai compress --out`
//! ([`bonsai::cli::compress_streamed`]), driven in process: what the
//! workers write must be, byte for byte, what printing the collected
//! report would have written — at every thread count — and a directory
//! that cannot take the files must come back as a structured error for
//! the lowest failing class, never a panic.

use bonsai::cli::{
    class_file_name, compress_streamed, compress_summary_line, first_emit_error, EmitError,
};
use bonsai::config::{parse_network, print_network, BuiltTopology, NetworkConfig};
use bonsai::core::compress::{compress, compress_each, CompressOptions};
use bonsai::topo::{datacenter, DatacenterParams};
use std::path::PathBuf;

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
    for (name, net) in [("dc", small_datacenter()), ("tags", community_net())] {
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
                assert_eq!(
                    text,
                    print_network(&class.abstract_network.network),
                    "{name}, {threads} threads, class {}",
                    class.ec.rep
                );
                assert!(!text.is_empty());
                assert_eq!(*summary.emitted.as_ref().unwrap(), text.len());
                // The product is a network in the input format.
                let reparsed = parse_network(&text).unwrap();
                assert_eq!(reparsed, class.abstract_network.network);
                BuiltTopology::build(&reparsed).unwrap();
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn emit_counters_cover_what_the_run_wrote() {
    let net = community_net();
    let dir = scratch("counters");
    // Other tests of this binary emit concurrently: the counters only grow.
    let (files0, bytes0) = (
        bonsai::obs::value("compress.emit.files"),
        bonsai::obs::value("compress.emit.bytes"),
    );
    let report = compress_streamed(&net, options(2), Some(&dir)).unwrap();
    let written: usize = report
        .per_ec
        .iter()
        .map(|c| *c.emitted.as_ref().unwrap())
        .sum();
    assert!(bonsai::obs::value("compress.emit.files") >= files0 + report.num_ecs() as u64);
    assert!(bonsai::obs::value("compress.emit.bytes") >= bytes0 + written as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn without_an_output_directory_nothing_is_written_and_the_summary_is_the_same() {
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
    for net in [small_datacenter(), community_net()] {
        let collected = compress(&net, options(2));
        for threads in [1, 2, 4] {
            let streamed = compress_each(&net, options(threads), |index, class| {
                (index, class.ec.rep, class.abstract_network.network)
            });
            assert_eq!(streamed.num_ecs(), collected.num_ecs());
            assert_eq!(streamed.concrete_nodes, collected.concrete_nodes);
            assert_eq!(streamed.concrete_links, collected.concrete_links);
            for (i, ((index, rep, network), class)) in
                streamed.per_ec.iter().zip(&collected.per_ec).enumerate()
            {
                assert_eq!(*index, i, "results come back in class order");
                assert_eq!(*rep, class.ec.rep);
                assert_eq!(*network, class.abstract_network.network);
            }
        }
    }
}
