//! A reader that closes the pipe early (`bonsai failures … | head`) is a
//! quiet exit for the printing subcommands: the status a SIGPIPE death
//! would have left, nothing on stderr — the write site checks for
//! `BrokenPipe`, no panic is raised and no hook interprets its message.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_quiet_exit() {
    for args in [
        &["failures", "gen:fattree4", "--failures", "1", "--aggregate"][..],
        &["ecs", "gen:fattree4"][..],
    ] {
        // The read end is closed before the child starts, so its first
        // write meets a closed pipe however fast it gets there.
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let child = Command::new(env!("CARGO_BIN_EXE_bonsai"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .spawn()
            .expect("bonsai starts");
        let output = child.wait_with_output().expect("bonsai exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(141), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
