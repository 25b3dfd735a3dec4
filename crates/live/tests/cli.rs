//! The `airguard-live` binary's invocation contract, driven as a process.

use std::process::Command;

#[test]
fn frames_is_an_unknown_option() {
    let out = Command::new(env!("CARGO_BIN_EXE_airguard-live"))
        .args(["--frames", "f"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag \"--frames\""), "{stderr}");
}
