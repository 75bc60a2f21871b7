//! `sdtw index build/query --znorm` on samples near the `f64` range: the
//! z-normalisation moments overflow, and the CLI must refuse with an
//! error message and a non-zero exit code — never a panic.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdtw_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the `sdtw` binary and asserts it failed cleanly: exit code 1, an
/// `error:` line naming the overflow, and no panic message.
fn assert_refused(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_sdtw"))
        .args(args)
        .output()
        .expect("the sdtw binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains("z-normalisation overflows"),
        "{args:?}: unexpected stderr {stderr}"
    );
}

#[test]
fn znorm_index_build_and_query_refuse_overflowing_series() {
    let dir = scratch_dir("znorm_overflow");
    let huge = dir.join("huge.txt");
    let good = dir.join("good.txt");
    let index = dir.join("good.idx");
    std::fs::write(&huge, "1 1e308 1.5e308 1e308 1.5e308 1e308 1.5e308\n").unwrap();
    std::fs::write(
        &good,
        "1 0 1 2 3 2 1\n2 3 2 1 0 1 2\n1 0 2 4 2 0 1\n2 1 1 3 3 1 1\n",
    )
    .unwrap();
    let (huge, good, index) = (
        huge.to_str().unwrap(),
        good.to_str().unwrap(),
        index.to_str().unwrap(),
    );
    let bad_index = dir.join("huge.idx");
    assert_refused(&[
        "index",
        "build",
        huge,
        bad_index.to_str().unwrap(),
        "--znorm",
    ]);

    let built = Command::new(env!("CARGO_BIN_EXE_sdtw"))
        .args(["index", "build", good, index, "--znorm"])
        .output()
        .unwrap();
    assert!(built.status.success(), "{built:?}");
    assert_refused(&["index", "query", index, huge, "--k", "1"]);
    assert_refused(&["index", "query", index, huge, "--k", "1", "--serial"]);
    std::fs::remove_dir_all(&dir).ok();
}
