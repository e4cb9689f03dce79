//! The `collectd` binary refuses a bad command line with its usage
//! line and exit code 2, never with a panic.

use std::process::Command;

#[test]
fn bad_flags_print_usage_and_exit_2() {
    for args in [&["--shards", "x"][..], &["--bogus"], &["--bind"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_collectd"))
            .args(args)
            .output()
            .expect("spawn collectd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
