//! The `collectd` binary end to end. A bad command line is refused
//! with the usage line and exit code 2, never with a panic; `--batch`
//! and `--reactor` are refused like any unknown flag (neither tunes
//! anything the daemon runs). A good one serves beacons over TCP,
//! journals them, and recovers them on the next start.

use serde_json::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};

#[test]
fn bad_flags_print_usage_and_exit_2() {
    for args in [
        &["--shards", "x"][..],
        &["--bogus"],
        &["--bind"],
        &["--batch", "8"],
        &["--reactor"],
    ] {
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

/// The golden JSON beacon of `qtag-wire`'s `json_encoding_is_stable`.
const GOLDEN_JSON: &str = concat!(
    "{\"impression_id\":72623859790382856,\"campaign_id\":168496141,",
    "\"event\":\"InView\",\"timestamp_us\":1250000,\"ad_format\":\"Display\",",
    "\"visible_fraction_milli\":730,\"exposure_ms\":1000,\"os\":\"Android\",",
    "\"browser\":\"AndroidWebView\",\"site_type\":\"App\",\"seq\":3}"
);

/// A daemon on an ephemeral port over `wal_dir`, its stdio piped.
fn spawn_daemon(wal_dir: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_collectd"))
        .args(["--bind", "127.0.0.1:0", "--wal-dir", wal_dir])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn collectd")
}

/// Reads the daemon's stderr up to its `listening on` line. Returns
/// the lines read and the bound address; the reader stays open, since
/// the daemon logs again on exit.
fn read_until_listening(stderr: &mut BufReader<ChildStderr>) -> (Vec<String>, String) {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "collectd exited before listening: {lines:?}"
        );
        let addr = line
            .trim()
            .strip_prefix("collectd: listening on ")
            .map(str::to_string);
        lines.push(line);
        if let Some(addr) = addr {
            return (lines, addr);
        }
    }
}

/// Sends `quit`, waits for the exit, and returns the ops snapshot the
/// daemon printed on stdout plus the rest of its stderr.
fn quit(mut child: Child, mut stderr: BufReader<ChildStderr>) -> (JsonValue, String) {
    child.stdin.take().unwrap().write_all(b"quit\n").unwrap();
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    assert!(child.wait().unwrap().success(), "{rest}");
    let ops = serde_json::from_str_value(&stdout).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    (ops, rest)
}

/// `ops.collector.<name>` from the daemon's ops snapshot.
fn collector_counter(ops: &JsonValue, name: &str) -> u64 {
    let field = |v: &JsonValue, key: &str| {
        v.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone())
    };
    match field(ops, "collector").and_then(|c| field(&c, name)) {
        Some(JsonValue::UInt(n)) => n,
        other => panic!("collector.{name} is {other:?} in {ops:?}"),
    }
}

/// One JSON beacon through the daemon binary and back out of its
/// journal: the graceful exit drains the connection into the durable
/// store and compacts it into a snapshot, and the next start on the
/// same directory loads that snapshot, which holds the beacon.
#[test]
fn daemon_serves_a_beacon_and_recovers_it_on_restart() {
    let dir = std::env::temp_dir().join(format!("qtag-collectd-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_dir = dir.to_str().unwrap();

    let mut child = spawn_daemon(wal_dir);
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let (_, addr) = read_until_listening(&mut stderr);
    let mut sock = TcpStream::connect(&addr).unwrap();
    sock.write_all(format!("{GOLDEN_JSON}\n").as_bytes())
        .unwrap();
    drop(sock);
    let (ops, rest) = quit(child, stderr);
    assert_eq!(collector_counter(&ops, "frames_decoded"), 1);
    assert_eq!(collector_counter(&ops, "corrupt_frames"), 0);
    assert!(rest.contains("WAL flushed and compacted"), "{rest}");

    let mut child = spawn_daemon(wal_dir);
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let (lines, _) = read_until_listening(&mut stderr);
    let report = lines
        .iter()
        .find(|l| l.contains("recovered from"))
        .unwrap_or_else(|| panic!("no recovery report: {lines:?}"));
    assert!(report.contains("snapshots_loaded: 1"), "{report}");
    assert!(report.contains("records_replayed: 0"), "{report}");
    assert!(report.contains("stale_wals_discarded: 0"), "{report}");
    // Nothing served the golden impression, so the store holds its
    // beacon as an orphan.
    let snap = qtag_store::read_snapshot(&dir, 0).unwrap().unwrap();
    assert_eq!(snap.orphan_beacons, 1, "{snap:?}");
    let (ops, _) = quit(child, stderr);
    assert_eq!(collector_counter(&ops, "frames_decoded"), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
