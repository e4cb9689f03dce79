//! `collectd` — run the beacon collector as a foreground daemon.
//!
//! ```text
//! collectd [--bind ADDR] [--max-conns N] [--read-timeout-ms MS]
//!          [--capacity N] [--shards N] [--batch N]
//!          [--reactor] [--reactor-workers N] [--ack-buffer-cap BYTES]
//!          [--duration-secs S] [--metrics PATH] [--metrics-json PATH]
//!          [--wal-dir DIR] [--sync none|batch|record]
//! ```
//!
//! Listens for binary and JSON beacon streams on `ADDR` (default
//! `127.0.0.1:4050`). Runs for `--duration-secs` if given, otherwise
//! until stdin closes or a line containing `quit` arrives. On exit it
//! shuts down gracefully — draining in-flight frames into the store —
//! and prints the final ops snapshot as JSON on stdout.
//!
//! With `--wal-dir DIR` the daemon runs on the durable backend from
//! `qtag-store`: state recovered from `DIR` on start (snapshot + WAL
//! replay; the recovery report prints on stderr), every beacon batch
//! journaled ahead of apply under the `--sync` policy (default
//! `batch`), and the logs fsynced and compacted into fresh snapshots
//! on graceful exit.
//!
//! `--reactor` serves connections on a few epoll event loops instead
//! of one thread per connection (`--reactor-workers`, default 2) —
//! the mode for tens of thousands of concurrent sockets.
//! `--ack-buffer-cap` bounds the per-connection ack backlog towards a
//! slow acked client before its reads are paused.
//!
//! The ops path doubles as the metrics endpoint: while running, a
//! `metrics` line on stdin prints the live registry as Prometheus text
//! exposition, `metrics-json` prints the same registry as a JSON
//! snapshot, and `ops` prints the legacy ops snapshot (all three read
//! the same atomic cells). `--metrics PATH` / `--metrics-json PATH`
//! additionally dump the final exposition on exit.

use qtag_collectd::{Collector, CollectorConfig};
use qtag_server::ShardedStore;
use qtag_store::{DurableBackend, DurableConfig, StorageBackend, SyncPolicy};
use std::io::BufRead;
use std::time::Duration;

const USAGE: &str = "usage: collectd [--bind ADDR] [--max-conns N] [--read-timeout-ms MS] \
                     [--capacity N] [--shards N] [--batch N] \
                     [--reactor] [--reactor-workers N] [--ack-buffer-cap BYTES] \
                     [--duration-secs S] [--metrics PATH] [--metrics-json PATH] \
                     [--wal-dir DIR] [--sync none|batch|record]";

struct BinArgs {
    cfg: CollectorConfig,
    shards: usize,
    duration: Option<Duration>,
    metrics: Option<String>,
    metrics_json: Option<String>,
    wal_dir: Option<String>,
    sync: SyncPolicy,
}

/// Parses the command line; `Err` names the bad flag.
fn parse_args() -> Result<BinArgs, String> {
    let mut out = BinArgs {
        cfg: CollectorConfig {
            bind: "127.0.0.1:4050".to_string(),
            ..CollectorConfig::default()
        },
        shards: 1,
        duration: None,
        metrics: None,
        metrics_json: None,
        wal_dir: None,
        sync: SyncPolicy::Batch,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        let mut value = || {
            args.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--bind" => out.cfg.bind = value()?.to_string(),
            "--max-conns" => out.cfg.max_connections = parse(flag, value()?)?,
            "--read-timeout-ms" => {
                out.cfg.read_timeout = Duration::from_millis(parse(flag, value()?)?)
            }
            "--capacity" => out.cfg.inlet_capacity = parse(flag, value()?)?,
            "--shards" => out.shards = parse(flag, value()?)?,
            "--batch" => out.cfg.batch = parse(flag, value()?)?,
            "--reactor" => out.cfg.reactor = true,
            "--reactor-workers" => out.cfg.reactor_workers = parse(flag, value()?)?,
            "--ack-buffer-cap" => out.cfg.ack_buffer_cap = parse(flag, value()?)?,
            "--duration-secs" => out.duration = Some(Duration::from_secs(parse(flag, value()?)?)),
            "--metrics" => out.metrics = Some(value()?.to_string()),
            "--metrics-json" => out.metrics_json = Some(value()?.to_string()),
            "--wal-dir" => out.wal_dir = Some(value()?.to_string()),
            "--sync" => out.sync = parse(flag, value()?)?,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("collectd: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let backend: Option<DurableBackend> = args.wal_dir.as_ref().map(|dir| {
        let (backend, report) = DurableBackend::open(DurableConfig {
            dir: dir.into(),
            shards: args.shards,
            sync: args.sync,
        })
        .unwrap_or_else(|e| panic!("open WAL dir {dir}: {e}"));
        eprintln!("collectd: recovered from {dir}: {report:?}");
        backend
    });
    let (store, journal) = match &backend {
        Some(b) => (b.store().clone(), b.journal()),
        None => (ShardedStore::new(args.shards), None),
    };
    let collector =
        Collector::start_sharded_journaled(args.cfg, store, journal).expect("bind listener");
    if let Some(b) = &backend {
        b.stats().register(collector.registry(), "qtag_store");
    }
    eprintln!("collectd: listening on {}", collector.local_addr());

    match args.duration {
        Some(d) => std::thread::sleep(d),
        None => {
            eprintln!(
                "collectd: running until stdin closes (or a `quit` line; \
                 `metrics`, `metrics-json` and `ops` print live snapshots)"
            );
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(l) if l.trim() == "quit" => break,
                    Ok(l) if l.trim() == "metrics" => print!("{}", collector.metrics_text()),
                    Ok(l) if l.trim() == "metrics-json" => {
                        println!("{}", collector.metrics_json())
                    }
                    Ok(l) if l.trim() == "ops" => println!(
                        "{}",
                        serde_json::to_string_pretty(&collector.ops_snapshot())
                            .expect("ops snapshot serializes")
                    ),
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
    }

    // The registry outlives the collector handle, so the final dumps
    // see the fully drained counters.
    let registry = std::sync::Arc::clone(collector.registry());
    let ops = collector.shutdown();
    if let Some(b) = &backend {
        // Every drained beacon is journaled; make it stable, then fold
        // the log into a snapshot so the next start replays nothing.
        b.flush().expect("flush WAL");
        b.compact().expect("compact WAL");
        eprintln!("collectd: WAL flushed and compacted");
    }
    if let Some(path) = &args.metrics {
        std::fs::write(path, registry.render_prometheus())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("collectd: wrote {path}");
    }
    if let Some(path) = &args.metrics_json {
        std::fs::write(path, registry.render_json())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("collectd: wrote {path}");
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&ops).expect("ops snapshot serializes")
    );
}
