//! Golden-file tests for the two registry sinks: Prometheus text
//! exposition and the JSON snapshot. The rendered output is compared
//! byte-for-byte against files checked in under `tests/golden/`, so
//! any change to ordering, escaping or schema is a reviewed diff, not
//! a silent drift.
//!
//! Regenerate after an intentional format change with
//! `QTAG_UPDATE_GOLDEN=1 cargo test -p qtag-obs --test golden_exposition`.

use qtag_obs::Registry;
use std::path::PathBuf;

/// A deterministic registry exercising every slot kind, plus HELP
/// strings that need escaping in the text exposition.
fn fixture() -> Registry {
    let registry = Registry::new();
    let ops = registry.counter(
        "qtag_demo_ops_total",
        "Operations completed.\nSecond help line with a \\ backslash.",
    );
    ops.add(42);
    let depth = registry.gauge("qtag_demo_queue_depth", "Batches queued, instantaneous.");
    depth.set(7);
    let latency = registry.histogram("qtag_demo_latency_us", "Demo latency, microseconds.");
    for v in [0, 3, 9, 100, 5_000, 5_000] {
        latency.record(v);
    }
    registry.counter_fn("qtag_demo_ticks_total", "Computed monotone value.", || {
        1_234
    });
    registry.gauge_fn("qtag_demo_level", "Computed instantaneous value.", || 11);
    registry
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_matches_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("QTAG_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with QTAG_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        rendered, want,
        "{name} drifted from its golden file; regenerate with QTAG_UPDATE_GOLDEN=1 if intended"
    );
}

#[test]
fn prometheus_exposition_matches_golden() {
    assert_matches_golden("exposition.prom", &fixture().render_prometheus());
}

#[test]
fn json_snapshot_matches_golden() {
    assert_matches_golden("snapshot.json", &fixture().render_json());
}

/// The schema gate: parse the JSON sink and require the per-metric
/// contract —
/// every entry carries `type` + `help`, counters/gauges a `value`,
/// histograms `count`/`sum`/`buckets` with `le`-keyed entries.
#[test]
fn json_snapshot_schema_holds() {
    let json = fixture().render_json();
    let value = serde_json::from_str_value(&json).expect("sink emits valid JSON");
    let serde::Value::Map(metrics) = value else {
        panic!("top level must be an object");
    };
    assert!(!metrics.is_empty(), "fixture registered metrics");
    let mut names: Vec<&str> = Vec::new();
    for (name, entry) in &metrics {
        names.push(name);
        let serde::Value::Map(fields) = entry else {
            panic!("{name}: metric entry must be an object");
        };
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("{name}: missing {key:?}"))
        };
        let serde::Value::Str(kind) = get("type") else {
            panic!("{name}: type must be a string");
        };
        assert!(matches!(get("help"), serde::Value::Str(_)));
        match kind.as_str() {
            "counter" | "gauge" => {
                assert!(matches!(get("value"), serde::Value::UInt(_)));
            }
            "histogram" => {
                assert!(matches!(get("count"), serde::Value::UInt(_)));
                assert!(matches!(get("sum"), serde::Value::UInt(_)));
                let serde::Value::Seq(buckets) = get("buckets") else {
                    panic!("{name}: buckets must be an array");
                };
                for b in buckets {
                    let serde::Value::Map(fields) = b else {
                        panic!("{name}: bucket must be an object");
                    };
                    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys, ["le", "n"], "{name}: bucket schema");
                }
            }
            other => panic!("{name}: unknown metric type {other:?}"),
        }
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "JSON sink must emit sorted metric names");
}

/// Structural invariants of the text sink that the byte-level golden
/// cannot explain on its own: one HELP/TYPE pair per metric, sorted
/// emission, cumulative histogram buckets ending at +Inf.
#[test]
fn prometheus_exposition_is_sorted_and_cumulative() {
    let text = fixture().render_prometheus();
    let help_names: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# HELP "))
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let mut sorted = help_names.clone();
    sorted.sort_unstable();
    assert_eq!(help_names, sorted, "exposition must be name-sorted");

    let bucket_counts: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with("qtag_demo_latency_us_bucket"))
        .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
        .collect();
    assert!(
        bucket_counts.windows(2).all(|w| w[0] <= w[1]),
        "histogram buckets must be cumulative: {bucket_counts:?}"
    );
    assert!(text.contains(r#"le="+Inf""#), "+Inf bucket required");
    assert!(
        text.contains("\\n") && text.contains("\\\\"),
        "HELP newline/backslash escaping must survive"
    );
}
