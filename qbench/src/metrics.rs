//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root lists the same names; a unit test holds the two together.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric with a regression bound.
#[derive(Debug, Clone, Copy)]
pub struct Bounded {
    /// Name, fixed: later issues cite it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
}

/// The four workloads, in the order `qbench all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "campaign_replay",
    "resident_fleet",
    "ingest_durable",
    "live_serving",
];

/// End-to-end metrics every workload reports on every untraced run.
/// Each is defined per workload in `README.md`; none can be zero.
pub const END_TO_END: [Bounded; 6] = [
    Bounded {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    Bounded {
        name: "impressions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    Bounded {
        name: "beacons_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    Bounded {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    Bounded {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    Bounded {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// Workload-native metrics an untraced run prints besides the six
/// above. They exist on one workload only, so the driver's contract
/// (every end-to-end metric on every workload, never zero) cannot carry
/// them; `qbench compare` applies these bounds instead: the same 25 % as
/// their end-to-end siblings, which is what this box resolves.
pub const NATIVE: [Bounded; 4] = [
    Bounded {
        name: "session_frames_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    Bounded {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    Bounded {
        name: "report_read_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    Bounded {
        name: "report_read_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// `failed_share` may rise by this much in absolute terms.
pub const FAILED_SHARE_BOUND_ABS: f64 = 0.001;

/// Per-layer metrics of the traced run: `(name, unit, better)`. A
/// workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, Better); 44] = [
    ("adtech.auction_us_per_imp", "us", Better::Lower),
    ("adtech.requests_per_fill", "count", Better::Lower),
    ("user.sample_us_per_imp", "us", Better::Lower),
    ("user.session_us_per_imp", "us", Better::Lower),
    ("user.beacons_per_imp", "count", Better::Lower),
    ("dom.page_build_us_per_session", "us", Better::Lower),
    ("dom.scroll_ns_per_op", "ns", Better::Lower),
    ("render.build_us_per_session", "us", Better::Lower),
    ("render.tick_self_ns_per_frame", "ns", Better::Lower),
    ("render.paints_per_frame", "count", Better::Lower),
    ("core.tag_build_us_per_session", "us", Better::Lower),
    ("core.tag_ns_per_frame", "ns", Better::Lower),
    ("core.beacons_per_session", "count", Better::Lower),
    ("wire.encode_ns_per_beacon", "ns", Better::Lower),
    ("wire.decode_ns_per_beacon", "ns", Better::Lower),
    ("wire.sender_offer_us_per_imp", "us", Better::Lower),
    ("wire.sender_pump_us_per_imp", "us", Better::Lower),
    ("wire.retransmits", "count", Better::Lower),
    ("wire.reconnects", "count", Better::Lower),
    ("wire.dropped_after_retries", "count", Better::Lower),
    ("wire.abandoned", "count", Better::Lower),
    ("collectd.connections_accepted", "count", Better::Lower),
    ("collectd.bytes_per_read", "bytes", Better::Higher),
    ("collectd.acks_per_flush", "count", Better::Higher),
    ("collectd.shed_beacons", "count", Better::Lower),
    ("collectd.corrupt_frames", "count", Better::Lower),
    ("collectd.socket_share_pct", "%", Better::Lower),
    ("server.inlet_ns_per_beacon", "ns", Better::Lower),
    ("server.apply_ns_per_beacon", "ns", Better::Lower),
    ("server.beacons_per_batch", "count", Better::Higher),
    ("server.queue_depth_max", "count", Better::Lower),
    ("server.duplicates", "count", Better::Lower),
    ("server.report_ms", "ms", Better::Lower),
    ("store.wal_append_ns_per_beacon", "ns", Better::Lower),
    ("store.fsyncs", "count", Better::Lower),
    ("store.wal_bytes_per_beacon", "bytes", Better::Lower),
    ("store.flush_ms", "ms", Better::Lower),
    ("store.compact_ms", "ms", Better::Lower),
    ("store.recover_snapshot_ms", "ms", Better::Lower),
    ("store.records_replayed", "count", Better::Lower),
    ("store.rollup_read_us", "us", Better::Lower),
    ("gen.late_p99_ms", "ms", Better::Lower),
    ("gen.busy_share", "ratio", Better::Lower),
    ("trace_overhead_pct", "%", Better::Lower),
];
