//! Ops counters for the daemon, exposed uniformly with the ingestion
//! service's [`qtag_server::IngestStats`].
//!
//! Both stats blocks are declared through `qtag_obs::counters!`, so
//! the atomic struct, its serializable snapshot twin, and the registry
//! hookup come from one definition each — the collector's here, the
//! ingest service's in `qtag-server` (re-exported below so callers
//! keep a single import surface).

use qtag_server::IngestStatsSnapshot;
use serde::Serialize;

pub use qtag_server::{IngestMetrics, IngestStats};

qtag_obs::counters! {
    /// Live counters maintained by the acceptor and connection
    /// threads. All counters are monotone except `connections_active`
    /// (a gauge). Exported through a registry under the
    /// `qtag_collectd` prefix via [`CollectorStats::register`].
    pub struct CollectorStats / CollectorStatsSnapshot {
        connections_accepted: counter("Connections accepted and handed to a reader thread."),
        connections_active: gauge("Currently served connections."),
        connections_rejected: counter("Connections refused because max_connections was reached."),
        connections_timed_out: counter("Connections dropped after exhausting their read-timeout budget."),
        bytes_read: counter("Raw bytes read off all sockets."),
        frames_decoded: counter("Beacons successfully decoded off sockets (binary frames plus JSON lines), before the inlet accept/shed decision."),
        corrupt_frames: counter("Frames that failed verification: binary frames with an honest header but a bad payload, undecodable JSON lines, and JSON lines over the length cap. Exactly one count per damaged frame."),
        resync_bytes: counter("Noise bytes discarded while resynchronising binary streams (single-byte skips only; corrupt frames are accounted in corrupt_frame_bytes)."),
        corrupt_frame_bytes: counter("Bytes discarded as whole corrupt binary frames (header plus payload of each frame counted in corrupt_frames)."),
        acked_connections: counter("Connections that opted into the acked binary protocol by leading with the ACK_HELLO byte."),
        acks_sent: counter("Per-frame acknowledgements written back to acked clients (one per inlet-accepted frame, including re-acked duplicates)."),
        ack_flushes: counter("Coalesced ack writes: each is one write_all carrying every ack generated during one read iteration. The amortisation ratio is acks_sent / ack_flushes."),
        accept_errors: counter("accept(2) failures other than an empty backlog (EMFILE/ENFILE fd exhaustion, ECONNABORTED, ...). Each earns a backoff sleep instead of a hot respin; sustained growth means the daemon is shedding accepts under fd pressure."),
        ack_backpressure_pauses: counter("Reactor connections whose reads were paused because the pending-ack write buffer exceeded ack_buffer_cap (a client reading its acks too slowly); each pause-resume cycle counts once."),
    }
}

/// The daemon's full ops surface: its own counters plus the embedded
/// ingestion service's, in one serializable value. This is what the
/// `collectd` binary prints and what the conservation check consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct OpsSnapshot {
    /// Daemon-side counters (sockets, framing).
    pub collector: CollectorStatsSnapshot,
    /// Ingestion-side counters (applied beacons, shed beacons).
    pub ingest: IngestStatsSnapshot,
}

impl OpsSnapshot {
    /// The conservation identity the end-to-end suites assert: every
    /// beacon fully written by clients is either applied, counted
    /// corrupt, counted shed, or (only when a hand-off races the
    /// daemon's shutdown) counted rejected — nothing vanishes. In a
    /// graceful run `rejected_after_shutdown` is zero.
    pub fn conserves(&self, beacons_sent: u64) -> bool {
        beacons_sent
            == self.ingest.beacons
                + self.collector.corrupt_frames
                + self.ingest.shed_beacons
                + self.ingest.rejected_after_shutdown
    }

    /// Internal consistency: every decoded frame was either accepted
    /// by the inlet, shed at it, or rejected after shutdown.
    pub fn decode_accounted(&self) -> bool {
        self.collector.frames_decoded
            == self.ingest.beacons + self.ingest.shed_beacons + self.ingest.rejected_after_shutdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::Ordering;

    #[test]
    fn snapshot_serializes_with_both_layers() {
        let stats = CollectorStats::default();
        stats.frames_decoded.fetch_add(3, Ordering::Relaxed);
        let ops = OpsSnapshot {
            collector: stats.snapshot(),
            ingest: qtag_server::IngestStats::default().snapshot(),
        };
        let json = serde_json::to_string(&ops).unwrap();
        assert!(json.contains("\"collector\":{"), "{json}");
        assert!(json.contains("\"frames_decoded\":3"), "{json}");
        assert!(json.contains("\"ingest\":{"), "{json}");
        assert!(json.contains("\"shed_beacons\":0"), "{json}");
    }

    #[test]
    fn conservation_identity() {
        let mut ops = OpsSnapshot {
            collector: CollectorStats::default().snapshot(),
            ingest: qtag_server::IngestStats::default().snapshot(),
        };
        ops.ingest.beacons = 90;
        ops.collector.corrupt_frames = 7;
        ops.ingest.shed_beacons = 3;
        ops.collector.frames_decoded = 93;
        assert!(ops.conserves(100));
        assert!(!ops.conserves(99));
        assert!(ops.decode_accounted());
    }

    /// A hand-off racing shutdown is accounted distinctly from
    /// overload shedding, and the identities still balance.
    #[test]
    fn conservation_covers_shutdown_rejections() {
        let mut ops = OpsSnapshot {
            collector: CollectorStats::default().snapshot(),
            ingest: qtag_server::IngestStats::default().snapshot(),
        };
        ops.ingest.beacons = 90;
        ops.collector.corrupt_frames = 5;
        ops.ingest.shed_beacons = 3;
        ops.ingest.rejected_after_shutdown = 2;
        ops.collector.frames_decoded = 95;
        assert!(ops.conserves(100));
        assert!(ops.decode_accounted());
        // A rejection is NOT a shed: moving the count breaks nothing
        // only if both terms are present in the identity.
        ops.ingest.rejected_after_shutdown = 0;
        assert!(!ops.conserves(100));
        assert!(!ops.decode_accounted());
    }

    /// Both stats blocks register under their prefixes and read the
    /// same cells the legacy snapshots read.
    #[test]
    fn registry_mirrors_snapshots() {
        use crate::sync::Arc;
        let registry = qtag_obs::Registry::new();
        let collector = Arc::new(CollectorStats::default());
        let ingest = Arc::new(IngestStats::default());
        collector.frames_decoded.fetch_add(9, Ordering::Relaxed);
        collector.connections_active.fetch_add(2, Ordering::Relaxed);
        ingest.beacons.fetch_add(8, Ordering::Relaxed);
        collector.register(&registry, "qtag_collectd");
        ingest.register(&registry, "qtag_ingest");
        assert_eq!(registry.get("qtag_collectd_frames_decoded_total"), Some(9));
        assert_eq!(registry.get("qtag_collectd_connections_active"), Some(2));
        assert_eq!(registry.get("qtag_ingest_beacons_total"), Some(8));
        assert_eq!(
            registry.get("qtag_collectd_frames_decoded_total"),
            Some(collector.snapshot().frames_decoded)
        );
    }
}
