//! # qtag-server
//!
//! The DSP-side monitoring infrastructure Q-Tag reports to (§5: "Q-Tag
//! has been instrumented to report the viewability measures to the
//! distributed monitoring infrastructure of this DSP").
//!
//! Components:
//!
//! * [`FaultPlan`] — the one vocabulary of network faults (reset, loss,
//!   corruption, stall, ack loss), rolled per unit by a seeded
//!   [`FaultDice`] and counted in [`FaultStats`]. Two carriers here
//!   interpret it: [`LossyLink`], the network between a tag in a
//!   browser and the collection endpoint (framed beacons lost,
//!   truncated or bit-flipped; fire-and-forget beacons genuinely go
//!   missing in production, which is part of why no solution measures
//!   100 % of impressions), and [`SimCollectorTransport`], a simulated
//!   acked collector for the retrying sender;
//! * [`IngestService`] — one applier thread per store shard, fed
//!   decoded beacons in batches through a [`BeaconInlet`] (bounded
//!   crossbeam channels, graceful shutdown), folding them into the
//!   store;
//! * [`ImpressionStore`] — per-impression event state with
//!   deduplication, keyed joins against the ad server's *served* log;
//! * [`CampaignReport`] / [`ReportBuilder`] — the analytics layer that
//!   computes the paper's two metrics (§6): **measured rate** (fraction
//!   of served impressions the solution measured) and **viewability
//!   rate** (fraction of measured impressions that met the standard),
//!   with per-campaign breakdowns and the OS × site-type slices of
//!   Table 2.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod anomaly;
mod billing;
mod fault;
mod idmap;
mod ingest;
mod report;
mod shard;
mod sim_transport;
mod store;
pub mod sync;
mod timeline;
mod transport;

pub use anomaly::{viewability_outliers, BeaconValidator, OutlierCampaign, Violation};
pub use billing::{invoice_campaigns, total_usd, Invoice, PricingModel};
pub use fault::{Fate, FaultDice, FaultPlan, FaultStats, FaultStatsSnapshot};
pub use ingest::{
    BatchOutcome, BeaconInlet, IngestConfig, IngestMetrics, IngestService, IngestStats,
    IngestStatsSnapshot, ShardJournal, DEFAULT_INLET_CAPACITY,
};
pub use report::{
    mean, std_dev, to_csv, CampaignReport, FleetSummary, RateSlice, ReportBuilder, SliceKey,
};
pub use shard::{shard_of, ShardedStore};
pub use sim_transport::{SimCollectorTransport, SimFaults};
pub use store::{
    ApplyOutcome, ImpressionRecord, ImpressionStore, SeqList, SeqSeen, ServedImpression,
};
pub use timeline::{BucketStats, Timeline, TimelineState};
pub use transport::{CorruptionKind, LossyLink};
