//! # qtag-bench
//!
//! Shared experiment plumbing for the binaries that regenerate the
//! tables and figures of the paper's evaluation. Throughput and latency
//! are measured by `qbench/`; the conservation and equivalence
//! identities are asserted by `cargo test`. What lives here reproduces
//! figures:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `fig2_layout_error` | Figure 2 — layout × pixel-count error sweep |
//! | `table1_certification` | §4.2 / Table 1 — 36 k certification runs |
//! | `table1_video_scenarios` | Table-1-style video & adversarial-occlusion matrix |
//! | `section43_other_tests` | §4.3 — placements, in-app, blockers |
//! | `fig3_production` | Figure 3 — measured & viewability rates |
//! | `table2_mobile_slice` | Table 2 — mobile measured-rate slices |
//! | `section5_fleet` | §5 — the 99-campaign fleet distribution |
//! | `section5_weekly_timeline` | §5 — the week of monitoring, from store rollups |
//! | `economics` | §6.1 — revenue-impact estimate |
//! | `ctr_vs_viewability` | §2.2 — CTR rises with viewability |
//! | `ablation_threshold` | §3 — fps-threshold robustness sweep |
//! | `ablation_beacon_loss` | measured rate vs fire-and-forget beacon loss |
//! | `ablation_retry_delivery` | the same sweep with the retrying sender |
//!
//! Each binary prints a human-readable table mirroring the paper's
//! artefact, grades its own paper shape (exit 1 on drift) and, with
//! `--json`, adds a machine-readable blob consumed when updating
//! `EXPERIMENTS.md`. Flags are read through [`ExperimentOutput`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod output;
pub mod pipeline;
pub mod proxy;

pub use output::{format_pct, ExperimentOutput};
pub use pipeline::{
    ingest_reliable, run_production, DeliveryMode, DeliveryTotals, ProductionConfig,
    ProductionResults,
};
pub use proxy::{FaultProxy, FaultProxyConfig, ProxyStats};
