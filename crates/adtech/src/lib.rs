//! # qtag-adtech
//!
//! The programmatic-advertising substrate (§2.1, Figure 1): everything
//! between an advertiser's campaign and an ad landing in an iframe on a
//! user's page. The production evaluation of the paper runs on top of a
//! real DSP; this crate rebuilds that pipeline end to end:
//!
//! * [`Campaign`] / [`Dsp`] — campaign configuration (targeting, CPM
//!   bids, budgets) and the DSP's bidder;
//! * [`Exchange`] — ad exchanges running **second-price auctions** over
//!   bid requests from the supply side (the paper's campaigns traverse
//!   AppNexus, DoubleClick, MoPub, OpenX, Rubicon, Smaato, Smart and
//!   Axonix — modelled as exchange instances with different supply
//!   mixes);
//! * [`AdSlotRequest`] / [`ServedAd`] — the bid request context and the
//!   served creative with its impression id;
//! * [`markup`] — the ad markup builder: embeds the creative inside the
//!   paper's *double cross-domain iframe* (SSP iframe → DSP iframe) on
//!   the publisher page;
//! * [`blockers`] — the adblock / Brave / privacy-browser model of
//!   §4.3: blockers sever the third-party connection so neither ad nor
//!   tag deploys; privacy browsers only block cookies, which Q-Tag does
//!   not need.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod blockers;
pub mod markup;

mod auction;
mod campaign;
mod dsp;
mod exchange;

pub use auction::{run_second_price, AdSlotRequest, AuctionOutcome, Bid};
pub use blockers::BlockerKind;
pub use campaign::{Campaign, CampaignId, GeoRegion, Sector, Targeting};
pub use dsp::{Dsp, DspStats, ServedAd};
pub use exchange::{Exchange, ExchangeKind};
pub use markup::{embed_served_ad, AdPlacement, ServingOrigins};
