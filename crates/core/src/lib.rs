//! # qtag-core
//!
//! The paper's contribution: **Q-Tag**, a viewability measurement tag
//! that needs no geometry API and works through arbitrarily nested
//! cross-domain iframes.
//!
//! The algorithm, exactly as §3 describes it:
//!
//! 1. plant **monitoring pixels** inside the creative iframe, arranged in
//!    an *X layout* ([`PixelLayout::X`]; the paper's default is 25
//!    pixels: ten per diagonal, the centre, and the four side midpoints);
//! 2. sample each pixel's **repaint rate**; a pixel refreshing at
//!    ≥ 20 fps is *visible*, below that *not visible* (the threshold is
//!    deliberately conservative for CPU-loaded devices; §3 reports no
//!    major difference at 30/40/50 fps — reproduced by the threshold
//!    ablation bench);
//! 3. estimate the **visible area fraction** as the summed area weight of
//!    the visible pixels ([`AreaEstimator`], Voronoi cell weights);
//! 4. run the **viewability timer**: when the visible fraction reaches
//!    the standard's threshold for the ad's format (display 50 %, large
//!    display 30 %, video 50 %), start a timer; if the condition holds
//!    for the required exposure (1 s display, 2 s video), emit the
//!    *in-view* beacon; if it drops early, reset. After an in-view, a
//!    drop below the threshold emits *out-of-view*
//!    ([`ViewabilityMachine`]);
//! 5. report everything to the monitoring server as beacons
//!    (`qtag-wire`), from which campaign-level **measured rate** and
//!    **viewability rate** are computed (`qtag-server`).
//!
//! [`QTag`] packages steps 1–5 as a [`qtag_render::TagScript`], running
//! against the simulated browser exactly as the JavaScript original runs
//! against a real one.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod area;
mod config;
mod diagnostics;
mod fps;
mod layout;
mod state;
mod tag;

pub use area::AreaEstimator;
pub use config::QTagConfig;
pub use diagnostics::{PixelSnapshot, TagSnapshot};
pub use fps::RateSampler;
pub use layout::PixelLayout;
pub use state::{ViewEvent, ViewabilityMachine};
pub use tag::QTag;
