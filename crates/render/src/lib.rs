//! # qtag-render
//!
//! A deterministic browser **compositor simulator**: the substrate on
//! which measurement tags run in this reproduction.
//!
//! The paper's key observation (§3) is a rendering side channel:
//!
//! > "modern browsers stop rendering an element out of the viewport …
//! > when the element is not in the viewport, the refresh rate passes to
//! > be close to 0, thus optimizing the use of the CPU."
//!
//! This crate reproduces exactly that behaviour, frame by frame:
//!
//! * a **frame clock** ticking at the device refresh rate (60 Hz by
//!   default), degraded by a configurable CPU-load model — the paper's
//!   motivation for the conservative 20 fps threshold;
//! * a **compositing policy** per window/tab: background tabs, minimised
//!   windows, fully occluded and fully off-screen windows stop painting;
//!   timers in hidden pages are clamped to 1 Hz (matching the throttling
//!   behaviour of production browsers);
//! * **viewport culling**: a monitoring pixel repaints only while its
//!   projected position — through every nested iframe clip and the page
//!   scroll — lands inside the viewport. This is the per-pixel refresh
//!   signal Q-Tag samples;
//! * a **ground-truth visibility pipeline** (screen clipping, inter-window
//!   occlusion, in-page overlays) used by experiment harnesses and by the
//!   simulated commercial verifier's geometry API — deliberately *richer*
//!   than the side channel, so the reproduction preserves the places
//!   where refresh-rate measurement and pixel-perfect truth diverge;
//! * a **script runtime**: tags implement [`TagScript`] and receive
//!   `on_animation_frame` / `on_timer` callbacks plus a capability-scoped
//!   [`ScriptCtx`] (Same-Origin-Policy-checked geometry, probe creation,
//!   beacon emission) — the same API surface a real tag gets from a
//!   browser, no more.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod cpu;
mod engine;
mod env;
mod script;
mod throttle;
mod video;
mod visibility;

pub use clock::{FrameClock, SimDuration, SimTime};
pub use cpu::CpuLoadModel;
pub use engine::{Engine, EngineConfig, OutgoingBeacon, ProbeId, RenderMode, ScriptId};
pub use env::{ApiCapabilities, DeviceProfile};
pub use script::{ScriptCtx, ScriptHost, TagScript};
pub use throttle::{
    composite_state, composite_state_with, paint_rate, timer_hz_when_hidden, timer_rate,
    CompositeState,
};
pub use video::{PlaybackAction, PlaybackCommand, PlaybackState, VideoPlayer, VideoPlayerConfig};
pub use visibility::{
    cull_projected_points, element_true_visibility, page_visibility_context, point_in_viewport,
    point_in_viewport_projected, rect_in_viewport, scroll_page_to, viewport_fraction,
    TrueVisibility,
};
