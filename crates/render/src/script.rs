//! The tag runtime: the API surface a measurement script gets.
//!
//! A real ad tag is JavaScript running inside the creative's iframe. It
//! can: schedule timers, receive `requestAnimationFrame` callbacks while
//! its document is being composited, create and animate DOM nodes (the
//! monitoring pixels), *attempt* to read geometry (denied cross-origin by
//! the Same-Origin Policy), and fire beacons at a collection endpoint.
//!
//! [`ScriptCtx`] exposes exactly that surface — no backdoor to the
//! simulator's ground truth — so the Q-Tag implementation in `qtag-core`
//! is forced to work the way the paper's tag works.

use crate::engine::{ProbeId, ProbeState, ScriptId};
use crate::env::DeviceProfile;
use crate::throttle::CompositeState;
use crate::{SimTime, TrueVisibility};
use qtag_dom::{DomError, FrameId, Origin, Page, Screen, TabId, WindowId};
use qtag_geometry::{Point, Rect, Size};
use qtag_wire::Beacon;

/// A measurement script attached to a frame.
///
/// Implementations must be deterministic functions of the callbacks they
/// receive: the engine owns all time and randomness.
pub trait TagScript {
    /// Called once when the script is attached (tag bootstrap).
    fn on_attach(&mut self, ctx: &mut ScriptCtx<'_>);

    /// Called on every frame the script's page paints — the
    /// `requestAnimationFrame` analogue. Not called while the page is
    /// hidden, throttled to 0, or when the environment lacks reliable
    /// animation-frame support.
    fn on_animation_frame(&mut self, ctx: &mut ScriptCtx<'_>) {
        let _ = ctx;
    }

    /// Called at the script's requested timer rate (clamped to 1 Hz when
    /// the page is hidden, like production browsers clamp `setInterval`).
    fn on_timer(&mut self, ctx: &mut ScriptCtx<'_>) {
        let _ = ctx;
    }

    /// Called when the user clicks inside the script's frame (the
    /// creative's click handler). Only dispatched for clicks that land
    /// on composited, in-viewport content — you cannot click what you
    /// cannot see.
    fn on_click(&mut self, ctx: &mut ScriptCtx<'_>) {
        let _ = ctx;
    }
}

/// Where a script lives: identifies the page and frame it runs in.
#[derive(Debug, Clone)]
pub struct ScriptHost {
    /// Script handle.
    pub id: ScriptId,
    /// Hosting window.
    pub window: WindowId,
    /// Hosting tab (`None` for app webviews).
    pub tab: Option<TabId>,
    /// The frame the script's document lives in.
    pub frame: FrameId,
    /// The script's document origin (what SOP checks are made against).
    pub origin: Origin,
}

/// The capability-scoped browser API handed to scripts on each callback.
pub struct ScriptCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) host: &'a ScriptHost,
    pub(crate) screen: &'a Screen,
    pub(crate) profile: &'a DeviceProfile,
    pub(crate) composite: CompositeState,
    /// The host page's paint counter, against which the script's lit
    /// probes hold their counts.
    pub(crate) painted_frames: u64,
    pub(crate) probes: &'a mut Vec<ProbeState>,
    pub(crate) outbox: &'a mut Vec<(ScriptId, SimTime, Beacon)>,
    pub(crate) timer_hz: &'a mut f64,
}

impl<'a> ScriptCtx<'a> {
    /// Current simulated time (the `performance.now()` analogue).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Device/browser environment (user-agent-level facts a script can
    /// legitimately sniff: OS, browser, screen size, site type).
    pub fn profile(&self) -> &DeviceProfile {
        self.profile
    }

    /// The inner size of the script's own document — its iframe's
    /// `window.innerWidth/innerHeight`, always readable.
    pub fn own_doc_size(&self) -> Size {
        self.page()
            .and_then(|p| p.frame(self.host.frame).ok().map(|f| f.doc_size()))
            .unwrap_or(Size::ZERO)
    }

    /// `document.hidden`: `true` in background tabs, minimised windows
    /// and fully occluded windows. (A window merely moved off-screen
    /// keeps `hidden == false` in most engines — the side channel, not
    /// the visibility API, catches that case.)
    pub fn document_hidden(&self) -> bool {
        matches!(
            self.composite,
            CompositeState::BackgroundTab
                | CompositeState::Minimized
                | CompositeState::FullyOccluded
        )
    }

    /// Plants a 1×1 monitoring pixel at `point` (own-frame document
    /// coordinates) and returns its handle. The pixel's paint count grows
    /// by one on every composited frame in which the pixel lands inside
    /// the viewport — the repaint side channel of §3. (The indexed engine
    /// counts paints per page and derives the pixel's count on read.)
    pub fn create_probe(&mut self, point: Point) -> ProbeId {
        let id = ProbeId(self.probes.len() as u32);
        self.probes.push(ProbeState {
            owner: self.host.id,
            window: self.host.window,
            tab: self.host.tab,
            frame: self.host.frame,
            point,
            paints: 0,
            lit: false,
        });
        id
    }

    /// Cumulative paint count of one of *this script's* probes.
    ///
    /// # Panics
    /// Panics if the probe belongs to another script — the simulator's
    /// equivalent of a cross-document DOM access bug in the tag.
    pub fn probe_paints(&self, probe: ProbeId) -> u64 {
        let p = &self.probes[probe.0 as usize];
        assert_eq!(p.owner, self.host.id, "probe belongs to another script");
        p.paints_at(self.painted_frames)
    }

    /// Requests the timer callback rate (Hz). The engine clamps hidden
    /// pages to 1 Hz regardless.
    pub fn set_timer_hz(&mut self, hz: f64) {
        *self.timer_hz = hz.max(0.0);
    }

    /// Fires a beacon at the monitoring endpoint. Delivery is
    /// best-effort: transport loss is applied by the network layer the
    /// engine's outbox drains into.
    pub fn send_beacon(&mut self, beacon: Beacon) {
        self.outbox.push((self.host.id, self.now, beacon));
    }

    /// Attempts the *straightforward* viewability measurement the paper
    /// rules out (§3): read the script's own frame rectangle in viewport
    /// coordinates by walking the ancestor chain. Succeeds only when
    /// every ancestor is same-origin with the script; otherwise returns
    /// [`DomError::SameOriginViolation`].
    pub fn try_own_rect_in_viewport(&self) -> Result<Rect, DomError> {
        let page = self
            .page()
            .ok_or(DomError::UnknownWindow(self.host.window))?;
        let in_root = page.frame_rect_in_root(self.host.frame, &self.host.origin)?;
        let root_scroll = page.frame(page.root())?.scroll();
        Ok(in_root.translate(-root_scroll))
    }

    /// Reads the top window's viewport size (`top.innerWidth/Height`).
    /// Same-Origin-Policy-checked like
    /// [`ScriptCtx::try_own_rect_in_viewport`]: succeeds only when every
    /// frame between this script and the top document is same-origin.
    pub fn try_top_viewport_size(&self) -> Result<Size, DomError> {
        let page = self
            .page()
            .ok_or(DomError::UnknownWindow(self.host.window))?;
        // Reuse the SOP walk: if the own-rect read passes, the ancestor
        // chain is same-origin and `top` is reachable.
        page.frame_rect_in_root(self.host.frame, &self.host.origin)?;
        let w = self.screen.window(self.host.window)?;
        Ok(w.viewport_size())
    }

    /// The native viewability API (`IntersectionObserver`-class): the
    /// viewport-visible fraction of a rectangle in the script's own
    /// frame, reported by the browser itself across origin boundaries.
    /// `None` when this environment does not expose the API — the gap
    /// that breaks geometry-based verifiers in legacy webviews.
    pub fn native_visible_fraction(&self, rect: Rect) -> Option<f64> {
        if !self.profile.caps.native_viewability_api {
            return None;
        }
        if !self.composite.is_compositing() {
            return Some(0.0);
        }
        let page = self.page()?;
        let w = self.screen.window(self.host.window).ok()?;
        let vp = w.viewport_size();
        crate::visibility::viewport_fraction(page, self.host.frame, rect, vp).ok()
    }

    fn page(&self) -> Option<&Page> {
        let w = self.screen.window(self.host.window).ok()?;
        match (&self.host.tab, &w.kind) {
            (Some(t), qtag_dom::WindowKind::Browser { tabs, .. }) => {
                tabs.get(t.index()).map(|tb| &tb.page)
            }
            (None, qtag_dom::WindowKind::AppWebView { page }) => Some(page),
            _ => None,
        }
    }

    /// Ground-truth visibility of a rect in the script's frame.
    ///
    /// **Not part of the script API** (not reachable from `TagScript`
    /// callbacks in production code paths): exposed for test oracles
    /// only, clearly named to keep audits easy.
    pub fn oracle_true_visibility(&self, rect: Rect) -> Result<TrueVisibility, DomError> {
        crate::visibility::element_true_visibility(
            self.screen,
            self.host.window,
            self.host.tab,
            self.host.frame,
            rect,
        )
    }
}
