//! The frame-clock engine: ticks the compositor, paints probes,
//! dispatches script callbacks, collects beacons.

use crate::clock::FrameClock;
use crate::cpu::CpuLoadModel;
use crate::env::DeviceProfile;
use crate::script::{ScriptCtx, ScriptHost, TagScript};
use crate::throttle::{
    composite_state, composite_state_with, paint_rate, timer_rate, CompositeState,
};
use crate::visibility::{self, cull_projected_points, TrueVisibility};
use crate::{SimDuration, SimTime};
use qtag_dom::{DomError, FrameId, Origin, Screen, TabId, WindowId};
use qtag_geometry::{Point, Rect, Vector};
use qtag_wire::Beacon;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Handle to an attached script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScriptId(pub(crate) u32);

/// Handle to a monitoring-pixel probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeId(pub(crate) u32);

/// Engine-internal probe bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct ProbeState {
    pub(crate) owner: ScriptId,
    pub(crate) window: WindowId,
    pub(crate) tab: Option<TabId>,
    pub(crate) frame: FrameId,
    pub(crate) point: Point,
    /// The settled paint count; while `lit`, that count minus the host
    /// page's `painted_frames` (wrapping). Read it through
    /// [`ProbeState::paints_at`].
    pub(crate) paints: u64,
    /// The probe sits in its page's visible set, so every paint of the
    /// page is a paint of the probe. Only [`RenderMode::Indexed`] lights
    /// probes; the flag lives in padding, keeping the struct at 48 B.
    pub(crate) lit: bool,
}

impl ProbeState {
    /// The probe's paint count, given its host page's `painted_frames`.
    pub(crate) fn paints_at(&self, painted_frames: u64) -> u64 {
        if self.lit {
            self.paints.wrapping_add(painted_frames)
        } else {
            self.paints
        }
    }
}

/// A beacon emitted by a script, stamped with sender and send time.
#[derive(Debug, Clone, PartialEq)]
pub struct OutgoingBeacon {
    /// The emitting script.
    pub script: ScriptId,
    /// Simulated send time.
    pub at: SimTime,
    /// Payload.
    pub beacon: Beacon,
}

struct ScriptSlot {
    host: ScriptHost,
    script: Box<dyn TagScript>,
    timer_hz: f64,
    timer_acc: f64,
}

/// How the engine decides which probes repaint each frame.
///
/// Both modes produce **bit-identical** output — same probe paint counts,
/// same callback schedule, same beacons — on every scene and mutation
/// schedule; a property suite (`tests/spatial_props.rs`) holds them equal.
/// `Naive` exists as the measured baseline and as the oracle the indexed
/// path is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenderMode {
    /// Re-derive everything from the scene each tick: recompute every
    /// page's composite state and re-project every probe through its
    /// iframe chain. O(probes) work per frame, no caching.
    Naive,
    /// Cache per-page visibility behind DOM mutation epochs. A frame in
    /// which nothing changed validates each page with a single `u64`
    /// compare; a stale one culls the page's cached probe projections
    /// directly (a tag plants a few dozen probes at most). A painted
    /// frame is one increment of the page's paint counter: each visible
    /// probe holds its count as an offset against that counter, settled
    /// back to a plain count whenever the visible set changes.
    Indexed,
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Device/browser environment.
    pub profile: DeviceProfile,
    /// CPU load model (degrades paint rates).
    pub cpu: CpuLoadModel,
    /// Seed for all engine-internal randomness.
    pub seed: u64,
    /// Repaint-dispatch strategy (identical output either way).
    pub mode: RenderMode,
}

impl EngineConfig {
    /// An idle desktop Chrome/Windows device — the default lab bench.
    pub fn default_desktop() -> Self {
        EngineConfig {
            profile: DeviceProfile::desktop(
                qtag_wire::BrowserKind::Chrome,
                qtag_wire::OsKind::Windows10,
            ),
            cpu: CpuLoadModel::idle(),
            seed: 0,
            mode: RenderMode::Indexed,
        }
    }
}

/// Cached per-`(window, tab)` render state for [`RenderMode::Indexed`].
///
/// Validity protocol (checked cheapest-first every tick):
///
/// 1. `screen_epoch` equal to the live [`Screen::epoch`] ⇒ the whole
///    scene is unchanged ⇒ *everything* below is still valid.
/// 2. Otherwise recompute the composite state, then compare the page's
///    `layout_epoch` — unchanged ⇒ cached probe projections survive
///    (root-frame scrolls don't move content in root-document
///    coordinates) and only the visible set is re-culled from them.
///
/// `probes_len`/`probe_generation` guard the probe table itself: scripts
/// can grow it mid-callback and detaches compact it, either of which
/// invalidates the cached probe indices.
struct PageCache {
    window: WindowId,
    tab: Option<TabId>,
    /// Live scripts hosted on this page; 0 ⇒ the page does not
    /// participate in ticks (matching the naive walk, which derives its
    /// page set from live scripts).
    live_scripts: u32,
    /// Paint accumulator (fractional frames owed). Persists across
    /// detach/re-attach exactly like the naive mode's accumulator map.
    acc: f64,
    screen_epoch: u64,
    layout_epoch: u64,
    probes_len: usize,
    probe_generation: u64,
    state: CompositeState,
    /// `(probe index, projected point in root-doc coords)` for every
    /// probe on this page whose projection is not clipped away.
    entries: Vec<(u32, Point)>,
    /// Probe indices currently inside the viewport; each of these probes
    /// is lit, its paint count an offset against `painted_frames`.
    visible: Vec<u32>,
    /// Did this page paint on the current tick?
    painted: bool,
    /// Frames this page has painted. A painted frame increments this
    /// once instead of every visible probe's count.
    painted_frames: u64,
}

impl PageCache {
    /// Folds `painted_frames` into every lit probe's count and unlights
    /// it. Must run before `visible` changes or probe indices shift.
    fn settle(&self, probes: &mut [ProbeState]) {
        for &idx in &self.visible {
            let p = &mut probes[idx as usize];
            p.paints = p.paints.wrapping_add(self.painted_frames);
            p.lit = false;
        }
    }

    /// Lights every probe in `visible`: from here on its count follows
    /// `painted_frames`.
    fn light(&self, probes: &mut [ProbeState]) {
        for &idx in &self.visible {
            let p = &mut probes[idx as usize];
            p.paints = p.paints.wrapping_sub(self.painted_frames);
            p.lit = true;
        }
    }
}

/// The deterministic browser engine: owns the screen, the clock, all
/// attached scripts and their probes.
///
/// One `Engine` models one device for the duration of one user session.
/// Advance it with [`Engine::tick`] / [`Engine::run_for`]; mutate the
/// scene (scroll, switch tabs, move windows) between ticks; drain emitted
/// beacons with [`Engine::drain_outbox`].
pub struct Engine {
    cfg: EngineConfig,
    screen: Screen,
    clock: FrameClock,
    scripts: Vec<Option<ScriptSlot>>,
    probes: Vec<ProbeState>,
    outbox: Vec<(ScriptId, SimTime, Beacon)>,
    paint_acc: HashMap<(WindowId, Option<TabId>), f64>,
    rng: ChaCha8Rng,
    /// Per-page caches for [`RenderMode::Indexed`]; maintained (cheaply)
    /// in both modes so the mode is a pure dispatch choice.
    pages: Vec<PageCache>,
    /// `page_of_script[script index] == index into `pages``.
    page_of_script: Vec<u32>,
    /// Bumped whenever probe indices may have shifted (detach compaction);
    /// caches referencing probe indices must rebuild when it moves.
    probe_generation: u64,
    /// Reused occluder buffer for `composite_state_with`.
    occ_scratch: Vec<Rect>,
}

impl Engine {
    /// Creates an engine over an existing screen/scene.
    pub fn new(cfg: EngineConfig, screen: Screen) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let clock = FrameClock::new(cfg.profile.frame_interval());
        Engine {
            cfg,
            screen,
            clock,
            scripts: Vec::new(),
            probes: Vec::new(),
            outbox: Vec::new(),
            paint_acc: HashMap::new(),
            rng,
            pages: Vec::new(),
            page_of_script: Vec::new(),
            probe_generation: 1,
            occ_scratch: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Frames ticked so far.
    pub fn frames_ticked(&self) -> u64 {
        self.clock.frames()
    }

    /// Lifetime paint counts of every probe, in probe order. The
    /// cross-mode equivalence suites and the fleet bench compare these
    /// between [`RenderMode::Naive`] and [`RenderMode::Indexed`] runs.
    pub fn probe_paint_counts(&self) -> Vec<u64> {
        self.probes
            .iter()
            .map(|p| {
                let page = self.page_of_script[p.owner.0 as usize] as usize;
                p.paints_at(self.pages[page].painted_frames)
            })
            .collect()
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Read access to the scene.
    pub fn screen(&self) -> &Screen {
        &self.screen
    }

    /// Scene mutation between ticks (scenario drivers use this to move
    /// windows, switch tabs, add occluders …).
    pub fn screen_mut(&mut self) -> &mut Screen {
        &mut self.screen
    }

    /// Scrolls the page shown in `(window, tab)`.
    pub fn scroll_page_to(
        &mut self,
        window: WindowId,
        tab: Option<TabId>,
        offset: Vector,
    ) -> Result<(), DomError> {
        visibility::scroll_page_to(&mut self.screen, window, tab, offset)
    }

    /// Ground-truth visibility of a rect in a frame — the experiment
    /// oracle.
    pub fn true_visibility(
        &self,
        window: WindowId,
        tab: Option<TabId>,
        frame: FrameId,
        rect: Rect,
    ) -> Result<TrueVisibility, DomError> {
        visibility::element_true_visibility(&self.screen, window, tab, frame, rect)
    }

    /// Attaches a script to `(window, tab, frame)` and runs its
    /// `on_attach` immediately. `origin` is the script document's origin
    /// used for SOP checks.
    pub fn attach_script(
        &mut self,
        window: WindowId,
        tab: Option<TabId>,
        frame: FrameId,
        origin: Origin,
        script: Box<dyn TagScript>,
    ) -> Result<ScriptId, DomError> {
        self.screen.window(window)?;
        let id = ScriptId(self.scripts.len() as u32);
        let host = ScriptHost {
            id,
            window,
            tab,
            frame,
            origin,
        };
        let mut slot = ScriptSlot {
            host,
            script,
            timer_hz: 0.0,
            timer_acc: 0.0,
        };
        let composite = composite_state(&self.screen, window, tab)?;
        {
            // The new script's probes start unlit, so no page counter
            // enters their reads.
            let mut ctx = ScriptCtx {
                now: self.clock.now(),
                host: &slot.host,
                screen: &self.screen,
                profile: &self.cfg.profile,
                composite,
                painted_frames: 0,
                probes: &mut self.probes,
                outbox: &mut self.outbox,
                timer_hz: &mut slot.timer_hz,
            };
            slot.script.on_attach(&mut ctx);
        }
        self.scripts.push(Some(slot));
        // Page-cache bookkeeping: find or create the cache for this
        // page's key and point the script at it.
        let key = (window, tab);
        let page_idx = match self.pages.iter().position(|c| (c.window, c.tab) == key) {
            Some(i) => i,
            None => {
                self.pages.push(PageCache {
                    window,
                    tab,
                    live_scripts: 0,
                    acc: 0.0,
                    // Zero epochs never match live stamps (the epoch
                    // allocator starts at 1), so the first tick fully
                    // validates this cache.
                    screen_epoch: 0,
                    layout_epoch: 0,
                    probes_len: 0,
                    probe_generation: 0,
                    state: CompositeState::Minimized,
                    entries: Vec::new(),
                    visible: Vec::new(),
                    painted: false,
                    painted_frames: 0,
                });
                self.pages.len() - 1
            }
        };
        self.pages[page_idx].live_scripts += 1;
        self.page_of_script.push(page_idx as u32);
        Ok(id)
    }

    /// Detaches a script (page unload / navigation). Its probes stop
    /// accumulating paints. Beacons already sent remain in the outbox.
    pub fn detach_script(&mut self, id: ScriptId) {
        if let Some(slot) = self.scripts.get_mut(id.0 as usize) {
            if slot.take().is_some() {
                let page_idx = self.page_of_script[id.0 as usize] as usize;
                self.pages[page_idx].live_scripts -= 1;
            }
        }
        // The retain below shifts probe indices, so no probe may stay
        // lit through it.
        for cache in self.pages.iter_mut() {
            cache.settle(&mut self.probes);
            cache.visible.clear();
        }
        self.probes.retain(|p| p.owner != id);
        // Compaction may have shifted probe indices out from under every
        // page cache.
        self.probe_generation += 1;
    }

    /// Drains every beacon emitted since the last drain.
    pub fn drain_outbox(&mut self) -> Vec<OutgoingBeacon> {
        self.outbox
            .drain(..)
            .map(|(script, at, beacon)| OutgoingBeacon { script, at, beacon })
            .collect()
    }

    /// Advances the simulation by exactly one device frame.
    pub fn tick(&mut self) {
        match self.cfg.mode {
            RenderMode::Naive => self.tick_naive(),
            RenderMode::Indexed => self.tick_indexed(),
        }
    }

    /// The reference tick: re-derives all per-page and per-probe state
    /// from the scene, allocating freely. This is the measured baseline
    /// the fleet bench compares against and the oracle the equivalence
    /// property holds [`Engine::tick_indexed`] to, so it stays
    /// deliberately simple — do not optimise it.
    fn tick_naive(&mut self) {
        let now = self.clock.advance();
        let load = self.cfg.cpu.load_at(now, &mut self.rng);
        let refresh = self.cfg.profile.refresh_hz;

        // 1. Decide, per hosting page, whether this tick produces a paint.
        let mut page_state: HashMap<(WindowId, Option<TabId>), (CompositeState, bool)> =
            HashMap::new();
        let keys: Vec<(WindowId, Option<TabId>)> = self
            .scripts
            .iter()
            .flatten()
            .map(|s| (s.host.window, s.host.tab))
            .collect();
        for key in keys {
            if page_state.contains_key(&key) {
                continue;
            }
            let state =
                composite_state(&self.screen, key.0, key.1).unwrap_or(CompositeState::Minimized);
            let rate = paint_rate(state, refresh, load);
            let acc = self.paint_acc.entry(key).or_insert(0.0);
            *acc += rate / refresh;
            let painted = if *acc >= 1.0 {
                *acc -= 1.0;
                true
            } else {
                false
            };
            page_state.insert(key, (state, painted));
        }

        // 2. Paint probes: a probe repaints when its page painted AND its
        //    point survives viewport culling (§3's side channel).
        for probe in &mut self.probes {
            let Some(&(_, painted)) = page_state.get(&(probe.window, probe.tab)) else {
                continue;
            };
            if !painted {
                continue;
            }
            let Ok(w) = self.screen.window(probe.window) else {
                continue;
            };
            let page = match (&probe.tab, &w.kind) {
                (Some(t), qtag_dom::WindowKind::Browser { tabs, .. }) => {
                    tabs.get(t.index()).map(|tb| &tb.page)
                }
                (None, qtag_dom::WindowKind::AppWebView { page }) => Some(page),
                _ => None,
            };
            let Some(page) = page else { continue };
            let vp = w.viewport_size();
            if visibility::point_in_viewport(page, probe.frame, probe.point, vp).unwrap_or(false) {
                probe.paints += 1;
            }
        }

        // 3. Dispatch callbacks. Scripts are taken out of the engine for
        //    the duration so the ctx can borrow everything else mutably.
        let mut scripts = std::mem::take(&mut self.scripts);
        for slot_opt in scripts.iter_mut() {
            let Some(slot) = slot_opt else { continue };
            let key = (slot.host.window, slot.host.tab);
            let Some(&(state, painted)) = page_state.get(&key) else {
                continue;
            };

            // requestAnimationFrame
            if painted && self.cfg.profile.caps.animation_frames {
                let mut ctx = ScriptCtx {
                    now,
                    host: &slot.host,
                    screen: &self.screen,
                    profile: &self.cfg.profile,
                    composite: state,
                    painted_frames: 0,
                    probes: &mut self.probes,
                    outbox: &mut self.outbox,
                    timer_hz: &mut slot.timer_hz,
                };
                slot.script.on_animation_frame(&mut ctx);
            }

            // timers
            let t_rate = timer_rate(state, slot.timer_hz);
            slot.timer_acc += t_rate / refresh;
            if slot.timer_acc >= 1.0 {
                slot.timer_acc -= 1.0;
                // Clamp pathological backlogs (rate changes) to one fire
                // per tick.
                if slot.timer_acc > 1.0 {
                    slot.timer_acc = 1.0;
                }
                let mut ctx = ScriptCtx {
                    now,
                    host: &slot.host,
                    screen: &self.screen,
                    profile: &self.cfg.profile,
                    composite: state,
                    painted_frames: 0,
                    probes: &mut self.probes,
                    outbox: &mut self.outbox,
                    timer_hz: &mut slot.timer_hz,
                };
                slot.script.on_timer(&mut ctx);
            }
        }
        self.scripts = scripts;
    }

    /// The indexed tick: validates per-page caches against the scene and
    /// probe-table epochs, re-deriving only what a stamp proves stale.
    /// Output is bit-identical to [`Engine::tick_naive`]; the per-frame
    /// path is allocation-free (qtag-lint rule R6 enforces this
    /// lexically for this file).
    fn tick_indexed(&mut self) {
        let now = self.clock.advance();
        // Drawn unconditionally so the RNG stream matches naive mode even
        // on fully short-circuited frames.
        let load = self.cfg.cpu.load_at(now, &mut self.rng);
        let refresh = self.cfg.profile.refresh_hz;
        let screen_epoch = self.screen.epoch();

        // 1. Per page: validate the cache, settle the paint accumulator,
        //    count the paint.
        let Engine {
            screen,
            probes,
            pages,
            occ_scratch,
            probe_generation,
            ..
        } = self;
        for cache in pages.iter_mut() {
            if cache.live_scripts == 0 {
                // The naive walk derives its page set from live scripts,
                // so a script-less page neither paints nor accumulates.
                cache.painted = false;
                continue;
            }
            let probes_stale =
                cache.probe_generation != *probe_generation || cache.probes_len != probes.len();
            if probes_stale || cache.screen_epoch != screen_epoch {
                Self::revalidate_page(
                    screen,
                    probes,
                    cache,
                    occ_scratch,
                    screen_epoch,
                    *probe_generation,
                    probes_stale,
                );
            }
            let rate = paint_rate(cache.state, refresh, load);
            cache.acc += rate / refresh;
            cache.painted = if cache.acc >= 1.0 {
                cache.acc -= 1.0;
                true
            } else {
                false
            };
            if cache.painted {
                cache.painted_frames += 1;
            }
        }

        // 2. Dispatch callbacks in script-slot order (same order as the
        //    naive walk — scripts observe attach order, not page order).
        let mut scripts = std::mem::take(&mut self.scripts);
        for (i, slot_opt) in scripts.iter_mut().enumerate() {
            let Some(slot) = slot_opt else { continue };
            let cache = &self.pages[self.page_of_script[i] as usize];
            let (state, painted, painted_frames) =
                (cache.state, cache.painted, cache.painted_frames);

            // requestAnimationFrame
            if painted && self.cfg.profile.caps.animation_frames {
                let mut ctx = ScriptCtx {
                    now,
                    host: &slot.host,
                    screen: &self.screen,
                    profile: &self.cfg.profile,
                    composite: state,
                    painted_frames,
                    probes: &mut self.probes,
                    outbox: &mut self.outbox,
                    timer_hz: &mut slot.timer_hz,
                };
                slot.script.on_animation_frame(&mut ctx);
            }

            // timers
            let t_rate = timer_rate(state, slot.timer_hz);
            slot.timer_acc += t_rate / refresh;
            if slot.timer_acc >= 1.0 {
                slot.timer_acc -= 1.0;
                // Clamp pathological backlogs (rate changes) to one fire
                // per tick.
                if slot.timer_acc > 1.0 {
                    slot.timer_acc = 1.0;
                }
                let mut ctx = ScriptCtx {
                    now,
                    host: &slot.host,
                    screen: &self.screen,
                    profile: &self.cfg.profile,
                    composite: state,
                    painted_frames,
                    probes: &mut self.probes,
                    outbox: &mut self.outbox,
                    timer_hz: &mut slot.timer_hz,
                };
                slot.script.on_timer(&mut ctx);
            }
        }
        self.scripts = scripts;
    }

    /// Brings one page cache up to date with the live scene.
    ///
    /// Tiered by what the stamps prove stale: composite state is always
    /// recomputed (the screen epoch moved to get here); probe projections
    /// rebuild only when the page's *layout* epoch moved or the probe
    /// table itself changed; the visible set is always re-culled from the
    /// projections — a few dozen exact point tests cost less than the
    /// bookkeeping that would prove them unnecessary. The old visible set
    /// is settled first and the new one lit last.
    fn revalidate_page(
        screen: &Screen,
        probes: &mut [ProbeState],
        cache: &mut PageCache,
        occ_scratch: &mut Vec<Rect>,
        screen_epoch: u64,
        probe_generation: u64,
        probes_stale: bool,
    ) {
        cache.settle(probes);
        cache.state = composite_state_with(screen, cache.window, cache.tab, occ_scratch)
            .unwrap_or(CompositeState::Minimized);
        cache.screen_epoch = screen_epoch;
        cache.probe_generation = probe_generation;
        cache.probes_len = probes.len();

        // Resolve the page the same way the naive probe loop does; on any
        // mismatch the page contributes no paints (but keeps ticking its
        // accumulator and callbacks, exactly like naive).
        let Ok(w) = screen.window(cache.window) else {
            cache.entries.clear();
            cache.visible.clear();
            return;
        };
        let page = match (&cache.tab, &w.kind) {
            (Some(t), qtag_dom::WindowKind::Browser { tabs, .. }) => {
                tabs.get(t.index()).map(|tb| &tb.page)
            }
            (None, qtag_dom::WindowKind::AppWebView { page }) => Some(page),
            _ => None,
        };
        let Some(page) = page else {
            cache.entries.clear();
            cache.visible.clear();
            return;
        };
        let vp = w.viewport_size();
        let root_scroll = match page.frame(page.root()) {
            Ok(f) => f.scroll(),
            Err(_) => Vector::ZERO,
        };

        let layout_epoch = page.layout_epoch();
        if probes_stale || cache.layout_epoch != layout_epoch {
            // Re-project every probe on this page to root-doc coordinates.
            // Projections are pure functions of the layout (root scroll
            // excluded), so they stay valid across root-frame scrolling.
            cache.layout_epoch = layout_epoch;
            cache.entries.clear();
            for (i, probe) in probes.iter().enumerate() {
                if probe.window != cache.window || probe.tab != cache.tab {
                    continue;
                }
                if let Ok(Some(projected)) = page.point_to_root_unchecked(probe.frame, probe.point)
                {
                    cache.entries.push((i as u32, projected));
                }
            }
        }
        cull_projected_points(&cache.entries, root_scroll, vp, &mut cache.visible);
        cache.light(probes);
    }

    /// Runs the engine for (at least) the given simulated duration.
    pub fn run_for(&mut self, d: SimDuration) {
        let end = self.clock.now() + d;
        while self.clock.now() < end {
            self.tick();
        }
    }

    /// Dispatches a user click at `point` (viewport coordinates of the
    /// page shown in `(window, tab)`). Every script whose frame contains
    /// the point — after iframe clipping and scroll — receives
    /// `on_click`, provided the page is currently composited: clicks on
    /// hidden/occluded/off-screen pages are impossible.
    ///
    /// Returns the number of scripts that received the click.
    pub fn click_at(
        &mut self,
        window: WindowId,
        tab: Option<TabId>,
        point: Point,
    ) -> Result<usize, DomError> {
        let state = composite_state(&self.screen, window, tab)?;
        if !state.is_compositing() {
            return Ok(0);
        }
        let w = self.screen.window(window)?;
        let vp = w.viewport_size();
        let page = match (&tab, &w.kind) {
            (Some(t), qtag_dom::WindowKind::Browser { tabs, .. }) => tabs
                .get(t.index())
                .map(|tb| &tb.page)
                .ok_or(DomError::UnknownTab(window, *t))?,
            (None, qtag_dom::WindowKind::AppWebView { page }) => page,
            _ => return Err(DomError::UnknownWindow(window)),
        };
        // Viewport → root-document coordinates.
        let root_scroll = page.frame(page.root())?.scroll();
        let vp_rect = Rect::new(0.0, 0.0, vp.width, vp.height);
        if !vp_rect.contains(point) {
            return Ok(0);
        }
        let doc_point = point + root_scroll;

        // Find receiving scripts: their frame's box (projected to root
        // doc coords) must contain the point.
        let mut receivers = Vec::new();
        for (i, slot_opt) in self.scripts.iter().enumerate() {
            let Some(slot) = slot_opt else { continue };
            if slot.host.window != window || slot.host.tab != tab {
                continue;
            }
            if let Ok(frame_rect) = page.frame_rect_in_root_unchecked(slot.host.frame) {
                if frame_rect.contains(doc_point) {
                    receivers.push(i);
                }
            }
        }

        let mut scripts = std::mem::take(&mut self.scripts);
        for i in &receivers {
            let Some(slot) = &mut scripts[*i] else {
                continue;
            };
            let mut ctx = ScriptCtx {
                now: self.clock.now(),
                host: &slot.host,
                screen: &self.screen,
                profile: &self.cfg.profile,
                composite: state,
                painted_frames: self.pages[self.page_of_script[*i] as usize].painted_frames,
                probes: &mut self.probes,
                outbox: &mut self.outbox,
                timer_hz: &mut slot.timer_hz,
            };
            slot.script.on_click(&mut ctx);
        }
        self.scripts = scripts;
        Ok(receivers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtag_dom::{Origin, Page, Tab, WindowKind};
    use qtag_geometry::{Rect, Size};
    use qtag_wire::{AdFormat, BrowserKind, EventKind, OsKind, SiteType};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// A minimal script that counts its callbacks and samples one probe.
    struct CounterScript {
        probe: Option<ProbeId>,
        probe_point: Point,
        raf_calls: u64,
        timer_calls: u64,
        last_paints: u64,
    }

    impl CounterScript {
        fn new(probe_point: Point) -> Self {
            CounterScript {
                probe: None,
                probe_point,
                raf_calls: 0,
                timer_calls: 0,
                last_paints: 0,
            }
        }
    }

    impl TagScript for CounterScript {
        fn on_attach(&mut self, ctx: &mut ScriptCtx<'_>) {
            self.probe = Some(ctx.create_probe(self.probe_point));
            ctx.set_timer_hz(5.0);
        }
        fn on_animation_frame(&mut self, ctx: &mut ScriptCtx<'_>) {
            self.raf_calls += 1;
            self.last_paints = ctx.probe_paints(self.probe.unwrap());
        }
        fn on_timer(&mut self, ctx: &mut ScriptCtx<'_>) {
            self.timer_calls += 1;
            self.last_paints = ctx.probe_paints(self.probe.unwrap());
            // fire a heartbeat so outbox plumbing is exercised
            ctx.send_beacon(Beacon {
                impression_id: 1,
                campaign_id: 1,
                event: EventKind::Heartbeat,
                timestamp_us: ctx.now().as_micros(),
                ad_format: AdFormat::Display,
                visible_fraction_milli: 0,
                exposure_ms: 0,
                os: OsKind::Windows10,
                browser: BrowserKind::Chrome,
                site_type: SiteType::Browser,
                seq: 0,
            });
        }
    }

    /// Scene: ad iframe at (200, 100) within the viewport.
    fn engine_with_ad_in_view() -> (Engine, WindowId, FrameId) {
        let mut page = Page::new(Origin::https("pub.example"), Size::new(1280.0, 3000.0));
        let ad = page.create_frame(Origin::https("dsp.example"), Size::new(300.0, 250.0));
        page.embed_iframe(page.root(), ad, Rect::new(200.0, 100.0, 300.0, 250.0))
            .unwrap();
        let mut screen = Screen::desktop();
        let w = screen.add_window(
            WindowKind::Browser {
                tabs: vec![Tab::new(page)],
                active: TabId(0),
            },
            Rect::new(0.0, 0.0, 1280.0, 880.0),
            80.0,
        );
        let engine = Engine::new(EngineConfig::default_desktop(), screen);
        (engine, w, ad)
    }

    #[test]
    fn visible_probe_paints_at_device_rate() {
        let (mut engine, w, ad) = engine_with_ad_in_view();
        let script = CounterScript::new(Point::new(150.0, 125.0));
        engine
            .attach_script(
                w,
                Some(TabId(0)),
                ad,
                Origin::https("dsp.example"),
                Box::new(script),
            )
            .unwrap();
        engine.run_for(SimDuration::from_secs(1));
        // 60 fps for 1 s → ~60 paints.
        let paints = engine.probe_paint_counts()[0];
        assert!(
            (58..=62).contains(&paints),
            "expected ~60 paints, got {paints}"
        );
    }

    #[test]
    fn out_of_viewport_probe_never_paints() {
        let (mut engine, w, ad) = engine_with_ad_in_view();
        // Probe positioned outside the iframe's content box is culled by
        // the iframe clip.
        let script = CounterScript::new(Point::new(150.0, 125.0));
        engine
            .attach_script(
                w,
                Some(TabId(0)),
                ad,
                Origin::https("dsp.example"),
                Box::new(script),
            )
            .unwrap();
        // Scroll the page so the ad leaves the viewport.
        engine
            .scroll_page_to(w, Some(TabId(0)), Vector::new(0.0, 2000.0))
            .unwrap();
        engine.run_for(SimDuration::from_secs(1));
        assert_eq!(engine.probe_paint_counts()[0], 0);
    }

    #[test]
    fn background_tab_stops_raf_but_timers_limp_at_1hz() {
        let (mut engine, w, ad) = engine_with_ad_in_view();
        let script = CounterScript::new(Point::new(150.0, 125.0));
        let sid = engine
            .attach_script(
                w,
                Some(TabId(0)),
                ad,
                Origin::https("dsp.example"),
                Box::new(script),
            )
            .unwrap();
        // Open and switch to a second tab.
        let other = Page::new(Origin::https("other.example"), Size::new(1280.0, 1000.0));
        let t1 = engine
            .screen_mut()
            .window_mut(w)
            .unwrap()
            .add_tab(other)
            .unwrap();
        engine
            .screen_mut()
            .window_mut(w)
            .unwrap()
            .switch_tab(t1)
            .unwrap();
        engine.run_for(SimDuration::from_secs(2));
        // No rAF, no paints; timers ≈ 2 fires in 2 s.
        assert_eq!(engine.probe_paint_counts()[0], 0);
        let beacons = engine.drain_outbox();
        let timer_fires = beacons.len() as u64;
        assert!(
            (1..=3).contains(&timer_fires),
            "hidden timer should clamp to ~1 Hz, got {timer_fires} fires in 2 s"
        );
        assert!(beacons.iter().all(|b| b.script == sid));
    }

    #[test]
    fn cpu_load_halves_paint_rate() {
        let (page_engine, w, ad) = engine_with_ad_in_view();
        let mut cfg = page_engine.config().clone();
        drop(page_engine);
        cfg.cpu = CpuLoadModel::Constant(0.5);

        // rebuild the same scene
        let mut page = Page::new(Origin::https("pub.example"), Size::new(1280.0, 3000.0));
        let ad2 = page.create_frame(Origin::https("dsp.example"), Size::new(300.0, 250.0));
        page.embed_iframe(page.root(), ad2, Rect::new(200.0, 100.0, 300.0, 250.0))
            .unwrap();
        let mut screen = Screen::desktop();
        let w2 = screen.add_window(
            WindowKind::Browser {
                tabs: vec![Tab::new(page)],
                active: TabId(0),
            },
            Rect::new(0.0, 0.0, 1280.0, 880.0),
            80.0,
        );
        assert_eq!((w, ad), (w2, ad2), "scene rebuild must mirror the original");

        let mut engine = Engine::new(cfg, screen);
        let script = CounterScript::new(Point::new(150.0, 125.0));
        engine
            .attach_script(
                w2,
                Some(TabId(0)),
                ad2,
                Origin::https("dsp.example"),
                Box::new(script),
            )
            .unwrap();
        engine.run_for(SimDuration::from_secs(1));
        let paints = engine.probe_paint_counts()[0];
        assert!(
            (28..=32).contains(&paints),
            "expected ~30 paints at 50 % load, got {paints}"
        );
    }

    #[test]
    fn detach_stops_probe_accumulation() {
        let (mut engine, w, ad) = engine_with_ad_in_view();
        let script = CounterScript::new(Point::new(150.0, 125.0));
        let sid = engine
            .attach_script(
                w,
                Some(TabId(0)),
                ad,
                Origin::https("dsp.example"),
                Box::new(script),
            )
            .unwrap();
        engine.run_for(SimDuration::from_millis(100));
        engine.detach_script(sid);
        assert!(engine.probes.is_empty());
        engine.run_for(SimDuration::from_millis(100)); // must not panic
    }

    #[test]
    fn probe_state_stays_48_bytes() {
        assert!(std::mem::size_of::<ProbeState>() <= 48);
    }

    /// Logs every paint reading its callbacks take. `shift` is how far
    /// its probes' indices have moved down the probe table (a detach of
    /// an earlier script compacts it).
    struct ReadingScript {
        points: Vec<Point>,
        probes: Vec<ProbeId>,
        shift: Rc<Cell<u32>>,
        log: Rc<RefCell<Vec<u64>>>,
    }

    impl ReadingScript {
        fn read_all(&self, ctx: &ScriptCtx<'_>) {
            let mut log = self.log.borrow_mut();
            for p in &self.probes {
                log.push(ctx.probe_paints(ProbeId(p.0 - self.shift.get())));
            }
        }
    }

    impl TagScript for ReadingScript {
        fn on_attach(&mut self, ctx: &mut ScriptCtx<'_>) {
            for p in &self.points {
                self.probes.push(ctx.create_probe(*p));
            }
            ctx.set_timer_hz(10.0);
        }
        fn on_animation_frame(&mut self, ctx: &mut ScriptCtx<'_>) {
            self.read_all(ctx);
        }
        fn on_timer(&mut self, ctx: &mut ScriptCtx<'_>) {
            self.read_all(ctx);
        }
        fn on_click(&mut self, ctx: &mut ScriptCtx<'_>) {
            self.read_all(ctx);
        }
    }

    /// Two scripts share one visible page and the *first* is detached
    /// mid-run, so every surviving probe shifts down the table while lit.
    /// Paint counts and the survivor's own readings must match the naive
    /// walk after every tick.
    #[test]
    fn detaching_the_first_script_keeps_lit_survivors_exact() {
        let run = |mode: RenderMode| {
            let (mut engine, w, ad) = engine_with_ad_in_view();
            engine.cfg.mode = mode;
            engine.cfg.cpu = CpuLoadModel::Noisy {
                base: 0.3,
                amplitude: 0.3,
            };
            let shift = Rc::new(Cell::new(0));
            let first_log = Rc::default();
            let survivor_log = Rc::default();
            let script = |points: &[(f64, f64)], shift, log| {
                Box::new(ReadingScript {
                    points: points.iter().map(|&(x, y)| Point::new(x, y)).collect(),
                    probes: Vec::new(),
                    shift,
                    log,
                })
            };
            let tab = Some(TabId(0));
            let origin = Origin::https("dsp.example");
            let first = engine
                .attach_script(
                    w,
                    tab,
                    ad,
                    origin.clone(),
                    script(
                        &[(10.0, 10.0), (150.0, 125.0), (290.0, 240.0)],
                        Rc::default(),
                        Rc::clone(&first_log),
                    ),
                )
                .unwrap();
            engine
                .attach_script(
                    w,
                    tab,
                    ad,
                    origin,
                    script(
                        &[(20.0, 200.0), (280.0, 20.0), (150.0, 60.0), (5.0, 245.0)],
                        Rc::clone(&shift),
                        Rc::clone(&survivor_log),
                    ),
                )
                .unwrap();
            let mut trace = Vec::new();
            for frame in 0..240u32 {
                match frame {
                    // Half the probes leave the viewport, then return.
                    40 | 170 => {
                        let y = if frame == 40 { 200.0 } else { 0.0 };
                        engine.scroll_page_to(w, tab, Vector::new(0.0, y)).unwrap();
                    }
                    90 => {
                        engine.detach_script(first);
                        shift.set(3);
                    }
                    // Both scripts, then the survivor alone, read on click.
                    60 | 120 => {
                        let receivers = engine.click_at(w, tab, Point::new(350.0, 120.0));
                        assert_eq!(receivers, Ok(if frame == 60 { 2 } else { 1 }));
                    }
                    _ => {}
                }
                engine.tick();
                trace.push((
                    engine.probe_paint_counts(),
                    first_log.borrow().clone(),
                    survivor_log.borrow().clone(),
                ));
            }
            trace
        };
        let naive = run(RenderMode::Naive);
        let indexed = run(RenderMode::Indexed);
        assert_eq!(naive.len(), indexed.len());
        for (frame, (n, i)) in naive.iter().zip(&indexed).enumerate() {
            assert_eq!(n, i, "divergence after tick {frame}");
        }
        let (last_counts, _, survivor) = indexed.last().unwrap();
        // The survivor's probes alone remain, and the run did paint and
        // read them.
        assert_eq!(last_counts.len(), 4);
        assert!(last_counts.iter().all(|&c| c > 0), "{last_counts:?}");
        assert!(survivor.len() > 100);
    }

    #[test]
    fn clock_advances_by_frame_interval() {
        let (mut engine, _, _) = engine_with_ad_in_view();
        engine.tick();
        assert_eq!(engine.now().as_micros(), 16_667);
        engine.tick();
        assert_eq!(engine.now().as_micros(), 33_334);
        assert_eq!(engine.frames_ticked(), 2);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut engine, w, ad) = engine_with_ad_in_view();
            let script = CounterScript::new(Point::new(150.0, 125.0));
            engine
                .attach_script(
                    w,
                    Some(TabId(0)),
                    ad,
                    Origin::https("dsp.example"),
                    Box::new(script),
                )
                .unwrap();
            engine.run_for(SimDuration::from_secs(1));
            (engine.probe_paint_counts()[0], engine.drain_outbox().len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sop_error_surfaces_through_ctx() {
        struct SopProbe {
            result: Option<Result<Rect, DomError>>,
        }
        impl TagScript for SopProbe {
            fn on_attach(&mut self, ctx: &mut ScriptCtx<'_>) {
                self.result = Some(ctx.try_own_rect_in_viewport());
            }
        }
        let (mut engine, w, ad) = engine_with_ad_in_view();
        // Read back the result through a shared cell pattern: attach,
        // then inspect via a second attach that captures state is
        // overkill — instead assert via a panic-free boxed script whose
        // result we can't reach; so duplicate the check directly:
        let script = SopProbe { result: None };
        engine
            .attach_script(
                w,
                Some(TabId(0)),
                ad,
                Origin::https("dsp.example"),
                Box::new(script),
            )
            .unwrap();
        // Direct check against the page model (cross-origin chain).
        let win = engine.screen().window(w).unwrap();
        let page = win.active_page().unwrap();
        assert!(matches!(
            page.frame_rect_in_root(ad, &Origin::https("dsp.example")),
            Err(DomError::SameOriginViolation { .. })
        ));
    }
}
