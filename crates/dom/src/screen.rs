//! The screen: physical display bounds, window stack and focus.

use crate::epoch::next_epoch;
use crate::{DomError, Window, WindowId, WindowKind, WindowState};
use qtag_geometry::{Rect, Size, Vector};

/// A physical display with a stack of windows.
///
/// Windows are kept in a z-order list (bottom → top). The compositor in
/// `qtag-render` asks two questions of this type: *what part of window W's
/// viewport is on-screen?* and *which opaque windows are stacked above W
/// there?* — those two answers drive Table 1's tests 4 (moved off-screen)
/// and 6 (obscured by another app).
#[derive(Debug, Clone)]
pub struct Screen {
    size: Size,
    windows: Vec<Window>,
    /// Bottom → top stacking order of non-minimised windows.
    z_order: Vec<WindowId>,
    focused: Option<WindowId>,
    /// Stamp drawn on every potentially observable change (see
    /// [`crate::epoch`] for the epoch contract).
    ///
    /// All fields of `Screen` are private, and every mutable path into a
    /// window, tab or page goes through a `&mut Screen` method — so an
    /// unchanged stamp proves the *entire scene* (stacking, focus, window
    /// geometry, tab switches, page content, scrolls) is unchanged. This
    /// is the one-compare fast path the render engine's static-frame
    /// short-circuit relies on.
    epoch: u64,
}

impl Screen {
    /// Creates an empty screen of the given size.
    pub fn new(size: Size) -> Self {
        Screen {
            size,
            windows: Vec::new(),
            z_order: Vec::new(),
            focused: None,
            epoch: next_epoch(),
        }
    }

    /// Current scene epoch. Unchanged between two reads ⇒ no `&mut self`
    /// method ran in between ⇒ nothing the compositor can observe moved.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn touch(&mut self) {
        self.epoch = next_epoch();
    }

    /// A 1920×1080 desktop display.
    pub fn desktop() -> Self {
        Screen::new(Size::new(1920.0, 1080.0))
    }

    /// A 360×740 phone display (a common Android logical resolution).
    pub fn phone() -> Self {
        Screen::new(Size::new(360.0, 740.0))
    }

    /// Display size.
    pub fn size(&self) -> Size {
        self.size
    }

    /// Display bounds as a rectangle at the origin.
    pub fn bounds(&self) -> Rect {
        Rect::new(0.0, 0.0, self.size.width, self.size.height)
    }

    /// Adds a window on top of the stack and focuses it.
    pub fn add_window(
        &mut self,
        kind: WindowKind,
        screen_rect: Rect,
        chrome_height: f64,
    ) -> WindowId {
        self.touch();
        let id = WindowId(self.windows.len() as u32);
        self.windows.push(Window {
            id,
            kind,
            screen_rect,
            state: WindowState::Normal,
            chrome_height,
        });
        self.z_order.push(id);
        self.focused = Some(id);
        id
    }

    /// Number of windows (including minimised ones).
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Looks up a window.
    pub fn window(&self, id: WindowId) -> Result<&Window, DomError> {
        self.windows
            .get(id.index())
            .ok_or(DomError::UnknownWindow(id))
    }

    /// Mutable window lookup.
    ///
    /// Bumps the scene epoch pessimistically: the caller holds `&mut`
    /// access to the window (and through it, its tabs and pages), so
    /// anything may change. Read-only callers should use [`Screen::window`].
    pub fn window_mut(&mut self, id: WindowId) -> Result<&mut Window, DomError> {
        self.touch();
        self.windows
            .get_mut(id.index())
            .ok_or(DomError::UnknownWindow(id))
    }

    /// All windows, unspecified order.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// The focused window, if any.
    pub fn focused(&self) -> Option<WindowId> {
        self.focused
    }

    /// `true` if `id` holds input focus.
    pub fn is_focused(&self, id: WindowId) -> bool {
        self.focused == Some(id)
    }

    /// Gives `id` input focus **without** restacking (Table 1 test 3:
    /// "the site becomes out of focus but is always in-view" — focus and
    /// visibility are independent).
    pub fn focus(&mut self, id: WindowId) -> Result<(), DomError> {
        self.window(id)?;
        self.touch();
        self.focused = Some(id);
        Ok(())
    }

    /// Removes focus from all windows.
    pub fn blur_all(&mut self) {
        self.touch();
        self.focused = None;
    }

    /// Raises `id` to the top of the stack and focuses it.
    pub fn raise(&mut self, id: WindowId) -> Result<(), DomError> {
        self.window(id)?;
        self.touch();
        self.z_order.retain(|w| *w != id);
        self.z_order.push(id);
        self.focused = Some(id);
        Ok(())
    }

    /// Moves a window by `delta` (may push it off-screen — test 4).
    pub fn move_window(&mut self, id: WindowId, delta: Vector) -> Result<(), DomError> {
        let w = self.window_mut(id)?;
        w.screen_rect = w.screen_rect.translate(delta);
        Ok(())
    }

    /// Resizes a window in place (top-left anchored — test 2 enlarges the
    /// browser page).
    pub fn resize_window(&mut self, id: WindowId, size: Size) -> Result<(), DomError> {
        let w = self.window_mut(id)?;
        w.screen_rect = Rect::from_origin_size(w.screen_rect.origin, size);
        Ok(())
    }

    /// Minimises a window (drops out of the compositor entirely).
    pub fn minimize(&mut self, id: WindowId) -> Result<(), DomError> {
        self.window_mut(id)?.state = WindowState::Minimized;
        if self.focused == Some(id) {
            self.focused = None;
        }
        Ok(())
    }

    /// Restores a minimised window and raises it.
    pub fn restore(&mut self, id: WindowId) -> Result<(), DomError> {
        self.window_mut(id)?.state = WindowState::Normal;
        self.raise(id)
    }

    /// z-position of a window (0 = bottom). `None` when minimised windows
    /// were never stacked.
    fn z_position(&self, id: WindowId) -> Option<usize> {
        self.z_order.iter().position(|w| *w == id)
    }

    /// The screen rectangles of opaque windows stacked **above** `id`
    /// that could occlude it. Minimised windows never occlude.
    pub fn occluders_above(&self, id: WindowId) -> Result<Vec<Rect>, DomError> {
        let pos = match self.z_position(id) {
            Some(p) => p,
            None => return Ok(Vec::new()),
        };
        let mut out = Vec::new();
        for above in &self.z_order[pos + 1..] {
            let w = self.window(*above)?;
            if w.is_opaque_surface() {
                out.push(w.screen_rect);
            }
        }
        Ok(out)
    }

    /// Allocation-free variant of [`Screen::occluders_above`]: clears
    /// `out` and fills it with the same rects. The render tick calls this
    /// every frame with a reused scratch buffer.
    pub fn occluders_above_into(&self, id: WindowId, out: &mut Vec<Rect>) -> Result<(), DomError> {
        out.clear();
        let pos = match self.z_position(id) {
            Some(p) => p,
            None => return Ok(()),
        };
        for above in &self.z_order[pos + 1..] {
            let w = self.window(*above)?;
            if w.is_opaque_surface() {
                out.push(w.screen_rect);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Origin, Page, Tab, TabId};

    fn browser_kind() -> WindowKind {
        WindowKind::Browser {
            tabs: vec![Tab::new(Page::new(
                Origin::https("pub.example"),
                Size::new(1280.0, 3000.0),
            ))],
            active: TabId(0),
        }
    }

    #[test]
    fn add_window_focuses_and_stacks_on_top() {
        let mut s = Screen::desktop();
        let a = s.add_window(browser_kind(), Rect::new(0.0, 0.0, 800.0, 600.0), 80.0);
        let b = s.add_window(
            WindowKind::OpaqueApp,
            Rect::new(100.0, 0.0, 800.0, 600.0),
            0.0,
        );
        assert!(s.is_focused(b));
        assert_eq!(s.occluders_above(a).unwrap().len(), 1);
        assert!(s.occluders_above(b).unwrap().is_empty());
    }

    #[test]
    fn raise_reorders_stack() {
        let mut s = Screen::desktop();
        let a = s.add_window(browser_kind(), Rect::new(0.0, 0.0, 800.0, 600.0), 80.0);
        let _b = s.add_window(
            WindowKind::OpaqueApp,
            Rect::new(0.0, 0.0, 800.0, 600.0),
            0.0,
        );
        s.raise(a).unwrap();
        assert!(s.occluders_above(a).unwrap().is_empty());
        assert!(s.is_focused(a));
    }

    #[test]
    fn minimized_windows_do_not_occlude() {
        let mut s = Screen::desktop();
        let a = s.add_window(browser_kind(), Rect::new(0.0, 0.0, 800.0, 600.0), 80.0);
        let b = s.add_window(
            WindowKind::OpaqueApp,
            Rect::new(0.0, 0.0, 800.0, 600.0),
            0.0,
        );
        s.minimize(b).unwrap();
        assert!(s.occluders_above(a).unwrap().is_empty());
        assert_eq!(s.focused(), None);
    }

    #[test]
    fn restore_raises_and_refocuses() {
        let mut s = Screen::desktop();
        let _a = s.add_window(browser_kind(), Rect::new(0.0, 0.0, 800.0, 600.0), 80.0);
        let b = s.add_window(
            WindowKind::OpaqueApp,
            Rect::new(0.0, 0.0, 800.0, 600.0),
            0.0,
        );
        s.minimize(b).unwrap();
        s.restore(b).unwrap();
        assert!(s.is_focused(b));
    }

    #[test]
    fn move_window_can_leave_screen() {
        let mut s = Screen::desktop();
        let a = s.add_window(browser_kind(), Rect::new(0.0, 0.0, 800.0, 600.0), 80.0);
        s.move_window(a, Vector::new(5000.0, 0.0)).unwrap();
        let w = s.window(a).unwrap();
        assert!(!w.screen_rect.intersects(&s.bounds()));
    }

    #[test]
    fn blur_keeps_stacking() {
        let mut s = Screen::desktop();
        let a = s.add_window(browser_kind(), Rect::new(0.0, 0.0, 800.0, 600.0), 80.0);
        s.blur_all();
        assert!(!s.is_focused(a));
        assert!(s.occluders_above(a).unwrap().is_empty());
    }

    #[test]
    fn resize_window_keeps_origin() {
        let mut s = Screen::desktop();
        let a = s.add_window(browser_kind(), Rect::new(10.0, 20.0, 800.0, 600.0), 80.0);
        s.resize_window(a, Size::new(1900.0, 1060.0)).unwrap();
        let w = s.window(a).unwrap();
        assert_eq!(w.screen_rect, Rect::new(10.0, 20.0, 1900.0, 1060.0));
    }

    #[test]
    fn every_mutable_path_bumps_the_scene_epoch() {
        let mut s = Screen::desktop();
        let mut last = s.epoch();
        let mut expect_bump = |s: &Screen, what: &str| {
            assert_ne!(s.epoch(), last, "{what} must bump the scene epoch");
            last = s.epoch();
        };
        let a = s.add_window(browser_kind(), Rect::new(0.0, 0.0, 800.0, 600.0), 80.0);
        expect_bump(&s, "add_window");
        s.window_mut(a).unwrap();
        expect_bump(&s, "window_mut");
        s.move_window(a, Vector::new(1.0, 0.0)).unwrap();
        expect_bump(&s, "move_window");
        s.resize_window(a, Size::new(640.0, 480.0)).unwrap();
        expect_bump(&s, "resize_window");
        s.blur_all();
        expect_bump(&s, "blur_all");
        s.focus(a).unwrap();
        expect_bump(&s, "focus");
        s.raise(a).unwrap();
        expect_bump(&s, "raise");
        s.minimize(a).unwrap();
        expect_bump(&s, "minimize");
        s.restore(a).unwrap();
        expect_bump(&s, "restore");
        // Read-only paths must NOT bump.
        let before = s.epoch();
        let _ = s.window(a).unwrap();
        let _ = s.occluders_above(a).unwrap();
        let mut scratch = Vec::new();
        s.occluders_above_into(a, &mut scratch).unwrap();
        assert_eq!(s.epoch(), before, "read paths must not bump the epoch");
    }

    #[test]
    fn occluders_into_matches_allocating_variant() {
        let mut s = Screen::desktop();
        let a = s.add_window(browser_kind(), Rect::new(0.0, 0.0, 800.0, 600.0), 80.0);
        let b = s.add_window(
            WindowKind::OpaqueApp,
            Rect::new(100.0, 50.0, 400.0, 300.0),
            0.0,
        );
        let mut scratch = vec![Rect::new(9.0, 9.0, 9.0, 9.0)];
        s.occluders_above_into(a, &mut scratch).unwrap();
        assert_eq!(scratch, s.occluders_above(a).unwrap());
        assert_eq!(scratch.len(), 1);
        s.minimize(b).unwrap();
        s.occluders_above_into(a, &mut scratch).unwrap();
        assert_eq!(scratch, s.occluders_above(a).unwrap());
        assert!(scratch.is_empty());
    }

    #[test]
    fn unknown_window_errors() {
        let mut s = Screen::desktop();
        assert!(s.focus(WindowId(4)).is_err());
        assert!(s.window(WindowId(4)).is_err());
    }
}
