//! Pages and frames: the browsing-context tree.

use crate::epoch::next_epoch;
use crate::{DomError, Element, ElementKind, ElementRef, FrameId, Origin};
use qtag_geometry::{Rect, Size, Vector};

/// One browsing context: a document with an origin, a scrollable canvas
/// and a list of laid-out elements (possibly including nested iframes).
#[derive(Debug, Clone)]
pub struct Frame {
    id: FrameId,
    origin: Origin,
    /// Total laid-out document size (the scrollable canvas).
    doc_size: Size,
    /// Current scroll offset: document coordinates of the point shown at
    /// the frame's top-left corner.
    scroll: Vector,
    elements: Vec<Element>,
    /// `(parent frame, index of the iframe element embedding this frame)`.
    parent: Option<(FrameId, u32)>,
}

impl Frame {
    /// Frame handle.
    pub fn id(&self) -> FrameId {
        self.id
    }

    /// Document origin.
    pub fn origin(&self) -> &Origin {
        &self.origin
    }

    /// Laid-out document size.
    pub fn doc_size(&self) -> Size {
        self.doc_size
    }

    /// Current scroll offset.
    pub fn scroll(&self) -> Vector {
        self.scroll
    }

    /// The elements of this frame, in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// The embedding edge: parent frame and the index of the iframe
    /// element hosting this frame, or `None` for a root frame.
    pub fn parent(&self) -> Option<(FrameId, u32)> {
        self.parent
    }
}

/// A page: a tree of frames rooted at the top-level document.
///
/// The root frame's *viewport* (the part shown to the user) is owned by
/// the [`crate::Tab`]/[`crate::Window`] layer — a page itself is
/// presentation-agnostic.
#[derive(Debug, Clone)]
pub struct Page {
    frames: Vec<Frame>,
    root: FrameId,
    /// Stamp of the last mutation that can move content relative to
    /// **root-document coordinates**: adding/moving elements, embedding
    /// iframes, scrolling *inner* frames. Drawn from the process-wide
    /// epoch counter — see [`crate::epoch`]. Root-frame scrolls leave it
    /// alone — projections to root-document space exclude the root
    /// scroll, so layout-keyed caches survive page scrolling.
    layout_epoch: u64,
}

impl Page {
    /// Creates a page whose root document has the given origin and laid
    /// out document size.
    pub fn new(origin: Origin, doc_size: Size) -> Self {
        let root = Frame {
            id: FrameId(0),
            origin,
            doc_size,
            scroll: Vector::ZERO,
            elements: Vec::new(),
            parent: None,
        };
        Page {
            frames: vec![root],
            root: FrameId(0),
            layout_epoch: next_epoch(),
        }
    }

    /// The root frame handle.
    pub fn root(&self) -> FrameId {
        self.root
    }

    /// Stamp of the last mutation that can move content in
    /// root-document coordinates (everything except root-frame
    /// scrolls). Projections cached in root-document space are valid
    /// exactly as long as this stamp holds still; see [`crate::epoch`]
    /// for why stamps are process-unique.
    pub fn layout_epoch(&self) -> u64 {
        self.layout_epoch
    }

    /// Marks a mutation that may have moved content relative to the
    /// root document (pessimistic: callers need not prove movement).
    fn touch_layout(&mut self) {
        self.layout_epoch = next_epoch();
    }

    /// Number of frames in the page.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Looks up a frame.
    pub fn frame(&self, id: FrameId) -> Result<&Frame, DomError> {
        self.frames
            .get(id.0 as usize)
            .ok_or(DomError::UnknownFrame(id))
    }

    fn frame_mut(&mut self, id: FrameId) -> Result<&mut Frame, DomError> {
        self.frames
            .get_mut(id.0 as usize)
            .ok_or(DomError::UnknownFrame(id))
    }

    /// Looks up an element.
    pub fn element(&self, eref: ElementRef) -> Result<&Element, DomError> {
        self.frame(eref.frame)?
            .elements
            .get(eref.index as usize)
            .ok_or(DomError::UnknownElement(eref))
    }

    /// Mutable element access (experiment scripts move ads around with
    /// this; production code never needs it). Pessimistically counts as
    /// a layout mutation — the caller may move an iframe element's box.
    pub fn element_mut(&mut self, eref: ElementRef) -> Result<&mut Element, DomError> {
        self.touch_layout();
        self.frame_mut(eref.frame)?
            .elements
            .get_mut(eref.index as usize)
            .ok_or(DomError::UnknownElement(eref))
    }

    /// Adds an element to a frame, returning its handle.
    pub fn add_element(
        &mut self,
        frame: FrameId,
        element: Element,
    ) -> Result<ElementRef, DomError> {
        let f = self.frame_mut(frame)?;
        f.elements.push(element);
        let eref = ElementRef {
            frame,
            index: (f.elements.len() - 1) as u32,
        };
        self.touch_layout();
        Ok(eref)
    }

    /// Creates a new, not-yet-embedded frame (a child document that has
    /// been fetched but not attached).
    pub fn create_frame(&mut self, origin: Origin, doc_size: Size) -> FrameId {
        let id = FrameId(self.frames.len() as u32);
        self.frames.push(Frame {
            id,
            origin,
            doc_size,
            scroll: Vector::ZERO,
            elements: Vec::new(),
            parent: None,
        });
        self.touch_layout();
        id
    }

    /// Embeds `child` into `parent` as an `<iframe>` element occupying
    /// `rect` (parent document coordinates). Returns the iframe element's
    /// handle.
    ///
    /// Fails if `child` already has a parent or if the embedding would
    /// create a cycle.
    pub fn embed_iframe(
        &mut self,
        parent: FrameId,
        child: FrameId,
        rect: Rect,
    ) -> Result<ElementRef, DomError> {
        self.frame(child)?;
        self.frame(parent)?;
        if self.frames[child.0 as usize].parent.is_some() {
            return Err(DomError::AlreadyEmbedded(child));
        }
        // Walk up from `parent`: if we reach `child`, embedding would
        // close a loop.
        let mut cursor = Some(parent);
        while let Some(f) = cursor {
            if f == child {
                return Err(DomError::EmbeddingCycle(child));
            }
            cursor = self.frames[f.0 as usize].parent.map(|(p, _)| p);
        }
        let eref = self.add_element(
            parent,
            Element::new(
                format!("iframe:{}", self.frames[child.0 as usize].origin),
                ElementKind::Iframe(child),
                rect,
            ),
        )?;
        self.frames[child.0 as usize].parent = Some((parent, eref.index));
        self.touch_layout();
        Ok(eref)
    }

    /// Scrolls a frame to an absolute offset, clamped to the scrollable
    /// range given the frame's visible box size `view`.
    pub fn scroll_frame_to(
        &mut self,
        frame: FrameId,
        offset: Vector,
        view: Size,
    ) -> Result<(), DomError> {
        let root = self.root;
        let f = self.frame_mut(frame)?;
        let max_x = (f.doc_size.width - view.width).max(0.0);
        let max_y = (f.doc_size.height - view.height).max(0.0);
        f.scroll = Vector::new(offset.dx.clamp(0.0, max_x), offset.dy.clamp(0.0, max_y));
        // Root scrolls move the viewport, not the layout; inner-frame
        // scrolls shift child content in root-document coordinates.
        if frame != root {
            self.touch_layout();
        }
        Ok(())
    }

    /// The chain of embedding edges from `frame` up to the root:
    /// `[(parent, iframe element index), …]`, innermost first. Empty for
    /// the root frame.
    pub fn ancestor_chain(&self, frame: FrameId) -> Result<Vec<(FrameId, u32)>, DomError> {
        let mut chain = Vec::new();
        let mut cursor = self.frame(frame)?.parent;
        while let Some((p, idx)) = cursor {
            chain.push((p, idx));
            cursor = self.frames[p.0 as usize].parent;
        }
        Ok(chain)
    }

    /// Depth of cross-origin boundaries between `frame` and the root: 0
    /// when every ancestor shares the frame's origin, 2 for the paper's
    /// "double cross-domain iframe" serving path.
    pub fn cross_origin_depth(&self, frame: FrameId) -> Result<usize, DomError> {
        let mut depth = 0;
        let mut below = self.frame(frame)?;
        for (parent, _) in self.ancestor_chain(frame)? {
            let above = self.frame(parent)?;
            if !below.origin.same_origin(&above.origin) {
                depth += 1;
            }
            below = above;
        }
        Ok(depth)
    }

    /// Geometry read, **Same-Origin Policy enforced**.
    ///
    /// Returns the rectangle of `frame`'s box in *root document
    /// coordinates* — exactly what a script would need to compute its own
    /// viewport overlap — but only when `requester` is same-origin with
    /// the target frame **and every frame on the embedding path**, which
    /// is the condition under which a real script could walk
    /// `window.parent` and read `getBoundingClientRect` at each hop.
    ///
    /// For an ad tag inside a cross-domain iframe this returns
    /// [`DomError::SameOriginViolation`]: the starting point of the
    /// paper's §3.
    pub fn frame_rect_in_root(&self, frame: FrameId, requester: &Origin) -> Result<Rect, DomError> {
        // SOP check along the whole path.
        let target = self.frame(frame)?;
        if !requester.same_origin(&target.origin) {
            return Err(DomError::SameOriginViolation {
                requester: requester.clone(),
                target: target.origin.clone(),
            });
        }
        for (parent, _) in self.ancestor_chain(frame)? {
            let p = self.frame(parent)?;
            if !requester.same_origin(&p.origin) {
                return Err(DomError::SameOriginViolation {
                    requester: requester.clone(),
                    target: p.origin.clone(),
                });
            }
        }
        self.frame_rect_in_root_unchecked(frame)
    }

    /// Geometry read **without** the SOP check.
    ///
    /// This is the renderer's private view of the world (a compositor
    /// knows where everything is) and is also what experiment harnesses
    /// use as ground truth. Measurement tags must go through
    /// [`Page::frame_rect_in_root`].
    pub fn frame_rect_in_root_unchecked(&self, frame: FrameId) -> Result<Rect, DomError> {
        let f = self.frame(frame)?;
        if f.parent.is_none() {
            // The root frame's box is its whole document.
            return Ok(Rect::from_origin_size(
                qtag_geometry::Point::ORIGIN,
                f.doc_size,
            ));
        }
        // Start with the frame's full box in its own doc coords (its
        // iframe element rect in the parent gives its outer position).
        let mut rect: Option<Rect> = None;
        let mut current = frame;
        for (parent, idx) in self.ancestor_chain(frame)? {
            let iframe_el = &self.frames[parent.0 as usize].elements[idx as usize];
            let iframe_rect = iframe_el.rect;
            let child = &self.frames[current.0 as usize];
            rect = Some(match rect {
                // Innermost step: the frame's own box is the iframe rect.
                None => iframe_rect,
                // Subsequent steps: map child-doc coords into parent-doc
                // coords (apply child scroll, then iframe offset) and clip
                // to the iframe box.
                Some(r) => {
                    let mapped = r
                        .translate(-child.scroll)
                        .translate(iframe_rect.origin - qtag_geometry::Point::ORIGIN);
                    match mapped.intersection(&iframe_rect) {
                        Some(clipped) => clipped,
                        // Scrolled fully out of the iframe's box: an empty
                        // rect positioned at the iframe corner.
                        None => Rect::from_origin_size(iframe_rect.origin, Size::ZERO),
                    }
                }
            });
            current = parent;
        }
        Ok(rect.expect("non-root frame has at least one ancestor edge"))
    }

    /// Maps a rectangle in `frame`'s document coordinates to root document
    /// coordinates, applying every intermediate scroll and iframe clip.
    /// Returns `None` when the rectangle is entirely clipped away. No SOP
    /// check: renderer-side API.
    pub fn rect_to_root_unchecked(
        &self,
        frame: FrameId,
        rect: Rect,
    ) -> Result<Option<Rect>, DomError> {
        self.frame(frame)?;
        let mut r = rect;
        let mut current = frame;
        for (parent, idx) in self.ancestor_chain(frame)? {
            let child = &self.frames[current.0 as usize];
            let iframe_rect = self.frames[parent.0 as usize].elements[idx as usize].rect;
            r = r
                .translate(-child.scroll)
                .translate(iframe_rect.origin - qtag_geometry::Point::ORIGIN);
            r = match r.intersection(&iframe_rect) {
                Some(clipped) => clipped,
                None => return Ok(None),
            };
            current = parent;
        }
        Ok(Some(r))
    }

    /// Maps a point in `frame`'s document coordinates to root document
    /// coordinates, applying every intermediate scroll and iframe offset.
    /// Returns `None` when the point is clipped away by an intermediate
    /// iframe box. No SOP check: renderer-side API.
    pub fn point_to_root_unchecked(
        &self,
        frame: FrameId,
        point: qtag_geometry::Point,
    ) -> Result<Option<qtag_geometry::Point>, DomError> {
        self.frame(frame)?;
        let mut p = point;
        let mut current = frame;
        for (parent, idx) in self.ancestor_chain(frame)? {
            let child = &self.frames[current.0 as usize];
            let iframe_rect = self.frames[parent.0 as usize].elements[idx as usize].rect;
            // child doc coords -> parent doc coords
            p = p - child.scroll + (iframe_rect.origin - qtag_geometry::Point::ORIGIN);
            if !iframe_rect.contains(p) {
                return Ok(None);
            }
            current = parent;
        }
        Ok(Some(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtag_geometry::Point;

    fn double_iframe_page() -> (Page, FrameId, FrameId) {
        // publisher page 1280x2400, SSP iframe at (200,600) 300x250,
        // DSP iframe filling it (the paper's double cross-domain iframe).
        let mut page = Page::new(
            Origin::https("publisher.example"),
            Size::new(1280.0, 2400.0),
        );
        let ssp = page.create_frame(Origin::https("ssp.example"), Size::new(300.0, 250.0));
        page.embed_iframe(page.root(), ssp, Rect::new(200.0, 600.0, 300.0, 250.0))
            .unwrap();
        let dsp = page.create_frame(Origin::https("dsp.example"), Size::new(300.0, 250.0));
        page.embed_iframe(ssp, dsp, Rect::new(0.0, 0.0, 300.0, 250.0))
            .unwrap();
        (page, ssp, dsp)
    }

    #[test]
    fn root_frame_rect_is_document() {
        let (page, _, _) = double_iframe_page();
        let r = page.frame_rect_in_root_unchecked(page.root()).unwrap();
        assert_eq!(r, Rect::new(0.0, 0.0, 1280.0, 2400.0));
    }

    #[test]
    fn nested_frame_rect_composes_offsets() {
        let (page, ssp, dsp) = double_iframe_page();
        assert_eq!(
            page.frame_rect_in_root_unchecked(ssp).unwrap(),
            Rect::new(200.0, 600.0, 300.0, 250.0)
        );
        assert_eq!(
            page.frame_rect_in_root_unchecked(dsp).unwrap(),
            Rect::new(200.0, 600.0, 300.0, 250.0)
        );
    }

    #[test]
    fn sop_blocks_cross_origin_geometry() {
        let (page, _, dsp) = double_iframe_page();
        let tag_origin = Origin::https("dsp.example");
        let err = page.frame_rect_in_root(dsp, &tag_origin).unwrap_err();
        assert!(matches!(err, DomError::SameOriginViolation { .. }));
    }

    #[test]
    fn sop_allows_same_origin_chain() {
        let mut page = Page::new(Origin::https("pub.example"), Size::new(1000.0, 1000.0));
        let child = page.create_frame(Origin::https("pub.example"), Size::new(100.0, 100.0));
        page.embed_iframe(page.root(), child, Rect::new(10.0, 20.0, 100.0, 100.0))
            .unwrap();
        let r = page
            .frame_rect_in_root(child, &Origin::https("pub.example"))
            .unwrap();
        assert_eq!(r, Rect::new(10.0, 20.0, 100.0, 100.0));
    }

    #[test]
    fn cross_origin_depth_counts_boundaries() {
        let (page, ssp, dsp) = double_iframe_page();
        assert_eq!(page.cross_origin_depth(page.root()).unwrap(), 0);
        assert_eq!(page.cross_origin_depth(ssp).unwrap(), 1);
        assert_eq!(page.cross_origin_depth(dsp).unwrap(), 2);
    }

    #[test]
    fn embed_rejects_double_parenting() {
        let mut page = Page::new(Origin::https("a"), Size::new(100.0, 100.0));
        let f = page.create_frame(Origin::https("b"), Size::new(10.0, 10.0));
        page.embed_iframe(page.root(), f, Rect::new(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let err = page
            .embed_iframe(page.root(), f, Rect::new(20.0, 0.0, 10.0, 10.0))
            .unwrap_err();
        assert_eq!(err, DomError::AlreadyEmbedded(f));
    }

    #[test]
    fn embed_rejects_cycle() {
        let mut page = Page::new(Origin::https("a"), Size::new(100.0, 100.0));
        let err = page
            .embed_iframe(page.root(), page.root(), Rect::new(0.0, 0.0, 10.0, 10.0))
            .unwrap_err();
        assert_eq!(err, DomError::EmbeddingCycle(page.root()));
    }

    #[test]
    fn scroll_clamps_to_document() {
        let mut page = Page::new(Origin::https("a"), Size::new(1000.0, 3000.0));
        let view = Size::new(1000.0, 800.0);
        page.scroll_frame_to(page.root(), Vector::new(-50.0, 99999.0), view)
            .unwrap();
        let f = page.frame(page.root()).unwrap();
        assert_eq!(f.scroll(), Vector::new(0.0, 2200.0));
    }

    #[test]
    fn point_mapping_through_double_iframe() {
        let (page, _, dsp) = double_iframe_page();
        let p = page
            .point_to_root_unchecked(dsp, Point::new(150.0, 125.0))
            .unwrap()
            .unwrap();
        assert_eq!(p, Point::new(350.0, 725.0));
    }

    #[test]
    fn point_clipped_by_small_iframe_box() {
        let mut page = Page::new(Origin::https("a"), Size::new(1000.0, 1000.0));
        // iframe box is 50x50 but the child document is 300x250: content
        // beyond the box is clipped.
        let child = page.create_frame(Origin::https("b"), Size::new(300.0, 250.0));
        page.embed_iframe(page.root(), child, Rect::new(100.0, 100.0, 50.0, 50.0))
            .unwrap();
        assert!(page
            .point_to_root_unchecked(child, Point::new(10.0, 10.0))
            .unwrap()
            .is_some());
        assert!(page
            .point_to_root_unchecked(child, Point::new(200.0, 10.0))
            .unwrap()
            .is_none());
    }

    #[test]
    fn inner_scroll_shifts_mapped_points() {
        let mut page = Page::new(Origin::https("a"), Size::new(1000.0, 1000.0));
        let child = page.create_frame(Origin::https("b"), Size::new(100.0, 500.0));
        page.embed_iframe(page.root(), child, Rect::new(0.0, 0.0, 100.0, 100.0))
            .unwrap();
        page.scroll_frame_to(child, Vector::new(0.0, 50.0), Size::new(100.0, 100.0))
            .unwrap();
        let p = page
            .point_to_root_unchecked(child, Point::new(10.0, 60.0))
            .unwrap()
            .unwrap();
        assert_eq!(p, Point::new(10.0, 10.0));
    }

    #[test]
    fn element_lookup_and_mutation() {
        let mut page = Page::new(Origin::https("a"), Size::new(100.0, 100.0));
        let e = page
            .add_element(
                page.root(),
                Element::new("ad", ElementKind::Creative, Rect::new(0.0, 0.0, 10.0, 10.0)),
            )
            .unwrap();
        page.element_mut(e).unwrap().rect = Rect::new(5.0, 5.0, 10.0, 10.0);
        assert_eq!(
            page.element(e).unwrap().rect,
            Rect::new(5.0, 5.0, 10.0, 10.0)
        );
    }

    #[test]
    fn root_scroll_leaves_layout_epoch_alone() {
        let mut page = Page::new(Origin::https("a"), Size::new(1000.0, 3000.0));
        let l0 = page.layout_epoch();
        page.scroll_frame_to(
            page.root(),
            Vector::new(0.0, 100.0),
            Size::new(1000.0, 800.0),
        )
        .unwrap();
        assert_eq!(page.layout_epoch(), l0, "root scroll leaves layout alone");
    }

    #[test]
    fn inner_scroll_and_structure_bump_layout() {
        let mut page = Page::new(Origin::https("a"), Size::new(1000.0, 1000.0));
        let l0 = page.layout_epoch();
        let child = page.create_frame(Origin::https("b"), Size::new(100.0, 500.0));
        let l1 = page.layout_epoch();
        assert_ne!(l1, l0);
        page.embed_iframe(page.root(), child, Rect::new(0.0, 0.0, 100.0, 100.0))
            .unwrap();
        let l2 = page.layout_epoch();
        assert_ne!(l2, l1);
        page.scroll_frame_to(child, Vector::new(0.0, 50.0), Size::new(100.0, 100.0))
            .unwrap();
        let l3 = page.layout_epoch();
        assert_ne!(l3, l2, "inner scroll moves content in root coords");
    }

    #[test]
    fn element_mutation_bumps_layout() {
        let mut page = Page::new(Origin::https("a"), Size::new(100.0, 100.0));
        let e = page
            .add_element(
                page.root(),
                Element::new("ad", ElementKind::Creative, Rect::new(0.0, 0.0, 10.0, 10.0)),
            )
            .unwrap();
        let l0 = page.layout_epoch();
        page.element_mut(e).unwrap().rect = Rect::new(5.0, 5.0, 10.0, 10.0);
        assert_ne!(page.layout_epoch(), l0);
    }

    #[test]
    fn epochs_are_process_unique_across_pages() {
        let a = Page::new(Origin::https("a"), Size::new(1.0, 1.0));
        let b = Page::new(Origin::https("b"), Size::new(1.0, 1.0));
        assert_ne!(a.layout_epoch(), b.layout_epoch());
        // Clones are content-identical, so sharing stamps is sound.
        let c = a.clone();
        assert_eq!(a.layout_epoch(), c.layout_epoch());
    }

    #[test]
    fn unknown_handles_error_cleanly() {
        let page = Page::new(Origin::https("a"), Size::new(1.0, 1.0));
        assert!(page.frame(FrameId(9)).is_err());
        assert!(page
            .element(ElementRef {
                frame: FrameId(0),
                index: 3
            })
            .is_err());
    }
}
