use crate::{Point, Rect};

/// A rectilinear region represented as a union of pairwise
/// interior-disjoint rectangles.
///
/// This is the decoded geometric form of a bitmap-encoded safe region
/// (paper §4): every `1` bit of a GBSR/PBSR bitmap contributes one cell
/// rectangle. The representation makes area and coverage computations exact.
///
/// ```
/// use sa_geometry::{Point, Rect, RectilinearRegion};
/// # fn main() -> Result<(), sa_geometry::GeometryError> {
/// let mut region = RectilinearRegion::new();
/// region.push(Rect::new(0.0, 0.0, 1.0, 1.0)?);
/// region.push(Rect::new(1.0, 0.0, 2.0, 1.0)?);
/// assert_eq!(region.area(), 2.0);
/// assert!(region.contains_point(Point::new(1.5, 0.5)));
/// assert!(!region.contains_point(Point::new(2.5, 0.5)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RectilinearRegion {
    rects: Vec<Rect>,
}

impl RectilinearRegion {
    /// An empty region.
    pub fn new() -> RectilinearRegion {
        RectilinearRegion::default()
    }

    /// Builds a region from rectangles that are assumed interior-disjoint.
    ///
    /// Interior-disjointness is a *debug-checked* precondition: violating it
    /// makes [`RectilinearRegion::area`] over-count.
    pub fn from_rects(rects: Vec<Rect>) -> RectilinearRegion {
        let region = RectilinearRegion { rects };
        debug_assert!(
            region.is_interior_disjoint(),
            "rectangles must be interior-disjoint"
        );
        region
    }

    /// Adds one rectangle to the union.
    ///
    /// The caller must keep the collection interior-disjoint (debug-checked).
    pub fn push(&mut self, rect: Rect) {
        debug_assert!(
            self.rects.iter().all(|r| !r.intersects_interior(&rect)),
            "pushed rectangle overlaps an existing member"
        );
        self.rects.push(rect);
    }

    /// The member rectangles.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Number of member rectangles.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True when the region has no member rectangles.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Exact area of the union (members are interior-disjoint).
    pub fn area(&self) -> f64 {
        self.rects.iter().map(Rect::area).sum()
    }

    /// True when `p` lies in any member rectangle (closed boundaries).
    pub fn contains_point(&self, p: Point) -> bool {
        self.rects.iter().any(|r| r.contains_point(p))
    }

    /// The bounding box of the whole region, or `None` when empty.
    pub fn bounding_box(&self) -> Option<Rect> {
        let mut it = self.rects.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.union(*r)))
    }

    /// True when no two member rectangles share interior points.
    pub fn is_interior_disjoint(&self) -> bool {
        for (i, a) in self.rects.iter().enumerate() {
            for b in &self.rects[i + 1..] {
                if a.intersects_interior(b) {
                    return false;
                }
            }
        }
        true
    }

    /// True when the region shares interior points with `rect` — used to
    /// verify the safety invariant (a safe region never overlaps an alarm
    /// region's interior).
    pub fn intersects_interior(&self, rect: &Rect) -> bool {
        self.rects.iter().any(|r| r.intersects_interior(rect))
    }
}

impl FromIterator<Rect> for RectilinearRegion {
    fn from_iter<I: IntoIterator<Item = Rect>>(iter: I) -> RectilinearRegion {
        RectilinearRegion::from_rects(iter.into_iter().collect())
    }
}

impl Extend<Rect> for RectilinearRegion {
    fn extend<I: IntoIterator<Item = Rect>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d).unwrap()
    }

    #[test]
    fn empty_region_contains_nothing() {
        let region = RectilinearRegion::new();
        assert!(region.is_empty());
        assert_eq!(region.area(), 0.0);
        assert!(!region.contains_point(Point::new(0.0, 0.0)));
        assert!(region.bounding_box().is_none());
    }

    #[test]
    fn area_sums_disjoint_members() {
        let region: RectilinearRegion =
            [r(0.0, 0.0, 1.0, 1.0), r(2.0, 0.0, 4.0, 1.0)].into_iter().collect();
        assert_eq!(region.area(), 3.0);
        assert_eq!(region.len(), 2);
    }

    #[test]
    fn contains_point_checks_all_members() {
        let region: RectilinearRegion =
            [r(0.0, 0.0, 1.0, 1.0), r(5.0, 5.0, 6.0, 6.0)].into_iter().collect();
        assert!(region.contains_point(Point::new(0.5, 0.5)));
        assert!(region.contains_point(Point::new(6.0, 6.0)));
        assert!(!region.contains_point(Point::new(3.0, 3.0)));
    }

    #[test]
    fn bounding_box_covers_all_members() {
        let region: RectilinearRegion =
            [r(0.0, 0.0, 1.0, 1.0), r(5.0, -2.0, 6.0, 0.5)].into_iter().collect();
        assert_eq!(region.bounding_box().unwrap(), r(0.0, -2.0, 6.0, 1.0));
    }

    #[test]
    fn edge_adjacent_members_are_interior_disjoint() {
        let region: RectilinearRegion =
            [r(0.0, 0.0, 1.0, 1.0), r(1.0, 0.0, 2.0, 1.0)].into_iter().collect();
        assert!(region.is_interior_disjoint());
        assert_eq!(region.area(), 2.0);
    }

    #[test]
    fn interior_overlap_is_detected() {
        let region = RectilinearRegion {
            rects: vec![r(0.0, 0.0, 2.0, 2.0), r(1.0, 1.0, 3.0, 3.0)],
        };
        assert!(!region.is_interior_disjoint());
    }

    #[test]
    fn intersects_interior_matches_membership() {
        let region: RectilinearRegion = [r(0.0, 0.0, 1.0, 1.0)].into_iter().collect();
        assert!(region.intersects_interior(&r(0.5, 0.5, 2.0, 2.0)));
        // Edge contact only: no interior intersection.
        assert!(!region.intersects_interior(&r(1.0, 0.0, 2.0, 1.0)));
    }
}
