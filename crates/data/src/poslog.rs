//! Append-friendly position storage with structurally shared chunks.
//!
//! The dynamic maintenance path ([`DynamicPrimeLs`] in
//! `pinocchio-core`) and the serving layer's epoch-snapshot writer both
//! need two things the flat `Vec<Point>` of [`MovingObject`] cannot
//! give them at the same time:
//!
//! * **O(1) amortised append** — a position stream appends one
//!   observation at a time; rebuilding the whole vector per append is
//!   O(n) each, O(n²) over the stream;
//! * **a clone that copies no position** — an object row is copied
//!   whenever a copy-on-write page of rows is, so a log clone must not
//!   copy its trajectory.
//!
//! [`PositionLog`] is a [`CowVec`] of positions plus an incrementally
//! maintained bounding box: a clone costs one reference-count increment
//! per chunk of [`POSITION_CHUNK`] positions, an append copies at most
//! the last chunk when an older snapshot still holds it, and `mbr()` is
//! O(1) rather than a scan. (Cloning a whole world is cheaper still:
//! the rows themselves sit in shared pages, so an untouched log is not
//! even visited.)
//!
//! Iteration order is arrival order, exactly as the flat `A_1D` layout:
//! [`PositionLog::chunks`] yields the positions as consecutive slices,
//! so an evaluation that folds over the chunks in order performs the
//! **bit-identical** float sequence as one over a contiguous slice —
//! the property the dynamic state's exactness gates rely on.
//!
//! [`DynamicPrimeLs`]: ../pinocchio_core/dynamic/struct.DynamicPrimeLs.html

use crate::cowvec::{CowVec, COW_PAGE};
use crate::object::MovingObject;
use pinocchio_geo::{Mbr, Point};

/// Number of positions per chunk: one [`CowVec`] page.
pub const POSITION_CHUNK: usize = COW_PAGE;

/// An append-only position sequence stored in structurally shared
/// chunks (see the module docs for the cost model).
///
/// Invariants: never empty; all positions are finite; `mbr` is the
/// tight bounding box of all positions.
#[derive(Debug, Clone)]
pub struct PositionLog {
    points: CowVec<Point>,
    mbr: Mbr,
}

impl PositionLog {
    /// Builds a log from an initial position sequence, in order.
    ///
    /// # Panics
    /// Panics when `positions` is empty or contains a non-finite
    /// coordinate — the same contract as [`MovingObject::new`].
    pub fn from_positions(positions: &[Point]) -> PositionLog {
        assert!(
            !positions.is_empty(),
            "a position log needs at least one position"
        );
        assert!(
            positions.iter().all(Point::is_finite),
            "position log has a non-finite position"
        );
        let mbr = Mbr::from_points(positions).unwrap_or(Mbr::from_point(positions[0]));
        PositionLog {
            points: CowVec::from_slice(positions),
            mbr,
        }
    }

    /// Builds a log holding a [`MovingObject`]'s positions.
    pub fn from_object(object: &MovingObject) -> PositionLog {
        PositionLog::from_positions(object.positions())
    }

    /// Appends one position in O(1) amortised time. When an older clone
    /// still shares the last chunk, at most that one chunk is copied
    /// (copy-on-write); the shared full chunks are never touched.
    ///
    /// # Panics
    /// Panics on a non-finite position.
    pub fn push(&mut self, position: Point) {
        assert!(position.is_finite(), "non-finite position");
        self.points.push(position);
        self.mbr.expand_to(&position);
    }

    /// Number of stored positions (always ≥ 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false` — kept for API symmetry with the usual
    /// `len`/`is_empty` pairing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The tight bounding box of all positions, maintained incrementally
    /// (O(1), no scan).
    #[inline]
    pub fn mbr(&self) -> Mbr {
        self.mbr
    }

    /// The positions as consecutive chunk slices, in arrival order.
    /// Concatenating the slices reproduces the flat `A_1D` layout
    /// exactly.
    pub fn chunks(&self) -> impl Iterator<Item = &[Point]> {
        self.points.pages()
    }

    /// Iterates over all positions in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Point> {
        self.points.iter()
    }

    /// Materialises the positions into a contiguous vector (O(n); used
    /// only by from-scratch solve paths, never by the update path).
    pub fn to_positions(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// Materialises a [`MovingObject`] with the given id (O(n); the
    /// from-scratch freeze path).
    pub fn to_object(&self, id: u64) -> MovingObject {
        MovingObject::new(id, self.to_positions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f64, (i % 7) as f64))
            .collect()
    }

    #[test]
    fn round_trips_and_chunk_shape() {
        for n in [
            1,
            2,
            POSITION_CHUNK - 1,
            POSITION_CHUNK,
            POSITION_CHUNK + 1,
            300,
        ] {
            let positions = pts(n);
            let log = PositionLog::from_positions(&positions);
            assert_eq!(log.len(), n);
            assert!(!log.is_empty());
            assert_eq!(log.to_positions(), positions);
            assert_eq!(log.iter().copied().collect::<Vec<_>>(), positions);
            // All chunks full except possibly the last.
            let chunks: Vec<&[Point]> = log.chunks().collect();
            for c in &chunks[..chunks.len() - 1] {
                assert_eq!(c.len(), POSITION_CHUNK);
            }
            assert_eq!(log.mbr(), Mbr::from_points(&positions).unwrap());
        }
    }

    #[test]
    fn push_crosses_chunk_boundaries() {
        let mut log = PositionLog::from_positions(&pts(1));
        let mut expect = pts(1);
        for i in 1..(3 * POSITION_CHUNK + 5) {
            let p = Point::new(i as f64 * 0.5, -(i as f64));
            log.push(p);
            expect.push(p);
        }
        assert_eq!(log.to_positions(), expect);
        assert_eq!(log.mbr(), Mbr::from_points(&expect).unwrap());
    }

    #[test]
    fn clone_shares_chunks_structurally() {
        let mut log = PositionLog::from_positions(&pts(2 * POSITION_CHUNK + 3));
        let snapshot = log.clone();
        // Full chunks are shared, not copied.
        let a: Vec<&[Point]> = log.chunks().collect();
        let b: Vec<&[Point]> = snapshot.chunks().collect();
        assert_eq!(a, b);
        assert!(log.points.shares_page(&snapshot.points, 0));
        assert!(log.points.shares_page(&snapshot.points, 2));

        // Appending to the live log copies at most the last (shared)
        // chunk; the snapshot is untouched.
        log.push(Point::new(1000.0, 1000.0));
        assert_eq!(snapshot.len(), 2 * POSITION_CHUNK + 3);
        assert_eq!(log.len(), 2 * POSITION_CHUNK + 4);
        assert!(log.points.shares_page(&snapshot.points, 0));
        assert!(!log.points.shares_page(&snapshot.points, 2));
        assert!(snapshot.iter().all(|p| *p != Point::new(1000.0, 1000.0)));

        // Unshared appends mutate in place (no chunk churn).
        let spine_before = log.chunks().nth(2).unwrap().as_ptr();
        log.push(Point::new(5.0, 5.0));
        assert_eq!(log.chunks().nth(2).unwrap().as_ptr(), spine_before);
    }

    #[test]
    fn object_round_trip() {
        let object = MovingObject::new(42, pts(10));
        let log = PositionLog::from_object(&object);
        assert_eq!(log.to_object(42), object);
    }

    #[test]
    #[should_panic(expected = "at least one position")]
    fn empty_log_rejected() {
        let _ = PositionLog::from_positions(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_push_rejected() {
        let mut log = PositionLog::from_positions(&pts(1));
        log.push(Point::new(f64::NAN, 0.0));
    }
}
