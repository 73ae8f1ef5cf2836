//! `PositionArena` — all objects' positions flattened into one
//! structure-of-arrays store with per-block bounding rectangles.
//!
//! The paper stores each object's positions as its own `A_1D` array
//! ([`MovingObject::positions`]); that is faithful to Algorithm 1 but
//! costs one heap allocation per object and a pointer chase per
//! object–candidate validation. The arena keeps the same information in
//! three contiguous parallel arrays:
//!
//! * `xs` / `ys` — every position of every object, object by object, in
//!   storage order (so a per-object slice is exactly the object's `A_1D`
//!   with the coordinates split out), and
//! * `block_mbrs` — positions are grouped into fixed-size *blocks* of
//!   [`BLOCK_SIZE`] consecutive positions (blocks never span two
//!   objects), each carrying the precomputed MBR of its positions.
//!
//! The block MBRs are what makes the layout more than a cache
//! optimisation: the paper's own pruning argument (Theorems 1–2 bound an
//! object's influence through `minDist`/`maxDist` to the object MBR)
//! applies *within* an object to every block, so an evaluation kernel
//! can bound a block's contribution to the non-influence product from
//! two distances instead of evaluating [`BLOCK_SIZE`] positions — see
//! `pinocchio_prob`'s log-domain blocked evaluator and DESIGN.md §10.

use crate::object::MovingObject;
use pinocchio_geo::Mbr;

/// Number of consecutive positions per block.
///
/// Chosen so a block's two coordinate rows (16 × 2 × 8 bytes) fill four
/// cache lines and the per-block bound (two distances, two `PF` calls,
/// two `ln_1p`) amortises to well under one position evaluation.
pub const BLOCK_SIZE: usize = 16;

/// Per-object directory entry: where the object's positions and blocks
/// live inside the arena's flat arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    /// First position index in `xs`/`ys`.
    start: usize,
    /// Number of positions.
    len: usize,
    /// First block index in `block_mbrs`.
    block_start: usize,
    /// Number of blocks (`len.div_ceil(BLOCK_SIZE)`).
    block_len: usize,
}

/// Structure-of-arrays position store over a fixed object set.
///
/// Built once per problem instance; all solvers share it read-only
/// (every field is plain data, so the arena is `Sync` and worker threads
/// borrow it directly).
#[derive(Debug, Clone)]
pub struct PositionArena {
    xs: Vec<f64>,
    ys: Vec<f64>,
    block_mbrs: Vec<Mbr>,
    /// One whole-trajectory MBR per object (`MBR(O)`, §3.1): the paper's
    /// Theorems 1–2 bound an object's influence from two distances to
    /// this rectangle, so kernels can decide most far/near pairs in O(1)
    /// before touching any block.
    object_mbrs: Vec<Mbr>,
    spans: Vec<Span>,
}

impl PositionArena {
    /// Flattens `objects` into the arena layout.
    ///
    /// Object order and per-object position order are preserved exactly,
    /// so index `i` here corresponds to `objects[i]` and the per-object
    /// coordinate slices replay `objects[i].positions()` verbatim.
    pub fn from_objects(objects: &[MovingObject]) -> Self {
        let total: usize = objects.iter().map(MovingObject::position_count).sum();
        let mut xs = Vec::with_capacity(total);
        let mut ys = Vec::with_capacity(total);
        let mut block_mbrs = Vec::with_capacity(total.div_ceil(BLOCK_SIZE) + objects.len());
        let mut object_mbrs = Vec::with_capacity(objects.len());
        let mut spans = Vec::with_capacity(objects.len());
        for object in objects {
            let positions = object.positions();
            let start = xs.len();
            let block_start = block_mbrs.len();
            for p in positions {
                xs.push(p.x);
                ys.push(p.y);
            }
            for chunk in positions.chunks(BLOCK_SIZE) {
                // pinocchio-lint note: chunks of a non-empty slice are
                // non-empty, so the MBR always exists.
                if let Some(mbr) = Mbr::from_points(chunk) {
                    block_mbrs.push(mbr);
                }
            }
            object_mbrs.push(object.mbr());
            spans.push(Span {
                start,
                len: positions.len(),
                block_start,
                block_len: block_mbrs.len() - block_start,
            });
        }
        PositionArena {
            xs,
            ys,
            block_mbrs,
            object_mbrs,
            spans,
        }
    }

    /// Number of objects in the arena.
    #[inline]
    pub fn object_count(&self) -> usize {
        self.spans.len()
    }

    /// Total number of positions across all objects.
    #[inline]
    pub fn total_positions(&self) -> usize {
        self.xs.len()
    }

    /// Total number of blocks across all objects.
    #[inline]
    pub fn total_blocks(&self) -> usize {
        self.block_mbrs.len()
    }

    /// Number of positions of object `i`.
    #[inline]
    pub fn position_count(&self, i: usize) -> usize {
        self.spans[i].len
    }

    /// The x coordinates of object `i`'s positions, in storage order.
    #[inline]
    pub fn object_xs(&self, i: usize) -> &[f64] {
        let s = self.spans[i];
        &self.xs[s.start..s.start + s.len]
    }

    /// The y coordinates of object `i`'s positions, in storage order.
    #[inline]
    pub fn object_ys(&self, i: usize) -> &[f64] {
        let s = self.spans[i];
        &self.ys[s.start..s.start + s.len]
    }

    /// The block MBRs of object `i`: block `b` covers its positions
    /// `b * BLOCK_SIZE .. ((b + 1) * BLOCK_SIZE).min(len)`.
    #[inline]
    pub fn object_block_mbrs(&self, i: usize) -> &[Mbr] {
        let s = self.spans[i];
        &self.block_mbrs[s.block_start..s.block_start + s.block_len]
    }

    /// The whole-trajectory MBR of object `i` (`MBR(O)`, §3.1).
    #[inline]
    pub fn object_mbr(&self, i: usize) -> &Mbr {
        &self.object_mbrs[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinocchio_geo::Point;

    fn objects() -> Vec<MovingObject> {
        vec![
            MovingObject::new(0, (0..5).map(|i| Point::new(i as f64, 1.0)).collect()),
            MovingObject::new(1, vec![Point::new(-3.0, -4.0)]),
            MovingObject::new(
                2,
                (0..40).map(|i| Point::new(i as f64, -(i as f64))).collect(),
            ),
        ]
    }

    #[test]
    fn layout_matches_objects_exactly() {
        let objs = objects();
        let arena = PositionArena::from_objects(&objs);
        assert_eq!(arena.object_count(), 3);
        assert_eq!(arena.total_positions(), 46);
        for (i, o) in objs.iter().enumerate() {
            assert_eq!(arena.position_count(i), o.position_count());
            let xs = arena.object_xs(i);
            let ys = arena.object_ys(i);
            for (k, p) in o.positions().iter().enumerate() {
                assert_eq!(xs[k].to_bits(), p.x.to_bits(), "object {i} position {k}");
                assert_eq!(ys[k].to_bits(), p.y.to_bits(), "object {i} position {k}");
            }
        }
    }

    #[test]
    fn blocks_never_span_objects() {
        let arena = PositionArena::from_objects(&objects());
        // 5 → 1 block, 1 → 1 block, 40 → 3 blocks.
        assert_eq!(arena.object_block_mbrs(0).len(), 1);
        assert_eq!(arena.object_block_mbrs(1).len(), 1);
        assert_eq!(arena.object_block_mbrs(2).len(), 3);
        assert_eq!(arena.total_blocks(), 5);
    }

    #[test]
    fn block_mbrs_are_tight() {
        let objs = objects();
        let arena = PositionArena::from_objects(&objs);
        for (i, o) in objs.iter().enumerate() {
            for (b, mbr) in arena.object_block_mbrs(i).iter().enumerate() {
                let lo = b * BLOCK_SIZE;
                let hi = ((b + 1) * BLOCK_SIZE).min(o.position_count());
                let expect = Mbr::from_points(&o.positions()[lo..hi]).unwrap();
                assert_eq!(*mbr, expect, "object {i} block {b}");
                for p in &o.positions()[lo..hi] {
                    assert!(mbr.contains_point(p));
                }
            }
        }
    }

    #[test]
    fn object_mbrs_match_objects() {
        let objs = objects();
        let arena = PositionArena::from_objects(&objs);
        for (i, o) in objs.iter().enumerate() {
            assert_eq!(*arena.object_mbr(i), o.mbr(), "object {i}");
            // The object MBR is exactly the union of its block MBRs.
            let union = arena
                .object_block_mbrs(i)
                .iter()
                .copied()
                .reduce(|a, b| a.union(&b))
                .unwrap();
            assert_eq!(*arena.object_mbr(i), union, "object {i}");
        }
    }

    #[test]
    fn exact_multiple_of_block_size() {
        let o = vec![MovingObject::new(
            0,
            (0..BLOCK_SIZE as u64 * 2)
                .map(|i| Point::new(i as f64, 0.0))
                .collect(),
        )];
        let arena = PositionArena::from_objects(&o);
        assert_eq!(arena.object_block_mbrs(0).len(), 2);
    }

    #[test]
    fn empty_object_set_is_fine() {
        let arena = PositionArena::from_objects(&[]);
        assert_eq!(arena.object_count(), 0);
        assert_eq!(arena.total_positions(), 0);
        assert_eq!(arena.total_blocks(), 0);
    }
}
