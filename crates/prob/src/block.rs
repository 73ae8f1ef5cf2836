//! Blocked structure-of-arrays position views and the exact
//! product-space block refinement.
//!
//! [`SoaBlocks`] borrows one object's positions as coordinate rows cut
//! into fixed-size blocks, each with its MBR (see
//! `pinocchio_data::PositionArena`). For a block of `B` positions whose
//! MBR is `R` and a candidate `c`, every position `p` of the block
//! satisfies `minDist(c, R) ≤ dist(c, p) ≤ maxDist(c, R)`, so by the
//! monotonicity of `PF` the block's contribution to the non-influence
//! sum is bounded by
//!
//! ```text
//! B · ln(1 − PF(minDist(c, R)))  ≤  Σ ln(1 − PF(dist(c, p)))  ≤  B · ln(1 − PF(maxDist(c, R)))
//! ```
//!
//! — the same `minDist`/`maxDist` argument the paper's Theorems 1–2 make
//! at whole-object granularity, applied within the object (DESIGN.md
//! §10 derives this in full). The log-domain kernel
//! ([`crate::logdomain`]) accumulates these bounds against `ln(1 − τ)`
//! and refines only the straddling blocks.
//!
//! ## Exactness
//!
//! Pairs the log kernel's guard band cannot decide are resolved by an
//! exact scan over the same view. That scan ([`CumulativeProbability`]'s
//! crate-internal `refine_block`) multiplies `1 − PF(dist)` factors in
//! storage order, the *same multiplication sequence* the scalar path
//! executes, so a fully refined evaluation returns the bit-identical
//! product and verdict of [`crate::CumulativeProbability::influences`].

use crate::cumulative::CumulativeProbability;
use crate::pf::ProbabilityFunction;
use pinocchio_geo::{Euclidean, Mbr, Point};

/// A borrowed view of one object's positions in blocked
/// structure-of-arrays form (see `pinocchio_data::PositionArena`).
///
/// Block `b` covers positions `b·block_size .. min((b+1)·block_size, n)`
/// and `mbrs[b]` is the MBR of exactly those positions.
#[derive(Debug, Clone, Copy)]
pub struct SoaBlocks<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
    mbrs: &'a [Mbr],
    block_size: usize,
    /// MBR of the whole object (union of the block MBRs); `None` only
    /// for an empty view. Lets kernels bound the entire trajectory from
    /// two distances before walking any block.
    object_mbr: Option<Mbr>,
}

impl<'a> SoaBlocks<'a> {
    /// Creates a view over coordinate rows and per-block MBRs, deriving
    /// the object-level MBR as the union of the block MBRs.
    ///
    /// # Panics
    /// Panics when the rows disagree in length, `block_size` is zero, or
    /// the MBR count does not match `xs.len().div_ceil(block_size)`.
    pub fn new(xs: &'a [f64], ys: &'a [f64], mbrs: &'a [Mbr], block_size: usize) -> Self {
        let object_mbr = mbrs.iter().copied().reduce(|a, b| a.union(&b));
        Self::build(xs, ys, mbrs, block_size, object_mbr)
    }

    /// Creates a view with a precomputed object-level MBR (the arena
    /// stores one per object), skipping the union fold in [`Self::new`].
    ///
    /// # Panics
    /// As [`Self::new`]; additionally debug-asserts that `object_mbr`
    /// contains every block MBR, the invariant the kernels' object-level
    /// bounds rely on.
    pub fn with_object_mbr(
        xs: &'a [f64],
        ys: &'a [f64],
        mbrs: &'a [Mbr],
        block_size: usize,
        object_mbr: Mbr,
    ) -> Self {
        debug_assert!(
            mbrs.iter().all(|m| object_mbr.contains_mbr(m)),
            "object MBR must cover every block MBR"
        );
        Self::build(xs, ys, mbrs, block_size, Some(object_mbr))
    }

    fn build(
        xs: &'a [f64],
        ys: &'a [f64],
        mbrs: &'a [Mbr],
        block_size: usize,
        object_mbr: Option<Mbr>,
    ) -> Self {
        assert_eq!(xs.len(), ys.len(), "coordinate rows must agree");
        assert!(block_size > 0, "block size must be positive");
        assert_eq!(
            mbrs.len(),
            xs.len().div_ceil(block_size),
            "one MBR per block required"
        );
        SoaBlocks {
            xs,
            ys,
            mbrs,
            block_size,
            object_mbr,
        }
    }

    /// Number of positions.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the view holds no positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Number of blocks.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.mbrs.len()
    }

    /// The position index range of block `b`.
    #[inline]
    pub(crate) fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        let lo = b * self.block_size;
        lo..((b + 1) * self.block_size).min(self.xs.len())
    }

    /// The x-coordinate row (crate-internal: the log-domain kernel
    /// shares this view's layout).
    #[inline]
    pub(crate) fn xs(&self) -> &'a [f64] {
        self.xs
    }

    /// The y-coordinate row.
    #[inline]
    pub(crate) fn ys(&self) -> &'a [f64] {
        self.ys
    }

    /// The per-block MBRs.
    #[inline]
    pub(crate) fn mbrs(&self) -> &'a [Mbr] {
        self.mbrs
    }

    /// The object-level MBR (`None` only for an empty view).
    #[inline]
    pub(crate) fn object_mbr(&self) -> Option<&Mbr> {
        self.object_mbr.as_ref()
    }
}

impl<P: ProbabilityFunction> CumulativeProbability<P, Euclidean> {
    /// Exact scalar product of a refined block, multiplied into
    /// `product` with the same *multiplication sequence* the scalar
    /// evaluator uses (storage order, one multiply per position) so a
    /// full refinement reproduces its result bit for bit.
    ///
    /// The factors are materialised into a fixed-size buffer first and
    /// multiplied afterwards: each factor is computed independently of
    /// the running product, so the branch-free distance/`PF` lane can be
    /// pipelined (or vectorised) by the compiler instead of serialising
    /// behind the product's multiply chain. The factor *values* and the
    /// multiply *order* are unchanged, so the result is still
    /// bit-identical to the fused loop.
    // pinocchio-hot: inner distance/PF lane of every exact validation
    #[inline]
    pub(crate) fn refine_block(
        &self,
        c: &Point,
        blocks: &SoaBlocks<'_>,
        b: usize,
        product: &mut f64,
    ) {
        const LANE: usize = 16;
        let range = blocks.block_range(b);
        let xs = &blocks.xs[range.clone()];
        let ys = &blocks.ys[range];
        let mut cx = xs.chunks_exact(LANE);
        let mut cy = ys.chunks_exact(LANE);
        for (row_x, row_y) in (&mut cx).zip(&mut cy) {
            let mut f = [0.0f64; LANE];
            for j in 0..LANE {
                let dx = row_x[j] - c.x;
                let dy = row_y[j] - c.y;
                f[j] = 1.0 - self.pf().prob((dx * dx + dy * dy).sqrt());
            }
            for factor in f {
                *product *= factor;
            }
        }
        for (&x, &y) in cx.remainder().iter().zip(cy.remainder()) {
            let dx = x - c.x;
            let dy = y - c.y;
            *product *= 1.0 - self.pf().prob((dx * dx + dy * dy).sqrt());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pf::PowerLawPf;

    fn soa(points: &[(f64, f64)], block_size: usize) -> (Vec<f64>, Vec<f64>, Vec<Mbr>) {
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let mbrs = xs
            .chunks(block_size)
            .zip(ys.chunks(block_size))
            .map(|(cx, cy)| {
                let pts: Vec<Point> = cx.iter().zip(cy).map(|(&x, &y)| Point::new(x, y)).collect();
                Mbr::from_points(&pts).unwrap()
            })
            .collect();
        (xs, ys, mbrs)
    }

    fn eval() -> CumulativeProbability<PowerLawPf, Euclidean> {
        CumulativeProbability::new(PowerLawPf::paper_default(), Euclidean)
    }

    fn grid(n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| ((i % 7) as f64 * 0.8, (i / 7) as f64 * 0.6))
            .collect()
    }

    /// The product of every block of `view`, refined in order.
    fn refined_product(
        e: &CumulativeProbability<PowerLawPf, Euclidean>,
        c: &Point,
        view: &SoaBlocks<'_>,
    ) -> f64 {
        let mut product = 1.0f64;
        for b in 0..view.block_count() {
            e.refine_block(c, view, b, &mut product);
        }
        product
    }

    #[test]
    fn fully_refined_product_is_bit_identical_to_scalar() {
        let e = eval();
        // Block sizes below, at and above the 16-wide refinement lane,
        // and lengths that leave ragged final blocks and lane tails.
        for n in [1usize, 15, 16, 17, 40, 100] {
            let pts = grid(n);
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            for block_size in [1usize, 7, 16, 32] {
                let (xs, ys, mbrs) = soa(&pts, block_size);
                let view = SoaBlocks::new(&xs, &ys, &mbrs, block_size);
                for cx in [-50.0, 0.0, 2.5, 6.0, 400.0] {
                    let c = Point::new(cx, 2.0);
                    // The scalar evaluator's running product, reproduced
                    // factor for factor (the loop inside `cumulative`).
                    let mut scalar_product = 1.0_f64;
                    for p in &points {
                        scalar_product *= 1.0 - e.position_probability(&c, p);
                    }
                    let product = refined_product(&e, &c, &view);
                    assert_eq!(
                        product.to_bits(),
                        scalar_product.to_bits(),
                        "n={n} block={block_size} cx={cx}: full refinement must \
                         reproduce the scalar product bit for bit"
                    );
                    // On the boundary τ the verdict hinges on the last ulp.
                    let tau = e.cumulative(&c, &points);
                    if tau > 0.0 {
                        assert_eq!(1.0 - product >= tau, e.influences(&c, &points, tau));
                    }
                }
            }
        }
    }

    #[test]
    fn object_mbr_is_the_union_of_block_mbrs() {
        let pts = grid(40);
        let (xs, ys, mbrs) = soa(&pts, 16);
        let view = SoaBlocks::new(&xs, &ys, &mbrs, 16);
        assert_eq!(view.len(), 40);
        assert_eq!(view.block_count(), 3);
        assert_eq!(view.block_range(2), 32..40);
        let all: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        assert_eq!(view.object_mbr(), Mbr::from_points(&all).as_ref());
        assert!(SoaBlocks::new(&[], &[], &[], 16).object_mbr().is_none());
    }

    #[test]
    #[should_panic(expected = "one MBR per block")]
    fn mismatched_mbr_count_rejected() {
        let (xs, ys, _) = soa(&grid(20), 16);
        let _ = SoaBlocks::new(&xs, &ys, &[], 16);
    }

    #[test]
    #[should_panic(expected = "coordinate rows")]
    fn mismatched_rows_rejected() {
        let (xs, _, mbrs) = soa(&grid(20), 16);
        let _ = SoaBlocks::new(&xs, &[0.0], &mbrs, 16);
    }
}
