//! Log-domain influence evaluation: `Σ ln(1 − PF(d))` against
//! `ln(1 − τ)`, with a branch-free table evaluation of the log-PF.
//!
//! The scalar kernel works in product space: a running
//! `∏ (1 − PF(dist))` compared against `1 − τ`. This module rewrites the
//! same test as a *sum*,
//!
//! ```text
//! Pr_c(O) ≥ τ  ⇔  ∏ (1 − PF(dᵢ)) ≤ 1 − τ  ⇔  Σ ln(1 − PF(dᵢ)) ≤ ln(1 − τ)
//! ```
//!
//! and evaluates the per-position term `g(s) = ln(1 − PF(√s))` over the
//! *squared* distance `s = dx² + dy²` through a precomputed coefficient
//! table ([`LogPfTable`]): exponent-indexed segments (a few mantissa
//! bits of `s` select a quadratic `c₀ + t·(c₁ + t·c₂)`, `t = s − mid`),
//! so the inner loop is subtract/multiply/add only — no `sqrt`, no
//! `powi`, no `ln`, no branch per position. Sums have no ordering
//! constraint (unlike the exact product-space scan, which must reproduce
//! the scalar multiply sequence bit for bit), so the refinement loop
//! runs 4-wide with independent accumulators.
//!
//! ## Exactness through the guard band
//!
//! The table is *approximate*; verdicts still always equal the scalar
//! kernel's. At build time the table measures its own worst-case
//! per-position error and stores `eps = `[`LogPfTable::eps`]; every
//! decision must then clear the threshold `L = ln(1 − τ)` by the pair's
//! guard band
//!
//! ```text
//! band(n) = n · (eps + SLOP_PER_POSITION) + slop_abs(τ)
//! ```
//!
//! which dominates the accumulated table error, the float summation
//! error, and the product-vs-log-sum discrepancy of the scalar
//! comparison (`slop_abs` includes `ulp(1)/(1 − τ)`, the log-space
//! image of the scalar `1 − product ≥ τ` subtraction rounding). A sum
//! at or below `L − band` certifies influence; at or above `L + band`
//! certifies non-influence; anything *inside* the band falls back to
//! the exact product-space scan (`fell_back_to_exact`), which is
//! bit-identical to the scalar evaluator. The same band guards the
//! block-level `minDist`/`maxDist` bounds, so bounding and refinement
//! share one accumulator and one threshold pair — the debug-mode
//! contract check and the cross-kernel property tests in
//! `pinocchio-core` enforce verdict equality end to end.
//!
//! This module is also the single home of the shared log-domain
//! helpers ([`ln_one_minus`], [`log_non_influence`]) that `radius` and
//! `alt` reuse, so the `ln(1 − x)` math lives in exactly one place.

use crate::block::SoaBlocks;
use crate::cumulative::CumulativeProbability;
use crate::pf::ProbabilityFunction;
use pinocchio_geo::{Euclidean, Point};

/// `ln(1 − x)` evaluated as `ln_1p(−x)` — the log-domain threshold and
/// per-position factor, accurate for `x` near 0 where the naive
/// `(1.0 − x).ln()` loses digits. Every `ln(1 − ·)` in this crate goes
/// through here.
#[inline]
pub fn ln_one_minus(x: f64) -> f64 {
    (-x).ln_1p()
}

/// The log-domain non-influence contribution of one position at
/// distance `d`: `ln(1 − PF(d))`. This is the exact quantity the
/// [`LogPfTable`] approximates (over squared distance).
#[inline]
pub fn log_non_influence<P: ProbabilityFunction + ?Sized>(pf: &P, d: f64) -> f64 {
    ln_one_minus(pf.prob(d))
}

/// Mantissa bits kept in the segment index: 2⁵ = 32 segments per octave
/// of squared distance. Quadratic-fit error scales cubically with the
/// relative segment width, so each extra bit buys ~8× accuracy; five
/// bits put the measured power-law bound near 2e-6 (pinned in tests)
/// while only the handful of segments around a workload's actual
/// distance range ever gets hot.
const SEG_MANTISSA_BITS: u32 = 5;
/// Right shift turning an `f64` bit pattern into a segment key.
const SEG_SHIFT: u32 = 52 - SEG_MANTISSA_BITS;
/// Smallest tabulated squared distance, `2^MIN_EXP`.
const MIN_EXP: i32 = -64;
/// Upper end of the tabulated squared-distance range, `2^MAX_EXP`.
const MAX_EXP: i32 = 64;
/// Segment key of `2^MIN_EXP` (IEEE 754 biased exponent shifted left by
/// the mantissa bits kept).
const SEG_BIAS: usize = ((1023 + MIN_EXP) as usize) << SEG_MANTISSA_BITS;
/// Total number of table segments.
const SEG_COUNT: usize = ((MAX_EXP - MIN_EXP) as usize) << SEG_MANTISSA_BITS;

/// Mantissa bits of the *bound* tables: 2³ = 8 segments per octave.
/// Unlike the quadratic fit, the bound tables are exact (monotonicity,
/// not approximation), so coarseness costs only tightness. The bound
/// tables exist for [`LogPfTable::tile_cutoffs`]: their segment
/// boundaries are exactly representable bit patterns, which is what
/// makes inverting a log-space threshold into a squared-distance
/// cutoff a `partition_point` over the table (the hot per-block bounds
/// use the quadratic fit `±eps` directly, which is tighter).
const BOUND_MANTISSA_BITS: u32 = 3;
/// Right shift turning an `f64` bit pattern into a bound-segment key.
const BOUND_SHIFT: u32 = 52 - BOUND_MANTISSA_BITS;
/// Bound-segment key of `2^MIN_EXP`.
const BOUND_BIAS: usize = ((1023 + MIN_EXP) as usize) << BOUND_MANTISSA_BITS;
/// Total number of bound-table segments.
const BOUND_COUNT: usize = ((MAX_EXP - MIN_EXP) as usize) << BOUND_MANTISSA_BITS;

/// Safety factor applied to the sampled fit error: the per-segment
/// error is measured on a finite sample, so the stored bound scales it
/// up to dominate the points between samples.
const FIT_SAFETY: f64 = 4.0;
/// Per-position slop covering float summation rounding on top of the
/// table error (generous: terms are `O(1)` and accumulate at
/// `O(n·ulp)`, far below this for any realistic trajectory length).
const SLOP_PER_POSITION: f64 = 1e-10;
/// Absolute floor of the per-pair guard band.
const SLOP_ABS: f64 = 1e-11;
/// Tables whose measured error bound exceeds this are unusable — the
/// band would force the exact fallback on essentially every pair, so
/// [`LogPfTable::try_new`] refuses to build them (callers fall back to
/// the scalar kernel). This triggers for probability functions
/// with `PF(0) = 1`, where `g(0) = −∞`.
const MAX_USABLE_EPS: f64 = 1e-3;

/// Per-pair guard band in log space (see the module docs): table error
/// plus summation slop per position, plus the log-space image of the
/// scalar comparison's product-space rounding.
#[inline]
fn guard_band(n: usize, eps: f64, tau: f64) -> f64 {
    n as f64 * (eps + SLOP_PER_POSITION) + SLOP_ABS + f64::EPSILON / (1.0 - tau)
}

/// Precomputed coefficient table for `g(s) = ln(1 − PF(√s))` over
/// squared distance `s`.
///
/// Segments are exponent-indexed: the top [`SEG_MANTISSA_BITS`]
/// mantissa bits of `s` (clamped into `[2^−64, 2^64]`) select a
/// quadratic fitted through the segment's endpoints and midpoint,
/// evaluated about the segment midpoint for conditioning. Lookup and
/// evaluation are branch-free (`clamp` + shift + one `min`), which is
/// what lets the refinement loop run unrolled with no per-position
/// control flow.
///
/// The table is built per probability function (it does not depend on
/// `τ`) and measures its own error: [`Self::eps`] bounds
/// `|eval(s) − g(s)|` for every `s ≥ 0`, including the clamped ends
/// (below `2^−64` the gap to `g(0)` is folded in; above `2^64` the
/// residual `|g|` of the tail is). Verdict soundness never depends on
/// the fit being good — only the guard band does.
#[derive(Debug, Clone)]
pub struct LogPfTable {
    /// Per-segment `[mid, c0, c1, c2]`: value `c0 + t·(c1 + t·c2)` at
    /// `t = s − mid`.
    coeffs: Vec<[f64; 4]>,
    /// Exact per-segment lower bounds on `g` (coarse segmentation, see
    /// [`BOUND_MANTISSA_BITS`]): `bound_lo[i] ≤ g(s)` for every `s ≥ 0`
    /// mapping to segment `i` after the clamp. Relies on `g` being
    /// monotone non-decreasing in squared distance — the same Theorem
    /// 1–2 monotonicity every MBR bound in the kernels already assumes.
    /// Consumed by the [`Self::tile_cutoffs`] inversion (and the
    /// [`Self::bound_below`] accessor it is tested through).
    bound_lo: Vec<f64>,
    /// Exact per-segment upper bounds on `g` (same contract, above).
    bound_hi: Vec<f64>,
    s_min: f64,
    s_max: f64,
    eps: f64,
}

impl LogPfTable {
    /// Builds the table for `pf`, or `None` when the measured error
    /// bound is unusable (non-finite or above [`MAX_USABLE_EPS`] — e.g.
    /// `PF(0) = 1`, whose log diverges at distance zero). Callers treat
    /// `None` as "use the scalar kernel instead".
    pub fn try_new<P: ProbabilityFunction + ?Sized>(pf: &P) -> Option<LogPfTable> {
        let s_min = (2.0f64).powi(MIN_EXP);
        let s_max = (2.0f64).powi(MAX_EXP);
        let g = |s: f64| ln_one_minus(pf.prob(s.sqrt()));

        let mut coeffs = Vec::with_capacity(SEG_COUNT);
        let mut fit_err = 0.0f64;
        for seg in 0..SEG_COUNT {
            let lo = f64::from_bits(((seg + SEG_BIAS) as u64) << SEG_SHIFT);
            let hi = f64::from_bits(((seg + 1 + SEG_BIAS) as u64) << SEG_SHIFT);
            let mid = 0.5 * (lo + hi);
            let h = 0.5 * (hi - lo);
            let (ga, gm, gb) = (g(lo), g(mid), g(hi));
            // Quadratic through (lo, mid, hi) in t = s − mid: the
            // symmetric nodes t = ±h give closed-form coefficients.
            let c1 = (gb - ga) / (2.0 * h);
            let c2 = (ga + gb - 2.0 * gm) / (2.0 * h * h);
            coeffs.push([mid, gm, c1, c2]);
            // Sampled fit error over the segment (endpoints included).
            for k in 0..=16 {
                let s = lo + (hi - lo) * (k as f64 / 16.0);
                let t = s - mid;
                let err = (gm + t * (c1 + t * c2) - g(s)).abs();
                if err > fit_err {
                    fit_err = err;
                }
            }
        }
        // Clamped ends: below s_min the table returns ~g(s_min) while
        // the true value sits in [g(0), g(s_min)]; above s_max it
        // returns ~g(s_max) while the true value sits in (g(s_max), 0).
        let low_gap = g(s_min) - g(0.0);
        let tail_gap = -g(s_max);
        let eps = FIT_SAFETY * fit_err + low_gap + tail_gap + 1e-15;
        if !eps.is_finite() || eps > MAX_USABLE_EPS {
            return None;
        }

        // Exact bound tables: `g` is monotone non-decreasing in squared
        // distance (PF decreases with distance — the monotonicity every
        // MBR-based bound already rests on), so over a segment
        // `[lo, hi)` the infimum is `g(lo)` and the supremum is at most
        // `g(hi)`. Two patches make the clamp sound end to end: any
        // `s < s_min` also lands in segment 0, whose lower bound must
        // therefore fall to `g(0)`; any `s > s_max` lands in the last
        // segment, whose upper bound must rise to the global supremum 0.
        let mut bound_lo = Vec::with_capacity(BOUND_COUNT);
        let mut bound_hi = Vec::with_capacity(BOUND_COUNT);
        for seg in 0..BOUND_COUNT {
            let lo = f64::from_bits(((seg + BOUND_BIAS) as u64) << BOUND_SHIFT);
            let hi = f64::from_bits(((seg + 1 + BOUND_BIAS) as u64) << BOUND_SHIFT);
            bound_lo.push(g(lo));
            bound_hi.push(g(hi).min(0.0));
        }
        bound_lo[0] = g(0.0);
        bound_hi[BOUND_COUNT - 1] = 0.0; // pinocchio-lint: allow(panic-path) -- BOUND_COUNT is a positive const and both vecs were just filled to exactly that length

        Some(LogPfTable {
            coeffs,
            bound_lo,
            bound_hi,
            s_min,
            s_max,
            eps,
        })
    }

    /// Upper bound on `|eval(s) − ln(1 − PF(√s))|` over all `s ≥ 0`,
    /// measured at build time. This is the per-position term of the
    /// guard band.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// `≈ ln(1 − PF(√s))` for squared distance `s ≥ 0`, within
    /// [`Self::eps`]. Branch-free: clamp, exponent-indexed segment
    /// lookup, one quadratic.
    // pinocchio-hot: per-position table lookup of the log-domain kernel
    #[inline]
    pub fn eval(&self, s: f64) -> f64 {
        let s = s.clamp(self.s_min, self.s_max);
        #[allow(clippy::cast_possible_truncation)]
        let key = (s.to_bits() >> SEG_SHIFT) as usize; // pinocchio-lint: allow(cast-truncation) -- 15-bit segment key after the shift, far below usize::MAX on any supported target
        let idx = (key - SEG_BIAS).min(self.coeffs.len() - 1);
        let c = &self.coeffs[idx];
        let t = s - c[0];
        c[1] + t * (c[2] + t * c[3])
    }

    /// Exact upper bound on `g(s) = ln(1 − PF(√s))` for any `s ≥ 0`:
    /// one 8-byte load, no quadratic. Bound decisions made with this
    /// need no guard band — the bound is sound against the true `g`,
    /// not the fitted one. The kernels' per-block bounds use the
    /// tighter `eval ± eps` instead; this accessor is the scalar form
    /// of the monotone contract behind [`Self::tile_cutoffs`].
    #[inline]
    pub fn bound_above(&self, s: f64) -> f64 {
        let s = s.clamp(self.s_min, self.s_max);
        #[allow(clippy::cast_possible_truncation)]
        let key = (s.to_bits() >> BOUND_SHIFT) as usize; // pinocchio-lint: allow(cast-truncation) -- 13-bit segment key after the shift, far below usize::MAX on any supported target
        let idx = (key - BOUND_BIAS).min(self.bound_hi.len() - 1);
        self.bound_hi[idx]
    }

    /// Exact lower bound on `g(s)` for any `s ≥ 0` (see
    /// [`Self::bound_above`]).
    #[inline]
    pub fn bound_below(&self, s: f64) -> f64 {
        let s = s.clamp(self.s_min, self.s_max);
        #[allow(clippy::cast_possible_truncation)]
        let key = (s.to_bits() >> BOUND_SHIFT) as usize; // pinocchio-lint: allow(cast-truncation) -- 13-bit segment key after the shift, far below usize::MAX on any supported target
        let idx = (key - BOUND_BIAS).min(self.bound_lo.len() - 1);
        self.bound_lo[idx]
    }

    /// Inverts the bound tables for one `(n, τ)` pair into two
    /// squared-distance cutoffs, so the per-candidate object-level
    /// pre-check becomes two float compares with no table loads:
    ///
    /// * `maxDist² < influenced_below` ⇔ `n · bound_above(maxDist²) ≤
    ///   L − band` — certainly influenced;
    /// * `minDist² ≥ not_influenced_at` ⇔ `n · bound_below(minDist²) ≥
    ///   L + band` — certainly not influenced.
    ///
    /// Both equivalences are exact (the bound arrays are monotone
    /// non-decreasing, so each predicate holds on a prefix/suffix of
    /// segments whose boundary is a representable squared distance), so
    /// decisions through the cutoffs are identical to decisions through
    /// the bound tables. Costs two binary searches — callers memoise per
    /// object.
    pub fn tile_cutoffs(&self, n: usize, tau: f64) -> TileCutoffs {
        let l = ln_one_minus(tau);
        let band = guard_band(n, self.eps, tau);
        let nf = n as f64;
        // First segment whose upper bound no longer certifies influence;
        // its lower boundary is the exclusive cutoff.
        let first_fail = self.bound_hi.partition_point(|&g| nf * g <= l - band);
        let influenced_below = match first_fail {
            0 => 0.0,
            i if i == self.bound_hi.len() => f64::INFINITY,
            i => f64::from_bits(((i + BOUND_BIAS) as u64) << BOUND_SHIFT),
        };
        // First segment whose lower bound certifies non-influence; its
        // lower boundary is the inclusive cutoff.
        let first_pass = self.bound_lo.partition_point(|&g| nf * g < l + band);
        let not_influenced_at = match first_pass {
            0 => 0.0,
            i if i == self.bound_lo.len() => f64::INFINITY,
            i => f64::from_bits(((i + BOUND_BIAS) as u64) << BOUND_SHIFT),
        };
        TileCutoffs {
            influenced_below,
            not_influenced_at,
            thr_inf: l - band,
            thr_not: l + band,
        }
    }
}

/// Per-object squared-distance cutoffs precomputed by
/// [`LogPfTable::tile_cutoffs`] — the register-resident form of the
/// object-level pre-check used by the tile kernel, plus the pair's
/// banded log thresholds so undecided candidates enter the bounding
/// passes without recomputing `ln(1 − τ)` or the guard band per pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileCutoffs {
    /// `maxDist²` strictly below this certifies influence.
    pub influenced_below: f64,
    /// `minDist²` at or above this certifies non-influence.
    pub not_influenced_at: f64,
    /// `ln(1 − τ) − band`: table sums at or below this certify
    /// influence.
    pub thr_inf: f64,
    /// `ln(1 − τ) + band`: table lower bounds at or above this certify
    /// non-influence.
    pub thr_not: f64,
}

/// Reusable scratch for
/// [`CumulativeProbability::influences_log_blocked`]: per-block
/// upper-bound sums saved by the bounding pass (consumed as a running
/// remainder in refinement) and lower-bound suffix sums for straddling
/// pairs.
#[derive(Debug, Clone, Default)]
pub struct LogScratch {
    hi: Vec<f64>,
    lo: Vec<f64>,
}

/// Outcome of a log-domain blocked influence evaluation.
///
/// Position accounting is total: `positions_evaluated +
/// positions_skipped` always equals the number of positions in the
/// view, including on the exact-fallback path (which scans everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogBlockedOutcome {
    /// Whether the candidate influences the object (`Pr_c(O) ≥ τ`) —
    /// always identical to the scalar verdict.
    pub influenced: bool,
    /// Positions whose log contribution was evaluated (table refinement
    /// or exact fallback).
    pub positions_evaluated: usize,
    /// Positions decided purely through their block's bounds.
    pub positions_skipped: usize,
    /// Blocks never refined (bounded only).
    pub blocks_pruned: usize,
    /// Whether the pair landed inside the guard band and was resolved
    /// by the exact product-space scan instead of the table sum.
    pub fell_back_to_exact: bool,
}

/// Aggregated outcome of
/// [`CumulativeProbability::influences_log_blocked_tile`]: per-pair
/// verdicts as a bitmask, counters summed over the tile. Accounting
/// stays total — `positions_evaluated + positions_skipped` equals the
/// tile width times the view's position count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogTileOutcome {
    /// Bit `j` set ⇔ `candidates[j]` influences the object.
    pub influenced_mask: u32,
    /// Tile total of positions refined exactly.
    pub positions_evaluated: usize,
    /// Tile total of positions decided through bounds.
    pub positions_skipped: usize,
    /// Tile total of blocks never refined.
    pub blocks_pruned: usize,
    /// How many of the tile's pairs fell back to the exact scan.
    pub band_fallbacks: u32,
}

impl<P: ProbabilityFunction> CumulativeProbability<P, Euclidean> {
    /// Table-sum of one block's positions: 4-wide unrolled over the
    /// coordinate rows, independent accumulators (sums are
    /// order-insensitive under the guard band, unlike the product-space
    /// refinement which must preserve the scalar multiply order).
    // pinocchio-hot: inner distance/table lane of every log-domain refinement
    #[inline]
    fn refine_block_log(
        &self,
        table: &LogPfTable,
        c: &Point,
        blocks: &SoaBlocks<'_>,
        b: usize,
    ) -> f64 {
        const LANES: usize = 8;
        let range = blocks.block_range(b);
        let xs = &blocks.xs()[range.clone()];
        let ys = &blocks.ys()[range];
        let mut acc = [0.0f64; LANES];
        let mut cx = xs.chunks_exact(LANES);
        let mut cy = ys.chunks_exact(LANES);
        for (rx, ry) in (&mut cx).zip(&mut cy) {
            for lane in 0..LANES {
                let dx = rx[lane] - c.x;
                let dy = ry[lane] - c.y;
                acc[lane] += table.eval(dx * dx + dy * dy);
            }
        }
        let mut tail = 0.0f64;
        for (&x, &y) in cx.remainder().iter().zip(cy.remainder()) {
            let dx = x - c.x;
            let dy = y - c.y;
            tail += table.eval(dx * dx + dy * dy);
        }
        let a = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        let b = (acc[4] + acc[5]) + (acc[6] + acc[7]);
        (a + b) + tail
    }

    /// Exact product-space scan over every block, reproducing the
    /// scalar evaluator's multiply sequence bit for bit; resolves pairs
    /// the guard band could not decide.
    fn exact_fallback(&self, c: &Point, blocks: &SoaBlocks<'_>, tau: f64) -> bool {
        let mut product = 1.0f64;
        for b in 0..blocks.block_count() {
            self.refine_block(c, blocks, b, &mut product);
        }
        1.0 - product >= tau
    }

    /// Influence test over a blocked structure-of-arrays view, in log
    /// space.
    ///
    /// The verdict is always identical to [`Self::influences`] on the
    /// same positions: table decisions must clear the threshold by the
    /// pair's guard band, and in-band pairs are resolved by the exact
    /// scalar scan. See the module docs for the band derivation and
    /// DESIGN.md §15 for the full soundness argument.
    // pinocchio-hot: per-(candidate, object) kernel of the log-blocked solver path
    pub fn influences_log_blocked(
        &self,
        candidate: &Point,
        blocks: &SoaBlocks<'_>,
        tau: f64,
        table: &LogPfTable,
        scratch: &mut LogScratch,
    ) -> LogBlockedOutcome {
        let n = blocks.len();
        let nblocks = blocks.block_count();
        // Influenced ⇔ Σ g ≤ L. Decisions clear L by the band; the
        // band grows with n, so long trajectories near the threshold
        // degrade gracefully into the exact fallback, never into a
        // wrong verdict.
        let l = ln_one_minus(tau);
        let band = guard_band(n, table.eps, tau);
        let thr_inf = l - band;
        let thr_not = l + band;

        // ---- O(1) object-level pre-check -----------------------------
        // (The tile kernel runs the equivalent cutoff form of this check
        // itself and enters `log_blocked_bounded` directly.)
        // Theorems 1–2 applied to the whole trajectory: every position
        // sits inside MBR(O), so `n·g̃(maxDist²(c, MBR))` bounds the log
        // sum from above and `n·g̃(minDist²(c, MBR))` from below. Two
        // table evaluations decide the clearly-near and clearly-far
        // pairs — the bulk of every workload — before any block walk.
        if let Some(om) = blocks.object_mbr() {
            let (s_min, s_max) = om.min_max_dist_sq(candidate);
            let decided = {
                let hi = (n as f64) * (table.eval(s_max) + table.eps);
                if hi <= thr_inf {
                    Some(true)
                } else {
                    let lo = (n as f64) * (table.eval(s_min) - table.eps);
                    (lo >= thr_not).then_some(false)
                }
            };
            if let Some(influenced) = decided {
                return self.log_checked(
                    candidate,
                    blocks,
                    tau,
                    LogBlockedOutcome {
                        influenced,
                        positions_evaluated: 0,
                        positions_skipped: n,
                        blocks_pruned: nblocks,
                        fell_back_to_exact: false,
                    },
                );
            }
        }

        self.log_blocked_bounded(candidate, blocks, tau, table, thr_inf, thr_not, scratch)
    }

    /// The bounding-and-refinement body of
    /// [`Self::influences_log_blocked`], entered once the O(1)
    /// object-level pre-check has failed to decide. `thr_inf` /
    /// `thr_not` must be the pair's banded thresholds
    /// (`ln(1 − τ) ∓ band`) for this view's position count — the public
    /// wrapper computes them per call, the tile kernel reuses the
    /// memoised copies in [`TileCutoffs`].
    // pinocchio-hot: the bounding/refinement body behind both log-blocked entry points
    #[allow(clippy::too_many_arguments)]
    fn log_blocked_bounded(
        &self,
        candidate: &Point,
        blocks: &SoaBlocks<'_>,
        tau: f64,
        table: &LogPfTable,
        thr_inf: f64,
        thr_not: f64,
        scratch: &mut LogScratch,
    ) -> LogBlockedOutcome {
        let n = blocks.len();
        let nblocks = blocks.block_count();

        // ---- single-block fast path ----------------------------------
        // With one block the block MBR *is* the object MBR, so the per-
        // block bounds repeat (wrapper entry) or barely sharpen (tile
        // entry — measured: <2% of tile straddlers decidable this way)
        // the pre-check that already failed to decide. Skip the bounding
        // passes and their scratch traffic entirely: refine the block,
        // settle against the banded thresholds, exact fallback in
        // between. Short single-block trajectories dominate straddlers
        // on the check-in workloads, so this path is hot.
        if nblocks == 1 {
            let sum = self.refine_block_log(table, candidate, blocks, 0);
            let outcome = if sum <= thr_inf || sum >= thr_not {
                LogBlockedOutcome {
                    influenced: sum <= thr_inf,
                    positions_evaluated: n,
                    positions_skipped: 0,
                    blocks_pruned: 0,
                    fell_back_to_exact: false,
                }
            } else {
                LogBlockedOutcome {
                    influenced: self.exact_fallback(candidate, blocks, tau),
                    positions_evaluated: n,
                    positions_skipped: 0,
                    blocks_pruned: 0,
                    fell_back_to_exact: true,
                }
            };
            return self.log_checked(candidate, blocks, tau, outcome);
        }

        // ---- bounding pass, upper side -------------------------------
        // Per block, `len · g̃(maxDist²)` bounds the block's true log
        // sum from above (PF monotone ⇒ g(dist²) ≤ g(maxDist²) for
        // every member). True contributions are ≤ 0, so a partial sum
        // clearing `thr_inf` already certifies influence regardless of
        // the unseen blocks — the block-level Lemma 4 exit. Upper side runs first: the
        // influenced-side exits (here and in refinement) carry a large
        // share of multi-block straddlers at validation thresholds, so
        // the hi bounds must be in hand before any lower-side work. The
        // same fused-MBR walk tracks the object-wide nearest squared
        // distance and stashes the per-block values in `scratch.lo`, so
        // the lower pass — when a straddler does need it — is a pure
        // table-lookup sweep with no second MBR walk.
        scratch.hi.clear();
        scratch.lo.clear();
        let mut hi_all = 0.0f64;
        let mut s_near = f64::INFINITY;
        let mut near_b = 0usize;
        for (b, mbr) in blocks.mbrs().iter().enumerate() {
            let len = blocks.block_range(b).len() as f64;
            let (s_min, s_max) = mbr.min_max_dist_sq(candidate);
            let s_hi = len * (table.eval(s_max) + table.eps);
            if s_min < s_near {
                s_near = s_min;
                near_b = b;
            }
            scratch.hi.push(s_hi);
            scratch.lo.push(s_min);
            hi_all += s_hi;
            if hi_all <= thr_inf {
                return self.log_checked(
                    candidate,
                    blocks,
                    tau,
                    LogBlockedOutcome {
                        influenced: true,
                        positions_evaluated: 0,
                        positions_skipped: n,
                        blocks_pruned: nblocks,
                        fell_back_to_exact: false,
                    },
                );
            }
        }

        // ---- lower side, object level --------------------------------
        // `g` is monotone increasing in squared distance and every
        // position sits at `dᵢ² ≥ s_near`, so `Σ g ≥ n·g(s_near)`: one
        // table eval decides the far (never-influenced) pairs without
        // a second pass over the block MBRs.
        if n > 0 && (n as f64) * (table.eval(s_near) - table.eps) >= thr_not {
            return self.log_checked(
                candidate,
                blocks,
                tau,
                LogBlockedOutcome {
                    influenced: false,
                    positions_evaluated: 0,
                    positions_skipped: n,
                    blocks_pruned: nblocks,
                    fell_back_to_exact: false,
                },
            );
        }

        // ---- bounding pass, lower side -------------------------------
        // Per-block nearest-distance bounds, rewriting the stashed raw
        // `minDist²` values in place — table lookups only, the block
        // MBRs are never walked twice. The tight per-block bounds also
        // repay themselves in refinement: the per-block remainder fires
        // the not-influenced exit after a block or two where the coarse
        // `remaining·g(s_near)` bound would force the whole trajectory
        // through the table.
        let mut lo_all = 0.0f64;
        for (b, s) in scratch.lo.iter_mut().enumerate() {
            let len = blocks.block_range(b).len() as f64;
            let s_lo = len * (table.eval(*s) - table.eps);
            *s = s_lo;
            lo_all += s_lo;
        }
        if lo_all >= thr_not {
            return self.log_checked(
                candidate,
                blocks,
                tau,
                LogBlockedOutcome {
                    influenced: false,
                    positions_evaluated: 0,
                    positions_skipped: n,
                    blocks_pruned: nblocks,
                    fell_back_to_exact: false,
                },
            );
        }

        // ---- refinement pass -----------------------------------------
        // The bounds straddle the band: replace block bounds with table
        // sums until exact-so-far plus still-bounded-remainder decides.
        // Both remainders are maintained by subtracting each refined
        // block's saved bound from its pass total (the subtraction
        // chains' rounding error is orders of magnitude below the band's
        // per-position slop). Refinement starts at the *nearest* block —
        // it carries the loosest lower bound, so replacing it first
        // fires the not-influenced exit (the common verdict once the
        // upper side failed) after one block where storage order could
        // walk the whole trajectory — then proceeds in storage order
        // over the rest.
        let mut hi_rem = hi_all;
        let mut lo_rem = lo_all;
        let mut sum = 0.0f64;
        let mut evaluated = 0usize;
        for t in 0..nblocks {
            let b = if t == 0 {
                near_b
            } else if t - 1 < near_b {
                t - 1
            } else {
                t
            };
            if sum + hi_rem <= thr_inf {
                return self.log_checked(
                    candidate,
                    blocks,
                    tau,
                    LogBlockedOutcome {
                        influenced: true,
                        positions_evaluated: evaluated,
                        positions_skipped: n - evaluated,
                        blocks_pruned: nblocks - t,
                        fell_back_to_exact: false,
                    },
                );
            }
            if sum + lo_rem >= thr_not {
                return self.log_checked(
                    candidate,
                    blocks,
                    tau,
                    LogBlockedOutcome {
                        influenced: false,
                        positions_evaluated: evaluated,
                        positions_skipped: n - evaluated,
                        blocks_pruned: nblocks - t,
                        fell_back_to_exact: false,
                    },
                );
            }
            sum += self.refine_block_log(table, candidate, blocks, b);
            hi_rem -= scratch.hi[b];
            lo_rem -= scratch.lo[b];
            evaluated += blocks.block_range(b).len();
            // Mid-refinement influenced exit: remaining true
            // contributions are ≤ 0, so the running table sum clearing
            // the band already decides.
            if sum <= thr_inf {
                return self.log_checked(
                    candidate,
                    blocks,
                    tau,
                    LogBlockedOutcome {
                        influenced: true,
                        positions_evaluated: evaluated,
                        positions_skipped: n - evaluated,
                        blocks_pruned: nblocks - t - 1,
                        fell_back_to_exact: false,
                    },
                );
            }
        }

        // Every block refined: decide outside the band, or resolve the
        // in-band remainder exactly.
        if sum >= thr_not {
            return self.log_checked(
                candidate,
                blocks,
                tau,
                LogBlockedOutcome {
                    influenced: false,
                    positions_evaluated: evaluated,
                    positions_skipped: n - evaluated,
                    blocks_pruned: 0,
                    fell_back_to_exact: false,
                },
            );
        }
        self.log_checked(
            candidate,
            blocks,
            tau,
            LogBlockedOutcome {
                influenced: self.exact_fallback(candidate, blocks, tau),
                positions_evaluated: n,
                positions_skipped: 0,
                blocks_pruned: 0,
                fell_back_to_exact: true,
            },
        )
    }

    /// Influence tests for a whole candidate tile against one object,
    /// in a single call.
    ///
    /// Verdict bit `j` of the returned mask corresponds to
    /// `candidates[j]` and is always identical to
    /// [`Self::influences_log_blocked`] on that pair; the counters are
    /// the tile-aggregated outcome fields. The point of the batch is the
    /// O(1) object-level pre-check: the object MBR and the
    /// register-resident [`TileCutoffs`] (two precomputed squared-distance
    /// thresholds) stay live while the tile sweeps over them, so the
    /// clearly-near and clearly-far candidates — the bulk of a validation
    /// workload — cost two distance computations and two compares each,
    /// with no table loads and no per-pair re-setup. `cutoffs` must come
    /// from [`LogPfTable::tile_cutoffs`] for this view's position count
    /// and this `tau` (debug-asserted). Undecided candidates fall through
    /// to the full per-pair kernel.
    // pinocchio-hot: the tile dispatch of the log-blocked validation path
    pub fn influences_log_blocked_tile(
        &self,
        candidates: &[Point],
        blocks: &SoaBlocks<'_>,
        tau: f64,
        table: &LogPfTable,
        cutoffs: TileCutoffs,
        scratch: &mut LogScratch,
    ) -> LogTileOutcome {
        debug_assert!(candidates.len() <= 32, "tile exceeds the mask width");
        if candidates.is_empty() {
            return LogTileOutcome::default();
        }
        debug_assert_eq!(
            cutoffs,
            table.tile_cutoffs(blocks.len(), tau),
            "cutoffs must match this view and tau"
        );
        let n = blocks.len();
        let nblocks = blocks.block_count();

        let mut out = LogTileOutcome::default();
        #[allow(clippy::cast_possible_truncation)]
        let full = u32::MAX >> (32 - candidates.len() as u32); // pinocchio-lint: allow(cast-truncation) -- tile width is capped at 32 (debug-asserted above), far below u32::MAX
        let mut undecided = full;
        match blocks.object_mbr() {
            Some(om) if n > 0 => {
                // Branch-free sweep: both cutoff compares for every
                // candidate, folded into verdict masks (the two sides are
                // mutually exclusive — a pair cannot certify both — so
                // the influenced side takes priority bit-for-bit with the
                // sequential check). Accounting is popcount × n.
                let mut influenced = 0u32;
                let mut not_influenced = 0u32;
                for (j, c) in candidates.iter().enumerate() {
                    let (s_min, s_max) = om.min_max_dist_sq(c);
                    let inf = s_max < cutoffs.influenced_below;
                    let far = s_min >= cutoffs.not_influenced_at;
                    influenced |= u32::from(inf) << j;
                    not_influenced |= u32::from(!inf & far) << j;
                }
                let decided = influenced | not_influenced;
                out.influenced_mask |= influenced;
                out.positions_skipped += decided.count_ones() as usize * n;
                out.blocks_pruned += decided.count_ones() as usize * nblocks;
                undecided = full & !decided;
                #[cfg(debug_assertions)]
                {
                    let mut m = decided;
                    while m != 0 {
                        let j = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let _ = self.log_checked(
                            &candidates[j],
                            blocks,
                            tau,
                            LogBlockedOutcome {
                                influenced: influenced >> j & 1 == 1,
                                positions_evaluated: 0,
                                positions_skipped: n,
                                blocks_pruned: nblocks,
                                fell_back_to_exact: false,
                            },
                        );
                    }
                }
            }
            _ => {}
        }

        let mut m = undecided;
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            m &= m - 1;
            // The cutoff compares above are exactly the wrapper's object
            // pre-check, so survivors enter the bounding passes directly
            // with the memoised thresholds — no `ln_1p`, no band
            // recompute, no repeated MBR check per undecided pair.
            let o = self.log_blocked_bounded(
                &candidates[j],
                blocks,
                tau,
                table,
                cutoffs.thr_inf,
                cutoffs.thr_not,
                scratch,
            );
            out.influenced_mask |= u32::from(o.influenced) << j;
            out.positions_evaluated += o.positions_evaluated;
            out.positions_skipped += o.positions_skipped;
            out.blocks_pruned += o.blocks_pruned;
            out.band_fallbacks += u32::from(o.fell_back_to_exact);
        }
        out
    }

    /// Debug-mode contract check: the verdict must match the exhaustive
    /// scalar verdict, and the position accounting must be total.
    /// Release builds return the outcome untouched.
    #[inline]
    fn log_checked(
        &self,
        candidate: &Point,
        blocks: &SoaBlocks<'_>,
        tau: f64,
        outcome: LogBlockedOutcome,
    ) -> LogBlockedOutcome {
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                outcome.positions_evaluated + outcome.positions_skipped,
                blocks.len(),
                "position accounting must be total"
            );
            debug_assert_eq!(
                outcome.influenced,
                self.exact_fallback(candidate, blocks, tau),
                "log-blocked verdict diverges from the scalar verdict (tau = {tau})"
            );
        }
        let _ = (candidate, blocks, tau);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alt::{ConcavePf, ConvexPf, LinearPf, LogsigPf};
    use crate::pf::PowerLawPf;
    use pinocchio_geo::Mbr;

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

    #[test]
    fn ln_one_minus_matches_ln1p() {
        for x in [0.0, 1e-12, 0.3, 0.7, 0.999999] {
            assert_eq!(ln_one_minus(x).to_bits(), (-x).ln_1p().to_bits());
        }
        assert_eq!(ln_one_minus(1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn log_non_influence_matches_definition() {
        let pf = PowerLawPf::paper_default();
        for d in [0.0, 0.5, 3.0, 100.0] {
            let expect = (1.0 - pf.prob(d)).ln();
            assert!((log_non_influence(&pf, d) - expect).abs() < 1e-12, "d={d}");
        }
    }

    /// Satellite pin: the paper-default power-law table must stay
    /// tight. The bound is deliberately loose against the measured
    /// value (~2e-6 at 32 segments/octave) so rebuild jitter cannot
    /// flake, but tight enough that a structural regression (coarser
    /// segments, broken fit) fails loudly.
    #[test]
    fn power_law_table_error_is_pinned() {
        let table = LogPfTable::try_new(&PowerLawPf::paper_default()).unwrap();
        assert!(
            table.eps() < 1e-5,
            "table error bound regressed: {}",
            table.eps()
        );
        // The stored eps must actually dominate the observed error on
        // an adversarial sweep (including the clamped ends and s = 0).
        let pf = PowerLawPf::paper_default();
        let g = |s: f64| ln_one_minus(pf.prob(s.sqrt()));
        let mut worst = 0.0f64;
        let mut s = 0.0f64;
        let mut k = 0u64;
        while s < 1e21 {
            let err = (table.eval(s) - g(s)).abs();
            if err > worst {
                worst = err;
            }
            k += 1;
            s = 1e-21 * (1.0 + k as f64 * 0.37) * (1.7f64).powi((k % 160) as i32);
        }
        assert!(
            worst <= table.eps(),
            "observed error {worst} exceeds the stored bound {}",
            table.eps()
        );
    }

    #[test]
    fn table_refuses_divergent_pf() {
        /// PF(0) = 1 makes g(0) = −∞; the table must refuse to build.
        #[derive(Debug)]
        struct Saturated;
        impl ProbabilityFunction for Saturated {
            fn prob(&self, d: f64) -> f64 {
                (1.0 - d).clamp(0.0, 1.0)
            }
            fn inverse(&self, p: f64) -> Option<f64> {
                (0.0..=1.0).contains(&p).then_some(1.0 - p)
            }
            fn name(&self) -> &'static str {
                "saturated"
            }
        }
        assert!(LogPfTable::try_new(&Saturated).is_none());
    }

    #[test]
    fn verdict_matches_scalar_everywhere() {
        let e = eval();
        let table = LogPfTable::try_new(e.pf()).unwrap();
        let mut scratch = LogScratch::default();
        for n in [1usize, 3, 16, 17, 50, 100] {
            let pts = grid(n);
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let (xs, ys, mbrs) = soa(&pts, 16);
            let view = SoaBlocks::new(&xs, &ys, &mbrs, 16);
            for tau in [0.1, 0.3, 0.5, 0.7, 0.9] {
                for cx in [-50.0, -3.0, 0.0, 2.5, 40.0, 400.0] {
                    let c = Point::new(cx, 1.0);
                    let scalar = e.influences(&c, &points, tau);
                    let out = e.influences_log_blocked(&c, &view, tau, &table, &mut scratch);
                    assert_eq!(out.influenced, scalar, "n={n} tau={tau} cx={cx}");
                    assert_eq!(
                        out.positions_evaluated + out.positions_skipped,
                        n,
                        "position accounting must be total"
                    );
                }
            }
        }
    }

    #[test]
    fn verdict_matches_scalar_for_alternative_pfs() {
        let pts = grid(48);
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let (xs, ys, mbrs) = soa(&pts, 16);
        let view = SoaBlocks::new(&xs, &ys, &mbrs, 16);
        let mut scratch = LogScratch::default();

        fn check<P: ProbabilityFunction>(
            pf: P,
            points: &[Point],
            view: &SoaBlocks<'_>,
            scratch: &mut LogScratch,
        ) {
            let e = CumulativeProbability::new(pf, Euclidean);
            let table = LogPfTable::try_new(e.pf()).expect("table must build");
            for tau in [0.2, 0.5, 0.8] {
                for cx in [-10.0, 0.5, 3.0, 8.0, 60.0] {
                    let c = Point::new(cx, 0.7);
                    assert_eq!(
                        e.influences_log_blocked(&c, view, tau, &table, scratch)
                            .influenced,
                        e.influences(&c, points, tau),
                        "pf={} tau={tau} cx={cx}",
                        e.pf().name()
                    );
                }
            }
        }
        check(PowerLawPf::with_lambda(0.75), &points, &view, &mut scratch);
        check(PowerLawPf::with_lambda(1.25), &points, &view, &mut scratch);
        check(LogsigPf::new(0.9, 6.0), &points, &view, &mut scratch);
        check(ConvexPf::new(0.9, 6.0), &points, &view, &mut scratch);
        check(ConcavePf::new(0.9, 6.0), &points, &view, &mut scratch);
        check(LinearPf::new(0.9, 6.0), &points, &view, &mut scratch);
    }

    /// Satellite pin: a τ sitting exactly on the pair's cumulative
    /// probability lands inside the guard band, so the kernel must
    /// resolve it through the exact fallback (and still agree with the
    /// scalar verdict).
    #[test]
    fn guard_band_falls_back_on_boundary_tau() {
        let e = eval();
        let table = LogPfTable::try_new(e.pf()).unwrap();
        let mut scratch = LogScratch::default();
        let pts = grid(40);
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let (xs, ys, mbrs) = soa(&pts, 16);
        let view = SoaBlocks::new(&xs, &ys, &mbrs, 16);
        let c = Point::new(6.0, 2.0);
        let tau = e.cumulative(&c, &points); // exactly on the boundary
        let out = e.influences_log_blocked(&c, &view, tau, &table, &mut scratch);
        assert!(out.fell_back_to_exact, "boundary tau must fall back");
        assert_eq!(out.positions_evaluated, 40);
        assert_eq!(out.positions_skipped, 0);
        assert_eq!(out.influenced, e.influences(&c, &points, tau));
    }

    #[test]
    fn far_candidate_prunes_every_block() {
        let e = eval();
        let table = LogPfTable::try_new(e.pf()).unwrap();
        let pts = grid(64);
        let (xs, ys, mbrs) = soa(&pts, 16);
        let view = SoaBlocks::new(&xs, &ys, &mbrs, 16);
        let out = e.influences_log_blocked(
            &Point::new(1000.0, 1000.0),
            &view,
            0.7,
            &table,
            &mut LogScratch::default(),
        );
        assert!(!out.influenced);
        assert!(!out.fell_back_to_exact);
        assert_eq!(out.positions_evaluated, 0);
        assert_eq!(out.positions_skipped, 64);
        assert_eq!(out.blocks_pruned, 4);
    }

    #[test]
    fn near_candidate_decides_from_bounds_alone() {
        let e = eval();
        let table = LogPfTable::try_new(e.pf()).unwrap();
        let pts = grid(160);
        let (xs, ys, mbrs) = soa(&pts, 16);
        let view = SoaBlocks::new(&xs, &ys, &mbrs, 16);
        let out = e.influences_log_blocked(
            &Point::new(0.8, 0.3),
            &view,
            0.3,
            &table,
            &mut LogScratch::default(),
        );
        assert!(out.influenced);
        assert_eq!(out.positions_evaluated, 0, "bounds alone should decide");
        assert_eq!(out.positions_skipped, 160);
    }

    #[test]
    fn agrees_with_the_scalar_kernel() {
        let e = eval();
        let table = LogPfTable::try_new(e.pf()).unwrap();
        let mut log_scratch = LogScratch::default();
        let pts = grid(80);
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let (xs, ys, mbrs) = soa(&pts, 16);
        let view = SoaBlocks::new(&xs, &ys, &mbrs, 16);
        for tau in [0.2, 0.5, 0.8, 0.95] {
            for cx in [-20.0, 0.5, 3.0, 9.0, 200.0] {
                let c = Point::new(cx, 0.4);
                let log = e.influences_log_blocked(&c, &view, tau, &table, &mut log_scratch);
                assert_eq!(
                    log.influenced,
                    e.influences(&c, &points, tau),
                    "tau={tau} cx={cx}"
                );
            }
        }
    }

    #[test]
    fn empty_view_is_never_influenced() {
        let e = eval();
        let table = LogPfTable::try_new(e.pf()).unwrap();
        let view = SoaBlocks::new(&[], &[], &[], 16);
        let out = e.influences_log_blocked(
            &Point::ORIGIN,
            &view,
            0.5,
            &table,
            &mut LogScratch::default(),
        );
        assert!(!out.influenced);
        assert_eq!(out.positions_evaluated + out.positions_skipped, 0);
    }
}
