//! Distance-based influence probability models for PRIME-LS.
//!
//! The paper models the probability that a facility at candidate location
//! `c` influences an object at position `p` as `Pr_c(p) = PF(dist(c, p))`
//! for a monotonically decreasing *probability function* `PF` (§3.1). This
//! crate provides:
//!
//! * the [`ProbabilityFunction`] trait with an analytic inverse — the
//!   inverse is what turns a probability bound into the `minMaxRadius`
//!   distance bound (Definition 5),
//! * the paper's default power-law model `ρ·(d₀ + d)^(−λ)` from Liu et
//!   al.'s check-in study ([`PowerLawPf`]),
//! * the four alternative functions of Fig. 16 — log-sigmoid, convex,
//!   concave and linear ([`alt`]),
//! * cumulative / partial non-influence probability computation with the
//!   early-stopping rule of Lemma 4 ([`cumulative`]),
//! * blocked structure-of-arrays position views with per-block MBRs and
//!   the exact, scalar-order block refinement ([`block`]),
//! * a log-domain kernel over those views — `Σ ln(1 − PF)` against
//!   `ln(1 − τ)` through a branch-free squared-distance coefficient
//!   table, per-block `minDist`/`maxDist` bounds in the same
//!   accumulator, and a guard band with an exact fallback keeping
//!   verdicts equal to the scalar evaluator's ([`logdomain`]),
//! * `minMaxRadius` itself plus the per-`n` memo cache (the HashMap `HM`
//!   of Algorithm 1) in [`radius`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod alt;
pub mod block;
pub mod cumulative;
pub mod logdomain;
pub mod pf;
pub mod radius;

pub use alt::{ConcavePf, ConvexPf, LinearPf, LogsigPf};
pub use block::SoaBlocks;
pub use cumulative::{CumulativeProbability, EarlyStopOutcome};
pub use logdomain::{
    ln_one_minus, log_non_influence, LogBlockedOutcome, LogPfTable, LogScratch, LogTileOutcome,
    TileCutoffs,
};
pub use pf::{PowerLawPf, ProbabilityFunction};
pub use radius::{min_max_radius, required_single_position_probability, MinMaxRadiusCache};
