//! Moving-object datasets for the PINOCCHIO framework.
//!
//! The paper evaluates on two LBS check-in datasets — Foursquare
//! (Singapore) and Gowalla (California) — that are not redistributable.
//! This crate substitutes *synthetic equivalents calibrated to every
//! statistic the paper reports* (Table 2 and the §4.3 coverage figures):
//! user / venue / check-in counts, the skewed per-user check-in
//! distribution, hotspot-clustered venue geography, and activity regions
//! that overlap heavily (each object covering ~55 % of each axis in the
//! Foursquare-like dataset).
//!
//! Contents:
//!
//! * [`MovingObject`] / [`Dataset`] / [`Venue`] — the data model,
//!   including per-venue ground-truth visit counts used by the
//!   effectiveness experiments (Tables 3–4),
//! * [`cowvec`] — [`CowVec`], the copy-on-write chunked vector every
//!   structurally shared snapshot is built on (O(pages) clone, plain
//!   indexing, a write copies at most one page),
//! * [`arena`] — the flat structure-of-arrays [`PositionArena`] with
//!   per-block MBRs that backs the blocked evaluation kernel,
//! * [`poslog`] — the structurally shared, append-friendly
//!   [`PositionLog`] backing the dynamic maintenance path (O(1)
//!   amortised append, a [`CowVec`] of positions),
//! * [`gen`] — the `FoursquareLike` / `GowallaLike` generators,
//! * [`stats`] — dataset statistics (regenerates Table 2),
//! * [`sampling`] — deterministic sub-sampling of objects, positions and
//!   candidate groups (Figs. 9, 11b, 13; Tables 3–4), and the
//!   position-count grouping of Table 5,
//! * [`io`] — plain CSV persistence so externally obtained check-in data
//!   can be dropped in.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arena;
pub mod cowvec;
pub mod dataset;
pub mod gen;
pub mod io;
pub mod object;
pub mod poslog;
pub mod sampling;
pub mod stats;
pub mod trajectory;

pub use arena::{PositionArena, BLOCK_SIZE};
pub use cowvec::{CowVec, COW_PAGE};
pub use dataset::{Dataset, Venue};
pub use gen::{GeneratorConfig, SyntheticGenerator};
pub use object::MovingObject;
pub use poslog::{PositionLog, POSITION_CHUNK};
pub use sampling::{
    group_by_position_count, resample_positions, sample_candidate_group, sample_objects,
    PositionCountGroup, TABLE5_BOUNDS,
};
pub use stats::DatasetStats;
pub use trajectory::{generate_trajectories, subsample_interval, TrajectoryConfig};
