//! Incremental PRIME-LS for dynamic scenarios — the paper's stated
//! future work (§7: "we plan to study incremental solution towards
//! PRIME-LS in dynamic scenarios, where candidate locations, objects as
//! well as their positions keep on changing").
//!
//! [`DynamicPrimeLs`] maintains the *exact* per-candidate influence
//! counts under four kinds of updates:
//!
//! * object insertion / removal,
//! * appending a freshly observed position to an object,
//! * candidate insertion / removal.
//!
//! The maintained state is a per-object bitmask of the candidates that
//! influence it, so removals are O(m/64) and the optimal candidate is
//! always available exactly. Updates reuse the static machinery — the
//! per-object pruning regions classify candidates without any
//! probability computation — plus one incremental theorem:
//!
//! > **Monotonicity under growth** (from Definition 1): appending a
//! > position never decreases `Pr_c(O)`, so a candidate that influences
//! > `O` keeps influencing it. Only the currently *non-influencing*
//! > candidates need rechecking when a position arrives.
//!
//! # Delta-validation (the O(changed) update path)
//!
//! In the default [`MaintenanceMode::Delta`], updates touch only the
//! pairs whose verdict can change, instead of scanning every slot:
//!
//! * **Object inserts / appends** query a live-candidate R-tree with
//!   the object's non-influence boundary (Theorem 2): a candidate with
//!   `minDist(c, MBR) > μ` *cannot* influence the object, so any
//!   candidate the query does not visit keeps its (zero) bit with no
//!   work. For appends the same single query suffices because the NIB
//!   region only grows (`μ` is non-decreasing in `n` and the MBR is
//!   containment-monotone) and previously-influencing candidates are
//!   inside it by the contrapositive of Theorem 2 — their bits are kept
//!   via the monotonicity rule without re-validation.
//! * **Candidate inserts** run a μ-banded aggregate join
//!   ([`MbrTree`]) over the live objects: whole subtrees are accepted
//!   (Theorem 1 lifted to node MBRs) or skipped (Theorem 2 lifted)
//!   without touching their rows; only undecided objects are validated.
//!   Objects whose geometry changed since the last index build fall
//!   back to the exact per-row rules via a bounded dirty list, so the
//!   index is rebuilt only every Ω(live/4) updates — O(log) amortised.
//! * **The optimum** is maintained with an answer-invariance bound:
//!   increments keep the exact argmax in O(1), and decrements rescan
//!   only when the cached leader's count falls to the *challenger
//!   bound* — an upper bound on every other candidate's influence — so
//!   `best()` is O(1) and rescans are provably the only moments the
//!   answer could change.
//!
//! [`MaintenanceMode::FullScan`] preserves the pre-delta classification
//! path (every slot scanned per update) — it exists so benchmarks can
//! measure what delta-validation buys and tests can cross-check the two
//! paths op-for-op.
//!
//! # Structural sharing (the O(pages) clone)
//!
//! The serving layer clones the whole state once per published epoch,
//! so a clone must not cost O(objects). The object rows — each with its
//! [`PositionLog`], pruning geometry, influence bitmask and index-dirty
//! flag — live in 16-row pages of a copy-on-write [`CowVec`], and both
//! spatial indexes sit behind [`Arc`] and are replaced wholesale on
//! rebuild. A clone is therefore O(rows / 16 + candidates), and an
//! update copies only the row pages it writes. Every mutation path
//! reads a row first and writes it only when the row's bits actually
//! change: clearing a removed candidate's bit, validating a fresh
//! candidate and the dirty-flag sweep of an index rebuild all touch
//! O(changed) pages, so an older clone keeps sharing everything else.
//!
//! Every operation leaves the structure in a state identical to
//! rebuilding from scratch (asserted extensively by the tests and the
//! serving layer's property suite).

use crate::result::Algorithm;
use pinocchio_data::{CowVec, MovingObject, PositionLog};
use pinocchio_geo::{InfluenceRegions, Mbr, Point, RegionVerdict};
use pinocchio_index::{MbrTree, RTree};
use pinocchio_prob::{min_max_radius, CumulativeProbability, ProbabilityFunction};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One influence verdict over a shared position log: the scalar
/// early-stop scan (Lemma 4) over the log's chunks.
// pinocchio-hot: per-pair verdict of every dynamic update path
fn influenced_chunked<P: ProbabilityFunction>(
    eval: &CumulativeProbability<P, pinocchio_geo::Euclidean>,
    candidate: &Point,
    log: &PositionLog,
    tau: f64,
) -> bool {
    eval.influences_early_stop_chunked(candidate, log.chunks(), tau)
        .influenced
}

/// Handle to an object slot in a [`DynamicPrimeLs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectHandle(usize);

/// Handle to a candidate slot in a [`DynamicPrimeLs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CandidateHandle(usize);

/// How updates revalidate the object–candidate pairs they may affect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// Spatially pruned delta-validation (the default): object updates
    /// query the candidate R-tree with the object's NIB region,
    /// candidate inserts run the μ-aggregate object join, and the
    /// optimum is maintained under the answer-invariance bound.
    #[default]
    Delta,
    /// The pre-delta reference path: every update classifies every
    /// slot. Same answers, strictly more work — kept for benchmarks
    /// (what does delta-validation buy?) and cross-mode testing.
    FullScan,
}

/// One live object row: the shared position log, its cached pruning
/// geometry and the bitmask of candidate slots it is influenced by.
#[derive(Debug, Clone)]
struct ObjectRow {
    id: u64,
    log: PositionLog,
    /// `None` when the object can never be influenced at the current τ.
    regions: Option<InfluenceRegions>,
    /// Bit `j` set ⇔ candidate slot `j` influences this object.
    influenced_by: Vec<u64>,
    /// The row is indexed by `obj_tree` but changed since the build
    /// (it is then listed in `obj_dirty_list`): its build-time verdicts
    /// are stale and it is validated per row instead.
    dirty: bool,
}

/// Rows per copy-on-write page. A row clone allocates (its position-log
/// spine and influence mask), so the first write to a page after a
/// clone costs `ROW_PAGE` row clones, while a world clone costs one
/// reference count per page (DESIGN.md §13 has the measured
/// trade-off). Rows stay inline in their page, so the freeze reads
/// them sequentially.
const ROW_PAGE: usize = 16;

/// Object rows by slot (see [`ROW_PAGE`]).
type ObjectRows = CowVec<Option<ObjectRow>, ROW_PAGE>;

/// Mutable access to live row `slot`, copying its page first when an
/// older clone still shares it.
fn row_mut(rows: &mut ObjectRows, slot: usize) -> Option<&mut ObjectRow> {
    rows.make_mut(slot).as_mut()
}

/// Calls `f` with the index of every set bit.
fn for_each_set_bit(mask: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Exact, incrementally maintained PRIME-LS state.
///
/// All coordinates are planar kilometres, matching the static solvers.
///
/// ```
/// use pinocchio_core::DynamicPrimeLs;
/// use pinocchio_data::MovingObject;
/// use pinocchio_geo::Point;
/// use pinocchio_prob::PowerLawPf;
///
/// let mut state = DynamicPrimeLs::new(PowerLawPf::paper_default(), 0.7);
/// let kiosk = state.insert_candidate(Point::new(0.0, 0.0));
/// let user = state.insert_object(MovingObject::new(0, vec![Point::new(40.0, 0.0)]));
/// assert_eq!(state.influence(kiosk), 0); // too far away
///
/// // The user checks in right next to the kiosk: PF(0.1) ≈ 0.82 ≥ 0.7.
/// state.append_position(user, Point::new(0.1, 0.0));
/// assert_eq!(state.influence(kiosk), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicPrimeLs<P> {
    pf: P,
    tau: f64,
    mode: MaintenanceMode,
    /// Object rows by slot (slots are never reused; a removed object
    /// leaves `None`).
    objects: ObjectRows,
    candidates: Vec<Option<Point>>,
    /// Exact `inf(c)` per candidate slot (0 for freed slots).
    influences: Vec<u32>,
    live_objects: usize,
    live_candidate_count: usize,
    /// Freed candidate slots, smallest first — O(log) slot reuse
    /// instead of the former O(m) `position(Option::is_none)` scan.
    free_candidates: BinaryHeap<Reverse<usize>>,
    /// Live candidates indexed by location; payload `(slot, generation)`
    /// so entries of freed (possibly reused) slots are filtered out at
    /// query time instead of requiring R-tree deletion. Shared between
    /// clones until the next insert or rebuild.
    cand_tree: Arc<RTree<(usize, u32)>>,
    /// Per-slot generation, bumped on removal.
    cand_gen: Vec<u32>,
    /// Stale entries accumulated in `cand_tree`; rebuild past the
    /// threshold keeps queries O(live) amortised.
    cand_tree_stale: usize,
    /// μ-aggregate index over live object slots (payload = slot);
    /// immutable between rebuilds, so clones share it.
    obj_tree: Arc<MbrTree<usize>>,
    /// Object slots `>= obj_indexed_upto` are newer than the last
    /// `obj_tree` build (object slots are never reused, so this single
    /// watermark captures all inserts since then).
    obj_indexed_upto: usize,
    /// Indexed slots whose geometry changed since the build (appends,
    /// removals), each listed once; their tree verdicts are stale and
    /// they are validated per-row instead.
    obj_dirty_list: CowVec<usize>,
    /// `minMaxRadius` memo by position count (index `n`; `[0]` unused)
    /// — the HM cache of Algorithm 1, so appends pay a lookup instead
    /// of re-inverting the PF.
    mu_by_n: Vec<Option<f64>>,
    /// Reusable previous-mask buffer for `append_position` (avoids one
    /// allocation per append).
    scratch_mask: Vec<u64>,
    /// Reusable slot buffers for `validate_candidate_delta` (avoids two
    /// allocations per candidate insert).
    delta_influenced: Vec<usize>,
    delta_undecided: Vec<usize>,
    /// Cached argmax slot (always live when any candidate is live;
    /// smallest slot among maxima, matching the static tie-break).
    best_slot: Option<usize>,
    /// Answer-invariance bound: an upper bound on `inf(c)` over every
    /// live candidate other than `best_slot`. The optimum can only
    /// change at a decrement when `inf(best) ≤ challenger_bound`.
    challenger_bound: u32,
}

/// `cand_tree` is rebuilt once more than this many stale entries
/// accumulate (and the live count no longer dwarfs them).
const CAND_TREE_MIN_REBUILD: usize = 32;
/// `obj_tree` is rebuilt when more than `max(this, live/4)` rows have
/// changed since the last build.
const OBJ_TREE_MIN_REBUILD: usize = 64;

impl<P: ProbabilityFunction + Clone> DynamicPrimeLs<P> {
    /// Creates an empty dynamic instance in [`MaintenanceMode::Delta`].
    ///
    /// # Panics
    /// Panics unless `τ ∈ (0, 1)`.
    pub fn new(pf: P, tau: f64) -> Self {
        assert!(tau > 0.0 && tau < 1.0, "tau must be in (0, 1), got {tau}");
        DynamicPrimeLs {
            pf,
            tau,
            mode: MaintenanceMode::Delta,
            objects: CowVec::new(),
            candidates: Vec::new(),
            influences: Vec::new(),
            live_objects: 0,
            live_candidate_count: 0,
            free_candidates: BinaryHeap::new(),
            cand_tree: Arc::new(RTree::new()),
            cand_gen: Vec::new(),
            cand_tree_stale: 0,
            obj_tree: Arc::new(MbrTree::bulk_load(Vec::new())),
            obj_indexed_upto: 0,
            obj_dirty_list: CowVec::new(),
            mu_by_n: Vec::new(),
            scratch_mask: Vec::new(),
            delta_influenced: Vec::new(),
            delta_undecided: Vec::new(),
            best_slot: None,
            challenger_bound: 0,
        }
    }

    /// Bootstraps from a static problem description.
    pub fn from_parts(
        pf: P,
        tau: f64,
        objects: Vec<MovingObject>,
        candidates: Vec<Point>,
    ) -> (Self, Vec<ObjectHandle>, Vec<CandidateHandle>) {
        let mut this = Self::new(pf, tau);
        let cands: Vec<CandidateHandle> = candidates
            .into_iter()
            .map(|c| this.insert_candidate(c))
            .collect();
        let objs: Vec<ObjectHandle> = objects.into_iter().map(|o| this.insert_object(o)).collect();
        (this, objs, cands)
    }

    fn evaluator(&self) -> CumulativeProbability<P, pinocchio_geo::Euclidean> {
        CumulativeProbability::new(self.pf.clone(), pinocchio_geo::Euclidean)
    }

    /// Memoised `minMaxRadius(n)` — Algorithm 1's HM cache. Position
    /// counts are dense small integers here (they grow by one per
    /// append), so a vector memo makes the per-append μ lookup O(1).
    fn mu_for(&mut self, n: usize) -> Option<f64> {
        debug_assert!(n >= 1, "objects hold at least one position");
        while self.mu_by_n.len() <= n {
            let k = self.mu_by_n.len();
            self.mu_by_n.push(if k == 0 {
                None // index 0 is padding; no object has zero positions
            } else {
                min_max_radius(&self.pf, self.tau, k)
            });
        }
        self.mu_by_n[n]
    }

    /// The per-object pruning geometry for a log of `n` positions.
    fn regions_for(&mut self, log: &PositionLog) -> Option<InfluenceRegions> {
        self.mu_for(log.len())
            .map(|mu| InfluenceRegions::new(log.mbr(), mu))
    }

    /// The influence threshold.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The active maintenance mode.
    pub fn maintenance_mode(&self) -> MaintenanceMode {
        self.mode
    }

    /// Switches the maintenance mode. Safe at any point: both modes
    /// maintain the same bookkeeping (indexes, free lists, argmax
    /// bound), they differ only in how the next updates search for the
    /// pairs to revalidate.
    pub fn set_maintenance_mode(&mut self, mode: MaintenanceMode) {
        self.mode = mode;
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.live_objects
    }

    /// Number of live candidates (O(1); maintained, not counted).
    pub fn candidate_count(&self) -> usize {
        self.live_candidate_count
    }

    /// Exact influence of a candidate.
    ///
    /// # Panics
    /// Panics on a stale (removed) handle.
    pub fn influence(&self, c: CandidateHandle) -> u32 {
        assert!(self.candidates[c.0].is_some(), "stale candidate handle");
        self.influences[c.0]
    }

    /// Every live candidate as `(handle, location, influence)`, in slot
    /// order — the snapshot hook the serving layer's `top_k` and
    /// `influence_of` queries read. Slot order matches the candidate
    /// order of [`Self::to_prime_ls`], so rankings derived from either
    /// agree on ties.
    pub fn live_candidates(&self) -> Vec<(CandidateHandle, Point, u32)> {
        self.candidates
            .iter()
            .enumerate()
            .filter_map(|(j, c)| c.map(|point| (CandidateHandle(j), point, self.influences[j])))
            .collect()
    }

    /// Iterates over the live moving objects (slot order), materialising
    /// each from its shared position log — an O(positions) freeze used
    /// by the from-scratch solve paths, never by the update path.
    pub fn objects(&self) -> impl Iterator<Item = MovingObject> + '_ {
        self.objects
            .iter()
            .flatten()
            .map(|row| row.log.to_object(row.id))
    }

    /// Freezes the current state into a static [`PrimeLs`] problem — the
    /// from-scratch solve entry used by the serving layer's `solve`
    /// requests and exactness gates. The returned handles give, for each
    /// candidate index of the static problem, the corresponding live
    /// slot; index order equals slot order, so the static solvers'
    /// smallest-index tie-break reproduces [`Self::best`]'s
    /// smallest-slot tie-break.
    ///
    /// Fails with [`BuildError::NoObjects`] / [`BuildError::NoCandidates`]
    /// when either live set is empty (`PF` and `τ` were validated at
    /// construction and cannot fail here).
    ///
    /// [`PrimeLs`]: crate::problem::PrimeLs
    /// [`BuildError::NoObjects`]: crate::problem::BuildError::NoObjects
    /// [`BuildError::NoCandidates`]: crate::problem::BuildError::NoCandidates
    pub fn to_prime_ls(
        &self,
    ) -> Result<(crate::problem::PrimeLs<P>, Vec<CandidateHandle>), crate::problem::BuildError>
    {
        let live = self.live_candidates();
        let problem = crate::problem::PrimeLs::builder()
            .objects(self.objects().collect())
            .candidates(live.iter().map(|&(_, p, _)| p).collect())
            .probability_function(self.pf.clone())
            .tau(self.tau)
            .build()?;
        Ok((problem, live.into_iter().map(|(h, _, _)| h).collect()))
    }

    /// The current optimum `(handle, location, influence)`, ties broken
    /// towards the older (smaller-slot) candidate; `None` when no live
    /// candidate exists. O(1): the argmax is maintained incrementally
    /// under the answer-invariance bound (see the module docs).
    pub fn best(&self) -> Option<(CandidateHandle, Point, u32)> {
        let j = self.best_slot?;
        let location = self.candidates.get(j).copied().flatten()?;
        Some((CandidateHandle(j), location, self.influences[j]))
    }

    // ---- bitmask helpers ------------------------------------------------

    fn mask_words(&self) -> usize {
        self.candidates.len().div_ceil(64)
    }

    fn bit(mask: &[u64], j: usize) -> bool {
        mask.get(j / 64).is_some_and(|w| w >> (j % 64) & 1 == 1)
    }

    fn set_bit(mask: &mut Vec<u64>, j: usize) {
        if mask.len() <= j / 64 {
            mask.resize(j / 64 + 1, 0);
        }
        mask[j / 64] |= 1 << (j % 64);
    }

    fn clear_bit(mask: &mut [u64], j: usize) {
        if let Some(w) = mask.get_mut(j / 64) {
            *w &= !(1 << (j % 64));
        }
    }

    // ---- argmax maintenance (answer-invariance bound) -------------------

    /// Whether live slot `j` outranks live slot `best` (higher count,
    /// or equal count in an older slot).
    fn outranks(&self, j: usize, best: usize) -> bool {
        self.influences[j] > self.influences[best]
            || (self.influences[j] == self.influences[best] && j < best)
    }

    /// Records that `influences[j]` grew (or slot `j` just became
    /// live). Keeps `best_slot` the exact argmax and `challenger_bound`
    /// an upper bound on every other live candidate's influence.
    fn note_increased(&mut self, j: usize) {
        match self.best_slot {
            None => {
                self.best_slot = Some(j);
                self.challenger_bound = 0;
            }
            Some(b) if b == j => {}
            Some(b) => {
                if self.outranks(j, b) {
                    // The dethroned leader joins the challengers.
                    self.challenger_bound = self.challenger_bound.max(self.influences[b]);
                    self.best_slot = Some(j);
                } else {
                    self.challenger_bound = self.challenger_bound.max(self.influences[j]);
                }
            }
        }
    }

    /// After decrements: rescan only if the cached leader can be
    /// overtaken. `challenger_bound` upper-bounds every other live
    /// candidate, and decrements never raise anyone, so
    /// `inf(best) > bound` proves the answer unchanged; equality must
    /// rescan because ties break towards the smaller slot.
    fn repair_best(&mut self) {
        if let Some(b) = self.best_slot {
            if self.influences[b] <= self.challenger_bound {
                self.rescan_best();
            }
        }
    }

    /// Full O(m) recomputation of the argmax and the exact runner-up
    /// count (the tightest admissible challenger bound).
    fn rescan_best(&mut self) {
        let mut best: Option<usize> = None;
        let mut second = 0u32;
        for (j, c) in self.candidates.iter().enumerate() {
            if c.is_none() {
                continue;
            }
            match best {
                None => best = Some(j),
                Some(b) => {
                    if self.influences[j] > self.influences[b] {
                        second = self.influences[b];
                        best = Some(j);
                    } else {
                        second = second.max(self.influences[j]);
                    }
                }
            }
        }
        self.best_slot = best;
        self.challenger_bound = second;
    }

    // ---- index bookkeeping ----------------------------------------------

    /// Records that the (taken-out) row of `slot`, whose dirty flag is
    /// `dirty`, changed since the last `obj_tree` build, and returns its
    /// new flag: its build-time verdicts are no longer trusted. Rows
    /// newer than the build are already handled as unindexed.
    fn mark_object_changed(&mut self, slot: usize, dirty: bool) -> bool {
        if slot < self.obj_indexed_upto && !dirty {
            self.obj_dirty_list.push(slot);
            return true;
        }
        dirty
    }

    /// Rebuilds `obj_tree` when the changed-row backlog exceeds
    /// `max(OBJ_TREE_MIN_REBUILD, live/4)` — O(live log live) every
    /// Ω(live) updates, O(log) amortised.
    fn maybe_rebuild_object_tree(&mut self) {
        let pending = self.obj_dirty_list.len() + (self.objects.len() - self.obj_indexed_upto);
        if pending <= OBJ_TREE_MIN_REBUILD.max(self.live_objects / 4) {
            return;
        }
        let items: Vec<(Mbr, f64, usize)> = self
            .objects
            .iter()
            .enumerate()
            .filter_map(|(s, row)| {
                let row = row.as_ref()?;
                let regions = row.regions.as_ref()?;
                Some((regions.mbr(), regions.radius(), s))
            })
            .collect();
        self.obj_tree = Arc::new(MbrTree::bulk_load(items));
        self.obj_indexed_upto = self.objects.len();
        // Only the listed rows carry the flag; removed ones left `None`.
        for &s in self.obj_dirty_list.iter() {
            if self.objects[s].is_some() {
                if let Some(row) = row_mut(&mut self.objects, s) {
                    row.dirty = false;
                }
            }
        }
        self.obj_dirty_list = CowVec::new();
    }

    /// Rebuilds `cand_tree` from the live candidates, dropping the
    /// stale (freed-slot) entries.
    fn rebuild_candidate_tree(&mut self) {
        let items: Vec<(Point, (usize, u32))> = self
            .candidates
            .iter()
            .enumerate()
            .filter_map(|(j, c)| c.map(|p| (p, (j, self.cand_gen[j]))))
            .collect();
        self.cand_tree = Arc::new(RTree::bulk_load(items));
        self.cand_tree_stale = 0;
    }

    // ---- object updates -------------------------------------------------

    /// Inserts an object, classifying candidates through the pruning
    /// regions (only the reachable ones in delta mode) and validating
    /// the undecided ones.
    pub fn insert_object(&mut self, object: MovingObject) -> ObjectHandle {
        let log = PositionLog::from_object(&object);
        let regions = self.regions_for(&log);
        let mut row = ObjectRow {
            id: object.id(),
            log,
            regions,
            influenced_by: vec![0; self.mask_words()],
            dirty: false,
        };
        match self.mode {
            MaintenanceMode::FullScan => self.classify_candidates_into(&mut row, None),
            MaintenanceMode::Delta => self.classify_candidates_delta(&mut row, None),
        }
        let mask = std::mem::take(&mut row.influenced_by);
        for_each_set_bit(&mask, |j| {
            self.influences[j] += 1;
            self.note_increased(j);
        });
        row.influenced_by = mask;
        self.live_objects += 1;
        let handle = ObjectHandle(self.objects.len());
        self.objects.push(Some(row));
        handle
    }

    /// Removes an object, subtracting its influence contributions.
    ///
    /// # Panics
    /// Panics on a stale handle.
    pub fn remove_object(&mut self, handle: ObjectHandle) -> MovingObject {
        let taken = self.objects.make_mut(handle.0).take();
        // pinocchio-lint: allow(panic-path) -- documented `# Panics` contract: a stale handle is caller error, not a recoverable state
        let row = taken.expect("stale object handle");
        for_each_set_bit(&row.influenced_by, |j| {
            self.influences[j] -= 1;
        });
        self.live_objects -= 1;
        self.mark_object_changed(handle.0, row.dirty);
        self.repair_best();
        row.log.to_object(row.id)
    }

    /// Appends a freshly observed position to an object in O(changed):
    /// the position lands in the shared log without copying the
    /// history, and only candidates inside the (grown) non-influence
    /// boundary are reconsidered — by monotonicity the bitmask can only
    /// gain bits, and by Theorem 2 no candidate outside the boundary
    /// can gain one.
    ///
    /// # Panics
    /// Panics on a stale handle or a non-finite position.
    // pinocchio-hot: per-update entry point of the streaming maintenance path
    pub fn append_position(&mut self, handle: ObjectHandle, position: Point) {
        assert!(position.is_finite(), "non-finite position");
        let taken = self.objects.make_mut(handle.0).take();
        // pinocchio-lint: allow(panic-path) -- documented `# Panics` contract: a stale handle is caller error, not a recoverable state
        let mut row = taken.expect("stale object handle");
        row.log.push(position);
        // n changed ⇒ minMaxRadius changed; the MBR may have grown (the
        // log maintains it incrementally).
        row.regions = self.regions_for(&row.log);
        let mut previously = std::mem::take(&mut self.scratch_mask);
        previously.clear();
        previously.extend_from_slice(&row.influenced_by);
        match self.mode {
            MaintenanceMode::FullScan => self.classify_candidates_into(&mut row, Some(&previously)),
            MaintenanceMode::Delta => self.classify_candidates_delta(&mut row, Some(&previously)),
        }
        // Count the newly gained candidates. Classification may have
        // widened the mask (candidates inserted since this row last
        // changed); pad the previous mask so the new words are diffed
        // too, not silently dropped by the zip.
        previously.resize(row.influenced_by.len(), 0);
        for (w, (&now, &before)) in row.influenced_by.iter().zip(&previously).enumerate() {
            debug_assert_eq!(now & before, before, "influence must be monotone");
            let mut gained = now & !before;
            while gained != 0 {
                let j = w * 64 + gained.trailing_zeros() as usize;
                self.influences[j] += 1;
                self.note_increased(j);
                gained &= gained - 1;
            }
        }
        self.scratch_mask = previously;
        row.dirty = self.mark_object_changed(handle.0, row.dirty);
        *self.objects.make_mut(handle.0) = Some(row);
    }

    /// Recomputes `row.influenced_by` by scanning **every** candidate
    /// slot (the [`MaintenanceMode::FullScan`] path). With
    /// `skip_influenced`, bits already set in the given previous mask
    /// are kept without re-validation (the monotone append rule).
    fn classify_candidates_into(&self, row: &mut ObjectRow, skip_influenced: Option<&[u64]>) {
        let eval = self.evaluator();
        let words = self.mask_words();
        row.influenced_by.resize(words, 0);
        for (j, cand) in self.candidates.iter().enumerate() {
            let Some(c) = cand else { continue };
            if let Some(prev) = skip_influenced {
                if Self::bit(prev, j) {
                    Self::set_bit(&mut row.influenced_by, j);
                    continue;
                }
            }
            let influenced = match &row.regions {
                None => false,
                Some(regions) => match regions.classify(c) {
                    RegionVerdict::Influences => true,
                    RegionVerdict::CannotInfluence => false,
                    RegionVerdict::Undecided => influenced_chunked(&eval, c, &row.log, self.tau),
                },
            };
            if influenced {
                Self::set_bit(&mut row.influenced_by, j);
            } else {
                Self::clear_bit(&mut row.influenced_by, j);
            }
        }
    }

    /// Delta counterpart of [`Self::classify_candidates_into`]: queries
    /// the candidate R-tree with the object's non-influence boundary and
    /// touches only the candidates inside it.
    ///
    /// **Why skipped candidates cannot change verdict.** The query
    /// predicate is exactly NIB membership, `minDist(c, MBR) ≤ μ`
    /// (node admission uses the containment-monotone rectangle distance,
    /// so no matching candidate is missed). A skipped candidate has
    /// `minDist > μ`, hence cannot influence the object (Theorem 2) —
    /// its bit stays 0, which is what the fresh (insert) or monotone
    /// (append) mask already records. On appends, every
    /// previously-influencing candidate still influences the grown
    /// object (monotonicity) and therefore sits inside the new NIB
    /// (contrapositive of Theorem 2), so the kept bits are all visited
    /// and re-set from `skip_influenced` without re-validation.
    // pinocchio-hot: per-update candidate reclassification
    fn classify_candidates_delta(&self, row: &mut ObjectRow, skip_influenced: Option<&[u64]>) {
        let words = self.mask_words();
        row.influenced_by.resize(words, 0);
        let Some(regions) = row.regions else {
            // No attainable minMaxRadius: nothing can influence this
            // object; the mask is (and stays) all-zero.
            debug_assert!(row.influenced_by.iter().all(|w| *w == 0));
            return;
        };
        let eval = self.evaluator();
        let tau = self.tau;
        let obj_mbr = regions.mbr();
        let nib_mbr = regions.nib_mbr();
        let mu_sq = regions.radius() * regions.radius();
        let gens = &self.cand_gen;
        let mask = &mut row.influenced_by;
        let log = &row.log;
        self.cand_tree.query_region(
            |node| node.intersects(&nib_mbr) && obj_mbr.min_dist_sq_mbr(node) <= mu_sq,
            |c| obj_mbr.min_dist_sq(c) <= mu_sq,
            &mut |c, &(j, gen)| {
                if gens[j] != gen {
                    return; // freed (possibly reused) slot: stale entry
                }
                if let Some(prev) = skip_influenced {
                    if Self::bit(prev, j) {
                        Self::set_bit(mask, j);
                        return;
                    }
                }
                // Inside the NIB by the query predicate; the remaining
                // split is Theorem 1 (influence arcs) vs exact
                // validation — identical to `InfluenceRegions::classify`.
                let influenced =
                    obj_mbr.max_dist_sq(c) <= mu_sq || influenced_chunked(&eval, c, log, tau);
                if influenced {
                    Self::set_bit(mask, j);
                }
            },
        );
    }

    // ---- candidate updates ----------------------------------------------

    /// Inserts a candidate, computing its exact influence — against the
    /// μ-aggregate object index in delta mode (whole subtrees accepted
    /// or skipped in bulk), or against every live object in full-scan
    /// mode.
    ///
    /// # Panics
    /// Panics on a non-finite location.
    pub fn insert_candidate(&mut self, location: Point) -> CandidateHandle {
        assert!(location.is_finite(), "non-finite candidate");
        // Reuse the smallest freed slot so bitmasks stay compact and
        // slot (tie-break) order stays deterministic.
        let j = match self.free_candidates.pop() {
            Some(Reverse(j)) => {
                self.candidates[j] = Some(location);
                j
            }
            None => {
                self.candidates.push(Some(location));
                self.influences.push(0);
                self.cand_gen.push(0);
                self.candidates.len() - 1
            }
        };
        self.live_candidate_count += 1;
        Arc::make_mut(&mut self.cand_tree).insert(location, (j, self.cand_gen[j]));
        let influence = match self.mode {
            MaintenanceMode::FullScan => self.validate_candidate_full(j, &location),
            MaintenanceMode::Delta => self.validate_candidate_delta(j, &location),
        };
        self.influences[j] = influence;
        self.note_increased(j);
        CandidateHandle(j)
    }

    /// Full-scan influence computation for a fresh candidate at slot
    /// `j`: classify + validate against every live row (a row is written
    /// only when its bit changes).
    fn validate_candidate_full(&mut self, j: usize, location: &Point) -> u32 {
        let eval = self.evaluator();
        let tau = self.tau;
        let mut influence = 0u32;
        for s in 0..self.objects.len() {
            let Some(row) = &self.objects[s] else {
                continue;
            };
            let influenced = match &row.regions {
                None => false,
                Some(regions) => match regions.classify(location) {
                    RegionVerdict::Influences => true,
                    RegionVerdict::CannotInfluence => false,
                    RegionVerdict::Undecided => influenced_chunked(&eval, location, &row.log, tau),
                },
            };
            if influenced != Self::bit(&row.influenced_by, j) {
                if let Some(row) = row_mut(&mut self.objects, s) {
                    if influenced {
                        Self::set_bit(&mut row.influenced_by, j);
                    } else {
                        Self::clear_bit(&mut row.influenced_by, j);
                    }
                }
            }
            influence += u32::from(influenced);
        }
        influence
    }

    /// Delta influence computation for a fresh candidate at slot `j`:
    /// one μ-aggregate join over the object index decides unchanged
    /// rows (bulk-skipping excluded subtrees — their bits are already
    /// 0 because the slot is fresh), and the bounded set of rows
    /// changed since the last index build falls back to the exact
    /// per-row rules.
    // pinocchio-hot: per-insert delta influence computation
    fn validate_candidate_delta(&mut self, j: usize, location: &Point) -> u32 {
        // pinocchio-lint: allow(hot-path-alloc) -- rebuild is amortised: it runs once per max(64, live/4) row changes, not per insert
        self.maybe_rebuild_object_tree();
        let mut influenced_slots = std::mem::take(&mut self.delta_influenced);
        let mut undecided_slots = std::mem::take(&mut self.delta_undecided);
        influenced_slots.clear();
        undecided_slots.clear();
        self.obj_tree.influence_join_entries(
            location,
            |&s| influenced_slots.push(s),
            |&s| undecided_slots.push(s),
        );
        let eval = self.evaluator();
        let tau = self.tau;
        let mut influence = 0u32;
        // A dirty row's build-time verdict is stale (re-done below); a
        // `None` row was removed since the build.
        fn clean(row: &Option<ObjectRow>) -> Option<&ObjectRow> {
            row.as_ref().filter(|row| !row.dirty)
        }
        for &s in &influenced_slots {
            if clean(&self.objects[s]).is_none() {
                continue;
            }
            if let Some(row) = row_mut(&mut self.objects, s) {
                Self::set_bit(&mut row.influenced_by, j);
                influence += 1;
            }
        }
        for &s in &undecided_slots {
            let Some(row) = clean(&self.objects[s]) else {
                continue;
            };
            if influenced_chunked(&eval, location, &row.log, tau) {
                if let Some(row) = row_mut(&mut self.objects, s) {
                    Self::set_bit(&mut row.influenced_by, j);
                    influence += 1;
                }
            }
        }
        // Rows the index does not speak for: changed since the build,
        // or inserted after it. Bounded by the rebuild threshold.
        let unindexed = self.obj_indexed_upto..self.objects.len();
        for s in (0..self.obj_dirty_list.len())
            .map(|k| self.obj_dirty_list[k])
            .chain(unindexed)
        {
            let Some(row) = &self.objects[s] else {
                continue;
            };
            debug_assert!(
                !Self::bit(&row.influenced_by, j),
                "fresh slot bit must be clear"
            );
            let influenced = match &row.regions {
                None => false,
                Some(regions) => match regions.classify(location) {
                    RegionVerdict::Influences => true,
                    RegionVerdict::CannotInfluence => false,
                    RegionVerdict::Undecided => influenced_chunked(&eval, location, &row.log, tau),
                },
            };
            if influenced {
                if let Some(row) = row_mut(&mut self.objects, s) {
                    Self::set_bit(&mut row.influenced_by, j);
                    influence += 1;
                }
            }
        }
        // Hand the buffers back empty, so a clone copies no slot list.
        influenced_slots.clear();
        undecided_slots.clear();
        self.delta_influenced = influenced_slots;
        self.delta_undecided = undecided_slots;
        influence
    }

    /// Removes a candidate.
    ///
    /// # Panics
    /// Panics on a stale handle.
    pub fn remove_candidate(&mut self, handle: CandidateHandle) -> Point {
        let location = self.candidates[handle.0]
            .take()
            // pinocchio-lint: allow(panic-path) -- documented `# Panics` contract: a stale handle is caller error, not a recoverable state
            .expect("stale candidate handle");
        self.influences[handle.0] = 0;
        // Read every row, write only the ones holding the bit.
        let mut holders = std::mem::take(&mut self.delta_influenced);
        holders.extend(
            self.objects
                .iter()
                .enumerate()
                .filter(|(_, row)| {
                    row.as_ref()
                        .is_some_and(|row| Self::bit(&row.influenced_by, handle.0))
                })
                .map(|(s, _)| s),
        );
        for &s in &holders {
            if let Some(row) = row_mut(&mut self.objects, s) {
                Self::clear_bit(&mut row.influenced_by, handle.0);
            }
        }
        holders.clear();
        self.delta_influenced = holders;
        self.live_candidate_count -= 1;
        self.free_candidates.push(Reverse(handle.0));
        // Invalidate the slot's R-tree entries; rebuild once stale
        // entries stop being dominated by live ones.
        self.cand_gen[handle.0] = self.cand_gen[handle.0].wrapping_add(1);
        self.cand_tree_stale += 1;
        if self.cand_tree_stale > CAND_TREE_MIN_REBUILD.max(self.live_candidate_count) {
            self.rebuild_candidate_tree();
        }
        if self.best_slot == Some(handle.0) {
            self.rescan_best();
        }
        location
    }

    // ---- verification -----------------------------------------------

    /// Rebuilds the influence counts from scratch with the static solver
    /// and asserts they match the incremental state — including the
    /// cached optimum against a brute-force argmax (the answer-
    /// invariance bound's accounting). Test/debug aid; O(full solve).
    pub fn verify_against_static(&self) {
        // The cached argmax must equal a from-scratch scan (max count,
        // ties to the smaller slot) in every state, including empty.
        let expected_best = self
            .candidates
            .iter()
            .enumerate()
            .filter_map(|(j, c)| c.map(|point| (j, point)))
            .max_by(|a, b| {
                self.influences[a.0]
                    .cmp(&self.influences[b.0])
                    .then(b.0.cmp(&a.0))
            })
            .map(|(j, point)| (CandidateHandle(j), point, self.influences[j]));
        assert_eq!(self.best(), expected_best, "cached optimum diverged");
        if let Some(b) = self.best_slot {
            for (j, c) in self.candidates.iter().enumerate() {
                if j != b && c.is_some() {
                    assert!(
                        self.influences[j] <= self.challenger_bound,
                        "challenger bound {} misses slot {j} at {}",
                        self.challenger_bound,
                        self.influences[j]
                    );
                }
            }
        }

        let objects: Vec<MovingObject> = self.objects().collect();
        let live: Vec<(usize, Point)> = self
            .candidates
            .iter()
            .enumerate()
            .filter_map(|(j, c)| c.map(|p| (j, p)))
            .collect();
        assert_eq!(live.len(), self.live_candidate_count, "live count drifted");
        if objects.is_empty() || live.is_empty() {
            for (j, _) in &live {
                assert_eq!(self.influences[*j], 0, "slot {j}");
            }
            return;
        }
        let problem = crate::problem::PrimeLs::builder()
            .objects(objects)
            .candidates(live.iter().map(|&(_, p)| p).collect())
            .probability_function(self.pf.clone())
            .tau(self.tau)
            .build()
            // pinocchio-lint: allow(panic-path) -- self-check helper: the live sets are non-empty (guarded above) and pf/tau were validated at construction
            .expect("well-formed");
        let reference = problem
            .solve(Algorithm::Pinocchio)
            .influences
            // pinocchio-lint: allow(panic-path) -- pinocchio::solve always populates `influences`; this whole fn is an assert-based debugging aid
            .expect("PIN reports all influences");
        for (k, (j, _)) in live.iter().enumerate() {
            assert_eq!(
                self.influences[*j], reference[k],
                "influence mismatch at slot {j}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinocchio_prob::PowerLawPf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng_object(rng: &mut StdRng, id: u64) -> MovingObject {
        let n = rng.gen_range(1..12);
        MovingObject::new(
            id,
            (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0)))
                .collect(),
        )
    }

    fn fresh(tau: f64) -> DynamicPrimeLs<PowerLawPf> {
        DynamicPrimeLs::new(PowerLawPf::paper_default(), tau)
    }

    #[test]
    fn empty_state() {
        let d = fresh(0.7);
        assert_eq!(d.object_count(), 0);
        assert_eq!(d.candidate_count(), 0);
        assert_eq!(d.best(), None);
        assert_eq!(d.maintenance_mode(), MaintenanceMode::Delta);
        d.verify_against_static();
    }

    #[test]
    fn insertions_match_static_solver() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = fresh(0.7);
        for k in 0..10 {
            d.insert_candidate(Point::new(
                rng.gen_range(0.0..30.0),
                rng.gen_range(0.0..20.0),
            ));
            if k % 2 == 0 {
                d.verify_against_static();
            }
        }
        for i in 0..25 {
            d.insert_object(rng_object(&mut rng, i));
            if i % 5 == 0 {
                d.verify_against_static();
            }
        }
        d.verify_against_static();
        assert_eq!(d.object_count(), 25);
        assert_eq!(d.candidate_count(), 10);
    }

    #[test]
    fn removals_match_static_solver() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = fresh(0.5);
        let cands: Vec<_> = (0..8)
            .map(|_| {
                d.insert_candidate(Point::new(
                    rng.gen_range(0.0..30.0),
                    rng.gen_range(0.0..20.0),
                ))
            })
            .collect();
        let objs: Vec<_> = (0..20)
            .map(|i| d.insert_object(rng_object(&mut rng, i)))
            .collect();
        d.verify_against_static();

        for &h in objs.iter().step_by(3) {
            d.remove_object(h);
        }
        d.verify_against_static();
        d.remove_candidate(cands[2]);
        d.remove_candidate(cands[5]);
        d.verify_against_static();
        assert_eq!(d.candidate_count(), 6);
    }

    #[test]
    fn append_position_is_monotone_and_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = fresh(0.7);
        for _ in 0..6 {
            d.insert_candidate(Point::new(
                rng.gen_range(0.0..30.0),
                rng.gen_range(0.0..20.0),
            ));
        }
        let handles: Vec<_> = (0..10)
            .map(|i| d.insert_object(rng_object(&mut rng, i)))
            .collect();
        d.verify_against_static();

        for step in 0..30 {
            let h = handles[step % handles.len()];
            d.append_position(
                h,
                Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0)),
            );
            if step % 6 == 0 {
                d.verify_against_static();
            }
        }
        d.verify_against_static();
    }

    #[test]
    fn appending_near_a_candidate_gains_influence() {
        let mut d = fresh(0.7);
        let c = d.insert_candidate(Point::new(0.0, 0.0));
        let o = d.insert_object(MovingObject::new(0, vec![Point::new(50.0, 50.0)]));
        assert_eq!(d.influence(c), 0);
        // One position right on the candidate: PF(0) = 0.9 ≥ 0.7.
        d.append_position(o, Point::new(0.0, 0.0));
        assert_eq!(d.influence(c), 1);
        d.verify_against_static();
    }

    #[test]
    fn slot_reuse_after_candidate_removal() {
        let mut d = fresh(0.7);
        let a = d.insert_candidate(Point::new(0.0, 0.0));
        let _b = d.insert_candidate(Point::new(10.0, 0.0));
        d.insert_object(MovingObject::new(0, vec![Point::new(0.1, 0.0)]));
        assert_eq!(d.influence(a), 1);
        d.remove_candidate(a);
        // New candidate reuses slot 0 and must get a fresh, correct count.
        let c = d.insert_candidate(Point::new(0.2, 0.0));
        assert_eq!(c, CandidateHandle(0));
        assert_eq!(d.influence(c), 1);
        d.verify_against_static();
    }

    #[test]
    fn free_list_hands_out_smallest_slot_first() {
        let mut d = fresh(0.7);
        let handles: Vec<_> = (0..6)
            .map(|i| d.insert_candidate(Point::new(i as f64, 0.0)))
            .collect();
        // Free slots 4, 1, 3 in scrambled order.
        d.remove_candidate(handles[4]);
        d.remove_candidate(handles[1]);
        d.remove_candidate(handles[3]);
        assert_eq!(d.candidate_count(), 3);
        // Reinsertion fills the smallest hole first, like the old
        // linear `position(Option::is_none)` scan did.
        assert_eq!(
            d.insert_candidate(Point::new(10.0, 0.0)),
            CandidateHandle(1)
        );
        assert_eq!(
            d.insert_candidate(Point::new(11.0, 0.0)),
            CandidateHandle(3)
        );
        assert_eq!(
            d.insert_candidate(Point::new(12.0, 0.0)),
            CandidateHandle(4)
        );
        assert_eq!(
            d.insert_candidate(Point::new(13.0, 0.0)),
            CandidateHandle(6)
        );
        d.verify_against_static();
    }

    #[test]
    fn best_tracks_updates() {
        let mut d = fresh(0.6);
        let west = d.insert_candidate(Point::new(0.0, 0.0));
        let east = d.insert_candidate(Point::new(20.0, 0.0));
        for i in 0..3 {
            d.insert_object(MovingObject::new(i, vec![Point::new(0.1 * i as f64, 0.0)]));
        }
        let (h, _, inf) = d.best().unwrap();
        assert_eq!(h, west);
        assert_eq!(inf, 3);
        // Shift the world east.
        let handles: Vec<_> = (3..8)
            .map(|i| {
                // y ∈ {0.0 .. 0.4}: PF(0.4) = 0.9/1.4 ≈ 0.64 ≥ 0.6.
                d.insert_object(MovingObject::new(
                    i,
                    vec![Point::new(20.0, 0.1 * (i - 3) as f64)],
                ))
            })
            .collect();
        let (h, _, inf) = d.best().unwrap();
        assert_eq!(h, east);
        assert_eq!(inf, 5);
        for h in handles {
            d.remove_object(h);
        }
        assert_eq!(d.best().unwrap().0, west);
        d.verify_against_static();
    }

    #[test]
    fn uninfluenceable_objects_can_become_influenceable() {
        // τ = 0.95 > PF(0): a single-position object can never be
        // influenced, but appending a second position changes that.
        let mut d = fresh(0.95);
        let c = d.insert_candidate(Point::new(0.0, 0.0));
        let o = d.insert_object(MovingObject::new(0, vec![Point::new(0.0, 0.1)]));
        assert_eq!(d.influence(c), 0);
        d.append_position(o, Point::new(0.1, 0.0));
        // Two positions at ~0.1 km: 1 − (1 − 0.9/1.1)² ≈ 0.967 ≥ 0.95.
        assert_eq!(d.influence(c), 1);
        d.verify_against_static();
    }

    #[test]
    fn append_gain_across_new_mask_words_is_counted() {
        // Regression: a row whose mask predates newer candidates has
        // fewer words than the current mask width. An append that gains
        // a candidate in one of the new words must still count it (the
        // gained-bit diff used to truncate at the old width).
        let mut d = fresh(0.7);
        let o = d.insert_object(MovingObject::new(0, vec![Point::new(500.0, 500.0)]));
        let handles: Vec<_> = (0..70)
            .map(|i| d.insert_candidate(Point::new(i as f64, 0.0)))
            .collect();
        let target = handles[69]; // slot 69: second mask word
        assert_eq!(d.influence(target), 0);
        d.append_position(o, Point::new(69.0, 0.0));
        assert_eq!(d.influence(target), 1);
        d.verify_against_static();
    }

    #[test]
    fn delta_and_full_scan_agree_op_for_op() {
        // The two maintenance modes must stay bit-identical through an
        // interleaving of all five update kinds, including candidate
        // slot reuse and a mid-stream mode switch.
        let mut rng = StdRng::seed_from_u64(21);
        let mut delta = fresh(0.7);
        let mut full = fresh(0.7);
        full.set_maintenance_mode(MaintenanceMode::FullScan);
        assert_eq!(full.maintenance_mode(), MaintenanceMode::FullScan);

        let mut objs: Vec<ObjectHandle> = Vec::new();
        let mut cands: Vec<CandidateHandle> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..240 {
            match rng.gen_range(0..10) {
                0..=2 if !objs.is_empty() => {
                    let h = objs[rng.gen_range(0..objs.len())];
                    let p = Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0));
                    delta.append_position(h, p);
                    full.append_position(h, p);
                }
                3..=4 => {
                    let o = rng_object(&mut rng, next_id);
                    next_id += 1;
                    let h = delta.insert_object(o.clone());
                    assert_eq!(full.insert_object(o), h);
                    objs.push(h);
                }
                5 if !objs.is_empty() => {
                    let h = objs.swap_remove(rng.gen_range(0..objs.len()));
                    assert_eq!(delta.remove_object(h), full.remove_object(h));
                }
                6..=8 => {
                    let p = Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0));
                    let h = delta.insert_candidate(p);
                    assert_eq!(full.insert_candidate(p), h);
                    cands.push(h);
                }
                _ if !cands.is_empty() => {
                    let h = cands.swap_remove(rng.gen_range(0..cands.len()));
                    assert_eq!(delta.remove_candidate(h), full.remove_candidate(h));
                }
                _ => {}
            }
            assert_eq!(delta.best(), full.best(), "step {step}");
            assert_eq!(
                delta.live_candidates(),
                full.live_candidates(),
                "step {step}"
            );
            if step == 120 {
                // Mode switches are safe mid-stream: the bookkeeping is
                // maintained in both modes.
                delta.set_maintenance_mode(MaintenanceMode::FullScan);
                full.set_maintenance_mode(MaintenanceMode::Delta);
            }
            if step % 40 == 0 {
                delta.verify_against_static();
                full.verify_against_static();
            }
        }
        delta.verify_against_static();
        full.verify_against_static();
    }

    #[test]
    fn candidate_tree_survives_heavy_slot_churn() {
        // Enough removals to trip the stale-entry rebuild threshold,
        // with reused slots landing at new locations — stale R-tree
        // entries must never resurrect an old candidate position.
        let mut rng = StdRng::seed_from_u64(33);
        let mut d = fresh(0.6);
        let objs: Vec<_> = (0..10)
            .map(|i| d.insert_object(rng_object(&mut rng, i)))
            .collect();
        let mut live: Vec<CandidateHandle> = (0..40)
            .map(|_| {
                d.insert_candidate(Point::new(
                    rng.gen_range(0.0..30.0),
                    rng.gen_range(0.0..20.0),
                ))
            })
            .collect();
        for round in 0..6 {
            // Churn: remove half, reinsert elsewhere, stream positions.
            for _ in 0..live.len() / 2 {
                let h = live.swap_remove(rng.gen_range(0..live.len()));
                d.remove_candidate(h);
            }
            for _ in 0..18 {
                live.push(d.insert_candidate(Point::new(
                    rng.gen_range(0.0..30.0),
                    rng.gen_range(0.0..20.0),
                )));
            }
            for _ in 0..10 {
                let h = objs[rng.gen_range(0..objs.len())];
                d.append_position(
                    h,
                    Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0)),
                );
            }
            d.verify_against_static();
            assert!(d.candidate_count() >= 18, "round {round}");
        }
    }

    #[test]
    fn to_prime_ls_freezes_current_state() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut d = fresh(0.7);
        let cands: Vec<_> = (0..6)
            .map(|_| {
                d.insert_candidate(Point::new(
                    rng.gen_range(0.0..30.0),
                    rng.gen_range(0.0..20.0),
                ))
            })
            .collect();
        let objs: Vec<_> = (0..15)
            .map(|i| d.insert_object(rng_object(&mut rng, i)))
            .collect();
        // Punch holes so slot order and index order genuinely differ
        // from insertion order.
        d.remove_candidate(cands[1]);
        d.remove_object(objs[3]);

        let (problem, slots) = d.to_prime_ls().expect("non-empty live sets");
        assert_eq!(problem.candidates().len(), 5);
        assert_eq!(problem.objects().len(), 14);
        let influences = problem.all_influences();
        for (k, h) in slots.iter().enumerate() {
            assert_eq!(influences[k], d.influence(*h), "candidate index {k}");
        }
        // The static winner maps back to the incremental optimum, ties
        // included (index order == slot order).
        let r = problem.solve(Algorithm::PinocchioVo);
        let (bh, _, bi) = d.best().expect("live candidates");
        assert_eq!(slots[r.best_candidate], bh);
        assert_eq!(r.max_influence, bi);
        // live_candidates mirrors the same slot order and counts.
        let live = d.live_candidates();
        assert_eq!(live.len(), slots.len());
        for ((h, _, inf), slot) in live.iter().zip(&slots) {
            assert_eq!(h, slot);
            assert_eq!(*inf, d.influence(*h));
        }
    }

    #[test]
    fn to_prime_ls_rejects_empty_live_sets() {
        let mut d = fresh(0.7);
        assert!(d.to_prime_ls().is_err(), "empty state");
        d.insert_candidate(Point::ORIGIN);
        assert!(d.to_prime_ls().is_err(), "candidates but no objects");
        let o = d.insert_object(MovingObject::new(0, vec![Point::ORIGIN]));
        assert!(d.to_prime_ls().is_ok());
        assert_eq!(d.objects().count(), 1);
        d.remove_object(o);
        assert!(d.to_prime_ls().is_err(), "objects all removed again");
    }

    #[test]
    fn clone_then_appends_copies_at_most_one_row_page_each() {
        // The epoch-publish contract: a clone shares every row page and
        // both indexes, and k appends on the live side copy at most k
        // row pages — the clone keeps all the others physically.
        let mut rng = StdRng::seed_from_u64(77);
        let mut d = fresh(0.7);
        for _ in 0..8 {
            d.insert_candidate(Point::new(
                rng.gen_range(0.0..30.0),
                rng.gen_range(0.0..20.0),
            ));
        }
        let handles: Vec<_> = (0..1000)
            .map(|i| d.insert_object(rng_object(&mut rng, i)))
            .collect();
        let snapshot = d.clone();
        let pages = d.objects.page_count();
        assert!(pages >= 15, "{pages} pages");
        for p in 0..pages {
            assert!(d.objects.shares_page(&snapshot.objects, p), "page {p}");
        }
        for k in 1..=12 {
            let h = handles[rng.gen_range(0..handles.len())];
            d.append_position(
                h,
                Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0)),
            );
            let copied = (0..pages)
                .filter(|&p| !d.objects.shares_page(&snapshot.objects, p))
                .count();
            assert!(copied <= k, "{copied} pages copied after {k} appends");
        }
        assert!(Arc::ptr_eq(&d.obj_tree, &snapshot.obj_tree));
        assert!(Arc::ptr_eq(&d.cand_tree, &snapshot.cand_tree));
        d.verify_against_static();
        snapshot.verify_against_static();
    }

    #[test]
    #[should_panic(expected = "stale object handle")]
    fn stale_object_handle_rejected() {
        let mut d = fresh(0.7);
        let o = d.insert_object(MovingObject::new(0, vec![Point::ORIGIN]));
        d.remove_object(o);
        d.remove_object(o);
    }

    #[test]
    #[should_panic(expected = "stale candidate handle")]
    fn stale_candidate_handle_rejected() {
        let mut d = fresh(0.7);
        let c = d.insert_candidate(Point::ORIGIN);
        d.remove_candidate(c);
        let _ = d.influence(c);
    }
}
