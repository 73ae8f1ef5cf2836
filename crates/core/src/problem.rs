//! The PRIME-LS problem instance and its builder.

use crate::eval::{EvalKernel, PairEval};
use crate::result::{Algorithm, SolveResult};
use crate::state::A2d;
use pinocchio_data::{MovingObject, PositionArena};
use pinocchio_geo::Point;
use pinocchio_index::{MbrTree, RTree};
use pinocchio_prob::{CumulativeProbability, LogPfTable, ProbabilityFunction};
use std::fmt;
use std::sync::OnceLock;

/// Errors detected when assembling a [`PrimeLs`] instance.
///
/// `#[non_exhaustive]` for the same stability contract as
/// [`SolveError`](crate::SolveError): downstream protocol layers match
/// with a wildcard arm and render through [`fmt::Display`], never
/// `Debug`, so new validation rules are not breaking changes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildError {
    /// No moving objects were supplied.
    NoObjects,
    /// No candidate locations were supplied.
    NoCandidates,
    /// `τ` outside the open interval `(0, 1)`.
    InvalidTau(f64),
    /// `τ` was never set.
    MissingTau,
    /// A candidate has a non-finite coordinate (index given).
    NonFiniteCandidate(usize),
    /// The probability function was never set.
    MissingProbabilityFunction,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoObjects => write!(f, "PRIME-LS needs at least one moving object"),
            BuildError::NoCandidates => write!(f, "PRIME-LS needs at least one candidate"),
            BuildError::InvalidTau(t) => write!(f, "tau must be in (0, 1), got {t}"),
            BuildError::MissingTau => write!(f, "tau must be set (it has no default)"),
            BuildError::NonFiniteCandidate(i) => {
                write!(f, "candidate {i} has a non-finite coordinate")
            }
            BuildError::MissingProbabilityFunction => {
                write!(f, "a probability function must be set (it has no default)")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A fully specified PRIME-LS problem instance (Definition 3).
///
/// Holds the moving objects `Ω`, candidate locations `C`, probability
/// function `PF` and threshold `τ`, and dispatches to the solvers.
/// Coordinates are planar kilometres (see the crate docs).
#[derive(Debug, Clone)]
pub struct PrimeLs<P> {
    objects: Vec<MovingObject>,
    candidates: Vec<Point>,
    pf: P,
    tau: f64,
    /// Flat structure-of-arrays mirror of `objects`, built once at
    /// construction and shared read-only by every solver.
    arena: PositionArena,
    /// Candidate R-tree, built lazily on first use and then reused by
    /// every solve on this instance (vo / parallel / topk / weighted all
    /// query the same tree; rebuilding it per solve was pure waste).
    candidate_tree: OnceLock<RTree<usize>>,
    /// `A_2D` (Algorithm 1 output), built lazily on first use and shared
    /// by every solve — previously each solver call rebuilt it from
    /// scratch, double-counting the radius/region work in multi-solver
    /// benches. Objects, `PF` and `τ` are immutable on `PrimeLs`, so the
    /// cached state can never go stale.
    a2d: OnceLock<A2d>,
    /// μ-aggregate tree over the influenceable objects' MBRs, built
    /// lazily for the join solver (and cached for the same reason).
    object_tree: OnceLock<MbrTree<usize>>,
    /// Precomputed `ln(1 − PF(√s))` coefficient table for the
    /// log-domain kernel, built lazily on first use (only the
    /// LogBlocked kernel asks for it). Inner `None` records that the
    /// PF defeats table construction, so the kernel downgrade is also
    /// computed exactly once.
    log_table: OnceLock<Option<LogPfTable>>,
    /// Which evaluation path [`PairEval`] dispatches to.
    kernel: EvalKernel,
}

impl<P: ProbabilityFunction + Clone> PrimeLs<P> {
    /// Starts building a problem instance.
    pub fn builder() -> PrimeLsBuilder<P> {
        PrimeLsBuilder::new()
    }

    /// The moving objects `Ω`.
    pub fn objects(&self) -> &[MovingObject] {
        &self.objects
    }

    /// The candidate locations `C`.
    pub fn candidates(&self) -> &[Point] {
        &self.candidates
    }

    /// The probability function `PF`.
    pub fn pf(&self) -> &P {
        &self.pf
    }

    /// The influence threshold `τ`.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The cumulative-probability evaluator used by all solvers
    /// (Euclidean metric over the planar kilometre frame).
    pub fn evaluator(&self) -> CumulativeProbability<P, pinocchio_geo::Euclidean> {
        CumulativeProbability::new(self.pf.clone(), pinocchio_geo::Euclidean)
    }

    /// The flat structure-of-arrays position store (same objects, same
    /// order as [`Self::objects`]).
    pub fn arena(&self) -> &PositionArena {
        &self.arena
    }

    /// The candidate R-tree (payload: dense candidate index), built on
    /// first call and cached for the lifetime of the instance. Objects
    /// and candidates are immutable on `PrimeLs`, so the cached tree can
    /// never go stale.
    pub fn candidate_tree(&self) -> &RTree<usize> {
        self.candidate_tree.get_or_init(|| {
            self.candidates
                .iter()
                .enumerate()
                .map(|(j, &c)| (c, j))
                .collect()
        })
    }

    /// `A_2D` — per-object `minMaxRadius` and pruning-region geometry
    /// (Algorithm 1), built on first call and cached for the lifetime of
    /// the instance.
    pub fn a2d(&self) -> &A2d {
        self.a2d
            .get_or_init(|| A2d::build(&self.objects, &self.pf, self.tau))
    }

    /// The μ-aggregate object tree the join solver traverses (payload:
    /// dense object index), over exactly the influenceable entries of
    /// [`Self::a2d`]; built on first call and cached.
    pub fn object_tree(&self) -> &MbrTree<usize> {
        self.object_tree.get_or_init(|| {
            MbrTree::bulk_load(
                self.a2d()
                    .entries()
                    .iter()
                    .filter_map(|e| e.regions.map(|r| (r.mbr(), r.radius(), e.index)))
                    .collect(),
            )
        })
    }

    /// The active evaluation kernel.
    pub fn evaluation_kernel(&self) -> EvalKernel {
        self.kernel
    }

    /// The log-PF coefficient table the LogBlocked kernel evaluates
    /// through, built on first call and cached; `None` when the PF
    /// defeats table construction (e.g. `PF(0) = 1` makes
    /// `ln(1 − PF)` diverge), in which case [`Self::pair_eval`]
    /// transparently downgrades LogBlocked to the scalar kernel.
    pub fn log_pf_table(&self) -> Option<&LogPfTable> {
        self.log_table
            .get_or_init(|| LogPfTable::try_new(&self.pf))
            .as_ref()
    }

    /// Returns the instance with a different evaluation kernel — the
    /// post-build counterpart of
    /// [`PrimeLsBuilder::evaluation_kernel`]. Verdicts (and therefore
    /// winners) are kernel-independent; only the cost profile changes.
    pub fn with_evaluation_kernel(mut self, kernel: EvalKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The per-pair evaluation context used by all solvers: evaluator +
    /// both position layouts + `τ` + the kernel selection.
    pub fn pair_eval(&self) -> PairEval<'_, P> {
        // Without a table (the PF defeated its construction) LogBlocked
        // runs as the always-available scalar kernel.
        let table = match self.kernel {
            EvalKernel::LogBlocked => self.log_pf_table(),
            EvalKernel::Scalar => None,
        };
        PairEval::new(
            self.evaluator(),
            &self.objects,
            &self.arena,
            self.tau,
            table,
        )
    }

    /// Solves the instance with the chosen algorithm.
    pub fn solve(&self, algorithm: Algorithm) -> SolveResult {
        match algorithm {
            Algorithm::Naive => crate::naive::solve(self),
            Algorithm::Pinocchio => crate::pinocchio::solve(self),
            Algorithm::PinocchioVo => crate::vo::solve(self, true),
            Algorithm::PinocchioVoStar => crate::vo::solve(self, false),
            Algorithm::PinocchioJoin => crate::join::solve(self),
        }
    }

    /// Exact per-candidate influence vector, computed with the pruned
    /// PINOCCHIO algorithm. This is what the effectiveness experiments
    /// (Tables 3–4) use to rank the top-K candidates.
    pub fn all_influences(&self) -> Vec<u32> {
        crate::pinocchio::solve(self)
            .influences
            // pinocchio-lint: allow(panic-path) -- pinocchio::solve always populates `influences` (it validates every undecided pair); a None here is a solver bug, not an input condition
            .expect("PINOCCHIO reports exact influences for all candidates")
    }
}

/// Builder for [`PrimeLs`]. All four components are mandatory.
#[derive(Debug, Clone)]
pub struct PrimeLsBuilder<P> {
    objects: Vec<MovingObject>,
    candidates: Vec<Point>,
    pf: Option<P>,
    tau: Option<f64>,
    kernel: EvalKernel,
}

impl<P: ProbabilityFunction + Clone> PrimeLsBuilder<P> {
    fn new() -> Self {
        PrimeLsBuilder {
            objects: Vec::new(),
            candidates: Vec::new(),
            pf: None,
            tau: None,
            kernel: EvalKernel::default(),
        }
    }

    /// Sets the moving objects.
    pub fn objects(mut self, objects: Vec<MovingObject>) -> Self {
        self.objects = objects;
        self
    }

    /// Sets the candidate locations.
    pub fn candidates(mut self, candidates: Vec<Point>) -> Self {
        self.candidates = candidates;
        self
    }

    /// Sets the probability function.
    pub fn probability_function(mut self, pf: P) -> Self {
        self.pf = Some(pf);
        self
    }

    /// Sets the influence threshold `τ ∈ (0, 1)`.
    pub fn tau(mut self, tau: f64) -> Self {
        self.tau = Some(tau);
        self
    }

    /// Selects the evaluation kernel (optional; defaults to
    /// [`EvalKernel::Scalar`], the historical behaviour).
    pub fn evaluation_kernel(mut self, kernel: EvalKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Validates and assembles the problem instance.
    pub fn build(self) -> Result<PrimeLs<P>, BuildError> {
        if self.objects.is_empty() {
            return Err(BuildError::NoObjects);
        }
        if self.candidates.is_empty() {
            return Err(BuildError::NoCandidates);
        }
        let Some(tau) = self.tau else {
            return Err(BuildError::MissingTau);
        };
        if !(tau > 0.0 && tau < 1.0) {
            return Err(BuildError::InvalidTau(tau));
        }
        if let Some(i) = self.candidates.iter().position(|c| !c.is_finite()) {
            return Err(BuildError::NonFiniteCandidate(i));
        }
        let Some(pf) = self.pf else {
            return Err(BuildError::MissingProbabilityFunction);
        };
        let arena = PositionArena::from_objects(&self.objects);
        Ok(PrimeLs {
            objects: self.objects,
            candidates: self.candidates,
            pf,
            tau,
            arena,
            candidate_tree: OnceLock::new(),
            a2d: OnceLock::new(),
            object_tree: OnceLock::new(),
            log_table: OnceLock::new(),
            kernel: self.kernel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinocchio_prob::PowerLawPf;

    fn one_object() -> Vec<MovingObject> {
        vec![MovingObject::new(0, vec![Point::new(0.0, 0.0)])]
    }

    #[test]
    fn builder_round_trip() {
        let p = PrimeLs::builder()
            .objects(one_object())
            .candidates(vec![Point::new(1.0, 1.0)])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.7)
            .build()
            .unwrap();
        assert_eq!(p.objects().len(), 1);
        assert_eq!(p.candidates().len(), 1);
        assert_eq!(p.tau(), 0.7);
    }

    #[test]
    fn builder_rejects_missing_pieces() {
        let err = PrimeLs::<PowerLawPf>::builder()
            .candidates(vec![Point::new(1.0, 1.0)])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.5)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::NoObjects);

        let err = PrimeLs::builder()
            .objects(one_object())
            .probability_function(PowerLawPf::paper_default())
            .tau(0.5)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::NoCandidates);
    }

    #[test]
    fn builder_rejects_bad_tau() {
        for tau in [0.0, 1.0, -0.3, 1.7] {
            let err = PrimeLs::builder()
                .objects(one_object())
                .candidates(vec![Point::new(1.0, 1.0)])
                .probability_function(PowerLawPf::paper_default())
                .tau(tau)
                .build()
                .unwrap_err();
            assert_eq!(err, BuildError::InvalidTau(tau));
        }
    }

    #[test]
    fn builder_rejects_missing_probability_function() {
        let err = PrimeLs::<PowerLawPf>::builder()
            .objects(one_object())
            .candidates(vec![Point::new(1.0, 1.0)])
            .tau(0.5)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::MissingProbabilityFunction);
    }

    #[test]
    fn builder_rejects_unset_tau() {
        let err = PrimeLs::builder()
            .objects(one_object())
            .candidates(vec![Point::new(1.0, 1.0)])
            .probability_function(PowerLawPf::paper_default())
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::MissingTau);
    }

    #[test]
    fn builder_rejects_non_finite_candidate() {
        let err = PrimeLs::builder()
            .objects(one_object())
            .candidates(vec![Point::new(1.0, 1.0), Point::new(f64::NAN, 0.0)])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.5)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::NonFiniteCandidate(1));
    }
}
