//! Cross-crate integration: the in-process sharded solver is
//! bit-identical to the unsharded solvers over the full property
//! matrix — seeds × thresholds × evaluation kernels × all five
//! algorithms × shard counts — and the serve-layer `ShardedWorld`
//! answers `best`/`top_k`/`influence_of` exactly like one world.

use pinocchio::core::{solve_sharded, Algorithm, EvalKernel, PrimeLs, ShardedPrimeLs, SolveResult};
use pinocchio::data::{sample_candidate_group, GeneratorConfig, SyntheticGenerator};
use pinocchio::prelude::{MovingObject, Point, PowerLawPf};
use pinocchio::serve::{ShardedWorld, World};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const TAUS: [f64; 3] = [0.5, 0.7, 0.9];
const KERNELS: [EvalKernel; 2] = [EvalKernel::Scalar, EvalKernel::LogBlocked];

fn world(users: usize, candidates: usize, seed: u64) -> (Vec<MovingObject>, Vec<Point>) {
    let d = SyntheticGenerator::new(GeneratorConfig::small(users, seed)).generate();
    let (_, cands) = sample_candidate_group(&d, candidates, seed ^ 0xABCD);
    (d.objects().to_vec(), cands)
}

fn unsharded(
    objects: &[MovingObject],
    candidates: &[Point],
    tau: f64,
    kernel: EvalKernel,
) -> PrimeLs<PowerLawPf> {
    PrimeLs::builder()
        .objects(objects.to_vec())
        .candidates(candidates.to_vec())
        .probability_function(PowerLawPf::paper_default())
        .tau(tau)
        .evaluation_kernel(kernel)
        .build()
        .unwrap()
}

fn assert_bit_identical(sharded: &SolveResult, reference: &SolveResult, context: &str) {
    assert_eq!(
        (sharded.best_candidate, sharded.max_influence),
        (reference.best_candidate, reference.max_influence),
        "sharded answer diverged ({context})"
    );
    assert_eq!(
        sharded.best_location.x.to_bits(),
        reference.best_location.x.to_bits(),
        "location x diverged ({context})"
    );
    assert_eq!(
        sharded.best_location.y.to_bits(),
        reference.best_location.y.to_bits(),
        "location y diverged ({context})"
    );
    // NA/PIN compute full influence vectors; the merged vector must be
    // elementwise equal, not just argmax-equal.
    if let (Some(merged), Some(exact)) = (&sharded.influences, &reference.influences) {
        assert_eq!(merged, exact, "influence vector diverged ({context})");
    }
}

#[test]
fn sharded_solves_bit_match_across_the_property_matrix() {
    for seed in [11u64, 29] {
        let (objects, candidates) = world(90, 40, seed);
        for tau in TAUS {
            for kernel in KERNELS {
                let problem = unsharded(&objects, &candidates, tau, kernel);
                for algorithm in Algorithm::WITH_EXTENSIONS {
                    let reference = problem.solve(algorithm);
                    for shards in SHARD_COUNTS {
                        let partitioned = ShardedPrimeLs::partition(
                            objects.clone(),
                            candidates.clone(),
                            PowerLawPf::paper_default(),
                            tau,
                            kernel,
                            shards,
                        )
                        .unwrap();
                        let result = solve_sharded(&partitioned, algorithm, 1);
                        assert_bit_identical(
                            &result,
                            &reference,
                            &format!(
                                "seed={seed} tau={tau} kernel={kernel:?} \
                                 algo={algorithm} shards={shards}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sharded_world_queries_bit_match_one_world() {
    for seed in [3u64, 17] {
        let (objects, candidates) = world(80, 30, seed);
        for tau in TAUS {
            let single = World::from_parts(objects.clone(), candidates.clone(), tau).unwrap();
            for shards in SHARD_COUNTS {
                let sharded = ShardedWorld::from_world(single.clone(), shards).unwrap();
                let context = format!("seed={seed} tau={tau} shards={shards}");
                assert_eq!(
                    sharded.best().unwrap(),
                    single.best().unwrap(),
                    "best diverged ({context})"
                );
                for k in [1usize, 5, candidates.len()] {
                    assert_eq!(
                        sharded.top_k(k).unwrap(),
                        single.top_k(k).unwrap(),
                        "top_k({k}) diverged ({context})"
                    );
                }
                for id in single.candidate_ids() {
                    assert_eq!(
                        sharded.influence_of(id).unwrap(),
                        single.influence_of(id).unwrap(),
                        "influence of {id} diverged ({context})"
                    );
                }
            }
        }
    }
}
