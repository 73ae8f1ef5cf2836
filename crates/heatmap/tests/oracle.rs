//! Brute-force oracle for the heat-map subsystem.
//!
//! Every emitted tile's `[lo, hi]` band is checked against the exact
//! per-point influence count on a dense in-tile point grid, the centre
//! `sample` against the exact count at the centre, and `top_region`
//! against an argmax scan over the full heat map — across random
//! seeds × τ × both evaluation kernels.

use pinocchio_core::{EvalKernel, PrimeLs};
use pinocchio_data::MovingObject;
use pinocchio_geo::{Mbr, Point};
use pinocchio_heatmap::{try_heatmap, try_top_region, Tile};
use pinocchio_prob::{PowerLawPf, ProbabilityFunction};
use rand::{rngs::StdRng, Rng, SeedableRng};

const FRAME_W: f64 = 30.0;
const FRAME_H: f64 = 20.0;

fn world(seed: u64, tau: f64, kernel: EvalKernel) -> PrimeLs<PowerLawPf> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut objects = Vec::new();
    for id in 0..40u64 {
        let cx = rng.gen_range(0.0..FRAME_W);
        let cy = rng.gen_range(0.0..FRAME_H);
        let n = rng.gen_range(1..6usize);
        let positions = (0..n)
            .map(|_| Point::new(cx + rng.gen_range(-0.8..0.8), cy + rng.gen_range(-0.8..0.8)))
            .collect();
        objects.push(MovingObject::new(id, positions));
    }
    PrimeLs::builder()
        .objects(objects)
        .candidates(vec![Point::new(1.0, 1.0)])
        .probability_function(PowerLawPf::paper_default())
        .tau(tau)
        .evaluation_kernel(kernel)
        .build()
        .expect("valid problem")
}

/// Exact influence count at `p`, computed from first principles: the
/// cumulative non-influence product over each object's positions.
fn exact_inf(problem: &PrimeLs<PowerLawPf>, p: Point) -> u32 {
    let pf = problem.pf();
    let tau = problem.tau();
    problem
        .objects()
        .iter()
        .filter(|o| {
            let mut non_influence = 1.0f64;
            for pos in o.positions() {
                non_influence *= 1.0 - pf.prob(p.euclidean(pos));
            }
            1.0 - non_influence >= tau
        })
        .count() as u32
}

fn frame() -> Mbr {
    Mbr::new(
        Point::new(-1.0, -1.0),
        Point::new(FRAME_W + 1.0, FRAME_H + 1.0),
    )
}

const KERNELS: [EvalKernel; 2] = [EvalKernel::Scalar, EvalKernel::LogBlocked];

#[test]
fn tiles_match_the_brute_force_oracle() {
    let res = 16u32;
    for seed in [7u64, 19, 42] {
        for tau in [0.5, 0.7] {
            let mut per_kernel: Vec<Vec<Tile>> = Vec::new();
            for kernel in KERNELS {
                let problem = world(seed, tau, kernel);
                let h = try_heatmap(&problem, res, Some(frame())).expect("heatmap");
                assert_eq!(h.tiles.len(), (res * res) as usize);

                let mut band_width_sum = 0u64;
                for (idx, t) in h.tiles.iter().enumerate() {
                    assert!(t.lo <= t.sample && t.sample <= t.hi);
                    band_width_sum += u64::from(t.hi - t.lo);
                    // The centre sample is exact.
                    assert_eq!(
                        t.sample,
                        exact_inf(&problem, h.tile_center(idx)),
                        "seed {seed} tau {tau} kernel {kernel:?} tile {idx} sample"
                    );
                    // The band holds at every point of the tile: probe a
                    // dense 3×3 interior grid.
                    let tx = idx as u32 % res;
                    let ty = idx as u32 / res;
                    let r = h.tile_rect(tx, ty);
                    for fy in [0.25, 0.5, 0.75] {
                        for fx in [0.25, 0.5, 0.75] {
                            let p =
                                Point::new(r.lo().x + fx * r.width(), r.lo().y + fy * r.height());
                            let inf = exact_inf(&problem, p);
                            assert!(
                                t.lo <= inf && inf <= t.hi,
                                "seed {seed} tau {tau} kernel {kernel:?} tile {idx}: \
                                 inf {inf} outside [{}, {}]",
                                t.lo,
                                t.hi
                            );
                        }
                    }
                }
                // Every ambiguous (object, tile) pair was validated
                // exactly once by the refinement pass.
                assert_eq!(h.stats.validated_pairs, band_width_sum);
                assert_eq!(
                    h.stats.cells_refined,
                    h.tiles.iter().filter(|t| t.lo < t.hi).count() as u64
                );
                assert!(h.stats.cells_resolved_ia + h.stats.cells_resolved_nib > 0);
                per_kernel.push(h.tiles.clone());
            }
            // The kernels are verdict-exact replicas of each other, so
            // the emitted grids agree bit-for-bit.
            assert_eq!(per_kernel[0], per_kernel[1]);
        }
    }
}

#[test]
fn top_region_bit_matches_the_heatmap_argmax() {
    let res = 32u32;
    for seed in [7u64, 19, 42] {
        for tau in [0.5, 0.7] {
            for kernel in KERNELS {
                let problem = world(seed, tau, kernel);
                let h = try_heatmap(&problem, res, Some(frame())).expect("heatmap");
                for k in [1usize, 5, 17] {
                    let t = try_top_region(&problem, k, res, Some(frame())).expect("top_region");
                    let mut oracle: Vec<(u32, usize)> = h
                        .tiles
                        .iter()
                        .enumerate()
                        .map(|(i, t)| (t.sample, i))
                        .collect();
                    oracle.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                    oracle.truncate(k);
                    assert_eq!(t.cells.len(), oracle.len());
                    for (got, want) in t.cells.iter().zip(&oracle) {
                        assert_eq!(
                            (got.influence, got.tile),
                            (want.0, want.1),
                            "seed {seed} tau {tau} kernel {kernel:?} k {k}"
                        );
                        assert_eq!(got.center, h.tile_center(got.tile));
                        // The reported influence is the exact count at
                        // the reported centre.
                        assert_eq!(got.influence, exact_inf(&problem, got.center));
                    }
                }
            }
        }
    }
}

#[test]
fn resolution_one_heatmap_is_a_single_sound_tile() {
    for seed in [3u64, 11] {
        let problem = world(seed, 0.7, EvalKernel::Scalar);
        let h = try_heatmap(&problem, 1, Some(frame())).expect("heatmap");
        assert_eq!(h.tiles.len(), 1);
        let t = h.tiles[0];
        assert_eq!(t.sample, exact_inf(&problem, h.tile_center(0)));
        assert!(t.lo <= t.sample && t.sample <= t.hi);
    }
}
