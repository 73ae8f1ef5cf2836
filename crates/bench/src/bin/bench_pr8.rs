//! `bench_pr8` — the log-domain kernel gate: scalar vs log-blocked
//! across the main solvers on the Fig. 8 / Fig. 9 default workloads at
//! τ ∈ {0.5, 0.7}.
//!
//! Emits `BENCH_PR8.json` at the workspace root (checked in, so the PR
//! carries its own evidence) with one row per (dataset, τ, kernel,
//! solver) for the solvers `naive`, `vo_seq`, `vo_par`, `join_seq` and
//! `join_par`.
//!
//! The run doubles as a correctness-and-performance gate:
//!
//! * every row must reproduce the scalar-naive `(best_candidate,
//!   max_influence)` verdict for its (dataset, τ) exactly, and
//! * on the validation-dominated configs — the naive rows, where every
//!   pair is validated and the kernel *is* the workload — the
//!   log-blocked kernel must run ≥ [`SPEEDUP_FLOOR`]× faster than the
//!   scalar kernel. The two naive runs are interleaved rep-for-rep so
//!   the ratio compares like machine state with like.
//!
//! Intended to run at `PINOCCHIO_SCALE=small` in CI (the `kernel-bench`
//! job re-checks agreement and guards the checked-in rows against >10%
//! regression); at full scale it is the same sweep, just slower.

use pinocchio_bench::*;
use pinocchio_core::{join, parallel, Algorithm, EvalKernel, PrimeLs, SolveStats};
use pinocchio_data::{sample_candidate_group, Dataset};
use pinocchio_prob::PowerLawPf;
use std::path::PathBuf;
use std::time::Instant;

/// Parallel worker count for the `*_par` rows.
const PAR_THREADS: usize = 4;
/// Timed repetitions per row (best-of is recorded).
const REPS: usize = 5;
/// Required naive-row speedup of the log-blocked kernel over the
/// scalar kernel on every (dataset, τ) config.
const SPEEDUP_FLOOR: f64 = 2.0;
/// Thresholds benchmarked: the paper default and the looser midpoint,
/// both sides of the influence/non-influence mix.
const TAUS: [f64; 2] = [0.5, 0.7];

fn build(d: &Dataset, kernel: EvalKernel, tau: f64) -> PrimeLs<PowerLawPf> {
    let m = defaults::CANDIDATES.min(d.venues().len());
    let (_, candidates) = sample_candidate_group(d, m, 8);
    PrimeLs::builder()
        .objects(d.objects().to_vec())
        .candidates(candidates)
        .probability_function(PowerLawPf::paper_default())
        .tau(tau)
        .evaluation_kernel(kernel)
        .build()
        .expect("benchmark problems are well-formed")
}

type Verdict = (usize, u32, SolveStats);

/// Best-of-[`REPS`] wall time plus the verdict of the final run.
fn best_of<F: FnMut() -> Verdict>(mut run: F) -> (f64, Verdict) {
    let _ = run(); // warm-up: faults pages, fills the tree/A2D caches
    let mut best = f64::INFINITY;
    let mut last = (0usize, 0u32, SolveStats::default());
    for _ in 0..REPS {
        let t = Instant::now();
        last = run();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, last)
}

/// Interleaved best-of-[`REPS`] of two runners: reps alternate A, B,
/// A, B, … so a machine-throughput shift lands on both sides of the
/// later ratio instead of on whichever happened to run second.
fn best_of_paired<F, G>(mut a: F, mut b: G) -> ((f64, Verdict), (f64, Verdict))
where
    F: FnMut() -> Verdict,
    G: FnMut() -> Verdict,
{
    let _ = a();
    let _ = b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut last_a = (0usize, 0u32, SolveStats::default());
    let mut last_b = last_a;
    for _ in 0..REPS {
        let t = Instant::now();
        last_a = a();
        best_a = best_a.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        last_b = b();
        best_b = best_b.min(t.elapsed().as_secs_f64());
    }
    ((best_a, last_a), (best_b, last_b))
}

/// Records one row and returns its verdict for the agreement gate.
fn row(
    rows: &mut Vec<serde_json::Value>,
    dataset: &str,
    tau: f64,
    kernel: &str,
    solver: &str,
    (secs, (best_candidate, max_influence, stats)): (f64, Verdict),
) -> Verdict {
    println!(
        "  {kernel:<11} {solver:<8} {:<10} best=#{best_candidate} inf={max_influence} \
         eval={} skip={} fallbacks={}",
        fmt_secs(secs),
        stats.positions_evaluated,
        stats.positions_skipped_by_blocks,
        stats.log_band_fallbacks,
    );
    rows.push(serde_json::json!({
        "dataset": dataset,
        "tau": tau,
        "kernel": kernel,
        "solver": solver,
        "seconds": secs,
        "best_candidate": best_candidate,
        "max_influence": max_influence,
        "validated_pairs": stats.validated_pairs,
        "positions_evaluated": stats.positions_evaluated,
        "positions_skipped_by_blocks": stats.positions_skipped_by_blocks,
        "blocks_pruned": stats.blocks_pruned,
        "log_band_fallbacks": stats.log_band_fallbacks,
    }));
    (best_candidate, max_influence, stats)
}

fn main() {
    let mut rows: Vec<serde_json::Value> = Vec::new();
    let mut gates: Vec<serde_json::Value> = Vec::new();
    for kind in [DatasetKind::Foursquare, DatasetKind::Gowalla] {
        let d = dataset(kind);
        for tau in TAUS {
            println!(
                "bench-pr8: dataset {} τ={tau} ({} objects)",
                kind.letter(),
                d.objects().len()
            );
            let scalar = build(&d, EvalKernel::Scalar, tau);
            let log = build(&d, EvalKernel::LogBlocked, tau);

            let solve = |p: &PrimeLs<PowerLawPf>, a: Algorithm| {
                let r = p.solve(a);
                (r.best_candidate, r.max_influence, r.stats)
            };
            let from_result =
                |r: pinocchio_core::SolveResult| (r.best_candidate, r.max_influence, r.stats);

            // The gate pair first: scalar-naive vs log-naive,
            // interleaved. These are the validation-dominated rows the
            // ≥2× floor is asserted on; scalar naive is also the
            // reference verdict every other row must reproduce.
            let (scalar_naive, log_naive) = best_of_paired(
                || solve(&scalar, Algorithm::Naive),
                || solve(&log, Algorithm::Naive),
            );
            let speedup = scalar_naive.0 / log_naive.0;

            let (ref_best, ref_inf, _) = row(
                &mut rows,
                kind.letter(),
                tau,
                "scalar",
                "naive",
                scalar_naive,
            );
            let check = |kernel: &str, solver: &str, verdict: Verdict| {
                assert_eq!(
                    (verdict.0, verdict.1),
                    (ref_best, ref_inf),
                    "{kernel}/{solver} disagrees with scalar naive on dataset {} τ={tau}",
                    kind.letter()
                );
            };
            let naive_l = row(
                &mut rows,
                kind.letter(),
                tau,
                "log_blocked",
                "naive",
                log_naive,
            );
            check("log_blocked", "naive", naive_l);

            for (kernel, p) in [("scalar", &scalar), ("log_blocked", &log)] {
                for (solver, timing) in [
                    ("vo_seq", best_of(|| solve(p, Algorithm::PinocchioVo))),
                    (
                        "vo_par",
                        best_of(|| from_result(parallel::solve_vo(p, PAR_THREADS))),
                    ),
                    ("join_seq", best_of(|| solve(p, Algorithm::PinocchioJoin))),
                    (
                        "join_par",
                        best_of(|| from_result(join::solve_par(p, PAR_THREADS))),
                    ),
                ] {
                    let verdict = row(&mut rows, kind.letter(), tau, kernel, solver, timing);
                    check(kernel, solver, verdict);
                }
            }

            println!(
                "  => naive scalar/log_blocked speedup: {speedup:.2}x (floor {SPEEDUP_FLOOR}x)"
            );
            gates.push(serde_json::json!({
                "dataset": kind.letter(),
                "tau": tau,
                "naive_speedup_log_over_scalar": speedup,
            }));
            assert!(
                speedup >= SPEEDUP_FLOOR,
                "log-blocked naive is only {speedup:.2}x faster than scalar on dataset {} τ={tau} \
                 (floor {SPEEDUP_FLOOR}x)",
                kind.letter()
            );
        }
    }

    let record = serde_json::json!({
        "id": "bench_pr8",
        "scale": if is_small_scale() { "small" } else { "full" },
        "candidates": defaults::CANDIDATES,
        "par_threads": PAR_THREADS,
        "reps": REPS,
        "speedup_floor": SPEEDUP_FLOOR,
        "naive_speedups": gates,
        "rows": rows,
    });
    write_record("bench_pr8", &record);

    // Also drop the record at the workspace root so the PR carries the
    // measured numbers alongside the code (BENCH_PR8.json is checked
    // in; the earlier BENCH_PR*.json files stay as prior baselines).
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR8.json");
    let body = serde_json::to_string_pretty(&record).expect("serialisable record");
    std::fs::write(&root, body + "\n").expect("can write BENCH_PR8.json");
    println!("[record written to {}]", root.display());
}
