//! Bench smoke — a small release-mode benchmark of the validation hot
//! path, comparing the scalar kernel, the arena-backed log-domain
//! blocked kernel (`EvalKernel::LogBlocked`), and the
//! PIN-JOIN object-side μ-aggregate join on the Fig. 8 / Fig. 9 default
//! workloads.
//!
//! Emits `BENCH_PR4.json` at the workspace root (checked in, so the PR
//! carries its own evidence) with one row per (dataset, solver):
//!
//! * `naive`       — NA under the scalar kernel,
//! * `arena_naive` — NA over the position arena with the log-blocked
//!   kernel (the full-scan validation workload, where block bounds pay
//!   the most),
//! * `vo_seq`   — sequential PINOCCHIO-VO, scalar kernel,
//! * `vo_par`   — parallel PINOCCHIO-VO (4 workers), scalar kernel,
//! * `arena_vo` — sequential PINOCCHIO-VO over the position arena with
//!   the log-blocked kernel,
//! * `arena_vo_par` — the parallel driver on the log-blocked kernel,
//! * `join_seq`   — sequential PIN-JOIN (μ-aggregate tree), scalar
//!   kernel,
//! * `join_par`   — parallel PIN-JOIN filter phase (4 workers), scalar
//!   kernel,
//! * `arena_join` / `arena_join_par` — the same two over the
//!   log-blocked kernel.
//!
//! Besides timing, the run is a correctness gate: it aborts if any
//! solver row disagrees with `naive` on `(best_candidate,
//! max_influence)`, or if a join row never fires a subtree-level IA/NIB
//! decision (the whole point of the μ-aggregate tree).
//!
//! Intended to run at `PINOCCHIO_SCALE=small` in CI (the `bench-smoke`
//! job); at full scale it is the same sweep, just slower. Each solver is
//! warmed once and timed over three runs, keeping the best, so the
//! numbers are stable enough for a smoke-level assertion without
//! Criterion's run time.

use pinocchio_bench::*;
use pinocchio_core::{join, parallel, Algorithm, EvalKernel, PrimeLs, SolveStats};
use pinocchio_data::{sample_candidate_group, Dataset};
use pinocchio_prob::PowerLawPf;
use std::path::PathBuf;
use std::time::Instant;

/// Parallel worker count for the `*_par` rows.
const PAR_THREADS: usize = 4;
/// Timed repetitions per row (best-of is recorded).
const REPS: usize = 3;

fn build(d: &Dataset, kernel: EvalKernel) -> PrimeLs<PowerLawPf> {
    let m = defaults::CANDIDATES.min(d.venues().len());
    let (_, candidates) = sample_candidate_group(d, m, 8);
    PrimeLs::builder()
        .objects(d.objects().to_vec())
        .candidates(candidates)
        .probability_function(PowerLawPf::paper_default())
        .tau(defaults::TAU)
        .evaluation_kernel(kernel)
        .build()
        .expect("benchmark problems are well-formed")
}

/// Best-of-`REPS` wall time plus the stats of the final run.
fn best_of<F: FnMut() -> (usize, u32, SolveStats)>(mut run: F) -> (f64, usize, u32, SolveStats) {
    let _ = run(); // warm-up: faults pages, fills the tree/A2D caches
    let mut best = f64::INFINITY;
    let mut last = (0usize, 0u32, SolveStats::default());
    for _ in 0..REPS {
        let t = Instant::now();
        last = run();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, last.0, last.1, last.2)
}

/// Records one row and returns the verdict so the caller can gate
/// agreement against the naive reference.
fn row(
    rows: &mut Vec<serde_json::Value>,
    dataset: &str,
    solver: &str,
    (secs, best_candidate, max_influence, stats): (f64, usize, u32, SolveStats),
) -> (usize, u32, SolveStats) {
    println!(
        "  {solver:<14} {:<10} best=#{best_candidate} inf={max_influence} \
         positions={} subtrees_ia={} subtrees_nib={}",
        fmt_secs(secs),
        stats.positions_evaluated,
        stats.subtrees_pruned_ia,
        stats.subtrees_pruned_nib,
    );
    rows.push(serde_json::json!({
        "dataset": dataset,
        "solver": solver,
        "seconds": secs,
        "best_candidate": best_candidate,
        "max_influence": max_influence,
        "positions_evaluated": stats.positions_evaluated,
        "positions_skipped_by_blocks": stats.positions_skipped_by_blocks,
        "blocks_pruned": stats.blocks_pruned,
        "validated_pairs": stats.validated_pairs,
        "subtrees_pruned_ia": stats.subtrees_pruned_ia,
        "subtrees_pruned_nib": stats.subtrees_pruned_nib,
        "join_nodes_visited": stats.join_nodes_visited,
    }));
    (best_candidate, max_influence, stats)
}

fn main() {
    let mut rows: Vec<serde_json::Value> = Vec::new();
    for kind in [DatasetKind::Foursquare, DatasetKind::Gowalla] {
        let d = dataset(kind);
        println!(
            "bench-smoke: dataset {} ({} objects)",
            kind.letter(),
            d.objects().len()
        );
        let scalar = build(&d, EvalKernel::Scalar);
        let log = build(&d, EvalKernel::LogBlocked);

        let solve = |p: &PrimeLs<PowerLawPf>, a: Algorithm| {
            let r = p.solve(a);
            (r.best_candidate, r.max_influence, r.stats)
        };
        let from_result =
            |r: pinocchio_core::SolveResult| (r.best_candidate, r.max_influence, r.stats);

        let (ref_best, ref_inf, _) = row(
            &mut rows,
            kind.letter(),
            "naive",
            best_of(|| solve(&scalar, Algorithm::Naive)),
        );
        // Every non-reference row must reproduce NA's verdict exactly —
        // the smoke run doubles as a cross-solver exactness gate.
        let check = |solver: &str, verdict: (usize, u32, SolveStats)| -> SolveStats {
            assert_eq!(
                (verdict.0, verdict.1),
                (ref_best, ref_inf),
                "{solver} disagrees with naive on dataset {}",
                kind.letter()
            );
            verdict.2
        };

        let rowc = |rows: &mut Vec<serde_json::Value>,
                    solver: &str,
                    timing: (f64, usize, u32, SolveStats)|
         -> SolveStats {
            let verdict = row(rows, kind.letter(), solver, timing);
            check(solver, verdict)
        };

        rowc(
            &mut rows,
            "arena_naive",
            best_of(|| solve(&log, Algorithm::Naive)),
        );
        rowc(
            &mut rows,
            "vo_seq",
            best_of(|| solve(&scalar, Algorithm::PinocchioVo)),
        );
        rowc(
            &mut rows,
            "vo_par",
            best_of(|| from_result(parallel::solve_vo(&scalar, PAR_THREADS))),
        );
        rowc(
            &mut rows,
            "arena_vo",
            best_of(|| solve(&log, Algorithm::PinocchioVo)),
        );
        rowc(
            &mut rows,
            "arena_vo_par",
            best_of(|| from_result(parallel::solve_vo(&log, PAR_THREADS))),
        );
        for (solver, stats) in [
            (
                "join_seq",
                rowc(
                    &mut rows,
                    "join_seq",
                    best_of(|| solve(&scalar, Algorithm::PinocchioJoin)),
                ),
            ),
            (
                "join_par",
                rowc(
                    &mut rows,
                    "join_par",
                    best_of(|| from_result(join::solve_par(&scalar, PAR_THREADS))),
                ),
            ),
            (
                "arena_join",
                rowc(
                    &mut rows,
                    "arena_join",
                    best_of(|| solve(&log, Algorithm::PinocchioJoin)),
                ),
            ),
            (
                "arena_join_par",
                rowc(
                    &mut rows,
                    "arena_join_par",
                    best_of(|| from_result(join::solve_par(&log, PAR_THREADS))),
                ),
            ),
        ] {
            assert!(
                stats.subtrees_pruned_ia > 0 && stats.subtrees_pruned_nib > 0,
                "{solver} never decided a subtree on dataset {} \
                 (ia={} nib={}) — the μ-aggregate bounds are not firing",
                kind.letter(),
                stats.subtrees_pruned_ia,
                stats.subtrees_pruned_nib,
            );
        }
    }

    let record = serde_json::json!({
        "id": "bench_smoke_pr4",
        "scale": if is_small_scale() { "small" } else { "full" },
        "tau": defaults::TAU,
        "candidates": defaults::CANDIDATES,
        "par_threads": PAR_THREADS,
        "reps": REPS,
        "rows": rows,
    });
    write_record("bench_smoke_pr4", &record);

    // Also drop the record at the workspace root so the PR carries the
    // measured numbers alongside the code (BENCH_PR4.json is checked in;
    // BENCH_PR3.json stays as the pre-join baseline).
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR4.json");
    let body = serde_json::to_string_pretty(&record).expect("serialisable record");
    std::fs::write(&root, body + "\n").expect("can write BENCH_PR4.json");
    println!("[record written to {}]", root.display());
}
