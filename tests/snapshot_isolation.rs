//! Snapshot isolation of structurally shared worlds.
//!
//! The serving writer clones the world, applies a batch and publishes
//! the clone; the clone shares every copy-on-write page the batch does
//! not write. This suite holds a clone at epoch k, drives the live
//! world through every kind of write the sharing must survive, and
//! checks that the held clone still answers exactly like a mirror that
//! was only ever built to epoch k.

use pinocchio::core::Algorithm;
use pinocchio::geo::Point;
use pinocchio::serve::{ShardedWorld, UpdateOp, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OBJECTS: u64 = 300;
const CANDIDATES: u64 = 70;

fn point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0))
}

fn seed_world() -> World {
    let mut rng = StdRng::seed_from_u64(0x0150_1A7E);
    let objects = (0..OBJECTS)
        .map(|id| {
            let n = rng.gen_range(1..8);
            pinocchio::data::MovingObject::new(id, (0..n).map(|_| point(&mut rng)).collect())
        })
        .collect();
    // 70 candidates: two bitmask words per row.
    let candidates = (0..CANDIDATES).map(|_| point(&mut rng)).collect();
    World::from_parts(objects, candidates, 0.7).expect("well-formed seed")
}

/// The update stream: a warm-up prefix (the first `prefix` ops), then
/// every kind of write the held clone must not observe.
fn stream(prefix: usize) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(0xC057);
    let mut ops = Vec::new();
    let mut live_objects: Vec<u64> = (0..OBJECTS).collect();
    let mut live_candidates: Vec<u64> = (0..CANDIDATES).collect();
    let mut next_object = 10_000u64;
    let mut next_candidate = 1_000u64;
    let append = |rng: &mut StdRng, object: u64| UpdateOp::AppendPosition {
        object,
        position: point(rng),
    };
    // The prefix opens with a candidate insert, which builds the object
    // tree over every row, so the appends after it mark indexed rows
    // dirty on both sides of the held clone.
    ops.push(UpdateOp::InsertCandidate {
        candidate: next_candidate,
        location: point(&mut rng),
    });
    next_candidate += 1;
    for _ in 1..prefix {
        let object = live_objects[rng.gen_range(0..live_objects.len())];
        ops.push(append(&mut rng, object));
    }
    // Rows on one page, then rows either side of page boundaries (16
    // rows a page, so 64, 128 and 256 are boundaries too; the shard
    // split only moves them).
    for object in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55] {
        ops.push(append(&mut rng, object));
    }
    for object in [62, 63, 64, 65, 126, 127, 128, 129, 190, 191, 192, 255, 256] {
        ops.push(append(&mut rng, object));
    }
    // Enough scattered appends to dirty more than max(64, live/4) rows
    // of every shard, so the next candidate insert rebuilds the object
    // tree and clears those rows' dirty flags.
    for _ in 0..250 {
        let object = live_objects[rng.gen_range(0..live_objects.len())];
        ops.push(append(&mut rng, object));
    }
    // Object churn: inserts and removes.
    for _ in 0..25 {
        let object = next_object;
        next_object += 1;
        live_objects.push(object);
        ops.push(UpdateOp::InsertObject {
            object,
            positions: (0..rng.gen_range(1..6)).map(|_| point(&mut rng)).collect(),
        });
        let gone = live_objects.swap_remove(rng.gen_range(0..live_objects.len()));
        ops.push(UpdateOp::RemoveObject { object: gone });
    }
    // Candidate churn: removing 45 of 70 leaves more stale tree entries
    // than max(32, live) — a candidate-tree rebuild — and the reinserts
    // reuse the freed slots.
    for _ in 0..45 {
        let gone = live_candidates.swap_remove(rng.gen_range(0..live_candidates.len()));
        ops.push(UpdateOp::RemoveCandidate { candidate: gone });
    }
    for _ in 0..50 {
        let candidate = next_candidate;
        next_candidate += 1;
        live_candidates.push(candidate);
        ops.push(UpdateOp::InsertCandidate {
            candidate,
            location: point(&mut rng),
        });
        let object = live_objects[rng.gen_range(0..live_objects.len())];
        ops.push(append(&mut rng, object));
    }
    ops
}

fn assert_same_answers(held: &ShardedWorld, mirror: &ShardedWorld, label: &str) {
    assert_eq!(
        held.best().unwrap(),
        mirror.best().unwrap(),
        "{label}: best"
    );
    for k in [1, 5, 200] {
        assert_eq!(
            held.top_k(k).unwrap(),
            mirror.top_k(k).unwrap(),
            "{label}: top_k {k}"
        );
    }
    assert_eq!(held.candidate_ids(), mirror.candidate_ids(), "{label}");
    assert_eq!(held.object_ids(), mirror.object_ids(), "{label}");
    for id in mirror.candidate_ids() {
        assert_eq!(
            held.influence_of(id).unwrap(),
            mirror.influence_of(id).unwrap(),
            "{label}: influence_of {id}"
        );
    }
    for algorithm in Algorithm::WITH_EXTENSIONS {
        let got = held.solve(algorithm, 2).unwrap();
        let want = mirror.solve(algorithm, 2).unwrap();
        assert_eq!(got.candidate, want.candidate, "{label}: {algorithm:?}");
        assert_eq!(got.influence, want.influence, "{label}: {algorithm:?}");
        assert_eq!(
            (got.location.x.to_bits(), got.location.y.to_bits()),
            (want.location.x.to_bits(), want.location.y.to_bits()),
            "{label}: {algorithm:?}"
        );
    }
    let a = held.heatmap(32).unwrap();
    let b = mirror.heatmap(32).unwrap();
    assert_eq!(a.frame, b.frame, "{label}: heat-map frame");
    let samples =
        |h: &pinocchio_heatmap::Heatmap| -> Vec<u32> { h.tiles.iter().map(|t| t.sample).collect() };
    assert_eq!(samples(&a), samples(&b), "{label}: heat-map samples");
}

#[test]
fn a_held_clone_answers_like_a_mirror_built_to_its_epoch() {
    let prefix = 40;
    let ops = stream(prefix);
    for shards in [1, 2] {
        let label = format!("{shards} shard(s)");
        let mut live = ShardedWorld::from_world(seed_world(), shards).unwrap();
        let mut mirror = ShardedWorld::from_world(seed_world(), shards).unwrap();
        for op in &ops[..prefix] {
            live.apply(op).unwrap();
            mirror.apply(op).unwrap();
        }
        let held = live.clone();
        for op in &ops[prefix..] {
            live.apply(op).unwrap();
        }
        assert_same_answers(&held, &mirror, &label);
        held.verify_against_static();
        mirror.verify_against_static();

        // The live side, for its part, equals a world that replayed the
        // whole stream without ever being cloned.
        let mut replayed = ShardedWorld::from_world(seed_world(), shards).unwrap();
        for op in &ops {
            replayed.apply(op).unwrap();
        }
        assert_same_answers(&live, &replayed, &label);
        live.verify_against_static();
    }
}
