//! Seeded worlds and seeded traffic.
//!
//! Everything the program receives — the initial objects and
//! candidates, every update and every query line — is a pure function
//! of the workload seed (the worlds themselves are fixed), so an
//! end-to-end run and a traced replay of the same seed see the same
//! world and the same request sequence.

use pinocchio_data::{sample_candidate_group, GeneratorConfig, MovingObject, SyntheticGenerator};
use pinocchio_geo::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Influence threshold τ of both worlds (the paper's default).
pub const TAU: f64 = 0.7;

/// The two world shapes the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldKind {
    /// World S: many objects with few positions each, spread so thin
    /// that pruning decides nearly every pair.
    Sparse,
    /// World D: the Foursquare-calibrated dataset at paper scale; validation
    /// dominates every solve.
    Dense,
}

/// Size knobs of a world. `full` is the measured scale; `smoke` is a
/// tiny world that runs the same code paths in well under a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// World S object count.
    pub sparse_objects: usize,
    /// World S frame side, km.
    pub sparse_frame_km: f64,
    /// World S candidate count.
    pub sparse_candidates: usize,
    /// World D user count (`None`: the calibrated 2 321).
    pub dense_users: Option<usize>,
    /// World D candidate count.
    pub dense_candidates: usize,
}

impl Scale {
    /// The scale the benchmark measures.
    pub fn full() -> Scale {
        Scale {
            sparse_objects: 100_000,
            sparse_frame_km: 400.0,
            sparse_candidates: 60,
            dense_users: None,
            dense_candidates: 600,
        }
    }

    /// A tiny world for the smoke mode.
    pub fn smoke() -> Scale {
        Scale {
            sparse_objects: 400,
            sparse_frame_km: 40.0,
            sparse_candidates: 12,
            dense_users: Some(60),
            dense_candidates: 40,
        }
    }
}

/// A generated world: what the program is handed, plus the per-object
/// anchor the traffic generator draws new positions around.
#[derive(Debug, Clone)]
pub struct GeneratedWorld {
    /// Initial objects (wire id = `MovingObject::id`).
    pub objects: Vec<MovingObject>,
    /// Initial candidates (wire ids `0..candidates.len()`).
    pub candidates: Vec<Point>,
    /// `(object id, anchor)` for every initial object.
    pub anchors: Vec<(u64, Point)>,
    /// Frame the candidates and new objects are drawn from.
    pub frame: (f64, f64),
    /// Half-width of the square new positions are drawn in, km.
    pub spread_km: f64,
}

/// Power-law position count: Pareto with `x_min = 3` and the exponent
/// that puts the median at 5, capped at 200 (the heavy tail of real
/// check-in counts, cf. the `SPT_COUNTS` sampling of the C++ exemplar).
fn position_count(rng: &mut StdRng) -> usize {
    const X_MIN: f64 = 3.0;
    const CAP: usize = 200;
    // median = x_min · 2^(1/α) = 5  ⇒  α = ln 2 / ln(5/3).
    let alpha = std::f64::consts::LN_2 / (5.0f64 / 3.0).ln();
    let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
    let n = (X_MIN * u.powf(-1.0 / alpha)).floor();
    if n >= CAP as f64 {
        CAP
    } else {
        n as usize
    }
}

fn jitter(rng: &mut StdRng, centre: Point, spread: f64) -> Point {
    Point::new(
        centre.x + rng.gen_range(-spread..spread),
        centre.y + rng.gen_range(-spread..spread),
    )
}

fn sparse_object(rng: &mut StdRng, id: u64, frame: f64) -> (MovingObject, Point) {
    let centre = Point::new(rng.gen_range(0.0..frame), rng.gen_range(0.0..frame));
    let n = position_count(rng);
    let positions = (0..n).map(|_| jitter(rng, centre, 1.0)).collect();
    (MovingObject::new(id, positions), centre)
}

/// The seed every world is generated from. The worlds are fixed, as the
/// paper's datasets are, and the workload seed drives the traffic: with
/// a world regenerated per seed, `explore`'s latencies moved by up to 15%
/// between seeds (the candidate group sets how much validation every
/// solve does), against 3% between runs of one seed.
const WORLD_SEED: u64 = 0x5157_4f52_4c44;

/// Generates world S or D at `scale`.
pub fn generate(kind: WorldKind, scale: &Scale) -> GeneratedWorld {
    let mut rng = StdRng::seed_from_u64(WORLD_SEED);
    match kind {
        WorldKind::Sparse => {
            let frame = scale.sparse_frame_km;
            let mut objects = Vec::with_capacity(scale.sparse_objects);
            let mut anchors = Vec::with_capacity(scale.sparse_objects);
            for id in 0..scale.sparse_objects as u64 {
                let (object, centre) = sparse_object(&mut rng, id, frame);
                objects.push(object);
                anchors.push((id, centre));
            }
            let candidates = (0..scale.sparse_candidates)
                .map(|_| Point::new(rng.gen_range(0.0..frame), rng.gen_range(0.0..frame)))
                .collect();
            GeneratedWorld {
                objects,
                candidates,
                anchors,
                frame: (frame, frame),
                spread_km: 1.0,
            }
        }
        WorldKind::Dense => {
            let mut config = GeneratorConfig::foursquare_like();
            if let Some(users) = scale.dense_users {
                config.n_users = users;
                config.n_venues = users * 3;
            }
            let frame = (config.frame_width_km, config.frame_height_km);
            let dataset = SyntheticGenerator::new(config).generate();
            let (_, candidates) =
                sample_candidate_group(&dataset, scale.dense_candidates, rng.gen());
            let objects = dataset.objects().to_vec();
            let anchors = objects.iter().map(|o| (o.id(), o.positions()[0])).collect();
            GeneratedWorld {
                objects,
                candidates,
                anchors,
                frame,
                spread_km: 0.5,
            }
        }
    }
}

/// The update kinds of the feed mix.
enum Kind {
    Append,
    InsertObject,
    RemoveObject,
    InsertCandidate,
    RemoveCandidate,
}

/// The seeded update stream. It tracks the live sets its own updates
/// produce, so every update it emits succeeds when applied in order:
/// appends and removals name live objects, inserts use fresh ids, and
/// only candidates the stream inserted itself are ever removed (the
/// initial candidates stay live, so `influence_of` on them never fails).
pub struct UpdateStream {
    rng: StdRng,
    live: Vec<(u64, Point)>,
    next_object: u64,
    stream_candidates: Vec<u64>,
    next_candidate: u64,
    frame: (f64, f64),
    spread: f64,
    append_only: bool,
}

impl UpdateStream {
    /// The feed mix (~90 % appends, ~8 % object inserts/removes, ~2 %
    /// candidate inserts/removes) or, with `append_only`, appends only.
    pub fn new(world: &GeneratedWorld, seed: u64, append_only: bool) -> UpdateStream {
        let next_object = world
            .objects
            .iter()
            .map(|o| o.id())
            .max()
            .map_or(0, |m| m + 1);
        UpdateStream {
            rng: StdRng::seed_from_u64(seed ^ 0x5550_4441_5445),
            live: world.anchors.clone(),
            next_object,
            stream_candidates: Vec::new(),
            next_candidate: world.candidates.len() as u64,
            frame: world.frame,
            spread: world.spread_km,
            append_only,
        }
    }

    /// The next update and its request line (`id` is the correlation id).
    pub fn next_line(&mut self, id: u64) -> String {
        let roll: f64 = self.rng.gen();
        let kind = if self.append_only || roll < 0.90 {
            Kind::Append
        } else if roll < 0.98 {
            if self.rng.gen_bool(0.5) || self.live.len() < 2 {
                Kind::InsertObject
            } else {
                Kind::RemoveObject
            }
        } else if self.stream_candidates.is_empty() || self.rng.gen_bool(0.5) {
            Kind::InsertCandidate
        } else {
            Kind::RemoveCandidate
        };
        let line = match kind {
            Kind::Append => {
                let i = self.rng.gen_range(0..self.live.len());
                let (object, anchor) = self.live[i];
                let p = jitter(&mut self.rng, anchor, self.spread);
                format!(
                    r#"{{"v":1,"id":{id},"op":"append_position","object":{object},"x":{},"y":{}}}"#,
                    p.x, p.y
                )
            }
            Kind::InsertObject => {
                let object = self.next_object;
                self.next_object += 1;
                let centre = Point::new(
                    self.rng.gen_range(0.0..self.frame.0),
                    self.rng.gen_range(0.0..self.frame.1),
                );
                let n = position_count(&mut self.rng);
                let positions: Vec<String> = (0..n)
                    .map(|_| {
                        let p = jitter(&mut self.rng, centre, self.spread);
                        format!("[{},{}]", p.x, p.y)
                    })
                    .collect();
                self.live.push((object, centre));
                format!(
                    r#"{{"v":1,"id":{id},"op":"insert_object","object":{object},"positions":[{}]}}"#,
                    positions.join(",")
                )
            }
            Kind::RemoveObject => {
                let i = self.rng.gen_range(0..self.live.len());
                let (object, _) = self.live.swap_remove(i);
                format!(r#"{{"v":1,"id":{id},"op":"remove_object","object":{object}}}"#)
            }
            Kind::InsertCandidate => {
                let candidate = self.next_candidate;
                self.next_candidate += 1;
                self.stream_candidates.push(candidate);
                let x = self.rng.gen_range(0.0..self.frame.0);
                let y = self.rng.gen_range(0.0..self.frame.1);
                format!(
                    r#"{{"v":1,"id":{id},"op":"insert_candidate","candidate":{candidate},"x":{x},"y":{y}}}"#
                )
            }
            Kind::RemoveCandidate => {
                let i = self.rng.gen_range(0..self.stream_candidates.len());
                let candidate = self.stream_candidates.swap_remove(i);
                format!(r#"{{"v":1,"id":{id},"op":"remove_candidate","candidate":{candidate}}}"#)
            }
        };
        line
    }
}

/// The seeded maintained-read rotation: `best`, `top_k` (k 1–10),
/// `influence_of` on an initial candidate.
pub struct ReadStream {
    rng: StdRng,
    turn: usize,
    candidates: u64,
}

impl ReadStream {
    /// Reads over the `candidates` initial candidate ids.
    pub fn new(seed: u64, candidates: usize) -> ReadStream {
        ReadStream {
            rng: StdRng::seed_from_u64(seed ^ 0x5245_4144),
            turn: 0,
            candidates: candidates as u64,
        }
    }

    /// The next read's request line.
    pub fn next_line(&mut self, id: u64) -> String {
        self.turn += 1;
        match self.turn % 3 {
            1 => format!(r#"{{"v":1,"id":{id},"op":"best"}}"#),
            2 => {
                let k = self.rng.gen_range(1..=10u32);
                format!(r#"{{"v":1,"id":{id},"op":"top_k","k":{k}}}"#)
            }
            _ => {
                let c = self.rng.gen_range(0..self.candidates);
                format!(r#"{{"v":1,"id":{id},"op":"influence_of","candidate":{c}}}"#)
            }
        }
    }
}

/// One request kind of a workload, rendered to a line on demand so the
/// served run and the traced replay draw the same sequence. Latency
/// samples are kept per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Req {
    /// The next update of the update stream.
    Update,
    /// The next maintained read of the read rotation.
    Read,
    /// A `solve` with the named algorithm.
    Solve(&'static str),
    /// A `top_region`.
    Region,
    /// A streamed `heatmap`.
    Heatmap,
}

impl Req {
    /// The metric family the kind reports under.
    pub fn family(self) -> &'static str {
        match self {
            Req::Update => "update",
            Req::Read => "read",
            Req::Solve(_) => "solve",
            Req::Region => "region",
            Req::Heatmap => "heatmap",
        }
    }

    /// Renders the request with correlation id `id`, drawing updates and
    /// reads from the given streams.
    ///
    /// # Panics
    /// If the kind needs a stream that is not given.
    pub fn line(
        self,
        id: u64,
        updates: Option<&mut UpdateStream>,
        reads: Option<&mut ReadStream>,
    ) -> String {
        match self {
            Req::Update => updates.expect("an update stream").next_line(id),
            Req::Read => reads.expect("a read stream").next_line(id),
            Req::Solve(algo) => solve_line(id, algo),
            Req::Region => region_line(id),
            Req::Heatmap => heatmap_line(id),
        }
    }
}

/// Heat-map resolution of every `heatmap` and `top_region` request.
pub const RESOLUTION: u32 = 32;
/// `k` of every `top_region` request.
pub const REGION_K: usize = 10;

/// Request line of a `solve` with the CLI spelling of `algo`.
pub fn solve_line(id: u64, algo: &str) -> String {
    format!(r#"{{"v":1,"id":{id},"op":"solve","algo":"{algo}"}}"#)
}

/// Request line of the workloads' `top_region`.
pub fn region_line(id: u64) -> String {
    format!(r#"{{"v":1,"id":{id},"op":"top_region","k":{REGION_K},"resolution":{RESOLUTION}}}"#)
}

/// Request line of the workloads' streamed `heatmap`.
pub fn heatmap_line(id: u64) -> String {
    format!(r#"{{"v":1,"id":{id},"op":"heatmap","resolution":{RESOLUTION}}}"#)
}

/// Summary of position counts: `(mean, p99)`.
pub fn positions_summary<'a>(counts: impl Iterator<Item = &'a MovingObject>) -> (f64, usize) {
    let mut n: Vec<usize> = counts.map(MovingObject::position_count).collect();
    if n.is_empty() {
        return (0.0, 0);
    }
    n.sort_unstable();
    let mean = n.iter().sum::<usize>() as f64 / n.len() as f64;
    let p99 = n[((n.len() - 1) as f64 * 0.99).round() as usize];
    (mean, p99)
}
