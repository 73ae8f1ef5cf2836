//! The traced run: replays a workload's seeded world and request
//! sequence in-process, without a socket, through the public functions
//! of each layer, recording a span around every call.
//!
//! Spans are kept in memory and written out when the run ends. Each has
//! a name (`layer.call`), start, end, parent and the id of the request
//! it belongs to; a layer's self time is its spans' durations minus the
//! part their child spans cover. Solver and descent counters are taken
//! at the same call boundaries.

use crate::client::{percentile, Sent};
use crate::gate::build;
use crate::served::Workload;
use crate::world::{GeneratedWorld, Req, TAU};
use pinocchio_core::{
    shard_of, try_solve_sharded_timed, Algorithm, PrimeLs, ShardedPrimeLs, SolveResult, SolveStats,
};
use pinocchio_data::MovingObject;
use pinocchio_geo::Point;
use pinocchio_heatmap::{Heatmap, TopRegion};
use pinocchio_prob::PowerLawPf;
use pinocchio_serve::{
    parse_request, response_ok, Publisher, QueryOp, Request, ServerConfig, ShardedWorld, UpdateOp,
    WireError, World,
};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, or a bare request kind for a root span.
    pub name: &'static str,
    /// The request every span of one request shares.
    pub request: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, from the tracer's origin.
    pub start: Duration,
    /// End, from the tracer's origin.
    pub end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: its name up to the first dot; root
    /// spans (no dot) are the harness's own dispatch.
    pub fn layer(&self) -> &'static str {
        self.name
            .split_once('.')
            .map_or("harness", |(layer, _)| layer)
    }
}

/// An in-memory span recorder with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Opens the root span of a new request.
    fn root(&mut self, name: &'static str) -> usize {
        debug_assert!(self.stack.is_empty(), "roots do not nest");
        self.request += 1;
        self.open(name)
    }

    fn open(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        let index = self.spans.len() - 1;
        self.stack.push(index);
        index
    }

    fn close(&mut self, index: usize) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].end = self.origin.elapsed();
    }

    /// The traced clock: time since the origin.
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Runs `f` off the traced clock: its time shows in no span, the
    /// open ones included. Returns `f`'s result and how long it took.
    fn excluded<R>(&mut self, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let result = f();
        let took = start.elapsed();
        self.origin += took;
        (result, took)
    }

    fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = self.open(name);
        let result = f();
        self.close(index);
        result
    }
}

fn core_span(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::PinocchioVo => "core.vo",
        Algorithm::PinocchioJoin => "core.join",
        Algorithm::Pinocchio => "core.pin",
        Algorithm::Naive => "core.na",
        Algorithm::PinocchioVoStar => "core.vo_star",
    }
}

fn ingest_span(op: &UpdateOp) -> &'static str {
    match op {
        UpdateOp::AppendPosition { .. } => "ingest.append",
        UpdateOp::InsertObject { .. } => "ingest.insert_object",
        UpdateOp::RemoveObject { .. } => "ingest.remove_object",
        UpdateOp::InsertCandidate { .. } => "ingest.insert_candidate",
        UpdateOp::RemoveCandidate { .. } => "ingest.remove_candidate",
    }
}

/// The replay's state: the live world behind the real store, plus one
/// `World` per shard that the freezes read (the served `ShardedWorld`
/// keeps its shard worlds private, so the replay routes updates to its
/// own copies with the same `shard_of`, between traced requests).
struct Replay {
    tracer: Tracer,
    publisher: Publisher<ShardedWorld>,
    shards: Vec<World>,
    threads: usize,
    solves: Vec<SolveStats>,
    descents: Vec<SolveStats>,
    sharded_timings: Vec<(f64, f64)>,
    merges_ms: Vec<f64>,
}

/// A frozen shard: its static problem and the wire id of each
/// candidate index.
type Frozen = (PrimeLs<PowerLawPf>, Vec<u64>);

/// One per-layer metric: name, value (`None` where the layer did no such
/// work in the workload), unit.
pub type Metric = (&'static str, Option<f64>, &'static str);

/// The traced run's results.
pub struct Traced {
    /// Every span, in open order.
    pub spans: Vec<Span>,
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Median root-span duration per metric family (`update` is the
    /// whole epoch its acknowledgement waits for), ms.
    pub root_ms: BTreeMap<&'static str, f64>,
}

fn encode(tracer: &mut Tracer, id: Option<u64>, epoch: u64, body: impl FnOnce() -> Map) -> String {
    tracer.leaf("wire.encode", || response_ok(id, epoch, body()))
}

fn entry_json((candidate, location, influence): (u64, Point, u32)) -> Value {
    json!({"candidate": candidate, "x": location.x, "y": location.y, "influence": influence})
}

/// Solves `problem` the way `World::solve` does at `threads` solver
/// threads: the parallel drivers above one thread, the sequential
/// solver otherwise and for PIN-VO*, which has no parallel driver.
fn solve_as_served(
    problem: &PrimeLs<PowerLawPf>,
    algorithm: Algorithm,
    threads: usize,
) -> Result<SolveResult, String> {
    let result = match (algorithm, threads.max(1)) {
        (Algorithm::Naive, t) if t > 1 => pinocchio_core::solve_naive_par(problem, t),
        (Algorithm::Pinocchio, t) if t > 1 => pinocchio_core::solve_pinocchio_par(problem, t),
        (Algorithm::PinocchioVo, t) if t > 1 => {
            pinocchio_core::try_solve_vo_par(problem, t).map_err(|e| e.to_string())?
        }
        (Algorithm::PinocchioJoin, t) if t > 1 => {
            pinocchio_core::join::try_solve_par(problem, t).map_err(|e| e.to_string())?
        }
        (algo, _) => problem.solve(algo),
    };
    Ok(result)
}

/// A fresh server's state for the replay, as `set_up` builds it: the
/// world from `World::from_parts`, partitioned, behind a publisher, plus
/// the replay's own shard copies.
fn boot(
    tracer: &mut Tracer,
    world: &GeneratedWorld,
    shard_count: usize,
) -> Result<(Publisher<ShardedWorld>, Vec<World>), String> {
    let root = tracer.root("setup");
    let objects = world.objects.clone();
    let candidates = world.candidates.clone();
    let seed = tracer
        .leaf("ingest.bootstrap", || {
            World::from_parts(objects, candidates, TAU)
        })
        .map_err(|e| e.to_string())?;
    let copy = seed.clone();
    let sharded = tracer
        .leaf("shard.partition", || {
            ShardedWorld::from_world(copy, shard_count)
        })
        .map_err(|e| e.to_string())?;
    tracer.close(root);
    let (publisher, _reader) = Publisher::new(sharded);
    if shard_count == 1 {
        return Ok((publisher, vec![seed]));
    }
    let mut shards = vec![World::new(TAU); shard_count];
    for (id, location, _) in seed.live_influences().map_err(|e| e.to_string())? {
        let op = UpdateOp::InsertCandidate {
            candidate: id,
            location,
        };
        for shard in &mut shards {
            shard.apply(&op).map_err(|e| e.to_string())?;
        }
    }
    for object in seed.snapshot_objects() {
        let op = UpdateOp::InsertObject {
            object: object.id(),
            positions: object.positions().to_vec(),
        };
        shards[shard_of(object.id(), shard_count)]
            .apply(&op)
            .map_err(|e| e.to_string())?;
    }
    Ok((publisher, shards))
}

impl Replay {
    fn new(world: &GeneratedWorld, shard_count: usize) -> Result<Replay, String> {
        let mut tracer = Tracer::new();
        let (publisher, shards) = boot(&mut tracer, world, shard_count)?;
        Ok(Replay {
            tracer,
            publisher,
            shards,
            threads: ServerConfig::default().solve_threads,
            solves: Vec::new(),
            descents: Vec::new(),
            sharded_timings: Vec::new(),
            merges_ms: Vec::new(),
        })
    }

    /// Starts over on a fresh server, keeping the spans and counts.
    fn reboot(&mut self, world: &GeneratedWorld, shard_count: usize) -> Result<(), String> {
        (self.publisher, self.shards) = boot(&mut self.tracer, world, shard_count)?;
        Ok(())
    }

    /// One published epoch, numbered `served` in the served run: clone
    /// the live world, apply the batch in order, publish. The shard
    /// copies follow after the epoch's span has closed.
    fn epoch(&mut self, served: u64, batch: &[&Sent]) -> Result<(), String> {
        let root = self.tracer.root("epoch");
        let current = self.publisher.current();
        let mut next = self.tracer.leaf("store.clone", || current.state.clone());
        let epoch = current.epoch + 1;
        drop(current);
        if epoch != served {
            return Err(format!(
                "replayed epoch {epoch} was epoch {served} when served"
            ));
        }
        let mut ops = Vec::with_capacity(batch.len());
        for sent in batch {
            let update = self.tracer.open("update");
            let request = self.tracer.leaf("wire.parse", || parse_request(&sent.line));
            let Ok(Request::Update { id, op }) = request else {
                return Err(format!("replayed update does not parse: {}", sent.line));
            };
            self.tracer
                .leaf(ingest_span(&op), || next.apply(&op))
                .map_err(|e| format!("replayed update failed: {e}: {}", sent.line))?;
            encode(&mut self.tracer, id, epoch, || {
                let mut body = Map::new();
                body.insert("applied".to_string(), json!(true));
                body
            });
            self.tracer.close(update);
            ops.push(op);
        }
        self.tracer
            .leaf("store.publish", || self.publisher.publish(next));
        self.tracer.close(root);
        let n = self.shards.len();
        for op in &ops {
            match op {
                UpdateOp::InsertObject { object, .. }
                | UpdateOp::AppendPosition { object, .. }
                | UpdateOp::RemoveObject { object } => self.shards[shard_of(*object, n)].apply(op),
                UpdateOp::InsertCandidate { .. } | UpdateOp::RemoveCandidate { .. } => {
                    self.shards.iter_mut().try_for_each(|shard| shard.apply(op))
                }
            }
            .map_err(|e| format!("replayed update failed on a shard copy: {e}"))?;
        }
        Ok(())
    }

    /// Freezes shard `i` and builds its static problem; `None` for a
    /// shard without objects.
    fn freeze(&mut self, i: usize) -> Result<Option<Frozen>, String> {
        let shard = &self.shards[i];
        if shard.object_count() == 0 {
            return Ok(None);
        }
        let (objects, live): (Vec<MovingObject>, _) =
            self.tracer.leaf("dynamic.freeze_copy", || {
                (shard.snapshot_objects(), shard.live_influences())
            });
        let live = live.map_err(|e| e.to_string())?;
        let ids = live.iter().map(|&(id, _, _)| id).collect();
        let candidates = live.into_iter().map(|(_, p, _)| p).collect();
        let problem = self
            .tracer
            .leaf("problem.build", || build(objects, candidates, TAU))?;
        Ok(Some((problem, ids)))
    }

    /// One query that read epoch `served` in the served run.
    fn query(&mut self, served: u64, sent: &Sent) -> Result<(), String> {
        let root = self.tracer.root(sent.req.family());
        let request = self.tracer.leaf("wire.parse", || parse_request(&sent.line));
        let Ok(Request::Query { id, op }) = request else {
            return Err(format!("replayed query does not parse: {}", sent.line));
        };
        let snapshot = self.publisher.current();
        let epoch = snapshot.epoch;
        if epoch != served {
            return Err(format!(
                "replayed query read epoch {epoch}, served {served}"
            ));
        }
        let live = &snapshot.state;
        match op {
            QueryOp::Best | QueryOp::TopK { .. } | QueryOp::InfluenceOf { .. } => {
                let body = self.tracer.leaf("ingest.read", || -> Result<Map, String> {
                    let mut body = Map::new();
                    match op {
                        QueryOp::Best => {
                            let best = live.best().map_err(|e| e.to_string())?;
                            let (c, p, i) = best.ok_or("no live candidates")?;
                            body.insert("candidate".to_string(), json!(c));
                            body.insert("x".to_string(), json!(p.x));
                            body.insert("y".to_string(), json!(p.y));
                            body.insert("influence".to_string(), json!(i));
                        }
                        QueryOp::TopK { k } => {
                            let entries = live.top_k(k).map_err(|e| e.to_string())?;
                            let rendered = entries.into_iter().map(entry_json).collect();
                            body.insert("entries".to_string(), Value::Array(rendered));
                        }
                        QueryOp::InfluenceOf { candidate } => {
                            let i = live.influence_of(candidate).map_err(|e| e.to_string())?;
                            body.insert("candidate".to_string(), json!(candidate));
                            body.insert("influence".to_string(), json!(i));
                        }
                        _ => unreachable!("matched above"),
                    }
                    Ok(body)
                })?;
                encode(&mut self.tracer, id, epoch, || body);
            }
            QueryOp::Solve { algorithm } => {
                let best = live
                    .best()
                    .map_err(|e| e.to_string())?
                    .ok_or("no candidates")?;
                let (winner, influence) = self.solve(algorithm)?;
                if (winner, influence) != (best.0, best.2) {
                    return Err(format!(
                        "replayed {algorithm:?} solve picked {winner} ({influence}), best is {best:?}"
                    ));
                }
                encode(&mut self.tracer, id, epoch, || {
                    let mut body = Map::new();
                    body.insert("algorithm".to_string(), json!(format!("{algorithm:?}")));
                    body.insert("candidate".to_string(), json!(winner));
                    body.insert("x".to_string(), json!(best.1.x));
                    body.insert("y".to_string(), json!(best.1.y));
                    body.insert("influence".to_string(), json!(influence));
                    body.insert("shared".to_string(), json!(false));
                    body
                });
            }
            QueryOp::TopRegion { k, resolution } => {
                let region = if self.shards.len() == 1 {
                    self.top_region(k, resolution)?
                } else {
                    self.sharded("shard.top_region", resolution, || {
                        live.top_region(k, resolution)
                    })?
                };
                encode(&mut self.tracer, id, epoch, || {
                    let rendered = region
                        .cells
                        .iter()
                        .map(|c| {
                            json!({"tile": c.tile, "x": c.center.x, "y": c.center.y, "influence": c.influence})
                        })
                        .collect();
                    let mut body = Map::new();
                    body.insert("op".to_string(), json!("top_region"));
                    body.insert("resolution".to_string(), json!(region.resolution));
                    body.insert("cells".to_string(), Value::Array(rendered));
                    body
                });
            }
            QueryOp::Heatmap { resolution } => {
                let map = if self.shards.len() == 1 {
                    self.heatmap(resolution)?
                } else {
                    self.sharded("shard.heatmap", resolution, || live.heatmap(resolution))?
                };
                let chunks = map.tiles.chunks(pinocchio_serve::wire::TILES_PER_BATCH);
                let batches = chunks.len();
                for (i, chunk) in chunks.enumerate() {
                    encode(&mut self.tracer, id, epoch, || {
                        let rendered = chunk
                            .iter()
                            .map(|t| json!([t.lo, t.hi, t.sample]))
                            .collect();
                        let mut body = Map::new();
                        body.insert("op".to_string(), json!("heatmap"));
                        body.insert(
                            "offset".to_string(),
                            json!(i * pinocchio_serve::wire::TILES_PER_BATCH),
                        );
                        body.insert("tiles".to_string(), Value::Array(rendered));
                        body
                    });
                }
                let frame = map.frame;
                encode(&mut self.tracer, id, epoch, || {
                    let mut body = Map::new();
                    body.insert("op".to_string(), json!("heatmap"));
                    body.insert("done".to_string(), json!(true));
                    body.insert("resolution".to_string(), json!(map.resolution));
                    body.insert(
                        "frame".to_string(),
                        json!([frame.lo().x, frame.lo().y, frame.hi().x, frame.hi().y]),
                    );
                    body.insert("tiles_total".to_string(), json!(map.tiles.len()));
                    body.insert("batches".to_string(), json!(batches));
                    body
                });
            }
            QueryOp::Stats | QueryOp::Ping => {
                return Err("the replay sends no control queries".into())
            }
        }
        drop(snapshot);
        self.tracer.close(root);
        Ok(())
    }

    /// A from-scratch solve, dispatched as the server dispatches it;
    /// returns the winner's wire id and influence.
    fn solve(&mut self, algorithm: Algorithm) -> Result<(u64, u32), String> {
        let threads = self.threads;
        if self.shards.len() == 1 {
            let (problem, ids) = self.freeze(0)?.ok_or("no objects")?;
            let result = self.tracer.leaf(core_span(algorithm), || {
                solve_as_served(&problem, algorithm, threads)
            })?;
            self.solves.push(result.stats);
            return Ok((ids[result.best_candidate], result.max_influence));
        }
        let outer = self.tracer.open("shard.solve");
        let mut problems = Vec::new();
        let mut ids = None;
        for i in 0..self.shards.len() {
            let frozen = self.freeze(i)?;
            problems.push(frozen.map(|(problem, shard_ids)| {
                ids.get_or_insert(shard_ids);
                problem
            }));
        }
        let ids: Vec<u64> = ids.ok_or("no shard owns an object")?;
        let sharded = ShardedPrimeLs::from_problems(problems).map_err(|e| e.to_string())?;
        let (result, timings) = self
            .tracer
            .leaf(core_span(algorithm), || {
                try_solve_sharded_timed(&sharded, algorithm, threads)
            })
            .map_err(|e| e.to_string())?;
        self.tracer.close(outer);
        let slowest = timings.prepare_seconds.iter().copied().fold(0.0, f64::max);
        self.sharded_timings
            .push((slowest * 1e3, timings.coordinator_seconds * 1e3));
        self.solves.push(result.stats);
        Ok((ids[result.best_candidate], result.max_influence))
    }

    /// A sharded heat map or region. The parts `ShardedWorld` runs are
    /// traced under `span`: each shard's freeze and its descent over the
    /// global frame. Then the program's own call (`answer`) runs off the
    /// traced clock and answers; its time minus the parts' is the merge.
    fn sharded<R>(
        &mut self,
        span: &'static str,
        resolution: u32,
        answer: impl FnOnce() -> Result<R, WireError>,
    ) -> Result<R, String> {
        let outer = self.tracer.open(span);
        let start = self.tracer.now();
        let mut problems = Vec::new();
        for i in 0..self.shards.len() {
            if let Some((problem, _)) = self.freeze(i)? {
                problems.push(problem);
            }
        }
        let frame = problems
            .iter()
            .filter_map(|p| p.object_tree().bounds())
            .reduce(|a, b| a.union(&b))
            .ok_or("empty frame")?;
        for problem in &problems {
            let partial = self
                .tracer
                .leaf("heatmap.descent", || {
                    pinocchio_heatmap::try_heatmap(problem, resolution, Some(frame))
                })
                .map_err(|e| e.to_string())?;
            self.descents.push(partial.stats);
        }
        let parts = self.tracer.now() - start;
        self.tracer.close(outer);
        // Freed first, so the program's freezes allocate under the same
        // conditions the replay's did.
        drop(problems);
        let (result, whole) = self.tracer.excluded(answer);
        self.merges_ms
            .push((whole.as_secs_f64() - parts.as_secs_f64()) * 1e3);
        result.map_err(|e| e.to_string())
    }

    fn heatmap(&mut self, resolution: u32) -> Result<Heatmap, String> {
        let (problem, _) = self.freeze(0)?.ok_or("no objects")?;
        let map = self
            .tracer
            .leaf("heatmap.descent", || {
                pinocchio_heatmap::try_heatmap(&problem, resolution, None)
            })
            .map_err(|e| e.to_string())?;
        self.descents.push(map.stats);
        Ok(map)
    }

    fn top_region(&mut self, k: usize, resolution: u32) -> Result<TopRegion, String> {
        let (problem, _) = self.freeze(0)?.ok_or("no objects")?;
        let region = self
            .tracer
            .leaf("heatmap.top_region", || {
                pinocchio_heatmap::try_top_region(&problem, k, resolution, None)
            })
            .map_err(|e| e.to_string())?;
        self.descents.push(region.stats);
        Ok(region)
    }
}

/// Replays `records`, every request each replayed server answered, one
/// server after another from a fresh world. Within a server the requests
/// run in the order of the epochs their replies echoed: each epoch's
/// updates as one published batch, then the queries that read that
/// epoch. Traffic queries stop once they have taken `budget` in all;
/// updates and probe queries always run, so the probe meets the world it
/// met when served.
pub fn replay(
    workload: Workload,
    world: &GeneratedWorld,
    records: &[Vec<Sent>],
    budget: Duration,
) -> Result<Traced, String> {
    let mut replay = Replay::new(world, workload.shards())?;
    let mut traffic = Duration::ZERO;
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            replay.reboot(world, workload.shards())?;
        }
        let mut order: Vec<(u64, &Sent)> = record
            .iter()
            .filter_map(|sent| sent.epoch.map(|epoch| (epoch, sent)))
            .collect();
        order.sort_by_key(|&(epoch, sent)| (epoch, sent.req != Req::Update));
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let epoch = group[0].0;
            let batch: Vec<&Sent> = group
                .iter()
                .map(|&(_, sent)| sent)
                .take_while(|sent| sent.req == Req::Update)
                .collect();
            if !batch.is_empty() {
                replay.epoch(epoch, &batch)?;
            }
            for &(_, sent) in &group[batch.len()..] {
                if sent.probe {
                    replay.query(epoch, sent)?;
                } else if traffic < budget {
                    let start = Instant::now();
                    replay.query(epoch, sent)?;
                    traffic += start.elapsed();
                }
            }
        }
    }
    Ok(summarise(replay))
}

fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

fn mean(total: u64, n: usize) -> Option<f64> {
    (n > 0).then(|| total as f64 / n as f64)
}

fn summarise(replay: Replay) -> Traced {
    let spans = replay.tracer.spans;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    // Self time: each span's duration minus its children's.
    let mut child = vec![Duration::ZERO; spans.len()];
    for span in &spans {
        if let Some(parent) = span.parent {
            child[parent] += span.duration();
        }
    }
    let mut layer_self: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (i, span) in spans.iter().enumerate() {
        let own = ms(span.duration().saturating_sub(child[i]));
        *layer_self.entry(span.layer()).or_default() += own;
        total += own;
    }

    // Root class of every request, and per-request time per span name.
    let mut root_of: BTreeMap<u64, &'static str> = BTreeMap::new();
    let mut per_request: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in &spans {
        if span.parent.is_none() {
            root_of.insert(span.request, span.name);
        }
        *per_request.entry((span.name, span.request)).or_default() += ms(span.duration());
        by_name
            .entry(span.name)
            .or_default()
            .push(ms(span.duration()));
    }
    // Median over the requests whose root is one of `roots` of the time
    // spent in spans whose name starts with `prefix`.
    let within = |roots: &[&str], prefix: &str| -> Option<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for (&(name, request), &t) in &per_request {
            let root = root_of.get(&request).copied().unwrap_or("");
            if name.starts_with(prefix) && roots.contains(&root) {
                *sums.entry(request).or_default() += t;
            }
        }
        median(&sums.into_values().collect::<Vec<_>>())
    };
    let freezing = ["solve", "region", "heatmap"];
    let named = |name: &str| by_name.get(name).and_then(|v| median(v));
    let us = |name: &str| named(name).map(|ms| ms * 1e3);

    let mut root_ms = BTreeMap::new();
    for (family, root) in [
        ("update", "epoch"),
        ("read", "read"),
        ("solve", "solve"),
        ("region", "region"),
        ("heatmap", "heatmap"),
    ] {
        if let Some(v) = by_name.get(root).and_then(|v| median(v)) {
            root_ms.insert(family, v);
        }
    }

    let mut solve_total = SolveStats::default();
    for stats in &replay.solves {
        solve_total += *stats;
    }
    let solves = replay.solves.len();
    let mut descent_total = SolveStats::default();
    for stats in &replay.descents {
        descent_total += *stats;
    }
    let descents = replay.descents.len();
    let epochs_store: Vec<f64> = {
        let clones = by_name.get("store.clone").cloned().unwrap_or_default();
        let publishes = by_name.get("store.publish").cloned().unwrap_or_default();
        clones.iter().zip(&publishes).map(|(c, p)| c + p).collect()
    };
    let prepare: Vec<f64> = replay.sharded_timings.iter().map(|t| t.0).collect();
    let coordinator: Vec<f64> = replay.sharded_timings.iter().map(|t| t.1).collect();
    let decided = solve_total.decided_by_ia + solve_total.decided_by_nib;
    let share = |part: u64, whole: u64| (whole > 0).then(|| part as f64 / whole as f64);

    let mut metrics = vec![
        ("wire.parse_us", us("wire.parse"), "us"),
        ("wire.encode_us", us("wire.encode"), "us"),
        ("store.clone_ms", median(&epochs_store), "ms"),
        ("ingest.append_us", us("ingest.append"), "us"),
        ("ingest.insert_object_us", us("ingest.insert_object"), "us"),
        ("ingest.remove_object_us", us("ingest.remove_object"), "us"),
        (
            "ingest.insert_candidate_us",
            us("ingest.insert_candidate"),
            "us",
        ),
        (
            "ingest.remove_candidate_us",
            us("ingest.remove_candidate"),
            "us",
        ),
        (
            "dynamic.freeze_copy_ms",
            within(&freezing, "dynamic.freeze_copy"),
            "ms",
        ),
        ("problem.build_ms", within(&freezing, "problem.build"), "ms"),
        ("core.vo_ms", named("core.vo"), "ms"),
        ("core.join_ms", named("core.join"), "ms"),
        ("core.pin_ms", named("core.pin"), "ms"),
        (
            "core.ia_pairs",
            mean(solve_total.decided_by_ia, solves),
            "count",
        ),
        (
            "core.nib_pairs",
            mean(solve_total.decided_by_nib, solves),
            "count",
        ),
        (
            "core.validated_pairs",
            mean(solve_total.validated_pairs, solves),
            "count",
        ),
        (
            "core.pruned_share",
            share(decided, solve_total.accounted_pairs()),
            "ratio",
        ),
        (
            "prob.positions_evaluated",
            mean(solve_total.positions_evaluated, solves),
            "count",
        ),
        (
            "prob.evals_per_validated_pair",
            share(solve_total.positions_evaluated, solve_total.validated_pairs),
            "ratio",
        ),
        (
            "prob.log_band_fallbacks",
            mean(solve_total.log_band_fallbacks, solves),
            "count",
        ),
        ("heatmap.descent_ms", within(&["heatmap"], "heatmap."), "ms"),
        (
            "heatmap.top_region_ms",
            within(&["region"], "heatmap."),
            "ms",
        ),
        (
            "heatmap.cells_refined",
            mean(descent_total.cells_refined, descents),
            "count",
        ),
        (
            "heatmap.cells_resolved",
            mean(
                descent_total.cells_resolved_ia + descent_total.cells_resolved_nib,
                descents,
            ),
            "count",
        ),
        (
            "heatmap.validated_pairs",
            mean(descent_total.validated_pairs, descents),
            "count",
        ),
        ("shard.partition_ms", named("shard.partition"), "ms"),
        ("shard.prepare_max_ms", median(&prepare), "ms"),
        ("shard.coordinator_ms", median(&coordinator), "ms"),
        ("shard.merge_ms", median(&replay.merges_ms), "ms"),
    ];
    for layer in [
        "wire", "store", "ingest", "dynamic", "problem", "core", "heatmap", "shard", "harness",
    ] {
        let own = layer_self.get(layer).copied().unwrap_or(0.0);
        let name: &'static str = match layer {
            "wire" => "wire.self_share",
            "store" => "store.self_share",
            "ingest" => "ingest.self_share",
            "dynamic" => "dynamic.self_share",
            "problem" => "problem.self_share",
            "core" => "core.self_share",
            "heatmap" => "heatmap.self_share",
            "shard" => "shard.self_share",
            _ => "harness.self_share",
        };
        metrics.push((name, (total > 0.0).then(|| own / total), "ratio"));
    }
    Traced {
        spans,
        metrics,
        root_ms,
    }
}

/// Writes the spans as one JSON document:
/// `[index, name, request, parent (-1 = root), start_us, end_us]` rows.
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    write!(out, "{{{header},\"columns\":[\"index\",\"name\",\"request\",\"parent\",\"start_us\",\"end_us\"],\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "[{i},\"{}\",{},{parent},{:.3},{:.3}]",
            s.name,
            s.request,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}
