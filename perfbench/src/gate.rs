//! The exactness gate: after the load drains, the server's answers must
//! bit-match a mirror world built by passing every acknowledged update
//! through `World::apply`, and its counters must satisfy the
//! `ServeStats` accounting identity.

use crate::client::{Conn, Sent};
use crate::world::{self, GeneratedWorld, Req, REGION_K, RESOLUTION, TAU};
use pinocchio_core::{Algorithm, PrimeLs, SolveStats};
use pinocchio_prob::PowerLawPf;
use pinocchio_serve::{parse_request, Request, ServeStats, World};
use serde_json::Value;

/// What the gate measured about the final world.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Live objects.
    pub objects: usize,
    /// Positions per object: mean.
    pub positions_mean: f64,
    /// Positions per object: p99.
    pub positions_p99: usize,
    /// Live candidates.
    pub candidates: usize,
    /// PIN's counters on the final world: the share of pairs IA/NIB
    /// decide comes from these.
    pub pin_stats: SolveStats,
}

/// Freezes `world` through its public accessors, exactly as the
/// server's `to_problem` does: objects and candidates in slot order.
pub fn freeze(world: &World) -> Result<PrimeLs<PowerLawPf>, String> {
    let objects = world.snapshot_objects();
    let candidates = world
        .live_influences()
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(_, p, _)| p)
        .collect();
    build(objects, candidates, world.tau())
}

/// `PrimeLs::builder().build()` with the served probability function.
pub fn build(
    objects: Vec<pinocchio_data::MovingObject>,
    candidates: Vec<pinocchio_geo::Point>,
    tau: f64,
) -> Result<PrimeLs<PowerLawPf>, String> {
    PrimeLs::builder()
        .objects(objects)
        .candidates(candidates)
        .probability_function(PowerLawPf::paper_default())
        .tau(tau)
        .build()
        .map_err(|e| e.to_string())
}

/// Rebuilds the mirror world from the generated world and the served
/// record, applying exactly the updates the server acknowledged, in the
/// order of the epochs they were published in (a stable sort keeps one
/// connection's order within an epoch).
pub fn mirror(world: &GeneratedWorld, log: &[Sent]) -> Result<World, String> {
    let mut mirror = World::from_parts(world.objects.clone(), world.candidates.clone(), TAU)
        .map_err(|e| e.to_string())?;
    let mut acked: Vec<(u64, &str)> = log
        .iter()
        .filter(|s| s.req == Req::Update)
        .filter_map(|s| s.epoch.map(|e| (e, s.line.as_str())))
        .collect();
    acked.sort_by_key(|&(epoch, _)| epoch);
    for (_, line) in acked {
        match parse_request(line) {
            Ok(Request::Update { op, .. }) => mirror
                .apply(&op)
                .map_err(|e| format!("acknowledged update fails on the mirror: {e}: {line}"))?,
            _ => return Err(format!("update log holds a non-update line: {line}")),
        }
    }
    Ok(mirror)
}

fn query(conn: &mut Conn, body: &str) -> Result<crate::client::Reply, String> {
    let id = conn.id();
    let line = format!(r#"{{"v":1,"id":{id},{body}}}"#);
    let reply = conn
        .round_trip(id, &line)
        .map_err(|e| format!("{body}: {e}"))?;
    if reply.ok() {
        Ok(reply)
    } else {
        Err(format!("{body}: {}", reply.last))
    }
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing {key} in {v}"))
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing {key} in {v}"))
}

/// `(candidate, x, y, influence)` of a wire answer entry.
fn entry(v: &Value) -> Result<(u64, f64, f64, u64), String> {
    Ok((
        field_u64(v, "candidate")?,
        field_f64(v, "x")?,
        field_f64(v, "y")?,
        field_u64(v, "influence")?,
    ))
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, wire: T, mirror: T) -> Result<(), String> {
    if wire == mirror {
        Ok(())
    } else {
        Err(format!("{what}: wire {wire:?} != mirror {mirror:?}"))
    }
}

/// Runs the wire checks against the mirror of `log`: the maintained
/// answers always, and with `full` also every solve algorithm, one
/// `top_region` and one `heatmap`, plus the world's measured properties.
pub fn check(
    world: &GeneratedWorld,
    log: &[Sent],
    conn: &mut Conn,
    full: bool,
) -> Result<Option<GateReport>, String> {
    let mirror = mirror(world, log)?;
    let wired = |(c, p, i): (u64, pinocchio_geo::Point, u32)| (c, p.x, p.y, u64::from(i));

    let best = mirror
        .best()
        .map_err(|e| e.to_string())?
        .ok_or("mirror has no candidates")?;
    expect_eq(
        "best",
        entry(&query(conn, r#""op":"best""#)?.last)?,
        wired(best),
    )?;

    let k = mirror.candidate_count();
    let top = query(conn, &format!(r#""op":"top_k","k":{k}"#))?;
    let wire_top = top
        .last
        .get("entries")
        .and_then(Value::as_array)
        .ok_or("top_k without entries")?
        .iter()
        .map(entry)
        .collect::<Result<Vec<_>, _>>()?;
    let mirror_top: Vec<_> = mirror
        .top_k(k)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(wired)
        .collect();
    expect_eq("top_k", wire_top, mirror_top)?;
    if !full {
        return Ok(None);
    }

    for algo in ["na", "pin", "pin-vo", "pin-vo*", "pin-join"] {
        let reply = query(conn, &format!(r#""op":"solve","algo":"{algo}""#))?;
        expect_eq(&format!("solve {algo}"), entry(&reply.last)?, wired(best))?;
    }

    let region = query(
        conn,
        &format!(r#""op":"top_region","k":{REGION_K},"resolution":{RESOLUTION}"#),
    )?;
    let wire_cells = region
        .last
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("top_region without cells")?
        .iter()
        .map(|c| {
            Ok((
                field_u64(c, "tile")?,
                field_f64(c, "x")?,
                field_f64(c, "y")?,
                field_u64(c, "influence")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mirror_region = mirror
        .top_region(REGION_K, RESOLUTION, None)
        .map_err(|e| e.to_string())?;
    let mirror_cells: Vec<_> = mirror_region
        .cells
        .iter()
        .map(|c| {
            (
                c.tile as u64,
                c.center.x,
                c.center.y,
                u64::from(c.influence),
            )
        })
        .collect();
    expect_eq("top_region", wire_cells, mirror_cells)?;

    let heat = query(
        conn,
        &format!(r#""op":"heatmap","resolution":{RESOLUTION}"#),
    )?;
    let mut samples: Vec<(u64, Vec<u64>)> = heat
        .batches
        .iter()
        .map(|b| {
            let offset = field_u64(b, "offset")?;
            let tiles = b
                .get("tiles")
                .and_then(Value::as_array)
                .ok_or("batch without tiles")?
                .iter()
                .map(|t| {
                    t.as_array()
                        .and_then(|t| t.get(2))
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("bad tile {t}"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            Ok((offset, tiles))
        })
        .collect::<Result<_, String>>()?;
    samples.sort_by_key(|(offset, _)| *offset);
    let wire_samples: Vec<u64> = samples.into_iter().flat_map(|(_, t)| t).collect();
    let mirror_heat = mirror
        .heatmap(RESOLUTION, None)
        .map_err(|e| e.to_string())?;
    let mirror_samples: Vec<u64> = mirror_heat
        .tiles
        .iter()
        .map(|t| u64::from(t.sample))
        .collect();
    expect_eq("heatmap samples", wire_samples, mirror_samples)?;
    let frame: Vec<f64> = heat
        .last
        .get("frame")
        .and_then(Value::as_array)
        .ok_or("heatmap without frame")?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    let f = mirror_heat.frame;
    expect_eq(
        "heatmap frame",
        frame,
        vec![f.lo().x, f.lo().y, f.hi().x, f.hi().y],
    )?;

    let objects = mirror.snapshot_objects();
    let (positions_mean, positions_p99) = world::positions_summary(objects.iter());
    let problem = freeze(&mirror)?;
    let pin_stats = problem.solve(Algorithm::Pinocchio).stats;
    Ok(Some(GateReport {
        objects: mirror.object_count(),
        positions_mean,
        positions_p99,
        candidates: mirror.candidate_count(),
        pin_stats,
    }))
}

/// The `stats` counters of completed queries, one per query op.
pub const QUERY_COUNTERS: [&str; 8] = [
    "queries_best",
    "queries_top_k",
    "queries_influence_of",
    "queries_solve",
    "queries_heatmap",
    "queries_top_region",
    "queries_stats",
    "queries_ping",
];

/// The `ServeStats` accounting identity, on the last `stats` reply
/// (taken with nothing else in flight, so only the `stats` query itself
/// is still missing from the latency histogram) and on the counters
/// `ServerHandle::join` returned.
pub fn check_stats(reply: &Value, joined: &ServeStats) -> Result<(), String> {
    let get = |key: &str| field_u64(reply, key);
    let queries = QUERY_COUNTERS
        .iter()
        .map(|k| get(k))
        .sum::<Result<u64, String>>()?;
    let accounted = [
        "malformed",
        "shed",
        "rejected_shutdown",
        "control",
        "updates_applied",
        "update_errors",
    ]
    .iter()
    .map(|k| get(k))
    .sum::<Result<u64, String>>()?
        + queries;
    expect_eq(
        "stats reply: accounted lines",
        accounted,
        get("lines_received")?,
    )?;
    let histogram: u64 = reply
        .get("latency_us")
        .and_then(Value::as_object)
        .ok_or("stats reply without latency_us")?
        .iter()
        .filter_map(|(_, v)| v.as_u64())
        .sum();
    expect_eq("stats reply: latency histogram", histogram + 1, queries)?;
    expect_eq(
        "joined: accounted lines",
        joined.accounted_lines(),
        joined.lines_received,
    )?;
    expect_eq(
        "joined: latency histogram",
        joined.latency_total(),
        joined.queries_completed(),
    )
}
