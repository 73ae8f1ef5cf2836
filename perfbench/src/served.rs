//! The end-to-end phase: boot the real server in-process on loopback,
//! drive one workload's traffic over exactly two connections from two
//! client threads, run the workload's fixed probe, and gate the answers.

use crate::client::{open_loop, Conn, OpenLoopResult, Samples, Sent};
use crate::gate::{self, GateReport};
use crate::world::{self, GeneratedWorld, ReadStream, Req, Scale, UpdateStream, WorldKind, TAU};
use pinocchio_serve::{serve, ServerConfig, ServerHandle, World};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// World S, 2 shards: open-loop update feed plus closed-loop
    /// maintained reads.
    Feed,
    /// World D, 1 shard: closed-loop solves and region/heat-map queries.
    Explore,
}

/// Where a metric family of a workload is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The workload's own traffic during the measured window.
    Traffic,
    /// The workload's fixed closed-loop probe, outside the window.
    Probe,
}

/// Offered rate of `feed`'s open-loop updates, per second.
const FEED_RATE: f64 = 100.0;
/// `explore` sends one append after this many solves.
const SOLVES_PER_APPEND: usize = 8;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// How long the gate waits before the final `stats` request.
const STATS_SETTLE: Duration = Duration::from_millis(50);
/// How long connection A idles between probe blocks: twice the 25 ms
/// after which the server advances an idle connection's snapshot cursor.
const PROBE_PAUSE: Duration = Duration::from_millis(50);

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "feed" => Some(Workload::Feed),
            "explore" => Some(Workload::Explore),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Feed => "feed",
            Workload::Explore => "explore",
        }
    }

    /// The world the workload runs on.
    pub fn world(self) -> WorldKind {
        match self {
            Workload::Feed => WorldKind::Sparse,
            Workload::Explore => WorldKind::Dense,
        }
    }

    /// In-process shard count of the server.
    pub fn shards(self) -> usize {
        match self {
            Workload::Feed => 2,
            Workload::Explore => 1,
        }
    }

    /// The `solve` algorithm rotation of the workload (CLI spellings).
    pub fn solve_rotation(self) -> &'static [&'static str] {
        match self {
            Workload::Explore => &["pin-vo", "pin-join", "pin"],
            Workload::Feed => &["pin-vo", "pin-join"],
        }
    }

    /// Whether the workload's updates are appends only.
    pub fn append_only(self) -> bool {
        self == Workload::Explore
    }

    /// Which metric family comes from the traffic and which from the
    /// probe. Fixed per workload: a family comes from the traffic when
    /// the traffic produces it at a rate that gives at least a hundred
    /// samples a run.
    pub fn source(self, family: &str) -> Source {
        match (self, family) {
            (Workload::Feed, "update" | "read")
            | (Workload::Explore, "solve" | "region" | "heatmap") => Source::Traffic,
            _ => Source::Probe,
        }
    }
}

/// Probe sizes (the smoke mode uses a few of each).
#[derive(Debug, Clone, Copy)]
pub struct ProbeSize {
    /// Maintained reads.
    pub reads: usize,
    /// Closed-loop appends.
    pub updates: usize,
    /// Rounds of one solve per algorithm of the rotation, one region and
    /// one heat map, each after a fresh append.
    pub expensive: usize,
}

/// The fixed closed-loop probe of `workload`: the metric families its
/// traffic does not produce at full rate, sent on connection A (see
/// [`plan`] for where it runs). On `explore` it follows A's traffic and
/// connection B keeps its own traffic going meanwhile, so the probe's
/// microsecond reads and appends meet the server the workload loads it
/// with (on an idle server they swing with how fast idle cores wake).
/// Each solve, region or heat map follows a fresh append, so it runs on
/// a new epoch just as the traffic's queries do.
///
/// The script comes in blocks, and connection A idles [`PROBE_PAUSE`]
/// between them. Reads and appends alternate in forty blocks, so the
/// handful of threads a microsecond round trip crosses get re-placed on
/// the cores many times a run instead of once. The pauses let the
/// server advance A's snapshot cursor, which it does only after 25 ms
/// without a request line: without them, whether some random stall of
/// that length came along decided whether the probe's appends pinned
/// 1.8 GB of epochs or half of that, and moved `update_p50_ms` on
/// `explore` by a third with it.
pub fn probe_script(workload: Workload, size: ProbeSize) -> Vec<Vec<Req>> {
    let wants = |family| workload.source(family) == Source::Probe;
    let mut script = Vec::new();
    const BLOCKS: usize = 40;
    let share = |total: usize, b: usize| total * (b + 1) / BLOCKS - total * b / BLOCKS;
    for b in 0..BLOCKS {
        let mut block = Vec::new();
        if wants("read") {
            block.extend(std::iter::repeat_n(Req::Read, share(size.reads, b)));
        }
        if wants("update") {
            block.extend(std::iter::repeat_n(Req::Update, share(size.updates, b)));
        }
        if !block.is_empty() {
            script.push(block);
        }
    }
    let rotation = workload.solve_rotation();
    let mut block = Vec::new();
    for _ in 0..size.expensive {
        let solves = rotation.iter().map(|&algo| Req::Solve(algo));
        for req in solves.chain([Req::Region, Req::Heatmap]) {
            if wants(req.family()) {
                block.extend([Req::Update, req]);
            }
        }
    }
    if !block.is_empty() {
        script.push(block);
    }
    script
}

/// Everything the served phase measured.
pub struct Served {
    /// World S or D as generated.
    pub world: GeneratedWorld,
    /// Wall time of each of the [`SETUPS`] set-ups, s.
    pub setups_s: Vec<f64>,
    /// VmHWM after the last segment, MiB.
    pub peak_rss_mb: f64,
    /// Traffic samples per request kind.
    pub traffic: BTreeMap<Req, Samples>,
    /// Probe samples per request kind.
    pub probe: BTreeMap<Req, Samples>,
    /// Query responses completed `ok` inside the window, per second.
    pub queries_per_s: f64,
    /// Updates acknowledged `ok` inside the window, per second.
    pub updates_per_s: f64,
    /// Open-loop send lag, ms (empty without an open loop).
    pub send_lag_ms: Vec<f64>,
    /// Operations sent by the traffic and the probe.
    pub attempted: u64,
    /// Of which failed (error line, refusal or timeout).
    pub failed: u64,
    /// The final `stats` replies' counters, summed over the segments.
    pub stats: Value,
    /// Every request the probe's server and the last server answered,
    /// with the epoch each reply echoed, one list per server in the
    /// order they ran: what the traced run replays.
    pub records: Vec<Vec<Sent>>,
    /// The exactness gate's verdict and the measured world properties.
    pub gate: Result<GateReport, String>,
}

fn config(workload: Workload) -> ServerConfig {
    ServerConfig {
        shards: workload.shards(),
        ..ServerConfig::default()
    }
}

/// One set-up: from handing the world to `World::from_parts` until the
/// server answers its first `ping`.
fn set_up(world: &GeneratedWorld, workload: Workload) -> Result<(ServerHandle, Conn, f64), String> {
    let objects = world.objects.clone();
    let candidates = world.candidates.clone();
    let start = Instant::now();
    let parts = World::from_parts(objects, candidates, TAU).map_err(|e| e.to_string())?;
    let handle = serve(parts, config(workload)).map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(handle.addr()).map_err(|e| e.to_string())?;
    let id = conn.id();
    let pong = conn
        .round_trip(id, &format!(r#"{{"v":1,"id":{id},"op":"ping"}}"#))
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();
    if !pong.ok() {
        return Err(format!("ping failed: {}", pong.last));
    }
    Ok((handle, conn, elapsed))
}

/// A closed-loop sender's tally.
#[derive(Default)]
struct ClosedLoop {
    samples: BTreeMap<Req, Samples>,
    /// Requests sent after the window while the other connection ran
    /// the probe: counted as attempted, not measured.
    overtime: Samples,
    ok_in_window: u64,
    updates_ok_in_window: u64,
    /// Every request sent, with the epoch its reply echoed.
    sent: Vec<Sent>,
    /// Whether this is the probe's tally.
    probe: bool,
    broken: bool,
}

impl ClosedLoop {
    /// One closed-loop request of kind `req`; `end` closes the window.
    fn request(&mut self, conn: &mut Conn, req: Req, id: u64, line: String, end: Instant) {
        let start = Instant::now();
        let reply = conn.round_trip(id, &line);
        let done = Instant::now();
        let epoch = reply.as_ref().ok().and_then(|r| r.epoch());
        let ok = epoch.is_some();
        if reply.is_err() {
            self.broken = true;
        }
        self.sent.push(Sent {
            req,
            line,
            epoch,
            probe: self.probe,
        });
        if start >= end {
            self.overtime.push(done - start, ok);
            return;
        }
        self.samples.entry(req).or_default().push(done - start, ok);
        if ok && done <= end {
            match req {
                Req::Update => self.updates_ok_in_window += 1,
                _ => self.ok_in_window += 1,
            }
        }
    }

    /// Waits for `start`, then sends `next(turn, id)` one request at a
    /// time until `end`, and past it while `overtime()` holds.
    fn drive(
        conn: &mut Conn,
        (start, end): (Instant, Instant),
        overtime: impl Fn() -> bool,
        mut next: impl FnMut(usize, u64) -> (Req, String),
    ) -> ClosedLoop {
        let mut tally = ClosedLoop::default();
        wait_until(start);
        let mut turn = 0;
        while !tally.broken && (Instant::now() < end || overtime()) {
            let id = conn.id();
            let (req, line) = next(turn, id);
            tally.request(conn, req, id, line, end);
            turn += 1;
        }
        tally
    }

    /// Runs the probe `script` block by block, idling [`PROBE_PAUSE`]
    /// between blocks, every request measured.
    fn probe(
        conn: &mut Conn,
        script: &[Vec<Req>],
        mut updates: Option<&mut UpdateStream>,
        mut reads: Option<&mut ReadStream>,
    ) -> ClosedLoop {
        let mut tally = ClosedLoop {
            probe: true,
            ..ClosedLoop::default()
        };
        let far = Instant::now() + Duration::from_secs(3600);
        for (i, block) in script.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(PROBE_PAUSE);
            }
            for &req in block {
                if tally.broken {
                    return tally;
                }
                let id = conn.id();
                let line = req.line(id, updates.as_deref_mut(), reads.as_deref_mut());
                tally.request(conn, req, id, line, far);
            }
        }
        tally
    }
}

/// Reads `/proc/self/status` VmHWM, MiB (0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The longest stretch of `feed` traffic one server instance takes. Its
/// window is split into segments of at most this length, each on a
/// freshly set-up server: the parent retains every epoch published while
/// any connection stays busy (no 25 ms pause), so under `feed`'s traffic
/// the process grows by 0.5–1.1 GB per second, and longer segments would
/// exhaust a small machine.
const MAX_SEGMENT_S: f64 = 1.5;

/// What one segment's two connections observed.
#[derive(Default)]
struct Tallies {
    a: ClosedLoop,
    b: ClosedLoop,
    open: OpenLoopResult,
    probe: ClosedLoop,
}

/// One segment's traffic on connections A and B over `window`; then, if
/// `probe` is not empty, the probe on A while B keeps going.
fn traffic(
    workload: Workload,
    (conn_a, conn_b): (&mut Conn, &mut Conn),
    (updates, reads): (&mut UpdateStream, &mut ReadStream),
    window: (Instant, Instant),
    probe: &[Vec<Req>],
) -> Tallies {
    let rotation = workload.solve_rotation();
    // B keeps going while A probes only where the probe times microsecond
    // operations: `feed` probes solves, regions and heat maps of hundreds
    // of milliseconds, which its reader would only slow by competing for
    // the cores.
    let probing = AtomicBool::new(!probe.is_empty() && workload != Workload::Feed);
    // ordering: a plain stop flag that publishes no other data.
    let overtime = || probing.load(Ordering::Relaxed);
    let done_probing = || probing.store(false, Ordering::Relaxed);
    std::thread::scope(|s| match workload {
        Workload::Feed => {
            let ta = s.spawn(|| {
                let open = open_loop(
                    conn_a,
                    FEED_RATE,
                    window,
                    || false,
                    |id| updates.next_line(id),
                );
                let probe = ClosedLoop::probe(conn_a, probe, Some(updates), None);
                done_probing();
                (open, probe)
            });
            let tb = s.spawn(|| {
                ClosedLoop::drive(conn_b, window, overtime, |_, id| {
                    (Req::Read, reads.next_line(id))
                })
            });
            let (open, probe) = join(ta);
            Tallies {
                b: join(tb),
                open,
                probe,
                ..Tallies::default()
            }
        }
        Workload::Explore => {
            let ta = s.spawn(|| {
                let mut solves = 0usize;
                let mut append_due = false;
                let a = ClosedLoop::drive(
                    conn_a,
                    window,
                    || false,
                    |_, id| {
                        if std::mem::take(&mut append_due) {
                            return (Req::Update, updates.next_line(id));
                        }
                        let algo = rotation[solves % rotation.len()];
                        solves += 1;
                        append_due = solves.is_multiple_of(SOLVES_PER_APPEND);
                        (Req::Solve(algo), world::solve_line(id, algo))
                    },
                );
                let probe = ClosedLoop::probe(conn_a, probe, Some(updates), Some(reads));
                done_probing();
                (a, probe)
            });
            let tb = s.spawn(|| {
                ClosedLoop::drive(conn_b, window, overtime, |turn, id| {
                    if turn % 2 == 0 {
                        (Req::Region, world::region_line(id))
                    } else {
                        (Req::Heatmap, world::heatmap_line(id))
                    }
                })
            });
            let (a, probe) = join(ta);
            Tallies {
                a,
                b: join(tb),
                probe,
                ..Tallies::default()
            }
        }
    })
}

/// Sums `ServeStats` replies of several servers (the level counter
/// `queue_high_water` merges by max).
fn merge_stats(acc: &mut BTreeMap<String, u64>, stats: &Value) {
    if let Some(map) = stats.as_object() {
        for (key, value) in map.iter() {
            if let Some(v) = value.as_u64() {
                let slot = acc.entry(key.clone()).or_default();
                *slot = if key == "queue_high_water" {
                    (*slot).max(v)
                } else {
                    *slot + v
                };
            }
        }
    }
}

/// One server's share of a run: a stretch of the traffic, the probe, or
/// both (the probe after the traffic).
#[derive(Debug, Clone, Copy)]
struct Segment {
    traffic: Option<Duration>,
    probe: bool,
}

/// The servers a run of `workload` sets up, in order. `feed` splits its
/// window into segments of at most [`MAX_SEGMENT_S`] and runs its probe
/// first, on a server of its own: after a segment the process frees the
/// epochs its traffic pinned, and over five seeds the solves timed right
/// after such a free spread 0.28 of their median, against 0.08 on the
/// probe's own server. `explore` runs one server, its probe after the
/// traffic.
fn plan(workload: Workload, seconds: f64) -> Vec<Segment> {
    match workload {
        Workload::Feed => {
            let n = ((seconds / MAX_SEGMENT_S).ceil() as usize).max(1);
            let window = Duration::from_secs_f64(seconds / n as f64);
            let probe = Segment {
                traffic: None,
                probe: true,
            };
            let traffic = Segment {
                traffic: Some(window),
                probe: false,
            };
            std::iter::once(probe)
                .chain(std::iter::repeat_n(traffic, n))
                .collect()
        }
        Workload::Explore => vec![Segment {
            traffic: Some(Duration::from_secs_f64(seconds)),
            probe: true,
        }],
    }
}

/// Runs the served phase of `workload`.
pub fn run(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    probe_size: ProbeSize,
) -> Result<Served, String> {
    let world = world::generate(workload.world(), scale);
    // The set-ups `setup_s` reports run first, in a process that has not
    // served yet, and are shut down at once.
    let mut setups_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (handle, conn, elapsed) = set_up(&world, workload)?;
        setups_s.push(elapsed);
        handle.shutdown();
        drop(conn);
        handle.join();
    }

    let mut traffic_samples: BTreeMap<Req, Samples> = BTreeMap::new();
    let mut probe_samples: BTreeMap<Req, Samples> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut queries_ok, mut updates_ok) = (0u64, 0u64);
    let mut send_lag_ms = Vec::new();
    let mut stats_sum = BTreeMap::new();
    let mut peak = 0.0;
    let mut report = Err("no segment ran".to_string());
    let mut records = Vec::new();
    let segments = plan(workload, seconds);
    for (index, segment) in segments.iter().enumerate() {
        let last = index + 1 == segments.len();
        let (handle, mut conn_a, _) = set_up(&world, workload)?;
        // Each segment starts from the generated world, so its streams
        // restart too, each from its own seed.
        let stream_seed = seed.wrapping_add(index as u64);
        let mut updates = UpdateStream::new(&world, stream_seed, workload.append_only());
        let mut reads = ReadStream::new(stream_seed, world.candidates.len());
        let probe = if segment.probe {
            probe_script(workload, probe_size)
        } else {
            Vec::new()
        };
        let tallies = match segment.traffic {
            Some(window) => {
                let mut conn_b = Conn::connect(handle.addr()).map_err(|e| e.to_string())?;
                let start = Instant::now() + Duration::from_millis(20);
                traffic(
                    workload,
                    (&mut conn_a, &mut conn_b),
                    (&mut updates, &mut reads),
                    (start, start + window),
                    &probe,
                )
            }
            None => Tallies {
                probe: ClosedLoop::probe(&mut conn_a, &probe, Some(&mut updates), Some(&mut reads)),
                ..Tallies::default()
            },
        };
        if tallies.a.broken || tallies.b.broken || tallies.probe.broken {
            return Err(format!("segment {index}: a connection failed"));
        }
        let Tallies { a, b, open, probe } = tallies;
        let mut log = open.log;
        for tally in [&a, &b] {
            for (req, samples) in &tally.samples {
                traffic_samples.entry(*req).or_default().extend(samples);
            }
        }
        traffic_samples
            .entry(Req::Update)
            .or_default()
            .extend(&open.latency);
        for (req, samples) in &probe.samples {
            probe_samples.entry(*req).or_default().extend(samples);
        }
        for samples in [&a.overtime, &b.overtime, &open.overtime] {
            attempted += samples.ms.len() as u64;
            failed += samples.failed;
        }
        queries_ok += a.ok_in_window + b.ok_in_window;
        updates_ok += open.acked_in_window + a.updates_ok_in_window + b.updates_ok_in_window;
        send_lag_ms.extend_from_slice(&open.send_lag_ms);
        log.extend(a.sent.into_iter().chain(b.sent).chain(probe.sent));

        peak = peak_rss_mb();
        let gate = gate::check(&world, &log, &mut conn_a, last);
        // A worker adds a batch's counters to the shared ones only after
        // sending the batch's replies, so a `stats` request sent right
        // after a reply can miss that batch and break the accounting
        // identity; ask once the server has settled.
        std::thread::sleep(STATS_SETTLE);
        let stats = stats_reply(&mut conn_a);
        let id = conn_a.id();
        let _ = conn_a.round_trip(id, &format!(r#"{{"v":1,"id":{id},"op":"shutdown"}}"#));
        drop(conn_a);
        let joined = handle.join();
        let checked = match (gate, &stats) {
            (Ok(r), Ok(stats)) => gate::check_stats(stats, &joined).map(|()| r),
            (Err(e), _) => Err(e),
            (_, Err(e)) => Err(e.clone()),
        };
        if let Ok(stats) = &stats {
            merge_stats(&mut stats_sum, stats);
        }
        // The traced run replays the probe's server and the last one.
        if segment.probe || last {
            records.push(log);
        }
        match checked {
            Ok(Some(r)) => report = Ok(r),
            Ok(None) => {}
            Err(e) => {
                report = Err(format!("segment {index}: {e}"));
                break;
            }
        }
    }
    traffic_samples.retain(|_, samples| !samples.ms.is_empty());
    for samples in traffic_samples.values().chain(probe_samples.values()) {
        attempted += samples.ms.len() as u64;
        failed += samples.failed;
    }
    let mut stats = serde_json::Map::new();
    for (key, value) in stats_sum {
        stats.insert(key, Value::from(value));
    }
    Ok(Served {
        world,
        setups_s,
        peak_rss_mb: peak,
        traffic: traffic_samples,
        probe: probe_samples,
        queries_per_s: queries_ok as f64 / seconds,
        updates_per_s: updates_ok as f64 / seconds,
        send_lag_ms,
        attempted,
        failed,
        stats: Value::Object(stats),
        records,
        gate: report,
    })
}

fn stats_reply(conn: &mut Conn) -> Result<Value, String> {
    let id = conn.id();
    let reply = conn
        .round_trip(id, &format!(r#"{{"v":1,"id":{id},"op":"stats"}}"#))
        .map_err(|e| format!("stats: {e}"))?;
    reply
        .last
        .get("stats")
        .cloned()
        .ok_or_else(|| format!("stats reply without counters: {}", reply.last))
}

fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}
