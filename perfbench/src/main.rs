//! `perfbench` — the client-side serving benchmark of `pinocchio-serve`.
//!
//! ```text
//! perfbench --workload feed|explore --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! One run generates the workload's world from the seed, boots the real
//! server in-process on loopback, drives the workload's traffic for `S`
//! seconds over two connections, runs the workload's fixed probe, gates
//! every answer against a mirror world, and prints one JSON result as
//! the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced in-process replay with
//! `--trace 1`. `--smoke` runs the same code on a tiny world. The full
//! record (provenance, measured world properties, sample counts) is the
//! line before it, and is also written under `perfbench/out/`. See
//! `perfbench/README.md` for the workloads and metrics.

mod client;
mod gate;
mod served;
mod trace;
mod world;

use client::{median, percentile, Samples};
use pinocchio_serve::ServerConfig;
use serde_json::{json, Map, Value};
use served::{ProbeSize, Served, Source, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use world::Scale;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// The benchmark package's directory; outputs go to its `out/`.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The commit the checkout was built from: `.git/HEAD` next to the
/// package, resolved through loose or packed refs; `unknown` in a
/// checkout without git metadata.
fn git_commit() -> String {
    let git = package_dir().join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs")).and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn probe_size(smoke: bool) -> ProbeSize {
    if smoke {
        ProbeSize {
            reads: 30,
            updates: 5,
            expensive: 2,
        }
    } else {
        ProbeSize {
            reads: 10000,
            updates: 4000,
            expensive: 20,
        }
    }
}

/// The latency metric families, each fed by one or more request kinds.
const FAMILIES: [&str; 5] = ["update", "read", "solve", "region", "heatmap"];

/// Where `workload` reports `family` from, per request kind.
fn samples<'a>(served: &'a Served, workload: Workload, family: &str) -> Vec<&'a Samples> {
    let source = match workload.source(family) {
        Source::Traffic => &served.traffic,
        Source::Probe => &served.probe,
    };
    source
        .iter()
        .filter(|(req, _)| req.family() == family)
        .map(|(_, samples)| samples)
        .collect()
}

/// Percentile `p` of a family: each request kind's own percentile, then
/// their geometric mean. `solve` mixes algorithms of different cost: a
/// pooled percentile of two such modes flips between them from run to
/// run, and the geometric mean moves by the same share when any one
/// algorithm's percentile does. The other families have one kind each.
fn family_percentile(served: &Served, workload: Workload, family: &str, p: f64) -> Option<f64> {
    let per_kind: Vec<f64> = samples(served, workload, family)
        .iter()
        .filter_map(|s| s.percentile(p))
        .collect();
    let n = per_kind.len();
    (n > 0).then(|| (per_kind.iter().map(|v| v.ln()).sum::<f64>() / n as f64).exp())
}

/// A JSON-safe reading of a latency: a failed request is infinitely
/// late, reported as the largest finite number.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

fn end_to_end(
    served: &Served,
    workload: Workload,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let pct = |family: &str, p: f64| -> Result<f64, String> {
        family_percentile(served, workload, family, p)
            .map(finite)
            .ok_or_else(|| format!("no {family} samples"))
    };
    Ok(vec![
        ("setup_s", median(&served.setups_s).unwrap_or(0.0), "s"),
        ("peak_rss_mb", served.peak_rss_mb, "MiB"),
        ("update_p50_ms", pct("update", 0.50)?, "ms"),
        ("update_p75_ms", pct("update", 0.75)?, "ms"),
        ("read_p50_ms", pct("read", 0.50)?, "ms"),
        ("read_p90_ms", pct("read", 0.90)?, "ms"),
        ("solve_p50_ms", pct("solve", 0.50)?, "ms"),
        ("solve_p75_ms", pct("solve", 0.75)?, "ms"),
        ("region_p50_ms", pct("region", 0.50)?, "ms"),
        ("region_p75_ms", pct("region", 0.75)?, "ms"),
        ("heatmap_p50_ms", pct("heatmap", 0.50)?, "ms"),
        ("queries_per_s", served.queries_per_s, "1/s"),
        ("updates_per_s", served.updates_per_s, "1/s"),
    ])
}

fn stat(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_u64).unwrap_or(0) as f64
}

fn queries_completed(stats: &Value) -> f64 {
    gate::QUERY_COUNTERS.iter().map(|k| stat(stats, k)).sum()
}

fn ratio(part: f64, whole: f64) -> Option<f64> {
    (whole > 0.0).then(|| part / whole)
}

/// The traced replay, with its per-layer metrics completed by the ones
/// read from the served run's final `stats` replies and its load
/// generator.
fn per_layer(served: &Served, workload: Workload, seconds: f64) -> Result<trace::Traced, String> {
    let stats = &served.stats;
    let epochs = stat(stats, "epochs_published");
    let mut traced = trace::replay(
        workload,
        &served.world,
        &served.records,
        Duration::from_secs_f64(seconds),
    )?;
    let mut metrics = vec![
        (
            "scheduler.jobs_per_batch",
            ratio(stat(stats, "batched_jobs"), stat(stats, "batches")),
            "ratio",
        ),
        (
            "scheduler.queue_high_water",
            Some(stat(stats, "queue_high_water")),
            "count",
        ),
        ("scheduler.shed", Some(stat(stats, "shed")), "count"),
        (
            "scheduler.shared_solve_share",
            ratio(stat(stats, "solve_runs"), stat(stats, "queries_solve")).map(|r| 1.0 - r),
            "ratio",
        ),
        (
            "store.updates_per_epoch",
            ratio(stat(stats, "updates_applied"), epochs),
            "ratio",
        ),
        (
            "store.queries_per_epoch",
            ratio(queries_completed(stats), epochs),
            "ratio",
        ),
    ];
    metrics.append(&mut traced.metrics);
    metrics.push((
        "harness.send_lag_p99_ms",
        percentile(&served.send_lag_ms, 0.99),
        "ms",
    ));
    // The end-to-end p50 of the workload's main operation minus the
    // traced time of the same operation: transport, admission and queue
    // wait, which only spans inside the program could split further.
    let main = match workload {
        Workload::Feed => "update",
        Workload::Explore => "solve",
    };
    let unaccounted = family_percentile(served, workload, main, 0.5)
        .zip(traced.root_ms.get(main))
        .map(|(e2e, traced)| e2e - traced);
    metrics.push(("harness.unaccounted_ms", unaccounted, "ms"));
    traced.metrics = metrics;
    Ok(traced)
}

fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Value {
    let mut map = Map::new();
    for (name, value, unit) in metrics {
        map.insert(name.to_string(), json!({"value": value, "unit": unit}));
    }
    Value::Object(map)
}

fn run(args: &Args) -> Result<(bool, u64, u64, Value, Value), String> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let probe = probe_size(args.smoke);
    let workload = args.workload;
    let served = served::run(workload, &scale, args.seed, args.seconds, probe)?;

    let mut record = Map::new();
    record.insert("workload".into(), json!(workload.name()));
    record.insert("seed".into(), json!(args.seed));
    record.insert("seconds".into(), json!(args.seconds));
    record.insert("trace".into(), json!(args.trace));
    record.insert(
        "scale".into(),
        json!(if args.smoke { "smoke" } else { "full" }),
    );
    record.insert(
        "nproc".into(),
        json!(std::thread::available_parallelism().map_or(0, |n| n.get())),
    );
    record.insert(
        "profile".into(),
        json!(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    record.insert("commit".into(), json!(git_commit()));
    record.insert(
        "solve_threads".into(),
        json!(ServerConfig::default().solve_threads),
    );
    let mut sources = Map::new();
    let mut counts = Map::new();
    let mut percentiles = Map::new();
    for family in FAMILIES {
        let source = match workload.source(family) {
            Source::Traffic => "traffic",
            Source::Probe => "probe",
        };
        sources.insert(family.into(), json!(source));
        let n: usize = samples(&served, workload, family)
            .iter()
            .map(|s| s.ms.len())
            .sum();
        counts.insert(family.into(), json!(n));
        let mut tails = Map::new();
        for p in [50, 75, 90, 95, 99] {
            let v = family_percentile(&served, workload, family, f64::from(p) / 100.0);
            tails.insert(format!("p{p}"), json!(v.map_or(0.0, finite)));
        }
        percentiles.insert(family.into(), Value::Object(tails));
    }
    record.insert("percentiles_ms".into(), Value::Object(percentiles));
    // Each solve algorithm's own percentiles, which `solve_*` averages.
    let mut kinds = Map::new();
    for (req, s) in served.traffic.iter().chain(&served.probe) {
        if let world::Req::Solve(algo) = req {
            let p = |q| s.percentile(q).map_or(0.0, finite);
            kinds.insert(
                (*algo).into(),
                json!({"n": s.ms.len(), "p50": p(0.5), "p75": p(0.75)}),
            );
        }
    }
    record.insert("solve_percentiles_ms".into(), Value::Object(kinds));
    record.insert("sources".into(), Value::Object(sources));
    record.insert("samples".into(), Value::Object(counts));
    record.insert("attempted".into(), json!(served.attempted));
    record.insert("failed".into(), json!(served.failed));
    record.insert("setups_s".into(), json!(served.setups_s.clone()));

    let report = match &served.gate {
        Ok(report) => report.clone(),
        Err(e) => {
            record.insert("gate".into(), json!(format!("failed: {e}")));
            return Ok((
                false,
                served.attempted,
                served.failed,
                Value::Object(record),
                json!({}),
            ));
        }
    };
    record.insert("gate".into(), json!("passed"));
    let pin = report.pin_stats;
    let decided = pin.decided_by_ia + pin.decided_by_nib;
    record.insert(
        "properties".into(),
        json!({
            "objects": report.objects,
            "positions_per_object_mean": report.positions_mean,
            "positions_per_object_p99": report.positions_p99,
            "candidates": report.candidates,
            "shards": workload.shards(),
            "queries_per_epoch": ratio(queries_completed(&served.stats), stat(&served.stats, "epochs_published")).unwrap_or(0.0),
            "ia_nib_decided_share": ratio(decided as f64, pin.accounted_pairs() as f64).unwrap_or(0.0),
        }),
    );

    let metrics = if args.trace {
        let traced = per_layer(&served, workload, args.seconds)?;
        let metrics = &traced.metrics;
        let absent: Vec<&str> = metrics
            .iter()
            .filter(|(_, v, _)| v.is_none())
            .map(|(n, _, _)| *n)
            .collect();
        record.insert("not_applicable".into(), json!(absent));
        let out = package_dir().join("out");
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{}",
            workload.name(),
            args.seed
        );
        trace::write_spans(
            &out.join(format!("{}-seed{}-spans.json", workload.name(), args.seed)),
            &header,
            &traced.spans,
        )
        .map_err(|e| e.to_string())?;
        record.insert("spans".into(), json!(traced.spans.len()));
        metrics_json(
            metrics
                .iter()
                .map(|&(name, value, unit)| (name, value.unwrap_or(0.0), unit)),
        )
    } else {
        metrics_json(end_to_end(&served, workload)?.into_iter())
    };
    record.insert("metrics".into(), metrics.clone());
    Ok((
        true,
        served.attempted,
        served.failed,
        Value::Object(record),
        metrics,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, attempted, failed, record, metrics) = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let record_line = serde_json::to_string(&record).unwrap_or_default();
    let out = package_dir().join("out");
    let written = std::fs::create_dir_all(&out).and_then(|()| {
        std::fs::write(
            out.join(format!(
                "{}-seed{}-trace{}.json",
                args.workload.name(),
                args.seed,
                u8::from(args.trace)
            )),
            format!("{record_line}\n"),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the record: {e}");
        return ExitCode::FAILURE;
    }
    println!("{record_line}");
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
