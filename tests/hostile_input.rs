//! Hostile request lines must never crash, stall or wedge the server.
//!
//! Every line a client sends is parsed on its connection thread, inside
//! the server process. A parser that recurses once per nesting level
//! lets a single line of half a million `[` overflow that thread's stack
//! and abort the process; a parser that re-scans the rest of the line
//! per character lets one long string pin a thread for minutes. These
//! tests pin both fixes, then fuzz `parse_request` with random bytes,
//! mangled requests and lines at the 1 MiB cap: whatever arrives, the
//! answer is a request or a typed `WireError`, never a panic.

use pinocchio::data::MovingObject;
use pinocchio::geo::Point;
use pinocchio::serve::{
    parse_request, response_err, serve, ErrorCode, Request, ServerConfig, UpdateOp, WireError,
    World,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// The server's request-line cap (`MAX_LINE_BYTES` in `serve::server`).
const LINE_CAP: usize = 1 << 20;

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn roundtrip(&mut self, request: &str) -> Value {
        self.writer.write_all(request.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        serde_json::from_str(&line).expect("reply is JSON")
    }
}

fn world() -> World {
    let objects = (0..20u64)
        .map(|id| MovingObject::new(id, vec![Point::new(id as f64, 0.0)]))
        .collect();
    let candidates = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
    World::from_parts(objects, candidates, 0.7).expect("well-formed world")
}

fn malformed_count(client: &mut Client) -> u64 {
    let reply = client.roundtrip(r#"{"v":1,"op":"stats"}"#);
    reply
        .get("stats")
        .and_then(|s| s.get("malformed"))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no malformed counter in {reply}"))
}

fn error_code(reply: &Value) -> Option<&str> {
    reply
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
}

#[test]
fn a_nesting_bomb_is_rejected_and_the_server_keeps_serving() {
    let handle = serve(world(), ServerConfig::default()).expect("bind");
    let addr = handle.addr();
    let mut observer = Client::connect(addr);
    let before = malformed_count(&mut observer);

    // 1 000 000 bytes, under the line cap: one connection thread parses
    // it on a default-sized stack.
    let depth = 500_000;
    let bomb = "[".repeat(depth) + &"]".repeat(depth);
    let mut attacker = Client::connect(addr);
    let reply = attacker.roundtrip(&bomb);
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(error_code(&reply), Some("malformed"));

    let mut fresh = Client::connect(addr);
    let pong = fresh.roundtrip(r#"{"v":1,"op":"ping"}"#);
    assert_eq!(
        pong.get("ok").and_then(Value::as_bool),
        Some(true),
        "{pong}"
    );
    assert_eq!(malformed_count(&mut fresh), before + 1);

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.malformed, before + 1);
    assert_eq!(stats.accounted_lines(), stats.lines_received);
}

#[test]
fn a_string_line_just_under_one_mib_parses_in_linear_time() {
    let filler = "é".repeat((LINE_CAP - 64) / 2);
    let line = format!(r#"{{"v":1,"op":"ping","note":"{filler}"}}"#);
    assert!(line.len() < LINE_CAP);
    // Parse on a helper thread so a regression fails after the budget
    // instead of hanging the suite.
    let (tx, rx) = mpsc::channel();
    let parser = std::thread::spawn(move || {
        let _ = tx.send(parse_request(&line));
    });
    let parsed = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("a 1 MiB string line must parse in well under 5 s");
    parser.join().expect("parser thread");
    assert!(
        matches!(parsed, Ok(Request::Query { .. })),
        "unexpected {parsed:?}"
    );
}

/// The contract every parse outcome must meet: a request whose
/// coordinates are all finite, or a typed parse-level error that renders
/// into a well-formed error reply.
fn check_outcome(line: &str) -> TestCaseResult {
    match parse_request(line) {
        Ok(Request::Update { op, .. }) => {
            let finite = match &op {
                UpdateOp::InsertObject { positions, .. } => positions.iter().all(Point::is_finite),
                UpdateOp::AppendPosition { position, .. } => position.is_finite(),
                UpdateOp::InsertCandidate { location, .. } => location.is_finite(),
                UpdateOp::RemoveObject { .. } | UpdateOp::RemoveCandidate { .. } => true,
            };
            prop_assert!(finite, "non-finite coordinate accepted: {op:?}");
        }
        Ok(_) => {}
        Err(e) => check_error(&e)?,
    }
    Ok(())
}

fn check_error(e: &WireError) -> TestCaseResult {
    prop_assert!(
        matches!(
            e.code,
            ErrorCode::Malformed | ErrorCode::UnsupportedVersion | ErrorCode::NonFinite
        ),
        "parse produced a non-parse error code: {e}"
    );
    prop_assert!(!e.message.is_empty());
    let reply: Value = serde_json::from_str(&response_err(Some(7), e))
        .map_err(|_| TestCaseError(format!("error reply for {e} is not JSON")))?;
    prop_assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    prop_assert_eq!(error_code(&reply), Some(e.code.as_str()));
    Ok(())
}

/// Every op with a well-formed set of its fields.
const OPS: [(&str, &[&str]); 15] = [
    ("ping", &[]),
    ("stats", &[]),
    ("best", &[]),
    ("top_k", &[r#""k":3"#]),
    ("influence_of", &[r#""candidate":1"#]),
    ("heatmap", &[r#""resolution":16"#]),
    ("top_region", &[r#""k":2"#, r#""resolution":16"#]),
    ("solve", &[r#""algo":"pin""#]),
    (
        "insert_object",
        &[r#""object":5"#, r#""positions":[[1,2]]"#],
    ),
    (
        "append_position",
        &[r#""object":1"#, r#""x":1"#, r#""y":2"#],
    ),
    ("remove_object", &[r#""object":1"#]),
    (
        "insert_candidate",
        &[r#""candidate":9"#, r#""x":0"#, r#""y":0"#],
    ),
    ("remove_candidate", &[r#""candidate":1"#]),
    ("shutdown", &[]),
    ("no_such_op", &[]),
];

/// Field names a mangled request may repeat or add.
const FIELDS: &str = "id k candidate object x y resolution algo positions v";

/// One of the whitespace-separated words of `words`.
fn pick<'a>(rng: &mut StdRng, words: &'a str) -> &'a str {
    let words: Vec<&str> = words.split_whitespace().collect();
    words[rng.gen_range(0..words.len())]
}

/// Field values: well-formed, huge, non-finite, wrongly typed and
/// syntactically broken numbers.
fn scalar(rng: &mut StdRng) -> String {
    const VALUES: &str = r#"0 1 7 64 -1 -0 1.5 1e400 -1e400 1e-400 18446744073709551615
        18446744073709551616 -9223372036854775809 NaN Infinity "3" "pin-join" "na"
        null true [] {} 0x10 1e --1 1.2.3"#;
    match rng.gen_range(0..10u32) {
        0 => "9".repeat(rng.gen_range(20..2000usize)),
        1 => format!("\"{}\"", "w".repeat(rng.gen_range(0..5000usize))),
        2 => {
            let n = rng.gen_range(0..6usize);
            let pairs: Vec<String> = (0..n)
                .map(|_| format!("[{},{}]", scalar(rng), scalar(rng)))
                .collect();
            format!("[{}]", pairs.join(","))
        }
        3 => {
            let depth = rng.gen_range(1..200usize);
            "[".repeat(depth) + &scalar(rng) + &"]".repeat(depth)
        }
        _ => pick(rng, VALUES).to_string(),
    }
}

/// A request-shaped line: a random op with its well-formed fields plus
/// random extra ones (a repeated key overrides, so duplicates replace
/// valid values in any order), then an optional byte-level mutation —
/// truncation, insertion or deletion.
fn mangled_request(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let (op, fields) = OPS[rng.gen_range(0..OPS.len())];
    let mut entries = vec![
        format!("\"v\":{}", if rng.gen_bool(0.9) { "1" } else { "2" }),
        format!("\"op\":\"{op}\""),
    ];
    entries.extend(fields.iter().map(|f| f.to_string()));
    for _ in 0..rng.gen_range(0..4usize) {
        let field = pick(&mut rng, FIELDS);
        entries.push(format!("\"{field}\":{}", scalar(&mut rng)));
    }
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..=i));
    }
    let mut bytes = format!("{{{}}}", entries.join(",")).into_bytes();
    match rng.gen_range(0..4u32) {
        0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        1 => {
            let at = rng.gen_range(0..=bytes.len());
            bytes.insert(at, rng.gen_range(0..=255u8));
        }
        2 if !bytes.is_empty() => {
            bytes.remove(rng.gen_range(0..bytes.len()));
        }
        _ => {}
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_request_survives_random_bytes(
        bytes in prop::collection::vec(0u32..256, 0..600),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        check_outcome(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn parse_request_survives_mangled_requests(seed in any::<u64>()) {
        check_outcome(&mangled_request(seed))?;
    }
}

#[test]
fn mangled_requests_reach_every_parse_outcome() {
    // Guards the fuzz above against going vacuous: its generator must
    // produce accepted requests and each parse-level rejection.
    let (mut accepted, mut codes) = (0, Vec::new());
    for seed in 0..2000 {
        match parse_request(&mangled_request(seed)) {
            Ok(_) => accepted += 1,
            Err(e) => codes.push(e.code),
        }
    }
    assert!(accepted > 0, "no mangled request was accepted");
    for code in [
        ErrorCode::Malformed,
        ErrorCode::UnsupportedVersion,
        ErrorCode::NonFinite,
    ] {
        assert!(codes.contains(&code), "{code:?} never produced");
    }
}

#[test]
fn nesting_past_the_cap_is_malformed_at_every_depth() {
    for depth in [65usize, 100, 1000, 100_000, LINE_CAP / 2] {
        for (open, close) in [("[", "]"), (r#"{"a":"#, "}")] {
            let value = open.repeat(depth) + "1" + &close.repeat(depth);
            let line = format!(r#"{{"v":1,"op":"ping","x":{value}}}"#);
            let err = parse_request(&line).expect_err("too deep");
            assert_eq!(err.code, ErrorCode::Malformed, "depth {depth}");
        }
    }
    // Shallow nesting inside an ignored field is still a valid request.
    let line = format!(
        r#"{{"v":1,"op":"ping","x":{}1{}}}"#,
        "[".repeat(32),
        "]".repeat(32)
    );
    assert!(parse_request(&line).is_ok());
}

#[test]
fn lines_at_the_cap_parse_or_reject_cleanly() {
    fn pad(mut line: String) -> String {
        assert!(line.len() <= LINE_CAP);
        line.extend(std::iter::repeat_n(' ', LINE_CAP - line.len()));
        line
    }
    // A valid request padded with whitespace to exactly the cap.
    let ping = pad(r#"{"v":1,"op":"ping"}"#.to_string());
    assert_eq!(ping.len(), LINE_CAP);
    assert!(matches!(parse_request(&ping), Ok(Request::Query { .. })));

    // One insert carrying as many positions as fit under the cap.
    let pair = "[1.25,-3.5],";
    let count = (LINE_CAP - 64) / pair.len();
    let positions = pair.repeat(count);
    let line = pad(format!(
        r#"{{"v":1,"op":"insert_object","object":1,"positions":[{}]}}"#,
        positions.trim_end_matches(',')
    ));
    match parse_request(&line) {
        Ok(Request::Update {
            op: UpdateOp::InsertObject { positions, .. },
            ..
        }) => assert_eq!(positions.len(), count),
        other => panic!("unexpected {other:?}"),
    }

    // A cap-sized number is finite-or-rejected, never a panic.
    let digits = "9".repeat(LINE_CAP - 64);
    for line in [
        format!(r#"{{"v":1,"op":"append_position","object":1,"x":{digits},"y":0}}"#),
        format!(r#"{{"v":1,"op":"top_k","k":{digits}}}"#),
    ] {
        let err = parse_request(&line).expect_err("out of range");
        check_error(&err).unwrap();
    }

    // Cap-sized random bytes, decoded lossily as the server would not
    // (it rejects invalid UTF-8 before parsing) but a client might send.
    let mut rng = StdRng::seed_from_u64(11);
    let bytes: Vec<u8> = (0..LINE_CAP).map(|_| rng.gen_range(0..=255u8)).collect();
    check_outcome(&String::from_utf8_lossy(&bytes)).unwrap();
}
