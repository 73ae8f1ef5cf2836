//! The load side: one newline-JSON connection type and the two loop
//! shapes (closed and open) that drive it.

use crate::world::Req;
use serde_json::Value;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long any single reply may take before the request counts as
/// failed (a timeout) and the connection is abandoned.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One client connection with correlation-id bookkeeping.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    partial: Vec<u8>,
    next_id: u64,
}

/// The outcome of one request as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The terminal reply line (for `heatmap`, the `done` line).
    pub last: Value,
    /// `heatmap` batch lines, in arrival order (empty otherwise).
    pub batches: Vec<Value>,
}

impl Reply {
    /// Whether the terminal line reports success.
    pub fn ok(&self) -> bool {
        self.last.get("ok").and_then(Value::as_bool) == Some(true)
    }

    /// The epoch a successful reply echoes; `None` for a failure.
    pub fn epoch(&self) -> Option<u64> {
        ok_epoch(&self.last)
    }
}

/// The epoch a reply line echoes if it reports success.
fn ok_epoch(v: &Value) -> Option<u64> {
    let ok = v.get("ok").and_then(Value::as_bool) == Some(true);
    v.get("epoch").and_then(Value::as_u64).filter(|_| ok)
}

/// One request as it was served: its kind, its line, and the epoch its
/// reply echoed — the epoch an update was published in, or the one a
/// query read. The exactness gate rebuilds the mirror world from the
/// acknowledged updates and the traced run replays the record epoch by
/// epoch.
#[derive(Debug, Clone)]
pub struct Sent {
    /// The request kind.
    pub req: Req,
    /// The request line.
    pub line: String,
    /// The echoed epoch; `None` if the request failed.
    pub epoch: Option<u64>,
    /// Whether the probe sent it (outside the measured window).
    pub probe: bool,
}

impl Conn {
    /// Connects with Nagle off: the harness measures the server, not the
    /// kernel's coalescing of small writes.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            partial: Vec::new(),
            next_id: 1,
        })
    }

    /// A fresh correlation id.
    pub fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Reads one reply line, waiting at most until `deadline`.
    /// `Ok(None)` means the deadline passed first; a partial line is
    /// kept for the next call.
    pub fn recv_until(&mut self, deadline: Instant) -> std::io::Result<Option<Value>> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some((deadline - now).max(Duration::from_micros(50))))?;
            match self.reader.read_until(b'\n', &mut self.partial) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(_) if self.partial.ends_with(b"\n") => {
                    let line = std::mem::take(&mut self.partial);
                    let text = String::from_utf8_lossy(&line);
                    return serde_json::from_str(text.trim_end())
                        .map(Some)
                        .map_err(|_| {
                            std::io::Error::new(ErrorKind::InvalidData, "bad reply JSON")
                        });
                }
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends `line` (which must carry correlation id `id`) and waits for
    /// its terminal reply, collecting `heatmap` batch lines on the way.
    pub fn round_trip(&mut self, id: u64, line: &str) -> std::io::Result<Reply> {
        self.send(line)?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut batches = Vec::new();
        loop {
            let Some(v) = self.recv_until(deadline)? else {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "reply timed out"));
            };
            if v.get("id").and_then(Value::as_u64) != Some(id) {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    "reply for another request on a closed-loop connection",
                ));
            }
            let is_batch = v.get("ok").and_then(Value::as_bool) == Some(true)
                && v.get("tiles").is_some()
                && v.get("done").is_none();
            if is_batch {
                batches.push(v);
            } else {
                return Ok(Reply { last: v, batches });
            }
        }
    }
}

/// Latency samples of one request class, in ms; a failed request is
/// stored as `+inf` so it counts as infinitely late in every
/// percentile.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Every sample, unsorted.
    pub ms: Vec<f64>,
    /// How many of them failed.
    pub failed: u64,
}

impl Samples {
    /// Records one completed request.
    pub fn push(&mut self, elapsed: Duration, ok: bool) {
        if ok {
            self.ms.push(elapsed.as_secs_f64() * 1e3);
        } else {
            self.fail();
        }
    }

    /// Records one failed request.
    pub fn fail(&mut self) {
        self.ms.push(f64::INFINITY);
        self.failed += 1;
    }

    /// Merges another class's samples into this one.
    pub fn extend(&mut self, other: &Samples) {
        self.ms.extend_from_slice(&other.ms);
        self.failed += other.failed;
    }

    /// Nearest-rank percentile `p ∈ (0, 1]`; `None` without samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        percentile(&self.ms, p)
    }
}

/// The median of `values`, the mean of the middle two for an even
/// count; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// What an open-loop sender observed.
#[derive(Debug, Default)]
pub struct OpenLoopResult {
    /// Acknowledgement latency from each update's scheduled send time,
    /// for updates due inside the window.
    pub latency: Samples,
    /// The same for updates sent after the window, while the other
    /// connection finished its probe: counted as attempted, not measured.
    pub overtime: Samples,
    /// How late each send inside the window left relative to its
    /// schedule, ms.
    pub send_lag_ms: Vec<f64>,
    /// Updates acknowledged `ok` before the window closed.
    pub acked_in_window: u64,
    /// The updates sent, in order, with the epoch each acknowledgement
    /// echoed.
    pub log: Vec<Sent>,
}

/// Sends `next(id)` lines on a fixed schedule of `rate` per second from
/// `start` until `end` — and past it while `overtime()` holds — draining
/// replies between sends, then waits for the stragglers. Latency is
/// measured from each line's due time, so a stall also charges the wait
/// it imposes on later updates.
pub fn open_loop(
    conn: &mut Conn,
    rate: f64,
    (start, end): (Instant, Instant),
    overtime: impl Fn() -> bool,
    mut next: impl FnMut(u64) -> String,
) -> OpenLoopResult {
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut result = OpenLoopResult::default();
    // (id, due time, index into log), oldest first.
    let mut in_flight: VecDeque<(u64, Instant, usize)> = VecDeque::new();
    let mut due = start;
    let mut broken = false;
    let settle =
        |result: &mut OpenLoopResult, in_flight: &mut VecDeque<(u64, Instant, usize)>, v: Value| {
            let id = v.get("id").and_then(Value::as_u64);
            if let Some(pos) = in_flight.iter().position(|&(i, _, _)| Some(i) == id) {
                let (_, due, slot) = in_flight.remove(pos).expect("position is in range");
                let now = Instant::now();
                let epoch = ok_epoch(&v);
                let ok = epoch.is_some();
                let samples = if due < end {
                    &mut result.latency
                } else {
                    &mut result.overtime
                };
                samples.push(now - due, ok);
                result.log[slot].epoch = epoch;
                if ok && now <= end {
                    result.acked_in_window += 1;
                }
            }
        };
    while !broken && (due < end || overtime()) {
        let now = Instant::now();
        if now >= due {
            let id = conn.id();
            let line = next(id);
            if conn.send(&line).is_err() {
                broken = true;
                break;
            }
            if due < end {
                result
                    .send_lag_ms
                    .push((Instant::now() - due).as_secs_f64() * 1e3);
            }
            result.log.push(Sent {
                req: Req::Update,
                line,
                epoch: None,
                probe: false,
            });
            in_flight.push_back((id, due, result.log.len() - 1));
            due += period;
            continue;
        }
        match conn.recv_until(due) {
            Ok(Some(v)) => settle(&mut result, &mut in_flight, v),
            Ok(None) => {}
            Err(_) => broken = true,
        }
    }
    let deadline = Instant::now() + REPLY_TIMEOUT;
    while !broken && !in_flight.is_empty() {
        match conn.recv_until(deadline) {
            Ok(Some(v)) => settle(&mut result, &mut in_flight, v),
            Ok(None) | Err(_) => break,
        }
    }
    for (_, due, _) in in_flight {
        if due < end {
            result.latency.fail();
        } else {
            result.overtime.fail();
        }
    }
    result
}
