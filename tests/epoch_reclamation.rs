//! Busy connections must not pin published epochs.
//!
//! A snapshot lives while the store's newest epoch is it or a query
//! still answers on it; no connection or idle cursor may keep one
//! alive. If a cursor held its epoch's snapshot, a client sending a
//! request every 2 ms while 200 updates publish would keep most of
//! those epochs allocated; the `stats` reply's `epochs_live` gauge
//! makes that visible.

use pinocchio::data::MovingObject;
use pinocchio::geo::Point;
use pinocchio::serve::{serve, ServerConfig, World};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
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
    let objects = (0..200u64)
        .map(|id| {
            let x = (id % 20) as f64;
            let y = (id / 20) as f64;
            MovingObject::new(id, vec![Point::new(x, y), Point::new(x + 0.3, y)])
        })
        .collect();
    let candidates = (0..8).map(|j| Point::new(2.5 * j as f64, 4.0)).collect();
    World::from_parts(objects, candidates, 0.7).expect("well-formed world")
}

fn epochs_live(client: &mut Client) -> u64 {
    let reply = client.roundtrip(r#"{"v":1,"op":"stats"}"#);
    reply
        .get("epochs_live")
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no epochs_live gauge in {reply}"))
}

#[test]
fn a_chatty_connection_pins_no_epochs() {
    let handle = serve(world(), ServerConfig::default()).expect("bind");
    let addr = handle.addr();
    let mut updates = Client::connect(addr);
    assert_eq!(
        epochs_live(&mut updates),
        1,
        "an idle server holds one epoch"
    );

    // Connection A: a request every 2 ms, never idle long enough for a
    // poll timeout.
    let stop = Arc::new(AtomicBool::new(false));
    let chatty = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr);
            let mut sent = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let reply = client.roundtrip(r#"{"v":1,"op":"ping"}"#);
                assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
                sent += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            sent
        })
    };
    std::thread::sleep(Duration::from_millis(20));

    // Connection B: 200 updates, each acknowledged (and so published as
    // its own epoch) before the next is sent.
    let mut worst = 0;
    for i in 0..200u64 {
        let ack = updates.roundtrip(&format!(
            r#"{{"v":1,"id":{i},"op":"append_position","object":{},"x":{},"y":4.0}}"#,
            i % 200,
            (i % 20) as f64
        ));
        assert_eq!(ack.get("ok").and_then(Value::as_bool), Some(true), "{ack}");
        if i % 25 == 24 {
            worst = worst.max(epochs_live(&mut updates));
        }
    }
    worst = worst.max(epochs_live(&mut updates));
    stop.store(true, Ordering::Relaxed);
    let pings = chatty.join().expect("chatty client");
    assert!(pings > 0);
    assert!(
        worst <= 8,
        "{worst} epochs still allocated while 200 were published"
    );

    let ack = updates.roundtrip(r#"{"v":1,"op":"shutdown"}"#);
    assert_eq!(ack.get("epoch").and_then(Value::as_u64), Some(200));
    let stats = handle.join();
    assert_eq!(stats.updates_applied, 200);
    assert_eq!(stats.accounted_lines(), stats.lines_received);
}
