//! The load generator: a keep-alive HTTP/1.1 client and a closed-loop
//! sender. Closed loop means each client waits for its reply before it
//! sends its next request: one client measures the round trip of a
//! caller alone with the daemon, two keep both daemon threads busy.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::traffic::Phase;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One keep-alive connection that reconnects after `Connection: close`.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    carry: Vec<u8>,
    connects: u64,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let mut conn = Conn {
            addr,
            stream: None,
            carry: Vec::new(),
            connects: 0,
        };
        conn.connect()?;
        Ok(conn)
    }

    fn connect(&mut self) -> Result<(), String> {
        let stream =
            TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        self.stream = Some(stream);
        self.carry.clear();
        self.connects += 1;
        Ok(())
    }

    /// Connections opened after the first one.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Sends one pre-rendered request and reads its response. A closed
    /// connection is reopened first, inside the caller's timing.
    pub fn round_trip(&mut self, request: &[u8]) -> Result<Reply, String> {
        if self.stream.is_none() {
            self.connect()?;
        }
        let stream = self.stream.as_mut().expect("connected above");
        let result = stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_reply(stream, &mut self.carry));
        match result {
            Ok((reply, keep_alive)) => {
                if !keep_alive {
                    self.stream = None;
                }
                Ok(reply)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

fn read_more(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Result<(), String> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-response".into()),
            Ok(n) => {
                carry.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

/// Reads one `Content-Length` response; the flag says whether the
/// server keeps the connection open.
fn read_reply(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Result<(Reply, bool), String> {
    let head_len = loop {
        if let Some(p) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        read_more(stream, carry)?;
    };
    let head = std::str::from_utf8(&carry[..head_len]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut len = None;
    let mut keep_alive = true;
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let len = len.ok_or("response without Content-Length")?;
    while carry.len() < head_len + len {
        read_more(stream, carry)?;
    }
    let body = carry[head_len..head_len + len].to_vec();
    carry.drain(..head_len + len);
    Ok((Reply { status, body }, keep_alive))
}

/// `GET path` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n");
    Conn::open(addr)?.round_trip(request.as_bytes())
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// The round trip of every request answered 200, ms.
    pub latencies_ms: Vec<f64>,
    pub failed: usize,
    /// From the first send to the last reply, seconds.
    pub elapsed_s: f64,
    /// The phase ran out before the time did.
    pub exhausted: bool,
    pub reconnects: u64,
    pub first_error: Option<String>,
}

impl LoopResult {
    /// Requests answered 200.
    pub fn done(&self) -> usize {
        self.latencies_ms.len()
    }
}

/// Sends `phase` in order from `clients` threads, each on its own
/// keep-alive connection and each waiting for its reply before sending
/// its next request (a closed loop), for `seconds` or until the phase
/// runs out. Each round trip is timed from its send to its last
/// response byte, including any reconnect.
pub fn closed_loop(
    addr: SocketAddr,
    phase: &Phase,
    clients: usize,
    seconds: f64,
) -> Result<LoopResult, String> {
    let mut conns = (0..clients)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let client = |conn: &mut Conn| {
        let mut part = LoopResult::default();
        while Instant::now() < deadline {
            let Some(bytes) = phase.bytes.get(next.fetch_add(1, Ordering::Relaxed)) else {
                part.exhausted = true;
                break;
            };
            let sent = Instant::now();
            let error = match conn.round_trip(bytes) {
                Ok(r) if r.status == 200 && !r.body.is_empty() => {
                    part.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    continue;
                }
                Ok(r) => format!("status {}", r.status),
                Err(e) => e,
            };
            part.failed += 1;
            part.first_error.get_or_insert(error);
        }
        part
    };
    let parts: Vec<LoopResult> = {
        let (first, rest) = conns.split_at_mut(1);
        let client = &client;
        std::thread::scope(|scope| {
            let others: Vec<_> = rest
                .iter_mut()
                .map(|conn| scope.spawn(move || client(conn)))
                .collect();
            let mut parts = vec![client(&mut first[0])];
            parts.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked")),
            );
            parts
        })
    };
    let mut result = LoopResult {
        elapsed_s: started.elapsed().as_secs_f64(),
        reconnects: conns.iter().map(Conn::reconnects).sum(),
        ..LoopResult::default()
    };
    for part in parts {
        result.latencies_ms.extend(part.latencies_ms);
        result.failed += part.failed;
        result.exhausted |= part.exhausted;
        result.first_error = result.first_error.or(part.first_error);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Traffic;
    use rightcrowd::serve::{App, Request, Response, Server, ServerConfig};

    /// Answers every request after a fixed service time.
    struct Sleeper(Duration);

    impl App for Sleeper {
        fn handle(&self, req: &Request) -> Response {
            std::thread::sleep(self.0);
            Response::json(200, format!("{{\"bytes\": {}}}", req.body.len()))
        }
    }

    /// Runs `body` against an in-process server with two workers.
    fn with_server(app: Sleeper, max_requests_per_conn: usize, body: impl FnOnce(SocketAddr)) {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            max_requests_per_conn,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run(&app));
            body(addr);
            rightcrowd::serve::server::request_stop();
            running.join().unwrap();
        });
        rightcrowd::serve::server::reset_stop();
    }

    #[test]
    fn one_and_two_client_loops_against_an_in_process_server() {
        with_server(Sleeper(Duration::from_millis(2)), 50, |addr| {
            let mut traffic = Traffic::hot(9);
            let result = closed_loop(addr, &traffic.phase(300), 1, 30.0).unwrap();
            assert_eq!(result.failed, 0, "{:?}", result.first_error);
            assert!(result.exhausted);
            assert_eq!(result.done(), 300);
            assert!(result.latencies_ms.iter().all(|&l| l >= 2.0));
            // 300 requests over a connection closed every 50 requests.
            assert!(result.reconnects >= 5, "{} reconnects", result.reconnects);

            // Two 2 ms servers top out near 1,000/s when kept busy.
            let result = closed_loop(addr, &traffic.phase(5_000), 2, 0.5).unwrap();
            assert_eq!(result.failed, 0);
            assert!(!result.exhausted);
            let rate = result.done() as f64 / result.elapsed_s;
            assert!(result.done() > 100, "{} replies", result.done());
            assert!((200.0..1_100.0).contains(&rate), "{rate}/s");
        });
    }
}
