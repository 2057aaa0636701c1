//! The benchmark's own HTTP client and load shapes.
//!
//! The client sets `TCP_NODELAY` and sends each request in one write, so
//! what it measures is the service's latency, not the client's.

use crate::gauge::Gauge;
use crate::stats::{ms, permutation, Rng};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections: no more than the cores of the reference host.
pub const CONNECTIONS: usize = 2;

/// One HTTP/1.1 keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response: status and body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends one request in a single write and reads its response.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        self.stream.write_all(&request)?;
        self.read_reply()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| bad(e.to_string()))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line in {head:?}")))?;
        let length = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok(Reply { status, body })
    }
}

/// How requests are paced.
pub enum Pace<'a> {
    /// Open loop: request `i` is due `due[i]` seconds after the start.
    Due(&'a [f64]),
    /// Closed loop: keep sending until this many seconds have passed.
    For(f64),
}

/// One answered request.
pub struct Sample {
    pub index: usize,
    /// From when the request was due (open loop) or sent (closed loop).
    pub latency_ms: f64,
    /// How late the request left against its due time.
    pub lateness_ms: f64,
    /// CPU ms the whole process spent while the request was in flight, at
    /// the gauge's reference speed (single-client loops only).
    pub cpu_ms: f64,
    pub status: u16,
    pub body: Vec<u8>,
}

/// What one load phase produced.
pub struct Phase {
    /// Answered requests, by index.
    pub samples: Vec<Sample>,
    /// Requests that died on the socket.
    pub io_errors: u64,
    /// Seconds from the start to the last answer.
    pub elapsed: f64,
}

impl Phase {
    /// Requests that failed: refused, errored, or lost on the socket.
    pub fn failed(&self) -> u64 {
        self.io_errors + self.samples.iter().filter(|s| s.status != 200).count() as u64
    }

    pub fn attempted(&self) -> u64 {
        self.io_errors + self.samples.len() as u64
    }

    /// Latencies of the successful requests, in ms.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.status == 200)
            .map(|s| s.latency_ms)
            .collect()
    }
}

/// Sends `bodies[i % len]` for request `i` on `CONNECTIONS` connections,
/// paced by `pace`.
pub fn drive(addr: SocketAddr, bodies: &[&str], pace: &Pace) -> Phase {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let io_errors = AtomicUsize::new(0);
    let start = Instant::now();
    let take = |i: usize| match pace {
        Pace::Due(due) => due
            .get(i)
            .map(|d| Some(start + Duration::from_secs_f64(*d))),
        Pace::For(s) => (start.elapsed().as_secs_f64() < *s).then_some(None),
    };
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| {
                let mut conn = Conn::open(addr).ok();
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(due) = take(i) else { break };
                    if let Some(wait) = due.and_then(|d| d.checked_duration_since(Instant::now())) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let due = due.unwrap_or(sent);
                    let reply = match conn.as_mut() {
                        Some(c) => c.call("POST", "/v1/experiments", bodies[i % bodies.len()]),
                        None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
                    };
                    match reply {
                        Ok(r) => mine.push(Sample {
                            index: i,
                            latency_ms: ms(due.elapsed()),
                            lateness_ms: ms(sent.saturating_duration_since(due)),
                            cpu_ms: 0.0,
                            status: r.status,
                            body: r.body,
                        }),
                        Err(_) => {
                            io_errors.fetch_add(1, Ordering::Relaxed);
                            conn = Conn::open(addr).ok();
                        }
                    }
                }
                samples
                    .lock()
                    .expect("no client thread panicked")
                    .extend(mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("no client thread panicked");
    samples.sort_by_key(|s| s.index);
    Phase {
        elapsed: start.elapsed().as_secs_f64(),
        samples,
        io_errors: io_errors.into_inner() as u64,
    }
}

/// One client on one keep-alive connection: sends `bodies` in order, each
/// a think time after the previous answer, so exactly one request is in
/// flight and nothing else of the benchmark runs meanwhile. The process's
/// CPU time across a request is then the cost of serving it, and `gauge`
/// rescales it to the reference speed. The gauge sample after each request
/// runs inside the think time.
pub fn one_client(addr: SocketAddr, bodies: &[&str], think: Duration, gauge: &mut Gauge) -> Phase {
    let start = Instant::now();
    let mut conn = Conn::open(addr).ok();
    let mut samples = Vec::with_capacity(bodies.len());
    let mut io_errors = 0;
    for (index, body) in bodies.iter().enumerate() {
        let sent = Instant::now();
        let (cpu_ms, (reply, answered)) = gauge.time(|| {
            let reply = match conn.as_mut() {
                Some(c) => c.call("POST", "/v1/experiments", body),
                None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
            };
            (reply, Instant::now())
        });
        let latency_ms = ms(answered - sent);
        match reply {
            Ok(r) => samples.push(Sample {
                index,
                latency_ms,
                lateness_ms: 0.0,
                cpu_ms,
                status: r.status,
                body: r.body,
            }),
            Err(_) => {
                io_errors += 1;
                conn = Conn::open(addr).ok();
            }
        }
        if let Some(rest) = think.checked_sub(answered.elapsed()) {
            std::thread::sleep(rest);
        }
    }
    Phase {
        elapsed: start.elapsed().as_secs_f64(),
        samples,
        io_errors,
    }
}

/// Arrival times of an open loop at `rate` per second for `seconds`:
/// exponential gaps, as in a Poisson process, drawn as the same stratified
/// set of quantiles for every seed and put in a seeded order. Every seed
/// then offers the same gaps, and only their order varies.
pub fn arrivals(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut t = 0.0;
    permutation(rng, n)
        .into_iter()
        .map(|i| {
            t += -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate;
            t
        })
        .collect()
}

/// A balanced, seeded sequence of indices into `0..k`: each index equally
/// often, in a fresh order every round.
pub fn balanced(rng: &mut Rng, k: usize, n: usize) -> Vec<usize> {
    let mut seq = Vec::with_capacity(n + k);
    while seq.len() < n {
        seq.extend(permutation(rng, k));
    }
    seq.truncate(n);
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::rng;

    #[test]
    fn arrivals_offer_the_same_gaps_in_a_seeded_order() {
        let a = arrivals(&mut rng(1, 0), 20.0, 10.0);
        let b = arrivals(&mut rng(2, 0), 20.0, 10.0);
        assert_eq!(a.len(), 200);
        assert!((a.last().unwrap() - b.last().unwrap()).abs() < 1e-9);
        assert_ne!(a, b);
        assert!((a.last().unwrap() - 10.0).abs() < 0.5, "mean gap is 1/rate");
    }

    #[test]
    fn balanced_sequences_use_every_index_equally() {
        let seq = balanced(&mut rng(3, 0), 4, 12);
        for k in 0..4 {
            assert_eq!(seq.iter().filter(|&&i| i == k).count(), 3);
        }
    }
}
