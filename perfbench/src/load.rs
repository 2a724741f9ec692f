//! Single-threaded load engine driving a few keep-alive connections.
//!
//! Requests sit in one schedule ordered by the time they are due. A
//! closed loop keeps a fixed number in flight by scheduling each next
//! request when an answer arrives, and is timed from the send. An open
//! loop pre-fills the schedule and is timed from when each request was
//! *due*, so a stall that delays later sends is charged to those requests
//! (no coordinated omission). The engine records how late it sent each
//! request.

use crate::wire::{self, Conn, Response};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What a request asks the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/advise`.
    Advise,
    /// `POST /v1/predict`.
    Predict,
    /// `POST /v1/observe`.
    Observe,
}

impl Kind {
    /// Span name of a wire request of this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Advise => "wire.advise",
            Kind::Predict => "wire.predict",
            Kind::Observe => "wire.observe",
        }
    }
}

/// A request waiting in the schedule.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When it is due, in ns since the engine's epoch.
    pub due_ns: u64,
    /// Open loop: timed from `due_ns`, so time spent waiting to be sent
    /// counts. Closed loop: timed from the send.
    pub open: bool,
    /// Connection index it goes out on.
    pub conn: usize,
    /// What it asks.
    pub kind: Kind,
    /// Workload-defined handle to the question (key index, row set, ...).
    pub tag: usize,
    /// The framed request.
    pub bytes: Vec<u8>,
}

/// How a workload judged one answer.
#[derive(Debug)]
pub enum Verdict {
    /// Checked and correct.
    Ok,
    /// Refused, timed out, or lost with its connection.
    Fail(String),
    /// Answered, but malformed or not what the oracle computes.
    Wrong(String),
    /// Needs the offline oracle; checked after the timed window.
    Later(Vec<u8>),
}

/// One finished request.
#[derive(Debug)]
pub struct Done {
    /// What it asked.
    pub kind: Kind,
    /// The workload's handle to the question.
    pub tag: usize,
    /// When it was due (ns since epoch).
    pub due_ns: u64,
    /// Whether it was part of an open loop.
    pub open: bool,
    /// When it was handed to the socket.
    pub sent_ns: u64,
    /// When its answer was read (or it was given up on).
    pub done_ns: u64,
    /// The workload's judgement.
    pub verdict: Verdict,
}

impl Done {
    /// When its clock starts: the due time in an open loop, the send in
    /// a closed one.
    pub fn start_ns(&self) -> u64 {
        if self.open {
            self.due_ns
        } else {
            self.sent_ns
        }
    }

    /// Latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.start_ns()) as f64 / 1e6
    }

    /// How late the engine sent it, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// The workload side of the engine: judges answers and may schedule
/// follow-up requests (the next closed-loop request, a later observe).
pub trait Traffic {
    /// Judge `resp` to `req`, answered at `now_ns`; push any follow-ups.
    fn check(
        &mut self,
        req: &Planned,
        resp: &Response,
        now_ns: u64,
        follow: &mut Vec<Planned>,
    ) -> Verdict;
}

struct Queued(Planned, u64);

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    // Reversed so the max-heap pops the earliest due request first; the
    // sequence number keeps equal due times in insertion order.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.due_ns, other.1).cmp(&(self.0.due_ns, self.1))
    }
}

struct InFlight {
    req: Planned,
    sent_ns: u64,
}

/// A request unanswered this long after it was sent is a failure.
const REQUEST_TIMEOUT_NS: u64 = 5_000_000_000;

/// The engine: connections plus the clock every time is measured on.
pub struct Engine {
    addr: SocketAddr,
    conns: Vec<Conn>,
    epoch: Instant,
}

impl Engine {
    /// Open `n_conns` keep-alive connections to `addr`.
    pub fn connect(addr: SocketAddr, n_conns: usize) -> io::Result<Engine> {
        wire::tighten_timer_slack();
        let conns = (0..n_conns).map(|_| Conn::connect(addr)).collect::<io::Result<Vec<_>>>()?;
        Ok(Engine { addr, conns, epoch: Instant::now() })
    }

    /// The instant every time of this engine counts from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the engine's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Send everything in `schedule` (and every follow-up) that falls due
    /// before `stop_ns`, then wait for the outstanding answers. Requests
    /// due at or after `stop_ns` are never sent.
    pub fn run(
        &mut self,
        schedule: Vec<Planned>,
        stop_ns: u64,
        traffic: &mut dyn Traffic,
    ) -> Vec<Done> {
        let mut seq = 0u64;
        let mut queue: BinaryHeap<Queued> = schedule
            .into_iter()
            .map(|p| {
                seq += 1;
                Queued(p, seq)
            })
            .collect();
        let mut inflight: Vec<VecDeque<InFlight>> =
            self.conns.iter().map(|_| VecDeque::new()).collect();
        let mut done = Vec::new();
        let (mut responses, mut follow) = (Vec::new(), Vec::new());
        loop {
            let now = self.now_ns();
            while queue.peek().is_some_and(|q| q.0.due_ns <= now && q.0.due_ns < stop_ns) {
                let Queued(req, _) = queue.pop().expect("peeked");
                let c = req.conn;
                let sent = self.conns[c].send(&req.bytes);
                let sent_ns = self.now_ns();
                match sent {
                    Ok(()) => inflight[c].push_back(InFlight { req, sent_ns }),
                    Err(e) => done.push(failed(req, sent_ns, sent_ns, format!("send: {e}"))),
                }
            }
            let sending = queue.peek().is_some_and(|q| q.0.due_ns < stop_ns);
            if !sending && inflight.iter().all(VecDeque::is_empty) {
                break;
            }
            // Give up on requests the daemon never answered.
            for (c, fl) in inflight.iter_mut().enumerate() {
                if fl.front().is_some_and(|f| now.saturating_sub(f.sent_ns) > REQUEST_TIMEOUT_NS) {
                    for f in fl.drain(..) {
                        done.push(failed(f.req, f.sent_ns, now, "timeout".into()));
                    }
                    self.reconnect(c, &mut done, now);
                }
            }
            let wait_ns = match queue.peek() {
                Some(q) if sending => q.0.due_ns.saturating_sub(now),
                _ => 10_000_000,
            }
            .min(10_000_000);
            if wait_ns > 0 {
                if let Err(e) = wire::wait(&self.conns, Duration::from_nanos(wait_ns)) {
                    panic!("ppoll failed: {e}");
                }
            }
            for (c, fl) in inflight.iter_mut().enumerate() {
                responses.clear();
                let read = self.conns[c]
                    .read_responses(&mut responses)
                    .and_then(|_| self.conns[c].flush());
                let done_ns = self.now_ns();
                for resp in responses.drain(..) {
                    let Some(f) = fl.pop_front() else {
                        panic!("connection {c}: answer to a request never sent");
                    };
                    let verdict = if resp.close {
                        Verdict::Fail(format!("status {} with Connection: close", resp.status))
                    } else {
                        traffic.check(&f.req, &resp, done_ns, &mut follow)
                    };
                    done.push(Done {
                        kind: f.req.kind,
                        tag: f.req.tag,
                        due_ns: f.req.due_ns,
                        open: f.req.open,
                        sent_ns: f.sent_ns,
                        done_ns,
                        verdict,
                    });
                }
                if let Err(e) = read {
                    for f in fl.drain(..) {
                        done.push(failed(f.req, f.sent_ns, done_ns, format!("connection: {e}")));
                    }
                    self.reconnect(c, &mut done, done_ns);
                }
            }
            for p in follow.drain(..) {
                seq += 1;
                queue.push(Queued(p, seq));
            }
        }
        done
    }

    fn reconnect(&mut self, c: usize, done: &mut Vec<Done>, now: u64) {
        match Conn::connect(self.addr) {
            Ok(conn) => self.conns[c] = conn,
            Err(e) => done.push(Done {
                kind: Kind::Advise,
                tag: usize::MAX,
                due_ns: now,
                open: false,
                sent_ns: now,
                done_ns: now,
                verdict: Verdict::Fail(format!("reconnect: {e}")),
            }),
        }
    }
}

fn failed(req: Planned, sent_ns: u64, done_ns: u64, why: String) -> Done {
    Done {
        kind: req.kind,
        tag: req.tag,
        due_ns: req.due_ns,
        open: req.open,
        sent_ns,
        done_ns,
        verdict: Verdict::Fail(why),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{nearest_rank, sorted};
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// Answers every request with `200 {}` at once, except that it sleeps
    /// `stall` before answering request number `stall_at`.
    fn stub_server(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>, mpsc::Sender<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            let (mut buf, mut chunk, mut served) = (Vec::new(), [0u8; 4096], 0usize);
            loop {
                if stop_rx.try_recv().is_ok() {
                    return;
                }
                match s.read(&mut chunk) {
                    Ok(0) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(_) => continue,
                }
                // Each request is a head plus a two-byte body.
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    if buf.len() < end + 6 {
                        break;
                    }
                    buf.drain(..end + 6);
                    served += 1;
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}").unwrap();
                }
            }
        });
        (addr, handle, stop_tx)
    }

    struct AcceptAll;
    impl Traffic for AcceptAll {
        fn check(&mut self, _: &Planned, resp: &Response, _: u64, _: &mut Vec<Planned>) -> Verdict {
            if resp.status == 200 {
                Verdict::Ok
            } else {
                Verdict::Fail(resp.status.to_string())
            }
        }
    }

    /// Coordinated omission check: one 200 ms stall must show up in the
    /// latencies of every request scheduled during it, not only in the
    /// one request the stalled server was handling.
    #[test]
    fn open_loop_charges_a_stall_to_the_requests_queued_behind_it() {
        let (addr, server, stop) = stub_server(100, Duration::from_millis(200));
        let mut engine = Engine::connect(addr, 1).unwrap();
        let start = engine.now_ns() + 1_000_000;
        let stop_ns = start + 600_000_000;
        let schedule = (start..stop_ns)
            .step_by(1_000_000)
            .map(|due_ns| Planned {
                due_ns,
                open: true,
                conn: 0,
                kind: Kind::Predict,
                tag: 0,
                bytes: wire::request("POST", "/x", "{}"),
            })
            .collect();
        let done = engine.run(schedule, stop_ns, &mut AcceptAll);
        stop.send(()).unwrap();
        drop(engine);
        server.join().unwrap();
        assert!(done.iter().all(|d| matches!(d.verdict, Verdict::Ok)));
        let lat: Vec<f64> = done.iter().map(Done::latency_ms).collect();
        let slow = lat.iter().filter(|&&l| l >= 50.0).count();
        // ~1000 req/s over a 200 ms stall queues ~200 requests; those due
        // in its first 150 ms wait at least 50 ms.
        assert!(slow >= 100, "only {slow} requests saw the stall");
        assert!(nearest_rank(&sorted(&lat), 99.0) >= 100.0);
        // The schedule was honoured: sends were not held back by the stall.
        let late = sorted(&done.iter().map(Done::late_ms).collect::<Vec<_>>());
        assert!(nearest_rank(&late, 50.0) < 5.0, "generator ran late: {late:?}");
    }
}
