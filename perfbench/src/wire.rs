//! Minimal HTTP/1.1 keep-alive client for the load engine: pipelined
//! requests over nonblocking sockets, Content-Length framed responses,
//! and a nanosecond-resolution `ppoll` so the open-loop schedule is not
//! rounded to the millisecond ticks of socket timeouts.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `X-Prediction-Id` header, when the daemon journaled the answer.
    pub prediction_id: Option<u64>,
    /// Whether the daemon asked to close the connection.
    pub close: bool,
    /// Response body.
    pub body: Vec<u8>,
}

/// Frame one request. Every request keeps the connection alive.
pub fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A keep-alive connection carrying pipelined requests. Requests are
/// answered in order, so the caller pairs responses with its own FIFO of
/// in-flight requests.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: VecDeque<u8>,
}

impl Conn {
    /// Connect with Nagle off and the socket nonblocking.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn { stream, inbuf: Vec::with_capacity(64 * 1024), outbuf: VecDeque::new() })
    }

    /// Queue `bytes` and write as much as the socket accepts now.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.outbuf.extend(bytes);
        self.flush()
    }

    /// Bytes queued but not yet written.
    pub fn backlog(&self) -> usize {
        self.outbuf.len()
    }

    /// Write queued bytes until the socket would block.
    pub fn flush(&mut self) -> io::Result<()> {
        while !self.outbuf.is_empty() {
            let (head, _) = self.outbuf.as_slices();
            match self.stream.write(head) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read whatever has arrived and append every complete response to
    /// `out`. An orderly close by the peer is an error: the engine never
    /// asks for one.
    pub fn read_responses(&mut self, out: &mut Vec<Response>) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut consumed = 0;
        while let Some((resp, used)) = parse_response(&self.inbuf[consumed..])? {
            consumed += used;
            out.push(resp);
        }
        self.inbuf.drain(..consumed);
        Ok(())
    }

    fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }
}

/// Parse one response from the front of `buf`: `Ok(None)` when it is not
/// complete yet, otherwise the response and the bytes it used.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|s| s.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let (mut length, mut prediction_id, mut close) = (None, None, false);
    for line in lines {
        let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().map_err(|_| bad("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("x-prediction-id") {
            prediction_id = Some(value.parse().map_err(|_| bad("bad X-Prediction-Id"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length"))?;
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    Ok(Some((Response { status, prediction_id, close, body }, total)))
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Ask the kernel to fire this thread's timers within 1 ns of the
/// requested time instead of the default 50 µs slack, so timed waits do
/// not make the open-loop generator late.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer argument and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Sleep until any connection is readable (or writable, for those with
/// a backlog) or `timeout` passes.
pub fn wait(conns: &[Conn], timeout: Duration) -> io::Result<()> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.fd(),
            events: if c.backlog() > 0 { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let ts = Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: timeout.subsec_nanos() as i64 };
    // SAFETY: `fds` is a live, correctly laid out `struct pollfd` array of
    // `fds.len()` entries, `ts` is a valid `struct timespec`, and a null
    // signal mask leaves the thread's mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// One blocking request/response on a fresh connection, for set-up,
/// scrapes and shutdown. Returns the status and body.
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(&request(method, path, body))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some((resp, _)) = parse_response(&buf)? {
            return Ok((resp.status, resp.body));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_and_waits_for_partial_ones() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Prediction-Id: 7\r\n\r\n{}\
HTTP/1.1 503 Service Unavailable\r\ncontent-length: 3\r\nConnection: close\r\n\r\nabc";
        let (a, used) = parse_response(two).unwrap().unwrap();
        assert_eq!(
            (a.status, a.prediction_id, a.close, a.body.as_slice()),
            (200, Some(7), false, &b"{}"[..])
        );
        let (b, rest) = parse_response(&two[used..]).unwrap().unwrap();
        assert_eq!((b.status, b.prediction_id, b.close), (503, None, true));
        assert_eq!(used + rest, two.len());
        assert!(parse_response(&two[..used - 1]).unwrap().is_none());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
