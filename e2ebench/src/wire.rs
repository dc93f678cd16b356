//! Closed-loop load from one client thread over a few connections.
//!
//! Every connection keeps at most its window of requests in flight, and a
//! new request goes out on a connection only when one of its replies has
//! come back. One thread waits on all connections at once with `poll(2)`,
//! so a slow reply on one connection never delays reading another's and
//! each latency runs from the request's send to its reply's arrival.

use cbir_server::protocol::{decode_response, encode_request, write_frame, FrameDecoder};
use cbir_server::{Request, Response};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
}

/// One nonblocking connection with its in-flight requests in send order
/// (the server answers each connection in request order).
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    inflight: VecDeque<(u64, Instant)>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            inflight: VecDeque::new(),
        })
    }

    fn queue(&mut self, tag: u64, req: &Request) -> std::io::Result<()> {
        write_frame(&mut self.out, &encode_request(req))?;
        self.inflight.push_back((tag, Instant::now()));
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read what the socket holds; returns the completed reply payloads.
    fn read_ready(&mut self, buf: &mut [u8], frames: &mut Vec<Vec<u8>>) -> std::io::Result<()> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection with replies outstanding",
                    ))
                }
                Ok(n) => {
                    let mut at = 0;
                    while at < n {
                        let (used, frame) = self.decoder.feed(&buf[at..n])?;
                        at += used;
                        frames.extend(frame);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// What a closed loop sends and what it does with each reply.
pub trait Load {
    /// The next request for connection `conn` with a tag naming it, or
    /// `None` when that connection has nothing to send now. The loop asks
    /// again after every reply on any connection.
    fn next(&mut self, conn: usize) -> Option<(u64, Request)>;
    /// The reply to the request tagged `tag`, sent at `sent`.
    fn reply(&mut self, conn: usize, tag: u64, sent: Instant, done: Instant, resp: Response);
}

/// Run `load` over `conns`, each connection holding up to its `window`
/// requests in flight, until no request is in flight and none is ready
/// to go. A connection silent for `stall` is an error.
pub fn drive(
    conns: &mut [Conn],
    window: &[usize],
    load: &mut impl Load,
    stall: Duration,
) -> std::io::Result<()> {
    assert_eq!(conns.len(), window.len());
    let mut buf = vec![0u8; 1 << 16];
    let mut frames = Vec::new();
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    loop {
        for (c, conn) in conns.iter_mut().enumerate() {
            while conn.inflight.len() < window[c] {
                let Some((tag, req)) = load.next(c) else {
                    break;
                };
                conn.queue(tag, &req)?;
            }
            conn.flush()?;
        }
        fds.clear();
        let mut idx = Vec::with_capacity(conns.len());
        for (c, conn) in conns.iter().enumerate() {
            let mut events = 0;
            if !conn.inflight.is_empty() {
                events |= POLLIN;
            }
            if !conn.out.is_empty() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                idx.push(c);
            }
        }
        if fds.is_empty() {
            return Ok(());
        }
        // SAFETY: `fds` is a live, initialised array of `fds.len()` pollfd
        // structs laid out as the C struct (`#[repr(C)]`, i32/i16/i16), and
        // every fd in it belongs to a socket `conns` keeps open for the call.
        let ready = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
                stall.as_millis().min(i32::MAX as u128) as i32,
            )
        };
        if ready < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                continue;
            }
            return Err(e);
        }
        if ready == 0 {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!("no reply for {stall:?}"),
            ));
        }
        for (f, &c) in fds.iter().zip(&idx) {
            if f.revents == 0 {
                continue;
            }
            let conn = &mut conns[c];
            if f.revents & POLLOUT != 0 {
                conn.flush()?;
            }
            if f.revents & !POLLOUT != 0 {
                conn.read_ready(&mut buf, &mut frames)?;
                let now = Instant::now();
                for payload in frames.drain(..) {
                    let (tag, sent) = conn.inflight.pop_front().ok_or_else(|| {
                        std::io::Error::new(ErrorKind::InvalidData, "reply without a request")
                    })?;
                    let resp = decode_response(&payload)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.0))?;
                    load.reply(c, tag, sent, now, resp);
                }
            }
        }
    }
}
