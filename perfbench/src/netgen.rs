//! Socket load generation: an open-loop generator that keeps its send
//! schedule whatever the server does, and a closed-loop generator that
//! keeps one request outstanding per connection.
//!
//! The open-loop generator is one thread that owns every connection's
//! non-blocking socket and waits with `ppoll(2)` for whichever comes
//! first: the next scheduled send, readable response bytes, or (while a
//! frame is only partly written) send-buffer space. One file descriptor
//! per connection and no `try_clone`, so no second handle can flip
//! `O_NONBLOCK` under the writer; short writes and `WouldBlock` keep the
//! unsent tail in the connection's outbound buffer.

use crate::fixture::cpu_s;
use crate::schedule::Arrival;
use crate::trace::Tracer;
use cerl_core::ServingEngine;
use cerl_math::Matrix;
use cerl_net::wire::{self, FrameReader, Request, Response};
use cerl_net::NetClient;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One pre-built request: per-row domain tags and covariates.
#[derive(Debug, Clone)]
pub struct Payload {
    /// One domain tag per row.
    pub tags: Vec<u64>,
    /// Row-major covariates.
    pub x: Matrix,
}

/// How answers are checked.
pub enum Check<'a> {
    /// One model version serves the whole phase: every answer must equal
    /// `refs[payload]` bit for bit.
    Fixed(&'a [Vec<f64>]),
    /// Versions are published during the phase: record each answer with
    /// the versions visible at send and at receipt, for a check against
    /// per-version references once the phase is over.
    Versioned(&'a ServingEngine),
}

/// An answer kept for a deferred per-version check.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Payload index.
    pub payload: usize,
    /// Version visible before the request was written.
    pub v_send: u64,
    /// Version visible after the answer was decoded.
    pub v_recv: u64,
    /// The served ITEs.
    pub ite: Vec<f64>,
}

/// Outcome counts and samples of one connection's phase.
#[derive(Debug, Default, Clone)]
pub struct ConnReport {
    /// Per answer: (scheduled send relative to the phase start, latency
    /// from the scheduled send), nanoseconds.
    pub latency: Vec<(u64, u64)>,
    /// Per-request lateness: frame fully written minus scheduled send.
    pub lateness_ns: Vec<u64>,
    /// Requests fully written.
    pub sent: u64,
    /// Answers that passed the immediate check (or were recorded for a
    /// deferred one).
    pub ok: u64,
    /// Answers that differ from the reference.
    pub mismatched: u64,
    /// Error responses (refused, shed, failed).
    pub errors: u64,
    /// Written but never answered before the drain deadline.
    pub unanswered: u64,
    /// Scheduled but never sent (the phase stopped sending early).
    pub unsent: u64,
    /// The backlog or generator lateness crossed its limit.
    pub overloaded: bool,
    /// Answers kept for a [`Check::Versioned`] check.
    pub answers: Vec<Answer>,
    /// CPU seconds the generator's own thread spent in the phase, so that
    /// the program's share of the process's CPU time can be told apart.
    pub generator_cpu_s: f64,
}

impl ConnReport {
    /// Merge another connection's report into this one.
    pub fn absorb(&mut self, other: ConnReport) {
        self.latency.extend(other.latency);
        self.lateness_ns.extend(other.lateness_ns);
        self.sent += other.sent;
        self.ok += other.ok;
        self.mismatched += other.mismatched;
        self.errors += other.errors;
        self.unanswered += other.unanswered;
        self.unsent += other.unsent;
        self.overloaded |= other.overloaded;
        self.answers.extend(other.answers);
        self.generator_cpu_s += other.generator_cpu_s;
    }

    /// Requests that count as failed: everything scheduled that did not
    /// come back as a correct answer.
    pub fn failed(&self) -> u64 {
        self.mismatched + self.errors + self.unanswered + self.unsent
    }

    /// Requests the schedule asked for.
    pub fn attempted(&self) -> u64 {
        self.sent + self.unsent
    }
}

/// Limits of one open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Stop sending once this many requests are written but unanswered.
    pub max_outstanding: usize,
    /// Stop sending once the generator runs this far behind schedule.
    pub max_late: Duration,
    /// After the last send, wait at most this long for answers.
    pub drain: Duration,
}

#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const POLLIN: std::ffi::c_short = 0x1;
const POLLOUT: std::ffi::c_short = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
}

/// One client connection of the open-loop generator.
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    out_pos: usize,
    written_total: u64,
    /// (byte offset at which a frame is fully written, request id).
    unflushed: VecDeque<(u64, u64)>,
}

impl Conn {
    /// Connect and switch the socket to non-blocking mode.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            out_pos: 0,
            written_total: 0,
            unflushed: VecDeque::new(),
        })
    }

    /// Write as much of the outbound buffer as the socket takes now.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.written_total += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Read everything available into the frame reader.
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<()> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                // panic-ok: read(2) returned n <= buf.len().
                Ok(n) => self.reader.extend(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Block until one of `conns` is readable (or writable, for one with
/// unsent bytes) or `timeout` passes. Interrupts and spurious wake-ups
/// just return: the caller's loop re-checks everything.
fn wait_any(conns: &[Conn], timeout: Duration) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: if c.out.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(3600) as std::ffi::c_long,
        tv_nsec: std::ffi::c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fds` and `ts` outlive the call, `nfds` is `fds.len()`, and
    // a null `sigmask` keeps the thread's signal mask, which ppoll(2)
    // documents as valid.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// Run one open-loop phase on one thread over all `conns`:
/// `schedules[i]` drives `conns[i]`, all sharing one start instant (a
/// few milliseconds from now). Sending stops early when `stop` is raised
/// (the rest of the schedule is neither sent nor owed) or a limit trips
/// (the rest count as unsent). Returns the report and the phase's wall
/// time from the first due send to the last answer.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conns: &mut [Conn],
    schedules: &[Vec<Arrival>],
    pool: &[Payload],
    check: &Check<'_>,
    limits: Limits,
    stop: Option<&AtomicBool>,
    tracer: Option<&Tracer>,
) -> io::Result<(ConnReport, Duration)> {
    struct Inflight {
        payload: usize,
        at_ns: u64,
        due: Instant,
        v_send: u64,
    }
    let mut merged: Vec<(u64, usize, usize)> = schedules
        .iter()
        .enumerate()
        .flat_map(|(c, s)| s.iter().map(move |a| (a.at_ns, c, a.payload)))
        .collect();
    merged.sort_unstable();
    let cpu0 = cpu_s("thread-self");
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut report = ConnReport {
        latency: Vec::with_capacity(merged.len()),
        lateness_ns: Vec::with_capacity(merged.len()),
        ..ConnReport::default()
    };
    let mut inflight: HashMap<u64, Inflight> = HashMap::new();
    let mut next_id = 1u64;
    let mut next = 0usize;
    let mut sending = true;
    let mut drain_deadline: Option<Instant> = None;
    let mut buf = vec![0u8; 64 * 1024];
    let version = |check: &Check<'_>| match check {
        Check::Versioned(engine) => engine.version(),
        Check::Fixed(_) => 0,
    };
    loop {
        let now = Instant::now();
        // ordering: a lone stop flag that publishes no data.
        if sending && stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            sending = false;
        }
        while sending && next < merged.len() {
            let (at_ns, c, payload) = merged[next];
            let due = t0 + Duration::from_nanos(at_ns);
            if due > now {
                break;
            }
            if inflight.len() >= limits.max_outstanding || now.duration_since(due) > limits.max_late
            {
                report.overloaded = true;
                report.unsent += (merged.len() - next) as u64;
                sending = false;
                break;
            }
            let id = next_id;
            next_id += 1;
            let p = &pool[payload];
            let request = Request {
                request_id: id,
                deadline_ms: 0,
                cols: p.x.cols() as u32,
                tags: p.tags.clone(),
                covariates: p.x.as_slice().to_vec(),
            };
            let v_send = version(check);
            let conn = &mut conns[c];
            wire::encode_request(&request, &mut conn.out);
            let end = conn.written_total + (conn.out.len() - conn.out_pos) as u64;
            conn.unflushed.push_back((end, id));
            inflight.insert(
                id,
                Inflight {
                    payload,
                    at_ns,
                    due,
                    v_send,
                },
            );
            next += 1;
        }
        if sending && next == merged.len() {
            sending = false;
        }
        if !sending && drain_deadline.is_none() {
            drain_deadline = Some(now + limits.drain);
        }
        for conn in conns.iter_mut() {
            conn.flush()?;
            let flushed_at = Instant::now();
            while let Some(&(end, id)) = conn.unflushed.front() {
                if end > conn.written_total {
                    break;
                }
                conn.unflushed.pop_front();
                if let Some(f) = inflight.get(&id) {
                    report.sent += 1;
                    report
                        .lateness_ns
                        .push(flushed_at.saturating_duration_since(f.due).as_nanos() as u64);
                }
            }
            conn.fill(&mut buf)?;
            let received_at = Instant::now();
            while let Some(frame) = conn.reader.next_frame().map_err(invalid)? {
                let response = wire::decode_response(&frame).map_err(invalid)?;
                let Some(f) = inflight.remove(&response.request_id()) else {
                    continue;
                };
                let latency = received_at.saturating_duration_since(f.due);
                match response {
                    Response::Ite { ite, .. } => {
                        report.latency.push((f.at_ns, latency.as_nanos() as u64));
                        let good = match check {
                            Check::Fixed(refs) => bitwise_eq(&ite, &refs[f.payload]),
                            Check::Versioned(_) => {
                                report.answers.push(Answer {
                                    payload: f.payload,
                                    v_send: f.v_send,
                                    v_recv: version(check),
                                    ite,
                                });
                                true
                            }
                        };
                        if good {
                            report.ok += 1;
                        } else {
                            report.mismatched += 1;
                        }
                    }
                    Response::Error { .. } => report.errors += 1,
                }
                if let Some(tracer) = tracer {
                    let start = tracer.offset(f.due);
                    tracer.record(
                        "cerl-net",
                        "net.request",
                        0,
                        start,
                        tracer.offset(received_at),
                    );
                }
            }
        }
        let now = Instant::now();
        let unflushed: usize = conns.iter().map(|c| c.unflushed.len()).sum();
        if !sending && inflight.is_empty() && unflushed == 0 {
            break;
        }
        if drain_deadline.is_some_and(|d| now >= d) {
            // Frames never fully written were never sent.
            report.unsent += unflushed as u64;
            report.unanswered += (inflight.len() - unflushed.min(inflight.len())) as u64;
            break;
        }
        let wake = if sending {
            t0 + Duration::from_nanos(merged[next].0)
        } else {
            drain_deadline.unwrap_or(now)
        };
        let timeout = wake.saturating_duration_since(now);
        if !timeout.is_zero() {
            wait_any(conns, timeout);
        }
    }
    report.generator_cpu_s = cpu_s("thread-self") - cpu0;
    Ok((report, t0.elapsed()))
}

fn invalid(e: wire::WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Bitwise equality of two ITE vectors.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Closed loop over the socket: each of `clients` keeps one request
/// outstanding until `seconds` pass, taking payloads in the order of
/// `orders[i]` for client `i`, cycling. Frames are encoded once up front
/// (request id = payload index + 1) so the clients spend their time
/// waiting, not serializing.
pub fn closed_loop(
    clients: &mut [NetClient],
    orders: &[Vec<usize>],
    pool: &[Payload],
    refs: &[Vec<f64>],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> (ConnReport, Duration) {
    let frames: Vec<Vec<u8>> = pool
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut frame = Vec::new();
            let request = Request {
                request_id: i as u64 + 1,
                deadline_ms: 0,
                cols: p.x.cols() as u32,
                tags: p.tags.clone(),
                covariates: p.x.as_slice().to_vec(),
            };
            wire::encode_request(&request, &mut frame);
            frame
        })
        .collect();
    let frames = &frames;
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let reports: Vec<ConnReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(orders)
            .map(|(client, order)| {
                scope.spawn(move || {
                    let cpu0 = cpu_s("thread-self");
                    let mut r = ConnReport::default();
                    let mut k = 0usize;
                    while Instant::now() < end {
                        let idx = order[k % order.len()];
                        k += 1;
                        let start = Instant::now();
                        r.sent += 1;
                        let answer = client
                            .send_raw(&frames[idx])
                            .map_err(cerl_net::NetError::Io)
                            .and_then(|()| client.recv_response());
                        let done = Instant::now();
                        match answer {
                            Ok(Response::Ite { request_id, ite })
                                if request_id == idx as u64 + 1 =>
                            {
                                r.latency.push((
                                    (start - t0).as_nanos() as u64,
                                    (done - start).as_nanos() as u64,
                                ));
                                if bitwise_eq(&ite, &refs[idx]) {
                                    r.ok += 1;
                                } else {
                                    r.mismatched += 1;
                                }
                            }
                            _ => r.errors += 1,
                        }
                        if let Some(tracer) = tracer {
                            tracer.record(
                                "cerl-net",
                                "net.request",
                                0,
                                tracer.offset(start),
                                tracer.offset(done),
                            );
                        }
                    }
                    r.generator_cpu_s = cpu_s("thread-self") - cpu0;
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut total = ConnReport::default();
    for r in reports {
        total.absorb(r);
    }
    (total, elapsed)
}
