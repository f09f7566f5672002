//! The load generator: paced open-loop synchronous lanes (one
//! [`Client`](fuzzy_id::net::Client) connection per thread) and a
//! closed saturation pipeline (one connection, a sender and a receiver
//! thread) for identification capacity.
//!
//! Every operation has a due time from a seeded Poisson schedule. A
//! lane sleeps until the due time when it is idle, or starts at once
//! when an earlier operation overran; either way the latency is taken
//! from the due time. *Generator lag* is how late a send left although
//! the lane was idle — the generator's own lateness, which says whether
//! the run is valid.

use crate::schedule::Due;
use crate::trace::Tracer;
use fuzzy_id::core::codec::Fingerprint;
use fuzzy_id::net::envelope::{self, ResponseBody};
use fuzzy_id::net::frame::{read_frame, write_frame};
use fuzzy_id::net::handshake::client_handshake;
use fuzzy_id::net::{ErrorCode, DEFAULT_MAX_FRAME};
use fuzzy_id::protocol::wire::Message;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Load threads one process may run: the hardware thread count, capped
/// at two (and two connections).
pub fn load_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

/// How long before a due time a lane stops sleeping and polls the clock
/// (yielding, so a server thread sharing the core is not held up): a
/// sleeping thread's wake-up overshoot on Linux is well under this.
const SPIN_WINDOW: Duration = Duration::from_micros(100);

/// Waits until `due`; returns whether the lane was idle (arrived
/// early).
pub fn wait_until(due: Instant) -> bool {
    let now = Instant::now();
    if now >= due {
        return false;
    }
    if due - now > SPIN_WINDOW {
        std::thread::sleep(due - now - SPIN_WINDOW);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
    true
}

/// What one operation produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// The operation succeeded with the expected result.
    pub ok: bool,
    /// The operation returned a *wrong* result (not a tolerated
    /// failure such as a shed or a transport error): the run's output
    /// checks fail.
    pub wrong: bool,
    /// An intermediate completion time (the identify leg of a login).
    pub mark: Option<Instant>,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Operation kind (caller-defined tag).
    pub kind: u8,
    /// Due time.
    pub due: Instant,
    /// When the operation actually started.
    pub sent: Instant,
    /// When it completed.
    pub done: Instant,
    /// Intermediate completion (see [`Outcome::mark`]).
    pub mark: Option<Instant>,
    /// The lane was idle at the due time (so `sent − due` is generator
    /// lag, not backlog).
    pub idle: bool,
    /// Succeeded.
    pub ok: bool,
    /// Wrong result.
    pub wrong: bool,
}

impl Sample {
    /// Due → done, µs.
    pub fn latency_us(&self) -> f64 {
        us(self.done.saturating_duration_since(self.due))
    }

    /// Due → the intermediate mark, µs.
    pub fn mark_us(&self) -> Option<f64> {
        self.mark.map(|m| us(m.saturating_duration_since(self.due)))
    }

    /// Generator lag (µs) when the lane was idle.
    pub fn lag_us(&self) -> Option<f64> {
        self.idle
            .then(|| us(self.sent.saturating_duration_since(self.due)))
    }
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs a synchronous lane: each operation starts at its due time (or
/// at once when the lane is behind) and runs to completion before the
/// next. `exec` gets the request id, the operation and the tracer.
pub fn run_sync<T>(
    start: Instant,
    ops: Vec<Due<T>>,
    tracer: &mut Tracer,
    req_base: u64,
    mut kind_of: impl FnMut(&T) -> u8,
    mut exec: impl FnMut(u64, T, &mut Tracer) -> Outcome,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(ops.len());
    for (i, Due { at, op }) in ops.into_iter().enumerate() {
        let due = start + at;
        let idle = wait_until(due);
        let kind = kind_of(&op);
        let sent = Instant::now();
        let o = exec(req_base + i as u64, op, tracer);
        out.push(Sample {
            kind,
            due,
            sent,
            done: Instant::now(),
            mark: o.mark,
            idle,
            ok: o.ok,
            wrong: o.wrong,
        });
    }
    out
}

/// Opens a raw handshaken connection for pipelined traffic.
fn connect_raw(addr: SocketAddr, fingerprint: Fingerprint) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect to the front door");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    client_handshake(&mut stream, &fingerprint, DEFAULT_MAX_FRAME).expect("handshake");
    stream
}

/// Classifies an identify reply that must be `NO_MATCH`.
fn miss_outcome(response: &envelope::Response) -> Outcome {
    match response {
        Err(e) if e.code == ErrorCode::NoMatch => Outcome {
            ok: true,
            ..Outcome::default()
        },
        // Shed or failed: tolerated, counted.
        Err(_) => Outcome::default(),
        // A challenge for an impostor probe is a wrong answer.
        Ok(ResponseBody::Challenge(_)) | Ok(_) => Outcome {
            wrong: true,
            ..Outcome::default()
        },
    }
}

/// Result of a saturation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Saturation {
    /// Identifies answered.
    pub completed: u64,
    /// Answered `NO_MATCH` as expected.
    pub ok: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// From the first send to the last reply, seconds.
    pub seconds: f64,
}

/// Closed pipeline: keeps `outstanding` impostor identifies in flight on
/// one connection for `span`, then drains. Throughput is completions
/// over the first-send → last-reply interval.
pub fn run_saturated(
    addr: SocketAddr,
    fingerprint: Fingerprint,
    probes: &[Vec<i64>],
    outstanding: usize,
    span: Duration,
) -> Saturation {
    let mut stream = connect_raw(addr, fingerprint);
    let mut reader = stream.try_clone().expect("clone the stream");
    let (token_tx, token_rx) = mpsc::channel::<()>();
    let (stamp_tx, stamp_rx) = mpsc::channel::<u64>();
    for _ in 0..outstanding {
        token_tx.send(()).expect("token channel open");
    }
    let start = Instant::now();
    let mut sat = Saturation::default();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut i = 0u64;
            while token_rx.recv().is_ok() && start.elapsed() < span {
                let probe = probes[i as usize % probes.len()].clone();
                let request = envelope::encode_request(i, &Message::Identify { probe });
                write_frame(&mut stream, &request, DEFAULT_MAX_FRAME).expect("write request");
                stamp_tx.send(i).expect("receiver alive");
                i += 1;
            }
        });
        let mut last = start;
        while let Ok(id) = stamp_rx.recv() {
            let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("read reply");
            let (got, response) = envelope::decode_response(&payload).expect("decode reply");
            assert_eq!(got, id, "front door answered out of order");
            last = Instant::now();
            let o = miss_outcome(&response);
            sat.completed += 1;
            sat.ok += u64::from(o.ok);
            sat.wrong += u64::from(o.wrong);
            // The sender may already have stopped; a refused token is fine.
            let _ = token_tx.send(());
        }
        sat.seconds = last.duration_since(start).as_secs_f64();
    });
    sat
}
