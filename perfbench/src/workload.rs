//! Workload definitions and one measured pass over a running stack.
//!
//! A workload is a population plus a sequence of phases, each given a
//! share of the run's `--seconds`:
//!
//! * **lanes** — synchronous open-loop lanes over [`Client`]
//!   connections: genuine logins (probe_sketch → Identify →
//!   device.respond → Response) and/or a write lane (Enroll,
//!   EnrollUnique, Revoke);
//! * **saturate** — a fixed number of impostor identifies kept in
//!   flight on one connection (identification capacity).

use crate::inputs::{self, DeviceUser};
use crate::load::{self, Outcome, Sample, Saturation};
use crate::schedule::{poisson, stream, Due};
use crate::stack::Stack;
use crate::trace::{Span, Tracer};
use fuzzy_id::net::{Client, ErrorCode, NetError};
use fuzzy_id::protocol::{BiometricDevice, EnrollmentRecord, IdentOutcome, SystemParams};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The churn write mix (relative rates): fresh enrollments, half of
/// them uniqueness-checked, plus revokes of earlier enrollees. The
/// gated `write_p50_us` is taken from the `EnrollUnique` samples alone
/// (see [`GATED_WRITE`]); the other kinds ride along as contention.
pub const CHURN_MIX: &[(WriteKind, f64)] = &[
    (WriteKind::Enroll, 250.0),
    (WriteKind::EnrollUnique, 250.0),
    (WriteKind::Revoke, 50.0),
];

/// The write-tail mix: uniqueness-checked enrollments only, the kind
/// `write_p50_us` is taken from.
pub const UNIQUE_ONLY: &[(WriteKind, f64)] = &[(WriteKind::EnrollUnique, 1.0)];

/// The write kind whose latencies make `write_p50_us`/`write_p99_us`
/// on every workload. A mix of a fast kind (no scan) and a slow one
/// (a full uniqueness sweep) has its median in the gap between the two
/// modes, where a small shift of either moves it a lot.
pub const GATED_WRITE: u8 = kind::ENROLL_UNIQUE;

/// Logins per second on one login lane (one connection). A lane is
/// synchronous, so its queueing grows with its utilization, and latency
/// from the due time carries that queueing: at 70/s a lane is busy
/// about a quarter of the time.
pub const LOGIN_LANE_RATE: f64 = 70.0;

/// A write lane: its rate and mix.
#[derive(Debug, Clone, Copy)]
pub struct WriteLane {
    /// Writes per second.
    pub rate: f64,
    /// Relative rates of the kinds of write.
    pub mix: &'static [(WriteKind, f64)],
}

/// Sample kinds.
pub mod kind {
    /// A genuine login.
    pub const LOGIN: u8 = 1;
    /// An enrollment.
    pub const ENROLL: u8 = 2;
    /// A uniqueness-checked enrollment.
    pub const ENROLL_UNIQUE: u8 = 3;
    /// A revocation.
    pub const REVOKE: u8 = 4;
}

/// One phase of a pass.
#[derive(Debug, Clone)]
pub enum PhaseKind {
    /// Synchronous lanes: one per login rate, plus an optional write
    /// lane.
    Lanes {
        /// Logins per second, one entry per login lane.
        login_rates: Vec<f64>,
        /// The write lane, if any.
        writes: Option<WriteLane>,
    },
    /// Impostor identifies kept in flight.
    Saturate {
        /// Requests outstanding.
        outstanding: usize,
    },
}

/// A named phase and its share of the run's seconds.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name (for reports).
    pub name: &'static str,
    /// What runs.
    pub kind: PhaseKind,
    /// Share of `--seconds`.
    pub share: f64,
}

/// A workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Enrolled records before the run.
    pub population: usize,
    /// Device-enrolled users among them.
    pub device_users: usize,
    /// Served from a durable store.
    pub durable: bool,
    /// Phases, in order.
    pub phases: Vec<Phase>,
}

/// Times each workload's cycle of phases repeats. Every end-to-end
/// figure is then drawn from the whole run, not from one stretch of it,
/// so a few disturbed seconds of a shared host move it less.
pub const CYCLES: usize = 16;

/// The workloads: a cycle of phases, repeated [`CYCLES`] times.
/// `identify_rps` is the median of the saturation blocks.
pub fn spec(name: &str) -> Option<Spec> {
    let sat = |share| Phase {
        name: "saturate",
        kind: PhaseKind::Saturate { outstanding: 32 },
        share,
    };
    let phase = |name, kind, share| Phase { name, kind, share };
    let (name, population, device_users, durable, cycle) = match name {
        "login" => (
            "login",
            100_000,
            1_000,
            false,
            vec![
                phase(
                    "logins",
                    PhaseKind::Lanes {
                        login_rates: vec![LOGIN_LANE_RATE; 2],
                        writes: None,
                    },
                    0.0375,
                ),
                phase(
                    "write_tail",
                    PhaseKind::Lanes {
                        login_rates: vec![],
                        writes: Some(WriteLane {
                            rate: 1000.0,
                            mix: UNIQUE_ONLY,
                        }),
                    },
                    0.00875,
                ),
                sat(0.01625),
            ],
        ),
        "churn" => (
            "churn",
            100_000,
            500,
            true,
            vec![
                phase(
                    "mixed",
                    PhaseKind::Lanes {
                        login_rates: vec![LOGIN_LANE_RATE],
                        writes: Some(WriteLane {
                            rate: 550.0,
                            mix: CHURN_MIX,
                        }),
                    },
                    0.0475,
                ),
                sat(0.015),
            ],
        ),
        _ => return None,
    };
    Some(Spec {
        name,
        population,
        device_users,
        durable,
        phases: (0..CYCLES).flat_map(|_| cycle.iter().cloned()).collect(),
    })
}

/// Kinds of write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// `Enroll`.
    Enroll,
    /// `EnrollUnique`.
    EnrollUnique,
    /// `Revoke` of the oldest acknowledged, unrevoked enrollee.
    Revoke,
}

/// A scheduled write.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Enroll `record` (with the uniqueness sweep when `unique`); `bio`
    /// indexes the pass's write biometrics.
    Enroll {
        /// The fresh record.
        record: EnrollmentRecord,
        /// Index of its biometric.
        bio: usize,
        /// Sent as `EnrollUnique`.
        unique: bool,
    },
    /// Revoke the oldest acknowledged enrollee of this lane.
    Revoke,
}

/// A scheduled login: which device user, and the fresh reading the
/// device captures.
#[derive(Debug, Clone)]
pub struct LoginOp {
    /// Index into the device users.
    pub user: usize,
    /// The reading (within `t` of the enrolled biometric).
    pub reading: Vec<i64>,
}

/// Pre-generated inputs of one phase.
pub enum PhaseInputs {
    /// Lane schedules.
    Lanes {
        /// One schedule per login lane.
        logins: Vec<Vec<Due<LoginOp>>>,
        /// The write lane's schedule.
        writes: Option<Vec<Due<WriteOp>>>,
    },
    /// Probe pool and duration.
    Saturate(Vec<Vec<i64>>, usize, Duration),
}

/// Inputs of one pass, generated before it runs.
pub struct PassInputs {
    /// Per-phase inputs, in phase order.
    pub phases: Vec<(Phase, PhaseInputs)>,
    /// Biometrics of the pass's write records, by index.
    pub write_bios: Vec<Vec<i64>>,
}

/// Generates the inputs of pass `pass` (pass 0 untraced, pass 1 traced:
/// the same workload and rates, fresh write ids so the two passes
/// never collide).
pub fn pass_inputs(
    spec: &Spec,
    params: &SystemParams,
    seed: u64,
    pass: usize,
    seconds: f64,
    users: &[DeviceUser],
) -> PassInputs {
    let mut write_bios = Vec::new();
    let mut phases = Vec::new();
    for (p, phase) in spec.phases.iter().enumerate() {
        let span = Duration::from_secs_f64(seconds * phase.share);
        let tag = format!("pass{pass}-phase{p}");
        let inputs = match &phase.kind {
            PhaseKind::Lanes {
                login_rates,
                writes,
            } => {
                let logins = login_rates
                    .iter()
                    .enumerate()
                    .map(|(l, &rate)| {
                        let mut rng = stream(seed, &format!("{tag}-login-{l}"));
                        poisson(&mut rng, rate, span)
                            .into_iter()
                            .map(|at| {
                                let user = rng.gen_range(0..users.len());
                                let reading =
                                    inputs::genuine_reading(params, &users[user].bio, &mut rng);
                                Due {
                                    at,
                                    op: LoginOp { user, reading },
                                }
                            })
                            .collect()
                    })
                    .collect();
                let writes = writes.map(|lane| {
                    write_schedule(
                        params,
                        seed,
                        &format!("{tag}-w"),
                        lane,
                        span,
                        &mut write_bios,
                    )
                });
                PhaseInputs::Lanes { logins, writes }
            }
            PhaseKind::Saturate { outstanding } => {
                let mut rng = stream(seed, &format!("{tag}-saturate"));
                let pool = (0..256)
                    .map(|_| inputs::impostor_probe(params, &mut rng))
                    .collect();
                PhaseInputs::Saturate(pool, *outstanding, span)
            }
        };
        phases.push((phase.clone(), inputs));
    }
    PassInputs { phases, write_bios }
}

/// A write lane's schedule: Poisson arrivals at `rate`, each an
/// enroll, enroll-unique or revoke in the lane's mix. A
/// revoke is only scheduled when an earlier enroll of the lane exists
/// to revoke. Fresh records are synthesized for every enroll.
fn write_schedule(
    params: &SystemParams,
    seed: u64,
    tag: &str,
    lane: WriteLane,
    span: Duration,
    bios: &mut Vec<Vec<i64>>,
) -> Vec<Due<WriteOp>> {
    let mut rng = stream(seed, tag);
    let total: f64 = lane.mix.iter().map(|(_, r)| r).sum();
    let mut kinds = Vec::new();
    let (mut enrolls, mut revokes) = (0usize, 0usize);
    for at in poisson(&mut rng, lane.rate, span) {
        let mut u = rng.gen::<f64>() * total;
        let mut kind = WriteKind::Revoke;
        for &(k, r) in lane.mix {
            if u < r {
                kind = k;
                break;
            }
            u -= r;
        }
        if kind == WriteKind::Revoke {
            if revokes >= enrolls {
                continue;
            }
            revokes += 1;
        } else {
            enrolls += 1;
        }
        kinds.push((at, kind));
    }
    let first = bios.len();
    let prefix = format!("{tag}-");
    let records = inputs::synthetic(params, seed, &prefix, enrolls, |b| bios.push(b));
    let mut records = records.into_iter().enumerate();
    kinds
        .into_iter()
        .map(|(at, kind)| {
            let op = match kind {
                WriteKind::Revoke => WriteOp::Revoke,
                k => {
                    let (i, record) = records.next().expect("one record per enroll");
                    WriteOp::Enroll {
                        record,
                        bio: first + i,
                        unique: k == WriteKind::EnrollUnique,
                    }
                }
            };
            Due { at, op }
        })
        .collect()
}

/// A write the server acknowledged (the durable store must hold it).
#[derive(Debug, Clone)]
pub enum Acked {
    /// An enrollment, with the index of its biometric.
    Enroll(EnrollmentRecord, usize),
    /// A revocation.
    Revoke(String),
}

/// Everything one pass produced.
#[derive(Default)]
pub struct PassResult {
    /// Timed lane and pipelined operations.
    pub samples: Vec<Sample>,
    /// Saturation phases.
    pub saturation: Vec<Saturation>,
    /// Spans (traced pass only).
    pub spans: Vec<Span>,
    /// Acknowledged writes, in acknowledgement order per lane.
    pub acked: Vec<Acked>,
    /// Biometrics of the pass's write records.
    pub write_bios: Vec<Vec<i64>>,
    /// Per-phase wall time, for the report.
    pub phase_seconds: Vec<(&'static str, f64)>,
    /// CPU time stolen from this guest by the host during the pass, s.
    pub steal_s: f64,
}

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`, all CPUs), seconds since boot; 0 where unavailable.
/// A pass during which it grows ran on a contended host.
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: f64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.0);
    // USER_HZ is 100 on every mainstream Linux build.
    ticks / 100.0
}

/// Classifies a transport/remote failure. Genuine logins and writes of
/// fresh records have exactly one right answer, so a *remote* verdict
/// other than a shed is a wrong result; sheds and transport errors are
/// tolerated (and counted).
fn failure(e: &NetError) -> Outcome {
    match e {
        NetError::Remote(w) if w.code == ErrorCode::Overloaded => Outcome::default(),
        NetError::Remote(_) => Outcome {
            wrong: true,
            ..Outcome::default()
        },
        _ => Outcome::default(),
    }
}

fn ok(mark: Option<Instant>) -> Outcome {
    Outcome {
        ok: true,
        wrong: false,
        mark,
    }
}

/// Runs one pass: every phase in order on the live stack.
#[allow(clippy::too_many_arguments)]
pub fn run_pass(
    stack: &Stack,
    params: &SystemParams,
    users: &[DeviceUser],
    inputs: PassInputs,
    seed: u64,
    pass: usize,
    traced: bool,
    epoch: Instant,
) -> PassResult {
    let mut result = PassResult {
        write_bios: inputs.write_bios,
        ..PassResult::default()
    };
    let mut span_buffers = Vec::new();
    let addr = stack.addr();
    let fingerprint = params.fingerprint();
    let mut req_base = (pass as u64) << 40;
    let steal_before = steal_s();
    for (p, (phase, phase_inputs)) in inputs.phases.into_iter().enumerate() {
        let started = Instant::now();
        match phase_inputs {
            PhaseInputs::Lanes { logins, writes } => {
                let lanes = logins.len() + usize::from(writes.is_some());
                assert!(
                    lanes <= load::load_threads(),
                    "phase {} needs {lanes} load threads; this box allows {}",
                    phase.name,
                    load::load_threads()
                );
                // Connect first, start together a moment later.
                let mut clients: Vec<Client> = (0..lanes)
                    .map(|_| Client::connect(addr, params).expect("connect a lane"))
                    .collect();
                let start = Instant::now() + Duration::from_millis(20);
                let write_client = writes
                    .as_ref()
                    .map(|_| clients.pop().expect("write client"));
                std::thread::scope(|scope| {
                    let mut handles = Vec::new();
                    for (l, (schedule, client)) in logins.into_iter().zip(clients).enumerate() {
                        let rng = stream(seed, &format!("pass{pass}-phase{p}-device-{l}"));
                        let base = req_base + ((l as u64) << 32);
                        handles.push(scope.spawn(move || {
                            login_lane(
                                addr, params, users, client, rng, start, schedule, traced, epoch,
                                base,
                            )
                        }));
                    }
                    let writer = writes.map(|schedule| {
                        let client = write_client.expect("write client");
                        let base = req_base + (7u64 << 32);
                        scope.spawn(move || {
                            write_lane(addr, params, client, start, schedule, traced, epoch, base)
                        })
                    });
                    for h in handles {
                        let (samples, spans) = h.join().expect("login lane");
                        result.samples.extend(samples);
                        span_buffers.push(spans);
                    }
                    if let Some(h) = writer {
                        let (samples, spans, acked) = h.join().expect("write lane");
                        result.samples.extend(samples);
                        span_buffers.push(spans);
                        result.acked.extend(acked);
                    }
                });
            }
            PhaseInputs::Saturate(pool, outstanding, span) => {
                result.saturation.push(load::run_saturated(
                    addr,
                    fingerprint,
                    &pool,
                    outstanding,
                    span,
                ));
            }
        }
        result
            .phase_seconds
            .push((phase.name, started.elapsed().as_secs_f64()));
        req_base += 1 << 36;
    }
    result.spans = crate::trace::merge(span_buffers);
    result.steal_s = steal_s() - steal_before;
    result
}

/// Unmeasured warm-up before a pass: impostor identifies and genuine
/// logins over one connection for `span`, so the first measured
/// requests do not pay for cold caches and lazily built state.
pub fn warm_up(
    stack: &Stack,
    params: &SystemParams,
    users: &[DeviceUser],
    seed: u64,
    span: Duration,
) {
    let mut client = Client::connect(stack.addr(), params).expect("connect the warm-up client");
    let device = BiometricDevice::new(params.clone());
    let mut rng = stream(seed, "warm-up");
    let mut tracer = Tracer::new(Instant::now(), false);
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < span {
        let probe = inputs::impostor_probe(params, &mut rng);
        let _ = client.identify(probe);
        let user = &users[i % users.len()];
        let reading = inputs::genuine_reading(params, &user.bio, &mut rng);
        login_once(
            &device,
            &mut client,
            &mut rng,
            &user.id,
            &reading,
            &mut tracer,
            0,
            None,
        );
        i += 1;
    }
}

/// One login lane: a device and a client connection.
#[allow(clippy::too_many_arguments)]
fn login_lane(
    addr: std::net::SocketAddr,
    params: &SystemParams,
    users: &[DeviceUser],
    mut client: Client,
    mut rng: StdRng,
    start: Instant,
    schedule: Vec<Due<LoginOp>>,
    traced: bool,
    epoch: Instant,
    req_base: u64,
) -> (Vec<Sample>, Vec<Span>) {
    let device = BiometricDevice::new(params.clone());
    let mut tracer = Tracer::new(epoch, traced);
    let samples = load::run_sync(
        start,
        schedule,
        &mut tracer,
        req_base,
        |_| kind::LOGIN,
        |req, op, tr| {
            let root = tr.begin("login", req, None);
            let out = login_once(
                &device,
                &mut client,
                &mut rng,
                &users[op.user].id,
                &op.reading,
                tr,
                req,
                root,
            );
            tr.end(root);
            if !out.ok && !out.wrong {
                // A transport failure may leave the stream desynced.
                client = Client::connect(addr, params).expect("reconnect a lane");
            }
            out
        },
    );
    (samples, tracer.into_spans())
}

/// One genuine login: fresh sketch → Identify → Rep + sign → Response;
/// right only when the server identifies exactly `own_id`.
#[allow(clippy::too_many_arguments)]
fn login_once(
    device: &BiometricDevice,
    client: &mut Client,
    rng: &mut StdRng,
    own_id: &str,
    reading: &[i64],
    tr: &mut Tracer,
    req: u64,
    root: crate::trace::SpanId,
) -> Outcome {
    let probe = tr
        .span("device.probe_sketch", req, root, || {
            device.probe_sketch(reading, rng)
        })
        .expect("sketch of a ring vector");
    let challenge = match tr.span("net.identify", req, root, || client.identify(probe)) {
        Ok(c) => c,
        Err(e) => return failure(&e),
    };
    let mark = Some(Instant::now());
    let Ok(response) = tr.span("device.respond", req, root, || {
        device.respond(reading, &challenge, rng)
    }) else {
        // Rep failed: the server handed back someone else's helper.
        return Outcome {
            wrong: true,
            ..Outcome::default()
        };
    };
    match tr.span("net.finish", req, root, || {
        client.finish_identification(&response)
    }) {
        Ok(IdentOutcome::Identified(id)) if id == own_id => ok(mark),
        Ok(_) => Outcome {
            wrong: true,
            mark,
            ..Outcome::default()
        },
        Err(e) => Outcome {
            mark,
            ..failure(&e)
        },
    }
}

/// The write lane: enrollments, uniqueness-checked enrollments and
/// revokes of the lane's own earlier enrollees.
#[allow(clippy::too_many_arguments)]
fn write_lane(
    addr: std::net::SocketAddr,
    params: &SystemParams,
    mut client: Client,
    start: Instant,
    schedule: Vec<Due<WriteOp>>,
    traced: bool,
    epoch: Instant,
    req_base: u64,
) -> (Vec<Sample>, Vec<Span>, Vec<Acked>) {
    let mut tracer = Tracer::new(epoch, traced);
    let mut acked = Vec::new();
    let mut revocable: VecDeque<String> = VecDeque::new();
    let samples = load::run_sync(
        start,
        schedule,
        &mut tracer,
        req_base,
        |op| match op {
            WriteOp::Enroll { unique: false, .. } => kind::ENROLL,
            WriteOp::Enroll { unique: true, .. } => kind::ENROLL_UNIQUE,
            WriteOp::Revoke => kind::REVOKE,
        },
        |req, op, tr| {
            let out = match op {
                WriteOp::Enroll {
                    record,
                    bio,
                    unique,
                } => {
                    let sent = record.clone();
                    let res = if unique {
                        tr.span("net.enroll_unique", req, None, || {
                            client.enroll_unique(sent)
                        })
                    } else {
                        tr.span("net.enroll", req, None, || client.enroll(sent))
                    };
                    match res {
                        Ok(()) => {
                            revocable.push_back(record.id.clone());
                            acked.push(Acked::Enroll(record, bio));
                            ok(None)
                        }
                        Err(e) => failure(&e),
                    }
                }
                WriteOp::Revoke => match revocable.pop_front() {
                    Some(id) => match tr.span("net.revoke", req, None, || client.revoke(&id)) {
                        Ok(()) => {
                            acked.push(Acked::Revoke(id));
                            ok(None)
                        }
                        Err(e) => failure(&e),
                    },
                    // The enroll this revoke was scheduled behind failed.
                    None => Outcome::default(),
                },
            };
            if !out.ok && !out.wrong {
                client = Client::connect(addr, params).expect("reconnect the write lane");
            }
            out
        },
    );
    (samples, tracer.into_spans(), acked)
}
