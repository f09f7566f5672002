//! One benchmark run: generate inputs from the seed, set the stack up,
//! run the workload's passes, check every output, and compute the
//! metrics of the requested mode.

use crate::inputs;
use crate::json::Json;
use crate::load::Sample;
use crate::metrics::{self, LAYERS};
use crate::probes::{
    self, CryptoProbe, IndexProbe, ServerProbe, StoreProbe, WireProbe, WriteProbe,
};
use crate::schedule::stream;
use crate::stack::Stack;
use crate::stats::{median, sorted, supported_tail};
use crate::trace;
use crate::workload::{self, kind, Acked, PassResult, PhaseKind, Spec, GATED_WRITE};
use fuzzy_id::core::EpochIndex;
use fuzzy_id::protocol::concurrent::SharedServer;
use fuzzy_id::protocol::{BiometricDevice, IdentOutcome, SystemParams};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Unmeasured traffic between set-up and the first pass.
pub const WARM_UP: std::time::Duration = std::time::Duration::from_secs(1);

/// Generator lag (p99, µs) above which a run is marked invalid: the
/// generator, not the server, would then be shaping the latencies.
pub const MAX_VALID_LAG_US: f64 = 1_000.0;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Samples behind it (0 for single measurements and counters).
    pub samples: usize,
    /// How it was taken.
    pub note: String,
}

/// The run's result.
#[derive(Debug)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (tolerated failures and wrong results).
    pub failed: u64,
    /// Metrics in catalogue order.
    pub metrics: Vec<Metric>,
    /// Tail percentiles of the untraced run (reported, not gated).
    pub tails: Vec<Metric>,
    /// Run context and details.
    pub context: Json,
    /// Failed checks, for the report.
    pub failures: Vec<String>,
}

/// Directory for results, spans and scratch stores: `out/` beside the
/// benchmark's manifest (inside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Resident set size, MiB.
pub fn rss_mib() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: f64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .unwrap_or(0.0);
    pages * 4096.0 / (1024.0 * 1024.0)
}

/// Server-side counters read around the untraced pass.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    requests: u64,
    responses_err: u64,
    net_shed: u64,
    admitted: u64,
    shed: u64,
    size_flushes: u64,
    deadline_flushes: u64,
    batches: u64,
    batched: u64,
    lookups: u64,
    /// Cumulative (not a difference): the log-bucket p99 at read time.
    queue_depth_p99: u64,
}

impl Counters {
    fn read(stack: &Stack) -> Counters {
        let n = stack.net_metrics();
        let m = stack.sched().metrics();
        let batch = m.batch_size.snapshot();
        Counters {
            requests: n.requests(),
            responses_err: n.responses_err(),
            net_shed: n.shed(),
            admitted: m.admitted(),
            shed: m.shed(),
            size_flushes: m.size_flushes(),
            deadline_flushes: m.deadline_flushes(),
            batches: batch.count,
            batched: batch.sum,
            lookups: stack.shared().lookup_count(),
            queue_depth_p99: m.queue_depth.snapshot().p99,
        }
    }

    fn minus(self, o: Counters) -> Counters {
        Counters {
            requests: self.requests - o.requests,
            responses_err: self.responses_err - o.responses_err,
            net_shed: self.net_shed - o.net_shed,
            admitted: self.admitted - o.admitted,
            shed: self.shed - o.shed,
            size_flushes: self.size_flushes - o.size_flushes,
            deadline_flushes: self.deadline_flushes - o.deadline_flushes,
            batches: self.batches - o.batches,
            batched: self.batched - o.batched,
            lookups: self.lookups - o.lookups,
            queue_depth_p99: self.queue_depth_p99,
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// SIMD features the scan kernels can dispatch to on this CPU.
fn simd_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            flags.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            flags.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            flags.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx512bw") {
            flags.push("avx512bw");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            flags.push("neon");
        }
    }
    flags
}

/// Latency statistics of one operation class in one pass.
#[derive(Debug, Clone, Copy, Default)]
struct Lat {
    p50: f64,
    p99: f64,
    q99: f64,
    windows: usize,
    n: usize,
}

/// Samples per window of the tail percentile.
const TAIL_WINDOW: usize = 1_000;

/// Median and tail of latencies given in due-time order. The tail is the
/// highest percentile ≤ p99 with ten samples beyond it, taken per window
/// of at least [`TAIL_WINDOW`] consecutive samples; the median over the
/// windows is reported, so one disturbed stretch of a run (a host stall,
/// a burst of arrivals) cannot decide it alone.
fn lat(in_order: Vec<f64>) -> Lat {
    let windows = (in_order.len() / TAIL_WINDOW).max(1);
    let size = in_order.len() / windows;
    let tails: Vec<_> = (0..windows)
        .filter_map(|w| {
            supported_tail(
                &sorted(in_order[w * size..(w + 1) * size].to_vec()),
                0.99,
                10,
            )
        })
        .collect();
    let s = sorted(in_order);
    Lat {
        p50: median(&s).unwrap_or(f64::NAN),
        p99: median(&sorted(tails.iter().map(|t| t.value).collect())).unwrap_or(f64::NAN),
        q99: tails.first().map_or(f64::NAN, |t| t.q),
        windows: tails.len(),
        n: s.len(),
    }
}

/// The end-to-end figures of one pass.
#[derive(Debug, Clone, Copy, Default)]
struct PassFigures {
    login: Lat,
    identify: Lat,
    write: Lat,
    rps: f64,
    rps_blocks: usize,
    rps_n: u64,
    attempted: u64,
    ok: u64,
    wrong: u64,
    lag: Lat,
    behind_ratio: f64,
    match_ratio: f64,
}

fn figures(r: &PassResult) -> PassFigures {
    let mut in_order: Vec<&Sample> = r.samples.iter().collect();
    in_order.sort_by_key(|s| s.due);
    let of = |kinds: &[u8]| -> Vec<&Sample> {
        in_order
            .iter()
            .copied()
            .filter(|s| kinds.contains(&s.kind))
            .collect()
    };
    let logins = of(&[kind::LOGIN]);
    let writes = of(&[GATED_WRITE]);
    let sat_completed: u64 = r.saturation.iter().map(|s| s.completed).sum();
    let block_rps = sorted(
        r.saturation
            .iter()
            .filter(|s| s.seconds > 0.0)
            .map(|s| s.completed as f64 / s.seconds)
            .collect(),
    );
    let sat_ok: u64 = r.saturation.iter().map(|s| s.ok).sum();
    let sat_wrong: u64 = r.saturation.iter().map(|s| s.wrong).sum();
    let attempted = r.samples.len() as u64 + sat_completed;
    let ok = r.samples.iter().filter(|s| s.ok).count() as u64 + sat_ok;
    let wrong = r.samples.iter().filter(|s| s.wrong).count() as u64 + sat_wrong;
    let behind = r.samples.iter().filter(|s| !s.idle).count();
    let identifies = logins.len() as u64 + sat_completed;
    PassFigures {
        login: lat(logins.iter().map(|s| s.latency_us()).collect()),
        identify: lat(logins.iter().filter_map(|s| s.mark_us()).collect()),
        write: lat(writes.iter().map(|s| s.latency_us()).collect()),
        rps: median(&block_rps).unwrap_or(f64::NAN),
        rps_blocks: block_rps.len(),
        rps_n: sat_completed,
        attempted,
        ok,
        wrong,
        lag: lat(r.samples.iter().filter_map(Sample::lag_us).collect()),
        behind_ratio: ratio(behind as u64, r.samples.len() as u64),
        match_ratio: ratio(logins.len() as u64, identifies),
    }
}

fn e2e_value(f: &PassFigures, name: &str) -> (f64, usize, String) {
    let q = |l: &Lat| {
        format!(
            "p{:.2}, median of {} windows of {} samples",
            l.q99 * 100.0,
            l.windows,
            l.n / l.windows.max(1)
        )
    };
    match name {
        "ok_ratio" => (
            ratio(f.ok, f.attempted),
            f.attempted as usize,
            "ok / attempted".into(),
        ),
        "login_p50_us" => (f.login.p50, f.login.n, "median from due time".into()),
        "login_p99_us" => (f.login.p99, f.login.n, q(&f.login)),
        "identify_p50_us" => (f.identify.p50, f.identify.n, "median from due time".into()),
        "identify_p99_us" => (f.identify.p99, f.identify.n, q(&f.identify)),
        "identify_rps" => (
            f.rps,
            f.rps_n as usize,
            format!("32 outstanding, median of {} blocks", f.rps_blocks),
        ),
        "write_p50_us" => (
            f.write.p50,
            f.write.n,
            "median from due time, EnrollUnique only".into(),
        ),
        "write_p99_us" => (f.write.p99, f.write.n, q(&f.write)),
        other => panic!("no pass figure for {other}"),
    }
}

/// Runs the benchmark once.
pub fn run(args: &Args) -> Result<Report, String> {
    let spec = workload::spec(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected login or churn)",
            args.workload
        )
    })?;
    let threads = crate::load::load_threads();
    if threads < 2 {
        return Err(
            "the benchmark needs two hardware threads (its lanes run on two load threads)".into(),
        );
    }
    let params = SystemParams::paper_defaults();
    let seed = args.seed;
    let out = out_dir();
    let tmp = out.join(format!("tmp-{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let mut failures: Vec<String> = Vec::new();

    // ---- inputs (not timed) ----
    let t_inputs = Instant::now();
    let population = inputs::population(&params, seed, spec.population, spec.device_users);
    // The crypto probe reproduces keys from the device users' own records.
    let device_records: HashMap<String, fuzzy_id::protocol::EnrollmentRecord> = if args.trace {
        let ids: std::collections::HashSet<&str> = population
            .device_users
            .iter()
            .map(|u| u.id.as_str())
            .collect();
        population
            .records
            .iter()
            .filter(|r| ids.contains(r.id.as_str()))
            .map(|r| (r.id.clone(), r.clone()))
            .collect()
    } else {
        HashMap::new()
    };
    let users = population.device_users;
    let passes = if args.trace { 2 } else { 1 };
    let mut pass_inputs: Vec<_> = (0..passes)
        .map(|p| workload::pass_inputs(&spec, &params, seed, p, args.seconds, &users))
        .collect();
    let inputs_s = t_inputs.elapsed().as_secs_f64();

    // ---- set-up (timed) ----
    // Every set-up loads its own copy of the population, made before its
    // timer starts. The original stays alive until memory is read at the
    // end of the pass, so it cancels out of the growth; the copy the kept
    // set-up consumes is the server's own memory. The kept set-up comes
    // first, so nothing a discarded set-up leaves in the allocator falls
    // inside the measured window; the untraced run times the others once
    // its pass is over.
    let records = population.records;
    let set_up = |i: usize| {
        let dir = spec.durable.then(|| tmp.join(format!("store-{i}")));
        let owned = records.clone();
        let (stack, times) = Stack::load(&params, owned, dir.as_deref(), seed);
        (stack, times, dir)
    };
    let rss_start = rss_mib();
    let (stack, times, store_dir) = set_up(0);
    let mut setup_s = vec![times.total_s];
    let checkpoint_s = times.checkpoint_s;

    // ---- pass 0: untraced ----
    workload::warm_up(&stack, &params, &users, seed, WARM_UP);
    let epoch = Instant::now();
    let before = Counters::read(&stack);
    let r0 = workload::run_pass(
        &stack,
        &params,
        &users,
        pass_inputs.remove(0),
        seed,
        0,
        false,
        epoch,
    );
    let counters = Counters::read(&stack).minus(before);
    let rss_end = rss_mib();
    let f0 = figures(&r0);
    let sample_file = out.join(format!(
        "{}-seed{}-trace{}-samples.csv",
        spec.name,
        seed,
        u8::from(args.trace)
    ));
    write_samples(&sample_file, &r0.samples, epoch).map_err(|e| format!("write samples: {e}"))?;

    // ---- pass 1 and live-stack probes: traced run only ----
    let mut traced = None;
    if args.trace {
        let r1 = workload::run_pass(
            &stack,
            &params,
            &users,
            pass_inputs.remove(0),
            seed,
            1,
            true,
            epoch,
        );
        let batch_mean = ratio(counters.batched, counters.batches);
        let server = probes::server_probe(&stack, &params, &users, seed, batch_mean);
        let writes = probes::write_probe(&stack, &params, seed);
        let wire = probes::wire_probe(&server.exchanges, &params, seed);
        traced = Some((r1, server, writes, wire));
    }

    // ---- shut down; durable stores must recover what was acknowledged ----
    stack.shutdown();
    if !args.trace {
        for i in 1..SETUPS {
            let (stack, times, dir) = set_up(i);
            setup_s.push(times.total_s);
            stack.shutdown();
            if let Some(d) = dir {
                let _ = std::fs::remove_dir_all(d);
            }
        }
    }
    let mut recover_s = None;
    if let Some(dir) = &store_dir {
        let t = Instant::now();
        let recovered = SharedServer::<EpochIndex>::recover(params.clone(), dir)
            .map_err(|e| format!("recover the churn store: {e}"))?;
        recover_s = Some(t.elapsed().as_secs_f64());
        check_recovery(
            &params,
            &spec,
            &recovered,
            &users,
            &r0,
            traced.as_ref().map(|t| (&t.0, &t.2)),
            seed,
            &mut failures,
        );
    }

    // ---- checks on every pass ----
    let mut attempted = f0.attempted;
    let mut failed = f0.attempted - f0.ok;
    if f0.wrong > 0 {
        failures.push(format!("{} operations returned a wrong result", f0.wrong));
    }
    for s in &r0.saturation {
        if s.completed == 0 {
            failures.push("a saturation phase completed nothing".into());
        }
    }

    let lag_valid = f0.lag.p99.is_nan() || f0.lag.p99 <= MAX_VALID_LAG_US;
    let mut metrics_out = Vec::new();
    let mut tails = Vec::new();
    let context;
    if let Some((r1, server, writes, wire)) = traced {
        let f1 = figures(&r1);
        attempted += f1.attempted;
        failed += f1.attempted - f1.ok;
        if f1.wrong > 0 {
            failures.push(format!(
                "{} traced operations returned a wrong result",
                f1.wrong
            ));
        }
        for (ok, what) in [
            (server.correct, "scheduler/concurrent probe"),
            (writes.correct, "write probe"),
        ] {
            if !ok {
                failures.push(format!("{what} saw a wrong answer"));
            }
        }
        // Off-stack probes.
        let crypto = probes::crypto_probe(&params, &users, &device_records, seed);
        let index = probes::index_probe(&params, records, &users, &r0.acked, seed);
        let store = probes::store_probe(&params, &r0.acked, &tmp.join("store-probe"));
        for (ok, what) in [
            (crypto.correct, "crypto probe"),
            (index.correct, "index probe"),
            (store.correct, "store probe"),
        ] {
            if !ok {
                failures.push(format!("{what} saw a wrong answer"));
            }
        }
        let span_file = out.join(format!("{}-seed{}-spans.csv", spec.name, seed));
        trace::write_csv(&span_file, &r1.spans).map_err(|e| format!("write spans: {e}"))?;
        let layered = LayerInputs {
            f0: &f0,
            f1: &f1,
            r1: &r1,
            counters: &counters,
            server: &server,
            writes: &writes,
            wire: &wire,
            crypto: &crypto,
            index: &index,
            store: &store,
            checkpoint_s,
            recover_s,
        };
        metrics_out = per_layer(&layered);
        context = run_context(
            &spec,
            args,
            &params,
            threads,
            &f0,
            lag_valid,
            &setup_s,
            inputs_s,
            recover_s,
            &r0,
            Some(span_file),
        );
    } else {
        let setup_sorted = sorted(setup_s.clone());
        metrics_out.push(Metric {
            name: "setup_s".into(),
            value: median(&setup_sorted).expect("set-ups ran"),
            samples: setup_s.len(),
            note: "median of set-ups".into(),
        });
        metrics_out.push(Metric {
            name: "rss_mb".into(),
            value: rss_end - rss_start,
            samples: 1,
            note: "RSS growth, kept set-up → end of the pass".into(),
        });
        for &(name, _, _) in metrics::END_TO_END.iter().skip(2) {
            let (value, samples, note) = e2e_value(&f0, name);
            metrics_out.push(Metric {
                name: name.into(),
                value,
                samples,
                note,
            });
        }
        for &name in metrics::TAILS {
            let (value, samples, note) = e2e_value(&f0, name);
            tails.push(Metric {
                name: name.into(),
                value,
                samples,
                note,
            });
        }
        context = run_context(
            &spec, args, &params, threads, &f0, lag_valid, &setup_s, inputs_s, recover_s, &r0, None,
        );
    }
    for m in &metrics_out {
        if !m.value.is_finite() {
            failures.push(format!("{} has no value ({} samples)", m.name, m.samples));
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(Report {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics: metrics_out,
        tails,
        context,
        failures,
    })
}

/// Writes the untraced pass's operations as CSV
/// (`kind,due_us,sent_us,done_us,ok`), times from the pass epoch — the
/// raw material for checking that no backlog grew during a run.
fn write_samples(
    path: &std::path::Path,
    samples: &[Sample],
    epoch: Instant,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "kind,due_us,sent_us,done_us,ok")?;
    let t = |i: Instant| crate::load::us(i.saturating_duration_since(epoch));
    for s in samples {
        writeln!(
            out,
            "{},{:.1},{:.1},{:.1},{}",
            s.kind,
            t(s.due),
            t(s.sent),
            t(s.done),
            u8::from(s.ok)
        )?;
    }
    out.flush()
}

/// After `churn`: the recovered user count is preload + acknowledged
/// enrolls − acknowledged revokes, a sample of acknowledged enrollees
/// identifies (reset returns exactly their id), and a sample of device
/// users completes a full login in process.
#[allow(clippy::too_many_arguments)]
fn check_recovery(
    params: &SystemParams,
    spec: &Spec,
    recovered: &SharedServer<EpochIndex>,
    users: &[inputs::DeviceUser],
    r0: &PassResult,
    traced: Option<(&PassResult, &WriteProbe)>,
    seed: u64,
    failures: &mut Vec<String>,
) {
    let mut all: Vec<(&Acked, &[Vec<i64>])> = r0
        .acked
        .iter()
        .map(|a| (a, r0.write_bios.as_slice()))
        .collect();
    if let Some((r1, w)) = traced {
        all.extend(r1.acked.iter().map(|a| (a, r1.write_bios.as_slice())));
        all.extend(w.acked.iter().map(|a| (a, w.bios.as_slice())));
    }
    let enrolls = all
        .iter()
        .filter(|(a, _)| matches!(a, Acked::Enroll(..)))
        .count();
    let revokes = all.len() - enrolls;
    let expected = spec.population + enrolls - revokes;
    let got = recovered.user_count();
    if got != expected {
        failures.push(format!(
            "recovered {got} users, expected {} preload + {enrolls} enrolls - {revokes} revokes = {expected}",
            spec.population
        ));
    }
    let revoked: std::collections::HashSet<&str> = all
        .iter()
        .filter_map(|(a, _)| match a {
            Acked::Revoke(id) => Some(id.as_str()),
            Acked::Enroll(..) => None,
        })
        .collect();
    let mut rng = stream(seed, "recovery-check");
    let live: Vec<(&str, &Vec<i64>)> = all
        .iter()
        .filter_map(|(a, bios)| match a {
            Acked::Enroll(rec, bio) if !revoked.contains(rec.id.as_str()) => {
                Some((rec.id.as_str(), &bios[*bio]))
            }
            _ => None,
        })
        .collect();
    let step = (live.len() / 50).max(1);
    for (id, bio) in live.iter().step_by(step).take(50) {
        let probe = inputs::genuine_probe(params, bio, &mut rng);
        match recovered.reset(&probe) {
            Ok(found) if found == *id => {}
            other => failures.push(format!(
                "acknowledged enrollee {id} does not identify after recovery: {other:?}"
            )),
        }
    }
    let device = BiometricDevice::new(params.clone());
    for user in users.iter().step_by((users.len() / 20).max(1)).take(20) {
        let reading = inputs::genuine_reading(params, &user.bio, &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).expect("sketch");
        let outcome = recovered
            .begin_identification(&probe, &mut rng)
            .and_then(|c| device.respond(&reading, &c, &mut rng))
            .and_then(|r| recovered.finish_identification(&r));
        if !matches!(outcome, Ok(IdentOutcome::Identified(ref id)) if *id == user.id) {
            failures.push(format!(
                "device user {} does not log in after recovery: {outcome:?}",
                user.id
            ));
        }
    }
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    f0: &'a PassFigures,
    f1: &'a PassFigures,
    r1: &'a PassResult,
    counters: &'a Counters,
    server: &'a ServerProbe,
    writes: &'a WriteProbe,
    wire: &'a WireProbe,
    crypto: &'a CryptoProbe,
    index: &'a IndexProbe,
    store: &'a StoreProbe,
    checkpoint_s: Option<f64>,
    recover_s: Option<f64>,
}

fn per_layer(x: &LayerInputs<'_>) -> Vec<Metric> {
    let sum = trace::summarize(&x.r1.spans);
    let span = |name: &str| {
        sum.get(name).map_or((0.0, 0.0, 0usize), |s| {
            (s.median_us, s.self_median_us, s.count)
        })
    };
    let (net_identify, _, n_identify) = span("net.identify");
    let (net_finish, _, n_finish) = span("net.finish");
    let (probe_sketch, _, n_probe) = span("device.probe_sketch");
    let (respond, _, n_respond) = span("device.respond");
    let (_, login_glue, _) = span("login");
    let (s, c, i, k) = (x.server, x.crypto, x.index, x.wire);
    let pos = |v: f64| v.max(0.0);

    let net_identify_self = pos(net_identify - s.sched_hit_us);
    let scheduler_wait = pos(s.sched_hit_us - s.batch1_hit_us);
    // Each kind of write over the wire minus the same kind in process,
    // weighted by how often the lane sent it.
    let (mut write_self, mut n_write) = (0.0, 0usize);
    for (name, in_process) in [
        ("net.enroll", x.writes.enroll_us),
        ("net.enroll_unique", x.writes.enroll_unique_us),
        ("net.revoke", x.writes.revoke_us),
    ] {
        let (wire_us, _, n) = span(name);
        write_self += n as f64 * pos(wire_us - in_process);
        n_write += n;
    }
    let net_write_self = ratio_f(write_self, n_write as f64);
    let c0 = x.counters;
    let tail = |name: &str| {
        let (v, n, _) = e2e_value(x.f0, name);
        (name.to_string(), v, n)
    };
    let mut m: Vec<(String, f64, usize)> = vec![
        tail("login_p99_us"),
        tail("identify_p99_us"),
        tail("write_p99_us"),
        ("loadgen.lag_p99_us".into(), x.f0.lag.p99, x.f0.lag.n),
        (
            "error_rate".into(),
            1.0 - ratio(x.f0.ok, x.f0.attempted),
            x.f0.attempted as usize,
        ),
        ("net.identify_self_us".into(), net_identify_self, n_identify),
        (
            "net.finish_self_us".into(),
            pos(net_finish - s.finish_us),
            n_finish,
        ),
        ("net.write_self_us".into(), net_write_self, n_write),
        ("net.requests".into(), c0.requests as f64, 0),
        ("net.responses_err".into(), c0.responses_err as f64, 0),
        ("net.shed".into(), c0.net_shed as f64, 0),
        ("wire.encode_us".into(), k.login_encode_us, k.calls),
        ("wire.decode_us".into(), k.login_decode_us, k.calls),
        ("scheduler.wait_us".into(), scheduler_wait, s.calls),
        (
            "scheduler.deadline_flush_ratio".into(),
            ratio(c0.deadline_flushes, c0.deadline_flushes + c0.size_flushes),
            c0.batches as usize,
        ),
        (
            "scheduler.batch_mean".into(),
            ratio(c0.batched, c0.batches),
            c0.batches as usize,
        ),
        (
            "scheduler.queue_depth_p99".into(),
            c0.queue_depth_p99 as f64,
            c0.admitted as usize,
        ),
        (
            "scheduler.shed_ratio".into(),
            ratio(c0.shed, c0.admitted + c0.shed),
            (c0.admitted + c0.shed) as usize,
        ),
        (
            "concurrent.identify_batch_us_per_probe".into(),
            s.batch_us_per_probe,
            s.batch_size,
        ),
        ("concurrent.finish_us".into(), s.finish_us, s.calls),
        (
            "concurrent.finish_self_us".into(),
            pos(s.finish_us - c.verify_us),
            s.calls,
        ),
        (
            "concurrent.enroll_us".into(),
            x.writes.enroll_us,
            x.writes.calls,
        ),
        (
            "concurrent.enroll_unique_us".into(),
            x.writes.enroll_unique_us,
            x.writes.calls,
        ),
        (
            "concurrent.revoke_us".into(),
            x.writes.revoke_us,
            x.writes.calls,
        ),
        ("concurrent.lookups".into(), c0.lookups as f64, 0),
        ("index.miss_scan_us".into(), i.miss_scan_us, i.calls),
        ("index.hit_scan_us".into(), i.hit_scan_us, i.calls),
        (
            "index.batch_scan_us_per_probe".into(),
            i.batch_scan_us_per_probe,
            i.calls,
        ),
        (
            "index.churn_miss_scan_us".into(),
            i.churn_miss_scan_us,
            i.calls,
        ),
        ("index.match_ratio".into(), x.f0.match_ratio, 0),
        ("store.append_us".into(), x.store.append_us, x.store.calls),
        (
            "store.journal_bytes_per_write".into(),
            x.store.journal_bytes_per_write,
            x.store.calls,
        ),
        (
            "store.replay_us_per_record".into(),
            x.store.replay_us_per_record,
            x.store.calls,
        ),
        (
            "store.checkpoint_s".into(),
            x.checkpoint_s.unwrap_or(x.store.compact_s),
            1,
        ),
        (
            "store.recover_s".into(),
            x.recover_s.unwrap_or(x.store.recover_s),
            1,
        ),
        ("device.probe_sketch_us".into(), probe_sketch, n_probe),
        ("device.respond_us".into(), respond, n_respond),
        ("fuzzy.reproduce_us".into(), c.reproduce_us, c.calls),
        ("dsa.verify_us".into(), c.verify_us, c.calls),
        ("dsa.sign_us".into(), c.sign_us, c.calls),
        ("dsa.keypair_from_seed_us".into(), c.keypair_us, c.calls),
        ("bigint.mod_pow_1024_us".into(), c.mod_pow_us, c.calls),
    ];
    // Attribution of the blocking path's median to layer self times.
    // `loadgen` holds what the client side adds before and between the
    // layer calls: the wait for a busy lane (median latency from the due
    // time minus median latency from the actual start) plus the glue
    // inside the request's root span.
    let queue_wait = |r: &PassResult, k: u8| {
        let of = |f: &dyn Fn(&Sample) -> f64| {
            median(&sorted(
                r.samples.iter().filter(|s| s.kind == k).map(f).collect(),
            ))
            .unwrap_or(0.0)
        };
        pos(of(&|s| s.latency_us())
            - of(&|s| crate::load::us(s.done.saturating_duration_since(s.sent))))
    };
    let path_p50 = x.f1.login.p50;
    let bigint = (4.0 * c.mod_pow_us).min(c.keypair_us + c.sign_us + c.verify_us);
    let wire = k.login_encode_us + k.login_decode_us;
    let attr: HashMap<&str, (f64, usize)> = HashMap::from([
        (
            "loadgen",
            (queue_wait(x.r1, kind::LOGIN) + login_glue, x.f1.login.n),
        ),
        (
            "device",
            (
                probe_sketch + pos(respond - c.reproduce_us - c.keypair_us - c.sign_us),
                n_probe + n_respond,
            ),
        ),
        ("fuzzy", (c.reproduce_us, c.calls)),
        (
            "dsa",
            (
                pos(c.keypair_us + c.sign_us + c.verify_us - bigint),
                c.calls,
            ),
        ),
        ("bigint", (bigint, c.calls)),
        ("wire", (wire, k.calls)),
        (
            "net",
            (
                pos(net_identify - s.sched_hit_us + net_finish - s.finish_us - wire),
                n_identify + n_finish,
            ),
        ),
        ("scheduler", (scheduler_wait, s.calls)),
        (
            "concurrent",
            (
                pos(s.batch1_hit_us - i.hit_scan_us) + pos(s.finish_us - c.verify_us),
                s.calls,
            ),
        ),
        ("index", (i.hit_scan_us, i.calls)),
    ]);
    let mut covered = 0.0;
    for layer in LAYERS {
        let (self_us, count) = attr.get(layer).copied().unwrap_or((0.0, 0));
        covered += self_us;
        m.push((format!("attr.{layer}.count"), count as f64, count));
        m.push((format!("attr.{layer}.self_us"), self_us, count));
        m.push((
            format!("attr.{layer}.share"),
            ratio_f(self_us, path_p50),
            count,
        ));
    }
    m.push(("attr.path_p50_us".into(), path_p50, 0));
    m.push(("attr.coverage".into(), ratio_f(covered, path_p50), 0));
    for name in metrics::OVERHEAD_OF {
        let (traced, n, _) = e2e_value(x.f1, name);
        let (untraced, _, _) = e2e_value(x.f0, name);
        m.push((format!("overhead.{name}"), traced - untraced, n));
    }
    let catalogue = metrics::per_layer_all();
    assert_eq!(
        m.len(),
        catalogue.len(),
        "per-layer metrics out of step with the catalogue"
    );
    m.into_iter()
        .zip(catalogue)
        .map(|((name, value, samples), (cat, _, _))| {
            assert_eq!(name, cat, "per-layer metrics out of catalogue order");
            Metric {
                name,
                value,
                samples,
                note: String::new(),
            }
        })
        .collect()
}

fn ratio_f(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The run context recorded beside the results.
#[allow(clippy::too_many_arguments)]
fn run_context(
    spec: &Spec,
    args: &Args,
    params: &SystemParams,
    threads: usize,
    f0: &PassFigures,
    lag_valid: bool,
    setup_s: &[f64],
    inputs_s: f64,
    recover_s: Option<f64>,
    r0: &PassResult,
    span_file: Option<PathBuf>,
) -> Json {
    let fp: String = params
        .fingerprint()
        .0
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    let phases = spec
        .phases
        .iter()
        .zip(&r0.phase_seconds)
        .map(|(p, (_, secs))| {
            let what = match &p.kind {
                PhaseKind::Lanes {
                    login_rates,
                    writes,
                } => Json::obj([
                    (
                        "login_lanes_per_s",
                        Json::Arr(login_rates.iter().map(|&r| Json::Num(r)).collect()),
                    ),
                    (
                        "write_lane_per_s",
                        writes.map_or(Json::Null, |w| Json::Num(w.rate)),
                    ),
                    (
                        "write_mix",
                        Json::Arr(
                            writes
                                .map(|w| w.mix)
                                .unwrap_or_default()
                                .iter()
                                .map(|(k, r)| {
                                    Json::obj([
                                        ("kind", Json::str(format!("{k:?}"))),
                                        ("rate", Json::Num(*r)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
                PhaseKind::Saturate { outstanding } => {
                    Json::obj([("outstanding", Json::Int(*outstanding as u64))])
                }
            };
            Json::obj([
                ("name", Json::str(p.name)),
                ("share_of_seconds", Json::Num(p.share)),
                ("wall_s", Json::Num(*secs)),
                ("load", what),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("load_threads", Json::Int(threads as u64)),
        (
            "simd",
            Json::Arr(simd_flags().into_iter().map(Json::str).collect()),
        ),
        (
            "transport",
            Json::str("TCP over the host loopback (127.0.0.1), not a real link"),
        ),
        (
            "params",
            Json::str("SystemParams::paper_defaults(): Table II ring, DSA 1024/160, dimension 64"),
        ),
        ("param_fingerprint", Json::str(fp)),
        ("population", Json::Int(spec.population as u64)),
        ("device_users", Json::Int(spec.device_users as u64)),
        (
            "store",
            Json::str(if spec.durable {
                "durable one-shard FileStore; server default flush policy: one journal append per write, no per-append fsync (page-cache numbers)"
            } else {
                "in memory (no store)"
            }),
        ),
        ("phases", Json::Arr(phases)),
        (
            "setup_s_samples",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("input_generation_s", Json::Num(inputs_s)),
        ("recover_s", recover_s.map_or(Json::Null, Json::Num)),
        (
            "saturation_blocks_rps",
            Json::Arr(
                r0.saturation
                    .iter()
                    .map(|b| Json::Num(b.completed as f64 / b.seconds))
                    .collect(),
            ),
        ),
        ("host_steal_s", Json::Num(r0.steal_s)),
        ("loadgen_lag_p99_us", Json::Num(f0.lag.p99)),
        ("lanes_behind_ratio", Json::Num(f0.behind_ratio)),
        ("valid", Json::Bool(lag_valid)),
        (
            "spans",
            span_file.map_or(Json::Null, |p| Json::str(p.display().to_string())),
        ),
    ])
}
