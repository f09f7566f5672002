//! Layer probes for the traced run. Each layer is entered through its
//! public functions, one function per layer here, on a sample of the
//! workload's own inputs — on the live stack (`scheduler`,
//! `concurrent`, `wire`) or on benchmark-built structures after the
//! stack is gone (`index`, `store`, `fuzzy`, `dsa`, `bigint`). A
//! layer's self time is then its time minus the next layer's time on
//! the same inputs.

use crate::inputs::{self, DeviceUser};
use crate::schedule::stream;
use crate::stack::Stack;
use crate::stats::{median, sorted};
use crate::workload::Acked;
use fuzzy_id::bigint::random_below;
use fuzzy_id::core::{EpochIndex, EpochRead, IndexReader, SketchIndex};
use fuzzy_id::crypto::dsa::{Dsa, DsaParams};
use fuzzy_id::crypto::sig::SignatureScheme;
use fuzzy_id::net::envelope::{self, ResponseBody};
use fuzzy_id::protocol::concurrent::SharedServer;
use fuzzy_id::protocol::store::LogEventRef;
use fuzzy_id::protocol::wire::Message;
use fuzzy_id::protocol::{
    BiometricDevice, BuildIndex, EnrollmentRecord, EnrollmentStore, FileStore, IdentOutcome,
    ProtocolError, SystemParams,
};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Samples per probe.
pub const SAMPLES: usize = 200;

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e6)
}

fn med(v: Vec<f64>) -> f64 {
    median(&sorted(v)).unwrap_or(0.0)
}

/// `scheduler` and `concurrent` on the live stack: in-process
/// `ScheduledServer::identify` vs single-probe
/// `SharedServer::identify_batch` on the same probes, the in-process
/// finish, and batches at the run's mean batch size.
#[derive(Debug, Default, Clone)]
pub struct ServerProbe {
    /// `ScheduledServer::identify`, genuine probes, µs (median).
    pub sched_hit_us: f64,
    /// `SharedServer::identify_batch` of one genuine probe, µs.
    pub batch1_hit_us: f64,
    /// `SharedServer::finish_identification`, µs.
    pub finish_us: f64,
    /// `identify_batch` at the run's mean batch size, µs per probe.
    pub batch_us_per_probe: f64,
    /// The batch size used.
    pub batch_size: usize,
    /// Calls made.
    pub calls: usize,
    /// Every answer was the expected one.
    pub correct: bool,
    /// Challenges and responses of the genuine probes, for `wire`.
    pub exchanges: Vec<(
        fuzzy_id::protocol::IdentChallenge,
        fuzzy_id::protocol::IdentResponse,
    )>,
}

/// Probes the scheduler and the shared server in process.
pub fn server_probe(
    stack: &Stack,
    params: &SystemParams,
    users: &[DeviceUser],
    seed: u64,
    batch_mean: f64,
) -> ServerProbe {
    let mut rng = stream(seed, "probe-server");
    let device = BiometricDevice::new(params.clone());
    let (sched, shared) = (stack.sched(), stack.shared());
    let mut p = ServerProbe {
        correct: true,
        ..ServerProbe::default()
    };
    let (mut sh, mut b1h, mut fin) = (vec![], vec![], vec![]);
    for i in 0..SAMPLES {
        let user = &users[i % users.len()];
        let reading = inputs::genuine_reading(params, &user.bio, &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).expect("sketch");
        let (chal, t) = time(|| sched.identify(probe.clone()));
        sh.push(t);
        let Ok(chal) = chal else {
            p.correct = false;
            continue;
        };
        let resp = device
            .respond(&reading, &chal, &mut rng)
            .expect("Rep of an own record");
        let (outcome, t) = time(|| shared.finish_identification(&resp));
        fin.push(t);
        p.correct &= matches!(outcome, Ok(IdentOutcome::Identified(ref id)) if *id == user.id);
        p.exchanges.push((chal, resp));
        let (res, t) = time(|| shared.identify_batch(std::slice::from_ref(&probe), &mut rng));
        b1h.push(t);
        match res.into_iter().next() {
            Some(Ok(c)) => {
                shared.cancel_session(c.session);
            }
            _ => p.correct = false,
        }
        p.calls += 3;
    }
    p.batch_size = (batch_mean.round() as usize).max(1);
    let mut per_probe = Vec::new();
    for _ in 0..(SAMPLES / 4) {
        let batch: Vec<Vec<i64>> = (0..p.batch_size)
            .map(|_| inputs::impostor_probe(params, &mut rng))
            .collect();
        let (res, t) = time(|| shared.identify_batch(&batch, &mut rng));
        p.correct &= res.iter().all(|r| matches!(r, Err(ProtocolError::NoMatch)));
        per_probe.push(t / p.batch_size as f64);
        p.calls += 1;
    }
    p.sched_hit_us = med(sh);
    p.batch1_hit_us = med(b1h);
    p.finish_us = med(fin);
    p.batch_us_per_probe = med(per_probe);
    p
}

/// `concurrent` write paths in process: enroll, enroll_unique and
/// revoke of fresh records on the live server. Returns medians (µs) and
/// the acknowledged writes (a durable server must recover them).
#[derive(Debug, Default, Clone)]
pub struct WriteProbe {
    /// `SharedServer::enroll`, µs.
    pub enroll_us: f64,
    /// `SharedServer::enroll_unique`, µs.
    pub enroll_unique_us: f64,
    /// `SharedServer::revoke`, µs.
    pub revoke_us: f64,
    /// Calls made.
    pub calls: usize,
    /// Writes acknowledged.
    pub acked: Vec<Acked>,
    /// Biometrics of the enrolled records.
    pub bios: Vec<Vec<i64>>,
    /// Every write succeeded.
    pub correct: bool,
}

/// Probes the shared server's write paths.
pub fn write_probe(stack: &Stack, params: &SystemParams, seed: u64) -> WriteProbe {
    let mut p = WriteProbe {
        correct: true,
        ..WriteProbe::default()
    };
    let mut bios = Vec::new();
    let records = inputs::synthetic(params, seed, "probe-w-", SAMPLES, |b| bios.push(b));
    let shared = stack.shared();
    let (mut en, mut un, mut rv) = (vec![], vec![], vec![]);
    for (i, rec) in records.into_iter().enumerate() {
        let copy = rec.clone();
        let res = if i % 2 == 0 {
            let (res, t) = time(|| shared.enroll(copy));
            en.push(t);
            res
        } else {
            let (res, t) = time(|| shared.enroll_unique(copy));
            un.push(t);
            res
        };
        p.correct &= res.is_ok();
        p.acked.push(Acked::Enroll(rec, i));
    }
    // Revoke every fourth probe enrollee (the lane's 1:10 mix would
    // give too few samples for a median).
    for i in (0..SAMPLES).step_by(4) {
        let id = format!("probe-w-{i}");
        let (res, t) = time(|| shared.revoke(&id));
        rv.push(t);
        p.correct &= res.is_ok();
        p.acked.push(Acked::Revoke(id));
    }
    p.calls = en.len() + un.len() + rv.len();
    p.enroll_us = med(en);
    p.enroll_unique_us = med(un);
    p.revoke_us = med(rv);
    p.bios = bios;
    p
}

/// `wire`: envelope encode and decode of one login's four messages
/// (Identify, Challenge, Response, Outcome) on the run's own exchanges.
/// Medians, µs.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireProbe {
    /// Encode of a login's messages, µs.
    pub login_encode_us: f64,
    /// Decode of a login's messages, µs.
    pub login_decode_us: f64,
    /// Messages coded.
    pub calls: usize,
}

/// Probes the wire codecs.
pub fn wire_probe(
    exchanges: &[(
        fuzzy_id::protocol::IdentChallenge,
        fuzzy_id::protocol::IdentResponse,
    )],
    params: &SystemParams,
    seed: u64,
) -> WireProbe {
    let mut rng = stream(seed, "probe-wire");
    let (mut enc, mut dec) = (vec![], vec![]);
    let mut p = WireProbe::default();
    for (i, (chal, resp)) in exchanges.iter().enumerate() {
        let probe = inputs::impostor_probe(params, &mut rng);
        let identify = Message::Identify { probe };
        let challenge = Ok(ResponseBody::Challenge(chal.clone()));
        let response = Message::Response(resp.clone());
        let outcome = Ok(ResponseBody::Outcome(IdentOutcome::Identified(format!(
            "d-{i}"
        ))));

        let t = Instant::now();
        let a = envelope::encode_request(1, &identify);
        let b = envelope::encode_response(1, &challenge);
        let c = envelope::encode_request(2, &response);
        let d = envelope::encode_response(2, &outcome);
        enc.push(crate::load::us(t.elapsed()));

        let t = Instant::now();
        let ra = envelope::decode_request(&a).expect("decode Identify");
        let rb = envelope::decode_response(&b).expect("decode Challenge");
        let rc = envelope::decode_request(&c).expect("decode Response");
        let rd = envelope::decode_response(&d).expect("decode Outcome");
        dec.push(crate::load::us(t.elapsed()));
        let _ = std::hint::black_box((ra, rb, rc, rd));
        p.calls += 8;
    }
    p.login_encode_us = med(enc);
    p.login_decode_us = med(dec);
    p
}

/// `fuzzy`, `dsa` and `bigint` on the device users' own records.
#[derive(Debug, Default, Clone, Copy)]
pub struct CryptoProbe {
    /// `FuzzyExtractor::reproduce` (`Rep`), µs.
    pub reproduce_us: f64,
    /// `Dsa::keypair_from_seed`, µs.
    pub keypair_us: f64,
    /// `Dsa::sign`, µs.
    pub sign_us: f64,
    /// `Dsa::verify`, µs.
    pub verify_us: f64,
    /// 1024-bit `Natural::mod_pow` with a 160-bit exponent, µs.
    pub mod_pow_us: f64,
    /// Calls made.
    pub calls: usize,
    /// Every key reproduced and every signature verified.
    pub correct: bool,
}

/// Probes the crypto layers.
pub fn crypto_probe(
    params: &SystemParams,
    users: &[DeviceUser],
    records: &HashMap<String, EnrollmentRecord>,
    seed: u64,
) -> CryptoProbe {
    let mut rng = stream(seed, "probe-crypto");
    let fe = params.fuzzy_extractor();
    let dsa = Dsa::new(params.dsa_params().clone());
    let dp: &DsaParams = params.dsa_params();
    let mut p = CryptoProbe {
        correct: true,
        ..CryptoProbe::default()
    };
    let (mut rep, mut kp, mut sg, mut vf, mut mp) = (vec![], vec![], vec![], vec![], vec![]);
    for i in 0..SAMPLES {
        let user = &users[i % users.len()];
        let record = &records[&user.id];
        let reading = inputs::genuine_reading(params, &user.bio, &mut rng);
        let (key, t) = time(|| fe.reproduce(&reading, &record.helper));
        rep.push(t);
        let Ok(key) = key else {
            p.correct = false;
            continue;
        };
        let ((sk, vk), t) = time(|| dsa.keypair_from_seed(key.as_bytes()));
        kp.push(t);
        p.correct &= vk.to_bytes(dp) == record.public_key;
        let msg: Vec<u8> = (0..24).map(|_| rand::Rng::gen::<u8>(&mut rng)).collect();
        let (sig, t) = time(|| dsa.sign(&sk, &msg));
        sg.push(t);
        let (valid, t) = time(|| dsa.verify(&vk, &msg, &sig));
        vf.push(t);
        p.correct &= valid;
        let x = random_below(dp.q(), &mut rng);
        let (_, t) = time(|| dp.g().mod_pow(&x, dp.p()));
        mp.push(t);
        p.calls += 5;
    }
    p.reproduce_us = med(rep);
    p.keypair_us = med(kp);
    p.sign_us = med(sg);
    p.verify_us = med(vf);
    p.mod_pow_us = med(mp);
    p
}

/// `index` on a benchmark-built `EpochIndex` holding the workload's
/// population in enrollment order, then fed the run's writes.
#[derive(Debug, Default, Clone, Copy)]
pub struct IndexProbe {
    /// `EpochReader::find_first` of impostor probes, µs.
    pub miss_scan_us: f64,
    /// `find_first` of genuine device-user probes, µs.
    pub hit_scan_us: f64,
    /// `find_first_batch` of 32 impostor probes, µs per probe.
    pub batch_scan_us_per_probe: f64,
    /// Miss scan after the run's enroll/revoke sequence, µs.
    pub churn_miss_scan_us: f64,
    /// Scans made.
    pub calls: usize,
    /// Every hit found its own slot and every miss found nothing.
    pub correct: bool,
}

/// Probes the index layer. `population` streams the sketches in
/// enrollment order (ids alongside); `writes` is the run's write
/// sequence.
pub fn index_probe(
    params: &SystemParams,
    population: Vec<EnrollmentRecord>,
    users: &[DeviceUser],
    writes: &[Acked],
    seed: u64,
) -> IndexProbe {
    let mut rng = stream(seed, "probe-index");
    let mut index = EpochIndex::build(params);
    let mut slots: HashMap<String, usize> = HashMap::with_capacity(population.len());
    for rec in population {
        let slot = index.insert(&rec.helper.sketch.inner);
        slots.insert(rec.id, slot);
    }
    let reader = index.reader();
    let mut p = IndexProbe {
        correct: true,
        ..IndexProbe::default()
    };
    let (mut miss, mut hit, mut batch, mut churn) = (vec![], vec![], vec![], vec![]);
    for i in 0..SAMPLES {
        let probe = inputs::impostor_probe(params, &mut rng);
        let (m, t) = time(|| reader.find_first(&probe));
        miss.push(t);
        p.correct &= m.is_none();
        let user = &users[i % users.len()];
        let probe = inputs::genuine_probe(params, &user.bio, &mut rng);
        let (h, t) = time(|| reader.find_first(&probe));
        hit.push(t);
        p.correct &= h == slots.get(&user.id).copied();
        p.calls += 2;
    }
    for _ in 0..(SAMPLES / 10) {
        let probes: Vec<Vec<i64>> = (0..32)
            .map(|_| inputs::impostor_probe(params, &mut rng))
            .collect();
        let (m, t) = time(|| reader.find_first_batch(&probes));
        batch.push(t / 32.0);
        p.correct &= m.iter().all(Option::is_none);
        p.calls += 1;
    }
    drop(reader);
    for w in writes {
        match w {
            Acked::Enroll(rec, _) => {
                let slot = index.insert(&rec.helper.sketch.inner);
                slots.insert(rec.id.clone(), slot);
            }
            Acked::Revoke(id) => {
                let slot = slots.remove(id).expect("revoked ids were enrolled");
                p.correct &= index.remove(slot);
            }
        }
    }
    let reader = index.reader();
    for _ in 0..SAMPLES {
        let probe = inputs::impostor_probe(params, &mut rng);
        let (m, t) = time(|| reader.find_first(&probe));
        churn.push(t);
        p.correct &= m.is_none();
        p.calls += 1;
    }
    p.miss_scan_us = med(miss);
    p.hit_scan_us = med(hit);
    p.batch_scan_us_per_probe = med(batch);
    p.churn_miss_scan_us = med(churn);
    p
}

/// `store`: the run's write events appended to a scratch `FileStore`
/// under the server's flush policy (no per-append fsync), replayed, and
/// compacted; plus a durable `SharedServer` fed the same events and
/// recovered.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreProbe {
    /// `EnrollmentStore::append`, µs (median).
    pub append_us: f64,
    /// Journal bytes per event.
    pub journal_bytes_per_write: f64,
    /// Reopen + `load`, µs per event.
    pub replay_us_per_record: f64,
    /// `compact_records` of the live records, seconds.
    pub compact_s: f64,
    /// `SharedServer::recover` of a durable server fed the events, s.
    pub recover_s: f64,
    /// Appends made.
    pub calls: usize,
    /// The replay returned every event and recovery every live user.
    pub correct: bool,
}

/// Probes the store layer in `dir` (created and removed here).
pub fn store_probe(params: &SystemParams, writes: &[Acked], dir: &Path) -> StoreProbe {
    let mut p = StoreProbe {
        correct: true,
        ..StoreProbe::default()
    };
    let journal_dir = dir.join("journal");
    let fingerprint = params.fingerprint();
    let journal_len = || std::fs::metadata(journal_dir.join("journal.fel")).map_or(0, |m| m.len());
    {
        let mut store = FileStore::open(&journal_dir, fingerprint).expect("open scratch store");
        let before = journal_len();
        let mut appends = Vec::with_capacity(writes.len());
        for w in writes {
            let event = match w {
                Acked::Enroll(rec, _) => LogEventRef::Enroll(rec),
                Acked::Revoke(id) => LogEventRef::Revoke(id),
            };
            let (res, t) = time(|| store.append(event));
            appends.push(t);
            p.correct &= res.is_ok();
        }
        p.calls = appends.len();
        p.append_us = med(appends);
        p.journal_bytes_per_write = (journal_len() - before) as f64 / writes.len().max(1) as f64;
    }
    {
        let t = Instant::now();
        let mut store = FileStore::open(&journal_dir, fingerprint).expect("reopen scratch store");
        let events = store.load().expect("replay scratch store");
        p.replay_us_per_record = t.elapsed().as_secs_f64() * 1e6 / writes.len().max(1) as f64;
        p.correct &= events.len() == writes.len();
        let live = live_records(writes);
        let t = Instant::now();
        p.correct &= store.compact_records(&live).is_ok();
        p.compact_s = t.elapsed().as_secs_f64();
    }
    let server_dir = dir.join("server");
    {
        let server = SharedServer::<EpochIndex>::durable(params.clone(), 1, &server_dir)
            .expect("open scratch durable server");
        for w in writes {
            p.correct &= match w {
                Acked::Enroll(rec, _) => server.enroll(rec.clone()).is_ok(),
                Acked::Revoke(id) => server.revoke(id).is_ok(),
            };
        }
    }
    let t = Instant::now();
    let recovered = SharedServer::<EpochIndex>::recover(params.clone(), &server_dir)
        .expect("recover scratch server");
    p.recover_s = t.elapsed().as_secs_f64();
    p.correct &= recovered.user_count() == live_records(writes).len();
    drop(recovered);
    let _ = std::fs::remove_dir_all(dir);
    p
}

/// The records a write sequence leaves enrolled.
pub fn live_records(writes: &[Acked]) -> Vec<EnrollmentRecord> {
    let mut live: Vec<Option<&EnrollmentRecord>> = Vec::new();
    let mut at: HashMap<&str, usize> = HashMap::new();
    for w in writes {
        match w {
            Acked::Enroll(rec, _) => {
                at.insert(&rec.id, live.len());
                live.push(Some(rec));
            }
            Acked::Revoke(id) => {
                if let Some(i) = at.remove(id.as_str()) {
                    live[i] = None;
                }
            }
        }
    }
    live.into_iter().flatten().cloned().collect()
}
