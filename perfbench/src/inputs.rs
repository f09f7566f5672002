//! Input generation: populations, genuine readings, impostor probes and
//! fresh enrollment records — all drawn from the workload seed, all
//! built before anything is timed.

use crate::schedule::stream;
use fuzzy_id::core::SecureSketch;
use fuzzy_id::protocol::{BiometricDevice, EnrollmentRecord, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Biometric dimension used by every workload.
pub const DIM: usize = 64;

/// Records generated per independently seeded chunk (chunks are
/// generated on up to two threads; the output does not depend on the
/// thread count).
const CHUNK: usize = 16_384;

/// One generated chunk: records and the biometrics behind them.
type Chunk = (Vec<EnrollmentRecord>, Vec<Vec<i64>>);

/// A user enrolled through [`BiometricDevice::enroll`] with their own
/// key pair, who can therefore complete a genuine login.
#[derive(Debug, Clone)]
pub struct DeviceUser {
    /// The enrolled id.
    pub id: String,
    /// The enrolled biometric.
    pub bio: Vec<i64>,
}

/// An enrolled population in enrollment order.
#[derive(Debug)]
pub struct Population {
    /// Records in enrollment order.
    pub records: Vec<EnrollmentRecord>,
    /// The device-enrolled users among them.
    pub device_users: Vec<DeviceUser>,
}

/// Synthetic filler records, the way the repository's `SynthPopulation`
/// builds them: a real Chebyshev sketch of a fresh uniform biometric per
/// record, with one donor enrollment's public key and extractor seed
/// (sketch lookup, journaling and recovery never run per-record
/// asymmetric crypto, so sharing the key bytes changes none of their
/// costs). Ids are `{prefix}{index}`; each record's biometric is handed
/// to `keep` in record order (for later genuine probes).
pub fn synthetic(
    params: &SystemParams,
    seed: u64,
    prefix: &str,
    count: usize,
    mut keep: impl FnMut(Vec<i64>),
) -> Vec<EnrollmentRecord> {
    let donor = {
        let mut rng = stream(seed, "donor");
        let device = BiometricDevice::new(params.clone());
        let bio = params.sketch().line().random_vector(DIM, &mut rng);
        device
            .enroll("donor", &bio, &mut rng)
            .expect("donor enrollment succeeds")
    };
    let chunks = count.div_ceil(CHUNK);
    let build_chunk = |c: usize| {
        let mut rng = stream(seed, &format!("{prefix}chunk-{c}"));
        let scheme = params.sketch();
        let lo = c * CHUNK;
        let hi = (lo + CHUNK).min(count);
        let mut recs = Vec::with_capacity(hi - lo);
        let mut bios = Vec::with_capacity(hi - lo);
        for u in lo..hi {
            let x = scheme.line().random_vector(DIM, &mut rng);
            let mut helper = donor.helper.clone();
            helper.sketch.inner = scheme
                .sketch(&x, &mut rng)
                .expect("sketch of a ring vector");
            rng.fill_bytes(&mut helper.sketch.tag);
            recs.push(EnrollmentRecord {
                id: format!("{prefix}{u}"),
                public_key: donor.public_key.clone(),
                helper,
            });
            bios.push(x);
        }
        (recs, bios)
    };
    // Two generator threads at most (the box's load-thread budget).
    let mut parts: Vec<Option<Chunk>> = (0..chunks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (even, odd): (Vec<_>, Vec<_>) =
            parts.iter_mut().enumerate().partition(|(c, _)| c % 2 == 0);
        let build = &build_chunk;
        let h = scope.spawn(move || {
            for (c, slot) in odd {
                *slot = Some(build(c));
            }
        });
        for (c, slot) in even {
            *slot = Some(build(c));
        }
        h.join().expect("generator thread");
    });
    let mut records = Vec::with_capacity(count);
    for (recs, bios) in parts.into_iter().map(|p| p.expect("every chunk built")) {
        records.extend(recs);
        bios.into_iter().for_each(&mut keep);
    }
    records
}

/// A population of `total` records: synthetic filler plus
/// `device_users` users enrolled through the device with their own
/// keys, spread evenly through the enrollment order.
pub fn population(
    params: &SystemParams,
    seed: u64,
    total: usize,
    device_users: usize,
) -> Population {
    let filler = synthetic(params, seed, "s-", total - device_users, |_| {});
    let device = BiometricDevice::new(params.clone());
    let mut rng = stream(seed, "device-users");
    let mut users = Vec::with_capacity(device_users);
    let mut device_records = Vec::with_capacity(device_users);
    for j in 0..device_users {
        let id = format!("d-{j}");
        let bio = params.sketch().line().random_vector(DIM, &mut rng);
        device_records.push(
            device
                .enroll(&id, &bio, &mut rng)
                .expect("device enrollment succeeds"),
        );
        users.push(DeviceUser { id, bio });
    }
    // Interleave: device user j lands in the middle of stride j.
    let stride = total / device_users.max(1);
    let mut records = Vec::with_capacity(total);
    let mut filler = filler.into_iter();
    let mut device_records = device_records.into_iter();
    for pos in 0..total {
        let device_slot =
            device_users > 0 && pos % stride == stride / 2 && pos / stride < device_users;
        let next = if device_slot {
            device_records.next()
        } else {
            filler.next()
        };
        records.push(next.expect("population sized to total"));
    }
    Population {
        records,
        device_users: users,
    }
}

/// A fresh reading of `bio` within the acceptance threshold: uniform
/// noise in `[-t, t]` per coordinate, wrapped onto the ring.
pub fn genuine_reading(params: &SystemParams, bio: &[i64], rng: &mut StdRng) -> Vec<i64> {
    let t = params.sketch().threshold() as i64;
    let line = *params.sketch().line();
    bio.iter()
        .map(|&x| line.wrap(x + rng.gen_range(-t..=t)))
        .collect()
}

/// A genuine probe sketch of `bio` (as a device would send it).
pub fn genuine_probe(params: &SystemParams, bio: &[i64], rng: &mut StdRng) -> Vec<i64> {
    let reading = genuine_reading(params, bio, rng);
    params
        .sketch()
        .sketch(&reading, rng)
        .expect("sketch of a ring vector")
}

/// An impostor probe: the sketch of a fresh uniform biometric.
pub fn impostor_probe(params: &SystemParams, rng: &mut StdRng) -> Vec<i64> {
    let x = params.sketch().line().random_vector(DIM, rng);
    params
        .sketch()
        .sketch(&x, rng)
        .expect("sketch of a ring vector")
}
