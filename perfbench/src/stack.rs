//! The serving stack under test, built only through public entry
//! points: `SharedServer` (in memory, or durable over a `FileStore`
//! directory) → `ScheduledServer` → `NetServer` on loopback.

use fuzzy_id::core::EpochIndex;
use fuzzy_id::net::{NetConfig, NetServer};
use fuzzy_id::protocol::concurrent::SharedServer;
use fuzzy_id::protocol::scheduler::{ScheduledServer, SchedulerConfig};
use fuzzy_id::protocol::{EnrollmentRecord, SystemParams};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A running front door and the scheduler behind it.
pub struct Stack {
    net: NetServer,
    sched: Arc<ScheduledServer<EpochIndex>>,
}

/// What loading the population cost.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Whole set-up: open, bulk enroll, checkpoint, bind. Seconds.
    pub total_s: f64,
    /// The checkpoint alone (durable servers), seconds.
    pub checkpoint_s: Option<f64>,
}

impl Stack {
    /// Loads `records` into a one-shard server (durable at `dir` when
    /// given, then checkpointed) and binds the front door on an
    /// ephemeral loopback port with the server defaults; only the
    /// scheduler's RNG seed is pinned.
    pub fn load(
        params: &SystemParams,
        records: impl IntoIterator<Item = EnrollmentRecord>,
        dir: Option<&Path>,
        seed: u64,
    ) -> (Stack, SetupTimes) {
        let started = Instant::now();
        let shared = match dir {
            Some(dir) => SharedServer::<EpochIndex>::durable(params.clone(), 1, dir)
                .expect("open the durable store"),
            None => SharedServer::new(params.clone()),
        };
        for record in records {
            shared.enroll(record).expect("population enrolls");
        }
        let checkpoint_s = dir.map(|_| {
            let t = Instant::now();
            shared.checkpoint().expect("checkpoint the loaded store");
            t.elapsed().as_secs_f64()
        });
        let sched = Arc::new(ScheduledServer::new(
            shared,
            SchedulerConfig {
                rng_seed: seed,
                ..SchedulerConfig::default()
            },
        ));
        let net = NetServer::spawn(Arc::clone(&sched), "127.0.0.1:0", NetConfig::default())
            .expect("bind the loopback front door");
        let times = SetupTimes {
            total_s: started.elapsed().as_secs_f64(),
            checkpoint_s,
        };
        (Stack { net, sched }, times)
    }

    /// The front door's address.
    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// The front door's counters.
    pub fn net_metrics(&self) -> &fuzzy_id::net::NetMetrics {
        self.net.metrics()
    }

    /// The scheduler (in-process identification path).
    pub fn sched(&self) -> &ScheduledServer<EpochIndex> {
        &self.sched
    }

    /// The shared server behind the scheduler.
    pub fn shared(&self) -> &SharedServer<EpochIndex> {
        self.sched.server()
    }

    /// Stops the front door and joins every server thread (the
    /// scheduler's workers exit when its last handle drops).
    pub fn shutdown(self) {
        self.net.shutdown();
        match Arc::try_unwrap(self.sched) {
            Ok(sched) => drop(sched),
            Err(_) => panic!("the front door still holds the scheduler after shutdown"),
        }
    }
}
