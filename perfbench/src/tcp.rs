//! The 12-member loopback TCP cluster both socket workloads stand on, the
//! application that records and verifies deliveries, and the codec timings
//! taken on the workloads' own 1 KiB gossip envelope.

use crate::measure::{median, ratio};
use crate::payload;
use atum_core::{
    AppCtx, Application, AtumMessage, AtumNode, Delivered, GroupEnvelope, GroupPayload,
};
use atum_net::{AggregateStats, NetCluster, NetClusterBuilder, NodeHandle, RuntimeConfig};
use atum_types::{BroadcastId, Composition, Duration, NodeId, Params, VgroupId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

/// Standing members of the cluster.
pub const MEMBERS: usize = 12;
/// Members per vgroup (three vgroups).
pub const GROUP_SIZE: usize = 4;
/// Payload size of every broadcast the socket workloads issue.
pub const PAYLOAD_BYTES: usize = 1024;

pub type Handle = NodeHandle<AtumMessage, AtumNode<BenchApp>>;
pub type Cluster = NetCluster<BenchApp>;

/// Fast SMR rounds (broadcast load is agreement-bound in the origin
/// vgroup) and lazy failure detection (nothing crashes): the settings of
/// the repository's own saturation scenario.
fn params() -> Params {
    Params::default()
        .with_round(Duration::from_millis(100))
        .with_group_bounds(3, 6)
        .with_overlay(3, 5)
        .with_failure_detection(Duration::from_secs(10), 3)
}

/// One verified delivery of a measured-phase broadcast.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Sequence number carried in the payload.
    pub seq: u64,
    /// Broadcast identifier Atum delivered it under.
    pub id: BroadcastId,
    /// Wall-clock delivery instant.
    pub at: Instant,
    /// The runtime's own clock at delivery (simulated time on simnet).
    pub clock: atum_types::Instant,
    /// Overlay hops before reaching this node's vgroup.
    pub hops: u32,
}

/// Delivery counters shared by every node's application, so the driver can
/// watch progress without stopping the reactors.
#[derive(Debug, Default)]
pub struct Progress {
    /// Measured-phase deliveries across all nodes.
    pub run: AtomicU64,
    /// Warm-up deliveries across all nodes.
    pub warm: AtomicU64,
}

/// The benchmark's application: verifies each delivered payload, records
/// measured-phase deliveries and counts everything.
///
/// Payloads arrive either raw (`bcast_tcp` and warm-up traffic) or wrapped
/// by the edge write path (`atum_apps::edge::broadcast_payload`).
#[derive(Debug)]
pub struct BenchApp {
    progress: Arc<Progress>,
    records: Vec<Rec>,
    /// Deliveries whose bytes failed verification (described).
    pub corrupt: Vec<String>,
}

impl BenchApp {
    pub fn new(progress: Arc<Progress>) -> Self {
        BenchApp {
            progress,
            records: Vec::new(),
            corrupt: Vec::new(),
        }
    }

    pub fn records(&self) -> &[Rec] {
        &self.records
    }
}

impl Application for BenchApp {
    fn deliver(&mut self, msg: &Delivered, _ctx: &mut AppCtx) {
        let at = Instant::now();
        let verified = payload::check(&msg.payload).or_else(|| {
            let (topic, data) = atum_apps::edge::decode_broadcast(&msg.payload)?;
            let (tag, seq) = payload::check(&data)?;
            // The edge write's topic is its write id: both must agree.
            (topic == seq).then_some((tag, seq))
        });
        match verified {
            Some((payload::TAG_RUN, seq)) => {
                self.records.push(Rec {
                    seq,
                    id: msg.id,
                    at,
                    clock: msg.at,
                    hops: msg.hops,
                });
                self.progress.run.fetch_add(1, Ordering::Relaxed);
            }
            Some((payload::TAG_WARMUP, _)) => {
                self.progress.warm.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                if self.corrupt.len() < 8 {
                    self.corrupt.push(format!(
                        "{:?}: {} payload bytes failed verification",
                        msg.id,
                        msg.payload.len()
                    ));
                }
            }
        }
    }
}

/// A built, warmed-up cluster.
pub struct System {
    pub cluster: Arc<Cluster>,
    pub progress: Arc<Progress>,
    /// Handles in node-id order.
    pub handles: Vec<Handle>,
}

impl System {
    /// Builds the cluster and warms it up: every member broadcasts once and
    /// the set-up is complete when all of those broadcasts reached every
    /// member. Returns the seconds that took.
    ///
    /// # Panics
    ///
    /// Panics when the warm-up does not complete within a minute: the
    /// cluster never became usable, so nothing after it can be measured.
    pub fn build(seed: u64) -> (f64, System) {
        let started = Instant::now();
        let progress = Arc::new(Progress::default());
        let cluster = NetClusterBuilder::new(MEMBERS, 0)
            .params(params())
            .group_size(GROUP_SIZE)
            .runtime(RuntimeConfig {
                // Deep queues: an open-loop load wants backpressure, not
                // loss, to absorb scheduler hiccups (see `bench_net`).
                queue_capacity: 262_144,
                ..RuntimeConfig::default()
            })
            .seed(seed)
            .build(|_| BenchApp::new(Arc::clone(&progress)));
        let handles: Vec<Handle> = cluster
            .node_ids()
            .into_iter()
            .map(|id| cluster.node(id).expect("listed node").clone())
            .collect();
        for (i, handle) in handles.iter().enumerate() {
            let bytes = payload::make(payload::TAG_WARMUP, seed, i as u64, PAYLOAD_BYTES);
            handle.call(move |n, ctx| {
                let _ = n.broadcast(bytes, ctx);
            });
        }
        let want = (MEMBERS * MEMBERS) as u64;
        let deadline = Instant::now() + StdDuration::from_secs(60);
        while progress.warm.load(Ordering::Relaxed) < want {
            assert!(
                Instant::now() < deadline,
                "warm-up stalled at {}/{want} deliveries",
                progress.warm.load(Ordering::Relaxed)
            );
            std::thread::sleep(StdDuration::from_millis(1));
        }
        let secs = started.elapsed().as_secs_f64();
        (
            secs,
            System {
                cluster: Arc::new(cluster),
                progress,
                handles,
            },
        )
    }

    /// Every node's recorded deliveries and verification failures.
    pub fn deliveries(&self) -> Vec<(NodeId, Vec<Rec>, Vec<String>)> {
        self.cluster
            .map_nodes(|n| (n.app().records().to_vec(), n.app().corrupt.clone()))
            .into_iter()
            .map(|(id, (recs, corrupt))| (id, recs, corrupt))
            .collect()
    }

    /// Membership-layer counters summed over the members:
    /// (reconfigurations, splits, merges, evictions).
    pub fn member_counters(&self) -> [u64; 4] {
        self.cluster
            .map_nodes(|n| {
                n.member().map_or([0; 4], |m| {
                    let s = &m.stats;
                    [s.reconfigurations, s.splits, s.merges, s.evictions]
                })
            })
            .into_iter()
            .fold([0; 4], |acc, (_, c)| {
                [acc[0] + c[0], acc[1] + c[1], acc[2] + c[2], acc[3] + c[3]]
            })
    }

    /// Stops the cluster.
    pub fn shutdown(self) {
        let System {
            cluster, handles, ..
        } = self;
        drop(handles);
        match Arc::try_unwrap(cluster) {
            Ok(cluster) => cluster.shutdown(),
            Err(_) => panic!("cluster still shared at shutdown"),
        }
    }
}

/// Net-layer and shared counters between two snapshots, as per-layer
/// metrics. `ops` is the workload's operation count.
pub fn net_layers(
    before: &AggregateStats,
    after: &AggregateStats,
    wall_s: f64,
    reactors: u64,
    ops: f64,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let d = |f: fn(&AggregateStats) -> u64| f(after).saturating_sub(f(before)) as f64;
    let poll_wait_s = d(|s| s.poll_wait_us) / 1e6;
    layers.insert(
        "net.reactor_busy_share",
        (1.0 - ratio(poll_wait_s, wall_s * reactors as f64)).clamp(0.0, 1.0),
    );
    layers.insert(
        "net.dispatch_batch_mean",
        ratio(d(|s| s.dispatch_batch_events), d(|s| s.dispatch_batches)),
    );
    layers.insert("net.timer_lag_max_ms", after.timer_lag_max_us as f64 / 1e3);
    layers.insert(
        "net.frames_per_write",
        ratio(d(|s| s.frames_sent), d(|s| s.writes)),
    );
    layers.insert("net.frames_per_op", ratio(d(|s| s.frames_sent), ops));
    layers.insert("net.bytes_per_op", ratio(d(|s| s.bytes_sent), ops));
    layers.insert("net.peak_outbound_queue", after.peak_outbound_queue as f64);
    layers.insert("net.peak_inbound_queue", after.peak_inbound_queue as f64);
    layers.insert("net.frames_dropped", d(|s| s.frames_dropped));
    layers.insert(
        "types.encodes_per_op",
        ratio(d(|s| s.messages_encoded), ops),
    );
}

/// Verified-digest cache hit ratio between two `verified_digest_stats()`
/// snapshots.
pub fn digest_hit_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let hits = after.0.saturating_sub(before.0) as f64;
    let misses = after.1.saturating_sub(before.1) as f64;
    ratio(hits, hits + misses)
}

/// Times the public codec and digest calls on a gossip envelope carrying
/// a `size`-byte payload like the workload's own: (encode ns, decode ns,
/// digest ns), each the median over batches.
pub fn codec_timings(seed: u64, size: usize) -> (f64, f64, f64) {
    let composition: Composition = (0..GROUP_SIZE as u64).map(NodeId::new).collect();
    let body = payload::make(payload::TAG_RUN, seed, 0, size);
    let gossip = GroupPayload::Gossip {
        id: BroadcastId::new(NodeId::new(0), 0),
        payload: Arc::from(body),
        hops: 1,
    };
    let message = AtumMessage::Group(Arc::new(GroupEnvelope::new(
        VgroupId::new(1),
        composition,
        gossip.clone(),
    )));
    let bytes = atum_types::wire::encode_to_vec(&message);
    const BATCHES: usize = 7;
    const PER_BATCH: usize = 300;
    let time = |f: &mut dyn FnMut()| -> f64 {
        let mut per_op: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..PER_BATCH {
                    f();
                }
                t.elapsed().as_secs_f64() * 1e9 / PER_BATCH as f64
            })
            .collect();
        median(&mut per_op)
    };
    let encode = time(&mut || {
        std::hint::black_box(atum_types::wire::encode_to_vec(std::hint::black_box(
            &message,
        )));
    });
    let decode = time(&mut || {
        let decoded = atum_types::wire::decode_exact::<AtumMessage>(std::hint::black_box(&bytes));
        assert!(decoded.is_ok(), "gossip envelope failed to decode");
    });
    let digest = time(&mut || {
        std::hint::black_box(std::hint::black_box(&gossip).digest());
    });
    (encode, decode, digest)
}
