//! `sim_churn`: a deterministic simulator run of 200 nodes in 33 vgroups,
//! 12 of them Byzantine (heartbeat-only), under continuous leave/re-join
//! churn while broadcasts from live members arrive on a schedule.
//!
//! The benchmark drives churn itself (a node may churn again once it is
//! back). One run plays several independent scenarios (each its own
//! cluster layout and churn schedule, derived from the seed) and pools
//! their results: under sustained churn a single scenario now and then
//! wedges vgroups or loses whole broadcasts, and pooled it moves the
//! figures by its share only. Simulated-time results depend only on the
//! seed and `--seconds`, so they repeat exactly; CPU and wall time measure
//! the simulator and the membership machinery.

use crate::measure::{self, median_setup, percentile, Outcome, Spans};
use crate::payload;
use crate::tcp::{BenchApp, Progress, PAYLOAD_BYTES};
use atum_sim::{Cluster, ClusterBuilder};
use atum_simnet::NetConfig;
use atum_types::{BroadcastId, Duration, Instant, NodeId, Params};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const NODES: usize = 200;
const BYZANTINE: usize = 12;
/// Independent scenarios per run; their results are pooled.
const SCENARIOS: u64 = 4;
/// Runs of the reference task before each scenario and after the last.
const REFERENCE_RUNS: usize = 8;
/// Seconds the reference task takes on an unloaded 2-vCPU Xeon host;
/// set-up, CPU and wall time are scaled to that speed.
const REFERENCE_S: f64 = 0.025;
/// Set-ups timed per scenario; `setup_s` is the mean over the scenarios
/// of their median.
const SETUPS: usize = 5;
/// Leave/re-join cycles started per simulated minute.
const CHURN_PER_MINUTE: u64 = 20;
/// Simulated seconds of churn per scenario and second of `--seconds`.
const SIM_SECONDS_PER_SECOND: u64 = 10;
/// A leaver re-joins this long after leaving.
const REJOIN_PAUSE: Duration = Duration::from_secs(5);
/// A member that leaves within this long after a broadcast was due is not
/// expected to have delivered it.
const GRACE: Duration = Duration::from_secs(60);

type SimCluster = Cluster<BenchApp>;

/// Seed of scenario `k` of a run.
fn scenario_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k)
}

/// The membership-churn settings of the repository's churn bench.
fn params() -> Params {
    Params::default()
        .with_round(Duration::from_millis(500))
        .with_group_bounds(3, 10)
        .with_overlay(3, 5)
        .with_failure_detection(Duration::from_secs(5), 3)
}

/// Builds the cluster and runs it until one warm-up broadcast reached
/// every correct node and a full heartbeat period has passed, so every
/// failure detector has heard from its peers.
fn build(seed: u64) -> (f64, SimCluster) {
    let started = std::time::Instant::now();
    let progress = Arc::new(Progress::default());
    let mut cluster = ClusterBuilder::new(NODES)
        .params(params())
        .net(NetConfig::lan())
        .seed(seed)
        .byzantine(BYZANTINE)
        .build(|_| BenchApp::new(Arc::clone(&progress)));
    let correct = cluster.correct_nodes();
    let bytes = payload::make(payload::TAG_WARMUP, seed, 0, PAYLOAD_BYTES);
    cluster.sim.call(correct[0], move |n, ctx| {
        let _ = n.broadcast(bytes, ctx);
    });
    let deadline = cluster.sim.now() + Duration::from_secs(120);
    while progress.warm.load(Ordering::Relaxed) < correct.len() as u64 {
        assert!(
            cluster.sim.now() < deadline,
            "warm-up broadcast reached {}/{} correct nodes",
            progress.warm.load(Ordering::Relaxed),
            correct.len()
        );
        cluster.sim.run_for(Duration::from_millis(100));
    }
    let heartbeat = cluster.params.heartbeat_period;
    cluster.sim.run_for(heartbeat);
    (started.elapsed().as_secs_f64(), cluster)
}

/// One leave/re-join cycle.
struct Cycle {
    victim: NodeId,
    left_at: Instant,
    done_at: Option<Instant>,
}

/// One scheduled broadcast.
struct Bcast {
    due: Instant,
    /// Correct members at the due time.
    members: Vec<NodeId>,
}

fn is_member(cluster: &SimCluster, id: NodeId) -> bool {
    cluster.sim.node(id).is_some_and(|n| n.is_member())
}

/// The cycle's completion time, once the victim is a member again.
fn completion(cluster: &SimCluster, cycle: &Cycle) -> Option<Instant> {
    let node = cluster.sim.node(cycle.victim)?;
    node.stats
        .joined_at
        .filter(|&t| node.is_member() && t > cycle.left_at)
}

/// Results of a run's scenarios, pooled.
#[derive(Default)]
struct Pooled {
    cpu_s: f64,
    wall_s: f64,
    simulated_s: f64,
    /// Delivery latency (ms) of every expected pair that was delivered.
    latency: Vec<f64>,
    /// Re-join latency (ms) of every completed cycle.
    rejoin: Vec<f64>,
    /// Each scenario's 90th percentile of `rejoin`.
    rejoin_p90: Vec<f64>,
    broadcasts: u64,
    expected: u64,
    missing: u64,
    cycles: u64,
    incomplete: u64,
    correct: u64,
    final_members: u64,
    diverged: u64,
    redelivered: u64,
    // Per-layer figures (traced runs).
    events: u64,
    messages: u64,
    timers: u64,
    deliveries: u64,
    hops: Vec<f64>,
    agree: Vec<f64>,
    spread: Vec<f64>,
    /// Reconfigurations, splits, merges, evictions summed over members.
    member_counters: [u64; 4],
}

impl Pooled {
    /// Operations attempted and failed: every expected pair, every cycle,
    /// and every correct node, which must end in its vgroup's current
    /// configuration.
    fn attempted_failed(&self) -> (u64, u64) {
        (
            self.expected + self.cycles + self.correct,
            self.missing + self.incomplete + self.diverged,
        )
    }

    /// The pooled figures, in `FIGURES` order.
    fn figures(&mut self) -> [f64; 9] {
        let (attempted, failed) = self.attempted_failed();
        [
            self.cpu_s,
            self.wall_s,
            1.0 - measure::ratio(failed as f64, attempted as f64),
            percentile(&mut self.latency, 50.0),
            // The mean as the tail figure: about a fifth of the pairs are
            // delivered by repair, and how many varies so much between
            // scenarios that any percentile above the 80th swings by ±25%
            // between seeds, while the mean still moves with the repair
            // path's speed.
            measure::mean(&self.latency),
            percentile(&mut self.rejoin, 50.0),
            // Per scenario, then the median: a few re-joins take minutes,
            // and how many differs so much between scenarios that pooled
            // tail figures (the 90th percentile, the mean) jump by 20–30%
            // between seeds.
            measure::median(&mut self.rejoin_p90),
            percentile(&mut self.latency, 90.0),
            percentile(&mut self.latency, 99.0),
        ]
    }
}

/// Figures of the pooled scenarios, in the order of [`Pooled::figures`]: the
/// end-to-end metrics, then two percentiles for the run record only.
const FIGURES: [&str; 9] = [
    "cpu_s",
    "wall_s",
    "ok_ratio",
    "lat_p50_ms",
    "lat_tail_ms",
    "lat2_p50_ms",
    "lat2_tail_ms",
    "bcast_p90_ms",
    "bcast_p99_ms",
];

/// Runs scenario `k` on `cluster`, adding its results to `pool` and any
/// wrong output to `out`; traced runs also record spans.
fn scenario(
    mut cluster: SimCluster,
    seed: u64,
    span_s: u64,
    k: u64,
    pool: &mut Pooled,
    out: &mut Outcome,
    spans: Option<&mut Spans>,
) {
    let correct = cluster.correct_nodes();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc4u64);
    let stats_before = cluster.sim.stats().clone();
    let cpu_before = measure::cpu_seconds();
    let wall_start = std::time::Instant::now();
    let start = cluster.sim.now();
    let ids: Arc<Mutex<BTreeMap<u64, BroadcastId>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut open: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut bcasts: Vec<Bcast> = Vec::new();
    // Start of every membership session observed per node (a node that
    // stops being a member, by choice or not, starts a new session when it
    // is admitted again).
    let mut sessions: BTreeMap<NodeId, BTreeSet<Instant>> = BTreeMap::new();
    let mut observe_sessions = |cluster: &SimCluster| {
        for &n in &correct {
            if let Some(t) = cluster.sim.node(n).and_then(|node| node.stats.joined_at) {
                sessions.entry(n).or_default().insert(t);
            }
        }
    };
    let churn_every = 60 / CHURN_PER_MINUTE;
    for step in 0..span_s {
        observe_sessions(&cluster);
        open.retain(|_, &mut idx| {
            cycles[idx].done_at = completion(&cluster, &cycles[idx]);
            cycles[idx].done_at.is_none()
        });
        let members: Vec<NodeId> = correct
            .iter()
            .copied()
            .filter(|&n| is_member(&cluster, n))
            .collect();
        if step.is_multiple_of(churn_every) {
            let candidates: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|n| !open.contains_key(n))
                .collect();
            if let Some(&victim) = candidates.choose(&mut rng) {
                let contacts: Vec<NodeId> =
                    members.iter().copied().filter(|&n| n != victim).collect();
                let now = cluster.sim.now();
                cluster.sim.call(victim, |n, ctx| {
                    let _ = n.leave(ctx);
                });
                // Re-join with a few attempts through distinct contacts, as
                // a user would retry (the first can race the leave).
                for attempt in 0..3u64 {
                    let contact = *contacts.choose(&mut rng).expect("other members exist");
                    let at = now + REJOIN_PAUSE + Duration::from_secs(20 * attempt);
                    cluster.sim.call_at(at, victim, move |n, ctx| {
                        let _ = n.join(contact, ctx);
                    });
                }
                open.insert(victim, cycles.len());
                cycles.push(Cycle {
                    victim,
                    left_at: now,
                    done_at: None,
                });
            }
        }
        // A broadcast from a live member is due every simulated second.
        let live: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|n| !open.contains_key(n))
            .collect();
        if let Some(&origin) = live.choose(&mut rng) {
            let seq = bcasts.len() as u64;
            let bytes = payload::make(payload::TAG_RUN, seed, seq, PAYLOAD_BYTES);
            let ids = Arc::clone(&ids);
            cluster.sim.call(origin, move |n, ctx| {
                if let Ok(id) = n.broadcast(bytes, ctx) {
                    ids.lock().expect("ids").insert(seq, id);
                }
            });
            bcasts.push(Bcast {
                due: cluster.sim.now(),
                members: live,
            });
        }
        cluster.sim.run_for(Duration::from_secs(1));
    }
    // Drain until quiescent: the last re-join attempt fires 45 s after its
    // leave, and stale entries need a failure-detection window plus
    // agreement to be evicted, possibly several times over.
    let eviction_window = cluster
        .params
        .heartbeat_period
        .saturating_mul(u64::from(cluster.params.eviction_threshold));
    let drain = Duration::from_secs(60) + eviction_window.saturating_mul(16);
    for _ in 0..drain.as_secs_f64() as u64 {
        cluster.sim.run_for(Duration::from_secs(1));
        observe_sessions(&cluster);
    }
    let end = cluster.sim.now();
    for cycle in cycles.iter_mut().filter(|c| c.done_at.is_none()) {
        cycle.done_at = completion(&cluster, cycle);
    }
    pool.wall_s += wall_start.elapsed().as_secs_f64();
    pool.cpu_s += measure::cpu_seconds() - cpu_before;
    pool.simulated_s += end.saturating_since(start).as_secs_f64();

    // ---- outputs and their check ------------------------------------
    let ids = ids.lock().expect("ids").clone();
    // Leave times per node, to excuse members that left soon after a
    // broadcast was due.
    let mut leaves: BTreeMap<NodeId, Vec<Instant>> = BTreeMap::new();
    for c in &cycles {
        leaves.entry(c.victim).or_default().push(c.left_at);
    }
    // First delivery per (broadcast, node). A second delivery within one
    // membership session is a wrong output; one in a later session (the
    // node's dedup state did not survive its membership ending) is counted
    // as a re-delivery, a known defect (see NOTES.md).
    let mut delivered_at: BTreeMap<(u64, NodeId), (Instant, u32)> = BTreeMap::new();
    for &node in &correct {
        let app = cluster.sim.node(node).expect("node exists").app();
        for c in &app.corrupt {
            out.violation(format!("{node}: {c}"));
        }
        let starts = sessions.get(&node);
        let session = |t: Instant| starts.map_or(0, |s| s.range(..=t).count());
        for r in app.records() {
            if ids.get(&r.seq) != Some(&r.id) {
                out.violation(format!(
                    "{node} delivered {:?} (seq {}), never sent",
                    r.id, r.seq
                ));
                continue;
            }
            match delivered_at.get(&(r.seq, node)) {
                None => {
                    delivered_at.insert((r.seq, node), (r.clock, r.hops));
                }
                Some(&(first, _)) if session(first) == session(r.clock) => {
                    out.violation(format!(
                        "{node} delivered {:?} twice in one membership",
                        r.id
                    ));
                }
                Some(_) => pool.redelivered += 1,
            }
        }
    }
    // Members of one vgroup should agree on its epoch and composition. The
    // vgroup's current configuration is the newest epoch any node reports
    // for it (the view most nodes hold, if several). A node reporting any
    // other view of that vgroup at the end has diverged. The seed code
    // shows this under churn (see NOTES.md), so it counts as a failed
    // operation rather than failing the check.
    let mut views: BTreeMap<u64, BTreeMap<(u64, Vec<NodeId>), u64>> = BTreeMap::new();
    for &node in &correct {
        if let Some(m) = cluster.sim.node(node).and_then(|n| n.member()) {
            *views
                .entry(m.vgroup.raw())
                .or_default()
                .entry((m.epoch, m.composition.iter().collect()))
                .or_default() += 1;
        }
    }
    pool.diverged += views
        .values()
        .map(|held| {
            let current = held
                .iter()
                .max_by_key(|((epoch, _), holders)| (*epoch, **holders))
                .map_or(0, |(_, holders)| *holders);
            held.values().sum::<u64>() - current
        })
        .sum::<u64>();

    for (seq, b) in bcasts.iter().enumerate() {
        let seq = seq as u64;
        if !ids.contains_key(&seq) {
            // The origin could not broadcast after all: every pair fails.
            pool.expected += b.members.len() as u64;
            pool.missing += b.members.len() as u64;
            continue;
        }
        for &m in &b.members {
            let excused = leaves
                .get(&m)
                .is_some_and(|ls| ls.iter().any(|&l| l >= b.due && l <= b.due + GRACE));
            match delivered_at.get(&(seq, m)) {
                Some(&(at, _)) => {
                    pool.expected += 1;
                    pool.latency
                        .push(at.saturating_since(b.due).as_secs_f64() * 1e3);
                }
                None if excused => {}
                None => {
                    pool.expected += 1;
                    pool.missing += 1;
                }
            }
        }
    }
    let mut rejoin: Vec<f64> = cycles
        .iter()
        .filter_map(|c| {
            c.done_at
                .map(|t| t.saturating_since(c.left_at).as_secs_f64() * 1e3)
        })
        .collect();
    pool.rejoin_p90.push(percentile(&mut rejoin, 90.0));
    pool.rejoin.append(&mut rejoin);
    pool.broadcasts += bcasts.len() as u64;
    pool.cycles += cycles.len() as u64;
    pool.incomplete += cycles.iter().filter(|c| c.done_at.is_none()).count() as u64;
    pool.correct += correct.len() as u64;
    pool.final_members += correct.iter().filter(|&&n| is_member(&cluster, n)).count() as u64;

    let Some(spans) = spans else { return };
    let stats = cluster.sim.stats();
    pool.events += stats.events_processed - stats_before.events_processed;
    pool.messages += stats.messages_sent - stats_before.messages_sent;
    pool.timers += stats.timers_fired - stats_before.timers_fired;
    pool.deliveries += delivered_at.len() as u64;
    pool.hops
        .extend(delivered_at.values().map(|&(_, h)| f64::from(h)));
    for &node in &correct {
        if let Some(m) = cluster.sim.node(node).and_then(|n| n.member()) {
            let s = &m.stats;
            for (acc, v) in pool.member_counters.iter_mut().zip([
                s.reconfigurations,
                s.splits,
                s.merges,
                s.evictions,
            ]) {
                *acc += v;
            }
        }
    }
    // Spans in simulated microseconds since the scenario started; op ids
    // are unique across the run's scenarios.
    let us = |t: Instant| t.saturating_since(start).as_micros();
    let op_base = k << 32;
    let mut per_bcast: BTreeMap<u64, Vec<(Instant, u32)>> = BTreeMap::new();
    for (&(seq, _), &d) in &delivered_at {
        per_bcast.entry(seq).or_default().push(d);
    }
    for (seq, d) in &per_bcast {
        let op = op_base + seq;
        let due = bcasts[*seq as usize].due;
        let last = d.iter().map(|&(at, _)| at).max().expect("non-empty");
        let root = spans.push_us("bcast", op, None, us(due), us(last));
        if let Some(first_local) = d.iter().filter(|&&(_, h)| h == 0).map(|&(at, _)| at).min() {
            spans.push_us("smr.agree", op, Some(root), us(due), us(first_local));
            pool.agree
                .push(first_local.saturating_since(due).as_secs_f64() * 1e3);
        }
        let first = d.iter().map(|&(at, _)| at).min().expect("non-empty");
        for &(at, _) in d.iter().filter(|&&(at, _)| at > first) {
            spans.push_us("overlay.spread", op, Some(root), us(first), us(at));
            pool.spread
                .push(at.saturating_since(first).as_secs_f64() * 1e3);
        }
    }
    for (i, c) in cycles.iter().enumerate() {
        spans.push_us(
            "core.rejoin",
            op_base + i as u64,
            None,
            us(c.left_at),
            us(c.done_at.unwrap_or(end)),
        );
    }
}

/// Runs the workload; `traced` records spans. A per-layer run (`--trace
/// 1`) runs the workload twice, untraced and then traced, and its figures
/// carry no bound, so with `per_layer` it plays half the scenarios.
pub fn run(seed: u64, seconds: u64, traced: bool, per_layer: bool) -> Outcome {
    let span_s = seconds.max(1) * SIM_SECONDS_PER_SECOND;
    let scenarios = if per_layer { SCENARIOS / 2 } else { SCENARIOS };
    let mut out = Outcome {
        offered_rate: CHURN_PER_MINUTE as f64 / 60.0,
        payload_bytes: PAYLOAD_BYTES,
        ..Outcome::default()
    };

    let walks = Arc::new(AtomicU64::new(0));
    if traced {
        let walks = Arc::clone(&walks);
        atum_obs::trace::set_output_collector(Arc::new(move |kind, _line| {
            if kind == atum_obs::EventKind::Walk {
                walks.fetch_add(1, Ordering::Relaxed);
            }
        }));
        atum_obs::trace::set_enabled_kinds(&[atum_obs::EventKind::Walk]);
    }
    let pulls = atum_obs::global().counter("core.anti_entropy_pulls");
    let reproposals = atum_obs::global().counter("core.anti_entropy_reproposals");
    let (pulls_before, reproposals_before) = (pulls.get(), reproposals.get());

    let mut pool = Pooled::default();
    let mut setups = Vec::new();
    let mut reference = Vec::new();
    let mut spans = traced.then(|| Spans::new(std::time::Instant::now()));
    for k in 0..scenarios {
        reference.extend((0..REFERENCE_RUNS).map(|_| measure::reference_task_s()));
        let sub_seed = scenario_seed(seed, k);
        // How long a cluster takes to build depends on its layout, so
        // every scenario's cluster is built and timed.
        let (setup_s, cluster) = median_setup(SETUPS, |_| build(sub_seed), drop);
        setups.push(setup_s);
        scenario(
            cluster,
            sub_seed,
            span_s,
            k,
            &mut pool,
            &mut out,
            spans.as_mut(),
        );
    }
    reference.extend((0..REFERENCE_RUNS).map(|_| measure::reference_task_s()));
    if traced {
        atum_obs::trace::set_enabled_kinds(&[]);
        atum_obs::trace::set_output_stderr();
    }
    let setup_s = measure::mean(&setups);
    // The host's speed drifts by tens of percent over minutes; set-up, CPU
    // and wall time are reported at the speed at which the reference task
    // takes `REFERENCE_S`.
    let reference_s = measure::mean(&reference);
    let speed = measure::ratio(REFERENCE_S, reference_s);
    let (attempted, failed) = pool.attempted_failed();
    (out.attempted, out.failed) = (attempted, failed);
    let fail_ratio = measure::ratio(failed as f64, attempted as f64);
    let figures = pool.figures();
    out.e2e.insert("setup_s", setup_s * speed);
    out.e2e.insert("cpu_s", figures[0] * speed);
    out.e2e.insert("wall_s", figures[1] * speed);
    for (i, name) in FIGURES.iter().enumerate().take(7).skip(2) {
        out.e2e.insert(name, figures[i]);
    }
    out.host_record = vec![
        ("setup_unscaled_s", setup_s),
        ("cpu_unscaled_s", figures[0]),
        ("wall_unscaled_s", figures[1]),
        ("reference_task_ms", reference_s * 1e3),
    ];
    out.record = vec![
        ("scenarios", scenarios as f64),
        ("simulated_s", pool.simulated_s),
        ("broadcasts", pool.broadcasts as f64),
        ("pairs", pool.expected as f64),
        ("pairs_failed", pool.missing as f64),
        ("redelivered", pool.redelivered as f64),
        ("diverged_members", pool.diverged as f64),
        ("cycles", pool.cycles as f64),
        ("cycles_incomplete", pool.incomplete as f64),
        ("final_members", pool.final_members as f64),
        ("fail_ratio", fail_ratio),
        ("sim_bcast_p50_s", figures[3] / 1e3),
        ("sim_bcast_mean_s", figures[4] / 1e3),
        ("sim_bcast_p90_s", figures[7] / 1e3),
        ("sim_bcast_p99_s", figures[8] / 1e3),
        ("rejoin_p50_s", figures[5] / 1e3),
        ("rejoin_p90_s", figures[6] / 1e3),
    ];

    if let Some(spans) = spans {
        let ops = (pool.broadcasts + pool.cycles) as f64;
        let joins = pool.cycles - pool.incomplete;
        let [reconfigurations, splits, merges, evictions] = pool.member_counters;
        let l = &mut out.layers;
        l.insert("simnet.events", pool.events as f64);
        l.insert(
            "simnet.events_per_s",
            measure::ratio(pool.events as f64, pool.wall_s),
        );
        l.insert(
            "simnet.messages_per_op",
            measure::ratio(pool.messages as f64, ops),
        );
        l.insert("simnet.timers_fired", pool.timers as f64);
        l.insert(
            "core.anti_entropy_pulls",
            (pulls.get() - pulls_before) as f64,
        );
        l.insert(
            "core.anti_entropy_reproposals",
            (reproposals.get() - reproposals_before) as f64,
        );
        l.insert(
            "core.deliveries_per_op",
            measure::ratio(pool.deliveries as f64, pool.broadcasts as f64),
        );
        l.insert("smr.reconfigurations", reconfigurations as f64);
        l.insert("overlay.splits", splits as f64);
        l.insert("overlay.merges", merges as f64);
        l.insert("core.evictions", evictions as f64);
        l.insert(
            "overlay.walks_per_join",
            measure::ratio(walks.load(Ordering::Relaxed) as f64, joins as f64),
        );
        l.insert("overlay.hops_mean", measure::mean(&pool.hops));
        l.insert("core.redeliveries", pool.redelivered as f64);
        l.insert("core.diverged_members", pool.diverged as f64);
        l.insert("smr.agree_ms_p50", percentile(&mut pool.agree, 50.0));
        l.insert("smr.agree_ms_p99", percentile(&mut pool.agree, 99.0));
        l.insert("overlay.spread_ms_p50", percentile(&mut pool.spread, 50.0));
        l.insert("overlay.spread_ms_p99", percentile(&mut pool.spread, 99.0));
        out.spans = Some(spans);
    }
    out
}
