//! `bcast_tcp`: an open-loop broadcast load on a standing 12-member cluster
//! over loopback TCP. One generator thread issues 1 KiB broadcasts on a
//! fixed schedule, rotating origins; each is timed from when it was due
//! until every member delivered it.

use crate::measure::{self, median_setup, millis, percentile, Outcome, Spans};
use crate::payload;
use crate::tcp::{self, System, MEMBERS, PAYLOAD_BYTES};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered broadcasts per second: about three quarters of the rate at
/// which the single reactor saturates on a 2-CPU host (see `NOTES.md`).
const RATE: f64 = 800.0;
/// How long after the last broadcast was due deliveries may still arrive
/// before missing ones count as failed.
const DRAIN: Duration = Duration::from_secs(15);
/// Allowed gap between the sum of the per-layer medians and the
/// end-to-end median, as a share of the latter.
const DECOMPOSITION_TOLERANCE: f64 = 0.25;

/// What the reactor reported back for one issued broadcast.
struct Issued {
    seq: u64,
    id: Option<atum_types::BroadcastId>,
    /// Closure start and end on the reactor (traced runs only).
    call: Option<(Instant, Instant)>,
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome {
        offered_rate: RATE,
        payload_bytes: PAYLOAD_BYTES,
        ..Outcome::default()
    };
    // Timed before any cluster runs, so nothing else competes for the CPU.
    let codec = if traced {
        tcp::codec_timings(seed, PAYLOAD_BYTES)
    } else {
        (0.0, 0.0, 0.0)
    };
    let (setup_s, system) = median_setup(
        3,
        |round| System::build(seed.wrapping_add(round as u64)),
        System::shutdown,
    );
    // Let heartbeats and composition anti-entropy settle.
    std::thread::sleep(Duration::from_secs(1));

    let n = (RATE * seconds as f64).round().max(1.0) as u64;
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let net_before = system.cluster.stats();
    let digest_before = atum_core::verified_digest_stats();
    let pulls = atum_obs::global().counter("core.anti_entropy_pulls");
    let reproposals = atum_obs::global().counter("core.anti_entropy_reproposals");
    let (pulls_before, reproposals_before) = (pulls.get(), reproposals.get());

    let cpu_before = measure::cpu_seconds();
    let start = Instant::now() + Duration::from_millis(5);
    let due = |seq: u64| start + interval.mul_f64(seq as f64);
    let (tx, rx) = mpsc::channel::<Issued>();
    let generator = {
        let handles = system.handles.clone();
        std::thread::spawn(move || {
            let mut issued_at = Vec::with_capacity(n as usize);
            let mut late_max = Duration::ZERO;
            for seq in 0..n {
                let due_at = start + interval.mul_f64(seq as f64);
                let now = Instant::now();
                if now < due_at {
                    std::thread::sleep(due_at - now);
                }
                let bytes = payload::make(payload::TAG_RUN, seed, seq, PAYLOAD_BYTES);
                let tx = tx.clone();
                let issue = Instant::now();
                late_max = late_max.max(issue.saturating_duration_since(due_at));
                handles[(seq % MEMBERS as u64) as usize].call(move |node, ctx| {
                    let t0 = traced.then(Instant::now);
                    let id = node.broadcast(bytes, ctx).ok();
                    let call = t0.map(|t0| (t0, Instant::now()));
                    let _ = tx.send(Issued { seq, id, call });
                });
                issued_at.push(issue);
            }
            (issued_at, late_max)
        })
    };
    let (issued_at, late_max) = generator.join().expect("generator thread");
    let mut issued: Vec<Option<Issued>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(i) => {
                let seq = i.seq as usize;
                issued[seq] = Some(i);
            }
            Err(_) => break,
        }
    }
    let accepted = issued.iter().flatten().filter(|i| i.id.is_some()).count() as u64;
    let deadline = due(n - 1) + DRAIN;
    while system.progress.run.load(Ordering::Relaxed) < accepted * MEMBERS as u64
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    let end = Instant::now();
    let cpu_s = measure::cpu_seconds() - cpu_before;
    let net_after = system.cluster.stats();
    let digest_after = atum_core::verified_digest_stats();

    // ---- outputs and their check ------------------------------------
    let sent_ids: BTreeMap<u64, atum_types::BroadcastId> = issued
        .iter()
        .flatten()
        .filter_map(|i| i.id.map(|id| (i.seq, id)))
        .collect();
    let mut per_bcast: Vec<Vec<(Instant, u32)>> = vec![Vec::new(); n as usize];
    for (node, recs, corrupt) in system.deliveries() {
        for c in corrupt {
            out.violation(format!("{node}: {c}"));
        }
        let mut seen = BTreeSet::new();
        for r in recs {
            if sent_ids.get(&r.seq) != Some(&r.id) {
                out.violation(format!(
                    "{node} delivered {:?} (seq {}), never sent",
                    r.id, r.seq
                ));
                continue;
            }
            if !seen.insert(r.seq) {
                out.violation(format!("{node} delivered {:?} twice", r.id));
                continue;
            }
            per_bcast[r.seq as usize].push((r.at, r.hops));
        }
    }
    let delivered: u64 = per_bcast.iter().map(|d| d.len() as u64).sum();
    out.attempted = n * MEMBERS as u64;
    out.failed = out.attempted - delivered;

    let mut latency = Vec::with_capacity(delivered as usize);
    let mut complete = Vec::new();
    for (seq, d) in per_bcast.iter().enumerate() {
        let due_at = due(seq as u64);
        latency.extend(d.iter().map(|&(at, _)| millis(due_at, at)));
        if d.len() == MEMBERS {
            let last = d.iter().map(|&(at, _)| at).max().expect("non-empty");
            complete.push(millis(due_at, last));
        }
    }
    let fail_ratio = measure::ratio(out.failed as f64, out.attempted as f64);
    // Until the last delivery, not the drain deadline: a lost broadcast
    // shows in `ok_ratio`, not as fifteen seconds of waiting.
    let last_delivery = per_bcast.iter().flatten().map(|&(at, _)| at).max();
    let wall_s = last_delivery
        .unwrap_or(end)
        .duration_since(start)
        .as_secs_f64();
    let window_s = end.duration_since(start).as_secs_f64();
    let bcast_p50 = percentile(&mut latency, 50.0);
    let bcast_p99 = percentile(&mut latency, 99.0);
    let complete_p50 = percentile(&mut complete, 50.0);
    let complete_p99 = percentile(&mut complete, 99.0);
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("cpu_s", cpu_s);
    out.e2e.insert("wall_s", wall_s);
    out.e2e.insert("ok_ratio", 1.0 - fail_ratio);
    out.e2e.insert("lat_p50_ms", bcast_p50);
    out.e2e.insert("lat_tail_ms", bcast_p99);
    out.e2e.insert("lat2_p50_ms", complete_p50);
    out.e2e.insert("lat2_tail_ms", complete_p99);
    out.record = vec![
        ("broadcasts", n as f64),
        ("pairs", out.attempted as f64),
        ("fail_ratio", fail_ratio),
        ("bcast_p50_ms", bcast_p50),
        ("bcast_p99_ms", bcast_p99),
        ("complete_p50_ms", complete_p50),
        ("complete_p99_ms", complete_p99),
        ("complete_samples", complete.len() as f64),
    ];
    out.reactors = net_before.threads;
    out.late_max_ms = late_max.as_secs_f64() * 1e3;

    if traced {
        let ops = n as f64;
        tcp::net_layers(
            &net_before,
            &net_after,
            window_s,
            out.reactors,
            ops,
            &mut out.layers,
        );
        let l = &mut out.layers;
        l.insert(
            "core.digest_cache_hit_ratio",
            tcp::digest_hit_ratio(digest_before, digest_after),
        );
        l.insert("core.deliveries_per_op", delivered as f64 / ops);
        l.insert(
            "core.anti_entropy_pulls",
            (pulls.get() - pulls_before) as f64,
        );
        l.insert(
            "core.anti_entropy_reproposals",
            (reproposals.get() - reproposals_before) as f64,
        );
        let [reconfigurations, splits, merges, evictions] = system.member_counters();
        l.insert("smr.reconfigurations", reconfigurations as f64);
        l.insert("overlay.splits", splits as f64);
        l.insert("overlay.merges", merges as f64);
        l.insert("core.evictions", evictions as f64);
        let hops: Vec<f64> = per_bcast
            .iter()
            .flatten()
            .map(|&(_, h)| f64::from(h))
            .collect();
        l.insert("overlay.hops_mean", measure::mean(&hops));

        let mut spans = Spans::new(start);
        for (seq, d) in per_bcast.iter().enumerate() {
            let Some(Some(Issued {
                call: Some((t0, t1)),
                ..
            })) = issued.get(seq)
            else {
                continue;
            };
            let due_at = due(seq as u64);
            let last = d.iter().map(|&(at, _)| at).max().unwrap_or(end);
            let op = seq as u64;
            let root = spans.push("bcast", op, None, due_at, last);
            spans.push("gen.late", op, Some(root), due_at, issued_at[seq]);
            spans.push("net.call_wait", op, Some(root), issued_at[seq], *t0);
            spans.push("core.broadcast", op, Some(root), *t0, *t1);
            // Agreement: until the first delivery in the origin vgroup.
            if let Some(first_local) = d.iter().filter(|&&(_, h)| h == 0).map(|&(at, _)| at).min() {
                spans.push("smr.agree", op, Some(root), *t0, first_local);
            }
            // Spread: from the first delivery anywhere to each later one.
            if let Some(first) = d.iter().map(|&(at, _)| at).min() {
                let mut later: Vec<Instant> = d.iter().map(|&(at, _)| at).collect();
                later.sort();
                for at in later.into_iter().skip(1) {
                    spans.push("overlay.spread", op, Some(root), first, at);
                }
            }
        }
        let us = |v: Vec<f64>| v.into_iter().map(|ms| ms * 1e3).collect::<Vec<f64>>();
        let mut call_wait = us(spans.durations_ms("net.call_wait"));
        let mut bcall = us(spans.durations_ms("core.broadcast"));
        let mut agree = spans.durations_ms("smr.agree");
        let mut spread = spans.durations_ms("overlay.spread");
        let l = &mut out.layers;
        l.insert("net.call_wait_us_p50", percentile(&mut call_wait, 50.0));
        l.insert("net.call_wait_us_p99", percentile(&mut call_wait, 99.0));
        l.insert("core.broadcast_call_us_p50", percentile(&mut bcall, 50.0));
        l.insert("core.broadcast_call_us_p99", percentile(&mut bcall, 99.0));
        l.insert("smr.agree_ms_p50", percentile(&mut agree, 50.0));
        l.insert("smr.agree_ms_p99", percentile(&mut agree, 99.0));
        l.insert("overlay.spread_ms_p50", percentile(&mut spread, 50.0));
        l.insert("overlay.spread_ms_p99", percentile(&mut spread, 99.0));
        let sum_ms =
            l["net.call_wait_us_p50"] / 1e3 + l["smr.agree_ms_p50"] + l["overlay.spread_ms_p50"];
        let share = measure::ratio(sum_ms, bcast_p50);
        l.insert("decomp.sum_p50_ms", sum_ms);
        l.insert("decomp.share_of_p50", share);
        l.insert(
            "decomp.within_tolerance",
            f64::from(u8::from((share - 1.0).abs() <= DECOMPOSITION_TOLERANCE)),
        );
        l.insert("types.encode_ns_1k", codec.0);
        l.insert("types.decode_ns_1k", codec.1);
        l.insert("crypto.digest_ns_1k", codec.2);
        out.spans = Some(spans);
    }
    system.shutdown();
    out
}
