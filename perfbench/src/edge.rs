//! `edge_mixed`: an `EdgeGateway` with its default configuration in front
//! of the 12-member cluster. One client connection carries an open-loop,
//! pipelined mix of `Fetch` reads and keyed `Publish` writes, a fixed share
//! of the writes re-sent under the same idempotency key. One thread sends
//! on the schedule; another reads the replies.

use crate::measure::{self, median_setup, micros, millis, percentile, Outcome, Spans};
use crate::payload;
use crate::tcp::{self, Handle, System, MEMBERS};
use atum_edge::{
    EdgeBackend, EdgeBackendError, EdgeConfig, EdgeGateway, EdgeOp, EdgeRequest, EdgeResponse,
    EdgeSnapshot, EdgeStatus,
};
use atum_types::wire::{
    decode_exact, FRAME_HEADER_LEN, FRAME_KIND_EDGE_RESPONSE, FRAME_MAGIC, WIRE_VERSION,
};
use atum_types::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered requests per second (before re-sends).
const RATE: f64 = 1000.0;
/// Size of a write's payload: small, so the message path stays lightly
/// loaded and the gateway's own costs dominate.
const WRITE_BYTES: usize = 64;
/// Share of requests that are writes.
const WRITE_SHARE: f64 = 0.2;
/// Every this-many-th write is sent a second time under the same key.
const RESEND_EVERY: u64 = 5;
/// How long after the original a re-send is due.
const RESEND_AFTER: Duration = Duration::from_millis(20);
/// How long after the last request was due replies and deliveries may
/// still arrive before missing ones count as failed.
const DRAIN: Duration = Duration::from_secs(15);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write { wid: u64 },
    Resend { wid: u64 },
}

/// One backend execution, timed inside the backend (traced runs only).
#[derive(Debug, Clone, Copy)]
struct Exec {
    /// Request key (`Fetch` key = request seq; `Publish` topic = write id).
    key: u64,
    write: bool,
    start: Instant,
    /// The closure's start and end on the node's reactor.
    call: Option<(Instant, Instant)>,
    end: Instant,
}

/// The gateway's bridge onto the cluster: a write becomes a broadcast on
/// the chosen node's reactor, a read is one round trip to it.
struct Backend {
    ids: Vec<NodeId>,
    handles: BTreeMap<NodeId, Handle>,
    /// Write id → times the write's broadcast was accepted.
    applies: Mutex<BTreeMap<u64, u32>>,
    /// Backend timings, when traced.
    execs: Option<Mutex<Vec<Exec>>>,
}

impl EdgeBackend for Backend {
    fn nodes(&self) -> Vec<NodeId> {
        self.ids.clone()
    }

    fn execute(
        &self,
        node: NodeId,
        op: &EdgeOp,
        deadline: Instant,
    ) -> Result<Vec<u8>, EdgeBackendError> {
        let start = Instant::now();
        let handle = self
            .handles
            .get(&node)
            .ok_or(EdgeBackendError::Unavailable)?;
        let traced = self.execs.is_some();
        let (key, write, result, call) = match op {
            EdgeOp::Publish { topic, .. } => {
                let bytes = atum_apps::edge::broadcast_payload(op)
                    .ok_or(EdgeBackendError::Rejected("not a write"))?;
                let (tx, rx) = mpsc::channel();
                handle.call(move |n, ctx| {
                    let t0 = traced.then(Instant::now);
                    let ok = n.broadcast(bytes, ctx).is_ok();
                    let _ = tx.send((ok, t0.map(|t0| (t0, Instant::now()))));
                });
                // Wait up to the deadline: giving up earlier would let the
                // gateway retry a write that is still going to apply.
                let (result, call) =
                    match rx.recv_timeout(deadline.saturating_duration_since(start)) {
                        Ok((true, call)) => {
                            *self
                                .applies
                                .lock()
                                .expect("applies")
                                .entry(*topic)
                                .or_insert(0) += 1;
                            (Ok(Vec::new()), call)
                        }
                        Ok((false, call)) => (Err(EdgeBackendError::Unavailable), call),
                        Err(_) => (Err(EdgeBackendError::Timeout), None),
                    };
                (*topic, true, result, call)
            }
            EdgeOp::Fetch { key } => {
                let (tx, rx) = mpsc::channel();
                handle.call(move |n, _ctx| {
                    let t0 = traced.then(Instant::now);
                    let count = n.app().records().len() as u64;
                    let _ = tx.send((count, t0.map(|t0| (t0, Instant::now()))));
                });
                match rx.recv_timeout(deadline.saturating_duration_since(start)) {
                    Ok((count, call)) => (*key, false, Ok(count.to_le_bytes().to_vec()), call),
                    Err(_) => (*key, false, Err(EdgeBackendError::Timeout), None),
                }
            }
            EdgeOp::Health | EdgeOp::Stats | EdgeOp::Append { .. } => {
                return Err(EdgeBackendError::Rejected("not part of the workload"))
            }
        };
        if let Some(execs) = &self.execs {
            execs.lock().expect("execs").push(Exec {
                key,
                write,
                start,
                call,
                end: Instant::now(),
            });
        }
        result
    }
}

/// A cluster with a gateway in front, ready for traffic.
struct Stack {
    system: System,
    backend: Arc<Backend>,
    gateway: EdgeGateway,
}

impl Stack {
    /// Builds the cluster, starts the gateway, and is ready once a first
    /// read through the gateway was answered.
    fn build(seed: u64, traced: bool) -> (f64, Stack) {
        let started = Instant::now();
        let (_, system) = System::build(seed);
        let backend = Arc::new(Backend {
            ids: system.handles.iter().map(|h| h.id()).collect(),
            handles: system.handles.iter().map(|h| (h.id(), h.clone())).collect(),
            applies: Mutex::new(BTreeMap::new()),
            execs: traced.then(|| Mutex::new(Vec::new())),
        });
        let gateway = EdgeGateway::start(
            EdgeConfig::default(),
            Arc::clone(&backend) as Arc<dyn EdgeBackend>,
        )
        .expect("gateway starts");
        let mut client =
            atum_edge::EdgeClient::connect(gateway.local_addr(), Duration::from_secs(10))
                .expect("connect to gateway");
        let reply = client
            .request(&EdgeRequest {
                seq: 0,
                idempotency_key: None,
                deadline_ms: 0,
                op: EdgeOp::Fetch { key: u64::MAX },
            })
            .expect("first read");
        assert_eq!(
            reply.status,
            EdgeStatus::Ok,
            "first read through the gateway failed"
        );
        let secs = started.elapsed().as_secs_f64();
        (
            secs,
            Stack {
                system,
                backend,
                gateway,
            },
        )
    }

    fn shutdown(self) {
        let Stack {
            system,
            backend,
            gateway,
        } = self;
        gateway.shutdown();
        drop(backend);
        system.shutdown();
    }
}

/// The request schedule: (due offset, kind), sorted by due time.
fn schedule(seed: u64, seconds: u64) -> Vec<(Duration, Kind)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xed9e);
    let n = (RATE * seconds as f64).round().max(1.0) as u64;
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let mut out = Vec::with_capacity(n as usize + n as usize / 20);
    let mut wid = 0u64;
    for i in 0..n {
        let at = interval.mul_f64(i as f64);
        if rng.gen_bool(WRITE_SHARE) {
            out.push((at, Kind::Write { wid }));
            if wid.is_multiple_of(RESEND_EVERY) {
                out.push((at + RESEND_AFTER, Kind::Resend { wid }));
            }
            wid += 1;
        } else {
            out.push((at, Kind::Read));
        }
    }
    out.sort_by_key(|&(at, _)| at);
    out
}

fn request(seed: u64, seq: u64, kind: Kind) -> EdgeRequest {
    match kind {
        Kind::Read => EdgeRequest {
            seq,
            idempotency_key: None,
            deadline_ms: 0,
            op: EdgeOp::Fetch { key: seq },
        },
        Kind::Write { wid } | Kind::Resend { wid } => EdgeRequest {
            seq,
            idempotency_key: Some(wid),
            deadline_ms: 0,
            op: EdgeOp::Publish {
                topic: wid,
                payload: payload::make(payload::TAG_RUN, seed, wid, WRITE_BYTES),
            },
        },
    }
}

/// Reads one response frame.
fn read_response(stream: &mut TcpStream) -> std::io::Result<EdgeResponse> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header)?;
    if header[0..2] != FRAME_MAGIC
        || header[2] != WIRE_VERSION
        || header[3] != FRAME_KIND_EDGE_RESPONSE
    {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bad response header",
        ));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    decode_exact::<EdgeResponse>(&body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

fn snapshot_layers(
    before: &EdgeSnapshot,
    after: &EdgeSnapshot,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let d = |f: fn(&EdgeSnapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    layers.insert("edge.shed", d(|s| s.shed));
    layers.insert("edge.dedup_hits", d(|s| s.dedup_hits));
    layers.insert("edge.unavailable", d(|s| s.unavailable));
    layers.insert("edge.deadline_exceeded", d(|s| s.deadline_exceeded));
    layers.insert("edge.breaker_opened", d(|s| s.breaker_opened));
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let plan = schedule(seed, seconds);
    let total = plan.len() as u64;
    let mut out = Outcome {
        offered_rate: total as f64 / seconds.max(1) as f64,
        payload_bytes: WRITE_BYTES,
        ..Outcome::default()
    };
    // Timed before any cluster runs, so nothing else competes for the CPU.
    let codec = if traced {
        tcp::codec_timings(seed, WRITE_BYTES)
    } else {
        (0.0, 0.0, 0.0)
    };
    let (setup_s, stack) = median_setup(
        3,
        |round| Stack::build(seed.wrapping_add(round as u64), traced),
        Stack::shutdown,
    );
    std::thread::sleep(Duration::from_secs(1));

    let net_before = stack.system.cluster.stats();
    let digest_before = atum_core::verified_digest_stats();
    let edge_before = stack.gateway.snapshot();
    let stream = TcpStream::connect(stack.gateway.local_addr()).expect("connect to gateway");
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut reader_stream = stream.try_clone().expect("clone client stream");

    let cpu_before = measure::cpu_seconds();
    let start = Instant::now() + Duration::from_millis(5);
    let reader = std::thread::spawn(move || {
        let mut replies: Vec<(EdgeResponse, Instant)> = Vec::with_capacity(total as usize);
        let mut error = None;
        while (replies.len() as u64) < total {
            match read_response(&mut reader_stream) {
                Ok(resp) => replies.push((resp, Instant::now())),
                Err(e) => {
                    error = Some(e.to_string());
                    break;
                }
            }
        }
        (replies, error)
    });
    let sender = {
        let kinds: Vec<(Duration, Kind)> = plan.clone();
        let mut stream = stream;
        std::thread::spawn(move || {
            let mut sent_at = Vec::with_capacity(kinds.len());
            let mut late_max = Duration::ZERO;
            let mut io_error = None;
            for (seq, &(offset, kind)) in kinds.iter().enumerate() {
                let due_at = start + offset;
                let now = Instant::now();
                if now < due_at {
                    std::thread::sleep(due_at - now);
                }
                let frame = atum_edge::client::request_frame(&request(seed, seq as u64, kind));
                let at = Instant::now();
                late_max = late_max.max(at.saturating_duration_since(due_at));
                if let Err(e) = stream.write_all(&frame) {
                    io_error = Some(e.to_string());
                    break;
                }
                sent_at.push(at);
            }
            (sent_at, late_max, io_error, stream)
        })
    };
    let (sent_at, late_max, send_error, stream) = sender.join().expect("sender thread");
    let (replies, read_error) = reader.join().expect("reader thread");
    drop(stream);

    // Which writes were acknowledged, and so must reach every member.
    let mut acked: BTreeSet<u64> = BTreeSet::new();
    let mut reply_of: BTreeMap<u64, (EdgeStatus, Instant)> = BTreeMap::new();
    for (resp, at) in &replies {
        let Some(&(_, kind)) = plan.get(resp.seq as usize) else {
            out.violation(format!("reply with seq {} matches no request", resp.seq));
            continue;
        };
        if reply_of.insert(resp.seq, (resp.status, *at)).is_some() {
            out.violation(format!("second reply for request {}", resp.seq));
            continue;
        }
        if let (
            Kind::Write { wid } | Kind::Resend { wid },
            EdgeStatus::Ok | EdgeStatus::Duplicate,
        ) = (kind, resp.status)
        {
            acked.insert(wid);
        }
    }
    let last_due = start + plan.last().map(|&(at, _)| at).unwrap_or_default();
    let deadline = last_due + DRAIN;
    while stack.system.progress.run.load(Ordering::Relaxed) < acked.len() as u64 * MEMBERS as u64
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    let end = Instant::now();
    let cpu_s = measure::cpu_seconds() - cpu_before;
    let net_after = stack.system.cluster.stats();
    let digest_after = atum_core::verified_digest_stats();
    let edge_after = stack.gateway.snapshot();

    // ---- outputs and their check ------------------------------------
    let written: BTreeSet<u64> = plan
        .iter()
        .filter_map(|&(_, k)| match k {
            Kind::Write { wid } => Some(wid),
            _ => None,
        })
        .collect();
    let mut per_write: BTreeMap<u64, Vec<(Instant, u32)>> = BTreeMap::new();
    for (node, recs, corrupt) in stack.system.deliveries() {
        for c in corrupt {
            out.violation(format!("{node}: {c}"));
        }
        let mut seen = BTreeSet::new();
        for r in recs {
            if !written.contains(&r.seq) {
                out.violation(format!(
                    "{node} delivered write {} (id {:?}), never sent",
                    r.seq, r.id
                ));
                continue;
            }
            if !seen.insert(r.seq) {
                out.violation(format!(
                    "{node} applied keyed write {} twice ({:?})",
                    r.seq, r.id
                ));
                continue;
            }
            per_write.entry(r.seq).or_default().push((r.at, r.hops));
        }
    }
    for (wid, applies) in stack.backend.applies.lock().expect("applies").iter() {
        if *applies > 1 {
            out.violation(format!("keyed write {wid} applied {applies} times"));
        }
    }
    let mut failed = 0u64;
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for (seq, &(offset, kind)) in plan.iter().enumerate() {
        match reply_of.get(&(seq as u64)) {
            Some(&(EdgeStatus::Ok | EdgeStatus::Duplicate, at)) => {
                let ms = millis(start + offset, at);
                match kind {
                    Kind::Read => reads.push(ms),
                    _ => writes.push(ms),
                }
            }
            _ => failed += 1,
        }
    }
    // An acknowledged write that did not reach every member fails its
    // original request (once, however many times it was sent).
    let incomplete = acked
        .iter()
        .filter(|wid| per_write.get(wid).map_or(0, Vec::len) < MEMBERS)
        .count() as u64;
    out.attempted = total;
    out.failed = (failed + incomplete).min(total);
    if let Some(e) = send_error.or(read_error.filter(|_| (replies.len() as u64) < total)) {
        eprintln!("edge_mixed: client connection error: {e}");
    }

    let fail_ratio = measure::ratio(out.failed as f64, out.attempted as f64);
    // Until the last reply or delivery, not the drain deadline: a lost
    // write shows in `ok_ratio`, not as fifteen seconds of waiting.
    let last_output = replies
        .iter()
        .map(|&(_, at)| at)
        .chain(per_write.values().flatten().map(|&(at, _)| at))
        .max();
    let wall_s = last_output
        .unwrap_or(end)
        .duration_since(start)
        .as_secs_f64();
    let window_s = end.duration_since(start).as_secs_f64();
    let (n_reads, n_writes) = (reads.len(), writes.len());
    let read_p50 = percentile(&mut reads, 50.0);
    let read_p99 = percentile(&mut reads, 99.0);
    let write_p50 = percentile(&mut writes, 50.0);
    let write_p99 = percentile(&mut writes, 99.0);
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("cpu_s", cpu_s);
    out.e2e.insert("wall_s", wall_s);
    out.e2e.insert("ok_ratio", 1.0 - fail_ratio);
    // Reply latencies are sub-millisecond with a tail set by the gateway's
    // worker wake-ups (known defect 2 in NOTES.md) and vary by ±40%
    // between runs on a 2-CPU host, so they stay in the run record; the
    // gated latencies are how fast an edge write reaches the members.
    let write_due: BTreeMap<u64, Instant> = plan
        .iter()
        .filter_map(|&(offset, k)| match k {
            Kind::Write { wid } => Some((wid, start + offset)),
            _ => None,
        })
        .collect();
    let mut delivery = Vec::new();
    let mut complete = Vec::new();
    for (wid, d) in &per_write {
        let due_at = write_due[wid];
        delivery.extend(d.iter().map(|&(at, _)| millis(due_at, at)));
        if d.len() == MEMBERS {
            let last = d.iter().map(|&(at, _)| at).max().expect("non-empty");
            complete.push(millis(due_at, last));
        }
    }
    let deliver_p50 = percentile(&mut delivery, 50.0);
    let deliver_p99 = percentile(&mut delivery, 99.0);
    let complete_p50 = percentile(&mut complete, 50.0);
    let complete_p99 = percentile(&mut complete, 99.0);
    out.e2e.insert("lat_p50_ms", deliver_p50);
    out.e2e.insert("lat_tail_ms", deliver_p99);
    out.e2e.insert("lat2_p50_ms", complete_p50);
    out.e2e.insert("lat2_tail_ms", complete_p99);
    out.record = vec![
        ("requests", total as f64),
        ("reads", n_reads as f64),
        ("writes", n_writes as f64),
        ("writes_acknowledged", acked.len() as f64),
        ("writes_incomplete", incomplete as f64),
        ("fail_ratio", fail_ratio),
        ("read_p50_ms", read_p50),
        ("read_p99_ms", read_p99),
        ("write_p50_ms", write_p50),
        ("write_p99_ms", write_p99),
        ("write_deliver_p50_ms", deliver_p50),
        ("write_deliver_p99_ms", deliver_p99),
        ("write_complete_p50_ms", complete_p50),
        ("write_complete_p99_ms", complete_p99),
    ];
    out.reactors = net_before.threads;
    out.late_max_ms = late_max.as_secs_f64() * 1e3;

    if traced {
        let ops = total as f64;
        tcp::net_layers(
            &net_before,
            &net_after,
            window_s,
            out.reactors,
            ops,
            &mut out.layers,
        );
        snapshot_layers(&edge_before, &edge_after, &mut out.layers);
        let delivered: usize = per_write.values().map(Vec::len).sum();
        let l = &mut out.layers;
        l.insert(
            "core.digest_cache_hit_ratio",
            tcp::digest_hit_ratio(digest_before, digest_after),
        );
        l.insert("core.deliveries_per_op", delivered as f64 / ops);
        let hops: Vec<f64> = per_write
            .values()
            .flatten()
            .map(|&(_, h)| f64::from(h))
            .collect();
        l.insert("overlay.hops_mean", measure::mean(&hops));

        let execs = stack
            .backend
            .execs
            .as_ref()
            .map(|e| e.lock().expect("execs").clone())
            .unwrap_or_default();
        // Reads are keyed by request seq; a write's backend execution by
        // its write id (a re-sent write executes once).
        let read_exec: BTreeMap<u64, &Exec> = execs
            .iter()
            .filter(|e| !e.write)
            .map(|e| (e.key, e))
            .collect();
        let write_exec: BTreeMap<u64, &Exec> = execs
            .iter()
            .filter(|e| e.write)
            .map(|e| (e.key, e))
            .collect();
        let resent: BTreeSet<u64> = plan
            .iter()
            .filter_map(|&(_, k)| match k {
                Kind::Resend { wid } => Some(wid),
                _ => None,
            })
            .collect();
        let mut spans = Spans::new(start);
        let mut gateway = Vec::new();
        for (seq, &(offset, kind)) in plan.iter().enumerate() {
            let Some(&(_, reply_at)) = reply_of.get(&(seq as u64)) else {
                continue;
            };
            let Some(&sent) = sent_at.get(seq) else {
                continue;
            };
            let op = seq as u64;
            let due_at = start + offset;
            let root = spans.push("edge.request", op, None, due_at, reply_at);
            spans.push("gen.late", op, Some(root), due_at, sent);
            let exec = match kind {
                Kind::Read => read_exec.get(&op),
                Kind::Write { wid } if !resent.contains(&wid) => write_exec.get(&wid),
                _ => None,
            };
            let Some(exec) = exec else { continue };
            let backend = spans.push("edge.backend", op, Some(root), exec.start, exec.end);
            // Gateway time: the client's latency minus the backend's.
            gateway.push((micros(sent, reply_at) - micros(exec.start, exec.end)).max(0.0));
            let Some((t0, t1)) = exec.call else { continue };
            spans.push("net.call_wait", op, Some(backend), exec.start, t0);
            if let Kind::Write { wid } = kind {
                spans.push("core.broadcast", op, Some(backend), t0, t1);
                let d = per_write.get(&wid).map(Vec::as_slice).unwrap_or(&[]);
                if let Some(first_local) =
                    d.iter().filter(|&&(_, h)| h == 0).map(|&(at, _)| at).min()
                {
                    spans.push("smr.agree", op, Some(backend), t0, first_local);
                }
                if let Some(first) = d.iter().map(|&(at, _)| at).min() {
                    for &(at, _) in d.iter().filter(|&&(at, _)| at > first) {
                        spans.push("overlay.spread", op, Some(backend), first, at);
                    }
                }
            }
        }
        let us = |v: Vec<f64>| v.into_iter().map(|ms| ms * 1e3).collect::<Vec<f64>>();
        let call_wait = us(spans.durations_ms("net.call_wait"));
        let bcall = us(spans.durations_ms("core.broadcast"));
        let agree = spans.durations_ms("smr.agree");
        let spread = spans.durations_ms("overlay.spread");
        let backend_read: Vec<f64> = execs
            .iter()
            .filter(|e| !e.write)
            .map(|e| micros(e.start, e.end))
            .collect();
        let backend_write: Vec<f64> = execs
            .iter()
            .filter(|e| e.write)
            .map(|e| micros(e.start, e.end))
            .collect();
        let l = &mut out.layers;
        for (p50, p99, mut values) in [
            ("edge.gateway_us_p50", "edge.gateway_us_p99", gateway),
            (
                "edge.backend_read_us_p50",
                "edge.backend_read_us_p99",
                backend_read,
            ),
            (
                "edge.backend_write_us_p50",
                "edge.backend_write_us_p99",
                backend_write,
            ),
            ("net.call_wait_us_p50", "net.call_wait_us_p99", call_wait),
            (
                "core.broadcast_call_us_p50",
                "core.broadcast_call_us_p99",
                bcall,
            ),
            ("smr.agree_ms_p50", "smr.agree_ms_p99", agree),
            ("overlay.spread_ms_p50", "overlay.spread_ms_p99", spread),
        ] {
            l.insert(p50, percentile(&mut values, 50.0));
            l.insert(p99, percentile(&mut values, 99.0));
        }
        l.insert("types.encode_ns_1k", codec.0);
        l.insert("types.decode_ns_1k", codec.1);
        l.insert("crypto.digest_ns_1k", codec.2);
        out.spans = Some(spans);
    }
    stack.shutdown();
    out
}
