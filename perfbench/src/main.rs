//! The Atum benchmark: one command per workload, end-to-end metrics from
//! untraced runs, per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <bcast_tcp|edge_mixed|sim_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints a stamped run record (one JSON line, the workload's
//! metrics under their own names) and, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! measured by running the workload untraced and then traced (the CPU
//! ratio of the two is `obs.trace_overhead_ratio`). Spans of the traced run
//! are written to `perfbench/out/`. See `NOTES.md` for what each workload
//! and metric means.

mod bcast;
mod churn;
mod edge;
mod measure;
mod payload;
mod tcp;

use measure::Outcome;

/// End-to-end metrics and their units, reported by every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("wall_s", "s"),
    ("rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("lat2_p50_ms", "ms"),
    ("lat2_tail_ms", "ms"),
];

/// Per-layer metrics and their units. A workload reports 0 for a layer it
/// does not exercise.
const PER_LAYER: &[(&str, &str)] = &[
    ("net.call_wait_us_p50", "us"),
    ("net.call_wait_us_p99", "us"),
    ("net.reactor_busy_share", "ratio"),
    ("net.dispatch_batch_mean", "events"),
    ("net.timer_lag_max_ms", "ms"),
    ("net.frames_per_write", "ratio"),
    ("net.frames_per_op", "frames"),
    ("net.bytes_per_op", "B"),
    ("net.peak_outbound_queue", "frames"),
    ("net.peak_inbound_queue", "frames"),
    ("net.frames_dropped", "count"),
    ("types.encodes_per_op", "count"),
    ("types.encode_ns_1k", "ns"),
    ("types.decode_ns_1k", "ns"),
    ("crypto.digest_ns_1k", "ns"),
    ("core.digest_cache_hit_ratio", "ratio"),
    ("core.broadcast_call_us_p50", "us"),
    ("core.broadcast_call_us_p99", "us"),
    ("core.deliveries_per_op", "count"),
    ("core.anti_entropy_pulls", "count"),
    ("core.anti_entropy_reproposals", "count"),
    ("core.evictions", "count"),
    ("core.redeliveries", "count"),
    ("core.diverged_members", "count"),
    ("smr.agree_ms_p50", "ms"),
    ("smr.agree_ms_p99", "ms"),
    ("smr.reconfigurations", "count"),
    ("overlay.spread_ms_p50", "ms"),
    ("overlay.spread_ms_p99", "ms"),
    ("overlay.hops_mean", "hops"),
    ("overlay.splits", "count"),
    ("overlay.merges", "count"),
    ("overlay.walks_per_join", "count"),
    ("simnet.events", "count"),
    ("simnet.events_per_s", "1/s"),
    ("simnet.messages_per_op", "count"),
    ("simnet.timers_fired", "count"),
    ("edge.gateway_us_p50", "us"),
    ("edge.gateway_us_p99", "us"),
    ("edge.backend_read_us_p50", "us"),
    ("edge.backend_read_us_p99", "us"),
    ("edge.backend_write_us_p50", "us"),
    ("edge.backend_write_us_p99", "us"),
    ("edge.shed", "count"),
    ("edge.dedup_hits", "count"),
    ("edge.unavailable", "count"),
    ("edge.deadline_exceeded", "count"),
    ("edge.breaker_opened", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.spans", "count"),
    ("gen.late_max_ms", "ms"),
    ("decomp.sum_p50_ms", "ms"),
    ("decomp.share_of_p50", "ratio"),
    ("decomp.within_tolerance", "bool"),
    ("fail_ratio", "ratio"),
];

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// A run whose open-loop generator fell behind its schedule by more than
/// this is invalid: its load was not the offered load.
const LATE_BOUND_MS: f64 = 250.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// Runs one workload. `traced` records spans; `per_layer` is set on both
/// passes of a `--trace 1` run.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    per_layer: bool,
) -> Result<Outcome, String> {
    Ok(match name {
        "bcast_tcp" => bcast::run(seed, seconds, traced),
        "edge_mixed" => edge::run(seed, seconds, traced),
        "sim_churn" => churn::run(seed, seconds, traced, per_layer),
        other => {
            return Err(format!(
                "unknown workload {other:?} (bcast_tcp, edge_mixed, sim_churn)"
            ))
        }
    })
}

/// A JSON number with every digit Rust prints for it (never NaN or inf).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match run_workload(&args.workload, args.seed, args.seconds, false, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let untraced_cpu = out.e2e["cpu_s"];
    if args.trace {
        let traced = run_workload(&args.workload, args.seed, args.seconds, true, true)
            .expect("workload known");
        // Simulated results depend only on the seed and length.
        if args.workload == "sim_churn" {
            let exact = |o: &Outcome| {
                o.record
                    .iter()
                    .map(|&(k, v)| format!("{k}={v}"))
                    .collect::<Vec<String>>()
            };
            if exact(&out) != exact(&traced) {
                out.violation(format!(
                    "simulated results differ between two runs of one scenario: {:?} vs {:?}",
                    exact(&out),
                    exact(&traced)
                ));
            }
        }
        let violations = std::mem::take(&mut out.violations);
        let first = out;
        out = traced;
        out.violations.splice(0..0, violations);
        out.attempted += first.attempted;
        out.failed += first.failed;
        out.late_max_ms = out.late_max_ms.max(first.late_max_ms);
        out.layers.insert(
            "obs.trace_overhead_ratio",
            measure::ratio(out.e2e["cpu_s"], untraced_cpu),
        );
    }
    out.e2e.insert("rss_mib", measure::rss_mib("VmHWM:"));
    out.layers.insert("gen.late_max_ms", out.late_max_ms);
    out.layers.insert(
        "fail_ratio",
        measure::ratio(out.failed as f64, out.attempted as f64),
    );
    if let Some(spans) = &out.spans {
        out.layers.insert("obs.spans", spans.len() as f64);
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }

    let valid = out.late_max_ms <= LATE_BOUND_MS;
    let mut record = atum_bench::BenchRecord::new(&args.workload, args.seed)
        .runtime(if args.workload == "sim_churn" {
            "simnet"
        } else {
            "tcp"
        })
        .param(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .param("reactors", out.reactors)
        .param("git_rev", measure::git_revision())
        .param("seconds", args.seconds)
        .param("trace", args.trace)
        .param("offered_rate", out.offered_rate)
        .param("payload_bytes", out.payload_bytes)
        .param("late_bound_ms", LATE_BOUND_MS)
        .metric("gen.late_max_ms", out.late_max_ms)
        .metric("rss_now_mib", measure::rss_mib("VmRSS:"))
        .metric("valid", valid);
    for &(name, value) in out.record.iter().chain(&out.host_record) {
        record = record.metric(name, value);
    }
    for (name, unit) in END_TO_END {
        record = record.metric(
            &format!("{name}[{unit}]"),
            out.e2e.get(name).copied().unwrap_or(0.0),
        );
    }
    println!("{}", record.to_json_line());
    for v in &out.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    if !valid {
        eprintln!(
            "perfbench: invalid run: the generator fell {:.1} ms behind its schedule (bound {LATE_BOUND_MS} ms)",
            out.late_max_ms
        );
        std::process::exit(3);
    }

    let metrics = if args.trace { PER_LAYER } else { END_TO_END };
    let source = if args.trace { &out.layers } else { &out.e2e };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let value = source.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty(),
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}
