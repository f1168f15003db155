//! Measurement plumbing shared by the workloads: percentiles, process CPU
//! and memory, the run stamp, spans, and the per-run outcome.

use std::collections::BTreeMap;
use std::time::Instant;

/// Percentile `p` (0–100) of `values` by nearest rank; 0 for no samples.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values`; 0 for no samples.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Microseconds from `from` to `to` (0 when `to` is earlier).
pub fn micros(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// Milliseconds from `from` to `to` (0 when `to` is earlier).
pub fn millis(from: Instant, to: Instant) -> f64 {
    micros(from, to) / 1e3
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // Linux reports these in USER_HZ, which is 100 on every supported ABI.
    (ticks(11) + ticks(12)) / 100.0
}

/// A memory figure of this process from `/proc/self/status` in MiB:
/// `VmHWM:` is the peak resident set, `VmRSS:` the current one.
pub fn rss_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The source revision the benchmark was built from: `$GIT_REV` when set,
/// else read from `.git` in the working directory without leaving it,
/// else `"unknown"` (benchmark checkouts are not git repositories).
pub fn git_revision() -> String {
    if let Ok(rev) = std::env::var("GIT_REV") {
        return rev;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev
    }
}

/// One timed interval recorded by the benchmark around a call into a
/// layer. Spans of one broadcast or request share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers (`net.call_wait`, `smr.agree`, ...).
    pub name: &'static str,
    /// The broadcast or request the span belongs to.
    pub op: u64,
    /// Index of the causing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// End, microseconds since the recorder's epoch.
    pub end_us: u64,
}

/// In-memory span store, written out once the run ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index (for use as a parent).
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push_us(
            name,
            op,
            parent,
            micros(self.epoch, start) as u64,
            micros(self.epoch, end) as u64,
        )
    }

    /// Records a span given in microseconds since the epoch (simulated
    /// runs use simulated time).
    pub fn push_us(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_us: u64,
        end_us: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_us,
            end_us: end_us.max(start_us),
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
            .collect()
    }

    /// Writes the spans as JSONL (one object per span, `id` = index).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                s.name, s.op, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the unit is per workload; see `NOTES.md`).
    pub attempted: u64,
    /// Operations that failed (a timing shortfall, never a wrong output).
    pub failed: u64,
    /// Wrong outputs. Any entry fails the correctness check.
    pub violations: Vec<String>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (filled by traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// The run record's workload-specific fields, under the names the
    /// workload's own vocabulary uses (`bcast_p50_ms`, `rejoin_p90_s`, ...).
    pub record: Vec<(&'static str, f64)>,
    /// Further run record fields measured on the host rather than
    /// simulated, so they differ between two runs of one `sim_churn`
    /// scenario.
    pub host_record: Vec<(&'static str, f64)>,
    /// Offered rate (operations per second) and payload size, for the stamp.
    pub offered_rate: f64,
    pub payload_bytes: usize,
    /// Reactor threads the TCP runtime actually ran (0 for the simulator).
    pub reactors: u64,
    /// How late the open-loop generator ran at worst, in ms.
    pub late_max_ms: f64,
    /// Spans recorded by a traced run.
    pub spans: Option<Spans>,
}

impl Outcome {
    pub fn violation(&mut self, what: String) {
        // Keep the report readable when one defect repeats many times.
        if self.violations.len() < 20 {
            self.violations.push(what);
        } else if self.violations.len() == 20 {
            self.violations
                .push("... further violations omitted".to_string());
        }
    }
}

/// Median over repeated set-ups: each `build` call builds the system until
/// it is ready and returns the seconds that took plus the built system.
/// The last system is kept for the measured phase; earlier ones are torn
/// down before the next is built.
pub fn median_setup<T>(
    rounds: usize,
    mut build: impl FnMut(usize) -> (f64, T),
    mut teardown: impl FnMut(T),
) -> (f64, T) {
    let mut times = Vec::with_capacity(rounds);
    for round in 0..rounds.saturating_sub(1) {
        let (secs, system) = build(round);
        times.push(secs);
        teardown(system);
    }
    let (secs, system) = build(rounds.saturating_sub(1));
    times.push(secs);
    (median(&mut times), system)
}

/// Wall seconds of one run of a fixed task that leans on what the
/// simulator leans on (a priority queue, an ordered map, small
/// allocations, a random-number stream) but runs none of the program's
/// code, so its time tracks only how fast the host runs such work.
pub fn reference_task_s() -> f64 {
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let start = Instant::now();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5eed);
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut state: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut check = 0u64;
    for i in 0..60_000u64 {
        let key: u32 = rng.gen_range(0..50_000);
        queue.push(Reverse((i + rng.gen_range(0..1000u64), key)));
        let slot = state.entry(key).or_default();
        slot.push(i);
        if slot.len() > 8 {
            slot.drain(..4);
        }
        if queue.len() > 20_000 {
            if let Some(Reverse((at, k))) = queue.pop() {
                check = check.wrapping_add(at ^ u64::from(k));
                state.remove(&k);
            }
        }
    }
    std::hint::black_box(check);
    start.elapsed().as_secs_f64()
}
