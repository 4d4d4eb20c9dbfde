//! The dnsttl benchmark: cost per simulated query, end to end and per
//! layer, on three workloads. See README.md for the workloads, the
//! metrics and what each layer metric should move.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed output
//! check makes the run exit with code 1.

mod paper;
mod storm;
mod world;
mod zipf;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["zipf_campaign", "expiry_storm", "bailiwick_paper"];

/// The metrics of an untraced run, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("queries_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The metrics of a traced run, with their units. A workload that does
/// not exercise a layer reports it as 0 and says so.
const PER_LAYER: [(&str, &str); 27] = [
    ("atlas.cell_build_ms", "ms"),
    ("atlas.cell_run_ms", "ms"),
    ("atlas.cell_imbalance", "ratio"),
    ("atlas.worker_idle_share", "share"),
    ("atlas.merge_ms", "ms"),
    ("atlas.dataset_bytes", "bytes"),
    ("atlas.measurement_s", "s"),
    ("resolver.cold_miss_us", "us"),
    ("resolver.self_us", "us"),
    ("resolver.upstream_per_query", "exch/query"),
    ("cache.refetch_penalty_us", "us"),
    ("cache.hit_rate", "share"),
    ("cache.inserts", "count"),
    ("cache.expiries", "count"),
    ("cache.evictions", "count"),
    ("auth.answer_us", "us"),
    ("auth.nxdomain_us", "us"),
    ("auth.queries", "count"),
    ("wire.codec_us", "us"),
    ("wire.bytes_per_exchange", "bytes"),
    ("netsim.exchanges", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.export_ms", "ms"),
    ("telemetry.events", "count"),
    ("telemetry.trace_bytes", "bytes"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
];

/// The ROADMAP's closure gate: on the workloads it applies to, the
/// layers must explain at least 90 % of the traced wall time.
pub const MAX_UNATTRIBUTED: f64 = 0.10;

/// Parsed command line.
pub struct Args {
    pub seed: u64,
    /// Measurement window of one run.
    pub seconds: Duration,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    /// Simulated client queries whose outcome was checked.
    pub attempted: u64,
    /// Of those, queries the checks rejected.
    pub failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records an output check; a false one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            println!("CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    /// Reports `trace.unattributed_share` and fails the run when it is
    /// above [`MAX_UNATTRIBUTED`].
    pub fn closure(&mut self, unattributed: f64) {
        self.metric("trace.unattributed_share", unattributed);
        self.check(unattributed <= MAX_UNATTRIBUTED, || {
            format!("the layers leave {unattributed:.3} of the traced time unattributed")
        });
    }

    /// Prints a digest of seeded output by name, so that a change in
    /// seeded output between two commits is visible in the log.
    pub fn digest(&self, name: &str, value: u64) {
        println!("digest {name} = {value:016x}");
    }

    /// Prints a fact that is not a metric of the JSON result.
    pub fn note(&self, name: &str, value: impl std::fmt::Display) {
        println!("note {name} = {value}");
    }

    /// Prints every metric of `spec` by name and unit and returns the
    /// JSON result line. A metric the workload left unset is a bug in
    /// the benchmark, except a per-layer one the workload does not
    /// exercise, which reads 0.
    fn finish(&mut self, spec: &[(&'static str, &'static str)], traced: bool) -> String {
        for (name, _) in self.metrics.clone() {
            let known = spec.iter().any(|(n, _)| *n == name);
            self.check(known, || format!("{name} is not a metric of this run"));
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in spec.iter().enumerate() {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some((_, v)) => *v,
                None => {
                    self.check(traced, || format!("{name} was not measured"));
                    self.note(name, "0 (layer not exercised by this workload)");
                    0.0
                }
            };
            self.check(value.is_finite(), || {
                format!("{name} is not a finite number")
            });
            let value = if value.is_finite() { value } else { 0.0 };
            println!("metric {name} = {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

/// FNV-1a, the fingerprint the program's own digests use.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Runs `f` and returns its result with the host time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile `p` (0–100) of a sorted, non-empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The latency metrics of the campaign workloads, which hand whole runs
/// to the program and so cannot time single queries: the host time per
/// query of each repetition, p50 as their median and p99 as the slowest.
pub fn repetition_latency(out: &mut Outcome, per_query_s: &[f64]) {
    out.note("repetitions", per_query_s.len());
    out.metric("query_p50_us", median(per_query_s) * 1e6);
    out.metric(
        "query_p99_us",
        per_query_s.iter().copied().fold(0.0, f64::max) * 1e6,
    );
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set of this process, in MiB. Each workload runs in a
/// process of its own, so no other workload's peak is included.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => usage(&format!("bad argument {flag} {value}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are all required")
    };
    let args = Args {
        seed,
        seconds: Duration::from_secs_f64(seconds),
    };
    println!("workload {workload} seed {seed} seconds {seconds} trace {trace}");
    let mut out = Outcome::default();
    match (workload.as_str(), trace) {
        ("zipf_campaign", false) => zipf::end_to_end(&args, &mut out),
        ("zipf_campaign", true) => zipf::traced(&args, &mut out),
        ("expiry_storm", false) => storm::end_to_end(&args, &mut out),
        ("expiry_storm", true) => storm::traced(&args, &mut out),
        ("bailiwick_paper", false) => paper::end_to_end(&args, &mut out),
        ("bailiwick_paper", true) => paper::traced(&args, &mut out),
        _ => unreachable!("workload validated above"),
    }
    let spec: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let json = out.finish(spec, trace);
    println!("{json}");
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}
