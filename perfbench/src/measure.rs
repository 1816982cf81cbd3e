//! Timing, memory and reporting helpers shared by the three workloads.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Layer times only some workloads have, each with the share of the
/// traced wall clock it becomes in the result line.
const SHARES: [(&str, &str); 7] = [
    ("system.churn_share", "system.churn_s"),
    ("costcache.flush_share", "costcache.flush_s"),
    ("protocol.repair_share", "protocol.repair_s"),
    ("tracker.walk_share", "tracker.walk_s"),
    ("traffic.run_share", "traffic.run_s"),
    ("runtime.round_share", "runtime.round_total_s"),
    ("netsim.heal_audit_share", "netsim.heal_audit_s"),
];

/// What one workload process measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run), in print order.
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end metrics: printed, but not part of
    /// the machine-readable line because not every workload has them.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    pub checks: Checks,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extra.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The traced run's summary rows from per-repetition wall clocks and
    /// layer sums: the median of each, the tracing overhead (layer sum
    /// minus the untraced `run_s`) and the share of the wall clock the
    /// layer rows cover.
    pub fn trace_summary(&mut self, wall_s: &[f64], layer_sum_s: &[f64], untraced_run_s: f64) {
        let (wall, sum) = (median(wall_s), median(layer_sum_s));
        self.layer("trace.wall_s", wall, "s");
        self.layer("trace.layer_sum_s", sum, "s");
        self.layer("trace.overhead_s", sum - untraced_run_s, "s");
        self.layer("trace.layer_share", ratio(sum, wall), "ratio");
        self.layer("trace.repetitions", wall_s.len() as f64, "count");
        for (share, time) in SHARES {
            if let Some(t) = self.per_layer.iter().find(|m| m.name == time) {
                let value = ratio(t.value, wall);
                self.layer(share, value, "ratio");
            }
        }
    }
}

/// Output checks: every operation (a churn period, a traffic report
/// window, a runtime cell) is attempted once per repetition and fails
/// if any check on it fails.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one operation; `problems` lists the checks it failed.
    pub fn op(&mut self, what: impl FnOnce() -> String, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            let what = what();
            self.failures
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Runs `rep` at least once, then again while another repetition as
/// long as the last one still fits in `seconds`. Returns the count.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        rep();
        reps += 1;
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            return reps;
        }
    }
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_secs_f64())
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One `/proc/self/status` memory field (`VmHWM:`, `VmRSS:`) in MiB.
fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let kb: f64 = line
            .strip_prefix(field)?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    })
}

/// Peak resident set of this process: the kernel's `VmHWM` where procfs
/// has it, else the maximum of `VmRSS` sampled every 10 ms by a
/// background thread started with the process.
pub struct PeakRss {
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<f64>>,
}

impl PeakRss {
    pub fn start() -> Self {
        let sampler = proc_status_mb("VmHWM:").is_none().then(|| {
            let stop = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                let mut max: f64 = 0.0;
                while !flag.load(Ordering::Relaxed) {
                    max = max.max(proc_status_mb("VmRSS:").unwrap_or(0.0));
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                max.max(proc_status_mb("VmRSS:").unwrap_or(0.0))
            });
            (stop, handle)
        });
        match sampler {
            Some((stop, handle)) => PeakRss {
                stop,
                sampler: Some(handle),
            },
            None => PeakRss {
                stop: Arc::new(AtomicBool::new(true)),
                sampler: None,
            },
        }
    }

    /// Stops the sampler (if any) and returns the peak in MiB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        match self.sampler.take() {
            Some(handle) => handle.join().expect("RSS sampler thread panicked"),
            None => proc_status_mb("VmHWM:").expect("VmHWM was readable at start"),
        }
    }
}

/// Appends `"name": {"value": v, "unit": "u"}` entries to a JSON object.
pub fn json_metrics(metrics: &[Metric], prefix: &str) -> String {
    let mut out = String::new();
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{prefix}{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out
}

/// The result line: the last line a workload process prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

/// FNV-1a over raw `f64` bits, with the golden suite's offset basis and
/// prime, so a rendered digest line compares against the committed
/// snapshots.
pub struct BitDigest {
    hash: u64,
    count: usize,
}

impl BitDigest {
    pub fn new() -> Self {
        BitDigest {
            hash: 0xcbf29ce484222325,
            count: 0,
        }
    }

    pub fn push(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100000001b3);
        }
        self.count += 1;
    }

    pub fn line(&self) -> String {
        format!("f64-digest: {:016x} over {} values", self.hash, self.count)
    }
}

/// Lines of a committed golden snapshot under `crates/sim/tests/golden/`.
pub fn golden_lines(file: &str) -> Result<Vec<String>, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../crates/sim/tests/golden")
        .join(file);
    std::fs::read_to_string(&path)
        .map(|text| text.lines().map(str::to_owned).collect())
        .map_err(|e| format!("cannot read golden {}: {e}", path.display()))
}

/// The problem, if any, with rendered `line` as line `index` of a golden.
pub fn golden_mismatch(golden: &[String], index: usize, line: &str) -> Option<String> {
    match golden.get(index) {
        Some(g) if g == line => None,
        Some(g) => Some(format!(
            "golden line {index} differs: got `{line}`, want `{g}`"
        )),
        None => Some(format!("golden has no line {index}; got `{line}`")),
    }
}
