//! The recluster benchmark: three workloads through `recluster-sim`'s
//! public entry points, each in its own process, timed end to end
//! (`--trace 0`) or per layer (`--trace 1`), with every output checked.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload churn_100k|traffic_10k|runtime_200p] [--seed 2008] \
//!     [--seconds 35] [--trace 0|1]
//! ```
//!
//! Without `--workload` every workload runs, one child process each.
//! The last line a workload prints is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod churn;
mod measure;
mod probe;
mod runtime;
mod traffic;

use std::process::{Command, ExitCode};

use measure::{json_metrics, result_line, Metric, Outcome, PeakRss};

const WORKLOADS: [&str; 3] = ["churn_100k", "traffic_10k", "runtime_200p"];

/// The seed the committed goldens were rendered at.
pub const GOLDEN_SEED: u64 = 2008;
/// The paper-ideal normalized social cost of the scenario-1 clustering.
pub const PAPER_IDEAL_SCOST: f64 = 0.101;
/// Relative distance from the ideal a repaired cost may sit at.
pub const SCOST_TOLERANCE: f64 = 0.02;

/// End-to-end metrics every workload reports, in output order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("scost", "cost"),
];

/// Per-layer metrics of the traced run's JSON line. Every time in it is
/// one that all three workloads measure. A layer only some workloads
/// enter is carried as its share of the traced wall clock, 0 where the
/// workload never enters it, so no time reads a constant 0 s. The
/// `layer` lines print each entered layer's seconds as well.
const PER_LAYER: [(&str, &str); 35] = [
    ("scenario.build_s", "s"),
    ("corpus.generate_s", "s"),
    ("system.new_s", "s"),
    ("system.churn_share", "ratio"),
    ("costcache.flush_share", "ratio"),
    ("protocol.repair_share", "ratio"),
    ("tracker.walk_share", "ratio"),
    ("traffic.run_share", "ratio"),
    ("runtime.round_share", "ratio"),
    ("netsim.heal_audit_share", "ratio"),
    ("system.churn_events", "count"),
    ("protocol.rounds", "count"),
    ("protocol.proposals_recomputed", "count"),
    ("protocol.proposals_memoized", "count"),
    ("protocol.memo_hit_ratio", "ratio"),
    ("protocol.requests", "count"),
    ("protocol.granted", "count"),
    ("tracker.query_messages", "count"),
    ("traffic.evaluations", "count"),
    ("traffic.evaluations_per_kquery", "count"),
    ("traffic.repairs", "count"),
    ("traffic.moves", "count"),
    ("traffic.summary_updates_batched", "count"),
    ("traffic.p99_forwards", "msgs"),
    ("runtime.rounds", "count"),
    ("runtime.frames_sent", "count"),
    ("runtime.frames_dropped", "count"),
    ("runtime.frames_stale", "count"),
    ("runtime.granted", "count"),
    ("runtime.denied", "count"),
    ("trace.wall_s", "s"),
    ("trace.layer_sum_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.layer_share", "ratio"),
    ("trace.repetitions", "count"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: GOLDEN_SEED,
        seconds: 35,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => args.seed = number()?,
            "--seconds" if number()? > 0 => args.seconds = number()?,
            "--trace" if value == "0" || value == "1" => args.trace = value == "1",
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    Ok(args)
}

/// Environment variables that would silently change the program under
/// measurement (`RECLUSTER_MEMO=0`, `RECLUSTER_SHARD_MIN=1`, a narrower
/// or wider rayon pool, …).
fn tuning_env() -> Vec<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("RECLUSTER_") || k == "RAYON_NUM_THREADS")
        .collect()
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(name) => read(name).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .map(|l| l.split(' ').next().unwrap_or_default().to_owned())
        }),
        None => Some(head.to_owned()),
    };
    resolved
        .map(|c| c.trim().to_owned())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tuned = tuning_env();
    if !tuned.is_empty() {
        eprintln!("perfbench: refusing to run with {tuned:?} set: they change the program under measurement");
        return ExitCode::from(2);
    }
    match &args.workload {
        Some(workload) => run_workload(workload, &args),
        None => run_all(&args),
    }
}

/// Runs every workload in a child process of its own, so each reports
/// its own peak RSS, and passes their output through.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for workload in WORKLOADS {
        println!("== {workload}");
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawning the benchmark itself");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        ok &= output.status.success() && stdout.contains("\"correct\": true");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(workload: &str, args: &Args) -> ExitCode {
    let rss = PeakRss::start();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads(nproc)
        .build_global()
        .expect("the shim's global pool install never fails");
    println!(
        "env: workload={workload} seed={} seconds={} trace={} nproc={nproc} pool={} rustc=\"{}\" commit={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads(),
        env!("PERFBENCH_RUSTC"),
        commit()
    );
    let seconds = args.seconds as f64;
    let mut out: Outcome = match workload {
        "churn_100k" => churn::run(args.seed, seconds, args.trace),
        "traffic_10k" => traffic::run(args.seed, seconds, args.trace),
        "runtime_200p" => runtime::run(args.seed, seconds, args.trace),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    out.e2e("peak_rss_mb", rss.finish(), "MiB");
    report(&out, args.trace)
}

/// The metrics `names` lists, in that order, taken from `have` (0 for a
/// layer the workload never enters).
fn select(names: &[(&'static str, &'static str)], have: &[Metric]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            let value = have.iter().find(|m| m.name == name).map_or(0.0, |m| {
                assert_eq!(m.unit, unit, "unit of {name}");
                m.value
            });
            Metric { name, value, unit }
        })
        .collect()
}

fn report(out: &Outcome, trace: bool) -> ExitCode {
    for note in &out.notes {
        println!("{note}");
    }
    let end_to_end = select(&END_TO_END, &out.end_to_end);
    for m in end_to_end.iter().chain(&out.extra) {
        println!("e2e {:<20} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let checks = &out.checks;
    println!(
        "e2e {:<20} {:>16.6} rate ({} of {} operations failed)",
        "failed_share",
        checks.failed_share(),
        checks.failed,
        checks.attempted
    );
    for failure in checks.failures.iter().take(20) {
        println!("FAILED {failure}");
    }
    let metrics = if trace {
        for m in &out.per_layer {
            println!("layer {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        select(&PER_LAYER, &out.per_layer)
    } else {
        end_to_end
    };
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{}",
        result_line(
            correct,
            checks.attempted,
            checks.failed,
            &json_metrics(&metrics, "")
        )
    );
    ExitCode::SUCCESS
}
