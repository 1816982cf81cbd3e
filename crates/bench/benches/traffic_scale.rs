//! The query-serving traffic scenario at scale: ≈1.29 M routed query
//! occurrences streamed through 10 000 peers under live churn, batched
//! summary publication and periodic selfish repair — the `traffic_demo`
//! configuration, run once end to end for the bench-trend gate.
//!
//! Metric split, same policy as `churn_scale`:
//!
//! * deterministic metrics (fan-out tail p50/p99/max, forwards per
//!   query, false-negative rate, total queries/moves, batched summary
//!   messages) are seeded and machine-independent — drift is a real
//!   regression of routing precision, batching correctness or protocol
//!   quality, gated exactly;
//! * `seconds_per_mquery` is the committed throughput gate: the
//!   wall-clock cost of serving one million occurrences, a *seconds*
//!   unit so `bench-trend compare` applies the lenient 4× time factor.
//!   It is the inverse of queries/s, committed instead of it because
//!   every gate direction is "bigger is worse" — a faster machine can
//!   only pass it;
//! * raw `run_seconds` and `queries_per_sec` land in the `BENCH_pr.json`
//!   artifact for trend-watching but stay out of the committed baseline
//!   (`queries_per_sec` is higher-is-better, so gating its growth would
//!   fail exactly the runs that got *faster*).
//!
//! The run executes once (no `b.iter` loop): at this scale a single
//! pass is the measurement, and all count metrics are exact.

use recluster_sim::traffic::{run_traffic, traffic_demo_config};

fn main() {
    let seed = 2008;
    let (cfg, traffic) = traffic_demo_config(seed);
    let start = std::time::Instant::now();
    let report = run_traffic(&cfg, &traffic);
    let elapsed = start.elapsed().as_secs_f64();

    let mqueries = report.queries as f64 / 1e6;
    let secs_per_mq = if mqueries > 0.0 {
        elapsed / mqueries
    } else {
        0.0
    };
    println!(
        "traffic_1m: {} peers, {} queries in {elapsed:.2}s ({:.0} q/s), \
         fanout p50={} p99={} max={}, fwd/q {:.3}, fn {:.6}, \
         {} moves, summary msgs batched {} vs per-event {}",
        report.peers,
        report.queries,
        report.queries_per_sec(elapsed),
        report.histogram.p50(),
        report.histogram.p99(),
        report.histogram.max(),
        report.forwards_per_query(),
        report.false_negative_rate(),
        report.moves,
        report.summary_updates_batched,
        report.summary_updates_per_event,
    );

    let rec = |metric: &str, unit: &str, value: f64| {
        criterion::record_value(&format!("traffic/traffic_1m/{metric}"), unit, value);
    };
    rec("total_queries", "queries", report.queries as f64);
    rec("p50_forwards", "msgs", report.histogram.p50() as f64);
    rec("p99_forwards", "msgs", report.histogram.p99() as f64);
    rec("max_forwards", "msgs", report.histogram.max() as f64);
    rec("forwards_per_query", "msgs", report.forwards_per_query());
    rec("false_negative_rate", "rate", report.false_negative_rate());
    rec("total_moves", "moves", report.moves as f64);
    rec(
        "summary_updates_batched",
        "msgs",
        report.summary_updates_batched as f64,
    );
    rec("seconds_per_mquery", "seconds", secs_per_mq);
    rec("queries_per_sec", "qps", report.queries_per_sec(elapsed));
    rec("run_seconds", "seconds", elapsed);
}
