//! `traffic_10k`: the read-heavy workload. 10 000 peers serve ≈1.29M
//! query occurrences over 250 slices (drift, flash crowds, a diurnal
//! swing), with churn every 10 slices and repair every 25.

use recluster_sim::scenario::ideal_scenario1_system;
use recluster_sim::traffic::{traffic_demo_config, TrafficEngine, TrafficReport};

use crate::measure::{
    golden_lines, golden_mismatch, median, ratio, repeat_for, timed, Checks, Outcome,
};
use crate::probe::SetupProbe;
use crate::{GOLDEN_SEED, PAPER_IDEAL_SCOST, SCOST_TOLERANCE};

/// One `TrafficEngine::new` + `run`, timed call by call.
struct Served {
    report: TrafficReport,
    new_s: f64,
    run_s: f64,
}

fn serve(seed: u64) -> Served {
    let (cfg, traffic) = traffic_demo_config(seed);
    let (engine, new_s) = timed(|| TrafficEngine::new(&cfg, traffic));
    let (report, run_s) = timed(|| engine.run());
    Served {
        report,
        new_s,
        run_s,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut served: Vec<Served> = Vec::new();
    // The traced pass calls the same two public entry points (the
    // engine's serving, cache and repair layers are private), so its
    // report must match the untraced one bit for bit.
    let mut traced: Vec<Served> = Vec::new();
    let mut traced_wall_s = Vec::new();
    let mut probe = SetupProbe::default();
    repeat_for(seconds, || {
        served.push(serve(seed));
        if trace {
            let (one, wall_s) = timed(|| serve(seed));
            traced.push(one);
            traced_wall_s.push(wall_s);
            let (cfg, _) = traffic_demo_config(seed);
            probe.measure(&cfg, &ideal_scenario1_system(&cfg));
        }
    });

    let mut out = Outcome::default();
    check(&mut out.checks, seed, &served, &traced);

    let report = &served[0].report;
    let new_s: Vec<f64> = served.iter().map(|s| s.new_s).collect();
    let run_s: Vec<f64> = served.iter().map(|s| s.new_s + s.run_s).collect();
    let qps: Vec<f64> = served
        .iter()
        .map(|s| s.report.queries_per_sec(s.run_s))
        .collect();
    out.e2e("setup_s", median(&new_s), "s");
    out.e2e("run_s", median(&run_s), "s");
    out.e2e("scost", report.final_scost, "cost");
    out.extra("queries_per_s", median(&qps), "1/s");
    out.extra("forwards_per_query", report.forwards_per_query(), "msgs");
    out.extra("false_negative_rate", report.false_negative_rate(), "rate");
    out.note(format!(
        "traffic_10k seed={seed}: {} repetitions, {} queries, run_s samples {run_s:?}",
        served.len(),
        report.queries
    ));

    if trace {
        let build: Vec<f64> = traced.iter().map(|s| s.new_s).collect();
        let serve_s: Vec<f64> = traced.iter().map(|s| s.run_s).collect();
        let sums: Vec<f64> = traced.iter().map(|s| s.new_s + s.run_s).collect();
        out.layer("scenario.build_s", median(&build), "s");
        probe.report(&mut out);
        out.layer("traffic.run_s", median(&serve_s), "s");
        out.layer(
            "traffic.evaluations",
            report.distinct_evaluations as f64,
            "count",
        );
        out.layer(
            "traffic.evaluations_per_kquery",
            ratio(
                1000.0 * report.distinct_evaluations as f64,
                report.queries as f64,
            ),
            "count",
        );
        out.layer("traffic.repairs", report.repairs as f64, "count");
        out.layer("traffic.moves", report.moves as f64, "count");
        out.layer(
            "traffic.summary_updates_batched",
            report.summary_updates_batched as f64,
            "count",
        );
        out.layer(
            "traffic.p99_forwards",
            report.histogram.p99() as f64,
            "msgs",
        );
        out.trace_summary(&traced_wall_s, &sums, median(&run_s));
    }
    out
}

/// Checks every report window of every run: scost after repair near the
/// paper ideal, the report bit-identical to the first run's, and — at
/// the golden seed — each window row plus the summary block equal to
/// the committed `traffic_1m` snapshot.
fn check(checks: &mut Checks, seed: u64, served: &[Served], traced: &[Served]) {
    let reference = &served[0].report;
    let rendered: Vec<String> = reference
        .render("traffic_1m", seed)
        .lines()
        .map(str::to_owned)
        .collect();
    // Rendered layout: header, one line per window, then the summary
    // block ending in the digest.
    let n_windows = reference.windows.len();
    let golden = (seed == GOLDEN_SEED).then(|| {
        golden_lines("traffic_1m.txt").map(|golden| {
            let mut shared: Vec<String> = std::iter::once(0)
                .chain(n_windows + 1..rendered.len())
                .filter_map(|i| golden_mismatch(&golden, i, &rendered[i]))
                .collect();
            if golden.len() != rendered.len() {
                shared.push(format!(
                    "golden has {} lines, rendered {}",
                    golden.len(),
                    rendered.len()
                ));
            }
            (golden, shared)
        })
    });
    let runs = served
        .iter()
        .enumerate()
        .map(|(i, s)| ("TrafficEngine", i, &s.report))
        .chain(
            traced
                .iter()
                .enumerate()
                .map(|(i, s)| ("traced", i, &s.report)),
        );
    for (source, rep, report) in runs {
        let same = report == reference && report.digest() == reference.digest();
        for (w, window) in report.windows.iter().enumerate() {
            let mut problems = Vec::new();
            let gap = window.scost / PAPER_IDEAL_SCOST - 1.0;
            if gap.abs() > SCOST_TOLERANCE {
                problems.push(format!(
                    "scost {} is {:+.2}% off the paper ideal",
                    window.scost,
                    gap * 100.0
                ));
            }
            if !same {
                problems.push(format!(
                    "report digest {:016x} differs from the first run's {:016x}",
                    report.digest(),
                    reference.digest()
                ));
            }
            match &golden {
                Some(Ok((golden, shared))) => {
                    problems.extend(golden_mismatch(golden, w + 1, &rendered[w + 1]));
                    problems.extend(shared.iter().cloned());
                }
                Some(Err(e)) => problems.push(e.clone()),
                None => {}
            }
            checks.op(
                || format!("{source} #{rep} window@{}", window.slice),
                problems,
            );
        }
        if report.windows.len() != n_windows {
            checks.op(
                || format!("{source} #{rep}"),
                vec![format!(
                    "{} windows, want {n_windows}",
                    report.windows.len()
                )],
            );
        }
    }
}
