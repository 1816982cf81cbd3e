//! Determinism suite for the parallel sweep runner **and** the parallel
//! protocol round: a multi-threaded sweep must produce a report
//! byte-identical to the sequential runner's — same cells, same order,
//! same rendered bytes — and a protocol round whose phase 1 is sharded
//! across workers (or served from the proposal memo) must produce
//! byte-identical requests, grants, costs and traffic, no matter how
//! the OS schedules the workers.

use std::fmt::Write as _;

use recluster_core::shard::set_shard_min_override;
use recluster_core::{
    CrashWindow, DecisionSource, FaultSchedule, NetConfig, Partition, PartitionKind,
    ProtocolConfig, ProtocolEngine, RuntimeChurn, RuntimeEngine, SelfishStrategy,
};
use recluster_overlay::SimNetwork;
use recluster_sim::netsim::{
    render_liar_audit, render_midround_churn, render_net_sweep, render_observed_audit,
    render_partition_heal, run_liar_audit, run_midround_churn, run_net_sweep,
    run_observed_liar_audit, run_partition_heal,
};
use recluster_sim::report::{f3, render_table, to_csv};
use recluster_sim::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};
use recluster_sim::table1::{run_table1_with, Table1Config};
use recluster_sim::{
    run_churn_with_fidelity, run_protocol, sweep_map, ChurnConfig, Parallelism, StrategyKind,
};
use recluster_types::PeerId;

/// The CI matrix width (`RECLUSTER_THREADS`), or 3 when unset.
fn matrix_width() -> usize {
    std::env::var("RECLUSTER_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

/// Runs `f` with the shard threshold overridden to `min` on this thread
/// (`1` forces every bulk walk and phase 1 through the sharded path,
/// `usize::MAX` keeps them sequential), then restores the environment
/// knob.
fn with_shard_min<R>(min: usize, f: impl FnOnce() -> R) -> R {
    set_shard_min_override(Some(min));
    let out = f();
    set_shard_min_override(None);
    out
}

/// One sweep cell: strategy × seed, each building its own testbed.
fn cells() -> Vec<(StrategyKind, u64)> {
    let strategies = [
        StrategyKind::Selfish,
        StrategyKind::Altruistic,
        StrategyKind::Hybrid(0.5),
        StrategyKind::Random(0.2, 7),
    ];
    let seeds = [11u64, 22, 33];
    let mut cells = Vec::new();
    for &s in &strategies {
        for &seed in &seeds {
            cells.push((s, seed));
        }
    }
    cells
}

/// Runs one cell to a rendered report row.
fn run_cell(&(kind, seed): &(StrategyKind, u64)) -> Vec<String> {
    let mut tb = build_system(
        Scenario::SameCategory,
        InitialConfig::RandomM,
        &ExperimentConfig::small(seed),
    );
    let mut net = SimNetwork::new();
    let cfg = ProtocolConfig::builder().max_rounds(25).build();
    let outcome = run_protocol(&mut tb.system, kind, cfg, &mut net);
    vec![
        kind.label(),
        seed.to_string(),
        outcome.rounds.len().to_string(),
        f3(outcome.final_scost()),
        f3(outcome.final_wcost()),
        outcome.final_clusters().to_string(),
        net.total_messages().to_string(),
    ]
}

fn render(rows: &[Vec<String>]) -> (String, String) {
    let headers = [
        "strategy", "seed", "rounds", "scost", "wcost", "clusters", "messages",
    ];
    (to_csv(&headers, rows), render_table(&headers, rows))
}

#[test]
fn parallel_sweep_report_is_byte_identical_to_sequential() {
    let cells = cells();
    assert!(cells.len() >= 9, "≥3 strategies × ≥3 seeds");

    let sequential = sweep_map(Parallelism::Sequential, &cells, run_cell);
    let (seq_csv, seq_table) = render(&sequential);

    // Run the parallel sweep several times: scheduling noise across
    // repetitions must never reach the report bytes.
    for run in 0..3 {
        let parallel = sweep_map(Parallelism::Auto, &cells, run_cell);
        let (par_csv, par_table) = render(&parallel);
        assert_eq!(seq_csv.as_bytes(), par_csv.as_bytes(), "csv, run {run}");
        assert_eq!(
            seq_table.as_bytes(),
            par_table.as_bytes(),
            "table, run {run}"
        );
    }

    // A pinned two-worker pool agrees too.
    let two = sweep_map(Parallelism::Threads(2), &cells, run_cell);
    let (two_csv, _) = render(&two);
    assert_eq!(seq_csv.as_bytes(), two_csv.as_bytes());
}

/// CI runs this suite under a thread matrix (`RECLUSTER_THREADS=1,2,8`,
/// mirrored into `RAYON_NUM_THREADS` so the shim's auto mode follows):
/// a pool pinned to the matrix width must agree with the sequential
/// runner byte for byte, so merge-order bugs in the rayon shim cannot
/// hide behind a single-thread runner.
#[test]
fn matrix_pinned_pool_equals_sequential() {
    let width = matrix_width();
    let cells = cells();
    let sequential = sweep_map(Parallelism::Sequential, &cells, run_cell);
    let pinned = sweep_map(Parallelism::Threads(width), &cells, run_cell);
    let (seq_csv, _) = render(&sequential);
    let (pin_csv, _) = render(&pinned);
    assert_eq!(
        seq_csv.as_bytes(),
        pin_csv.as_bytes(),
        "{width}-thread pool diverged from sequential"
    );
}

/// Runs a full protocol convergence (singletons → equilibrium) and
/// renders every round to full bit precision: requests and grants with
/// gain bits, post-round costs, phase-1 memo counters excluded (they
/// are compared separately — memoization must change *counters*, never
/// protocol bytes).
fn round_trace(memoize: bool) -> String {
    let mut tb = build_system(
        Scenario::SameCategory,
        InitialConfig::Singletons,
        &ExperimentConfig::small(23),
    );
    let mut net = SimNetwork::new();
    let cfg = ProtocolConfig::builder()
        .max_rounds(40)
        .memoize(memoize)
        .build();
    let mut engine = ProtocolEngine::new(SelfishStrategy, cfg);
    let outcome = engine.run(&mut tb.system, &mut net);
    let mut out = String::new();
    for r in &outcome.rounds {
        let _ = write!(out, "round {}:", r.round);
        for q in &r.requests {
            let _ = write!(
                out,
                " req({},{},{},{:016x})",
                q.src,
                q.dst,
                q.peer,
                q.gain.to_bits()
            );
        }
        for g in &r.granted {
            let _ = write!(out, " grant({},{})", g.peer, g.dst);
        }
        let _ = writeln!(
            out,
            " scost={:016x} wcost={:016x} clusters={}",
            r.scost.to_bits(),
            r.wcost.to_bits(),
            r.non_empty_clusters
        );
    }
    let _ = writeln!(out, "msgs={}", net.total_messages());
    out
}

/// Phase-1 sharding honours the CI thread matrix: a forced-parallel run
/// under pinned 1/2/8-worker pools (and the matrix width) is
/// byte-identical to the forced-sequential run.
#[test]
fn protocol_round_parallel_equals_sequential() {
    let sequential = with_shard_min(usize::MAX, || round_trace(true));
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool build never fails");
        let parallel = pool.install(|| with_shard_min(1, || round_trace(true)));
        assert_eq!(
            sequential.as_bytes(),
            parallel.as_bytes(),
            "{threads}-thread phase 1 diverged from sequential"
        );
    }
    let width = matrix_width();
    let pinned = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("shim pool build never fails")
        .install(|| with_shard_min(1, || round_trace(true)));
    assert_eq!(sequential.as_bytes(), pinned.as_bytes());
}

/// The traffic engine rendered to bytes, with the shard threshold
/// forced to 1 so its repair rounds actually shard phase 1 across
/// whatever pool is installed.
fn traffic_trace() -> String {
    let (cfg, traffic) = recluster_sim::traffic::traffic_small_config(37);
    with_shard_min(1, || {
        recluster_sim::traffic::run_traffic(&cfg, &traffic).render("traffic_det", 37)
    })
}

/// The streamed traffic engine — sampling, routing, churn, batched
/// summary flushes *and* its embedded repair rounds — is byte-identical
/// under pinned 1/2/8-worker pools and the CI matrix width. Same shape
/// as [`protocol_round_parallel_equals_sequential`]: the only parallel
/// section anywhere on the engine's path is protocol phase 1.
#[test]
fn traffic_engine_parallel_equals_sequential() {
    let baseline = traffic_trace();
    for threads in [1usize, 2, 8] {
        let parallel = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool build never fails")
            .install(traffic_trace);
        assert_eq!(
            baseline.as_bytes(),
            parallel.as_bytes(),
            "{threads}-thread traffic run diverged"
        );
    }
    let width = matrix_width();
    let pinned = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("shim pool build never fails")
        .install(traffic_trace);
    assert_eq!(baseline.as_bytes(), pinned.as_bytes());
}

/// Proposal memoization changes how many proposals are recomputed —
/// never what the protocol does: traces with the memo on and off are
/// byte-identical, and the memo-on run actually serves hits (the
/// terminal converged round re-emits every clean peer's proposal).
#[test]
fn proposal_memo_preserves_protocol_bytes() {
    assert_eq!(round_trace(true).as_bytes(), round_trace(false).as_bytes());

    // Count the hits directly: a converged system re-runs one round.
    let mut tb = build_system(
        Scenario::SameCategory,
        InitialConfig::Singletons,
        &ExperimentConfig::small(23),
    );
    let mut net = SimNetwork::new();
    let mut engine = ProtocolEngine::new(SelfishStrategy, ProtocolConfig::default());
    let first = engine.run(&mut tb.system, &mut net);
    assert!(first.converged);
    let rerun = engine.run(&mut tb.system, &mut net);
    assert!(rerun.converged);
    assert_eq!(
        rerun.total_recomputed(),
        0,
        "a quiet re-run must be served entirely from the memo"
    );
    assert!(rerun.total_memoized() > 0);
}

/// Observed-mode churn rendered to full bit precision: every period row
/// plus the fidelity report (agreement rate and both repair costs), so
/// any float drift on the observation pass, the EMA fold, the cloned
/// oracle reference run or the observed repair itself reaches the trace.
fn observed_churn_trace() -> String {
    let cfg = ExperimentConfig::small(29);
    let churn = ChurnConfig {
        periods: 4,
        leaves_per_period: 1,
        joins_per_period: 1,
        decisions: DecisionSource::Observed { decay: 0.25 },
        ..ChurnConfig::default()
    };
    let (rows, fidelity) = run_churn_with_fidelity(&cfg, &churn);
    let mut out = String::new();
    for r in &rows {
        let _ = writeln!(
            out,
            "period {}: churn={:016x} repair={:016x} peers={} moves={} msgs={} fpq={:016x} fnr={:016x}",
            r.period,
            r.scost_after_churn.to_bits(),
            r.scost_after_repair.to_bits(),
            r.peers,
            r.moves,
            r.query_messages,
            r.forwards_per_query.to_bits(),
            r.false_negative_rate.to_bits()
        );
    }
    let report = fidelity.expect("observed mode always reports fidelity");
    for f in &report.periods {
        let _ = writeln!(
            out,
            "fidelity {}: agree={:016x} obs={:016x} oracle={:016x}",
            f.period,
            f.agreement_rate.to_bits(),
            f.scost_observed_repair.to_bits(),
            f.scost_oracle_repair.to_bits()
        );
    }
    out
}

/// The observed relocation pipeline honours the CI thread matrix the
/// same way the oracle paths do: churn with observed decisions is
/// byte-identical under pinned 1/2/8-worker pools and the matrix width.
#[test]
fn observed_churn_parallel_equals_sequential() {
    let baseline = observed_churn_trace();
    for threads in [1usize, 2, 8] {
        let parallel = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool build never fails")
            .install(observed_churn_trace);
        assert_eq!(
            baseline.as_bytes(),
            parallel.as_bytes(),
            "{threads}-thread observed churn diverged"
        );
    }
    let width = matrix_width();
    let pinned = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("shim pool build never fails")
        .install(observed_churn_trace);
    assert_eq!(baseline.as_bytes(), pinned.as_bytes());
}

/// The observed traffic engine — observation pass, EMA fold, agreement
/// audit, reference oracle repair and the observed repair — rendered to
/// bytes with phase 1 forced parallel, mirroring [`traffic_trace`].
fn observed_traffic_trace() -> String {
    let (cfg, traffic) = recluster_sim::traffic::traffic_small_observed_config(41);
    with_shard_min(1, || {
        recluster_sim::traffic::run_traffic(&cfg, &traffic).render("traffic_det_observed", 41)
    })
}

/// Observed traffic under pinned 1/2/8-worker pools and the CI matrix
/// width is byte-identical to the ambient run, fidelity lines included.
#[test]
fn observed_traffic_engine_parallel_equals_sequential() {
    let baseline = observed_traffic_trace();
    assert!(
        baseline.contains("fidelity"),
        "observed traffic must render fidelity lines"
    );
    for threads in [1usize, 2, 8] {
        let parallel = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool build never fails")
            .install(observed_traffic_trace);
        assert_eq!(
            baseline.as_bytes(),
            parallel.as_bytes(),
            "{threads}-thread observed traffic run diverged"
        );
    }
    let width = matrix_width();
    let pinned = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("shim pool build never fails")
        .install(observed_traffic_trace);
    assert_eq!(baseline.as_bytes(), pinned.as_bytes());
}

/// Oracle churn rendered to full bit precision — the pipeline the
/// million-peer run drives, just small enough to re-run under every
/// pool width here.
fn oracle_churn_trace() -> String {
    let cfg = ExperimentConfig::small(31);
    let churn = ChurnConfig {
        periods: 4,
        leaves_per_period: 1,
        joins_per_period: 1,
        ..ChurnConfig::default()
    };
    let (rows, _) = run_churn_with_fidelity(&cfg, &churn);
    let mut out = String::new();
    for r in &rows {
        let _ = writeln!(
            out,
            "period {}: churn={:016x} repair={:016x} peers={} moves={} msgs={} fpq={:016x} fnr={:016x}",
            r.period,
            r.scost_after_churn.to_bits(),
            r.scost_after_repair.to_bits(),
            r.peers,
            r.moves,
            r.query_messages,
            r.forwards_per_query.to_bits(),
            r.false_negative_rate.to_bits()
        );
    }
    out
}

/// The sharded flush/fan-out path (peer-range sharding of the cost
/// cache flush and the per-period tracker walk, normally gated behind
/// `RECLUSTER_SHARD_MIN`) is byte-identical to the forced-sequential
/// path under pinned 1/2/8-worker pools and the CI matrix width. CI
/// additionally runs the whole suite with `RECLUSTER_SHARD_MIN=1`, so
/// every *other* trace in this file crosses the sharded path too.
#[test]
fn sharded_churn_trace_parallel_equals_sequential() {
    let sequential = with_shard_min(usize::MAX, oracle_churn_trace);
    for threads in [1usize, 2, 8, matrix_width()] {
        let sharded = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool build never fails")
            .install(|| with_shard_min(1, oracle_churn_trace));
        assert_eq!(
            sequential.as_bytes(),
            sharded.as_bytes(),
            "{threads}-thread sharded churn diverged from sequential"
        );
    }
}

/// A full runtime convergence under a *degraded* schedule (delay 0..3,
/// 10% loss), rendered to full bit precision: every forwarded request
/// and grant with gain bits, post-round costs, and the fabric ledger.
/// Any nondeterminism in the scheduler — heap tie-breaks, RNG draws,
/// machine polling order — reaches these bytes.
fn runtime_trace(seed: u64) -> String {
    runtime_trace_with(seed, FaultSchedule::none(), Vec::new())
}

/// `runtime_trace` under an explicit fault schedule and churn script —
/// the partition-tolerant paths (cut/crash attribution, voided grants,
/// mid-round teardown) feed the same bit-precision bytes.
fn runtime_trace_with(seed: u64, faults: FaultSchedule, churn: Vec<(u64, RuntimeChurn)>) -> String {
    let mut tb = build_system(
        Scenario::SameCategory,
        InitialConfig::RandomM,
        &ExperimentConfig::small(23),
    );
    let mut net = SimNetwork::new();
    let cfg = ProtocolConfig::builder()
        .max_rounds(30)
        .memoize(false)
        .build();
    let mut engine = RuntimeEngine::new(SelfishStrategy, cfg, NetConfig::degraded(seed, 0, 3, 0.1))
        .with_faults(faults)
        .with_churn(churn);
    let outcome = engine.run(&mut tb.system, &mut net);
    let mut out = String::new();
    for r in &outcome.rounds {
        let _ = write!(out, "round {}:", r.round);
        for q in &r.requests {
            let _ = write!(
                out,
                " req({},{},{},{:016x})",
                q.src,
                q.dst,
                q.peer,
                q.gain.to_bits()
            );
        }
        for g in &r.granted {
            let _ = write!(out, " grant({},{})", g.peer, g.dst);
        }
        let _ = writeln!(
            out,
            " scost={:016x} wcost={:016x} clusters={}",
            r.scost.to_bits(),
            r.wcost.to_bits(),
            r.non_empty_clusters
        );
    }
    let _ = writeln!(
        out,
        "net={:?} msgs={}",
        engine.net_stats(),
        net.total_messages()
    );
    out
}

/// Seed discipline of the simulated fabric: an identical-seed replay of
/// a lossy, reordering schedule is byte-identical down to the gain
/// bits, and two different seeds actually produce different schedules.
#[test]
fn runtime_replay_is_byte_identical_and_seeds_diverge() {
    let first = runtime_trace(7);
    assert_eq!(
        first.as_bytes(),
        runtime_trace(7).as_bytes(),
        "identical-seed replay diverged"
    );
    let other = runtime_trace(8);
    assert_ne!(
        first.as_bytes(),
        other.as_bytes(),
        "different fabric seeds produced identical degraded runs"
    );
}

/// The faulted runtime keeps the same contract: a degraded schedule
/// *plus* a bisection, a crash window and mid-round churn replays
/// byte-identically under the same seed, and still diverges across
/// fabric seeds (the faults shift traffic, they do not freeze it).
#[test]
fn faulted_runtime_replay_is_byte_identical_and_seeds_diverge() {
    let scripted = |seed| {
        let faults = FaultSchedule {
            partitions: vec![Partition {
                kind: PartitionKind::Bisect { pivot: 20 },
                start: 4,
                heal: 40,
            }],
            crashes: vec![CrashWindow {
                peer: PeerId(3),
                down: 10,
                up: 30,
            }],
        };
        let churn = vec![
            (6, RuntimeChurn::Depart { peer: PeerId(7) }),
            (12, RuntimeChurn::Depart { peer: PeerId(11) }),
        ];
        runtime_trace_with(seed, faults, churn)
    };
    let first = scripted(7);
    assert_eq!(
        first.as_bytes(),
        scripted(7).as_bytes(),
        "identical-seed faulted replay diverged"
    );
    assert_ne!(
        first.as_bytes(),
        scripted(8).as_bytes(),
        "different fabric seeds produced identical faulted runs"
    );
    assert_ne!(
        first.as_bytes(),
        runtime_trace(7).as_bytes(),
        "the fault schedule left no trace in the run"
    );
}

/// The runtime honours the CI thread matrix the way every other engine
/// does: a degraded-schedule trace under pinned 1/2/8-worker pools (and
/// the matrix width) is byte-identical to the ambient run.
#[test]
fn runtime_trace_parallel_equals_sequential() {
    let baseline = runtime_trace(7);
    for threads in [1usize, 2, 8] {
        let parallel = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool build never fails")
            .install(|| runtime_trace(7));
        assert_eq!(
            baseline.as_bytes(),
            parallel.as_bytes(),
            "{threads}-thread runtime trace diverged"
        );
    }
    let width = matrix_width();
    let pinned = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("shim pool build never fails")
        .install(|| runtime_trace(7));
    assert_eq!(baseline.as_bytes(), pinned.as_bytes());
}

/// All five runtime sweeps — delay/reorder, liar audit, partition/heal,
/// mid-round churn and the observed commitment-reveal audit — render
/// byte-identically under sequential, 1/2/8-pinned and matrix-width
/// runners: every golden snapshot in the family is thread-invariant.
#[test]
fn netsim_sweeps_parallel_equal_sequential() {
    let cfg = ExperimentConfig::small(17);
    // Short budgets: byte-identity is the claim here, not convergence.
    let renders = |p: Parallelism| {
        [
            render_net_sweep(&run_net_sweep(&cfg, 20, 5, p), 5),
            render_liar_audit(&run_liar_audit(&cfg, 20, 5, p), 5),
            render_partition_heal(&run_partition_heal(&cfg, 20, 5, p), 5),
            render_midround_churn(&run_midround_churn(&cfg, 20, 5, p), 5),
            render_observed_audit(&run_observed_liar_audit(&cfg, 8, 5, p), 5),
        ]
    };
    let seq = renders(Parallelism::Sequential);
    let width = matrix_width();
    for threads in [1usize, 2, 8, width] {
        let par = renders(Parallelism::Threads(threads));
        for (name, (s, p)) in [
            "net sweep",
            "liar audit",
            "partition heal",
            "midround churn",
            "observed audit",
        ]
        .iter()
        .zip(seq.iter().zip(&par))
        {
            assert_eq!(
                s.as_bytes(),
                p.as_bytes(),
                "{threads}-thread {name} diverged"
            );
        }
    }
}

#[test]
fn table1_parallel_equals_sequential() {
    let mut cfg = Table1Config::small(19);
    cfg.max_rounds = 15; // keep the full 24-cell grid fast

    let fmt = |rows: &[recluster_sim::table1::Table1Row]| -> String {
        rows.iter()
            .map(|r| {
                format!(
                    "{}|{}|{}|{:?}|{}|{}|{}|{}|{}\n",
                    r.scenario.label(),
                    r.init.label(),
                    r.strategy,
                    r.rounds,
                    r.clusters,
                    // Full bit-precision rendering: any float drift
                    // between the runners would show here.
                    r.scost.to_bits(),
                    r.wcost.to_bits(),
                    r.nash,
                    r.messages
                )
            })
            .collect()
    };

    let seq = fmt(&run_table1_with(&cfg, Parallelism::Sequential));
    let par = fmt(&run_table1_with(&cfg, Parallelism::Auto));
    assert_eq!(seq.as_bytes(), par.as_bytes());
}
