//! Developer diagnostics: prints the dynamics of the miniature
//! 40-peer testbed — Table 1 cells across every initial configuration,
//! a fig-1 cost series, fig-2/3 update points, a full per-round
//! altruistic protocol trace and a per-round selfish trace of the
//! proposal memo's hits and misses by gate condition.
//!
//! Not part of the reproduction surface — see `recluster-bench` for the
//! paper's tables and figures, and the `traffic_demo` bin for the
//! streamed query-serving scenario. Runs in well under a second even in
//! a debug build:
//!
//! ```text
//! cargo run -p recluster-sim --bin sim-debug
//! ```
//!
//! Output is deterministic (fixed seed 21, no wall-clock content), so
//! diffing two runs across branches is a quick sanity check when
//! touching the protocol or cost layers. The closing churn-fidelity
//! section honours `RECLUSTER_DECISIONS` (`oracle` | `observed` |
//! `observed:<decay>`, default `observed`; malformed values warn on
//! stderr and fall back).

use recluster_core::{DecisionSource, EmptyTargetPolicy, ProtocolConfig};
use recluster_overlay::SimNetwork;
use recluster_sim::churn::{run_churn_with_fidelity, ChurnConfig};
use recluster_sim::fig1::run_series;
use recluster_sim::fig23::{run_point, UpdateMode};
use recluster_sim::knobs::Knobs;
use recluster_sim::runner::{run_protocol, StrategyKind};
use recluster_sim::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};
use recluster_sim::table1::{run_cell, Table1Config};

fn main() {
    let cfg = ExperimentConfig::small(21);

    println!("== scenario 1, all inits, selfish ==");
    let t1 = Table1Config::small(21);
    for init in [
        InitialConfig::Singletons,
        InitialConfig::RandomM,
        InitialConfig::Fewer,
        InitialConfig::More,
    ] {
        for kind in [StrategyKind::Selfish, StrategyKind::Altruistic] {
            let row = run_cell(Scenario::SameCategory, init, kind, &t1);
            println!(
                "  {:?} {:12} rounds={:?} clusters={} scost={:.3} wcost={:.3} nash={}",
                init, row.strategy, row.rounds, row.clusters, row.scost, row.wcost, row.nash
            );
        }
    }

    println!("== fig1 series (selfish) ==");
    let s = run_series(&cfg, StrategyKind::Selfish, 60);
    println!(
        "  scost: {:?}",
        s.scost
            .iter()
            .map(|v| (v * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    println!(
        "  wcost: {:?}",
        s.wcost
            .iter()
            .map(|v| (v * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );

    println!("== fig23 data-update points ==");
    for f in [0.2, 0.5, 0.8, 1.0] {
        let sp = run_point(&cfg, UpdateMode::DataPeers, StrategyKind::Selfish, f, 60);
        let ap = run_point(&cfg, UpdateMode::DataPeers, StrategyKind::Altruistic, f, 60);
        println!(
            "  f={f}: selfish before={:.3} after={:.3} moves={} | altruistic before={:.3} after={:.3} moves={}",
            sp.scost_before, sp.scost_after, sp.moves, ap.scost_before, ap.scost_after, ap.moves
        );
    }

    println!("== fig23 workload-update points ==");
    for f in [0.2, 0.5, 0.8, 1.0] {
        let sp = run_point(
            &cfg,
            UpdateMode::WorkloadPeers,
            StrategyKind::Selfish,
            f,
            60,
        );
        let ap = run_point(
            &cfg,
            UpdateMode::WorkloadPeers,
            StrategyKind::Altruistic,
            f,
            60,
        );
        println!(
            "  f={f}: selfish before={:.3} after={:.3} moves={} | altruistic before={:.3} after={:.3} moves={}",
            sp.scost_before, sp.scost_after, sp.moves, ap.scost_before, ap.scost_after, ap.moves
        );
    }

    println!("== scenario-2 cell (selfish) ==");
    let row = run_cell(
        Scenario::DifferentCategory,
        InitialConfig::RandomM,
        StrategyKind::Selfish,
        &t1,
    );
    println!(
        "  rounds={:?} clusters={} scost={:.3} wcost={:.3}",
        row.rounds, row.clusters, row.scost, row.wcost
    );

    println!("== altruistic random-M trace ==");
    let trace_config = ProtocolConfig::builder()
        .epsilon(1e-3)
        .max_rounds(30)
        .empty_targets(EmptyTargetPolicy::Always)
        .use_locks(true)
        .build();
    let mut tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, &cfg);
    let mut net = SimNetwork::new();
    let outcome = run_protocol(
        &mut tb.system,
        StrategyKind::Altruistic,
        trace_config,
        &mut net,
    );
    for r in outcome.rounds.iter() {
        println!(
            "  round {}: requests={} granted={} scost={:.3} clusters={}",
            r.round,
            r.requests.len(),
            r.granted.len(),
            r.scost,
            r.non_empty_clusters
        );
    }

    // Only the selfish strategy memoizes, so the miss reasons are
    // traced on a selfish run of the same start.
    println!("== selfish random-M memo trace ==");
    let mut tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, &cfg);
    let mut net = SimNetwork::new();
    let outcome = run_protocol(
        &mut tb.system,
        StrategyKind::Selfish,
        trace_config,
        &mut net,
    );
    for r in outcome.rounds.iter() {
        let m = r.memo_misses;
        println!(
            "  round {}: granted={} memoized={} recomputed={} \
             (stale={} sequence={} marks={} own_cluster={} chain={} take={})",
            r.round,
            r.granted.len(),
            r.proposals_memoized,
            r.proposals_recomputed,
            m.stale,
            m.sequence,
            m.marks,
            m.own_cluster,
            m.chain,
            m.take
        );
    }

    let decisions = Knobs::from_env()
        .decisions
        .unwrap_or(DecisionSource::Observed { decay: 0.0 });
    println!("== churn fidelity ({decisions}) ==");
    let churn = ChurnConfig {
        periods: 4,
        leaves_per_period: 1,
        joins_per_period: 1,
        decisions,
        ..ChurnConfig::default()
    };
    let (rows, fidelity) = run_churn_with_fidelity(&cfg, &churn);
    match fidelity {
        Some(report) => {
            for f in &report.periods {
                println!(
                    "  period {}: agree={:.3} scost observed={:.3} oracle={:.3} gap={:+.4}",
                    f.period,
                    f.agreement_rate,
                    f.scost_observed_repair,
                    f.scost_oracle_repair,
                    f.scost_gap()
                );
            }
            println!(
                "  mean_agree={:.3} final_gap={:+.4}",
                report.mean_agreement(),
                report.final_scost_gap()
            );
        }
        None => {
            for r in &rows {
                println!(
                    "  period {}: scost after churn={:.3} after repair={:.3} moves={}",
                    r.period, r.scost_after_churn, r.scost_after_repair, r.moves
                );
            }
        }
    }
}
